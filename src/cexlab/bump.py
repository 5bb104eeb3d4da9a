"""Dyadic multi-bump functions and their quantitative estimates.

A single smooth bump of unit mass is copied to every dyadic point j/2^n,
shrunk horizontally to the radius 2^(-beta*n) of the covering intervals
and scaled down by 2^(-alpha*beta*n).  The resulting function vanishes on
the complement K_n of the cover, is uniformly Hoelder of order alpha in n,
and its antiderivative gains at least one bump mass 2^(-(alpha+1)*beta*n)
across every stretch of length 3/2^n.  Those five facts are exactly what
`verify_multibump_estimates` measures.

The same module hosts the two pieces of bookkeeping built on top: the
piecewise-affine extension of a Hoelder function off a closed set, and the
selection of the perturbation size eps2 and level n0 that make the bump
antiderivative beat a prescribed quadratic error allowance on a positive
measure set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from .holder import Fn1D, holder_constant
from .intervals import DyadicFamily, build_kn


class ConstructionImpossible(ValueError):
    """Raised when the requested parameters cannot yield a candidate for
    any level n (the growth inequality fails asymptotically)."""


@dataclass(frozen=True)
class MotherBump:
    """A mother bump: nonnegative, supported on (-1, 1), unit mass.

    mass is the antiderivative normalized to 0 at -1 and 1 at +1; sup and
    lip_const are the exact sup of the bump and of |bump'|.
    """

    eval: object
    deriv: object
    mass: object
    sup: float
    lip_const: float

    def __call__(self, x):
        return self.eval(x)


@cache
def default_bump():
    """The quartic bump (15/16)(1 - x^2)^2 on (-1, 1), one shared instance.

    Mass is exactly 1; sup is 15/16 at 0; |phi'| peaks at 5*sqrt(3)/6.
    All three are closed forms, which keeps the gap estimate below exact.
    """
    c = 15.0 / 16.0

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < 1.0
        y = np.where(inside, 1.0 - x * x, 0.0)
        return c * y * y

    def deriv(x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < 1.0
        return np.where(inside, -4.0 * c * x * (1.0 - x * x), 0.0)

    def mass(x):
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, -1.0, 1.0)
        raw = c * (xc - 2.0 * xc ** 3 / 3.0 + xc ** 5 / 5.0) + 0.5
        return np.clip(raw, 0.0, 1.0)

    return MotherBump(eval=evaluate, deriv=deriv, mass=mass,
                    sup=c, lip_const=5.0 * math.sqrt(3.0) / 6.0)


@lru_cache(maxsize=32)
def bump_holder_constant(bump, alpha):
    """Order-alpha constant of the mother bump, measured on a fine grid
    and cached per (bump, alpha)."""
    grid = np.linspace(-1.0, 1.0, 4001)
    return holder_constant(bump.eval, alpha, grid).constant


@dataclass(frozen=True)
class MultibumpParams:
    """Level/extent parameters of a multi-bump function.

    Bumps sit at j/2^n for |j| <= k*2^n.  We require beta*n > n so that
    neighbouring bumps never overlap; the stronger condition
    beta*n >= n+2 needed by the estimates is checked where it is used.
    """

    family: DyadicFamily
    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.family.beta * self.n > self.n:
            raise ValueError(
                f"need beta*n > n for disjoint bumps, got beta*n = {self.family.beta * self.n}")

    @property
    def alpha(self):
        return self.family.alpha

    @property
    def beta(self):
        return self.family.beta

    @property
    def scale(self):
        """Vertical scale 2^(-alpha*beta*n)."""
        return 2.0 ** (-self.alpha * self.beta * self.n)

    @property
    def rate(self):
        """Horizontal shrink rate 2^(beta*n)."""
        return 2.0 ** (self.beta * self.n)

    @property
    def spacing(self):
        """Distance 2^(-n) between bump centres."""
        return 2.0 ** (-self.n)

    @property
    def count(self):
        """Index bound: centres are j/2^n with |j| <= count."""
        return self.k * 2 ** self.n

    @property
    def bump_mass(self):
        """Exact mass of one bump: 2^(-(alpha+1)*beta*n)."""
        return 2.0 ** (-(self.alpha + 1.0) * self.beta * self.n)

    def meets_estimate_hypothesis(self):
        """The separation condition beta*n >= n+2 behind the estimates."""
        return self.beta * self.n >= self.n + 2


def multibump(bump, params):
    """The multi-bump function of `params` as an Fn1D.

    Evaluation exploits disjoint supports: for any x only the nearest
    centre and its two neighbours can contribute.  The antiderivative
    counts completed bumps below x exactly (one mass each) and adds the
    partial mass of the active ones, then subtracts the same count at 0,
    so psi(0) = 0.
    """
    scale, rate, spacing = params.scale, params.rate, params.spacing
    count = params.count
    two_n = float(2 ** params.n)

    def nearest(x):
        j = np.round(x * two_n)
        return np.clip(j, -count, count)

    def neighbours(profile, x, j0):
        """profile summed over the copies centred at j0 - 1, j0, j0 + 1."""
        out = np.zeros_like(x)
        for dj in (-1.0, 0.0, 1.0):
            j = j0 + dj
            ok = np.abs(j) <= count
            out += np.where(ok, profile(rate * (x - j * spacing)), 0.0)
        return out

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return scale * neighbours(bump.eval, x, nearest(x))

    def deriv(x):
        x = np.asarray(x, dtype=float)
        return scale * rate * neighbours(bump.deriv, x, nearest(x))

    def raw_count_and_partial(x):
        """Completed bumps strictly below x, plus partial masses of the
        active centres near x."""
        j0 = nearest(x)
        # centres <= j0 - 2 have support entirely below x: their right
        # edge is at most (j0 - 2 + 2^(n - beta*n))/2^n < (j0 - 1/2)/2^n <= x
        full = np.clip(j0 - 2.0, -count - 1.0, count) - (-count) + 1.0
        full = np.maximum(full, 0.0)
        return full + neighbours(bump.mass, x, j0)

    s0 = float(raw_count_and_partial(np.asarray(0.0)))

    def antideriv(x):
        x = np.asarray(x, dtype=float)
        return params.bump_mass * (raw_count_and_partial(x) - s0)

    return Fn1D(eval=evaluate, deriv=deriv, antideriv=antideriv)


@dataclass(frozen=True)
class MultibumpReport:
    """Measured values and pass flags for the five multi-bump estimates."""

    params: MultibumpParams
    support_ok: bool
    sup_phi: float
    sup_phi_bound: float
    sup_psi: float
    sup_psi_bound: float
    lip_measured: float
    lip_bound: float
    holder_measured: float
    holder_bound: float
    gap_min: float
    gap_bound: float
    gap_attainment: float

    @property
    def pointwise_ok(self):
        return (self.sup_phi <= self.sup_phi_bound * (1 + 1e-12)
                and self.sup_psi <= self.sup_psi_bound * (1 + 1e-12))

    @property
    def lip_ok(self):
        return self.lip_measured <= self.lip_bound * (1 + 1e-9)

    @property
    def holder_ok(self):
        return self.holder_measured <= self.holder_bound * (1 + 1e-9)

    @property
    def gap_ok(self):
        return self.gap_min >= self.gap_bound * (1 - 1e-12)

    @property
    def all_ok(self):
        return (self.support_ok and self.pointwise_ok and self.lip_ok
                and self.holder_ok and self.gap_ok)


def _least_increment(x, y, reach):
    """Least y[j] - y[i] over the pairs with x[j] - x[i] >= reach, as a
    scan of all pairs rounds it (inf if none); x nondecreasing, reach > 0.

    The qualifying j form a suffix, since a rounded difference is monotone
    in x[j]; searchsorted guesses its start, and steps correct the guess
    where x[i] + reach rounds across it.  Rounding is monotone too, so the
    least rounded difference is the suffix minimum of y minus y[i].
    """
    last = x.size - 1

    def qualifies(j):
        return (j <= last) & (x[np.clip(j, 0, last)] - x >= reach)

    j = np.searchsorted(x, x + reach)
    while (back := qualifies(j - 1)).any():
        j -= back
    while (ahead := (j <= last) & ~qualifies(j)).any():
        j += ahead
    suffix_min = np.append(np.minimum.accumulate(y[::-1])[::-1], np.inf)
    return float(np.min(suffix_min[j] - y))


def verify_multibump_estimates(bump, params):
    """Measure the five estimates for one multi-bump function.

    Requires the separation hypothesis beta*n >= n+2; without it the
    Hoelder transfer between neighbouring bumps breaks down and the
    estimates are not claimed.

    * support: zero on a grid over K_n and for |x| >= k+1;
    * pointwise: sup phi <= sup(bump) * 2^(-alpha*beta*n) and
      sup |psi| <= (k+1) * sup(bump) * 2^(-alpha*beta*n);
    * Lipschitz: max |phi'| <= 2^((1-alpha)*beta*n) * lip(bump);
    * Hoelder: order-alpha constant <= the mother bump's, independent of n;
    * gap: psi(y) - psi(x) >= one bump mass whenever y - x >= 3/2^n inside
      [-k, k], via the closed-form antiderivative.

    The Hoelder sup is measured on a window of three consecutive bumps
    plus the surrounding gaps; by exact periodicity of the construction
    every pair of points is equivalent to a pair in such a window (pairs
    spanning further than one period are dominated by the pointwise bound
    at larger distance).  The gap bound is taken over all pairs of a grid
    on [-k, k] in one suffix-minimum pass; (-k, k) always qualifies.  Both
    grids have a fixed 1500 points.
    """
    if not params.meets_estimate_hypothesis():
        raise ValueError(
            "multi-bump estimates require beta*n >= n + 2, got "
            f"beta*n = {params.beta * params.n} at n = {params.n}")
    f = multibump(bump, params)
    n, k = params.n, params.k
    alpha = params.alpha
    spacing, scale, rate = params.spacing, params.scale, params.rate

    # support check on K_n (truncated far enough that the leftover cover
    # measure is far below the spacing) and beyond the last bump
    fam = DyadicFamily(alpha=params.alpha, beta=params.beta, window=k + 1)
    kn = build_kn(fam, n, max(n + 8, 12))
    kn_grid = kn.sample_grid(spacing / 7)
    outside = np.linspace(k + 1, k + 3, 101)
    support_vals = np.abs(np.concatenate([f.eval(kn_grid), f.eval(outside),
                                          f.eval(-outside)]))
    # at non-integral beta*n a complement endpoint can round half an ulp
    # into the open support; a true leak would be order scale, not 1e-20
    support_ok = bool(np.max(support_vals) <= bump.sup * scale * 1e-20)

    # pointwise sups on a grid resolving individual bumps
    local = np.linspace(-1.0 / rate, 1.0 / rate, 201)
    centers = np.arange(-params.count, params.count + 1) * spacing
    dense = (centers[:, None] + local[None, :]).ravel()
    sup_phi = float(np.max(np.abs(f.eval(dense))))
    box = np.linspace(-k - 1.5, k + 1.5, 4001)
    sup_psi = float(np.max(np.abs(f.antideriv(np.concatenate([dense, box])))))

    lip_measured = float(np.max(np.abs(f.deriv(dense))))
    lip_bound = 2.0 ** ((1.0 - alpha) * params.beta * n) * bump.lip_const

    # Hoelder sup over one period window: bump at 0 and its neighbours
    w = np.linspace(-1.5 * spacing, 1.5 * spacing, 1500)
    holder_measured = holder_constant(f, alpha, w).constant
    holder_bound = bump_holder_constant(bump, alpha)

    # gap estimate via the closed-form antiderivative on [-k, k]
    g = np.linspace(-k, k, 1500)
    gap_min = _least_increment(g, f.antideriv(g), 3.0 * spacing)
    gap_bound = params.bump_mass
    return MultibumpReport(
        params=params, support_ok=support_ok,
        sup_phi=sup_phi, sup_phi_bound=bump.sup * scale,
        sup_psi=sup_psi, sup_psi_bound=(k + 1) * bump.sup * scale,
        lip_measured=lip_measured, lip_bound=lip_bound,
        holder_measured=holder_measured, holder_bound=holder_bound,
        gap_min=gap_min, gap_bound=gap_bound,
        gap_attainment=gap_min / gap_bound if gap_bound else math.inf)


@dataclass(frozen=True)
class AffineExtension:
    """An extension off a closed set together with the constants it keeps.

    holder_bound and lip_bound are inherited from the restriction as
    claimed by the caller; sup_deviation_bound = 2*H*meas(gaps)^order
    limits how far any other extension with the same constants can sit.
    """

    fn: Fn1D
    order: float
    holder_bound: float
    lip_bound: float
    gap_measure: float
    sup_deviation_bound: float


def extend_piecewise_affine(phi, kset, order, H, L, C, D):
    """Extend phi from a closed set to [C, D] by affine interpolation.

    phi must be order-Hoelder with constant H and Lipschitz with constant
    L on pairs of points of `kset`; affine bridging of the gaps preserves
    both constants, and any two extensions with those constants differ by
    at most 2 * H * meas([C, D] minus the set)^order in sup norm.  C and D
    must belong to the set.

    The returned function agrees with phi on the set exactly (same code
    path, same floats).
    """
    if not (kset.contains(C) and kset.contains(D)):
        raise ValueError("C and D must both belong to the set")
    if not C < D:
        raise ValueError(f"need C < D, got C={C}, D={D}")
    gaps = kset.complement(C, D)
    ga = np.array([float(p.lo) for p in gaps.parts])
    gb = np.array([float(p.hi) for p in gaps.parts])
    va = np.asarray(phi(ga), dtype=float) if ga.size else ga
    vb = np.asarray(phi(gb), dtype=float) if gb.size else gb

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(phi(x), dtype=float).copy()
        if ga.size:
            idx = np.searchsorted(ga, x, side="right") - 1
            idc = np.clip(idx, 0, ga.size - 1)
            in_gap = (idx >= 0) & (x > ga[idc]) & (x < gb[idc])
            if np.any(in_gap):
                i = idc[in_gap]
                t = (x[in_gap] - ga[i]) / (gb[i] - ga[i])
                out[in_gap] = va[i] + t * (vb[i] - va[i])
        return out

    gm = float(gaps.measure)
    return AffineExtension(fn=Fn1D(eval=evaluate), order=order,
                           holder_bound=H, lip_bound=L, gap_measure=gm,
                           sup_deviation_bound=2.0 * H * gm ** order)


@dataclass(frozen=True)
class CandidatePlan:
    """The perturbation built on top of f0: psi = f0 + eps2 * psi_{n0,k0}.

    eps2 obeys the three smallness conditions (Hoelder budget, Lipschitz
    budget, C^1 ball of radius eps0) and n0 is the least level at which
    the bump mass gain beats the quadratic error allowance.
    """

    eps1: float
    eps2: float
    eps0: float
    n0: int
    k0: int
    H: float
    L0: float
    alpha: float
    beta: float
    psi: Fn1D
    bump_holder: float
    bump_lip: float
    bump_sup: float

    @property
    def c1_distance_bound(self):
        """Sup bound on |psi - f0| + |psi' - f0'|: eps2*(k0+2)*sup(bump)
        after rescaling (the antiderivative term dominates)."""
        return self.eps2 * (self.k0 + 2) * self.bump_sup


# how many floats below the smallest eps2 limit build_candidate tries
_EPS2_ULPS = 4


def _eps2_conditions(eps2, eps1, H, eps0, k0, hphi, lphi, mphi):
    return (eps2 * hphi <= eps1 * H
            and eps2 * lphi <= eps1
            and eps2 * (k0 + 2) * mphi < eps0)


def _n0_conditions(n0, eps2, alpha, beta, k0, L0):
    c1 = 10.0 / 2 ** n0 < 1.0 / k0
    c2 = 2.0 ** (-n0) > 6.0 * 2.0 ** (-beta * n0)
    gain = eps2 * 2.0 ** (-(alpha + 1.0) * beta * n0)
    allowance = (k0 + L0) * 400.0 * 2.0 ** (-2.0 * n0)
    return c1 and c2 and gain > allowance


def build_candidate(f0, L0, H, eps1, k0, alpha, beta,
                    eps0=1.0, bump=None, n_scan=64):
    """Choose eps2 and the least admissible level n0, and assemble psi.

    f0 is the centre of the ball (an Fn1D; its own slack conditions are
    the caller's responsibility), L0 a Lipschitz constant of f0', H the
    ambient Hoelder radius, eps1 the slack fraction, k0 the window index,
    eps0 the C^1 ball radius.

    Raises ConstructionImpossible when (alpha+1)*beta >= 2: the gain
    2^(-(alpha+1)*beta*n) then decays at least as fast as the quadratic
    allowance 2^(-2n) and no level can ever win.
    """
    if (alpha + 1.0) * beta >= 2.0:
        raise ConstructionImpossible(
            f"(alpha+1)*beta = {(alpha + 1.0) * beta} >= 2: the bump gain "
            "decays no slower than the quadratic allowance")
    if bump is None:
        bump = default_bump()
    hphi = bump_holder_constant(bump, alpha)
    lphi = bump.lip_const
    mphi = bump.sup
    limit = min(eps1 * H / hphi, eps1 / lphi,
                0.999 * eps0 / ((k0 + 2) * mphi))
    # a binding Hoelder or Lipschitz limit can miss its own condition by
    # one rounding of the product; step down to the next floats below
    eps2 = limit
    for _ in range(_EPS2_ULPS):
        if _eps2_conditions(eps2, eps1, H, eps0, k0, hphi, lphi, mphi):
            break
        eps2 = float(np.nextafter(eps2, 0.0))
    else:
        raise ConstructionImpossible(
            f"no eps2 within {_EPS2_ULPS} floats below {limit!r} meets the "
            "Hoelder, Lipschitz and C^1-ball conditions")

    n0 = None
    for n in range(1, n_scan + 1):
        if _n0_conditions(n, eps2, alpha, beta, k0, L0):
            n0 = n
            break
    if n0 is None:
        raise ConstructionImpossible(
            f"no admissible level n0 in 1..{n_scan}; raise n_scan or "
            "loosen the parameters")

    params = MultibumpParams(DyadicFamily(alpha=alpha, beta=beta, window=k0),
                             n=n0, k=k0)
    mb = multibump(bump, params)
    f0d = f0.deriv if isinstance(f0, Fn1D) else None

    def evaluate(x):
        return f0(x) + eps2 * mb.antideriv(x)

    deriv = None
    if f0d is not None:
        def deriv(x):
            return f0d(x) + eps2 * mb.eval(x)

    psi = Fn1D(eval=evaluate, deriv=deriv)
    return CandidatePlan(eps1=eps1, eps2=eps2, eps0=eps0, n0=n0, k0=k0,
                         H=H, L0=L0, alpha=alpha, beta=beta, psi=psi,
                         bump_holder=hphi, bump_lip=lphi, bump_sup=mphi)


@dataclass(frozen=True)
class MeasureBudget:
    """Exact bookkeeping for the coincidence window [x0, x0 + 10/2^n0].

    j3_lower is the density 19/10 of the window length 10/2^n0; j2_upper
    the 18/2^n0 worth of points crowded near the dyadic grid; j1_upper the
    6/2^(beta*n0) covered by the level-n0 intervals themselves.  slack is
    their difference, the guaranteed measure on which the bump gain acts.
    """

    n0: int
    beta: object
    k0: int
    j3_lower: Fraction
    j2_upper: Fraction
    j1_upper: object
    slack: object
    exact: bool
    density_ratio: Fraction = Fraction(19, 10)

    @property
    def positive(self):
        return self.slack > 0


def measure_budget(n0, beta, k0):
    """Evaluate the window measure budget at level n0.

    slack = 19/2^n0 - 18/2^n0 - 6/2^(beta*n0) = 1/2^n0 - 6/2^(beta*n0).
    When beta is rational with a manageable denominator the sign is
    decided by the exact integer comparison 2^((p-q)*n0) vs 6^q, and all
    reported quantities are Fractions; otherwise floats are used.  Pass
    beta as a Fraction (e.g. Fraction(7, 5)) to force the exact path for
    non-dyadic rationals.
    """
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    b = beta if isinstance(beta, Fraction) else Fraction(beta)
    j3 = Fraction(19, 10) * Fraction(10, 2 ** n0)
    j2 = Fraction(18, 2 ** n0)
    bn = b * n0
    if bn.denominator == 1:
        j1 = Fraction(6, 2 ** bn.numerator)
        slack = j3 - j2 - j1
        return MeasureBudget(n0=n0, beta=b, k0=k0, j3_lower=j3, j2_upper=j2,
                             j1_upper=j1, slack=slack, exact=True)
    p, q = b.numerator, b.denominator
    if q <= 64:
        # sign of 1/2^n0 - 6/2^(beta*n0) via 2^((p-q)*n0) vs 6^q, exactly
        positive = 2 ** ((p - q) * n0) > 6 ** q
        j1 = 6.0 * 2.0 ** float(-bn)
        slack = float(j3 - j2) - j1
        if positive != (slack > 0):  # float roundoff at the boundary
            slack = math.copysign(max(abs(slack), 1e-300), 1 if positive else -1)
        return MeasureBudget(n0=n0, beta=b, k0=k0, j3_lower=j3, j2_upper=j2,
                             j1_upper=j1, slack=slack, exact=True)
    j1 = 6.0 * 2.0 ** float(-bn)
    slack = float(j3 - j2) - j1
    return MeasureBudget(n0=n0, beta=b, k0=k0, j3_lower=j3, j2_upper=j2,
                         j1_upper=j1, slack=slack, exact=False)
