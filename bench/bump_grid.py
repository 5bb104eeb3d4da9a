"""bump-grid: seeded multi-bump configurations and the bookkeeping on top.

Each bump case runs ``verify_multibump_estimates``, ``build_candidate``
and ``measure_budget``, builds a shallow K_n and measures a Hoelder
constant on it, extends a random Hoelder function off a random compact
set, and makes one ``restricted_lipschitz`` call on a fixed set that
fails today (see ``FAILING_SET``).  Each round ends with the same seeded
``cexlab bump`` sweep through ``cli.main``, twice: two cases, the second
comparing its CSV with the first's, byte for byte.

The (beta, n, k) shapes of a round are fixed, since they set the number
of intervals ``build_kn`` handles; they mix beta*n integral (exact
Fraction radii) with non-integral (float radii).  The seed draws alpha
(from three values per run), the candidate parameters, the Hoelder test
function and the compact set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from cexlab import bump, cli, holder, intervals

from common import Outcome, brute_holder, expect, rel_close


OUT_DIR = Path(__file__).resolve().parent / "out"

# (beta, n, k): beta*n = 6 exact, 6.4 float, 6 exact over a wider window.
# With the two CLI cases a round has five cases, an odd number, so the
# median case sits inside one cluster of case times.
SHAPES = ((1.5, 4, 1), (1.6, 4, 1), (1.5, 4, 2))
TINY_SHAPES = ((1.6, 4, 1),)
# the CLI row: verify at this shape, candidate at the swept k0
CLI_SHAPE = (1.5, 4, 1)

# restricted_lipschitz thins a grid over this set to the pairwise cap and
# then adds the component endpoints back, overshooting the cap: 4191
# points against 4096.  Fixed, so the failure does not depend on the seed.
FAILING_SET = (0.2, 1.5, 1, 4, 10)   # alpha, beta, window, n, nmax
FAILING_STEP = 1e-4

QUARTIC_SUP = 15.0 / 16.0
QUARTIC_LIP = 5.0 * math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class HolderFn:
    """sum_i a_i |x - c_i|^alpha, order-alpha Hoelder on the line."""

    weights: tuple
    centres: tuple
    alpha: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for a, c in zip(self.weights, self.centres):
            out = out + a * np.abs(x - c) ** self.alpha
        return out


@dataclass(frozen=True)
class BumpCase:
    alpha: float
    beta: float
    n: int
    k: int
    H: float
    eps1: float
    eps0: float
    k0: int
    L0: float
    phi: HolderFn
    compact: tuple           # sorted (lo, hi) pairs
    failing_set: object      # IntervalSet, shared by every case


@dataclass(frozen=True)
class CliCase:
    config_path: str
    sweep: str
    csv_path: str
    same_as: str             # CSV of the earlier identical run, or ""


def _compact(rng):
    """4 to 8 disjoint intervals in [-1, 1], each and each gap at least
    0.02 long."""
    m = int(rng.integers(4, 9))
    while True:
        pts = np.sort(rng.uniform(-1.0, 1.0, size=2 * m))
        if np.min(np.diff(pts)) >= 0.02:
            return tuple((float(pts[2 * i]), float(pts[2 * i + 1])) for i in range(m))


def make_round(seed, tiny=False):
    rng = np.random.default_rng([seed, 303])
    # (alpha+1)*beta stays at least 0.27 below 2, so the candidate's level
    # n0 exists well inside build_candidate's scan of 64 levels.  With
    # H >= 1 and eps0 <= 1/2 the C^1-ball term is the smallest of the
    # three eps2 limits: build_candidate's assert on the other two can
    # fail by one rounding when they bind.
    alphas = [float(a) for a in rng.uniform(0.03, 0.08, size=3)]
    a, b, w, n, nmax = FAILING_SET
    failing = intervals.build_kn(intervals.DyadicFamily(a, b, window=w), n, nmax)
    cases = []
    for beta, n, k in (TINY_SHAPES if tiny else SHAPES):
        alpha = alphas[int(rng.integers(len(alphas)))]
        phi = HolderFn(weights=tuple(float(x) for x in rng.uniform(-1.0, 1.0, 4)),
                       centres=tuple(float(x) for x in rng.uniform(-1.0, 1.0, 4)),
                       alpha=alpha)
        cases.append(BumpCase(
            alpha=alpha, beta=beta, n=n, k=k, H=float(rng.uniform(1.0, 2.0)),
            eps1=float(rng.uniform(0.3, 0.8)), eps0=float(rng.uniform(0.3, 0.5)),
            k0=int(rng.integers(1, 3)), L0=float(rng.uniform(0.0, 1.0)),
            phi=phi, compact=_compact(rng), failing_set=failing))
    beta, n, k = CLI_SHAPE
    k0 = int(rng.integers(1, 3))
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"bump-s{seed}"
    config = Path(f"{stem}.cfg")
    config.write_text(
        f"bump.alpha = {alphas[int(rng.integers(len(alphas)))]!r}\n"
        f"bump.beta = {beta!r}\nbump.n = {n}\nbump.k = {k}\n"
        f"bump.h = {float(rng.uniform(1.0, 2.0))!r}\n"
        f"bump.eps1 = {float(rng.uniform(0.3, 0.8))!r}\n"
        f"bump.eps0 = {float(rng.uniform(0.3, 0.5))!r}\n"
        f"bump.l0 = {float(rng.uniform(0.0, 1.0))!r}\n", encoding="utf-8")
    first, second = f"{stem}-a.csv", f"{stem}-b.csv"
    sweep = f"k0={k0}..{k0}"
    cases.append(CliCase(str(config), sweep, first, ""))
    cases.append(CliCase(str(config), sweep, second, first))
    return cases


def _set_grid(pairs, per_part):
    return np.concatenate([np.linspace(lo, hi, per_part) for lo, hi in pairs])


def _gap_grid(pairs, per_gap):
    return np.concatenate([np.linspace(a_hi, b_lo, per_gap + 2)[1:-1]
                           for (_, a_hi), (b_lo, _) in zip(pairs, pairs[1:])])


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _run_cli(c):
    code = cli.main(["bump", "--config", c.config_path, "--sweep", c.sweep,
                     "--csv", c.csv_path])
    return Outcome(out={"code": code, "csv": Path(c.csv_path).read_bytes()},
                   attempted=1)


def run_case(c):
    if isinstance(c, CliCase):
        return _run_cli(c)
    fam = intervals.DyadicFamily(alpha=c.alpha, beta=c.beta, window=c.k)
    rep = bump.verify_multibump_estimates(
        bump.default_bump(), bump.MultibumpParams(fam, n=c.n, k=c.k))

    # shallow K_n on [-1, 1] and a Hoelder sup over a subsample of it
    kn = intervals.build_kn(intervals.DyadicFamily(c.alpha, c.beta, window=1),
                            c.n, c.n + 4)
    grid = kn.sample_grid(2.0 ** -c.n / 7.0)
    grid = grid[np.unique(np.linspace(0, grid.size - 1, 1000).astype(int))]
    hk = holder.holder_constant(c.phi, c.alpha, grid)

    kset = intervals.IntervalSet.from_pairs(c.compact)
    ext = bump.extend_piecewise_affine(c.phi, kset, c.alpha, 1.0, 1.0,
                                       c.compact[0][0], c.compact[-1][1])
    on_set = _set_grid(c.compact, 60)
    in_gaps = _gap_grid(c.compact, 40)

    plan = bump.build_candidate(holder.Fn1D(eval=_zero, deriv=_zero), L0=c.L0,
                                H=c.H, eps1=c.eps1, k0=c.k0, alpha=c.alpha,
                                beta=c.beta, eps0=c.eps0, bump=bump.default_bump())
    budget = bump.measure_budget(plan.n0, Fraction(repr(c.beta)), c.k0)
    out = {"report": rep, "kn_measure": float(kn.measure), "grid": grid,
           "holder": hk.constant, "on_set": on_set, "ext_on_set": ext.fn(on_set),
           "in_gaps": in_gaps, "ext_in_gaps": ext.fn(in_gaps),
           "gap_measure": ext.gap_measure, "n0": plan.n0, "eps2": plan.eps2,
           "slack": budget.slack}
    failed = 0
    try:
        out["restricted"] = holder.restricted_lipschitz(
            np.sin, c.failing_set, FAILING_STEP).constant
    except ValueError as exc:
        out["restricted_error"] = str(exc)
        failed = 1
    # the seven calls above (the extension and its evaluation as one),
    # then restricted_lipschitz
    return Outcome(out=out, attempted=8, failed=failed)


# --- references made apart from the program -----------------------------

_BUMP_HOLDER = {}


def reference_bump_holder(alpha):
    """Order-alpha constant of (15/16)(1 - x^2)^2 on 4001 points of
    [-1, 1], by a brute-force pair sup."""
    if alpha not in _BUMP_HOLDER:
        x = np.linspace(-1.0, 1.0, 4001)
        _BUMP_HOLDER[alpha] = brute_holder(x, QUARTIC_SUP * (1.0 - x * x) ** 2, alpha)
    return _BUMP_HOLDER[alpha]


def reference_kn_measure(alpha, beta, window, n, nmax):
    """Measure of [-w, w] minus the union of the level n..nmax intervals,
    by a float sort-merge."""
    w = float(window)
    los, his = [], []
    for i in range(n, nmax + 1):
        j = np.arange(-math.floor(w * 2 ** i), math.floor(w * 2 ** i) + 1)
        c = j / 2.0 ** i
        r = 2.0 ** (-beta * i)
        los.append(np.maximum(c - r, -w))
        his.append(np.minimum(c + r, w))
    lo = np.concatenate(los)
    hi = np.concatenate(his)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    start = np.concatenate([[True], lo[1:] > reach[:-1]])
    first = np.flatnonzero(start)
    last = np.concatenate([first[1:] - 1, [lo.size - 1]])
    covered = float(np.sum(reach[last] - lo[first]))
    return 2.0 * w - covered


def reference_tail(beta, window, nmax, terms=400):
    """sum over i > nmax of (2 w 2^i + 3) * 2 * 2^(-beta i)."""
    i = np.arange(nmax + 1, nmax + 1 + terms, dtype=float)
    return float(np.sum((2.0 * window * 2.0 ** i + 3.0) * 2.0 * 2.0 ** (-beta * i)))


def reference_candidate(c, hphi):
    """eps2 from the three smallness conditions and the least level n0
    whose bump gain beats the quadratic allowance."""
    eps2 = min(c.eps1 * c.H / hphi, c.eps1 / QUARTIC_LIP,
               0.999 * c.eps0 / ((c.k0 + 2) * QUARTIC_SUP))
    for n0 in range(1, 65):
        if (10.0 / 2 ** n0 < 1.0 / c.k0
                and 2.0 ** -n0 > 6.0 * 2.0 ** (-c.beta * n0)
                and eps2 * 2.0 ** (-(c.alpha + 1.0) * c.beta * n0)
                > (c.k0 + c.L0) * 400.0 * 2.0 ** (-2.0 * n0)):
            return eps2, n0
    return eps2, None


def _check_cli(c, out):
    fails = []
    expect(fails, out["code"] == 0, f"cexlab bump exited {out['code']}")
    if c.same_as:
        expect(fails, out["csv"] == Path(c.same_as).read_bytes(),
               "the same sweep gave different CSV bytes")
    lines = [ln for ln in out["csv"].decode().splitlines() if not ln.startswith("#")]
    expect(fails, len(lines) == 2, f"expected one CSV row, got {len(lines) - 1}")
    expect(fails, all(ln.rsplit(",", 1)[-1] == "true" for ln in lines[1:]),
           "a CSV row reports all_ok = false")
    return fails


def check_case(c, out):
    if isinstance(c, CliCase):
        return _check_cli(c, out)
    fails = []
    rep = out["report"]
    a, b, n, k = c.alpha, c.beta, c.n, c.k
    sup_bound = QUARTIC_SUP * 2.0 ** (-a * b * n)
    lip_bound = QUARTIC_LIP * 2.0 ** ((1.0 - a) * b * n)
    gap_bound = 2.0 ** (-(a + 1.0) * b * n)
    expect(fails, rep.support_ok, "multi-bump leaks outside its support")
    expect(fails, rep.sup_phi <= sup_bound * (1 + 1e-12),
           f"sup phi {rep.sup_phi!r} > 15/16 2^(-a b n) = {sup_bound!r}")
    expect(fails, rep.sup_psi <= (k + 1) * sup_bound * (1 + 1e-12),
           f"sup psi {rep.sup_psi!r} > (k+1) 15/16 2^(-a b n)")
    expect(fails, rep.lip_measured <= lip_bound * (1 + 1e-9),
           f"Lipschitz {rep.lip_measured!r} > 5 sqrt3/6 2^((1-a) b n) = {lip_bound!r}")
    expect(fails, rep.gap_min >= gap_bound * (1 - 1e-12),
           f"gap {rep.gap_min!r} < 2^(-(a+1) b n) = {gap_bound!r}")
    hphi = reference_bump_holder(a)
    expect(fails, rep.holder_measured <= hphi * (1 + 1e-9),
           f"Hoelder {rep.holder_measured!r} > mother bump's {hphi!r}")

    kn_here = reference_kn_measure(a, b, 1, n, n + 4)
    expect(fails, rel_close(out["kn_measure"], kn_here, 0.0, 1e-12),
           f"K_n measure {out['kn_measure']!r} != sort-merge {kn_here!r}")
    deep = reference_kn_measure(a, b, 1, n, n + 12)
    tail = reference_tail(b, 1.0, n + 4)
    expect(fails, -1e-12 <= out["kn_measure"] - deep <= tail + 1e-12,
           f"K_n measure {out['kn_measure']!r} not within the tail bound "
           f"{tail!r} of the deep sort-merge {deep!r}")

    ref = brute_holder(out["grid"], c.phi(out["grid"]), a)
    expect(fails, rel_close(out["holder"], ref, 1e-12),
           f"holder_constant {out['holder']!r} != brute-force sup {ref!r}")

    on_set, in_gaps = out["on_set"], out["in_gaps"]
    expect(fails, np.array_equal(out["ext_on_set"], c.phi(on_set)),
           "extension differs from phi on the set")
    xs = np.concatenate([on_set, in_gaps])
    order = np.argsort(xs)
    xs = xs[order]
    vals = np.concatenate([out["ext_on_set"], out["ext_in_gaps"]])[order]
    keep = np.concatenate([[True], np.diff(xs) > 0])
    xs, vals = xs[keep], vals[keep]
    for order_, label in ((a, "Hoelder"), (1.0, "Lipschitz")):
        h_set = brute_holder(on_set, c.phi(on_set), order_)
        h_ext = brute_holder(xs, vals, order_)
        expect(fails, h_ext <= h_set * (1 + 1e-9),
               f"extension {label} constant {h_ext!r} > the set's {h_set!r}")
    gaps = sum(b_lo - a_hi for (_, a_hi), (b_lo, _) in zip(c.compact, c.compact[1:]))
    expect(fails, rel_close(out["gap_measure"], gaps, 1e-12),
           f"gap measure {out['gap_measure']!r} != {gaps!r}")

    eps2, n0 = reference_candidate(c, hphi)
    expect(fails, out["n0"] == n0, f"candidate level {out['n0']} != {n0}")
    expect(fails, rel_close(out["eps2"], eps2, 1e-9),
           f"candidate eps2 {out['eps2']!r} != {eps2!r}")

    bf = Fraction(repr(b))
    bn = bf * out["n0"]
    if bn.denominator == 1:
        want = Fraction(1, 2 ** out["n0"]) - Fraction(6, 2 ** bn.numerator)
        expect(fails, out["slack"] == want,
               f"measure slack {out['slack']!r} != 1/2^n0 - 6/2^(b n0) = {want}")
    else:
        p, q = bf.numerator, bf.denominator
        positive = 2 ** ((p - q) * out["n0"]) > 6 ** q
        want = 2.0 ** -out["n0"] - 6.0 * 2.0 ** (-b * out["n0"])
        expect(fails, (out["slack"] > 0) == positive
               and rel_close(float(out["slack"]), want, 1e-12, 1e-300),
               f"measure slack {out['slack']!r} != 1/2^n0 - 6/2^(b n0) = {want!r}")

    if "restricted" in out:
        expect(fails, 0.9 <= out["restricted"] <= 1.0 + 1e-12,
               f"restricted Lipschitz constant of sin {out['restricted']!r} "
               "outside [0.9, 1]")
    return fails
