"""Time-modulated wave speeds that pump energy into a single mode.

A mode v'' + lam^2 c(t) v = 0 with constant speed conserves its energy;
a speed that wobbles in resonance with the mode does not.  The profile
used here is c(t) = m^2 * gamma(eps, m*lam*t) with

    gamma(eps, tau) = 1 - 16 eps^2 sin(tau)^4 - 8 eps sin(2 tau),

chosen so that w(tau) = sin(tau) exp(eps (2 tau - sin 2 tau)) solves
w'' + gamma w = 0 in closed form: the mode grows by exp(4 pi eps) per
cycle while the speed stays within a factor 1 + O(eps) of constant.
Everything downstream is bookkeeping around that identity: how small eps
must be to respect a Hoelder budget on c - c0, how the growth across a
family of dyadic modes beats any decaying frequency weight, and what a
Lipschitz speed bound forces on the energy of any solution.

All growth accounting is done in log space; initial amplitudes are tiny
(below e^-300 for the largest modes) and final ones huge, so the mode is
integrated with unit initial slope and its true size carried as a log.

The mode is checked against the closed form, not built from it: the ODE
solver integrates the fundamental matrix over one speed period
pi/(m lam), the pumping window follows from powers of its monodromy
matrix, and the constant-speed tail from the exact sinusoidal flow.
That costs a few hundred right-hand-side calls per mode, whatever the
number of cycles or the length of the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .holder import HolderEstimate, holder_constant

# gamma stays positive iff 16 eps^2 + 8 eps < 1
EPS_CAP = (math.sqrt(2.0) - 1.0) / 4.0


class IntegrationError(RuntimeError):
    """The ODE solver failed to deliver the requested accuracy."""


def gamma_profile(eps, tau):
    """Dimensionless speed factor, 1 - 16 eps^2 sin^4 - 8 eps sin(2 tau)."""
    tau = np.asarray(tau, dtype=float)
    s = np.sin(tau)
    return 1.0 - 16.0 * eps * eps * s ** 4 - 8.0 * eps * np.sin(2.0 * tau)


def gamma_bounds(eps):
    """Enclosure [1 - 8 eps - 16 eps^2, 1 + 8 eps] of the factor."""
    return 1.0 - 8.0 * eps - 16.0 * eps * eps, 1.0 + 8.0 * eps


def pump_exponent(eps, tau):
    """b(tau) = eps (2 tau - sin 2 tau); b' = 4 eps sin^2."""
    tau = np.asarray(tau, dtype=float)
    return eps * (2.0 * tau - np.sin(2.0 * tau))


def mode_w(eps, tau):
    """The explicit growing solution sin(tau) e^(b(tau))."""
    tau = np.asarray(tau, dtype=float)
    return np.sin(tau) * np.exp(pump_exponent(eps, tau))


def mode_w_t(eps, tau):
    tau = np.asarray(tau, dtype=float)
    s = np.sin(tau)
    return np.exp(pump_exponent(eps, tau)) * (np.cos(tau) + 4.0 * eps * s ** 3)


def mode_w_tt(eps, tau):
    tau = np.asarray(tau, dtype=float)
    s, c = np.sin(tau), np.cos(tau)
    return np.exp(pump_exponent(eps, tau)) * (
        -s + 16.0 * eps * s * s * c + 16.0 * eps * eps * s ** 5)


def gamma_holder_quotient(eps, alpha, grid_points=2049):
    """sup |gamma(eps,t) - gamma(eps,t')| / (eps |t - t'|^alpha), on a grid.

    gamma has period pi, so pairs within a window of two periods exhaust
    all gaps t - t' modulo the period; longer gaps only enlarge the
    denominator.
    """
    def f(tau):
        return (gamma_profile(eps, tau) - 1.0) / eps

    grid = np.linspace(0.0, 2.0 * math.pi, grid_points)
    return holder_constant(f, alpha, grid).constant


@lru_cache(maxsize=64)
def gamma_holder_coefficient(alpha):
    """Reference coefficient: 1.1 times the small-eps quotient.

    The 10 percent headroom absorbs the finite-eps excess of the actual
    profiles, which is of relative size about 16 eps; schedules built
    here keep eps small enough that the headroom is never exhausted.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return 1.1 * gamma_holder_quotient(1e-6, alpha)


@dataclass(frozen=True)
class SpeedProfile:
    """One pumped speed: c(t) = m^2 gamma(eps, m lam t) for a whole number
    of cycles, then frozen at c0 = m^2.

    delta_n is the largest multiple of the cycle length 2 pi/(m lam) not
    exceeding the requested horizon delta, so the pumping ends exactly at
    a zero of the mode with unit gamma, making c continuous there.
    """

    m: int
    lam: float
    alpha: float
    eps1: float
    H: float
    delta: float
    hgamma: float
    eps: float
    cycles: int
    delta_n: float

    @property
    def c0(self):
        return float(self.m * self.m)

    @property
    def g(self):
        """Log growth of the mode slope over the pumping window:
        2 eps m lam delta_n = 4 pi eps cycles, exactly."""
        return 4.0 * math.pi * self.eps * self.cycles

    @property
    def lipschitz_bound(self):
        """m^3 lam (16 eps + 12 sqrt(3) eps^2) bounds |c'|."""
        e = self.eps
        return self.m ** 3 * self.lam * (16.0 * e + 12.0 * math.sqrt(3.0) * e * e)

    @property
    def speed_min(self):
        return self.c0 * gamma_bounds(self.eps)[0]

    @property
    def speed_max(self):
        return self.c0 * gamma_bounds(self.eps)[1]

    def speed(self, t):
        t = np.asarray(t, dtype=float)
        tau = self.m * self.lam * np.minimum(t, self.delta_n)
        return self.c0 * gamma_profile(self.eps, tau)

    def speed_minus_c0(self, t):
        return self.speed(t) - self.c0


def build_speed_profile(m, lam, alpha, eps1, H, delta, hgamma=None):
    """Size the modulation for one mode and snap the horizon to cycles.

    eps = eps1 H / (m^(alpha+2) hgamma) * lam^(-alpha) makes the
    order-alpha constant of c - c0 come out at eps1 H up to the headroom
    in hgamma, uniformly in lam.  Fails if eps reaches the positivity
    cap or if the horizon is shorter than one cycle.
    """
    if not (float(m).is_integer() and m >= 1):
        raise ValueError(f"m must be a positive integer, got {m}")
    m = int(m)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if hgamma is None:
        hgamma = gamma_holder_coefficient(alpha)
    for name, value in (("lam", lam), ("delta", delta), ("eps1", eps1),
                        ("H", H), ("hgamma", hgamma)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    eps = eps1 * H / (m ** (alpha + 2.0) * hgamma) * lam ** (-alpha)
    if eps >= EPS_CAP:
        raise ValueError(
            f"modulation strength {eps:.6g} reaches the positivity cap "
            f"{EPS_CAP:.6g} (need 16 eps^2 + 8 eps < 1); lower H or raise m or lam")
    cycles = int(math.floor(m * lam * delta / (2.0 * math.pi)))
    if cycles < 1:
        raise ValueError(
            "pumping horizon shorter than one modulation cycle: need "
            f"m lam delta >= 2 pi, got {m * lam * delta:.6g}")
    delta_n = 2.0 * math.pi * cycles / (m * lam)
    return SpeedProfile(m=m, lam=float(lam), alpha=float(alpha),
                        eps1=float(eps1), H=float(H), delta=float(delta),
                        hgamma=float(hgamma), eps=float(eps), cycles=cycles,
                        delta_n=float(delta_n))


def speed_holder_constant(profile, grid_points=2048):
    """Measured order-alpha constant of c - c0 on the pumping window.

    c - c0 is periodic on [0, delta_n] with period pi/(m lam) and c is
    continuous at delta_n with value c0, so pairs inside one window of
    two periods dominate every pair of the full interval.
    """
    window = 2.0 * math.pi / (profile.m * profile.lam)
    grid = np.linspace(0.0, window, grid_points)
    return holder_constant(profile.speed_minus_c0, profile.alpha, grid)


def log_initial_amplitude(lam, beta):
    """log v1 = -(1 + lam^(1/beta)) log(1 + lam).

    This decay puts the family inside the growing-radius class of order
    beta with squared tail (1+lam)^-2, while any fixed larger weight
    still loses to it.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    lam = np.asarray(lam, dtype=float)
    return -(1.0 + lam ** (1.0 / beta)) * np.log1p(lam)


@dataclass(frozen=True)
class ModeSolution:
    """Integrated mode with unit initial slope: v(0) = 0, v'(0) = 1.

    The physical amplitude is exp(log_v1) times this; keeping it as a
    log avoids underflow at large lam.  nfev counts the right-hand-side
    calls the solver made.
    """

    profile: SpeedProfile
    t: np.ndarray
    v: np.ndarray
    vp: np.ndarray
    nfev: int

    @property
    def scale(self):
        return float(np.max(np.abs(self.v)))

    @property
    def pump_end_index(self):
        return int(np.searchsorted(self.t, self.profile.delta_n))

    @property
    def pump_end_value(self):
        return float(self.v[self.pump_end_index])

    def log_flux(self, index=-1):
        """log of v'(t)^2 + c0 lam^2 v(t)^2 at a grid index.

        For t >= delta_n this is constant in time and equals exp(2 g)
        for the exact solution, so it measures the realized growth
        independently of the phase at the readout time.
        """
        p = self.profile
        with np.errstate(divide="ignore"):
            a = 2.0 * np.log(np.abs(self.vp[index]))
            b = (math.log(p.c0) + 2.0 * math.log(p.lam)
                 + 2.0 * np.log(np.abs(self.v[index])))
        return float(np.logaddexp(a, b))

    def log_tail_amplitude(self, index=-1):
        """log of the oscillation amplitude sqrt(flux / (c0 lam^2))."""
        p = self.profile
        return 0.5 * (self.log_flux(index) - math.log(p.c0) - 2.0 * math.log(p.lam))


def integrate_mode(profile, t_final=None, rtol=1e-10, atol=1e-290,
                   points_per_cycle=12, method="DOP853"):
    """Solve v'' + lam^2 c(t) v = 0 with v(0) = 0, v'(0) = 1.

    The output grid is uniform with at least points_per_cycle samples
    per modulation cycle and always contains delta_n exactly.

    Only one speed period T = pi/(m lam) is integrated numerically: the
    solver carries the 2x2 fundamental matrix Phi from the identity
    over [0, T] with dense output.  The speed is T-periodic up to
    delta_n, so a pumped point t = k T + s is Phi(s) M^k (0, 1) with the
    monodromy M = Phi(T), whose powers are 2 cycles repeated 2x2
    products.  Past delta_n the speed is frozen at c(delta_n), and the
    constant-speed flow is exact: v cos(w s) + (v'/w) sin(w s) with
    w = lam sqrt(c(delta_n)) and s = t - delta_n.

    rtol, atol and method go to the solver.  atol stays vanishingly
    small so the error control is relative in every entry of Phi, whose
    scales span a factor (m lam)^2.  first_step is set to 1/32 of the
    period because two entries of Phi start at exactly zero, which
    would poison the solver's initial step heuristic.
    """
    if t_final is None:
        t_final = profile.delta
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < profile.delta_n:
        raise ValueError("t_final must reach past the pumping window")
    mlam = profile.m * profile.lam
    lam2c0 = profile.lam * profile.lam * profile.c0
    eps = profile.eps
    period = math.pi / mlam

    def rhs(t, y):
        tau = mlam * t
        s = math.sin(tau)
        k = -lam2c0 * (1.0 - 16.0 * eps * eps * s ** 4
                       - 8.0 * eps * math.sin(2.0 * tau))
        return (y[1], k * y[0], y[3], k * y[2])

    sol = solve_ivp(rhs, (0.0, period), (1.0, 0.0, 0.0, 1.0), method=method,
                    rtol=rtol, atol=atol, first_step=period / 32.0,
                    dense_output=True)
    if not sol.success:
        raise IntegrationError(f"mode integration failed: {sol.message}")

    n = max(2049, int(points_per_cycle * t_final / (2.0 * period)) + 2)
    t = np.union1d(np.linspace(0.0, t_final, n),
                   np.array([profile.delta_n]))
    pump = t <= profile.delta_n
    n_periods = 2 * profile.cycles

    # states at the period starts: M^k (0, 1) for k = 0 .. 2 cycles
    m00, m10, m01, m11 = sol.y[:, -1]
    a, b = 0.0, 1.0
    starts = [(a, b)]
    for _ in range(n_periods):
        a, b = m00 * a + m01 * b, m10 * a + m11 * b
        starts.append((a, b))
    starts = np.array(starts)

    tp = t[pump]
    k = np.minimum(np.floor(tp / period).astype(int), n_periods)
    phi = sol.sol(np.clip(tp - k * period, 0.0, period))
    a, b = starts[k, 0], starts[k, 1]
    v = np.empty_like(t)
    vp = np.empty_like(t)
    v[pump] = phi[0] * a + phi[2] * b
    vp[pump] = phi[1] * a + phi[3] * b

    tail = ~pump
    i = int(np.searchsorted(t, profile.delta_n))
    omega = profile.lam * math.sqrt(float(profile.speed(profile.delta_n)))
    phase = omega * (t[tail] - profile.delta_n)
    cos, sin = np.cos(phase), np.sin(phase)
    v[tail] = v[i] * cos + (vp[i] / omega) * sin
    vp[tail] = vp[i] * cos - (v[i] * omega) * sin
    return ModeSolution(profile=profile, t=t, v=v, vp=vp, nfev=int(sol.nfev))


def closed_form_mode(profile, t):
    """Exact unit-slope solution: rescaled w during pumping, then the
    constant-speed sinusoid it hands over to.  Returns (v, v')."""
    t = np.asarray(t, dtype=float)
    p = profile
    mlam = p.m * p.lam
    tau = mlam * t
    pumping = t <= p.delta_n
    tau_c = np.where(pumping, tau, 0.0)
    v_in = mode_w(p.eps, tau_c) / mlam
    vp_in = mode_w_t(p.eps, tau_c)
    amp = math.exp(p.g)
    phase = mlam * (t - p.delta_n)
    v_out = amp * np.sin(phase) / mlam
    vp_out = amp * np.cos(phase)
    return np.where(pumping, v_in, v_out), np.where(pumping, vp_in, vp_out)


@dataclass(frozen=True)
class EnergyBounds:
    """Claimed speed data: mu1 <= c <= mu2 and |c(t)-c(s)| <= L |t-s|.

    The implied two-sided envelope for E = v'^2 + lam^2 v^2 of any
    solution of v'' + lam^2 c v = 0 is

        mu3 E(t0) e^(-mu4 (t-t0)) <= E(t) <= mu5 E(t0) e^(mu4 (t-t0)),

    obtained by differentiating the flux v'^2 + lam^2 c v^2 and paying
    the c-weight conversion once at each end.
    """

    mu1: float
    mu2: float
    L: float

    def __post_init__(self):
        if not 0.0 < self.mu1 <= self.mu2 < math.inf:
            raise ValueError(f"need 0 < mu1 <= mu2 < inf, got mu1={self.mu1}, mu2={self.mu2}")
        if not 0.0 <= self.L < math.inf:
            raise ValueError(f"L must be nonnegative and finite, got {self.L}")

    @property
    def mu3(self):
        return min(1.0, self.mu1) * min(1.0, 1.0 / self.mu2)

    @property
    def mu4(self):
        return self.L / self.mu1

    @property
    def mu5(self):
        return max(1.0, 1.0 / self.mu1) * max(1.0, self.mu2)


@dataclass(frozen=True)
class EnergyCheckReport:
    """Outcome of checking one trajectory against claimed speed data.

    Margins are in log space and nonnegative when the envelope holds.
    A trajectory can satisfy a loosened envelope by luck, so the check
    also requires the claims to be consistent with the sampled speed
    itself; difference quotients of a truly L-Lipschitz function never
    exceed L, which makes that test slack-free.
    """

    envelope_ok: bool
    upper_margin: float
    lower_margin: float
    speed_in_range: bool
    measured_lipschitz: float
    claimed_lipschitz: float
    lipschitz_consistent: bool

    @property
    def ok(self):
        return self.envelope_ok and self.speed_in_range and self.lipschitz_consistent


def energy_bounds_check(t, v, vp, lam, c_samples, bounds, slack=1e-9):
    """Check E = v'^2 + lam^2 v^2 against the envelope of `bounds`.

    t must be increasing; c_samples are the speed values on the same
    grid.  All pairs t0 < t are checked via running extrema of
    log E -+ mu4 t, which is exact and linear-time.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    vp = np.asarray(vp, dtype=float)
    c = np.asarray(c_samples, dtype=float)
    with np.errstate(divide="ignore"):
        log_e = np.logaddexp(2.0 * np.log(np.abs(vp)),
                             2.0 * np.log(lam * np.abs(v)))
    mu4 = bounds.mu4
    upper = log_e - mu4 * t
    lower = log_e + mu4 * t
    up_excess = np.max(upper - np.minimum.accumulate(upper))
    low_excess = np.min(lower - np.maximum.accumulate(lower))
    upper_margin = math.log(bounds.mu5) - up_excess
    lower_margin = low_excess - math.log(bounds.mu3)
    envelope_ok = bool(upper_margin >= -slack and lower_margin >= -slack)

    speed_in_range = bool(np.min(c) >= bounds.mu1 - slack
                          and np.max(c) <= bounds.mu2 + slack)
    quot = np.abs(np.diff(c)) / np.diff(t)
    measured_l = float(np.max(quot)) if quot.size else 0.0
    lip_ok = bool(measured_l <= bounds.L * (1.0 + 1e-12) + slack)
    return EnergyCheckReport(
        envelope_ok=envelope_ok, upper_margin=float(upper_margin),
        lower_margin=float(lower_margin), speed_in_range=speed_in_range,
        measured_lipschitz=measured_l, claimed_lipschitz=float(bounds.L),
        lipschitz_consistent=lip_ok)


@dataclass(frozen=True)
class ModeRow:
    """Per-mode record of the growth demo."""

    lam: float
    eps: float
    cycles: int
    delta_n: float
    g: float
    log_v1: float
    log_growth: float
    term_measured: float
    term_model: float
    predicted_exponent: float
    pump_end_residual: float
    solution: ModeSolution


@dataclass(frozen=True)
class BlowupReport:
    """Outcome of the dyadic-mode growth demo.

    terms are log contributions of each mode to the decaying-weight sum;
    growth wins when they increase without bound along the family.  The
    slope comparison fits the measured and modelled terms against
    lam^(1-alpha) over the upper half of the family, where the pumping
    exponent dominates the polynomial corrections.
    """

    rows: tuple
    r0: float
    hgamma: float
    slope_measured: float
    slope_model: float
    slope_rel_err: float
    terms_increasing: bool


def blowup_demo(alpha=0.5, beta=4.0, ultra_order=4.0, ultra_radius=2.0,
                delta=0.49, m=12, eps1=0.5, H=4200.0,
                lam_exponents=range(4, 10), rtol=1e-10):
    """Drive dyadic modes lam = 2^j through the pumped speeds and compare
    the realized growth with the schedule's own model.

    Each mode starts at amplitude v1(lam) (inside the order-beta growing
    radius class) and grows by e^g with g about r0 lam^(1-alpha), so its
    contribution against the decaying weight exp(-2 R lam^(1/S)) is

        2 log v1 + log flux - log(c0 lam^2) - 2 R lam^(1/S);

    these must increase along the family, which needs both beta and the
    weight order to exceed 1/(1-alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    need = 1.0 / (1.0 - alpha)
    if not (beta > need and ultra_order > need):
        raise ValueError(
            "growth cannot beat the weights: need beta and the weight "
            f"order above 1/(1-alpha) = {need:.6g}, got beta={beta}, "
            f"order={ultra_order}")
    lam_exponents = list(lam_exponents)
    if len(lam_exponents) < 2:
        raise ValueError(
            "the growth comparison needs at least two modes, got "
            f"{len(lam_exponents)}")
    hgamma = gamma_holder_coefficient(alpha)
    r0 = eps1 * H * delta / (2.0 * m ** (alpha + 1.0) * hgamma)
    rows = []
    for j in lam_exponents:
        lam = float(2 ** j)
        prof = build_speed_profile(m, lam, alpha, eps1, H, delta, hgamma=hgamma)
        sol = integrate_mode(prof, t_final=ultra_radius, rtol=rtol)
        lv1 = float(log_initial_amplitude(lam, beta))
        log_growth = sol.log_flux(-1)
        base = 2.0 * lv1 - math.log(prof.c0) - 2.0 * math.log(lam)
        weight = 2.0 * ultra_radius * lam ** (1.0 / ultra_order)
        rows.append(ModeRow(
            lam=lam, eps=prof.eps, cycles=prof.cycles, delta_n=prof.delta_n,
            g=prof.g, log_v1=lv1, log_growth=log_growth,
            term_measured=base + log_growth - weight,
            term_model=base + 2.0 * prof.g - weight,
            predicted_exponent=r0 * lam ** (1.0 - alpha)
            - 2.0 * lam ** (1.0 / beta) * math.log1p(lam),
            pump_end_residual=abs(sol.pump_end_value) / sol.scale,
            solution=sol))
    # fit over the upper half, but never on fewer than two points
    half = max(0, min(len(rows) // 2, len(rows) - 2))
    x = np.array([r.lam ** (1.0 - alpha) for r in rows[half:]])
    measured = np.array([r.term_measured for r in rows[half:]])
    model = np.array([r.term_model for r in rows[half:]])
    slope_measured = float(np.polyfit(x, measured, 1)[0])
    slope_model = float(np.polyfit(x, model, 1)[0])
    rel = abs(slope_measured - slope_model) / abs(slope_model)
    terms = [r.term_measured for r in rows]
    increasing = all(b > a for a, b in zip(terms, terms[1:]))
    return BlowupReport(rows=tuple(rows), r0=r0, hgamma=hgamma,
                        slope_measured=slope_measured, slope_model=slope_model,
                        slope_rel_err=float(rel), terms_increasing=increasing)
