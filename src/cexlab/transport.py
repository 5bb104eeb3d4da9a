"""Rescaled transport stages on the torus and the bookkeeping around them.

One base velocity (a compactly supported alternating shear, exactly
divergence-free because it comes from a stream function) is copied to a
sequence of stages: stage n runs n times faster, lam_n times smaller and
n lam_n times weaker, while its tracer shrinks by gam_n.  The schedule
keeps every stage inside a fixed gradient budget; what it cannot keep
bounded is the negative-order norms of the tracer, and the budget
crossing below locates the stage where the accumulated stretching
overtakes the initial smallness.

The advection scheme is semi-Lagrangian: characteristics are traced
backwards with a midpoint step and the tracer is resampled with cubic
B-splines, so the scheme is unconditionally stable and the time step
gate is an accuracy constraint, not a stability one.

A stage velocity only changes when its mixer switches direction, so
stage_velocity builds it once per (mixer, stage, half period, grid,
box) and hands every caller the same field, with read-only arrays.
advect keeps the backtrace foot while the two velocity samples of its
steps are the same pair of field objects, so only the tracer resample
runs at every step.  check_admissible takes the gradient budget for all
exponents and the divergence from one velocity Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy import ndimage

from .fields import (ScalarField2D, VectorField2D, gradient, hs_norm,
                     hs_norms, jacobian, jacobian_norms, l2_norm,
                     modulated_blob, spectral_tail_fraction, w1p_norms)


def _ramp(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smoothstep(t):
    """C-infinity transition: 0 for t <= 0, 1 for t >= 1."""
    a = _ramp(t)
    b = _ramp(1.0 - np.asarray(t, dtype=float))
    return a / (a + b)


@dataclass(frozen=True)
class RescaleSchedule:
    """Stage scales: spatial lam(n) and tracer amplitude gam(n)."""

    lam: Callable[[float], float]
    gam: Callable[[float], float]
    label: str = "custom"


def default_schedule():
    """lam_n = e^(-sqrt n), gam_n = e^(-n^(2/3)).

    Chosen so that n^2 lam_n^(d/p) / p^4 is bounded in n and p jointly
    (the gradient budget) while gam_n lam_n^(d/2) shrinks slower than
    the exponential stretching factor grows.
    """
    return RescaleSchedule(lam=lambda n: math.exp(-math.sqrt(n)),
                           gam=lambda n: math.exp(-float(n) ** (2.0 / 3.0)),
                           label="default")


@dataclass(frozen=True)
class BudgetScan:
    """sup over stages and integrability exponents of n^2 lam^(d/p)/p^4."""

    value: float
    n_star: int
    p_star: float


def schedule_budget(schedule, d=2, n_max=400, p_points=2001):
    """Grid-search the joint budget sup_{n,p} n^2 lam_n^(d/p) / p^4.

    p runs over a log grid on [1, 1e4] (the budget decays like p^-4 out
    there, so the tail cannot hide a maximum).  For the default schedule
    the inner optimum sits at p = sqrt(n)/2 and the supremum is 16 e^-4,
    the same at every stage n >= 4; p = 1 is on the grid exactly, so the
    reported value is exact and insensitive to grid refinement.
    """
    p = np.logspace(0.0, 4.0, p_points)
    ns = np.arange(1, n_max + 1)
    lam = np.array([schedule.lam(n) for n in ns], dtype=float)
    vals = lam[:, None] ** (d / p)
    vals *= (ns * ns)[:, None]
    vals /= p ** 4
    i, j = divmod(int(np.argmax(vals)), p_points)
    return BudgetScan(value=float(vals[i, j]), n_star=i + 1, p_star=float(p[j]))


@dataclass(frozen=True)
class AlternatingMixer:
    """Compactly supported shear that switches direction twice per period.

    The stream function is cos-shear in y for the first half period and
    in x for the second, cut off between r_inner and r_outer by a smooth
    radial step; velocities are its perpendicular gradient, so they are
    divergence-free to spectral accuracy and vanish outside r_outer.

    The default amplitude leaves the p = 1 gradient budget (the binding
    one: the measured norm per unit amplitude is about 23.4 against a
    budget of 1) at ratio 0.82.
    """

    amplitude: float = 0.035
    wavelength: float = 0.5
    r_inner: float = 0.7
    r_outer: float = 0.95
    period: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.r_inner < self.r_outer:
            raise ValueError("need 0 < r_inner < r_outer")
        if self.amplitude <= 0 or self.wavelength <= 0 or self.period <= 0:
            raise ValueError("amplitude, wavelength and period must be positive")

    def cutoff(self, r):
        return smoothstep((self.r_outer - np.asarray(r, dtype=float))
                          / (self.r_outer - self.r_inner))

    def first_half(self, t):
        """Whether mixer time t falls in the first half of its period,
        where the shear runs along y; the field depends on t only
        through this."""
        return (t / self.period) % 1.0 < 0.5

    def half_stream(self, first_half, x, y):
        """Stream function samples in the first or the second half period."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        chi = self.cutoff(np.hypot(x, y))
        c = self.amplitude * self.wavelength / (2.0 * math.pi)
        coord = y if first_half else x
        return c * np.cos(2.0 * math.pi * coord / self.wavelength) * chi

    def stream(self, t, x, y):
        """Stream function samples at mixer time t."""
        return self.half_stream(self.first_half(t), x, y)


def perp_grad_field(stream_samples, box):
    """Velocity (-psi_y, psi_x) from stream samples, spectrally."""
    psi = ScalarField2D(values=stream_samples, box=box)
    gx, gy = gradient(psi)
    return VectorField2D(u=-gy, v=gx, box=box)


def mixer_velocity(mixer, t, n, box):
    """The mixer velocity on an n x n torus grid of size `box`."""
    f = ScalarField2D.from_function(lambda x, y: mixer.stream(t, x, y), n, box)
    return perp_grad_field(f.values, box)


@dataclass(frozen=True)
class AdmissibilityReport:
    """V1 support, V2 amplitude, V3 gradient budget, V4 incompressibility."""

    support_ok: bool
    sup_ok: bool
    gradient_ok: bool
    div_ok: bool
    sup_speed: float
    outside_speed: float
    max_div: float
    worst_p: float
    worst_gradient_ratio: float

    @property
    def ok(self):
        return self.support_ok and self.sup_ok and self.gradient_ok and self.div_ok


def check_admissible(vfield, support_radius=1.0,
                     p_values=(1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0),
                     gradient_budget=lambda p: p ** 4, div_tol=None,
                     support_tol=1e-7):
    """The four base-velocity conditions on one sampled field.

    * V1: speed vanishes outside the ball of radius support_radius;
      fields built through spectral differentiation leak a few parts in
      1e9 of their amplitude globally, so the comparison is against
      support_tol times the sup rather than zero;
    * V2: sup speed at most 1;
    * V3: the L^p norm of the full velocity gradient stays below p^4
      for every tested exponent;
    * V4: spectral divergence at machine level.

    V3 and V4 share one spectral Jacobian: the divergence is u_x + v_y.
    """
    speed = vfield.speed()
    sup = float(np.max(speed))
    a = -0.5 * vfield.box + vfield.dx * np.arange(vfield.n)
    x, y = np.meshgrid(a, a, indexing="ij")
    outside = np.hypot(x, y) > support_radius
    out_speed = float(np.max(speed[outside])) if np.any(outside) else 0.0
    support_ok = out_speed <= support_tol * max(sup, 1e-300)
    sup_ok = sup <= 1.0 + 1e-12

    jac = jacobian(vfield)
    worst_p, worst_ratio = 0.0, 0.0
    p_values = tuple(p_values)
    for p, norm in zip(p_values, jacobian_norms(jac, vfield.dx, p_values)):
        ratio = norm / gradient_budget(p)
        if ratio > worst_ratio:
            worst_p, worst_ratio = p, ratio
    gradient_ok = worst_ratio <= 1.0

    ux, _, _, vy = jac
    max_div = float(np.max(np.abs(ux + vy)))
    if div_tol is None:
        div_tol = 1e-10 * max(sup, 1e-300) * vfield.n / vfield.box
    div_ok = max_div <= div_tol
    return AdmissibilityReport(
        support_ok=bool(support_ok), sup_ok=bool(sup_ok),
        gradient_ok=bool(gradient_ok), div_ok=bool(div_ok),
        sup_speed=sup, outside_speed=out_speed, max_div=max_div,
        worst_p=worst_p, worst_gradient_ratio=worst_ratio)


@dataclass(frozen=True)
class Stage:
    """One rescaled copy: index n, spatial scale lam, tracer amplitude
    gam, centred at `center`; runs n times faster than the base."""

    n: int
    lam: float
    gam: float
    center: tuple


def make_stage(schedule, n, center):
    if n < 1:
        raise ValueError(f"stage index must be >= 1, got {n}")
    return Stage(n=n, lam=float(schedule.lam(n)), gam=float(schedule.gam(n)),
                 center=(float(center[0]), float(center[1])))


def check_stage_geometry(stage, box, grid_n, support_radius=0.95,
                         min_cells=12):
    """Support and resolution gates for one stage on a given grid.

    The copy occupies a ball of radius lam * support_radius around its
    center; it must stay inside the periodic box and span at least
    min_cells grid cells so the advection can see it.
    """
    cx, cy = stage.center
    reach = max(abs(cx), abs(cy)) + stage.lam * support_radius
    if reach > 0.5 * box:
        raise ValueError(
            f"stage {stage.n} support leaves the box: center {stage.center}, "
            f"radius {stage.lam * support_radius:.4g}, box half-width {0.5 * box:.4g}")
    cells = stage.lam * support_radius / (box / grid_n)
    if cells < min_cells:
        need = min_cells * box / (stage.lam * support_radius)
        required = 2 ** math.ceil(math.log2(need))
        raise ValueError(
            f"stage {stage.n} support spans {cells:.1f} cells at grid "
            f"{grid_n}, below the resolution floor {min_cells}; needs grid "
            f">= {required} or an earlier final stage")


def check_stages_disjoint(stages, support_radius=0.95):
    """Pairwise support separation for a family of stages."""
    for i, a in enumerate(stages):
        for b in stages[i + 1:]:
            dist = math.hypot(a.center[0] - b.center[0],
                              a.center[1] - b.center[1])
            need = (a.lam + b.lam) * support_radius
            if dist < need:
                raise ValueError(
                    f"stages {a.n} and {b.n} overlap: centres {dist:.4g} "
                    f"apart, supports need {need:.4g}")


def stage_velocity(mixer, stage, t, grid_n, box):
    """Velocity of one stage at outer time t: n lam u_*(n t, (x-c)/lam).

    Built by rescaling the stream function (n lam^2 psi_*) and taking
    the perpendicular gradient on the target grid, which keeps the
    divergence at spectral roundoff regardless of the rescaling.

    The field only changes when the stage's mixer time n t crosses a
    half period, so it is built once per (mixer, stage, half period,
    grid, box) and returned with read-only u and v arrays: every caller
    shares the same object.  The cache keeps the last two fields, both
    halves of the stage being advanced; at grid 512 each takes 4 MB.
    """
    return _build_stage_velocity(mixer, stage, mixer.first_half(stage.n * t),
                                 grid_n, box)


@lru_cache(maxsize=2)
def _build_stage_velocity(mixer, stage, first_half, grid_n, box):
    cx, cy = stage.center

    def fn(x, y):
        return stage.n * stage.lam ** 2 * mixer.half_stream(
            first_half, (x - cx) / stage.lam, (y - cy) / stage.lam)

    f = ScalarField2D.from_function(fn, grid_n, box)
    vf = perp_grad_field(f.values, box)
    vf.u.flags.writeable = False
    vf.v.flags.writeable = False
    return vf


def stage_tracer(tracer_fn, stage, grid_n, box):
    """Tracer of one stage: gam * theta_*((x - c)/lam)."""
    cx, cy = stage.center

    def fn(x, y):
        return stage.gam * tracer_fn((x - cx) / stage.lam, (y - cy) / stage.lam)

    return ScalarField2D.from_function(fn, grid_n, box)


def _check_same_layout(fields):
    first = fields[0]
    for f in fields[1:]:
        if f.n != first.n or f.box != first.box:
            raise ValueError(
                f"cannot superpose fields on different grids: "
                f"{f.n} in box {f.box} vs {first.n} in box {first.box}")


def superpose_scalars(fields):
    fields = list(fields)
    if not fields:
        raise ValueError("nothing to superpose")
    _check_same_layout(fields)
    vals = sum((f.values for f in fields[1:]), fields[0].values.copy())
    return ScalarField2D(values=vals, box=fields[0].box)


def advect(theta, velocity_at, t0, t1, dt, cfl_safety=0.5):
    """Semi-Lagrangian advection of theta from t0 to t1.

    velocity_at is either a callable t -> VectorField2D on theta's grid
    or a single constant-in-time field.  Characteristics are traced back
    with a midpoint step (velocity at the half step, sampled linearly at
    the half-step foot), and theta is resampled with periodic cubic
    B-splines.  The step must satisfy dt sup|u| <= cfl_safety dx, the
    sup taken over both velocity samples of the step; this keeps the
    backtrace inside a neighbouring cell, which is what the midpoint
    sampling assumes.  The sup and the backtrace foot depend only on
    the two samples and dt, so they are taken again only when a sample
    is a different field object from the previous step's; a sampler
    must therefore not change a field it has returned.  A step where
    both samples vanish is skipped.
    """
    if t1 < t0:
        raise ValueError("need t1 >= t0")
    if t1 == t0:
        return theta
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    steps = max(1, int(round((t1 - t0) / dt)))
    if abs(steps * dt - (t1 - t0)) > 1e-9 * max(1.0, abs(t1 - t0)):
        raise ValueError(
            f"dt = {dt} does not divide the interval length {t1 - t0}")

    if not callable(velocity_at):
        field = velocity_at
        velocity_at = lambda t: field

    n, box, dx = theta.n, theta.box, theta.dx
    idx = np.arange(n, dtype=float)
    ix, iy = np.meshgrid(idx, idx, indexing="ij")
    vals = theta.values
    pair = None
    for s in range(steps):
        t = t0 + s * dt
        vf = velocity_at(t)
        vh = velocity_at(t + 0.5 * dt)
        if pair is None or pair[0] is not vf or pair[1] is not vh:
            for f in (vf, vh):
                if f.n != n or f.box != box:
                    raise ValueError("velocity grid does not match the tracer grid")
            # the backtrace uses both samples, so both gate the step
            sup = vf.sup_speed
            if vh is not vf:
                sup = max(sup, vh.sup_speed)
            pair = (vf, vh)
            foot = None
        if sup == 0.0:
            continue
        if dt * sup > cfl_safety * dx:
            raise ValueError(
                f"advection step too large: dt sup|u| = {dt * sup:.4g} "
                f"exceeds {cfl_safety:.3g} dx = {cfl_safety * dx:.4g}")
        if foot is None:
            # midpoint foot in index units
            hx = ix - 0.5 * dt * vf.u / dx
            hy = iy - 0.5 * dt * vf.v / dx
            um = ndimage.map_coordinates(vh.u, [hx, hy], order=1, mode="grid-wrap")
            vm = ndimage.map_coordinates(vh.v, [hx, hy], order=1, mode="grid-wrap")
            foot = np.array([ix - dt * um / dx, iy - dt * vm / dx])
        coeffs = ndimage.spline_filter(vals, order=3, mode="grid-wrap")
        vals = ndimage.map_coordinates(coeffs, foot, order=3,
                                       prefilter=False, mode="grid-wrap")
    return ScalarField2D(values=vals, box=box)


@dataclass(frozen=True)
class MixingReport:
    """Coarse-to-fine summary of a tracer state."""

    l2: float
    sup: float
    mix_norm: float
    tail_fraction: float


def measure_mixing(theta):
    """L^2, sup, the negative-order mix norm, and the spectral tail."""
    return MixingReport(l2=l2_norm(theta),
                        sup=float(np.max(np.abs(theta.values))),
                        mix_norm=hs_norm(theta, -1.0),
                        tail_fraction=spectral_tail_fraction(theta))


@dataclass(frozen=True)
class RescaleCheck:
    """Measured rescaling factors of the stage norms against the exact ones.

    For theta_n = gam theta(x/lam) the homogeneous H^s norm picks up
    gam lam^(d/2-s); for u_n = n lam u(x/lam) the W^(1,p) gradient norm
    picks up n lam^(d/p).  rel errors are the worst over the tested s
    and p; they stay at quadrature level as long as the probe spectra
    fit under the grid Nyquist frequency.
    """

    lam: float
    gamma: float
    n: int
    hs_rel_err: float
    w1p_rel_err: float
    hs_details: tuple
    w1p_details: tuple


def rescale_norm_check(lam, gamma, n, grid_n, box,
                       s_values=(0.5, 1.0, 1.5), p_values=(1.0, 2.0, 4.0, 8.0),
                       sigma_tracer=0.15, carrier=40.0, sigma_stream=0.15):
    """Verify the two rescaling laws numerically on smooth probe fields.

    The tracer probe is a carrier-modulated Gaussian and the velocity
    probe the perpendicular gradient of a Gaussian stream function; both
    families are closed under x -> x/lam, so the continuum ratios are
    exact and any discrepancy is grid error.  lam should not be taken so
    small that carrier/lam plus the widened Gaussian tail reaches the
    Nyquist frequency of the grid.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lam must lie in (0, 1], got {lam}")
    center = (0.0, 0.0)
    base_tr = modulated_blob(grid_n, box, center, sigma_tracer, carrier)
    shr_tr = modulated_blob(grid_n, box, center, sigma_tracer * lam,
                            carrier / lam, amplitude=gamma)
    hs_details = []
    hs_worst = 0.0
    s_values = tuple(s_values)
    for s, shr, base in zip(s_values, hs_norms(shr_tr, s_values),
                            hs_norms(base_tr, s_values)):
        predicted = gamma * lam ** (1.0 - s)
        measured = shr / base
        rel = abs(measured - predicted) / predicted
        hs_details.append((s, predicted, measured, rel))
        hs_worst = max(hs_worst, rel)

    def stream(scale, amp):
        s2 = (sigma_stream * scale) ** 2
        return ScalarField2D.from_function(
            lambda x, y: amp * np.exp(-(x * x + y * y) / (2.0 * s2)),
            grid_n, box)

    base_u = perp_grad_field(stream(1.0, 1.0).values, box)
    shr_u = perp_grad_field(stream(lam, n * lam * lam).values, box)
    w1p_details = []
    w1p_worst = 0.0
    p_values = tuple(p_values)
    for p, shr, base in zip(p_values, w1p_norms(shr_u, p_values),
                            w1p_norms(base_u, p_values)):
        predicted = n * lam ** (2.0 / p)
        measured = shr / base
        rel = abs(measured - predicted) / predicted
        w1p_details.append((p, predicted, measured, rel))
        w1p_worst = max(w1p_worst, rel)
    return RescaleCheck(lam=lam, gamma=gamma, n=n,
                        hs_rel_err=hs_worst, w1p_rel_err=w1p_worst,
                        hs_details=tuple(hs_details),
                        w1p_details=tuple(w1p_details))


@dataclass(frozen=True)
class BudgetCrossing:
    """First stage where stretching overtakes the shrinking data."""

    crossing: Optional[int]
    log_budget: tuple
    monotone_after_crossing: bool


def blowup_budget(schedule, coupling=1.0, k0=1.0, prefactor=1.0,
                  threshold=None, offset=0.0, d=2, n_max=200):
    """Scan prefactor gam_n lam_n^(d/2) e^((coupling/k0^2) n) - offset
    against the threshold (defaulting to k0).

    Everything is compared in logs; the returned tuple holds
    log(budget_n / (threshold + offset)) for n = 1..n_max and the
    crossing is the first positive entry.  With the default schedule and
    unit constants the exponent is n - n^(2/3) - sqrt(n), which turns
    positive between n = 5 and n = 6.
    """
    if threshold is None:
        threshold = k0
    if k0 <= 0 or threshold <= 0 or prefactor <= 0 or offset < 0:
        raise ValueError("k0, threshold and prefactor must be positive, offset >= 0")
    rate = coupling / (k0 * k0)
    bar = math.log(threshold + offset)
    logs = []
    for n in range(1, n_max + 1):
        lg = (math.log(prefactor) + math.log(schedule.gam(n))
              + 0.5 * d * math.log(schedule.lam(n)) + rate * n
              - bar)
        logs.append(lg)
    crossing = None
    for i, lg in enumerate(logs):
        if lg > 0:
            crossing = i + 1
            break
    mono = True
    if crossing is not None:
        tail = logs[crossing - 1:]
        mono = all(b > a for a, b in zip(tail, tail[1:]))
    return BudgetCrossing(crossing=crossing, log_budget=tuple(logs),
                         monotone_after_crossing=mono)
