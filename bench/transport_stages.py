"""transport-stages: seeded families of rescaled transport stages.

Each case checks the base mixer's admissibility at a seeded time, the
two rescaling laws at a seeded scale, the gradient and stretching
budgets, then advects the tracer of every stage with a time-dependent
``stage_velocity`` callback and measures the result.

The (grid, number of stages, highest stage, steps) shapes of a round are
fixed, since they set the FFT and interpolation work; the seed draws the
stage indices, centres, tracer width, advection horizon, mixer time and
rescaling probe.  Stage indices respect ``check_stage_geometry``'s
resolution floor on the case's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cexlab import transport

from common import Outcome, expect, rel_close


BOX = 2.0
SUPPORT = 0.95
# the base velocity's support leak only drops below check_admissible's
# tolerance once the grid resolves the cutoff ramp
ADMISSIBILITY_GRID = 512

# (grid, stages, highest stage index, steps per advection); the highest
# stage keeps 14 or more cells across its support, above the floor of 12,
# where the cubic resampling's overshoot stays well below 1 percent
SHAPES = (
    (128, 2, 2, 12),
    (256, 2, 4, 8),
    (256, 1, 4, 12),
)
TINY_SHAPES = ((128, 1, 2, 3),)


@dataclass(frozen=True)
class TransportCase:
    grid: int
    stages: tuple            # transport.Stage values
    sigma: float
    t_final: float
    steps: int
    mixer_time: float
    probe_lam: float
    probe_n: int


def _place(rng, schedule, indices):
    """Centres inside the box with pairwise disjoint supports, drawn by
    rejection; the largest stage is placed first."""
    placed = []
    for n in sorted(indices):
        lam = schedule.lam(n)
        reach = 0.5 * BOX - lam * SUPPORT * 1.05
        while True:
            c = rng.uniform(-reach, reach, size=2)
            if all(math.hypot(c[0] - s.center[0], c[1] - s.center[1])
                   >= (lam + s.lam) * SUPPORT * 1.1 for s in placed):
                break
        placed.append(transport.make_stage(schedule, n, (float(c[0]), float(c[1]))))
    return tuple(placed)


def make_round(seed, tiny=False):
    rng = np.random.default_rng([seed, 202])
    schedule = transport.default_schedule()
    cases = []
    for grid, count, top, steps in (TINY_SHAPES if tiny else SHAPES):
        indices = rng.choice(np.arange(1, top + 1), size=count, replace=False)
        stages = _place(rng, schedule, [int(n) for n in indices])
        for st in stages:
            transport.check_stage_geometry(st, box=BOX, grid_n=grid)
        transport.check_stages_disjoint(stages)
        cases.append(TransportCase(
            grid=grid, stages=stages, sigma=float(rng.uniform(0.25, 0.35)),
            t_final=float(rng.uniform(0.1, 0.25)), steps=steps,
            mixer_time=float(rng.uniform(0.0, 1.0)),
            probe_lam=float(rng.uniform(0.4, 0.7)),
            probe_n=int(rng.integers(1, 6))))
    return cases


def quadrupole(sigma):
    """(x y / sigma^2) exp(-r^2 / 2 sigma^2): mean-free, sign-structured."""
    s2 = sigma * sigma

    def fn(x, y):
        return (x * y / s2) * np.exp(-(x * x + y * y) / (2.0 * s2))

    return fn


def run_case(c):
    mixer = transport.AlternatingMixer()
    schedule = transport.default_schedule()
    adm = transport.check_admissible(
        transport.mixer_velocity(mixer, c.mixer_time, ADMISSIBILITY_GRID, BOX))
    gamma = schedule.gam(c.probe_n)
    rc = transport.rescale_norm_check(c.probe_lam, gamma, c.probe_n, c.grid, BOX)
    budget = transport.schedule_budget(schedule)
    crossing = transport.blowup_budget(schedule)
    attempted = 6
    builds, phases, stages = 0, set(), []
    for st in c.stages:
        last = {}

        def velocity_at(t, st=st, last=last):
            nonlocal builds
            builds += 1
            phases.add((st.n, ((st.n * t) / mixer.period) % 1.0 < 0.5))
            last["field"] = transport.stage_velocity(mixer, st, t, c.grid, BOX)
            return last["field"]

        theta = transport.stage_tracer(quadrupole(c.sigma), st, c.grid, BOX)
        final = transport.advect(theta, velocity_at, 0.0, c.t_final,
                                 c.t_final / c.steps)
        mix = transport.measure_mixing(final)
        attempted += 3
        stages.append({"n": st.n, "initial": theta.values, "final": final.values,
                       "velocity_u": last["field"].u, "velocity_v": last["field"].v,
                       "mix_sup": mix.sup})
    out = {"admissible": adm.ok, "hs": rc.hs_details, "w1p": rc.w1p_details,
           "gamma": gamma, "budget": budget.value, "crossing": crossing.crossing,
           "stages": stages}
    return Outcome(out=out, attempted=attempted,
                   counts={"velocity_builds": builds, "distinct_phases": len(phases)})


def reference_crossing(n_max=200):
    """First n with n - n^(2/3) - sqrt(n) > 0: the log of the default
    schedule's stretching budget with unit constants."""
    for n in range(1, n_max + 1):
        if n - n ** (2.0 / 3.0) - math.sqrt(n) > 0:
            return n
    return None


def divergence(u, v, box):
    """Spectral divergence from real FFTs along each axis."""
    n = u.shape[0]
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=box / n)
    du = np.fft.irfft(1j * k[:, None] * np.fft.rfft(u, axis=0), n=n, axis=0)
    dv = np.fft.irfft(1j * k[None, :] * np.fft.rfft(v, axis=1), n=n, axis=1)
    return du + dv


def check_case(c, out):
    fails = []
    expect(fails, out["admissible"], "base mixer not admissible (V1-V4)")
    gamma = math.exp(-float(c.probe_n) ** (2.0 / 3.0))
    expect(fails, rel_close(out["gamma"], gamma, 1e-14),
           f"schedule gamma {out['gamma']!r} != exp(-n^(2/3)) {gamma!r}")
    for s, _, measured, _ in out["hs"]:
        want = gamma * c.probe_lam ** (1.0 - s)
        expect(fails, rel_close(measured, want, 1e-6),
               f"H^{s} ratio {measured!r} != gamma lam^(1-s) {want!r}")
    for p, _, measured, _ in out["w1p"]:
        want = c.probe_n * c.probe_lam ** (2.0 / p)
        expect(fails, rel_close(measured, want, 1e-4),
               f"W^(1,{p}) ratio {measured!r} != n lam^(2/p) {want!r}")
    # sup_n n^2 e^(-2 sqrt(n)) at p = 1, attained at n = 4
    expect(fails, rel_close(out["budget"], 16.0 * math.exp(-4.0), 1e-12),
           f"gradient budget {out['budget']!r} != 16 e^-4")
    want = reference_crossing()
    expect(fails, out["crossing"] == want,
           f"budget crossing {out['crossing']} != first n with n - n^(2/3) - sqrt(n) > 0 ({want})")
    for st in out["stages"]:
        tag = f"stage {st['n']}"
        v0, v1 = st["initial"], st["final"]
        sup0 = float(np.max(np.abs(v0)))
        drift = abs(float(np.mean(v1)) - float(np.mean(v0)))
        # cubic semi-Lagrangian resampling conserves the mean only up to
        # interpolation error, a few 1e-8 of the sup on these grids
        expect(fails, drift <= 1e-6 * sup0,
               f"{tag}: tracer mean moved by {drift!r}")
        sup1 = float(np.max(np.abs(v1)))
        expect(fails, bool(np.all(np.isfinite(v1))) and sup1 <= 1.01 * sup0,
               f"{tag}: sup {sup1!r} exceeds 1.01 x initial {sup0!r}")
        expect(fails, st["mix_sup"] == sup1,
               f"{tag}: measured sup {st['mix_sup']!r} != {sup1!r}")
        u, v = st["velocity_u"], st["velocity_v"]
        vmax = float(np.max(np.hypot(u, v)))
        div = float(np.max(np.abs(divergence(u, v, BOX))))
        expect(fails, div <= 1e-10 * vmax * c.grid / BOX,
               f"{tag}: velocity divergence {div!r} is not at roundoff")
    return fails
