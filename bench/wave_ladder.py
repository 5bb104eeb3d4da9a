"""wave-ladder: seeded growth ladders through pumped wave speeds.

Each case is one ``blowup_demo`` over a few dyadic modes, the
pumped-window and constant-speed-tail energy envelope checks of every
mode, and two ``gevrey`` norms of the ladder (decaying weight on the
grown modes, growing radius on the initial data).

Cost is set by m * lambda * t_final of each mode, so the (m, lambda
exponents, t_final) shapes of a round are fixed and the seed draws only
the parameters that leave the number of solver steps alone: alpha (from
three values per run, whose Hoelder coefficients are warmed in set-up),
beta, the weight order, delta, eps1 and H below the positivity cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from cexlab import gevrey, wavegrowth

from common import Outcome, brute_holder, expect, rel_close


# (m, lambda exponents, ultra_radius = t_final); cost ~ m * sum(lambda) *
# t_final.  An odd number of shapes puts the median case in the middle of
# one shape's cluster of case times, not on the edge between two.
SHAPES = (
    (8, (3, 4, 5), 1.5),
    (10, (3, 4), 2.0),
    (12, (4, 5), 1.25),
    (6, (4, 5, 6), 1.0),
    (14, (3, 4), 1.0),
)
TINY_SHAPES = ((6, (2, 3), 0.75),)

# gamma stays positive iff 16 eps^2 + 8 eps < 1
EPS_CAP = (math.sqrt(2.0) - 1.0) / 4.0


@dataclass(frozen=True)
class WaveCase:
    alpha: float
    beta: float
    ultra_order: float
    ultra_radius: float
    delta: float
    m: int
    eps1: float
    H: float
    lam_exponents: tuple


def make_round(seed, tiny=False):
    rng = np.random.default_rng([seed, 101])
    alphas = [float(a) for a in rng.uniform(0.3, 0.6, size=3)]
    # first use of the cached coefficient belongs to set-up
    hgamma = {a: wavegrowth.gamma_holder_coefficient(a) for a in alphas}
    cases = []
    for m, exps, radius in (TINY_SHAPES if tiny else SHAPES):
        alpha = alphas[int(rng.integers(len(alphas)))]
        need = 1.0 / (1.0 - alpha)
        eps1 = float(rng.uniform(0.2, 0.8))
        lam_min = 2.0 ** exps[0]
        # eps = eps1 H / (m^(alpha+2) hgamma) lam^-alpha is largest at lam_min
        h_cap = EPS_CAP * m ** (alpha + 2.0) * hgamma[alpha] * lam_min ** alpha / eps1
        cases.append(WaveCase(
            alpha=alpha, beta=float(need + rng.uniform(0.5, 2.5)),
            ultra_order=float(need + rng.uniform(0.5, 2.5)),
            ultra_radius=radius, delta=float(rng.uniform(0.3, 0.49)), m=m,
            eps1=eps1, H=float(h_cap * rng.uniform(0.3, 0.9)),
            lam_exponents=tuple(exps)))
    return cases


def run_case(c):
    rep = wavegrowth.blowup_demo(
        alpha=c.alpha, beta=c.beta, ultra_order=c.ultra_order,
        ultra_radius=c.ultra_radius, delta=c.delta, m=c.m, eps1=c.eps1,
        H=c.H, lam_exponents=c.lam_exponents)
    modes = []
    for r in rep.rows:
        sol, prof = r.solution, r.solution.profile
        pump = sol.t <= r.delta_n
        tail = ~pump
        er = wavegrowth.energy_bounds_check(
            sol.t[pump], sol.v[pump], sol.vp[pump], prof.lam,
            prof.speed(sol.t[pump]),
            wavegrowth.EnergyBounds(prof.speed_min, prof.speed_max,
                                    prof.lipschitz_bound), slack=1e-6)
        et = wavegrowth.energy_bounds_check(
            sol.t[tail], sol.v[tail], sol.vp[tail], prof.lam,
            prof.speed(sol.t[tail]),
            wavegrowth.EnergyBounds(prof.c0, prof.c0, 0.0), slack=1e-6)
        modes.append({"lam": r.lam, "eps": r.eps, "cycles": r.cycles,
                      "delta_n": r.delta_n, "log_v1": r.log_v1,
                      "log_growth": r.log_growth, "t": sol.t, "v": sol.v,
                      "vp": sol.vp, "envelope_ok": er.ok, "tail_ok": et.ok})
    lam = np.array([md["lam"] for md in modes])
    log_v1 = np.array([md["log_v1"] for md in modes])
    # amplitude of each grown mode: v1 times the tail oscillation size
    log_amp = log_v1 + np.array([
        r.solution.log_tail_amplitude(-1) for r in rep.rows])
    grown = gevrey.ModeVector(lam, log_amp)
    initial = gevrey.ModeVector(lam, log_v1)
    out = {
        "modes": modes, "log_amp": log_amp,
        "decaying": gevrey.decaying_weight_log_norm(grown, c.ultra_order,
                                                    c.ultra_radius),
        "growing": gevrey.growing_radius_log_norm(initial, c.beta),
    }
    # blowup_demo, two envelope checks per mode, two norms
    return Outcome(out=out, attempted=1 + 2 * len(modes) + 2)


_HGAMMA_REF = {}


def reference_hgamma(alpha):
    """1.1 times the small-eps Hoelder quotient of the speed factor,
    gamma = 1 - 16 eps^2 sin^4 - 8 eps sin 2 tau, by a brute-force pair
    sup over [0, 2 pi] on 2049 points."""
    if alpha not in _HGAMMA_REF:
        eps = 1e-6
        tau = np.linspace(0.0, 2.0 * math.pi, 2049)
        f = (-16.0 * eps * eps * np.sin(tau) ** 4
             - 8.0 * eps * np.sin(2.0 * tau)) / eps
        _HGAMMA_REF[alpha] = 1.1 * brute_holder(tau, f, alpha)
    return _HGAMMA_REF[alpha]


def _log_flux(md, c0):
    with np.errstate(divide="ignore"):
        return np.logaddexp(2.0 * np.log(np.abs(md["vp"])),
                            math.log(c0) + 2.0 * math.log(md["lam"])
                            + 2.0 * np.log(np.abs(md["v"])))


def _mp_log_sum(terms):
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(float(t)))
                                            for t in terms)))


def check_case(c, out):
    fails = []
    hg = reference_hgamma(c.alpha)
    c0 = float(c.m * c.m)
    for md in out["modes"]:
        lam = md["lam"]
        tag = f"m={c.m} lam={lam:g}"
        eps = c.eps1 * c.H / (c.m ** (c.alpha + 2.0) * hg) * lam ** (-c.alpha)
        cycles = int(math.floor(c.m * lam * c.delta / (2.0 * math.pi)))
        expect(fails, rel_close(md["eps"], eps, 1e-9),
               f"{tag}: eps {md['eps']!r} != paper formula {eps!r}")
        expect(fails, md["cycles"] == cycles,
               f"{tag}: cycles {md['cycles']} != {cycles}")
        lv1 = -(1.0 + lam ** (1.0 / c.beta)) * math.log1p(lam)
        expect(fails, rel_close(md["log_v1"], lv1, 1e-12),
               f"{tag}: log v1 {md['log_v1']!r} != {lv1!r}")
        delta_n = 2.0 * math.pi * cycles / (c.m * lam)
        lf = _log_flux(md, c0)
        after = md["t"] >= delta_n * (1.0 - 1e-12)
        if not expect(fails, bool(np.any(after)), f"{tag}: no samples after the pump"):
            continue
        want = 8.0 * math.pi * eps * cycles
        expect(fails, rel_close(float(lf[after][0]), want, 1e-7, 1e-6),
               f"{tag}: log flux after pump {float(lf[after][0])!r} != 8 pi eps cycles {want!r}")
        expect(fails, rel_close(md["log_growth"], want, 1e-7, 1e-6),
               f"{tag}: reported log growth {md['log_growth']!r} != {want!r}")
        spread = float(np.max(lf[after]) - np.min(lf[after]))
        expect(fails, spread <= 1e-6,
               f"{tag}: flux drifts by {spread!r} on the constant-speed tail")
        expect(fails, md["envelope_ok"], f"{tag}: pumped-window energy envelope fails")
        expect(fails, md["tail_ok"], f"{tag}: tail energy envelope fails")
    lam = np.array([md["lam"] for md in out["modes"]])
    log_v1 = np.array([md["log_v1"] for md in out["modes"]])
    want = _mp_log_sum(2.0 * out["log_amp"]
                       - 2.0 * c.ultra_radius * lam ** (1.0 / c.ultra_order))
    expect(fails, rel_close(out["decaying"], want, 1e-12, 1e-12),
           f"decaying-weight log norm {out['decaying']!r} != mpmath {want!r}")
    want = _mp_log_sum(2.0 * log_v1 + lam ** (1.0 / c.beta) * np.log1p(lam))
    expect(fails, rel_close(out["growing"], want, 1e-12, 1e-12),
           f"growing-radius log norm {out['growing']!r} != mpmath {want!r}")
    return fails
