"""Command line front end.

Subcommands
-----------
bump       multi-bump estimate verification and the candidate build
wave       pumped-mode identity and energy checks, then the growth demo
transport  mixer admissibility, rescaling laws, budget table, advection
exercise   sawtooth demonstration table

Each subcommand writes CSV, by default to a file named after it in the
working directory (`--csv PATH` overrides, `--csv -` streams to
stdout).  The `#` header block records the tool version, the full
effective configuration (sorted), and column units; there are no
timestamps and iteration order is fixed, so identical configurations
give byte-identical output.  Floats are written with repr, which
round-trips exactly.

Configuration comes from a flat `section.key = value` file; `#` starts
a comment.  Unknown keys are an error, so a typo cannot silently fall
back to a default.  `--sweep key=a..b` repeats the run for each integer
in the inclusive range, appending that run's rows in order; a bare key
is qualified with the subcommand name.

Exit codes: 0 success; 2 invalid configuration or a violated
precondition; 3 a verification failed (a measured inequality did not
hold); 4 a numerical failure (integration breakdown, non-finite
output).  Verification failures still write the CSV so the offending
numbers can be inspected, and the first failed check is named on
stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import __version__
from .bump import (MultibumpParams, build_candidate, default_bump,
                   measure_budget, verify_multibump_estimates)
from .fields import ScalarField2D, hs_norm, l2_norm, save_field
from .holder import Fn1D, holder_constant, sawtooth_half_holder_constant, \
    sawtooth_perturb
from .intervals import DyadicFamily
from .transport import (AlternatingMixer, advect, blowup_budget,
                        check_admissible, check_stage_geometry,
                        check_stages_disjoint, default_schedule, make_stage,
                        mixer_velocity, rescale_norm_check, schedule_budget,
                        stage_tracer, stage_velocity, superpose_scalars)
from .wavegrowth import (EnergyBounds, IntegrationError, blowup_demo,
                         energy_bounds_check, gamma_profile, mode_w, mode_w_tt)

EXIT_OK, EXIT_CONFIG, EXIT_VERIFY, EXIT_NUMERIC = 0, 2, 3, 4

# registry of every known configuration key with its default
CONFIG_DEFAULTS = {
    "bump.alpha": 0.2,
    "bump.beta": 1.5,
    "bump.n": 4,
    "bump.k": 1,
    "bump.h": 1.0,
    "bump.eps1": 0.5,
    "bump.eps0": 1.0,
    "bump.k0": 1,
    "bump.l0": 0.0,
    "wave.alpha": 0.5,
    "wave.beta": 4.0,
    "wave.ultra_order": 4.0,
    "wave.ultra_radius": 2.0,
    "wave.delta": 0.49,
    "wave.m": 12,
    "wave.eps1": 0.5,
    "wave.h": 4200.0,
    "wave.lam_min_exp": 4,
    "wave.lam_max_exp": 11,
    "wave.times": 5,
    "wave.tol": 1e-10,
    "transport.grid": 512,
    "transport.box": 2.0,
    "transport.n": 0,
    "transport.stage_min": 4,
    "transport.stage_max": 6,
    "transport.x0": 0.85,
    "transport.margin": 0.3,
    "transport.amplitude": 0.035,
    "transport.wavelength": 0.5,
    "transport.tracer_sigma": 0.35,
    "transport.t_final": 0.25,
    "transport.steps": 60,
    "transport.k0": 1,
    "transport.tol": 0.5,
    "exercise.h": 1.0,
    "exercise.eps1": 0.5,
    "exercise.n_start": 4,
    "exercise.n_count": 3,
    "exercise.grid": 2001,
    "exercise.tol": 1e-6,
}

DEFAULT_CSV = {
    "bump": "bump_report.csv",
    "wave": "wave_modes.csv",
    "transport": "transport_report.csv",
    "exercise": "exercise_report.csv",
}

# support leakage of the spectrally differentiated base velocity only
# drops below the admissibility tolerance once the grid resolves the
# stream function's edge ramp; coarser grids would fail spuriously
ADMISSIBILITY_GRID = 512


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_value(text):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text):
    """Parse `section.key = value` lines; reject unknown keys."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(
                f"line {lineno}: expected 'section.key = value', got {raw!r}",
                EXIT_CONFIG)
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise CliError(f"line {lineno}: unknown configuration key {key!r}",
                           EXIT_CONFIG)
        out[key] = _parse_value(val)
    return out


def load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_CONFIG)
    return parse_config_text(text)


def effective_config(overrides):
    cfg = dict(CONFIG_DEFAULTS)
    cfg.update(overrides)
    return cfg


def parse_sweep(text, command):
    """--sweep key=a..b with integer endpoints, inclusive.  A key without
    a dot is qualified with the command name."""
    if "=" not in text or ".." not in text.split("=", 1)[1]:
        raise CliError(f"sweep must look like key=a..b, got {text!r}",
                       EXIT_CONFIG)
    key, rng = text.split("=", 1)
    key = key.strip()
    if "." not in key:
        key = f"{command}.{key}"
    if key not in CONFIG_DEFAULTS:
        raise CliError(f"unknown sweep key {key!r}", EXIT_CONFIG)
    lo_s, hi_s = rng.split("..", 1)
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise CliError(f"sweep endpoints must be integers, got {rng!r}",
                       EXIT_CONFIG)
    if hi < lo:
        raise CliError(f"sweep range is empty: {text!r}", EXIT_CONFIG)
    return key, list(range(lo, hi + 1))


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(dest, command, cfg, sweep, columns, rows, units, notes=()):
    lines = [f"# cexlab {__version__}", f"# command: {command}"]
    for key in sorted(cfg):
        lines.append(f"# config: {key} = {_fmt(cfg[key])}")
    if sweep is not None:
        key, values = sweep
        lines.append(f"# sweep: {key} = {values[0]}..{values[-1]}")
    for note in notes:
        lines.append(f"# note: {note}")
    lines.append(f"# units: {units}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if dest == "-":
        sys.stdout.write(text)
        return
    try:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {dest}: {exc}", EXIT_CONFIG)


def _require_finite(rows, command):
    for row in rows:
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                raise CliError(
                    f"{command} produced a non-finite value; the requested "
                    "parameters overflow double precision", EXIT_NUMERIC)


def _zero_fn():
    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))
    return Fn1D(eval=zero, deriv=zero)


def run_bump(cfg):
    alpha, beta = float(cfg["bump.alpha"]), float(cfg["bump.beta"])
    n, k = int(cfg["bump.n"]), int(cfg["bump.k"])
    fam = DyadicFamily(alpha=alpha, beta=beta, window=k)
    rep = verify_multibump_estimates(default_bump(), MultibumpParams(fam, n=n, k=k))

    plan = build_candidate(_zero_fn(), L0=float(cfg["bump.l0"]),
                           H=float(cfg["bump.h"]), eps1=float(cfg["bump.eps1"]),
                           k0=int(cfg["bump.k0"]), alpha=alpha, beta=beta,
                           eps0=float(cfg["bump.eps0"]))
    budget = measure_budget(plan.n0, Fraction(repr(beta)), plan.k0)

    rows = [(n, k, alpha, beta, rep.support_ok,
             rep.sup_phi, rep.sup_phi_bound, rep.sup_psi, rep.sup_psi_bound,
             rep.lip_measured, rep.lip_bound,
             rep.holder_measured, rep.holder_bound,
             rep.gap_min, rep.gap_bound,
             plan.n0, plan.eps2, float(budget.slack),
             rep.all_ok and budget.positive)]
    checks = [
        (f"bump support containment (n={n})", rep.support_ok),
        (f"pointwise bounds (n={n})", rep.pointwise_ok),
        (f"restricted Lipschitz bound (n={n})", rep.lip_ok),
        (f"ambient Hoelder bound (n={n})", rep.holder_ok),
        (f"antiderivative gap bound (n={n})", rep.gap_ok),
        (f"coincidence-window measure slack positive (n0={plan.n0})",
         budget.positive),
    ]
    notes = [f"candidate level n0 = {plan.n0}, eps2 = {plan.eps2!r}, "
             f"measure slack = {float(budget.slack)!r}"]
    return rows, checks, notes


BUMP_COLUMNS = ("n", "k", "alpha", "beta", "support_ok",
                "sup_phi", "sup_phi_bound", "sup_psi", "sup_psi_bound",
                "lip", "lip_bound", "holder", "holder_bound",
                "gap_min", "gap_bound", "n0", "eps2", "budget_slack",
                "all_ok")


def run_wave(cfg):
    checks = []
    tgrid = np.linspace(0.0, 20.0, 2001)
    worst = 0.0
    for eps in (0.01, 0.05, 0.1, 0.2):
        res = mode_w_tt(eps, tgrid) + gamma_profile(eps, tgrid) * mode_w(eps, tgrid)
        worst = max(worst, float(np.max(np.abs(res))))
    checks.append(("pumped-profile identity w_tt + gamma w = 0",
                   worst <= 1e-9))

    radius = float(cfg["wave.ultra_radius"])
    order = float(cfg["wave.ultra_order"])
    rep = blowup_demo(
        alpha=float(cfg["wave.alpha"]), beta=float(cfg["wave.beta"]),
        ultra_order=order, ultra_radius=radius,
        delta=float(cfg["wave.delta"]), m=int(cfg["wave.m"]),
        eps1=float(cfg["wave.eps1"]), H=float(cfg["wave.h"]),
        lam_exponents=range(int(cfg["wave.lam_min_exp"]),
                            int(cfg["wave.lam_max_exp"]) + 1),
        rtol=float(cfg["wave.tol"]))

    targets = np.linspace(1.0 / radius, radius, int(cfg["wave.times"]))
    rows = []
    envelope_ok = tail_ok = mono_time = True
    for r in rep.rows:
        sol = r.solution
        prof = sol.profile
        pump = sol.t <= r.delta_n
        er = energy_bounds_check(
            sol.t[pump], sol.v[pump], sol.vp[pump], prof.lam,
            prof.speed(sol.t[pump]),
            EnergyBounds(prof.speed_min, prof.speed_max, prof.lipschitz_bound),
            slack=1e-6)
        envelope_ok = envelope_ok and er.ok
        tail = ~pump
        et = energy_bounds_check(
            sol.t[tail], sol.v[tail], sol.vp[tail], prof.lam,
            prof.speed(sol.t[tail]), EnergyBounds(prof.c0, prof.c0, 0.0),
            slack=1e-6)
        tail_ok = tail_ok and et.ok

        offset = (2.0 * r.log_v1 - math.log(prof.c0) - 2.0 * math.log(r.lam)
                  - 2.0 * radius * r.lam ** (1.0 / order))
        prev = -math.inf
        for target in targets:
            i = int(np.argmin(np.abs(sol.t - target)))
            log_e = sol.log_flux(i)
            bound = offset + log_e
            mono_time = mono_time and bound >= prev - 1e-6
            prev = bound
            rows.append((r.lam, r.eps, r.delta_n, float(sol.t[i]),
                         float(sol.v[i]), float(sol.vp[i]), log_e, bound,
                         r.predicted_exponent))
    checks.append(("pumped-window energy envelope", envelope_ok))
    checks.append(("constant-speed tail conserves the flux", tail_ok))
    checks.append(("log ultradistribution lower bound nondecreasing in time",
                   mono_time))
    checks.append(("log ultradistribution lower bound increasing across modes",
                   rep.terms_increasing))
    notes = [f"r0 = {rep.r0!r}, gamma Hoelder coefficient = {rep.hgamma!r}",
             f"term slope fit: measured {rep.slope_measured!r} vs model "
             f"{rep.slope_model!r} (rel err {rep.slope_rel_err!r})"]
    return rows, checks, notes


WAVE_COLUMNS = ("lambda_n", "eps_n", "delta_n", "t", "v", "vprime",
                "log_E", "log_ultra_norm_lb", "predicted_exponent")


def _quadrupole_profile(sigma):
    """Sign-structured tracer profile (xy/sigma^2) exp(-r^2 / 2 sigma^2)."""
    s2 = sigma * sigma

    def fn(x, y):
        return (x * y / s2) * np.exp(-(x * x + y * y) / (2.0 * s2))

    return fn


BUDGET_P_VALUES = (1.0, 2.0, 4.0, 8.0)


def _budget_slacks(n, lam, ell2, d=2):
    return tuple(ell2 * p ** 4 - n * n * lam ** (d / p)
                 for p in BUDGET_P_VALUES)


def _budget_ok(slacks, ell2):
    # the supremum is attained on the sampled (n, p) pairs, so the
    # tightest slack is a genuine zero; allow it to round either way
    return all(sl >= -1e-12 * ell2 * p ** 4
               for sl, p in zip(slacks, BUDGET_P_VALUES))


def place_stages(schedule, n_lo, n_hi, x0, margin, support_radius=0.95):
    """Deepest stage at (x0, 0), the rest to its left with a relative
    separation margin on top of the touching distance."""
    stages = []
    x = x0
    prev_lam = None
    for n in range(n_hi, n_lo - 1, -1):
        lam = schedule.lam(n)
        if prev_lam is not None:
            x -= (prev_lam + lam) * support_radius * (1.0 + margin)
        stages.append(make_stage(schedule, n, (x, 0.0)))
        prev_lam = lam
    return list(reversed(stages))


@lru_cache(maxsize=4)
def _base_measurements(amplitude, wavelength, sigma, grid, box):
    """Sup speed of the unit-scale velocity and H^s norms of the
    unit-scale tracer, measured once and reused across sweep rows."""
    mixer = AlternatingMixer(amplitude=amplitude, wavelength=wavelength)
    sup = mixer_velocity(mixer, 0.25, grid, box).sup_speed
    tracer = ScalarField2D.from_function(_quadrupole_profile(sigma), grid, box)
    return sup, tracer


def run_transport(cfg, snapshot=None):
    grid, box = int(cfg["transport.grid"]), float(cfg["transport.box"])
    k0 = int(cfg["transport.k0"])
    if k0 < 1:
        raise ValueError(f"transport.k0 must be >= 1, got {k0}")
    s = 1.0 / k0
    sch = default_schedule()
    sigma = float(cfg["transport.tracer_sigma"])
    amplitude = float(cfg["transport.amplitude"])
    wavelength = float(cfg["transport.wavelength"])
    ell = schedule_budget(sch)

    single = int(cfg["transport.n"])
    if single >= 1:
        # one schedule row, no box placement and no advection: every
        # quantity follows from one base measurement by the exact
        # rescaling laws, so it is available at any stage index
        lam, gam = sch.lam(single), sch.gam(single)
        sup, tracer = _base_measurements(amplitude, wavelength, sigma,
                                         grid, box)
        hs_base = hs_norm(tracer, s)
        slacks = _budget_slacks(single, lam, ell.value)
        bl = gam * lam * math.exp(single / (k0 * k0))
        rows = [(single, lam, gam, single * lam * sup) + slacks
                + (0.0, gam * lam ** (1.0 - s) * hs_base, bl)]
        checks = [(f"schedule gradient budget (n={single})",
                   _budget_ok(slacks, ell.value))]
        return rows, checks, []

    mixer = AlternatingMixer(amplitude=amplitude, wavelength=wavelength)
    checks = []
    adm_ok = True
    for t in (0.05, 0.25, 0.45, 0.55, 0.75, 0.95):
        adm = check_admissible(mixer_velocity(mixer, t, ADMISSIBILITY_GRID, box))
        adm_ok = adm_ok and adm.ok
    checks.append(("base velocity admissible over a period", adm_ok))

    rc = rescale_norm_check(lam=wavelength, gamma=sch.gam(1), n=4,
                            grid_n=grid, box=box)
    checks.append(("tracer rescaling law to 1e-6", rc.hs_rel_err <= 1e-6))
    checks.append(("velocity gradient rescaling law to 1e-4",
                   rc.w1p_rel_err <= 1e-4))

    refined = schedule_budget(sch, p_points=4001)
    checks.append(("gradient budget stable under p-grid refinement",
                   abs(refined.value - ell.value) <= 0.02 * ell.value))
    bc = blowup_budget(sch, k0=float(k0))
    checks.append(("stretching budget crosses and keeps growing",
                   bc.crossing is not None and bc.monotone_after_crossing))

    stages = place_stages(sch, int(cfg["transport.stage_min"]),
                          int(cfg["transport.stage_max"]),
                          float(cfg["transport.x0"]),
                          float(cfg["transport.margin"]))
    for st in stages:
        check_stage_geometry(st, box=box, grid_n=grid)
    check_stages_disjoint(stages)

    t_final, steps = float(cfg["transport.t_final"]), int(cfg["transport.steps"])
    if t_final <= 0 or steps <= 0:
        raise ValueError("transport.t_final and transport.steps must be positive")
    dt = t_final / steps
    cfl = float(cfg["transport.tol"])
    record = (0.0, 0.5 * t_final, t_final)
    profile = _quadrupole_profile(sigma)

    rows = []
    finals = []
    mean_ok = over_ok = drift_ok = budget_ok = True
    for st in stages:
        theta = stage_tracer(profile, st, grid, box)
        mean0 = theta.mean
        sup0 = float(np.max(np.abs(theta.values)))
        l20 = l2_norm(theta)
        slacks = _budget_slacks(st.n, st.lam, ell.value)
        budget_ok = budget_ok and _budget_ok(slacks, ell.value)
        bl = st.gam * st.lam * math.exp(st.n / (k0 * k0))

        def velocity_at(t, st=st):
            return stage_velocity(mixer, st, t, grid, box)

        state = theta
        for t0, t1 in zip(record, record[1:] + (None,)):
            sup_u = stage_velocity(mixer, st, t0, grid, box).sup_speed
            rows.append((st.n, st.lam, st.gam, sup_u) + slacks
                        + (t0, hs_norm(state, s), bl))
            mean_ok = mean_ok and abs(state.mean - mean0) <= 1e-8 * max(sup0, 1e-300)
            over_ok = over_ok and float(np.max(np.abs(state.values))) <= 1.01 * sup0
            drift_ok = drift_ok and abs(l2_norm(state) - l20) <= 5e-3 * l20
            if t1 is None:
                break
            state = advect(state, velocity_at, t0, t1, dt, cfl_safety=cfl)
        finals.append(state)
    checks.append(("schedule gradient budget", budget_ok))
    checks.append(("advection conserves the tracer mean", mean_ok))
    checks.append(("advection max-norm overshoot below 1 percent", over_ok))
    checks.append(("advection L2 drift below 0.5 percent", drift_ok))

    if snapshot is not None:
        try:
            save_field(superpose_scalars(finals), snapshot)
        except OSError as exc:
            raise CliError(f"cannot write snapshot {snapshot}: {exc}",
                           EXIT_CONFIG)
    notes = [f"gradient budget ell_2 = {ell.value!r} at stage {ell.n_star}, "
             f"p = {ell.p_star!r}",
             f"stretching budget crosses at stage {bc.crossing}"]
    return rows, checks, notes


TRANSPORT_COLUMNS = ("n", "lambda_n", "gamma_n", "sup_un",
                     "w1p_budget_slack_p1", "w1p_budget_slack_p2",
                     "w1p_budget_slack_p4", "w1p_budget_slack_p8",
                     "t", "hs_norm", "blowup_lower_bound")


def run_exercise(cfg):
    H, eps1 = float(cfg["exercise.h"]), float(cfg["exercise.eps1"])
    n_start, n_count = int(cfg["exercise.n_start"]), int(cfg["exercise.n_count"])
    pts = int(cfg["exercise.grid"])
    tol = float(cfg["exercise.tol"])
    if n_start < 1 or n_count < 2:
        raise ValueError("exercise.n_start must be >= 1 and "
                         "exercise.n_count >= 2")

    scale = (1.0 - eps1) * H

    def f0e(x):
        return scale * np.sqrt(1.0 + np.asarray(x, dtype=float))

    def f0d(x):
        return 0.5 * scale / np.sqrt(1.0 + np.asarray(x, dtype=float))

    f0 = Fn1D(eval=f0e, deriv=f0d)
    wide = np.linspace(-0.5, 0.5, pts)
    local = np.linspace(0.0, 0.1, pts)
    amp = H * eps1 / sawtooth_half_holder_constant()

    rows = []
    holder_ok = sup_ok = True
    ns, lips = [], []
    for j in range(n_count):
        n = n_start * 2 ** j
        fn = sawtooth_perturb(f0, n, H, eps1)
        hc = holder_constant(fn, 0.5, wide).constant
        lc = holder_constant(fn, 1.0, local).constant
        rows.append((n, hc, lc))
        holder_ok = holder_ok and hc <= H * (1.0 + tol)
        dev = float(np.max(np.abs(fn(wide) - f0(wide))))
        sup_ok = sup_ok and dev <= amp / (2.0 * n) * (1.0 + 1e-12)
        ns.append(n)
        lips.append(lc)
    slope = float(np.polyfit(np.log(ns), np.log(lips), 1)[0])
    checks = [
        ("order-1/2 constants stay inside the ambient budget", holder_ok),
        ("perturbation stays inside the sup envelope", sup_ok),
        ("local slope constant grows linearly in n",
         abs(slope - 1.0) <= 0.1),
    ]
    notes = [f"local slope exponent fit = {slope!r}"]
    return rows, checks, notes


EXERCISE_COLUMNS = ("n", "holder_const", "local_lip_const")


RUNNERS = {
    "bump": (run_bump, BUMP_COLUMNS,
             "dimensionless; gap columns in antiderivative units"),
    "wave": (run_wave, WAVE_COLUMNS,
             "time in speed-normalized units; logs are natural"),
    "transport": (run_transport, TRANSPORT_COLUMNS,
                  "lengths in box units; norms from grid quadrature"),
    "exercise": (run_exercise, EXERCISE_COLUMNS,
                 "constants in function units per argument^order"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cexlab",
        description="counterexample constructions: measurements and demos")
    parser.add_argument("--version", action="version",
                        version=f"cexlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
            ("bump", "multi-bump estimates and the candidate build"),
            ("wave", "pumped-mode checks and the growth demo"),
            ("transport", "rescaled stages: budgets, laws, advection"),
            ("exercise", "sawtooth demonstration table")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="flat section.key = value file")
        p.add_argument("--csv", help=f"output path, or - for stdout "
                                     f"(default {DEFAULT_CSV[name]})")
        p.add_argument("--sweep", help="key=a..b inclusive integer sweep")
        p.add_argument("--tol", type=float,
                       help="override the command's tolerance key")
        if name == "transport":
            p.add_argument("--snapshot",
                           help="write the final combined field here")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = load_config(args.config)
        cfg = effective_config(overrides)
        if args.tol is not None:
            tol_key = f"{args.command}.tol"
            if tol_key not in CONFIG_DEFAULTS:
                raise CliError(f"{args.command} has no tolerance setting",
                               EXIT_CONFIG)
            cfg[tol_key] = args.tol
        runner, columns, units = RUNNERS[args.command]
        sweep = parse_sweep(args.sweep, args.command) if args.sweep else None
        kwargs = {}
        if args.command == "transport":
            kwargs["snapshot"] = getattr(args, "snapshot", None)

        rows, checks, notes = [], [], []
        try:
            if sweep is None:
                rows, checks, notes = runner(cfg, **kwargs)
            else:
                key, values = sweep
                for value in values:
                    run_cfg = dict(cfg)
                    run_cfg[key] = value
                    r, c, nt = runner(run_cfg, **kwargs)
                    rows.extend(r)
                    checks.extend(c)
                    notes.extend(nt)
        except IntegrationError as exc:
            raise CliError(str(exc), EXIT_NUMERIC)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_CONFIG)
        except (ArithmeticError, RuntimeError) as exc:
            raise CliError(str(exc), EXIT_NUMERIC)
        _require_finite(rows, args.command)

        dest = args.csv if args.csv is not None else DEFAULT_CSV[args.command]
        write_csv(dest, args.command, cfg, sweep, columns, rows, units, notes)
        failed = [name for name, ok in checks if not ok]
        if failed:
            sys.stderr.write(f"verification failed: {failed[0]}"
                             + (f" (and {len(failed) - 1} more)"
                                if len(failed) > 1 else "") + "\n")
            return EXIT_VERIFY
        return EXIT_OK
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
