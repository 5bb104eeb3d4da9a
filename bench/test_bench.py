"""Fast tests of the benchmark itself.

Each workload runs one tiny round and must pass its own checks; then
every check is shown to reject a deliberately perturbed output, so a
check that can never fail does not go unnoticed.
"""

import copy
import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bump_grid
import transport_stages
import wave_ladder

HERE = Path(__file__).resolve().parent


def _tiny(module, seed=7):
    cases = module.make_round(seed, tiny=True)
    return [(c, module.run_case(c)) for c in cases]


@pytest.fixture(scope="module")
def wave():
    return _tiny(wave_ladder)


@pytest.fixture(scope="module")
def stages():
    return _tiny(transport_stages)


@pytest.fixture(scope="module")
def bumps():
    return _tiny(bump_grid)


def test_seed_fixes_the_inputs():
    assert wave_ladder.make_round(3) == wave_ladder.make_round(3)
    assert wave_ladder.make_round(3) != wave_ladder.make_round(4)
    assert transport_stages.make_round(3) == transport_stages.make_round(3)
    a = bump_grid.make_round(3)
    b = bump_grid.make_round(3)
    assert [c for c in a if isinstance(c, bump_grid.BumpCase)] == \
        [c for c in b if isinstance(c, bump_grid.BumpCase)]


@pytest.mark.parametrize("name", ["wave", "stages", "bumps"])
def test_tiny_round_passes_its_checks(name, request):
    module = {"wave": wave_ladder, "stages": transport_stages,
              "bumps": bump_grid}[name]
    for case, outcome in request.getfixturevalue(name):
        assert outcome.attempted > 0
        assert module.check_case(case, outcome.out) == []


def test_restricted_lipschitz_fault_is_the_only_failure(bumps):
    for case, outcome in bumps:
        if isinstance(case, bump_grid.BumpCase) and outcome.failed:
            assert outcome.failed == 1
            assert "cap is 4096" in outcome.out["restricted_error"]
        else:
            assert outcome.failed == 0


def _rejects(module, case, out, perturb, needle):
    bad = copy.deepcopy(out)
    perturb(bad)
    fails = module.check_case(case, bad)
    assert any(needle in f for f in fails), (needle, fails)


def _after(md, case):
    cycles = md["cycles"]
    return md["t"] >= 2.0 * np.pi * cycles / (case.m * md["lam"]) * (1 - 1e-12)


def _scale_after(factor):
    def go(o, case):
        md = o["modes"][0]
        mask = _after(md, case)
        md["v"][mask] *= factor
        md["vp"][mask] *= factor
    return go


def _ramp_tail(o, case):
    md = o["modes"][0]
    mask = _after(md, case)
    md["vp"][mask] *= np.linspace(1.0, 1.01, int(mask.sum()))
    md["v"][mask] *= np.linspace(1.0, 1.01, int(mask.sum()))


WAVE_PERTURBATIONS = [
    (lambda o, c: o["modes"][0].update(eps=o["modes"][0]["eps"] * 1.001), "eps"),
    (lambda o, c: o["modes"][0].update(cycles=o["modes"][0]["cycles"] + 1), "cycles"),
    (lambda o, c: o["modes"][0].update(log_v1=o["modes"][0]["log_v1"] + 1e-6), "log v1"),
    (lambda o, c: o["modes"][0].update(log_growth=o["modes"][0]["log_growth"] + 1e-3),
     "reported log growth"),
    (_scale_after(1.01), "log flux after pump"),
    (_ramp_tail, "flux drifts"),
    (lambda o, c: o["modes"][0].update(envelope_ok=False), "pumped-window"),
    (lambda o, c: o["modes"][0].update(tail_ok=False), "tail energy"),
    (lambda o, c: o.update(decaying=o["decaying"] + 1e-6), "decaying-weight"),
    (lambda o, c: o.update(growing=o["growing"] + 1e-6), "growing-radius"),
]


@pytest.mark.parametrize("perturb,needle", WAVE_PERTURBATIONS)
def test_wave_checks_reject_perturbed_outputs(wave, perturb, needle):
    case, outcome = wave[0]
    _rejects(wave_ladder, case, outcome.out, lambda o: perturb(o, case), needle)


def _stage(key, fn):
    def go(o):
        st = o["stages"][0]
        st[key] = fn(st[key])
    return go


def _detail(key, factor):
    def go(o):
        o[key] = tuple((a, b, m * factor, d) for a, b, m, d in o[key])
    return go


def _not_divergence_free(u):
    x = np.arange(u.shape[0]) * 2.0 * np.pi / u.shape[0]
    return u + 1e-3 * np.sin(x)[:, None]


STAGE_PERTURBATIONS = [
    (lambda o: o.update(admissible=False), "admissible"),
    (lambda o: o.update(gamma=o["gamma"] * 1.001), "schedule gamma"),
    (_detail("hs", 1 + 1e-5), "H^"),
    (_detail("w1p", 1 + 1e-3), "W^(1,"),
    (lambda o: o.update(budget=o["budget"] * 1.001), "gradient budget"),
    (lambda o: o.update(crossing=o["crossing"] + 1), "budget crossing"),
    (_stage("final", lambda v: v + 1e-6), "mean moved"),
    (_stage("final", lambda v: v * 1.02), "exceeds 1.01"),
    (_stage("mix_sup", lambda s: s * 1.001), "measured sup"),
    (_stage("velocity_u", _not_divergence_free), "divergence"),
]


@pytest.mark.parametrize("perturb,needle", STAGE_PERTURBATIONS)
def test_transport_checks_reject_perturbed_outputs(stages, perturb, needle):
    case, outcome = stages[0]
    _rejects(transport_stages, case, outcome.out, perturb, needle)


def _report(**changes):
    def go(o):
        o["report"] = dataclasses.replace(o["report"], **{
            k: f(getattr(o["report"], k)) for k, f in changes.items()})
    return go


def _spike_gap(o):
    o["ext_in_gaps"] = o["ext_in_gaps"].copy()
    o["ext_in_gaps"][len(o["ext_in_gaps"]) // 2] += 10.0


def _nudge_slack(o):
    s = o["slack"]
    o["slack"] = s + Fraction(1, 2 ** 90) if isinstance(s, Fraction) else s * (1 + 1e-9)


BUMP_PERTURBATIONS = [
    (_report(support_ok=lambda v: False), "support"),
    (_report(sup_phi=lambda v: v * 2.0 + 1.0), "sup phi"),
    (_report(sup_psi=lambda v: v * 10.0 + 1.0), "sup psi"),
    (_report(lip_measured=lambda v: v * 2.0 + 1.0), "Lipschitz"),
    (_report(gap_min=lambda v: 0.0), "gap"),
    (_report(holder_measured=lambda v: v * 2.0 + 1.0), "mother bump"),
    (lambda o: o.update(kn_measure=o["kn_measure"] + 1e-9), "sort-merge"),
    (lambda o: o.update(kn_measure=o["kn_measure"] + 1.0), "tail bound"),
    (lambda o: o.update(holder=o["holder"] * (1 + 1e-9)), "brute-force"),
    (lambda o: o["ext_on_set"].__setitem__(0, o["ext_on_set"][0] + 1e-12),
     "differs from phi"),
    (_spike_gap, "extension Hoelder"),
    (lambda o: o.update(gap_measure=o["gap_measure"] * 1.001), "gap measure"),
    (lambda o: o.update(n0=o["n0"] + 1), "candidate level"),
    (lambda o: o.update(eps2=o["eps2"] * 1.001), "candidate eps2"),
    (_nudge_slack, "measure slack"),
    (lambda o: o.update(restricted=1.5), "restricted Lipschitz"),
]


@pytest.mark.parametrize("perturb,needle", BUMP_PERTURBATIONS)
def test_bump_checks_reject_perturbed_outputs(bumps, perturb, needle):
    case, outcome = bumps[0]
    _rejects(bump_grid, case, outcome.out, perturb, needle)


def _flip_last_row(o):
    text = o["csv"].rstrip(b"\n")
    o["csv"] = text[: text.rfind(b",")] + b",false\n"


CLI_PERTURBATIONS = [
    (lambda o: o.update(code=3), "exited 3"),
    (lambda o: o.update(csv=o["csv"] + b"\n"), "different CSV"),
    (_flip_last_row, "all_ok = false"),
]


@pytest.mark.parametrize("perturb,needle", CLI_PERTURBATIONS)
def test_cli_checks_reject_perturbed_outputs(bumps, perturb, needle):
    case, outcome = bumps[-1]
    assert isinstance(case, bump_grid.CliCase) and case.same_as
    _rejects(bump_grid, case, outcome.out, perturb, needle)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "wave-ladder",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_runner_prints_the_result_last():
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                        "transport-stages", "--seed", "1", "--seconds", "0.1",
                        "--trace", "1"], capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["transport.stage_velocity_calls"]["value"] > 0
