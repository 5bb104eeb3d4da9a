"""Tests for the pumped-speed mode family: closed forms, sizing,
integration accuracy, energy envelopes, and the growth demo."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cexlab.wavegrowth import (EPS_CAP, EnergyBounds, blowup_demo,
                               build_speed_profile, closed_form_mode,
                               energy_bounds_check, gamma_bounds,
                               gamma_holder_coefficient,
                               gamma_holder_quotient, gamma_profile,
                               integrate_mode, log_initial_amplitude,
                               mode_w, mode_w_t, mode_w_tt, pump_exponent,
                               speed_holder_constant)

DEMO = dict(m=12, alpha=0.5, eps1=0.5, H=4200.0, delta=0.49)

# (m, lambda exponents, t_final) of the wave-ladder benchmark's modes
BENCH_SHAPES = (
    (8, (3, 4, 5), 1.5),
    (10, (3, 4), 2.0),
    (12, (4, 5), 1.25),
    (6, (4, 5, 6), 1.0),
    (14, (3, 4), 1.0),
)


def demo_profile(lam):
    return build_speed_profile(lam=lam, **DEMO)


def bench_modes():
    """(profile, t_final) for every benchmark mode, with H at 0.6 of the
    positivity cap of the shape's lowest mode, and demo_profile(32.0)."""
    hg = gamma_holder_coefficient(0.5)
    modes = []
    for m, exps, t_final in BENCH_SHAPES:
        H = 0.6 * EPS_CAP * m ** 2.5 * hg * 2.0 ** (0.5 * exps[0]) / 0.5
        modes += [(build_speed_profile(m, 2.0 ** j, 0.5, 0.5, H, 0.49,
                                       hgamma=hg), t_final) for j in exps]
    return modes + [(demo_profile(32.0), None)]


def step_by_step_mode(profile, t_final=None, rtol=1e-10, atol=1e-290,
                      points_per_cycle=12, method="DOP853"):
    """Reference integrator: the solver steps v'' + lam^2 c(t) v = 0
    over the whole horizon, the constant-speed tail included.  Returns
    the solver result, evaluated on integrate_mode's output grid."""
    if t_final is None:
        t_final = profile.delta
    lam2 = profile.lam * profile.lam
    cycle = 2.0 * math.pi / (profile.m * profile.lam)

    def rhs(t, y):
        return (y[1], -lam2 * profile.speed(t) * y[0])

    n = max(2049, int(points_per_cycle * t_final / cycle) + 2)
    t_eval = np.union1d(np.linspace(0.0, t_final, n),
                        np.array([profile.delta_n]))
    sol = solve_ivp(rhs, (0.0, t_final), (0.0, 1.0), method=method,
                    t_eval=t_eval, rtol=rtol, atol=atol,
                    first_step=cycle / 64.0, dense_output=False)
    assert sol.success
    return sol


def tail_flux_spread(sol):
    tail = np.nonzero(sol.t > sol.profile.delta_n)[0]
    flux = [sol.log_flux(i) for i in tail]
    return max(flux) - min(flux)


class TestClosedForms:
    def test_point_values(self):
        for eps in (0.01, 0.1):
            assert gamma_profile(eps, 0.0) == 1.0
            assert gamma_profile(eps, math.pi / 2) \
                == pytest.approx(1.0 - 16.0 * eps * eps, rel=1e-15)
            assert pump_exponent(eps, math.pi) \
                == pytest.approx(2.0 * math.pi * eps, rel=1e-15)
            assert mode_w_t(eps, 0.0) == 1.0

    def test_generating_identity(self):
        tau = np.linspace(0.0, 20.0, 4001)
        for eps in (0.01, 0.1):
            res = mode_w_tt(eps, tau) + gamma_profile(eps, tau) * mode_w(eps, tau)
            assert np.max(np.abs(res)) <= 1e-9

    def test_gamma_enclosure(self):
        tau = np.linspace(0.0, 2.0 * math.pi, 20001)
        for eps in (0.02, 0.1, 0.2):
            lo, hi = gamma_bounds(eps)
            vals = gamma_profile(eps, tau)
            assert lo - 1e-12 <= vals.min() and vals.max() <= hi + 1e-12
            assert 1.0 - hi <= 0 <= 1.0 - lo
            assert max(1.0 - lo, hi - 1.0) <= 24.0 * eps

    def test_crest_growth_rate(self):
        # at tau_k = k pi + pi/2 the sine factor is 1, so log|w| grows
        # exactly linearly with slope 2 eps
        eps = 0.07
        k = np.arange(41)
        taus = k * math.pi + math.pi / 2
        logs = np.log(np.abs(mode_w(eps, taus)))
        slope = np.polyfit(taus, logs, 1)[0]
        assert slope == pytest.approx(2.0 * eps, rel=1e-9)


class TestHolderCoefficient:
    def test_small_eps_limit_is_sixteen(self):
        q = gamma_holder_quotient(1e-6, 1.0)
        assert q >= 16.0 * (1.0 - 1e-3)
        assert q <= 16.0 * (1.0 + 1e-3)

    def test_grid_refinement_stable(self):
        a = gamma_holder_quotient(1e-6, 0.5, grid_points=1025)
        b = gamma_holder_quotient(1e-6, 0.5, grid_points=2049)
        assert abs(b - a) / a <= 0.01

    def test_reference_coefficient(self):
        assert gamma_holder_coefficient(0.5) \
            == pytest.approx(14.98184234874899, rel=1e-12)
        with pytest.raises(ValueError, match="alpha"):
            gamma_holder_coefficient(0.0)
        with pytest.raises(ValueError, match="alpha"):
            gamma_holder_coefficient(1.5)


class TestSpeedProfile:
    def test_gates(self):
        with pytest.raises(ValueError, match="m must"):
            build_speed_profile(m=0, lam=16.0, alpha=0.5, eps1=0.5,
                                H=1.0, delta=0.5)
        with pytest.raises(ValueError, match="positive"):
            build_speed_profile(m=1, lam=-1.0, alpha=0.5, eps1=0.5,
                                H=1.0, delta=0.5)
        with pytest.raises(ValueError, match="alpha"):
            build_speed_profile(m=1, lam=16.0, alpha=1.5, eps1=0.5,
                                H=1.0, delta=0.5)
        with pytest.raises(ValueError, match="positivity cap"):
            build_speed_profile(m=1, lam=1.0, alpha=0.5, eps1=0.5,
                                H=1e6, delta=100.0)
        with pytest.raises(ValueError, match="shorter than one"):
            build_speed_profile(m=1, lam=1.0, alpha=0.5, eps1=0.5,
                                H=1.0, delta=0.5)

    @pytest.mark.parametrize("name, value", [
        ("lam", math.inf), ("lam", math.nan), ("delta", math.inf),
        ("H", math.nan), ("eps1", math.nan), ("m", 8.5), ("m", math.nan),
        ("hgamma", math.nan)])
    def test_non_finite_and_fractional_inputs_name_the_parameter(
            self, name, value):
        args = dict(DEMO, lam=32.0)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must"):
            build_speed_profile(**args)

    def test_modulation_scales_with_frequency(self):
        profs = [demo_profile(float(2 ** j)) for j in range(4, 10)]
        products = [p.eps * p.lam ** 0.5 for p in profs]
        assert max(products) - min(products) <= 1e-12 * products[0]
        assert all(p.eps < EPS_CAP for p in profs)

    def test_growth_exponent_identity(self):
        p = demo_profile(32.0)
        assert p.g == pytest.approx(2.0 * p.eps * p.m * p.lam * p.delta_n,
                                    rel=1e-12)
        assert p.g == 4.0 * math.pi * p.eps * p.cycles

    def test_speed_continuous_then_frozen(self):
        p = demo_profile(32.0)
        assert float(p.speed(p.delta_n)) == pytest.approx(p.m ** 2,
                                                          rel=1e-12)
        assert float(p.speed(10.0)) == float(p.speed(p.delta_n))
        assert float(p.speed(0.0)) == p.m ** 2

    def test_holder_budget_respected_and_nearly_attained(self):
        p = demo_profile(16.0)
        est = speed_holder_constant(p)
        budget = p.eps1 * p.H
        assert est.constant <= budget * (1.0 + 1e-6)
        assert est.constant >= 0.8 * budget

    def test_lipschitz_bound_holds(self):
        p = demo_profile(16.0)
        window = 2.0 * math.pi / (p.m * p.lam)
        t = np.linspace(0.0, window, 4001)
        quot = np.abs(np.diff(p.speed(t))) / np.diff(t)
        assert np.max(quot) <= p.lipschitz_bound * (1.0 + 1e-9)

    def test_initial_amplitude_closed_form(self):
        assert float(log_initial_amplitude(16.0, 4.0)) \
            == pytest.approx(-3.0 * math.log(17.0), rel=1e-15)
        for beta in (0.0, math.nan):
            with pytest.raises(ValueError, match="beta"):
                log_initial_amplitude(16.0, beta)


class TestIntegration:
    def test_matches_closed_form(self):
        p = demo_profile(32.0)
        sol = integrate_mode(p, rtol=1e-10)
        v_cf, vp_cf = closed_form_mode(p, sol.t)
        assert np.max(np.abs(sol.v - v_cf)) <= 1e-6 * sol.scale
        assert abs(sol.pump_end_value) <= 1e-8 * sol.scale
        g = p.g
        i = sol.pump_end_index
        assert sol.vp[i] == pytest.approx(math.exp(g), rel=1e-6)
        assert sol.log_flux(-1) == pytest.approx(2.0 * g, abs=1e-6)

    def test_t_final_gate(self):
        p = demo_profile(32.0)
        with pytest.raises(ValueError, match="past the pumping window"):
            integrate_mode(p, t_final=p.delta_n / 2)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="t_final must be finite"):
                integrate_mode(p, t_final=bad)

    @pytest.mark.parametrize("profile, t_final", [
        pytest.param(p, t, id=f"m={p.m},lam={p.lam:g},t_final={t}")
        for p, t in bench_modes()])
    def test_matches_the_step_by_step_oracle(self, profile, t_final):
        sol = integrate_mode(profile, t_final=t_final)
        ref = step_by_step_mode(profile, t_final=t_final)
        assert np.array_equal(sol.t, ref.t)
        scale = math.exp(profile.g)
        assert np.max(np.abs(sol.v - ref.y[0])) <= 1e-8 * scale
        assert np.max(np.abs(sol.vp - ref.y[1])) <= 1e-8 * scale
        if t_final is not None:
            # the exact tail flow conserves the flux to rounding; the
            # integrated tail drifted by up to 1e-6
            assert tail_flux_spread(sol) <= 1e-12

    def test_solver_calls_are_recorded_and_a_tenth_of_the_oracle(self):
        profile, t_final = bench_modes()[2]  # m = 8, lam = 32, t_final 1.5
        sol = integrate_mode(profile, t_final=t_final)
        ref = step_by_step_mode(profile, t_final=t_final)
        assert 0 < sol.nfev <= ref.nfev / 10

    def test_horizon_may_end_with_the_pump(self):
        p = demo_profile(32.0)
        sol = integrate_mode(p, t_final=p.delta_n)
        assert sol.t[-1] == p.delta_n
        assert sol.pump_end_index == sol.t.size - 1
        v_cf, vp_cf = closed_form_mode(p, sol.t)
        scale = math.exp(p.g)
        assert np.max(np.abs(sol.v - v_cf)) <= 1e-8 * scale
        assert np.max(np.abs(sol.vp - vp_cf)) <= 1e-8 * scale

    def test_long_tail_matches_closed_form(self):
        p = demo_profile(2048.0)
        sol = integrate_mode(p, t_final=2.0)
        tail = sol.t > p.delta_n
        v_cf, vp_cf = closed_form_mode(p, sol.t[tail])
        scale = math.exp(p.g)
        assert np.max(np.abs(sol.v[tail] - v_cf)) <= 2e-8 * scale
        assert np.max(np.abs(sol.vp[tail] - vp_cf)) <= 2e-8 * scale

    def test_tolerance_convergence(self):
        p = demo_profile(32.0)
        target = math.exp(p.g)
        errs = []
        for rtol in (1e-5, 1e-7, 1e-9):
            sol = integrate_mode(p, rtol=rtol)
            errs.append(abs(sol.vp[sol.pump_end_index] - target) / target)
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[2] >= 100.0


class TestEnergyEnvelope:
    def test_unit_speed_conserves_exactly(self):
        lam = 7.0
        t = np.linspace(0.0, 3.0, 1201)
        rep = energy_bounds_check(t, np.sin(lam * t) / lam, np.cos(lam * t),
                                  lam, np.ones_like(t),
                                  EnergyBounds(1.0, 1.0, 0.0))
        assert rep.ok
        assert abs(rep.upper_margin) <= 1e-9
        assert abs(rep.lower_margin) <= 1e-9

    def solve(self, c, lam, t):
        sol = solve_ivp(lambda s, y: (y[1], -lam * lam * c(s) * y[0]),
                        (t[0], t[-1]), (0.0, 1.0), t_eval=t,
                        rtol=1e-11, atol=1e-14, method="DOP853")
        assert sol.success
        return sol.y[0], sol.y[1]

    def test_drifting_speed_within_envelope(self):
        lam = 5.0
        t = np.linspace(0.0, 3.0, 1501)
        c = lambda s: 1.0 + s / 10.0
        v, vp = self.solve(c, lam, t)
        rep = energy_bounds_check(t, v, vp, lam, c(t),
                                  EnergyBounds(1.0, 1.3, 0.1))
        assert rep.ok
        assert rep.upper_margin > 0 and rep.lower_margin > 0

    def test_halved_lipschitz_claim_is_caught(self):
        lam = 5.0
        t = np.linspace(0.0, 3.0, 1501)
        c = lambda s: 1.15 + 0.15 * np.sin(2.0 * s)
        v, vp = self.solve(c, lam, t)
        rep = energy_bounds_check(t, v, vp, lam, c(t),
                                  EnergyBounds(1.0, 1.3, 0.15))
        assert rep.measured_lipschitz == pytest.approx(0.3, rel=0.01)
        assert not rep.lipschitz_consistent
        assert not rep.ok

    def test_speed_range_violation_is_caught(self):
        lam = 5.0
        t = np.linspace(0.0, 1.0, 101)
        c = np.full_like(t, 1.4)
        v = np.sin(lam * 1.4 ** 0.5 * t) / (lam * 1.4 ** 0.5)
        vp = np.cos(lam * 1.4 ** 0.5 * t)
        rep = energy_bounds_check(t, v, vp, lam, c,
                                  EnergyBounds(1.0, 1.3, 0.0))
        assert not rep.speed_in_range
        assert not rep.ok

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="mu1"):
            EnergyBounds(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="mu1"):
            EnergyBounds(2.0, 1.0, 0.0)
        for L in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="L must"):
                EnergyBounds(1.0, 2.0, L)
        for mu2 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="mu2"):
                EnergyBounds(1.0, mu2, 0.0)


class TestGrowthDemo:
    def test_parameter_gates(self):
        with pytest.raises(ValueError, match="alpha"):
            blowup_demo(alpha=1.0)
        with pytest.raises(ValueError, match="cannot beat"):
            blowup_demo(beta=1.5)
        with pytest.raises(ValueError, match="cannot beat"):
            blowup_demo(ultra_order=2.0)

    def test_small_family_bookkeeping(self):
        rep = blowup_demo(lam_exponents=range(4, 7), rtol=1e-8)
        assert rep.r0 == pytest.approx(0.8261297981677199, rel=1e-12)
        for row in rep.rows:
            lam = row.lam
            assert row.predicted_exponent == pytest.approx(
                rep.r0 * lam ** 0.5 - 2.0 * lam ** 0.25 * math.log1p(lam),
                rel=1e-12)
            assert row.pump_end_residual <= 1e-8
            assert row.g == pytest.approx(4.0 * math.pi * row.eps * row.cycles,
                                          rel=1e-15)
            assert abs(row.term_measured - row.term_model) <= 1e-5
        assert rep.terms_increasing
        assert rep.slope_rel_err <= 1e-6

    def test_growth_beats_log_two_threshold(self):
        rep = blowup_demo(lam_exponents=range(4, 8), rtol=1e-6)
        terms = [r.term_measured for r in rep.rows]
        assert terms[2] < math.log(2.0) < terms[3]
        assert rep.rows[3].lam == 128.0
