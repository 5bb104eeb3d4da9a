"""Tests for the multi-bump family, the affine extension, and the
candidate construction bookkeeping."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cexlab import bump as bump_module
from cexlab.bump import (CandidatePlan, ConstructionImpossible, build_candidate,
                         bump_holder_constant, default_bump,
                         extend_piecewise_affine, measure_budget, multibump,
                         verify_multibump_estimates, MultibumpParams)
from cexlab.holder import Fn1D, holder_constant
from cexlab.intervals import DyadicFamily, IntervalSet


def params_for(alpha, beta, n, k=1):
    return MultibumpParams(DyadicFamily(alpha=alpha, beta=beta, window=k),
                           n=n, k=k)


class TestMotherBump:
    def test_closed_form_values(self):
        b = default_bump()
        assert b.sup == 15.0 / 16.0
        assert float(b.eval(np.asarray(0.0))) == 15.0 / 16.0
        assert float(b.eval(np.asarray(1.0))) == 0.0
        assert float(b.eval(np.asarray(-2.0))) == 0.0
        assert b.lip_const == pytest.approx(5.0 * math.sqrt(3.0) / 6.0)

    def test_unit_mass(self):
        b = default_bump()
        assert float(b.mass(np.asarray(1.0)) - b.mass(np.asarray(-1.0))) \
            == pytest.approx(1.0, abs=1e-14)
        # mass is the antiderivative of eval
        x = np.linspace(-1.2, 1.2, 20001)
        quad = np.concatenate([[0.0], np.cumsum(
            0.5 * (b.eval(x)[1:] + b.eval(x)[:-1]) * np.diff(x))])
        quad += float(b.mass(x[0]))
        assert np.max(np.abs(quad - b.mass(x))) <= 1e-8

    def test_derivative_matches_differences(self):
        b = default_bump()
        x = np.linspace(-0.95, 0.95, 401)
        h = 1e-6
        num = (b.eval(x + h) - b.eval(x - h)) / (2 * h)
        assert np.max(np.abs(num - b.deriv(x))) <= 1e-6

    def test_lip_const_is_sharp(self):
        b = default_bump()
        x = np.linspace(-1, 1, 100001)
        assert np.max(np.abs(b.deriv(x))) == pytest.approx(b.lip_const,
                                                           rel=1e-8)

    def test_holder_constant_cached_and_positive(self):
        b = default_bump()
        first = bump_holder_constant(b, 0.2)
        again = bump_holder_constant(b, 0.2)
        assert first == again > 0

    def test_holder_constant_measured_once_per_alpha(self, monkeypatch):
        calls = []

        def counted(f, order, grid):
            calls.append(order)
            return holder_constant(f, order, grid)

        monkeypatch.setattr(bump_module, "holder_constant", counted)
        bump_holder_constant.cache_clear()
        try:
            assert default_bump() is default_bump()
            first = bump_holder_constant(default_bump(), 0.3)
            again = bump_holder_constant(default_bump(), 0.3)
        finally:
            bump_holder_constant.cache_clear()
        assert first == again > 0
        assert calls == [0.3]


class TestMultibumpFunction:
    def test_matches_full_superposition(self):
        b = default_bump()
        p = params_for(0.2, 1.5, n=4, k=1)
        mb = multibump(b, p)
        x = np.linspace(-1.3, 1.3, 4001)
        full = np.zeros_like(x)
        for j in range(-p.count, p.count + 1):
            full += b.eval(p.rate * (x - j * p.spacing))
        full *= p.scale
        assert np.max(np.abs(mb(x) - full)) <= 1e-14

    def test_derivative_matches_full_superposition(self):
        b = default_bump()
        p = params_for(0.2, 1.5, n=4, k=2)
        mb = multibump(b, p)
        x = np.linspace(-2.2, 2.2, 3001)
        full = np.zeros_like(x)
        for j in range(-p.count, p.count + 1):
            full += b.deriv(p.rate * (x - j * p.spacing))
        full *= p.scale * p.rate
        assert np.max(np.abs(mb.deriv(x) - full)) <= 1e-11

    def test_antiderivative_counts_whole_bumps(self):
        b = default_bump()
        p = params_for(0.2, 1.5, n=4, k=1)
        mb = multibump(b, p)
        # at gap midpoints the accumulated mass sits on the half-integer
        # lattice of single-bump masses (the centre bump straddles 0),
        # and each step across a gap completes exactly one bump
        mids = (np.arange(-p.count, p.count) + 0.5) * p.spacing
        vals = mb.antideriv(mids) / p.bump_mass
        assert np.max(np.abs(2 * vals - np.round(2 * vals))) <= 1e-12
        assert np.max(np.abs(np.diff(vals) - 1.0)) <= 1e-12
        total = float(mb.antideriv(np.asarray(2.0))
                      - mb.antideriv(np.asarray(-2.0)))
        assert total == pytest.approx((2 * p.count + 1) * p.bump_mass,
                                      rel=1e-12)

    def test_antiderivative_matches_quadrature(self):
        b = default_bump()
        p = params_for(0.2, 1.5, n=4, k=1)
        mb = multibump(b, p)
        x = np.linspace(0.0, 0.7, 200001)
        quad = np.concatenate([[0.0], np.cumsum(
            0.5 * (mb(x)[1:] + mb(x)[:-1]) * np.diff(x))])
        assert np.max(np.abs(quad - mb.antideriv(x))) <= 5e-8

    def test_zero_at_origin(self):
        mb = multibump(default_bump(), params_for(0.2, 1.5, n=5, k=1))
        assert float(mb.antideriv(np.asarray(0.0))) == 0.0


class TestEstimateReport:
    def test_reference_point(self):
        b = default_bump()
        p = params_for(0.2, 1.5, n=4, k=1)
        rep = verify_multibump_estimates(b, p)
        assert rep.support_ok
        assert rep.sup_phi == pytest.approx(0.40807057654505813, rel=1e-12)
        assert rep.sup_phi <= rep.sup_phi_bound * (1 + 1e-12)
        assert rep.lip_bound == pytest.approx(
            2.0 ** ((1 - 0.2) * 1.5 * 4) * b.lip_const, rel=1e-12)
        assert rep.lip_measured <= rep.lip_bound * (1 + 1e-12)
        assert rep.lip_measured == pytest.approx(40.20773582471023, rel=1e-9)
        assert rep.holder_measured == pytest.approx(0.9452088174041245,
                                                    rel=1e-9)
        assert rep.holder_measured <= rep.holder_bound * (1 + 1e-12)
        assert rep.gap_bound == pytest.approx(2.0 ** -7.2, rel=1e-12)
        assert rep.gap_min >= rep.gap_bound
        assert rep.gap_attainment == pytest.approx(3.0, rel=1e-9)

    def test_separation_gate(self):
        b = default_bump()
        p = params_for(0.3, 1.4, n=4, k=1)  # beta*n = 5.6 < 6
        assert not p.meets_estimate_hypothesis()
        with pytest.raises(ValueError,
                           match=r"require beta\*n >= n \+ 2"):
            verify_multibump_estimates(b, p)

    def test_holder_constant_stable_across_levels(self):
        b = default_bump()
        vals = [verify_multibump_estimates(b, params_for(0.2, 1.5, n, k)
                                           ).holder_measured
                for n in (4, 5, 6) for k in (1, 2)]
        assert max(vals) / min(vals) <= 1.05

    def test_sup_bound_scales_down_with_level(self):
        b = default_bump()
        sups = [verify_multibump_estimates(b, params_for(0.2, 1.5, n)
                                           ).sup_phi for n in (4, 5, 6)]
        assert sups[0] > sups[1] > sups[2]

    def test_level_validation(self):
        with pytest.raises(ValueError, match="n must"):
            params_for(0.2, 1.5, n=0)
        with pytest.raises(ValueError, match="k must"):
            params_for(0.2, 1.5, n=4, k=0)
        with pytest.raises(ValueError, match="beta must be > 1"):
            params_for(0.2, 0.9, n=4)


class TestAffineExtension:
    def make_kset(self):
        return IntervalSet.from_pairs([(-1.0, -0.4), (-0.1, 0.2),
                                       (0.5, 1.0)])

    def test_identity_on_set_and_outside(self):
        kset = self.make_kset()
        phi = lambda x: np.sin(3.0 * np.asarray(x, dtype=float))
        ext = extend_piecewise_affine(phi, kset, order=1.0, H=3.0, L=3.0,
                                      C=-1.0, D=1.0)
        inside = np.concatenate([np.linspace(a, b, 50)
                                 for a, b in [(-1, -0.4), (-0.1, 0.2),
                                              (0.5, 1.0)]])
        assert np.array_equal(ext.fn(inside), phi(inside))
        outside = np.array([-3.0, -1.5, 1.2, 7.0])
        assert np.array_equal(ext.fn(outside), phi(outside))

    def test_gap_fill_is_affine(self):
        kset = self.make_kset()
        phi = lambda x: np.cos(np.asarray(x, dtype=float))
        ext = extend_piecewise_affine(phi, kset, order=1.0, H=1.0, L=1.0,
                                      C=-1.0, D=1.0)
        # inside the gap (-0.4, -0.1) the extension interpolates linearly
        xs = np.linspace(-0.4, -0.1, 7)
        vals = ext.fn(xs)
        lin = np.interp(xs, [-0.4, -0.1],
                        [float(phi(-0.4)), float(phi(-0.1))])
        assert np.max(np.abs(vals - lin)) <= 1e-14

    def test_regularity_and_deviation_budgets(self):
        kset = self.make_kset()
        H, L = 1.0, 4.0

        def phi(x):
            x = np.asarray(x, dtype=float)
            return np.minimum(H * np.sqrt(np.abs(x + 0.2)), 2.0)

        ext = extend_piecewise_affine(phi, kset, order=0.5, H=H, L=L,
                                      C=-1.0, D=1.0)
        assert ext.gap_measure == pytest.approx(0.6, rel=1e-12)
        assert ext.sup_deviation_bound == pytest.approx(
            2.0 * H * 0.6 ** 0.5, rel=1e-12)
        grid = np.linspace(-1.0, 1.0, 3001)
        est = holder_constant(ext.fn, 0.5, grid)
        assert est.constant <= ext.holder_bound * (1 + 1e-9)
        dev = np.max(np.abs(ext.fn(grid) - phi(grid)))
        assert dev <= ext.sup_deviation_bound

    def test_endpoint_membership_gate(self):
        kset = self.make_kset()
        with pytest.raises(ValueError, match="C"):
            extend_piecewise_affine(np.abs, kset, 1.0, 1.0, 1.0,
                                    C=-0.3, D=1.0)
        with pytest.raises(ValueError, match="D"):
            extend_piecewise_affine(np.abs, kset, 1.0, 1.0, 1.0,
                                    C=-1.0, D=0.4)


class TestCandidateConstruction:
    def zero_f0(self):
        z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        return Fn1D(eval=z, deriv=z)

    def test_reference_plan(self):
        plan = build_candidate(self.zero_f0(), L0=0.0, H=1.0, eps1=0.5,
                               k0=1, alpha=0.2, beta=1.5)
        assert plan.n0 == 51
        assert plan.eps2 == pytest.approx(0.34641016151377546, rel=1e-15)
        assert plan.c1_distance_bound < plan.eps0

    def test_c1_distance_within_bound(self):
        plan = build_candidate(self.zero_f0(), L0=0.0, H=1.0, eps1=0.5,
                               k0=1, alpha=0.2, beta=1.5)
        x = np.linspace(-1.5, 1.5, 2001)
        dist = np.max(np.abs(plan.psi.eval(x))) \
            + np.max(np.abs(plan.psi.deriv(x)))
        assert dist <= plan.c1_distance_bound

    def test_impossible_regime(self):
        with pytest.raises(ConstructionImpossible, match=">= 2"):
            build_candidate(self.zero_f0(), L0=0.0, H=1.0, eps1=0.5,
                            k0=1, alpha=0.5, beta=1.5)

    def test_scan_exhaustion(self):
        with pytest.raises(ConstructionImpossible, match="n_scan"):
            build_candidate(self.zero_f0(), L0=0.0, H=1.0, eps1=0.5,
                            k0=1, alpha=0.2, beta=1.5, n_scan=10)

    @pytest.mark.parametrize("H,eps1,binding", [
        (0.33518180495185834, 0.7321559021207853, "hoelder"),
        (0.7957225721264634, 0.37607715543611214, "lipschitz"),
    ])
    def test_binding_limit_rounded_up_is_stepped_down(self, H, eps1, binding):
        alpha = 0.0787
        b = default_bump()
        hphi, lphi = bump_holder_constant(b, alpha), b.lip_const
        limit = {"hoelder": eps1 * H / hphi, "lipschitz": eps1 / lphi}[binding]
        # the smallest limit itself misses its condition by one rounding
        assert limit == min(eps1 * H / hphi, eps1 / lphi, 0.999 / (4 * b.sup))
        assert (limit * hphi > eps1 * H) if binding == "hoelder" else (limit * lphi > eps1)
        plan = build_candidate(self.zero_f0(), L0=0.0, H=H, eps1=eps1, k0=2,
                               alpha=alpha, beta=1.5, eps0=1.0)
        assert plan.eps2 * hphi <= eps1 * H
        assert plan.eps2 * lphi <= eps1
        assert plan.eps2 * 4 * b.sup < 1.0
        assert limit - 4 * math.ulp(limit) <= plan.eps2 < limit


class TestMeasureBudget:
    def test_exact_dyadic_case(self):
        mb = measure_budget(10, Fraction(3, 2), 1)
        assert mb.exact
        assert mb.slack == Fraction(13, 16384)
        assert mb.slack == mb.j3_lower - mb.j2_upper - mb.j1_upper

    def test_shallow_level_fails(self):
        mb = measure_budget(1, Fraction(3, 2), 1)
        assert mb.slack < 0

    def test_integer_sign_path(self):
        # beta = 7/5: slack > 0 iff 2^(2 n0) > 6^5 = 7776, i.e. n0 >= 7
        low = measure_budget(6, Fraction(7, 5), 1)
        high = measure_budget(7, Fraction(7, 5), 1)
        assert low.exact and high.exact
        assert low.slack < 0 < high.slack

    def test_level_gate(self):
        with pytest.raises(ValueError, match="n0"):
            measure_budget(0, Fraction(3, 2), 1)
