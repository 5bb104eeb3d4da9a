"""Tests for the grid Hoelder/Lipschitz estimators and the sawtooth family."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cexlab import holder
from cexlab.holder import (Fn1D, MAX_GRID_POINTS, check_derivative_consistency,
                           holder_constant, lipschitz_from_derivative,
                           restricted_lipschitz, sawtooth,
                           sawtooth_half_holder_constant, sawtooth_perturb)
from cexlab.intervals import DyadicFamily, IntervalSet, build_kn


def _pair_scan(x, v, order, chunk=256):
    """The brute-force sup over all pairs, with no grid cap: the chunked
    scan holder_constant runs below order 1, taken at any order."""
    best, wit = 0.0, None
    n = x.size
    for i0 in range(0, n - 1, chunk):
        i1 = min(i0 + chunk, n - 1)
        d = x[None, i0 + 1:] - x[i0:i1, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.abs(v[None, i0 + 1:] - v[i0:i1, None]) / d ** order
        q[d <= 0] = -np.inf
        k = int(np.argmax(q))
        if q.flat[k] > best:
            best = float(q.flat[k])
            ii, jj = divmod(k, q.shape[1])
            wit = (float(x[i0 + ii]), float(x[i0 + 1 + jj]))
    return best, wit


@st.composite
def increasing_grids(draw):
    """Strictly increasing grids whose gaps spread over nine decades, so
    points cluster, around offsets up to 1e8."""
    exps = draw(st.lists(st.floats(min_value=-9.0, max_value=0.0),
                         min_size=1, max_size=300))
    offset = draw(st.sampled_from([0.0, -3.7, 1e8]))
    x = np.unique(offset + np.cumsum([0.0] + [10.0 ** e for e in exps]))
    assume(x.size >= 2)
    return x


CURVED = {"sin": np.sin, "gauss": lambda x: np.exp(-x * x),
          "fast sin": lambda x: np.sin(40.0 * x)}
STRAIGHT = {"line": lambda x: 3.0 * x + 0.1, "abs": lambda x: np.abs(x + 3.0)}


class TestHolderConstant:
    def test_sqrt_on_unit_grid(self):
        grid = np.linspace(0.0, 1.0, 1001)
        est = holder_constant(np.sqrt, 0.5, grid)
        assert abs(est.constant - 1.0) <= 1e-9
        # the extremal pair hugs the origin where sqrt is steepest
        assert est.witness == (0.0, grid[1])

    def test_identity_has_unit_lipschitz(self):
        grid = np.linspace(-2.0, 3.0, 501)
        est = holder_constant(lambda x: x, 1.0, grid)
        assert est.constant == 1.0

    def test_witness_reproduces_constant(self):
        grid = np.linspace(0.0, 1.0, 757)
        est = holder_constant(lambda x: np.abs(x - 0.4) ** 0.5, 0.5, grid)
        x, y = est.witness
        q = abs(math.sqrt(abs(y - 0.4)) - math.sqrt(abs(x - 0.4))) \
            / (y - x) ** 0.5
        assert abs(q - est.constant) <= 1e-12 * est.constant

    def test_validation(self):
        grid = np.linspace(0, 1, 11)
        with pytest.raises(ValueError, match="order"):
            holder_constant(np.sqrt, 0.0, grid)
        with pytest.raises(ValueError, match="order"):
            holder_constant(np.sqrt, 1.5, grid)
        with pytest.raises(ValueError, match="at least 2"):
            holder_constant(np.sqrt, 0.5, [1.0])
        with pytest.raises(ValueError, match="increasing"):
            holder_constant(np.sqrt, 0.5, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            holder_constant(np.sin, 1.0, [0.0, math.nan, 1.0])
        with pytest.raises(ValueError, match="cap"):
            holder_constant(np.sqrt, 0.5, np.linspace(0, 1, MAX_GRID_POINTS + 1))
        # the cap bounds the order < 1 pair scan only
        est = holder_constant(np.sin, 1.0,
                              np.linspace(0, 1, MAX_GRID_POINTS + 1))
        assert 0.99 <= est.constant <= 1.0

    @pytest.mark.parametrize("f, order, grid", [
        (np.sqrt, 1.0, [-1.0, 0.0, 1.0]),
        (np.sqrt, 0.5, [-1.0, 0.0, 1.0, 4.0]),
        (lambda x: np.where(x > 0.5, np.nan, x), 1.0, np.linspace(0, 1, 11)),
        (lambda x: np.where(x > 0.9, np.nan, x), 0.5, np.linspace(0, 1, 601)),
    ])
    def test_non_finite_values_are_rejected(self, f, order, grid):
        # each of these used to give constant 0.0 with no witness
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=r"f is not finite at \d+ "):
                holder_constant(f, order, grid)

    @given(increasing_grids(), st.sampled_from(sorted(CURVED)))
    @settings(max_examples=200, deadline=None)
    def test_order_one_matches_the_pair_scan(self, x, name):
        f = CURVED[name]
        est = holder_constant(f, 1.0, x)
        assert (est.constant, est.witness) == _pair_scan(x, f(x), 1.0)

    @given(increasing_grids(), st.sampled_from(sorted(STRAIGHT)))
    @settings(max_examples=200, deadline=None)
    @example(x=np.array([0.0, 0.005743733325686776, 0.07477702684818782]),
             name="line")
    @example(x=np.array([0.0, 1.0, 1.218697465500947, 1.250320242102631,
                         2.2503202421026307]), name="abs")
    def test_order_one_on_straight_pieces_is_within_roundings_of_the_scan(
            self, x, name):
        # on collinear points a chord can round above every neighbouring
        # slope, and ties can put the scan's witness on a longer chord
        f = STRAIGHT[name]
        est = holder_constant(f, 1.0, x)
        scan, _ = _pair_scan(x, f(x), 1.0)
        assert 0.0 <= scan - est.constant <= 4 * np.finfo(float).eps * scan
        if est.witness is not None:
            a, b = est.witness
            k = int(np.searchsorted(x, a))
            assert (x[k], x[k + 1]) == (a, b)
            assert abs(f(b) - f(a)) / (b - a) == est.constant

    def test_refinement_is_monotone(self):
        f = lambda x: np.sqrt(np.abs(x - 0.3))
        coarse = holder_constant(f, 0.5, np.linspace(0, 1, 257)).constant
        fine = holder_constant(f, 0.5, np.linspace(0, 1, 1025)).constant
        assert fine >= coarse

    def test_never_exceeds_known_constant(self):
        for a, H in [(0.5, 2.0), (0.3, 1.0), (1.0, 3.5)]:
            f = lambda x, a=a, H=H: H * np.abs(x) ** a
            est = holder_constant(f, a, np.linspace(-1, 1, 2001))
            assert est.constant <= H * (1.0 + 1e-12)

    @given(st.floats(min_value=0.25, max_value=4.0),
           st.sampled_from([0.3, 0.5, 0.8, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_argument_scaling(self, s, order):
        f = lambda x: np.sqrt(np.abs(x - 0.237))
        grid = np.linspace(0.0, 1.0, 401)
        base = holder_constant(f, order, grid).constant
        scaled = holder_constant(lambda x: f(s * x), order, grid / s).constant
        assert abs(scaled - s ** order * base) <= 1e-10 * max(1.0, base)

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=3,
                    max_size=12, unique=True))
    @settings(max_examples=60, deadline=None)
    @example(knots=[0.0, 0.6, -1.9])
    def test_piecewise_linear_bounded_by_max_slope(self, knots):
        xs = np.array(sorted(knots))
        rng = np.random.default_rng(int(abs(xs[0]) * 1e6) % 2 ** 31)
        vals = rng.uniform(-1, 1, xs.size)
        dx = np.diff(xs)
        if np.any(dx < 1e-6):
            return
        true_slope = float(np.max(np.abs(np.diff(vals) / dx)))
        f = lambda x: np.interp(x, xs, vals)
        grid = np.linspace(xs[0], xs[-1], 801)
        # the same separation as the knots: a grid point a rounding away
        # from a knot makes np.interp's error the whole quotient
        near_knot = np.min(np.abs(grid[:, None] - xs[None, :]), axis=1) < 1e-6
        grid = np.unique(np.concatenate([grid[~near_knot], xs]))
        est = holder_constant(f, 1.0, grid)
        assert est.constant <= true_slope * (1.0 + 1e-9) + 1e-12


class TestDerivativeHelpers:
    def test_lipschitz_from_derivative(self):
        f = Fn1D(eval=np.sin, deriv=np.cos)
        assert lipschitz_from_derivative(f, np.linspace(0, math.pi, 401)) \
            == pytest.approx(1.0, abs=1e-4)
        with pytest.raises(ValueError, match="no derivative"):
            lipschitz_from_derivative(Fn1D(eval=np.sin), [0.0, 1.0])

    def test_consistency_check(self):
        f = Fn1D(eval=np.sin, deriv=np.cos)
        ok, worst = check_derivative_consistency(f, np.linspace(0, 6, 101))
        assert ok and worst <= 1e-9
        bad = Fn1D(eval=np.sin, deriv=np.sin)
        ok, worst = check_derivative_consistency(bad, np.array([0.0, 1.0]))
        assert not ok and worst > 0.1


class TestRestrictedLipschitz:
    def test_empty_set_gives_zero(self):
        est = restricted_lipschitz(np.abs, IntervalSet(), 0.01)
        assert est.constant == 0.0 and est.witness is None

    def test_abs_away_from_kink(self):
        est = restricted_lipschitz(np.abs, IntervalSet.from_pairs([(1.0, 2.0)]),
                                   1e-3)
        assert est.constant == pytest.approx(1.0, rel=1e-12)

    def test_ignores_gaps(self):
        # the jump between the two components is not charged to the grid
        # pairs inside each component only if it lowers the sup; pairs
        # across components are still pairs, so a gap jump counts
        f = lambda x: np.where(x < 0.5, 0.0, 1.0)
        est = restricted_lipschitz(f, IntervalSet.from_pairs([(0.0, 0.2),
                                                              (0.8, 1.0)]),
                                   0.05)
        assert est.constant == pytest.approx(1.0 / 0.6, rel=1e-12)

    def test_oversized_grid_is_thinned(self):
        est = restricted_lipschitz(np.abs,
                                   IntervalSet.from_pairs([(0.0, 10.0)]),
                                   1e-4)
        assert est.constant == pytest.approx(1.0, rel=1e-9)

    def test_whole_grid_is_measured(self, monkeypatch):
        # 576 components on a 4480-point grid, more than the order < 1 cap
        kset = build_kn(DyadicFamily(0.2, 1.5, 1), 4, 10)
        grids = []

        def measured(f, order, grid):
            grids.append(np.asarray(grid))
            return holder_constant(f, order, grid)

        monkeypatch.setattr(holder, "holder_constant", measured)
        est = restricted_lipschitz(np.sin, kset, 1e-4)
        full = kset.sample_grid(1e-4)
        assert full.size == 4480
        assert len(grids) == 1 and np.array_equal(grids[0], full)
        assert set(float(x) for p in kset.parts for x in (p.lo, p.hi)) <= set(full)
        assert (est.constant, est.witness) == _pair_scan(full, np.sin(full), 1.0)

    def test_many_components_are_measured(self):
        # 2049 components: 4098 endpoints, more than the order < 1 cap
        pairs = [(3.0 * i, 3.0 * i + 1.0) for i in range(MAX_GRID_POINTS // 2 + 1)]
        kset = IntervalSet.from_pairs(pairs)
        est = restricted_lipschitz(np.sin, kset, 0.5)
        grid = kset.sample_grid(0.5)
        assert (est.constant, est.witness) == _pair_scan(grid, np.sin(grid), 1.0)


    def test_nan_step_is_refused(self):
        kset = IntervalSet.from_pairs([(0.0, 1.0), (2.0, 3.0)])
        with pytest.raises(ValueError, match="step must be positive, got nan"):
            restricted_lipschitz(np.sin, kset, math.nan)


class TestSawtooth:
    def test_shape(self):
        x = np.linspace(-0.5, 0.5, 1001)
        assert np.allclose(sawtooth(x), np.abs(x))
        y = np.linspace(-3, 3, 1313)
        vals = sawtooth(y)
        assert np.all((vals >= 0) & (vals <= 0.5))
        assert np.allclose(sawtooth(y + 1.0), vals)

    def test_half_order_constant(self):
        assert abs(sawtooth_half_holder_constant() - math.sqrt(0.5)) < 1e-3

    def test_half_order_constant_is_measured_once(self):
        sawtooth_half_holder_constant.cache_clear()
        first = sawtooth_half_holder_constant()
        assert sawtooth_half_holder_constant() == first
        info = sawtooth_half_holder_constant.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        grid = np.linspace(-0.5, 0.5, 2001)
        assert first == holder_constant(sawtooth, 0.5, grid).constant


class TestSawtoothPerturb:
    H, EPS1 = 1.0, 0.5

    def f0(self):
        scale = (1.0 - self.EPS1) * self.H

        def ev(x):
            return scale * np.sqrt(1.0 + np.asarray(x, dtype=float))

        def dv(x):
            return 0.5 * scale / np.sqrt(1.0 + np.asarray(x, dtype=float))

        return Fn1D(eval=ev, deriv=dv)

    def test_gates(self):
        with pytest.raises(ValueError, match="n must"):
            sawtooth_perturb(self.f0(), 0, self.H, self.EPS1)
        with pytest.raises(ValueError, match="eps1"):
            sawtooth_perturb(self.f0(), 2, self.H, 1.0)
        with pytest.raises(ValueError, match="H must"):
            sawtooth_perturb(self.f0(), 2, 0.0, self.EPS1)

    def test_sup_deviation_shrinks_like_one_over_n(self):
        f0 = self.f0()
        amp = self.H * self.EPS1 / sawtooth_half_holder_constant()
        x = np.linspace(-0.5, 0.5, 4001)
        for n in (2, 5, 11):
            fn = sawtooth_perturb(f0, n, self.H, self.EPS1)
            dev = np.max(np.abs(fn(x) - f0(x)))
            assert dev <= amp / (2.0 * n) * (1.0 + 1e-12)

    def test_stays_in_ambient_ball(self):
        f0 = self.f0()
        grid = np.linspace(-0.5, 0.5, 2001)
        for n in (4, 8, 16):
            fn = sawtooth_perturb(f0, n, self.H, self.EPS1)
            est = holder_constant(fn, 0.5, grid)
            assert est.constant <= self.H * (1.0 + 1e-9)

    def test_local_slopes_grow_linearly(self):
        f0 = self.f0()
        grid = np.linspace(0.0, 0.1, 2001)
        ns = [4, 8, 16]
        lips = [holder_constant(sawtooth_perturb(f0, n, self.H, self.EPS1),
                                1.0, grid).constant for n in ns]
        slope = np.polyfit(np.log(ns), np.log(lips), 1)[0]
        assert abs(slope - 1.0) <= 0.1

    def test_derivative_attached_when_f0_has_one(self):
        fn = sawtooth_perturb(self.f0(), 3, self.H, self.EPS1)
        assert fn.deriv is not None
        # away from tooth kinks the derivative matches differences
        pts = np.array([0.01 + 1e-4, 0.02 + 3e-4, 0.05 + 2e-4])
        ok, worst = check_derivative_consistency(fn, pts, h=1e-8, tol=1e-4)
        assert ok
        bare = sawtooth_perturb(Fn1D(eval=lambda x: np.zeros_like(
            np.asarray(x, dtype=float))), 3, self.H, self.EPS1)
        assert bare.deriv is None
