"""Exact-arithmetic tests for the dyadic interval machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cexlab.intervals import (DyadicFamily, Interval, IntervalSet, build_kn,
                              build_un, kn_tail_bound, omega_limit)


def fam(alpha=0.2, beta=1.5, window=1):
    return DyadicFamily(alpha=alpha, beta=beta, window=window)


# --- reference constructions: one Fraction interval per dyadic point,
# merged level by level, and the per-part linspace grid

def oracle_un(family, n):
    w = Fraction(family.window)
    r = family.radius(n)
    window = Interval(-w, w)
    jmax = math.floor(w * 2 ** n)
    parts = []
    for j in range(-jmax, jmax + 1):
        c = Fraction(j, 2 ** n)
        p = Interval(c - r, c + r).intersect(window)
        if p is not None:
            parts.append(p)
    return IntervalSet(parts)


def oracle_kn(family, n, nmax):
    w = Fraction(family.window)
    acc = IntervalSet()
    for i in range(n, nmax + 1):
        acc = acc.union(oracle_un(family, i))
    return acc.complement(-w, w)


def oracle_grid(s, step):
    chunks = []
    for p in s.parts:
        lo, hi = float(p.lo), float(p.hi)
        npts = max(2, int(math.ceil((hi - lo) / step)) + 1)
        chunks.append(np.linspace(lo, hi, npts))
    return np.unique(np.concatenate(chunks)) if chunks else np.empty(0)


def endpoint_types(s):
    return [(type(p.lo), type(p.hi)) for p in s.parts]


def assert_same_set(got, want):
    assert got == want
    assert endpoint_types(got) == endpoint_types(want)
    assert got.measure == want.measure
    assert type(got.measure) is type(want.measure)


def assert_bit_identical(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestInterval:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError, match="out of order"):
            Interval(1, 0)

    def test_length_and_contains(self):
        p = Interval(Fraction(1, 4), Fraction(3, 4))
        assert p.length == Fraction(1, 2)
        assert p.contains(Fraction(1, 2))
        assert not p.contains(1)

    def test_intersect_disjoint_is_none(self):
        assert Interval(0, 1).intersect(Interval(2, 3)) is None
        assert Interval(0, 1).intersect(Interval(1, 2)) == Interval(1, 1)


class TestIntervalSet:
    def test_merges_overlaps_and_sorts(self):
        s = IntervalSet.from_pairs([(2, 3), (0, 1), (Fraction(1, 2), Fraction(3, 2))])
        assert [(p.lo, p.hi) for p in s.parts] == [(0, Fraction(3, 2)), (2, 3)]

    def test_measure_is_exact_for_fractions(self):
        s = IntervalSet.from_pairs([(0, Fraction(1, 3)), (1, 2)])
        assert s.measure == Fraction(4, 3)
        assert isinstance(s.measure, Fraction)

    def test_empty_set(self):
        s = IntervalSet()
        assert len(s) == 0
        assert s.measure == 0
        assert s.distance(0) == math.inf
        assert s.complement(0, 1).parts == (Interval(0, 1),)

    def test_distance(self):
        s = IntervalSet.from_pairs([(0, 1), (3, 4)])
        assert s.distance(2) == 1
        assert s.distance(Fraction(5, 2)) == Fraction(1, 2)
        assert s.distance(0.5) == 0

    def test_complement_in_window(self):
        s = IntervalSet.from_pairs([(Fraction(1, 4), Fraction(1, 2))])
        c = s.complement(0, 1)
        assert [(p.lo, p.hi) for p in c.parts] == [
            (0, Fraction(1, 4)), (Fraction(1, 2), 1)]
        assert s.measure + c.measure == 1

    def test_sample_grid_covers_short_parts(self):
        s = IntervalSet.from_pairs([(0.0, 1e-6), (1.0, 2.0)])
        g = s.sample_grid(0.5)
        assert 0.0 in g and 1e-6 in g and 1.0 in g and 2.0 in g

    def test_sample_grid_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            IntervalSet().sample_grid(0.0)

    def test_sample_grid_matches_linspace_per_part(self):
        s = IntervalSet.from_pairs([(Fraction(-1), Fraction(-1, 3)), (0.0, 0.0),
                                    (0.1, 0.1 + 1e-300), (0.25, 0.7), (1, 5)])
        for step in (0.5, 0.013, 1e-3):
            assert_bit_identical(s.sample_grid(step), oracle_grid(s, step))


exact_sets = st.lists(
    st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=16),
              st.fractions(min_value=0, max_value=2, max_denominator=16)),
    min_size=0, max_size=6).map(
        lambda ps: IntervalSet.from_pairs([(a, a + w) for a, w in ps]))

# strictly positive widths: double complementation is a closure operation
# and drops isolated points, so the exact round trip needs fat parts
fat_sets = st.lists(
    st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=16),
              st.fractions(min_value=Fraction(1, 16), max_value=2,
                           max_denominator=16)),
    min_size=0, max_size=6).map(
        lambda ps: IntervalSet.from_pairs([(a, a + w) for a, w in ps]))


class TestIntervalSetProperties:
    @given(exact_sets)
    def test_parts_disjoint_sorted(self, s):
        for a, b in zip(s.parts, s.parts[1:]):
            assert a.hi < b.lo

    @given(exact_sets)
    def test_measure_is_sum_of_lengths(self, s):
        assert s.measure == sum((p.length for p in s.parts), start=0)

    @given(fat_sets)
    def test_double_complement_restores_window(self, s):
        lo, hi = Fraction(-5), Fraction(7)
        inside = s.intersect(Interval(lo, hi))
        again = s.complement(lo, hi).complement(lo, hi)
        assert again.measure == inside.measure
        assert [(p.lo, p.hi) for p in again.parts] == \
            [(p.lo, p.hi) for p in inside.parts]

    def test_double_complement_drops_isolated_points(self):
        point = IntervalSet.from_pairs([(0, 0)])
        again = point.complement(-1, 1).complement(-1, 1)
        assert again.measure == 0 and len(again) == 0

    @given(exact_sets)
    def test_complement_splits_window_measure(self, s):
        lo, hi = Fraction(-5), Fraction(7)
        c = s.complement(lo, hi)
        assert s.intersect(Interval(lo, hi)).measure + c.measure == hi - lo

    @given(exact_sets, exact_sets)
    def test_union_measure_subadditive(self, a, b):
        u = a.union(b)
        assert u.measure <= a.measure + b.measure
        assert u.measure >= max(a.measure, b.measure)


class TestDyadicFamily:
    def test_parameter_gates(self):
        with pytest.raises(ValueError, match="alpha"):
            fam(alpha=1.0)
        with pytest.raises(ValueError, match="beta"):
            fam(beta=1.0)
        with pytest.raises(ValueError, match="window"):
            fam(window=-1)

    def test_radius_exact_when_dyadic(self):
        f = fam(beta=1.5)
        assert f.radius(2) == Fraction(1, 8)
        assert f.radius(4) == Fraction(1, 64)
        r3 = f.radius(3)
        assert isinstance(r3, float) and math.isclose(r3, 2.0 ** -4.5)


class TestBuildUn:
    def test_level_gate(self):
        with pytest.raises(ValueError, match="level n"):
            build_un(fam(), 0)

    def test_low_level_merges_to_window(self):
        # radius 2^(-1.5) = 0.354 exceeds half the spacing 1/2, so the
        # level-1 intervals around j/2 merge into the whole window
        u = build_un(fam(beta=1.5), 1)
        assert len(u) == 1
        assert (u.parts[0].lo, u.parts[0].hi) == (-1, 1)

    def test_counts_and_measure_against_brute_force(self):
        f = fam(beta=1.5, window=1)
        n = 4
        u = build_un(f, n)
        r = f.radius(n)
        centers = [Fraction(j, 2 ** n) for j in range(-2 ** n, 2 ** n + 1)]
        brute = IntervalSet.from_pairs(
            [(max(c - r, -1), min(c + r, 1)) for c in centers])
        assert u == brute

    def test_degenerate_window(self):
        u = build_un(fam(window=0), 3)
        assert u.measure == 0
        assert len(u) == 1 and u.parts[0].lo == u.parts[0].hi == 0


class TestBuildKn:
    def test_nmax_gate(self):
        with pytest.raises(ValueError, match="nmax"):
            build_kn(fam(), 3, nmax=2)

    def test_tail_bound_matches_series(self):
        f = fam(beta=1.5, window=1)
        nmax = 6
        series = sum((2 * float(f.window) * 2 ** i + 3) * 2 * 2.0 ** (-1.5 * i)
                     for i in range(nmax + 1, nmax + 400))
        bound = kn_tail_bound(f, nmax)
        assert math.isclose(bound, series, rel_tol=1e-9)

    def test_complement_identity_at_full_depth(self):
        f = fam(beta=1.5, window=1)
        n = nmax = 8
        kn = build_kn(f, n, nmax)
        un = build_un(f, n)
        # K_n with one level is exactly the window minus U_n, both ways
        assert kn == un.complement(-1, 1)
        assert kn.measure + un.measure == 2

    def test_measure_grows_toward_window(self):
        f = fam(beta=1.5, window=1)
        nmax = 12
        meas = [build_kn(f, n, nmax).measure for n in range(6, nmax + 1)]
        assert all(b > a for a, b in zip(meas, meas[1:]))
        assert all(0 < m < 2 for m in meas)
        # the open cover removed has measure at most the level sums
        removed = sum((2 * 2 ** i + 3) * 2 * f.radius(i)
                      for i in range(6, nmax + 1))
        assert 2 - meas[0] <= removed

    def test_windowed_complement_bound(self):
        f = fam(beta=1.5, window=1)
        n, nmax = 5, 14
        kn = build_kn(f, n, nmax)
        for a, b in [(Fraction(-1), Fraction(1)), (Fraction(-1, 2), Fraction(3, 4)),
                     (Fraction(0), Fraction(1, 8))]:
            gap = kn.complement(a, b).measure
            bound = sum((float(b - a) * 2 ** i + 3) * 2 * 2.0 ** (-1.5 * i)
                        for i in range(n, n + 200))
            assert float(gap) <= bound + 1e-12


# (beta, window, (n, nmax)); the level-12 reference runs on the unit
# window only, as it takes seconds on the wider ones
EQUIVALENCE_CASES = [
    (beta, window, levels)
    for beta in (1.4, 1.5, 1.6, 2, 2.5)
    for window, levels in [(w, lv) for w in (0, 1, 2, 3)
                           for lv in ((1, 1), (1, 5), (3, 8), (5, 10))]
    + [(1, (4, 12))]]


class TestArrayBuildMatchesFractionSweep:
    """build_un / build_kn sort and merge all levels at once on float64
    arrays; they must give the per-level Fraction construction exactly."""

    @pytest.mark.parametrize("beta,window,levels", EQUIVALENCE_CASES,
                             ids=[f"beta{b}-w{w}-n{n}-{nmax}"
                                  for b, w, (n, nmax) in EQUIVALENCE_CASES])
    def test_parts_types_measure_and_grid(self, beta, window, levels):
        n, nmax = levels
        f = fam(beta=beta, window=window)
        kn = build_kn(f, n, nmax)
        assert_same_set(kn, oracle_kn(f, n, nmax))
        for i in (n, nmax):
            assert_same_set(build_un(f, i), oracle_un(f, i))
        for step in (2.0 ** -n / 7, 1e-3):
            assert_bit_identical(kn.sample_grid(step), oracle_grid(kn, step))

    @pytest.mark.parametrize("beta,levels", [(10.1, (6, 6)), (12.7, (5, 6))])
    def test_radius_below_half_an_ulp_of_the_window(self, beta, levels):
        # -1 + 2^(-beta*n) rounds to -1.0: the first part ends at the
        # window's lo, and the gap after it starts at the window's Fraction
        f = fam(beta=beta)
        kn = build_kn(f, *levels)
        assert_same_set(kn, oracle_kn(f, *levels))
        assert type(kn.parts[0].lo) is Fraction

    @pytest.mark.parametrize("build", [lambda f: build_kn(f, 27, 27),
                                       lambda f: build_un(f, 27)])
    def test_depth_past_float64_is_refused(self, build):
        # beta*27 = 54: the endpoints j/2^27 +- 2^-54 need 55-bit numerators
        with pytest.raises(ValueError, match="level 27 is past the float64 depth"):
            build(fam(beta=2))

    def test_depth_gate_counts_the_window(self):
        with pytest.raises(ValueError, match="level 7 is past the float64 depth"):
            build_kn(fam(beta=2, window=2 ** 40), 7, 7)

    def test_window_must_be_exact_in_float64(self):
        with pytest.raises(ValueError, match="not exact in float64"):
            build_kn(fam(window=Fraction(1, 3)), 2, 4)


class TestOmegaLimit:
    def test_gates(self):
        with pytest.raises(ValueError, match="at least one"):
            omega_limit([], 1)
        with pytest.raises(ValueError, match="period"):
            omega_limit([IntervalSet()], 2)

    def test_alternating_pair(self):
        a = IntervalSet.from_pairs([(0, 1)])
        b = IntervalSet.from_pairs([(2, 3)])
        om = omega_limit([a, b, a, b], 2)
        assert om.measure == 2
        # the limsup of the individual measures is 1; accumulation wins
        assert om.measure >= max(a.measure, b.measure)

    def test_transient_is_forgotten(self):
        transient = IntervalSet.from_pairs([(-10, 10)])
        tail = IntervalSet.from_pairs([(0, 1)])
        om = omega_limit([transient, tail, tail], 1)
        assert om == tail

    @given(st.lists(exact_sets, min_size=1, max_size=6),
           st.data())
    @settings(max_examples=60)
    def test_contains_every_recurring_set(self, sets, data):
        period = data.draw(st.integers(min_value=1, max_value=len(sets)))
        om = omega_limit(sets, period)
        for s in sets[-period:]:
            for p in s.parts:
                assert om.intersect(p).measure >= p.length
        assert om.measure >= max(
            (s.measure for s in sets[-period:]), default=0)
