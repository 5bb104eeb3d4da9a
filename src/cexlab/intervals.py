"""Finite unions of intervals with exact rational endpoints where possible.

The dyadic families built here are the geometric backbone of the bump
constructions: around every dyadic point j/2^n sits an interval of radius
2^(-beta*n), their union U_n is an open cover of the dyadic rationals of
level n, and the sets K_n are the complements of the tails of that cover
inside a fixed window.  Everything downstream (support checks, restricted
Lipschitz estimates, the measure bookkeeping of the candidate selection)
consumes these sets, so the arithmetic is kept exact whenever the radius
2^(-beta*n) is itself a dyadic rational.

U_n and K_n are built on float64 arrays.  Every exact endpoint there is a
dyadic rational whose numerator stays below 2^53, so float64 holds it
without rounding and orders it exactly; it goes back to a Fraction when
the output parts are made.  Deeper levels are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Endpoints closer than this are merged when we fall back to floats.
FLOAT_MERGE_TOL = 1e-12

# float64 represents a dyadic rational exactly while its numerator is
# below this.
FLOAT_EXACT_NUMERATOR = 2 ** 53


def _is_exact(x):
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; endpoints int, Fraction or float."""

    lo: object
    hi: object

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def _ordered(cls, lo, hi):
        """An interval whose endpoints are known to be in order: skips
        the comparison, which costs more than the rest for Fractions."""
        p = object.__new__(cls)
        object.__setattr__(p, "lo", lo)
        object.__setattr__(p, "hi", hi)
        return p

    @property
    def length(self):
        return self.hi - self.lo

    def contains(self, x):
        return self.lo <= x <= self.hi

    def intersect(self, other):
        """Intersection with another interval, or None if disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if hi < lo:
            return None
        return Interval(lo, hi)


class IntervalSet:
    """Finite union of disjoint closed intervals, sorted, non-touching.

    Construction normalizes: parts are sorted by left endpoint and
    overlapping or touching parts are merged, so `parts[i].hi <
    parts[i+1].lo` always holds afterwards.  With float endpoints, parts
    closer than `FLOAT_MERGE_TOL` are considered touching.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        items = sorted((p if isinstance(p, Interval) else Interval(*p) for p in parts),
                       key=lambda p: (p.lo, p.hi))
        merged = []
        for p in items:
            if merged:
                last = merged[-1]
                gap = p.lo - last.hi
                tol = 0 if (_is_exact(p.lo) and _is_exact(last.hi)) else FLOAT_MERGE_TOL
                if gap <= tol:
                    if p.hi > last.hi:
                        merged[-1] = Interval(last.lo, p.hi)
                    continue
            merged.append(p)
        self.parts = tuple(merged)

    @classmethod
    def from_pairs(cls, pairs):
        return cls(Interval(a, b) for a, b in pairs)

    @classmethod
    def _normalized(cls, parts):
        """Wrap parts that are already sorted, disjoint and non-touching."""
        s = cls.__new__(cls)
        s.parts = tuple(parts)
        return s

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.parts == other.parts

    def __repr__(self):
        inner = ", ".join(f"[{p.lo}, {p.hi}]" for p in self.parts)
        return f"IntervalSet({inner})"

    @property
    def measure(self):
        """Total length; exact (Fraction) when all endpoints are exact."""
        if not self.parts:
            return 0
        return sum((p.length for p in self.parts), start=0)

    def contains(self, x):
        # Parts are sorted, but linear scan is fine at the sizes we build.
        return any(p.contains(x) for p in self.parts)

    def distance(self, x):
        """Distance from the point x to the set (0 if inside)."""
        if not self.parts:
            return math.inf
        best = None
        for p in self.parts:
            if p.contains(x):
                return 0
            d = p.lo - x if x < p.lo else x - p.hi
            if best is None or d < best:
                best = d
        return best

    def union(self, other):
        return IntervalSet(self.parts + other.parts)

    def intersect(self, window):
        """Intersection with a single Interval."""
        out = []
        for p in self.parts:
            q = p.intersect(window)
            if q is not None:
                out.append(q)
        return IntervalSet(out)

    def complement(self, lo, hi):
        """Closure of [lo, hi] minus this set, as an IntervalSet."""
        if hi < lo:
            raise ValueError("empty window")
        out = []
        cur = lo
        for p in self.parts:
            if p.hi < lo:
                continue
            if p.lo > hi:
                break
            if p.lo > cur:
                out.append(Interval(cur, min(p.lo, hi)))
            cur = max(cur, p.hi)
            if cur >= hi:
                break
        if cur < hi:
            out.append(Interval(cur, hi))
        return IntervalSet(out)

    def sample_grid(self, step):
        """Float grid covering every part with spacing <= step.

        Part endpoints are always included, so no component is missed even
        when it is shorter than `step`.  Each part gets the points of
        `np.linspace(lo, hi, max(2, ceil((hi - lo) / step) + 1))`, bit for
        bit, computed for all parts at once.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        if not self.parts:
            return np.empty(0)
        lo = np.array([float(p.lo) for p in self.parts])
        hi = np.array([float(p.hi) for p in self.parts])
        delta = hi - lo
        npts = np.maximum(2, np.ceil(delta / step).astype(np.int64) + 1)
        div = (npts - 1).astype(float)
        first = np.cumsum(npts) - npts
        k = (np.arange(int(npts.sum())) - np.repeat(first, npts)).astype(float)
        # np.linspace's own formula: k * (delta / div) + lo, then hi last
        grid = k * np.repeat(delta / div, npts) + np.repeat(lo, npts)
        grid[first + npts - 1] = hi
        return np.unique(grid)


def _complement_ends(short, keep_first, keep_last):
    """Endpoint numbers of the parts of a window minus m sorted parts.

    The endpoints are numbered 0 (window lo), 2k+1 and 2k+2 (lo and hi of
    part k) and 2m+1 (window hi), so gap i between part i-1 and part i
    runs from endpoint 2i to endpoint 2i+1.  The inner gaps are always
    kept; the first and last are kept as the caller says.  Two kept gaps
    join across a part that is `short` (its ends touch), as the
    normalization of an IntervalSet would join them.  Returns (start
    numbers, stop numbers).
    """
    m = short.size
    kept = np.ones(m + 1, dtype=bool)
    kept[0] &= keep_first
    kept[m] &= keep_last
    joined = kept[:-1] & kept[1:] & short
    opens = kept.copy()
    opens[1:] &= ~joined
    closes = kept.copy()
    closes[:-1] &= ~joined
    return (2 * np.flatnonzero(opens)).tolist(), (2 * np.flatnonzero(closes) + 1).tolist()


@dataclass(frozen=True)
class DyadicFamily:
    """Parameters of the dyadic interval family: radius 2^(-beta*n) around
    the points j/2^n, restricted to [-window, window]."""

    alpha: float
    beta: float
    window: object = 1

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.beta > 1:
            raise ValueError(f"beta must be > 1, got {self.beta}")
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")

    def radius(self, n):
        """2^(-beta*n), exact when beta*n is an integer."""
        bn = Fraction(self.beta) * n
        if bn.denominator == 1:
            return Fraction(1, 2 ** bn.numerator)
        return 2.0 ** float(-bn)


def _cover_arrays(family, n, nmax):
    """Endpoints of the level n..nmax intervals clipped to the window, as
    float64 arrays (lo, hi) with per-endpoint exactness flags.

    Refuses what float64 cannot hold exactly: a window that is not a
    float, and any level whose centres j/2^i or exact endpoints
    j/2^i +- 2^(-beta*i) have numerators of 2^53 or more.  Each level is
    checked before its arrays are made.
    """
    w = Fraction(family.window)
    wf = float(w)
    if Fraction(wf) != w:
        raise ValueError(f"window {w} is not exact in float64")
    los, his, lo_exact, hi_exact = [], [], [], []
    for i in range(n, nmax + 1):
        r = family.radius(i)
        exact = isinstance(r, Fraction)
        jmax = math.floor(w * 2 ** i)
        top = (jmax * r.denominator >> i) + 1 if exact else jmax
        if top >= FLOAT_EXACT_NUMERATOR:
            raise ValueError(
                f"level {i} is past the float64 depth: its endpoint numerators "
                f"reach {top} >= 2^53 (beta={family.beta}, window={family.window})")
        c = np.arange(-jmax, jmax + 1, dtype=float) / 2.0 ** i
        lo, hi = c - float(r), c + float(r)
        lo_clip, hi_clip = lo < -wf, hi > wf
        lo[lo_clip], hi[hi_clip] = -wf, wf
        los.append(lo)
        his.append(hi)
        lo_exact.append(lo_clip | exact)
        hi_exact.append(hi_clip | exact)
    return (np.concatenate(los), np.concatenate(his),
            np.concatenate(lo_exact), np.concatenate(hi_exact))


def _sort_merge(lo, hi, lo_exact, hi_exact):
    """One sort by (lo, hi) and one merging sweep, as IntervalSet
    normalizes: a part joins the run before it when its lo is within
    the merge tolerance of the run's highest hi.  A run's hi keeps the
    endpoint (and exactness) of the first part that reached it."""
    order = np.lexsort((hi, lo))
    lo, hi, lo_exact, hi_exact = lo[order], hi[order], lo_exact[order], hi_exact[order]
    top = np.maximum.accumulate(hi)
    rises = np.concatenate([[True], hi[1:] > top[:-1]])
    top_exact = hi_exact[np.maximum.accumulate(np.where(rises, np.arange(hi.size), 0))]
    tol = np.where(lo_exact[1:] & top_exact[:-1], 0.0, FLOAT_MERGE_TOL)
    first = np.flatnonzero(np.concatenate([[True], lo[1:] - top[:-1] > tol]))
    last = np.append(first[1:] - 1, hi.size - 1)
    return lo[first], top[last], lo_exact[first], top_exact[last]


def _dyadic_set(lo, hi, lo_exact, hi_exact):
    """IntervalSet of already normalized parts given as float64 arrays;
    exact endpoints become Fractions again, the rest stay floats."""
    def endpoints(values, exact):
        return [Fraction(v) if x else v for v, x in zip(values.tolist(), exact.tolist())]
    return IntervalSet._normalized(
        Interval._ordered(a, b)
        for a, b in zip(endpoints(lo, lo_exact), endpoints(hi, hi_exact)))


def build_un(family, n):
    """The union U_n of intervals of radius 2^(-beta*n) around j/2^n,
    clipped to [-window, window].  Overlapping neighbours are merged."""
    if n < 1:
        raise ValueError(f"level n must be >= 1, got {n}")
    return _dyadic_set(*_sort_merge(*_cover_arrays(family, n, n)))


def kn_tail_bound(family, nmax):
    """Upper bound on the measure missed by truncating the union of the
    U_i at i = nmax: sum over i > nmax of (2*window*2^i + 3) * 2 * 2^(-beta*i).

    Closed form of the two geometric series; always a float.
    """
    w = float(family.window)
    beta = float(family.beta)
    m = nmax + 1
    ra = 2.0 ** (1.0 - beta)     # ratio of the 2*window*2^i term
    rb = 2.0 ** (-beta)
    return 4.0 * w * ra ** m / (1.0 - ra) + 6.0 * rb ** m / (1.0 - rb)


def build_kn(family, n, nmax):
    """K_n truncated at level nmax: the window minus U_n, ..., U_nmax.

    The truncation error in measure is bounded by `kn_tail_bound(family,
    nmax)`; callers who need the genuine K_n pick nmax large enough for
    that bound to be negligible.  All levels are sorted and merged in one
    pass and the complement is taken on the arrays, with the same result,
    endpoint types included, as `IntervalSet.complement` of the union.
    """
    if nmax < n:
        raise ValueError(f"nmax must be >= n, got n={n}, nmax={nmax}")
    lo, hi, lo_exact, hi_exact = _sort_merge(*_cover_arrays(family, n, nmax))
    wf = float(Fraction(family.window))
    short = np.where(lo_exact & hi_exact, lo == hi, hi - lo <= FLOAT_MERGE_TOL)
    # a first part ending at -w (a tiny float radius rounds away) hands
    # the next gap the window's exact endpoint, as IntervalSet.complement does
    hi_exact[0] |= hi[0] == -wf
    # every part lies in the window, so the gaps run from -w over all parts to w
    starts, stops = _complement_ends(short, lo[0] > -wf, hi[-1] < wf)
    ends = np.concatenate([[-wf], np.column_stack((lo, hi)).ravel(), [wf]])
    ends_exact = np.concatenate([[True], np.column_stack((lo_exact, hi_exact)).ravel(),
                                 [True]])
    return _dyadic_set(ends[starts], ends[stops], ends_exact[starts], ends_exact[stops])


def omega_limit(sets, period):
    """Omega-limit of an eventually periodic sequence of IntervalSets.

    The sequence is understood as `sets[:-period]` followed by
    `sets[-period:]` repeating forever.  Every set in the periodic part
    occurs infinitely often and nothing else does, so the omega-limit (the
    set of accumulation points of tails) is the closure of the union of
    one period.  Closure is realised by the merge of touching parts.
    """
    if not sets:
        raise ValueError("need at least one set")
    if not 1 <= period <= len(sets):
        raise ValueError(f"period must be in 1..{len(sets)}, got {period}")
    acc = IntervalSet()
    for s in sets[-period:]:
        acc = acc.union(s)
    return acc
