"""Grid estimators for Hoelder and Lipschitz constants of 1-d functions.

The estimator is the plain sup over grid pairs of
|f(y) - f(x)| / |y - x|^order.  It never exceeds the true constant, it is
monotone under grid refinement, and it transforms exactly under rescaling
of the argument; those three properties are what the construction proofs
lean on, so they are what the tests pin down.

At order 1 the sup is taken over neighbouring pairs only: on an
increasing grid every chord's slope is a weighted mean of the
neighbouring slopes between its ends, so no other pair can beat them
(in floating point, a chord over collinear points can round a few units
in the last place above them).  That makes order 1 linear in the grid
size, with no cap; orders below 1 scan all pairs and keep the
MAX_GRID_POINTS cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

# Hard cap on the order < 1 pair scan: N^2 pair scans get slow and memory
# hungry beyond this, and refining past it has never moved an estimate in
# tests.
MAX_GRID_POINTS = 4096

_CHUNK = 256


@dataclass(frozen=True)
class Fn1D:
    """A function of one real variable with optional extras.

    eval must accept floats and numpy arrays.  deriv and antideriv are
    optional closed forms (the derivative may be an a.e. one for piecewise
    smooth functions).  support_hint, when present, is an (a, b) pair
    outside which the function vanishes.
    """

    eval: Callable
    deriv: Optional[Callable] = None
    antideriv: Optional[Callable] = None
    support_hint: Optional[tuple] = None

    def __call__(self, x):
        return self.eval(x)


@dataclass(frozen=True)
class HolderEstimate:
    """Result of a pairwise sup: |f(y)-f(x)| = constant * |y-x|^order for
    the witness pair (x, y); witness is None for degenerate grids."""

    order: float
    constant: float
    witness: Optional[tuple]


def _as_callable(f):
    return f.eval if isinstance(f, Fn1D) else f


def holder_constant(f, order, grid):
    """Sup of the order-Hoelder quotient over all pairs of grid points.

    The grid must be strictly increasing; duplicated points would make
    the quotient 0/0 and are rejected.  Order 1 takes the sup over
    neighbouring pairs, which is the sup over all pairs on any such grid,
    and accepts a grid of any size.  Orders below 1 allow at most
    MAX_GRID_POINTS entries and scan all pairs in chunks, to keep the
    N^2 distance matrix off the heap.
    """
    if not 0 < order <= 1:
        raise ValueError(f"order must be in (0, 1], got {order}")
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("grid must be one-dimensional with at least 2 points")
    if order < 1 and x.size > MAX_GRID_POINTS:
        raise ValueError(f"grid has {x.size} points, cap is {MAX_GRID_POINTS}")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("grid must be strictly increasing (no duplicates)")
    v = np.asarray(_as_callable(f)(x), dtype=float)

    if order == 1:
        q = np.abs(np.diff(v)) / dx
        k = int(np.argmax(q))
        if not q[k] > 0.0:
            return HolderEstimate(order=order, constant=0.0, witness=None)
        return HolderEstimate(order=order, constant=float(q[k]),
                              witness=(float(x[k]), float(x[k + 1])))

    best = 0.0
    wit = None
    n = x.size
    for i0 in range(0, n - 1, _CHUNK):
        i1 = min(i0 + _CHUNK, n - 1)
        xi = x[i0:i1, None]
        vi = v[i0:i1, None]
        # only pairs with j > i; slicing from i0+1 keeps the block upper
        # triangular enough that masking the rest is cheap
        xj = x[None, i0 + 1:]
        vj = v[None, i0 + 1:]
        d = xj - xi
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.abs(vj - vi) / d ** order
        q[d <= 0] = -np.inf
        k = int(np.argmax(q))
        qmax = q.flat[k]
        if qmax > best:
            best = float(qmax)
            ii, jj = divmod(k, q.shape[1])
            wit = (float(x[i0 + ii]), float(x[i0 + 1 + jj]))
    return HolderEstimate(order=order, constant=best, witness=wit)


def lipschitz_from_derivative(f, grid):
    """Max |f'| over the grid; valid as a Lipschitz bound on intervals
    where f is piecewise C^1 and the grid resolves the pieces."""
    if f.deriv is None:
        raise ValueError("function has no derivative attached")
    x = np.asarray(grid, dtype=float)
    return float(np.max(np.abs(np.asarray(f.deriv(x), dtype=float))))


def restricted_lipschitz(f, kset, grid_step):
    """Order-1 estimate over all pairs of a grid covering an IntervalSet.
    Component endpoints are always in the grid.  An empty set gives the
    zero estimate with no witness.
    """
    grid = kset.sample_grid(grid_step)
    if grid.size < 2:
        return HolderEstimate(order=1.0, constant=0.0, witness=None)
    return holder_constant(f, 1.0, grid)


def check_derivative_consistency(f, points, h=1e-5, tol=1e-6):
    """Central differences of f.eval against f.deriv at smooth points.

    Returns the worst absolute discrepancy; raises if f has no derivative.
    The O(h^2) truncation keeps this below ~1e-9 for well-scaled smooth
    functions, so tol=1e-6 leaves room for less tame ones.
    """
    if f.deriv is None:
        raise ValueError("function has no derivative attached")
    x = np.asarray(points, dtype=float)
    fd = (f.eval(x + h) - f.eval(x - h)) / (2.0 * h)
    worst = float(np.max(np.abs(fd - f.deriv(x))))
    return worst <= tol, worst


def sawtooth(x):
    """Period-1 sawtooth equal to |x| on [-1/2, 1/2]; values in [0, 1/2]."""
    x = np.asarray(x, dtype=float)
    return np.abs(x - np.round(x))


def _sawtooth_deriv(x):
    x = np.asarray(x, dtype=float)
    s = np.sign(x - np.round(x))
    # at the kinks the one-sided slopes are +-1; report +1 there, callers
    # treat the derivative as an a.e. object anyway
    return np.where(s == 0, 1.0, s)


@lru_cache(maxsize=1)
def sawtooth_half_holder_constant():
    """Order-1/2 constant of the sawtooth, measured once on a fine grid.

    The true value is sqrt(1/2), attained by pairs spanning half a tooth;
    we derive it rather than hardcode it so the perturbation scaling below
    stays honest if the profile ever changes.
    """
    grid = np.linspace(-0.5, 0.5, 2001)
    return holder_constant(sawtooth, 0.5, grid).constant


def sawtooth_perturb(f0, n, H, eps1):
    """f0 plus a sawtooth wiggle at frequency n^2 and amplitude ~ 1/n.

    The added term (H*eps1/H_saw) * n^(-1) * saw(n^2 x) has order-1/2
    constant exactly H*eps1 (the 1/n amplitude cancels the n from the
    frequency), while its local Lipschitz constant grows like n.  Running
    n upward therefore keeps the perturbed family inside the order-1/2
    ball of radius H around f0 whenever f0 has constant (1-eps1)*H, while
    the slopes blow up -- the elementary picture behind flat-spot
    avoidance.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < eps1 < 1:
        raise ValueError(f"eps1 must be in (0, 1), got {eps1}")
    if H <= 0:
        raise ValueError(f"H must be positive, got {H}")
    hsaw = sawtooth_half_holder_constant()
    amp = H * eps1 / hsaw

    f0e = _as_callable(f0)
    f0d = f0.deriv if isinstance(f0, Fn1D) else None

    def evaluate(x):
        return f0e(x) + amp / n * sawtooth(n * n * np.asarray(x, dtype=float))

    deriv = None
    if f0d is not None:
        def deriv(x):
            return f0d(x) + amp * n * _sawtooth_deriv(n * n * np.asarray(x, dtype=float))

    return Fn1D(eval=evaluate, deriv=deriv)
