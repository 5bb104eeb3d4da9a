"""Periodic 2-d fields, their spectral norms, and a flat snapshot format.

Fields live on the square torus [-L/2, L/2)^2 sampled on an n x n grid,
values[i, j] at (x_i, y_j) with x_i = -L/2 + i L/n.  Norms follow the
continuum conventions via the DFT: with hat(f)_k = dx^2 * DFT(f) and
k = 2 pi * fftfreq / dx,

    ||f||_{Hs}^2 = (1/L^2) sum_k |k|^(2s) |hat(f)_k|^2,

the zero mode excluded (for s < 0 it would be infinite, and the
homogeneous norm ignores the mean anyway).  A pure mode e^(ikx) then has
norm |k|^s L, and s = 0 recovers the L^2 norm of mean-free fields.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

SNAPSHOT_MAGIC = b"PTHL"
SNAPSHOT_VERSION = 1


def _require_power_of_two(n):
    # FFT-based norms assume it, and the snapshot format promises it
    if n < 2 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two, got {n}")


@dataclass(frozen=True)
class ScalarField2D:
    """Periodic scalar samples on a square grid."""

    values: np.ndarray
    box: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"values must be a square 2-d array, got shape {v.shape}")
        _require_power_of_two(v.shape[0])
        if self.box <= 0:
            raise ValueError(f"box must be positive, got {self.box}")
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def dx(self):
        return self.box / self.n

    def axis(self):
        return -0.5 * self.box + self.dx * np.arange(self.n)

    def coords(self):
        a = self.axis()
        return np.meshgrid(a, a, indexing="ij")

    @property
    def mean(self):
        return float(np.mean(self.values))

    @classmethod
    def from_function(cls, fn, n, box):
        a = -0.5 * box + (box / n) * np.arange(n)
        x, y = np.meshgrid(a, a, indexing="ij")
        return cls(values=np.asarray(fn(x, y), dtype=float), box=float(box))


@dataclass(frozen=True)
class VectorField2D:
    """Periodic velocity samples (u, v) on a square grid."""

    u: np.ndarray
    v: np.ndarray
    box: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("u and v must be equal square 2-d arrays")
        _require_power_of_two(u.shape[0])
        if self.box <= 0:
            raise ValueError(f"box must be positive, got {self.box}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self):
        return self.u.shape[0]

    @property
    def dx(self):
        return self.box / self.n

    def speed(self):
        return np.hypot(self.u, self.v)

    @property
    def sup_speed(self):
        return float(np.max(self.speed()))

    @classmethod
    def from_functions(cls, fu, fv, n, box):
        a = -0.5 * box + (box / n) * np.arange(n)
        x, y = np.meshgrid(a, a, indexing="ij")
        return cls(u=np.asarray(fu(x, y), dtype=float),
                   v=np.asarray(fv(x, y), dtype=float), box=float(box))


def _wavenumbers(n, dx):
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    return np.meshgrid(k, k, indexing="ij")


def hs_norm(field, s, homogeneous=True):
    """Sobolev norm of order s (any real).

    Homogeneous: weight |k|^(2s), zero mode dropped.  Inhomogeneous:
    weight (1+|k|^2)^s, zero mode kept (the weight is 1 there).
    """
    n, dx, L = field.n, field.dx, field.box
    fh = np.fft.fft2(field.values) * dx * dx
    kx, ky = _wavenumbers(n, dx)
    k2 = kx * kx + ky * ky
    e = np.abs(fh) ** 2
    if homogeneous:
        k2flat = k2.ravel()
        eflat = e.ravel()
        mask = k2flat > 0
        total = np.sum(k2flat[mask] ** s * eflat[mask]) / (L * L)
    else:
        total = np.sum((1.0 + k2) ** s * e) / (L * L)
    return math.sqrt(total)


def l2_norm(field):
    """Plain L^2 norm by quadrature (includes the mean, unlike hs_norm)."""
    return math.sqrt(float(np.sum(field.values ** 2)) * field.dx ** 2)


def gradient(field):
    """Spectral gradient, returned as two sample arrays (f_x, f_y)."""
    fh = np.fft.fft2(field.values)
    kx, ky = _wavenumbers(field.n, field.dx)
    fx = np.real(np.fft.ifft2(1j * kx * fh))
    fy = np.real(np.fft.ifft2(1j * ky * fh))
    return fx, fy


def w1p_seminorm(field, p):
    """L^p norm of the spectral gradient magnitude, by quadrature."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    fx, fy = gradient(field)
    mag = np.hypot(fx, fy)
    return float(np.sum(mag ** p) * field.dx ** 2) ** (1.0 / p)


def w1p_norm(vfield, p):
    """L^p norm of the full velocity gradient (Frobenius pointwise)."""
    return w1p_norms(vfield, (p,))[0]


def w1p_norms(vfield, ps):
    """w1p_norm for every p in ps, from one Jacobian of the field."""
    ps = tuple(ps)
    for p in ps:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
    ux, uy = gradient(ScalarField2D(values=vfield.u, box=vfield.box))
    vx, vy = gradient(ScalarField2D(values=vfield.v, box=vfield.box))
    jac = np.sqrt(ux * ux + uy * uy + vx * vx + vy * vy)
    area = vfield.dx ** 2
    return [float(np.sum(jac ** p) * area) ** (1.0 / p) for p in ps]


def spectral_divergence(vfield):
    """div(u, v) by spectral differentiation, as a sample array."""
    uh = np.fft.fft2(vfield.u)
    vh = np.fft.fft2(vfield.v)
    kx, ky = _wavenumbers(vfield.n, vfield.dx)
    return np.real(np.fft.ifft2(1j * (kx * uh + ky * vh)))


def spectral_tail_fraction(field, cut=2.0 / 3.0):
    """Fraction of spectral energy at |k|_inf beyond cut * Nyquist.

    A well-resolved field keeps this tiny; rescaling shrinks features by
    lambda, so the gate catches grids that can no longer carry them.
    """
    fh = np.abs(np.fft.fft2(field.values)) ** 2
    freq = np.fft.fftfreq(field.n, d=1.0 / field.n)
    fx, fy = np.meshgrid(np.abs(freq), np.abs(freq), indexing="ij")
    nyq = field.n // 2
    tail = np.maximum(fx, fy) > cut * nyq
    total = float(np.sum(fh))
    if total == 0.0:
        return 0.0
    return float(np.sum(fh[tail])) / total


def gaussian_blob(n, box, center, sigma, amplitude=1.0):
    """Isotropic Gaussian bump, not periodized; keep it well inside the box."""
    cx, cy = center

    def fn(x, y):
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        return amplitude * np.exp(-r2 / (2.0 * sigma * sigma))

    return ScalarField2D.from_function(fn, n, box)


def quadrupole_blob(n, box, center, sigma, amplitude=1.0):
    """(xy/sigma^2) exp(-r^2/(2 sigma^2)) around the center.

    Mean and both first moments vanish and the spectrum vanishes
    quadratically at k = 0; good as a sign-structured tracer.  Its
    spectrum still touches k = 0 polynomially, so for negative-order
    norm work at high accuracy prefer modulated_blob.
    """
    cx, cy = center
    s2 = sigma * sigma

    def fn(x, y):
        xs, ys = x - cx, y - cy
        return amplitude * (xs * ys / s2) * np.exp(-(xs * xs + ys * ys) / (2.0 * s2))

    return ScalarField2D.from_function(fn, n, box)


def modulated_blob(n, box, center, sigma, carrier, amplitude=1.0):
    """cos(carrier * (x - cx)) times a Gaussian envelope.

    The spectrum concentrates near wavenumber `carrier`, a Gaussian
    distance carrier*sigma away from the origin; with carrier*sigma
    around 6 the |k|^(2s) weight is smooth across the whole spectrum
    and discrete norms of rescalings follow the continuum scaling laws
    to near machine precision, even at negative s.
    """
    cx, cy = center

    def fn(x, y):
        xs, ys = x - cx, y - cy
        return (amplitude * np.cos(carrier * xs)
                * np.exp(-(xs * xs + ys * ys) / (2.0 * sigma * sigma)))

    return ScalarField2D.from_function(fn, n, box)


def save_field(field, path):
    """Write the flat snapshot: magic, version u32, n u32, box f64,
    then row-major float64 samples, all little-endian."""
    header = SNAPSHOT_MAGIC + struct.pack("<IId", SNAPSHOT_VERSION, field.n, field.box)
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    if hasattr(path, "write"):
        path.write(header + payload)
    else:
        with open(path, "wb") as fh:
            fh.write(header + payload)


def load_field(path):
    if hasattr(path, "read"):
        raw = path.read()
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ValueError("not a field snapshot: bad magic")
    if len(raw) < 20:
        raise ValueError(f"snapshot truncated: header needs 20 bytes, got {len(raw)}")
    version, n, box = struct.unpack("<IId", raw[4:20])
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    expected = 20 + 8 * n * n
    if len(raw) != expected:
        raise ValueError(f"snapshot truncated: expected {expected} bytes, got {len(raw)}")
    values = np.frombuffer(raw[20:], dtype="<f8").reshape(n, n).copy()
    return ScalarField2D(values=values, box=box)
