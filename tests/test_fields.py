"""Tests for periodic 2-d fields: spectral norms against closed forms,
differentiation, blob constructors, and the snapshot format."""

import io
import math

import numpy as np
import pytest

from cexlab.fields import (ScalarField2D, VectorField2D, gaussian_blob,
                           gradient, hs_norm, hs_norms, l2_norm, load_field,
                           modulated_blob, quadrupole_blob, save_field,
                           spectral_divergence, spectral_tail_fraction,
                           w1p_norm, w1p_norms, w1p_seminorm)

BOX = 2.0
EPS = np.finfo(float).eps


def complex_gradient(field):
    """The spectral gradient by complex FFTs, keeping the real part: the
    oracle for gradient's real FFTs."""
    fh = np.fft.fft2(field.values)
    k = 2.0 * math.pi * np.fft.fftfreq(field.n, d=field.dx)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return (np.real(np.fft.ifft2(1j * kx * fh)),
            np.real(np.fft.ifft2(1j * ky * fh)))


def pure_mode(m, n=64, box=BOX):
    k = 2.0 * math.pi * m / box
    return k, ScalarField2D.from_function(
        lambda x, y: np.cos(k * x), n, box)


class TestConstruction:
    def test_grid_gates(self):
        with pytest.raises(ValueError, match="power of two"):
            ScalarField2D(values=np.zeros((100, 100)), box=1.0)
        with pytest.raises(ValueError, match="square"):
            ScalarField2D(values=np.zeros((4, 8)), box=1.0)
        with pytest.raises(ValueError, match="box"):
            ScalarField2D(values=np.zeros((4, 4)), box=0.0)
        with pytest.raises(ValueError, match="equal square"):
            VectorField2D(u=np.zeros((4, 4)), v=np.zeros((8, 8)), box=1.0)

    def test_grid_convention(self):
        f = ScalarField2D(values=np.zeros((8, 8)), box=4.0)
        assert f.dx == 0.5
        assert f.axis()[0] == -2.0
        assert np.allclose(np.diff(f.axis()), 0.5)

    def test_speed(self):
        vf = VectorField2D.from_functions(
            lambda x, y: 3.0 * np.ones_like(x),
            lambda x, y: 4.0 * np.ones_like(x), 8, BOX)
        assert vf.sup_speed == 5.0
        assert np.all(vf.speed() == 5.0)


class TestNorms:
    def test_pure_mode_closed_form(self):
        for m, s in [(2, 0.5), (3, 1.0), (5, -0.5), (2, 1.5)]:
            k, f = pure_mode(m)
            expect = k ** s * BOX / math.sqrt(2.0)
            assert hs_norm(f, s) == pytest.approx(expect, rel=1e-12)

    def test_zero_order_recovers_l2(self):
        k, f = pure_mode(3)
        assert hs_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_parseval_inhomogeneous(self):
        f = gaussian_blob(128, BOX, (0.2, -0.1), 0.25, amplitude=1.7)
        assert hs_norm(f, 0.0, homogeneous=False) \
            == pytest.approx(l2_norm(f), rel=1e-12)

    def test_homogeneous_drops_mean(self):
        c = ScalarField2D(values=np.full((16, 16), 2.5), box=BOX)
        assert hs_norm(c, 1.0) == 0.0
        assert hs_norm(c, 0.0, homogeneous=False) \
            == pytest.approx(2.5 * BOX, rel=1e-12)
        assert l2_norm(c) == pytest.approx(2.5 * BOX, rel=1e-12)

    def test_w1p_two_matches_h1(self):
        # band-limited data keeps the Nyquist row empty, where real-space
        # spectral gradients and modewise sums would otherwise disagree
        n = 64
        k1 = 2.0 * math.pi / BOX
        vf = VectorField2D.from_functions(
            lambda x, y: np.cos(2 * k1 * x) * np.sin(3 * k1 * y),
            lambda x, y: np.sin(5 * k1 * x) + 0.3 * np.cos(k1 * y),
            n, BOX)
        h1 = math.hypot(hs_norm(ScalarField2D(vf.u, BOX), 1.0),
                        hs_norm(ScalarField2D(vf.v, BOX), 1.0))
        assert w1p_norm(vf, 2.0) == pytest.approx(h1, rel=1e-12)

    def test_hs_norms_match_per_order_norms(self):
        f = modulated_blob(64, BOX, (0.1, -0.2), 0.2, 12.0)
        ss = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)

        def one_order(s, homogeneous):
            # the per-order formula, one spectrum per s
            fh = np.fft.fft2(f.values) * f.dx * f.dx
            k = 2.0 * math.pi * np.fft.fftfreq(f.n, d=f.dx)
            kx, ky = np.meshgrid(k, k, indexing="ij")
            k2 = kx * kx + ky * ky
            e = np.abs(fh) ** 2
            if homogeneous:
                mask = k2.ravel() > 0
                total = np.sum(k2.ravel()[mask] ** s * e.ravel()[mask])
            else:
                total = np.sum((1.0 + k2) ** s * e)
            return math.sqrt(total / (BOX * BOX))

        for homogeneous in (True, False):
            got = hs_norms(f, ss, homogeneous)
            assert got == [one_order(s, homogeneous) for s in ss]
            assert got == [hs_norm(f, s, homogeneous) for s in ss]

    def test_w1p_norms_match_per_exponent_norms(self):
        k1 = 2.0 * math.pi / BOX
        vf = VectorField2D.from_functions(
            lambda x, y: np.cos(2 * k1 * x) * np.sin(3 * k1 * y) ** 3,
            lambda x, y: np.sin(5 * k1 * x) + 0.3 * np.cos(k1 * y),
            64, BOX)
        ps = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
        # the per-exponent formula, one Jacobian per p
        ux, uy = gradient(ScalarField2D(vf.u, BOX))
        vx, vy = gradient(ScalarField2D(vf.v, BOX))
        jac = np.sqrt(ux * ux + uy * uy + vx * vx + vy * vy)
        want = [float(np.sum(jac ** p) * vf.dx ** 2) ** (1.0 / p) for p in ps]
        assert w1p_norms(vf, ps) == want
        assert w1p_norms(vf, ps) == [w1p_norm(vf, p) for p in ps]
        assert w1p_norms(vf, iter(ps)) == want
        assert w1p_norms(vf, ()) == []

    def test_w1p_p_gate(self):
        vf = VectorField2D(u=np.zeros((8, 8)), v=np.zeros((8, 8)), box=BOX)
        with pytest.raises(ValueError, match="p must"):
            w1p_norm(vf, 0.5)
        with pytest.raises(ValueError, match="p must"):
            w1p_norms(vf, (2.0, 0.5))
        with pytest.raises(ValueError, match="p must"):
            w1p_seminorm(ScalarField2D(np.zeros((8, 8)), BOX), 0.5)

    def test_seminorm_single_mode(self):
        k, f = pure_mode(2)
        # |grad| = k |sin(kx)|, so the L^2 seminorm is k * L / sqrt(2)
        assert w1p_seminorm(f, 2.0) \
            == pytest.approx(k * BOX / math.sqrt(2.0), rel=1e-12)


class TestDifferentiation:
    def test_gradient_of_mode(self):
        m = 3
        k = 2.0 * math.pi * m / BOX
        f = ScalarField2D.from_function(lambda x, y: np.sin(k * x), 64, BOX)
        fx, fy = gradient(f)
        x, _ = f.coords()
        assert np.max(np.abs(fx - k * np.cos(k * x))) <= 1e-12 * k
        assert np.max(np.abs(fy)) <= 1e-12 * k

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_real_ffts_match_complex_ffts(self, n):
        # white noise fills every wavenumber, Nyquist row and column too;
        # the largest gap measured is 1.53 eps kmax max|f| (n = 256)
        rng = np.random.default_rng(n)
        kmax = math.pi * n / BOX
        for _ in range(3):
            f = ScalarField2D(rng.standard_normal((n, n)), BOX)
            bound = 4.0 * EPS * kmax * np.max(np.abs(f.values))
            for got, want in zip(gradient(f), complex_gradient(f)):
                assert np.max(np.abs(got - want)) <= bound
            vf = VectorField2D(u=f.values, v=f.values.T.copy(), box=BOX)
            ux, _ = complex_gradient(f)
            _, vy = complex_gradient(ScalarField2D(vf.v, BOX))
            assert np.max(np.abs(spectral_divergence(vf) - (ux + vy))) \
                <= 2.0 * bound

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_checkerboard_has_zero_gradient(self, n):
        # (-1)^(i+j) is the Nyquist mode on both axes, where an odd
        # derivative has no real part
        i = np.arange(n)
        f = ScalarField2D((-1.0) ** (i[:, None] + i[None, :]), BOX)
        for d in gradient(f) + complex_gradient(f):
            assert np.max(np.abs(d)) == 0.0

    def test_perpendicular_gradient_is_divergence_free(self):
        psi = gaussian_blob(64, BOX, (0.1, -0.2), 0.3)
        px, py = gradient(psi)
        vf = VectorField2D(u=py, v=-px, box=BOX)
        div = spectral_divergence(vf)
        assert np.max(np.abs(div)) <= 1e-12 * np.max(np.hypot(px, py))


class TestTailFraction:
    def test_band_limited_field_has_empty_tail(self):
        _, f = pure_mode(3, n=64)
        assert spectral_tail_fraction(f) <= 1e-30
        zero = ScalarField2D(values=np.zeros((16, 16)), box=BOX)
        assert spectral_tail_fraction(zero) == 0.0

    def test_rough_field_has_tail_mass(self):
        rng = np.random.default_rng(3)
        f = ScalarField2D(values=rng.standard_normal((32, 32)), box=BOX)
        assert spectral_tail_fraction(f) > 0.05

    def test_smooth_blob_is_resolved(self):
        f = gaussian_blob(128, BOX, (0.0, 0.0), 0.15)
        assert spectral_tail_fraction(f) <= 1e-12


class TestBlobs:
    def test_gaussian_center_value(self):
        f = gaussian_blob(64, BOX, (0.0, 0.0), 0.2, amplitude=1.25)
        assert f.values[32, 32] == 1.25

    def test_quadrupole_is_balanced(self):
        f = quadrupole_blob(128, BOX, (0.0, 0.0), 0.2)
        assert abs(f.mean) <= 1e-13
        assert f.values[64, 64] == 0.0
        assert np.max(f.values) > 0 > np.min(f.values)

    def test_modulated_blob_structure(self):
        n, sigma, carrier = 256, 0.15, 40.0
        f = modulated_blob(n, BOX, (0.0, 0.0), sigma, carrier, amplitude=0.7)
        assert f.values[n // 2, n // 2] == 0.7
        env = gaussian_blob(n, BOX, (0.0, 0.0), sigma, amplitude=0.7)
        x, _ = f.coords()
        assert np.allclose(f.values, env.values * np.cos(carrier * x))
        assert spectral_tail_fraction(f) <= 1e-12


class TestSnapshotFormat:
    def test_round_trip_exact(self, tmp_path):
        f = quadrupole_blob(32, 3.0, (0.3, -0.4), 0.5)
        dest = tmp_path / "field.pthl"
        save_field(f, dest)
        g = load_field(dest)
        assert np.array_equal(g.values, f.values)
        assert g.box == f.box

    def test_stream_round_trip(self):
        f = gaussian_blob(16, BOX, (0.0, 0.0), 0.3)
        buf = io.BytesIO()
        save_field(f, buf)
        buf.seek(0)
        g = load_field(buf)
        assert np.array_equal(g.values, f.values)

    def test_header_layout(self):
        f = ScalarField2D(values=np.zeros((4, 4)), box=1.5)
        buf = io.BytesIO()
        save_field(f, buf)
        raw = buf.getvalue()
        assert raw[:4] == b"PTHL"
        assert len(raw) == 20 + 8 * 16

    def test_corruption_errors(self):
        f = ScalarField2D(values=np.zeros((4, 4)), box=1.0)
        buf = io.BytesIO()
        save_field(f, buf)
        raw = buf.getvalue()
        with pytest.raises(ValueError, match="magic"):
            load_field(io.BytesIO(b"XXXX" + raw[4:]))
        bad_version = raw[:4] + raw[4:8].replace(b"\x01", b"\x09") + raw[8:]
        with pytest.raises(ValueError, match="version"):
            load_field(io.BytesIO(bad_version))
        with pytest.raises(ValueError, match="truncated"):
            load_field(io.BytesIO(raw[:-8]))
        for cut in (4, 6, 19):
            with pytest.raises(ValueError, match="truncated"):
                load_field(io.BytesIO(raw[:cut]))
