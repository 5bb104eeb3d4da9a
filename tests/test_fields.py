"""Tests for periodic 2-d fields: spectral norms against closed forms,
differentiation, blob constructors, and the snapshot format."""

import io
import math

import numpy as np
import pytest

from cexlab.fields import (ScalarField2D, VectorField2D, gaussian_blob,
                           gradient, hs_norm, l2_norm, load_field,
                           modulated_blob, quadrupole_blob, save_field,
                           spectral_divergence, spectral_tail_fraction,
                           w1p_norm, w1p_norms, w1p_seminorm)

BOX = 2.0


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
