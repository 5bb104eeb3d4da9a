"""Tests for the rescaled-mixer transport machinery: schedules, budgets,
admissibility, stage geometry, semi-Lagrangian advection, and the norm
growth bookkeeping."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cexlab import transport
from cexlab.fields import ScalarField2D, VectorField2D, gaussian_blob, hs_norm, l2_norm, spectral_divergence, w1p_norm
from cexlab.transport import (AlternatingMixer, advect, blowup_budget,
                              check_admissible, check_stage_geometry,
                              check_stages_disjoint, default_schedule,
                              make_stage, measure_mixing, mixer_velocity,
                              perp_grad_field, rescale_norm_check,
                              schedule_budget, stage_tracer, stage_velocity,
                              superpose_scalars)

BOX = 2.0


class TestSchedule:
    def test_first_stage_scales(self):
        sch = default_schedule()
        assert sch.lam(1) == math.exp(-1.0)
        assert sch.gam(1) == math.exp(-1.0)

    def test_stage_size_shrinks_eventually(self):
        sch = default_schedule()
        seq = [n * sch.lam(n) for n in range(5, 80)]
        assert all(b < a for a, b in zip(seq, seq[1:]))

    def test_amplitude_beats_any_power_of_scale(self):
        sch = default_schedule()
        for a in (0.5, 1.0, 2.0):
            seq = [sch.gam(n) / sch.lam(n) ** a for n in range(20, 401, 20)]
            assert all(b < a_ for a_, b in zip(seq, seq[1:]))
            assert seq[-1] < 1e-6 * seq[0]

    def test_exponential_pump_wins(self):
        sch = default_schedule()
        for b in (0.5, 1.0):
            seq = [sch.gam(n) * sch.lam(n) * math.exp(b * n)
                   for n in range(30, 200, 10)]
            assert all(y > x for x, y in zip(seq, seq[1:]))
            assert seq[-1] > 1e6


class TestGradientBudgetScan:
    def test_reference_value(self):
        scan = schedule_budget(default_schedule())
        assert scan.value == pytest.approx(16.0 * math.exp(-4.0), rel=1e-12)
        assert scan.value == pytest.approx(0.2930502222197469, rel=1e-12)
        assert scan.n_star == 4
        assert scan.p_star == 1.0

    def test_supremum_attained_on_a_ridge(self):
        # n^2 lam_n^(2/p) / p^4 equals the peak at every (n, p) with
        # p = sqrt(n)/2, three of which are scanned exactly
        scan = schedule_budget(default_schedule())
        sch = default_schedule()
        for n, p in [(4, 1.0), (16, 2.0), (64, 4.0)]:
            val = n * n * sch.lam(n) ** (2.0 / p) / p ** 4
            assert val == pytest.approx(scan.value, rel=1e-12)

    def test_refinement_stable(self):
        a = schedule_budget(default_schedule(), p_points=2001)
        b = schedule_budget(default_schedule(), p_points=4001)
        assert b.value == pytest.approx(a.value, rel=1e-9)

    @pytest.mark.parametrize("p_points", [2001, 4001])
    def test_matches_the_stage_by_stage_scan(self, p_points):
        # the scan one stage at a time, keeping the first strict maximum
        sch, d, n_max = default_schedule(), 2, 400
        p = np.logspace(0.0, 4.0, p_points)
        best, bn, bp = -math.inf, 0, 0.0
        for n in range(1, n_max + 1):
            vals = n * n * sch.lam(n) ** (d / p) / p ** 4
            i = int(np.argmax(vals))
            if vals[i] > best:
                best, bn, bp = float(vals[i]), n, float(p[i])
        scan = schedule_budget(sch, d=d, n_max=n_max, p_points=p_points)
        assert (scan.value, scan.n_star, scan.p_star) == (best, bn, bp)


class TestMixer:
    def test_validation(self):
        with pytest.raises(ValueError, match="r_inner"):
            AlternatingMixer(r_inner=0.9, r_outer=0.8)
        with pytest.raises(ValueError, match="positive"):
            AlternatingMixer(amplitude=0.0)

    def test_cutoff_plateaus(self):
        m = AlternatingMixer()
        assert float(m.cutoff(0.0)) == 1.0
        assert float(m.cutoff(0.7)) == 1.0
        assert float(m.cutoff(0.95)) == 0.0
        assert float(m.cutoff(2.0)) == 0.0

    def test_velocity_alternates_direction(self):
        m = AlternatingMixer()
        early = mixer_velocity(m, 0.2, 256, BOX)
        late = mixer_velocity(m, 0.7, 256, BOX)
        # deep inside the cutoff the early-phase flow is a pure x-shear
        # (stream depends on y alone) and the late phase a pure y-shear
        # tolerance reflects spectral ringing from the finitely resolved
        # radial cutoff, not roundoff
        inner = np.hypot(*ScalarField2D(early.u, BOX).coords()) < 0.5
        sup = early.sup_speed
        assert np.max(np.abs(early.v[inner])) <= 1e-5 * sup
        assert np.max(np.abs(late.u[inner])) <= 1e-5 * sup
        assert np.max(np.abs(early.u[inner])) >= 0.5 * sup

    def test_velocity_is_divergence_free(self):
        m = AlternatingMixer()
        vf = mixer_velocity(m, 0.3, 256, BOX)
        div = spectral_divergence(vf)
        grad_scale = vf.sup_speed * 2.0 * math.pi / m.wavelength
        assert np.max(np.abs(div)) <= 1e-10 * grad_scale


class TestAdmissibility:
    def test_default_mixer_passes(self):
        vf = mixer_velocity(AlternatingMixer(), 0.25, 512, BOX)
        rep = check_admissible(vf)
        assert rep.support_ok and rep.sup_ok and rep.gradient_ok and rep.div_ok
        assert rep.worst_p == 1.0
        assert rep.worst_gradient_ratio == pytest.approx(0.82, abs=0.05)

    def test_overdriven_mixer_fails_gradient_budget(self):
        vf = mixer_velocity(AlternatingMixer(amplitude=0.07), 0.25, 512, BOX)
        rep = check_admissible(vf)
        assert not rep.gradient_ok
        assert rep.worst_gradient_ratio > 1.0

    def test_unsupported_field_fails(self):
        ones = np.ones((64, 64))
        rep = check_admissible(VectorField2D(u=ones, v=0 * ones, box=BOX))
        assert not rep.support_ok
        assert rep.outside_speed > 0

    def test_reports_match_per_exponent_norms(self, monkeypatch):
        vf = mixer_velocity(AlternatingMixer(), 0.3, 256, BOX)
        rep = check_admissible(vf)
        rc = rescale_norm_check(0.5, math.exp(-1.0), 4, 128, BOX)
        # oracle: one Jacobian per exponent
        monkeypatch.setattr(transport, "w1p_norms",
                            lambda vf, ps: [w1p_norm(vf, p) for p in ps])
        assert check_admissible(vf) == rep
        assert rescale_norm_check(0.5, math.exp(-1.0), 4, 128, BOX) == rc


class TestStageGeometry:
    def test_stage_index_gate(self):
        with pytest.raises(ValueError, match=">= 1"):
            make_stage(default_schedule(), 0, (0.0, 0.0))

    def test_resolution_floor_names_required_grid(self):
        st = make_stage(default_schedule(), 6, (0.0, 0.0))
        with pytest.raises(ValueError, match="needs grid >= 512"):
            check_stage_geometry(st, BOX, 128)
        with pytest.raises(ValueError, match="needs grid >= 512"):
            check_stage_geometry(st, BOX, 256)
        check_stage_geometry(st, BOX, 512)

    def test_support_confined_to_box(self):
        st = make_stage(default_schedule(), 4, (0.9, 0.0))
        with pytest.raises(ValueError, match="leaves the box"):
            check_stage_geometry(st, BOX, 512)

    def test_disjointness(self):
        sch = default_schedule()
        a = make_stage(sch, 4, (-0.5, 0.0))
        b = make_stage(sch, 4, (-0.5 + 0.1, 0.0))
        with pytest.raises(ValueError, match="overlap"):
            check_stages_disjoint([a, b])
        c = make_stage(sch, 5, (0.5, 0.0))
        check_stages_disjoint([a, c])

    def test_stage_speed_scales_with_n_lam(self):
        m = AlternatingMixer()
        sch = default_schedule()
        base = mixer_velocity(m, 0.0, 512, BOX).sup_speed
        for n in (4, 5):
            st = make_stage(sch, n, (0.0, 0.0))
            sup = stage_velocity(m, st, 0.0, 512, BOX).sup_speed
            assert sup == pytest.approx(n * st.lam * base, rel=0.05)

    def test_stage_tracer_amplitude(self):
        sch = default_schedule()
        # center on a grid point so the peak is sampled exactly
        st = make_stage(sch, 4, (0.3125, 0.0))
        tr = stage_tracer(lambda x, y: np.exp(-(x * x + y * y)), st, 256, BOX)
        assert np.max(tr.values) == pytest.approx(st.gam, rel=1e-12)


def uncached_stage_velocity(mixer, stage, t, grid_n, box):
    """stage_velocity rebuilt from the stream function on every call."""
    cx, cy = stage.center

    def stream(t, x, y):
        chi = mixer.cutoff(np.hypot(x, y))
        c = mixer.amplitude * mixer.wavelength / (2.0 * math.pi)
        phase = (t / mixer.period) % 1.0
        coord = y if phase < 0.5 else x
        return c * np.cos(2.0 * math.pi * coord / mixer.wavelength) * chi

    def fn(x, y):
        return stage.n * stage.lam ** 2 * stream(
            stage.n * t, (x - cx) / stage.lam, (y - cy) / stage.lam)

    f = ScalarField2D.from_function(fn, grid_n, box)
    return perp_grad_field(f.values, box)


class TestStageVelocityCache:
    def test_bit_identical_to_uncached_build(self):
        mixer = AlternatingMixer()
        sch = default_schedule()
        for n in (1, 2, 3, 4):
            st = make_stage(sch, n, (0.1, -0.05))
            half = 0.5 * mixer.period / n
            # both halves of two periods, and each switch time itself
            for t in (0.0, 0.3 * half, half, 1.7 * half, 2.0 * half,
                      2.5 * half, 3.0 * half, 3.9 * half):
                got = stage_velocity(mixer, st, t, 128, BOX)
                want = uncached_stage_velocity(mixer, st, t, 128, BOX)
                assert np.array_equal(got.u, want.u), (n, t)
                assert np.array_equal(got.v, want.v), (n, t)
                assert got.box == want.box

    def test_one_object_per_half_period(self):
        mixer = AlternatingMixer()
        st = make_stage(default_schedule(), 2, (0.0, 0.0))
        half = 0.5 * mixer.period / st.n
        a = stage_velocity(mixer, st, 0.1 * half, 64, BOX)
        assert stage_velocity(mixer, st, 0.9 * half, 64, BOX) is a
        assert stage_velocity(mixer, st, 2.2 * half, 64, BOX) is a
        b = stage_velocity(mixer, st, 1.1 * half, 64, BOX)
        assert b is not a
        assert not np.array_equal(a.u, b.u)
        assert stage_velocity(mixer, st, 0.1 * half, 128, BOX) is not a

    def test_returned_arrays_are_read_only(self):
        st = make_stage(default_schedule(), 1, (0.0, 0.0))
        vf = stage_velocity(AlternatingMixer(), st, 0.0, 64, BOX)
        before = vf.u.copy()
        with pytest.raises(ValueError):
            vf.u[0, 0] = 1.0
        with pytest.raises(ValueError):
            vf.v += 1.0
        again = stage_velocity(AlternatingMixer(), st, 0.0, 64, BOX)
        assert np.array_equal(again.u, before)


class TestPerpGrad:
    def test_shear_stream(self):
        # convention: (u, v) = (-psi_y, psi_x)
        k = 2.0 * math.pi * 3 / BOX
        f = ScalarField2D.from_function(lambda x, y: np.sin(k * y), 64, BOX)
        vf = perp_grad_field(f.values, BOX)
        _, y = f.coords()
        assert np.max(np.abs(vf.u + k * np.cos(k * y))) <= 1e-10 * k
        assert np.max(np.abs(vf.v)) <= 1e-10 * k
        g = ScalarField2D.from_function(lambda x, y: np.sin(k * x), 64, BOX)
        wf = perp_grad_field(g.values, BOX)
        x, _ = g.coords()
        assert np.max(np.abs(wf.v - k * np.cos(k * x))) <= 1e-10 * k
        assert np.max(np.abs(wf.u)) <= 1e-10 * k


class TestAdvection:
    def blob(self, n=64):
        return gaussian_blob(n, BOX, (0.0, 0.0), 0.25)

    def zero_velocity(self, n=64):
        z = np.zeros((n, n))
        return VectorField2D(u=z, v=z, box=BOX)

    def test_gates(self):
        th = self.blob()
        vf = self.zero_velocity()
        with pytest.raises(ValueError, match="t1 >= t0"):
            advect(th, vf, 1.0, 0.0, 0.1)
        with pytest.raises(ValueError, match="dt must"):
            advect(th, vf, 0.0, 1.0, -0.1)
        with pytest.raises(ValueError, match="divide"):
            advect(th, vf, 0.0, 1.0, 0.3)
        ones = np.ones((64, 64))
        fast = VectorField2D(u=ones, v=0 * ones, box=BOX)
        with pytest.raises(ValueError, match="too large"):
            advect(th, fast, 0.0, 1.0, 0.5)
        small = VectorField2D(u=np.zeros((32, 32)), v=np.zeros((32, 32)),
                              box=BOX)
        with pytest.raises(ValueError, match="grid does not match"):
            advect(th, small, 0.0, 1.0, 0.1)

    def test_sup_speed_is_taken_once_per_pair_of_fields(self, monkeypatch):
        n = 64
        th = self.blob(n)
        u = np.full((n, n), 0.1)
        a = VectorField2D(u=u, v=0 * u, box=BOX)
        b = VectorField2D(u=0 * u, v=u, box=BOX)
        calls = []
        sup_speed = VectorField2D.sup_speed.fget
        monkeypatch.setattr(VectorField2D, "sup_speed", property(
            lambda f: calls.append(f) or sup_speed(f)))
        advect(th, a, 0.0, 1.0, 0.1)
        assert calls == [a]
        calls.clear()
        # a switches to b at t = 0.42, mid-step: the samples of the steps
        # are (a, a) four times, then (a, b), then (b, b) five times
        advect(th, lambda t: a if t < 0.42 else b, 0.0, 1.0, 0.1)
        assert calls == [a, a, b, b]

    def test_zero_velocity_is_identity(self):
        th = self.blob()
        out = advect(th, self.zero_velocity(), 0.0, 1.0, 0.25)
        assert np.array_equal(out.values, th.values)
        assert advect(th, self.zero_velocity(), 0.0, 0.0, 0.1) is th

    def test_velocity_ramping_up_from_rest(self):
        # u(t) = t u0 vanishes at t0 = 0 but not at the first midpoint;
        # for a uniform ramp the midpoint backtrace is exact, so one step
        # moves the blob by u0 dt^2 / 2
        n = 64
        th = self.blob(n)
        u0 = np.full((n, n), 0.25)

        def ramp(t):
            return VectorField2D(u=t * u0, v=0 * u0, box=BOX)

        dt = 0.25
        out = advect(th, ramp, 0.0, dt, dt)
        moved = gaussian_blob(n, BOX, (0.125 * dt * dt, 0.0), 0.25)
        assert np.max(np.abs(out.values - th.values)) > 0.01
        assert np.max(np.abs(out.values - moved.values)) <= 2e-4
        # the midpoint sample gates the step too
        with pytest.raises(ValueError, match="too large"):
            advect(th, lambda t: ramp(40.0 * t), 0.0, dt, dt)

    def test_uniform_translation_matches_roll(self):
        n = 64
        th = self.blob(n)
        dx = th.dx
        u = np.full((n, n), 0.25)
        vf = VectorField2D(u=u, v=0 * u, box=BOX)
        dt = dx / 0.25  # one grid cell per step
        out = advect(th, vf, 0.0, 2 * dt, dt, cfl_safety=1.0)
        assert np.allclose(out.values, np.roll(th.values, 2, axis=0),
                           atol=1e-12)

    def test_linearity_in_tracer(self):
        n = 64
        a = gaussian_blob(n, BOX, (0.3, 0.1), 0.2)
        b = gaussian_blob(n, BOX, (-0.4, -0.2), 0.15, amplitude=-0.7)
        vf = mixer_velocity(AlternatingMixer(), 0.0, n, BOX)
        dt = 0.05
        out_sum = advect(ScalarField2D(a.values + b.values, BOX), vf,
                         0.0, 0.2, dt)
        out_a = advect(a, vf, 0.0, 0.2, dt)
        out_b = advect(b, vf, 0.0, 0.2, dt)
        assert np.allclose(out_sum.values, out_a.values + out_b.values,
                           atol=1e-12)

    def test_spectral_leakage_outside_support_is_small(self):
        # the radial cutoff is only a few cells wide at stage scale, so
        # the spectral perpendicular gradient rings slightly beyond the
        # nominal support; document the size rather than pretend it is 0
        n = 256
        sch = default_schedule()
        st = make_stage(sch, 4, (0.5, 0.0))
        vel = stage_velocity(AlternatingMixer(), st, 0.0, n, BOX)
        x, _ = ScalarField2D(vel.u, BOX).coords()
        leak = np.max(vel.speed()[x < 0.0])
        assert leak <= 2e-3 * vel.sup_speed

    def test_exact_locality_where_velocity_vanishes(self):
        n = 256
        sch = default_schedule()
        st = make_stage(sch, 4, (0.5, 0.0))
        vel = stage_velocity(AlternatingMixer(), st, 0.0, n, BOX)
        x, _ = ScalarField2D(vel.u, BOX).coords()
        mask = (x >= 0.2).astype(float)
        clipped = VectorField2D(u=vel.u * mask, v=vel.v * mask, box=BOX)
        far = gaussian_blob(n, BOX, (-0.6, 0.0), 0.08)
        out = advect(far, clipped, 0.0, 0.5, 0.05)
        # with exactly zero samples the backtrace foot stays on the node
        # and the spline reproduces node values to roundoff
        left = x < 0.0
        assert np.max(np.abs(out.values[left] - far.values[left])) <= 1e-13

    def test_stage_advection_conserves_mass_and_range(self):
        n = 256
        sch = default_schedule()
        st = make_stage(sch, 4, (0.0, 0.0))
        check_stage_geometry(st, BOX, n)
        mixer = AlternatingMixer()
        tracer = stage_tracer(
            lambda x, y: np.exp(-(x * x + y * y) / (2 * 0.35 ** 2)), st, n, BOX)

        def vel(t):
            return stage_velocity(mixer, st, t, n, BOX)

        out = advect(tracer, vel, 0.0, 1.0, 0.05)
        sup0 = float(np.max(np.abs(tracer.values)))
        assert abs(out.mean - tracer.mean) <= 1e-6 * sup0
        assert float(np.max(np.abs(out.values))) <= sup0 * 1.01
        assert abs(l2_norm(out) - l2_norm(tracer)) <= 5e-3 * l2_norm(tracer)

    def test_mixing_report_fields(self):
        th = self.blob()
        rep = measure_mixing(th)
        assert rep.l2 == pytest.approx(l2_norm(th), rel=1e-12)
        assert rep.sup == pytest.approx(1.0, rel=1e-12)
        assert rep.mix_norm == pytest.approx(hs_norm(th, -1.0), rel=1e-12)
        assert rep.tail_fraction <= 1e-8


class TestRescalingLaws:
    def test_norms_follow_continuum_scaling(self):
        rc = rescale_norm_check(0.5, math.exp(-1.0), 4, 256, BOX)
        assert rc.hs_rel_err <= 1e-8
        assert rc.w1p_rel_err <= 1e-6

    def test_scale_gate(self):
        with pytest.raises(ValueError, match="lam"):
            rescale_norm_check(1.5, 0.5, 4, 256, BOX)


class TestBlowupBudget:
    def test_default_crossing(self):
        bc = blowup_budget(default_schedule())
        assert bc.crossing == 6
        assert bc.monotone_after_crossing

    def test_exponent_closed_form(self):
        bc = blowup_budget(default_schedule())
        for n in (1, 3, 6, 20, 100):
            expect = n - n ** (2.0 / 3.0) - math.sqrt(n)
            assert bc.log_budget[n - 1] == pytest.approx(expect, rel=1e-12,
                                                         abs=1e-12)

    def test_crossing_brackets_continuous_root(self):
        root = brentq(lambda x: x - x ** (2.0 / 3.0) - math.sqrt(x), 2.0, 50.0)
        bc = blowup_budget(default_schedule())
        assert bc.crossing == math.ceil(root)
        assert abs(bc.crossing - root) <= 1.0

    def test_offset_delays_crossing(self):
        bc = blowup_budget(default_schedule(), offset=2.0)
        assert bc.crossing == 8

    def test_weak_coupling_never_crosses(self):
        bc = blowup_budget(default_schedule(), coupling=0.0)
        assert bc.crossing is None
        assert bc.monotone_after_crossing

    def test_gates(self):
        with pytest.raises(ValueError, match="k0"):
            blowup_budget(default_schedule(), k0=0.0)
        with pytest.raises(ValueError, match="offset"):
            blowup_budget(default_schedule(), offset=-1.0)
        with pytest.raises(ValueError, match="positive"):
            blowup_budget(default_schedule(), prefactor=0.0)


class TestSuperposition:
    def test_scalar_sum(self):
        a = gaussian_blob(32, BOX, (0.2, 0.0), 0.2)
        b = gaussian_blob(32, BOX, (-0.2, 0.0), 0.2, amplitude=2.0)
        s = superpose_scalars([a, b])
        assert np.array_equal(s.values, a.values + b.values)

    def test_mismatched_boxes_rejected(self):
        a = gaussian_blob(32, BOX, (0.0, 0.0), 0.2)
        b = gaussian_blob(32, 1.0, (0.0, 0.0), 0.2)
        with pytest.raises(ValueError):
            superpose_scalars([a, b])
