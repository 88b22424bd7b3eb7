"""Closed-form dispersions, the quantity registry, asymptotes, and the small-t series."""

from __future__ import annotations

import json
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from vacbrownian import dispersion
from vacbrownian.cli_io import main
from vacbrownian.dispersion import (
    LARGE_X,
    QUANTITIES,
    QUANTITY_IDS,
    EvalPoint,
    pos_disp_normal,
    pos_disp_normal_asym,
    pos_disp_transverse,
    pos_disp_transverse_asym,
    small_t_series,
    vel_disp_normal,
    vel_disp_normal_asym,
    vel_disp_transverse,
    vel_disp_transverse_asym,
)
from vacbrownian.errors import LightconeSingularityError
from vacbrownian.oracle import dispersion_oracle
from vacbrownian.units_constants import ParticleSpec, electron_preset, unit_preset

PI_SQ = math.pi ** 2
LN3 = math.log(3.0)
LN5 = math.log(5.0)

UNIT = unit_preset()


def up(t, z=1.0, **kw):
    return EvalPoint(t=t, z=z, particle=UNIT, **kw)


class TestExactPoints:
    # Hand-reduced values at x = t/2z in {1/2, 3/2}, e = m = z = 1.
    # Logs stay symbolic so the expected values carry no rounding of
    # their own.

    def test_velocity_transverse_pre(self):
        expected = (LN3 / 32.0 + 1.0 / 24.0) / PI_SQ
        assert_allclose(vel_disp_transverse(up(1.0)).value, expected, rtol=1e-14)

    def test_velocity_normal_pre(self):
        expected = LN3 / (16.0 * PI_SQ)
        assert_allclose(vel_disp_normal(up(1.0)).value, expected, rtol=1e-14)

    def test_position_transverse_pre(self):
        expected = (LN3 / 96.0 - 1.0 / 24.0 + math.log(4.0 / 3.0) / 6.0) / PI_SQ
        assert_allclose(pos_disp_transverse(up(1.0)).value, expected, rtol=1e-14)

    def test_position_normal_pre(self):
        expected = (1.0 / 24.0 + LN3 / 48.0 + math.log(3.0 / 4.0) / 6.0) / PI_SQ
        assert_allclose(pos_disp_normal(up(1.0)).value, expected, rtol=1e-14)

    def test_velocity_transverse_post(self):
        # x = 3/2: (3/32) ln5 + (9/4) / (8 (1 - 9/4))
        expected = (3.0 * LN5 / 32.0 - 0.225) / PI_SQ
        assert_allclose(vel_disp_transverse(up(3.0)).value, expected, rtol=1e-14)

    def test_velocity_normal_post(self):
        expected = (3.0 * LN5 / 16.0) / PI_SQ
        assert_allclose(vel_disp_normal(up(3.0)).value, expected, rtol=1e-14)

    def test_position_transverse_post(self):
        x = 1.5
        expected = (x**3 * LN5 / 12.0 - x**2 / 6.0
                    - math.log(x**2 - 1.0) / 6.0) / PI_SQ
        assert_allclose(pos_disp_transverse(up(3.0)).value, expected, rtol=1e-14)

    def test_position_normal_post(self):
        x = 1.5
        expected = (x**2 / 6.0 + x**3 * LN5 / 6.0
                    + math.log(x**2 - 1.0) / 6.0) / PI_SQ
        assert_allclose(pos_disp_normal(up(3.0)).value, expected, rtol=1e-14)


class TestStructure:
    def test_early_time_signs(self):
        # all four dispersions start positive
        p = up(0.5)
        assert vel_disp_transverse(p).value > 0.0
        assert vel_disp_normal(p).value > 0.0
        assert pos_disp_transverse(p).value > 0.0
        assert pos_disp_normal(p).value > 0.0

    def test_late_time_signs(self):
        for ratio in (10.0, 30.0, 100.0):
            p = up(ratio)
            assert vel_disp_transverse(p).value < 0.0
            assert vel_disp_normal(p).value > 0.0
            assert pos_disp_transverse(p).value < 0.0
            assert pos_disp_normal(p).value > 0.0

    @given(
        st.floats(min_value=0.05, max_value=8.0).filter(lambda r: abs(r - 2.0) > 0.05),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.3, max_value=3.0),
    )
    @settings(max_examples=60)
    def test_charge_mass_prefactor(self, ratio, e, m):
        # every dispersion scales as e^2 / m^2
        base = up(ratio)
        scaled = EvalPoint(t=ratio, z=1.0, particle=ParticleSpec(e=e, m=m))
        factor = (e / m) ** 2
        for fn in (vel_disp_transverse, vel_disp_normal,
                   pos_disp_transverse, pos_disp_normal):
            assert_allclose(fn(scaled).value, factor * fn(base).value, rtol=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=8.0).filter(lambda r: abs(r - 2.0) > 0.05),
        st.floats(min_value=1e-7, max_value=1e3),
    )
    @settings(max_examples=60)
    def test_z_scaling(self, ratio, z):
        # velocities carry 1/z^2; positions depend on t/z only
        ref = up(ratio)
        moved = up(ratio * z, z=z)
        assert_allclose(vel_disp_transverse(moved).value,
                        vel_disp_transverse(ref).value / z**2, rtol=1e-12)
        assert_allclose(vel_disp_normal(moved).value,
                        vel_disp_normal(ref).value / z**2, rtol=1e-12)
        assert_allclose(pos_disp_transverse(moved).value,
                        pos_disp_transverse(ref).value, rtol=1e-12)
        assert_allclose(pos_disp_normal(moved).value,
                        pos_disp_normal(ref).value, rtol=1e-12)

    def test_result_metadata(self):
        r = vel_disp_normal(up(0.5))
        assert r.component == "z"
        assert r.kind == "velocity"
        assert r.near_lightcone is False
        r = pos_disp_transverse(up(0.5))
        assert r.component == "x"
        assert r.kind == "position"
        # an asymptote refuses only t <= 2z, so it can return a point in the window
        assert vel_disp_normal_asym(up(2.0 * (1.0 + 1e-7))).near_lightcone is True


class TestLightconeWindow:
    def test_refuses_on_the_cone(self):
        for fn in (vel_disp_transverse, vel_disp_normal,
                   pos_disp_transverse, pos_disp_normal):
            with pytest.raises(LightconeSingularityError):
                fn(up(2.0))

    def test_window_scales_with_z(self):
        z = 3.7e-5
        with pytest.raises(LightconeSingularityError):
            vel_disp_normal(EvalPoint(t=2.0 * z + 1e-7 * z, z=z, particle=UNIT))
        vel_disp_normal(EvalPoint(t=2.0 * z + 1e-5 * z, z=z, particle=UNIT))

    def test_window_holds_for_subnormal_z(self, capsys):
        # DEFAULT_LIGHTCONE_DELTA * z underflows to zero here; t = 2z is
        # still on the cone, and every route refuses it as such
        p = up(2e-320, z=1e-320)
        assert p.near_lightcone is True
        for fn in (vel_disp_transverse, vel_disp_normal,
                   pos_disp_transverse, pos_disp_normal):
            with pytest.raises(LightconeSingularityError):
                fn(p)
        with pytest.raises(LightconeSingularityError):
            dispersion_oracle("position", "z", p)
        assert main(["eval", "--particle", "unit", "--z", "1e-320", "--t-over-z", "2",
                     "--quantity", "pos_disp_normal"]) == 3
        assert "lightcone" in capsys.readouterr().err

    def test_eval_point_validation(self):
        with pytest.raises(ValueError):
            EvalPoint(t=0.0, z=1.0, particle=UNIT)
        with pytest.raises(ValueError):
            EvalPoint(t=1.0, z=-1.0, particle=UNIT)

    @pytest.mark.parametrize("t, z", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan),
        (-math.inf, 1.0), (1e300, 1e-300),  # the last: finite t and z, t/z overflows
    ])
    def test_eval_point_rejects_non_finite(self, t, z):
        with pytest.raises(ValueError, match="finite"):
            EvalPoint(t=t, z=z, particle=UNIT)

    def test_eval_point_properties(self):
        p = up(3.0)
        assert p.t_over_z == 3.0
        assert p.x == 1.5
        assert p.near_lightcone is False
        assert up(2.0 + 1e-9).near_lightcone is True


class TestPrefactorRange:
    def test_velocity_prefactor_overflow_is_refused(self):
        # z^2 underflows to zero, so A = e^2/(pi^2 m^2 z^2) would be infinite
        p = EvalPoint(t=0.5e-300, z=1e-300, particle=UNIT)
        for fn in (vel_disp_transverse, vel_disp_normal):
            with pytest.raises(ValueError, match="velocity prefactor .* overflows"):
                fn(p)
        with pytest.raises(ValueError, match="overflows"):
            small_t_series("vel_disp_normal", p)

    def test_velocity_prefactor_underflow_is_refused(self):
        p = EvalPoint(t=0.5e300, z=1e300, particle=UNIT)
        with pytest.raises(ValueError, match="velocity prefactor .* underflows to zero"):
            vel_disp_normal(p)

    def test_position_prefactor_does_not_depend_on_z(self):
        p = EvalPoint(t=0.5e-300, z=1e-300, particle=UNIT)
        assert math.isfinite(pos_disp_normal(p).value)

    def test_position_prefactor_overflow_is_refused(self):
        # e^2 / m^2 = 1e200 / 1e-200 lies beyond the largest double
        spec = ParticleSpec(e=1e100, m=1e-100)
        with pytest.raises(ValueError, match="position prefactor .* overflows"):
            pos_disp_normal(EvalPoint(t=0.5, z=1.0, particle=spec))


class TestAsymptotes:
    def test_domain_requires_post_lightcone(self):
        for fn in (vel_disp_transverse_asym, vel_disp_normal_asym,
                   pos_disp_transverse_asym, pos_disp_normal_asym):
            with pytest.raises(ValueError):
                fn(up(1.0))
            fn(up(2.5))  # does not raise

    def test_velocity_normal_asym_closure(self):
        # late-time agreement is limited only by the truncated 1/t^4 tail
        p = up(500.0)
        assert_allclose(vel_disp_normal_asym(p).value,
                        vel_disp_normal(p).value, rtol=1e-8)

    def test_velocity_transverse_asym_closure(self):
        p = up(500.0)
        assert_allclose(vel_disp_transverse_asym(p).value,
                        vel_disp_transverse(p).value, rtol=1e-4)

    def test_position_normal_asym_closure(self):
        p = up(500.0)
        assert_allclose(pos_disp_normal_asym(p).value,
                        pos_disp_normal(p).value, rtol=1e-5)

    def test_position_transverse_asym_known_gap(self):
        # this asymptote drops a constant; the gap closes only as 1/ln(t/2z)
        p = up(100.0)
        closed = pos_disp_transverse(p).value
        approx = pos_disp_transverse_asym(p).value
        gap = abs(approx - closed) / abs(closed)
        assert 0.02 < gap < 0.08

    def test_velocity_normal_asym_constant_term(self):
        # the t -> infinity limit is e^2 / (4 pi^2 m^2 z^2)
        p = up(1e9)
        assert_allclose(vel_disp_normal_asym(p).value, 1.0 / (4.0 * PI_SQ),
                        rtol=1e-12)

    # Reference: the printed asymptotes, each written out term by term in t and z.
    PRINTED = {
        "vel_disp_transverse": lambda e, m, t, z: (
            -e**2 / (3.0 * PI_SQ * m**2 * t**2) - 8.0 * e**2 * z**2 / (5.0 * PI_SQ * m**2 * t**4)),
        "vel_disp_normal": lambda e, m, t, z: (
            e**2 / (4.0 * PI_SQ * m**2 * z**2) + e**2 / (3.0 * PI_SQ * m**2 * t**2)),
        "pos_disp_transverse": lambda e, m, t, z: (
            -e**2 / (3.0 * PI_SQ * m**2) * math.log(t / (2.0 * z))),
        "pos_disp_normal": lambda e, m, t, z: (
            e**2 / (PI_SQ * m**2)
            * (t**2 / (8.0 * z**2) + math.log(t / (2.0 * z)) / 3.0 + 1.0 / 9.0)),
    }

    @pytest.mark.parametrize("spec, z", [(UNIT, 1.0), (electron_preset(), 1e-6), (UNIT, 3.7)],
                             ids=["unit-1", "electron-1e-6", "unit-3.7"])
    @pytest.mark.parametrize("qid", QUANTITY_IDS)
    def test_truncated_series_match_printed_forms(self, qid, spec, z):
        # each asymptote is the large-x series cut after a fixed number of terms
        asym = getattr(dispersion, qid + "_asym")
        for i in range(1, 401):  # t/z from just above 2 up to 1e12
            ratio = 2.0 * (5e11) ** (i / 400)
            p = EvalPoint(t=ratio * z, z=z, particle=spec)
            printed = self.PRINTED[qid](spec.e, spec.m, p.t, p.z)
            assert_allclose(asym(p).value, printed, rtol=1e-15, atol=0.0)


class TestSmallTimeSeries:
    def test_leading_orders(self):
        # velocities open at x^2 / 4, positions at x^4 / 4 (x = t/2z)
        x = 1e-4
        p = up(2.0 * x)
        assert_allclose(small_t_series("vel_disp_transverse", p).value,
                        x**2 / 4.0 / PI_SQ, rtol=1e-7)
        assert_allclose(small_t_series("vel_disp_normal", p).value,
                        x**2 / 4.0 / PI_SQ, rtol=1e-7)
        assert_allclose(small_t_series("pos_disp_transverse", p).value,
                        x**4 / 4.0 / PI_SQ, rtol=1e-7)
        assert_allclose(small_t_series("pos_disp_normal", p).value,
                        x**4 / 4.0 / PI_SQ, rtol=1e-7)

    @pytest.mark.parametrize("q", QUANTITIES.values(), ids=lambda q: q.id)
    def test_matches_closed_form(self, q):
        # each registry entry agrees with its public function, its Taylor
        # series and the quadrature oracle
        fn = getattr(dispersion, q.id)
        p = up(1e-3)
        closed = fn(p)
        assert (closed.kind, closed.component) == (q.kind, q.component)
        assert_allclose(small_t_series(q.id, p).value, closed.value, rtol=1e-10)
        p = up(1.5)
        assert_allclose(dispersion_oracle(q.kind, q.component, p).value,
                        fn(p).value, rtol=1e-6)

    def test_truncation_bound_is_honest(self):
        p = up(0.9)  # x = 0.45: bounds of 1e-8 to 6e-8 relative, errors 2e-10 to 3e-9
        for qid, fn in zip(QUANTITY_IDS,
                           (vel_disp_transverse, vel_disp_normal,
                            pos_disp_transverse, pos_disp_normal)):
            closed = fn(p).value
            sv = small_t_series(qid, p)
            assert abs(sv.value - closed) <= sv.truncation_bound

    def test_domain_and_argument_validation(self):
        with pytest.raises(ValueError):
            small_t_series("vel_disp_normal", up(1.5))  # needs t < z
        with pytest.raises(ValueError):
            small_t_series("not_a_quantity", up(0.5))


class TestDirectAccuracy:
    # The closed forms against a 60-digit evaluation of the brackets in the
    # module docstring, down to t/z = 1e-9, where the position brackets
    # cancel to O(x^4), and up to 1e12, where the transverse ones cancel to
    # O(1/x^2) or O(ln x) out of O(x^2).  With e = m = z = 1 the value is
    # the bracket over pi^2.

    @staticmethod
    def reference(qid, x):
        x = mpmath.mpf(x)
        log_ratio = mpmath.log((1 + x) / abs(1 - x))
        log_gap = mpmath.log(abs(1 - x * x))
        bracket = {
            "vel_disp_transverse": x / 16 * log_ratio + x**2 / (8 * (1 - x**2)),
            "vel_disp_normal": x / 8 * log_ratio,
            "pos_disp_transverse": x**3 / 12 * log_ratio - x**2 / 6 - log_gap / 6,
            "pos_disp_normal": x**2 / 6 + x**3 / 6 * log_ratio + log_gap / 6,
        }[qid]
        return bracket / mpmath.pi**2

    @pytest.mark.parametrize("qid", QUANTITY_IDS)
    def test_small_t_relative_error(self, qid):
        fn = getattr(dispersion, qid)
        worst = 0
        with mpmath.workdps(60):
            for i in range(201):
                p = up(10.0 ** (-9.0 + 7.0 * i / 200))  # t/z from 1e-9 to 1e-2
                ref = self.reference(qid, p.x)
                worst = max(worst, abs(fn(p).value - ref) / abs(ref))
        assert worst <= 2e-15

    @pytest.mark.parametrize("qid", QUANTITY_IDS)
    def test_whole_domain_relative_error(self, qid):
        # a log grid over t/z in [1e-9, 1e12], both sides of the crossover
        # at LARGE_X, and points just outside the lightcone window
        ratios = [10.0 ** (-9.0 + 21.0 * i / 840) for i in range(841)]
        ratios += [2.0 * LARGE_X * (1.0 + s * 1e-12) for s in (-1, 1)]
        ratios += [2.0 * (1.0 + s * k * 1e-6) for k in range(1, 51) for s in (-1, 1)]
        fn = getattr(dispersion, qid)
        worst = 0
        with mpmath.workdps(60):
            for ratio in ratios:
                p = up(ratio)
                ref = self.reference(qid, p.x)
                worst = max(worst, abs(fn(p).value - ref) / abs(ref))
        assert worst <= 1e-13


class TestHugeRatios:
    # x^2 overflows past t/z ~ 1e154; only the pos_disp_normal pair, led by
    # x^2/2, genuinely leaves the float range (at t/z = 1e300)

    @pytest.mark.parametrize("ratio", [1e12, 1e100, 1e300])
    @pytest.mark.parametrize("name", [q + s for q in QUANTITY_IDS for s in ("", "_asym")])
    def test_finite_or_refused(self, name, ratio):
        fn = getattr(dispersion, name)
        try:
            value = fn(up(ratio)).value
        except ValueError as exc:
            assert name.startswith("pos_disp_normal") and ratio == 1e300
            assert "float range" in str(exc)
        else:
            assert math.isfinite(value)
            assert not (name.startswith("pos_disp_normal") and ratio == 1e300)


class TestHugeZ:
    # 2z overflows past z ~ 9e307; x = t/2z and the lightcone test must not form it

    @pytest.mark.parametrize("z", [1e307, 1e308, 1.7e308])
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0])  # t = ratio * z stays finite
    def test_position_forms_do_not_depend_on_z(self, z, ratio):
        p = up(ratio * z, z=z)
        assert p.x == 0.5 * ratio
        assert p.near_lightcone is False
        for fn in (pos_disp_transverse, pos_disp_normal):
            assert fn(p).value == fn(up(ratio)).value

    def test_lightcone_window_at_huge_z(self):
        z = 8e307  # 2z is still finite here
        assert up(2.0 * z, z=z).near_lightcone is True
        assert up(2.0 * z * (1.0 + 1e-5), z=z).near_lightcone is False

    def test_eval_cli_at_huge_z(self, capsys):
        printed = []
        for z in ("1e307", "1e308"):
            assert main(["eval", "--particle", "unit", "--z", z, "--t-over-z", "1",
                         "--quantity", "pos_disp_normal"]) == 0
            printed.append(json.loads(capsys.readouterr().out)["quantities"])
        assert printed[0] == printed[1]
        assert printed[1]["pos_disp_normal"]["value_natural"] != 0.0
