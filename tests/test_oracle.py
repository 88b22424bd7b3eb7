"""Quadrature oracle: reductions, closed-form checks, error estimates."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from vacbrownian import oracle
from vacbrownian.correlators import corr_normal_reg
from vacbrownian.dispersion import (
    EvalPoint,
    pos_disp_normal,
    pos_disp_transverse,
    vel_disp_normal,
    vel_disp_transverse,
)
from vacbrownian.dispersion import QUANTITIES
from vacbrownian.errors import (
    ExtrapolationError,
    LightconeSingularityError,
    QuadratureConvergenceError,
)
from vacbrownian.oracle import (
    GAUSS_WEIGHTS,
    KRONROD_WEIGHTS,
    NODES,
    TOL_POST_LIGHTCONE,
    TOL_PRE_LIGHTCONE,
    default_regulator,
    direct_time_integral,
    dispersion_oracle,
    reduced_time_integral,
    verify_grid,
    weight_position,
    weight_velocity,
)
from vacbrownian.units_constants import ParticleSpec, electron_preset, unit_preset

UNIT = unit_preset()


def up(t, z=1.0):
    return EvalPoint(t=t, z=z, particle=UNIT)


@pytest.fixture
def rule_calls(monkeypatch):
    """The rows of each `_gk21` call the test makes."""
    calls = []
    rule = oracle._gk21

    def counted(f, k, lo, hi):
        calls.append(len(k))
        return rule(f, k, lo, hi)

    monkeypatch.setattr(oracle, "_gk21", counted)
    return calls


class TestWeights:
    def test_velocity_weight(self):
        assert weight_velocity(0.0, 3.0) == 6.0
        assert weight_velocity(3.0, 3.0) == 0.0

    def test_position_weight(self):
        t = 1.7
        assert_allclose(weight_position(0.0, t), 2.0 * t**3 / 3.0, rtol=1e-15)
        assert weight_position(t, t) == 0.0


class TestTimeReduction:
    # The stationary double integral collapses onto a single weighted
    # integral; polynomial kernels have elementary targets for both forms.

    @pytest.mark.parametrize("kernel, target", [
        (lambda u: 1.0, lambda t: t**2),
        (abs, lambda t: t**3 / 3.0),
        (lambda u: u * u, lambda t: t**4 / 6.0),
    ])
    def test_velocity_reduction_analytic(self, kernel, target):
        t = 1.7
        assert_allclose(reduced_time_integral(kernel, t, "velocity"),
                        target(t), rtol=1e-12)

    @pytest.mark.parametrize("kernel, target", [
        (lambda u: 1.0, lambda t: t**4 / 4.0),
        (abs, lambda t: t**5 / 15.0),
        (lambda u: u * u, lambda t: t**6 / 36.0),
    ])
    def test_position_reduction_analytic(self, kernel, target):
        t = 1.7
        assert_allclose(reduced_time_integral(kernel, t, "position"),
                        target(t), rtol=1e-12)

    @pytest.mark.parametrize("kind", ["velocity", "position"])
    def test_reduction_matches_direct_2d(self, kind):
        t = 1.3
        for kernel in (lambda u: 1.0, abs, lambda u: u * u,
                       lambda u: math.cos(u)):
            assert_allclose(direct_time_integral(kernel, t, kind),
                            reduced_time_integral(kernel, t, kind), rtol=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            reduced_time_integral(abs, 1.0, "acceleration")

    @pytest.mark.parametrize("integral", [reduced_time_integral, direct_time_integral])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, 0.0])
    def test_time_must_be_finite_and_positive(self, integral, t):
        with pytest.raises(ValueError, match="finite and positive"):
            integral(abs, t, "velocity")

    @pytest.mark.parametrize("kernel", [lambda u: math.nan,
                                        lambda u: math.nan if u > 0.5 else 1.0])
    def test_nan_integrand_refused(self, kernel):
        # a NaN error estimate is over any budget, not under it
        with pytest.raises(QuadratureConvergenceError):
            reduced_time_integral(kernel, 1.0, "velocity")

    def test_round_off_refused(self):
        # (1 - cos(c u)) / c^2 loses about eps / c^2 to cancellation at every
        # node.  Halving stalls at an estimate of 6.8e-13, inside the 1e-11
        # budget, while the value is 3.0e-12 off; round-off detection refuses.
        c = 1e-3
        with pytest.raises(QuadratureConvergenceError, match="round-off"):
            reduced_time_integral(lambda u: (1.0 - math.cos(c * u)) / (c * c), 1.0, "velocity")

    def test_too_narrow_interval_refused(self):
        # The tolerance cannot be met next to an inverse square-root
        # singularity; halving toward it stops when the worst interval is too
        # narrow to halve, long before the 200 cap.
        with pytest.raises(QuadratureConvergenceError,
                           match=r"^an interval too narrow to halve after 47 intervals on \[0\.0, 1\.0\]"):
            reduced_time_integral(lambda u: abs(u - 1 / 3) ** -0.5 if u != 1 / 3 else 0.0,
                                  1.0, "velocity")

    def test_kernel_called_with_floats(self):
        seen = set()

        def kernel(u):
            seen.add(type(u))
            return u * u

        reduced_time_integral(kernel, 1.0, "position")
        assert seen == {float}


class TestRefusalPoint:
    """`_integrate` refuses a batch itself, at its first refused integral."""

    @staticmethod
    def nan_at(bad):
        def f(s, k):
            values = np.cos(s)
            values[np.isin(k, bad)] = math.nan
            return values
        return f

    def test_middle_integral_refused_first(self):
        # the third integral is refused too; the NaN one before it is raised
        with pytest.raises(QuadratureConvergenceError) as info:
            oracle._integrate(self.nan_at([1, 2]), [0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        assert str(info.value) == ("quadrature error estimate nan exceeds budget 1.000e-11 "
                                   "on [0.0, 2.0] within 200 subdivisions")

    def test_last_integral_refused(self):
        with pytest.raises(QuadratureConvergenceError) as info:
            oracle._integrate(self.nan_at([2]), [0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        assert str(info.value) == ("quadrature error estimate nan exceeds budget 1.000e-11 "
                                   "on [0.0, 3.0] within 200 subdivisions")

    def test_smooth_batch_returns_values_and_errors(self):
        values, errors = oracle._integrate(self.nan_at([]), [0.0, 0.0], [1.0, 2.0])
        assert_allclose(values, [math.sin(1.0), math.sin(2.0)], rtol=1e-14)
        assert all(0.0 <= e <= 1e-13 for e in errors)


class TestOracleAgainstClosedForms:
    def test_proper_regime(self):
        p = up(1.5)
        pairs = [
            (dispersion_oracle("velocity", "x", p), vel_disp_transverse(p)),
            (dispersion_oracle("velocity", "z", p), vel_disp_normal(p)),
            (dispersion_oracle("position", "x", p), pos_disp_transverse(p)),
            (dispersion_oracle("position", "z", p), pos_disp_normal(p)),
        ]
        for got, want in pairs:
            assert_allclose(got.value, want.value, rtol=1e-6)

    def test_crossing_regime(self):
        # just past the pole (2.2, 2.3) as well as clear of it (3.0)
        for ratio in (3.0, 2.2, 2.3):
            p = up(ratio)
            pairs = [
                (dispersion_oracle("velocity", "x", p), vel_disp_transverse(p)),
                (dispersion_oracle("velocity", "z", p), vel_disp_normal(p)),
                (dispersion_oracle("position", "x", p), pos_disp_transverse(p)),
                (dispersion_oracle("position", "z", p), pos_disp_normal(p)),
            ]
            for got, want in pairs:
                assert_allclose(got.value, want.value, rtol=TOL_POST_LIGHTCONE)

    def test_small_z(self):
        p = up(3.0 * 3.7e-5, z=3.7e-5)
        assert_allclose(dispersion_oracle("velocity", "z", p).value,
                        vel_disp_normal(p).value, rtol=1e-4)
        assert_allclose(dispersion_oracle("position", "z", p).value,
                        pos_disp_normal(p).value, rtol=1e-4)

    def test_electron_prefactor(self):
        p = EvalPoint(t=1.0, z=1.0, particle=electron_preset())
        assert_allclose(dispersion_oracle("velocity", "z", p).value,
                        vel_disp_normal(p).value, rtol=1e-6)

    def test_result_diagnostics(self):
        # one value, at regulator eps = 0, in caller units
        for ratio in (1.0, 3.0):
            result = dispersion_oracle("velocity", "z", up(ratio))
            assert 0.0 < result.error_estimate < abs(result.value)
            assert result.rungs == ((0.0, result.value),)

    def test_refuses_near_lightcone(self):
        with pytest.raises(LightconeSingularityError):
            dispersion_oracle("velocity", "z", up(2.0))

    @pytest.mark.parametrize("kind, p, message", [
        # z^2 underflows to zero, so e^2/(m^2 z^2) would be infinite
        ("velocity", EvalPoint(t=1e-200, z=1e-200, particle=UNIT),
         "velocity prefactor .* overflows"),
        # e^2/m^2 = 1e300 / 1e-300 lies beyond the largest double
        ("position", EvalPoint(t=1.0, z=1.0, particle=ParticleSpec(e=1e150, m=1e-150)),
         "position prefactor .* overflows"),
        # e^2/m^2 = 1e-320 / 1e300 rounds to zero
        ("position", EvalPoint(t=1.0, z=1.0, particle=ParticleSpec(e=1e-160, m=1e150)),
         "position prefactor .* underflows to zero"),
        # the prefactor 1e300 is finite; the value ~ 1e300 (t/2z)^2 / 2 is not
        ("position", EvalPoint(t=2e5, z=1.0, particle=ParticleSpec(e=1e150, m=1.0)),
         "leaves the float range"),
    ])
    def test_outside_float_range_refused(self, kind, p, message):
        with pytest.raises(ValueError, match=message):
            dispersion_oracle(kind, "z", p)

    @pytest.mark.parametrize("component, closed_form", [("x", vel_disp_transverse),
                                                        ("z", vel_disp_normal)])
    def test_prefactor_with_tiny_factors(self, component, closed_form):
        # e^2/m^2 and z^2 both round to zero; e^2/(m^2 z^2) = 1 does not
        p = EvalPoint(t=0.5e-300, z=1e-300, particle=ParticleSpec(e=1e-150, m=1e150))
        assert_allclose(dispersion_oracle("velocity", component, p).value,
                        closed_form(p).value, rtol=1e-13)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            dispersion_oracle("momentum", "z", up(1.0))
        with pytest.raises(ValueError):
            dispersion_oracle("velocity", "y", up(1.0))


class TestDefaultRegulator:
    def test_regime_split(self):
        pre = default_regulator(1.0, 1.0)
        post = default_regulator(1.0, 3.0)
        assert pre.eps0 < post.eps0
        assert_allclose(pre.eps0, 1e-4, rtol=1e-15)
        assert_allclose(post.eps0, 1e-2, rtol=1e-15)

    def test_scales_with_z(self):
        assert_allclose(default_regulator(2.0, 1.0).eps0, 2e-4, rtol=1e-15)


class TestVerifyGrid:
    def test_full_grid_passes(self):
        rows = verify_grid()
        assert len(rows) == 36
        assert all(row.passed for row in rows)

    def test_grid_selection(self):
        assert len(verify_grid(grid="pre-lightcone")) == 20
        assert len(verify_grid(grid="post-lightcone")) == 16
        with pytest.raises(ValueError):
            verify_grid(grid="everywhere")

    def test_rows_are_quantity_major(self):
        rows = verify_grid(grid="pre-lightcone")
        quantities = [row.quantity for row in rows]
        assert quantities == sorted(quantities, key=quantities.index)
        assert quantities[0] == quantities[4]  # five ratios per quantity

    def test_residuals_recorded(self):
        for row in verify_grid(grid="post-lightcone"):
            assert row.rel_err >= 0.0
            assert row.eps_estimate >= 0.0
            assert row.closed != 0.0

    def test_tolerance_override(self):
        # one tolerance holds every row, before the lightcone and beyond
        rows = verify_grid(tolerance=1e-16)
        assert not all(row.passed for row in rows if row.t_over_z < 2.0)
        assert not all(row.passed for row in rows if row.t_over_z > 2.0)
        assert all(row.passed == (row.rel_err == 0.0) for row in verify_grid(tolerance=0.0))
        # without one, each row keeps its own tier
        for row in verify_grid():
            tol = TOL_PRE_LIGHTCONE if row.t_over_z < 2.0 else TOL_POST_LIGHTCONE
            assert row.passed == (row.rel_err <= tol), (row.quantity, row.t_over_z)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf, -math.inf])
    def test_bad_tolerance_refused(self, tolerance):
        with pytest.raises(ValueError, match="need a finite tolerance >= 0"):
            verify_grid(tolerance=tolerance)


def closed_form_mp(quantity, p):
    """The closed form in the `dispersion` docstring at p's float inputs, to 50 digits."""
    e, m, t, z = (mpmath.mpf(v) for v in (p.particle.e, p.particle.m, p.t, p.z))
    x = t / (2 * z)
    log_ratio = mpmath.log((1 + x) / abs(1 - x))
    log_gap = mpmath.log(abs(1 - x * x))
    bracket = {
        "vel_disp_transverse": x / 16 * log_ratio + x**2 / (8 * (1 - x**2)),
        "vel_disp_normal": x / 8 * log_ratio,
        "pos_disp_transverse": x**3 / 12 * log_ratio - x**2 / 6 - log_gap / 6,
        "pos_disp_normal": x**2 / 6 + x**3 / 6 * log_ratio + log_gap / 6,
    }[quantity]
    prefactor = e**2 / (mpmath.pi**2 * m**2)
    if quantity.startswith("vel_"):
        prefactor /= z**2
    return prefactor * bracket


class TestErrorEstimate:
    # The oracle must agree or refuse: its error estimate has to cover its
    # actual error against the exact closed form on every verify row.
    @pytest.mark.parametrize("particle, z", [(UNIT, 1.0), (electron_preset(), 1e-6), (UNIT, 3.7)])
    def test_estimate_covers_error(self, particle, z):
        with mpmath.workdps(50):
            for row in verify_grid(particle, z):
                p = EvalPoint(t=row.t_over_z * z, z=z, particle=particle)
                error = abs(row.oracle - closed_form_mp(row.quantity, p))
                assert row.eps_estimate >= error, (row.quantity, row.t_over_z)

    # Next to the pole the estimate must also cover the rounding that the
    # quadrature estimate cannot see, and no point is refused.  The last two
    # cases are oracle_audit points (seeds 401 and 402) once short of it.
    NEAR_LIGHTCONE = [2.0 * (1.0 + sign * k * 1e-4) for sign in (-1, 1) for k in range(1, 6)]
    NEAR_LIGHTCONE += [1.9999, 2.0001, 2.01]  # 1.999 and 2.001 are k = 5

    @pytest.mark.parametrize("particle, z, points", [
        (UNIT, 1.0, [(q, r) for r in NEAR_LIGHTCONE for q in QUANTITIES]),
        (electron_preset(), 1e-6, [(q, r) for r in NEAR_LIGHTCONE for q in QUANTITIES]),
        (electron_preset(), 1.1530100731556522e-05, [("pos_disp_transverse", 1.9431532761222914)]),
        (electron_preset(), 6.307902790603137e-09, [("vel_disp_transverse", 1.9909287481841262)]),
    ], ids=["unit-1.0", "electron-1e-06", "electron-seed401", "electron-seed402"])
    def test_estimate_covers_error_near_lightcone(self, particle, z, points):
        with mpmath.workdps(50):
            for quantity_id, ratio in points:
                quantity = QUANTITIES[quantity_id]
                p = EvalPoint(t=ratio * z, z=z, particle=particle)
                result = dispersion_oracle(quantity.kind, quantity.component, p)
                error = abs(result.value - closed_form_mp(quantity_id, p))
                assert result.error_estimate >= error, (quantity_id, ratio)


class TestGaussKronrodRule:
    # QUADPACK's qk21: K21 integrates polynomials of degree <= 31 exactly, its
    # embedded G10 those of degree <= 19.
    @pytest.mark.parametrize("weights, degree", [(KRONROD_WEIGHTS, 31), (GAUSS_WEIGHTS, 19)])
    def test_monomials_exact(self, weights, degree):
        assert_allclose(weights.sum(), 2.0, rtol=1e-15)
        for d in range(degree + 1):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs((weights * NODES**d).sum() - exact) < 4e-16, d

    def test_gauss_nodes_are_legendre_roots(self):
        gauss_nodes = NODES[GAUSS_WEIGHTS != 0.0]
        assert len(gauss_nodes) == 10
        with mpmath.workdps(30):
            for x in gauss_nodes:
                assert abs(mpmath.legendre(10, x)) < 1e-14


class TestBatchIndependence:
    # Each integral's value depends on its own intervals only, so a point
    # computed alone and inside the 36-row verify batch agrees to the bit.
    @pytest.mark.parametrize("particle, z", [(UNIT, 1.0), (electron_preset(), 1e-6)])
    def test_single_point_equals_verify_row(self, particle, z):
        for row in verify_grid(particle, z):
            quantity = QUANTITIES[row.quantity]
            p = EvalPoint(t=row.t_over_z * z, z=z, particle=particle)
            alone = dispersion_oracle(quantity.kind, quantity.component, p)
            assert (alone.value, alone.error_estimate) == (row.oracle, row.eps_estimate), \
                (row.quantity, row.t_over_z)

    @pytest.mark.parametrize("quantity", QUANTITIES.values(), ids=lambda q: q.id)
    def test_mixed_batch_equals_points_alone(self, quantity):
        # Deep points next to shallow ones: alone, a point's halvings run the
        # rule up to three levels ahead; in this batch of five, fewer.  Only
        # the number of rule calls may differ, not a bit of any result.
        ratios = (1.999, 0.5, 2.0001, 10.0, 1e4)
        plans = [oracle._plan(quantity.kind, up(ratio)) for ratio in ratios]
        batch = oracle._results(plans, oracle._scaled(quantity.kind, quantity.component,
                                                      [T for T, _ in plans]))
        for ratio, result in zip(ratios, batch):
            alone = dispersion_oracle(quantity.kind, quantity.component, up(ratio))
            assert (alone.value, alone.error_estimate) == (result.value, result.error_estimate), \
                ratio


class TestLookAhead:
    # The contour batches run the rule ahead on the descendants of the halves
    # they need; one rule call per pass, as with the integrals of a caller's f,
    # took 14 calls for the far-band point below and 19 for the verify grid.
    def test_far_band_point_in_few_rule_calls(self, rule_calls):
        dispersion_oracle("velocity", "x", up(1e4))
        assert len(rule_calls) <= 7
        assert max(rule_calls) <= oracle._LOOKAHEAD_ROWS

    def test_verify_grid_needs_no_more_rule_calls(self, rule_calls, cold_oracle_memo):
        verify_grid()
        assert len(rule_calls) <= 19

    def test_caller_kernel_not_run_ahead(self):
        # 9 rule rows of 21 nodes, as with one rule call per pass
        calls = [0]

        def kernel(u):
            calls[0] += 1
            return corr_normal_reg(u, 1.0, 1e-4)

        reduced_time_integral(kernel, 1.9, "velocity")
        assert calls[0] == 9 * 21


class TestVerifyMemo:
    # verify_grid keeps each scaled integral, keyed on (kind, component, t/z),
    # so a later grid at any particle and z runs only the t/z it has not seen.
    def test_warm_grid_runs_no_quadrature(self, rule_calls, cold_oracle_memo):
        verify_grid(UNIT, 1.0)
        assert rule_calls
        rule_calls.clear()
        verify_grid(electron_preset(), 2.0)  # t/z is each ratio exactly
        assert rule_calls == []

    @pytest.mark.parametrize("z", [1.0, 3.7])
    def test_warm_rows_equal_cold_rows(self, cold_oracle_memo, z):
        if z == 3.7:  # two t/z one ulp off their ratios miss the memo
            off = [r for r in oracle._GRID_RATIOS["full"] if (r * z) / z != r]
            assert off == [1.5, 3.0]
        cold = repr(verify_grid(UNIT, z))
        cold_oracle_memo.clear()
        verify_grid(electron_preset(), 0.5)
        assert repr(verify_grid(UNIT, z)) == cold

    def test_memo_stays_within_its_bound(self, cold_oracle_memo):
        # z from 1e-311, subnormal, where t/z lands off the ratios, to 1e-306;
        # this particle keeps both prefactors inside the float range there
        particle = ParticleSpec(e=3e-5, m=1e153)
        sizes = []
        for z in np.geomspace(1e-311, 1e-306, 30).tolist():
            verify_grid(particle, z)
            sizes.append(len(cold_oracle_memo))
        assert max(sizes) <= oracle._MEMO_ENTRIES
        assert any(b < a for a, b in zip(sizes, sizes[1:]))  # the bound was reached

    def test_single_points_leave_memo_alone(self, cold_oracle_memo):
        verify_grid()
        before = dict(cold_oracle_memo)
        for ratio in (1.5, 3.0, 7.0):
            dispersion_oracle("velocity", "x", up(ratio))
            dispersion_oracle("position", "z", up(ratio * 3.7, 3.7))
        assert cold_oracle_memo == before


class TestFarBand:
    # Past t/z = 1e2 the contour integrals cancel to O(T^-2) from O(T) pieces.
    # The oracle may refuse there, but any value it returns must carry an
    # error estimate that covers its error against the exact closed form.
    @pytest.mark.parametrize("ratio", [1e2, 1e3, 1e4, 1e5, 1e6])
    def test_refuses_or_estimate_covers_error(self, ratio):
        p = up(ratio)
        for quantity in QUANTITIES.values():
            try:
                result = dispersion_oracle(quantity.kind, quantity.component, p)
            except (QuadratureConvergenceError, ExtrapolationError):
                continue
            with mpmath.workdps(50):
                error = abs(result.value - closed_form_mp(quantity.id, p))
            assert result.error_estimate >= error, quantity.id
            assert result.error_estimate < abs(result.value), quantity.id

    @pytest.mark.parametrize("ratio", [1e5, 1e6])
    def test_value_without_significant_digit_refused(self, ratio):
        # the transverse velocity's pieces cancel to a value smaller than
        # its own error estimate
        with pytest.raises(ExtrapolationError, match="no significant digit"):
            dispersion_oracle("velocity", "x", up(ratio))
