"""Quadrature oracle: reductions, closed-form checks, error estimates."""

from __future__ import annotations

import itertools
import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from conftest import assert_allclose

from vacbrownian import oracle
from vacbrownian.correlators import (
    corr_normal_reg,
    corr_transverse,
    normal_kernel_complex,
    transverse_kernel_complex,
)
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
    VacBrownianError,
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
EPS = sys.float_info.epsilon


def up(t, z=1.0):
    return EvalPoint(t=t, z=z, particle=UNIT)


def bits(values):
    """Each float's bit pattern, every NaN as one: equal lists are equal bit for
    bit, NaN for NaN."""
    return [None if math.isnan(v) else struct.pack("<d", v) for v in values]


@pytest.fixture
def rule_calls(monkeypatch):
    """The rows of each `_gk21` call the test makes."""
    calls = []
    rule = oracle._gk21

    def counted(f, lo, hi):
        calls.append(len(lo))
        return rule(f, lo, hi)

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
        # a NaN error estimate is refused as such, not blamed on round-off or
        # on the subdivision budget
        with pytest.raises(QuadratureConvergenceError, match=r"^a non-finite integrand or rule "
                           r"sum on \[0\.0, 1\.0\] makes the quadrature error estimate nan$"):
            reduced_time_integral(kernel, 1.0, "velocity")

    def test_round_off_refused(self):
        # (1 - cos(c u)) / c^2 loses about eps / c^2 to cancellation at every
        # node.  Halving stalls at an estimate of 6.8e-13, inside the 1e-11
        # budget, while the value is 3.0e-12 off; round-off detection refuses.
        c = 1e-3
        with pytest.raises(QuadratureConvergenceError, match="round-off"):
            reduced_time_integral(lambda u: (1.0 - math.cos(c * u)) / (c * c), 1.0, "velocity")

    @pytest.mark.parametrize("kind", ["velocity", "position"])
    def test_rising_errors_refused(self, rule_calls, kind):
        # cos(100 u) under a 1 % sawtooth of period 1.4e-7, far finer than any
        # interval: each halving moves the value by more than 1e-5 of it, so
        # QUADPACK's first round-off count (iroff1) stays low, but the halves'
        # errors add to more than their parent's, and from the 11th interval on
        # its second count (iroff2) reaches 20 and stops the integral after 62
        # (velocity) or 60 (position) rule calls.  Without that count the 200
        # cap ends it over budget.
        def kernel(u):
            return math.cos(100.0 * u) + 0.01 * ((u * 7.3890560989306495e6) % 1.0 - 0.5)

        with pytest.raises(QuadratureConvergenceError, match=r"^round-off error on \[0\.0, 1\.0\] "
                           r"keeps the quadrature error estimate"):
            reduced_time_integral(kernel, 1.0, kind)
        assert len(rule_calls) < 100

    def test_too_narrow_interval_refused(self):
        # The tolerance cannot be met next to an inverse square-root
        # singularity; halving toward it stops when the worst interval is too
        # narrow to halve, long before the 200 cap.
        with pytest.raises(QuadratureConvergenceError,
                           match=r"^an interval too narrow to halve after 47 intervals on \[0\.0, 1\.0\]"):
            reduced_time_integral(lambda u: abs(u - 1 / 3) ** -0.5 if u != 1 / 3 else 0.0,
                                  1.0, "velocity")

    def test_over_budget_refused(self):
        # 200 subdivisions leave sin(3000 u) on [0, 1] far above its tolerance
        with pytest.raises(QuadratureConvergenceError,
                           match=r"exceeds budget .* within 200 subdivisions"):
            reduced_time_integral(lambda u: math.sin(3e3 * u), 1.0, "velocity")

    def test_kernel_called_with_floats(self):
        seen = set()

        def kernel(u):
            seen.add(type(u))
            return u * u

        reduced_time_integral(kernel, 1.0, "position")
        assert seen == {float}


class TestRefusalPoint:
    """`_integrate` refuses its one integral itself, and a caller that runs
    several refuses at its first refused one: `direct_time_integral` runs, at
    each outer node u, the inner integral's left half [0, u] and then its
    right half [u, t]."""

    # the first outer node of [0, 1], where the first inner integrals run
    FIRST_NODE = 0.5 + 0.5 * NODES[0]

    @staticmethod
    def refusal(left, right):
        with pytest.raises(QuadratureConvergenceError) as info:
            direct_time_integral(lambda d: math.nan if (d < 0.0 and right or d > 0.0 and left)
                                 else math.cos(d), 1.0, "velocity")
        return str(info.value)

    def test_middle_integral_refused_first(self):
        # both halves are refused; the left one, run first, is raised
        assert self.refusal(left=True, right=True) == (
            f"a non-finite integrand or rule sum on [0.0, {self.FIRST_NODE!r}] makes the "
            "quadrature error estimate nan")

    def test_last_integral_refused(self):
        assert self.refusal(left=False, right=True) == (
            f"a non-finite integrand or rule sum on [{self.FIRST_NODE!r}, 1.0] makes the "
            "quadrature error estimate nan")

    def test_smooth_batch_returns_values_and_errors(self):
        for b in (1.0, 2.0):
            value, error = oracle._integrate(lambda x: [math.cos(u) for u in x], 0.0, b)
            assert_allclose(value, math.sin(b), rtol=1e-14)
            assert 0.0 <= error <= 1e-13

    def test_error_equal_to_its_tolerance_is_done(self, rule_calls):
        # c u^3 on [-1, 1], at the c where the rule's error estimate is EPSABS
        # itself, bit for bit, and the value far below EPSABS / EPSREL: an
        # error equal to its tolerance meets it, so the first rule call
        # settles the integral and nothing is halved
        c = 18.014095632325315
        value, error = oracle._integrate(lambda x: [c * u * u * u for u in x], -1.0, 1.0)
        assert error == oracle.EPSABS and oracle.EPSREL * abs(value) < oracle.EPSABS
        assert rule_calls == [1]


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

    @pytest.mark.parametrize("charge, estimate", [(1e-160, r"0\.0"), (1e-150, r"1\.39505813e-316")],
                             ids=["zero", "subnormal"])
    def test_estimate_below_smallest_normal_refused(self, charge, estimate):
        # e^2/m^2 = 1e-320 or 1e-300: the value is a subnormal or normal float,
        # but its error estimate underflows and covers nothing
        p = EvalPoint(t=2.5, z=1.0, particle=ParticleSpec(e=charge, m=1.0))
        with pytest.raises(ValueError, match=rf"^error estimate {estimate} at t/z = 2\.5 is "
                                             r"below the smallest normal float$"):
            dispersion_oracle("velocity", "x", p)

    def test_overflowing_weight_refused_as_non_finite(self, rule_calls):
        # at t/z = 1e150 the position weight (T - u)^2 (2 T + u) / 3 overflows
        # on the tail, which makes its error estimate inf - inf; no halving
        # clears a NaN of two or more intervals, so the integral is done after
        # the first call of its starting rows, and the NaN estimate is refused
        # before any moment is added
        for T, end, rows in ((1e150, r"345\.38776394910684", 9),
                             (1e200, r"460\.51701859880916", 9),
                             (1e300, r"690\.7755278982137", 10)):
            nan = (rf"^a non-finite integrand or rule sum on \[0\.0, {end}\] makes the "
                   r"quadrature error estimate nan$")
            rule_calls.clear()
            with pytest.raises(QuadratureConvergenceError, match=nan):
                oracle._scaled("position", "z", (T,))
            assert rule_calls == [rows], T
            with pytest.raises(QuadratureConvergenceError, match=nan):
                dispersion_oracle("position", "z", up(T))

    @pytest.mark.parametrize("component, fn", [("x", vel_disp_transverse),
                                               ("z", vel_disp_normal)])
    def test_prefactor_with_tiny_factors(self, component, fn):
        # e^2/m^2 and z^2 both round to zero; e^2/(m^2 z^2) = 1 does not
        p = EvalPoint(t=0.5e-300, z=1e-300, particle=ParticleSpec(e=1e-150, m=1e150))
        assert_allclose(dispersion_oracle("velocity", component, p).value,
                        fn(p).value, rtol=1e-13)

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

    @pytest.mark.parametrize("z", [0.0, -0.0, -1.0])
    def test_non_positive_z_refused(self, z):
        with pytest.raises(ValueError, match="^z must be positive$"):
            verify_grid(z=z)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf, -math.inf])
    def test_bad_tolerance_refused(self, tolerance):
        with pytest.raises(ValueError, match="need a finite tolerance >= 0"):
            verify_grid(tolerance=tolerance)


class TestErrorEstimate:
    # The oracle must agree or refuse: its error estimate has to cover its
    # actual error against the exact closed form on every verify row.
    @pytest.mark.parametrize("particle, z", [(UNIT, 1.0), (electron_preset(), 1e-6), (UNIT, 3.7)])
    def test_estimate_covers_error(self, particle, z, closed_form):
        for row in verify_grid(particle, z):
            p = EvalPoint(t=row.t_over_z * z, z=z, particle=particle)
            error = abs(row.oracle - closed_form(row.quantity, p))
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
    def test_estimate_covers_error_near_lightcone(self, particle, z, points, closed_form):
        for quantity_id, ratio in points:
            quantity = QUANTITIES[quantity_id]
            p = EvalPoint(t=ratio * z, z=z, particle=particle)
            result = dispersion_oracle(quantity.kind, quantity.component, p)
            error = abs(result.value - closed_form(quantity_id, p))
            assert result.error_estimate >= error, (quantity_id, ratio)


class TestGaussKronrodRule:
    # QUADPACK's qk21: K21 integrates polynomials of degree <= 31 exactly, its
    # embedded G10 those of degree <= 19.
    @pytest.mark.parametrize("weights, degree", [(KRONROD_WEIGHTS, 31), (GAUSS_WEIGHTS, 19)])
    def test_monomials_exact(self, weights, degree):
        assert_allclose(math.fsum(weights), 2.0, rtol=1e-15)
        for d in range(degree + 1):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(math.fsum(w * x**d for w, x in zip(weights, NODES)) - exact) < 4e-16, d

    def test_gauss_nodes_are_legendre_roots(self):
        gauss_nodes = [x for x, w in zip(NODES, GAUSS_WEIGHTS) if w != 0.0]
        assert len(gauss_nodes) == 10
        with mpmath.workdps(30):
            for x in gauss_nodes:
                assert abs(mpmath.legendre(10, x)) < 1e-14


class TestRuleAgainstReference:
    # Each row's reference is the same row run alone: the rule sums every row
    # along its own 21 nodes, so a row's (value, error, resasc) does not
    # depend on the rows it runs with, bit for bit, NaN for NaN.  The mesh's
    # first call relies on this (`TestLookAheadMovesNoBit`).
    @staticmethod
    def rows(m, seed):
        """m seeded rows of 21 normal draws, each row at a scale from 1e-30 to 1e30,
        on intervals from lo in [-5, 5], 1e-12 to 1e3 wide."""
        rng = random.Random(seed)
        normal = [[rng.gauss(0.0, 1.0) for _ in range(21)] for _ in range(m)]
        scales = [10.0 ** rng.uniform(-30.0, 30.0) for _ in range(m)]
        fx = [[y * scale for y in row] for row, scale in zip(normal, scales)]
        lo = [rng.uniform(-5.0, 5.0) for _ in range(m)]
        return fx, lo, [a + 10.0 ** rng.uniform(-12.0, 3.0) for a in lo]

    @classmethod
    def special_rows(cls):
        """Rows of zeros, constants, non-finite, overflowing and subnormal values."""
        fx, lo, hi = cls.rows(17, 7)
        fx[0] = [0.0] * 21  # resasc and the error vanish
        fx[1] = [-0.0] * 21
        fx[2] = [3.0] * 21  # K and G an ulp apart, resasc at the rounding level
        for row, values in enumerate(([math.inf], [-math.inf], [math.nan], [math.inf, -math.inf],
                                      [math.nan, math.inf], [math.inf] * 21, [math.nan] * 21),
                                     start=3):
            fx[row][:len(values)] = values
        fx[10] = [1e308] * 21  # finite nodes whose sums overflow
        fx[11] = [5e-324] * 21  # subnormal nodes
        # K and G agree to rounding: the 50 eps resabs floor holds
        fx[12] = [x * x * x for x in NODES]
        fx[13:] = [[c * math.cos(x) for x in NODES] for c in (1.0, -3.0, 1e-3, 7e5)]
        return fx, lo, hi

    @staticmethod
    def in_turn(fs):
        """An integrand that is fs[0] on the first row `_gk21` rules, fs[1] on the
        second, and so on: `_gk21` calls its integrand once per row, in order."""
        calls = iter(fs)
        return lambda x: next(calls)(x)

    @classmethod
    def tabulated(cls, fx):
        """The rows ``fx`` as an integrand, one row per call."""
        return cls.in_turn([lambda x, row=row: row for row in fx])

    @classmethod
    def run_both(cls, fs, lo, hi):
        """Each row of integrand fs[i] on [lo[i], hi[i]], ruled in one call and alone."""
        together = oracle._gk21(cls.in_turn(fs), lo, hi)
        for i, f in enumerate(fs):
            alone = oracle._gk21(f, lo[i:i + 1], hi[i:i + 1])
            for result, row in zip(together, alone):
                assert bits(result[i:i + 1]) == bits(row)

    @pytest.mark.parametrize("m", [1, 2, 14, 17, 108])  # 17: a full verify batch's pieces
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_rows(self, m, seed):
        fx, lo, hi = self.rows(m, seed)
        self.run_both([lambda x, row=row: row for row in fx], lo, hi)

    @pytest.mark.parametrize("m", [1, 2, 14, 17])
    def test_contour_rows(self, m):
        # the oracle's own integrand, every piece in turn, and the axis alone
        _, lo, hi = self.rows(m, 99)
        T = [0.1 * 1e6 ** (i / max(m - 1, 1)) for i in range(m)]  # 0.1 to 1e5, geometric
        rows = dict(zip(("axis", "tail"), oracle._ROWS["position", "x"]))
        for pieces in ([("axis", "tail")[i % 2] for i in range(m)], ["axis"] * m):
            fs = [lambda x, row=rows[piece], t=t: row(t, x) for piece, t in zip(pieces, T)]
            self.run_both(fs, lo, hi)

    def test_zero_constant_and_non_finite_nodes(self):
        fx, lo, hi = self.special_rows()
        self.run_both([lambda x, row=row: row for row in fx], lo, hi)


class TestRuleMatchesTwentyOneTermForm:
    # `_gk21` sums G over its ten nodes only and takes resabs from |K
    # products|.  Its reference here is the rule as it was written with every
    # sum over all 21 products, `_row_sum` indexing its argument: values,
    # errors and resasc must agree bit for bit, NaN for NaN.  Why they can:
    # at each of the 11 Kronrod-only nodes G's weight is 0.0, and a finite f
    # times 0.0 is an exact +0 or -0; adding a signed zero to a nonzero float
    # returns that float, and to a zero gives a zero, so dropping those
    # products moves no partial sum but the sign of a zero, which the final
    # 0.0 + clears.  A non-finite node makes that product NaN, but it also
    # makes K infinite or NaN, so that node's |f - K/2|, and with it resasc,
    # is NaN, and QUADPACK's formula then makes the error NaN in both forms.
    # And |f w| = |f| w exactly for w > 0, as rounding is symmetric in sign.
    @staticmethod
    def row_sum(a):
        return 0.0 + (((((a[0] + a[8]) + (a[1] + a[9])) + ((a[2] + a[10]) + (a[3] + a[11])))
                       + (((a[4] + a[12]) + (a[5] + a[13])) + ((a[6] + a[14]) + (a[7] + a[15]))))
                      + a[16] + a[17] + a[18] + a[19] + a[20])

    @classmethod
    def reference(cls, f, lo, hi):
        values, errors, resascs = [], [], []
        for a, b in zip(lo, hi):
            centre, half = 0.5 * (a + b), 0.5 * (b - a)
            fx = f([centre + half * x for x in NODES])
            kronrod = cls.row_sum([y * w for y, w in zip(fx, KRONROD_WEIGHTS)])
            gauss = cls.row_sum([y * w for y, w in zip(fx, GAUSS_WEIGHTS)])
            resabs = cls.row_sum([abs(y) * w for y, w in zip(fx, KRONROD_WEIGHTS)]) * half
            mean = 0.5 * kronrod
            resasc = cls.row_sum([abs(y - mean) * w for y, w in zip(fx, KRONROD_WEIGHTS)]) * half
            err = abs((kronrod - gauss) * half)
            if resasc != 0.0 and err != 0.0:
                ratio = 200.0 * err / resasc
                err = resasc * min(ratio * math.sqrt(ratio), 1.0)
            values.append(kronrod * half)
            errors.append(max(err, 50.0 * EPS * resabs))
            resascs.append(resasc)
        return values, errors, resascs

    def assert_same_bits(self, fx, lo, hi):
        tabulated = TestRuleAgainstReference.tabulated
        got, want = oracle._gk21(tabulated(fx), lo, hi), self.reference(tabulated(fx), lo, hi)
        for name, g, w in zip(("value", "error", "resasc"), got, want):
            assert bits(g) == bits(w), name

    @pytest.mark.parametrize("m", [1, 2, 14, 17, 108])
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_rows(self, m, seed):
        self.assert_same_bits(*TestRuleAgainstReference.rows(m, seed))

    def test_zero_constant_and_non_finite_nodes(self):
        fx, lo, hi = TestRuleAgainstReference.special_rows()
        # zeros of opposite signs at G's nodes and at the Kronrod-only ones,
        # and each non-finite value alone at a Kronrod-only node (the end and
        # the centre) and at a G node
        signed = [[(a if j % 2 else b) for j in range(21)] for a, b in ((-0.0, 0.0), (0.0, -0.0))]
        lone = [[0.0] * j + [y] + [0.0] * (20 - j)
                for y in (math.inf, -math.inf, math.nan) for j in (0, 1, 10)]
        rows = fx + signed + lone
        lo += [0.25 * j for j in range(len(rows) - len(lo))]
        hi += [a + 1.5 for a in lo[len(hi):]]
        self.assert_same_bits(rows, lo, hi)

    def test_degenerate_intervals(self):
        # lo == hi (half 0), and an interval whose half overflows to inf
        fx, _, _ = TestRuleAgainstReference.special_rows()
        for a, b in ((0.5, 0.5), (-3.0, -3.0), (0.0, 0.0), (-1e308, 1e308)):
            self.assert_same_bits(fx, [a] * len(fx), [b] * len(fx))


class TestFusedRows:
    # `_ROWS` writes the weight and the kernel out inline, one
    # comprehension per (kind, component) and piece; each row must equal
    # the public weight times `correlators`' complex kernel at z = 1, times
    # du on the tail, bit for bit, NaN for NaN: before the lightcone, next
    # to the pole and where the weight overflows.
    WEIGHTS = {"velocity": weight_velocity, "position": weight_position}
    KERNELS = {"x": transverse_kernel_complex, "z": normal_kernel_complex}

    def public(self, kind, component, T, piece, x):
        weight, kernel = self.WEIGHTS[kind], self.KERNELS[component]
        if piece == "axis":
            return [weight(u, T) * kernel(u, 1.0) for u in x]
        return [weight(2.0 + du, T) * kernel(2.0 + du, 1.0) * du for du in map(math.exp, x)]

    @staticmethod
    def nodes(rng, T, piece):
        """21 seeded nodes of a piece of t/z = T: on the axis u in [0, T] and
        within 1e-6 of u = 2; on the tail v up to ln(T - 2), and down to where
        u - 2 = e^v is from 1e-12 to 1e-6."""
        if piece == "axis":
            x = [T * rng.random() for _ in range(11)]
            return x + [2.0 + rng.uniform(-1e-6, 1e-6) for _ in range(10)]
        top = math.log(T - 2.0) if T > 2.0 else 0.0
        x = [rng.uniform(-5.0, max(top, -5.0)) for _ in range(11)]
        return x + [rng.uniform(math.log(1e-12), math.log(1e-6)) for _ in range(10)]

    @pytest.mark.parametrize("kind", ["velocity", "position"])
    @pytest.mark.parametrize("component", ["x", "z"])
    @pytest.mark.parametrize("piece", ["axis", "tail"])
    def test_rows_are_the_public_product(self, kind, component, piece):
        rng = random.Random(f"{kind} {component} {piece}")
        # t/z = 1e150 and 1e300: the position weight overflows
        assert math.isinf(weight_position(0.0, 1e150)) and math.isinf(weight_position(0.0, 1e300))
        # past 9e307, 2 t overflows where 2 (t - u) need not
        Ts = [10.0 ** rng.uniform(-3.0, 300.0) for _ in range(200)]
        Ts += [2.5, 3.0, 1e4, 1e150, 1e300, 1e308, sys.float_info.max]
        for T in Ts:
            x = self.nodes(rng, T, piece)
            row = dict(zip(("axis", "tail"), oracle._ROWS[kind, component]))[piece]
            assert bits(row(T, x)) == bits(self.public(kind, component, T, piece, x)), T


class TestFloatRuleMatchesNumpy:
    # The rule runs row by row in floats.  Its reference here is QUADPACK's
    # qk21 in mpmath on the same tabulated rows: each of the four node sums (K
    # and G of f, K of |f| and of |f - K/2|) exact, then rounded once to a
    # float, so that it overflows where a float sum does, and the rest exact.
    # (The class and its weights test keep the names they had while the
    # reference was the same rule on numpy arrays, so that their 30 test ids
    # stay.)  Each float sum runs
    # every product and at most nine additions, each rounding once
    # (`_row_sum`; G's sum over its ten nodes fewer); with the product
    # by half and half's own subtraction that is 12 roundings.  So the value
    # lies within 16 eps R of the reference's, R = half Sum w_K |f|, resasc
    # within 16 eps (R + resasc), resabs within 16 eps R, and |K - G| half
    # within 16 eps S, S = half Sum (w_K + w_G) |f|; underflow adds at most
    # half the smallest subnormal per product, (32 half + 1) subnormals in all.
    # The error estimate, min(resasc, (200 e)^1.5 / sqrt(resasc)) floored at
    # 50 eps resabs, then lies between its values at the ends of those
    # intervals, each end moved by 8 eps and a subnormal for its own
    # roundings.  A NaN or an infinite reference must be met exactly.
    @staticmethod
    def reference(fx, lo, hi):
        """Each row's value, error and resasc: the interval that the float rule's
        must lie in, or the NaN or infinity that it must equal."""
        def node_sum(weights, f):
            return mpmath.mpf(float(mpmath.fsum(w * y for w, y in zip(weights, f))))

        def interval(centre, budget):
            return centre if not mpmath.isfinite(centre) else (centre - budget, centre + budget)

        rows = []
        with mpmath.workdps(60):
            for row, a, b in zip(fx, lo, hi):
                f = [mpmath.mpf(y) for y in row]
                half = (mpmath.mpf(b) - mpmath.mpf(a)) / 2
                kronrod, gauss = node_sum(KRONROD_WEIGHTS, f), node_sum(GAUSS_WEIGHTS, f)
                resabs = node_sum(KRONROD_WEIGHTS, map(abs, f)) * half
                resasc = node_sum(KRONROD_WEIGHTS, [abs(y - kronrod / 2) for y in f]) * half
                e = abs((kronrod - gauss) * half)
                R = half * mpmath.fsum(w * abs(y) for w, y in zip(KRONROD_WEIGHTS, f))
                S = half * mpmath.fsum((v + w) * abs(y)
                                       for v, w, y in zip(KRONROD_WEIGHTS, GAUSS_WEIGHTS, f))
                budget = lambda total: 16 * EPS * total + (32 * half + 1) * 5e-324
                value = interval(kronrod * half, budget(R))
                spread = interval(resasc, budget(R + resasc))
                if not all(map(mpmath.isfinite, (e, resasc, resabs))):
                    if resasc != 0 and e != 0:  # a NaN too
                        ratio = 200 * e / resasc
                        e = resasc * (1 if ratio > 1 else ratio ** 1.5)
                    err = e if mpmath.isnan(e) else max(e, 50 * EPS * resabs)
                else:
                    e_lo, e_hi = max(e - budget(S), 0), e + budget(S)
                    r_lo, r_hi = spread[0] if spread[0] > 0 else 0, spread[1]
                    a_lo, a_hi = resabs - budget(R), resabs + budget(R)
                    # a resasc of 0 leaves the error at e
                    low = min(r_lo, (200 * e_lo) ** 1.5 / mpmath.sqrt(r_hi))
                    high = (min(r_hi, (200 * e_hi) ** 1.5 / mpmath.sqrt(r_lo)) if r_lo
                            else max(r_hi, e_hi))
                    err = (max(low, 50 * EPS * a_lo) * (1 - 8 * EPS) - 5e-324,
                           max(high, 50 * EPS * a_hi) * (1 + 8 * EPS) + 5e-324)
                rows.append((value, err, spread))
        return rows

    @staticmethod
    def assert_in(got, want):
        """got within want, an interval (low, high), or, for a NaN or an infinite
        want, NaN for NaN and each infinity itself."""
        with mpmath.workdps(60):
            if isinstance(want, tuple):
                assert want[0] <= got <= want[1], (got, want)
            elif mpmath.isnan(want):
                assert math.isnan(got), (got, want)
            else:
                assert got == want, (got, want)

    def assert_rules_agree(self, fx, lo, hi):
        got = zip(*oracle._gk21(TestRuleAgainstReference.tabulated(fx), lo, hi))
        for got_row, want_row in zip(got, self.reference(fx, lo, hi)):
            for value, want in zip(got_row, want_row):
                self.assert_in(value, want)

    @pytest.mark.parametrize("m", [1, 2, 14, 17, 108])
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_rows(self, m, seed):
        self.assert_rules_agree(*TestRuleAgainstReference.rows(m, seed))

    def test_zero_constant_and_non_finite_nodes(self):
        self.assert_rules_agree(*TestRuleAgainstReference.special_rows())

    # Each weight's exact value times its divisor, the product its float form
    # forms before the last division.
    EXACT = {weight_velocity: (lambda tau, t: 2 * (t - tau), 1),
             weight_position: (lambda tau, t: (t - tau) ** 2 * (2 * t + tau), 3)}

    @pytest.mark.parametrize("weight", [weight_velocity, weight_position])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_public_weights_on_floats_match_numpy_float_arrays(self, weight, seed):
        # Seeded (tau, t) with t from 1e-320 to 1e308, a third of the position
        # weights past the float range, and pairs whose weight is inf or NaN:
        # a float's ** 2 would raise OverflowError there.  On floats each weight
        # raises nothing: it is NaN where the exact weight is (t = tau = inf),
        # inf where the exact product before its last division lies past the
        # float range, and else within its 5 roundings of the exact weight, 4
        # eps of it, plus the smallest subnormal for underflow.
        rng = random.Random(seed)
        t = [10.0 ** rng.uniform(-320.0, 308.0) for _ in range(10_000)]
        edges = [(0.0, 1e200), (0.0, 1e308), (1e300, 1e308), (0.0, math.inf),
                 (math.inf, math.inf), (-1e300, 1e300)]
        tau = [x * rng.random() for x in t] + [a for a, _ in edges]
        t += [b for _, b in edges]
        product, divisor = self.EXACT[weight]
        with mpmath.workdps(40):
            for a, b in zip(tau, t):
                got, exact = weight(a, b), product(mpmath.mpf(a), mpmath.mpf(b))
                if mpmath.isnan(exact) or math.isinf(float(exact)):
                    self.assert_in(got, mpmath.mpf(float(exact)))
                else:
                    exact /= divisor
                    bound = 4 * EPS * abs(exact) + 5e-324
                    self.assert_in(got, (exact - bound, exact + bound))


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
        # Deep points next to shallow ones, in a batch of five and alone: not
        # a bit of any result may differ.
        ratios = (1.999, 0.5, 2.0001, 10.0, 1e4)
        plans = [oracle._plan(quantity.kind, up(ratio)) for ratio in ratios]
        batch = oracle._results(plans, oracle._scaled(quantity.kind, quantity.component,
                                                      tuple(T for T, _ in plans)))
        for ratio, result in zip(ratios, batch):
            alone = dispersion_oracle(quantity.kind, quantity.component, up(ratio))
            assert (alone.value, alone.error_estimate) == (result.value, result.error_estimate), \
                ratio
        # With refused points among them, in every order, a batch raises what
        # its first refused T raises alone, type and message.  At t/z = 1e150
        # and 1e200 the position weight overflows, and the velocity x tail at
        # 1e200, so each is refused for its NaN estimate, naming its own tail.
        def scaled(Ts):
            return TestLookAheadMovesNoBit.outcome(oracle._scaled, quantity.kind,
                                                   quantity.component, Ts)

        for Ts in itertools.permutations((0.5, 1e150, 10.0, 1e200)):
            alone = [scaled((T,)) for T in Ts]
            refused = [outcome for outcome in alone if isinstance(outcome[0], type)]
            want = refused[0] if refused else tuple(outcome[0] for outcome in alone)
            assert scaled(Ts) == want, Ts


class TestLookAheadMovesNoBit:
    # `_integrate` given each integral's singularity starts from its `_mesh`,
    # halved ahead of the pass loop; given none, it is the plain pass loop.
    # The tail's mesh singularity lies nearer than its true one, so the mesh
    # halves where the plain loop may not, and the last bits move.  What may
    # not move: the two refuse a point with the same exception, or give
    # values within 0.05 of the plain loop's estimate, past the lightcone
    # with Sum_j |c_j(T)| E_j added back (at most 0.0061 on seeds 1 to 8,
    # t/z from 1e-3 to 1e10).  E_j are the moments' error estimates when each
    # process ruled them, QUADPACK's heuristic, recorded here.  The committed
    # moments carry half an ulp in their place, so the estimates past the
    # lightcone shrank (the worst ratio to the bare estimate is 0.068),
    # while both routes read the same moments and their values differ by
    # the same tail bits as before: the bound stays the absolute one it was.
    RULED_MOMENT_ERRORS = {
        "x": (3.164412532598017e-15, 6.081022889122946e-15, 2.2273100623715837e-14),
        "z": (2.3459129704377077e-16, 3.7860262093246204e-16, 1.243326744686064e-15)}

    @classmethod
    def ruled_moment_errors(cls, kind, component, T):
        """Sum_j |c_j(T)| E_j past the lightcone, 0 before it."""
        if T <= 2.0:
            return 0.0
        pairs = zip(oracle._weight(kind)[1](T), cls.RULED_MOMENT_ERRORS[component])
        return math.fsum(abs(c) * e for c, e in pairs)

    @staticmethod
    def outcome(run, *args):
        try:
            return run(*args)
        except VacBrownianError as exc:
            return type(exc), str(exc)

    @staticmethod
    def plain_loop(monkeypatch):
        integrate = oracle._integrate
        monkeypatch.setattr(oracle, "_integrate", lambda f, a, b, pole=math.inf: integrate(f, a, b))

    @staticmethod
    def seeded_ratios(seed):
        rng = random.Random(seed)
        return [10.0 ** rng.uniform(-3.0, 10.0) for _ in range(24)]

    @classmethod
    def assert_same_or_close(cls, kind, component, Ts, mesh, plain):
        """Each T's (value, estimate) from the mesh against the plain loop's, at
        unit prefactor."""
        if isinstance(plain[0], type) or isinstance(mesh[0], type):  # a refusal
            assert mesh[0] == plain[0], (Ts, mesh, plain)
            return
        for T, (value, _), (plain_value, plain_estimate) in zip(Ts, mesh, plain):
            bound = plain_estimate + cls.ruled_moment_errors(kind, component, T)
            assert abs(value - plain_value) <= 0.05 * bound, T

    @pytest.mark.parametrize("kind, component", [(q.kind, q.component) for q in QUANTITIES.values()])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_contour_batches(self, monkeypatch, rule_calls, kind, component, seed):
        Ts = self.seeded_ratios(seed)
        batches = [(T,) for T in Ts] + [tuple(Ts[:9])]  # single points, one verify-sized batch
        mesh = [self.outcome(oracle._scaled, kind, component, batch) for batch in batches]
        calls = len(rule_calls)
        rule_calls.clear()
        self.plain_loop(monkeypatch)
        for batch, ours in zip(batches, mesh):
            self.assert_same_or_close(kind, component, batch, ours,
                                      self.outcome(oracle._scaled, kind, component, batch))
        assert len(rule_calls) > 2 * calls

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_points_and_their_refusals(self, monkeypatch, seed):
        # the far points among these are refused with no significant digit
        points = [(T, q) for T in self.seeded_ratios(seed) for q in QUANTITIES.values()]

        def outcomes():
            return [self.outcome(lambda: [tuple(dispersion_oracle(q.kind, q.component, up(T)))[:2]])
                    for T, q in points]

        mesh = outcomes()
        assert any(isinstance(x[0], type) for x in mesh)
        self.plain_loop(monkeypatch)
        for (T, q), ours, plain in zip(points, mesh, outcomes()):
            self.assert_same_or_close(q.kind, q.component, (T,), ours, plain)

    @pytest.mark.parametrize("kernel", [
        lambda u: math.nan if u > 0.5 else 1.0,
        lambda u: (1.0 - math.cos(1e-3 * u)) / 1e-6,  # round-off
        lambda u: abs(u - 1 / 3) ** -0.5 if u != 1 / 3 else 0.0,  # too narrow to halve
    ])
    def test_refused_integrals(self, rule_calls, kernel):
        # The plain loop refuses one or more of these pieces by its own test.
        # Given a singularity on each piece, where both halves of the interval
        # that holds it keep distance 0, the mesh cap refuses every piece
        # before any rule runs, whatever the kernel.
        f = lambda x: [kernel(u) for u in x]
        pieces = ((0.0, 1.0, 1 / 3), (0.0, 1 / 3, 0.0), (0.5, 2.0, 0.5))
        assert any(self.outcome(oracle._integrate, f, a, b)[0] is QuadratureConvergenceError
                   for a, b, _ in pieces)
        for a, b, pole in pieces:
            rule_calls.clear()
            assert self.outcome(oracle._integrate, f, a, b, pole) == (
                QuadratureConvergenceError,
                f"[{a!r}, {b!r}] needs more than 200 intervals before the quadrature rule runs")
            assert rule_calls == []


class TestLookAhead:
    # `_mesh` looks ahead to where the pass loop will halve: each contour
    # piece starts from its intervals halved, level by level, while longer
    # than twice their distance to the piece's mesh singularity (`_POLES`), so
    # the first rule call runs them all.  The leaves and the rows of every
    # `_gk21` call are pinned exactly: a point past the lightcone rules only
    # its tail.  One rule call per pass, the plain loop, took 3 calls for the
    # far-band point below and 19 for the verify grid.
    @staticmethod
    def leaves(T):
        a, b, piece, _ = oracle._contour(T)
        return len(oracle._mesh(a, b, oracle._POLES[piece]))

    def test_far_band_point_in_few_rule_calls(self, rule_calls):
        # the tail, v from 0 to ln(1e4 - 2), starts in 4 intervals; the pass
        # loop then halves nothing
        assert self.leaves(1e4) == 4
        dispersion_oracle("velocity", "x", up(1e4))
        assert rule_calls == [4]

    @pytest.mark.parametrize("quantity", QUANTITIES.values(), ids=lambda q: q.id)
    def test_lone_points_in_few_rule_calls(self, rule_calls, quantity):
        # t/z = 0.5 is a lone piece shorter than twice its distance 1.5 to the
        # pole; at 1.9 the distance is 0.1, 4 levels; past the lightcone the
        # tail takes 1 interval at t/z = 2.5, 2 at 30 and 4 at 1e4
        for ratio, rows in ((0.5, 1), (1.9, 5), (2.5, 1), (30.0, 2), (1e4, 4)):
            assert self.leaves(ratio) == rows, ratio
            rule_calls.clear()
            dispersion_oracle(quantity.kind, quantity.component, up(ratio))
            assert rule_calls == [rows], ratio

    def test_verify_grid_needs_no_more_rule_calls(self, rule_calls, cold_oracle_memo):
        # one call per grid point, of its mesh's rows: 10, 4 and 14 rows per
        # quantity, before and past the lightcone alike
        pre, post = [1, 1, 1, 2, 5], [1, 1, 1, 1]
        assert [self.leaves(T) for T in oracle.PRE_LIGHTCONE_RATIOS] == pre
        assert [self.leaves(T) for T in oracle.POST_LIGHTCONE_RATIOS] == post
        for grid, rows in (("pre-lightcone", pre), ("post-lightcone", post),
                           ("full", pre + post)):
            rule_calls.clear()
            cold_oracle_memo.cache_clear()
            verify_grid(grid=grid)
            assert rule_calls == rows * 4, grid

    def test_cold_process_far_band_point_in_one_rule_call(self):
        # a fresh process's first point past the lightcone rules its tail's 4
        # intervals in one call and nothing else: the moments are literals
        counted = ("from vacbrownian import EvalPoint, oracle\n"
                   "rule, rows = oracle._gk21, []\n"
                   "oracle._gk21 = lambda f, lo, hi: rows.append(len(lo)) or rule(f, lo, hi)\n"
                   "oracle.dispersion_oracle('velocity', 'x', EvalPoint(t=1e4, z=1.0))\n"
                   "print(rows)\n")
        src = str(Path(oracle.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
            src, os.environ.get("PYTHONPATH"))))}
        fresh = subprocess.run([sys.executable, "-c", counted], capture_output=True, text=True,
                               env=env, timeout=120, check=True)
        assert fresh.stdout == "[4]\n"

    def test_huge_t_runs_no_more_rows_ahead_than_the_cap(self, rule_calls):
        # The tail ends at v = ln(T - 2), at most 710, and starts from 10
        # intervals at the largest float, so no t/z reaches the cap; at
        # t/z = 1e300 the first call runs 10 rows, and the position weight's
        # overflow is refused as a NaN estimate.
        assert self.leaves(sys.float_info.max) == 10
        with pytest.raises(QuadratureConvergenceError, match="error estimate nan$"):
            oracle._scaled("position", "z", (1e300,))
        assert rule_calls[0] == 10

    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_contour_piece_reaches_the_cap(self, seed):
        # `_mesh` refuses no point's contour piece, so no cap refusal can come
        # before another point's refusal: seeded t/z from 1e-300 to the
        # largest float, and from 1.0000001e-6 to 1 off the pole on both
        # sides, outside the lightcone window.  The most intervals seen, 21,
        # are the axis at the window's lower edge, 2 - 1.0000001e-6; the tail
        # at its upper edge takes 3, and at the largest float 10.
        rng = random.Random(seed)
        edge = math.log10(1.0000001e-6)
        Ts = [10.0 ** rng.uniform(-300.0, 308.25) for _ in range(2000)]  # to 1.78e308
        Ts += [2.0 + sign * 10.0 ** rng.uniform(edge, 0.0) for sign in (-1.0, 1.0)
               for _ in range(1000)]
        Ts += [2.0 - 1.0000001e-6, 2.0 + 1.0000001e-6, sys.float_info.max]
        leaves = [self.leaves(T) for T in Ts]
        assert max(leaves) == 21 < oracle.MAX_SUBDIVISIONS
        assert leaves[-3:] == [21, 3, 10]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_leaf_longer_than_twice_its_distance(self, seed):
        pieces = [oracle._contour(T) for T in TestLookAheadMovesNoBit.seeded_ratios(seed)]
        for a, b, piece, _ in pieces:
            pole = oracle._POLES[piece]
            for lo, hi in oracle._mesh(a, b, pole):
                assert hi - lo <= 2.0 * abs(pole - min(max(pole.real, lo), hi)), (a, b, lo, hi)

    def test_caller_kernel_not_run_ahead(self):
        # the caller integrals pass no singularity and start from one
        # interval: 9 rule rows of 21 nodes, one per pass
        calls = [0]

        def kernel(u):
            calls[0] += 1
            return corr_normal_reg(u, 1.0, 1e-4)

        reduced_time_integral(kernel, 1.9, "velocity")
        assert calls[0] == 9 * 21


class TestContourPieces:
    # Past the lightcone the tail runs in v = ln(u - 2), a smooth change of
    # variable of the axis from 3 to t/z.
    @pytest.mark.parametrize("T, tail", [(2.5, (math.log(0.5), 0.0, "tail", -1.0)),
                                         (3.0, (0.0, 0.0, "tail", 1.0)),
                                         (1e4, (0.0, math.log(9998.0), "tail", 1.0))])
    def test_tail_runs_in_log_of_the_distance_to_the_pole(self, T, tail):
        assert oracle._contour(T) == tail
        # weight(u) kernel(u) du/dv, du/dv = u - 2 = e^v
        tail = oracle._ROWS["velocity", "x"][1]
        want = [weight_velocity(2.0 + d, T) * corr_transverse(2.0 + d, 1.0) * d
                for d in map(math.exp, (-0.5, 2.0))]
        assert tail(T, [-0.5, 2.0]) == want


class TestMoments:
    # Past the lightcone each weight is a polynomial in u, Sum_j c_j(T) u^j,
    # so the path from 0 to 3 below the pole is Sum_j c_j(T) F_j, with the
    # moments F_j = Re Int_0^3 u^j kernel(u) du along it, committed per
    # component.
    @pytest.mark.parametrize("kind", ["velocity", "position"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_coefficients_give_the_public_weights(self, kind, seed):
        # Sum_j c_j u^j, summed exactly, against the public weight, taken
        # exactly, at seeded (u, T): each c_j within a few roundings
        weight, coefficients = oracle._weight(kind)
        exact = {"velocity": lambda u, t: 2 * (t - u),
                 "position": lambda u, t: (t - u) ** 2 * (2 * t + u) / 3}[kind]
        rng = random.Random(seed)
        for _ in range(2000):
            T = 2.0 + 10.0 ** rng.uniform(-6.0, 100.0)
            u = rng.uniform(-3.0, 3.0) if rng.random() < 0.5 else T * rng.random()
            terms = [Fraction(c) * Fraction(u) ** j
                     for c, j in zip(coefficients(T), (0, 1, 3))]
            want = exact(Fraction(u), Fraction(T))
            assert abs(sum(terms) - want) <= 4 * EPS * sum(map(abs, terms)), (u, T)
            assert abs(weight(u, T) - want) <= 4 * EPS * sum(map(abs, terms)), (u, T)

    @staticmethod
    def moment(component, j):
        """F_j in mpmath at 40 digits, from the kernels' formulas (no closed form
        of `dispersion`), on the path 0 -> 1 -> 2 - i -> 3 below the pole."""
        kernel = {"x": lambda u: -(u * u + 4) / (mpmath.pi ** 2 * (u * u - 4) ** 3),
                  "z": lambda u: 1 / (mpmath.pi ** 2 * (u * u - 4) ** 2)}[component]
        with mpmath.workdps(40):
            path = [0, 1, mpmath.mpc(2, -1), 3]
            return mpmath.re(mpmath.quad(lambda u: u ** j * kernel(u), path))

    @pytest.mark.parametrize("component", ["x", "z"])
    def test_moments_against_mpmath(self, component):
        # each literal is its moment correctly rounded, bit for bit, and its
        # error term half its ulp, which the rounding cannot exceed
        for j, (value, error) in zip((0, 1, 3), oracle._MOMENTS[component]):
            assert float(self.moment(component, j)) == value, j
            assert error == math.ulp(value) / 2, j

    @pytest.mark.parametrize("quantity", QUANTITIES.values(), ids=lambda q: q.id)
    def test_overflowing_coefficients_refused(self, quantity):
        # where a c_j overflows, so does the tail's weight, whose NaN error
        # estimate `_integrate` refuses before any moment is added
        weight, coefficients = oracle._weight(quantity.kind)
        for T in ((1e308, sys.float_info.max) if quantity.kind == "velocity"
                  else (7e102, 1e200, 1e300)):
            assert not all(map(math.isfinite, coefficients(T))), T
            with pytest.raises(QuadratureConvergenceError, match="error estimate nan$"):
                dispersion_oracle(quantity.kind, quantity.component, up(T))


class TestPastTheLightcone:
    # A seeded property over t/z from 2 + 1e-5 to 1e6: the path from 0 to 3
    # comes from the moments, the tail is ruled per point, and every
    # answered point lies within its own error estimate of the exact closed
    # form, for both presets at non-dyadic z.
    @pytest.mark.parametrize("seed", range(4))
    def test_answered_points_within_their_estimates(self, seed, closed_form):
        rng = random.Random(seed)
        answered = 0
        for _ in range(40):
            ratio = 2.0 + 10.0 ** rng.uniform(-5.0, math.log10(1e6 - 2.0))
            z = 10.0 ** rng.uniform(-9.0, 3.0)
            assert math.frexp(z)[0] != 0.5, z  # not a power of two
            particle = rng.choice((UNIT, electron_preset()))
            p = EvalPoint(t=ratio * z, z=z, particle=particle)
            for quantity in QUANTITIES.values():
                try:
                    result = dispersion_oracle(quantity.kind, quantity.component, p)
                except (QuadratureConvergenceError, ExtrapolationError):
                    continue
                error = abs(result.value - closed_form(quantity.id, p))
                assert error <= result.error_estimate, (quantity.id, ratio, z)
                answered += 1
        assert answered >= 120


class TestVerifyMemo:
    # verify_grid keeps each quantity's scaled integrals, keyed on (kind,
    # component, the grid's t/z), so a grid that repeats every t/z, at any
    # particle and z, runs no quadrature.
    def test_warm_grid_runs_no_quadrature(self, rule_calls, cold_oracle_memo):
        verify_grid(UNIT, 1.0)
        assert rule_calls
        rule_calls.clear()
        verify_grid(electron_preset(), 2.0)  # t/z is each ratio exactly
        assert rule_calls == []
        assert cold_oracle_memo.cache_info().hits == len(QUANTITIES)

    @pytest.mark.parametrize("z", [1.0, 3.7])
    def test_warm_rows_equal_cold_rows(self, cold_oracle_memo, z):
        if z == 3.7:  # two t/z one ulp off their ratios: a key of their own
            off = [r for r in oracle._GRID_RATIOS["full"] if (r * z) / z != r]
            assert off == [1.5, 3.0]
        cold = repr(verify_grid(UNIT, z))
        cold_oracle_memo.cache_clear()
        verify_grid(electron_preset(), z)  # the same keys, filled at another particle
        hits = cold_oracle_memo.cache_info().hits
        assert repr(verify_grid(UNIT, z)) == cold
        assert cold_oracle_memo.cache_info().hits == hits + len(QUANTITIES)

    def test_memo_stays_within_its_bound(self, monkeypatch, cold_oracle_memo):
        # one-point grids at t/z = 0.1, 0.101, ...: each a key of its own for
        # every quantity, 74 grids for a memo of 256 (a grid's t/z lands off
        # its ratios only at a subnormal t, where the position rows' error
        # estimates are refused as below the smallest normal float)
        maxsize = cold_oracle_memo.cache_info().maxsize
        grids = [(0.1 + k / 1000,) for k in range(maxsize // len(QUANTITIES) + 10)]

        def verify_one_point(ratios, *args):
            monkeypatch.setitem(oracle._GRID_RATIOS, "pre-lightcone", ratios)
            return verify_grid(*args, grid="pre-lightcone")

        sizes = []
        for ratios in grids:
            verify_one_point(ratios)
            sizes.append(cold_oracle_memo.cache_info().currsize)
        assert max(sizes) == maxsize
        misses = cold_oracle_memo.cache_info().misses
        verify_grid(UNIT, 3.7)  # a grid not held: the least recently used entries go
        info = cold_oracle_memo.cache_info()
        assert (info.misses, info.currsize) == (misses + len(QUANTITIES), maxsize)
        assert sizes == sorted(sizes)  # entries go one by one, never all at once
        verify_one_point(grids[-1], electron_preset(), 2.0)  # the newest are kept
        assert cold_oracle_memo.cache_info().hits == info.hits + len(QUANTITIES)
        verify_one_point(grids[0])  # the oldest went
        assert cold_oracle_memo.cache_info().misses == info.misses + len(QUANTITIES)

    def test_single_points_leave_memo_alone(self, cold_oracle_memo):
        verify_grid()
        before = cold_oracle_memo.cache_info()
        for ratio in (1.5, 3.0, 7.0):
            dispersion_oracle("velocity", "x", up(ratio))
            dispersion_oracle("position", "z", up(ratio * 3.7, 3.7))
        assert cold_oracle_memo.cache_info() == before


class TestFarBand:
    # Past t/z = 1e2 the contour integrals cancel to O(T^-2) from O(T) pieces.
    # The oracle may refuse there, but any value it returns must carry an
    # error estimate that covers its error against the exact closed form.
    @pytest.mark.parametrize("ratio", [1e2, 1e3, 1e4, 1e5, 1e6])
    def test_refuses_or_estimate_covers_error(self, ratio, closed_form):
        p = up(ratio)
        for quantity in QUANTITIES.values():
            try:
                result = dispersion_oracle(quantity.kind, quantity.component, p)
            except (QuadratureConvergenceError, ExtrapolationError):
                continue
            error = abs(result.value - closed_form(quantity.id, p))
            assert result.error_estimate >= error, quantity.id
            assert result.error_estimate < abs(result.value), quantity.id

    @pytest.mark.parametrize("ratio", [1e5, 1e6])
    def test_value_without_significant_digit_refused(self, ratio):
        # the transverse velocity's pieces cancel to a value smaller than
        # its own error estimate
        with pytest.raises(ExtrapolationError, match="no significant digit"):
            dispersion_oracle("velocity", "x", up(ratio))


class TestHonestAtHugeT:
    # Past t/z = 1e6 too, every point is refused or its error estimate covers
    # its error against the exact closed form.  Without a refusal there the
    # velocities were wrong from t/z = 3.25e10 on, with an estimate 1e13
    # times smaller than the error, while the tail [3, T] met its tolerance
    # as one interval.  Its mesh in v = ln(u - 2) now starts it from a few
    # intervals up to the largest float, and past t/z = 1e60 the pieces'
    # cancellation leaves no value a significant digit.
    @staticmethod
    def answered_honestly(quantity, p, closed_form):
        """Whether the oracle answered at p, asserting that its estimate covers its error."""
        try:
            quantity.value(p)  # a point whose closed form refuses is skipped
            result = dispersion_oracle(quantity.kind, quantity.component, p)
        except (VacBrownianError, ValueError):
            return False
        closed = closed_form(quantity.id, p)
        assert abs(result.value - closed) <= result.error_estimate + 1e-13 * abs(closed), \
            (quantity.id, p)
        return True

    # up to 1e300 nearly every point is refused, without a significant digit
    # or with an overflowing weight; below 1e60 the normal components are
    # answered at some (8 to 24 of 400 a seed)
    @pytest.mark.parametrize("bottom, top", [(1e6, 1e300), (1e10, 1e60)], ids=["1e300", "bound"])
    @pytest.mark.parametrize("seed", range(4))
    def test_refuses_or_estimate_covers_error(self, seed, bottom, top, closed_form):
        rng = random.Random(seed)
        answered = 0
        for _ in range(50):
            ratio = 10.0 ** rng.uniform(math.log10(bottom), math.log10(top))
            for particle in (UNIT, electron_preset()):
                z = 10.0 ** rng.uniform(-9.0, 3.0)
                p = EvalPoint(t=ratio * z, z=z, particle=particle)
                answered += sum(self.answered_honestly(q, p, closed_form)
                                for q in QUANTITIES.values())
        assert answered > 0 or top == 1e300

    @pytest.mark.parametrize("quantity", QUANTITIES.values(), ids=lambda q: q.id)
    def test_bound_itself_answered_or_refused_and_past_it_refused(self, quantity, closed_form):
        # no t/z reaches the mesh cap (`TestLookAhead`); what refuses t/z = 1e61
        # first, for every quantity, is the no-significant-digit check
        self.answered_honestly(quantity, up(1e60), closed_form)
        with pytest.raises(ExtrapolationError, match="no significant digit"):
            dispersion_oracle(quantity.kind, quantity.component, up(1e61))

    def test_velocity_normal_answered_past_1e10(self, closed_form):
        # once refused by a t/z bound of 1e10; the mesh answers it, covered
        assert self.answered_honestly(QUANTITIES["vel_disp_normal"], up(1e11), closed_form)
