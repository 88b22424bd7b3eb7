"""Fixtures and the float comparison shared by the test modules."""

from __future__ import annotations

import functools
import math

import mpmath
import pytest

from vacbrownian import oracle


def assert_allclose(actual, desired, rtol=1e-7, atol=0.0):
    """Assert |actual - desired| <= atol + rtol |desired|, element by element over
    equally long (nested) lists, with numpy.testing.assert_allclose's defaults and
    verdicts: NaN equals NaN only, an infinity only itself."""
    lists = [isinstance(x, (list, tuple)) for x in (actual, desired)]
    if any(lists):
        assert all(lists) and len(actual) == len(desired), (actual, desired)
        for a, d in zip(actual, desired):
            assert_allclose(a, d, rtol, atol)
        return
    a, d = float(actual), float(desired)
    if math.isnan(a) or math.isnan(d) or math.isinf(a) or math.isinf(d):
        assert a == d or math.isnan(a) and math.isnan(d), (a, d)
    else:
        assert abs(a - d) <= atol + rtol * abs(d), (a, d, rtol, atol)


@pytest.fixture
def cold_oracle_memo(monkeypatch):
    """An empty verify-grid cache for one test, as in a fresh process, of the
    same maxsize; the cache of the other tests is put back afterwards."""
    maxsize = oracle._grid_scaled.cache_info().maxsize
    cache = functools.lru_cache(maxsize=maxsize)(oracle._scaled)
    monkeypatch.setattr(oracle, "_grid_scaled", cache)
    return cache


@pytest.fixture(scope="session")
def closed_form():
    """`closed_form(quantity_id, point)`: the `dispersion` docstring's closed form
    at the exact x = t/(2z) of the point's float inputs, in mpmath, with L(x) by
    log1p and 60 + 3 |log10(t/z)| digits for the brackets' cancellations."""
    def value(quantity_id, p):
        with mpmath.workdps(60 + 3 * int(abs(mpmath.log10(p.t / p.z)))):
            e, m, t, z = (mpmath.mpf(v) for v in (p.particle.e, p.particle.m, p.t, p.z))
            x = t / (2 * z)
            log_ratio = mpmath.log1p(2 * min(x, 1) / abs(1 - x))
            log_gap = mpmath.log(abs(1 - x * x))
            bracket = {
                "vel_disp_transverse": x / 16 * log_ratio + x**2 / (8 * (1 - x**2)),
                "vel_disp_normal": x / 8 * log_ratio,
                "pos_disp_transverse": x**3 / 12 * log_ratio - x**2 / 6 - log_gap / 6,
                "pos_disp_normal": x**2 / 6 + x**3 / 6 * log_ratio + log_gap / 6,
            }[quantity_id]
            prefactor = e**2 / (mpmath.pi**2 * m**2)
            return bracket * (prefactor / z**2 if quantity_id.startswith("vel_") else prefactor)
    return value
