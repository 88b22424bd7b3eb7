"""The shared `assert_allclose` against the verdicts of numpy.testing.assert_allclose,
each recorded with numpy 2.4 on the same arguments."""

from __future__ import annotations

import math

import pytest

from conftest import assert_allclose

nan, inf = math.nan, math.inf

# (actual, desired, keyword arguments, numpy's verdict: True for a pass)
CASES = [
    # the rtol boundary, 1e-7 by default, on both sides
    (1.0 + 0.99e-7, 1.0, {}, True),
    (1.0 + 1.01e-7, 1.0, {}, False),
    (1.0 - 1.01e-7, 1.0, {}, False),
    (1.0 + 0.9e-12, 1.0, {"rtol": 1e-12}, True),
    (1.0 + 1.1e-12, 1.0, {"rtol": 1e-12}, False),
    (3.0, 2.0, {"rtol": 0.5}, True),  # exactly on the bound
    (3.0000000000000004, 2.0, {"rtol": 0.5}, False),
    # atol, 0 by default
    (1e-10, 0.0, {}, False),
    (1e-10, 0.0, {"atol": 1e-9}, True),
    (1e-10, 0.0, {"atol": 1e-11}, False),
    (2.0 + 1e-9, 2.0, {"rtol": 1e-10, "atol": 1e-9}, True),
    # NaN and the infinities
    (nan, nan, {}, True),
    (nan, 1.0, {}, False),
    (1.0, nan, {}, False),
    (inf, inf, {}, True),
    (-inf, -inf, {}, True),
    (inf, -inf, {}, False),
    (inf, 1e308, {}, False),
    (1e308, inf, {"rtol": 1.0}, False),
    # a sign flip
    (1.0, -1.0, {}, False),
    (1.0, -1.0, {"rtol": 2.0}, True),
    (0.0, -0.0, {}, True),
    (1e-300, -1e-300, {}, False),
    # lists: a length mismatch either way, then element by element
    ([1.0, 2.0], [1.0, 2.0, 3.0], {}, False),
    ([1.0, 2.0, 3.0], [1.0, 2.0], {}, False),
    ([1.0, 2.0 * (1 + 0.5e-7)], [1.0, 2.0], {}, True),
    ([1.0, nan, inf], [1.0, nan, inf], {}, True),
    ([1.0, nan], [1.0, 2.0], {}, False),
    # nested lists
    ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], {}, True),
    ([[1.0, 2.0], [3.0, 4.0 + 1e-6]], [[1.0, 2.0], [3.0, 4.0]], {}, False),
    ([[1.0, nan], [-inf, 0.0]], [[1.0, nan], [-inf, -0.0]], {}, True),
]


@pytest.mark.parametrize("actual, desired, keywords, passes", CASES)
def test_verdict_is_numpys(actual, desired, keywords, passes):
    if passes:
        assert_allclose(actual, desired, **keywords)
    else:
        with pytest.raises(AssertionError):
            assert_allclose(actual, desired, **keywords)
