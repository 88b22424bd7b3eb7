"""Fixtures shared by the test modules."""

from __future__ import annotations

import functools

import pytest

from vacbrownian import oracle


@pytest.fixture
def cold_oracle_memo(monkeypatch):
    """An empty verify-grid cache for one test, as in a fresh process, of the
    same maxsize; the cache of the other tests is put back afterwards."""
    maxsize = oracle._grid_scaled.cache_info().maxsize
    cache = functools.lru_cache(maxsize=maxsize)(oracle._scaled)
    monkeypatch.setattr(oracle, "_grid_scaled", cache)
    return cache
