"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from vacbrownian import oracle


@pytest.fixture
def cold_oracle_memo(monkeypatch):
    """An empty verify-grid memo for one test, as in a fresh process; the
    memo of the other tests is put back afterwards."""
    monkeypatch.setattr(oracle, "_MEMO", {})
    return oracle._MEMO
