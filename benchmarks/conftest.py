"""Session-scoped benchmark environment (built once for every bench)."""

from __future__ import annotations

import pytest

from .common import BenchEnv, build_env


@pytest.fixture(scope="session")
def env() -> BenchEnv:
    """Directory + two-day Table 1 trace shared by all benches."""
    return build_env()
