"""Shared fixtures for the QGTC reproduction test-suite."""

from __future__ import annotations

import importlib.util
import signal

import numpy as np
import pytest
from hypothesis import settings

# Tier-1 must draw the same examples on every host: no example database,
# no wall-clock deadline that a slow runner could trip.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

_HAS_TIMEOUT_PLUGIN = importlib.util.find_spec("pytest_timeout") is not None


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item: pytest.Item):
    """SIGALRM-based stand-in for pytest-timeout.

    The async/concurrency tests carry ``@pytest.mark.timeout`` so a
    regression that deadlocks (a lost wakeup, a stranded future) fails
    fast instead of hanging the suite.  When the real plugin is
    installed (CI) it owns the marker; this fallback only arms where the
    plugin is absent and the platform has ``SIGALRM`` — elsewhere the
    marker is inert, never an error.
    """
    marker = item.get_closest_marker("timeout")
    if _HAS_TIMEOUT_PLUGIN or marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = float(marker.args[0]) if marker.args else 60.0

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded the {seconds}s deadlock guard"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; every test that draws randomness uses this seed."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_codes(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A pair of small quantized matrices (3-bit x 2-bit) for GEMM tests."""
    a = rng.integers(0, 8, size=(40, 150), dtype=np.int64)
    b = rng.integers(0, 4, size=(150, 24), dtype=np.int64)
    return a, b
