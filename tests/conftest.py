"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.net.delays import ConstantDelay, ExponentialDelay


@pytest.fixture
def rng():
    """A deterministic RNG for statistical tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def exp_delay():
    """The paper's Section 7 delay distribution: exponential, mean 0.02."""
    return ExponentialDelay(0.02)


@pytest.fixture
def const_delay():
    """A deterministic delay for exact-trace tests."""
    return ConstantDelay(0.1)


def pytest_configure(config):
    # Tier-1 draws the same examples on every run and keeps no example
    # database, so "green" does not depend on the day or on what an
    # earlier run left in .hypothesis/.  To explore, pass
    # --hypothesis-seed=N: hypothesis ignores a seed while derandomized,
    # so the seed switches that off.  (Loaded here, before collection
    # imports the test modules whose @settings inherit from it.)
    settings.register_profile(
        "tier1",
        derandomize=config.getoption("hypothesis_seed", None) is None,
        deadline=None,
        database=None,
    )
    settings.load_profile("tier1")
    config.addinivalue_line(
        "markers", "slow: statistically heavy test (seconds, not ms)"
    )
    config.addinivalue_line(
        "markers",
        "live: wall-clock live-runtime test (runs a real event loop for "
        "seconds to minutes; excluded from the default run via addopts)",
    )
