"""Shared fixtures and Hypothesis profiles.

Graph/field construction builds lookup tables; sharing instances across
tests keeps the suite fast without coupling tests (all objects are
effectively immutable after construction).

Hypothesis is configured centrally here (individual tests only override
``max_examples``-style knobs): the ``ci`` profile is derandomized so CI
failures reproduce exactly, ``dev`` keeps random exploration for local
runs.  Both drop the wall-clock deadline -- first-call JIT/table-build
costs make per-example timing meaningless in this codebase.  Select
explicitly with ``HYPOTHESIS_PROFILE=dev``; CI is auto-detected.

``REPRO_ENGINE`` is applied here and nowhere else: the whole session
runs under that protocol executor (``vector`` when unset), which is how
CI's scalar-oracle leg re-runs tests without touching them.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.engine import use
from repro.core.graph import MemoryGraph
from repro.core.scheme import PPScheme

settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
settings.load_profile(
    os.environ.get(
        "HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "dev"
    )
)


@pytest.fixture(scope="session", autouse=True)
def protocol_engine():
    """Run the session under ``$REPRO_ENGINE`` (default ``vector``)."""
    with use(os.environ.get("REPRO_ENGINE") or "vector") as name:
        yield name


@pytest.fixture(scope="session")
def graph_2_3() -> MemoryGraph:
    """Smallest paper instance: q=2, n=3 (N=63, M=84); enumerable."""
    return MemoryGraph(2, 3)


@pytest.fixture(scope="session")
def graph_2_5() -> MemoryGraph:
    """Mid-size instance: q=2, n=5 (N=1023, M=5456); enumerable."""
    return MemoryGraph(2, 5)


@pytest.fixture(scope="session")
def graph_4_3() -> MemoryGraph:
    """Cross-q instance: q=4, n=3 (N=1365, M=4368, 5 copies)."""
    return MemoryGraph(4, 3)


@pytest.fixture(scope="session")
def graph_2_6() -> MemoryGraph:
    """Composite-n instance for tight sets: q=2, n=6."""
    return MemoryGraph(2, 6)


@pytest.fixture(scope="session")
def scheme_2_3() -> PPScheme:
    """Scheme facade over the smallest instance."""
    return PPScheme(q=2, n=3)


@pytest.fixture(scope="session")
def scheme_2_5() -> PPScheme:
    """Scheme facade over the mid-size instance."""
    return PPScheme(q=2, n=5)


@pytest.fixture(scope="session")
def scheme_4_3() -> PPScheme:
    """Scheme facade with enumerated addressing (q=4)."""
    return PPScheme(q=4, n=3)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(12345)
