"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings

from repro.geometry.rect import Rect
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk

# A moderate default profile: enough examples to be meaningful, fast
# enough that the whole suite stays snappy.
settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
# CI's seeded soak jobs (``--hypothesis-profile=soak``): every property
# that takes its example count from the profile -- the lattice machine
# among them -- runs five times longer.
settings.register_profile(
    "soak", parent=settings.get_profile("suite"), max_examples=300
)


@pytest.fixture
def meter() -> CostMeter:
    return CostMeter()


@pytest.fixture
def disk() -> SimulatedDisk:
    return SimulatedDisk()


@pytest.fixture
def pool(disk: SimulatedDisk, meter: CostMeter) -> BufferPool:
    return BufferPool(disk, capacity=4000, meter=meter)


@pytest.fixture
def small_pool(disk: SimulatedDisk, meter: CostMeter) -> BufferPool:
    """A deliberately tiny pool (4 frames) to exercise eviction."""
    return BufferPool(disk, capacity=4, meter=meter)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260705)


@pytest.fixture
def universe() -> Rect:
    return Rect(0.0, 0.0, 1000.0, 1000.0)
