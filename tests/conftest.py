"""Shared fixtures. The two Haar batches are expensive, so they are
session-scoped and reused by every test that aggregates over them."""

import pytest

from kgdecomp import run_benchmark

SU8_SEED = 20250
SU16_SEED = 20251


@pytest.fixture(scope="session")
def su8_batch():
    """200 decomposed Haar samples from SU(8), trees retained."""
    return run_benchmark(n=3, count=200, seed=SU8_SEED)


@pytest.fixture(scope="session")
def su16_batch():
    """10 decomposed Haar samples from SU(16), trees retained."""
    return run_benchmark(n=4, count=10, seed=SU16_SEED)
