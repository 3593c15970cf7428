"""Shared fixtures. The two Haar batches and the SU(128) tree are
expensive, so they are session-scoped and reused by every test that
reads them."""

import numpy as np
import pytest

from kgdecomp import decompose_full, haar_special_unitary, run_benchmark

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


@pytest.fixture(scope="session")
def su128_tree():
    """The decomposed Haar SU(128) sample of seed 0."""
    return decompose_full(haar_special_unitary(7, np.random.default_rng(0)), 7)
