# Before any test module imports numpy: nsq._engine sets this too, but
# OpenBLAS reads it only when numpy first loads, and a multithreaded
# OpenBLAS slows the pooled searches several times over (its threads
# compete with the workers for the cores).
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import random

import pytest

from nsq.equivalence import orbit_raw
from nsq.search import enumerate_classes, record_quadruple


@pytest.fixture(scope="session")
def valid_pool():
    """Valid quadruples across small lengths: every orbit member of every
    class with n <= 10, as raw sign triples."""
    pool = []
    for n in range(1, 11):
        for record in enumerate_classes(n):
            pool.extend(sorted(orbit_raw(record_quadruple(record).raw())))
    return pool


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)
