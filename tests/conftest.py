# Before any test module imports numpy: nsq._engine sets this too, but
# OpenBLAS reads it only when numpy first loads, and a multithreaded
# OpenBLAS slows the pooled searches several times over (its threads
# compete with the workers for the cores).
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import random

import pytest

from nsq.equivalence import orbit_raw
from nsq.quadcodec import QuadCode, compose_pair
from nsq.search import enumerate_classes, record_quadruple


def random_quad_regular(n: int, rng: random.Random):
    """Oracle: a random quad-regular triple (a, c, d) of length n, with
    every quad label and central drawn uniformly.  The group's relations
    hold on these triples (every normal quadruple is one) but not on
    arbitrary sign patterns, since quad_swap_45 is defined through the
    quad labels."""
    m = n // 2
    p = QuadCode(
        tuple(rng.choice((1, 3, 6, 8)) for _ in range(m)),
        rng.choice((0, 3)) if n % 2 else None,
        "aa",
    )
    q = QuadCode(
        tuple(rng.randrange(1, 9) for _ in range(m)),
        rng.randrange(4) if n % 2 else None,
        "cd",
    )
    a, _ = compose_pair(p)
    c, d = compose_pair(q)
    return (a.terms, c.terms, d.terms)


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
