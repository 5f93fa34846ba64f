"""An independent second decomposition of NS(n), against the classes the
engine enumerates.  It shares nothing with the engine (it does not
import nsq._engine): no quads, prefix tables, row-sum tables or kernel.

Every class has a member whose A is the least of its images under
negating A, reversing A and alternating every sequence (these generate a
group of 8 on A alone), and whose C is the least of its images under
negating and reversing C.  So sweep those A's through the power test
|A(theta)|^2 <= 2n (from a float64 rfft), keep the C's with
|C|^2 <= 4n - 2|A|^2 at every angle, look up N_D = -2 N_A - N_C in a dict
of every D keyed by its NPAF, and canonicalise each hit."""

import numpy as np
import pytest

from nsq.equivalence import canonical_raw, orbit_raw
from nsq.search import enumerate_classes, record_quadruple

# Slack of the float64 power comparisons: an rfft of 4n <= 64 points of
# +-1 values is accurate to ~1e-12, so this only guards the comparison.
TOL = 1e-6


def sequences(n: int) -> np.ndarray:
    """Every +-1 sequence of length n, row i spelling the bits of i."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return (1 - 2 * bits).astype(np.int8)


def npaf(seqs: np.ndarray) -> np.ndarray:
    n = seqs.shape[1]
    wide = seqs.astype(np.int16)
    return np.stack([(wide[:, :n - i] * wide[:, i:]).sum(axis=1) for i in range(1, n)], axis=1)


def least_images(seqs: np.ndarray, alternate: bool) -> np.ndarray:
    """Per row, whether it is the least (by index) of its images under
    negation and reversal, and alternation when asked."""
    n = seqs.shape[1]
    weights = 1 << np.arange(n - 1, -1, -1)
    index = ((1 - seqs) // 2).astype(np.int64) @ weights
    signs = np.array([(-1) ** i for i in range(n)], dtype=np.int8)
    images = []
    for alt in (False, True) if alternate else (False,):
        for rev in (False, True):
            for neg in (False, True):
                image = seqs * signs if alt else seqs
                image = image[:, ::-1] if rev else image
                image = -image if neg else image
                images.append(((1 - image) // 2).astype(np.int64) @ weights)
    return index == np.min(images, axis=0)


def oracle_classes(n: int) -> set:
    seqs = sequences(n)
    corr = npaf(seqs) if n > 1 else np.zeros((len(seqs), 0), dtype=np.int16)
    power = np.abs(np.fft.rfft(seqs.astype(np.float64), 4 * n, axis=1)) ** 2
    d_of = {}
    for d, key in enumerate(map(bytes, corr.astype(np.int16))):
        d_of.setdefault(key, []).append(d)
    a_ids = np.flatnonzero(least_images(seqs, True) & (power.max(axis=1) <= 2 * n + TOL))
    c_ids = np.flatnonzero(least_images(seqs, False))
    found, seen = set(), set()
    for a in a_ids:
        room = 4 * n - 2 * power[a]
        for c in c_ids[(power[c_ids] <= room + TOL).all(axis=1)]:
            key = bytes((-2 * corr[a] - corr[c]).astype(np.int16))
            for d in d_of.get(key, ()):
                raw = (tuple(seqs[a].tolist()), tuple(seqs[c].tolist()), tuple(seqs[d].tolist()))
                if raw not in seen:
                    seen.update(orbit_raw(raw))
                    found.add(canonical_raw(raw))
    return found


@pytest.mark.parametrize("n", range(1, 17))
def test_second_decomposition_finds_the_enumerated_classes(n):
    expected = {record_quadruple(r).raw() for r in enumerate_classes(n)}
    assert oracle_classes(n) == expected
