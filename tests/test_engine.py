"""Engine internals: the raw quad ids against the code labels, the
row-sum reach tables against a direct broadcast of their predicate, and
the per-level frontier sizes of the search."""

import itertools

import numpy as np
import pytest

from nsq._engine import (
    _AA_RAWS,
    _CD_RAWS,
    BOT_LEFT,
    BOT_RIGHT,
    TOP_LEFT,
    TOP_RIGHT,
    _bounds,
    _expand,
    _reach_table,
    _root,
    _row_strides,
    golay_solutions,
    golay_tracks,
    ns_solutions,
    ns_tracks,
)
from nsq.quadcodec import AA_QUADS, QUAD_MATRICES


def test_raw_ids_spell_the_quad_labels():
    # The prefix filters name quads by label; the sign rows decode raw ids.
    for label, raw in enumerate(_CD_RAWS, start=1):
        signs = (TOP_LEFT[raw], TOP_RIGHT[raw], BOT_LEFT[raw], BOT_RIGHT[raw])
        assert tuple(int(v) for v in signs) == QUAD_MATRICES[label]
    assert {_CD_RAWS.index(raw) + 1 for raw in _AA_RAWS} == AA_QUADS


def reachable_oracle(partial: np.ndarray, solutions: np.ndarray, remaining: int) -> np.ndarray:
    """Per partial row-sum vector: can the remaining positions of each row
    still bring it to some solution?  One broadcast over every solution."""
    if not len(solutions):
        return np.zeros(len(partial), dtype=bool)
    diff = solutions[None, :, :].astype(np.int16) - partial[:, None, :]
    ok = (np.abs(diff) <= remaining) & (((diff - remaining) & 1) == 0)
    return ok.all(axis=2).any(axis=1)


@pytest.mark.parametrize("n", range(1, 23))
@pytest.mark.parametrize("solver", [ns_solutions, golay_solutions])
def test_reach_table_matches_broadcast_oracle(n, solver):
    solutions = solver(n)
    rows = solutions.shape[1]
    # Partial row sums are sums of an even number of signs, so every
    # coordinate the search can look up is even and within [-n, n].
    axis = range(-n + n % 2, n + 1, 2)
    partial = np.array(list(itertools.product(axis, repeat=rows)), dtype=np.int16)
    flat = (partial.astype(np.int64) + n) @ _row_strides(n, rows)
    for remaining in range(n + 1):
        table = _reach_table(n, solutions, remaining)
        assert table.shape == ((2 * n + 1) ** rows,)
        expected = reachable_oracle(partial, solutions, remaining)
        assert np.array_equal(table[flat], expected), remaining


def test_reach_table_of_empty_solution_set_is_all_false():
    assert len(golay_solutions(19)) == 0
    for remaining in range(20):
        assert not _reach_table(19, golay_solutions(19), remaining).any()


def frontier_sizes(n: int, tracks, solutions, chunk: int = 1 << 15) -> list[int]:
    """States left after each level k = 1..n//2, expanding chunk by chunk."""
    bounds = _bounds(n, 2 * len(tracks))
    blocks = [_root(n, tracks, solutions.shape[1])]
    sizes = []
    for k in range(1, n // 2 + 1):
        reach = _reach_table(n, solutions, n - 2 * k)
        nxt = []
        for block in blocks:
            for lo in range(0, len(block), chunk):
                out = _expand(block.take(slice(lo, lo + chunk)), n, k, tracks, bounds, reach)
                if out is not None:
                    nxt.append(out)
        blocks = nxt
        sizes.append(sum(len(b) for b in blocks))
    return sizes


# Recorded from the broadcast-predicate engine that preceded the reach
# tables.  Any change that prunes less, or more, moves one of these.
GOLDEN_FRONTIERS = {
    ("ns", 16): [1, 4, 23, 153, 1100, 7424, 8192, 52],
    ("ns", 17): [2, 6, 28, 182, 1190, 8130, 46117, 16484],
    ("ns", 18): [1, 4, 23, 153, 1102, 7675, 48889, 133499, 1],
    ("ns", 19): [2, 6, 28, 182, 1190, 8190, 53913, 231145, 32743],
    ("ns", 20): [1, 4, 23, 153, 1102, 7691, 52937, 314503, 495028, 36],
    ("golay", 16): [8, 48, 288, 1408, 7152, 29840, 24928, 1536],
    ("golay", 17): [8, 48, 288, 1408, 7168, 31968, 116912, 30656],
    ("golay", 18): [8, 48, 288, 1408, 7168, 32048, 123472, 72480, 0],
    ("golay", 19): [0, 0, 0, 0, 0, 0, 0, 0, 0],
    ("golay", 20): [8, 48, 288, 1408, 7168, 32368, 140480, 446592, 615200, 1088],
}

SEARCHES = {
    "ns": (ns_tracks, ns_solutions),
    "golay": (golay_tracks, golay_solutions),
}


@pytest.mark.parametrize("kind, n", sorted(GOLDEN_FRONTIERS))
def test_frontier_sizes_match_golden(kind, n):
    tracks, solutions = SEARCHES[kind]
    assert frontier_sizes(n, tracks(n), solutions(n)) == GOLDEN_FRONTIERS[kind, n]

