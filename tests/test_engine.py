"""Engine internals: the raw quad ids against the code labels, the
row-sum solutions against a hand-written solver of the square
identity, the row-sum reach tables against a direct broadcast of
their predicate, the correlation bounds against a count of the
undetermined products, the per-level frontier sizes of the joint
search and of the A sweep and (C;D) placement, the A-first NS search
and the chunked depth-first traversal against the joint search of
both tracks (level-synchronous, or chunked depth first), the
one-track kernel against the joint kernel it replaced, the track
tables against the symbol scans they replaced, the central column
held as a quad, its level of the kernel against a loop over the
central combinations, and the power test against the bundled
representatives and its float error bound.

The library places one track per search.  The joint search of NS, both
tracks placed together column by column, lives here as the oracle of the
A-first search: joint_levels, expand_oracle and central_leaves_oracle,
driven level by level (level_search) or depth first (joint_search).

The library runs no Golay search: golay_pairs reads the pairs off the
NS classes.  The Golay search on one member of each pair orbit lives
here as the oracle of those derived pairs: the leader track
(golay_tracks), placed by the library's _descend and _expand
(golay_leader_search).  It is itself checked against the unrestricted
track (full_golay_tracks), which searches every ordered pair, and it
runs through the same kernel tests as the NS search."""

import itertools
import tracemalloc
from dataclasses import dataclass, fields
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

import numpy as np
import pytest

from nsq import _engine
from nsq._engine import (
    _AA_RAWS,
    _CD_RAWS,
    BOT_LEFT,
    BOT_RIGHT,
    CHUNK,
    DD,
    PSD_FLOAT,
    PSD_TOL,
    SC,
    SS,
    TOP_LEFT,
    TOP_RIGHT,
    _DD_FLAT,
    _FORBIDDEN,
    _LABELS,
    _SS_FLAT,
    _bounds,
    _codes,
    _expand,
    _levels,
    _merge_leaves,
    _prepare,
    _psd_keep,
    _psd_tables,
    _reach_table,
    _root,
    _row_strides,
    _solutions,
    _spell,
    _sweep,
    run_search,
    ns_tracks,
)
from nsq.core import BinarySeq, NormalQuadruple
from nsq.golay import golay_pairs
from nsq.quadcodec import AA_QUADS, CENTRAL_COLUMNS, QUAD_MATRICES, encode_quadruple
from nsq.tables import load_tables


def test_raw_ids_spell_the_quad_labels():
    # The prefix filters name quads by label, and the label table reads
    # the codes off the raw ids; the sign tables spell each raw id.
    labels = {signs: label for label, signs in QUAD_MATRICES.items()}
    for raw in range(16):
        signs = tuple(int(t[raw]) for t in (TOP_LEFT, TOP_RIGHT, BOT_LEFT, BOT_RIGHT))
        assert _LABELS[raw] == labels.get(signs, 0)
    assert [_LABELS[raw] for raw in _CD_RAWS] == list(range(1, 9))
    assert {_CD_RAWS.index(raw) + 1 for raw in _AA_RAWS} == AA_QUADS
    # The central column z, held as the raw quad 5*z, both columns z.
    for z, column in CENTRAL_COLUMNS.items():
        assert (TOP_LEFT[5 * z], BOT_LEFT[5 * z]) == (TOP_RIGHT[5 * z], BOT_RIGHT[5 * z]) == column


def ns_solutions(n: int) -> np.ndarray:
    """Integer solutions (a, c, d) of 2a^2 + c^2 + d^2 = 4n with the
    parity a = c = d = n (mod 2) forced on every row sum."""
    sols = []
    amax = isqrt(2 * n)
    cmax = isqrt(4 * n)
    for a in range(-amax, amax + 1):
        if (a - n) % 2:
            continue
        rest = 4 * n - 2 * a * a
        for c in range(-cmax, cmax + 1):
            if (c - n) % 2 or c * c > rest:
                continue
            d2 = rest - c * c
            d = isqrt(d2)
            if d * d != d2 or (d - n) % 2:
                continue
            sols.append((a, c, d))
            if d:
                sols.append((a, c, -d))
    return np.array(sols, dtype=np.int16).reshape(-1, 3)


def golay_solutions(n: int) -> np.ndarray:
    """Integer solutions (a, b) of a^2 + b^2 = 2n, same parity rule."""
    sols = []
    amax = isqrt(2 * n)
    for a in range(-amax, amax + 1):
        if (a - n) % 2:
            continue
        b2 = 2 * n - a * a
        b = isqrt(b2)
        if b * b != b2 or (b - n) % 2:
            continue
        sols.append((a, b))
        if b:
            sols.append((a, -b))
    return np.array(sols, dtype=np.int16).reshape(-1, 2)


@pytest.mark.parametrize("n", range(1, 41))
def test_solutions_follow_from_the_tracks(n):
    # The repeated pair (A;A) is one row of weight 2, and C and D one row
    # each: the solutions are the hand-solved identity 2a^2 + c^2 + d^2 = 4n.
    derived = _solutions(n)
    assert derived.dtype == np.int16
    assert sorted(map(tuple, derived.tolist())) == sorted(map(tuple, ns_solutions(n).tolist()))


def reachable_oracle(partial: np.ndarray, solutions: np.ndarray, remaining) -> np.ndarray:
    """Per partial row-sum vector: can the remaining positions of each row
    (one count, or one per row) still bring it to some solution?  One
    broadcast over every solution."""
    if not len(solutions):
        return np.zeros(len(partial), dtype=bool)
    diff = solutions[None, :, :].astype(np.int16) - partial[:, None, :]
    remaining = np.asarray(remaining)
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


@pytest.mark.parametrize("n", range(1, 17))
def test_reach_table_with_complete_rows_matches_oracle(n):
    # The (C;D) placement looks up (a, c, d) with the A row complete: its
    # sum must match a solution exactly while C and D have r left.  The
    # A sweep looks up a alone, against the solutions' a values.
    solutions = ns_solutions(n)
    axis = range(-n, n + 1)
    partial = np.array(list(itertools.product(axis, repeat=3)), dtype=np.int16)
    flat = (partial.astype(np.int64) + n) @ _row_strides(n, 3)
    a_values = np.unique(solutions[:, :1], axis=0)
    for remaining in range(n + 1):
        table = _reach_table(n, solutions, [0, remaining, remaining])
        assert np.array_equal(table[flat], reachable_oracle(partial, solutions, [0, remaining, remaining]))
        table = _reach_table(n, a_values, remaining)
        expected = reachable_oracle(np.arange(-n, n + 1)[:, None], a_values, remaining)
        assert np.array_equal(table, expected)


def test_reach_table_of_empty_solution_set_is_all_false():
    assert len(golay_solutions(19)) == 0
    for remaining in range(20):
        assert not _reach_table(19, golay_solutions(19), remaining).any()


def bounds_oracle(n: int, weight: int) -> np.ndarray:
    """The correlation bounds counted product by product: with columns
    1..k known, weight times the products at shift i that miss a known
    position."""
    out = np.zeros((n - n // 2 + 1, n), dtype=np.int16)
    for k in range(n - n // 2 + 1):
        known = [False] * (n + 1)
        for j in range(1, k + 1):
            known[j] = True
            known[n + 1 - j] = True
        for i in range(1, n):
            undetermined = sum(
                1 for j in range(1, n - i + 1) if not (known[j] and known[i + j])
            )
            out[k, i] = weight * undetermined
    return out


@pytest.mark.parametrize("n", range(1, 41))
def test_bounds_match_product_count(n):
    # A search places two open sequences; the joint search of NS places
    # four (A twice, C and D), so its bounds are twice as wide.
    bounds = _bounds(n)
    assert bounds.dtype == np.int16
    assert np.array_equal(bounds, bounds_oracle(n, 2))
    assert np.array_equal(2 * bounds, bounds_oracle(n, 4))
    # Once every column is placed, every shift is determined.
    assert not bounds[-1].any()


@dataclass
class JointBlock:
    """A block of any number of tracks placed together, held shift-major
    like the library's, one column per state: p is (n, states), syms per
    track (pairs, states) and fst (tracks, states)."""

    p: np.ndarray
    syms: list[np.ndarray]
    fst: np.ndarray
    plain: np.ndarray
    alt: np.ndarray

    def take(self, idx) -> "JointBlock":
        return JointBlock(
            self.p[:, idx], [s[:, idx] for s in self.syms], self.fst[:, idx], self.plain[idx], self.alt[idx]
        )

    def __len__(self) -> int:
        return self.p.shape[1]


def joint_block(block) -> JointBlock:
    """A library block of one track, as a joint block of that track."""
    return JointBlock(block.p, [block.syms], block.fst[None], block.plain, block.alt)


class JointLevel(NamedTuple):
    """The constants of placing pair k of every track at once: per track,
    its quad in every combination of the tracks' quads, and per
    combination the row-sum table offsets; the reach table and the
    correlation bound of the level."""

    units: list[np.ndarray]
    plain: np.ndarray
    alt: np.ndarray
    reach: np.ndarray
    bound: np.ndarray


def joint_levels(n: int) -> list[JointLevel | None]:
    """[None, level 1, ..., level n//2]: the pair levels of the joint
    search of NS(n), (A;A) and (C;D) placed together, with the rows A, C
    and D of weights (2, 1, 1) and the bounds of four sequences."""
    aa, cd = ns_tracks(n)
    solutions = _solutions(n)
    strides = _row_strides(n, 3)
    bounds = 2 * _bounds(n)
    # Every combination of an (A;A) quad and a (C;D) quad, (A;A) slowest.
    units = [g.reshape(-1) for g in np.meshgrid(aa.alphabet, cd.alphabet, indexing="ij")]
    rows = [
        (TOP_LEFT[units[0]], TOP_RIGHT[units[0]]),
        (TOP_LEFT[units[1]], TOP_RIGHT[units[1]]),
        (BOT_LEFT[units[1]], BOT_RIGHT[units[1]]),
    ]
    levels: list[JointLevel | None] = [None]
    for k in range(1, n // 2 + 1):
        sign_left = 1 if k % 2 else -1          # position k
        sign_right = 1 if (n - k) % 2 == 0 else -1  # position n+1-k
        levels.append(JointLevel(
            units,
            np.stack([left + right for left, right in rows], axis=1) @ strides,
            np.stack([sign_left * left + sign_right * right for left, right in rows], axis=1) @ strides,
            _reach_table(n, solutions, n - 2 * k),
            bounds[k][1:],
        ))
    return levels


def expand_oracle(block: JointBlock, n: int, k: int, tracks, level: JointLevel) -> JointBlock | None:
    """The kernel that the library's one-track _expand replaced, for any
    number of tracks placed together: the exact check as SS looked up
    against pair 1 plus a separate allow mask per track, the survivors
    taken from the (state, combination) mask in one pass, and the
    correlation update one row per earlier pair and track.  It places
    pairs only, no central column."""
    units = level.units
    if k == 1:
        delta = sum(SC.take(u) for u in units)[None, :]
    else:
        delta = sum(SS[:, u].take(block.syms[t][0], axis=0) for t, u in enumerate(units))
    mask = block.p[n - k][:, None] + delta == 0
    for t, track in enumerate(tracks):
        mask &= track.allow[:, units[t]].take(block.fst[t], axis=0)
    rows_idx, combo_idx = np.divmod(np.flatnonzero(mask), len(units[0]))

    plain = block.plain.take(rows_idx) + level.plain.take(combo_idx)
    alt = block.alt.take(rows_idx) + level.alt.take(combo_idx)
    keep = np.flatnonzero(level.reach.take(plain) & level.reach.take(alt))
    if not len(keep):
        return None
    rows_idx, combo_idx = rows_idx.take(keep), combo_idx.take(keep)
    plain, alt = plain.take(keep), alt.take(keep)

    selected = [u.take(combo_idx) for u in units]
    p_new = block.p.take(rows_idx, axis=1)
    for t in range(len(tracks)):
        u = selected[t]
        for j in range(1, k):
            pair = 16 * block.syms[t][j - 1].take(rows_idx).astype(np.intp) + u
            p_new[k - j] += _DD_FLAT.take(pair)
            p_new[n + 1 - j - k] += _SS_FLAT.take(pair)
        p_new[n + 1 - 2 * k] += SC.take(u)
    keep = np.flatnonzero((np.abs(p_new[1:]) <= level.bound[:, None]).all(axis=0))
    if not len(keep):
        return None
    rows_idx, p_new, plain, alt = rows_idx.take(keep), p_new.take(keep, axis=1), plain.take(keep), alt.take(keep)
    selected = [u.take(keep) for u in selected]

    syms_new = [
        np.concatenate([block.syms[t].take(rows_idx, axis=1), selected[t][None]])
        for t in range(len(tracks))
    ]
    fst_new = np.stack(
        [track.trans[block.fst[t].take(rows_idx), selected[t]] for t, track in enumerate(tracks)]
    )
    return JointBlock(p_new, syms_new, fst_new, plain, alt)


def central_leaves_oracle(block: JointBlock, n: int, tracks) -> dict:
    """The central-column step one combination at a time: for each
    (z_1..z_T), keep the states whose prefix states admit it and whose
    whole correlation table vanishes once it is placed."""
    m = n // 2
    parts = []
    for zs in itertools.product(range(4), repeat=len(tracks)):
        admitted = np.ones(len(block), dtype=bool)
        for t, track in enumerate(tracks):
            admitted &= track.central[block.fst[t], zs[t]]
        idx = np.flatnonzero(admitted)
        p_c = block.p.take(idx, axis=1)
        for t in range(len(tracks)):
            products = DD[:, 5 * zs[t]]
            for j in range(1, m + 1):
                p_c[m + 1 - j] += products.take(block.syms[t][j - 1].take(idx))
        idx = idx[(p_c[1:] == 0).all(axis=0)]
        if len(idx):
            syms = [np.insert(block.syms[t][:, idx].T, m, 5 * z, axis=1) for t, z in enumerate(zs)]
            parts.append({"syms": syms})
    return merge_leaves(parts, tracks, n)


def pair_complete_leaves(block: JointBlock, n: int, tracks) -> dict:
    """The leaves below a block with every pair placed: the block itself
    for even n, whose last bounds are zero; for odd n, the states that
    take a central column (central_leaves_oracle)."""
    if n % 2:
        return central_leaves_oracle(block, n, tracks)
    return {"syms": [syms.T for syms in block.syms]}


def joint_kernel(n: int):
    """The joint search of NS(n) as (root, expand, finish): the root with
    nothing placed, expand_oracle over joint_levels, and the leaves of a
    pair-complete block."""
    tracks = ns_tracks(n)
    levels = joint_levels(n)
    zero_sums = np.array([n * int(_row_strides(n, 3).sum())], dtype=np.int32)
    root = JointBlock(
        np.zeros((n, 1), dtype=np.int16),
        [np.zeros((0, 1), dtype=np.int8)] * 2,
        np.zeros((2, 1), dtype=np.int8),
        zero_sums,
        zero_sums.copy(),
    )
    return (
        root,
        lambda block, k: expand_oracle(block, n, k, tracks, levels[k]),
        lambda block: pair_complete_leaves(block, n, tracks),
    )


def merge_leaves(parts: list[dict], tracks, n: int) -> dict:
    """The library's _merge_leaves for any number of tracks: per track,
    the leaf rows of every part, in order."""
    empty = np.zeros((0, n - n // 2), dtype=np.int8)
    return {"syms": [np.concatenate([empty] + [p["syms"][t] for p in parts]) for t in range(len(tracks))]}


# Raw ids whose columns are orthogonal; these are the only quads a pair
# with identically vanishing combined correlation can contain.
ORTHOGONAL_RAWS = tuple(int(i) for i in np.flatnonzero(SC == 0))


def golay_tracks(n: int) -> tuple[_engine.TrackSpec]:
    """The Golay track over the 8 orthogonal quads, cut to one member of
    each orbit under G = {(+-A, +-B), (+-B, +-A)}.  For n >= 2, G acts
    freely (A = +-B would give a_1 a_n + b_1 b_n = +-2 a_1 a_n at shift
    n - 1), and each orbit holds exactly one pair with a_1 = b_1 = a_n = +1
    and b_n = -1, whose pair 1 is the raw quad 1: state 0 admits only that
    quad, state 1 every orthogonal quad.  For n = 1 the one column is the
    central, and state 0 admits only z = 0, (+, +).  Every test of the
    search is invariant under G, so each level keeps exactly 1/8 of the
    unrestricted states, and the leaves are the orbit leaders, each once."""
    del n
    allow = np.zeros((2, 16), dtype=bool)
    allow[0, 1] = True
    allow[1, list(ORTHOGONAL_RAWS)] = True
    central = np.ones((2, 4), dtype=bool)
    central[0, 1:] = False
    track = _engine.TrackSpec(
        alphabet=np.array(ORTHOGONAL_RAWS, dtype=np.int8),
        allow=allow,
        trans=np.ones((2, 16), dtype=np.int8),
        central=central,
    )
    return (track,)


def golay_root(n: int) -> _engine._Block:
    """The one start state of a Golay search: nothing placed, the row
    sums of both sequences 0, and its own index as its origin (_expand
    carries it)."""
    zero_sums = np.array([n * int(_row_strides(n, 2).sum())], dtype=np.int32)
    return _engine._Block(
        np.zeros((n, 1), dtype=np.int16),
        np.zeros((0, 1), dtype=np.int8),
        np.zeros(1, dtype=np.int8),
        zero_sums,
        zero_sums.copy(),
        np.zeros(1, dtype=np.int32),
    )


def golay_leader_search(n: int):
    """The Golay search on one member per orbit, as a function of the
    shard, its levels built once: the leader track placed column by
    column by the library's _descend and _expand, on the reach tables of
    a^2 + b^2 = 2n, its shard cut as in the library's search.
    bounds[n - m] is identically zero, so the last level's survivors
    satisfy every equation: they are the leaves.  The kernel is looked
    up on _engine when the search runs, so that the spies of these tests
    see it."""
    tracks = golay_tracks(n)
    (track,) = tracks
    m = n // 2
    levels = _engine._levels(n, track, golay_solutions(n))

    def search(shard: tuple[int, int]) -> dict:
        i, w = shard
        split = min(3, m)

        def expand(block, k):
            return _engine._expand(block, n, k, track, levels[k])

        leaves = [
            {"syms": [block.syms.T]}
            for head in _engine._descend(golay_root(n), 0, split, expand)
            for block in _engine._descend(head.take(slice(i, None, w)), split, n - m, expand)
        ]
        return merge_leaves(leaves, tracks, n)

    return search


def full_golay_tracks(n: int) -> tuple[_engine.TrackSpec]:
    """The Golay track of golay_tracks uncut: every orthogonal quad in
    every column, every central, one prefix state.  It searches every
    ordered pair, 8 times as many states per level."""
    del n
    track = _engine.TrackSpec(
        alphabet=np.array(ORTHOGONAL_RAWS, dtype=np.int8),
        allow=np.ones((1, 16), dtype=bool),
        trans=np.zeros((1, 16), dtype=np.int8),
        central=np.ones((1, 4), dtype=bool),
    )
    return (track,)


def golay_kernel(n: int):
    """The unrestricted Golay search as (root, expand, finish): the
    library's _expand on the pair levels of full_golay_tracks, then the
    central of odd n by central_leaves_oracle."""
    (track,) = full_golay_tracks(n)
    levels = _levels(n, track, golay_solutions(n))
    return (
        golay_root(n),
        lambda block, k: _expand(block, n, k, track, levels[k]),
        lambda block: pair_complete_leaves(joint_block(block), n, (track,)),
    )


def level_search(n: int, root, expand, finish, chunk: int = 1 << 15):
    """The level-synchronous search: expand a whole level, chunk by chunk,
    before starting the next.  Returns the states left after each level
    k = 1..n//2 and the leaves below each block of the last."""
    blocks = [root]
    sizes = []
    for k in range(1, n // 2 + 1):
        nxt = []
        for block in blocks:
            for lo in range(0, len(block), chunk):
                out = expand(block.take(slice(lo, lo + chunk)), k)
                if out is not None:
                    nxt.append(out)
        blocks = nxt
        sizes.append(sum(len(b) for b in blocks))
    return sizes, [finish(block) for block in blocks]


def depth_first(block, k: int, last: int, expand, emit, chunk: int = CHUNK) -> None:
    """The chunked depth-first traversal: expand the block, columns 1..k
    placed, chunk states at a time, and search each chunk's output to the
    end before the next; emit receives each block of column last."""
    if block is None:
        return
    if k == last:
        emit(block)
        return
    for lo in range(0, len(block), chunk):
        depth_first(expand(block.take(slice(lo, lo + chunk)), k + 1), k + 1, last, expand, emit, chunk)


def joint_search(n: int) -> dict:
    """Both tracks of NS(n) placed together, column by column, depth
    first: the joint search, the oracle of the A-first search."""
    root, expand, finish = joint_kernel(n)
    leaves = []
    depth_first(root, 0, n // 2, expand, lambda block: leaves.append(finish(block)))
    return _merge_leaves(leaves, n)


def leaf_rows(leaves: dict) -> list[tuple]:
    """Each leaf as one row (every track's quads side by side), sorted, so
    that searches visiting leaves in any order compare equal."""
    return sorted(map(tuple, np.concatenate(leaves["syms"], axis=1).tolist()))


SEARCHES = {"ns": ns_tracks, "golay": golay_tracks}
KERNELS = {"ns": joint_kernel, "golay": golay_kernel}


def search_inputs(kind: str, n: int):
    return SEARCHES[kind](n)


def prepare(kind: str, n: int):
    """The search of a kind as a function of the shard: the library's NS
    search, or the Golay leader search of this module."""
    if kind == "ns":
        return _engine._prepare(n)
    return golay_leader_search(n)


def run(kind: str, n: int) -> dict:
    """The leaves of the whole search of a kind, in one shard."""
    return prepare(kind, n)((0, 1))


@lru_cache(maxsize=None)
def oracle(kind: str, n: int) -> tuple[list[int], list[tuple]]:
    """The level-synchronous search: the joint search for NS, the
    library's kernel on the unrestricted track for Golay, which searches
    every ordered pair."""
    sizes, parts = level_search(n, *KERNELS[kind](n))
    return sizes, leaf_rows(merge_leaves(parts, search_inputs(kind, n), n))


def oracle_leaves(kind: str, n: int) -> list[tuple]:
    """The oracle's rows that the library's search returns: every NS row,
    and the Golay rows that lead their orbits, whose pair 1 is the raw
    quad 1 (a_1 = b_1 = a_n = +1, b_n = -1), or at n = 1 whose central is
    z = 0, the raw quad 0."""
    rows = oracle(kind, n)[1]
    if kind == "ns":
        return rows
    return [row for row in rows if row[0] == (1 if n > 1 else 0)]


# Recorded from the broadcast-predicate engine that preceded the reach
# tables.  Any change that prunes less, or more, moves one of these.  The
# NS rows pin the joint search of this module (joint_levels and
# expand_oracle), the Golay rows the library's _expand on the unrestricted
# track (full_golay_tracks).
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

@pytest.mark.parametrize("kind, n", sorted(GOLDEN_FRONTIERS))
def test_frontier_sizes_match_golden(kind, n):
    assert oracle(kind, n)[0] == GOLDEN_FRONTIERS[kind, n]


def counting(fn, sizes: dict):
    """fn (a level step, _sweep or _expand) that adds the size of each
    output to sizes[k]."""
    def spy(block, n_, k, *args):
        out = fn(block, n_, k, *args)
        sizes[k] = sizes.get(k, 0) + (0 if out is None else len(out))
        return out
    return spy


def golay_frontiers(monkeypatch, n: int) -> list[int]:
    """The states the Golay leader search keeps after each level (the
    central of odd n last), one member per orbit."""
    sizes = {}
    monkeypatch.setattr(_engine, "_expand", counting(_expand, sizes))
    run("golay", n)
    monkeypatch.undo()
    return [sizes.get(k, 0) for k in range(1, n - n // 2 + 1)]


# The Golay leader search, one member of each orbit of 8: recorded
# when the orbit rule landed, each pair level's entry GOLDEN_FRONTIERS'
# Golay entry / 8; odd n end with the central level.
GOLDEN_GOLAY_ORBITS = {
    16: [1, 6, 36, 176, 894, 3730, 3116, 192],
    17: [1, 6, 36, 176, 896, 3996, 14614, 3832, 0],
    18: [1, 6, 36, 176, 896, 4006, 15434, 9060, 0],
    19: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    20: [1, 6, 36, 176, 896, 4046, 17560, 55824, 76900, 136],
}


@pytest.mark.parametrize("n", sorted(GOLDEN_GOLAY_ORBITS))
def test_golay_orbit_frontiers_match_golden(monkeypatch, n):
    got = golay_frontiers(monkeypatch, n)
    assert got == GOLDEN_GOLAY_ORBITS[n]
    assert [8 * size for size in got[:n // 2]] == GOLDEN_FRONTIERS["golay", n]


@pytest.mark.parametrize("n", range(1, 23))
def test_golay_leaders_are_distinct(n):
    tracks = golay_tracks(n)
    search = golay_leader_search(n)
    for shards in (1, 2, 8):
        parts = [search((i, shards)) for i in range(shards)]
        rows = leaf_rows(merge_leaves(parts, tracks, n))
        assert len(set(rows)) == len(rows), shards


def spell_rows(rows: np.ndarray, n: int, left, right) -> np.ndarray:
    """The +1/-1 rows, shape (leaves, n), that leaf rows of raw quads
    (leaves, n - n//2) spell, left and right being one row's signs in a
    quad's two columns (TOP_* or BOT_*): the left columns fill the first
    n - n//2 positions in order, the right columns the last n - n//2 in
    reverse, and both reach the central of odd n."""
    m = n // 2
    out = np.empty((len(rows), n), dtype=np.int8)
    out[:, :n - m], out[:, m:] = left[rows], right[rows][:, ::-1]
    return out


def sign_pairs(rows, n: int) -> list[tuple]:
    """Golay leaves, rows of raw quads, as sorted (A, B) sign tuples."""
    rows = np.array(rows, dtype=np.int8).reshape(-1, n - n // 2)
    a, b = (spell_rows(rows, n, *tables).tolist() for tables in ((TOP_LEFT, TOP_RIGHT), (BOT_LEFT, BOT_RIGHT)))
    return sorted(zip(map(tuple, a), map(tuple, b)))


@pytest.mark.parametrize("n", range(1, 23))
def test_codes_are_the_encoded_sign_rows(monkeypatch, n):
    # The code pairs search_normal reads off the leaves through the label
    # table are quadcodec's codes of the leaves spelled by the sign
    # tables: A from the top row of (A;A), C and D from (C;D).
    searched = []

    def spy(n_, shard=(0, 1)):
        searched.append(run_search(n_, shard))
        return searched[-1]

    monkeypatch.setattr(_engine, "run_search", spy)
    got = _engine.search_normal(n)
    ((aa, cd),) = [leaves["syms"] for leaves in searched]
    want = []
    for a, c, d in zip(*(
        spell_rows(rows, n, *tables).tolist()
        for rows, tables in ((aa, (TOP_LEFT, TOP_RIGHT)), (cd, (TOP_LEFT, TOP_RIGHT)), (cd, (BOT_LEFT, BOT_RIGHT)))
    )):
        p, q = encode_quadruple(NormalQuadruple(BinarySeq(a), BinarySeq(c), BinarySeq(d)))
        want.append((p.text, q.text))
    assert got == want == list(zip(_codes(aa, n), _codes(cd, n)))
    assert len(got) == load_tables().counts[n].equ


def golay_leaders_unfolded(n: int) -> list[tuple]:
    """Every image under G of the leaders the Golay leader search finds,
    each once (at n = 1 the swap fixes the leader), sorted."""
    return sorted({
        (tuple(sx * t for t in x), tuple(sy * t for t in y))
        for a, b in sign_pairs(run("golay", n)["syms"][0], n)
        for x, y in ((a, b), (b, a))
        for sx in (1, -1)
        for sy in (1, -1)
    })


@pytest.mark.parametrize("n", range(1, 23))
def test_golay_leaves_unfold_one_member_per_orbit(n):
    # The leaders, unfolded, are every ordered pair of the unrestricted
    # search, once.
    assert golay_leaders_unfolded(n) == sign_pairs(oracle("golay", n)[1], n)


@pytest.mark.parametrize("n", range(1, 23))
def test_derived_pairs_are_the_oracle_leaders_unfolded(n):
    # What golay_pairs reads off the NS classes, the members with C = D of
    # the Golay-type classes, in one process or (from n = 17, POOL_MIN_N)
    # over the pool, is every image under G of the leaders a separate
    # search finds.
    want = golay_leaders_unfolded(n)
    for workers in (1, 2):
        got = [(pair.a.terms, pair.b.terms) for pair in golay_pairs(n, workers=workers)]
        assert got == want, workers


@pytest.mark.parametrize("n", range(1, 21))
@pytest.mark.parametrize("kind", sorted(SEARCHES))
def test_run_search_matches_level_synchronous_oracle(kind, n):
    assert leaf_rows(run(kind, n)) == oracle_leaves(kind, n)


@pytest.mark.parametrize("shards", [2, 8])
@pytest.mark.parametrize("n", range(1, 21))
@pytest.mark.parametrize("kind", sorted(SEARCHES))
def test_shards_partition_the_search(kind, n, shards):
    # As in a pool worker, one prepared search runs every shard, in any
    # order: each shard starts from nothing held.
    tracks = search_inputs(kind, n)
    search = prepare(kind, n)
    parts = [search((i, shards)) for i in reversed(range(shards))]
    assert leaf_rows(merge_leaves(parts, tracks, n)) == oracle_leaves(kind, n)


@pytest.mark.parametrize("n", range(21, 25))
def test_a_first_matches_joint_search_past_20(n):
    # Past n = 20 the level-synchronous oracle holds too much at once; the
    # joint chunked descent is the oracle, serially and in 8 shards.
    want = leaf_rows(joint_search(n))
    assert leaf_rows(run_search(n)) == want
    search = _prepare(n)
    parts = [search((i, 8)) for i in reversed(range(8))]
    assert leaf_rows(_merge_leaves(parts, n)) == want


def test_joint_search_matches_level_synchronous_oracle():
    # The same kernel in the two traversals.  Golay has no joint search:
    # its library descent is checked against the oracle above.
    for n in range(1, 21):
        assert leaf_rows(joint_search(n)) == oracle("ns", n)[1]


def a_first_frontiers(monkeypatch, n: int):
    """What the A-first search of NS(n) keeps: the completed A's left
    after each sweep level, those that pass the power test, and the
    (C;D) states left after each placement level."""
    sweep, place, passed = {}, {}, []

    def psd_spy(signs, n_, tables):
        keep = _psd_keep(signs, n_, tables)
        passed.append(len(keep))
        return keep

    monkeypatch.setattr(_engine, "_sweep", counting(_sweep, sweep))
    monkeypatch.setattr(_engine, "_expand", counting(_expand, place))
    monkeypatch.setattr(_engine, "_psd_keep", psd_spy)
    leaves = run_search(n)
    monkeypatch.undo()
    last = n - n // 2
    return (
        [sweep.get(k, 0) for k in range(1, last + 1)],
        sum(passed),
        [place.get(k, 0) for k in range(1, last + 1)],
        len(leaves["syms"][0]),
    )


# The A-first search of NS(n), recorded when it replaced the joint
# search: the A's left after each sweep level (admitted by the prefix
# tables, sums still reachable), the A's passing the power test, the
# (C;D) states left after each placement level, and the leaves.
GOLDEN_A_FIRST = {
    20: (
        [1, 3, 10, 36, 136, 528, 2079, 8183, 30849, 65331],
        197,
        [197, 290, 528, 1096, 2187, 4588, 8921, 11641, 3869, 36],
        36,
    ),
    25: (
        [2, 4, 12, 40, 144, 544, 2112, 8320, 33014, 130903, 507612, 1837749, 3330693],
        1589,
        [1589, 2318, 4129, 8402, 16918, 34932, 71696, 145896, 276218, 381533, 222657, 1885, 4],
        4,
    ),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_A_FIRST))
def test_a_first_frontiers_match_golden(monkeypatch, n):
    assert a_first_frontiers(monkeypatch, n) == GOLDEN_A_FIRST[n]


def test_traversal_is_chunked_and_deepest_first(monkeypatch):
    # Count the states each level holds from what each phase's expansion
    # (the A sweep, the placement of the tracks) consumes and produces.
    # No expansion takes more than a chunk, and while a level is expanded
    # every deeper level of its phase is empty: each expansion's output is
    # searched to the end before the next slice is taken.  Level 0, the
    # root, is not counted: the placement of (C;D) starts from a batch of
    # swept A's.
    n = 18
    seen = {}

    def spy(fn):
        held = seen.setdefault(fn, [[], [0] * (n // 2 + 1)])

        def counted(block, n_, k, *args):
            held[0].append(len(block))
            assert len(block) <= CHUNK
            if k > 1:
                held[1][k - 1] -= len(block)
            assert not any(held[1][k:n // 2]), (k, held[1])
            out = fn(block, n_, k, *args)
            if out is not None:
                held[1][k] += len(out)
            return out
        return counted

    monkeypatch.setattr(_engine, "_sweep", spy(_sweep))
    monkeypatch.setattr(_engine, "_expand", spy(_expand))
    for kind in SEARCHES:
        run(kind, n)
        for _, held in seen.values():
            assert held[1:n // 2] == [0] * (n // 2 - 1)
    # The Golay frontier and the A sweep pass 10 * CHUNK, so full chunks
    # are taken.
    assert max(seen[_sweep][0]) == max(seen[_expand][0]) == CHUNK


def test_placement_takes_swept_a_in_batches(monkeypatch):
    # With CHUNK = 8 the 197 A's of NS(20) that pass the power test
    # (GOLDEN_A_FIRST) fill several batches: the placement of (C;D) starts
    # while the sweep runs, and no batch reaches 2 * CHUNK A's (fewer than
    # CHUNK held, plus one swept block of at most CHUNK).  A batch is
    # seen at pair 1, whose states are its A's, numbered from 0 by origin.
    want = leaf_rows(run_search(20))
    events, batches = [], []

    def psd_spy(signs, n_, tables):
        events.append("power")
        return _psd_keep(signs, n_, tables)

    def expand_spy(block, n_, k, *args):
        if k == 1:
            events.append("place")
            if block.origin[0] == 0:
                batches.append(0)
            batches[-1] = max(batches[-1], int(block.origin.max()) + 1)
        return _expand(block, n_, k, *args)

    monkeypatch.setattr(_engine, "CHUNK", 8)
    monkeypatch.setattr(_engine, "_psd_keep", psd_spy)
    monkeypatch.setattr(_engine, "_expand", expand_spy)
    got = leaf_rows(run_search(20))
    assert events.index("place") < len(events) - 1 - events[::-1].index("power")
    assert len(batches) > 1 and sum(batches) == 197
    assert max(batches) < 2 * 8
    assert got == want


@pytest.mark.parametrize("n, chunk", [(20, 8), (25, CHUNK)])
def test_power_test_takes_at_most_a_chunk(monkeypatch, n, chunk):
    # The sweep's last level holds up to 4 * CHUNK A's per expansion; the
    # power test gets them at most CHUNK at a time, and full chunks are
    # taken, whatever CHUNK is.
    want = leaf_rows(run_search(n))
    calls = []

    def psd_spy(signs, n_, tables):
        calls.append(signs.shape[1])
        return _psd_keep(signs, n_, tables)

    monkeypatch.setattr(_engine, "CHUNK", chunk)
    monkeypatch.setattr(_engine, "_psd_keep", psd_spy)
    got = leaf_rows(run_search(n))
    assert max(calls) == chunk
    assert got == want


@pytest.mark.parametrize("n", range(1, 21))
@pytest.mark.parametrize("kind", sorted(SEARCHES))
def test_shift_major_kernel_matches_row_major_oracle(monkeypatch, kind, n):
    # Every chunk of a pair level the search expands (NS: the placement of
    # (C;D) on swept A's), through both kernels, its one track as a
    # 1-tuple of tracks: the same survivors in the same order, and the
    # same arrays.  The oracle, first written row-major, has no central
    # level.
    expanded = []

    def spy(block, n_, k, track, level):
        got = _expand(block, n_, k, track, level)
        if 2 * k > n_:
            return got
        joint = JointLevel([level.units], level.plain, level.alt, level.reach, level.bound)
        want = expand_oracle(joint_block(block), n_, k, (track,), joint)
        assert (got is None) == (want is None), k
        if got is not None:
            for field in fields(JointBlock):
                a, b = getattr(joint_block(got), field.name), getattr(want, field.name)
                for x, y in zip(a, b) if field.name == "syms" else [(a, b)]:
                    assert x.dtype == y.dtype and np.array_equal(x, y), (k, field.name)
        expanded.append(k)
        return got

    monkeypatch.setattr(_engine, "_expand", spy)
    run(kind, n)
    # n = 1 has no pair to place, and no A of length 6 or 14 passes the
    # sweep and the power test.
    assert expanded or n == 1 or (kind, n) in (("ns", 6), ("ns", 14))


def library_levels(n: int):
    """(track, its levels) for each level list a search builds: the A
    sweep and the (C;D) placement of NS(n), and the Golay leader search."""
    aa, cd = ns_tracks(n)
    (golay,) = golay_tracks(n)
    ns = _solutions(n)
    return [
        (aa, _levels(n, aa, np.unique(ns[:, :1], axis=0), rows=1)),
        (cd, _levels(n, cd, ns)),
        (golay, _levels(n, golay, golay_solutions(n))),
    ]


@pytest.mark.parametrize("n", range(1, 41))
def test_forbidden_gate_value_cannot_cancel(n):
    # A gathered gate entry is added to the correlation before pair k.
    # An allowed entry is an SS or SC value, and the correlation is within
    # the level's bound (A's share included: 2|N_A| is within the bound
    # of C and D with nothing placed), so _FORBIDDEN must exceed both
    # together, and _FORBIDDEN plus the bound must still fit int16.
    bound = int(_bounds(n).max())
    assert _FORBIDDEN > int(np.abs(SS).max()) + bound
    assert _FORBIDDEN > int(np.abs(SC).max()) + bound
    assert _FORBIDDEN + bound <= np.iinfo(np.int16).max
    allowed = set(SS.ravel().tolist()) | set(SC.tolist()) | {_FORBIDDEN}
    for _, levels in library_levels(n):
        for level in levels[1:]:
            assert level.gate.dtype == np.int16 and level.gate.ndim == 2
            assert set(np.unique(level.gate).tolist()) <= allowed


# Ceilings of 1.1x the tracemalloc peaks of each search (run), on 2 cores
# with Python 3.11 and numpy 2.4.  Golay n = 20: 3_681_669 bytes with one
# member per orbit searched, against 4_944_738 for every ordered pair and
# 5_040_522 with the row-major kernel that the shift-major one replaced.
# NS, with the A sweep and the placement of (C;D) that replaced the joint
# search: 2_185_021 bytes for n = 19, 2_904_621 for n = 20, 2_911_452 for
# n = 21 and 7_777_765 for n = 25 (the joint search peaked at 6.1, 7.7
# and 8.4 MB at n = 19, 20 and 21).
LIVE_PEAK_CEILINGS = {
    ("golay", 20): 4_050_000,
    ("ns", 19): 2_404_000,
    ("ns", 20): 3_196_000,
    ("ns", 21): 3_203_000,
    ("ns", 25): 8_556_000,
}


# The n = 20 cases keep their ids, "ns" and "golay".
@pytest.mark.parametrize("kind, n", [
    pytest.param(kind, n, id=kind if n == 20 else f"{kind}-{n}") for kind, n in LIVE_PEAK_CEILINGS
])
def test_live_peak_is_bounded(kind, n):
    run(kind, n)  # fill the module caches before tracing
    tracemalloc.start()
    try:
        run(kind, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LIVE_PEAK_CEILINGS[kind, n]


@pytest.mark.parametrize("kind, n", [("ns", 15), ("ns", 16), ("golay", 16)])
def test_tiny_chunks_match_oracle(monkeypatch, kind, n):
    # Chunks far smaller than a level's blocks: every expansion's output
    # is split at every level, and odd n places its central column on
    # many small blocks.
    monkeypatch.setattr(_engine, "CHUNK", 37)
    assert leaf_rows(run(kind, n)) == oracle_leaves(kind, n)


def test_level_setup_is_built_once_per_level(monkeypatch):
    # _levels runs once per search, or for NS once for the A sweep and
    # once for the placement of (C;D); every chunk of pair k is expanded
    # with that phase's one level k object.
    built, expanded = [], {_sweep: [], _expand: []}

    def levels_spy(n, track, *args, **kwargs):
        built.append(_levels(n, track, *args, **kwargs))
        return built[-1]

    def spy(fn):
        def expand_spy(block, n, k, track, level):
            assert level is built[-1 if fn is _expand else 0][k]
            expanded[fn].append(k)
            return fn(block, n, k, track, level)
        return expand_spy

    monkeypatch.setattr(_engine, "_levels", levels_spy)
    monkeypatch.setattr(_engine, "_sweep", spy(_sweep))
    monkeypatch.setattr(_engine, "_expand", spy(_expand))
    # Level 9 holds 76,900 Golay states (GOLDEN_GOLAY_ORBITS), at least 19
    # chunks, and ~31 k swept A's (GOLDEN_A_FIRST), so placing pair 10
    # takes many chunks.
    for kind, phases, chunked, least in (("golay", 1, _expand, 18), ("ns", 2, _sweep, 5)):
        built.clear()
        expanded[chunked].clear()
        run(kind, 20)
        assert len(built) == phases and all(len(b) == 11 for b in built)
        assert expanded[chunked].count(10) > least


@pytest.mark.parametrize("n", range(1, 23))
def test_one_level_per_column(n):
    # Every column is one level of the kernel: the n//2 pairs, each
    # taking the track's alphabet, then for odd n the central, whose quads
    # are 5*z for each admissible z and whose crossed products are its DD
    # products (no SS update).
    for track, levels in library_levels(n):
        assert len(levels) == n - n // 2 + 1
        for level in levels[1:n // 2 + 1]:
            assert level.ss is _SS_FLAT
            assert np.array_equal(level.units, track.alphabet)
        if n % 2:
            central = levels[-1]
            assert not central.ss.any()
            assert central.units.dtype == np.int8
            admitted = 5 * np.flatnonzero(track.central.any(axis=0))
            assert central.units.tolist() == admitted.tolist()


@pytest.mark.parametrize("n", [4, 5])
def test_start_state_allows_the_first_quads(n):
    # State 0 is the start: its allow row is the alphabet of pair 1.
    def first(track):
        return {int(q) for q in track.alphabet if track.allow[0, q]}

    aa, cd = ns_tracks(n)
    (golay,) = golay_tracks(n)
    assert first(aa) == ({0, 3} if n % 2 else {0})  # label 1, and 6 for odd n
    assert first(cd) == {0, 3}                      # labels 1 and 6
    # Golay's one member per orbit: a_1 = b_1 = a_n = +1, b_n = -1, or the
    # central (+, +) of n = 1; every later column is free.
    assert first(golay) == {1}
    assert np.flatnonzero(golay.central[0]).tolist() == [0]
    assert golay.allow[1, golay.alphabet].all() and golay.central[1].all()


def aa_central_oracle(syms: np.ndarray, z: int) -> np.ndarray:
    """The repeated pair's central rules as a scan of each state's quads:
    the central is 0 or 3, and 0 when every quad is skew, or when no two
    adjacent quads share a type and the last quad is symmetric."""
    if z not in (0, 3):
        return np.zeros(len(syms), dtype=bool)
    skew = np.isin(syms, (3, 12))
    all_skew = skew.all(axis=1)
    if syms.shape[1] > 1:
        adjacency = (skew[:, :-1] == skew[:, 1:]).any(axis=1)
    else:
        adjacency = np.zeros(len(syms), dtype=bool)
    last_sym = ~skew[:, -1] if syms.shape[1] else np.zeros(len(syms), dtype=bool)
    forced_zero = all_skew | (~adjacency & last_sym)
    if z == 0:
        return np.ones(len(syms), dtype=bool)
    return ~forced_zero


def cd_central_oracle(syms: np.ndarray, z: int) -> np.ndarray:
    """The (C;D) central rules as a scan: a nonzero central needs a
    label-1 quad, and central 2 also a label-2 quad."""
    ok = np.ones(len(syms), dtype=bool)
    if z == 2:
        ok &= (syms == 5).any(axis=1)
    if z != 0:
        ok &= (syms == 0).any(axis=1)
    return ok


@pytest.mark.parametrize("n", range(1, 20, 2))
def test_central_table_matches_symbol_scan(monkeypatch, n):
    # Every state that reaches the central level, in the A sweep, the
    # placement of (C;D) and the joint search, looked up in the table by
    # its prefix state and scanned by its quads, for each central.  Each
    # block is held as (track ids, per track its prefix states and its
    # quads row-major).
    oracles = {0: aa_central_oracle, 1: cd_central_oracle}
    tracks = search_inputs("ns", n)
    placed, joint = [], []

    def spy(fn):
        def central_spy(block, n_, k, track, level):
            if 2 * k > n_:
                (t,) = [i for i, known in enumerate(tracks) if np.array_equal(known.alphabet, track.alphabet)]
                placed.append(((t,), [block.fst], [block.syms.T]))
            return fn(block, n_, k, track, level)
        return central_spy

    monkeypatch.setattr(_engine, "_sweep", spy(_sweep))
    monkeypatch.setattr(_engine, "_expand", spy(_expand))
    run_search(n)
    root, expand, _ = joint_kernel(n)
    depth_first(root, 0, n // 2, expand, lambda b: joint.append(((0, 1), list(b.fst), [s.T for s in b.syms])))
    assert {ids for ids, _, _ in placed} == {(0,), (1,)}
    assert {ids for ids, _, _ in joint} == {(0, 1)}
    for ids, fst, syms in placed + joint:
        for row, t in enumerate(ids):
            for z in range(4):
                table = tracks[t].central[fst[row], z]
                assert np.array_equal(table, oracles[t](syms[row], z)), (t, z)


@pytest.mark.parametrize("n", range(1, 22, 2))
@pytest.mark.parametrize("kind", sorted(SEARCHES))
def test_central_broadcast_matches_per_combination_oracle(monkeypatch, kind, n):
    # Every block that reaches the central level, through the kernel,
    # which tries every central of the track at once, and through the
    # loop over them.
    steps = []

    def spy(block, n_, k, track, level):
        got = _expand(block, n_, k, track, level)
        if 2 * k > n_:
            steps.append((track, block, got))
        return got

    monkeypatch.setattr(_engine, "_expand", spy)
    run(kind, n)  # NS: the central of (C;D), A complete
    # Odd Golay lengths above 1 have no row-sum solution, so no state
    # gets past pair 1.
    assert steps or (kind == "golay" and n > 1)
    for track, block, got in steps:
        syms = [] if got is None else [{"syms": [got.syms.T]}]
        assert leaf_rows(merge_leaves(syms, (track,), n)) == leaf_rows(
            central_leaves_oracle(joint_block(block), n, (track,))
        )
        assert got is None or got.syms.dtype == np.int8


@pytest.mark.parametrize("n", range(1, 20, 2))
def test_central_is_the_last_quad(n):
    # The central column z is held as the raw quad 5*z, both columns z;
    # the repeated pair's central is 0 or 3, so its quad is 0 or 15.
    leaves = {kind: run(kind, n)["syms"] for kind in SEARCHES}
    assert len(leaves["ns"][0]) or n == 17  # NS(17) alone has no class
    for kind, syms in leaves.items():
        for t, quads in enumerate(syms):
            assert quads.shape[1] == n - n // 2
            allowed = {0, 15} if kind == "ns" and t == 0 else {0, 5, 10, 15}
            assert set(quads[:, -1].tolist()) <= allowed


def sweep_one(n: int, a: tuple[int, ...]):
    """Sweep the one sequence A through _sweep, keeping at each level only
    the state that places A's own quad; None where a level drops it.
    Returns A's column of signs, spelled from the quads kept."""
    aa = ns_tracks(n)[0]
    a_values = np.unique(_solutions(n)[:, :1], axis=0)
    levels = _levels(n, aa, a_values, rows=1)
    # Pair k holds A's positions k and n+1-k; the central is both.
    column = [0 if v > 0 else 3 for v in a]
    quads = [4 * column[k] + column[n - 1 - k] for k in range(n // 2)]
    quads += [5 * column[n // 2]] * (n % 2)
    block = _root(n)
    for k, quad in enumerate(quads, start=1):
        out = _sweep(block, n, k, aa, levels[k])
        if out is None or quad not in out.syms[k - 1]:
            return None
        block = out.take(np.flatnonzero(out.syms[k - 1] == quad))
    return _spell(block.syms, n)


def canonical_representatives():
    from nsq.equivalence import canonical_raw
    from nsq.quadcodec import decode_quadruple, parse_code

    for row in load_tables().reps:
        raw = decode_quadruple(*parse_code(f"{row.p_code} {row.q_code}", n=row.n)).raw()
        if canonical_raw(raw) == raw:
            yield row.n, raw[0]


def test_sweep_and_power_test_pass_every_canonical_representative():
    # Every bundled representative that is its orbit's canonical member,
    # n = 25, 29 and 32 included: the prefix tables admit its A, its row
    # sums reach a solution's a at every level, and it passes the power
    # test at every angle.  All of these tests are necessary only.
    lengths = set()
    for n, a in canonical_representatives():
        signs = sweep_one(n, a)
        assert signs is not None, (n, a)
        assert signs[:, 0].tolist() == list(a)
        assert _psd_keep(signs, n, _psd_tables(n)).tolist() == [0], (n, a)
        lengths.add(n)
    assert {25, 29, 32} <= lengths


@pytest.mark.parametrize("n", range(1, 41))
def test_power_test_error_stays_inside_its_tolerance(n):
    # The bound of _psd_keep's docstring, evaluated, leaves PSD_TOL four
    # times the room it needs.  On the all-ones sequence, whose power
    # peaks at n^2, and on random sequences, the power computed from the
    # tables is that close to its complex128 value at the stated angles.
    u = float(np.finfo(PSD_FLOAT).eps) / 2
    gamma = n * u / (1 - n * u)
    d = 1.001 * n * u + gamma * n * (1 + 1.001 * u)
    assert 2 * np.sqrt(2) * n * d + 2 * d * d + 2.1 * u * n * n < PSD_TOL / 4
    rng = np.random.default_rng(n)
    signs = np.concatenate([np.ones((n, 1)), rng.choice([-1, 1], size=(n, 200))], axis=1)
    angles = (np.pi * (np.arange(1, 17) - 0.5) / 16, 2 * np.pi * np.arange(2 * n + 1) / (4 * n))
    for table, theta in zip(_psd_tables(n), angles):
        assert table.dtype == PSD_FLOAT and table.shape == (2 * len(theta), n)
        z = table @ signs.astype(PSD_FLOAT)
        got = z[:len(theta)] ** 2 + z[len(theta):] ** 2
        exact = np.abs(np.exp(1j * np.outer(theta, np.arange(n))) @ signs) ** 2
        assert np.abs(got - exact).max() < PSD_TOL / 4
