"""Chunked, vectorised outward-in quad search.

Shared by the class enumerator and the Golay pair search.  Sequences are
filled from the outside in, one column of quads per level: level k fixes
positions k and n+1-k of every sequence at once (one quad per pair of
sequences, or track; see TrackSpec for how a track carries the
canonical-form conditions), and for odd n the last level fixes the
central column.  Every level is one call of _expand, which filters the
(state, quad combination) candidates in four stages, cheapest first, and
gathers a state's full data only for the survivors:

1. exact + prefix: after level k the combined correlation at shift n-k is
   fully determined and must vanish, and each track's admission table
   must accept the new quad; both are one gate table per track (see
   _Level), so the check is one row gather per track and one compare;
2. row sums: the plain and alternating partial row sums must still reach
   an integer solution of the square identity the completed sequences
   satisfy, looked up in a table built once per level (_levels);
3. correlation bound: every other shift is bounded by the number of
   products it still misses (none after the last level);
4. materialisation: only now are the symbol prefixes and prefix states
   of the survivors gathered into the next block.

All arithmetic is integer.  A block is held shift-major (see _Block):
each shift's correlations, each pair's quads and each track's prefix
states are one contiguous row over the states, so the survivors are
gathered column-wise and every update and bound check runs along whole
rows.

run_search descends recursively, expanding slices of at most CHUNK
states and searching each slice's output to the end before taking the
next, so a level holds at most the unexpanded rest of one expansion:
memory is bounded by CHUNK and n, not by the frontier, which grows
several-fold per level.

A search is defined by its tracks alone: the square identity its row
sums must reach follows from which sequences each track holds
(_solutions).

Quads are held as raw ids 4*left + right, where left/right are the
column states 0=(+,+) 1=(+,-) 2=(-,+) 3=(-,-); the column state ids
coincide with the central-column labels of the text codes.  For odd n
the central column z is its own mirror image, so it is held as the raw
quad 5*z whose two columns are both z.  A leaf is then, per track, one
row of n - n//2 raw quads, the central (odd n) last.  This module is the
only one that knows the raw ids or runs worker processes: search_normal
and search_golay split a search into shards over one process pool when
asked to, and hand back plain +1/-1 sign rows (see _sign_rows), never
raw ids.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

VEC = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)
DOT4 = (VEC @ VEC.T).astype(np.int16)  # (4,4), values in {-2,0,2}

_L = np.arange(16) // 4
_R = np.arange(16) % 4

# Pairwise contribution tables for raw quads a (at pair j) and b (at pair k):
#   DD[a,b] -> shift k-j   (left-left plus right-right products)
#   SS[a,b] -> shift n+1-j-k  (the two crossed products)
#   SC[a]   -> shift n+1-2j   (a quad against itself)
# The central column z of odd n is the raw quad 5*z at level m+1.  It
# meets a quad a at pair j through DD[a, 5*z], at shift m+1-j; SS[a, 5*z]
# is the same two products, so that level adds no SS (_Level.ss).
DD = DOT4[_L[:, None], _L[None, :]] + DOT4[_R[:, None], _R[None, :]]
SS = DOT4[_L[:, None], _R[None, :]] + DOT4[_L[None, :], _R[:, None]]
SC = DOT4[_L, _R]
_DD_FLAT = DD.ravel()  # indexed by 16*a + b
_SS_FLAT = SS.ravel()

# Per-row sign values of a raw quad's two positions.
TOP_LEFT = VEC[_L, 0]
TOP_RIGHT = VEC[_R, 0]
BOT_LEFT = VEC[_L, 1]
BOT_RIGHT = VEC[_R, 1]

_AA_RAWS = (0, 12, 3, 15)  # labels 1, 3, 6, 8
_CD_RAWS = (0, 5, 12, 6, 9, 3, 10, 15)  # labels 1..8, in order
# Raw ids whose columns are orthogonal; these are the only quads a pair
# with identically vanishing combined correlation can contain.
ORTHOGONAL_RAWS = tuple(int(i) for i in range(16) if DOT4[_L[i], _R[i]] == 0)

_SYMMETRIC_RAWS = frozenset({0, 5, 10, 15})  # labels 1, 2, 7, 8


@dataclass(frozen=True)
class TrackSpec:
    """One sequence pair being searched: the quads it may use and three
    tables over one prefix state machine, whose state 0 is the start."""

    alphabet: np.ndarray         # raw ids the pair may use
    allow: np.ndarray            # (states, 16) bool: quad may follow state
    trans: np.ndarray            # (states, 16) int8: state after the quad
    central: np.ndarray          # (states, 4) bool: central z may follow state
    pair_rows: int               # 1 when the pair repeats one sequence


def _aa_tables(odd: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # State bits: 1 seen symmetric, 2 seen skew, 4 same-type adjacency
    # consumed, 8 previous quad was skew, 16 at least one quad placed.
    allow = np.zeros((32, 16), dtype=bool)
    trans = np.zeros((32, 16), dtype=np.int8)
    central = np.zeros((32, 4), dtype=bool)
    for state in range(32):
        seen_sym = state & 1
        seen_skew = state & 2
        vdone = state & 4
        prev_skew = state & 8
        has_prev = state & 16
        for raw in _AA_RAWS:
            skew = raw not in _SYMMETRIC_RAWS
            adjacency = has_prev and not vdone and bool(prev_skew) == skew
            ok = True
            if not odd and not has_prev and raw != 0:
                ok = False  # even n starts with label 1
            if not skew and not seen_sym and raw != 0:
                ok = False  # first symmetric quad must be label 1
            if skew and not seen_skew and raw != 3:
                ok = False  # first skew quad must be label 6
            if odd and adjacency and raw not in (0, 3):
                ok = False  # first same-type adjacency pins it to {1,6}
            allow[state, raw] = ok
            new = state | (2 if skew else 1) | 16
            if odd and adjacency:
                new |= 4
            new = (new & ~8) | (8 if skew else 0)
            trans[state, raw] = new
        # The central is 0 or 3.  It is forced to 0 when every quad is skew
        # (bit 1 unset), or when the last quad is symmetric and no same-type
        # adjacency occurred (bit 4 unset).
        central[state, 0] = True
        central[state, 3] = seen_sym and not (has_prev and not prev_skew and not vdone)
    return allow, trans, central


def _cd_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # State bits: 1 seen symmetric, 2 seen skew, 4 seen {2,7}, 8 seen {4,5}.
    allow = np.zeros((16, 16), dtype=bool)
    trans = np.zeros((16, 16), dtype=np.int8)
    central = np.zeros((16, 4), dtype=bool)
    for state in range(16):
        for raw in _CD_RAWS:
            skew = raw not in _SYMMETRIC_RAWS
            ok = True
            if not skew and not state & 1 and raw != 0:
                ok = False  # first symmetric quad must be label 1
            if skew and not state & 2 and raw != 3:
                ok = False  # first skew quad must be label 6
            if raw in (5, 10) and not state & 4 and raw != 5:
                ok = False  # first of {2,7} must be label 2
            if raw in (6, 9) and not state & 8 and raw != 6:
                ok = False  # first of {4,5} must be label 4
            allow[state, raw] = ok
            new = state | (2 if skew else 1)
            if raw in (5, 10):
                new |= 4
            if raw in (6, 9):
                new |= 8
            trans[state, raw] = new
        # A nonzero central needs a label-1 quad (bit 1, by the rules
        # above), and central 2 also a label-2 quad (bit 4).
        central[state, 0] = True
        central[state, 1:] = bool(state & 1)
        central[state, 2] = (state & 5) == 5
    return allow, trans, central


def ns_tracks(n: int) -> tuple[TrackSpec, TrackSpec]:
    aa = TrackSpec(np.array(_AA_RAWS, dtype=np.int8), *_aa_tables(n % 2 == 1), pair_rows=1)
    cd = TrackSpec(np.array(_CD_RAWS, dtype=np.int8), *_cd_tables(), pair_rows=2)
    return aa, cd


def golay_tracks(n: int) -> tuple[TrackSpec]:
    del n
    track = TrackSpec(
        alphabet=np.array(ORTHOGONAL_RAWS, dtype=np.int8),
        allow=np.ones((1, 16), dtype=bool),
        trans=np.zeros((1, 16), dtype=np.int8),
        central=np.ones((1, 4), dtype=bool),
        pair_rows=2,
    )
    return (track,)


def _solutions(n: int, tracks) -> np.ndarray:
    """Every row-sum vector the completed rows may have: one row of weight
    2 for a track that repeats one sequence, else two rows of weight 1,
    each row sum = n (mod 2), and sum_r w_r x_r^2 = n sum_r w_r.  That is
    2a^2 + c^2 + d^2 = 4n for NS(n) and a^2 + b^2 = 2n for Golay pairs."""
    weights = np.array([w for t in tracks for w in ((2,) if t.pair_rows == 1 else (1, 1))])
    axis = np.arange(-n, n + 1, 2)
    grid = np.stack(np.meshgrid(*[axis] * len(weights), indexing="ij"), axis=-1)
    grid = grid.reshape(-1, len(weights))
    return grid[grid**2 @ weights == n * weights.sum()].astype(np.int16)


def _bounds(n: int, weight: int) -> np.ndarray:
    """bounds[k][i]: largest |combined correlation at shift i| reachable
    with columns 1..k placed (pairs, then the central of odd n); weight is
    the number of underlying sequences.  Shift i has n - i products, and
    the determined ones are the lag-i autocorrelation of the 0/1
    indicator of the known positions."""
    out = np.zeros((n - n // 2 + 1, n), dtype=np.int16)
    for k in range(n - n // 2 + 1):
        known = np.zeros(n, dtype=np.int16)
        known[:k] = known[n - k:] = 1
        lagged = np.correlate(known, known, "full")[n:]  # lags 1..n-1
        out[k, 1:] = weight * (np.arange(n - 1, 0, -1) - lagged)
    return out


def _reach_table(n: int, solutions: np.ndarray, remaining: int) -> np.ndarray:
    """Flat boolean table over partial row-sum vectors, each coordinate in
    [-n, n], C-ordered.  An entry is True iff some solution s has
    |s_i - p_i| <= remaining and s_i - p_i = remaining (mod 2) on every
    coordinate, i.e. the rows can still be completed to s."""
    table = np.zeros((2 * n + 1,) * solutions.shape[1], dtype=bool)
    for s in solutions.tolist():
        box = []
        for v in s:
            lo = v - remaining
            if lo < -n:
                lo += (-n - lo + 1) // 2 * 2
            hi = min(v + remaining, n)
            if lo > hi:
                break
            box.append(slice(lo + n, hi + n + 1, 2))
        else:
            table[tuple(box)] = True
    return table.ravel()


def _row_strides(n: int, rows: int) -> np.ndarray:
    """Weights that turn a row-sum vector into its offset in a reach table."""
    return (2 * n + 1) ** np.arange(rows - 1, -1, -1, dtype=np.int32)


class _Block:
    """A chunk of search states, held shift-major: one contiguous row per
    shift, pair or track, one column per state.  p is (n, states), the
    combined correlation at each shift (row 0 unchecked: the central's
    self-product lands there); syms holds per track the raw quads placed
    so far, (pairs, states) int8; fst is (tracks, states), each track's
    prefix state.  plain and alt hold each state's plain and alternating
    row-sum vectors as flat reach-table indices."""

    __slots__ = ("p", "syms", "fst", "plain", "alt")

    def __init__(self, p, syms, fst, plain, alt):
        self.p = p
        self.syms = syms
        self.fst = fst
        self.plain = plain
        self.alt = alt

    def take(self, idx):
        return _Block(
            self.p[:, idx],
            [s[:, idx] for s in self.syms],
            self.fst[:, idx],
            self.plain[idx],
            self.alt[idx],
        )

    def __len__(self):
        return self.p.shape[1]


def _root(n: int, tracks) -> _Block:
    rows = sum(t.pair_rows for t in tracks)
    origin = np.array([n * int(_row_strides(n, rows).sum())], dtype=np.int32)
    return _Block(
        np.zeros((n, 1), dtype=np.int16),
        [np.zeros((0, 1), dtype=np.int8) for _ in tracks],
        np.zeros((len(tracks), 1), dtype=np.int8),
        origin,
        origin.copy(),
    )


# Gate value of a quad the track's admission table forbids.  It exceeds every
# sum of the other terms of the exact check (each track's |SS| <= 4 and the
# level's correlation bound), so no such sum can cancel it to zero, and
# tracks * _FORBIDDEN stays far inside int16.
_FORBIDDEN = 1 << 12


class _Level(NamedTuple):
    """The state-free constants of placing column k, built once per search
    by _levels: pair k, or for odd n and k = n//2 + 1 the central column.

    gate folds each track's exact-check term and admission table (allow,
    or central) into one int16 table of shape (16 * states, combinations).
    Its row 16 * state + a holds, per combination, what the track's new
    quad adds at shift n-k when pair 1 holds the quad a, or _FORBIDDEN
    where state does not admit the new quad.  The new quad meets pair 1
    through SS, except at k = 1, where it is pair 1 and meets itself
    through SC (and a is 0); so the pair levels past the first share one
    gate per track."""

    units: list[np.ndarray]  # per track, its quad in every combination
    gate: list[np.ndarray]   # per track, the folded exact + admission table
    plain: np.ndarray        # per combination, plain row-sum table offset
    alt: np.ndarray          # per combination, alternating row-sum offset
    reach: np.ndarray        # _reach_table(n, solutions, positions left)
    bound: np.ndarray        # largest |correlation| at shifts 1..n-1
    ss: np.ndarray           # crossed-product table of the update, by 16*a+b


def _gate(admit: np.ndarray, exact) -> np.ndarray:
    """admit is (states, combinations); exact broadcasts to (16, combinations)."""
    combos = admit.shape[1]
    folded = np.where(admit[:, None], np.broadcast_to(exact, (16, combos)), _FORBIDDEN)
    return folded.astype(np.int16).reshape(-1, combos)


def _combinations(values) -> list[np.ndarray]:
    """Per track, its value in every combination, the first track slowest."""
    return [g.reshape(-1) for g in np.meshgrid(*values, indexing="ij")]


def _levels(n: int, tracks) -> list[_Level | None]:
    """[None, level 1, ..., level n - n//2]: the constants of placing each
    column, indexed by k; for odd n the last is the central column."""
    m = n // 2
    solutions = _solutions(n, tracks)
    bounds = _bounds(n, 2 * len(tracks))
    pairs = _combinations(t.alphabet for t in tracks)
    first_gate = [_gate(t.allow[:, u], SC[u]) for t, u in zip(tracks, pairs)]
    later_gate = [_gate(t.allow[:, u], SS[:, u]) for t, u in zip(tracks, pairs)]
    levels: list[_Level | None] = [None]
    for k in range(1, n - m + 1):
        units, gate, ss = pairs, first_gate if k == 1 else later_gate, _SS_FLAT
        if k > m:
            # The central column: per track, the z its table admits in some
            # state, as quads 5*z; when n = 1 there is no pair 1 to meet.
            zs = _combinations(np.flatnonzero(t.central.any(axis=0)) for t in tracks)
            units = [(5 * z).astype(np.int8) for z in zs]
            gate = [
                _gate(t.central[:, z], SS[:, u] if k > 1 else 0)
                for t, z, u in zip(tracks, zs, units)
            ]
            ss = np.zeros_like(_SS_FLAT)
        sign_left = 1 if k % 2 else -1          # position k
        sign_right = 1 if (n - k) % 2 == 0 else -1  # position n+1-k
        plain, alt = [], []
        for u, track in zip(units, tracks):
            halves = [(TOP_LEFT[u], TOP_RIGHT[u])]
            if track.pair_rows == 2:
                halves.append((BOT_LEFT[u], BOT_RIGHT[u]))
            for left, right in halves:
                if k > m:
                    right = 0  # the central is one position: count it once
                plain.append(left + right)
                alt.append(sign_left * left + sign_right * right)
        strides = _row_strides(n, len(plain))
        levels.append(_Level(
            units,
            gate,
            np.stack(plain, axis=1) @ strides,
            np.stack(alt, axis=1) @ strides,
            _reach_table(n, solutions, n - min(2 * k, n)),
            bounds[k][1:],
            ss,
        ))
    return levels


def _expand(block: _Block, n: int, k: int, tracks, level: _Level) -> _Block | None:
    """Place column k (1-based: pair k, or for odd n and k = n//2 + 1 the
    central) on every state of the block and keep the survivors of the
    exact, row-sum and bound checks, in that order; only the survivors of
    each check are carried into the next.  level is _levels(n, tracks)[k]."""
    units = level.units
    combos = len(units[0])

    # Exact check at the newly determined shift n-k, and the prefix state
    # machines, in one gather of gate rows per track: the rows are keyed
    # by the track's state and its quad at pair 1 (unplaced when k = 1).
    delta = block.p[n - k][:, None]
    for t in range(len(tracks)):
        key = 16 * block.fst[t].astype(np.intp)
        if k > 1:
            key += block.syms[t][0]
        gated = level.gate[t].take(key, axis=0)
        gated += delta
        delta = gated
    flat = np.flatnonzero(delta == 0)
    del delta, gated  # the bound check below sets the peak; free these first
    rows_idx, combo_idx = np.divmod(flat, combos, out=(flat, np.empty_like(flat)))

    # Row sums, plain and alternating: both must still reach a solution of
    # the square identity with the n - 2k positions left in each row.
    plain = block.plain.take(rows_idx) + level.plain.take(combo_idx)
    alt = block.alt.take(rows_idx) + level.alt.take(combo_idx)
    keep = np.flatnonzero(level.reach.take(plain) & level.reach.take(alt))
    if not len(keep):
        return None
    rows_idx, plain, alt = rows_idx[keep], plain[keep], alt[keep]
    selected = [u.take(combo_idx[keep]) for u in units]
    del combo_idx

    # Correlation bound on every shift, after adding the new products: one
    # contiguous row of pair indices 16*a + b per earlier pair j.
    p_new = block.p.take(rows_idx, axis=1)
    for t in range(len(tracks)):
        u = selected[t]
        for j in range(1, k):
            pair = block.syms[t][j - 1].take(rows_idx).astype(np.int16)
            pair <<= 4
            pair += u
            p_new[k - j] += _DD_FLAT.take(pair)
            p_new[n + 1 - j - k] += level.ss.take(pair)
        p_new[n + 1 - 2 * k] += SC.take(u)
    keep = np.flatnonzero((np.abs(p_new[1:]) <= level.bound[:, None]).all(axis=0))
    if not len(keep):
        return None
    if len(keep) < len(rows_idx):
        rows_idx, plain, alt = rows_idx[keep], plain[keep], alt[keep]
        p_new = p_new.take(keep, axis=1)
        selected = [u[keep] for u in selected]

    # Materialise the survivors: symbol prefixes and prefix states.
    syms_new = [
        np.concatenate([block.syms[t].take(rows_idx, axis=1), selected[t][None]])
        for t in range(len(tracks))
    ]
    fst_new = np.stack(
        [track.trans[block.fst[t].take(rows_idx), selected[t]] for t, track in enumerate(tracks)]
    )
    return _Block(p_new, syms_new, fst_new, plain, alt)


def _merge_leaves(parts: list[dict], tracks, n: int) -> dict:
    empty = np.zeros((0, n - n // 2), dtype=np.int8)
    syms = [np.concatenate([empty] + [p["syms"][t] for p in parts]) for t in range(len(tracks))]
    return {"syms": syms}


# Most states one expansion takes.  Measured on the shift-major kernel,
# in-process on 2 cores (median of 3 runs, tracemalloc peak): NS n = 20
# 0.73 / 0.66 / 0.61 s and 4.5 / 7.2 / 12.7 MB for 1 << 11 / 12 / 13,
# Golay n = 20 0.79 / 0.65 / 0.63 s and 3.0 / 5.0 / 9.0 MB, NS n = 22
# 3.61 / 3.38 / 3.24 s and 6.6 / 10.4 / 17.9 MB.  1 << 13 saves 3-8% of
# the time for 1.7-1.8x the peak.
CHUNK = 1 << 12


def run_search(n: int, tracks, shard: tuple[int, int] = (0, 1)) -> dict:
    """Enumerate every completed assignment of the tracks.  Returns
    {"syms": per track, one row of n - n//2 raw quads per leaf}, the
    central (odd n) as the last quad.

    A recursive descent over the n - n//2 levels of _levels: the output of
    one expansion (the states with columns 1..k placed) is expanded into
    column k+1 in slices of at most CHUNK states, each slice's output
    searched to the end before the next slice is taken.  The last level's
    output is the leaves.  So each level holds at most the unexpanded rest
    of one expansion, and memory stays bounded whatever the frontier size.

    shard=(i, w) deterministically keeps every w-th state of the level-3
    frontier (level n//2 when that is shallower), so the w shards
    i = 0..w-1 partition the search.  That frontier is the output of one
    expansion, and is strided as one block.
    """
    m = n // 2
    levels = _levels(n, tracks)
    shard_index, shard_count = shard
    leaves: list[dict] = []

    def descend(block: _Block | None, k: int) -> None:
        # The block is held by this frame alone, so it is freed on return,
        # before its level's next slice is expanded.
        if block is None:
            return
        if k == min(3, m) and shard_count > 1:
            block = block.take(np.arange(shard_index, len(block), shard_count))
        if k == n - m:
            # bounds[n - m] is identically zero, so the survivors satisfy
            # every equation; they are the leaves.
            leaves.append({"syms": [s.T for s in block.syms]})
            return
        for lo in range(0, len(block), CHUNK):
            chunk = block.take(slice(lo, lo + CHUNK))
            descend(_expand(chunk, n, k + 1, tracks, levels[k + 1]), k + 1)

    descend(_root(n, tracks), 0)
    return _merge_leaves(leaves, tracks, n)


# Searches shorter than this run in-process whatever the worker count:
# measured on 2 cores, below n = 17 starting the pool costs more than the
# second worker saves.
POOL_MIN_N = 17


def _sign_rows(leaves: dict, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per track, the top and bottom +1/-1 rows (one per leaf, shape
    (leaves, n)) that the raw quads spell: each quad's left column fills
    the first n - n//2 positions in order, and its right column the last
    n - n//2 in reverse.  For odd n both reach the central position, where
    the central quad's two columns agree."""
    m = n // 2
    out = []
    for syms in leaves["syms"]:
        top = np.empty((len(syms), n), dtype=np.int8)
        bottom = np.empty_like(top)
        top[:, :n - m], top[:, m:] = TOP_LEFT[syms], TOP_RIGHT[syms][:, ::-1]
        bottom[:, :n - m], bottom[:, m:] = BOT_LEFT[syms], BOT_RIGHT[syms][:, ::-1]
        out.append((top, bottom))
    return out


def _search(n: int, tracks, workers: int):
    """The sign rows of every leaf, searched in this process or split
    into workers * 4 shards over one pool of workers processes."""
    if workers > 1 and n >= POOL_MIN_N:
        shards = workers * 4
        jobs = [(n, tracks, (i, shards)) for i in range(shards)]
        with multiprocessing.Pool(workers) as pool:
            leaves = _merge_leaves(pool.starmap(run_search, jobs), tracks, n)
    else:
        leaves = run_search(n, tracks)
    return _sign_rows(leaves, n)


def search_normal(n: int, workers: int = 1):
    """All canonical-form candidates for NS(n) as sign rows:
    [(A, A), (C, D)], one row per candidate in each array."""
    return _search(n, ns_tracks(n), workers)


def search_golay(n: int, workers: int = 1):
    """All ordered pairs with identically vanishing combined correlation,
    as sign rows [(A, B)], one row per pair in each array."""
    return _search(n, golay_tracks(n), workers)
