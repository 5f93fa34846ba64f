"""Chunked, vectorised outward-in quad search of NS(n).

The engine of the class enumerator; the Golay pairs and the Golay-type
class count are read off its classes (golay.py), so it runs one search.
Sequences are filled from the outside in, one column of quads per level:
level k fixes positions k and n+1-k of a pair of sequences, or track, as
one quad (see TrackSpec for how a track carries the canonical-form
conditions), and for odd n the last level fixes the central column.

The search of (A;A;C;D) goes A first (_prepare):

1. the sweep: A alone, through the (A;A) track's prefix tables, with its
   plain and alternating sums still able to reach the a of some row-sum
   solution at every level (_sweep), and no correlation check;
2. the power test on each completed A: |A(theta)|^2 <= 2n at 16 coarse
   angles, then at the 2n + 1 angles of a 4n-point DFT (_psd_keep);
3. the placement of (C;D) on the surviving A's, level by level, each
   root state carrying 2 N_A and A's row sums.

Every placement level is one call of _expand, which filters the (state,
quad combination) candidates in four stages, cheapest first, and gathers
a state's full data only for the survivors:

1. exact + prefix: after level k the combined correlation at shift n-k is
   fully determined and must vanish, and the track's admission table
   must accept the new quad; both are one gate table (see _Level), so
   the check is one row gather and one compare;
2. row sums: the plain and alternating partial row sums must still reach
   an integer solution of the square identity the completed sequences
   satisfy, looked up in a table built once per level (_levels);
3. correlation bound: every other shift is bounded by the number of
   products it still misses (none after the last level);
4. materialisation: only now are the symbol prefixes and prefix states
   of the survivors gathered into the next block.

All arithmetic but the power test's is integer.  A block is held
shift-major (see _Block): each shift's correlations, each pair's quads
and the prefix states are one contiguous row over the states,
so the survivors are gathered column-wise and every update and bound
check runs along whole rows.

Both the sweep and the placement descend recursively (_descend),
expanding slices of at most CHUNK states and searching each slice's
output to the end before taking the next, so a level holds at most the
unexpanded rest of one expansion; each descent yields the states of its
last level as they are reached, at most CHUNK at a time.  The placement
takes the swept A's in batches of about CHUNK while the sweep runs.
Memory is bounded by CHUNK and n, not by the frontier or the number of
A's.

The row sums A, C, D must reach an integer solution of the square
identity 2a^2 + c^2 + d^2 = 4n (_solutions).

Quads are held as raw ids 4*left + right, where left/right are the
column states 0=(+,+) 1=(+,-) 2=(-,+) 3=(-,-); the column state ids
coincide with the central-column labels of the text codes.  For odd n
the central column z is its own mirror image, so it is held as the raw
quad 5*z whose two columns are both z.  A leaf is then, per sequence
pair (A;A) and (C;D), one row of n - n//2 raw quads, the central (odd n)
last.  This module is the only one that knows the raw ids or runs worker
processes: search_normal splits the search into shards over one process
pool when asked to, and hands back each leaf's text code pair (see
_codes), never raw ids.  The search's tables depend only on n
(_prepare): run_search builds them on every call, and a pool worker
once, for all the shards it runs (_shard).
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple

# The power test runs small matrix products.  A multithreaded OpenBLAS
# spreads each over every core and keeps its threads spinning between
# calls: measured on 2 cores, that took `nsq search --n 20` from 0.41 to
# 0.66 s of CPU time, and enumerate_classes(25, workers=2) from 1.1 to
# 7.1 s of wall time, its workers' threads competing for the cores.
# Starting the threads costs CPU time with no BLAS call at all (importing
# numpy: about 0.27 s with them, 0.15 s without, medians of 7 launches),
# so this stays even if the power test stops using BLAS.  OpenBLAS reads
# it when numpy loads: it holds whenever numpy is first imported here,
# as in the command line; an explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the setting above)

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
_SYMMETRIC_RAWS = frozenset({0, 5, 10, 15})  # labels 1, 2, 7, 8


class TrackSpec(NamedTuple):
    """One sequence pair a search places: the quads it may use and three
    tables over one prefix state machine, whose state 0 is the start."""

    alphabet: np.ndarray         # raw ids the pair may use
    allow: np.ndarray            # (states, 16) bool: quad may follow state
    trans: np.ndarray            # (states, 16) int8: state after the quad
    central: np.ndarray          # (states, 4) bool: central z may follow state


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
    aa = TrackSpec(np.array(_AA_RAWS, dtype=np.int8), *_aa_tables(n % 2 == 1))
    cd = TrackSpec(np.array(_CD_RAWS, dtype=np.int8), *_cd_tables())
    return aa, cd


def _solutions(n: int) -> np.ndarray:
    """Every row-sum vector (a, c, d) the completed rows A, C, D of NS(n)
    may have: each sum = n (mod 2), and 2a^2 + c^2 + d^2 = 4n."""
    axis = np.arange(-n, n + 1, 2)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid[grid**2 @ np.array([2, 1, 1]) == 4 * n].astype(np.int16)


def _bounds(n: int) -> np.ndarray:
    """bounds[k][i]: largest |combined correlation at shift i| reachable
    with columns 1..k of the two open sequences placed (pairs, then the
    central of odd n); A of NS is complete when (C;D) is placed.  Shift i
    has n - i products, and the determined ones are the lag-i
    autocorrelation of the 0/1 indicator of the known positions."""
    out = np.zeros((n - n // 2 + 1, n), dtype=np.int16)
    for k in range(n - n // 2 + 1):
        known = np.zeros(n, dtype=np.int16)
        known[:k] = known[n - k:] = 1
        lagged = np.correlate(known, known, "full")[n:]  # lags 1..n-1
        out[k, 1:] = 2 * (np.arange(n - 1, 0, -1) - lagged)
    return out


def _reach_table(n: int, solutions: np.ndarray, remaining) -> np.ndarray:
    """Flat boolean table over partial row-sum vectors, each coordinate in
    [-n, n], C-ordered.  An entry is True iff some solution s has
    |s_i - p_i| <= r_i and s_i - p_i = r_i (mod 2) on every coordinate,
    i.e. the rows can still be completed to s; remaining gives the
    positions r_i left in each row, or one count for every row."""
    rows = solutions.shape[1]
    table = np.zeros((2 * n + 1,) * rows, dtype=bool)
    remaining = np.broadcast_to(remaining, (rows,)).tolist()
    for s in solutions.tolist():
        box = []
        for v, left in zip(s, remaining):
            lo = v - left
            if lo < -n:
                lo += (-n - lo + 1) // 2 * 2
            hi = min(v + left, n)
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
    """A chunk of search states of one track, held shift-major: one
    contiguous row per shift or pair, one column per state.  p is
    (n, states), the combined correlation at each shift (row 0 unchecked:
    the central's self-product lands there); syms holds the raw quads
    placed so far, (pairs, states) int8; fst is (states,), the prefix
    state.  plain and alt hold each state's plain and alternating
    row-sum vectors as flat reach-table indices, and origin the index of
    the root state each state descends from: a placement of (C;D) carries
    it back to its A, and the sweep of A, which needs none, holds None."""

    __slots__ = ("p", "syms", "fst", "plain", "alt", "origin")

    def __init__(self, p, syms, fst, plain, alt, origin):
        self.p = p
        self.syms = syms
        self.fst = fst
        self.plain = plain
        self.alt = alt
        self.origin = origin

    def take(self, idx):
        return _Block(
            self.p[:, idx],
            self.syms[:, idx],
            self.fst[idx],
            self.plain[idx],
            self.alt[idx],
            None if self.origin is None else self.origin[idx],
        )

    def __len__(self):
        return self.p.shape[1]


def _root(n: int) -> _Block:
    """The sweep's one start state: nothing of A placed, its sums 0."""
    zero_sums = np.array([n], dtype=np.int32)  # reach-table index of 0
    return _Block(
        np.zeros((n, 1), dtype=np.int16),
        np.zeros((0, 1), dtype=np.int8),
        np.zeros(1, dtype=np.int8),
        zero_sums,
        zero_sums.copy(),
        None,
    )


# Gate value of a quad the track's admission table forbids.  It exceeds every
# sum of the other terms of the exact check (the track's |SS| <= 4 and the
# level's correlation bound), so no such sum can cancel it to zero, and
# that sum plus _FORBIDDEN stays far inside int16.
_FORBIDDEN = 1 << 12


class _Level(NamedTuple):
    """The state-free constants of placing column k, built once per search
    by _levels: pair k, or for odd n and k = n//2 + 1 the central column.

    gate folds the exact-check term and the admission table (allow, or
    central) into one int16 table of shape (16 * states, quads).  Its row
    16 * state + a holds, per new quad, what it adds at shift n-k when
    pair 1 holds the quad a, or _FORBIDDEN where state does not admit the
    new quad.  The new quad meets pair 1 through SS, except at k = 1,
    where it is pair 1 and meets itself through SC (and a is 0); so the
    pair levels past the first share one gate."""

    units: np.ndarray        # the quads the column may take
    gate: np.ndarray         # the folded exact + admission table
    plain: np.ndarray        # per quad, plain row-sum table offset
    alt: np.ndarray          # per quad, alternating row-sum offset
    reach: np.ndarray        # _reach_table(n, solutions, positions left)
    bound: np.ndarray        # largest |correlation| at shifts 1..n-1
    ss: np.ndarray           # crossed-product table of the update, by 16*a+b


def _gate(admit: np.ndarray, exact) -> np.ndarray:
    """admit is (states, quads); exact broadcasts to (16, quads)."""
    quads = admit.shape[1]
    folded = np.where(admit[:, None], np.broadcast_to(exact, (16, quads)), _FORBIDDEN)
    return folded.astype(np.int16).reshape(-1, quads)


def _levels(n: int, track: TrackSpec, solutions: np.ndarray, rows: int = 2) -> list[_Level | None]:
    """[None, level 1, ..., level n - n//2]: the constants of placing each
    column of the track, indexed by k; for odd n the last is the central
    column.  The reach tables aim at solutions, whose last rows the
    track's top and bottom sequences fill, or its top alone when rows = 1
    (A of (A;A)); earlier rows are complete, so their sums must match."""
    m = n // 2
    done = solutions.shape[1] - rows
    strides = _row_strides(n, solutions.shape[1])[done:]
    bounds = _bounds(n)
    pairs = track.alphabet
    first_gate = _gate(track.allow[:, pairs], SC[pairs])
    later_gate = _gate(track.allow[:, pairs], SS[:, pairs])
    levels: list[_Level | None] = [None]
    for k in range(1, n - m + 1):
        units, gate, ss = pairs, first_gate if k == 1 else later_gate, _SS_FLAT
        if k > m:
            # The central column: the z the track's table admits in some
            # state, as quads 5*z; when n = 1 there is no pair 1 to meet.
            zs = np.flatnonzero(track.central.any(axis=0))
            units = (5 * zs).astype(np.int8)
            gate = _gate(track.central[:, zs], SS[:, units] if k > 1 else 0)
            ss = np.zeros_like(_SS_FLAT)
        sign_left = 1 if k % 2 else -1          # position k
        sign_right = 1 if (n - k) % 2 == 0 else -1  # position n+1-k
        plain, alt = [], []
        for left, right in ((TOP_LEFT, TOP_RIGHT), (BOT_LEFT, BOT_RIGHT))[:rows]:
            left, right = left[units], right[units]
            if k > m:
                right = 0  # the central is one position: count it once
            plain.append(left + right)
            alt.append(sign_left * left + sign_right * right)
        levels.append(_Level(
            units,
            gate,
            np.stack(plain, axis=1) @ strides,
            np.stack(alt, axis=1) @ strides,
            _reach_table(n, solutions, [0] * done + [n - min(2 * k, n)] * rows),
            bounds[k][1:],
            ss,
        ))
    return levels


def _expand(block: _Block, n: int, k: int, track: TrackSpec, level: _Level) -> _Block | None:
    """Place column k (1-based: pair k, or for odd n and k = n//2 + 1 the
    central) of the track on every state of the block and keep the
    survivors of the exact, row-sum and bound checks, in that order; only
    the survivors of each check are carried into the next.  level is
    _levels(n, track, ...)[k]."""
    combos = len(level.units)

    # Exact check at the newly determined shift n-k, and the prefix state
    # machine, in one gather of gate rows: the rows are keyed by the
    # state's prefix state and its quad at pair 1 (unplaced when k = 1).
    key = 16 * block.fst.astype(np.intp)
    if k > 1:
        key += block.syms[0]
    gated = level.gate.take(key, axis=0)
    gated += block.p[n - k][:, None]
    flat = np.flatnonzero(gated == 0)
    del gated  # the bound check below sets the peak; free it first
    rows_idx, combo_idx = np.divmod(flat, combos, out=(flat, np.empty_like(flat)))

    # Row sums, plain and alternating: both must still reach a solution of
    # the square identity with the n - 2k positions left in each row.
    plain = block.plain.take(rows_idx) + level.plain.take(combo_idx)
    alt = block.alt.take(rows_idx) + level.alt.take(combo_idx)
    keep = np.flatnonzero(level.reach.take(plain) & level.reach.take(alt))
    if not len(keep):
        return None
    rows_idx, plain, alt = rows_idx[keep], plain[keep], alt[keep]
    selected = level.units.take(combo_idx[keep])
    del combo_idx

    # Correlation bound on every shift, after adding the new products: one
    # contiguous row of pair indices 16*a + b per earlier pair j.
    p_new = block.p.take(rows_idx, axis=1)
    for j in range(1, k):
        pair = block.syms[j - 1].take(rows_idx).astype(np.int16)
        pair <<= 4
        pair += selected
        p_new[k - j] += _DD_FLAT.take(pair)
        p_new[n + 1 - j - k] += level.ss.take(pair)
    p_new[n + 1 - 2 * k] += SC.take(selected)
    keep = np.flatnonzero((np.abs(p_new[1:]) <= level.bound[:, None]).all(axis=0))
    if not len(keep):
        return None
    if len(keep) < len(rows_idx):
        rows_idx, plain, alt = rows_idx[keep], plain[keep], alt[keep]
        p_new = p_new.take(keep, axis=1)
        selected = selected[keep]

    # Materialise the survivors: symbol prefixes and prefix states.
    syms_new = np.concatenate([block.syms.take(rows_idx, axis=1), selected[None]])
    fst_new = track.trans[block.fst.take(rows_idx), selected]
    return _Block(p_new, syms_new, fst_new, plain, alt, block.origin.take(rows_idx))


def _merge_leaves(parts: list[dict], n: int) -> dict:
    empty = np.zeros((0, n - n // 2), dtype=np.int8)
    return {"syms": [np.concatenate([empty] + [p["syms"][t] for p in parts]) for t in range(2)]}


# Most states one expansion takes.  Measured on the shift-major kernel,
# in-process on 2 cores (median of 3 runs, tracemalloc peak): NS n = 20
# 0.73 / 0.66 / 0.61 s and 4.5 / 7.2 / 12.7 MB for 1 << 11 / 12 / 13,
# NS n = 22 3.61 / 3.38 / 3.24 s and 6.6 / 10.4 / 17.9 MB.  1 << 13 saves
# 3-8% of the time for 1.7-1.8x the peak.
CHUNK = 1 << 12


def _descend(block, k, last, expand):
    """Search a block with columns 1..k placed to the end, yielding the
    states of column last in slices of at most CHUNK: expand(block, k + 1)
    places column k+1 on at most CHUNK states at a time, and each slice's
    output is searched to the end before the next slice is taken.  So
    each level holds at most the unexpanded rest of one expansion, and
    memory stays bounded whatever the frontier size."""
    if block is None:
        return
    for lo in range(0, len(block), CHUNK):
        chunk = block.take(slice(lo, lo + CHUNK))
        if k == last:
            yield chunk
        else:
            # The expansion is held by the nested frame alone, so it is freed
            # once that frame ends, before this level's next slice is expanded.
            yield from _descend(expand(chunk, k + 1), k + 1, last, expand)


def _sweep(block: _Block, n: int, k: int, track: TrackSpec, level: _Level) -> _Block | None:
    """Place column k of the repeated sequence A on every state, with no
    correlation check: keep each quad the state's prefix table admits
    (allow, or central for the central column) whose plain and alternating
    sums of A can both still reach the a of some row-sum solution.  The
    states hold no correlations (p has no rows).  level is the column's
    _levels(n, track, a values, rows=1) entry."""
    units = level.units
    admit = track.central[:, units // 5] if 2 * k > n else track.allow[:, units]
    plain = block.plain[:, None] + level.plain  # (states, quads)
    alt = block.alt[:, None] + level.alt
    keep = admit.take(block.fst, axis=0)
    keep &= level.reach.take(plain)
    keep &= level.reach.take(alt)
    keep = np.flatnonzero(keep)
    if not len(keep):
        return None
    rows_idx, quads = np.divmod(keep, len(units))
    quads = units.take(quads)
    return _Block(
        np.empty((0, len(keep)), dtype=np.int16),
        np.concatenate([block.syms.take(rows_idx, axis=1), quads[None]]),
        track.trans[block.fst.take(rows_idx), quads],
        plain.take(keep),
        alt.take(keep),
        None,
    )


# Slack of the power test in _psd_keep over its exact bound 2n, and the
# float type it computes in.
PSD_TOL = 0.05
PSD_FLOAT = np.float32


def _psd_tables(n: int) -> list[np.ndarray]:
    """The angles of the power test, as (2 * angles, n) tables of
    cos(i*theta) then sin(i*theta) for positions i = 0..n-1, computed in
    float64 and rounded once to PSD_FLOAT: first 16 angles pi (j - 1/2) / 16
    spread over (0, pi), then the 2n + 1 angles 2 pi j / 4n of a 4n-point
    DFT."""
    grids = (np.pi * (np.arange(1, 17) - 0.5) / 16, 2 * np.pi * np.arange(2 * n + 1) / (4 * n))
    tables = []
    for theta in grids:
        phase = np.outer(theta, np.arange(n))
        tables.append(np.concatenate([np.cos(phase), np.sin(phase)]).astype(PSD_FLOAT))
    return tables


def _psd_keep(signs: np.ndarray, n: int, tables: list[np.ndarray]) -> np.ndarray:
    """Indices of the columns A of signs (+1/-1, shape (n, states)) with
    |A(theta)|^2 <= 2n + PSD_TOL at every angle of tables (_psd_tables),
    each table applied to the survivors of the one before.

    The test is only necessary.  A normal sequence (A;A;C;D) has
    2|A|^2 + |C|^2 + |D|^2 = 4n at every real theta, so its A has
    |A(theta)|^2 <= 2n everywhere.  Rounding cannot make the test reject
    such an A.  With u = 2^-24 the unit roundoff of float32: a table
    entry is within u + (2 pi n + 1) 2^-53 < 1.001 u of cos(i*theta) (or
    sine), the float64 angle and cosine adding far less than the final
    rounding.  Each real or imaginary part of A(theta) is a dot product
    of n terms +-t, and whatever the summation order it is within
    gamma_n = n u / (1 - n u) times the sum of the terms' magnitudes of
    its value on the rounded entries; so it is within
    d = 1.001 n u + gamma_n n (1 + 1.001 u) of the exact part, and
    d < 1e-4 for n <= 40.  The exact parts R, I have |R| + |I| <= sqrt(2) n,
    so the computed R^2 + I^2 is off by at most 2 sqrt(2) n d + 2 d^2 plus
    the roundings of squaring and adding, at most 2.1 u n^2: under 0.012
    for n <= 40, and PSD_TOL = 0.05 exceeds that four times over.  The
    slack only lets through a few more A's, which the search of (C;D)
    then rejects."""
    signs = signs.astype(PSD_FLOAT, copy=False)
    keep = np.arange(signs.shape[1])
    for table in tables:
        power = table @ signs
        np.square(power, out=power)
        half = len(table) // 2
        power[:half] += power[half:]
        passed = np.flatnonzero(power[:half].max(axis=0) <= 2 * n + PSD_TOL)
        keep, signs = keep[passed], signs[:, passed]
    return keep


def _prepare(n: int) -> Callable[[tuple[int, int]], dict]:
    """The NS search, A first, as a function of the shard, with every
    table it reads built once from n (the tracks, the row-sum solutions,
    both level lists and the power test's angles); a pool worker builds
    it once and runs each of its shards on it (_shard).

    The search cuts its shard (i, w) in the sweep of the repeated track
    (A;A) (_descend over _sweep): the sweep descends to level
    split = min(3, n//2) and goes on from every w-th state, the i-th
    first, of each block it yields there, so the w shards i = 0..w-1
    partition the search.  It is then one loop over the blocks of
    completed A's that the sweep yields: each A must pass the power test
    (_psd_keep), and the survivors, in batches of at least CHUNK (or what
    is left at the end), are the root states of the search of the (C;D)
    track, each with p = 2 N_A and A's row sums, whose descent over
    _expand yields the leaves.  Every test on A is necessary and the two
    prefix machines are independent, so the leaves are exactly those of
    the joint search of both tracks, in another order."""
    aa, cd = ns_tracks(n)
    m = n // 2
    solutions = _solutions(n)
    sweep_levels = _levels(n, aa, solutions[:, :1], rows=1)
    place_levels = _levels(n, cd, solutions)
    tables = _psd_tables(n)
    strides = _row_strides(n, solutions.shape[1])
    open_rows = n * int(strides[1:].sum())

    def place(held: list[_Block]):
        """Yield the leaf dicts of the placement of (C;D) on the held A's,
        which it takes out of held before it descends."""
        a_syms = np.concatenate([b.syms for b in held], axis=1)
        plain = np.concatenate([b.plain for b in held]) * strides[0] + open_rows
        alt = np.concatenate([b.alt for b in held]) * strides[0] + open_rows
        held.clear()
        a = _spell(a_syms, n)
        count = a.shape[1]
        p = np.zeros((n, count), dtype=np.int16)
        for i in range(1, n):
            p[i] = 2 * (a[:-i] * a[i:]).sum(axis=0, dtype=np.int16)
        root = _Block(
            p,
            np.zeros((0, count), dtype=np.int8),
            np.zeros(count, dtype=np.int8),
            plain,
            alt,
            np.arange(count, dtype=np.int32),
        )
        placed = _descend(
            root, 0, n - m, lambda block, k: _expand(block, n, k, cd, place_levels[k])
        )
        for block in placed:
            yield {"syms": [a_syms.take(block.origin, axis=1).T, block.syms.T]}

    def search(shard: tuple[int, int]) -> dict:
        i, w = shard
        split = min(3, m)

        def sweep(block, k):
            return _sweep(block, n, k, aa, sweep_levels[k])

        held: list[_Block] = []  # completed A's that passed, not yet placed
        waiting = 0  # how many A's held holds
        leaves: list[dict] = []
        for head in _descend(_root(n), 0, split, sweep):
            for block in _descend(head.take(slice(i, None, w)), split, n - m, sweep):
                keep = _psd_keep(_spell(block.syms, n, PSD_FLOAT), n, tables)
                if len(keep):
                    held.append(block.take(keep))
                    waiting += len(keep)
                if waiting >= CHUNK:
                    leaves.extend(place(held))
                    waiting = 0
        block = None  # the last swept block, freed before the last placement
        if held:
            leaves.extend(place(held))
        return _merge_leaves(leaves, n)

    return search


def run_search(n: int, shard: tuple[int, int] = (0, 1)) -> dict:
    """Enumerate every canonical-form candidate of NS(n).  Returns
    {"syms": per sequence pair of a leaf, (A;A) then (C;D), one row of
    n - n//2 raw quads per leaf}, the central (odd n) as the last quad.

    A is swept first and (C;D) placed on each survivor (_prepare).
    shard=(i, w) keeps every w-th state of the sweep's frontier after
    level 3 (level n//2 when that is shallower), cut by _prepare's search
    before it sweeps on, so the w shards i = 0..w-1 partition the search.
    Every call builds the search's tables anew.
    """
    return _prepare(n)(shard)


# Searches shorter than this run in-process whatever the worker count.
# Measured in-process on a 2-core Xeon (median of 7 runs, 5 for n = 25;
# 1 vs 2 workers): n = 19 took 0.026 / 0.085 s, 20 0.034 / 0.086 s,
# 23 0.152 / 0.123 s and 25 1.38 / 0.77 s.  A pool adds a few tens of ms
# to a search: the workers start, each builds the search's tables, and
# each of the workers * 4 shards re-runs the shallow levels and places
# (C;D) on its own few A's.  So a search gains time from the pool from
# about n = 23, but it keeps the pool from 17 up: the search then runs in
# the workers, beside the main process's leaf checks rather than on top
# of them, and no process peaks as high (`nsq search --n 19`: 30.2 MB
# with 2 workers, 32.3 MB in one process).
POOL_MIN_N = 17


def _spell(syms: np.ndarray, n: int, dtype=np.int8) -> np.ndarray:
    """The +1/-1 sequences A, shape (n, states), that the raw quads syms
    (pairs, states) of (A;A) spell: each quad's left column fills the
    first n - n//2 positions in order, and its right column the last
    n - n//2 in reverse.  For odd n both reach the central position,
    where the central quad's two columns agree."""
    m = n // 2
    out = np.empty((n, syms.shape[1]), dtype=dtype)
    out[:n - m], out[m:] = TOP_LEFT.take(syms), TOP_RIGHT.take(syms)[::-1]
    return out


# The label of each raw quad id in the text codes (0 for no quad).
_LABELS = np.zeros(16, dtype=np.int8)
_LABELS[list(_CD_RAWS)] = np.arange(1, 9)


def _codes(syms: np.ndarray, n: int) -> list[str]:
    """The text code of each leaf row of raw quads (leaves, n - n//2):
    the quads' labels, then for odd n the central digit z of the raw
    quad 5*z."""
    digits = _LABELS.take(syms)
    if n % 2:
        digits[:, -1] = syms[:, -1] // 5
    return ["".join(map(str, row)) for row in digits.tolist()]


# A pool worker's search of NS(n) by n, built on its first shard.
_worker: dict = {}


def _shard(n: int, shards: int, i: int) -> dict:
    """Shard i in a pool worker, which builds the tables itself (not in an
    initializer), so an error in building them reaches the parent as is."""
    if n not in _worker:
        _worker[n] = _prepare(n)
    return _worker[n]((i, shards))


def search_normal(n: int, workers: int = 1) -> list[tuple[str, str]]:
    """All canonical-form candidates for NS(n), one (p_code, q_code)
    text code pair per candidate, in no set order: searched in this
    process by run_search, or split into workers * 4 shards over one
    pool of workers forked processes, which take the shards one at a
    time as they come free; the parts are merged in shard order.  A
    shard's error is raised once the running shards end; a worker that
    dies fails the search at once with ChildProcessError.

    Each worker pays the pool's fixed costs once: it builds the tables
    on its first shard and runs its later shards on them."""
    if workers > 1 and n >= POOL_MIN_N:
        import functools
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, process

        shards = workers * 4
        try:
            # Fork, also where it is not the default: the workers share
            # the parent's heap and see its module state.
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
                leaves = _merge_leaves(
                    list(pool.map(functools.partial(_shard, n, shards), range(shards))), n
                )
        except process.BrokenProcessPool as exc:
            raise ChildProcessError(f"a search worker died: {exc}") from exc
    else:
        leaves = run_search(n)
    aa, cd = leaves["syms"]
    return list(zip(_codes(aa, n), _codes(cd, n)))
