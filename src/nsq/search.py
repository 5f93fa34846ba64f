"""Exhaustive, pruned enumeration of the equivalence classes of NS(n).

The enumerator sweeps the (A;A) code prefix first, keeps the A's that
pass the row-sum and power-spectrum tests, and completes each with the
(C;D) code prefix in an outward-in branch-and-bound (see _engine); every
leaf already satisfies the twelve canonical-form conditions, so the
classes are exactly the leaves.  Each leaf is nonetheless re-verified
through the independent sequence-level predicates before it is emitted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

from .core import BinarySeq, NormalQuadruple, is_normal, three_squares_feasible
from .equivalence import canonical_raw, canonical_violation, is_golay_type
from .quadcodec import decode_quadruple, encode_quadruple, parse_code

log = logging.getLogger(__name__)


class SearchError(RuntimeError):
    """An enumeration leaf failed re-verification (must never happen)."""


@dataclass(frozen=True)
class ClassRecord:
    """One equivalence class: its canonical representative in code form."""

    n: int
    index: int
    p_code: str
    q_code: str
    golay_type: bool


# Largest length enumerate_classes searches.  Memory is bounded by the
# engine's chunked traversal, so time sets the limit: the A sweep grows
# about twofold per length, and with two workers on two cores n = 29
# takes 5 s and n = 31 48 s (93 s of CPU time).
MAX_EXHAUSTIVE = 31


def _verified(quad: NormalQuadruple, p_text: str, q_text: str) -> NormalQuadruple:
    if not is_normal(quad):
        raise SearchError(f"leaf {p_text} {q_text} is not normal")
    violation = canonical_violation(quad)
    if violation is not None:
        raise SearchError(f"leaf {p_text} {q_text} violates {violation}")
    if canonical_raw(quad.raw()) != quad.raw():
        raise SearchError(f"leaf {p_text} {q_text} is not its orbit's canonical member")
    return quad


def _check_budget(n: int) -> None:
    if n > MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive class search is budgeted up to n = {MAX_EXHAUSTIVE}")


def enumerate_classes(n: int, workers: int = 1) -> list[ClassRecord]:
    """One record per equivalence class of NS(n), in code order.

    The worker count changes the schedule, not the output.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_budget(n)
    if not three_squares_feasible(n):
        log.info("NS(%d) is empty: %d is not a sum of three squares", n, 2 * n)
        return []
    from . import _engine  # numpy loads only when a search runs

    (a_rows, _), (c_rows, d_rows) = _engine.search_normal(n, workers)
    leaves = []
    for a, c, d in zip(a_rows.tolist(), c_rows.tolist(), d_rows.tolist()):
        quad = NormalQuadruple(BinarySeq(a), BinarySeq(c), BinarySeq(d))
        p, q = encode_quadruple(quad)
        leaves.append((p.text, q.text, quad))
    leaves.sort(key=lambda leaf: leaf[:2])
    records = []
    previous = None
    for rank, (p_text, q_text, quad) in enumerate(leaves, start=1):
        if (p_text, q_text) == previous:
            raise SearchError(f"duplicate class {p_text} {q_text}")
        previous = (p_text, q_text)
        _verified(quad, p_text, q_text)
        records.append(
            ClassRecord(n, rank, p_text, q_text, is_golay_type(quad))
        )
    return records


def summarize(n_lo: int, n_hi: int, workers: int = 1) -> list[tuple[int, int, int, int]]:
    """(n, classes, Golay-type, sporadic) for each n in the range."""
    if n_lo > n_hi:
        raise ValueError(f"empty range: from {n_lo} to {n_hi}")
    _check_budget(n_hi)
    rows = []
    for n in range(n_lo, n_hi + 1):
        records = enumerate_classes(n, workers=workers)
        golay = sum(1 for r in records if r.golay_type)
        rows.append((n, len(records), golay, len(records) - golay))
    return rows


def record_quadruple(record: ClassRecord) -> NormalQuadruple:
    """Decode a record back into its representative quadruple."""
    p, q = parse_code(f"{record.p_code} {record.q_code}", n=record.n)
    return _verified(decode_quadruple(p, q), record.p_code, record.q_code)


@lru_cache(maxsize=10)
def exhaustive_normal_quadruples(n: int) -> tuple[tuple, ...]:
    """Every raw (A;C;D) triple passing the normality identity, found by
    brute force over all 2^(3n) sign patterns.  Capped at n = 10, so the
    cache holds at most the ten results (a few thousand triples)."""
    if not 1 <= n <= 10:
        raise ValueError("exhaustive enumeration is capped at n = 10")
    import numpy as np

    count = 1 << n
    bits = (np.arange(count, dtype=np.int64)[:, None] >> np.arange(n)[::-1]) & 1
    seqs = (1 - 2 * bits).astype(np.int8)
    shifts = n - 1
    corr = np.zeros((count, shifts), dtype=np.int16)
    for i in range(1, n):
        corr[:, i - 1] = (
            seqs[:, : n - i].astype(np.int16) * seqs[:, i:].astype(np.int16)
        ).sum(axis=1)
    if shifts == 0:
        pairs = [(c, d) for c in range(count) for d in range(count)]
        return tuple(
            (tuple(seqs[a].tolist()), tuple(seqs[c].tolist()), tuple(seqs[d].tolist()))
            for a in range(count)
            for c, d in pairs
        )
    cd = (corr[:, None, :] + corr[None, :, :]).reshape(count * count, shifts)
    keys = (-2 * corr).astype(np.int16)

    def rows_view(arr: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(arr)
        return arr.view([("", arr.dtype)] * arr.shape[1]).ravel()

    cd_view = rows_view(cd)
    order = np.argsort(cd_view, kind="stable")
    cd_sorted = cd_view[order]
    key_view = rows_view(keys)
    los = np.searchsorted(cd_sorted, key_view, side="left")
    his = np.searchsorted(cd_sorted, key_view, side="right")
    out = []
    seq_tuples = [tuple(seqs[i].tolist()) for i in range(count)]
    for a in range(count):
        for flat in order[los[a] : his[a]]:
            c, d = divmod(int(flat), count)
            out.append((seq_tuples[a], seq_tuples[c], seq_tuples[d]))
    return tuple(out)
