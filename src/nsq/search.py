"""Exhaustive, pruned enumeration of the equivalence classes of NS(n).

The enumerator sweeps the (A;A) code prefix first, keeps the A's that
pass the row-sum and power-spectrum tests, and completes each with the
(C;D) code prefix in an outward-in branch-and-bound (see _engine); every
leaf already satisfies the twelve canonical-form conditions, so the
classes are exactly the leaves.  The engine hands back each leaf's code
pair, which is nonetheless decoded and re-verified through the
independent sequence-level predicates before it is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import NormalQuadruple, is_normal, three_squares_feasible
from .equivalence import _golay_type, canonical_raw, canonical_violation
from .equivalence import is_golay_type  # noqa: F401  (perfbench/nsq_trace.py wraps it here)
from .quadcodec import decode_quadruple, parse_code


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


def _verified(n: int, p_text: str, q_text: str) -> NormalQuadruple:
    quad = decode_quadruple(*parse_code(f"{p_text} {q_text}", n=n))
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

    The worker count changes the schedule, not the output; a pool
    worker that dies raises ChildProcessError.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_budget(n)
    if not three_squares_feasible(n):
        import logging

        logging.getLogger(__name__).info(
            "NS(%d) is empty: %d is not a sum of three squares", n, 2 * n
        )
        return []
    from . import _engine  # numpy loads only when a search runs

    records = []
    previous = None
    for rank, (p_text, q_text) in enumerate(sorted(_engine.search_normal(n, workers)), start=1):
        if (p_text, q_text) == previous:
            raise SearchError(f"duplicate class {p_text} {q_text}")
        previous = (p_text, q_text)
        quad = _verified(n, p_text, q_text)
        golay = _golay_type(quad.c.terms, quad.d.terms)  # normal, checked above
        records.append(ClassRecord(n, rank, p_text, q_text, golay))
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
    return _verified(record.n, record.p_code, record.q_code)


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
    shifts = max(n - 1, 1)  # at n = 1 a zero column matches every (C, D)
    corr = np.zeros((count, shifts), dtype=np.int16)
    for i in range(1, n):
        corr[:, i - 1] = (
            seqs[:, : n - i].astype(np.int16) * seqs[:, i:].astype(np.int16)
        ).sum(axis=1)
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
