"""Golay pairs, their two embeddings into normal sequences, and the
Golay-type class count, all read off the classification of NS(n).

A Golay pair (A, B) of length n is exactly the member (A;A;B;B) of NS(n)
with C = D, so no second search is needed.  A class is Golay-type when
some member has C = D (search.enumerate_classes tags it), and every
ordered pair is the (A, C) of exactly one such member: golay_pairs
unfolds the orbit of each Golay-type class and keeps its members with
C = D, and golay_type_class_count counts those classes."""

from __future__ import annotations

from . import search
from .core import BinarySeq, NormalQuadruple, _Value, alternate, negate, npaf, reverse
from .equivalence import are_equivalent, orbit_raw
from .equivalence import canonical_raw  # noqa: F401  (perfbench/nsq_trace.py wraps it here)


class GolayError(ValueError):
    """Raised for invalid pairs, or a Golay-type class with no member
    C = D (must never happen)."""


class GolayPair(_Value):
    """Two sequences whose autocorrelations cancel at every nonzero shift."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: BinarySeq, b: BinarySeq):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b):
            raise GolayError("the two sequences must share one length")
        na = npaf(a)
        nb = npaf(b)
        if any(na[i] + nb[i] != 0 for i in range(1, len(a))):
            raise GolayError("autocorrelations do not cancel; not a Golay pair")

    @property
    def n(self) -> int:
        return len(self.a)


def _golay_type_records(n: int, workers: int) -> list[search.ClassRecord]:
    """The Golay-type classes of NS(n), exhaustively, within the class
    search's budget (search.MAX_EXHAUSTIVE)."""
    return [r for r in search.enumerate_classes(n, workers=workers) if r.golay_type]


def golay_pairs(n: int, workers: int = 1) -> list[GolayPair]:
    """All ordered Golay pairs of length n, exhaustively, sorted: the
    (A, C) of the members with C = D of every Golay-type class."""
    pairs = set()
    for record in _golay_type_records(n, workers):
        raw = search.record_quadruple(record).raw()
        members = {(a, c) for a, c, d in orbit_raw(raw) if c == d}
        if not members:
            raise GolayError(
                f"Golay-type class {record.p_code} {record.q_code} has no member with C = D"
            )
        pairs |= members
    return [GolayPair(BinarySeq(a), BinarySeq(b)) for a, b in sorted(pairs)]


def embed(pair: GolayPair) -> tuple[NormalQuadruple, NormalQuadruple]:
    """The two normal sequences (A;A;B;B) and (B;B;A;A) a pair yields."""
    first = NormalQuadruple(pair.a, pair.b, pair.b)
    second = NormalQuadruple(pair.b, pair.a, pair.a)
    return first, second


def two_embeddings_equivalent(pair: GolayPair) -> bool:
    """Whether the two embeddings land in one equivalence class.

    For even n > 2 this is the closed-form test: the alternation of B
    must be A up to negation and reversal.  Smaller or odd lengths fall
    back to direct orbit comparison.
    """
    n = pair.n
    if n > 2 and n % 2 == 0:
        alt_b = alternate(pair.b)
        images = {pair.a, negate(pair.a), reverse(pair.a), negate(reverse(pair.a))}
        return alt_b in images
    first, second = embed(pair)
    return are_equivalent(first, second)


def golay_type_class_count(n: int, workers: int = 1) -> int:
    """Number of distinct classes met by the embeddings of all pairs: the
    Golay-type classes, those with some member C = D."""
    return len(_golay_type_records(n, workers))
