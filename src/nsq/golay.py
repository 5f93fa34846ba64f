"""Exhaustive Golay pair search, the two embeddings into normal
sequences, and the Golay-type class count.

The pair search reuses the outward-in engine of the class enumerator,
so one pruning core backs both enumerations.  It differs only in its
track: one track over the 8 orthogonal quads, whose row sums must reach
the identity a^2 + b^2 = 2n, and whose two-state prefix machine admits
one member of each orbit under G = {(+-A, +-B), (+-B, +-A)}: the leader,
with a_1 = b_1 = a_n = +1 and b_n = -1, or A = B = (+) at n = 1.  This
module alone knows how G acts: golay_pairs unfolds each leader into its
orbit, and golay_type_class_count embeds the leaders only."""

from __future__ import annotations

from dataclasses import dataclass

from .core import BinarySeq, NormalQuadruple, alternate, negate, npaf, reverse
from .equivalence import are_equivalent, canonical_raw


class GolayError(ValueError):
    """Raised for invalid pairs, out-of-budget searches, or a search that
    returns an orbit leader twice."""


MAX_EXHAUSTIVE = 26


@dataclass(frozen=True)
class GolayPair:
    """Two sequences whose autocorrelations cancel at every nonzero shift."""

    a: BinarySeq
    b: BinarySeq

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise GolayError("the two sequences must share one length")
        na = npaf(self.a)
        nb = npaf(self.b)
        if any(na[i] + nb[i] != 0 for i in range(1, len(self.a))):
            raise GolayError("autocorrelations do not cancel; not a Golay pair")

    @property
    def n(self) -> int:
        return len(self.a)


def _orbit_leaders(n: int, workers: int) -> list[GolayPair]:
    """One Golay pair of length n per orbit under G, exhaustively."""
    if n < 1:
        raise GolayError("n must be at least 1")
    if n > MAX_EXHAUSTIVE:
        raise GolayError(
            f"exhaustive pair search is budgeted up to n = {MAX_EXHAUSTIVE}"
        )
    from . import _engine  # numpy loads only when a search runs

    ((a_rows, b_rows),) = _engine.search_golay(n, workers)
    rows = list(zip(map(tuple, a_rows.tolist()), map(tuple, b_rows.tolist())))
    if len(set(rows)) != len(rows):
        raise GolayError("the search returned an orbit leader twice")
    return [GolayPair(BinarySeq(a), BinarySeq(b)) for a, b in rows]


def golay_pairs(n: int, workers: int = 1) -> list[GolayPair]:
    """All ordered Golay pairs of length n, exhaustively: the images of
    the orbit leaders under G, each once (at n = 1 the swap fixes the
    leader), sorted."""
    images = {
        GolayPair(x, y)
        for pair in _orbit_leaders(n, workers)
        for a, b in ((pair.a, pair.b), (pair.b, pair.a))
        for x in (a, negate(a))
        for y in (b, negate(b))
    }
    return sorted(images, key=lambda pair: (pair.a.terms, pair.b.terms))


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
    """Number of distinct classes met by the embeddings of all pairs.

    The images of a pair under G embed into equivalent quadruples: -A
    by negate_aa, -B by negate_c.negate_d, and the swap exchanges the
    two embeddings.  So only the orbit leaders are embedded.
    """
    pairs = _orbit_leaders(n, workers)
    return len({canonical_raw(quad.raw()) for pair in pairs for quad in embed(pair)})
