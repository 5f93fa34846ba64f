"""The order-512 symmetry group realised concretely: the nine involutive
generators, the closure order of their action, checks of the stated
defining relations, and the orbits-equal-classes comparison.

The group is realised as a transformation group (closure of the concrete
generator actions) rather than through its abstract presentation; the
action is unambiguous and the presentation is verified against it.  It
acts on the quad-regular triples (a, c, d) of length n: any A, and a
(C;D) that cuts into the eight labelled quads.  The generators preserve
them: a quad is labelled iff the products of its two rows agree, and
every generator keeps them equal.

Lemma (pair locality).  Let m = n // 2.  Each applier in _RAW_APPLIERS
maps positions {i, n-1-i} of A, C and D, for i < m, to themselves, and
its output there depends only on the entries there, on i mod 2 and on n
mod 2.  For odd n the central position m is its own piece in the same
way.  Proof: negate_x negates x in place and reverse_x swaps x_i with
x_{n-1-i}; swap_cd swaps C and D in place; quad_swap_45 negates the C
and D entries of one pair at a time, reading that pair's entries only;
alternate_all multiplies position i by (-1)^i and n-1-i by (-1)^(n-1-i)
= (-1)^(n-1+i), and the central by the fixed sign (-1)^m.  So a word in
the generators, a composition of such maps, is local in the same way.

Consequences, at one n:
- Two words act alike on every quad-regular triple iff they act alike on
  the 32 covering triples (_covering_triples): triple s puts A-label
  (1, 3, 6, 8)[s // 8] and (C;D)-label s % 8 + 1 at every pair, and for
  odd n the centrals (0, 3)[s % 2] and s // 2 % 4.  Every local piece of
  a quad-regular triple, one of 4 x 8 at each pair and 2 x 4 at the
  central, appears at the same position in some covering triple, so by
  the lemma each word's image there is its image on that triple.  So a
  relation that holds on the covering set is proved at that n, and one
  that fails has a counterexample there.
- The action on the covering set is faithful, so the closure of the 32
  triples under the generators has exactly the group's order.
- A word acts as the identity at n iff it does at n' = min(n, 4 +
  n % 2), so the group is the same there.  A word is the identity iff
  its map on every piece is.  For n >= 4 pairs of both parities occur, and
  their maps, which depend only on i mod 2 and n mod 2, are the same at
  n and n'.  For odd n >= 5 the central's map follows from them: it is
  the map of a pair with i = m (mod 2) restricted to equal entries x_i =
  x_{n-1-i}, on which the reversals and quad_swap_45 act as the identity
  and alternate_all multiplies both entries by (-1)^m.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .core import NormalQuadruple, _Value
from .equivalence import (
    _RAW_APPLIERS,
    TRANSFORMS,
    Transform,
    apply_raw,
    canonical_raw,
    orbit_raw,
)
from .quadcodec import MAX_N, QuadCode, compose_pair

Raw = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class GroupElement(_Value):
    """A group element given as a word in the nine generators."""

    __slots__ = ("word", "_steps")
    _fields = ("word",)

    def __init__(self, word: tuple[Transform, ...]):
        object.__setattr__(self, "word", word)
        # the word's appliers in the order they act, looked up once
        object.__setattr__(self, "_steps", tuple(_RAW_APPLIERS[t] for t in reversed(word)))

    def act_raw(self, raw: Raw) -> Raw:
        for step in self._steps:
            raw = step(raw)
        return raw

    def act(self, quad: NormalQuadruple) -> NormalQuadruple:
        return NormalQuadruple.from_raw(self.act_raw(quad.raw()))


def generators(n: int) -> list[GroupElement]:
    """The nine involutive generators, bound to their concrete actions, in
    the order of TRANSFORMS: negations/reversals of the repeated pair, of
    C, of D, then the pair swap, the quad 4<->5 swap, and the alternation."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return [GroupElement((tag,)) for tag in TRANSFORMS]


def _covering_triples(n: int) -> tuple[Raw, ...]:
    """The 32 quad-regular triples that decide the group's action at n
    (module docstring): every (A-label, (C;D)-label) at every pair, and
    for odd n every pair of centrals."""
    m, odd = n // 2, n % 2 == 1
    triples = []
    for s in range(32):
        p = QuadCode(((1, 3, 6, 8)[s // 8],) * m, (0, 3)[s % 2] if odd else None, "aa")
        q = QuadCode((s % 8 + 1,) * m, s // 2 % 4 if odd else None, "cd")
        a, _ = compose_pair(p)
        c, d = compose_pair(q)
        triples.append((a.terms, c.terms, d.terms))
    return tuple(triples)


def _closure_order(state: tuple[Raw, ...]) -> int:
    """How many images the generators' closure gives the tuple state."""
    seen = {state}
    frontier = [state]
    while frontier:
        nxt = []
        for current in frontier:
            for tag in TRANSFORMS:
                image = tuple(apply_raw(tag, raw) for raw in current)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return len(seen)


@lru_cache(maxsize=64)
def realized_order(n: int) -> int:
    """Order of the transformation group the nine generators generate on
    the quad-regular triples of length n: the closure of the covering
    triples, on which the action is faithful, taken at min(n, 4 + n % 2),
    where the group is the same (module docstring)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _closure_order(_covering_triples(min(n, 4 + n % 2)))


class RelationCheck(NamedTuple):
    name: str
    n: int
    status: str  # PASS, FAIL or UNVERIFIABLE
    detail: str = ""


def _relations(n: int):
    """The stated defining relations as (name, lhs word, rhs word).

    Words act right to left.  The n-dependent exponents only matter
    through their parity.
    """
    e = (n - 1) % 2
    neg_aa, rev_aa = Transform.NEGATE_AA, Transform.REVERSE_AA
    neg_c, rev_c = Transform.NEGATE_C, Transform.REVERSE_C
    neg_d, rev_d = Transform.NEGATE_D, Transform.REVERSE_D
    swap, quad45, alt = (
        Transform.SWAP_CD,
        Transform.QUAD_SWAP_45,
        Transform.ALTERNATE_ALL,
    )
    rel = [
        ("swap_cd commutes with negate_aa", (swap, neg_aa), (neg_aa, swap)),
        ("swap_cd commutes with reverse_aa", (swap, rev_aa), (rev_aa, swap)),
        ("swap_cd o negate_c = negate_d o swap_cd", (swap, neg_c), (neg_d, swap)),
        ("swap_cd o reverse_c = reverse_d o swap_cd", (swap, rev_c), (rev_d, swap)),
        ("quad_swap_45 o reverse_c = reverse_d o quad_swap_45", (quad45, rev_c), (rev_d, quad45)),
        ("quad_swap_45 commutes with negate_aa", (quad45, neg_aa), (neg_aa, quad45)),
        ("quad_swap_45 commutes with reverse_aa", (quad45, rev_aa), (rev_aa, quad45)),
        (
            "quad_swap_45 commutes with negate_c.reverse_c",
            (quad45, neg_c, rev_c),
            (neg_c, rev_c, quad45),
        ),
        (
            "quad_swap_45 commutes with negate_d.reverse_d",
            (quad45, neg_d, rev_d),
            (neg_d, rev_d, quad45),
        ),
        ("quad_swap_45 commutes with swap_cd", (quad45, swap), (swap, quad45)),
        ("alternate commutes with negate_aa", (alt, neg_aa), (neg_aa, alt)),
        ("alternate commutes with negate_c", (alt, neg_c), (neg_c, alt)),
        ("alternate commutes with negate_d", (alt, neg_d), (neg_d, alt)),
        (
            "alternate o reverse_c o alternate = reverse_c o negate_c^(n-1)",
            (alt, rev_c, alt),
            (rev_c,) + (neg_c,) * e,
        ),
        (
            "alternate o reverse_d o alternate = reverse_d o negate_d^(n-1)",
            (alt, rev_d, alt),
            (rev_d,) + (neg_d,) * e,
        ),
        (
            "alternate o quad_swap_45 o alternate = quad_swap_45 o swap_cd^(n-1)",
            (alt, quad45, alt),
            (quad45,) + (swap,) * e,
        ),
    ]
    conjectured = (
        "alternate o reverse_aa o alternate = reverse_aa o negate_aa^(n-1)"
        " [replacement for the garbled reverse_aa relation]",
        (alt, rev_aa, alt),
        (rev_aa,) + (neg_aa,) * e,
    )
    return rel, conjectured


def verify_relations(n: int) -> list[RelationCheck]:
    """Check every unambiguous stated relation at length n on the covering
    triples, which proves it there (module docstring): PASS means it
    holds on every quad-regular triple of length n.

    One stated relation contains an undefined factor and cannot be
    checked as written; it is reported UNVERIFIABLE and a conjectured
    replacement is checked instead.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}")
    covering = _covering_triples(n)
    stated, conjectured = _relations(n)

    def check(
        name: str, lhs: tuple[Transform, ...], rhs: tuple[Transform, ...]
    ) -> RelationCheck:
        left, right = GroupElement(lhs), GroupElement(rhs)
        bad = next((s for s in covering if left.act_raw(s) != right.act_raw(s)), None)
        if bad is None:
            return RelationCheck(name, n, "PASS")
        return RelationCheck(name, n, "FAIL", f"counterexample {bad}")

    out = [check(*relation) for relation in stated]
    out.append(
        RelationCheck(
            "alternate o reverse_aa o alternate = reverse_aa o (negate_aa sigma_1)^(n-1)",
            n,
            "UNVERIFIABLE",
            "contains an undefined factor; see the replacement check",
        )
    )
    out.append(check(*conjectured))
    return out


def orbits_match_classes(n: int) -> bool:
    """Whether the orbit partition of NS(n) equals the partition induced
    by the canonical form.  Needs the brute-force enumeration, so n <= 10."""
    from .search import exhaustive_normal_quadruples

    members = exhaustive_normal_quadruples(n)
    orbits = {orbit_raw(raw) for raw in members}
    fibers: dict[Raw, set[Raw]] = {}
    for raw in members:
        fibers.setdefault(canonical_raw(raw), set()).add(raw)
    return {frozenset(v) for v in fibers.values()} == orbits
