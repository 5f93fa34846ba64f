"""The order-512 symmetry group realised concretely: the nine involutive
generators, the closure order of their action, checks of the stated
defining relations, and the orbits-equal-classes comparison.

The group is realised as a transformation group (closure of the concrete
generator actions) rather than through its abstract presentation; the
action is unambiguous and the presentation is verified against it."""

from __future__ import annotations

import random
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
from .quadcodec import MAX_N, QuadCode, compose_pair, decode_quadruple, parse_code
from .tables import load_tables

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


_PROBE_SEED = 411217
_PROBE_COUNT = 4


def _random_quad_regular(n: int, rng: random.Random) -> Raw:
    """A generic quadruple-shaped triple whose (C;D) side decomposes into
    the eight labelled quads.

    The group's defining relations involve the quad 4<->5 swap, which is
    defined through the quad encoding; they hold on this space (and in
    particular on every normal quadruple) but not on arbitrary sign
    patterns, so probes and samples are drawn here.
    """
    m = n // 2
    p = QuadCode(
        tuple(rng.choice((1, 3, 6, 8)) for _ in range(m)),
        rng.choice((0, 3)) if n % 2 else None,
        "aa",
    )
    q = QuadCode(
        tuple(rng.randrange(1, 9) for _ in range(m)),
        rng.randrange(4) if n % 2 else None,
        "cd",
    )
    a, _ = compose_pair(p)
    c, d = compose_pair(q)
    return (a.terms, c.terms, d.terms)


def _probe(n: int) -> tuple[Raw, ...]:
    # Fixed pseudo-random patterns; several generic triples so no
    # accidental stabiliser hides part of the group.
    rng = random.Random(_PROBE_SEED + n)
    return tuple(_random_quad_regular(n, rng) for _ in range(_PROBE_COUNT))


@lru_cache(maxsize=64)
def realized_order(n: int) -> int:
    """Size of the transformation group the nine generators generate,
    computed as the closure of the action on a fixed generic probe."""
    if n < 1:
        raise ValueError("n must be at least 1")
    state = _probe(n)
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


# The relations are checked on _RELATION_CASES random triples drawn from
# a generator seeded with _RELATION_SEED + n.  They depend on n only
# through its parity, so lengths past the paper's range are refused.
_RELATION_SEED = 5417
_RELATION_CASES = 200


def _relation_samples(n: int) -> list[Raw]:
    rng = random.Random(_RELATION_SEED + n)
    samples = [_random_quad_regular(n, rng) for _ in range(_RELATION_CASES)]
    # Mix in valid quadruples, one orbit per bundled representative up to
    # n = 13, so the relations are also exercised where they matter.
    if n <= 13:
        for row in load_tables().reps_for(n):
            raw = decode_quadruple(*parse_code(f"{row.p_code} {row.q_code}", n=n)).raw()
            samples.extend(sorted(orbit_raw(raw))[:64])
    return samples


def verify_relations(n: int) -> list[RelationCheck]:
    """Check every unambiguous stated relation on sampled quadruples.

    One stated relation contains an undefined factor and cannot be
    checked as written; it is reported UNVERIFIABLE and an empirically
    validated replacement is checked instead.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}")
    samples = _relation_samples(n)
    stated, conjectured = _relations(n)

    def check(
        name: str, lhs: tuple[Transform, ...], rhs: tuple[Transform, ...]
    ) -> RelationCheck:
        left, right = GroupElement(lhs), GroupElement(rhs)
        bad = next((s for s in samples if left.act_raw(s) != right.act_raw(s)), None)
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
