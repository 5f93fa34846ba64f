"""The nine involutive generators of the equivalence, orbit enumeration,
the twelve-condition canonical form, and Golay-type detection.

Canonicalisation enumerates the whole orbit (at most 512 members) and
raises CanonicalFormError unless exactly one member is canonical, on every
orbit it meets.  The orbit is a staged product: each generator in _STAGES
acts once on the set built so far, 511 applications at most.  That is the
whole orbit because the group is H.<alt> with H = <swap>.N.<quad45>, N
being the six commuting negations and reversals: the quad 4<->5 swap and
the C/D swap normalise N, and the alternation normalises H.  These
relations hold whenever (C;D) cuts into the eight labelled quads, as in
every normal quadruple.  The scan runs the twelve conditions only on the
members that pass (i) and (vi) on the first quads, a necessary check, so
the count of canonical members stays exact.  Orbits and their canonical
members live in two maps that are cleared together before they would
hold more than _CACHE_MEMBERS members.
"""

from __future__ import annotations

from enum import Enum

from .core import NormalQuadruple, SequenceError, is_normal
from .quadcodec import SYMMETRIC_QUADS, quad_labels

Raw = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class CanonicalFormError(RuntimeError):
    """An orbit without exactly one canonical member (must never happen)."""


class Transform(Enum):
    NEGATE_AA = "negate_aa"
    REVERSE_AA = "reverse_aa"
    NEGATE_C = "negate_c"
    REVERSE_C = "reverse_c"
    NEGATE_D = "negate_d"
    REVERSE_D = "reverse_d"
    SWAP_CD = "swap_cd"
    QUAD_SWAP_45 = "quad_swap_45"
    ALTERNATE_ALL = "alternate_all"


TRANSFORMS = tuple(Transform)


def _neg(t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-v for v in t)


def _alt(t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v if i % 2 == 0 else -v for i, v in enumerate(t))


def _swap45(c: tuple[int, ...], d: tuple[int, ...]):
    # Negating every quad equal to matrix 4 or 5 is exactly the 4<->5
    # label swap; it needs no encode/decode round trip and is defined on
    # arbitrary pairs.
    cl = list(c)
    dl = list(d)
    n = len(cl)
    for i in range(n // 2):
        j = n - 1 - i
        if cl[i] == -cl[j] and dl[i] == -dl[j] and dl[i] == -cl[i]:
            cl[i], cl[j], dl[i], dl[j] = -cl[i], -cl[j], -dl[i], -dl[j]
    return tuple(cl), tuple(dl)


def _apply_negate_aa(raw: Raw) -> Raw:
    a, c, d = raw
    return (_neg(a), c, d)


def _apply_reverse_aa(raw: Raw) -> Raw:
    a, c, d = raw
    return (a[::-1], c, d)


def _apply_negate_c(raw: Raw) -> Raw:
    a, c, d = raw
    return (a, _neg(c), d)


def _apply_reverse_c(raw: Raw) -> Raw:
    a, c, d = raw
    return (a, c[::-1], d)


def _apply_negate_d(raw: Raw) -> Raw:
    a, c, d = raw
    return (a, c, _neg(d))


def _apply_reverse_d(raw: Raw) -> Raw:
    a, c, d = raw
    return (a, c, d[::-1])


def _apply_swap_cd(raw: Raw) -> Raw:
    a, c, d = raw
    return (a, d, c)


def _apply_quad_swap(raw: Raw) -> Raw:
    a, c, d = raw
    c2, d2 = _swap45(c, d)
    return (a, c2, d2)


def _apply_alternate(raw: Raw) -> Raw:
    a, c, d = raw
    return (_alt(a), _alt(c), _alt(d))


_RAW_APPLIERS = {
    Transform.NEGATE_AA: _apply_negate_aa,
    Transform.REVERSE_AA: _apply_reverse_aa,
    Transform.NEGATE_C: _apply_negate_c,
    Transform.REVERSE_C: _apply_reverse_c,
    Transform.NEGATE_D: _apply_negate_d,
    Transform.REVERSE_D: _apply_reverse_d,
    Transform.SWAP_CD: _apply_swap_cd,
    Transform.QUAD_SWAP_45: _apply_quad_swap,
    Transform.ALTERNATE_ALL: _apply_alternate,
}
_APPLIER_LIST = tuple(_RAW_APPLIERS[t] for t in TRANSFORMS)

# Staged-product order (composed right to left: swap . rev . neg . quad45
# . alt), costliest first so that it acts on the fewest members.
_STAGES = (
    _apply_alternate, _apply_quad_swap,
    _apply_negate_aa, _apply_negate_c, _apply_negate_d,
    _apply_reverse_aa, _apply_reverse_c, _apply_reverse_d,
    _apply_swap_cd,
)


def apply_raw(transform: Transform, raw: Raw) -> Raw:
    return _RAW_APPLIERS[transform](raw)


def apply(transform: Transform, quad: NormalQuadruple) -> NormalQuadruple:
    """Apply one elementary transformation; validity is preserved."""
    return NormalQuadruple.from_raw(apply_raw(transform, quad.raw()))


# Bound on the members the orbit cache holds: about 32 full orbits.
_CACHE_MEMBERS = 1 << 14
_ORBIT_OF: dict[Raw, frozenset[Raw]] = {}
_WINNER_OF: dict[frozenset[Raw], Raw] = {}


def orbit_raw(raw: Raw) -> frozenset[Raw]:
    members = _ORBIT_OF.get(raw)
    if members is not None:
        return members
    staged = {raw}
    for fn in _STAGES:
        staged.update([fn(state) for state in staged])
    members = frozenset(staged)
    if len(_ORBIT_OF) + len(members) > _CACHE_MEMBERS:
        _ORBIT_OF.clear()
        _WINNER_OF.clear()
    _ORBIT_OF.update(dict.fromkeys(members, members))
    return members


def orbit(quad: NormalQuadruple) -> frozenset[NormalQuadruple]:
    """Closure of a quadruple under the nine generators."""
    return frozenset(NormalQuadruple.from_raw(r) for r in orbit_raw(quad.raw()))


def _codes_of_raw(raw: Raw):
    """Quad labels and central labels of (A;A) and (C;D), straight off the
    sign tuples (no BinarySeq wrappers, orbit scans call this a lot)."""
    a, c, d = raw
    return (*quad_labels(a, a), *quad_labels(c, d))


def _violation_raw(raw: Raw) -> str | None:
    p, p_cen, q, q_cen = _codes_of_raw(raw)
    n = len(raw[0])
    m = len(p)
    odd = n % 2 == 1
    cen = m + 1

    def is_sym(s: int) -> bool:
        return s in SYMMETRIC_QUADS

    # (i)
    if not odd:
        if p[0] != 1:
            return "(i) at p_1"
    elif n > 1 and p[0] not in (1, 6):
        return "(i) at p_1"
    # (ii) first symmetric quad of (A;A) is 1
    first = next((k for k, s in enumerate(p) if is_sym(s)), None)
    if first is not None and p[first] != 1:
        return f"(ii) at p_{first + 1}"
    # (iii) first skew quad of (A;A) is 6
    first = next((k for k, s in enumerate(p) if not is_sym(s)), None)
    if first is not None and p[first] != 6:
        return f"(iii) at p_{first + 1}"
    if odd:
        # (iv) all quads skew forces central 0
        if all(not is_sym(s) for s in p) and p_cen != 0:
            return f"(iv) at p_{cen}"
        # (v) the first same-type adjacency pins the second quad of the
        # pair to {1,6}; with no adjacency and a symmetric last quad the
        # central must be 0
        adjacent = next(
            (k for k in range(m - 1) if is_sym(p[k]) == is_sym(p[k + 1])), None
        )
        if adjacent is not None:
            if p[adjacent + 1] not in (1, 6):
                return f"(v) at p_{adjacent + 2}"
        elif m and is_sym(p[m - 1]) and p_cen != 0:
            return f"(v) at p_{cen}"
    # (vi)
    if n > 1 and q[0] not in (1, 6):
        return "(vi) at q_1"
    # (vii) first symmetric quad of (C;D) is 1
    first = next((k for k, s in enumerate(q) if is_sym(s)), None)
    if first is not None and q[first] != 1:
        return f"(vii) at q_{first + 1}"
    # (viii) first skew quad of (C;D) is 6
    first = next((k for k, s in enumerate(q) if not is_sym(s)), None)
    if first is not None and q[first] != 6:
        return f"(viii) at q_{first + 1}"
    # (ix) first quad in {2,7} is 2
    first = next((k for k, s in enumerate(q) if s in (2, 7)), None)
    if first is not None and q[first] != 2:
        return f"(ix) at q_{first + 1}"
    # (x) first quad in {4,5} is 4
    first = next((k for k, s in enumerate(q) if s in (4, 5)), None)
    if first is not None and q[first] != 4:
        return f"(x) at q_{first + 1}"
    if odd:
        # (xi)
        if all(s != 2 for s in q) and q_cen == 2:
            return f"(xi) at q_{cen}"
        # (xii)
        if all(s != 1 for s in q) and q_cen != 0:
            return f"(xii) at q_{cen}"
    return None


def canonical_violation(quad: NormalQuadruple) -> str | None:
    """First violated canonical-form condition, e.g. '(viii) at q_3'.

    Assumes the quadruple is normal; returns None when all twelve
    conditions hold.
    """
    return _violation_raw(quad.raw())


def is_canonical(quad: NormalQuadruple) -> bool:
    return canonical_violation(quad) is None


def _may_be_canonical(raw: Raw) -> bool:
    """Conditions (i) and (vi) on the first quads: p_1 is 1 (or 6 for odd
    n) and q_1 is 1 or 6.  Necessary for the canonical form, read straight
    off the end terms."""
    a, c, d = raw
    if len(a) == 1:
        return True
    return (
        a[0] == 1
        and (len(a) % 2 == 1 or a[-1] == 1)
        and c[0] == 1
        and d[0] == 1
        and c[-1] == d[-1]
    )


def canonical_raw(raw: Raw) -> Raw:
    members = orbit_raw(raw)
    winner = _WINNER_OF.get(members)
    if winner is not None:
        return winner
    canonical = [
        r for r in members if _may_be_canonical(r) and _violation_raw(r) is None
    ]
    if len(canonical) != 1:
        # a (C;D) side outside the eight quads fails as the full scan would
        _codes_of_raw(raw)
        raise CanonicalFormError(
            f"orbit of size {len(members)} has {len(canonical)} canonical members,"
            " expected exactly one"
        )
    winner = _WINNER_OF[members] = canonical[0]
    return winner


def canonicalize(quad: NormalQuadruple) -> NormalQuadruple:
    """The unique orbit member in canonical form.

    Raises CanonicalFormError loudly if the orbit does not contain exactly
    one canonical member; that would falsify the uniqueness guarantee and
    must never be masked.
    """
    if not is_normal(quad):
        raise SequenceError("cannot canonicalise an invalid quadruple")
    return NormalQuadruple.from_raw(canonical_raw(quad.raw()))


def canonicalize_with_distance(quad: NormalQuadruple) -> tuple[NormalQuadruple, int]:
    """Canonical form plus the least number of generator applications
    needed to reach it from the input."""
    if not is_normal(quad):
        raise SequenceError("cannot canonicalise an invalid quadruple")
    start = quad.raw()
    target = canonical_raw(start)
    if start == target:
        return quad, 0
    seen = {start}
    frontier = [start]
    steps = 0
    while frontier:
        steps += 1
        nxt = []
        for state in frontier:
            for fn in _APPLIER_LIST:
                image = fn(state)
                if image == target:
                    return NormalQuadruple.from_raw(target), steps
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    raise CanonicalFormError("canonical member unreachable")  # pragma: no cover


def are_equivalent(s1: NormalQuadruple, s2: NormalQuadruple) -> bool:
    """Whether the two quadruples share a canonical form."""
    if s1.n != s2.n:
        raise SequenceError("quadruples of different lengths are never equivalent")
    return canonical_raw(s1.raw()) == canonical_raw(s2.raw())


def is_golay_type(quad: NormalQuadruple) -> bool:
    """Whether some orbit member has C = D.

    C = D in a valid quadruple forces (A;C) to be a Golay pair, and both
    Golay embeddings have C = D, so this is exactly Golay-typeness.
    """
    if not is_normal(quad):
        raise SequenceError("Golay type is only defined for valid quadruples")
    return any(c == d for _, c, d in orbit_raw(quad.raw()))
