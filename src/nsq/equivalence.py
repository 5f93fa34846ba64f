"""The nine involutive generators of the equivalence, orbit enumeration,
the twelve-condition canonical form, and Golay-type detection.

The group is G = H.<alt> with H = <swap>.N.<quad45>, N being the six
commuting negations and reversals: the quad 4<->5 swap and the C/D swap
normalise N, and the alternation normalises H.  These relations hold
whenever (C;D) cuts into the eight labelled quads, as in every normal
quadruple.

H factors as N_a x H_cd.  Its generators negate_aa and reverse_aa touch
only A, and the other six (the C and D negations and reversals, swap_cd
and quad_swap_45) touch only (C;D); maps on disjoint coordinates commute.
So the H-orbit of (a, c, d) is the product of {+-a, +-rev a} with the
H_cd-orbit of (c, d), which is the union over (x, y) in {(c, d),
quad45(c, d)} of {+-x, +-rev x} x {+-y, +-rev y} and its swap: at most
4 x 64 members.  H is normal in G, so G = H u H.alt, and the G-orbit is
the H-orbit of (a, c, d) together with the H-orbit of its alternation.
Two H-orbits are equal or disjoint, so one membership test of alt(a, c,
d) in the first tells which.

Conditions (i)-(v) read only A and (vi)-(xii) only (C;D), so within one
H-orbit the canonical members are {a: A passes} x {(c, d): (C;D) passes}.
Canonicalisation counts them over the one or two H-orbits and raises
CanonicalFormError unless there is exactly one, on every orbit it meets.

It reads only the members whose sequences all start with +1: of each
{+-x, +-rev x}, the one of +-x and the one of +-rev x that do.  That
leaves at most 2 A's and 16 (C;D)'s per H-orbit, and the count stays
exact, because no member outside them is canonical.  For n > 1, (i)
reads p_1 in {1, 6} (p_1 = 1 for even n) and (vi) q_1 in {1, 6}, and
quads 1 and 6 have top-left and bottom-left terms +1, so a_1 = c_1 =
d_1 = +1.  For n = 1 there is no quad: (iv) forces the central of
(A;A) to 0, so a_1 = +1, and (xi) and (xii) force that of (C;D) to 0,
so c_1 = d_1 = +1.  Each side then runs its conditions only on the
members that pass its end-term check, (i) or (vi), which is the same
condition read without the quad labels.
"""

from __future__ import annotations

import operator
from enum import Enum
from itertools import product

from .core import NormalQuadruple, SequenceError, is_normal
from .quadcodec import MAX_N, SYMMETRIC_QUADS, quad_labels

Raw = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
Pair = tuple[tuple[int, ...], tuple[int, ...]]


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
    return tuple(map(operator.neg, t))


_SIGNS = (1, -1) * ((MAX_N + 1) // 2)


def _alt(t: tuple[int, ...]) -> tuple[int, ...]:
    signs = _SIGNS if len(t) <= len(_SIGNS) else (1, -1) * ((len(t) + 1) // 2)
    return tuple(map(operator.mul, t, signs))


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


def apply_raw(transform: Transform, raw: Raw) -> Raw:
    return _RAW_APPLIERS[transform](raw)


def apply(transform: Transform, quad: NormalQuadruple) -> NormalQuadruple:
    """Apply one elementary transformation; validity is preserved."""
    return NormalQuadruple.from_raw(apply_raw(transform, quad.raw()))


def _signed(x: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """x under its negation and reversal: +-x, +-rev x."""
    nx = _neg(x)
    return (x, nx, x[::-1], nx[::-1])


def _lead(x: tuple[int, ...]) -> tuple[int, ...]:
    """Whichever of x and -x has first term +1."""
    return x if x[0] == 1 else _neg(x)


def _leads(x: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The members of {+-x, +-rev x} with first term +1, one of +-x and
    one of +-rev x (the same one when x is a palindrome up to sign)."""
    return (_lead(x), _lead(x[::-1]))


def _cd_set(c: tuple[int, ...], d: tuple[int, ...], signed) -> frozenset[Pair]:
    """The orbit of (C;D) under H_cd = <swap_cd>.N_cd.<quad_swap_45> with
    signed=_signed; with signed=_leads, its members whose C and D both
    start with +1."""
    pairs = []
    for x, y in ((c, d), _swap45(c, d)):
        xs, ys = signed(x), signed(y)
        pairs += product(xs, ys)
        pairs += product(ys, xs)
    return frozenset(pairs)


def _h_orbits(raw: Raw, signed=_signed) -> tuple[tuple[frozenset, frozenset], ...]:
    """The (A-set, (C;D)-set) factors of the H-orbits of raw and of its
    alternation; one pair when the two H-orbits coincide.  With
    signed=_leads each factor keeps only its members whose sequences all
    start with +1.

    The full factors are closed under negating any of their sequences, so
    a member lies in one iff its copy with leading terms +1 (_lead) does,
    and that copy lies in the full factor iff it lies in the pruned one:
    one test tells whether the H-orbits coincide in either form."""
    a, c, d = raw
    first = (frozenset(signed(a)), _cd_set(c, d, signed))
    a2, c2, d2 = _apply_alternate(raw)
    if _lead(a2) in first[0] and (_lead(c2), _lead(d2)) in first[1]:
        return (first,)
    return first, (frozenset(signed(a2)), _cd_set(c2, d2, signed))


def orbit_raw(raw: Raw) -> frozenset[Raw]:
    return frozenset(
        (x, c, d) for xs, cds in _h_orbits(raw) for x in xs for c, d in cds
    )


def orbit(quad: NormalQuadruple) -> frozenset[NormalQuadruple]:
    """Closure of a quadruple under the nine generators."""
    return frozenset(NormalQuadruple.from_raw(r) for r in orbit_raw(quad.raw()))


def _aa_may_be_canonical(a: tuple[int, ...]) -> bool:
    """Condition (i) read off the end terms: a_1 = +1, and a_n = +1 for
    even n (p_1 is 1, or 1 or 6 for odd n)."""
    return len(a) == 1 or (a[0] == 1 and (len(a) % 2 == 1 or a[-1] == 1))


def _cd_may_be_canonical(c: tuple[int, ...], d: tuple[int, ...]) -> bool:
    """Condition (vi) read off the end terms: c_1 = d_1 = +1 and
    c_n = d_n (q_1 is 1 or 6)."""
    return len(c) == 1 or (c[0] == 1 and d[0] == 1 and c[-1] == d[-1])


def _is_sym(s: int) -> bool:
    return s in SYMMETRIC_QUADS


def _aa_violation(a: tuple[int, ...]) -> str | None:
    """First of conditions (i)-(v), on the quads of (A;A), that fails."""
    p, p_cen = quad_labels(a, a)
    n = len(a)
    m = len(p)
    odd = n % 2 == 1
    # (i)
    if not odd:
        if p[0] != 1:
            return "(i) at p_1"
    elif n > 1 and p[0] not in (1, 6):
        return "(i) at p_1"
    # (ii) first symmetric quad of (A;A) is 1
    first = next((k for k, s in enumerate(p) if _is_sym(s)), None)
    if first is not None and p[first] != 1:
        return f"(ii) at p_{first + 1}"
    # (iii) first skew quad of (A;A) is 6
    first = next((k for k, s in enumerate(p) if not _is_sym(s)), None)
    if first is not None and p[first] != 6:
        return f"(iii) at p_{first + 1}"
    if odd:
        cen = m + 1
        # (iv) all quads skew forces central 0
        if all(not _is_sym(s) for s in p) and p_cen != 0:
            return f"(iv) at p_{cen}"
        # (v) the first same-type adjacency pins the second quad of the
        # pair to {1,6}; with no adjacency and a symmetric last quad the
        # central must be 0
        adjacent = next(
            (k for k in range(m - 1) if _is_sym(p[k]) == _is_sym(p[k + 1])), None
        )
        if adjacent is not None:
            if p[adjacent + 1] not in (1, 6):
                return f"(v) at p_{adjacent + 2}"
        elif m and _is_sym(p[m - 1]) and p_cen != 0:
            return f"(v) at p_{cen}"
    return None


def _cd_violation(c: tuple[int, ...], d: tuple[int, ...]) -> str | None:
    """First of conditions (vi)-(xii), on the quads of (C;D), that fails;
    CodeError when (C;D) does not cut into the eight quads."""
    q, q_cen = quad_labels(c, d)
    n = len(c)
    # (vi)
    if n > 1 and q[0] not in (1, 6):
        return "(vi) at q_1"
    # (vii) first symmetric quad of (C;D) is 1
    first = next((k for k, s in enumerate(q) if _is_sym(s)), None)
    if first is not None and q[first] != 1:
        return f"(vii) at q_{first + 1}"
    # (viii) first skew quad of (C;D) is 6
    first = next((k for k, s in enumerate(q) if not _is_sym(s)), None)
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
    if n % 2 == 1:
        cen = len(q) + 1
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
    a, c, d = quad.raw()
    # (C;D) is labelled first, so a side outside the eight quads raises
    # CodeError whatever A reads
    cd = _cd_violation(c, d)
    return _aa_violation(a) or cd


def is_canonical(quad: NormalQuadruple) -> bool:
    return canonical_violation(quad) is None


def canonical_raw(raw: Raw) -> Raw:
    """The orbit's one member that meets all twelve conditions.

    The scan reads only the members whose A, C and D all start with +1
    (_h_orbits with _leads): at most 2 A's and 16 (C;D)'s per H-orbit,
    in place of 4 and 64.  The count stays exact, because every
    canonical member is among them: (i) and (vi) need a_1 = c_1 = d_1 =
    +1 for n > 1, and for n = 1 (iv) needs a_1 = +1 and (xi) and (xii)
    c_1 = d_1 = +1 (see the module docstring).  The full orbit's size,
    which the error names, is counted only when there is no single
    canonical member.
    """
    halves = _h_orbits(raw, _leads)
    canonical = []
    for xs, cds in halves:
        a_ok = [x for x in xs if _aa_may_be_canonical(x) and _aa_violation(x) is None]
        if a_ok:
            cd_ok = [
                y for y in cds if _cd_may_be_canonical(*y) and _cd_violation(*y) is None
            ]
            canonical += [(x, *y) for x in a_ok for y in cd_ok]
    if len(canonical) != 1:
        # a (C;D) side outside the eight quads fails as the full scan would
        quad_labels(*raw[1:])
        size = sum(len(xs) * len(cds) for xs, cds in _h_orbits(raw))
        raise CanonicalFormError(
            f"orbit of size {size} has {len(canonical)} canonical members,"
            " expected exactly one"
        )
    return canonical[0]


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
    Golay embeddings have C = D, so this is exactly Golay-typeness.  One
    (C;D) factor settles it: the alternation carries the (C;D)-set of one
    H-orbit onto that of the other, and keeps C = D.
    """
    if not is_normal(quad):
        raise SequenceError("Golay type is only defined for valid quadruples")
    _, c, d = quad.raw()
    return _golay_type(c, d)


def _golay_type(c: tuple[int, ...], d: tuple[int, ...]) -> bool:
    """is_golay_type for a quadruple with these C and D that the caller
    has already checked with is_normal, read off (C;D) without building
    its orbit.

    The (C;D)-set (_cd_set) is the union of S(x) x S(y) and S(y) x S(x)
    over (x, y) = (C, D) and its 4<->5 swap, with S(x) = {+-x, +-rev x}.
    Each S(x) is an orbit of the group of negation and reversal, so S(x)
    and S(y) meet iff they are equal, iff y is in S(x).  So the set holds
    a member with equal halves iff y is in S(x) for one of the two."""
    return any(y in _signed(x) for x, y in ((c, d), _swap45(c, d)))
