"""The factorised orbit and the per-side canonical check, checked
against the plain breadth-first closure, the staged product on whole
triples and the full twelve-condition scan they replace, all kept here
as oracles."""

import itertools
import random

import pytest

from nsq import equivalence
from nsq.core import NormalQuadruple
from nsq.equivalence import (
    _APPLIER_LIST,
    CanonicalFormError,
    _aa_may_be_canonical,
    _aa_violation,
    _alt,
    _apply_alternate,
    _apply_negate_aa,
    _apply_negate_c,
    _apply_negate_d,
    _apply_quad_swap,
    _apply_reverse_aa,
    _apply_reverse_c,
    _apply_reverse_d,
    _apply_swap_cd,
    _cd_may_be_canonical,
    _cd_violation,
    _neg,
    canonical_raw,
    canonical_violation,
    is_golay_type,
    orbit_raw,
)
from nsq.group import _probe, _random_quad_regular
from nsq.quadcodec import SYMMETRIC_QUADS, CodeError, decode_quadruple, parse_code, quad_labels
from nsq.tables import load_tables


def closure(raw):
    """Oracle: breadth-first closure under all nine generators."""
    seen = {raw}
    frontier = [raw]
    while frontier:
        nxt = []
        for state in frontier:
            for fn in _APPLIER_LIST:
                image = fn(state)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return frozenset(seen)


# Staged-product order (composed right to left: swap . rev . neg . quad45
# . alt), costliest first so that it acts on the fewest members.
STAGES = (
    _apply_alternate, _apply_quad_swap,
    _apply_negate_aa, _apply_negate_c, _apply_negate_d,
    _apply_reverse_aa, _apply_reverse_c, _apply_reverse_d,
    _apply_swap_cd,
)


def staged_orbit(raw):
    """Oracle: the orbit as the staged product on whole triples, each
    generator in STAGES acting once on the set built so far."""
    staged = {raw}
    for fn in STAGES:
        staged.update([fn(state) for state in staged])
    return frozenset(staged)


def reference_neg(t):
    return tuple(-v for v in t)


def reference_alt(t):
    return tuple(v if i % 2 == 0 else -v for i, v in enumerate(t))


def _violation_raw(raw):
    """Oracle: the first of all twelve conditions that fails, read off the
    labels of both sides at once."""
    a, c, d = raw
    p, p_cen = quad_labels(a, a)
    q, q_cen = quad_labels(c, d)
    n = len(raw[0])
    m = len(p)
    odd = n % 2 == 1
    cen = m + 1

    def is_sym(s):
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


def canonical_oracle(raw):
    """Oracle: the full twelve-condition scan of the staged orbit."""
    members = staged_orbit(raw)
    canonical = [m for m in members if _violation_raw(m) is None]
    if len(canonical) != 1:
        raise CanonicalFormError(
            f"orbit of size {len(members)} has {len(canonical)} canonical members,"
            " expected exactly one"
        )
    return canonical[0]


def outcome(fn, raw):
    try:
        return fn(raw)
    except CanonicalFormError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def rows():
    return [
        decode_quadruple(*parse_code(f"{r.p_code} {r.q_code}", n=r.n)).raw()
        for r in load_tables().reps
    ]


def probe_triples(n):
    rng = random.Random(7919 + n)
    return list(_probe(n)) + [_random_quad_regular(n, rng) for _ in range(2)]


@pytest.mark.parametrize("n", range(1, 41))
def test_staged_orbit_is_the_closure(n):
    for raw in probe_triples(n):
        members = closure(raw)
        assert staged_orbit(raw) == members, raw
        assert orbit_raw(raw) == members, raw


def test_every_representative_keeps_its_orbit_and_winner(rows):
    assert len(rows) == 167
    for raw in rows:
        members = closure(raw)
        assert orbit_raw(raw) == members, raw
        expected = [m for m in members if _violation_raw(m) is None]
        assert len(expected) == 1
        assert canonical_raw(raw) == expected[0] == canonical_oracle(raw)


@pytest.mark.parametrize("n", range(1, 41))
def test_split_violation_matches_the_full_scan(n):
    for raw in probe_triples(n):
        for m in closure(raw):
            a, c, d = m
            expected = _violation_raw(m)
            assert (_aa_violation(a) or _cd_violation(c, d)) == expected, m
            assert canonical_violation(NormalQuadruple.from_raw(m)) == expected, m


def test_split_violation_matches_on_every_representative_orbit(rows):
    for raw in rows:
        for m in orbit_raw(raw):
            a, c, d = m
            assert (_aa_violation(a) or _cd_violation(c, d)) == _violation_raw(m), m


@pytest.mark.parametrize("n", range(1, 41))
def test_canonical_raw_matches_the_staged_full_scan(n):
    # the probes are quad-regular but not normal, so their orbits hold
    # any number of canonical members; the error text must agree too
    for raw in probe_triples(n):
        assert outcome(canonical_raw, raw) == outcome(canonical_oracle, raw), raw


def test_golay_type_is_some_orbit_member_with_c_equal_d(rows):
    tags = [r.tag for r in load_tables().reps]
    for raw, tag in zip(rows, tags):
        golay = is_golay_type(NormalQuadruple.from_raw(raw))
        assert golay == any(c == d for _, c, d in closure(raw)), raw
        if tag in ("G", "S"):
            assert golay == (tag == "G"), raw


def test_golay_type_on_valid_pool(valid_pool, rows):
    # is_golay_type reads (C;D) off without building the orbit: the same
    # verdict on every member of every class with n <= 10 and on every
    # bundled row.
    for raw in valid_pool + rows:
        expected = any(c == d for _, c, d in orbit_raw(raw))
        assert is_golay_type(NormalQuadruple.from_raw(raw)) == expected, raw


def test_pre_check_is_necessary(valid_pool, rng):
    triples = list(valid_pool)
    for _ in range(10):
        triples.extend(orbit_raw(_random_quad_regular(rng.randrange(1, 16), rng)))
    for a, c, d in triples:
        if _aa_violation(a) is None:
            assert _aa_may_be_canonical(a), a
        if _cd_violation(c, d) is None:
            assert _cd_may_be_canonical(c, d), (c, d)


def every_sign_tuple(max_len):
    for n in range(1, max_len + 1):
        yield from itertools.product((1, -1), repeat=n)


def test_primitives_match_their_references():
    rng = random.Random(2027)
    seeded = [
        tuple(rng.choice((1, -1)) for _ in range(n)) for n in range(1, 41) for _ in range(25)
    ]
    for t in itertools.chain(every_sign_tuple(12), seeded):
        assert _neg(t) == reference_neg(t), t
        assert _alt(t) == reference_alt(t), t


def test_alt_past_the_sign_pattern():
    t = tuple((-1) ** (i // 3) for i in range(101))
    assert _alt(t) == reference_alt(t)


def test_every_member_of_one_orbit_canonicalises_to_its_winner(rows):
    raw = rows[-1]
    winner = canonical_raw(raw)
    for member in orbit_raw(raw):
        assert canonical_raw(member) == winner


def test_two_canonical_members_raise():
    # not normal, but quad-regular: its orbit holds two members that pass
    # all twelve conditions
    raw = ((-1, 1, 1), (1, 1, 1), (1, 1, 1))
    assert sum(_violation_raw(m) is None for m in closure(raw)) == 2
    with pytest.raises(CanonicalFormError, match="has 2 canonical members"):
        canonical_raw(raw)
    with pytest.raises(CanonicalFormError, match="has 2 canonical members"):
        canonical_oracle(raw)


def test_no_canonical_member_raises(rows, monkeypatch):
    monkeypatch.setattr(equivalence, "_aa_violation", lambda a: "(i) at p_1")
    with pytest.raises(CanonicalFormError, match="has 0 canonical members"):
        canonical_raw(rows[-1])


def test_cd_side_outside_the_eight_quads_is_a_code_error():
    # (c_1, c_2, d_1, d_2) = (+, +, +, -) is no labelled quad, so no orbit
    # member passes the pre-check; the error names the quad, as a scan of
    # every member would
    with pytest.raises(CodeError, match="positions 1 and 2"):
        canonical_raw(((1, 1), (1, 1), (1, -1)))


def test_cd_quad_outside_the_eight_past_the_end_terms_is_a_code_error():
    # positions 1 and 4 form quad 1, so members pass the pre-check and the
    # labelling of (C;D) meets (c_2, c_3, d_2, d_3) = (+, +, +, -)
    raw = ((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, -1, 1))
    with pytest.raises(CodeError, match="positions 2 and 3"):
        canonical_raw(raw)
    with pytest.raises(CodeError, match="positions 2 and 3"):
        canonical_violation(NormalQuadruple.from_raw(raw))
