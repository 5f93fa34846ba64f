"""The staged-product orbit, the pre-checked canonical scan and the bounded
orbit cache, checked against the plain breadth-first closure and the full
twelve-condition scan they replace."""

import random

import pytest

from nsq import equivalence
from nsq.equivalence import (
    _APPLIER_LIST,
    CanonicalFormError,
    _may_be_canonical,
    _violation_raw,
    canonical_raw,
    orbit_raw,
)
from nsq.group import _probe, _random_quad_regular
from nsq.quadcodec import CodeError, decode_quadruple, parse_code
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


@pytest.fixture(scope="module")
def rows():
    return [
        decode_quadruple(*parse_code(f"{r.p_code} {r.q_code}", n=r.n)).raw()
        for r in load_tables().reps
    ]


@pytest.fixture()
def empty_cache():
    equivalence._ORBIT_OF.clear()
    equivalence._WINNER_OF.clear()


@pytest.mark.parametrize("n", range(1, 41))
def test_staged_orbit_is_the_closure(n):
    rng = random.Random(7919 + n)
    triples = list(_probe(n)) + [_random_quad_regular(n, rng) for _ in range(2)]
    for raw in triples:
        assert orbit_raw(raw) == closure(raw), raw


def test_every_representative_keeps_its_orbit_and_winner(rows):
    assert len(rows) == 167
    for raw in rows:
        members = closure(raw)
        assert orbit_raw(raw) == members, raw
        expected = [m for m in members if _violation_raw(m) is None]
        assert len(expected) == 1
        assert canonical_raw(raw) == expected[0]


def test_pre_check_is_necessary(valid_pool, rng):
    triples = list(valid_pool)
    for _ in range(10):
        triples.extend(orbit_raw(_random_quad_regular(rng.randrange(1, 16), rng)))
    for raw in triples:
        if _violation_raw(raw) is None:
            assert _may_be_canonical(raw), raw


def test_sweep_over_one_orbit_hits_the_cache(rows):
    raw = rows[-1]
    members = orbit_raw(raw)
    winner = canonical_raw(raw)
    for member in members:
        assert orbit_raw(member) is members
        assert canonical_raw(member) is winner


def test_cache_stays_bounded_and_clearing_changes_no_result(rows, empty_cache):
    limit = equivalence._CACHE_MEMBERS
    first = []
    cleared = 0
    for raw in rows:
        before = len(equivalence._ORBIT_OF)
        first.append(canonical_raw(raw))
        after = len(equivalence._ORBIT_OF)
        cleared += after < before
        assert after <= limit
        assert len(equivalence._WINNER_OF) <= len(equivalence._ORBIT_OF)
        for members in equivalence._WINNER_OF:
            assert equivalence._ORBIT_OF[next(iter(members))] is members
    assert cleared >= 2
    assert [canonical_raw(raw) for raw in rows] == first


def test_two_canonical_members_raise(empty_cache):
    # not normal, but quad-regular: its orbit holds two members that pass
    # all twelve conditions
    raw = ((-1, 1, 1), (1, 1, 1), (1, 1, 1))
    assert sum(_violation_raw(m) is None for m in closure(raw)) == 2
    with pytest.raises(CanonicalFormError, match="has 2 canonical members"):
        canonical_raw(raw)
    assert not equivalence._WINNER_OF


def test_no_canonical_member_raises(rows, empty_cache, monkeypatch):
    monkeypatch.setattr(equivalence, "_violation_raw", lambda raw: "(i) at p_1")
    with pytest.raises(CanonicalFormError, match="has 0 canonical members"):
        canonical_raw(rows[-1])
    assert not equivalence._WINNER_OF


def test_cd_side_outside_the_eight_quads_is_a_code_error():
    # (c_1, c_2, d_1, d_2) = (+, +, +, -) is no labelled quad, so no orbit
    # member passes the pre-check; the error names the quad, as a scan of
    # every member would
    with pytest.raises(CodeError, match="positions 1 and 2"):
        canonical_raw(((1, 1), (1, 1), (1, -1)))
