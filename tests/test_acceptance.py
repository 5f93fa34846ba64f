"""Acceptance suite: each test drives one exit criterion end to end and
prints a verdict line (run pytest with -s to see them on success)."""

import random
from itertools import product

import pytest

from nsq.core import (
    BinarySeq,
    NormalQuadruple,
    alternate,
    is_normal,
    negate,
    npaf,
    reverse,
    three_squares_feasible,
)
from nsq.equivalence import (
    TRANSFORMS,
    apply,
    apply_raw,
    are_equivalent,
    canonical_raw,
    canonicalize,
    is_canonical,
    orbit_raw,
    Transform,
)
from nsq.golay import embed, golay_pairs, golay_type_class_count, two_embeddings_equivalent
from nsq.group import orbits_match_classes, realized_order, verify_relations
from nsq.quadcodec import QuadCode, compose_pair
from nsq.search import enumerate_classes, exhaustive_normal_quadruples, record_quadruple, summarize
from nsq.tables import diff_against_search, load_allowlist, load_tables, verify_tables
from test_golay import golay_class_codes

EXPECTED_COUNTS = {
    1: (1, 1, 0),
    2: (1, 1, 0),
    3: (1, 0, 1),
    4: (1, 1, 0),
    5: (1, 0, 1),
    6: (0, 0, 0),
    7: (4, 0, 4),
    8: (7, 6, 1),
    9: (3, 0, 3),
    10: (5, 4, 1),
    11: (2, 0, 2),
    12: (4, 0, 4),
    13: (3, 0, 3),
    14: (0, 0, 0),
    15: (2, 0, 2),
    16: (52, 48, 4),
    17: (0, 0, 0),
    18: (1, 0, 1),
    19: (1, 0, 1),
    20: (36, 34, 2),
}


def _verdict(number, name, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_class_counts_up_to_20():
    def body():
        rows = summarize(1, 20)
        got = {n: (equ, gol, spo) for n, equ, gol, spo in rows}
        assert got == EXPECTED_COUNTS

    _verdict(1, "class counts n<=20", body)


def test_criterion_2_representative_rows_match():
    def body():
        covered = list(range(1, 14)) + [15, 16, 18, 19, 20]
        for n in covered:
            diff = diff_against_search(n)
            if n == 2:
                # the transposed printed row is flagged, never absorbed
                assert not diff.identical
                assert diff.missing == (("6", "1"),)
                assert diff.extra == (("1", "6"),)
                assert (2, 1, "search-match") in load_allowlist()
            else:
                assert diff.identical, f"n={n}: {diff}"

    _verdict(2, "representative tables n<=20", body)


def test_criterion_3_all_printed_rows_verify():
    def body():
        tables = load_tables()
        assert len(tables.reps) == 35 + 96 + 36
        report = verify_tables(tables)
        assert report.checked_rows == 167
        # every row decodes, is normal, and its orbit has exactly one
        # canonical member; the only canonical-form findings are the three
        # documented printing defects, which the allowlist pins exactly
        assert {(f.n, f.index, f.check) for f in report.findings} == {
            (2, 1, "canonical"),
            (32, 21, "canonical"),
            (32, 23, "canonical"),
        }
        assert report.ok
        from nsq.equivalence import is_golay_type
        from nsq.quadcodec import decode_quadruple, parse_code

        for row in tables.reps_for(32):
            quad = decode_quadruple(*parse_code(f"{row.p_code} {row.q_code}", n=32))
            assert is_golay_type(quad) is False

    _verdict(3, "printed representatives verify", body)


def test_criterion_4_emptiness():
    def body():
        assert enumerate_classes(6) == []
        assert enumerate_classes(17) == []
        assert not three_squares_feasible(14)
        assert not three_squares_feasible(30)
        assert enumerate_classes(14) == []

    _verdict(4, "emptiness at 6, 14, 17", body)


def test_criterion_5_brute_force_oracle():
    def body():
        for n in range(1, 11):
            members = exhaustive_normal_quadruples(n)
            for raw in members:
                assert is_normal(NormalQuadruple.from_raw(raw))
            oracle_canonical = {canonical_raw(raw) for raw in members}
            search_canonical = {
                record_quadruple(r).raw() for r in enumerate_classes(n)
            }
            assert oracle_canonical == search_canonical, f"n={n}"
        # the vectorised filter agrees with the literal predicate in full
        for n in (1, 2, 3):
            space = list(product((1, -1), repeat=n))
            literal = {
                (a, c, d)
                for a in space
                for c in space
                for d in space
                if is_normal(NormalQuadruple(BinarySeq(a), BinarySeq(c), BinarySeq(d)))
            }
            assert set(exhaustive_normal_quadruples(n)) == literal

    _verdict(5, "brute-force oracle n<=10", body)


@pytest.fixture(scope="module")
def pool(valid_pool):
    return valid_pool


def test_criterion_6_property_suites(pool):
    rng = random.Random(20260811)

    def random_seq(max_n=16):
        n = rng.randrange(1, max_n + 1)
        return BinarySeq(tuple(rng.choice((1, -1)) for _ in range(n)))

    def body():
        # autocorrelation invariance under negation and reversal
        for _ in range(1000):
            s = random_seq()
            table = npaf(s).values
            assert npaf(negate(s)).values == table
            assert npaf(reverse(s)).values == table
        # alternation sign rule
        for _ in range(1000):
            s = random_seq()
            base = npaf(s).values
            flipped = npaf(alternate(s)).values
            assert all(flipped[i] == (-1) ** i * base[i] for i in range(len(base)))
        # the nine generators are validity-preserving involutions
        cases = 0
        while cases < 1000:
            raw = rng.choice(pool)
            for t in TRANSFORMS:
                image = apply_raw(t, raw)
                assert is_normal(NormalQuadruple.from_raw(image))
                assert apply_raw(t, image) == raw
                cases += 1
        # the quad 4<->5 swap preserves the combined (C;D) table
        for _ in range(1000):
            n = rng.randrange(2, 13)
            code = QuadCode(
                tuple(rng.randrange(1, 9) for _ in range(n // 2)),
                rng.randrange(4) if n % 2 else None,
                "cd",
            )
            c, d = compose_pair(code)
            _, c2, d2 = apply_raw(Transform.QUAD_SWAP_45, (c.terms, c.terms, d.terms))
            before = [npaf(c)[i] + npaf(d)[i] for i in range(n)]
            after = [
                npaf(BinarySeq(c2))[i] + npaf(BinarySeq(d2))[i] for i in range(n)
            ]
            assert before == after
        # orbit sizes divide the group order
        for _ in range(1000):
            raw = rng.choice(pool)
            assert 512 % len(orbit_raw(raw)) == 0
        # canonicalisation is idempotent and orbit-constant
        for _ in range(1000):
            raw = rng.choice(pool)
            quad = NormalQuadruple.from_raw(raw)
            canon = canonicalize(quad)
            assert canonicalize(canon) == canon
            moved = apply(rng.choice(TRANSFORMS), quad)
            assert canonicalize(moved) == canon
        # exactly one canonical member on every orbit encountered
        seen = set()
        members_covered = 0
        for raw in pool:
            members = orbit_raw(raw)
            if members in seen:
                continue
            seen.add(members)
            members_covered += len(members)
            canonical = [
                m for m in members if is_canonical(NormalQuadruple.from_raw(m))
            ]
            assert len(canonical) == 1
        assert members_covered >= 1000

    _verdict(6, "property suites (>=1000 cases each)", body)


def test_criterion_7_group_checks():
    def body():
        for n in range(1, 13):
            order = realized_order(n)
            assert order <= 512 and 512 % order == 0
        for n in (4, 5):
            checks = verify_relations(n)
            assert all(c.status != "FAIL" for c in checks)
            assert sum(1 for c in checks if c.status == "PASS") >= 16
        for n in range(1, 11):
            assert orbits_match_classes(n), f"n={n}"

    _verdict(7, "group order, relations, orbit partition", body)


def test_criterion_8_golay_cross_validation():
    def body():
        expected = {2: 1, 4: 1, 8: 6, 10: 4, 16: 48, 20: 34}
        for n, count in expected.items():
            assert golay_type_class_count(n) == count, f"n={n}"
            tagged = {
                (r.p_code, r.q_code) for r in enumerate_classes(n) if r.golay_type
            }
            assert len(tagged) == count
            assert golay_class_codes(n) == tagged
        for n in (4, 8):
            for pair in golay_pairs(n):
                assert two_embeddings_equivalent(pair) == are_equivalent(*embed(pair))

    _verdict(8, "Golay cross-validation", body)
