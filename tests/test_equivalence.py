import pytest

from nsq.core import BinarySeq, NormalQuadruple, SequenceError, is_normal, npaf
from nsq.equivalence import (
    CanonicalFormError,
    TRANSFORMS,
    Transform,
    apply,
    apply_raw,
    are_equivalent,
    canonical_violation,
    canonicalize,
    canonicalize_with_distance,
    is_canonical,
    is_golay_type,
    orbit,
    orbit_raw,
)
from nsq.quadcodec import decode_quadruple, encode_quadruple, parse_code
from test_quadcodec import (
    CENTRAL_NEGATE_BOTH,
    CENTRAL_NEGATE_TOP,
    CENTRAL_SWAP_ROWS,
    NEGATE_BOTH,
    NEGATE_TOP,
    REVERSE_TOP,
    SWAP_45,
    SWAP_ROWS,
)


def quad_from_text(text, n=None):
    return decode_quadruple(*parse_code(text, n=n))


def combined_cd_table(c, d):
    nc, nd = npaf(c), npaf(d)
    return tuple(nc[i] + nd[i] for i in range(len(c)))


class TestApply:
    def test_alternate_all_length_two(self):
        quad = quad_from_text("1 6", n=2)
        image = apply(Transform.ALTERNATE_ALL, quad)
        assert (str(image.a), str(image.c), str(image.d)) == ("+-", "++", "++")

    def test_quad_swap_on_length_five(self):
        quad = quad_from_text("160 640")
        image = apply(Transform.QUAD_SWAP_45, quad)
        _, q = encode_quadruple(image)
        assert q.text == "650"
        assert is_normal(image)

    def test_negate_c_is_involution(self):
        quad = quad_from_text("1660 6122")
        twice = apply(Transform.NEGATE_C, apply(Transform.NEGATE_C, quad))
        assert twice == quad

    def test_all_generators_are_involutions_preserving_validity(self, valid_pool, rng):
        for raw in rng.sample(valid_pool, 200):
            quad = NormalQuadruple.from_raw(raw)
            for t in TRANSFORMS:
                image = apply(t, quad)
                assert is_normal(image)
                assert apply(t, image) == quad

    def test_quad_swap_preserves_combined_table_on_non_normal_pairs(self, rng):
        # the table equality holds for every pair the quad labels describe,
        # normal or not
        from nsq.quadcodec import QuadCode, compose_pair

        for _ in range(300):
            n = rng.randrange(2, 12)
            code = QuadCode(
                tuple(rng.randrange(1, 9) for _ in range(n // 2)),
                rng.randrange(4) if n % 2 else None,
                "cd",
            )
            c, d = compose_pair(code)
            _, c2_terms, d2_terms = apply_raw(
                Transform.QUAD_SWAP_45, (c.terms, c.terms, d.terms)
            )
            before = combined_cd_table(c, d)
            after = combined_cd_table(BinarySeq(c2_terms), BinarySeq(d2_terms))
            assert before == after


class TestOrbit:
    def test_contains_start_and_divides_group_order(self, valid_pool, rng):
        for raw in rng.sample(valid_pool, 50):
            members = orbit_raw(raw)
            assert raw in members
            assert 512 % len(members) == 0

    def test_orbit_wrapper_returns_quadruples(self):
        quad = quad_from_text("16 61")
        members = orbit(quad)
        assert quad in members
        assert all(isinstance(m, NormalQuadruple) for m in members)

    def test_length_four_orbit_has_one_canonical_member(self):
        quad = quad_from_text("16 61")
        canonical = [m for m in orbit(quad) if is_canonical(m)]
        assert canonical == [quad]

    def test_distinct_class_orbits_are_disjoint(self):
        first = quad_from_text("1660 6122")
        second = quad_from_text("6113 1623")
        assert orbit_raw(first.raw()).isdisjoint(orbit_raw(second.raw()))


class TestCanonicalPredicate:
    def test_listed_representative_is_canonical(self):
        assert is_canonical(quad_from_text("160 640"))

    def test_alternation_of_even_representative_violates_first_condition(self):
        image = apply(Transform.ALTERNATE_ALL, quad_from_text("16 61"))
        assert canonical_violation(image) == "(i) at p_1"

    def test_length_three_representative(self):
        assert is_canonical(quad_from_text("60 11"))

    def test_violation_reports_condition_and_index(self):
        quad = quad_from_text("160 640")
        image = apply(Transform.QUAD_SWAP_45, quad)  # code 650: first {4,5} is 5
        assert canonical_violation(image) == "(x) at q_2"

    def test_transposed_length_two_row(self):
        bad = quad_from_text("6 1", n=2)
        assert canonical_violation(bad) == "(i) at p_1"


class TestCanonicalize:
    def test_idempotent_and_orbit_constant(self, valid_pool, rng):
        for raw in rng.sample(valid_pool, 100):
            quad = NormalQuadruple.from_raw(raw)
            canon = canonicalize(quad)
            assert canonicalize(canon) == canon
            for t in rng.sample(TRANSFORMS, 3):
                assert canonicalize(apply(t, quad)) == canon

    def test_every_orbit_member_of_an_odd_row_canonicalizes_to_it(self):
        rep = quad_from_text("1660 6122")
        for member in orbit(rep):
            assert canonicalize(member) == rep

    def test_invalid_input_rejected(self):
        two = BinarySeq.parse("++")
        with pytest.raises(SequenceError):
            canonicalize(NormalQuadruple(two, two, two))

    def test_distance_zero_on_canonical_input(self):
        rep = quad_from_text("16 61")
        canon, steps = canonicalize_with_distance(rep)
        assert canon == rep and steps == 0

    def test_distance_counts_generator_applications(self):
        rep = quad_from_text("160 640")
        moved = apply(Transform.QUAD_SWAP_45, rep)
        canon, steps = canonicalize_with_distance(moved)
        assert canon == rep and steps == 1


class TestEquivalence:
    def test_generator_images_are_equivalent(self, valid_pool, rng):
        for raw in rng.sample(valid_pool, 50):
            quad = NormalQuadruple.from_raw(raw)
            assert are_equivalent(quad, apply(Transform.REVERSE_C, quad))

    def test_distinct_length_eight_rows(self):
        first = quad_from_text("1163 6618", n=8)
        second = quad_from_text("1613 6168", n=8)
        assert not are_equivalent(first, second)

    def test_length_mismatch_rejected(self):
        with pytest.raises(SequenceError):
            are_equivalent(quad_from_text("0 0"), quad_from_text("1 6", n=2))


class TestGolayType:
    def test_length_three_class_is_sporadic(self):
        assert not is_golay_type(quad_from_text("60 11"))

    def test_embedding_shape_is_golay_type(self):
        a = BinarySeq.parse("++")
        b = BinarySeq.parse("+-")
        assert is_golay_type(NormalQuadruple(a, b, b))

    def test_invalid_input_rejected(self):
        two = BinarySeq.parse("++")
        with pytest.raises(SequenceError):
            is_golay_type(NormalQuadruple(two, two, two))


class TestCodeLevelAgreement:
    """The sequence-level generators act symbol-wise as the oracle tables
    in test_quadcodec say."""

    def test_symbol_maps_match(self, valid_pool, rng):
        for raw in rng.sample(valid_pool, 120):
            quad = NormalQuadruple.from_raw(raw)
            p, q = encode_quadruple(quad)

            image = apply(Transform.NEGATE_AA, quad)
            ip, _ = encode_quadruple(image)
            assert ip.quads == tuple(NEGATE_BOTH[s] for s in p.quads)
            if p.central is not None:
                assert ip.central == CENTRAL_NEGATE_BOTH[p.central]

            image = apply(Transform.NEGATE_C, quad)
            _, iq = encode_quadruple(image)
            assert iq.quads == tuple(NEGATE_TOP[s] for s in q.quads)
            if q.central is not None:
                assert iq.central == CENTRAL_NEGATE_TOP[q.central]

            image = apply(Transform.REVERSE_C, quad)
            _, iq = encode_quadruple(image)
            assert iq.quads == tuple(REVERSE_TOP[s] for s in q.quads)
            if q.central is not None:
                assert iq.central == q.central

            image = apply(Transform.SWAP_CD, quad)
            _, iq = encode_quadruple(image)
            assert iq.quads == tuple(SWAP_ROWS[s] for s in q.quads)
            if q.central is not None:
                assert iq.central == CENTRAL_SWAP_ROWS[q.central]

            image = apply(Transform.QUAD_SWAP_45, quad)
            _, iq = encode_quadruple(image)
            assert iq.quads == tuple(SWAP_45[s] for s in q.quads)
            if q.central is not None:
                assert iq.central == q.central

    def test_alternation_is_quadwise_for_odd_lengths(self, valid_pool, rng):
        odd_pool = [raw for raw in valid_pool if len(raw[0]) % 2 == 1]
        for raw in rng.sample(odd_pool, 60):
            quad = NormalQuadruple.from_raw(raw)
            _, q = encode_quadruple(quad)
            _, iq = encode_quadruple(apply(Transform.ALTERNATE_ALL, quad))
            expected = tuple(
                s if i % 2 == 0 else NEGATE_BOTH[s] for i, s in enumerate(q.quads)
            )
            assert iq.quads == expected
