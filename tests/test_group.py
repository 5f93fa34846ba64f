import random

import pytest

from nsq.core import BinarySeq, NormalQuadruple
from nsq.equivalence import TRANSFORMS, Transform, apply_raw, orbit_raw
from nsq.group import (
    _RELATION_CASES,
    _RELATION_SEED,
    GroupElement,
    _probe,
    _random_quad_regular,
    _relation_samples,
    _relations,
    generators,
    orbits_match_classes,
    realized_order,
    verify_relations,
)
from nsq.quadcodec import decode_quadruple, decompose_pair, parse_code, symmetry_type
from nsq.search import enumerate_classes, record_quadruple

# Closure sizes of the generator action, frozen from the oracle run.
EXPECTED_ORDERS = {
    1: 16,
    2: 128,
    3: 256,
    4: 256,
    5: 256,
    6: 512,
    7: 512,
    8: 512,
    9: 512,
    10: 512,
    11: 512,
    12: 512,
}


def act_raw_reference(word, raw):
    """Oracle: the word's action, one apply_raw per step, right to left."""
    for t in reversed(word):
        raw = apply_raw(t, raw)
    return raw


class TestGenerators:
    def test_nine_generators_in_stated_order(self):
        gens = generators(5)
        assert len(gens) == 9
        assert tuple(g.word[0] for g in gens) == (
            Transform.NEGATE_AA,
            Transform.REVERSE_AA,
            Transform.NEGATE_C,
            Transform.REVERSE_C,
            Transform.NEGATE_D,
            Transform.REVERSE_D,
            Transform.SWAP_CD,
            Transform.QUAD_SWAP_45,
            Transform.ALTERNATE_ALL,
        )

    def test_negation_acts_on_the_repeated_pair(self):
        one = BinarySeq.parse("+")
        quad = NormalQuadruple(one, one, one)
        negate_aa = generators(1)[0]
        image = negate_aa.act(quad)
        assert (str(image.a), str(image.c), str(image.d)) == ("-", "+", "+")

    def test_swap_exchanges_the_cross_pair(self):
        quad = decode_quadruple(*parse_code("60 11"))
        swap = next(g for g in generators(3) if g.word[0] is Transform.SWAP_CD)
        image = swap.act(quad)
        assert (str(image.a), str(image.c), str(image.d)) == ("++-", "+-+", "+++")

    def test_generators_are_involutions(self, valid_pool, rng):
        for raw in rng.sample(valid_pool, 60):
            for g in generators(len(raw[0])):
                assert g.act_raw(g.act_raw(raw)) == raw

    def test_word_action_composes_right_to_left(self):
        from nsq.equivalence import apply

        quad = decode_quadruple(*parse_code("160 640"))
        word = GroupElement((Transform.SWAP_CD, Transform.NEGATE_C))
        assert word.act(quad) == apply(Transform.SWAP_CD, apply(Transform.NEGATE_C, quad))

    @pytest.mark.parametrize("n", range(1, 41))
    def test_word_action_matches_the_per_step_reference(self, n):
        stated, conjectured = _relations(n)
        words = [word for _, lhs, rhs in [*stated, conjectured] for word in (lhs, rhs)]
        words += [(t,) for t in TRANSFORMS] + [()]
        rng = random.Random(n)
        samples = list(_probe(n)) + [_random_quad_regular(n, rng) for _ in range(4)]
        for word in words:
            element = GroupElement(word)
            for raw in samples:
                assert element.act_raw(raw) == act_raw_reference(word, raw), word

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            generators(0)


class TestRealizedOrder:
    def test_frozen_closure_sizes(self):
        for n, expected in EXPECTED_ORDERS.items():
            assert realized_order(n) == expected

    def test_never_exceeds_and_divides_512(self):
        for n in range(1, 13):
            order = realized_order(n)
            assert order <= 512
            assert 512 % order == 0

    def test_monotone_up_to_the_cap(self):
        orders = [realized_order(n) for n in range(1, 13)]
        assert orders == sorted(orders)

    def test_smallest_full_order_length(self):
        assert min(n for n in range(1, 13) if realized_order(n) == 512) == 6


class TestRelations:
    @pytest.mark.parametrize("n", [4, 5])
    def test_all_stated_relations_hold(self, n):
        checks = verify_relations(n)
        failed = [c for c in checks if c.status == "FAIL"]
        assert not failed, failed

    @pytest.mark.parametrize("n", [4, 5])
    def test_garbled_relation_is_reported_unverifiable(self, n):
        checks = verify_relations(n)
        unverifiable = [c for c in checks if c.status == "UNVERIFIABLE"]
        assert len(unverifiable) == 1
        assert "sigma_1" in unverifiable[0].name

    def test_replacement_relation_is_checked(self):
        checks = verify_relations(6)
        replacement = [c for c in checks if "replacement" in c.name]
        assert replacement and replacement[0].status == "PASS"

    @pytest.mark.parametrize("n", range(1, 15))
    def test_samples_match_search_derived_samples(self, n):
        # The valid samples, decoded from the bundled representatives, are
        # those the search used to supply: same orbits, same order.
        assert _relation_samples(n) == search_relation_samples(n)

    def test_parity_dependent_exponent(self):
        # the alternation/reversal relation degenerates differently by parity
        for n in (4, 5):
            checks = verify_relations(n)
            names = [c.name for c in checks if "reverse_c o negate_c" in c.name]
            assert names


def search_relation_samples(n: int) -> list:
    """The relation samples as first drawn: the random triples, then for
    n <= 13 the first 64 members of each class's orbit, the classes
    enumerated by the search."""
    rng = random.Random(_RELATION_SEED + n)
    samples = [_random_quad_regular(n, rng) for _ in range(_RELATION_CASES)]
    if n <= 13:
        for record in enumerate_classes(n):
            raw = record_quadruple(record).raw()
            samples.extend(sorted(orbit_raw(raw))[:64])
    return samples


class TestOrbitsMatchClasses:
    @pytest.mark.parametrize("n,classes", [(3, 1), (7, 4), (8, 7)])
    def test_partitions_agree(self, n, classes):
        assert orbits_match_classes(n)
        assert len(enumerate_classes(n)) == classes

    def test_rejects_large_length(self):
        with pytest.raises(ValueError):
            orbits_match_classes(11)


def symmetry_types_preserved(n: int, cases: int = 100, seed: int = 90210) -> bool:
    """The quad-wise generators preserve each quad's symmetry type; the
    alternation does too when n is odd."""
    rng = random.Random(seed + n)

    quadwise = [t for t in TRANSFORMS if t is not Transform.ALTERNATE_ALL]
    if n % 2 == 1:
        quadwise.append(Transform.ALTERNATE_ALL)

    def types(raw) -> tuple:
        aa = decompose_pair(BinarySeq(raw[0]), BinarySeq(raw[0]), kind="aa")
        cd = decompose_pair(BinarySeq(raw[1]), BinarySeq(raw[2]))
        return (
            tuple(symmetry_type(s) for s in aa.quads),
            tuple(symmetry_type(s) for s in cd.quads),
        )

    for _ in range(cases):
        # every quad is one of the eight labelled matrices (only those
        # carry a symmetry type)
        raw = _random_quad_regular(n, rng)
        before = types(raw)
        for t in quadwise:
            if types(apply_raw(t, raw)) != before:
                return False
    return True


class TestSymmetryTypes:
    @pytest.mark.parametrize("n", [4, 5, 8, 9])
    def test_quadwise_action_preserves_types(self, n):
        assert symmetry_types_preserved(n, cases=40)
