import itertools
import random

import pytest

from conftest import random_quad_regular
from nsq.core import BinarySeq, NormalQuadruple
from nsq.equivalence import TRANSFORMS, Transform, apply_raw
from nsq.group import (
    GroupElement,
    _closure_order,
    _covering_triples,
    _relations,
    generators,
    orbits_match_classes,
    realized_order,
    verify_relations,
)
from nsq.quadcodec import (
    CENTRAL_COLUMNS,
    QUAD_MATRICES,
    decode_quadruple,
    decompose_pair,
    parse_code,
    quad_labels,
    symmetry_type,
)
from nsq.search import enumerate_classes

# Closure sizes of the generator action; the group's order from n = 2 up
# (test_order_is_the_closure_of_every_quad_regular_triple).
EXPECTED_ORDERS = {
    1: 16,
    2: 512,
    3: 512,
    4: 512,
    5: 512,
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


def every_quad_regular(n: int) -> list:
    """Every quad-regular triple of length n: each A, and each (C;D) that
    cuts into the eight labelled quads."""
    m = n // 2
    centrals = list(CENTRAL_COLUMNS.values()) if n % 2 else [None]
    triples = []
    for a in itertools.product((1, -1), repeat=n):
        for quads in itertools.product(QUAD_MATRICES.values(), repeat=m):
            for central in centrals:
                c, d = [0] * n, [0] * n
                for i, (tl, tr, bl, br) in enumerate(quads):
                    c[i], c[n - 1 - i], d[i], d[n - 1 - i] = tl, tr, bl, br
                if central is not None:
                    c[m], d[m] = central
                triples.append((a, tuple(c), tuple(d)))
    return triples


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
        samples = [random_quad_regular(n, rng) for _ in range(8)]
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
        assert min(n for n in range(1, 13) if realized_order(n) == 512) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order_is_the_closure_of_every_quad_regular_triple(self, n):
        # Oracle: the action on all 8, 32 or 256 quad-regular triples is
        # faithful by definition.
        assert _closure_order(tuple(every_quad_regular(n))) == realized_order(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_reduced_length_gives_the_direct_closure(self, n):
        # realized_order closes at min(n, 4 + n % 2); the closure of the
        # covering triples at n itself has the same size.
        assert _closure_order(_covering_triples(n)) == realized_order(n)


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

    def test_parity_dependent_exponent(self):
        # the alternation/reversal relation degenerates differently by parity
        for n in (4, 5):
            checks = verify_relations(n)
            names = [c.name for c in checks if "reverse_c o negate_c" in c.name]
            assert names


def piece(raw, i: int) -> tuple:
    """The entries of raw's A, C and D at positions i and n-1-i: pair i,
    or for odd n and i = n // 2 the central, twice."""
    n = len(raw[0])
    return tuple((x[i], x[n - 1 - i]) for x in raw)


def with_piece(raw, i: int, entries) -> tuple:
    """raw with piece i replaced by entries, as piece returns them."""
    n = len(raw[0])
    out = []
    for x, (left, right) in zip(raw, entries):
        x = list(x)
        x[i], x[n - 1 - i] = left, right
        out.append(tuple(x))
    return tuple(out)


class TestPairLocality:
    """The lemma of the group module's docstring, on random triples."""

    @pytest.mark.parametrize("tag", TRANSFORMS, ids=lambda t: t.value)
    def test_each_generator_acts_piece_by_piece(self, tag):
        rng = random.Random(TRANSFORMS.index(tag))
        for _ in range(300):
            n = rng.randrange(1, 41)
            raw, other = random_quad_regular(n, rng), random_quad_regular(n, rng)
            i = rng.randrange((n + 1) // 2)
            changed = with_piece(raw, i, piece(other, i))
            image, changed_image = apply_raw(tag, raw), apply_raw(tag, changed)
            # Changing piece i changes only piece i of the image ...
            for k in range((n + 1) // 2):
                if k != i:
                    assert piece(changed_image, k) == piece(image, k), (n, i, k)
            # ... and the image there reads only piece i, i mod 2 and
            # n mod 2: the same entries at a piece of the same kind and
            # parity of another length of n's parity give the same image.
            central = 2 * i + 1 == n
            hosts = [
                (n2, k)
                for n2 in range(2 - n % 2, 41, 2)
                for k in range((n2 + 1) // 2)
                if k % 2 == i % 2 and (2 * k + 1 == n2) == central
            ]
            n2, k = rng.choice(hosts)
            host = with_piece(random_quad_regular(n2, rng), k, piece(other, i))
            assert piece(apply_raw(tag, host), k) == piece(changed_image, i), (n, i, n2, k)


class TestCoveringTriples:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_every_local_piece_is_covered(self, n):
        triples = _covering_triples(n)
        assert len(triples) == 32
        labels = [(quad_labels(a, a), quad_labels(c, d)) for a, c, d in triples]
        everything = set(itertools.product((1, 3, 6, 8), range(1, 9)))
        # every pair, of either parity, sees each (A-label, (C;D)-label)
        for i in range(n // 2):
            assert {(p[i], q[i]) for (p, _), (q, _) in labels} == everything, i
        # and for odd n the central sees each pair of centrals
        if n % 2:
            assert {(pc, qc) for (_, pc), (_, qc) in labels} == set(
                itertools.product((0, 3), range(4))
            )

    @pytest.mark.parametrize("n", range(1, 41))
    def test_verdicts_match_a_sampled_oracle(self, n):
        # The covering triples decide every relation as 2000 random
        # quad-regular triples do: the stated ones and the replacement,
        # which hold, and false ones, some of which hold at one parity.
        rng = random.Random(5417 + n)
        samples = [random_quad_regular(n, rng) for _ in range(2000)]
        covering = _covering_triples(n)
        stated, conjectured = _relations(n)
        checks = {c.name: c.status for c in verify_relations(n)}
        verdicts = []
        for name, lhs, rhs in [*stated, conjectured, *false_relations(n)]:
            left, right = GroupElement(lhs), GroupElement(rhs)
            holds = all(left.act_raw(s) == right.act_raw(s) for s in samples)
            assert all(left.act_raw(s) == right.act_raw(s) for s in covering) == holds, name
            if name in checks:
                assert checks[name] == ("PASS" if holds else "FAIL"), name
            verdicts.append(holds)
        assert verdicts[:17] == [True] * 17
        assert not all(verdicts[17:])


def false_relations(n: int) -> list:
    """Relations that the group does not satisfy, some only at one
    parity of n, as (name, lhs word, rhs word)."""
    e = (n - 1) % 2
    neg_aa, rev_aa = Transform.NEGATE_AA, Transform.REVERSE_AA
    neg_c, rev_c = Transform.NEGATE_C, Transform.REVERSE_C
    swap, quad45, alt = Transform.SWAP_CD, Transform.QUAD_SWAP_45, Transform.ALTERNATE_ALL
    return [
        ("alternate o reverse_c o alternate = reverse_c", (alt, rev_c, alt), (rev_c,)),
        ("quad_swap_45 commutes with reverse_c", (quad45, rev_c), (rev_c, quad45)),
        ("alternate commutes with reverse_aa", (alt, rev_aa), (rev_aa, alt)),
        ("swap_cd commutes with negate_c", (swap, neg_c), (neg_c, swap)),
        ("alternate o quad_swap_45 o alternate = quad_swap_45", (alt, quad45, alt), (quad45,)),
        (
            "alternate o reverse_aa o alternate = reverse_aa o negate_aa^n",
            (alt, rev_aa, alt),
            (rev_aa,) + (neg_aa,) * (1 - e),
        ),
        ("quad_swap_45 commutes with negate_c", (quad45, neg_c), (neg_c, quad45)),
    ]


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
        raw = random_quad_regular(n, rng)
        before = types(raw)
        for t in quadwise:
            if types(apply_raw(t, raw)) != before:
                return False
    return True


class TestSymmetryTypes:
    @pytest.mark.parametrize("n", [4, 5, 8, 9])
    def test_quadwise_action_preserves_types(self, n):
        assert symmetry_types_preserved(n, cases=40)
