import random

import pytest
from hypothesis import given, strategies as st

from nsq.core import (
    BaseQuadruple,
    BinarySeq,
    NormalQuadruple,
    SequenceError,
    alternate,
    concat,
    embed_bs,
    is_base_sequences,
    is_normal,
    negate,
    npaf,
    npaf_sum,
    reverse,
    three_squares_feasible,
)

seqs = st.lists(st.sampled_from((1, -1)), min_size=1, max_size=24).map(
    lambda t: BinarySeq(tuple(t))
)


def npaf_oracle(s):
    # independent double-loop summation with explicit zero padding
    t = s.terms
    n = len(t)

    def term(k):
        return t[k] if 0 <= k < n else 0

    return [sum(term(j) * term(j + i) for j in range(-n, 2 * n)) for i in range(n)]


class TestNpaf:
    def test_worked_length_four_example(self):
        assert npaf(BinarySeq.parse("++-+")).values == (4, -1, 0, 1)

    def test_single_term(self):
        assert npaf(BinarySeq.parse("+")).values == (1,)

    def test_second_length_four_sequence(self):
        assert npaf(BinarySeq.parse("+++-")).values == (4, 1, 0, -1)

    @given(seqs)
    def test_matches_direct_summation_oracle(self, s):
        assert list(npaf(s).values) == npaf_oracle(s)

    @given(seqs)
    def test_negation_and_reversal_invariance(self, s):
        assert npaf(negate(s)).values == npaf(s).values
        assert npaf(reverse(s)).values == npaf(s).values

    @given(seqs)
    def test_alternation_sign_rule(self, s):
        base = npaf(s).values
        flipped = npaf(alternate(s)).values
        assert all(flipped[i] == (-1) ** i * base[i] for i in range(len(base)))

    @given(seqs)
    def test_entry_bounds_and_parity(self, s):
        n = s.n
        table = npaf(s)
        assert table[0] == n
        for i in range(n):
            assert abs(table[i]) <= n - i
            assert (table[i] - (n - i)) % 2 == 0

    @pytest.mark.parametrize("n", range(1, 41))
    def test_matches_indexed_generator(self, n):
        # The per-shift generator npaf used before it summed map(mul, ...):
        # the same tuple, type and all, on random sequences of each length.
        rng = random.Random(n)
        for _ in range(20):
            t = tuple(rng.choice((1, -1)) for _ in range(n))
            old = tuple(sum(t[j] * t[j + i] for j in range(n - i)) for i in range(n))
            got = npaf(BinarySeq(t))
            assert got.values == old and got.n == n
            assert all(type(v) is int for v in got.values)


class TestNpafSum:
    def test_worked_length_four_quadruple(self):
        quad = NormalQuadruple(
            BinarySeq.parse("++-+"), BinarySeq.parse("+++-"), BinarySeq.parse("+++-")
        )
        assert npaf_sum(quad).values == (16, 0, 0, 0)

    def test_length_one(self):
        one = BinarySeq.parse("+")
        assert npaf_sum(NormalQuadruple(one, one, one)).values == (4,)

    def test_all_plus_length_two_is_not_flat(self):
        two = BinarySeq.parse("++")
        assert npaf_sum(NormalQuadruple(two, two, two)).values == (8, 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(SequenceError):
            NormalQuadruple(BinarySeq.parse("++"), BinarySeq.parse("+"), BinarySeq.parse("+"))


class TestUnaryTransforms:
    def test_alternate_example(self):
        assert str(alternate(BinarySeq.parse("+++-+"))) == "+-+++"

    def test_reverse_example(self):
        assert str(reverse(BinarySeq.parse("++-"))) == "-++"

    def test_negate_reverse_commute(self):
        s = BinarySeq.parse("+--+")
        assert negate(reverse(s)) == reverse(negate(s)) == BinarySeq.parse("-++-")

    @given(seqs)
    def test_involutions(self, s):
        assert negate(negate(s)) == s
        assert reverse(reverse(s)) == s
        assert alternate(alternate(s)) == s


class TestConcat:
    def test_simple(self):
        assert str(concat(BinarySeq.parse("+"), BinarySeq.parse("-"))) == "+-"
        assert str(concat(BinarySeq.parse("+-"), BinarySeq.parse("-"))) == "+--"

    def test_empty_operand_rejected(self):
        with pytest.raises(SequenceError):
            BinarySeq.parse("")


class TestParseRender:
    def test_both_input_styles(self):
        assert BinarySeq.parse("+-+") == BinarySeq.parse("+,-,+")

    def test_rejects_junk(self):
        with pytest.raises(SequenceError):
            BinarySeq.parse("+x-")

    def test_rejects_bad_terms(self):
        with pytest.raises(SequenceError):
            BinarySeq((1, 0, -1))

    @given(seqs)
    def test_round_trip(self, s):
        assert BinarySeq.parse(str(s)) == s


class TestBasePredicates:
    def test_worked_length_five_quadruple(self):
        a = BinarySeq.parse("+++-+")
        c = BinarySeq.parse("+++--")
        d = BinarySeq.parse("+-++-")
        assert is_base_sequences(a, a, c, d)

    def test_all_plus_fails(self):
        two = BinarySeq.parse("++")
        assert not is_base_sequences(two, two, two, two)

    def test_length_one_trivially_passes(self):
        one = BinarySeq.parse("+")
        assert is_base_sequences(one, one, one, one)

    def test_mixed_lengths(self):
        a = BinarySeq.parse("++")
        c = BinarySeq.parse("+")
        assert is_base_sequences(a, negate(a), c, c) is not None  # no pairing error

    def test_pairing_violation(self):
        with pytest.raises(SequenceError):
            is_base_sequences(
                BinarySeq.parse("++"), BinarySeq.parse("+"), BinarySeq.parse("+"), BinarySeq.parse("+")
            )

    def test_is_normal(self):
        quad = NormalQuadruple(
            BinarySeq.parse("++-+"), BinarySeq.parse("+++-"), BinarySeq.parse("+++-")
        )
        assert is_normal(quad)
        two = BinarySeq.parse("++")
        assert not is_normal(NormalQuadruple(two, two, two))


class TestThreeSquares:
    @pytest.mark.parametrize("n,expected", [(14, False), (30, False), (5, True), (6, True), (17, True)])
    def test_known_values(self, n, expected):
        assert three_squares_feasible(n) is expected

    def test_matches_brute_force_up_to_100(self):
        for n in range(1, 101):
            target = 2 * n
            brute = any(
                x * x + y * y + z * z == target
                for x in range(target + 1)
                if x * x <= target
                for y in range(x, target + 1)
                if x * x + y * y <= target
                for z in range(y, target + 1)
                if x * x + y * y + z * z <= target
            )
            assert three_squares_feasible(n) is brute

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            three_squares_feasible(0)


class TestEmbed:
    def test_length_one(self):
        one = BinarySeq.parse("+")
        out = embed_bs(NormalQuadruple(one, one, one))
        assert (str(out.a), str(out.b), str(out.c), str(out.d)) == ("++", "+-", "+", "+")
        assert is_base_sequences(out.a, out.b, out.c, out.d)

    def test_length_four(self):
        quad = NormalQuadruple(
            BinarySeq.parse("++-+"), BinarySeq.parse("+++-"), BinarySeq.parse("+++-")
        )
        out = embed_bs(quad)
        assert out.m == 5 and out.n == 4
        assert is_base_sequences(out.a, out.b, out.c, out.d)

    def test_invalid_input_rejected(self):
        two = BinarySeq.parse("++")
        with pytest.raises(SequenceError):
            embed_bs(NormalQuadruple(two, two, two))

    def test_base_quadruple_length_pairing(self):
        with pytest.raises(SequenceError):
            BaseQuadruple(
                BinarySeq.parse("++"), BinarySeq.parse("+"), BinarySeq.parse("+"), BinarySeq.parse("+")
            )

    def test_every_valid_quadruple_embeds(self, valid_pool, rng):
        for raw in rng.sample(valid_pool, 150):
            quad = NormalQuadruple.from_raw(raw)
            out = embed_bs(quad)
            assert is_base_sequences(out.a, out.b, out.c, out.d)
