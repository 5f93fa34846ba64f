import numpy as np
import pytest

from nsq.core import BinarySeq, NormalQuadruple, is_normal, npaf
from nsq.equivalence import are_equivalent, canonical_raw, is_golay_type
from nsq import _engine, golay
from nsq.golay import (
    GolayError,
    GolayPair,
    embed,
    golay_pairs,
    golay_type_class_count,
    two_embeddings_equivalent,
)
from nsq.quadcodec import encode_quadruple
from nsq.search import enumerate_classes
from nsq.tables import load_tables


def golay_class_codes(n: int) -> set[tuple[str, str]]:
    """Canonical code pairs met by both embeddings of every ordered pair:
    those of every Golay-type class, for cross-checks."""
    codes = set()
    for pair in golay_pairs(n):
        for quad in embed(pair):
            canon = NormalQuadruple.from_raw(canonical_raw(quad.raw()))
            p, q = encode_quadruple(canon)
            codes.add((p.text, q.text))
    return codes


def leads_its_orbit(pair: GolayPair) -> bool:
    """Whether the pair is the one member of its orbit under
    G = {(+-A, +-B), (+-B, +-A)} with a_1 = b_1 = a_n = +1 and b_n = -1
    (one per orbit for n >= 2; none at n = 1)."""
    a, b = pair.a, pair.b
    return a[0] == b[0] == a[-1] == 1 and b[-1] == -1


# Ordered pair counts frozen from the exhaustive search.
PAIR_COUNTS = {1: 4, 2: 8, 3: 0, 4: 32, 5: 0, 8: 192, 10: 128}


class TestPairSearch:
    @pytest.mark.parametrize("n", sorted(PAIR_COUNTS))
    def test_frozen_counts(self, n):
        assert len(golay_pairs(n)) == PAIR_COUNTS[n]

    def test_known_length_two_pair_is_found(self):
        pairs = {(str(p.a), str(p.b)) for p in golay_pairs(2)}
        assert ("++", "+-") in pairs

    def test_every_found_pair_validates(self):
        for pair in golay_pairs(8):
            na, nb = npaf(pair.a), npaf(pair.b)
            assert all(na[i] + nb[i] == 0 for i in range(1, pair.n))

    def test_counts_invariant_under_consistent_negation_and_reversal(self):
        pairs = {(p.a.terms, p.b.terms) for p in golay_pairs(4)}
        negated = {(tuple(-t for t in a), tuple(-t for t in b)) for a, b in pairs}
        reversed_ = {(a[::-1], b[::-1]) for a, b in pairs}
        assert pairs == negated == reversed_

    def test_odd_lengths_are_empty_by_search(self):
        # exhaustion, not the two-squares obstruction, rules these out
        for n in (3, 5, 7, 9, 11, 13, 15, 17, 19):
            assert golay_pairs(n) == []

    def test_budget(self):
        with pytest.raises(GolayError):
            golay_pairs(27)

    def test_invalid_pair_rejected(self):
        with pytest.raises(GolayError):
            GolayPair(BinarySeq.parse("++"), BinarySeq.parse("++"))

    def test_length_mismatch_rejected(self):
        with pytest.raises(GolayError):
            GolayPair(BinarySeq.parse("++"), BinarySeq.parse("+"))


class TestEmbeddings:
    def test_both_embeddings_of_small_pair(self):
        pair = GolayPair(BinarySeq.parse("++"), BinarySeq.parse("+-"))
        first, second = embed(pair)
        assert (str(first.a), str(first.c), str(first.d)) == ("++", "+-", "+-")
        assert (str(second.a), str(second.c), str(second.d)) == ("+-", "++", "++")
        assert is_normal(first) and is_normal(second)

    def test_embeddings_are_golay_type(self):
        for pair in golay_pairs(8)[:20]:
            first, second = embed(pair)
            assert is_golay_type(first) and is_golay_type(second)

    @pytest.mark.parametrize("n", [4, 8])
    def test_criterion_agrees_with_orbit_equivalence(self, n):
        for pair in golay_pairs(n):
            assert two_embeddings_equivalent(pair) == are_equivalent(*embed(pair))

    def test_odd_and_tiny_lengths_fall_back(self):
        pair = GolayPair(BinarySeq.parse("+"), BinarySeq.parse("+"))
        assert two_embeddings_equivalent(pair)


class TestClassCounts:
    @pytest.mark.parametrize("n,count", [(2, 1), (4, 1), (8, 6), (10, 4)])
    def test_counts(self, n, count):
        assert golay_type_class_count(n) == count

    @pytest.mark.parametrize("n", [2, 4, 8, 10])
    def test_classes_match_search_tags(self, n):
        tagged = {
            (r.p_code, r.q_code) for r in enumerate_classes(n) if r.golay_type
        }
        assert golay_class_codes(n) == tagged

    @pytest.mark.parametrize("n", range(2, 23))
    def test_orbit_leaders_are_one_pair_in_eight(self, n):
        pairs = golay_pairs(n)
        leaders = [pair for pair in pairs if leads_its_orbit(pair)]
        assert 8 * len(leaders) == len(pairs)
        assert set(golay._orbit_leaders(n, 1)) == set(leaders)

    @pytest.mark.parametrize("n", range(1, 23))
    def test_count_equals_the_all_pairs_count(self, n):
        assert golay_type_class_count(n) == len(golay_class_codes(n))

    @pytest.mark.parametrize("n", range(1, 23))
    def test_count_matches_the_table(self, n):
        assert golay_type_class_count(n) == load_tables().counts[n].gol

    def test_repeated_leader_is_refused(self, monkeypatch):
        search = _engine.search_golay

        def twice(n, workers=1):
            ((a, b),) = search(n, workers)
            return [(np.concatenate([a, a[:1]]), np.concatenate([b, b[:1]]))]

        monkeypatch.setattr(_engine, "search_golay", twice)
        for call in (golay_pairs, golay_type_class_count):
            with pytest.raises(GolayError, match="leader twice"):
                call(8)
