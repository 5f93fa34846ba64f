import re

import pytest

from nsq.core import NormalQuadruple, is_normal
from nsq.equivalence import canonical_raw, is_canonical, is_golay_type
from nsq.search import (
    MAX_EXHAUSTIVE,
    ClassRecord,
    SearchError,
    enumerate_classes,
    exhaustive_normal_quadruples,
    record_quadruple,
    summarize,
)

TABLE_ROWS = {
    1: ["0 0"],
    2: ["1 6"],  # canonical form of the transposed printed row
    3: ["60 11"],
    4: ["16 61"],
    5: ["160 640"],
    7: ["1660 6122", "6113 1623", "6160 1262", "6163 1261"],
    8: [
        "1163 6618",
        "1613 6168",
        "1613 6443",
        "1638 6116",
        "1661 6183",
        "1686 6131",
        "1866 6311",
    ],
    9: ["16133 64140", "16163 64150", "61180 16640"],
    12: ["161383 641261", "163868 612243", "186338 631422", "186631 631422"],
}


class TestEnumerate:
    @pytest.mark.parametrize("n", sorted(TABLE_ROWS))
    def test_codes_match_reference_rows(self, n):
        got = [f"{r.p_code} {r.q_code}" for r in enumerate_classes(n)]
        assert got == TABLE_ROWS[n]

    def test_indices_are_ranks(self):
        records = enumerate_classes(7)
        assert [r.index for r in records] == [1, 2, 3, 4]

    def test_three_squares_short_circuit(self):
        assert enumerate_classes(14) == []

    def test_searched_emptiness(self):
        assert enumerate_classes(6) == []

    def test_records_decode_normal_and_canonical(self):
        for record in enumerate_classes(10):
            quad = record_quadruple(record)
            assert is_normal(quad)
            assert is_canonical(quad)
            assert canonical_raw(quad.raw()) == quad.raw()
            assert is_golay_type(quad) == record.golay_type

    def test_strictly_sorted(self):
        for n in (8, 12, 16):
            codes = [(r.p_code, r.q_code) for r in enumerate_classes(n)]
            assert codes == sorted(codes)
            assert len(set(codes)) == len(codes)

    def test_deterministic_across_calls(self):
        assert enumerate_classes(9) == enumerate_classes(9)

    def test_parallel_matches_serial(self, monkeypatch):
        # Both searches, through the shard pool and in-process; odd n
        # also places the central column in every shard.  The pool
        # threshold is lowered so that the short searches still use the
        # pool; NS n = 19 and 20 and Golay n = 20, the benchmark's
        # lengths, use it at any threshold.
        from nsq import _engine
        from nsq.golay import golay_pairs

        monkeypatch.setattr(_engine, "POOL_MIN_N", 1)

        searches = {"ns": enumerate_classes, "golay": golay_pairs}
        cases = [("ns", 13), ("ns", 12), ("ns", 19), ("ns", 20)]
        cases += [("golay", 10), ("golay", 12), ("golay", 20)]
        for kind, n in cases:
            serial = searches[kind](n, workers=1)
            assert searches[kind](n, workers=2) == serial, f"{kind} n={n}"

    def test_each_leaf_is_checked_for_normality_once(self, monkeypatch):
        # The Golay-type tag reuses the leaf's own is_normal check.
        import nsq.equivalence
        import nsq.search

        checked = []

        def spy(quad):
            checked.append(quad)
            return is_normal(quad)

        monkeypatch.setattr(nsq.search, "is_normal", spy)
        monkeypatch.setattr(nsq.equivalence, "is_normal", spy)
        records = enumerate_classes(16)
        assert len(checked) == len(records) == 52
        assert sum(r.golay_type for r in records) == 48

    @pytest.mark.parametrize("pairs, message", [
        ([("1", "6"), ("1", "6")], "duplicate class 1 6"),
        ([("1", "1")], "leaf 1 1 is not normal"),
        ([("6", "1")], "leaf 6 1 violates (i) at p_1"),
    ])
    def test_bad_leaf_is_refused(self, monkeypatch, pairs, message):
        # Each code pair the engine hands back is re-verified: a class
        # found twice, a pair that decodes to a quadruple that is not
        # normal, and a normal one that breaks a canonical-form condition
        # are refused.  Must never happen.
        from nsq import _engine

        monkeypatch.setattr(_engine, "search_normal", lambda n, workers=1: list(pairs))
        with pytest.raises(SearchError, match=re.escape(message)):
            enumerate_classes(2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_classes(0)

    def test_budget(self):
        with pytest.raises(ValueError, match=f"budgeted up to n = {MAX_EXHAUSTIVE}"):
            enumerate_classes(MAX_EXHAUSTIVE + 1)


class TestSummarize:
    def test_budget_is_checked_before_searching(self, monkeypatch):
        import nsq.search

        def fail(n, workers=1):
            raise AssertionError(f"searched n={n}")

        monkeypatch.setattr(nsq.search, "enumerate_classes", fail)
        with pytest.raises(ValueError, match="budgeted"):
            summarize(1, MAX_EXHAUSTIVE + 1)

    def test_first_five_lengths(self):
        rows = summarize(1, 5)
        assert [r[1] for r in rows] == [1, 1, 1, 1, 1]

    def test_middle_range(self):
        rows = summarize(7, 10)
        assert [(r[1], r[2]) for r in rows] == [(4, 0), (7, 6), (3, 0), (5, 4)]

    def test_counts_are_consistent(self):
        for n, equ, gol, spo in summarize(1, 10):
            assert equ == gol + spo


class TestExhaustive:
    def test_matches_literal_filter_small(self):
        from itertools import product

        from nsq.core import BinarySeq

        for n in (1, 2, 3, 4):
            literal = set()
            space = list(product((1, -1), repeat=n))
            for a in space:
                for c in space:
                    for d in space:
                        quad = NormalQuadruple(BinarySeq(a), BinarySeq(c), BinarySeq(d))
                        if is_normal(quad):
                            literal.add((a, c, d))
            assert set(exhaustive_normal_quadruples(n)) == literal

    def test_members_are_normal(self):
        for raw in exhaustive_normal_quadruples(7):
            assert is_normal(NormalQuadruple.from_raw(raw))

    def test_capped(self):
        with pytest.raises(ValueError):
            exhaustive_normal_quadruples(11)

    def test_result_is_cached_and_immutable(self):
        first = exhaustive_normal_quadruples(6)
        assert isinstance(first, tuple)
        assert exhaustive_normal_quadruples(6) is first


class TestClassRecord:
    def test_fields(self):
        record = enumerate_classes(4)[0]
        assert record == ClassRecord(4, 1, "16", "61", True)
