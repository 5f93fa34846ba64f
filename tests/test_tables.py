import pytest

from nsq.tables import (
    TableError,
    diff_against_search,
    load_allowlist,
    load_tables,
    verify_tables,
)

EXPECTED_KNOWN = {(2, 1, "canonical"), (32, 21, "canonical"), (32, 23, "canonical")}


@pytest.fixture(scope="module")
def tables():
    return load_tables()


@pytest.fixture(scope="module")
def report(tables):
    return verify_tables(tables)


class TestLoad:
    def test_row_and_count_totals(self, tables):
        assert len(tables.reps) == 167
        assert len(tables.counts) == 40

    def test_count_examples(self, tables):
        assert (tables.counts[16].equ, tables.counts[16].gol, tables.counts[16].spo) == (52, 48, 4)
        assert tables.counts[32].equ == 516
        assert tables.counts[40].gol == 304

    def test_internal_consistency(self, tables):
        for row in tables.counts.values():
            assert row.equ == row.gol + row.spo

    def test_representative_examples(self, tables):
        assert [r.q_code for r in tables.reps_for(29)] == [
            "641414841515843",
            "641515851514853",
        ]
        assert len(tables.reps_for(32)) == 36
        assert all(r.tag == "S" for r in tables.reps_for(32))

    def test_row_counts_match_count_table(self, tables):
        for n in tables.covered_lengths:
            rows = tables.reps_for(n)
            expected = tables.counts[n].spo if n == 32 else tables.counts[n].equ
            assert len(rows) == expected

    def test_central_digit_parity(self, tables):
        from nsq.quadcodec import parse_code

        for row in tables.reps:
            p, q = parse_code(f"{row.p_code} {row.q_code}", n=row.n)
            assert (p.central is not None) == (row.n % 2 == 1)
            assert (q.central is not None) == (row.n % 2 == 1)

    def test_malformed_line_rejected(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "class_counts.txt").write_text("1;1;1;0\n2;nope;1;0\n")
        (data / "representatives.txt").write_text("")
        with pytest.raises(TableError):
            load_tables(data)

    def test_inconsistent_counts_rejected(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "class_counts.txt").write_text("1;2;1;0\n")
        (data / "representatives.txt").write_text("")
        with pytest.raises(TableError):
            load_tables(data)


class TestVerify:
    def test_only_the_documented_discrepancies(self, report):
        assert report.checked_rows == 167
        assert {(f.n, f.index, f.check) for f in report.findings} == EXPECTED_KNOWN
        assert report.ok

    def test_known_rows_detail(self, report):
        by_key = {(f.n, f.index): f for f in report.findings}
        assert by_key[(2, 1)].detail == "(i) at p_1"
        assert by_key[(32, 21)].detail == "(vii) at q_2"

    def test_empty_allowlist_turns_findings_into_failures(self, tables):
        report = verify_tables(tables, allowlist=set())
        assert not report.ok
        assert len(report.unexpected) == 3

    def test_allowlist_contents(self):
        allow = load_allowlist()
        assert EXPECTED_KNOWN <= allow

    def test_each_row_is_checked_for_normality_once(self, monkeypatch, tables):
        # The Golay-type check reuses the row's own is_normal check.
        import nsq.equivalence
        import nsq.tables
        from nsq.core import is_normal

        checked = []

        def spy(quad):
            checked.append(quad)
            return is_normal(quad)

        monkeypatch.setattr(nsq.tables, "is_normal", spy)
        monkeypatch.setattr(nsq.equivalence, "is_normal", spy)
        report = verify_tables(tables)
        assert len(checked) == report.checked_rows == 167
        assert {(f.n, f.index, f.check) for f in report.findings} == EXPECTED_KNOWN


class TestDiff:
    def test_identical_lengths(self):
        for n in (12, 18):
            assert diff_against_search(n).identical

    def test_transposed_length_two_row(self):
        diff = diff_against_search(2)
        assert not diff.identical
        assert diff.missing == (("6", "1"),)
        assert diff.extra == (("1", "6"),)
