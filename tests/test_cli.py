import json
import os

import pytest

from nsq.cli import main
from nsq.search import MAX_EXHAUSTIVE, enumerate_classes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSummary:
    def test_text_rows(self, capsys):
        code, out, _ = run(capsys, "summary", "--from", "1", "--to", "8")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows[0] == ["1", "1", "1", "0"]
        assert rows[5] == ["6", "0", "0", "0"]
        assert rows[7] == ["8", "7", "6", "1"]

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "summary", "--from", "3", "--to", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "rows": [
                {"n": 3, "equ": 1, "gol": 0, "spo": 1},
                {"n": 4, "equ": 1, "gol": 1, "spo": 0},
            ]
        }

    def test_empty_range_is_usage_error(self, capsys, monkeypatch):
        from nsq import search

        def no_search(*args, **kwargs):
            raise AssertionError("searched an empty range")

        monkeypatch.setattr(search, "enumerate_classes", no_search)
        code, out, err = run(capsys, "summary", "--from", "5", "--to", "3")
        assert code == 2 and out == ""
        assert "empty range: from 5 to 3" in err


class TestSearch:
    def test_text_matches_library(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "7")
        assert code == 0
        lines = out.strip().splitlines()
        expected = [f"{r.index} {r.p_code} {r.q_code}" for r in enumerate_classes(7)]
        assert lines == expected

    def test_golay_tags(self, capsys):
        _, out, _ = run(capsys, "search", "--n", "8", "--tag-golay")
        tags = [line.split()[-1] for line in out.strip().splitlines()]
        assert tags.count("G") == 6 and tags.count("S") == 1

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "4", "--format", "json")
        payload = json.loads(out)
        assert payload == {
            "n": 4,
            "classes": [{"index": 1, "p": "16", "q": "61", "golay": True}],
        }

    def test_infeasible_length_notes_the_short_circuit(self, capsys):
        code, out, err = run(capsys, "search", "--n", "14")
        assert code == 0 and out == ""
        assert "three squares" in err

    def test_threads_flag_output_identical(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers allowed
        _, serial, _ = run(capsys, "search", "--n", "10")
        _, parallel, _ = run(capsys, "search", "--n", "10", "--threads", "2")
        assert serial == parallel

    @pytest.mark.parametrize("command", [
        ("search", "--n", str(MAX_EXHAUSTIVE + 1)),
        ("summary", "--from", "1", "--to", "100000"),
        ("diff-tables", "--n", str(MAX_EXHAUSTIVE + 1)),
    ])
    def test_beyond_budget_is_usage_error(self, capsys, command):
        code, out, err = run(capsys, *command)
        assert code == 2 and out == ""
        assert f"budgeted up to n = {MAX_EXHAUSTIVE}" in err


class TestCodecCommands:
    def test_decode_prints_paper_style(self, capsys):
        code, out, _ = run(capsys, "decode", "160", "640")
        assert code == 0
        assert out.splitlines() == [
            "n = 5",
            "A = +++-+",
            "A = +++-+",
            "C = +++--",
            "D = +-++-",
        ]

    def test_canon_reports_steps(self, capsys):
        code, out, _ = run(capsys, "canon", "160", "650")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "160 640"
        assert "1 transformation" in lines[1]

    def test_npaf(self, capsys):
        code, out, _ = run(capsys, "npaf", "++-+")
        assert code == 0 and out.strip() == "4 -1 0 1"
        code, out, _ = run(capsys, "npaf", "+,+,-,+")
        assert out.strip() == "4 -1 0 1"

    def test_malformed_code_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decode", "99", "99")
        assert code == 2
        assert "99" in err

    @pytest.mark.parametrize("command", ["decode", "canon"])
    @pytest.mark.parametrize("digits", ["1" * 2999 + "3", "1" * 3000])
    def test_code_past_the_tables_is_refused_quickly(self, capsys, command, digits):
        # Codes of 3000 digits describe n >= 5999, far past the n = 40 the
        # tables reach: refused before any decoding, without echoing them.
        code, out, err = run(capsys, command, digits, digits)
        assert code == 2 and out == ""
        assert "3000 digits" in err and "40" in err and len(err) < 100

    def test_ambiguous_code_suggests_length(self, capsys):
        code, _, err = run(capsys, "decode", "33", "33")
        assert code == 2 and "n explicitly" in err
        code, out, _ = run(capsys, "decode", "33", "33", "--n", "4")
        assert code == 0 and "n = 4" in out


class TestVerification:
    def test_verify_tables_passes_with_known_discrepancies(self, capsys):
        code, out, _ = run(capsys, "verify-tables")
        assert code == 0
        assert out.count("[known]") == 3
        assert "no regressions" in out

    def test_verify_tables_fails_without_allowlist(self, capsys, tmp_path):
        empty = tmp_path / "allow.txt"
        empty.write_text("")
        code, out, err = run(capsys, "verify-tables", "--allowlist", str(empty))
        assert code == 1
        assert "unexpected" in err

    @pytest.mark.parametrize("argv", [
        ("verify-tables", "--data", "{missing}"),
        ("verify-tables", "--allowlist", "{missing}"),
        ("diff-tables", "--n", "5", "--allowlist", "{missing}"),
    ])
    def test_missing_input_file_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        # Exit 1 means findings; a file that cannot be read is exit 2,
        # before any search starts.
        from nsq import search

        def no_search(*args, **kwargs):
            raise AssertionError("searched before reading the input files")

        monkeypatch.setattr(search, "enumerate_classes", no_search)
        missing = tmp_path / "missing"
        code, _, err = run(capsys, *(a.format(missing=missing) for a in argv))
        assert code == 2
        assert err.startswith(f"error: cannot read {missing}")
        assert "No such file or directory" in err

    def test_verify_relations(self, capsys):
        code, out, _ = run(capsys, "verify-relations", "--n", "5")
        assert code == 0
        assert "PASS" in out and "UNVERIFIABLE" in out
        assert "FAIL" not in out.replace("UNVERIFIABLE", "")

    @pytest.mark.parametrize("value", ["0", "-1", "41"])
    def test_verify_relations_rejects_out_of_range_length(self, capsys, value):
        code, out, err = run(capsys, "verify-relations", "--n", value)
        assert code == 2 and out == ""
        assert ("n must be at most 40" if value == "41" else "n must be at least 1") in err

    def test_diff_tables_known_length(self, capsys):
        code, out, _ = run(capsys, "diff-tables", "--n", "2")
        assert code == 0
        assert "known discrepancy" in out

    def test_diff_tables_allowlist_matches_any_row(self, capsys, tmp_path):
        allow = tmp_path / "allow.txt"
        allow.write_text("2;7;search-match\n")
        code, out, _ = run(capsys, "diff-tables", "--n", "2", "--allowlist", str(allow))
        assert code == 0
        assert "known discrepancy" in out

    def test_diff_tables_fails_without_allowlist_entry(self, capsys, tmp_path):
        allow = tmp_path / "allow.txt"
        allow.write_text("2;1;canonical\n3;1;search-match\n")
        code, out, _ = run(capsys, "diff-tables", "--n", "2", "--allowlist", str(allow))
        assert code == 1
        assert "only in search: 1 6" in out
        assert "known discrepancy" not in out


class TestGolayCommand:
    def test_pair_listing(self, capsys):
        code, out, err = run(capsys, "golay", "--n", "2")
        assert code == 0
        assert "++ +-" in out
        assert "8 ordered pair" in err

    def test_count_classes(self, capsys):
        code, out, _ = run(capsys, "golay", "--n", "8", "--count-classes")
        assert code == 0 and out.strip() == "6"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "golay", "--n", "8", "--count-classes", "--format", "json")
        assert json.loads(out) == {"n": 8, "golay_type_classes": 6}

    def test_budget_is_usage_error(self, capsys):
        code, _, err = run(capsys, "golay", "--n", "27")
        assert code == 2 and "budget" in err


class TestEnvThreads:
    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers allowed
        monkeypatch.setenv("NSQ_THREADS", "2")
        _, out, _ = run(capsys, "search", "--n", "9")
        monkeypatch.delenv("NSQ_THREADS")
        _, serial, _ = run(capsys, "search", "--n", "9")
        assert out == serial

    @pytest.mark.parametrize("value", ["0", "-3", "two", "1.5"])
    def test_invalid_env_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("NSQ_THREADS", value)
        code, out, err = run(capsys, "search", "--n", "9")
        assert code == 2 and out == ""
        assert "NSQ_THREADS" in err and repr(value) in err

    def test_flag_takes_precedence_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NSQ_THREADS", "two")
        code, out, _ = run(capsys, "search", "--n", "4", "--threads", "1")
        assert code == 0 and out.startswith("1 16 61")


class TestThreadsFlag:
    @pytest.mark.parametrize("command", [
        ("search", "--n", "9"),
        ("summary", "--from", "1", "--to", "2"),
        ("golay", "--n", "4"),
        ("diff-tables", "--n", "4"),
    ])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_is_usage_error(self, capsys, command, value):
        code, out, err = run(capsys, *command, "--threads", value)
        assert code == 2 and out == ""
        assert f"--threads must be a positive integer, got {value}" in err

    def test_above_cpu_count_is_usage_error(self, capsys, monkeypatch):
        # Checked before any search, so no worker process is started.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for argv, name in [(("--threads", "3"), "--threads"), ((), "NSQ_THREADS")]:
            monkeypatch.setenv("NSQ_THREADS", "3")
            code, out, err = run(capsys, "search", "--n", "20", *argv)
            assert code == 2 and out == ""
            assert f"{name} must be at most the CPU count, 2" in err
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        code, _, err = run(capsys, "search", "--n", "20", "--threads", "2")
        assert code == 2 and "at most the CPU count, 1" in err


class TestEntryPoint:
    def test_module_invocation(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "nsq.cli", "npaf", "++-+"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "4 -1 0 1"

    def test_verify_relations_leaves_numpy_unloaded(self):
        # Its valid samples are decoded from the bundled representatives,
        # so no search runs.
        import subprocess
        import sys

        code = (
            "import sys; from nsq.cli import main; status = main(['verify-relations']); "
            "print(status, sorted({'numpy', 'nsq._engine'} & set(sys.modules)), file=sys.stderr)"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.stderr.strip() == "0 []"
        assert "PASS" in result.stdout

    def test_import_leaves_numpy_unloaded(self):
        # Commands that never search (verify-tables, canon, npaf, ...)
        # should not pay for importing numpy or the engine.
        import subprocess
        import sys

        code = "import sys, nsq.cli; print(sorted({'numpy', 'nsq._engine'} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
