"""What a fresh interpreter imports to run each kind of nsq launch, and
the lazy package namespace that keeps those imports down.

Every launch pays for the modules it imports before it does any work, so
each command should import only what it runs: a stray top-level import
in any nsq module shows up here.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nsq

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI as ``python -m nsq.cli ARGS`` does, then prints the names
# of every loaded module on the last line of stdout.
CLI = """
import runpy, sys
sys.argv[:] = ["nsq", *sys.argv[1:]]
try:
    runpy.run_module("nsq.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
print(*sys.modules)
"""

NEVER_AT_START = {
    "numpy", "nsq._engine", "multiprocessing", "concurrent.futures", "logging", "json",
    "dataclasses",
}


def loaded(code: str, *args: str) -> set[str]:
    """The modules loaded after a fresh interpreter ran ``code`` with
    ``args`` on its command line; ``code`` ends by printing them."""
    env = {k: v for k, v in os.environ.items() if k != "NSQ_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("code", [
    "import sys, nsq; print(*sys.modules)",
    "import sys, nsq.cli; print(*sys.modules)",
])
def test_import_loads_no_submodule(code):
    modules = loaded(code)
    assert not NEVER_AT_START & modules
    assert {m for m in modules if m.startswith("nsq.")} <= {"nsq.cli"}


def test_help_loads_no_submodule():
    modules = loaded(CLI, "--help")
    assert not NEVER_AT_START & modules
    # Run as __main__, the CLI module is not nsq.cli.
    assert "nsq" in modules and not {m for m in modules if m.startswith("nsq.")}


@pytest.mark.parametrize("argv, unused", [
    (("npaf", "++-+"), {"nsq.search", "nsq.golay", "nsq.group", "nsq.tables"}),
    (("verify-tables",), {"nsq.search", "nsq.golay", "nsq.group"}),
    (("verify-relations",), {"nsq.search", "nsq.golay", "nsq.tables"}),
])
def test_command_without_search_loads_no_numpy(argv, unused):
    modules = loaded(CLI, *argv)
    assert not ({"numpy", "nsq._engine"} | unused) & modules


def test_relation_checks_read_no_tables():
    # The relations are proved on covering triples built from quad codes,
    # so checking them neither loads the bundled tables nor searches.
    modules = loaded(
        "import sys; from nsq.group import verify_relations;"
        " verify_relations(4); verify_relations(5); print(*sys.modules)"
    )
    assert not {"nsq.tables", "nsq.search", "numpy", "nsq._engine"} & modules


@pytest.mark.parametrize("argv", [
    ("npaf", "++-+"),
    ("canon", "16", "61"),
    ("decode", "16", "61"),
    ("verify-tables",),
    ("verify-relations",),
    ("search", "--n", "8", "--threads", "1"),
    ("golay", "--n", "8", "--count-classes"),
])
def test_command_loads_no_dataclasses(argv):
    # dataclasses imports inspect, and each frozen dataclass generates its
    # methods at import: about 1 ms a class.  numpy imports inspect itself.
    modules = loaded(CLI, *argv)
    assert "dataclasses" not in modules
    if "numpy" not in modules:
        assert "inspect" not in modules


def test_serial_search_loads_no_pool():
    modules = loaded(CLI, "search", "--n", "8", "--threads", "1")
    assert {"numpy", "nsq._engine", "nsq.search"} <= modules
    assert not {"multiprocessing", "concurrent.futures"} & modules


# CLI, with every search, in this process or in a pool worker, appending
# after each shard whether its process has loaded numpy.ma: one line
# "pid True/False" to the file named by the first argument.
REPORTING_CLI = """
import os, sys
from nsq import _engine
log = sys.argv.pop(1)
prepare = _engine._prepare

def reporting(n):
    search = prepare(n)

    def run(shard):
        leaves = search(shard)
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {'numpy.ma' in sys.modules}\\n")
        return leaves

    return run

_engine._prepare = reporting
""" + CLI


@pytest.mark.parametrize("threads, shards", [("1", 1), ("2", 8)])
def test_search_loads_no_masked_arrays(tmp_path, threads, shards):
    # numpy.ma costs a launch about 15 ms, in the parent and in every
    # worker; np.unique imports it.
    log = tmp_path / "shards"
    modules = loaded(REPORTING_CLI, str(log), "search", "--n", "19", "--threads", threads)
    assert "numpy" in modules and "numpy.ma" not in modules
    reports = [line.split() for line in log.read_text().splitlines()]
    assert len(reports) == shards
    assert {loaded_ma for _, loaded_ma in reports} == {"False"}


@pytest.mark.parametrize("n", range(1, 32))
def test_a_values_are_the_unique_first_column(n):
    # The A sweep aims at the solutions' first column as it stands, so no
    # search calls np.unique: a repeated a value sets the same reach-table
    # boxes again, and the sweep levels equal those of the unique values.
    import numpy as np

    from nsq._engine import _levels, _solutions, ns_tracks

    solutions = _solutions(n)
    aa = ns_tracks(n)[0]
    got = _levels(n, aa, solutions[:, :1], rows=1)
    want = _levels(n, aa, np.unique(solutions[:, :1], axis=0), rows=1)
    assert got[0] is want[0] is None and len(got) == len(want) == n - n // 2 + 1
    for level, expected in zip(got[1:], want[1:]):
        for field, value in zip(expected._fields, level):
            assert np.array_equal(value, getattr(expected, field)), field


# The package's public names, by home module.
PUBLIC = {
    "core": "BaseQuadruple BinarySeq NormalQuadruple NpafTable SequenceError alternate concat "
    "embed_bs is_base_sequences is_normal negate npaf npaf_sum reverse three_squares_feasible",
    "equivalence": "CanonicalFormError Transform TRANSFORMS apply are_equivalent "
    "canonical_violation canonicalize is_canonical is_golay_type orbit",
    "golay": "GolayPair embed golay_pairs golay_type_class_count two_embeddings_equivalent",
    "group": "generators orbits_match_classes realized_order verify_relations",
    "quadcodec": "CodeError QuadCode compose_pair decode_quadruple decompose_pair "
    "encode_quadruple format_code parse_code symmetry_type",
    "search": "ClassRecord enumerate_classes summarize",
    "tables": "diff_against_search load_tables verify_tables",
}
PUBLIC_NAMES = [(name, home) for home, names in PUBLIC.items() for name in names.split()]


class TestPackageNamespace:
    @pytest.mark.parametrize("name, home", PUBLIC_NAMES)
    def test_name_is_its_home_modules_object(self, name, home):
        namespace = {}
        exec(f"from nsq import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"nsq.{home}"), name)
        assert getattr(nsq, name) is namespace[name]

    def test_dir_and_all_list_every_name(self):
        names = {name for name, _ in PUBLIC_NAMES}
        assert names <= set(dir(nsq))
        assert set(nsq.__all__) == names
        assert nsq.__version__ == "0.1.0"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="module 'nsq' has no attribute 'nope'"):
            nsq.nope

    def test_submodule_import(self):
        from nsq import search

        assert search.__name__ == "nsq.search"
        assert search.enumerate_classes is nsq.enumerate_classes
