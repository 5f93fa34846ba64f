"""The shard pool of _engine.search_normal: each worker builds the
search's tables once, on its first shard, never the parent; the pool
leaves the caller's frozen objects frozen; an error in a worker
reaches the caller as itself; and a worker that dies fails the search
at once, in the library and through the CLI, rather than hanging it.
The pool threshold is lowered so that short searches use the pool."""

import gc
import os
import time

import pytest

from nsq import _engine
from nsq.cli import main


@pytest.fixture
def pooled(monkeypatch):
    monkeypatch.setattr(_engine, "POOL_MIN_N", 1)
    return monkeypatch


def test_tables_are_built_once_per_worker(pooled, tmp_path):
    # Each build appends its pid to a file, which the workers share with
    # this process.  The workers see the spy patched here only because
    # the pool forks them; spawned workers would log no build.
    log = tmp_path / "builds"
    prepare = _engine._prepare

    def spy(n):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return prepare(n)

    pooled.setattr(_engine, "_prepare", spy)
    _engine.search_normal(16, workers=2)
    pids = log.read_text().split()
    # 8 shards, at most one build in each of the 2 workers.
    assert 1 <= len(pids) <= 2 and len(set(pids)) == len(pids)
    assert str(os.getpid()) not in pids


def test_search_keeps_the_callers_frozen_objects_frozen(pooled):
    # Frozen objects that die leave the count, so it need not stay equal.
    gc.freeze()
    try:
        _engine.search_normal(16, workers=2)
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_worker_error_reaches_the_caller(pooled):
    def fail(n):
        raise RuntimeError(f"no tables for n = {n}")

    pooled.setattr(_engine, "_prepare", fail)
    with pytest.raises(RuntimeError, match="no tables for n = 12"):
        _engine.search_normal(12, workers=2)


SHARD = _engine._shard


def dying_shard(n, shards, i):
    """Shard 3 kills its worker; the others run the real _shard.  Set
    before the pool forks, so the workers see it; the pool pickles it by
    name, so it lives at module level."""
    if i == 3:
        os._exit(9)
    return SHARD(n, shards, i)


def test_dead_worker_fails_the_search(pooled):
    pooled.setattr(_engine, "_shard", dying_shard)
    start = time.perf_counter()
    with pytest.raises(ChildProcessError, match="a search worker died"):
        _engine.search_normal(12, workers=2)
    assert time.perf_counter() - start < 10


def test_dead_worker_is_one_line_and_status_1(monkeypatch, capsys):
    monkeypatch.setattr(_engine, "_shard", dying_shard)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers allowed
    assert main(["search", "--n", "18", "--threads", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: a search worker died") and err.count("\n") == 1
