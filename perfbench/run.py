#!/usr/bin/env python3
"""nsq benchmark: CLI workloads timed end to end, and a traced per-layer split.

Run from the root of a checkout (the directory holding ``src/nsq``):

    python3 perfbench/run.py --workload ns20 --seed 1 --seconds 25 --trace 0

``--trace 0`` launches the workload's ``python -m nsq.cli`` commands as
fresh processes, one after the other, until ``--seconds`` would be
exceeded (at least once), and interleaves no-work launches (``--help``)
that time set-up.  Each process tree is accounted with ``os.wait4`` on its
own process, which includes the pool workers it reaped.  Every output is
checked against the bundled tables; a wrong output is counted as failed.

``--trace 1`` runs the workload once untraced and once traced in-process
(``nsq_trace.py``) and reports the per-layer split and the tracing
overhead.  Parallel workloads are traced serially, and their parallel run
is compared with the serial one byte for byte.

The inputs are exhaustive and fixed by n; the seed only orders how the
timed launches are interleaved.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, holding
every metric ``BENCHMARK.json`` lists for the chosen trace mode.  Full
records (machine, every launch, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import checks
import nsq_trace

HERE = Path(__file__).resolve().parent
SPEC_FILE = HERE.parent / "BENCHMARK.json"
OUT_DIR = HERE / "out"
SETUP_PROBES = 9  # no-work launches per run; setup_s is their median
RUN_DEADLINE_S = 170.0  # every launch is killed past this point of the run


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]  # nsq CLI argv, launched in order
    check: Callable[[checks.Reference, list[checks.Result]], str | None]
    serial: tuple[tuple[str, ...], ...] | None = None  # same work, one process
    workers: int = 1

    @property
    def serial_commands(self) -> tuple[tuple[str, ...], ...]:
        return self.serial or self.commands


def _search_check(n: int, tag_golay: bool):
    return lambda ref, results: checks.check_search(ref, n, tag_golay, results[0])


# Why each workload exists, and which layers it exercises, is recorded in
# BENCHMARK.json and README.md.  --threads is always explicit, and
# NSQ_THREADS is removed from every launch's environment.
WORKLOADS = {
    "ns20": Workload(
        (("search", "--n", "20", "--tag-golay", "--threads", "1"),),
        _search_check(20, True),
    ),
    "golay20": Workload(
        (("golay", "--n", "20", "--count-classes", "--threads", "1"),),
        lambda ref, results: checks.check_golay_count(ref, 20, results[0]),
    ),
    "ns19-par2": Workload(
        (("search", "--n", "19", "--threads", "2"),),
        _search_check(19, False),
        serial=(("search", "--n", "19", "--threads", "1"),),
        workers=2,
    ),
    "tables": Workload(
        (("verify-tables",), ("verify-relations",)),
        lambda ref, results: checks.check_verify_tables(ref, results[0])
        or checks.check_verify_relations(results[1]),
    ),
}


@dataclass
class Launch:
    """One timed process tree, or a workload's commands run in sequence."""

    kind: str
    argv: list[list[str]]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    load_before: tuple[float, float, float] = (0.0, 0.0, 0.0)
    load_after: tuple[float, float, float] = (0.0, 0.0, 0.0)
    failure: str | None = None
    results: list[checks.Result] = field(default_factory=list, repr=False)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(argv: list[str], env: dict, deadline: float) -> tuple[checks.Result, float, float, float]:
    """Run argv to completion; (result, wall s, user+sys CPU s, peak RSS MB).

    The process leads its own group, so a launch past the deadline is
    killed together with any pool workers it started."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True
    )
    captured: dict[str, bytes] = {}
    readers = [
        threading.Thread(target=lambda k=k, s=s: captured.__setitem__(k, s.read()))
        for k, s in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for reader in readers:
        reader.start()
    timer = threading.Timer(max(0.0, deadline - start), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != 0:
        sys.stderr.write(captured["err"].decode(errors="replace")[-2000:])
    result = checks.Result(proc.returncode, captured["out"].decode())
    return result, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_commands(kind, commands, check, ref, env, deadline, program=("-m", "nsq.cli")) -> Launch:
    """Launch each command in turn and check their outputs together."""
    launch = Launch(kind, [list(c) for c in commands], load_before=os.getloadavg())
    for command in commands:
        result, wall, cpu, rss = _spawn([sys.executable, *program, *command], env, deadline)
        launch.results.append(result)
        launch.wall_s += wall
        launch.cpu_s += cpu
        launch.peak_rss_mb = max(launch.peak_rss_mb, rss)
    launch.load_after = os.getloadavg()
    launch.failure = check(ref, launch.results)
    return launch


def _help_check(ref, results) -> str | None:
    result = results[0]
    if result.returncode != 0 or not result.stdout.startswith("usage: nsq"):
        return f"--help exited {result.returncode} without the usage text"
    return None


def setup_probe(ref, env, deadline, kind="setup") -> Launch:
    return run_commands(kind, [("--help",)], _help_check, ref, env, deadline)


def _median(launches: list[Launch], attr: str) -> float:
    return statistics.median(getattr(launch, attr) for launch in launches)


def timed_run(workload, ref, env, rng, seconds, deadline) -> tuple[list[Launch], dict]:
    """End-to-end metrics: workload launches until the next one would
    overrun ``seconds``.  The set-up probes fall due at seed-drawn times
    spread over the run, so they sample the same machine state as the
    workload launches."""
    # The untimed warm-up fills the bytecode cache, which users pay for once.
    launches = [setup_probe(ref, env, deadline, kind="warm-up")]
    due = sorted(rng.uniform(0, seconds) for _ in range(SETUP_PROBES))
    start = time.perf_counter()
    while True:
        while due and due[0] <= time.perf_counter() - start:
            due.pop(0)
            launches.append(setup_probe(ref, env, deadline))
        launch = run_commands("workload", workload.commands, workload.check, ref, env, deadline)
        launches.append(launch)
        predicted = time.perf_counter() - start + launch.wall_s + len(due) * launches[0].wall_s
        if predicted > seconds or time.perf_counter() > deadline:
            break
    for _ in due:
        launches.append(setup_probe(ref, env, deadline))
    work = [launch for launch in launches if launch.kind == "workload"]
    setup = [launch for launch in launches if launch.kind == "setup"]
    metrics = {
        "wall_s": _median(work, "wall_s"),
        "cpu_s": _median(work, "cpu_s"),
        "peak_rss_mb": _median(work, "peak_rss_mb"),
        "setup_s": _median(setup, "wall_s"),
    }
    return launches, metrics


def traced_run(workload, name, ref, env, rng, seed, deadline) -> tuple[list[Launch], dict, list]:
    """Per-layer metrics: one untraced and one traced run of the serial
    commands, plus the parallel commands when the workload has a pool."""
    run_id = f"{name}-seed{seed}"
    serial = workload.serial_commands
    trace_out: dict = {}

    def traced_check(ref, results):
        payload = json.loads(results[0].stdout) if results[0].returncode == 0 else None
        if payload is None:
            return f"traced process exited {results[0].returncode}"
        trace_out.update(payload)
        if not Path(payload["nsq_file"]).resolve().is_relative_to(Path(env["PYTHONPATH"]).resolve()):
            return f"traced process imported nsq from {payload['nsq_file']}"
        outputs = [checks.Result(o["returncode"], o["stdout"]) for o in payload["outputs"]]
        return workload.check(ref, outputs)

    steps = {
        "untraced": lambda: run_commands("untraced", serial, workload.check, ref, env, deadline),
        "traced": lambda: run_commands(
            "traced",
            [(run_id, json.dumps(serial))],
            traced_check,
            ref,
            env,
            deadline,
            program=(str(HERE / "nsq_trace.py"),),
        ),
    }
    if workload.workers > 1:
        steps["parallel"] = lambda: run_commands(
            "parallel", workload.commands, workload.check, ref, env, deadline
        )
    order = sorted(steps)
    rng.shuffle(order)
    launches = [setup_probe(ref, env, deadline, kind="warm-up")]
    done = {}
    for step in order:
        done[step] = steps[step]()
        launches.append(done[step])

    metrics = nsq_trace.layer_metrics(trace_out.get("spans", []), trace_out.get("counts", {}))
    metrics["cli.import_s"] = trace_out.get("import_s", 0.0)
    metrics["trace.overhead_s"] = done["traced"].wall_s - done["untraced"].wall_s
    metrics["search.pool_busy"] = metrics["search.pool_speedup"] = 0.0
    parallel = done.get("parallel")
    if parallel is not None:
        text = [r.stdout for r in parallel.results]
        serial_text = [r.stdout for r in done["untraced"].results]
        traced_text = [o["stdout"] for o in trace_out.get("outputs", [])]
        if parallel.failure is None and not text == serial_text == traced_text:
            parallel.failure = "parallel output differs from the serial runs"
        metrics["search.pool_busy"] = parallel.cpu_s / (workload.workers * parallel.wall_s)
        metrics["search.pool_speedup"] = done["untraced"].wall_s / parallel.wall_s
    return launches, metrics, trace_out.get("spans", [])


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except FileNotFoundError:  # git is not installed
        return None
    return probe.stdout.strip() or None


def machine_record(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "nsq").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "nsq" / "cli.py").is_file():
        print(f"error: {root} holds no nsq source tree (src/nsq)", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    spec = json.loads(SPEC_FILE.read_text())
    ref = checks.Reference.load(src / "nsq" / "data")
    env = {k: v for k, v in os.environ.items() if k != "NSQ_THREADS"}
    env["PYTHONPATH"] = str(src)
    rng = random.Random(args.seed)
    workload = WORKLOADS[args.workload]
    machine = machine_record(root)

    if args.trace:
        launches, values, spans = traced_run(
            workload, args.workload, ref, env, rng, args.seed, deadline
        )
        wanted = spec["per_layer"]
    else:
        launches, values = timed_run(workload, ref, env, rng, args.seconds, deadline)
        spans = []
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"BENCHMARK.json names metrics this harness does not compute: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(1 for launch in launches if launch.failure)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "launches": [
            {k: v for k, v in asdict(launch).items() if k != "results"} for launch in launches
        ],
        "metrics": metrics,
        "spans": spans,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, record {out_file.relative_to(root)}")
    print(f"# machine {json.dumps(machine)}")
    for launch in launches:
        status = launch.failure or "ok"
        print(
            f"# {launch.kind:9} wall {launch.wall_s:9.4f} s  cpu {launch.cpu_s:9.4f} s  "
            f"rss {launch.peak_rss_mb:7.1f} MB  load {launch.load_before[0]:.2f}->"
            f"{launch.load_after[0]:.2f}  {status}"
        )
    if not args.trace:
        runs = sum(1 for launch in launches if launch.kind == "workload")
        print(f"# wall_s, cpu_s, peak_rss_mb: medians of {runs} workload run(s); "
              f"setup_s: median of {SETUP_PROBES} --help launches")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    attempted = len(launches)
    print(f"failed = {failed} of {attempted} checked launches")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
