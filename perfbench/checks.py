"""Output checks for the benchmark workloads, against the bundled tables.

The reference is read straight from ``src/nsq/data`` with a parser of its
own, so a bug in ``nsq.tables`` cannot make a wrong output look right.
Every check returns ``None`` when the output is correct and a one-line
reason otherwise; a wrong output is counted as failed, never raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

# verify-tables performs every allowlisted check except this one, which
# belongs to diff-tables.
_DIFF_ONLY_CHECK = "search-match"

_FINDING = re.compile(r"\[(known|FAIL)\] n=(\d+) row (\d+) ([\w-]+): ")
_RELATION = re.compile(r"n=(\d+) (PASS|FAIL|UNVERIFIABLE): (.+)")


def _rows(path: Path, fields: int) -> list[list[str]]:
    rows = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            parts = line.split(";")
            if len(parts) != fields:
                raise ValueError(f"{path.name}: expected {fields} fields in {line!r}")
            rows.append(parts)
    return rows


@dataclass(frozen=True)
class Reference:
    """The bundled class counts, representatives and allowlist."""

    counts: dict[int, tuple[int, int, int]]  # n -> (classes, golay, sporadic)
    reps: dict[int, list[tuple[int, str, str, str]]]  # n -> (index, p, q, tag)
    allowlist: frozenset[tuple[int, int, str]]

    @classmethod
    def load(cls, data_dir: Path) -> "Reference":
        counts = {
            int(n): (int(equ), int(gol), int(spo))
            for n, equ, gol, spo in _rows(data_dir / "class_counts.txt", 4)
        }
        reps: dict[int, list[tuple[int, str, str, str]]] = {}
        for n, index, p, q, tag in _rows(data_dir / "representatives.txt", 5):
            reps.setdefault(int(n), []).append((int(index), p, q, tag))
        allow = frozenset(
            (int(n), int(index), check)
            for n, index, check in _rows(data_dir / "allowlist.txt", 3)
        )
        return cls(counts, reps, allow)

    @property
    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.reps.values())


@dataclass(frozen=True)
class Result:
    """What one CLI command returned."""

    returncode: int
    stdout: str


def check_search(ref: Reference, n: int, tag_golay: bool, result: Result) -> str | None:
    """`nsq search --n N [--tag-golay]` prints exactly the bundled rows of
    length N, in order, and the G/S tags add up to the count table."""
    if result.returncode != 0:
        return f"search --n {n} exited {result.returncode}"
    rows = ref.reps[n]
    lines = result.stdout.splitlines()
    if len(lines) != len(rows) or len(rows) != ref.counts[n][0]:
        return f"search --n {n}: {len(lines)} lines, reference has {len(rows)} rows"
    tags = []
    for line, (index, p, q, tag) in zip(lines, rows):
        fields = line.split()
        if fields[:3] != [str(index), p, q]:
            return f"search --n {n}: line {line!r} differs from row {index} {p} {q}"
        if tag_golay:
            if len(fields) != 4 or fields[3] not in ("G", "S"):
                return f"search --n {n}: line {line!r} has no G/S tag"
            if tag in ("G", "S") and fields[3] != tag:
                return f"search --n {n}: row {index} tagged {fields[3]}, reference {tag}"
            tags.append(fields[3])
        elif len(fields) != 3:
            return f"search --n {n}: unexpected field in {line!r}"
    if tag_golay:
        _, gol, spo = ref.counts[n]
        got = (tags.count("G"), tags.count("S"))
        if got != (gol, spo):
            return f"search --n {n}: G/S totals {got[0]}/{got[1]}, reference {gol}/{spo}"
    return None


def check_golay_count(ref: Reference, n: int, result: Result) -> str | None:
    """`nsq golay --n N --count-classes` prints the Golay-type class count."""
    if result.returncode != 0:
        return f"golay --n {n} exited {result.returncode}"
    expected = ref.counts[n][1]
    if result.stdout.strip() != str(expected):
        return f"golay --n {n}: printed {result.stdout.strip()!r}, reference {expected}"
    return None


def check_verify_tables(ref: Reference, result: Result) -> str | None:
    """`nsq verify-tables` exits 0, verifies every bundled row and reports
    exactly the allowlisted discrepancies it can detect."""
    if result.returncode != 0:
        return f"verify-tables exited {result.returncode}"
    lines = result.stdout.splitlines()
    if f"# verified {ref.total_rows} rows" not in lines:
        return f"verify-tables did not verify all {ref.total_rows} rows"
    findings = set()
    for line in lines:
        if line.startswith("#"):
            continue
        match = _FINDING.match(line)
        if match is None or match.group(1) != "known":
            return f"verify-tables: unexpected line {line!r}"
        findings.add((int(match.group(2)), int(match.group(3)), match.group(4)))
    expected = {entry for entry in ref.allowlist if entry[2] != _DIFF_ONLY_CHECK}
    if findings != expected:
        return f"verify-tables findings {sorted(findings)}, expected {sorted(expected)}"
    return None


def check_verify_relations(result: Result, lengths: tuple[int, ...] = (4, 5)) -> str | None:
    """`nsq verify-relations` exits 0 and every relation passes at every
    length; the one stated relation that cannot be checked as written is
    reported UNVERIFIABLE once per length."""
    if result.returncode != 0:
        return f"verify-relations exited {result.returncode}"
    by_length: dict[int, list[tuple[str, str]]] = {}
    for line in result.stdout.splitlines():
        match = _RELATION.fullmatch(line)
        if match is None or match.group(2) == "FAIL":
            return f"verify-relations: unexpected line {line!r}"
        by_length.setdefault(int(match.group(1)), []).append((match.group(2), match.group(3)))
    if sorted(by_length) != sorted(lengths):
        return f"verify-relations covered lengths {sorted(by_length)}, expected {list(lengths)}"
    first = by_length[lengths[0]]
    statuses = [status for status, _ in first]
    if statuses.count("UNVERIFIABLE") != 1 or "PASS" not in statuses:
        return f"verify-relations: n={lengths[0]} statuses {statuses}"
    for n in lengths[1:]:
        if by_length[n] != first:
            return f"verify-relations: n={n} checks differ from n={lengths[0]}"
    return None
