"""Machine-readable reference tables and their verifier.

The class counts and the 167 printed representatives ship as plain-text
data files so transcription fixes stay diffable.  verify_tables() decodes
every representative and re-derives its claimed properties; the known
transposed n=2 row is flagged through the allowlist rather than silently
absorbed."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .equivalence import (
    CanonicalFormError,
    canonical_raw,
    canonical_violation,
    is_golay_type,
)
from .core import is_normal
from .quadcodec import (
    CodeError,
    decode_quadruple,
    encode_quadruple,
    format_code,
    parse_code,
)


class TableError(ValueError):
    """Raised for malformed or internally inconsistent table data."""


@dataclass(frozen=True)
class CountRow:
    n: int
    equ: int
    gol: int
    spo: int


@dataclass(frozen=True)
class RepRow:
    n: int
    index: int
    p_code: str
    q_code: str
    tag: str  # G, S or ?


@dataclass(frozen=True)
class ReferenceTables:
    counts: dict[int, CountRow]
    reps: tuple[RepRow, ...]

    def reps_for(self, n: int) -> list[RepRow]:
        return [r for r in self.reps if r.n == n]

    @property
    def covered_lengths(self) -> list[int]:
        return sorted({r.n for r in self.reps})


def _read_data(name: str, path: str | Path | None) -> str:
    """The text of the data file at path, else of the bundled file name."""
    source = resources.files(__package__) / "data" / name if path is None else Path(path)
    try:
        return source.read_text()
    except OSError as exc:
        raise TableError(f"cannot read {source}: {exc.strerror or exc}") from None


def _parse_lines(text: str, name: str, fields: int):
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(";")
        if len(parts) != fields:
            raise TableError(f"{name}:{lineno}: expected {fields} fields, got {len(parts)}")
        yield lineno, parts


def load_tables(data_dir: str | Path | None = None) -> ReferenceTables:
    """Load and structurally validate the bundled tables."""

    def table(name: str, fields: int):
        path = None if data_dir is None else Path(data_dir) / name
        return _parse_lines(_read_data(name, path), name, fields)

    counts: dict[int, CountRow] = {}
    for lineno, parts in table("class_counts.txt", 4):
        try:
            n, equ, gol, spo = (int(p) for p in parts)
        except ValueError:
            raise TableError(f"class_counts.txt:{lineno}: non-integer field") from None
        if equ != gol + spo:
            raise TableError(
                f"class_counts.txt:{lineno}: {equ} classes but {gol}+{spo} tags"
            )
        if n in counts:
            raise TableError(f"class_counts.txt:{lineno}: duplicate n={n}")
        counts[n] = CountRow(n, equ, gol, spo)

    reps: list[RepRow] = []
    for lineno, parts in table("representatives.txt", 5):
        n_text, index_text, p_code, q_code, tag = parts
        try:
            n, index = int(n_text), int(index_text)
        except ValueError:
            raise TableError(f"representatives.txt:{lineno}: non-integer field") from None
        if tag not in ("G", "S", "?"):
            raise TableError(f"representatives.txt:{lineno}: bad tag {tag!r}")
        if not (p_code.isdigit() and q_code.isdigit()):
            raise TableError(f"representatives.txt:{lineno}: non-digit code")
        reps.append(RepRow(n, index, p_code, q_code, tag))

    by_n: dict[int, list[RepRow]] = {}
    for row in reps:
        by_n.setdefault(row.n, []).append(row)
    for n, rows in by_n.items():
        if n not in counts:
            raise TableError(f"representatives for n={n} but no count row")
        expected = counts[n].spo if all(r.tag == "S" for r in rows) and n == 32 else counts[n].equ
        if len(rows) != expected:
            raise TableError(
                f"n={n}: {len(rows)} representative rows, expected {expected}"
            )
        if [r.index for r in rows] != list(range(1, len(rows) + 1)):
            raise TableError(f"n={n}: representative indices are not 1..{len(rows)}")
    return ReferenceTables(counts, tuple(reps))


def load_allowlist(path: str | Path | None = None) -> set[tuple[int, int, str]]:
    """Known-discrepancy entries as (n, index, check) triples."""
    text = _read_data("allowlist.txt", path)
    name = "allowlist.txt" if path is None else str(path)
    entries = set()
    for lineno, parts in _parse_lines(text, name, 3):
        try:
            entries.add((int(parts[0]), int(parts[1]), parts[2]))
        except ValueError:
            raise TableError(f"{name}:{lineno}: non-integer field") from None
    return entries


@dataclass(frozen=True)
class Finding:
    n: int
    index: int
    check: str
    detail: str
    allowlisted: bool

    def __str__(self) -> str:
        marker = "known" if self.allowlisted else "FAIL"
        return f"[{marker}] n={self.n} row {self.index} {self.check}: {self.detail}"


@dataclass
class TableReport:
    findings: list[Finding] = field(default_factory=list)
    checked_rows: int = 0

    def add(self, n, index, check, detail, allowlist):
        self.findings.append(
            Finding(n, index, check, detail, (n, index, check) in allowlist)
        )

    @property
    def unexpected(self) -> list[Finding]:
        return [f for f in self.findings if not f.allowlisted]

    @property
    def ok(self) -> bool:
        return not self.unexpected


def verify_tables(
    tables: ReferenceTables | None = None,
    allowlist: set[tuple[int, int, str]] | None = None,
) -> TableReport:
    """Decode and re-verify every representative row.

    Checks per row: parses, reformats byte-identically, is normal, is
    canonical, its orbit holds exactly one canonical member, and sporadic
    rows are not Golay type.  Per length: codes distinct, rows sorted,
    and Golay totals match the count table."""
    if tables is None:
        tables = load_tables()
    if allowlist is None:
        allowlist = load_allowlist()
    report = TableReport()
    golay_totals: dict[int, int] = {}
    for row in tables.reps:
        report.checked_rows += 1
        try:
            p, q = parse_code(f"{row.p_code} {row.q_code}", n=row.n)
        except CodeError as exc:
            report.add(row.n, row.index, "decode", str(exc), allowlist)
            continue
        quad = decode_quadruple(p, q)
        if format_code(*encode_quadruple(quad)) != f"{row.p_code} {row.q_code}":
            report.add(row.n, row.index, "roundtrip", "re-encoding differs", allowlist)
        if not is_normal(quad):
            report.add(row.n, row.index, "normal", "combined table not zero", allowlist)
            continue
        violation = canonical_violation(quad)
        if violation is not None:
            report.add(row.n, row.index, "canonical", violation, allowlist)
        try:
            canonical_raw(quad.raw())
        except CanonicalFormError as exc:
            report.add(row.n, row.index, "unique-canonical", str(exc), allowlist)
            continue
        golay = is_golay_type(quad)
        golay_totals[row.n] = golay_totals.get(row.n, 0) + (1 if golay else 0)
        if row.tag == "S" and golay:
            report.add(row.n, row.index, "golay-tag", "tagged sporadic but Golay type", allowlist)
        if row.tag == "G" and not golay:
            report.add(row.n, row.index, "golay-tag", "tagged Golay type but sporadic", allowlist)

    for n in tables.covered_lengths:
        rows = tables.reps_for(n)
        codes = [(r.p_code, r.q_code) for r in rows]
        if len(set(codes)) != len(codes):
            report.add(n, 0, "distinct", "duplicate code pair", allowlist)
        if codes != sorted(codes):
            report.add(n, 0, "order", "rows not in code order", allowlist)
        if n == 32:
            # only the sporadic classes are listed at this length
            if golay_totals.get(n, 0) != 0:
                report.add(n, 0, "golay-total", "sporadic block contains Golay rows", allowlist)
        elif n in golay_totals or rows:
            expected = tables.counts[n].gol
            got = golay_totals.get(n, 0)
            if got != expected:
                report.add(
                    n, 0, "golay-total", f"{got} Golay rows, count table says {expected}", allowlist
                )
    return report


@dataclass(frozen=True)
class DiffReport:
    n: int
    missing: tuple[tuple[str, str], ...]   # in the table, not found by search
    extra: tuple[tuple[str, str], ...]     # found by search, not in the table
    order_matches: bool

    @property
    def identical(self) -> bool:
        return not self.missing and not self.extra and self.order_matches


def diff_against_search(
    n: int, tables: ReferenceTables | None = None, workers: int = 1
) -> DiffReport:
    """Set and order comparison of the enumerator output and the table rows."""
    from .search import enumerate_classes

    if tables is None:
        tables = load_tables()
    table_codes = [(r.p_code, r.q_code) for r in tables.reps_for(n)]
    search_codes = [(r.p_code, r.q_code) for r in enumerate_classes(n, workers=workers)]
    missing = tuple(c for c in table_codes if c not in search_codes)
    extra = tuple(c for c in search_codes if c not in table_codes)
    return DiffReport(n, missing, extra, table_codes == search_codes)
