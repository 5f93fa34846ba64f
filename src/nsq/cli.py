"""Command-line interface.

Exit codes: 0 success (known discrepancies only produce warnings),
1 verification findings beyond the allowlist, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import BinarySeq, SequenceError, npaf, three_squares_feasible
from .equivalence import canonicalize_with_distance
from .golay import GolayError, golay_pairs, golay_type_class_count
from .group import verify_relations
from .quadcodec import CodeError, decode_quadruple, encode_quadruple, parse_code
from .search import enumerate_classes, summarize
from .tables import TableError, diff_against_search, load_allowlist, load_tables, verify_tables

USAGE_ERROR = 2


def _threads(value: int | None) -> int:
    """Worker count from --threads, else NSQ_THREADS (unset or empty: 1).
    Anything but a positive integer up to the CPU count is a usage error:
    each worker is one process."""
    if value is None:
        env = os.environ.get("NSQ_THREADS")
        if not env:
            return 1
        name, shown = "NSQ_THREADS", repr(env)
        try:
            value = int(env)
        except ValueError:
            value = 0
    else:
        name, shown = "--threads", str(value)
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {shown}")
    cpus = os.cpu_count() or 1
    if value > cpus:
        raise ValueError(f"{name} must be at most the CPU count, {cpus}, got {shown}")
    return value


def _cmd_search(args) -> int:
    records = enumerate_classes(args.n, workers=_threads(args.threads))
    if args.format == "json":
        payload = {
            "n": args.n,
            "classes": [
                {"index": r.index, "p": r.p_code, "q": r.q_code, "golay": r.golay_type}
                for r in records
            ],
        }
        print(json.dumps(payload))
        return 0
    if not records and not three_squares_feasible(args.n):
        print(f"# no classes: {2 * args.n} is not a sum of three squares", file=sys.stderr)
    for r in records:
        line = f"{r.index} {r.p_code} {r.q_code}"
        if args.tag_golay:
            line += " G" if r.golay_type else " S"
        print(line)
    return 0


def _cmd_summary(args) -> int:
    rows = summarize(args.lo, args.hi, workers=_threads(args.threads))
    if args.format == "json":
        print(
            json.dumps(
                {"rows": [{"n": n, "equ": e, "gol": g, "spo": s} for n, e, g, s in rows]}
            )
        )
        return 0
    for n, equ, gol, spo in rows:
        print(f"{n} {equ} {gol} {spo}")
    return 0


def _cmd_canon(args) -> int:
    p, q = parse_code(f"{args.pcode} {args.qcode}", n=args.n)
    quad = decode_quadruple(p, q)
    canon, steps = canonicalize_with_distance(quad)
    cp, cq = encode_quadruple(canon)
    print(f"{cp.text} {cq.text}")
    print(f"# reached in {steps} transformation(s)")
    return 0


def _cmd_decode(args) -> int:
    p, q = parse_code(f"{args.pcode} {args.qcode}", n=args.n)
    quad = decode_quadruple(p, q)
    print(f"n = {quad.n}")
    print(f"A = {quad.a}")
    print(f"A = {quad.a}")
    print(f"C = {quad.c}")
    print(f"D = {quad.d}")
    return 0


def _cmd_npaf(args) -> int:
    seq = BinarySeq.parse(args.sequence)
    print(" ".join(str(v) for v in npaf(seq)))
    return 0


def _cmd_verify_tables(args) -> int:
    tables = load_tables(args.data)
    allowlist = load_allowlist(args.allowlist) if args.allowlist else load_allowlist()
    report = verify_tables(tables, allowlist)
    for finding in report.findings:
        print(finding)
    print(f"# verified {report.checked_rows} rows")
    if report.ok:
        known = len(report.findings)
        if known:
            print(f"# {known} known discrepancy(ies), no regressions")
        return 0
    print(f"# {len(report.unexpected)} unexpected finding(s)", file=sys.stderr)
    return 1


def _cmd_verify_relations(args) -> int:
    lengths = [args.n] if args.n is not None else [4, 5]
    failed = False
    for n in lengths:
        for check in verify_relations(n):
            print(f"n={check.n} {check.status}: {check.name}")
            if check.status == "FAIL":
                failed = True
    return 1 if failed else 0


def _cmd_golay(args) -> int:
    if args.count_classes:
        count = golay_type_class_count(args.n, workers=_threads(args.threads))
        if args.format == "json":
            print(json.dumps({"n": args.n, "golay_type_classes": count}))
        else:
            print(count)
        return 0
    pairs = golay_pairs(args.n, workers=_threads(args.threads))
    if args.format == "json":
        print(
            json.dumps(
                {"n": args.n, "pairs": [[str(p.a), str(p.b)] for p in pairs]}
            )
        )
        return 0
    for p in pairs:
        print(f"{p.a} {p.b}")
    print(f"# {len(pairs)} ordered pair(s)", file=sys.stderr)
    return 0


def _cmd_diff(args) -> int:
    allow = load_allowlist(args.allowlist) if args.allowlist else load_allowlist()
    diff = diff_against_search(args.n, workers=_threads(args.threads))
    known = any(n == args.n and check == "search-match" for n, _, check in allow)
    if diff.identical:
        print(f"n={args.n}: search output matches the reference rows")
        return 0
    for code in diff.missing:
        print(f"only in tables: {code[0]} {code[1]}")
    for code in diff.extra:
        print(f"only in search: {code[0]} {code[1]}")
    if known:
        print("# known discrepancy at this length")
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsq",
        description="Classify normal sequences: enumerate classes, canonicalise "
        "codes, verify the bundled reference tables, and search Golay pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True):
        p.add_argument("--threads", type=int, default=None, help="worker processes (or NSQ_THREADS)")
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("search", help="enumerate the classes of one length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tag-golay", action="store_true", help="append G/S to each line")
    add_common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("summary", help="class counts over a range of lengths")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_summary)

    p = sub.add_parser("canon", help="canonicalise a code pair")
    p.add_argument("pcode")
    p.add_argument("qcode")
    p.add_argument("--n", type=int, default=None, help="length, when the codes are ambiguous")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("decode", help="print the quadruple a code pair describes")
    p.add_argument("pcode")
    p.add_argument("qcode")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("npaf", help="autocorrelation table of one sequence")
    p.add_argument("sequence", help="signs, e.g. ++-+ or +,+,-,+")
    p.set_defaults(func=_cmd_npaf)

    p = sub.add_parser("verify-tables", help="re-verify every bundled representative")
    p.add_argument("--data", default=None, help="directory overriding the bundled tables")
    p.add_argument("--allowlist", default=None, help="known-discrepancy file")
    p.set_defaults(func=_cmd_verify_tables)

    p = sub.add_parser("verify-relations", help="check the stated group relations")
    p.add_argument("--n", type=int, default=None, help="single length (default: 4 and 5)")
    p.set_defaults(func=_cmd_verify_relations)

    p = sub.add_parser("golay", help="exhaustive Golay pair search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-classes", action="store_true", help="print the Golay-type class count")
    add_common(p)
    p.set_defaults(func=_cmd_golay)

    p = sub.add_parser("diff-tables", help="compare search output against the bundled rows")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--allowlist", default=None)
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CodeError, SequenceError, GolayError, TableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
