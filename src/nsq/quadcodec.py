"""Quad decomposition of sequence pairs and the digit-code representation.

A pair of length-n sequences is cut into m = n // 2 quads (the 2x2 sign
matrices formed by positions i and n+1-i) plus, for odd n, a central
column.  Codes are the digit strings of quad labels, with the central
label appended when present.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BinarySeq, NormalQuadruple, is_normal


class CodeError(ValueError):
    """Raised for malformed or inconsistent quad codes."""


# Longest length a code may describe, as in the paper and the tables.  Longer
# codes are refused before any decoding, whose normality check is quadratic.
MAX_N = 40


# The eight recognised quads, as (top_left, top_right, bottom_left, bottom_right).
QUAD_MATRICES = {
    1: (1, 1, 1, 1),
    2: (1, 1, -1, -1),
    3: (-1, 1, -1, 1),
    4: (1, -1, -1, 1),
    5: (-1, 1, 1, -1),
    6: (1, -1, 1, -1),
    7: (-1, -1, 1, 1),
    8: (-1, -1, -1, -1),
}
_MATRIX_TO_QUAD = {m: s for s, m in QUAD_MATRICES.items()}

# Central columns, as (top, bottom).
CENTRAL_COLUMNS = {0: (1, 1), 1: (1, -1), 2: (-1, 1), 3: (-1, -1)}
_COLUMN_TO_CENTRAL = {col: s for s, col in CENTRAL_COLUMNS.items()}

SYMMETRIC_QUADS = frozenset({1, 2, 7, 8})
SKEW_QUADS = frozenset({3, 4, 5, 6})

# A repeated pair (X;X) only ever produces these quads and centrals.
AA_QUADS = frozenset({1, 3, 6, 8})
AA_CENTRALS = frozenset({0, 3})


def symmetry_type(quad: int) -> str:
    """'symmetric' when the two columns agree, 'skew' otherwise."""
    if quad in SYMMETRIC_QUADS:
        return "symmetric"
    if quad in SKEW_QUADS:
        return "skew"
    raise CodeError(f"no quad labelled {quad!r}")


@dataclass(frozen=True)
class QuadCode:
    """Digit encoding of one sequence pair.

    kind is "aa" for a repeated pair (X;X), which restricts the alphabet
    to {1,3,6,8} and the central label to {0,3}; "cd" allows everything.
    """

    quads: tuple[int, ...]
    central: int | None
    kind: str

    def __post_init__(self):
        if self.kind not in ("aa", "cd"):
            raise CodeError(f"unknown code kind {self.kind!r}")
        for q in self.quads:
            if q not in QUAD_MATRICES:
                raise CodeError(f"{q} is not a quad label")
            if self.kind == "aa" and q not in AA_QUADS:
                raise CodeError(f"{q} is not a quad of a repeated pair")
        if self.central is not None:
            if self.central not in CENTRAL_COLUMNS:
                raise CodeError(f"{self.central} is not a central-column label")
            if self.kind == "aa" and self.central not in AA_CENTRALS:
                raise CodeError(f"{self.central} is not a central of a repeated pair")
        if not self.quads and self.central is None:
            raise CodeError("empty code")

    @property
    def n(self) -> int:
        return 2 * len(self.quads) + (1 if self.central is not None else 0)

    @property
    def text(self) -> str:
        digits = "".join(str(q) for q in self.quads)
        if self.central is not None:
            digits += str(self.central)
        return digits


def quad_labels(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[list[int], int | None]:
    """The quad labels of the sign tuples x and y (one length), and the
    central label for odd length, else None."""
    n = len(x)
    m = n // 2
    quads = []
    for i in range(m):
        j = n - 1 - i
        sym = _MATRIX_TO_QUAD.get((x[i], x[j], y[i], y[j]))
        if sym is None:
            raise CodeError(
                f"positions {i + 1} and {j + 1} do not form one of the eight quads"
            )
        quads.append(sym)
    return quads, _COLUMN_TO_CENTRAL[(x[m], y[m])] if n % 2 else None


def decompose_pair(x: BinarySeq, y: BinarySeq, kind: str | None = None) -> QuadCode:
    """Cut the pair (x;y) into quads plus, for odd length, a central column."""
    if len(x) != len(y):
        raise CodeError("the two sequences must share one length")
    quads, central = quad_labels(x.terms, y.terms)
    if kind is None:
        kind = "aa" if x.terms == y.terms else "cd"
    return QuadCode(tuple(quads), central, kind)


def compose_pair(code: QuadCode, n: int | None = None) -> tuple[BinarySeq, BinarySeq]:
    """Rebuild the sequence pair a code describes; inverse of decompose_pair."""
    if n is not None and n != code.n:
        raise CodeError(f"code describes length {code.n}, not {n}")
    n = code.n
    x = [0] * n
    y = [0] * n
    for i, sym in enumerate(code.quads):
        tl, tr, bl, br = QUAD_MATRICES[sym]
        j = n - 1 - i
        x[i], x[j] = tl, tr
        y[i], y[j] = bl, br
    if code.central is not None:
        top, bottom = CENTRAL_COLUMNS[code.central]
        x[n // 2] = top
        y[n // 2] = bottom
    return BinarySeq(tuple(x)), BinarySeq(tuple(y))


def _code_from_digits(digits: str, kind: str, odd: bool) -> QuadCode:
    if not digits.isdigit():
        raise CodeError(f"code {digits!r} contains a non-digit character")
    values = [int(ch) for ch in digits]
    if odd:
        quads, central = values[:-1], values[-1]
    else:
        quads, central = values, None
    return QuadCode(tuple(quads), central, kind)


def _decodes_normal(p: QuadCode, q: QuadCode) -> bool:
    try:
        return is_normal(decode_quadruple(p, q))
    except (CodeError, ValueError):
        return False


def parse_code(text: str, n: int | None = None) -> tuple[QuadCode, QuadCode]:
    """Parse '<aa-code> <cd-code>' into the two QuadCodes.

    Without an explicit n the parity is inferred: if only one of the
    even/odd readings is structurally valid it wins; if both are, the one
    that decodes to a normal quadruple wins; a genuinely ambiguous pair
    raises and the caller should pass n.
    """
    parts = text.split()
    length = max(map(len, parts), default=0)
    if 2 * length - 1 > MAX_N:
        raise CodeError(f"codes of {length} digits describe n > {MAX_N}, past the tables")
    if len(parts) != 2:
        raise CodeError(f"expected two codes separated by a space, got {text!r}")
    p_text, q_text = parts
    if len(p_text) != len(q_text):
        raise CodeError(
            f"codes {p_text!r} and {q_text!r} must have equal length"
        )
    if n is not None:
        length = len(p_text)
        if n not in (2 * length, 2 * length - 1):
            raise CodeError(f"codes of {length} digits cannot describe n={n}")
        odd = n % 2 == 1
        return (
            _code_from_digits(p_text, "aa", odd),
            _code_from_digits(q_text, "cd", odd),
        )
    candidates = []
    for odd in (False, True):
        try:
            candidates.append(
                (
                    _code_from_digits(p_text, "aa", odd),
                    _code_from_digits(q_text, "cd", odd),
                )
            )
        except CodeError:
            continue
    if not candidates:
        raise CodeError(f"cannot parse {text!r} as a code pair")
    if len(candidates) == 2:
        candidates = [c for c in candidates if _decodes_normal(*c)] or candidates
    if len(candidates) > 1:
        raise CodeError(
            f"code pair {text!r} is valid for both parities; pass n explicitly"
        )
    return candidates[0]


def format_code(p: QuadCode, q: QuadCode) -> str:
    """Render two codes in the table format '<aa-code> <cd-code>'."""
    if p.n != q.n:
        raise CodeError("the two codes must describe one length")
    return f"{p.text} {q.text}"


def decode_quadruple(p: QuadCode, q: QuadCode) -> NormalQuadruple:
    """Build the (A;C;D) triple described by an aa-code and a cd-code."""
    if p.kind != "aa":
        raise CodeError("first code must be of kind 'aa'")
    if p.n != q.n:
        raise CodeError("the two codes must describe one length")
    a, _ = compose_pair(p)
    c, d = compose_pair(q)
    return NormalQuadruple(a, c, d)


def encode_quadruple(quad: NormalQuadruple) -> tuple[QuadCode, QuadCode]:
    """Codes of the pairs (A;A) and (C;D)."""
    return (
        decompose_pair(quad.a, quad.a, kind="aa"),
        decompose_pair(quad.c, quad.d, kind="cd"),
    )
