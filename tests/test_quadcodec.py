import random

import pytest

from nsq.core import BinarySeq, negate, reverse
from nsq.quadcodec import (
    AA_CENTRALS,
    AA_QUADS,
    CENTRAL_COLUMNS,
    CodeError,
    QUAD_MATRICES,
    QuadCode,
    compose_pair,
    decode_quadruple,
    decompose_pair,
    encode_quadruple,
    format_code,
    parse_code,
    symmetry_type,
)

# Oracle data: symbol-level images of the sequence-level transforms, as
# maps on quad labels and on central-column labels.
NEGATE_BOTH = {1: 8, 2: 7, 3: 6, 4: 5, 5: 4, 6: 3, 7: 2, 8: 1}
NEGATE_TOP = {1: 7, 2: 8, 3: 4, 4: 3, 5: 6, 6: 5, 7: 1, 8: 2}
NEGATE_BOTTOM = {1: 2, 2: 1, 3: 5, 4: 6, 5: 3, 6: 4, 7: 8, 8: 7}
SWAP_ROWS = {1: 1, 2: 7, 3: 3, 4: 5, 5: 4, 6: 6, 7: 2, 8: 8}
SWAP_COLS = {1: 1, 2: 2, 3: 6, 4: 5, 5: 4, 6: 3, 7: 7, 8: 8}
REVERSE_TOP = {1: 1, 2: 2, 3: 4, 4: 3, 5: 6, 6: 5, 7: 7, 8: 8}
REVERSE_BOTTOM = {1: 1, 2: 2, 3: 5, 4: 6, 5: 3, 6: 4, 7: 7, 8: 8}
SWAP_45 = {1: 1, 2: 2, 3: 3, 4: 5, 5: 4, 6: 6, 7: 7, 8: 8}

CENTRAL_NEGATE_BOTH = {0: 3, 1: 2, 2: 1, 3: 0}
CENTRAL_NEGATE_TOP = {0: 2, 1: 3, 2: 0, 3: 1}
CENTRAL_NEGATE_BOTTOM = {0: 1, 1: 0, 2: 3, 3: 2}
CENTRAL_SWAP_ROWS = {0: 0, 1: 2, 2: 1, 3: 3}

class TestDecompose:
    def test_repeated_pair_example(self):
        a = BinarySeq.parse("+++-+")
        code = decompose_pair(a, a)
        assert code.text == "160" and code.kind == "aa"

    def test_cross_pair_example(self):
        c = BinarySeq.parse("+++--")
        d = BinarySeq.parse("+-++-")
        code = decompose_pair(c, d)
        assert code.text == "640" and code.kind == "cd"

    def test_length_one_is_central_only(self):
        one = BinarySeq.parse("+")
        code = decompose_pair(one, one)
        assert code.quads == () and code.central == 0 and code.text == "0"

    def test_non_quad_pair_rejected(self):
        with pytest.raises(CodeError):
            decompose_pair(BinarySeq.parse("++"), BinarySeq.parse("+-"))

    def test_length_mismatch(self):
        with pytest.raises(CodeError):
            decompose_pair(BinarySeq.parse("++"), BinarySeq.parse("+"))


class TestCompose:
    def test_length_four_row(self):
        p, q = parse_code("16 61", n=4)
        a, a2 = compose_pair(p)
        c, d = compose_pair(q)
        assert str(a) == "++-+" and a == a2
        assert str(c) == "+++-" and c == d

    def test_aa_alphabet_is_enforced(self):
        with pytest.raises(CodeError):
            QuadCode((2,), None, "aa")
        assert QuadCode((6, 1), None, "cd").n == 4

    def test_aa_central_restriction(self):
        with pytest.raises(CodeError):
            QuadCode((1,), 1, "aa")
        assert QuadCode((1,), 1, "cd").central == 1
        assert AA_CENTRALS == frozenset({0, 3})

    def test_length_cross_check(self):
        code = QuadCode((1, 6), None, "aa")
        with pytest.raises(CodeError):
            compose_pair(code, n=5)

    def test_round_trip_random_codes(self, rng):
        for _ in range(300):
            n = rng.randrange(1, 13)
            m = n // 2
            kind = rng.choice(("aa", "cd"))
            alphabet = sorted(AA_QUADS) if kind == "aa" else list(range(1, 9))
            centrals = (0, 3) if kind == "aa" else (0, 1, 2, 3)
            code = QuadCode(
                tuple(rng.choice(alphabet) for _ in range(m)),
                rng.choice(centrals) if n % 2 else None,
                kind,
            )
            x, y = compose_pair(code)
            assert decompose_pair(x, y, kind=kind) == code

    def test_round_trip_exhaustive_small(self):
        # every pair built from codes up to n = 5 survives both directions
        for n in (2, 3, 4, 5):
            m = n // 2
            odd = n % 2 == 1

            def codes(symbols, centrals, kind, prefix=()):
                if len(prefix) == m:
                    if odd:
                        for cen in centrals:
                            yield QuadCode(prefix, cen, kind)
                    else:
                        yield QuadCode(prefix, None, kind)
                    return
                for s in symbols:
                    yield from codes(symbols, centrals, kind, prefix + (s,))

            for code in codes(tuple(range(1, 9)), (0, 1, 2, 3), "cd"):
                x, y = compose_pair(code)
                assert decompose_pair(x, y, kind="cd") == code

    def test_repeated_pair_codes_use_aa_alphabet(self, rng):
        for _ in range(100):
            n = rng.randrange(1, 13)
            seq = BinarySeq(tuple(rng.choice((1, -1)) for _ in range(n)))
            code = decompose_pair(seq, seq)
            assert code.kind == "aa"
            assert all(q in AA_QUADS for q in code.quads)
            assert code.central in (None, 0, 3)


class TestSymmetryType:
    def test_fixed_partition(self):
        assert symmetry_type(1) == "symmetric"
        assert symmetry_type(5) == "skew"
        assert {q for q in range(1, 9) if symmetry_type(q) == "symmetric"} == {1, 2, 7, 8}

    def test_negation_preserves_type(self):
        for q in range(1, 9):
            assert symmetry_type(NEGATE_BOTH[q]) == symmetry_type(q)

    def test_unknown_label(self):
        with pytest.raises(CodeError):
            symmetry_type(9)


def _matrix_map(fn):
    out = {}
    for sym, (tl, tr, bl, br) in QUAD_MATRICES.items():
        image = fn(tl, tr, bl, br)
        match = [s for s, mat in QUAD_MATRICES.items() if mat == image]
        assert len(match) == 1
        out[sym] = match[0]
    return out


class TestSymbolTables:
    def test_tables_match_matrix_actions(self):
        assert NEGATE_BOTH == _matrix_map(lambda tl, tr, bl, br: (-tl, -tr, -bl, -br))
        assert NEGATE_TOP == _matrix_map(lambda tl, tr, bl, br: (-tl, -tr, bl, br))
        assert NEGATE_BOTTOM == _matrix_map(lambda tl, tr, bl, br: (tl, tr, -bl, -br))
        assert SWAP_ROWS == _matrix_map(lambda tl, tr, bl, br: (bl, br, tl, tr))
        assert SWAP_COLS == _matrix_map(lambda tl, tr, bl, br: (tr, tl, br, bl))
        assert REVERSE_TOP == _matrix_map(lambda tl, tr, bl, br: (tr, tl, bl, br))
        assert REVERSE_BOTTOM == _matrix_map(lambda tl, tr, bl, br: (tl, tr, br, bl))

    def test_all_tables_are_involutions(self):
        for table in (
            NEGATE_BOTH,
            NEGATE_TOP,
            NEGATE_BOTTOM,
            SWAP_ROWS,
            SWAP_COLS,
            REVERSE_TOP,
            REVERSE_BOTTOM,
            SWAP_45,
        ):
            assert all(table[table[q]] == q for q in range(1, 9))
        for table in (
            CENTRAL_NEGATE_BOTH,
            CENTRAL_NEGATE_TOP,
            CENTRAL_NEGATE_BOTTOM,
            CENTRAL_SWAP_ROWS,
        ):
            assert all(table[table[z]] == z for z in range(4))

    def test_central_tables_match_column_actions(self):
        for z, (top, bottom) in CENTRAL_COLUMNS.items():
            assert CENTRAL_COLUMNS[CENTRAL_NEGATE_BOTH[z]] == (-top, -bottom)
            assert CENTRAL_COLUMNS[CENTRAL_NEGATE_TOP[z]] == (-top, bottom)
            assert CENTRAL_COLUMNS[CENTRAL_NEGATE_BOTTOM[z]] == (top, -bottom)
            assert CENTRAL_COLUMNS[CENTRAL_SWAP_ROWS[z]] == (bottom, top)

    def test_tables_agree_with_sequence_transforms(self, rng):
        for _ in range(200):
            n = rng.randrange(2, 11)
            code = QuadCode(
                tuple(rng.randrange(1, 9) for _ in range(n // 2)),
                rng.randrange(4) if n % 2 else None,
                "cd",
            )
            x, y = compose_pair(code)
            negated = decompose_pair(negate(x), negate(y), kind="cd")
            assert negated.quads == tuple(NEGATE_BOTH[q] for q in code.quads)
            if code.central is not None:
                assert negated.central == CENTRAL_NEGATE_BOTH[code.central]
            reversed_top = decompose_pair(reverse(x), y, kind="cd")
            assert reversed_top.quads == tuple(REVERSE_TOP[q] for q in code.quads)
            swapped = decompose_pair(y, x, kind="cd")
            assert swapped.quads == tuple(SWAP_ROWS[q] for q in code.quads)
            if code.central is not None:
                assert swapped.central == CENTRAL_SWAP_ROWS[code.central]


class TestParseFormat:
    def test_odd_row_with_central_zero(self):
        p, q = parse_code("1660 6122")
        assert p.n == 7
        assert p.quads == (1, 6, 6) and p.central == 0
        assert q.quads == (6, 1, 2) and q.central == 2

    def test_length_one_row(self):
        p, q = parse_code("0 0")
        assert p.quads == () and p.central == 0 and q.central == 0

    def test_even_reading_rejected_when_digit_is_central_only(self):
        # "1660 6122" cannot be an n=8 row: 0 is not a quad label
        with pytest.raises(CodeError):
            parse_code("1660 6122", n=8)

    def test_normality_breaks_parity_ties(self):
        # structurally valid both ways; only the even reading is normal
        p, q = parse_code("1613 6443")
        assert p.n == 8

    def test_ambiguous_pair_requires_explicit_length(self):
        with pytest.raises(CodeError):
            parse_code("33 33")
        p, q = parse_code("33 33", n=4)
        assert p.n == 4

    def test_non_digit_rejected(self):
        with pytest.raises(CodeError):
            parse_code("16 6x")

    def test_unequal_lengths_rejected(self):
        with pytest.raises(CodeError):
            parse_code("16 611")

    def test_format_round_trip(self):
        text = "1611663138 6441827614"
        assert format_code(*parse_code(text, n=20)) == text

    def test_single_code_rejected(self):
        with pytest.raises(CodeError):
            parse_code("160")


class TestQuadrupleCodecs:
    def test_encode_decode_round_trip(self):
        p, q = parse_code("160 640")
        quad = decode_quadruple(p, q)
        assert encode_quadruple(quad) == (p, q)

    def test_decode_requires_aa_first(self):
        q = QuadCode((6,), None, "cd")
        with pytest.raises(CodeError):
            decode_quadruple(q, q)
