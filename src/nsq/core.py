"""Algebra of binary (+1/-1) sequences: nonperiodic autocorrelation,
the three unary transforms, and the base/normal sequence predicates."""

from __future__ import annotations

from operator import mul


class SequenceError(ValueError):
    """Raised for malformed sequences or mismatched lengths."""


class _Value:
    """Base of the immutable value types.

    Equality, hashing, repr and pickling read the fields named in
    _fields, in order; each subclass's __init__ validates its input and
    stores it with object.__setattr__.  Assigning or deleting an
    attribute afterwards raises AttributeError, as for a frozen
    dataclass, without loading dataclasses (and inspect) at import.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _validated_terms(terms) -> tuple[int, ...]:
    out = tuple(int(t) for t in terms)
    if not out:
        raise SequenceError("a sequence needs at least one term")
    if any(t not in (1, -1) for t in out):
        raise SequenceError("sequence terms must be +1 or -1")
    return out


class BinarySeq(_Value):
    """Fixed-length sequence whose terms are all +1 or -1."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", _validated_terms(terms))

    @classmethod
    def parse(cls, text: str) -> "BinarySeq":
        """Parse '+-+' or '+,-,+' (commas and spaces are ignored)."""
        cleaned = text.replace(",", "").replace(" ", "").replace("−", "-")
        try:
            terms = tuple({"+": 1, "-": -1}[ch] for ch in cleaned)
        except KeyError as exc:
            raise SequenceError(
                f"unexpected character {exc.args[0]!r} in sequence {text!r}"
            ) from None
        return cls(terms)

    @property
    def n(self) -> int:
        return len(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, i):
        return self.terms[i]

    def __str__(self) -> str:
        return "".join("+" if t == 1 else "-" for t in self.terms)


class NpafTable(_Value):
    """One-sided autocorrelation values for shifts 0..n-1.

    Values at negative shifts mirror the positive ones, and every shift
    at or beyond n is zero, so the one-sided table is complete.
    """

    __slots__ = _fields = ("values", "n")

    def __init__(self, values: tuple[int, ...], n: int):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", n)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


class NormalQuadruple(_Value):
    """Candidate normal sequences (A;A;C;D), stored as the triple (A;C;D).

    The constructor only enforces the shared length; use is_normal() for
    the autocorrelation condition.
    """

    __slots__ = _fields = ("a", "c", "d")

    def __init__(self, a: BinarySeq, c: BinarySeq, d: BinarySeq):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        if not (len(a) == len(c) == len(d)):
            raise SequenceError("A, C and D must share one length")

    @property
    def n(self) -> int:
        return len(self.a)

    def raw(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        return (self.a.terms, self.c.terms, self.d.terms)

    @classmethod
    def from_raw(cls, raw) -> "NormalQuadruple":
        a, c, d = raw
        return cls(BinarySeq(a), BinarySeq(c), BinarySeq(d))


class BaseQuadruple(_Value):
    """Base-sequence candidate (A;B;C;D) with |A|=|B| and |C|=|D|."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: BinarySeq, b: BinarySeq, c: BinarySeq, d: BinarySeq):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        if len(a) != len(b) or len(c) != len(d):
            raise SequenceError("A,B must share one length and C,D another")

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.c)


def npaf(s: BinarySeq) -> NpafTable:
    """Nonperiodic autocorrelation of a single sequence."""
    t = s.terms
    n = len(t)
    # map stops at the shorter sequence, t[i:], so each shift sums its
    # n - i products.
    values = tuple(sum(map(mul, t, t[i:])) for i in range(n))
    return NpafTable(values, n)


def npaf_sum(quad: NormalQuadruple) -> NpafTable:
    """The combined table 2*N_A + N_C + N_D; entry 0 is 4n."""
    na = npaf(quad.a)
    nc = npaf(quad.c)
    nd = npaf(quad.d)
    values = tuple(2 * na[i] + nc[i] + nd[i] for i in range(quad.n))
    return NpafTable(values, quad.n)


def negate(s: BinarySeq) -> BinarySeq:
    return BinarySeq(tuple(-t for t in s.terms))


def reverse(s: BinarySeq) -> BinarySeq:
    return BinarySeq(s.terms[::-1])


def alternate(s: BinarySeq) -> BinarySeq:
    """Flip the sign of every even-position term (positions 2, 4, ...)."""
    return BinarySeq(tuple(t if i % 2 == 0 else -t for i, t in enumerate(s.terms)))


def concat(s: BinarySeq, t: BinarySeq) -> BinarySeq:
    return BinarySeq(s.terms + t.terms)


def is_base_sequences(a: BinarySeq, b: BinarySeq, c: BinarySeq, d: BinarySeq) -> bool:
    """Whether the four autocorrelation tables cancel at every nonzero shift."""
    if len(a) != len(b) or len(c) != len(d):
        raise SequenceError("A,B must share one length and C,D another")
    tables = [npaf(x) for x in (a, b, c, d)]

    def val(tbl: NpafTable, i: int) -> int:
        return tbl[i] if i < tbl.n else 0

    top = max(len(a), len(c))
    return all(sum(val(tbl, i) for tbl in tables) == 0 for i in range(1, top))


def is_normal(quad: NormalQuadruple) -> bool:
    """Whether 2*N_A + N_C + N_D vanishes at every nonzero shift."""
    # npaf_sum's values, summed on the terms without building its tables
    a, c, d = quad.a.terms, quad.c.terms, quad.d.terms
    return not any(
        2 * sum(map(mul, a, a[i:])) + sum(map(mul, c, c[i:])) + sum(map(mul, d, d[i:]))
        for i in range(1, len(a))
    )


def three_squares_feasible(n: int) -> bool:
    """Whether 2n is a sum of three squares (false forces NS(n) empty)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    m = 2 * n
    while m % 4 == 0:
        m //= 4
    return m % 8 != 7


def embed_bs(quad: NormalQuadruple) -> BaseQuadruple:
    """Embed a normal quadruple as (A,+; A,-; C; D) of shape (n+1, n)."""
    if not is_normal(quad):
        raise SequenceError("only a normal quadruple embeds into BS(n+1, n)")
    plus = BinarySeq((1,))
    minus = BinarySeq((-1,))
    return BaseQuadruple(concat(quad.a, plus), concat(quad.a, minus), quad.c, quad.d)
