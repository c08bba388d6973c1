"""Text grammar for polynomials over the Puiseux coefficient field.

Accepted inputs look like::

    (x-2)^2 + (y-2)^2 - 1
    2x + 3y - 5
    2 - 1/3*t^(1/2) + t^2
    x^(-1)*y - t^(3/2)

Variables are x, y, z for up to three unknowns or x1, x2, ... in general;
t is the series parameter and may carry rational exponents (parenthesized
when fractional or negative).  Variable exponents must be integers, and
negative exponents are allowed only on single variables, keeping the
expansion exact.  Multiplication may be written with '*' or by
juxtaposition ('2x').  Rational literals are 'p' or 'p/q'.  A text uses
at most ``MAX_VARS`` variables: a larger variable index, or a larger
explicit ``nvars``, is a :class:`~tropreal.errors.ParseError`, and so is a
negative ``nvars``.  A power
or product that could expand to more than ``MAX_TERMS`` terms is one too,
and so is a power of one term, or a product, whose coefficients could
pass ``MAX_POWER_BITS`` bits; both are raised before anything is expanded.
So are parentheses and unary minus signs nested deeper than ``MAX_NESTING``.
So is a result with a variable exponent beyond ``MAX_EXPONENT``.

The parser has no polynomial arithmetic of its own: every literal,
variable and power of t becomes a :class:`~tropreal.troppoly.PolyK`, and
sums, products and powers are those of ``PolyK``, so the result is
expanded and normalized as it is built.  The whole text is tokenized
first, which fixes the number of variables before parsing starts.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional

from .errors import ParseError
from .puiseux import PS_ONE, PuiseuxSeries
from .troppoly import PolyK

_ALIASES = {"x": 0, "y": 1, "z": 2}

# The most variables a text may use.  Every term stores one exponent per
# variable, so an unbounded index (x2000000) would cost memory in proportion.
MAX_VARS = 64

# The most terms a power or a product may expand to, counting each power of
# t in a coefficient as a term of its own.  Expansion time grows faster than
# the term count ((x+1)^1000 alone takes seconds), so a short text could
# otherwise run for minutes.  A power of n terms is checked against
# comb(n+k-1, k), the number of its possible monomials, and a product
# against len(a)*len(b).
MAX_TERMS = 256

# The most parentheses and unary minus signs an atom may sit inside.  The
# parser recurses on each of them, so 5,000 of either overflowed the
# interpreter's stack; a parenthesis takes four frames, and 100 of them stay
# well inside the default limit of 1,000.
MAX_NESTING = 100

# The most bits a power or a product may give a coefficient.  A power of
# one term passes the term budget, but c^k has up to k times the bits of c,
# and the time to build it grows faster than k (7^10000000 took 22 s).  A
# power is refused, before it is computed, when k times the longest bit
# length of a coefficient's numerator or denominator exceeds this, and a
# product when the sum of its factors' longest bit lengths does, so a chain
# of powers (7^3000*7^3000*...) cannot pass it one factor at a time.  The
# bound also keeps a coefficient within the 4300 digits Python converts to
# text.
MAX_POWER_BITS = 10_000

# The largest magnitude of an exponent of a variable, in JSON input and in a
# parsed text.  Sampling a description takes time that grows with its
# exponents: the circle with one exponent set to 10**7 took 17 s, and with
# 2**70 it did not end.  A text is checked once parsed: powers and products
# can pass the bound ((x^10000)^10000, x^10000*x^10000).
MAX_EXPONENT = MAX_POWER_BITS

# The most raster nodes a side of an SVG figure may have (``--grid`` of
# ``region`` and ``figures``).  Each node is an exact membership test, so
# the time grows with the square of the grid: the circle's ``region --svg``
# took 0.4 s at the default 160, 1.0 s at 320 and 8.5 s at 1024 on a 2-vCPU
# VM, and this bound keeps a figure to about ten seconds.
MAX_GRID = 1024

# The most variables ``region --orthant all`` takes: it computes 3^n
# regions.  With ``x1 - 1`` it took 1.6 s at n = 10, 5.3 s at 11 and 18.5 s
# at 12; at n = 20 (700 bytes of JSON) it ran out of memory in
# ``polyhedra.all_orthants`` under an 800 MB address-space limit.
MAX_ALL_ORTHANT_VARS = 10


def _size(f: PolyK) -> int:
    """The terms of f as a polynomial in the variables and t."""
    return sum(len(c.terms) for _, c in f.terms)


def _check_budget(bound: int, what: str) -> None:
    if bound > MAX_TERMS:
        raise ParseError(f"{what} could expand to more than {MAX_TERMS} terms")


def _bits(f: PolyK) -> int:
    """The longest numerator or denominator among the coefficients of f, in bits."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for _, s in f.terms for _, c in s.terms),
        default=0,
    )


def _check_bits(bits: int, what: str) -> None:
    if bits > MAX_POWER_BITS:
        raise ParseError(f"{what} could give a coefficient of more than {MAX_POWER_BITS} bits")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str]] = []
        self._scan()
        self.idx = 0

    def _scan(self) -> None:
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdecimal():
                j = i
                while j < n and t[j].isdecimal():
                    j += 1
                self.tokens.append(("NUM", t[i:j]))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and (t[j].isalnum()):
                    j += 1
                self.tokens.append(("IDENT", t[i:j]))
                i = j
                continue
            if ch in "+-*^()/":
                self.tokens.append((ch, ch))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r} at position {i}")

    def peek(self, k: int = 0) -> Optional[tuple[str, str]]:
        j = self.idx + k
        return self.tokens[j] if j < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.idx += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}")
        return tok


class _Parser:
    """Recursive descent building :class:`PolyK` values of one fixed width.

    The width is ``nvars`` when given, otherwise one more than the largest
    variable index among the tokens.  A variable at or beyond a given width
    parses as the constant one (all its exponents are dropped), and
    :meth:`parse` rejects the text once the rest of it has parsed.
    """

    def __init__(self, text: str, nvars: Optional[int]):
        if nvars is not None and nvars > MAX_VARS:
            raise ParseError(f"nvars={nvars} exceeds the limit of {MAX_VARS} variables")
        if nvars is not None and nvars < 0:
            raise ParseError(f"nvars={nvars} is negative")
        self.lx = _Lexer(text)
        self.depth = 0
        known = (_var_index(t) for kind, t in self.lx.tokens if kind == "IDENT")
        self.max_var = max((k for k in known if k is not None), default=-1)
        self.nvars = nvars if nvars is not None else self.max_var + 1

    def parse(self) -> PolyK:
        poly = self._expr()
        if self.lx.peek() is not None:
            raise ParseError(f"trailing input near {self.lx.peek()[1]!r}")
        if self.max_var + 1 > self.nvars:
            raise ParseError(
                f"variable index {self.max_var + 1} exceeds nvars={self.nvars}"
            )
        if any(abs(k) > MAX_EXPONENT for exps, _ in poly.terms for k in exps):
            raise ParseError(f"an exponent of a variable is beyond MAX_EXPONENT={MAX_EXPONENT}")
        return poly

    def _const(self, c: PuiseuxSeries) -> PolyK:
        return PolyK.const(self.nvars, c)

    def _var_power(self, idx: int, k: int) -> PolyK:
        exps = tuple(k if i == idx else 0 for i in range(self.nvars))
        return PolyK.monomial(self.nvars, exps, PS_ONE)

    # -- grammar -----------------------------------------------------------

    def _expr(self) -> PolyK:
        tok = self.lx.peek()
        if tok and tok[0] in "+-":
            self.lx.next()
        acc = self._term()
        if tok and tok[0] == "-":
            acc = -acc
        while True:
            tok = self.lx.peek()
            if tok is None or tok[0] not in "+-":
                break
            self.lx.next()
            rhs = self._term()
            acc = acc - rhs if tok[0] == "-" else acc + rhs
        return acc

    def _term(self) -> PolyK:
        acc = self._factor()
        while (tok := self.lx.peek()) is not None:
            if tok[0] == "*":
                self.lx.next()
            elif tok[0] not in ("IDENT", "("):
                break
            rhs = self._factor()
            _check_budget(_size(acc) * _size(rhs), "a product")
            _check_bits(_bits(acc) + _bits(rhs), "a product")
            acc = acc * rhs
        return acc

    def _factor(self) -> PolyK:
        base, atom_kind = self._atom()
        tok = self.lx.peek()
        if tok and tok[0] == "^":
            self.lx.next()
            exp = self._exponent()
            if atom_kind == "t":
                return self._const(PuiseuxSeries.t_power(exp))
            if exp.denominator != 1:
                raise ParseError("variable exponents must be integers")
            k = int(exp)
            if isinstance(atom_kind, int):
                return self._var_power(atom_kind, k)
            if k < 0:
                raise ParseError("negative exponents only on single variables or t")
            n = _size(base)
            # for n > 1 the bound is at least k + 1, so a large k needs no comb
            if n > 1:
                _check_budget(k + 1 if k >= MAX_TERMS else comb(n + k - 1, k), f"a power ^{k}")
            _check_bits(k * _bits(base), f"a power ^{k}")
            return base**k
        return base

    def _atom(self) -> tuple[PolyK, str | int]:
        """The next atom and its kind: "num", "t", "expr", or a variable index."""
        tok = self.lx.next()
        kind, text = tok
        if kind == "NUM":
            num = Fraction(_numeral(text))
            nxt = self.lx.peek()
            if nxt and nxt[0] == "/":
                after = self.lx.peek(1)
                if after and after[0] == "NUM":
                    self.lx.next()
                    den = _numeral(self.lx.next()[1])
                    if den == 0:
                        raise ParseError("zero denominator")
                    num = Fraction(num.numerator, den)
                else:
                    raise ParseError("'/' is only for rational literals")
            return self._const(PuiseuxSeries.const(num)), "num"
        if kind == "IDENT":
            if text == "t":
                return self._const(PuiseuxSeries.t_power(1)), "t"
            idx = _var_index(text)
            if idx is None:
                raise ParseError(f"unknown variable {text!r}")
            return self._var_power(idx, 1), idx
        if kind not in ("(", "-"):
            raise ParseError(f"unexpected token {text!r}")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses and signs nest deeper than MAX_NESTING={MAX_NESTING}")
        if kind == "(":
            inner = self._expr()
            self.lx.expect(")")
        else:
            inner = -self._atom()[0]
        self.depth -= 1
        return inner, "expr"

    def _exponent(self) -> Fraction:
        tok = self.lx.peek()
        if tok and tok[0] == "(":
            self.lx.next()
            value = self._signed_rational()
            self.lx.expect(")")
            return value
        return self._signed_rational()

    def _signed_rational(self) -> Fraction:
        sign = 1
        tok = self.lx.peek()
        if tok and tok[0] in "+-":
            self.lx.next()
            sign = -1 if tok[0] == "-" else 1
        num = _numeral(self.lx.expect("NUM")[1])
        tok = self.lx.peek()
        if tok and tok[0] == "/":
            self.lx.next()
            den = _numeral(self.lx.expect("NUM")[1])
            if den == 0:
                raise ParseError("zero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def _numeral(text: str) -> int:
    """The value of a NUM token; a numeral longer than Python converts is a ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"numeral of {len(text)} digits is too long") from None


def _var_index(name: str) -> Optional[int]:
    """The index of a variable name, or None when the name is not one.

    Raises :class:`ParseError` for a variable beyond ``MAX_VARS``.
    """
    if name in _ALIASES:
        return _ALIASES[name]
    if name[0] != "x" or not name[1:].isdecimal():
        return None
    number = name[1:].lstrip("0")
    if len(number) > len(str(MAX_VARS)) or int(number or 0) > MAX_VARS:
        shown = name if len(name) <= 12 else name[:10] + "..."
        raise ParseError(f"variable {shown!r} exceeds the limit of {MAX_VARS} variables")
    return int(number) - 1 if number else None


def parse_polyk(text: str, nvars: Optional[int] = None) -> PolyK:
    """Parse polynomial text into an expanded, normalized :class:`PolyK`."""
    return _Parser(text, nvars).parse()


def parse_puiseux(text: str) -> PuiseuxSeries:
    """Parse a pure-t expression like '2 - 1/3*t^(1/2) + t^2'."""
    poly = parse_polyk(text, nvars=0)
    if poly.is_zero():
        return PuiseuxSeries.zero()
    ((exps, coeff),) = poly.terms
    assert exps == ()
    return coeff
