"""Exact arithmetic in the Laurent coefficient ring Q[q, 1/q, pi, 1/pi].

Every structure constant and matrix entry in this package is a finite sum
of terms (rational) * q**j * pi**k with integer j, k.  Keeping pi symbolic
means table identities can be checked with zero tolerance; pi only becomes
a float (or mpf) inside :meth:`RingElem.evaluate`.
"""

from __future__ import annotations

import ast
import math
import re
import sys
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from typing import Optional, Union

Rat = Union[int, Fraction]


def _as_coef(x) -> Rat:
    """Canonical coefficient: an int when integral, else a Fraction."""
    if x.__class__ is int:  # the exact classes first: isinstance of Fraction, a numbers ABC, is slow
        return x
    if x.__class__ is Fraction or isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an int or Fraction coefficient, got {type(x).__name__}")


def _quotient(a: Rat, b: Rat) -> Rat:
    """Exact a / b in canonical form (two ints must not divide to a float)."""
    return _as_coef(Fraction(a) / b)


class RingElem:
    """Immutable element of Q[q, 1/q, pi, 1/pi] in canonical form.

    Canonical form: a mapping (q_pow, pi_pow) -> nonzero coefficient, an
    int when it is integral and a Fraction only otherwise; the zero element
    has no terms.  Sums and products fold an integral Fraction back to int.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Rat] | Iterable = ()):
        data: dict[tuple[int, int], Rat] = {}
        # a plain dict first: the ABC check of Mapping is the slow part of a small element's construction
        items = terms.items() if terms.__class__ is dict or isinstance(terms, Mapping) else terms
        for (j, k), c in items:
            accumulate(data, (int(j), int(k)), _as_coef(c))
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("RingElem is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def monomial(coef: Rat, q_pow: int = 0, pi_pow: int = 0) -> "RingElem":
        return RingElem({(q_pow, pi_pow): coef})

    @staticmethod
    def rational(num: int, den: int = 1) -> "RingElem":
        return RingElem({(0, 0): Fraction(num, den)})

    @staticmethod
    def qpow(j: int) -> "RingElem":
        return RingElem({(j, 0): 1})

    @staticmethod
    def pipow(k: int) -> "RingElem":
        return RingElem({(0, k): 1})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def as_monomial(self) -> Optional[tuple[Rat, int, int]]:
        """(coef, q_pow, pi_pow) if this is a single term, else None."""
        if len(self._terms) != 1:
            return None
        (j, k), c = next(iter(self._terms.items()))
        return c, j, k

    def terms(self) -> Iterator[tuple[int, int, Rat]]:
        """Yield (q_pow, pi_pow, coef) in canonical (q_pow, pi_pow) order."""
        for (j, k) in sorted(self._terms):
            yield j, k, self._terms[(j, k)]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> Optional["RingElem"]:
        """other as a RingElem: itself, or the constant of an int or Fraction; None for anything else."""
        if isinstance(other, RingElem):
            return other
        if isinstance(other, (int, Fraction)):
            return RingElem.monomial(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _element(sum_terms(self._terms, other._terms, False))

    __radd__ = __add__

    def __neg__(self):
        return _element({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _element(sum_terms(self._terms, other._terms, True))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _element(sum_terms(other._terms, self._terms, True))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data: dict[tuple[int, int], Rat] = {}
        for (j1, k1), c1 in self._terms.items():
            for (j2, k2), c2 in other._terms.items():
                accumulate(data, (j1 + j2, k1 + k2), c1 * c2)
        return _element(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingElem":
        """self**n for an int n; a negative n only for a monomial, the units of the ring."""
        if n < 0:
            return self.invert_monomial() ** -n
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def invert_monomial(self) -> "RingElem":
        """Inverse of a single-term element; raises on zero or sums."""
        mono = self.as_monomial()
        if mono is None:
            if self.is_zero:
                raise ZeroDivisionError("cannot invert the zero ring element")
            raise ValueError(f"not a monomial, cannot invert directly: {self}")
        c, j, k = mono
        return RingElem.monomial(_quotient(1, c), -j, -k)

    def divide_exact(self, other: "RingElem") -> Optional["RingElem"]:
        """Exact quotient self/other in the Laurent ring, or None.

        Units of the ring are exactly the monomials, so divisibility reduces
        to plain polynomial division after shifting minimal exponents to zero.
        """
        if other.is_zero:
            raise ZeroDivisionError("division by the zero ring element")
        if self.is_zero:
            return ZERO
        mono = other.as_monomial()
        if mono is not None:
            return self * other.invert_monomial()
        # Shift both operands into Q[q, pi]; the quotient picks up the
        # difference of the shifts (a pure monomial, hence a unit).
        min_jq = min(j for (j, _k) in self._terms)
        min_jp = min(k for (_j, k) in self._terms)
        min_oq = min(j for (j, _k) in other._terms)
        min_op = min(k for (_j, k) in other._terms)
        num = {(j - min_jq, k - min_jp): c for (j, k), c in self._terms.items()}
        den = {(j - min_oq, k - min_op): c for (j, k), c in other._terms.items()}
        quot = _poly_divide_exact(num, den)
        if quot is None:
            return None
        shifted = {(j + min_jq - min_oq, k + min_jp - min_op): c for (j, k), c in quot.items()}
        return RingElem(shifted)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, q):
        """Numeric value at wave number q with pi replaced by its constant.

        An mpmath mpf q evaluates at the active mpmath precision; any other
        real q (an int, a float, a numpy scalar) evaluates in double
        precision, as float(q).  An mpf term is mpf(num) / den * q**j *
        pi**k, the terms added in order from the first; a +-1 coefficient
        over 1 and a pi**0 factor are left out, since multiplying by them is
        exact.
        """
        if isinstance(q, (int, float)) or not is_mpf(q):
            return float_sum(self.float_terms(), float(q))
        import mpmath

        pi = None
        total = None
        for (j, k), c in self._terms.items():
            if c == 1:
                term = q**j
            elif c == -1:
                term = -(q**j)
            else:
                term = mpmath.mpf(c.numerator) / c.denominator * q**j
            if k:
                if pi is None:
                    pi = +mpmath.mp.pi
                term = term * pi**k
            total = term if total is None else total + term
        return mpmath.mpf(0) if total is None else total

    def float_terms(self) -> tuple:
        """((float(coef), q_pow, pi**pi_pow), ...): the terms float evaluation sums, in its order."""
        return tuple((float(c), j, math.pi**k) for (j, k), c in self._terms.items())

    # -- comparisons, hashing, repr ----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"RingElem({self})" if self._terms else "RingElem(0)"

    def __str__(self):
        return format_ring(self)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"num": str(c.numerator), "den": str(c.denominator), "q": j, "pi": k}
                for j, k, c in self.terms()
            ]
        }

    @staticmethod
    def from_json_dict(d: dict) -> "RingElem":
        """The inverse of to_json_dict; ValueError on any other shape.

        The message names an unknown key, a field that is no integer, a
        zero denominator, or the second of two terms with the same q and pi
        powers: to_json_dict writes each power pair once.
        """
        try:
            _json_keys(d, _ELEMENT_KEYS, "ring element")
            terms = {}
            for t in d["terms"]:
                _json_keys(t, _TERM_KEYS, "ring term")
                key = (_json_int(t, "q"), _json_int(t, "pi"))
                if key in terms:
                    raise ValueError(f"a second term with q = {key[0]}, pi = {key[1]} in ring term {t!r}")
                terms[key] = Fraction(_json_int(t, "num"), _json_int(t, "den"))
            return RingElem(terms)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in ring element {d!r}") from None
        except (KeyError, TypeError):
            raise ValueError(f'a ring element must be {{"terms": [{{num, den, q, pi}}, ...]}}, got {d!r}') from None


_ELEMENT_KEYS = {"terms"}
_TERM_KEYS = {"num", "den", "q", "pi"}


def _json_keys(d, allowed: set, what: str) -> None:
    """A ValueError naming the first key of a dict d that is not allowed; a d that is no dict is left to the caller."""
    for key in d if isinstance(d, dict) else ():
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {what} {d!r}")


def _json_int(term: dict, field: str) -> int:
    """An int (not a bool) at term[field], or for num and den a string of one; else a ValueError naming the term."""
    value = term[field]
    if value.__class__ is int or (field in ("num", "den") and value.__class__ is str and re.fullmatch("-?[0-9]+", value)):
        return int(value)
    raise ValueError(f"{field} must be an integer in ring term {term!r}, got {value!r}")


def sum_terms(a: dict, b: dict, subtract: bool) -> dict:
    """a + b, or a - b when subtract, of two canonical term maps, in canonical form.

    The keys may be of any kind: a RingElem's (q_pow, pi_pow), or a
    `matrices.Mat4`'s (row, col, q_pow, pi_pow).  The terms of a come
    first, in their order, then b's new terms in theirs; a term that
    cancels is dropped.
    """
    data = dict(a)
    for key, c in b.items():
        tot = data.get(key, 0)
        tot = tot - c if subtract else tot + c
        if tot == 0:
            data.pop(key, None)
        elif tot.__class__ is Fraction and tot.denominator == 1:
            data[key] = tot.numerator
        else:
            data[key] = tot
    return data


def accumulate(terms: dict, key: tuple, value) -> None:
    """terms[key] += value, in canonical form: a zero sum leaves the map, an integral Fraction becomes an int.

    The keys may be of any kind, as in `sum_terms`.
    """
    tot = terms.get(key, 0) + value
    if tot == 0:
        terms.pop(key, None)
    elif tot.__class__ is Fraction and tot.denominator == 1:
        terms[key] = tot.numerator
    else:
        terms[key] = tot


def _element(terms: dict) -> RingElem:
    """The RingElem of a canonical term map, taken as it is: neither copied nor checked."""
    out = RingElem.__new__(RingElem)
    object.__setattr__(out, "_terms", terms)
    return out


ZERO = RingElem()
ONE = RingElem.monomial(1)


def is_mpf(q) -> bool:
    """Whether q is an mpmath mpf, the one real type that evaluates at mpmath precision."""
    mpmath = sys.modules.get("mpmath")  # an mpf can only exist once mpmath is imported
    return mpmath is not None and isinstance(q, mpmath.mpf)


def float_sum(terms: tuple, q: float) -> float:
    """The float64 value at q of compiled terms: coef * q**q_pow * pi_term added to 0.0 in order.

    The one float evaluation of a ring element, so an entry evaluates to the
    same bits whichever caller compiled its terms: `RingElem.evaluate` and
    `matrices.entries_at`, which sums only a matrix's nonzero entries for
    `matrices.eval_rows` and `flows.closed_flow`.  A zero entry has no terms
    and is never summed here; its callers write their own zero (0.0 in
    `eval_rows`, the flow's `factor * 0` in `closed_flow`).
    """
    total = 0.0
    for coef, j, pik in terms:
        total += coef * q**j * pik
    return total


def _poly_divide_exact(num: dict, den: dict) -> Optional[dict]:
    """Exact division in Q[q, pi] under lex term order; None if not divisible."""
    lead_den = max(den)
    c_den = den[lead_den]
    rem = dict(num)
    quot: dict[tuple[int, int], Rat] = {}
    while rem:
        lead = max(rem)
        dj, dk = lead[0] - lead_den[0], lead[1] - lead_den[1]
        if dj < 0 or dk < 0:
            return None
        c = _quotient(rem[lead], c_den)
        quot[(dj, dk)] = c
        for (j, k), cd in den.items():
            accumulate(rem, (j + dj, k + dk), -c * cd)
    return quot


# ---------------------------------------------------------------------------
# Fraction field
# ---------------------------------------------------------------------------


class FieldElem:
    """Quotient num/den of ring elements; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: RingElem, den: RingElem = ONE):
        if den.is_zero:
            raise ZeroDivisionError("fraction with zero denominator")
        # Normalize: monomial denominators are units and fold into num;
        # otherwise try full exact division to keep intermediates small.
        if den.is_monomial:
            num = num * den.invert_monomial()
            den = ONE
        else:
            quot = num.divide_exact(den)
            if quot is not None:
                num, den = quot, ONE
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "FieldElem") -> "FieldElem":
        return FieldElem(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return FieldElem(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "FieldElem":
        return FieldElem(-self.num, self.den)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        return FieldElem(self.num * other.num, self.den * other.den)

    def invert(self) -> "FieldElem":
        if self.num.is_zero:
            raise ZeroDivisionError("singular elimination pivot: inverting a zero fraction")
        return FieldElem(self.den, self.num)

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.invert()

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("FieldElem is unhashable (equality is by cross-multiplication)")

    def to_ring(self) -> Optional[RingElem]:
        """The exact ring value of this fraction, or None if it is not one."""
        return self.num.divide_exact(self.den)

    def __repr__(self):
        if self.den == ONE:
            return f"FieldElem({self.num})"
        return f"FieldElem(({self.num}) / ({self.den}))"


# ---------------------------------------------------------------------------
# Formatting and parsing of the compact text form, e.g. "-q^4/(8pi)": Python
# arithmetic on integers, q, pi and names, in which ^ is a power and two
# factors side by side multiply, linear in the names.
# ---------------------------------------------------------------------------


def _format_term(c: Rat, j: int, k: int) -> str:
    """The term c q^j pi^k without its sign, e.g. 'q^4/(8 pi)' of c = -1/8."""
    num_parts = []
    den_parts = []
    if abs(c.numerator) != 1:
        num_parts.append(str(abs(c.numerator)))
    if c.denominator != 1:
        den_parts.append(str(c.denominator))

    def sym(name: str, power: int, bucket: list[str]) -> None:
        if power == 1:
            bucket.append(name)
        elif power != 0:
            bucket.append(f"{name}^{abs(power)}" if power > 0 else f"{name}^{power}")

    if j >= 0:
        sym("q", j, num_parts)
    else:
        sym("q", -j, den_parts)
    if k >= 0:
        sym("pi", k, num_parts)
    else:
        sym("pi", -k, den_parts)
    num = " ".join(num_parts) if num_parts else "1"
    if not den_parts:
        return num
    den = " ".join(den_parts)
    if len(den_parts) > 1 or not den_parts[0].isdigit():
        den = f"({den})"
    return f"{num}/{den}"


def signed_sum(pieces: Iterable[tuple[bool, str]]) -> str:
    """'a - b + c' of (negative, text) pieces: '-' before a negative first piece, ' - ' or ' + ' before the others; '0' of none."""
    out = []
    for negative, text in pieces:
        sign = ("- " if negative else "+ ") if out else ("-" if negative else "")
        out.append(sign + text)
    return " ".join(out) or "0"


def format_ring(x: RingElem) -> str:
    """Human-readable form: '0', 'q^2', '-q^4/(8 pi)', '1/2 + 1/(128 pi^2)'."""
    return signed_sum((c < 0, _format_term(c, j, k)) for j, k, c in x.terms())


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(pi)|([A-Za-z][A-Za-z0-9]*)|(\^-?\d+)|([()+\-*/]))")


def _python_expression(text: str) -> str:
    """The text as Python: '^k' becomes '**(k)', and '*' joins two factors side by side."""
    out = []
    pos = 0
    after_factor = False
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize {text!r} at position {pos}")
        number, _pi, _name, power, punct = m.groups()
        if power:
            out.append(f"**({int(power[1:])})")
        else:
            if after_factor and punct in (None, "("):
                out.append("*")
            out.append(str(int(number)) if number else m.group(m.lastindex))
        after_factor = punct in (None, ")")
        pos = m.end()
    return "".join(out)


_POWERS = {"q": RingElem.qpow, "pi": RingElem.pipow}  # the symbols that take a power


def _scaled(combo: dict, factor) -> dict:
    return {k: v * factor for k, v in combo.items()}


def _combination(node: ast.expr, names) -> dict:
    """The value of a parsed expression as {None: ring scalar, name: ring coefficient}."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return {None: RingElem.monomial(node.value)}
    if isinstance(node, ast.Name) and node.id in _POWERS:
        return {None: _POWERS[node.id](1)}
    if isinstance(node, ast.Name) and node.id in names:
        return {node.id: ONE}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _combination(node.operand, names)
        return _scaled(value, -1) if isinstance(node.op, ast.USub) else value
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow))):
        raise ValueError(f"{ast.unparse(node)!r} is not a number, q, pi or an allowed name, nor +, -, * or / of them")
    if isinstance(node.op, ast.Pow):
        negative = isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)
        exponent = node.right.operand if negative else node.right
        if not (isinstance(node.left, ast.Name) and node.left.id in _POWERS
                and isinstance(exponent, ast.Constant) and type(exponent.value) is int):
            raise ValueError(f"only q and pi take a power, an integer one: {ast.unparse(node)!r}")
        return {None: _POWERS[node.left.id](-exponent.value if negative else exponent.value)}
    left = _combination(node.left, names)
    right = _combination(node.right, names)
    if isinstance(node.op, ast.Sub):
        right = _scaled(right, -1)
    if isinstance(node.op, (ast.Add, ast.Sub)):
        return {k: left.get(k, ZERO) + right.get(k, ZERO) for k in {**left, **right}}
    if isinstance(node.op, ast.Mult) and left.keys() <= {None}:
        left, right = right, left  # the named factor, if there is one, goes first
    if not right.keys() <= {None}:
        raise ValueError(f"not linear in the names: {ast.unparse(node)!r}")
    factor = right.get(None, ZERO)
    return _scaled(left, factor.invert_monomial() if isinstance(node.op, ast.Div) else factor)


def _parse(text: str, names) -> dict:
    """The text as a linear combination; it is parsed, never compiled or evaluated."""
    try:
        tree = ast.parse(_python_expression(text), mode="eval")
        return _combination(tree.body, names)
    except (SyntaxError, RecursionError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} ({type(exc).__name__})") from None


def parse_ring(text: str) -> RingElem:
    """Parse a pure ring element, e.g. '-q^2/(4pi)' or '1/2 + 1/(128 pi^2)'."""
    return _parse(text, names=()).get(None, ZERO)


def parse_linear(text: str, names: set) -> dict[str, RingElem]:
    """Parse a linear combination of named symbols with ring coefficients.

    '0' parses to the empty combination; stray constant terms are rejected
    (write them as explicit multiples of the identity symbol instead).
    """
    combo = _parse(text, names)
    if not combo.pop(None, ZERO).is_zero:
        raise ValueError(f"stray constant term in {text!r}; use an explicit symbol")
    return {k: v for k, v in combo.items() if not v.is_zero}
