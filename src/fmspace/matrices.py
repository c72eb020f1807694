"""Exact 4x4 matrices over the coefficient ring, the metric, and the form.

Index convention: entry (mu, nu) is row mu, column nu, both 0-based; the
counter-diagonal runs from (0,3) to (3,0).

A `Mat4` is one flat term map {(row, col, q_pow, pi_pow): coefficient}:
each nonzero entry's `RingElem` terms, keyed by where the entry sits, with
coefficients in the ring's canonical form (an int when integral, else a
Fraction).  Its arithmetic and comparisons work on the map and build no
RingElem; an entry is built on demand, with its terms in the map's order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .ring import ZERO, RingElem, _as_coef, _element, accumulate, float_sum, is_mpf, sum_terms

Scalar = Union["RingElem", int, Fraction]


def _as_ring(x) -> RingElem:
    ring = RingElem._coerce(x)
    if ring is None:
        raise TypeError(f"expected a ring element, got {type(x).__name__}")
    return ring


class Mat4:
    """Immutable 4x4 matrix with RingElem entries, held as one flat term map.

    `_terms` maps (row, col, q_pow, pi_pow) to a nonzero coefficient; an
    absent entry is zero.  Two slots are compiled on first use: the float
    terms of the entries (`float_terms`), and the terms indexed by row
    (`_by_row`), which `@` reads from its right operand.
    """

    __slots__ = ("_terms", "_by_row", "_float_terms")

    def __init__(self, rows: Iterable[Iterable]):
        mat = tuple(tuple(_as_ring(x) for x in row) for row in rows)
        if len(mat) != 4 or any(len(r) != 4 for r in mat):
            raise ValueError("Mat4 requires a 4x4 grid of entries")
        terms = {
            (r, c, *key): coef for r, row in enumerate(mat) for c, x in enumerate(row) for key, coef in x._terms.items()
        }
        object.__setattr__(self, "_terms", terms)

    @staticmethod
    def _of(terms: dict) -> "Mat4":
        """Wrap a canonical flat term map without copying it."""
        out = Mat4.__new__(Mat4)
        object.__setattr__(out, "_terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Mat4 is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Mat4":
        return Mat4._of({})

    @staticmethod
    def identity() -> "Mat4":
        return Mat4._of({(i, i, 0, 0): 1 for i in range(4)})

    @staticmethod
    def from_entries(entries: Iterable[tuple]) -> "Mat4":
        """Build from (row, col, coef, q_pow, pi_pow) tuples; trailing powers optional, terms of one entry summed."""
        terms: dict[tuple, object] = {}
        for r, c, coef, j, k in ((*entry, 0, 0)[:5] for entry in entries):
            accumulate(terms, (r, c, int(j), int(k)), _as_coef(coef))
        return Mat4._of(terms)

    # -- access ------------------------------------------------------------

    def _entry_terms(self) -> dict:
        """(row, col) -> that entry's term map {(q_pow, pi_pow): coef}, in the flat map's order."""
        out: dict[tuple[int, int], dict] = {}
        for (r, c, j, k), coef in self._terms.items():
            out.setdefault((r, c), {})[j, k] = coef
        return out

    def __getitem__(self, rc: tuple[int, int]) -> RingElem:
        r, c = rc
        r, c = _COLS[r], _COLS[c]
        terms = {(j, k): coef for (row, col, j, k), coef in self._terms.items() if row == r and col == c}
        return _element(terms) if terms else ZERO

    @property
    def rows(self) -> tuple:
        entries = self._entry_terms()
        return tuple(
            tuple(_element(entries[r, c]) if (r, c) in entries else ZERO for c in _COLS) for r in _COLS
        )

    def entries(self) -> Iterator[tuple[int, int, RingElem]]:
        """Yield (row, col, entry) for the nonzero entries, row by row."""
        entries = self._entry_terms()
        for r, c in sorted(entries):
            yield r, c, _element(entries[r, c])

    @property
    def float_terms(self) -> tuple:
        """(row, col, RingElem.float_terms()) per nonzero entry, row by row; compiled once per matrix."""
        try:
            return self._float_terms
        except AttributeError:
            compiled = tuple((r, c, x.float_terms()) for r, c, x in self.entries())
            object.__setattr__(self, "_float_terms", compiled)
            return compiled

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- ring-linear algebra -------------------------------------------------

    def __add__(self, other: "Mat4") -> "Mat4":
        return Mat4._of(sum_terms(self._terms, other._terms, False))

    def __sub__(self, other: "Mat4") -> "Mat4":
        return Mat4._of(sum_terms(self._terms, other._terms, True))

    def __neg__(self) -> "Mat4":
        return Mat4._of({key: -coef for key, coef in self._terms.items()})

    def scale(self, factor: Scalar) -> "Mat4":
        f = tuple(_as_ring(factor)._terms.items())
        out: dict[tuple, object] = {}
        for (r, c, j1, k1), c1 in self._terms.items():
            for (j2, k2), c2 in f:
                accumulate(out, (r, c, j1 + j2, k1 + k2), c1 * c2)
        return Mat4._of(out)

    def __matmul__(self, other: "Mat4") -> "Mat4":
        by_row = other._row_index()
        out: dict[tuple, object] = {}
        for (r, k, j1, k1), c1 in self._terms.items():
            for c, j2, k2, c2 in by_row[k]:
                accumulate(out, (r, c, j1 + j2, k1 + k2), c1 * c2)
        return Mat4._of(out)

    def _row_index(self) -> tuple:
        """Four tuples of (col, q_pow, pi_pow, coef), one per row, in the flat map's order; compiled once per matrix."""
        try:
            return self._by_row
        except AttributeError:
            rows: tuple[list, ...] = ([], [], [], [])
            for (r, c, j, k), coef in self._terms.items():
                rows[r].append((c, j, k, coef))
            compiled = tuple(map(tuple, rows))
            object.__setattr__(self, "_by_row", compiled)
            return compiled

    def transpose(self) -> "Mat4":
        return Mat4._of({(c, r, j, k): coef for (r, c, j, k), coef in self._terms.items()})

    def counter_transpose(self) -> "Mat4":
        """Mirror entries on the counter diagonal: out(mu,nu) = in(3-nu,3-mu)."""
        return Mat4._of({(3 - c, 3 - r, j, k): coef for (r, c, j, k), coef in self._terms.items()})

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Mat4):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"Mat4[{body}]"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"rows": [[x.to_json_dict() for x in row] for row in self.rows]}

    @staticmethod
    def from_json_dict(d: dict) -> "Mat4":
        """The inverse of to_json_dict; ValueError on any other shape, naming an unknown key."""
        rows = d.get("rows") if isinstance(d, dict) else None
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError('a matrix must be {"rows": [4 lists of 4 entries]}')
        for key in d:
            if key != "rows":
                raise ValueError(f'unknown key {key!r} in a matrix; a matrix must be {{"rows": [4 lists of 4 entries]}}')
        return Mat4([[RingElem.from_json_dict(x) for x in row] for row in rows])


_COLS = range(4)


# The pseudo metric: unit entries on the counter diagonal, (+ + - -) signature.
METRIC = Mat4.from_entries([(0, 3, 1), (1, 2, 1), (2, 1, 1), (3, 0, 1)])

IDENTITY = Mat4.identity()

_Q = RingElem.qpow(1)


def commutator(x: Mat4, y: Mat4) -> Mat4:
    return x @ y - y @ x


def entries_at(x: Mat4, q) -> list:
    """(row, col, value) of x's nonzero entries at wave number q, row by row.

    The one numeric evaluator of a matrix's entries: an mpf q evaluates each
    exact entry by `RingElem.evaluate` at the ambient mpmath precision; any
    other real q (an int, a float, a numpy scalar) is read as a float and
    sums each entry's compiled float terms (`ring.float_sum`).  The exact q,
    `RingElem.qpow(1)`, gives the exact entries; the q of another exact
    arithmetic (`certificate.Laurent`'s) lifts each entry's term map
    {(q_pow, pi_pow): coef} into its own values, by its `lift_entry`.
    """
    if isinstance(q, float):
        return [(r, c, float_sum(terms, q)) for r, c, terms in x.float_terms]
    if isinstance(q, RingElem):
        if q != _Q:
            raise ValueError(f"an exact wave number is the ring's q itself, got {q}")
        return list(x.entries())
    lift = getattr(q, "lift_entry", None)
    if lift is not None:
        return [(r, c, lift(terms)) for (r, c), terms in sorted(x._entry_terms().items())]
    if not is_mpf(q):
        return entries_at(x, float(q))
    return [(r, c, entry.evaluate(q)) for r, c, entry in x.entries()]


def eval_rows(x: Mat4, q) -> list:
    """`entries_at` at wave number q > 0 as four lists of four: mpf for an mpf q, else Python floats.

    Zero entries are a zero of the entries' own type, 0.0 or an mpf zero.
    """
    if not (q > 0):
        raise ValueError(f"wave number q must be positive, got {q!r}")
    if isinstance(q, float) or not is_mpf(q):
        q = float(q)
    zero = type(q)(0)
    out = [[zero] * 4 for _ in range(4)]
    for r, c, value in entries_at(x, q):
        out[r][c] = value
    return out


def eval_mat(x: Mat4, q):
    """eval_rows as a (4, 4) ndarray: dtype object holding mpf for an mpf q, else float64.

    The caller controls mpmath precision.
    """
    import numpy as np

    return np.array(eval_rows(x, q))


def bilinear(u: Sequence, v: Sequence) -> float:
    """Scalar product u^t . M . v = u0 v3 + u1 v2 + u2 v1 + u3 v0."""
    return u[0] * v[3] + u[1] * v[2] + u[2] * v[1] + u[3] * v[0]

