"""Exact 4x4 matrices over the coefficient ring, the metric, and the form.

Index convention: entry (mu, nu) is row mu, column nu, both 0-based; the
counter-diagonal runs from (0,3) to (3,0).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .ring import ONE, ZERO, RingElem, float_sum, is_mpf

Scalar = Union["RingElem", int, Fraction]


def _as_ring(x) -> RingElem:
    if isinstance(x, RingElem):
        return x
    if isinstance(x, (int, Fraction)):
        return RingElem.monomial(x)
    raise TypeError(f"expected a ring element, got {type(x).__name__}")


class Mat4:
    """Immutable 4x4 matrix with RingElem entries.

    Stored as four sparse rows, each a dict column -> nonzero entry; absent
    entries are zero.  Arithmetic touches only the stored entries.  The
    float terms of the entries are compiled on first use (`float_terms`).
    """

    __slots__ = ("_rows", "_float_terms")

    def __init__(self, rows: Iterable[Iterable]):
        mat = tuple(tuple(_as_ring(x) for x in row) for row in rows)
        if len(mat) != 4 or any(len(r) != 4 for r in mat):
            raise ValueError("Mat4 requires a 4x4 grid of entries")
        object.__setattr__(
            self, "_rows", tuple({c: x for c, x in enumerate(row) if x} for row in mat)
        )

    @staticmethod
    def _sparse(rows) -> "Mat4":
        """Wrap four column -> nonzero entry dicts without copying them."""
        out = Mat4.__new__(Mat4)
        object.__setattr__(out, "_rows", tuple(rows))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Mat4 is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Mat4":
        return Mat4._sparse({} for _ in range(4))

    @staticmethod
    def identity() -> "Mat4":
        return Mat4._sparse({i: ONE} for i in range(4))

    @staticmethod
    def from_entries(entries: Iterable[tuple]) -> "Mat4":
        """Build from (row, col, coef, q_pow, pi_pow) tuples; trailing powers optional."""
        rows = [{} for _ in range(4)]
        for entry in entries:
            r, c, coef, *pows = entry
            q_pow = pows[0] if len(pows) > 0 else 0
            pi_pow = pows[1] if len(pows) > 1 else 0
            rows[r][c] = rows[r].get(c, ZERO) + RingElem.monomial(coef, q_pow, pi_pow)
        return Mat4._sparse({c: x for c, x in row.items() if x} for row in rows)

    # -- access ------------------------------------------------------------

    def __getitem__(self, rc: tuple[int, int]) -> RingElem:
        r, c = rc
        return self._rows[r].get(_COLS[c], ZERO)

    @property
    def rows(self) -> tuple:
        return tuple(tuple(row.get(c, ZERO) for c in _COLS) for row in self._rows)

    def entries(self) -> Iterator[tuple[int, int, RingElem]]:
        """Yield (row, col, entry) for the nonzero entries, row by row."""
        for r, row in enumerate(self._rows):
            for c, x in row.items():
                yield r, c, x

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
        return not any(self._rows)

    # -- ring-linear algebra -------------------------------------------------

    def __add__(self, other: "Mat4") -> "Mat4":
        return Mat4._sparse(_add_rows(ra, rb, False) for ra, rb in zip(self._rows, other._rows))

    def __sub__(self, other: "Mat4") -> "Mat4":
        return Mat4._sparse(_add_rows(ra, rb, True) for ra, rb in zip(self._rows, other._rows))

    def __neg__(self) -> "Mat4":
        return Mat4._sparse({c: -x for c, x in row.items()} for row in self._rows)

    def scale(self, factor: Scalar) -> "Mat4":
        f = _as_ring(factor)
        if not f:
            return Mat4.zero()
        # the coefficient ring is an integral domain: no product of nonzeros is zero
        return Mat4._sparse({c: x * f for c, x in row.items()} for row in self._rows)

    def __matmul__(self, other: "Mat4") -> "Mat4":
        b = other._rows
        out = []
        for arow in self._rows:
            orow: dict[int, RingElem] = {}
            for k, x in arow.items():
                for j, y in b[k].items():
                    p = x * y
                    acc = orow.get(j)
                    orow[j] = p if acc is None else acc + p
            out.append({j: v for j, v in orow.items() if v})
        return Mat4._sparse(out)

    def transpose(self) -> "Mat4":
        out = [{} for _ in range(4)]
        for r, c, x in self.entries():
            out[c][r] = x
        return Mat4._sparse(out)

    def counter_transpose(self) -> "Mat4":
        """Mirror entries on the counter diagonal: out(mu,nu) = in(3-nu,3-mu)."""
        out = [{} for _ in range(4)]
        for r, c, x in self.entries():
            out[3 - c][3 - r] = x
        return Mat4._sparse(out)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Mat4):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(tuple(frozenset(row.items()) for row in self._rows))

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


def _add_rows(ra: dict, rb: dict, subtract: bool) -> dict:
    """Row ra + rb, or ra - rb when subtract, keeping only the nonzero entries."""
    row = dict(ra)
    for c, y in rb.items():
        x = row.get(c)
        if x is None:
            row[c] = -y if subtract else y
        else:
            s = x - y if subtract else x + y
            if s:
                row[c] = s
            else:
                del row[c]
    return row


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
    `RingElem.qpow(1)`, gives the exact entries (`fmspace.certificate`).
    """
    if isinstance(q, float):
        return [(r, c, float_sum(terms, q)) for r, c, terms in x.float_terms]
    if isinstance(q, RingElem):
        if q != _Q:
            raise ValueError(f"an exact wave number is the ring's q itself, got {q}")
        return list(x.entries())
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


def metric_eigenvalues() -> list[float]:
    """Eigenvalues of the metric, ascending, by numpy's symmetric eigensolver; its entries are constants."""
    import numpy as np

    return np.linalg.eigvalsh(eval_mat(METRIC, 1.0)).tolist()
