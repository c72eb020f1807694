"""Catalog of the 20 named matrices and their classification predicates.

The matrices split into the identity, six isometric generators (two triples
of two boosts plus one rotation), nine metamorphic generators (three Abelian
triplets), and the four mutually commuting shift generators t0..t3.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .matrices import IDENTITY, Mat4
from .ring import RingElem


class GeneratorId(str, Enum):
    ONE = "One"
    B0 = "B0"
    B0P = "B0p"
    B1 = "B1"
    B2 = "B2"
    D1 = "D1"
    D2 = "D2"
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    H1 = "H1"
    H2 = "H2"
    F3P = "F3p"
    P0 = "P0"
    P3 = "P3"
    P3P = "P3p"
    T0 = "T0"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"

    def __str__(self) -> str:
        return self.value


ISOMETRIC_IDS = (
    GeneratorId.B0,
    GeneratorId.B0P,
    GeneratorId.B1,
    GeneratorId.B2,
    GeneratorId.D1,
    GeneratorId.D2,
)

METAMORPHIC_IDS = (
    GeneratorId.F1,
    GeneratorId.F2,
    GeneratorId.F3,
    GeneratorId.H1,
    GeneratorId.H2,
    GeneratorId.F3P,
    GeneratorId.P0,
    GeneratorId.P3,
    GeneratorId.P3P,
)

SHIFT_IDS = (GeneratorId.T0, GeneratorId.T1, GeneratorId.T2, GeneratorId.T3)

# One + 15 generators: a complete basis of the 16-dimensional matrix space.
BASIS_IDS = (GeneratorId.ONE,) + ISOMETRIC_IDS + METAMORPHIC_IDS

ALL_IDS = tuple(GeneratorId)

# One reviewable source of truth: (row, col, coef, q_pow, pi_pow) per matrix.
_ENTRIES: dict[GeneratorId, list[tuple]] = {
    GeneratorId.ONE: [(0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)],
    GeneratorId.B0: [(0, 0, 1), (1, 1, 1), (2, 2, -1), (3, 3, -1)],
    GeneratorId.B2: [(0, 2, -1, 4), (1, 3, 1, 4), (2, 0, -1), (3, 1, 1)],
    GeneratorId.D2: [(0, 2, -1, 4), (1, 3, 1, 4), (2, 0, 1), (3, 1, -1)],
    GeneratorId.B0P: [(0, 0, 1), (1, 1, -1), (2, 2, 1), (3, 3, -1)],
    GeneratorId.B1: [(0, 1, -1, 2), (1, 0, -1), (2, 3, 1, 2), (3, 2, 1)],
    GeneratorId.D1: [(0, 1, -1, 2), (1, 0, 1), (2, 3, 1, 2), (3, 2, -1)],
    GeneratorId.F1: [(0, 1, -1, 2), (1, 0, 1), (2, 3, -1, 2), (3, 2, 1)],
    GeneratorId.F2: [(0, 2, -1, 4), (1, 3, -1, 4), (2, 0, 1), (3, 1, 1)],
    GeneratorId.F3: [(0, 3, -1, 6), (1, 2, 1, 4), (2, 1, 1, 2), (3, 0, -1)],
    GeneratorId.H1: [(0, 1, -1, 2), (1, 0, -1), (2, 3, -1, 2), (3, 2, -1)],
    GeneratorId.H2: [(0, 2, -1, 4), (1, 3, -1, 4), (2, 0, -1), (3, 1, -1)],
    GeneratorId.F3P: [(0, 3, -1, 6), (1, 2, -1, 4), (2, 1, -1, 2), (3, 0, -1)],
    GeneratorId.P0: [(0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, 1)],
    GeneratorId.P3: [(0, 3, -1, 6), (1, 2, -1, 4), (2, 1, 1, 2), (3, 0, 1)],
    GeneratorId.P3P: [(0, 3, -1, 6), (1, 2, 1, 4), (2, 1, -1, 2), (3, 0, 1)],
    GeneratorId.T0: [(0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)],
    GeneratorId.T1: [
        (0, 3, Fraction(-1, 8), 4, -1),
        (1, 0, 1),
        (1, 2, Fraction(-1, 4), 2, -1),
        (2, 1, 8, 0, 1),
        (3, 2, 1),
    ],
    GeneratorId.T2: [
        (0, 2, Fraction(-1, 64), 4, -2),
        (1, 1, Fraction(-1, 4), 2, -1),
        (1, 3, Fraction(-1, 64), 4, -2),
        (2, 0, 1),
        (2, 2, Fraction(-1, 4), 2, -1),
        (3, 1, 1),
    ],
    GeneratorId.T3: [
        (0, 1, Fraction(-1, 8), 4, -1),
        (0, 3, Fraction(-1, 32), 6, -2),
        (1, 2, Fraction(-1, 64), 4, -2),
        (2, 3, Fraction(-1, 8), 4, -1),
        (3, 0, 1),
    ],
}


@lru_cache(maxsize=None)
def get_generator(gen_id: GeneratorId) -> Mat4:
    """The exact catalog matrix for a tag; get_generator(ONE) is the identity."""
    return Mat4.from_entries(_ENTRIES[GeneratorId(gen_id)])


_BY_NAME = {gid.value.lower(): gid for gid in GeneratorId}  # the names differ in more than case


def resolve_id(name: str) -> GeneratorId:
    """Map a user-facing name to a GeneratorId, accepting primes for 'p'."""
    try:
        return _BY_NAME[name.strip().replace("'", "p").lower()]
    except KeyError:
        raise KeyError(f"unknown generator name {name!r}") from None


class SymmetryClass(Enum):
    ISOMETRIC = "isometric"
    METAMORPHIC = "metamorphic"
    NEITHER = "neither"


def symmetry_class(x: Mat4) -> SymmetryClass:
    """Counter-transpose symmetry of a matrix.

    Isometric generators are odd under mirroring on the counter diagonal
    (M X^t M = -X), metamorphic ones even (M X^t M = X).  The zero matrix
    satisfies both conditions and reports as isometric by convention.
    """
    ct = x.counter_transpose()
    if ct == -x:
        return SymmetryClass.ISOMETRIC
    if ct == x:
        return SymmetryClass.METAMORPHIC
    return SymmetryClass.NEITHER


@dataclass(frozen=True)
class SquareClass:
    kind: str  # "boost" | "rotation" | "other"
    order: Optional[int] = None


def classify_square(x: Mat4) -> SquareClass:
    """Boost/rotation classification from the exact square of the matrix.

    boost(alpha):    x @ x == +q^(2 alpha) * identity
    rotation(alpha): x @ x == -q^(2 alpha) * identity
    """
    square = x @ x
    mono = square[0, 0].as_monomial()
    if mono is None:
        return SquareClass("other")
    c, j, k = mono
    if k != 0 or abs(c) != 1 or j % 2 != 0:
        return SquareClass("other")
    alpha = j // 2
    scaled_identity = IDENTITY.scale(RingElem.monomial(c, j, 0))
    if square != scaled_identity:
        return SquareClass("other")
    return SquareClass("boost" if c > 0 else "rotation", alpha)


def homogeneity_order(x: Mat4) -> Optional[int]:
    """The integer alpha with every nonzero entry (mu,nu) ~ q^(nu-mu+alpha).

    Each entry may carry arbitrary rational/pi-power coefficients but only a
    single q power.  None if orders are mixed or an entry mixes q powers.
    """
    alpha: Optional[int] = None
    for mu, nu, entry in x.entries():
        q_pows = {j for j, _k, _c in entry.terms()}
        if len(q_pows) != 1:
            return None
        a = q_pows.pop() - (nu - mu)
        if alpha is None:
            alpha = a
        elif alpha != a:
            return None
    return alpha


def symmetry_space_dimensions() -> tuple[int, int]:
    """Dimensions of the odd and even counter-transpose eigenspaces; expected (6, 10).

    Counter-transposition sends E_(mu,nu) to E_(3-nu,3-mu), an involution that
    permutes the 16 coordinate matrices.  Each swapped pair spans one odd and
    one even direction, each fixed point (the counter diagonal) one even one.
    """
    fixed = sum((3 - nu, 3 - mu) == (mu, nu) for mu in range(4) for nu in range(4))
    pairs = (16 - fixed) // 2
    return pairs, pairs + fixed
