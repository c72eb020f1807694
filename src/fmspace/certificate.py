"""An exact certificate that each closed form of `flows` is exp(tau X).

F(tau) = exp(tau X) exactly when F(0) = 1 and dF/dtau = X F: both solve the
same linear ODE.  `certify` runs a generator's rows builder,
`flows._closed_form(gid)[1]`, through a third `flows._Backend` whose values
are `Laurent` polynomials in tau, q, pi and the functions of the one phase
y = k tau that the builder reads (cos and sin, cosh and sinh, or exp of
+-y), held as one flat term map with rational coefficients, as
`matrices.Mat4` holds its entries; q is the ring's own q.  Every entry of
F(0) - 1 and of dF/dtau - X F must reduce to 0 under sin^2 + cos^2 = 1 and
cosh^2 - sinh^2 = 1, with zero tolerance; for the six isometric generators
so must every entry of F^t M F - M, so their flows preserve the metric at
every tau and q.  F^t M F is symmetric, so that identity is reduced on its
10 entries with mu <= nu and an entry off the diagonal counts twice.

The reduced form is canonical: no power of sin or sinh above the first is
left, and cos, cosh and exp of k tau are transcendental over the Laurent
polynomials in tau, q and pi (exp appears to negative powers too), so an
identity reduces to 0 and nothing else does.  The arithmetic works on the
flat keys and builds no `RingElem`: one appears only where the rows
builder hands one in (q, pi and the catalog's entries), and as the phase
rate k.  A certificate is computed afresh on every call, and keeps the
exact F it read.

`published_difference` runs a published transform (`flows._published_rows`)
on the same backend and phase as a certificate's F and reduces their
difference entry by entry, so the errata ledger is an exact diff: the one
entry that differs, B2's (3, 1), prints as (q^2 - q^-2) sinh(tau q^2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import flows
from .catalog import ISOMETRIC_IDS, GeneratorId, get_generator
from .matrices import _Q  # the exact q, at which `entries_at` gives the exact entries
from .ring import RingElem, _as_coef, _quotient, accumulate, signed_sum, sum_terms


class Laurent:
    """A finite sum of c tau^t A^a B^b q^j pi^k, held as one flat term map (t, a, b, j, k) -> c.

    Each c is nonzero and canonical, as in the ring: an int when integral,
    else a Fraction.  A and B are the two functions of the phase (cos and
    sin, cosh and sinh), or A alone is exp of it, where a may be negative.
    An int, a Fraction or a RingElem mixes in as a constant; a divisor must be a unit, one term
    c tau^t q^j pi^k free of A and B.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __add__(self, other):
        b = _terms(other)
        return NotImplemented if b is None else Laurent(sum_terms(self.terms, b, False))

    __radd__ = __add__

    def __sub__(self, other):
        b = _terms(other)
        return NotImplemented if b is None else Laurent(sum_terms(self.terms, b, True))

    def __rsub__(self, other):
        b = _terms(other)
        return NotImplemented if b is None else Laurent(sum_terms(b, self.terms, True))

    def __neg__(self):
        return Laurent({key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        b = _terms(other)
        return NotImplemented if b is None else Laurent(_add_product({}, self.terms, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = _terms(other)
        if b is None:
            return NotImplemented
        if len(b) != 1 or any(next(iter(b))[1:3]):
            raise ValueError(f"a Laurent divisor must be a unit c tau^t q^j pi^k, got {other!r}")
        ((t, _a, _b, j, k), c), = b.items()
        return self * Laurent({(-t, 0, 0, -j, -k): _quotient(1, c)})

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Laurent({self.terms!r})"


def _add_product(out: dict, a: dict, b: dict) -> dict:
    """out += a b, for term maps a and b keyed (t, a, b, q_pow, pi_pow); returns out."""
    for (t1, a1, b1, j1, k1), c1 in a.items():
        for (t2, a2, b2, j2, k2), c2 in b.items():
            accumulate(out, (t1 + t2, a1 + a2, b1 + b2, j1 + j2, k1 + k2), c1 * c2)
    return out


def _terms(x) -> Optional[dict]:
    """The term map of a Laurent, or of a constant int, Fraction or RingElem; None for anything else."""
    if x.__class__ is Laurent:
        return x.terms
    if isinstance(x, (int, Fraction)):
        c = _as_coef(x)
        return {(0, 0, 0, 0, 0): c} if c else {}
    if isinstance(x, RingElem):
        return {(0, 0, 0, j, k): c for (j, k), c in x._terms.items()}
    return None


_TAU = Laurent({(1, 0, 0, 0, 0): 1})


def _backend(phase: dict) -> flows._Backend:
    """The exact backend: each function returns its symbol and records (kind, k) of its phase y = k tau in phase.

    exp of the opposite phase, -k tau, is A^-1.
    """

    def function(kind: str, key: tuple):
        def symbol(y):
            terms = _terms(y)
            rate = None
            if terms and all(term[:3] == (1, 0, 0) for term in terms):  # y = k tau, k a nonzero RingElem
                rate = RingElem({term[3:]: c for term, c in terms.items()})
            if kind == "exp" and rate is not None and phase.get("y") == (kind, -rate):
                return Laurent({(0, -1, 0, 0, 0): 1})  # exp(-k tau) = A^-1
            if rate is None or phase.setdefault("y", (kind, rate)) != (kind, rate):
                raise ValueError(f"a closed form the certificate reads has one phase k tau, of one kind; got {kind} of {y!r}")
            return Laurent({key: 1})

        return symbol

    a, b = (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)
    return flows._Backend(
        exp=function("exp", a), cos=function("trig", a), sin=function("trig", b),
        cosh=function("hyp", a), sinh=function("hyp", b), pi=RingElem.pipow(1), w3_divisors=(),
    )


def _derivative(p: Laurent, kind: str, k: RingElem) -> dict:
    """The term map of d/dtau p, with A and B functions of y = k tau: the tau derivative plus k times the y derivative.

    (cos, sin)' = (-sin, cos), (cosh, sinh)' = (sinh, cosh), exp' = exp in y.
    """
    out = {}
    sign = -1 if kind == "trig" else 1
    rate = _terms(k)
    for (t, a, b, j, m), c in p.terms.items():
        if t:
            accumulate(out, (t - 1, a, b, j, m), c * t)
        by_y = {}
        if a and kind == "exp":
            by_y[t, a, b, j, m] = c * a
        elif a:
            by_y[t, a - 1, b + 1, j, m] = c * (sign * a)
        if b:
            accumulate(by_y, (t, a + 1, b - 1, j, m), c * b)
        _add_product(out, by_y, rate)
    return out


def _reduce(p: Laurent, kind: str) -> Laurent:
    """p with each B^2 rewritten, sin^2 = 1 - cos^2 and sinh^2 = cosh^2 - 1, until B's power is at most 1."""
    if kind == "exp":
        return p
    sign = 1 if kind == "trig" else -1  # B^2 = sign (1 - A^2)
    out = {}
    todo = list(p.terms.items())
    while todo:
        key, c = todo.pop()
        t, a, b, j, m = key
        if b < 2:
            accumulate(out, key, c)
        else:
            todo += [((t, a, b - 2, j, m), c * sign), ((t, a + 2, b - 2, j, m), c * -sign)]
    return Laurent(out)


def _at_zero(p: Laurent) -> Optional[dict]:
    """The term map {(q_pow, pi_pow): c} of p at tau = 0, where cos, cosh and exp are 1 and sin and sinh 0.

    None if p has a negative power of tau.
    """
    out = {}
    for (t, a, b, j, m), c in p.terms.items():
        if t < 0:
            return None
        if t == 0 and b == 0:
            accumulate(out, (j, m), c)
    return out


class Certificate(NamedTuple):
    """The entries of one closed form's three identities that do not reduce to 0, and the exact F they were read from."""

    gen: GeneratorId
    at_zero: int  # of F(0) - 1
    ode: int  # of dF/dtau - X F
    isometry: Optional[int]  # of F^t M F - M for an isometric generator, else None
    flow: tuple  # F's 16 entries, row by row, each a Laurent
    phase: tuple  # (kind, k) of F's phase y = k tau

    @property
    def failures(self) -> int:
        """All three counts: 0 exactly when F = exp(tau X), and for an isometric X, F preserves the metric."""
        return self.at_zero + self.ode + (self.isometry or 0)


def certify(gen) -> Certificate:
    """The certificate of gen's closed form: its rows builder run on the exact tau and q, then reduced.

    F^t M F is symmetric, so its identity is reduced on the 10 entries with
    mu <= nu, and an entry off the diagonal counts twice.  A generator
    without a closed form raises the ValueError of `flows._closed_form`.
    """
    gid = GeneratorId(gen)
    phase = {}
    flat = tuple(Laurent(_terms(x)) for x in flows._closed_form(gid)[1](_TAU, _Q, _backend(phase)))
    F = [flat[4 * r : 4 * r + 4] for r in range(4)]
    kind, k = phase["y"]  # every closed form reads its phase
    # tau = 0 is a substitution, so it reads F before its reduction as after it
    at_zero = sum(_at_zero(F[r][c]) != ({(0, 0): 1} if r == c else {}) for r in range(4) for c in range(4))
    ode = [[_derivative(F[r][c], kind, k) for c in range(4)] for r in range(4)]  # dF/dtau - X F, term maps
    for r, j, x in get_generator(gid).entries():
        minus_x = {key: -c for key, c in _terms(x).items()}
        for c in range(4):
            _add_product(ode[r][c], F[j][c].terms, minus_x)
    not_ode = sum(bool(_reduce(Laurent(terms), kind)) for row in ode for terms in row)
    isometry = None
    if gid in ISOMETRIC_IDS:
        columns = [[f.terms for f in column] for column in zip(*F)]

        def form_minus_metric(mu, u, nu, v) -> Laurent:
            out = {(0, 0, 0, 0, 0): -1} if mu + nu == 3 else {}
            for i in range(4):
                _add_product(out, u[i], v[3 - i])
            return Laurent(out)

        isometry = sum(
            (1 if mu == nu else 2)  # entry (nu, mu) is entry (mu, nu)
            * bool(_reduce(form_minus_metric(mu, u, nu, v), kind))
            for mu, u in enumerate(columns)
            for nu, v in enumerate(columns[mu:], mu)
        )
    return Certificate(gid, at_zero, not_ode, isometry, flat, phase["y"])


def published_difference(cert: Certificate) -> list:
    """(row, col, text) of each entry where the published transform minus the certificate's F does not reduce to 0.

    The published rows (`flows._published_rows`) run on the exact backend
    with F's phase, so both read the same symbols; text is the reduced
    difference, as `_render` writes it.
    """
    kind, k = cert.phase
    published = flows._published_rows(cert.gen, _TAU, _Q, _backend({"y": cert.phase}))
    out = []
    for i, (p, f) in enumerate(zip(published, cert.flow)):
        difference = _reduce(Laurent(_terms(p)) - f, kind)
        if difference:
            out.append((i // 4, i % 4, _render(difference, kind, k)))
    return out


_FUNCTIONS = {"trig": ("cos", "sin"), "hyp": ("cosh", "sinh"), "exp": ("exp", None)}


def _monomial(c, factors) -> tuple:
    """(c < 0, text) of c times each (symbol, power) of factors: '1/8 q^3 pi^-1', 'q^-2 sinh(tau q^2)'."""
    symbols = [name if n == 1 else f"{name}^{n}" for name, n in factors if n]
    if abs(c) != 1 or not symbols:
        symbols.insert(0, str(abs(c)))
    return c < 0, " ".join(symbols)


def _polynomial(terms: dict) -> str:
    """The sum of c q^j pi^k over {(j, k): c}, the highest powers first: 'q^2 - q^-2'."""
    return signed_sum(_monomial(c, (("q", j), ("pi", m))) for (j, m), c in sorted(terms.items(), reverse=True))


def _render(p: Laurent, kind: str, k: RingElem) -> str:
    """p as text, each product of tau and the phase's functions after its coefficient: '(q^2 - q^-2) sinh(tau q^2)'."""
    rate = _polynomial({(j, m): c for j, m, c in k.terms()})
    y = "tau" if rate == "1" else f"tau {rate}" if k.is_monomial else f"tau ({rate})"
    a_name, b_name = _FUNCTIONS[kind]
    groups = {}
    for (t, a, b, j, m), c in p.terms.items():
        groups.setdefault((t, a, b), {})[j, m] = c
    pieces = []
    for (t, a, b), coefficient in sorted(groups.items(), reverse=True):
        functions = (("tau", t), (f"{a_name}({y})", a), (f"{b_name}({y})", b))
        if len(coefficient) == 1:
            ((j, m), c), = coefficient.items()
            pieces.append(_monomial(c, (("q", j), ("pi", m), *functions)))
        else:
            pieces.append(_monomial(1, ((f"({_polynomial(coefficient)})", 1), *functions)))
    return signed_sum(pieces)
