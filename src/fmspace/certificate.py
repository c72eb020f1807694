"""An exact certificate that each closed form of `flows` is exp(tau X).

F(tau) = exp(tau X) exactly when F(0) = 1 and dF/dtau = X F: both solve the
same linear ODE.  `certify` runs a generator's rows builder,
`flows._closed_form(gid)[1]`, through a third `flows._Backend` whose values
are `Laurent` polynomials in tau, q, pi and the functions of the one phase
y = k tau that the builder reads (cos and sin, cosh and sinh, or exp of
+-y), held as one flat term map with rational coefficients, as
`matrices.Mat4` holds its entries.  The backend's tau, q and pi are
`Laurent` monomials themselves, and `matrices.entries_at` lifts X(q)'s
entries at that q, so the build converts no `RingElem`.

Every entry of F(0) - 1 and of dF/dtau - X F must reduce to 0 under
sin^2 + cos^2 = 1 and cosh^2 - sinh^2 = 1, with zero tolerance; for the six
isometric generators so must every entry of F^t M F - M, so their flows
preserve the metric at every tau and q.  F^t M F is symmetric, so that
identity is reduced on its 10 entries with mu <= nu and an entry off the
diagonal counts twice.  Every denominator is cleared once, after the build:
F by the least common denominator D of its coefficients, X by its D_X and
the phase rate k by its D_k.  The derivative, X F, F^t M F and the
reduction then run on ints, on D D_X D_k (dF/dtau - X F) and on
D^2 (F^t M F - M), which are 0 exactly where the unscaled identities are.

The reduced form is canonical: no power of sin or sinh above the first is
left, and cos, cosh and exp of k tau are transcendental over the Laurent
polynomials in tau, q and pi (exp appears to negative powers too), so an
identity reduces to 0 and nothing else does.  A certificate is computed
afresh on every call and keeps the exact F it read; `checks.Facts` holds
one verify pass's certificates, so the flows and kernel checks share them.

`published_difference` reads a published transform from its template in
`flows._PUBLISHED`, as term maps in the symbols of a certificate's F, and
reduces their difference where the two differ, so the errata ledger is an
exact diff: the one entry that differs, B2's (3, 1), prints as
(q^2 - q^-2) sinh(tau q^2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from . import flows
from .catalog import ISOMETRIC_IDS, GeneratorId, get_generator
from .ring import RingElem, _as_coef, _element, accumulate, signed_sum, sum_terms


class Laurent:
    """A finite sum of c tau^t A^a B^b q^j pi^k, held as one flat term map (t, a, b, j, k) -> c.

    Each c is nonzero and canonical, as in the ring: an int when integral,
    else a Fraction.  A and B are the two functions of the phase (cos and
    sin, cosh and sinh), or A alone is exp of it, where a may be negative.
    An int, a Fraction or a RingElem mixes in as a constant; a divisor, or
    a monomial raised to a negative power, must be a unit, one term
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
        if b is None:
            return NotImplemented
        a = self.terms
        if len(a) == 1:
            a, b = b, a
        if len(b) != 1:
            return Laurent(_add_product({}, a, b))
        ((t2, a2, b2, j2, k2), c2), = b.items()  # a monomial: no two products share a key
        return Laurent({(t1 + t2, a1 + a2, b1 + b2, j1 + j2, k1 + k2): _as_coef(c1 * c2) for (t1, a1, b1, j1, k1), c1 in a.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = _terms(other)
        if b is None:
            return NotImplemented
        (t, j, k), c = _unit(b, other)
        return Laurent({(t1 - t, a1, b1, j1 - j, k1 - k): _divided(c1, c) for (t1, a1, b1, j1, k1), c1 in self.terms.items()})

    def __pow__(self, n: int):
        """self**n of a monomial, for an int n; a negative n only for a unit."""
        if len(self.terms) != 1:
            raise ValueError(f"only a monomial Laurent takes a power, got {self!r}")
        ((t, a, b, j, k), c), = self.terms.items()
        if n < 0:
            _unit(self.terms, self)
            c, n, t, j, k = _divided(1, c), -n, -t, -j, -k
        return Laurent({(t * n, a * n, b * n, j * n, k * n): _as_coef(c**n)})

    def lift_entry(self, terms: dict) -> "Laurent":
        """A matrix entry's ring terms {(q_pow, pi_pow): c} as a Laurent, for `matrices.entries_at` at this q, which must be q."""
        if self.terms != _Q.terms:
            raise ValueError(f"an exact wave number is the certificate's q itself, got {self!r}")
        return Laurent({(0, 0, 0, j, k): c for (j, k), c in terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Laurent({self.terms!r})"


def _unit(b: dict, other) -> tuple:
    """((t, q_pow, pi_pow), c) of a unit's term map b, one term free of A and B; else a ValueError naming other."""
    if len(b) != 1 or any(next(iter(b))[1:3]):
        raise ValueError(f"a Laurent divisor must be a unit c tau^t q^j pi^k, got {other!r}")
    ((t, _a, _b, j, k), c), = b.items()
    return (t, j, k), c


def _divided(x, c):
    """x / c, canonical, for canonical coefficients x and c != 0: a Fraction only where the quotient is not an int."""
    if x.__class__ is int and c.__class__ is int:
        return x // c if x % c == 0 else Fraction(x, c)
    return _as_coef(Fraction(x) / c)


def _add_product(out: dict, a: dict, b: dict) -> dict:
    """out += a b in canonical form, for term maps a and b keyed (t, a, b, q_pow, pi_pow); returns out."""
    for (t1, a1, b1, j1, k1), c1 in a.items():
        for (t2, a2, b2, j2, k2), c2 in b.items():
            accumulate(out, (t1 + t2, a1 + a2, b1 + b2, j1 + j2, k1 + k2), c1 * c2)
    return out


def _add_int_product(out: dict, a: dict, b: dict) -> None:
    """out += a b for int term maps keyed as in `_add_product`; a sum that cancels stays in out as 0."""
    get = out.get
    for (t1, a1, b1, j1, k1), c1 in a.items():
        for (t2, a2, b2, j2, k2), c2 in b.items():
            key = (t1 + t2, a1 + a2, b1 + b2, j1 + j2, k1 + k2)
            out[key] = get(key, 0) + c1 * c2


def _terms(x) -> Optional[dict]:
    """The term map of a Laurent, or of a constant int, Fraction or RingElem; None for anything else."""
    cls = x.__class__
    if cls is Laurent:
        return x.terms
    if cls is int or cls is Fraction or isinstance(x, (int, Fraction)):
        c = _as_coef(x)
        return {(0, 0, 0, 0, 0): c} if c else {}
    if isinstance(x, RingElem):
        return {(0, 0, 0, j, k): c for (j, k), c in x._terms.items()}
    return None


_TAU = Laurent({(1, 0, 0, 0, 0): 1})
_Q = Laurent({(0, 0, 0, 1, 0): 1})  # the certificate's own q, at which `matrices.entries_at` lifts X(q)'s entries
_PI = Laurent({(0, 0, 0, 0, 1): 1})
_A = Laurent({(0, 1, 0, 0, 0): 1})  # cos, cosh or exp of the phase
_B = Laurent({(0, 0, 1, 0, 0): 1})  # sin or sinh of the phase


def _backend(phase: dict) -> flows._Backend:
    """The exact backend: each function returns its symbol and records (kind, k) of its phase y = k tau in phase.

    exp of the opposite phase, -k tau, is A^-1.
    """

    def function(kind: str, key: tuple):
        def symbol(y):
            terms = _terms(y)
            rate = None
            if terms and all(term[:3] == (1, 0, 0) for term in terms):  # y = k tau, k a nonzero RingElem
                rate = _element({term[3:]: c for term, c in terms.items()})
            if kind == "exp" and rate is not None and phase.get("y") == (kind, -rate):
                return Laurent({(0, -1, 0, 0, 0): 1})  # exp(-k tau) = A^-1
            if rate is None or phase.setdefault("y", (kind, rate)) != (kind, rate):
                raise ValueError(f"a closed form the certificate reads has one phase k tau, of one kind; got {kind} of {y!r}")
            return Laurent({key: 1})

        return symbol

    a, b = (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)
    return flows._Backend(
        exp=function("exp", a), cos=function("trig", a), sin=function("trig", b),
        cosh=function("hyp", a), sinh=function("hyp", b), pi=_PI, w3_divisors=(),
    )


def _denominator(maps) -> int:
    """The least common denominator of the coefficients of the term maps."""
    return math.lcm(*{c.denominator for terms in maps for c in terms.values() if c.__class__ is not int})


def _cleared(terms: dict, d: int) -> dict:
    """d times a term map whose denominators all divide d: an int term map, terms itself when d is 1."""
    if d == 1:
        return terms
    return {key: c * d if c.__class__ is int else c.numerator * (d // c.denominator) for key, c in terms.items()}


def _derivative(f: dict, kind: str, rate: dict, scale: int) -> dict:
    """The int term map of scale d/dtau f, for an int term map f whose A and B are functions of y = k tau, rate = scale k.

    d/dtau is the tau derivative plus k times the y derivative:
    (cos, sin)' = (-sin, cos), (cosh, sinh)' = (sinh, cosh), exp' = exp in
    y.  rate is keyed (q_pow, pi_pow); a sum that cancels stays in as 0.
    """
    out = {}
    get = out.get
    sign = -1 if kind == "trig" else 1
    for (t, a, b, j, m), c in f.items():
        if t:
            key = (t - 1, a, b, j, m)
            out[key] = get(key, 0) + c * t * scale
        by_y = []
        if a and kind == "exp":
            by_y.append((a, b, c * a))
        elif a:
            by_y.append((a - 1, b + 1, c * sign * a))
        if b:
            by_y.append((a + 1, b - 1, c * b))
        for a1, b1, c1 in by_y:
            for (j2, m2), c2 in rate.items():
                key = (t, a1, b1, j + j2, m + m2)
                out[key] = get(key, 0) + c1 * c2
    return out


def _reduce_terms(terms: dict, kind: str) -> dict:
    """The canonical term map of terms with each B^2 rewritten, sin^2 = 1 - cos^2 and sinh^2 = cosh^2 - 1.

    B^(2n + r) = B^r (s (1 - A^2))^n with s = 1 for sin and -1 for sinh,
    expanded by the binomial theorem.  terms may hold a 0, which is dropped;
    with no B^2 term in terms, that is all there is to do.
    """
    if kind == "exp" or all(key[2] < 2 for key in terms):
        return {key: c for key, c in terms.items() if c}
    sign = 1 if kind == "trig" else -1
    out = {}
    for (t, a, b, j, m), c in terms.items():
        n, r = divmod(b, 2)
        c *= sign**n
        for i in range(n + 1):
            accumulate(out, (t, a + 2 * i, r, j, m), c * math.comb(n, i) * (-1) ** i)
    return out


def _reduce(p: Laurent, kind: str) -> Laurent:
    """p with each B^2 rewritten, sin^2 = 1 - cos^2 and sinh^2 = cosh^2 - 1, until B's power is at most 1."""
    return Laurent(_reduce_terms(p.terms, kind))


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
    flow = tuple(Laurent(_terms(x)) for x in flows._closed_form(gid)[1](_TAU, _Q, _backend(phase)))
    kind, k = phase["y"]  # every closed form reads its phase
    # tau = 0 is a substitution, so it reads F before its reduction as after it
    at_zero = sum(_at_zero(f) != ({(0, 0): 1} if i % 5 == 0 else {}) for i, f in enumerate(flow))
    # D D_X D_k (dF/dtau - X F) = D_X D_k dF_int/dtau - D_k X_int F_int, with F_int = D F, X_int = D_X X
    x = get_generator(gid)._terms
    d, d_x, d_k = _denominator(f.terms for f in flow), _denominator([x]), _denominator([k._terms])
    F = [_cleared(f.terms, d) for f in flow]
    scale = d_x * d_k
    rate = _cleared(k._terms, scale)
    ode = [_derivative(f, kind, rate, scale) for f in F]
    for (r, j, qj, pj), xc in _cleared(x, d_x).items():
        minus_x = {(0, 0, 0, qj, pj): -d_k * xc}
        for c in range(4):
            _add_int_product(ode[4 * r + c], F[4 * j + c], minus_x)
    not_ode = sum(bool(_reduce_terms(terms, kind)) for terms in ode)
    isometry = None
    if gid in ISOMETRIC_IDS:
        columns = [F[c::4] for c in range(4)]

        def form_minus_metric(mu, u, nu, v) -> dict:  # D^2 (F^t M F - M) at (mu, nu)
            out = {(0, 0, 0, 0, 0): -d * d} if mu + nu == 3 else {}
            for i in range(4):
                _add_int_product(out, u[i], v[3 - i])
            return out

        isometry = sum(
            (1 if mu == nu else 2)  # entry (nu, mu) is entry (mu, nu)
            * bool(_reduce_terms(form_minus_metric(mu, u, nu, v), kind))
            for mu, u in enumerate(columns)
            for nu, v in enumerate(columns[mu:], mu)
        )
    return Certificate(gid, at_zero, not_ode, isometry, flow, phase["y"])


def entry_is(cert: Certificate, row: int, col: int, phase: tuple, build) -> bool:
    """Whether F's phase is phase, (kind, k) of y = k tau, and F's (row, col) entry reduces to build(tau, q, pi, A, B).

    build takes the symbols of F as `Laurent` monomials, A and B the two
    functions of y (cos and sin, cosh and sinh), or A alone exp of it:
    `lambda R, q, pi, cos, sin: 4 * pi * R * sin / q` is 4 pi R sin(qR) / q.
    """
    if cert.phase != phase:
        return False
    return not _reduce(cert.flow[4 * row + col] - build(_TAU, _Q, _PI, _A, _B), phase[0])


def published_difference(cert: Certificate) -> list:
    """(row, col, text) of each entry where the published transform minus the certificate's F does not reduce to 0.

    The template of `flows._PUBLISHED` is read as term maps in the symbols
    of its own phase: a ("diag", signs) template is A^sign on the diagonal,
    A = exp(tau); a (kind, order, smap) template is A, cosh or cos of
    tau q^order, on the diagonal and coef q^qpow B at each entry of smap.
    Where that is F's phase (or exp(-tau), read as A^-sign), only an entry
    whose map is not F's is reduced, and text is the reduced difference, as
    `_render` writes it.  A template of another phase differs from F in
    each of its entries, whose functions are of another argument than F's:
    text is each side rendered in its own phase, published - (generated).
    """
    kind, k = cert.phase
    template = flows._PUBLISHED[cert.gen]
    if template[0] == "diag":
        direction = -1 if cert.phase == ("exp", -1) else 1  # where F's A is exp(-tau), exp(s tau) is A^-s
        own = ("exp", RingElem.monomial(direction))
        published = {(i, i): {(0, s * direction, 0, 0, 0): 1} for i, s in enumerate(template[1])}
    else:
        t_kind, order, smap = template
        own = ("hyp" if t_kind == "boost" else "trig", RingElem.qpow(order))
        published = {(i, i): {(0, 1, 0, 0, 0): 1} for i in range(4)}
        published.update({rc: {(0, 0, 1, qpow, 0): coef} for rc, (coef, qpow) in smap.items()})
    if own != cert.phase:
        return [
            (r, c, f"{_render(Laurent(p), *own)} - ({_render(_reduce(cert.flow[4 * r + c], kind), kind, k)})")
            for (r, c), p in sorted(published.items())
        ]
    out = []
    for i, f in enumerate(cert.flow):
        p = published.get((i // 4, i % 4), {})
        if p != f.terms:
            difference = _reduce(Laurent(sum_terms(p, f.terms, True)), kind)
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
