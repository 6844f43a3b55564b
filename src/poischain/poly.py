"""Sparse multivariate polynomial arithmetic over exact rationals.

Polynomials live in a coordinate ring of fixed dimension n, variables in the
basis order of the coordinate space.  The canonical term order is graded
lexicographic: higher total degree first, then lexicographic, x1 > ... > xn.

A monomial is a packed integer key (Kronecker substitution, as in Monagan and
Pearce's POLY): n + 1 fields of W = 16 bits, the total degree in the top
field, then the exponents of x1, ..., xn from the most significant field
down.  Integer order is graded-lex order, a product of monomials is the sum
of their keys, lowering x_i subtracts the key of x_i, and the degree is
key >> (W * n).  A product, power or parse whose degree would reach 2**W
raises ValueError instead of carrying into the next field.

A polynomial is `num` (key -> nonzero integer numerator) over one positive
denominator `den`, with gcd(den, *num.values()) == 1, so equal polynomials
have equal fields.  `Monomial` remains only as the constructor's input,
Polynomial(dim, {Monomial: coeff}), and as the key type of the read-only
`terms` view, decoded on access; coefficients cross that boundary as
`Fraction`s.  Floating point only appears in the flow integrator.
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Iterator, Sequence

W = 16  # bits per key field; unpack reads the fields as big-endian "H"
_MASK = (1 << W) - 1


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction (not floats or bools)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def _json_int(value, what: str) -> int:
    """An integer read from JSON; floats, booleans and strings are rejected
    rather than truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    """A list read from JSON; an object or a string is rejected rather than
    read key by key or character by character."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def as_point(values: Iterable, dim: int) -> tuple[Fraction, ...]:
    pt = tuple(as_fraction(v) for v in values)
    if len(pt) != dim:
        raise ValueError(f"point has {len(pt)} coordinates, expected {dim}")
    return pt


# ---------------------------------------------------------------------------
# packed monomial keys


def _check_degree(degree: int) -> None:
    if degree > _MASK:
        raise ValueError(f"total degree {degree} is not below 2**{W}")


@lru_cache(maxsize=None)
def variable_keys(dim: int) -> tuple[int, ...]:
    """The key of each coordinate x_v: degree one and exponent one at v."""
    top = 1 << (W * dim)
    return tuple(top | 1 << (W * (dim - 1 - v)) for v in range(dim))


def pack(exps: Iterable[tuple[int, int]], dim: int) -> int:
    """The key of the monomial with these (variable, exponent) pairs."""
    key = degree = 0
    for var, exp in exps:
        if not 0 <= var < dim:
            raise ValueError("variable index out of range")
        key += exp << (W * (dim - 1 - var))
        degree += exp
    _check_degree(degree)
    return key + (degree << (W * dim))


@lru_cache(maxsize=None)
def _fields(dim: int) -> struct.Struct:
    return struct.Struct(f">{dim + 1}H")


def unpack(key: int, dim: int) -> tuple[tuple[int, int], ...]:
    """The (variable, exponent) pairs of a key, by increasing variable."""
    exps = _fields(dim).unpack(key.to_bytes(2 * dim + 2, "big"))[1:]
    return tuple(compress(enumerate(exps), exps))


class Monomial:
    """An exponent vector, stored sparsely.  Zero exponents are never kept."""

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[tuple[int, int]] = ()):
        cleaned = []
        for var, exp in exps:
            if exp < 0:
                raise ValueError("negative exponent")
            if exp:
                cleaned.append((int(var), int(exp)))
        cleaned.sort()
        for a, b in zip(cleaned, cleaned[1:]):
            if a[0] == b[0]:
                raise ValueError("duplicate variable in monomial")
        self.exps = tuple(cleaned)

    def dense(self, dim: int) -> tuple[int, ...]:
        out = [0] * dim
        for v, e in self.exps:
            out[v] = e
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(f"x{v + 1}" + (f"^{e}" if e > 1 else "") for v, e in self.exps)


class Terms(Mapping):
    """Read-only {Monomial: Fraction} view of a polynomial, decoded on access."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "Polynomial") -> None:
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly.num)

    def __iter__(self):
        dim = self._poly.dim
        return (Monomial(unpack(key, dim)) for key in self._poly.num)

    def __getitem__(self, mono: Monomial) -> Fraction:
        p = self._poly
        try:
            return Fraction(p.num[pack(mono.exps, p.dim)], p.den)
        except (KeyError, ValueError, AttributeError):
            raise KeyError(mono) from None


def _make(dim: int, num: dict[int, int], den: int) -> "Polynomial":
    """The polynomial num / den (nonzero numerators, den > 0), with the
    common factor of den and the numerators divided out."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
    poly = object.__new__(Polynomial)
    poly.dim, poly.num, poly.den = dim, num, den
    return poly


def _from_fractions(dim: int, coeffs: Mapping[int, Fraction]) -> "Polynomial":
    """The polynomial with the given rational coefficient on each key."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    num = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items() if c}
    return _make(dim, num, den)


class Polynomial:
    """A sparse polynomial with rational coefficients in a fixed-dimension
    ring: integer numerators on packed monomial keys over one denominator."""

    __slots__ = ("dim", "num", "den")

    def __init__(self, dim: int, terms: Mapping[Monomial, Fraction] | None = None):
        dim = int(dim)
        poly = _from_fractions(
            dim, {pack(m.exps, dim): as_fraction(c) for m, c in (terms or {}).items()}
        )
        self.dim, self.num, self.den = dim, poly.num, poly.den

    @property
    def terms(self) -> Terms:
        return Terms(self)

    @classmethod
    def one(cls, dim: int) -> "Polynomial":
        return _make(int(dim), {0: 1}, 1)

    @classmethod
    def constant(cls, value, dim: int) -> "Polynomial":
        return _from_fractions(int(dim), {0: as_fraction(value)})

    @classmethod
    def variable(cls, var: int, dim: int) -> "Polynomial":
        return _make(int(dim), {pack(((var, 1),), dim): 1}, 1)

    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial (a distinct sentinel)."""
        if not self.num:
            return None
        return max(self.num) >> (W * self.dim)

    def _check(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return linear_combination(self.dim, ((1, self), (1, other)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return linear_combination(self.dim, ((1, self), (-1, other)))

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def scale(self, value) -> "Polynomial":
        return linear_combination(self.dim, ((value, self),))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return sum_of_products(self.dim, ((self, other),))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def power(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return Polynomial.one(self.dim)
        _check_degree(k * (self.degree or 0))
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and (self.dim, self.den, self.num) == (
            other.dim, other.den, other.num
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.den, frozenset(self.num.items())))

    def partial_derivative(self, var: int) -> "Polynomial":
        step = variable_keys(self.dim)[var]
        shift = W * (self.dim - 1 - var)
        out: dict[int, int] = {}
        for k, v in self.num.items():
            e = (k >> shift) & _MASK
            if e:
                out[k - step] = v * e
        return _make(self.dim, out, self.den)

    def variables(self) -> set[int]:
        acc = 0
        for k in self.num:
            acc |= k
        return {v for v, _ in unpack(acc, self.dim)}

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        total = 0
        for key, c in self.num.items():
            v = c
            for var, e in unpack(key, self.dim):
                v *= point[var] ** e
            total += v
        return Fraction(1, self.den) * total

    def substitute_linear(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute variable i by images[i] (an algebra homomorphism).

        Each power of an image is formed once per call, by one more
        multiplication than the power below it."""
        if len(images) != self.dim:
            raise ValueError("need one image per variable")
        target_dim = images[0].dim if images else self.dim
        powers: dict[int, list[Polynomial]] = {}
        pieces = []
        for key, c in self.num.items():
            piece = None
            for var, e in unpack(key, self.dim):
                chain = powers.setdefault(var, [images[var]])
                while len(chain) < e:
                    chain.append(chain[-1] * images[var])
                piece = chain[e - 1] if piece is None else piece * chain[e - 1]
            pieces.append((Fraction(c, self.den), piece or Polynomial.one(target_dim)))
        return linear_combination(target_dim, pieces)

    def shift_coefficients(self, mu: Sequence[Fraction]) -> dict[int, "Polynomial"]:
        """Taylor coefficients in t of p(x + t*mu), keyed by the power of t.

        Key 0 is p itself; the top key equals the degree of p (a constant)
        whenever p is nonzero and mu is generic.  With mu = m / d over one
        denominator, the coefficient of t^j has denominator den * d^j.
        """
        if len(mu) != self.dim:
            raise ValueError("shift dimension mismatch")
        mu = [as_fraction(v) for v in mu]
        d = math.lcm(*(v.denominator for v in mu))
        m = [v.numerator * (d // v.denominator) for v in mu]
        steps = variable_keys(self.dim)
        out: dict[int, dict[int, int]] = {}
        for key, coeff in self.num.items():
            partial = [(0, key, coeff)]
            for var, exp in unpack(key, self.dim):
                if m[var]:
                    step, mv = steps[var], m[var]
                    partial = [
                        (j + b, k - b * step, c * math.comb(exp, b) * mv**b)
                        for j, k, c in partial
                        for b in range(exp + 1)
                    ]
            for j, k, c in partial:
                bucket = out.setdefault(j, {})
                bucket[k] = bucket.get(k, 0) + c
        return {
            j: _make(self.dim, {k: v for k, v in t.items() if v}, self.den * d**j)
            for j, t in sorted(out.items())
            if any(t.values())
        }

    def monic(self) -> "Polynomial":
        if not self.num:
            return self
        lead = self.num[max(self.num)]
        num = self.num if lead > 0 else {k: -v for k, v in self.num.items()}
        return _make(self.dim, num, abs(lead))

    def render(self, labels: Sequence[str] | None = None) -> str:
        return render_polynomial(self, labels)

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def linear_combination(dim: int, pairs: Iterable) -> Polynomial:
    """sum(c * p) over (c, p) pairs, summed in integers over one denominator.
    An int c is used as it is; any other c goes through `as_fraction`, zeros
    included, so floats are rejected."""
    pairs = [(a, p) for c, p in pairs if (a := c if type(c) is int else as_fraction(c))]
    den = math.lcm(*(c.denominator * p.den for c, p in pairs))
    out: dict[int, int] = {}
    get = out.get
    for c, p in pairs:
        f = c.numerator * (den // (c.denominator * p.den))
        for k, v in p.num.items():
            nv = get(k, 0) + f * v
            if nv:
                out[k] = nv
            else:
                del out[k]
    return _make(dim, out, den)


def sum_of_products(dim: int, pairs: Iterable) -> Polynomial:
    """sum(p * q) over (p, q) pairs, multiplied and summed in one integer
    accumulator over one denominator, with no intermediate polynomial."""
    pairs = [(p, q) for p, q in pairs if p.num and q.num]
    _check_degree(max((p.degree + q.degree for p, q in pairs), default=0))
    den = math.lcm(*(p.den * q.den for p, q in pairs))
    out: dict[int, int] = {}
    get = out.get
    for p, q in pairs:
        f = den // (p.den * q.den)
        right = [(k, v * f) for k, v in q.num.items()]
        for k1, c1 in p.num.items():
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return _make(dim, {k: v for k, v in out.items() if v}, den)


def hamiltonian_field(p: Polynomial, alg) -> list[Polynomial]:
    """The Hamiltonian vector field of p: component j is {p, x_j}.

    {p, x_j} = sum_i d_i(p) {x_i, x_j}, and {x_i, x_j} is the linear form of
    [X_i, X_j]; one Leibniz pass over the terms of p fills every component,
    in integers over one denominator.
    """
    if p.dim != alg.dim:
        raise ValueError("polynomial dimension does not match the algebra")
    rows, den = alg.bracket_rows()
    dim = alg.dim
    keys = variable_keys(dim)
    out: list[dict[int, int]] = [{} for _ in range(dim)]
    for key, num in p.num.items():
        for i, e in unpack(key, dim):
            row = rows[i]
            if not row:
                continue
            base = key - keys[i]
            ne = num * e
            for j, bracket in row.items():
                acc = out[j]
                for k, c in bracket.items():
                    m2 = base + keys[k]
                    # a cancelled sum goes at once: the dict holds live terms only
                    if v := acc.get(m2, 0) + ne * c:
                        acc[m2] = v
                    else:
                        del acc[m2]
    return [_make(dim, acc, den * p.den) for acc in out]


class VectorField:
    """The vector field sum_j field[j] * d/dx_j, prepared once for repeated
    application: every component's integer numerators over one common
    denominator."""

    __slots__ = ("dim", "den", "components", "degree")

    def __init__(self, field: Sequence[Polynomial]) -> None:
        self.dim = len(field)
        self.den = math.lcm(*(c.den for c in field if c.num))
        self.components = [
            [(k, v * (self.den // c.den)) for k, v in c.num.items()] if c.num else None
            for c in field
        ]
        self.degree = max((c.degree or 0 for c in field), default=0)

    def __call__(self, q: Polynomial) -> Polynomial:
        """The derivative of q along the field."""
        if self.dim != q.dim:
            raise ValueError("vector field dimension does not match the polynomial")
        dim = q.dim
        _check_degree((q.degree or 1) - 1 + self.degree)
        components = self.components
        keys = variable_keys(dim)
        out: dict[int, int] = {}
        get = out.get
        for key, num in q.num.items():
            for j, e in unpack(key, dim):
                component = components[j]
                if component is None:
                    continue
                base = key - keys[j]
                ne = num * e
                for m, c in component:
                    m2 = base + m
                    # a cancelled sum goes at once: the dict holds live terms only
                    if v := get(m2, 0) + ne * c:
                        out[m2] = v
                    else:
                        del out[m2]
        return _make(dim, out, self.den * q.den)

    def monomial_images(self, keys: Iterable[int]) -> dict[int, dict[int, int]]:
        """The derivative along the field of each monomial key, as numerators
        over den with zero sums kept, each exponent read off its field of the
        key; unlike __call__, no degree check (a linear field keeps the degree)."""
        active = [(W * (self.dim - 1 - j), x_j, component) for j, (x_j, component)
                  in enumerate(zip(variable_keys(self.dim), self.components)) if component]
        images: dict[int, dict[int, int]] = {}
        for key in keys:
            images[key] = out = {}
            for shift, x_j, component in active:
                if e := key >> shift & _MASK:
                    for m, c in component:
                        m += key - x_j
                        out[m] = out.get(m, 0) + e * c
        return images


def brackets(
    pairs: Iterable[tuple[Polynomial, Polynomial]], alg
) -> Iterator[Polynomial]:
    """The Lie-Poisson bracket {p, q} of each (p, q) pair, in order.

    {p, q} = sum_j {p, x_j} d_j(q): q differentiated along the Hamiltonian
    field of p.  The field is built once for each run of consecutive pairs
    with equal p, so pairs grouped by their left element, as
    itertools.product and the combinations functions give them, build one
    field per left element.
    """
    left = field = None
    for p, q in pairs:
        if p != left:
            left, field = p, VectorField(hamiltonian_field(p, alg))
        yield field(q)


def lie_poisson_bracket(p: Polynomial, q: Polynomial, alg) -> Polynomial:
    """Linear Poisson bracket {p, q} induced by the structure constants of
    alg (hamiltonian_field): the one-pair case of `brackets`."""
    return next(brackets([(p, q)], alg))


def gradient_rows(
    polys: Sequence[Polynomial], point: Sequence[int]
) -> list[dict[int, int]]:
    """Jacobian of the given polynomials at an integer point, one sparse
    integer row per polynomial: row i is the gradient of polys[i] times its
    denominator, a positive scale that leaves every rank unchanged."""
    rows = []
    for p in polys:
        if p.dim != len(point):
            raise ValueError("point dimension mismatch")
        row: dict[int, int] = {}
        for key, c in p.num.items():
            exps = unpack(key, p.dim)
            for i, (v, e) in enumerate(exps):
                t = c * e * point[v] ** (e - 1)
                for u, f in exps[:i] + exps[i + 1:]:
                    t *= point[u] ** f
                row[v] = row.get(v, 0) + t
        rows.append({v: x for v, x in row.items() if x})
    return rows


# ---------------------------------------------------------------------------
# text and JSON formats

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
_X_RE = re.compile(r"^x(\d+)$")


def render_polynomial(p: Polynomial, labels: Sequence[str] | None = None) -> str:
    """Canonical text form: graded-lex descending terms joined by signs."""
    if labels is None:
        labels = [f"x{i + 1}" for i in range(p.dim)]
    if len(labels) != p.dim:
        raise ValueError("label count does not match dimension")
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for key in sorted(p.num, reverse=True):
        num = p.num[key]
        g = math.gcd(num, p.den)
        sign, top, bottom = ("-" if num < 0 else "+"), abs(num) // g, p.den // g
        mag = str(top) if bottom == 1 else f"{top}/{bottom}"
        factors = [
            labels[v] + (f"^{e}" if e > 1 else "") for v, e in unpack(key, p.dim)
        ]
        body = "*".join(([mag] if mag != "1" or not factors else []) + factors)
        chunks.append(f" {sign} {body}" if chunks else body if sign == "+" else "-" + body)
    return "".join(chunks)


def _sum_terms(
    dim: int, terms: Iterable[tuple[Fraction, Iterable[tuple[int, int]]]]
) -> Polynomial:
    """The sum of (coefficient, exponent pairs) terms, collected in one dict."""
    coeffs: dict[int, Fraction] = {}
    for coeff, pairs in terms:
        key = pack(Monomial(pairs).exps, dim)
        total = coeffs.get(key, 0) + coeff
        if total:
            coeffs[key] = total
        else:
            coeffs.pop(key, None)
    return _from_fractions(dim, coeffs)


def parse_polynomial(
    text: str, dim: int, labels: Sequence[str] | None = None
) -> Polynomial:
    """Parse the canonical text form.

    Terms are rationals and named variables joined by '*', with optional
    '^k' powers, combined by '+' and '-'.  Variable names are the provided
    labels; the positional spellings x1..xn are always accepted.
    """
    lookup: dict[str, int] = {}
    if labels is not None:
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        lookup = {lab: i for i, lab in enumerate(labels)}

    def var_index(name: str) -> int:
        if name in lookup:
            return lookup[name]
        m = _X_RE.match(name)
        if m:
            idx = int(m.group(1)) - 1
            if 0 <= idx < dim:
                return idx
        raise ValueError(f"unknown variable {name!r}")

    # signed terms; '+' and '-' never occur inside a term, and a run of signs
    # multiplies out ("x1 - -x2" is x1 + x2)
    terms = []
    sign = 1
    for term in (token.strip() for token in re.split(r"([+-])", text)):
        if term in ("", "+", "-"):
            sign = -sign if term == "-" else sign
            continue
        coeff, sign = Fraction(sign), 1
        pairs: dict[int, int] = {}
        for factor in (f.strip() for f in term.split("*")):
            if not factor:
                raise ValueError(f"malformed term {term!r}")
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= as_fraction(factor)
                continue
            if "^" in factor:
                name, _, exp_s = factor.partition("^")
                name, exp_s = name.strip(), exp_s.strip()
                if not exp_s.isdigit():
                    raise ValueError(f"bad exponent in {factor!r}")
                exp = int(exp_s)
            else:
                name, exp = factor, 1
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
            idx = var_index(name)
            pairs[idx] = pairs.get(idx, 0) + exp
        terms.append((coeff, pairs.items()))
    if not terms:
        raise ValueError("empty polynomial text")
    return _sum_terms(dim, terms)


def polynomial_from_json(data, dim: int) -> Polynomial:
    terms = []
    for t in _json_list(data, "polynomial JSON"):
        coeff, exps = as_fraction(t["coeff"]), t.get("exps", {})
        if not isinstance(exps, dict):
            raise ValueError(f"exps must be an object, got {exps!r}")
        terms.append((coeff, [(int(k), _json_int(e, "exponent")) for k, e in exps.items()]))
    return _sum_terms(dim, terms)


def dump_json(obj) -> str:
    """Canonical JSON serialization used for every report this package emits."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
