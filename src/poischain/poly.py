"""Sparse multivariate polynomial arithmetic over exact rationals.

Polynomials live in a coordinate ring of fixed dimension; the variable order
is the basis order of the ambient coordinate space.  The canonical term order
used everywhere for rendering, pivoting and normalization is graded
lexicographic: higher total degree first, ties broken lexicographically with
x1 > x2 > ... > xn.

All coefficients are ``fractions.Fraction``.  Floating point only appears in
the flow integrator, never here.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction. Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def as_point(values: Iterable, dim: int) -> tuple[Fraction, ...]:
    pt = tuple(as_fraction(v) for v in values)
    if len(pt) != dim:
        raise ValueError(f"point has {len(pt)} coordinates, expected {dim}")
    return pt


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

    @classmethod
    def _of(cls, exps: tuple[tuple[int, int], ...]) -> "Monomial":
        """Wrap an exponent tuple that is already sorted by variable and free
        of zero exponents, without checking it again."""
        mono = object.__new__(cls)
        mono.exps = exps
        return mono

    @classmethod
    def one(cls) -> "Monomial":
        return cls(())

    @classmethod
    def variable(cls, var: int, exp: int = 1) -> "Monomial":
        return cls(((var, exp),))

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def exponent(self, var: int) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def variables(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.exps)

    def is_one(self) -> bool:
        return not self.exps

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other.exps:
            return self
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return Monomial._of(tuple(sorted(merged.items())))

    def lowered(self, var: int) -> "Monomial":
        """The monomial with the exponent of ``var`` reduced by one."""
        return Monomial._of(
            tuple(
                (v, e - 1) if v == var else (v, e)
                for v, e in self.exps
                if v != var or e > 1
            )
        )

    def raised(self, var: int) -> "Monomial":
        merged = dict(self.exps)
        merged[var] = merged.get(var, 0) + 1
        return Monomial._of(tuple(sorted(merged.items())))

    def dense(self, dim: int) -> tuple[int, ...]:
        out = [0] * dim
        for v, e in self.exps:
            out[v] = e
        return tuple(out)

    def sort_key(self, dim: int) -> tuple:
        """Graded-lex key; larger keys are larger monomials."""
        return (self.degree(), self.dense(dim))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(f"x{v + 1}" + (f"^{e}" if e > 1 else "") for v, e in self.exps)


class Polynomial:
    """A sparse polynomial with Fraction coefficients in a fixed-dimension ring."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Monomial, Fraction] | None = None):
        self.dim = int(dim)
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = as_fraction(coeff)
                if not coeff:
                    continue
                if mono.exps and mono.exps[-1][0] >= self.dim:
                    raise ValueError("variable index out of range")
                clean[mono] = coeff
        self.terms = clean

    @classmethod
    def _of(cls, dim: int, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap a term dict built by this module's own arithmetic (Fraction
        coefficients, none zero, variables in range) without copying it."""
        poly = object.__new__(cls)
        poly.dim = dim
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim)

    @classmethod
    def one(cls, dim: int) -> "Polynomial":
        return cls(dim, {Monomial.one(): Fraction(1)})

    @classmethod
    def constant(cls, value, dim: int) -> "Polynomial":
        return cls(dim, {Monomial.one(): as_fraction(value)})

    @classmethod
    def variable(cls, var: int, dim: int) -> "Polynomial":
        return cls(dim, {Monomial.variable(var): Fraction(1)})

    @classmethod
    def term(cls, dim: int, coeff, pairs: Iterable[tuple[int, int]]) -> "Polynomial":
        return cls(dim, {Monomial(pairs): as_fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial (a distinct sentinel)."""
        if not self.terms:
            return None
        return max(m.degree() for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {m.degree() for m in self.terms}
        return len(degs) <= 1

    def _check(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                nv = out[m] + c
                if nv:
                    out[m] = nv
                else:
                    del out[m]
            else:
                out[m] = c
        return Polynomial._of(self.dim, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.dim, {m: -c for m, c in self.terms.items()})

    def scale(self, value) -> "Polynomial":
        value = as_fraction(value)
        if not value:
            return Polynomial.zero(self.dim)
        return Polynomial._of(self.dim, {m: c * value for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        left, den_left = _numerators(self.terms)
        right, den_right = _numerators(other.terms)
        out: dict[Monomial, int] = {}
        for m1, c1 in left:
            for m2, c2 in right:
                m = m1 * m2
                out[m] = out.get(m, 0) + c1 * c2
        return _over(self.dim, out, den_left * den_right)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def power(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.dim)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.terms.items())))

    def partial_derivative(self, var: int) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m.exponent(var)
            if e:
                lowered = m.lowered(var)
                out[lowered] = out.get(lowered, Fraction(0)) + c * e
        return Polynomial(self.dim, out)

    def variables(self) -> set[int]:
        out: set[int] = set()
        for m in self.terms:
            out.update(m.variables())
        return out

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for var, e in m.exps:
                v *= point[var] ** e
            total += v
        return total

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            buckets.setdefault(m.degree(), {})[m] = c
        return {d: Polynomial(self.dim, t) for d, t in sorted(buckets.items())}

    def substitute_linear(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute variable i by images[i] (an algebra homomorphism)."""
        if len(images) != self.dim:
            raise ValueError("need one image per variable")
        target_dim = images[0].dim if images else self.dim
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            piece = Polynomial.constant(c, target_dim)
            for var, e in m.exps:
                piece = piece * images[var].power(e)
            for pm, pc in piece.terms.items():
                nv = out.get(pm, 0) + pc
                if nv:
                    out[pm] = nv
                else:
                    del out[pm]
        return Polynomial._of(target_dim, out)

    def shift_coefficients(self, mu: Sequence[Fraction]) -> dict[int, "Polynomial"]:
        """Taylor coefficients in t of p(x + t*mu), keyed by the power of t.

        Key 0 is p itself; the top key equals the degree of p (a constant)
        whenever p is nonzero and mu is generic.
        """
        if len(mu) != self.dim:
            raise ValueError("shift dimension mismatch")
        mu = [as_fraction(v) for v in mu]
        out: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            partial: list[tuple[int, list[tuple[int, int]], Fraction]] = [(0, [], coeff)]
            for var, exp in mono.exps:
                mval = mu[var]
                nxt: list[tuple[int, list[tuple[int, int]], Fraction]] = []
                if mval == 0:
                    for j, pairs, c in partial:
                        nxt.append((j, pairs + [(var, exp)], c))
                else:
                    for j, pairs, c in partial:
                        for b in range(exp + 1):
                            c2 = c * math.comb(exp, b) * mval**b
                            rem = exp - b
                            pairs2 = pairs + ([(var, rem)] if rem else [])
                            nxt.append((j + b, pairs2, c2))
                partial = nxt
            for j, pairs, c in partial:
                bucket = out.setdefault(j, {})
                m2 = Monomial(pairs)
                bucket[m2] = bucket.get(m2, Fraction(0)) + c
        result = {j: Polynomial(self.dim, t) for j, t in out.items()}
        return {j: p for j, p in sorted(result.items()) if not p.is_zero()}

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical graded-lex descending order."""
        return sorted(
            self.terms.items(), key=lambda mc: mc[0].sort_key(self.dim), reverse=True
        )

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=lambda m: m.sort_key(self.dim))

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(1 / self.leading_coefficient())

    def render(self, labels: Sequence[str] | None = None) -> str:
        return render_polynomial(self, labels)

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def _numerators(
    terms: Mapping[Monomial, Fraction],
) -> tuple[list[tuple[Monomial, int]], int]:
    """The terms as integer numerators over their least common denominator."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return [(m, c.numerator * (den // c.denominator)) for m, c in terms.items()], den


def _over(dim: int, acc: dict[Monomial, int], den: int) -> Polynomial:
    """The polynomial with coefficients acc[m] / den (zero entries dropped)."""
    return Polynomial._of(dim, {m: Fraction(v, den) for m, v in acc.items() if v})


def hamiltonian_field(p: Polynomial, alg) -> list[Polynomial]:
    """The Hamiltonian vector field of p: component j is {p, x_j}.

    {p, x_j} = sum_i d_i(p) {x_i, x_j}, and {x_i, x_j} is the linear form of
    [X_i, X_j]; one Leibniz pass over the terms of p fills every component,
    in integers over one denominator.
    """
    if p.dim != alg.dim:
        raise ValueError("polynomial dimension does not match the algebra")
    rows, den = alg.bracket_rows()
    terms, den_p = _numerators(p.terms)
    out: list[dict[Monomial, int]] = [{} for _ in range(alg.dim)]
    for mono, num in terms:
        for i, e in mono.exps:
            row = rows[i]
            if not row:
                continue
            base = mono.lowered(i)
            raised: dict[int, Monomial] = {}
            ne = num * e
            for j, bracket in row.items():
                acc = out[j]
                for k, c in bracket.items():
                    m2 = raised.get(k)
                    if m2 is None:
                        m2 = raised[k] = base.raised(k)
                    acc[m2] = acc.get(m2, 0) + ne * c
    return [_over(alg.dim, acc, den * den_p) for acc in out]


def apply_vector_field(field: Sequence[Polynomial], q: Polynomial) -> Polynomial:
    """The derivative of q along the vector field: sum_j field[j] * d_j(q)."""
    if len(field) != q.dim:
        raise ValueError("vector field dimension does not match the polynomial")
    used = {j for mono in q.terms for j, _ in mono.exps if field[j].terms}
    den = math.lcm(*(c.denominator for j in used for c in field[j].terms.values()))
    components = {
        j: [(m, c.numerator * (den // c.denominator)) for m, c in field[j].terms.items()]
        for j in used
    }
    terms, den_q = _numerators(q.terms)
    out: dict[Monomial, int] = {}
    for mono, num in terms:
        for j, e in mono.exps:
            component = components.get(j)
            if component is None:
                continue
            base = mono.lowered(j)
            ne = num * e
            for m, c in component:
                m2 = base * m
                out[m2] = out.get(m2, 0) + ne * c
    return _over(q.dim, out, den * den_q)


def lie_poisson_bracket(p: Polynomial, q: Polynomial, alg) -> Polynomial:
    """Linear Poisson bracket {p, q} induced by the structure constants of alg.

    On coordinates {x_i, x_j} is the linear form with the structure constants
    of [X_i, X_j]; the bracket extends by the Leibniz rule in each slot, so
    {p, q} = sum_j {p, x_j} d_j(q): q differentiated along the Hamiltonian
    field of p.  Callers bracketing one p against many q compute
    hamiltonian_field(p, alg) once and apply it to each q.
    """
    if q.dim != alg.dim:
        raise ValueError("polynomial dimension does not match the algebra")
    return apply_vector_field(hamiltonian_field(p, alg), q)


def gradient_matrix(
    polys: Sequence[Polynomial], point: Sequence[Fraction]
) -> list[list[Fraction]]:
    """Jacobian of the given polynomials at a point, one row per polynomial."""
    if not polys:
        return []
    dim = polys[0].dim
    rows = []
    for p in polys:
        if p.dim != dim:
            raise ValueError("mixed dimensions in gradient matrix")
        rows.append([p.partial_derivative(i).evaluate(point) for i in range(dim)])
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
    for mono, coeff in p.sorted_terms():
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        factors = [
            labels[v] + (f"^{e}" if e > 1 else "") for v, e in mono.exps
        ]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not chunks:
            chunks.append(body if sign == "+" else "-" + body)
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


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

    stripped = text.strip()
    if not stripped:
        raise ValueError("empty polynomial text")
    # split into signed terms; '+' and '-' never occur inside a term
    pieces: list[tuple[int, str]] = []
    sign, buf = 1, []
    for ch in stripped:
        if ch in "+-":
            chunk = "".join(buf).strip()
            if chunk:
                pieces.append((sign, chunk))
                buf = []
                sign = 1 if ch == "+" else -1
            else:
                sign = sign if ch == "+" else -sign
        else:
            buf.append(ch)
    chunk = "".join(buf).strip()
    if chunk:
        pieces.append((sign, chunk))
    if not pieces:
        raise ValueError("empty polynomial text")

    result = Polynomial.zero(dim)
    for sgn, term in pieces:
        if not term:
            raise ValueError("empty term")
        coeff = Fraction(sgn)
        pairs: dict[int, int] = {}
        for factor in (f.strip() for f in term.split("*")):
            if not factor:
                raise ValueError(f"malformed term {term!r}")
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
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
        result = result + Polynomial.term(dim, coeff, pairs.items())
    return result


def polynomial_to_json(p: Polynomial) -> list[dict]:
    """JSON form: a list of {coeff, exps} objects with 0-based variable keys."""
    out = []
    for mono, coeff in p.sorted_terms():
        out.append(
            {
                "coeff": str(coeff),
                "exps": {str(v): e for v, e in mono.exps},
            }
        )
    return out


def polynomial_from_json(data, dim: int) -> Polynomial:
    if not isinstance(data, list):
        raise ValueError("polynomial JSON must be a list of terms")
    p = Polynomial.zero(dim)
    for entry in data:
        coeff = as_fraction(entry["coeff"])
        pairs = [(int(k), int(e)) for k, e in entry.get("exps", {}).items()]
        p = p + Polynomial.term(dim, coeff, pairs)
    return p


def dump_json(obj) -> str:
    """Canonical JSON serialization used for every report this package emits."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
