"""Exact calculus for homogeneous polynomials and smooth homogeneous maps.

Polynomials are stored as sparse coefficient tables over integer exponent
vectors and differentiated exactly (term by term), so gradients, Hessians and
third-derivative tensors carry no discretization error.  Non-polynomial
homogeneous functions enter through :class:`SmoothHomogeneousMap`, which wraps
user-supplied closed-form derivative callables behind the same interface.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DomainError, MixedDegreeError, ParseError

NAMED_VARS = ("x", "y", "z", "w")

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<var>[a-zA-Z]\d*)|(?P<op>[-+*^]))"
)


def _sorted_terms(terms):
    # graded lexicographic; all stored terms share one degree, so plain
    # reverse-lex on the exponent tuples is a stable total order
    return dict(sorted(terms.items(), key=lambda kv: kv[0], reverse=True))


def _mul_terms(a: Mapping[tuple, float], b: Mapping[tuple, float]) -> dict:
    out: dict[tuple, float] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0.0) + ca * cb
    return {e: c for e, c in out.items() if c != 0.0}


def _pow_terms(t: Mapping[tuple, float], n: int) -> dict:
    dim = len(next(iter(t)))
    out = {tuple([0] * dim): 1.0}
    for _ in range(n):
        out = _mul_terms(out, t)
    return out


class HomogeneousPolynomial:
    """Multivariate homogeneous polynomial with exact differentiation.

    Parameters
    ----------
    terms : mapping from exponent tuples to real coefficients
        Every exponent tuple must have the same length (the ambient dimension)
        and the same total degree ``k >= 2``.  Zero coefficients are dropped.
    dimension : int, optional
        Ambient dimension override; must match the exponent tuples.
    """

    def __init__(self, terms: Mapping[Sequence[int], float], dimension: int | None = None):
        clean: dict[tuple, float] = {}
        dim = dimension
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if dim is None:
                dim = len(exp)
            if len(exp) != dim:
                raise ValueError(f"exponent vector {exp} has length {len(exp)}, expected {dim}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = float(coeff)
            if c != 0.0:
                clean[exp] = clean.get(exp, 0.0) + c
        clean = {e: c for e, c in clean.items() if c != 0.0}
        if not clean:
            raise ValueError("polynomial has no nonzero terms")
        degrees = {sum(e) for e in clean}
        if len(degrees) > 1:
            names = ", ".join(
                f"{_format_monomial(e, dim)} (degree {sum(e)})" for e in sorted(clean, reverse=True)
            )
            raise MixedDegreeError(f"monomials of mixed total degree: {names}")
        degree = degrees.pop()
        if degree < 2:
            raise ValueError(f"total degree must be >= 2, got {degree}")
        self.dimension = dim
        self.degree = degree
        self._terms = _sorted_terms(clean)
        self._exps = np.array(list(self._terms.keys()), dtype=np.int64)
        self._coeffs = np.array(list(self._terms.values()), dtype=float)
        self._tables: dict[int, tuple] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, text: str, dimension: int | None = None) -> "HomogeneousPolynomial":
        """Parse an expression like ``"x^3 - x*y^2"`` or ``"2*x0^2*x1"``."""
        terms, dim = _parse_expression(text, dimension)
        return cls(terms, dimension=dim)

    @classmethod
    def from_json(cls, obj: Mapping) -> "HomogeneousPolynomial":
        terms = {tuple(t["exp"]): float(t["c"]) for t in obj["terms"]}
        poly = cls(terms, dimension=int(obj["dim"]))
        if poly.degree != int(obj["degree"]):
            raise MixedDegreeError(
                f"declared degree {obj['degree']} does not match terms (degree {poly.degree})"
            )
        return poly

    def to_json(self) -> dict:
        return {
            "dim": self.dimension,
            "degree": self.degree,
            "terms": [{"exp": list(e), "c": c} for e, c in self._terms.items()],
        }

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    # -- evaluation and derivatives ---------------------------------------

    def __call__(self, x) -> float:
        return float(self.value_rows(x)[0])

    def value_rows(self, points) -> np.ndarray:
        """Value at each row of ``points`` (one value for a point): the terms
        c * prod_j x_j^e_j of a row summed by ``math.fsum``, correctly rounded."""
        x = np.asarray(points, dtype=float)
        terms = self._coeffs * np.prod(x[..., None, :] ** self._exps, axis=-1)
        return np.array([math.fsum(row) for row in terms.reshape(-1, len(self._coeffs)).tolist()])

    def contains(self, x) -> bool:
        return True

    def gradient(self, x) -> np.ndarray:
        return self._derivative(x, 1)

    def hessian(self, x) -> np.ndarray:
        return self._derivative(x, 2)

    def third_tensor(self, x) -> np.ndarray:
        return self._derivative(x, 3)

    def derivative_tensor(self, x, order: int) -> np.ndarray:
        """Tensor of all partial derivatives of the given order (zero above the degree)."""
        return self._derivative(x, order)

    def _derivative(self, x, order: int) -> np.ndarray:
        exps, coeffs, slots = self._table(order)
        x = np.asarray(x, dtype=float)
        size = self.dimension**order
        if not exps.size:
            return np.zeros((self.dimension,) * order)
        vals = coeffs.copy()
        for j in range(self.dimension):
            vals *= x[j] ** exps[:, j]
        out = np.bincount(slots, weights=vals, minlength=size)
        return out.reshape((self.dimension,) * order)

    def derivative_rows(self, points, order: int) -> np.ndarray:
        """Value (order 0, :meth:`value_rows`) or derivative tensor at each row
        of ``points``, in one evaluation; a derivative row rounds as the
        one-point call does."""
        x = np.atleast_2d(np.asarray(points, dtype=float))
        if order == 0:
            return self.value_rows(x)
        if len(x) == 1:  # the one-point call, which rounds alike, has less overhead
            return self._derivative(x[0], order)[None]
        exps, coeffs, slots = self._table(order)
        # x_j^0..x_j^max by pow over an exponent array, as the one-point call (numpy squares a lone 2)
        powers = [x[:, j : j + 1] ** np.arange(exps[:, j].max(initial=0) + 1) for j in range(self.dimension)]
        out = np.zeros((len(x), self.dimension**order))
        step = max(1, 2**14 // max(1, len(x)))  # table rows per block, bounding the scratch arrays
        for rows in (slice(i, i + step) for i in range(0, len(coeffs), step)):
            vals = np.repeat(coeffs[None, rows], len(x), axis=0)
            for j, power in enumerate(powers):
                vals *= power[:, exps[rows, j]]
            np.add.at(out, (slice(None), slots[rows]), vals)  # in table order, as bincount sums
        return out.reshape((len(x),) + (self.dimension,) * order)

    def _table(self, order: int):
        # rows: one per (term, ordered index sequence); symmetric slots appear
        # as separate identical rows, so the assembled tensor is exactly symmetric
        if order not in self._tables:
            d = self.dimension
            rows = [(tuple(e), c, 0) for e, c in self._terms.items()]
            flat: list[tuple[tuple, float, int]] = []
            work = [(e, c, ()) for e, c, _ in rows]
            for _ in range(order):
                nxt = []
                for e, c, idx in work:
                    for i in range(d):
                        if e[i] > 0:
                            e2 = list(e)
                            e2[i] -= 1
                            nxt.append((tuple(e2), c * e[i], idx + (i,)))
                work = nxt
            for e, c, idx in work:
                slot = 0
                for i in idx:
                    slot = slot * d + i
                flat.append((e, c, slot))
            if flat:
                exps = np.array([f[0] for f in flat], dtype=np.int64)
                coeffs = np.array([f[1] for f in flat], dtype=float)
                slots = np.array([f[2] for f in flat], dtype=np.int64)
            else:
                exps = np.zeros((0, d), dtype=np.int64)
                coeffs = np.zeros(0)
                slots = np.zeros(0, dtype=np.int64)
            self._tables[order] = (exps, coeffs, slots)
        return self._tables[order]

    # -- algebra -----------------------------------------------------------

    def compose_linear(self, matrix) -> "HomogeneousPolynomial":
        """Return q with q(y) = self(A @ y) for a square matrix A."""
        A = np.asarray(matrix, dtype=float)
        if A.shape != (self.dimension, self.dimension):
            raise ValueError(f"matrix shape {A.shape} does not match dimension {self.dimension}")
        new_dim = A.shape[1]
        unit = lambda j: tuple(int(pos == j) for pos in range(new_dim))
        linear = [
            {unit(j): A[i, j] for j in range(new_dim) if A[i, j] != 0.0}
            for i in range(self.dimension)
        ]
        out: dict[tuple, float] = {}
        for exp, coeff in self._terms.items():
            term = {tuple([0] * new_dim): coeff}
            for i, e in enumerate(exp):
                if e:
                    if not linear[i]:
                        term = {}
                        break
                    term = _mul_terms(term, _pow_terms(linear[i], e))
            for e2, c2 in term.items():
                out[e2] = out.get(e2, 0.0) + c2
        return HomogeneousPolynomial(out, dimension=new_dim)

    def subtract_power_of_linear_form(self, covector, scale: float) -> "HomogeneousPolynomial":
        """Return self - scale * (covector . x)**degree, expanded exactly."""
        a = np.asarray(covector, dtype=float)
        lin = {
            tuple(int(i == j) for j in range(self.dimension)): a[i]
            for i in range(self.dimension)
            if a[i] != 0.0
        }
        powered = _pow_terms(lin, self.degree)
        out = dict(self._terms)
        for e, c in powered.items():
            out[e] = out.get(e, 0.0) - scale * c
        return HomogeneousPolynomial(out, dimension=self.dimension)

    # -- formatting ---------------------------------------------------------

    def serialize(self) -> str:
        parts = []
        for i, (exp, coeff) in enumerate(self._terms.items()):
            mon = _format_monomial(exp, self.dimension)
            mag = abs(coeff)
            body = mon if mag == 1.0 else f"{mag!r}*{mon}"
            if i == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"HomogeneousPolynomial({self.serialize()!r})"

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousPolynomial)
            and self.dimension == other.dimension
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.dimension, tuple(self._terms.items())))


def _format_monomial(exp, dim):
    names = NAMED_VARS if dim <= 4 else tuple(f"x{i}" for i in range(dim))
    factors = []
    for i, e in enumerate(exp):
        if e == 1:
            factors.append(names[i])
        elif e > 1:
            factors.append(f"{names[i]}^{e}")
    return "*".join(factors) if factors else "1"


# -- expression parser ------------------------------------------------------


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", position=at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "var":
            tokens.append(("var", m.group("var"), m.start("var")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def _var_index(name, pos, mode):
    if name in NAMED_VARS and (len(name) == 1):
        if mode["style"] == "indexed":
            raise ParseError("cannot mix named and indexed variables", position=pos)
        mode["style"] = "named"
        return NAMED_VARS.index(name)
    if name[0] == "x" and len(name) > 1 and name[1:].isdigit():
        if mode["style"] == "named":
            raise ParseError("cannot mix named and indexed variables", position=pos)
        mode["style"] = "indexed"
        return int(name[1:])
    raise ParseError(f"unknown variable {name!r}", position=pos)


def _parse_expression(text, dimension):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", position=0)
    mode = {"style": None}
    raw_terms: list[tuple[float, dict, int]] = []  # (coeff, var->power, position)
    i = 0
    sign = 1.0
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign = -1.0 if tokens[0][1] == "-" else 1.0
        i = 1
    while True:
        coeff = sign
        powers: dict[int, int] = {}
        term_pos = tokens[i][2] if i < len(tokens) else len(text)
        if i >= len(tokens):
            raise ParseError("expected a term", position=term_pos)
        # optional leading numeric coefficient
        if tokens[i][0] == "num":
            coeff *= float(tokens[i][1])
            i += 1
            if i >= len(tokens) or tokens[i][0] != "op" or tokens[i][1] != "*":
                raise ParseError("a coefficient must be followed by '*' and a variable", position=term_pos)
            i += 1
        # one or more factors separated by '*'
        while True:
            if i >= len(tokens) or tokens[i][0] != "var":
                raise ParseError("expected a variable", position=tokens[i - 1][2] if i else 0)
            idx = _var_index(tokens[i][1], tokens[i][2], mode)
            i += 1
            power = 1
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "num" or not tokens[i][1].isdigit():
                    raise ParseError("exponent must be a nonnegative integer", position=tokens[i - 1][2])
                power = int(tokens[i][1])
                i += 1
            powers[idx] = powers.get(idx, 0) + power
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                continue
            break
        raw_terms.append((coeff, powers, term_pos))
        if i >= len(tokens):
            break
        if tokens[i][0] != "op" or tokens[i][1] not in "+-":
            raise ParseError(f"expected '+' or '-', got {tokens[i][1]!r}", position=tokens[i][2])
        sign = -1.0 if tokens[i][1] == "-" else 1.0
        i += 1

    max_idx = max((max(p) for _, p, _ in raw_terms if p), default=-1)
    dim = dimension if dimension is not None else max_idx + 1
    if dim <= max_idx:
        raise ParseError(f"dimension {dim} too small for used variables", position=0)
    if mode["style"] == "named" and dimension is None:
        dim = max(dim, max_idx + 1)
    terms: dict[tuple, float] = {}
    degrees: dict[tuple, int] = {}
    for coeff, powers, pos_ in raw_terms:
        exp = tuple(powers.get(j, 0) for j in range(dim))
        terms[exp] = terms.get(exp, 0.0) + coeff
        degrees[exp] = sum(exp)
    if len(set(degrees.values())) > 1:
        names = ", ".join(
            f"{_format_monomial(e, dim)} (degree {d})" for e, d in sorted(degrees.items(), reverse=True)
        )
        raise MixedDegreeError(f"monomials of mixed total degree: {names}")
    return terms, dim


# -- smooth homogeneous maps -------------------------------------------------


class SmoothHomogeneousMap:
    """Closed-form homogeneous function with analytic derivative callables.

    The degree may be any real number ``> 1``.  Derivatives are evaluated only
    inside the declared domain cone; the domain predicate should accept the
    closure wherever the formulas remain finite so that boundary analysis can
    evaluate limits there.
    """

    def __init__(
        self,
        dimension: int,
        degree: float,
        value: Callable,
        gradient: Callable,
        hessian: Callable,
        third: Callable | None = None,
        in_domain: Callable | None = None,
        name: str = "",
    ):
        if degree <= 1:
            raise ValueError(f"degree must be > 1, got {degree}")
        self.dimension = dimension
        self.degree = float(degree)
        self.name = name
        self._value = value
        self._gradient = gradient
        self._hessian = hessian
        self._third = third
        self._in_domain = in_domain or (lambda x: True)

    def contains(self, x) -> bool:
        return bool(self._in_domain(np.asarray(x, dtype=float)))

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if not self._in_domain(x):
            raise DomainError(f"point {x.tolist()} outside the domain cone")
        return x

    def __call__(self, x) -> float:
        return float(self._value(self._check(x)))

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self._gradient(self._check(x)), dtype=float)

    def hessian(self, x) -> np.ndarray:
        return np.asarray(self._hessian(self._check(x)), dtype=float)

    def third_tensor(self, x) -> np.ndarray:
        if self._third is None:
            raise DomainError("this map does not supply third derivatives")
        return np.asarray(self._third(self._check(x)), dtype=float)

    def derivative_rows(self, points, order: int) -> np.ndarray:
        """Value (order 0), gradient or Hessian at each row of ``points``."""
        jet = (self, self.gradient, self.hessian)[order]
        return np.array([jet(x) for x in points], dtype=float).reshape((len(points),) + (self.dimension,) * order)

    def __repr__(self):
        tag = self.name or "anonymous"
        return f"SmoothHomogeneousMap({tag}, degree={self.degree})"


# -- identities and restrictions ---------------------------------------------


def euler_residual(func, x) -> float:
    """Return <x, grad(x)> - k * value(x); zero for genuinely homogeneous input.
    One row of :func:`euler_residual_rows`."""
    x = np.asarray(x, dtype=float)
    grad = func.gradient(x)
    return float(euler_residual_rows(func.degree, x[None], np.array([func(x)]), grad[None])[0])


def euler_residual_rows(k: float, points, values, grads) -> np.ndarray:
    """<x, grad(x)> - k * value(x) at each row of ``points``, from the values
    and gradients there; each row's products are summed by ``math.fsum``."""
    return np.array([math.fsum(row) for row in (points * grads).tolist()]) - k * values


def position_identity_residual(func, x) -> float:
    """Max-norm of hessian(x) @ x - (k - 1) * grad(x).

    The contraction of the Hessian with the position vector reproduces the
    differential scaled by k - 1 for any function homogeneous of degree k.
    One row of :func:`position_identity_residual_rows`.
    """
    x = np.asarray(x, dtype=float)
    hess = func.hessian(x)
    return float(position_identity_residual_rows(func.degree, x[None], func.gradient(x)[None], hess[None])[0])


def position_identity_residual_rows(k: float, points, grads, hessians) -> np.ndarray:
    """:func:`position_identity_residual` at each row of ``points``, from the
    gradients and Hessians there."""
    lhs = np.matmul(hessians, points[:, :, None])[:, :, 0]
    return np.abs(lhs - (k - 1.0) * grads).max(axis=1)


def polarization(poly: HomogeneousPolynomial) -> np.ndarray:
    """Symmetric trilinear form with T(v, v, v) = poly(v); requires degree 3."""
    if not isinstance(poly, HomogeneousPolynomial) or poly.degree != 3:
        raise ValueError("polarization requires a cubic polynomial")
    return poly.third_tensor(np.zeros(poly.dimension)) / 6.0


class UnivariateRestriction:
    """Restriction t -> func(x + t*v) of a homogeneous function to a line;
    for polynomials ``coefficients`` holds it exactly (:func:`line_coefficients`),
    for smooth maps it is None and values come from the map itself."""

    def __init__(self, func, x, v):
        self.base, self.direction, self.func = np.asarray(x, dtype=float), np.asarray(v, dtype=float), func
        if not np.any(self.direction != 0.0):
            raise ValueError("direction must be nonzero")
        self.coefficients = None
        if isinstance(func, HomogeneousPolynomial):
            self.coefficients = line_coefficients(func, self.base, self.direction[None])[0]

    def value(self, t: float) -> float:
        if self.coefficients is not None:
            return float(np.polynomial.polynomial.polyval(t, self.coefficients))
        return self.func(self.base + t * self.direction)

    __call__ = value


def restrict_to_line(func, x, v) -> UnivariateRestriction:
    return UnivariateRestriction(func, x, v)


def line_coefficients(poly: HomogeneousPolynomial, x, directions) -> np.ndarray:
    """Coefficients of t -> poly(x + t v), lowest order first, one row per
    row v of ``directions``: per monomial, the binomial expansions of the
    factors (x_i + t v_i)^e_i multiplied out for all rows at once.  Each row
    is rounded exactly as its expansion alone through ``numpy.convolve``
    (:func:`_convolve_rows`), so it does not depend on the rows beside it."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(np.asarray(directions, dtype=float))
    top = poly._exps.max(axis=0)
    # the C library's pow, as for scalars: numpy's array power may round otherwise
    powers = [
        [np.ones(len(rows)), col] + [np.array([v**j for v in col.tolist()]) for j in range(2, e + 1)]
        for col, e in zip(rows.T, top)
    ]
    total = np.zeros((len(rows), poly.degree + 1))
    for exp, coeff in poly._terms.items():
        factor = np.full((len(rows), 1), coeff)
        for i, e in enumerate(exp):
            if e:
                binom = [math.comb(e, j) * x[i] ** (e - j) * powers[i][j] for j in range(e + 1)]
                factor = _convolve_rows(factor, np.column_stack(binom))
        total[:, : factor.shape[1]] += factor
    return total


def _convolve_rows(f, g) -> np.ndarray:
    """Row-wise ``numpy.convolve``, summed as it sums: in order along the
    longer factor; over a partial overlap by fused multiply-adds, as the
    BLAS dot that numpy calls there computes them on FMA hardware."""
    a, b = (f, g) if f.shape[1] >= g.shape[1] else (g, f)
    na, nb = a.shape[1], b.shape[1]
    out = np.empty((len(a), na + nb - 1))
    for n in range(na + nb - 1):
        ks = range(max(0, n - nb + 1), min(na, n + 1))
        s = 0.0 + a[:, ks[0]] * b[:, n - ks[0]]
        for k in ks[1:]:
            s = s + a[:, k] * b[:, n - k] if len(ks) == nb else _fma(a[:, k], b[:, n - k], s)
        out[:, n] = s
    return out


def _fma(a, b, c) -> np.ndarray:
    """a * b + c with a single rounding: the product exactly by Dekker's
    splitting, the sum by rounding to odd (Boldo & Melquiond, IEEE Trans.
    Comput. 57, 2008)."""
    p, pl = _two_product(a, b)
    th, tl = _two_sum(c, pl)
    vh, vl = _two_sum(p, th)
    w, e = _two_sum(tl, vl)
    even = (w.view(np.int64) & 1) == 0
    return vh + np.where((e != 0.0) & even, np.nextafter(w, np.copysign(np.inf, e)), w)


def _two_product(a, b):
    """a * b as an unevaluated sum p + e, exactly (Dekker's splitting)."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def polyval_rows(coeffs, t, compensated: bool = False) -> np.ndarray:
    """Each row of ``coeffs`` (lowest order first) evaluated at the matching
    row of ``t`` by Horner's rule, with numpy's ``polyval`` arithmetic; or
    by compensated Horner (Graillat, Langlois & Louvet, 2005), as accurate
    as Horner's rule in twice the working precision, then rounded."""
    c = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    cols = c.T.reshape(c.shape[1:] + c.shape[:1] + (1,) * (t.ndim - 1))
    out = cols[-1] + t * 0
    err = np.zeros_like(out)
    for col in cols[-2::-1]:
        if not compensated:
            out = col + out * t
            continue
        p, pe = _two_product(out, t)
        out, se = _two_sum(p, col)
        err = err * t + (pe + se)
    return out + err if compensated else out


def companion_roots(coeffs, degree) -> np.ndarray:
    """Complex roots of each row of ``coeffs`` taken to its own ``degree``
    (whose coefficient must be nonzero), padded with nan: rows of one degree
    share one stacked eigenvalue solve of companion matrices built as
    numpy's ``polyroots`` builds them (Edelman & Murakami, Math. Comp. 64,
    1995)."""
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    out = np.full((len(c), c.shape[1] - 1), np.nan, dtype=complex)
    for n in np.unique(degree):
        if n < 1:
            continue
        rows = np.flatnonzero(degree == n)
        cc = c[rows, : n + 1]
        mat = np.zeros((len(rows), n, n))
        mat[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        mat[:, :, -1] -= cc[:, :-1] / cc[:, -1:]
        out[rows, :n] = np.linalg.eigvals(mat)
    return out


def univariate_zeros(coeffs, loose_imag_tol: float = 1e-5) -> np.ndarray:
    """Real zeros of a univariate polynomial, robust to even-order roots
    (one row of :func:`univariate_zeros_rows`)."""
    zeros = univariate_zeros_rows(np.asarray(coeffs, dtype=float)[None], loose_imag_tol)[0]
    return zeros[~np.isnan(zeros)]


def univariate_zeros_rows(coeffs, loose_imag_tol: float = 1e-5) -> np.ndarray:
    """Sorted real zeros of each row's polynomial, padded with nan.

    Leading coefficients below 1e-13 of a row's largest are dropped: they
    inject spurious huge roots.  Even-order roots split under rounding into
    complex pairs with imaginary parts of order sqrt(eps); such a candidate
    counts only if the polynomial vanishes at its real part to numerical
    precision.  Zeros closer than 1e-7 (relative) merge into the first.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    if c.shape[1] < 2:
        return np.zeros((len(c), 0))
    cmax = np.abs(c).max(axis=1)
    keep = np.abs(c) > 1e-13 * cmax[:, None]
    degree = c.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
    degree[cmax == 0.0] = 0
    roots = companion_roots(c, degree)
    local = np.maximum(1.0, np.abs(roots))
    imag = np.abs(roots.imag)
    accept = imag <= 1e-12 * local
    loose = ~accept & (imag <= loose_imag_tol * local)
    if loose.any():
        trimmed = np.where(np.arange(c.shape[1]) <= degree[:, None], c, 0.0)
        value = np.abs(polyval_rows(trimmed, roots.real))
        bound = 1e-10 * cmax[:, None] * (1.0 + np.abs(roots.real)) ** degree[:, None]
        accept |= loose & (value <= bound)
    z = np.sort(np.where(accept, roots.real, np.nan), axis=1)
    last = z[:, 0]
    for j in range(1, z.shape[1]):
        col = z[:, j]
        new = col - last > 1e-7 * np.maximum(1.0, np.abs(col))
        last = np.where(new, col, last)
        z[:, j] = np.where(new, col, np.nan)
    return np.sort(z, axis=1)
