"""Exact calculus for homogeneous polynomials and smooth homogeneous maps.

Polynomials are stored as sparse coefficient tables over integer exponent
vectors and differentiated exactly (term by term), so gradients, Hessians and
third-derivative tensors carry no discretization error.  The one
non-polynomial kind, :class:`SmoothHomogeneousMap`, is a real power (P/Q)^k of
a quotient of two polynomials whose degrees differ by one; its jets come from
theirs by the quotient and power rules, and its cone's boundary from the
zeros of the polynomial P Q.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, MixedDegreeError, ParseError

NAMED_VARS = ("x", "y", "z", "w")

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<var>[a-zA-Z]\d*)|(?P<op>[-+*^]))"
)


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool, a float or any other non-integer raises."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


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
            exp = tuple(_integer(e, "an exponent") for e in exp)
            if dim is None:
                dim = len(exp)
            if len(exp) != dim:
                raise ValueError(f"exponent vector {exp} has length {len(exp)}, expected {dim}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            try:
                c = float(coeff)
            except OverflowError:  # an int beyond the float range
                c = math.inf if coeff > 0 else -math.inf
            if c != 0.0:
                clean[exp] = clean.get(exp, 0.0) + c
        clean = {e: c for e, c in clean.items() if c != 0.0}
        for e, c in clean.items():
            if not math.isfinite(c):
                raise ValueError(f"the coefficient of {_format_monomial(e, dim)} is not finite: {c}")
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
        # graded lexicographic: the terms share one degree, so reverse-lex on the exponents
        self._terms = dict(sorted(clean.items(), reverse=True))
        self._exps = np.array(list(self._terms.keys()), dtype=np.int64)
        self._coeffs = np.array(list(self._terms.values()), dtype=float)
        self._jet_tables: dict[tuple, tuple] = {}
        self._jet: tuple | None = None  # (point bytes, value, gradient, Hessian, third tensor)

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, text: str, dimension: int | None = None) -> "HomogeneousPolynomial":
        """Parse an expression like ``"x^3 - x*y^2"`` or ``"2*x0^2*x1"``."""
        terms, dim = _parse_expression(text, dimension)
        return cls(terms, dimension=dim)

    @classmethod
    def from_json(cls, obj) -> "HomogeneousPolynomial":
        """The polynomial of a :meth:`to_json` object; any other shape raises
        ValueError."""
        if not (isinstance(obj, dict) and {"dim", "degree", "terms"} <= obj.keys()):
            raise ValueError('expected an object with the keys "dim", "degree" and "terms"')
        rows = obj["terms"]
        is_term = lambda t: isinstance(t, dict) and isinstance(t.get("exp"), list) and type(t.get("c")) in (int, float)
        if not (isinstance(rows, list) and all(map(is_term, rows))):
            raise ValueError('"terms" must be a list of objects {"exp": [integers], "c": number}')
        terms = {tuple(_integer(e, "an exponent") for e in t["exp"]): t["c"] for t in rows}
        if len(terms) != len(rows):
            raise ValueError('"terms" repeats an exponent vector')
        poly = cls(terms, dimension=_integer(obj["dim"], '"dim"'))
        if poly.degree != _integer(obj["degree"], '"degree"'):
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
        return float(self._evaluate(x, (0,))[0])

    def value_rows(self, points) -> np.ndarray:
        """Value at each row of ``points`` (one value for a point): the terms
        c * prod_j x_j^e_j of a row summed by ``math.fsum``, correctly rounded."""
        return self._evaluate(np.atleast_2d(points), (0,))[0]

    def gradient(self, x) -> np.ndarray:
        return self._evaluate(x, (1,))[0]

    def hessian(self, x) -> np.ndarray:
        return self._evaluate(x, (2,))[0]

    def third_tensor(self, x) -> np.ndarray:
        """Third derivative tensor at ``x``, evaluated and kept with the
        value, gradient and Hessian there (:meth:`_evaluate`)."""
        return self._evaluate(x, (3,))[0]

    def lower_jet(self, x) -> tuple:
        """Value, gradient and Hessian at the point ``x``: after
        :meth:`third_tensor` at ``x``, the kept jet itself, not copies of it,
        so a caller must not write to them."""
        kept = self._jet
        if kept is None or np.asarray(x, dtype=float).tobytes() != kept[0]:
            self._evaluate(x, (3,))
            kept = self._jet
        return kept[1:4]

    def derivative_rows(self, points, order: int) -> np.ndarray:
        """Value (order 0, :meth:`value_rows`) or derivative tensor at each row
        of ``points``, in one evaluation; a row rounds as the one-point call does."""
        return self._evaluate(np.atleast_2d(points), (order,))[0]

    def _evaluate(self, points, orders: tuple) -> list:
        """Value (order 0) and derivative tensors of the ascending ``orders``
        at the point ``points``, or at each of its rows (with a row axis).

        One table per tuple of orders (:meth:`_jet_table`) holds the rows of
        the value and of each derivative order.  One power table
        x_j^0..x_j^max and one product per table row serve them all.  Each
        slot sums its rows in table order, so a tensor rounds as its own
        evaluation rounds it, and no row depends on the rows beside it; a
        value sums its terms, the products scaled by the coefficients, by
        ``math.fsum``.  One point takes one ``bincount``; rows take blocks of
        table rows, which bound the scratch arrays, and ``np.add.at``.

        At one point, a highest order of 3 takes the whole jet of orders 0-3
        and keeps it: until the jet is taken at another point, orders up to 3
        at a point equal to it bit for bit (so -0.0 and 0.0 differ) are
        copies of it.
        """
        # loops, not comprehensions, over names of this frame: on Python 3.11
        # a comprehension makes them closure cells, a cost on every call
        x, d = np.asarray(points, dtype=float), self.dimension
        if x.size == d:
            kept = self._jet
            if kept is None or orders[-1] > 3 or x.tobytes() != kept[0]:
                full = (0, 1, 2, 3) if orders[-1] == 3 else orders
                powers, index, vals, slots, spans = self._jet_table(full)
                table = (x.ravel()[:, None] ** powers).ravel()
                for cols in index:
                    vals = vals * table[cols]
                out = np.bincount(slots, weights=vals, minlength=spans[-1][2]) if full[-1] else None
                jet = []
                for m, lo, hi, shape in spans:
                    jet.append(out[lo:hi].reshape(shape) if m else np.float64(math.fsum((self._coeffs * vals[lo:hi]).tolist())))
                if orders[-1] != 3:
                    return jet if x.ndim == 1 else [a[None] for a in jet]
                kept = self._jet = (x.tobytes(), *jet)
            jet = []
            for m in orders:
                jet.append(kept[1 + m].copy() if m else kept[1])  # the value, a scalar, is immutable
            return jet if x.ndim == 1 else [a[None] for a in jet]
        powers, index, coeffs, slots, spans = self._jet_table(orders)
        rows = x.reshape(-1, d)
        table = (rows[:, :, None] ** powers).reshape(len(rows), d * len(powers))
        out = np.zeros((len(rows), spans[-1][2]))
        n0 = spans[0][2] if orders[0] == 0 else 0  # the value's rows come first, one slot each
        step = max(1, 2**14 // max(1, len(rows)))  # table rows per block
        for lo, hi in ((0, n0), (n0, len(coeffs))):
            for i in range(lo, hi, step):
                block = slice(i, min(i + step, hi))
                vals = np.repeat(coeffs[None, block], len(rows), axis=0)
                for cols in index[:, block]:
                    vals *= table[:, cols]
                if lo < n0:
                    out[:, block] = vals
                else:
                    np.add.at(out, (slice(None), slots[block]), vals)  # in table order, as bincount sums
        jet = []
        for m, lo, hi, shape in spans:
            jet.append(out[:, lo:hi].reshape((len(rows),) + shape) if m else np.array([math.fsum(r) for r in (self._coeffs * out[:, lo:hi]).tolist()]))
        return jet

    def _jet_table(self, orders: tuple):
        """The table of ``orders``: (powers, power-table columns per variable,
        coefficients, slots, and per order its slot span and tensor shape).

        The value (order 0) has one row per term, with the coefficient 1 and
        the term's own slot.  Order m has one row per term and ordered index
        sequence i_1..i_m of a nonzero derivative, in the slot sum_r i_r
        d^(m-r) past the orders before; symmetric slots appear as separate
        identical rows, so each tensor is exactly symmetric."""
        if orders not in self._jet_tables:
            d, n = self.dimension, len(self._coeffs)
            rows, spans, work = [], [], [(e, c, 0) for e, c in self._terms.items()]
            for m in range(orders[-1] + 1):
                if m:
                    work = [(e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i], s * d + i) for e, c, s in work for i in range(d) if e[i]]
                if m in orders:
                    lo = spans[-1][2] if spans else 0
                    rows += [(e, 1.0, lo + i) for i, (e, _, _) in enumerate(work)] if m == 0 else [(e, c, lo + s) for e, c, s in work]
                    spans.append((m, lo, lo + (n if m == 0 else d**m), (d,) * m))
            exps = np.array([r[0] for r in rows], dtype=np.int64).reshape(len(rows), d)
            top = int(exps.max(initial=0)) + 1
            index = exps.T + top * np.arange(d)[:, None]  # row j picks x_j^e from the flat power table
            coeffs, slots = np.array([r[1] for r in rows]), np.array([r[2] for r in rows], dtype=np.int64)
            self._jet_tables[orders] = (np.arange(top), index, coeffs, slots, spans)
        return self._jet_tables[orders]

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
    raw_terms: list[tuple[float, dict]] = []  # (coeff, var->power)
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
        raw_terms.append((coeff, powers))
        if i >= len(tokens):
            break
        if tokens[i][0] != "op" or tokens[i][1] not in "+-":
            raise ParseError(f"expected '+' or '-', got {tokens[i][1]!r}", position=tokens[i][2])
        sign = -1.0 if tokens[i][1] == "-" else 1.0
        i += 1

    max_idx = max((max(p) for _, p in raw_terms), default=-1)
    dim = dimension if dimension is not None else max_idx + 1
    if dim <= max_idx:
        raise ParseError(f"dimension {dim} too small for used variables", position=0)
    terms: dict[tuple, float] = {}
    for coeff, powers in raw_terms:
        exp = tuple(powers.get(j, 0) for j in range(dim))
        terms[exp] = terms.get(exp, 0.0) + coeff
    return terms, dim


# -- smooth homogeneous maps -------------------------------------------------


class SmoothHomogeneousMap:
    """The homogeneous function h = q^k of degree k > 1, with q = P / Q the
    quotient of homogeneous polynomials of degrees m + 1 and m, so that q
    has degree one; h lives on the cone where q > 0, which is where the
    polynomial ``positivity`` = P Q is positive.

    Jets on rows come from one evaluation of P and one of Q: q's by the
    quotient rule (:meth:`root_rows`), then h's by the power rule, to order
    3.  A row where q is not positive and finite lies off the cone: its value
    and derivatives read 0, as at a boundary point.  The one-point calls
    refuse such a point.
    """

    def __init__(self, numerator: HomogeneousPolynomial, denominator: HomogeneousPolynomial, degree: float, name: str = ""):
        if degree <= 1:
            raise ValueError(f"degree must be > 1, got {degree}")
        if numerator.dimension != denominator.dimension or numerator.degree != denominator.degree + 1:
            raise ValueError("the numerator needs one degree more than the denominator, in as many variables")
        self.numerator, self.denominator = numerator, denominator
        self.positivity = HomogeneousPolynomial(_mul_terms(numerator.terms, denominator.terms), numerator.dimension)
        self.dimension = numerator.dimension
        self.degree = float(degree)
        self.name = name

    def __call__(self, x) -> float:
        return float(self._at(x, 0)[0])

    def gradient(self, x) -> np.ndarray:
        return self._at(x, 1)[1]

    def hessian(self, x) -> np.ndarray:
        return self._at(x, 2)[2]

    def third_tensor(self, x) -> np.ndarray:
        return self._at(x, 3)[3]

    def lower_jet(self, x) -> tuple:
        """Value, gradient and Hessian at ``x``."""
        h, *rest = self._at(x, 2)
        return (float(h), *rest)

    def derivative_rows(self, points, order: int) -> np.ndarray:
        """Value (order 0) or derivative tensor at each row of ``points``;
        a row rounds as the one-point call does."""
        return self._rows(points, order)[1][order]

    def _at(self, x, top: int) -> list:
        """Value and derivative tensors to order ``top`` at the point ``x``."""
        x = np.asarray(x, dtype=float)
        inside, jet = self._rows(x[None], top)
        if not inside[0]:
            raise DomainError(f"point {x.tolist()} outside the cone where q > 0")
        return [a[0] for a in jet]

    def _rows(self, points, top: int) -> tuple:
        """Whether each row of ``points`` lies on the cone, and the value and
        derivative tensors of h to order ``top`` there: with c_j = k (k-1)
        ... (k-j+1) q^(k-j), h' = c_1 q', h'' = c_1 q'' + c_2 q' q' and h''' =
        c_1 q''' + c_2 (q'' q' and its two permutations) + c_3 q' q' q'."""
        q = self.root_rows(points, top)
        inside = (q[0] > 0.0) & (q[0] < math.inf)
        base, k = np.where(inside, q[0], 1.0), self.degree
        c = [math.prod(k - i for i in range(j)) * base ** (k - j) for j in range(top + 1)]
        h = [c[0]]
        if top >= 1:
            h.append(c[1][:, None] * q[1])
        if top >= 2:
            h.append(c[1][:, None, None] * q[2] + c[2][:, None, None] * _outer(q[1], q[1]))
        if top >= 3:
            lower = c[2][:, None, None, None] * _sym(q[2], q[1]) + c[3][:, None, None, None] * _outer(_outer(q[1], q[1]), q[1])
            h.append(c[1][:, None, None, None] * q[3] + lower)
        return inside, [np.where(inside.reshape((-1,) + (1,) * m), a, 0.0) for m, a in enumerate(h)]

    def root_rows(self, points, top: int) -> list:
        """q = P / Q and its derivative tensors to order ``top`` (at most 3)
        at each row of ``points``, by the quotient rule from P = q Q:
        q' = (P' - q Q') / Q, q'' = (P'' - (q' Q' + Q' q') - q Q'') / Q, and
        q''' = (P''' - (q'' Q' and Q'' q', each with its two permutations)
        - q Q''') / Q; nan where Q is 0."""
        x = np.atleast_2d(np.asarray(points, dtype=float))
        orders = tuple(range(top + 1))
        p, s = self.numerator._evaluate(x, orders), self.denominator._evaluate(x, orders)
        den = np.where(s[0] != 0.0, s[0], math.nan)
        q = [p[0] / den]
        if top >= 1:
            q.append((p[1] - q[0][:, None] * s[1]) / den[:, None])
        if top >= 2:
            q.append((p[2] - (_outer(q[1], s[1]) + _outer(s[1], q[1])) - q[0][:, None, None] * s[2]) / den[:, None, None])
        if top >= 3:
            q.append((p[3] - (_sym(q[2], s[1]) + _sym(s[2], q[1])) - q[0][:, None, None, None] * s[3]) / den[:, None, None, None])
        return q

    def __repr__(self):
        tag = self.name or "anonymous"
        return f"SmoothHomogeneousMap({tag}, degree={self.degree})"


def _outer(a, b) -> np.ndarray:
    """Row-wise outer products of the tensor rows ``a`` and the vector rows ``b``."""
    return a[..., None] * b.reshape(b.shape[:1] + (1,) * (a.ndim - 1) + b.shape[1:])


def _sym(a, b) -> np.ndarray:
    """Rows of a_ij b_l + a_il b_j + a_jl b_i, from matrix rows ``a`` and
    vector rows ``b``."""
    return a[:, :, :, None] * b[:, None, None, :] + a[:, :, None, :] * b[:, None, :, None] + a[:, None, :, :] * b[:, :, None, None]


# -- identities and restrictions ---------------------------------------------


def euler_residual_rows(k: float, points, values, grads) -> np.ndarray:
    """<x, grad(x)> - k * value(x) at each row x of ``points``, from the
    values and gradients there; zero for genuinely homogeneous input.  Each
    row's products are summed by ``math.fsum``."""
    return np.array([math.fsum(row) for row in (points * grads).tolist()]) - k * values


def position_identity_residual_rows(k: float, points, grads, hessians) -> np.ndarray:
    """Max-norm of hessian(x) @ x - (k - 1) * grad(x) at each row x of
    ``points``, from the gradients and Hessians there.

    The contraction of the Hessian with the position vector reproduces the
    differential scaled by k - 1 for any function homogeneous of degree k.
    """
    lhs = np.matmul(hessians, points[:, :, None])[:, :, 0]
    return np.abs(lhs - (k - 1.0) * grads).max(axis=1)


def polarization(poly: HomogeneousPolynomial) -> np.ndarray:
    """Symmetric trilinear form with T(v, v, v) = poly(v); requires degree 3."""
    if not isinstance(poly, HomogeneousPolynomial) or poly.degree != 3:
        raise ValueError("polarization requires a cubic polynomial")
    return poly.third_tensor(np.zeros(poly.dimension)) / 6.0


def restrict_to_line(poly: HomogeneousPolynomial, x, v) -> np.ndarray:
    """Coefficients of the restriction t -> poly(x + t*v) of a homogeneous
    polynomial to a line, lowest order first: one row of
    :func:`line_coefficients`.  Refuses a zero direction."""
    direction = np.asarray(v, dtype=float)
    if not np.any(direction != 0.0):
        raise ValueError("direction must be nonzero")
    return line_coefficients(poly, np.asarray(x, dtype=float), direction[None])[0]


def line_coefficients(poly: HomogeneousPolynomial, x, directions) -> np.ndarray:
    """Coefficients of t -> poly(x + t v), lowest order first, one row per
    row v of ``directions``; ``x`` is one origin for every row, or one
    origin per row.  Per monomial, the binomial expansions of the factors
    (x_i + t v_i)^e_i are multiplied out for all rows at once
    (:func:`_convolve_rows`), by elementwise arithmetic alone.  So a row
    rounds as it does alone: whatever the rows beside it, whether its origin
    is shared, and however the arrays lie in memory."""
    rows = np.atleast_2d(np.asarray(directions, dtype=float))
    x = np.broadcast_to(np.asarray(x, dtype=float), rows.shape)
    top = poly._exps.max(axis=0)
    xpow, vpow = ([[col**j for j in range(e + 1)] for col, e in zip(a.T, top)] for a in (x, rows))
    total = np.zeros((len(rows), poly.degree + 1))
    for exp, coeff in poly._terms.items():
        factor = np.full((len(rows), 1), coeff)
        for i, e in enumerate(exp):
            if e:
                binom = [math.comb(e, j) * xpow[i][e - j] * vpow[i][j] for j in range(e + 1)]
                factor = _convolve_rows(factor, np.column_stack(binom))
        total[:, : factor.shape[1]] += factor
    return total


def _convolve_rows(f, g) -> np.ndarray:
    """Row-wise product of polynomials (coefficients lowest order first):
    the shorter factor shifted along the longer by multiply-adds."""
    a, b = (f, g) if f.shape[1] >= g.shape[1] else (g, f)
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for k in range(a.shape[1]):
        out[:, k : k + b.shape[1]] += a[:, k : k + 1] * b
    return out


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
    if not compensated:
        for col in cols[-2::-1]:
            out = col + out * t
        return out
    err = np.zeros_like(out)
    for col in cols[-2::-1]:
        p, pe = _two_product(out, t)
        out, se = _two_sum(p, col)
        err = err * t + (pe + se)
    return out + err


# -- real zeros of univariate polynomials -------------------------------------


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


def univariate_zeros(coeffs) -> np.ndarray:
    """Real zeros of a univariate polynomial, robust to even-order roots
    (one row of :func:`univariate_zeros_rows`)."""
    zeros = univariate_zeros_rows(np.asarray(coeffs, dtype=float)[None])[0]
    return zeros[~np.isnan(zeros)]


def univariate_zeros_rows(coeffs) -> np.ndarray:
    """Sorted real zeros of each row's polynomial, padded with nan.

    Leading coefficients below 1e-13 of a row's largest are dropped: they
    inject spurious huge roots.  Even-order roots split under rounding into
    complex pairs with imaginary parts of order sqrt(eps); a candidate within
    1e-5 (relative) of the axis counts only if the polynomial vanishes at its
    real part to numerical precision.  Zeros closer than 1e-7 merge.
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
    loose = ~accept & (imag <= 1e-5 * local)
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


def first_positive_zero_rows(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """First positive zero of each row's polynomial p, with p(0) > 0, and
    the multiplicity the polish treated it as (inf and 0 where there is
    none).  The rows are solved together, unscaled: the smallest positive
    companion root, polished.  A row whose zero p neither crosses nor
    touches (:func:`_crosses_or_touches`) is solved again by
    :func:`first_positive_zero`, which scales first; scaling every row
    would move zeros by rounding, and with them the reports' numbers.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    zeros = univariate_zeros_rows(c)
    dist, mult = _polish_polynomial_zeros(c, np.where(zeros > 0.0, zeros, np.inf).min(axis=1))
    rows = np.flatnonzero(np.isfinite(dist))
    for i in rows[~_crosses_or_touches(c[rows], dist[rows])]:
        dist[i], mult[i] = first_positive_zero(c[i])
    return dist, mult


def no_zero_below(coeffs, r: float) -> bool:
    """Whether p, with p(0) = coeffs[0] > 0, is proved positive on [0, R],
    R = r (1 + 1e-5): every Bernstein coefficient of p on [0, R] exceeds
    1e-10 of the size of its terms there, and p is at least the least of
    them (the convex-hull property; Farouki & Rajan, CAGD 4, 1987).  The
    margin is far above the rounding of Horner's rule and above the touch
    tolerance of :func:`_crosses_or_touches`, which every finite zero that
    :func:`first_positive_zero_rows` or :func:`first_positive_zero` returns
    passes; so where this holds, neither returns a zero below r."""
    big_r = r * (1.0 + 1e-5)
    a = [cj * big_r**j for j, cj in enumerate(np.asarray(coeffs, dtype=float).tolist())]
    k = len(a) - 1
    floor = 1e-10 * sum(abs(aj) for aj in a)
    return all(
        sum(math.comb(i, j) / math.comb(k, j) * a[j] for j in range(i + 1)) > floor for i in range(k + 1)
    )


def first_positive_zero(coeffs) -> tuple[float, int]:
    """Smallest positive zero of a univariate polynomial p with p(0) =
    coeffs[0] > 0, to full relative precision however small it is, and the
    multiplicity the polish treated it as; (inf, 0) when there is none.

    The variable is scaled by tau = min (c_0 / |c_m|)^(1/m) over the negative
    coefficients c_m, the size at which the first of them can balance c_0,
    so that the positive zeros, not the nearest ones, sit at unit size before
    the companion solve.  The zeros are polished in order; the first that p
    crosses or touches is returned.  Failing that, as beside a tiny zero of
    the other sign, which makes tau tiny, the solve is repeated unscaled.
    A scaled row beyond the float range, where a negative coefficient is
    tiny beside c_0, is skipped for the unscaled solve alone.
    """
    cf = np.asarray(coeffs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        scales = [(cf[0] / abs(cf[m])) ** (1.0 / m) for m in range(1, len(cf)) if cf[m] < 0.0]
        taus = (min(scales), 1.0) if scales else ()
        rows = [(tau, (cf * tau ** np.arange(len(cf)) / cf[0])[None]) for tau in taus]
    for tau, scaled in rows:
        if not np.isfinite(scaled).all():
            continue
        zeros = univariate_zeros_rows(scaled)[0]
        for z in zeros[zeros > 0.0]:
            s, mult = _polish_polynomial_zeros(scaled, [z])
            if _crosses_or_touches(cf[None], tau * s)[0]:
                return float(tau * s[0]), int(mult[0])
    return math.inf, 0


def _bisect_rows(coeffs, t0, w):
    """Bisect each row's polynomial over [t0 - w, t0 + w]; returns the
    midpoints and whether the ends of a row's bracket differ in sign.  A
    single row runs the same steps on floats, with the arithmetic of
    :func:`polyval_rows`, which rounds alike at a fraction of the cost."""
    if len(coeffs) == 1:
        top, *rest = coeffs[0, ::-1].tolist()

        def value(t):
            out = top + t * 0
            for col in rest:
                out = col + out * t
            return out

        lo, hi = float(t0[0] - w[0]), float(t0[0] + w[0])
        vlo, vhi = value(lo), value(hi)
        ok = vlo != 0.0 and vhi != 0.0 and (vlo < 0.0) != (vhi < 0.0)
        for _ in range(80 if ok else 0):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            lo, hi = (mid, hi) if (value(mid) < 0.0) == (vlo < 0.0) else (lo, mid)
        return np.array([0.5 * (lo + hi)]), np.array([ok])
    lo, hi = t0 - w, t0 + w
    vlo, vhi = polyval_rows(coeffs, lo), polyval_rows(coeffs, hi)
    ok = (vlo != 0.0) & (vhi != 0.0) & ((vlo < 0.0) != (vhi < 0.0))
    active = ok.copy()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        active &= (mid != lo) & (mid != hi)
        if not active.any():
            break
        left = (polyval_rows(coeffs, mid) < 0.0) == (vlo < 0.0)
        lo = np.where(active & left, mid, lo)
        hi = np.where(active & ~left, mid, hi)
    return 0.5 * (lo + hi), ok


def _polish_polynomial_zeros(coeffs, t0):
    """Refine a zero of each row's polynomial p from the matching entry of
    ``t0``; returns the zeros and the multiplicities they were treated as
    (inf and 0 where ``t0`` is inf).

    An m-fold zero is a simple zero of the (m-1)-th derivative, which is
    bisected; m is the order of the first derivative that does not vanish
    at t0 against the size of its terms there.  Close simple zeros can pass
    for a multiple one: if p does not vanish to rounding at the point found,
    p itself is bisected on the widest bracket around t0, from 1e-3 |t0|
    down to a millionth of it, that holds a sign change.  Horner's rule leaves
    a simple zero uncertain by about 2k eps sum |c_i t^i| / |p'|; where that
    exceeds 1e-13 |t|, a Newton step on a compensated evaluation of p moves
    it onto the zero of the rounded coefficients.
    """
    zeros = np.array(t0, dtype=float)
    mults = np.zeros(len(zeros), dtype=int)
    rows = np.flatnonzero(np.isfinite(zeros))
    if not len(rows):
        return zeros, mults
    t = zeros[rows]
    chain = [np.asarray(coeffs, dtype=float)[rows]]
    while chain[-1].shape[1] > 1:
        chain.append(chain[-1][:, 1:] * np.arange(1, chain[-1].shape[1]))
    p = chain[0]
    mult = np.full(len(rows), len(chain) - 1)
    for m in range(len(chain) - 1, 0, -1):  # the lowest order that does not vanish wins
        scale = polyval_rows(np.abs(chain[m]), np.abs(t))
        mult[np.abs(polyval_rows(chain[m], t)) > 1e-4 * np.maximum(scale, 1e-300)] = m
    w = np.maximum(1e-3 * np.abs(t), 1e-9)
    out = t.copy()
    done = mult > 1
    for m in np.unique(mult[done]):
        sel = np.flatnonzero(mult == m)
        ps, ts = p[sel], t[sel]
        t1, ok = _bisect_rows(chain[m - 1][sel], ts, w[sel])
        rounding = np.maximum(np.abs(polyval_rows(ps, ts)), 1e-13 * polyval_rows(np.abs(ps), np.abs(ts)))
        rejected = ok & ~(np.abs(polyval_rows(ps, t1)) <= rounding)
        out[sel] = np.where(ok, t1, ts)
        done[sel[rejected]] = False
        mult[sel[rejected]] = 1
    shrink = w.copy()
    for _ in range(7):
        sel = np.flatnonzero(~done)
        if not len(sel):
            break
        t1, ok = _bisect_rows(p[sel], t[sel], shrink[sel])
        out[sel] = np.where(ok, t1, t[sel])
        done[sel[ok]] = True
        shrink[sel] *= 0.1
    slope = polyval_rows(chain[1], out)
    size = polyval_rows(np.abs(p), np.abs(out))
    loose = (mult == 1) & (2 * p.shape[1] * np.finfo(float).eps * size > 1e-13 * np.abs(out * slope))
    if loose.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            step = polyval_rows(p[loose], out[loose], compensated=True) / slope[loose]
        out[loose] -= np.where(np.abs(step) <= w[loose], step, 0.0)  # within the bracket
    zeros[rows] = out
    mults[rows] = mult
    return zeros, mults


def _crosses_or_touches(coeffs, t) -> np.ndarray:
    """Whether each row's p changes sign within a relative 1e-6 of the finite
    entry of ``t``, or |p| there is at most 1e-14 of the size of its terms;
    a positive minimum of p, the real part of a close complex pair, is not."""
    values = polyval_rows(coeffs, t[:, None] * np.array([1.0 - 1e-6, 1.0, 1.0 + 1e-6]))
    sign = np.sign(values)
    touch = np.abs(values[:, 1]) <= 1e-14 * polyval_rows(np.abs(coeffs), t)
    return (sign != sign[:, :1]).any(axis=1) | touch
