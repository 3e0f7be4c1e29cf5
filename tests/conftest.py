"""Shared fixtures and independent finite-difference oracles."""

import itertools
import math
import os
import signal

import numpy as np
import pytest

from centroaffine import HomogeneousPolynomial, classify, make_chart
from centroaffine.homogeneous import line_coefficients


def fd_gradient(func, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (func(x + e) - func(x - e)) / (2.0 * step)
    return out


def fd_hessian(func, x, step=1e-4):
    """Second differences of values only (independent of any gradient code)."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    out = np.zeros((d, d))
    f0 = func(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = step
        out[i, i] = (func(x + ei) - 2.0 * f0 + func(x - ei)) / step**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = step
            val = (
                func(x + ei + ej) - func(x + ei - ej) - func(x - ei + ej) + func(x - ei - ej)
            ) / (4.0 * step**2)
            out[i, j] = out[j, i] = val
    return out


def fd_third(func, x, step=1e-4):
    """Central differences of analytic Hessians."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    out = np.zeros((d, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        out[i] = (func.hessian(x + e) - func.hessian(x - e)) / (2.0 * step)
    return out


def _old_table(poly, order):
    """Rows (exponents, coefficient, slot) of the derivatives of the given
    order, one per term and ordered index sequence, as they were built."""
    d = poly.dimension
    work = [(e, c, ()) for e, c in poly.terms.items()]
    for _ in range(order):
        nxt = []
        for e, c, idx in work:
            for i in range(d):
                if e[i] > 0:
                    e2 = list(e)
                    e2[i] -= 1
                    nxt.append((tuple(e2), c * e[i], idx + (i,)))
        work = nxt
    flat = []
    for e, c, idx in work:
        slot = 0
        for i in idx:
            slot = slot * d + i
        flat.append((e, c, slot))
    exps = np.array([f[0] for f in flat], dtype=np.int64).reshape(len(flat), d)
    return exps, np.array([f[1] for f in flat], dtype=float), np.array([f[2] for f in flat], dtype=np.int64)


def _old_derivative(poly, x, order):
    """Derivative tensor of a polynomial at one point as it was evaluated
    on its own: one product per table row, variable by variable, and one
    bincount."""
    exps, coeffs, slots = _old_table(poly, order)
    x = np.asarray(x, dtype=float)
    if not exps.size:
        return np.zeros((poly.dimension,) * order)
    vals = coeffs.copy()
    for j in range(poly.dimension):
        vals *= x[j] ** exps[:, j]
    return np.bincount(slots, weights=vals, minlength=poly.dimension**order).reshape((poly.dimension,) * order)


def _old_value_rows(poly, points):
    """Polynomial values at the rows of ``points`` as they were evaluated on
    their own: each row's terms by numpy's product, summed by fsum."""
    x = np.asarray(points, dtype=float)
    terms = poly._coeffs * np.prod(x[..., None, :] ** poly._exps, axis=-1)
    return np.array([math.fsum(row) for row in terms.reshape(-1, len(poly._coeffs)).tolist()])


def cubic_exponents(dim):
    exps = set()
    for combo in itertools.combinations_with_replacement(range(dim), 3):
        e = [0] * dim
        for i in combo:
            e[i] += 1
        exps.add(tuple(e))
    return sorted(exps, reverse=True)


def random_hyperbolic_cubics(count=20, seed=20260809, max_dim=4):
    """Random cubic perturbations of a reference hyperbolic cone, each with a
    chart frame at a verified hyperbolic point."""
    rng = np.random.default_rng(seed)
    dims = [d for d in (2, 3, 4) if d <= max_dim]
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        d = dims[len(out) % len(dims)]
        terms = {}
        e0 = [0] * d
        e0[0] = 3
        terms[tuple(e0)] = 1.0
        for i in range(1, d):
            e = [0] * d
            e[0] = 1
            e[i] = 2
            terms[tuple(e)] = -1.0
        for e in cubic_exponents(d):
            terms[e] = terms.get(e, 0.0) + 0.15 * rng.uniform(-1.0, 1.0)
        try:
            poly = HomogeneousPolynomial(terms)
        except ValueError:
            continue
        seed_pt = np.zeros(d)
        seed_pt[0] = 1.0
        seed_pt += 0.02 * rng.standard_normal(d)
        try:
            if poly(seed_pt) <= 0.1:
                continue
            frame = make_chart(poly, seed_pt)
            if classify(frame, sample_size=12, seed=3).aggregate != "hyperbolic":
                continue
        except Exception:
            continue
        out.append((poly, frame))
    if len(out) < count:
        raise RuntimeError(f"only generated {len(out)} hyperbolic cubics")
    return out


def segment_f0(frame, result, grid=33):
    """The lemma behind the cubic segment test, checked outside the library:
    for each bounded line of ``result`` (a :func:`cubic_segment_test` on a
    cubic ``frame``), (h0, a, b, f0, bound).  h0 is the line's restriction,
    coefficients lowest order first; (a, b) its positivity interval, from
    numpy's roots (real where the imaginary part is below 1e-5 of the size);
    f0 = 2 h0 h0'' - h0'^2 evaluated by ``polyval`` at a, at b and at ``grid``
    points across (a, b), in that order; and bound = 1e-9 max(1, max_i |c_i|)^4.
    A line with no real zero on one side fails here."""
    P = np.polynomial.polynomial
    rows = line_coefficients(frame.func, frame.point(result.bounded_bases), frame.vectors(result.bounded_directions))
    out = []
    for h0 in rows:
        roots = P.polyroots(h0)
        real = roots.real[np.abs(roots.imag) <= 1e-5 * np.maximum(1.0, np.abs(roots))]
        assert (real < 0.0).any() and (real > 0.0).any(), h0
        a, b = real[real < 0.0].max(), real[real > 0.0].min()
        t = np.concatenate([[a, b], np.linspace(a, b, grid)])
        f0 = 2.0 * P.polyval(t, h0) * P.polyval(t, P.polyder(h0, 2)) - P.polyval(t, P.polyder(h0)) ** 2
        out.append((h0, a, b, f0, 1e-9 * max(1.0, np.abs(h0).max()) ** 4))
    return out


# (expression, seed point, status, route) of the seven fixture polynomials
FIXTURES = (
    ("x^3 - x*y^2", (1.0, 0.0), "complete", "cubic-criterion"),
    ("x^2*y", (1.0, 1.0), "complete", "cubic-criterion"),
    ("x*y*z", (1.0, 1.0, 1.0), "complete", "cubic-criterion"),
    ("x^3*y", (1.0, 1.0), "complete", "n1-monomial"),
    ("x^2*y^2", (1.0, 1.0), "complete", "n1-monomial"),
    ("x*y*z*w", (1.0, 1.0, 1.0, 1.0), "numerically-certified", "concavity(0.5)"),
    ("x^2*y*z", (1.0, 1.0, 1.0), "numerically-certified", "concavity(0.5)"),
)


def linear_copies(poly, point, rng, count=2):
    """Pairs (q, y0) with q(y) = poly(A y) and y0 = A^-1 point for random
    well-conditioned A: the same hypersurface piece in other coordinates."""
    out = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((poly.dimension, poly.dimension)))
        a = q @ np.diag(rng.uniform(0.6, 1.6, poly.dimension))
        out.append((poly.compose_linear(a), np.linalg.solve(a, point)))
    return out


def scaled(poly, lam):
    """lam * poly, whose level sets are those of poly."""
    return HomogeneousPolynomial({e: lam * c for e, c in poly.terms.items()})


class CallableMap:
    """A function of a declared degree from value and derivative callables,
    with the interface the analysis reads of a homogeneous function.  The
    negative controls build inconsistent ones from a consistent function: a
    wrong degree, a scaled Hessian, a vanishing gradient."""

    def __init__(self, dimension, degree, value, gradient, hessian, third=None):
        self.dimension, self.degree = dimension, float(degree)
        self._jet = (value, gradient, hessian, third)

    def __call__(self, x):
        return float(self._jet[0](np.asarray(x, dtype=float)))

    def gradient(self, x):
        return np.asarray(self._jet[1](np.asarray(x, dtype=float)), dtype=float)

    def hessian(self, x):
        return np.asarray(self._jet[2](np.asarray(x, dtype=float)), dtype=float)

    def third_tensor(self, x):
        return np.asarray(self._jet[3](np.asarray(x, dtype=float)), dtype=float)

    def lower_jet(self, x):
        return self(x), self.gradient(x), self.hessian(x)

    def derivative_rows(self, points, order):
        jet = (self, self.gradient, self.hessian)[order]
        return np.array([jet(x) for x in points], dtype=float).reshape((len(points),) + (self.dimension,) * order)


@pytest.fixture(scope="session")
def catalog_frames():
    from centroaffine import catalog

    return {e.identifier: e.build() for e in catalog.catalog_cubics()}


# -- forked children --------------------------------------------------------------


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test that waits on its child for a minute instead of hanging."""

    def timed_out(signum, stack):
        raise TimeoutError("waited on a child process for a minute")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _counted_forks(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks
