"""Completeness certificates and numeric evidence for hyperbolic level sets.

Certificate routes, in the order tried by :func:`completeness_verdict`:

1. degree 2 polynomials (constant ambient Hessian);
2. the cubic segment test: along a slice line, with h0 the univariate
   restriction, f0 = 2 h0 h0'' - (h0')^2 is nonpositive on a bounded
   positivity interval (f0' = 2 h0 h0''' is single-signed there, so the
   maximum sits at the ends, where f0 = -(h0')^2), so the test samples only
   closedness: each sampled line (2,000 by default) must have a bounded
   positivity interval;
3. regular boundary behaviour of the cone;
4. the bivariate monomial criterion (degree >= 2, two variables);
5. a sampled concavity certificate: some root h^(1/(k-eps)) of the slice
   restriction is concave, which bounds the metric below by a log-derivative
   term;
6. otherwise, a finite-length geodesic reaching the boundary witnesses
   incompleteness: on a curve a side of the chart interval, whose length is
   one quadrature; on a surface a geodesic shot along a chart axis.

Routes 2..5 presuppose that the slice of the cone is relatively compact,
so they are gated on an all-rays-bounded scan of the boundary.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .boundary import RegularityReport, regularity_report
from .chart import (
    ChartFrame,
    _power_rows,
    _project_rows,
    chart_metric,
    contract_indices,
    jet_connection,
    levi_civita_gamma,
)
from .errors import DegenerateFrameError, DomainError
from .homogeneous import (
    HomogeneousPolynomial,
    first_positive_zero,
    first_positive_zero_rows,
    line_coefficients,
    no_zero_below,
    univariate_zeros_rows,
)

_poly = np.polynomial.polynomial


# -- cubic segment test --------------------------------------------------------


@dataclass
class SegmentTestResult:
    """Outcome of :func:`cubic_segment_test`: the lines whose positivity
    interval is unbounded (closedness failures, in line order), and the chart
    base point and direction of each bounded line, one row each, in line
    order."""

    closedness_failures: list
    bounded_bases: np.ndarray = field(repr=False, compare=False)
    bounded_directions: np.ndarray = field(repr=False, compare=False)

    @property
    def line_count(self) -> int:  # the bounded lines
        return len(self.bounded_bases)

    @property
    def passed(self) -> bool:
        return self.line_count > 0 and not self.closedness_failures


def cubic_segment_test(frame: ChartFrame, n_lines: int = 2000, seed: int = 0) -> SegmentTestResult:
    """Sample the closedness of a cubic's positivity slice along lines.

    On a bounded line the criterion's inequality holds by itself: with h0 =
    c0 + c1 t + c2 t^2 + c3 t^3 the restriction, f0 = 2 h0 h0'' - h0'^2 has
    f0' = 2 h0 h0''' = 12 c3 h0, single-signed on the positivity interval,
    so f0 is largest at an end, where h0 = 0 and f0 = -h0'^2 <= 0.  So only
    closedness can fail.  Each line through a base point of the slice is
    restricted exactly and its real zeros found, all lines across all base
    points as one block, each line rounding as it does alone; a line is
    bounded when it has a negative and a positive zero.  The other lines are
    closedness failures, in line order.
    """
    if not (isinstance(frame.func, HomogeneousPolynomial) and frame.func.degree == 3):
        raise ValueError("the segment test applies to cubic polynomials")
    n = frame.chart_dim
    n_bases = max(1, n_lines // 250)
    bases = np.zeros((1, n))
    if n_bases > 1:
        bases = np.vstack([bases, frame.sample_coords(n_bases - 1, max_frac=0.6, seed=seed)])
    directions = sampling.unit_directions(n, math.ceil(n_lines / len(bases)), seed)
    # line i runs along direction i // len(bases) through base i % len(bases)
    base_of, row_of = np.arange(n_lines) % len(bases), np.arange(n_lines) // len(bases)
    h0 = line_coefficients(frame.func, frame.point(bases)[base_of], frame.vectors(directions)[row_of])
    zeros = univariate_zeros_rows(h0)
    bounded = (zeros < 0.0).any(axis=1) & (zeros > 0.0).any(axis=1)
    failures = [
        {"base_coords": bases[j].tolist(), "direction": directions[r].tolist()}
        for j, r in zip(base_of[~bounded], row_of[~bounded])
    ]
    return SegmentTestResult(failures, bases[base_of[bounded]], directions[row_of[bounded]])


# -- concavity certificate -------------------------------------------------------


@dataclass(frozen=True)
class ConcavityResult:
    eps: float
    passed: bool
    n_samples: int
    witness_coords: list | None
    witness_eigenvalue: float | None


def concavity_test(frame: ChartFrame, eps: float, n_samples: int = 400, seed: int = 0) -> ConcavityResult:
    """Sampled concavity of the (k - eps)-th root of the slice restriction.

    Checks that the Hessian of h^(1/(k-eps)) has no eigenvalue above 1e-9
    max(1, max |entry|) at low-discrepancy samples reaching to within a
    1e-3 fraction of the boundary along each ray.  A failure returns the
    first failing sample, in sample order, and its positive eigenvalue.
    One ``eps`` of :func:`concavity_results`.
    """
    return next(concavity_results(frame, (eps,), n_samples, seed))


def concavity_results(frame: ChartFrame, grid, n_samples: int = 400, seed: int = 0):
    """:func:`concavity_test` for each ``eps`` of ``grid`` in turn, as a
    generator.  The jets of h at the samples (value, chart gradient, chart
    Hessian) do not depend on eps, so they are evaluated once, at the first
    eps; each eps then costs row arithmetic and one stacked eigenvalue solve,
    each row rounded as the one-point Hessian of h^(1/(k - eps)).
    """
    k = frame.degree
    coords = None
    for eps in grid:
        if not (0.0 < eps < k):
            raise ValueError(f"eps must lie in (0, {k}), got {eps}")
        if coords is None:
            coords = frame.sample_coords(n_samples, max_frac=1.0 - 1e-3, seed=seed)
            x = frame.point(coords)
            hx = frame.func.derivative_rows(x, 0)
            rows = np.flatnonzero(~(hx <= 0.0))  # a sample outside the region is skipped
            x, hx = x[rows], hx[rows]
            grads = np.matmul(frame.basis, frame.func.derivative_rows(x, 1)[:, :, None])[:, :, 0]
            hess = frame.basis @ frame.func.derivative_rows(x, 2) @ frame.basis.T
        _, s1, s2 = _power_rows(hx, 1.0 / (k - eps)).T[:, :, None, None]
        hess_f = s1 * hess + s2 * (grads[:, :, None] * grads[:, None, :])
        lam = np.linalg.eigvalsh(hess_f).max(axis=1)
        scale = np.fmax(1.0, np.abs(hess_f).max(axis=(1, 2)))  # max(1.0, nan) is 1.0
        bad = np.flatnonzero(lam > 1e-9 * scale)
        if bad.size:
            yield ConcavityResult(eps, False, len(coords), coords[rows[bad[0]]].tolist(), float(lam[bad[0]]))
        else:
            yield ConcavityResult(eps, True, len(coords), None, None)


def default_eps_grid(k: float) -> tuple:
    return (k / 8.0, k / 4.0, k / 2.0, 3.0 * k / 4.0, k - k / 8.0)


# -- curve length and traces -----------------------------------------------------


@dataclass
class CurveTrace:
    params: np.ndarray
    coords: np.ndarray
    ambient: np.ndarray
    hvals: np.ndarray
    cumulative_length: np.ndarray
    stop_reason: str = ""
    unit_speed_drift: float = 0.0
    final_velocity: np.ndarray | None = None  # chart velocity at the last point
    rejected_steps: int = 0
    # sum of the accepted steps' local error estimates, each relative to the
    # state and at most the step tolerance
    error_estimate: float = 0.0

    @property
    def length(self) -> float:
        return float(self.cumulative_length[-1]) if len(self.cumulative_length) else 0.0

    def to_csv(self) -> str:
        n = self.coords.shape[1] if self.coords.ndim == 2 else 1
        d = self.ambient.shape[1]
        header = (
            ["t"]
            + [f"c_{i + 1}" for i in range(n)]
            + [f"x_{i}" for i in range(d)]
            + ["h", "cum_length"]
        )
        rows = [",".join(header)]
        coords = np.atleast_2d(self.coords)
        for i in range(len(self.params)):
            cells = [self.params[i], *coords[i], *self.ambient[i], self.hvals[i], self.cumulative_length[i]]
            rows.append(",".join(format(v, ".17g") for v in cells))
        return "\n".join(rows) + "\n"


_leggauss = functools.cache(np.polynomial.legendre.leggauss)  # Gauss-Legendre nodes and weights, made on first use


def curve_length_with_error(
    frame: ChartFrame,
    start,
    direction,
    t0: float = 0.0,
    t1: float = 1.0,
    quad_tol: float = 1e-10,
) -> tuple[float, float]:
    """Length of the chart segment ``start + t * direction``, t0 <= t <= t1,
    with an error estimate, by Gauss-Legendre sums on 8, 16, ..., 256 nodes
    until two differ by at most max(quad_tol, 1e-10 |length|); inf if none do.

    Each end is a square-root end (a simple zero of N = (k-1) h'^2 - k h h'',
    :func:`_speed_numerator`, or a boundary zero that the metric reaches as
    1 / (t_end - t)), so each half of [t0, t1] is summed in s, t = end -+ s^2,
    on the speed sqrt(N) / (k h).  N below -1e-12 of the size of its terms
    raises DomainError (the segment crosses a zero of the metric); above, it
    is rounding, as along a k-fold zero of h, and counts as 0.  A map h = q^k
    has N = -k^2 q^(2k-1) q'', so its speed sqrt(-q''/q) is that of its
    degree-one root q: the rule runs on q with k = 1, and no power of q,
    which could underflow, enters it.
    """
    if t1 == t0:
        return 0.0, 0.0
    if isinstance(frame.func, HomogeneousPolynomial):
        k, jets = frame.degree, lambda c: frame._jets(c, (1, 2))[1:]
    else:
        k, jets = 1.0, lambda c: frame.func.root_rows(frame.point(c), 2)
    start = np.atleast_1d(np.asarray(start, dtype=float))
    direction = np.atleast_1d(np.asarray(direction, dtype=float))
    vector = frame.vectors(direction)[0]
    sign, root = math.copysign(1.0, t1 - t0), math.sqrt(0.5 * abs(t1 - t0))
    previous = err = math.nan
    for n in (8, 16, 32, 64, 128, 256):
        x, w = _leggauss(n)
        s = 0.5 * root * (x + 1.0)
        t = np.concatenate([t0 + sign * s * s, t1 - sign * s * s])
        hx, grads, hess = jets(start + t[:, None] * direction)
        square, product = (k - 1.0) * (grads @ vector) ** 2, k * hx * ((hess @ vector) @ vector)
        if (square - product < -1e-12 * (square + np.abs(product))).any():
            raise DomainError("the segment crosses a zero of the metric")
        length = sign * root * float(np.tile(w * s, 2) @ (np.sqrt(np.fmax(square - product, 0.0)) / (k * hx)))
        err = abs(length - previous)
        if err <= max(quad_tol, 1e-10 * abs(length)):
            return length, err
        previous = length
    return math.inf, err


# -- geodesics ---------------------------------------------------------------------

# A polynomial trace whose ray distance to the boundary falls below this
# fraction of the slice diameter enters the boundary layer: chart coordinates
# there keep fewer than ten significant digits of the distance to the boundary.
_LAYER_FRAC = 1e-6

# geodesic_shoot: the local relative error tolerance of one step, the first
# step, the unit-speed deviation that ends a run, and the step budget of a run
_STEP_TOL = 1e-8
_INIT_STEP = 1e-2
_DRIFT_STOP = 1e-5
_MAX_STEPS = 500_000

# largest factor by which the step may grow after an accepted step
_MAX_GROW = 5.0
# a rejected trial whose error estimate exceeds this factor times the
# truncation prediction err1 (trial / trial1)^5 of the rejection before it,
# from the same state, is set by rounding and ends the run
_ROUNDING_GAP = 4.0
# the backstop where accepted and rejected steps alternate: the fraction of
# the largest step taken below which a rejected step ends the run
_MIN_STEP_FRAC = 1e-2

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.5): row i
# of _DP_A gives stage i + 1 from the earlier stages; the last row is also
# the fifth-order solution, whose derivative is the first stage of the next
# step (FSAL).  _DP_E is the fifth- minus the embedded fourth-order weights.
_DP_A = tuple(
    np.array(row)
    for row in (
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _dp_step(connection, c, v, a, step):
    """One Dormand-Prince 5(4) step of c'' = -Gamma(c)[c', c'] from position
    ``c``, velocity ``v`` and acceleration ``a``.

    Returns the new position, velocity, acceleration and metric, and the
    local error estimates of the position and velocity blocks.
    """
    shape = (len(_DP_E), len(v))
    vs, accs = np.empty(shape), np.empty(shape)  # the stage velocities and accelerations
    vs[0], accs[0] = v, a
    for i, w in enumerate(_DP_A, start=1):
        ci = c + step * (w @ vs[:i])
        vs[i] = v + step * (w @ accs[:i])
        gamma, g = connection(ci)
        accs[i] = -((gamma @ vs[i]) @ vs[i])
    err_c = step * (_DP_E @ vs)
    err_v = step * (_DP_E @ accs)
    return ci, vs[-1], accs[-1], g, err_c, err_v


class _ChartCoordinates:
    """Geodesic state in plain chart coordinates."""

    def __init__(self, frame: ChartFrame):
        self.frame = frame

    def connection(self, c):
        return levi_civita_gamma(self.frame, c)

    def value(self, c) -> float:
        h = self.frame.hval(c)
        if not (math.isfinite(h) and h > 0.0):
            raise DomainError("left the positivity region")
        return h

    def gradient(self, c):
        return self.frame.basis @ self.frame.func.gradient(self.frame.point(c))

    def ray_distance_below(self, c, u, r: float) -> float:
        """The boundary distance along the unit direction ``u`` where it may
        lie below ``r``; inf where :func:`no_zero_below` proves it does not."""
        coeffs = self.frame.ray_coefficients(c, u[None])
        return math.inf if no_zero_below(coeffs[0], r) else float(first_positive_zero_rows(coeffs)[0][0])

    def chart_coords(self, c):
        return c.copy()

    def chart_velocity(self, v):
        return v.copy()


def _normal_rotation(d) -> np.ndarray:
    """Orthogonal (Householder) matrix whose first row is +-d/|d|."""
    n = len(d)
    norm = float(np.linalg.norm(d))
    if n == 1 or norm == 0.0:
        return np.eye(n)
    w = d / norm
    w[0] += 1.0 if w[0] >= 0.0 else -1.0
    return np.eye(n) - (2.0 / float(w @ w)) * np.outer(w, w)


class _BoundaryLayer:
    """Geodesic state as an offset from a boundary point of a polynomial slice.

    ``anchor`` holds the chart coordinates of the zero hit by the current ray.
    Offsets and velocities are taken on local orthonormal axes, the rows of
    ``rotation`` (chart offset = local offset @ rotation), whose first axis is
    the normal at the anchor.  The normal part of the metric grows like 1/h^2
    and the rest like 1/h; on axes at an angle to the normal the rounding of
    the first swamps the second, on these every entry keeps its precision.
    ``tensors[j - 1]`` is the j-th derivative tensor of h at the anchor on the
    local axes.  The Taylor expansion p(y) = sum_j tensors[j-1][y^j] / j! is
    finite (degree k) and exact up to the rounding of its tensors.  Its
    constant term is taken as 0, since the anchor lies on the boundary up to
    rounding, so p, its derivatives, the metric and the connection keep full
    relative precision however close y comes to the anchor.  The model's
    boundary is thereby the level set of h through the rounded anchor.
    """

    def __init__(self, frame: ChartFrame, anchor, rotation, tensors):
        self.frame = frame
        self.anchor = anchor
        self.rotation = rotation
        self.tensors = tensors
        self.degree = frame.degree

    @classmethod
    def entered(cls, frame: ChartFrame, anchor):
        """Layer at the chart point ``anchor``, with the rotation from chart
        axes to its local axes."""
        jet = frame.func._evaluate(frame.point(anchor), tuple(range(1, frame.func.degree + 1)))
        tensors = [contract_indices(t, frame.basis) for t in jet]
        return cls(frame, anchor, np.eye(frame.chart_dim), tensors)._aligned()

    def moved(self, shift):
        """The same expansion re-centred at local offset ``shift`` (a zero of
        p), with the rotation from the current local axes to the new ones."""
        jet = self.derivatives(shift, len(self.tensors))
        anchor = self.anchor + shift @ self.rotation
        layer = _BoundaryLayer(self.frame, anchor, self.rotation, jet[1:])
        return layer._aligned()

    def _aligned(self):
        r = _normal_rotation(self.tensors[0])
        tensors = [contract_indices(t, r) for t in self.tensors]
        return _BoundaryLayer(self.frame, self.anchor, r @ self.rotation, tensors), r

    def derivatives(self, y, top: int) -> list:
        """[p(y), gradient, Hessian, ...] up to order ``top``."""
        n = self.frame.chart_dim
        out = [0.0] + [np.zeros((n,) * m) for m in range(1, top + 1)]
        for j, t in enumerate(self.tensors, start=1):
            # T_j contracted r times with y feeds order j - r
            for r in range(j + 1):
                if j - r <= top:
                    out[j - r] = out[j - r] + t / math.factorial(r)
                if r < j:
                    t = t @ y
        return out

    def connection(self, y):
        h, d, b, t = self.derivatives(y, 3)
        if not h > 0.0:
            raise DomainError("left the positivity region")
        return jet_connection(self.degree, h, d, b, t)

    def value(self, y) -> float:
        h = self.derivatives(y, 0)[0]
        if not (math.isfinite(h) and h > 0.0):
            raise DomainError("left the positivity region")
        return h

    def gradient(self, y):
        return self.derivatives(y, 1)[1]

    def ray_distance_below(self, y, u, r: float) -> float:
        """As :meth:`_ChartCoordinates.ray_distance_below`, on the expansion."""
        jet = self.derivatives(y, len(self.tensors))
        coeffs = [jet[0]]
        for m in range(1, len(jet)):
            t = jet[m]
            for _ in range(m):
                t = t @ u
            coeffs.append(float(t) / math.factorial(m))
        return math.inf if no_zero_below(coeffs, r) else first_positive_zero(coeffs)[0]

    def chart_coords(self, y):
        return self.anchor + y @ self.rotation

    def chart_velocity(self, v):
        return v @ self.rotation


def geodesic_shoot(
    frame: ChartFrame,
    start,
    direction,
    max_len: float = 50.0,
    min_h: float = 0.0,
    boundary_frac: float = 1e-8,
    refinements: int = 0,
) -> CurveTrace:
    """Integrate the chart-metric geodesic from a point and unit direction.

    One adaptive pass of the Dormand-Prince 5(4) pair (:func:`_dp_step`), in
    arc length.  A step is accepted when its local error estimate, the larger
    of the position and the velocity block's relative to the size of that
    block, is at most the tolerance ``_STEP_TOL`` (divided by ten for each of
    ``refinements``); the next step follows the standard controller
    0.9 (tol / err)^(1/5), kept within a factor 0.2 to 5 (at most 1 right
    after a rejection).  A step whose evaluations leave the positivity region
    is halved.  Where rounding, not truncation, sets the error estimate, the
    tolerance cannot be met, and two rules end the run on ``drift`` or
    ``degenerate_metric`` (diagnosed as below).  A truncation-limited
    estimate falls as the fifth power of the trial, so a second rejection
    from the same state whose estimate exceeds ``_ROUNDING_GAP`` times the
    first's prediction err1 (trial2 / trial1)^5 ends the run at once: this
    catches the rounding floor of chart coordinates near the boundary.
    Where accepted and rejected steps alternate, no two rejections share a
    state, and the step creeps down instead; the backstop ends the run once
    the controller asks for a step below ``_MIN_STEP_FRAC`` of the largest
    step the run has taken: this catches the creep into a collapse of the
    metric.

    Boundary layer: for a :class:`HomogeneousPolynomial`, once the ray along
    the current velocity meets the boundary within ``_LAYER_FRAC`` times the
    slice diameter, the state is carried as an offset from that boundary
    point and h, the metric and the connection are evaluated through the
    exact Taylor expansion there (see :class:`_BoundaryLayer`).  The anchor
    moves to the boundary point along the normal whenever the offset grows
    beyond four times the normal distance to the boundary, which keeps the
    offset, and with it the relative precision of h, at the scale of that
    distance.  Inside the layer ``hvals`` are exact to relative rounding
    (down to ~1e-300) for the polynomial whose zero set passes through the
    rounded anchor.  Traces of :class:`SmoothHomogeneousMap` inputs, which
    have no exact expansion, stay in chart coordinates, whose precision
    floors h near 1e-16.

    The three ray checks (the boundary stop below, the layer entry and the
    re-anchoring) each compare a ray's boundary distance with a threshold.
    Each solves its ray only where :func:`no_zero_below` cannot prove the
    distance beyond the threshold; a proof leaves the comparison as the
    solve would, so the shot is the same bit for bit.  A shot into a
    regular boundary point then solves two rays, at its layer entry and at
    its stop, in place of one per step of its approach.

    Stop reasons: ``max_len``; ``h_floor`` when the function value falls to
    ``min_h``; ``boundary`` when the ray distance to the boundary drops below
    ``boundary_frac`` times the slice diameter; ``degenerate_metric`` when
    the metric collapses (its smallest eigenvalue halves, or the speed form
    turns nonpositive); ``drift`` when the unit-speed constraint deviates by
    more than ``_DRIFT_STOP``, or the tolerance cannot be met, while the
    metric blows up, meaning the state can no longer resolve the distance to
    the boundary (in chart coordinates, or inside the layer at a non-regular
    boundary); ``step_underflow`` and ``max_steps``.

    The trace records the final chart velocity, the number of rejected steps
    and the sum of the accepted steps' local error estimates.
    """
    start = np.atleast_1d(np.asarray(start, dtype=float))
    direction = np.atleast_1d(np.asarray(direction, dtype=float))
    if not np.any(direction != 0.0):
        raise ValueError("initial direction must be nonzero")
    h_start = frame.hval(start)
    if h_start <= 0.0:
        raise DomainError("geodesic start point lies outside the positivity region")
    chart = _ChartCoordinates(frame)
    # the metric's terms are of the size of the Hessian over k h; a speed
    # below that by 1e-12 is rounding, and so is a singular metric
    size = float(np.abs(frame.func.hessian(frame.point(start))).max()) / (frame.degree * h_start)
    try:
        gamma0, g0 = chart.connection(start)
        sq = float(direction @ g0 @ direction)
    except np.linalg.LinAlgError:
        sq = 0.0
    if not sq > 1e-12 * size * float(direction @ direction):
        raise DegenerateFrameError("metric degenerate along the initial direction")
    speed0 = math.sqrt(sq)
    tol = _STEP_TOL * 0.1**refinements
    diam = frame.diameter()
    dist_floor = boundary_frac * diam
    layer_dist = _LAYER_FRAC * diam if isinstance(frame.func, HomogeneousPolynomial) else 0.0
    lam_min_start = float(np.linalg.eigvalsh(g0).min())

    def blown_up(g) -> str:
        # speed and the error estimate are ill-conditioned functions of the
        # state where the metric blows up or collapses; diagnose which
        # singularity was hit (collapse shrinks the smallest eigenvalue,
        # blow-up grows it)
        lam_min = float(np.linalg.eigvalsh(g).min())
        return "degenerate_metric" if lam_min <= 0.5 * lam_min_start else "drift"

    geo = chart  # a _BoundaryLayer while inside it; c is then the offset from its anchor
    c, v = start.copy(), direction / speed0
    a = -((gamma0 @ v) @ v)
    g = g0
    speed_prev = 1.0
    params = [0.0]
    coords = [c.copy()]
    hvals = [h_start]
    cum = [0.0]
    drift = 0.0
    reason = "max_len"
    step = _INIT_STEP
    largest = 0.0
    grow = _MAX_GROW
    refused = ()  # (error estimate, trial) of a rejection from the current state
    steps = rejected = 0
    error_sum = 0.0
    param = 0.0
    length = 0.0
    while param < max_len and steps < _MAX_STEPS:
        steps += 1
        last = step >= max_len - param
        trial = max_len - param if last else step
        try:
            c_next, v_next, a_next, g_next, err_c, err_v = _dp_step(geo.connection, c, v, a, trial)
            h_next = geo.value(c_next)
        except (DomainError, DegenerateFrameError, FloatingPointError):
            step = 0.5 * trial
            grow = 1.0
            refused = ()
            if step < 1e-13 * _INIT_STEP:
                reason = "step_underflow"
                break
            continue
        err = max(
            float(np.linalg.norm(err_c)) / (tol * max(np.linalg.norm(c), np.linalg.norm(c_next))),
            float(np.linalg.norm(err_v)) / (tol * max(np.linalg.norm(v), np.linalg.norm(v_next))),
        )
        fac = 0.9 * err**-0.2 if err > 0.0 else _MAX_GROW
        if not err <= 1.0:
            rejected += 1
            if refused and err > _ROUNDING_GAP * refused[0] * (trial / refused[1]) ** 5:
                reason = blown_up(g)
                break
            refused = (err, trial)
            step = trial * (max(0.2, fac) if math.isfinite(err) else 0.2)
            grow = 1.0
            if step < _MIN_STEP_FRAC * largest:
                reason = blown_up(g)
                break
            continue
        refused = ()
        sq = float(v_next @ g_next @ v_next)
        if sq <= 0.0:
            reason = "degenerate_metric"
            break
        speed = math.sqrt(sq)
        if abs(speed - 1.0) > _DRIFT_STOP:
            reason = blown_up(g_next)
            break
        drift = max(drift, abs(speed - 1.0))
        error_sum += err * tol
        largest = max(largest, trial)
        step = trial * min(grow, max(0.2, fac))
        grow = _MAX_GROW
        c, v, a, g = c_next, v_next, a_next, g_next
        param = max_len if last else param + trial
        length += trial * 0.5 * (speed_prev + speed)
        speed_prev = speed
        params.append(param)
        coords.append(geo.chart_coords(c))
        hvals.append(h_next)
        cum.append(length)
        if min_h > 0.0 and h_next <= min_h:
            reason = "h_floor"
            break
        if h_next < 0.25 * h_start and (dist_floor > 0.0 or layer_dist > 0.0):
            vnorm = float(np.linalg.norm(v))
            if vnorm > 0.0:
                u = v / vnorm
                grad = geo.gradient(c)
                slope = abs(float(grad @ u))
                est = h_next / slope if slope > 0.0 else math.inf
                if est < 8.0 * dist_floor and geo.ray_distance_below(c, u, dist_floor) < dist_floor:
                    reason = "boundary"
                    break
                rot = None
                if geo is chart:
                    if est < 8.0 * layer_dist:
                        dist = chart.ray_distance_below(c, u, layer_dist)
                        if dist < layer_dist:
                            geo, rot = _BoundaryLayer.entered(frame, c + dist * u)
                            c = (-dist * u) @ rot.T
                else:
                    gnorm = float(np.linalg.norm(grad))
                    offset = float(np.linalg.norm(c))
                    if gnorm > 0.0 and offset > 4.0 * h_next / gnorm:
                        # the offset outgrew the distance to the boundary:
                        # re-anchor at the boundary point along the normal
                        normal = -grad / gnorm
                        dist = geo.ray_distance_below(c, normal, 0.25 * offset)
                        if offset > 4.0 * dist:
                            geo, rot = geo.moved(c + dist * normal)
                            c = (-dist * normal) @ rot.T
                if rot is not None:
                    v, a = v @ rot.T, a @ rot.T
    else:
        if steps >= _MAX_STEPS:
            reason = "max_steps"
    coords, hvals = np.array(coords), np.array(hvals)
    return CurveTrace(
        params=np.array(params),
        coords=coords,
        ambient=_project_rows(frame.degree, frame.point(coords), hvals),
        hvals=hvals,
        cumulative_length=np.array(cum),
        stop_reason=reason,
        unit_speed_drift=drift,
        final_velocity=geo.chart_velocity(v),
        rejected_steps=rejected,
        error_estimate=error_sum,
    )


# -- bivariate monomial criterion ---------------------------------------------------


@dataclass(frozen=True)
class MonomialFace:
    axis: int
    min_power: int
    coefficient: float
    sign_value: float
    ok: bool
    reason: str


@dataclass(frozen=True)
class MonomialTestResult:
    passed: bool
    skipped: bool
    reason: str
    faces: tuple = ()


def monomial_face_check(poly: HomogeneousPolynomial) -> MonomialTestResult:
    """Face criterion for a bivariate polynomial positive on the open quadrant.

    For each axis, the minimal-power monomial must vanish on the axis (power
    between 1 and k-1), carry a positive coefficient, and satisfy
    l^2 - l (k - 1) <= 0.
    """
    if poly.dimension != 2:
        return MonomialTestResult(False, True, "criterion requires two variables")
    k = poly.degree
    cmax = max(abs(c) for c in poly.terms.values())
    # drop composition dust: boundary rays are located to ~1e-12, which seeds
    # spurious cross terms of that order in the normalized polynomial
    terms = {e: c for e, c in poly.terms.items() if abs(c) > 1e-8 * cmax}
    faces = []
    ok_all = True
    for axis in range(2):
        l = min(e[axis] for e in terms)
        coeff = terms.get((l, k - l) if axis == 0 else (k - l, l), 0.0)
        if l < 1 or l > k - 1:
            faces.append(MonomialFace(axis, l, coeff, math.nan, False, "does not vanish on the axis"))
            ok_all = False
            continue
        if coeff <= 0.0:
            faces.append(MonomialFace(axis, l, coeff, math.nan, False, "minimal monomial not positive"))
            ok_all = False
            continue
        sign_value = l * l - l * (k - 1)
        ok = sign_value <= 0
        faces.append(MonomialFace(axis, l, coeff, sign_value, ok, "" if ok else "sign condition fails"))
        ok_all = ok_all and ok
    return MonomialTestResult(passed=ok_all, skipped=False, reason="", faces=tuple(faces))


def n1_monomial_test(poly: HomogeneousPolynomial, report: RegularityReport) -> MonomialTestResult:
    """Normalize the planar cone to the first quadrant and run the face check.

    The two boundary rays are the first two points of the boundary scan
    ``report`` (chart directions +1 and -1); mapping them to the axes is a
    linear change of variables under which the criterion is invariant.
    """
    if poly.dimension != 2:
        return MonomialTestResult(False, True, "criterion requires a planar curve")
    if report.closedness_failures:
        return MonomialTestResult(False, True, "cone is not normalizable: unbounded ray")
    if len(report.entries) < 2:
        return MonomialTestResult(False, True, "the boundary scan has fewer than two rays")
    rays = np.column_stack([report.entries[0].point, report.entries[1].point])
    if abs(np.linalg.det(rays)) < 1e-10:
        return MonomialTestResult(False, True, "cone is not normalizable: parallel boundary rays")
    transformed = poly.compose_linear(rays)
    return monomial_face_check(transformed)


# -- verdict ------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisConfig:
    boundary_dirs: int | None = None
    segment_lines: int = 2000
    concavity_samples: int = 400
    eps_grid: tuple | None = None
    rng_seed: int = 0
    quad_tol: float = 1e-10


@dataclass
class CompletenessVerdict:
    status: str  # complete | incomplete | numerically-certified | inconclusive
    route: str
    evidence: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    boundary: RegularityReport | None = None  # the one boundary scan of the analysis


# chart length of the witness geodesics, and of the ``analyze --trace`` geodesic
WITNESS_MAX_LEN = 12.0


# stops of a witness shot that mean it ran into the boundary or the metric
# degenerated: "drift" is where the state (chart coordinates, or the boundary
# layer at a non-regular boundary) no longer resolves the distance to it
_WITNESS_STOPS = ("boundary", "step_underflow", "drift", "degenerate_metric")


def _speed_numerator(h, k: float) -> tuple:
    """N = (k-1) h'^2 - k h h'' of a line restriction h (coefficients, lowest
    order first), with g(v, v) = N / (k h)^2 along the line; and the size of
    its terms, the same expression over |h| with the difference made a sum."""

    def parts(c):
        dc = _poly.polyder(c)
        return (k - 1.0) * _poly.polymul(dc, dc), k * _poly.polymul(c, _poly.polyder(c, 2))

    square, product = parts(h)
    return _poly.polysub(square, product), _poly.polyadd(*parts(np.abs(h)))


def _tail_length(frame: ChartFrame, start, direction, t_end: float, order: int, h, quad_tol: float) -> float:
    """Length of the chart segment start + t direction, 0 <= t <= t_end,
    where t_end is a zero of h of order ``order`` as the ray solve's polish
    treated it (0 where t_end is no zero of h).

    For a polynomial, with h the coefficients of its line restriction
    (None for a map), the speed is sqrt(N) / (k h)
    (:func:`_speed_numerator`).  At a zero of order m,
    h ~ a (t_end - t)^m gives N ~ a^2 m (k - m) (t_end - t)^(2m - 2), so the
    speed goes as sqrt(m (k - m)) / (k (t_end - t)): a tail into a zero of
    order 1 <= m < k has infinite length, returned without a quadrature.
    This is the blow-up g ~ dh^2 / h^2 behind the regular-boundary theorem
    (arXiv:1407.3251).  At a k-fold zero h = a (t_end - t)^k and N vanishes
    identically.  The polish may report such a zero as of order k - 1, since
    the companion roots of a k-fold zero are off by about eps^(1/k); so the
    rule also asks that some coefficient of N exceed 1e-8 of the size of its
    terms, which rounding alone leaves near k eps.  A k-fold zero, an end
    that is no zero of h and a smooth map keep the quadrature; a divergent
    tail, the complete case that must give no witness, gets an infinite one.
    """
    if h is not None and 1 <= order < frame.degree:
        numer, size = _speed_numerator(h, frame.degree)
        if (np.abs(numer) > 1e-8 * size[: len(numer)]).any():
            return math.inf
    try:
        return curve_length_with_error(frame, start, direction, 0.0, t_end, quad_tol)[0]
    except DomainError:
        return math.inf


def _side(frame: ChartFrame, start, direction, quad_tol: float) -> tuple[float, str]:
    """Length and end of the chart ray start + t direction, t >= 0, as a
    curve: to the boundary (``"boundary"``), or, for a polynomial, sooner
    where the metric degenerates (``"degenerate_metric"``): at the first
    positive zero of N = (k-1) h'^2 - k h h'', the numerator of
    g = N / (k h)^2 along the ray.  With neither end the ray is
    ``"unbounded"`` and its length infinite; otherwise the length is
    :func:`_tail_length`'s."""
    t_end, order = (float(a[0]) for a in frame.boundary_distances(start, direction[None], multiplicity=True))
    end = "boundary" if math.isfinite(t_end) else "unbounded"
    h = None
    if isinstance(frame.func, HomogeneousPolynomial):
        k = frame.func.degree
        h = line_coefficients(frame.func, frame.point(start), frame.vectors(direction[None]))[0]
        # the t^(2k-2) terms cancel exactly; their rounding is not a root
        t_flat = first_positive_zero(_speed_numerator(h, k)[0][: 2 * k - 2])[0]
        # An m-fold zero of h is a zero of N of order 2m - 2, where g blows up
        # rather than degenerates.  Rounding splits it into roots of N nearby,
        # at which h is below sqrt(eps) of the size of its terms.
        if t_flat < t_end:
            size = _poly.polyval(t_flat, np.abs(h))
            if abs(_poly.polyval(t_flat, h)) > 1e-6 * size:
                end, t_end, order = "degenerate_metric", t_flat, 0
    if end == "unbounded":
        return math.inf, end
    return _tail_length(frame, start, direction, t_end, int(order), h, quad_tol), end


def curve_side(frame: ChartFrame, sign: float, quad_tol: float = 1e-10) -> tuple[float, str]:
    """Length and end of one side of a curve's chart interval, from the
    chart origin in the direction ``sign``.

    On a one-dimensional chart the maximal geodesic through the origin is
    the chart interval itself, so a side is the length of the metric speed
    along it, to its end (:func:`_side`).  The length is infinite when the
    side is unbounded, ends at a zero of h of order below the degree, or its
    quadrature diverges (that side is complete).
    """
    c0 = np.zeros(1)
    if chart_metric(frame, c0).matrix[0, 0] <= 0.0:
        raise DegenerateFrameError("metric degenerate along the initial direction")
    return _side(frame, c0, np.array([float(sign)]), quad_tol)


def _shot_length(frame: ChartFrame, trace: CurveTrace, quad_tol: float) -> float:
    """Length of a witness shot extended along its final velocity to the
    ray's end (:func:`_side`: the boundary, or a zero of the metric on the
    ray).  Infinite when the shot stopped elsewhere than at the boundary or
    a degenerate metric, or when its tail diverges, so complete geodesics
    cannot masquerade as witnesses.  A polynomial tail into a zero of order
    below the degree is infinite by the exact rule there; other tails are
    integrated.

    A ``degenerate_metric`` stop ends the shot only where the collapse is
    resolved.  The chart point's ambient coordinates x_i = origin_i +
    sum_j c_j basis_ji are rounded to eps times the sizes of their terms,
    so h there is uncertain by dh = eps sum_i |d_i h| (|origin_i| + sum_j
    |c_j basis_ji|), and the metric, whose largest terms go as 1/h^2, by
    about 2 max|g| dh / h.  That must stay below the fall of the smallest
    eigenvalue that defines the collapse, half its value at the start;
    otherwise the collapse is rounding and the shot is extended like a
    ``drift`` stop."""
    if trace.stop_reason not in _WITNESS_STOPS:
        return math.inf
    c_end = trace.coords[-1]
    if trace.stop_reason == "degenerate_metric":
        lam_start = float(np.linalg.eigvalsh(chart_metric(frame, trace.coords[0]).matrix).min())
        try:
            g = chart_metric(frame, c_end).matrix
            sizes = np.abs(frame.origin) + np.abs(c_end) @ np.abs(frame.basis)
            dh = np.finfo(float).eps * float(np.abs(frame.func.gradient(frame.point(c_end))) @ sizes)
            spread = 2.0 * float(np.abs(g).max()) * dh / trace.hvals[-1]
        except DomainError:  # the end point rounds out of the region
            spread = math.inf
        if spread < 0.5 * lam_start:
            return trace.length  # integrand vanishes at the degeneracy; truncation suffices
    v = trace.final_velocity
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return trace.length
    return trace.length + _side(frame, c_end, v / norm, quad_tol)[0]


def _fork_helps() -> bool:
    """Whether work may run in a forked child: fork exists, a second CPU is
    usable, and no other thread is alive (the child would get only this
    one, and whatever locks the others held)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2


def _forked(work):
    """Start ``work()`` in a forked child where :func:`_fork_helps`, and
    return ``result(abandon=False)``, which gives back its value.

    The child sends the value back pickled, which keeps every float64 bit.
    It is used only when the child exits cleanly, having raised nothing and
    issued no warning; otherwise, or with no child, ``result()`` runs
    ``work()`` in this process, which then raises or warns as it would
    have.  ``result(abandon=True)`` only reaps a pending child.  A value,
    once had, is kept: later calls return it, abandoning or not."""
    pid, kept = None, []
    if _fork_helps():
        fds = ()
        try:
            fds = os.pipe()
            pid = os.fork()
        except OSError:  # no file descriptor or process to spare
            for fd in fds:
                os.close(fd)
        else:
            read, write = fds
            if pid == 0:  # the child never returns into the caller
                code = 1
                try:
                    os.close(read)  # so that a write the parent no longer reads fails
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        data = pickle.dumps(work())
                    if not caught:
                        with open(write, "wb") as out:
                            out.write(data)
                        code = 0
                finally:
                    os._exit(code)
            os.close(write)
            pipe = open(read, "rb")

    def result(abandon: bool = False):
        nonlocal pid
        if pid is not None:
            try:
                data = b"" if abandon else pipe.read()
            finally:
                pipe.close()  # first: a child blocked on a full pipe then exits
                try:
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                except ChildProcessError:  # reaped elsewhere (SIGCHLD ignored or handled)
                    status = None
                pid = None
            if status == 0 and data:
                kept.append(pickle.loads(data))
        if not (kept or abandon):
            kept.append(work())
        return kept[0] if kept else None

    return result


def _shoot_pair(frame: ChartFrame, origin, axis, forward=None) -> list:
    """The witness shots [forward, backward] from ``origin`` along ``axis``:
    the forward one pending as ``forward`` or in a forked child
    (:func:`_forked`), while this process shoots backward."""

    def shoot(sign):
        return geodesic_shoot(frame, origin, sign * axis, max_len=WITNESS_MAX_LEN)

    forward = forward or _forked(lambda: shoot(1.0))
    try:
        backward = shoot(-1.0)
    except Exception:
        forward()  # first in order, the forward shot's error wins
        raise
    except BaseException:
        forward(abandon=True)
        raise
    return [forward(), backward]


def completeness_verdict(frame: ChartFrame, config: AnalysisConfig | None = None, axis_shot=None) -> CompletenessVerdict:
    """Decide completeness of the hypersurface piece charted by ``frame``.

    The boundary is scanned once, by :func:`regularity_report`; the verdict
    carries that report as ``boundary``.  ``axis_shot``, a pending value as
    :func:`_forked` returns it, is the forward witness shot along the first
    chart axis; a surface's witness search takes it instead of shooting it.
    """
    config = config or AnalysisConfig()
    k = frame.degree
    is_poly = isinstance(frame.func, HomogeneousPolynomial)
    evidence: dict = {}
    notes: list = []

    report = regularity_report(frame, count=config.boundary_dirs, seed=config.rng_seed)

    def verdict(status: str, route: str) -> CompletenessVerdict:
        return CompletenessVerdict(status, route, evidence, notes, report)

    bounded = not report.closedness_failures
    if bounded:
        evidence["boundary_points_scanned"] = len(report.entries)
    else:
        evidence["closedness_failure"] = report.closedness_failures[0]
        notes.append("positivity slice unbounded: the piece is not closed in the ambient space")
        notes.append("chart coverage assumed")

    if is_poly and k == 2:
        evidence["hessian_constant"] = True
        return verdict("complete", "quadric")

    if is_poly and k == 3 and bounded and config.segment_lines > 0:
        seg = cubic_segment_test(frame, n_lines=config.segment_lines, seed=config.rng_seed)
        evidence["segment_lines"] = seg.line_count
        if seg.closedness_failures:
            bounded = False
            evidence["closedness_failure"] = seg.closedness_failures[0]
            notes.append("segment sampling found an unbounded positivity interval")
        elif seg.passed:
            return verdict("complete", "cubic-criterion")

    if bounded:
        evidence["regular_boundary"] = report.regular
        evidence["regularity_points"] = len(report.entries)
        if report.regular:
            return verdict("complete", "regular-boundary")

    if is_poly and frame.chart_dim == 1 and bounded:
        mono = n1_monomial_test(frame.func, report)
        if mono.skipped:
            notes.append(f"monomial criterion skipped: {mono.reason}")
        else:
            evidence["monomial_faces"] = [
                {"axis": f.axis, "min_power": f.min_power, "sign_value": f.sign_value}
                for f in mono.faces
            ]
            if mono.passed:
                return verdict("complete", "n1-monomial")

    if bounded:
        grid = config.eps_grid if config.eps_grid is not None else default_eps_grid(k)
        for res in concavity_results(frame, grid, n_samples=config.concavity_samples, seed=config.rng_seed):
            if res.passed:
                evidence["concavity_eps"] = res.eps
                evidence["concavity_samples"] = res.n_samples
                return verdict("numerically-certified", f"concavity({res.eps:g})")
        evidence["concavity_grid_failed"] = list(grid)

    # incompleteness evidence: a side of a maximal geodesic through the chart
    # origin with finite length; a single one witnesses, and the finite sides
    # are summed.  On a curve each side is a quadrature of the chart interval,
    # on a surface a shot along a chart axis extended to the boundary.
    origin = np.zeros(frame.chart_dim)
    for axis in np.eye(frame.chart_dim):
        if frame.chart_dim == 1:
            sides = [curve_side(frame, sign, config.quad_tol) for sign in (1.0, -1.0)]
            probes = [{"length": length, "stop": end} for length, end in sides]
            detail = {"witness_sides": [length for length, _ in sides]}
        else:
            shots = _shoot_pair(frame, origin, axis, axis_shot)
            axis_shot = None
            sides = [(_shot_length(frame, t, config.quad_tol), t.stop_reason) for t in shots]
            probes = [
                {
                    "length": t.length,
                    "stop": t.stop_reason,
                    "rejected_steps": t.rejected_steps,
                    "error_estimate": t.error_estimate,
                }
                for t in shots
            ]
            detail = {
                "witness_drift": max(t.unit_speed_drift for t in shots),
                "witness_rejected_steps": sum(t.rejected_steps for t in shots),
                "witness_error_estimate": sum(t.error_estimate for t in shots),
            }
        finite = [length for length, _ in sides if math.isfinite(length)]
        if finite and sum(finite) > 0.0:
            evidence["witness_length"] = sum(finite)
            evidence["witness_stop"] = tuple(end for _, end in sides)
            evidence.update(detail)
            return verdict("incomplete", "finite-length-witness")
        evidence.setdefault("geodesic_probes", []).append(
            {"direction": axis.tolist(), "forward": probes[0], "backward": probes[1]}
        )
    return verdict("inconclusive", "none")
