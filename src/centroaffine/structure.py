"""Induced affine structure on the level set: connection, volume, cubic form.

Second derivatives of the radial-graph embedding are split against the moving
frame (tangent images, position vector): the tangent component yields the
connection coefficients, the position component reproduces the metric.  All
embedding derivatives are analytic; covariant derivatives of sampled tensors
use central finite differences in chart coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chart import ChartFrame, chart_metric
from .errors import DegenerateFrameError
from .forms import SymmetricForm
from .homogeneous import HomogeneousPolynomial, polarization

MAX_FRAME_CONDITION = 1e8


@dataclass(frozen=True)
class ConnectionSample:
    coords: np.ndarray
    gamma: np.ndarray  # gamma[l, i, j]: upper index first, symmetric in (i, j)
    metric: SymmetricForm


@dataclass(frozen=True)
class CubicFormSample:
    coords: np.ndarray
    tensor: np.ndarray  # fully symmetric (n, n, n)
    method: str


def _default_step(frame: ChartFrame, coords, fd_step):
    if fd_step is not None:
        return float(fd_step)
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    axes = np.vstack([np.eye(frame.chart_dim), -np.eye(frame.chart_dim)])
    dist = float(frame.boundary_distances(coords, axes).min())
    if not math.isfinite(dist):
        dist = 1.0 + float(np.abs(coords).max())  # boundaryless slice
    return 1e-4 * dist


def gauss_split(frame: ChartFrame, coords, validate: bool = True) -> ConnectionSample:
    """Split embedding second derivatives into connection and metric parts.

    Solves M @ [gamma^1_ij, ..., gamma^n_ij, g_ij] = d2(embedding)_ij with
    M = [tangent images | position vector]; refuses frames with condition
    number above 1e8.
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    jac = frame.embed_jacobian(coords)
    xi = frame.embed(coords)
    m = np.column_stack([jac, xi])
    if validate:
        cond = np.linalg.cond(m)
        if not np.isfinite(cond) or cond > MAX_FRAME_CONDITION:
            raise DegenerateFrameError(f"moving frame is ill conditioned (cond {cond:.2e})")
    second = frame.embed_second(coords)
    n = frame.chart_dim
    rhs = second.reshape(n * n, frame.dimension).T
    sol = np.linalg.solve(m, rhs)  # (n + 1, n * n)
    gamma = sol[:n].reshape(n, n, n)
    gamma = 0.5 * (gamma + gamma.transpose(0, 2, 1))
    gram = 0.5 * (sol[n].reshape(n, n) + sol[n].reshape(n, n).T)
    metric = SymmetricForm(gram)
    if validate:
        direct = chart_metric(frame, coords, "psi_formula").matrix
        scale = max(1.0, float(np.abs(direct).max()))
        if float(np.abs(gram - direct).max()) > 1e-6 * scale:
            raise DegenerateFrameError(
                "position component of the split disagrees with the metric formula"
            )
    return ConnectionSample(coords=coords, gamma=gamma, metric=metric)


def volume_form(frame: ChartFrame, coords) -> float:
    """Density det(position, tangent images) of the induced volume form."""
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    jac = frame.embed_jacobian(coords)
    xi = frame.embed(coords)
    return float(np.linalg.det(np.column_stack([xi, jac])))


def volume_parallel_residual(frame: ChartFrame, coords, fd_step: float | None = None) -> float:
    """Max over i of |d_i(volume) - trace(gamma^._{. i}) * volume|.

    Vanishes when the volume density is parallel for the induced connection.
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    step = _default_step(frame, coords, fd_step)
    sample = gauss_split(frame, coords)
    nu = volume_form(frame, coords)
    n = frame.chart_dim
    worst = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        dnu = (volume_form(frame, coords + e) - volume_form(frame, coords - e)) / (2.0 * step)
        trace = float(np.trace(sample.gamma[:, :, i]))
        worst = max(worst, abs(dnu - trace * nu))
    return worst


def cubic_form(
    frame: ChartFrame,
    coords,
    method: str = "nabla_g",
    fd_step: float | None = None,
) -> CubicFormSample:
    """Totally symmetric covariant derivative of the metric in chart coordinates.

    ``nabla_g`` differentiates metric samples by central differences and
    subtracts the connection contractions.  ``polarization`` contracts the
    symmetric trilinear form of a cubic polynomial with the embedding
    Jacobian (exact; cubic polynomials only).
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    if method == "polarization":
        if not (isinstance(frame.func, HomogeneousPolynomial) and frame.func.degree == 3):
            raise ValueError("polarization route requires a cubic polynomial")
        tri = polarization(frame.func)
        jac = frame.embed_jacobian(coords)
        tensor = -2.0 * np.einsum("abc,ai,bj,ck->ijk", tri, jac, jac, jac)
        return CubicFormSample(coords=coords, tensor=tensor, method=method)
    if method != "nabla_g":
        raise ValueError(f"unknown method {method!r}")
    step = _default_step(frame, coords, fd_step)
    sample = gauss_split(frame, coords)
    g = sample.metric.matrix
    gamma = sample.gamma
    n = frame.chart_dim
    dg = np.empty((n, n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        gp = chart_metric(frame, coords + e, "psi_formula").matrix
        gm = chart_metric(frame, coords - e, "psi_formula").matrix
        dg[i] = (gp - gm) / (2.0 * step)
    corr = np.einsum("mij,mk->ijk", gamma, g)
    tensor = dg - corr - corr.transpose(0, 2, 1)
    return CubicFormSample(coords=coords, tensor=tensor, method=method)


def fund_equation_residual(frame: ChartFrame, coords, fd_step: float | None = None) -> float:
    """Residual of the quartic identity tying the derivative of the cubic form
    to symmetrized metric products; cubic polynomials only.

    The cubic-form samples entering the finite difference are exact
    (polarization route), so the residual decreases at second order in the
    step size.
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    if not (isinstance(frame.func, HomogeneousPolynomial) and frame.func.degree == 3):
        raise ValueError("the quartic identity applies to cubic polynomials only")
    step = _default_step(frame, coords, fd_step)
    sample = gauss_split(frame, coords)
    g = sample.metric.matrix
    gamma = sample.gamma
    n = frame.chart_dim
    c0 = cubic_form(frame, coords, "polarization").tensor
    dc = np.empty((n, n, n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        cp = cubic_form(frame, coords + e, "polarization").tensor
        cm = cubic_form(frame, coords - e, "polarization").tensor
        dc[i] = (cp - cm) / (2.0 * step)
    corr1 = np.einsum("mij,mkl->ijkl", gamma, c0)
    corr2 = np.einsum("mik,jml->ijkl", gamma, c0)
    corr3 = np.einsum("mil,jkm->ijkl", gamma, c0)
    nabla_c = dc - corr1 - corr2 - corr3
    target = (
        np.einsum("ij,kl->ijkl", g, g)
        + np.einsum("ik,jl->ijkl", g, g)
        + np.einsum("il,jk->ijkl", g, g)
    )
    return float(np.abs(nabla_c - target).max())


def curvature_defect(gamma: np.ndarray, dgamma: np.ndarray, metric: np.ndarray) -> float:
    """Max-norm defect of the constant-curvature identity given connection
    coefficients, their coordinate derivatives and the metric.

    ``dgamma[i, l, j, k]`` is the i-derivative of gamma[l, j, k].
    """
    n = metric.shape[0]
    curv = (
        np.einsum("iljk->lijk", dgamma)
        - np.einsum("jlik->lijk", dgamma)
        + np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
    )
    eye = np.eye(n)
    target = -(
        np.einsum("jk,li->lijk", metric, eye) - np.einsum("ik,lj->lijk", metric, eye)
    )
    return float(np.abs(curv - target).max())


def curvature_residual(frame: ChartFrame, coords, fd_step: float | None = None) -> float:
    """Defect of the constant-curvature identity at a chart point, with the
    connection derivatives taken by central differences."""
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    step = _default_step(frame, coords, fd_step)
    sample = gauss_split(frame, coords)
    n = frame.chart_dim
    dgamma = np.empty((n, n, n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        gp = gauss_split(frame, coords + e).gamma
        gm = gauss_split(frame, coords - e).gamma
        dgamma[i] = (gp - gm) / (2.0 * step)
    return curvature_defect(sample.gamma, dgamma, sample.metric.matrix)
