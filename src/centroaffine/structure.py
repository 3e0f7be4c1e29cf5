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

from .chart import ChartFrame, chart_metric, chart_metric_rows
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
    number above 1e8.  One row of :func:`gauss_split_rows`.
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    gamma, gram = gauss_split_rows(frame, coords[None], validate)
    return ConnectionSample(coords=coords, gamma=gamma[0], metric=SymmetricForm(gram[0]))


def gauss_split_rows(frame: ChartFrame, coords, validate: bool = True):
    """Connection coefficients (m, n, n, n) and metric parts (m, n, n) of
    :func:`gauss_split` at the rows of ``coords``, each row rounded as it
    is alone; raises for the first row that fails a check."""
    n = frame.chart_dim
    jac = frame.embed_jacobian(coords)
    xi = frame.embed(coords)
    moving = np.concatenate([jac, xi[:, :, None]], axis=2)  # one moving frame per row
    solvable = np.ones(len(moving), dtype=bool)
    if validate:
        cond = np.linalg.cond(moving)
        solvable = np.isfinite(cond) & (cond <= MAX_FRAME_CONDITION)
    second = frame.embed_second(coords)
    rhs = np.swapaxes(second.reshape(len(moving), n * n, frame.dimension), 1, 2)
    sol = np.full(rhs.shape, np.nan)
    sol[solvable] = np.linalg.solve(moving[solvable], rhs[solvable])  # rows of (n + 1, n * n)
    gamma = sol[:, :n].reshape(-1, n, n, n)
    gamma = 0.5 * (gamma + gamma.transpose(0, 1, 3, 2))
    gram = sol[:, n].reshape(-1, n, n)
    gram = 0.5 * (gram + np.swapaxes(gram, 1, 2))
    if validate:
        direct = chart_metric_rows(frame, coords, "psi_formula")
        scale = np.maximum(1.0, np.abs(direct).max(axis=(1, 2)))
        disagree = solvable & (np.abs(gram - direct).max(axis=(1, 2)) > 1e-6 * scale)
        failed = np.flatnonzero(~solvable | disagree)
        if failed.size and not solvable[failed[0]]:
            raise DegenerateFrameError(f"moving frame is ill conditioned (cond {cond[failed[0]]:.2e})")
        if failed.size:
            raise DegenerateFrameError(
                "position component of the split disagrees with the metric formula"
            )
    return gamma, gram


def volume_form(frame: ChartFrame, coords) -> float:
    """Density det(position, tangent images) of the induced volume form;
    one row of :func:`volume_form_rows`."""
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    return float(volume_form_rows(frame, coords[None])[0])


def volume_form_rows(frame: ChartFrame, coords) -> np.ndarray:
    """:func:`volume_form` at each row of ``coords``."""
    jac = frame.embed_jacobian(coords)
    xi = frame.embed(coords)
    return np.linalg.det(np.concatenate([xi[:, :, None], jac], axis=2))


def volume_parallel_residual(frame: ChartFrame, coords, fd_step: float | None = None) -> float:
    """Max over i of |d_i(volume) - trace(gamma^._{. i}) * volume|.

    Vanishes when the volume density is parallel for the induced connection.
    One row of :func:`structure_residual_rows`.
    """
    return _one_row("volume_parallel", frame, coords, fd_step)


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
        return CubicFormSample(coords=coords, tensor=_polarization_rows(frame, coords[None])[0], method=method)
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


def _polarization_rows(frame: ChartFrame, coords) -> np.ndarray:
    """The ``polarization`` cubic form at each row of ``coords``."""
    if not (isinstance(frame.func, HomogeneousPolynomial) and frame.func.degree == 3):
        raise ValueError("polarization route requires a cubic polynomial")
    tri = polarization(frame.func)
    jacs = frame.embed_jacobian(coords)
    return np.array([-2.0 * np.einsum("abc,ai,bj,ck->ijk", tri, jac, jac, jac) for jac in jacs])


def fund_equation_residual(frame: ChartFrame, coords, fd_step: float | None = None) -> float:
    """Residual of the quartic identity tying the derivative of the cubic form
    to symmetrized metric products; cubic polynomials only.

    The cubic-form samples entering the finite difference are exact
    (polarization route), so the residual decreases at second order in the
    step size.  One row of :func:`structure_residual_rows`.
    """
    return _one_row("fund_equation", frame, coords, fd_step)


def curvature_residual(frame: ChartFrame, coords, fd_step: float | None = None) -> float:
    """Defect of the constant-curvature identity at a chart point, with the
    connection derivatives taken by central differences.  One row of
    :func:`structure_residual_rows`."""
    return _one_row("curvature", frame, coords, fd_step)


RESIDUALS = ("fund_equation", "curvature", "volume_parallel")


def structure_residual_rows(frame: ChartFrame, coords, kinds=RESIDUALS, fd_step: float | None = None) -> dict:
    """The residuals named in ``kinds`` (of :data:`RESIDUALS`) at each row of
    ``coords``, as arrays by name.  A row's finite-difference step (default
    1e-4 times its distance to the boundary along the chart axes) and its
    Gauss split are shared by the residuals; the stencil points c +- step e_i
    of all rows are evaluated together.  Each row rounds as it does alone."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if "fund_equation" in kinds and not (isinstance(frame.func, HomogeneousPolynomial) and frame.func.degree == 3):
        raise ValueError("the quartic identity applies to cubic polynomials only")
    steps = np.array([_default_step(frame, c, fd_step) for c in coords])
    gamma, gram = gauss_split_rows(frame, coords)
    n = frame.chart_dim
    shifts = steps[:, None, None] * np.eye(n)  # row i: step e_i
    stencil = np.stack([coords[:, None, :] + shifts, coords[:, None, :] - shifts], axis=2).reshape(-1, n)
    out = {}
    for kind in kinds:
        if kind == "fund_equation":
            c0 = _polarization_rows(frame, coords)
            dc = _central_differences(_polarization_rows(frame, stencil), steps)
            out[kind] = np.array([_fund_defect(*row) for row in zip(gamma, gram, c0, dc)])
        elif kind == "curvature":
            dgamma = _central_differences(gauss_split_rows(frame, stencil)[0], steps)
            out[kind] = np.array([curvature_defect(*row) for row in zip(gamma, dgamma, gram)])
        elif kind == "volume_parallel":
            nu = volume_form_rows(frame, coords)[:, None]
            dnu = _central_differences(volume_form_rows(frame, stencil), steps)
            trace = np.trace(gamma, axis1=1, axis2=2)  # trace(gamma[:, :, i]) for each i
            out[kind] = np.fmax.reduce(np.abs(dnu - trace * nu), axis=1, initial=0.0)
        else:
            raise ValueError(f"unknown residual {kind!r}; expected one of {RESIDUALS}")
    return out


def _one_row(kind: str, frame: ChartFrame, coords, fd_step) -> float:
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    return float(structure_residual_rows(frame, coords[None], (kind,), fd_step)[kind][0])


def _central_differences(values, steps) -> np.ndarray:
    """(v(c + step e_i) - v(c - step e_i)) / (2 step) of each row c and axis
    i, an (m, n, ...) array, from the values v at the stencil points of
    :func:`structure_residual_rows`."""
    values = values.reshape((len(steps), -1, 2) + values.shape[1:])
    return (values[:, :, 0] - values[:, :, 1]) / (2.0 * steps).reshape((-1,) + (1,) * (values.ndim - 2))


def _fund_defect(gamma, g, c0, dc) -> float:
    """Max-norm defect of the quartic identity at one point, from the
    connection, metric, cubic form and its coordinate derivatives."""
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
