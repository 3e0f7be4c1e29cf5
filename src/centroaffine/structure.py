"""Induced affine structure on the level set: connection, volume, cubic form.

Second derivatives of the radial-graph embedding are split against the moving
frame (tangent images, position vector): the tangent component yields the
connection coefficients, the position component reproduces the metric.  All
embedding derivatives are analytic; covariant derivatives of sampled tensors
use central finite differences in chart coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import ChartFrame, _psi_rows, chart_metric
from .errors import DegenerateFrameError
from .homogeneous import HomogeneousPolynomial, polarization

MAX_FRAME_CONDITION = 1e8


@dataclass(frozen=True)
class CubicFormSample:
    coords: np.ndarray
    tensor: np.ndarray  # fully symmetric (n, n, n)
    method: str


def _default_steps(frame: ChartFrame, coords, fd_step) -> np.ndarray:
    """The finite-difference step of each row of ``coords``: ``fd_step``, or
    1e-4 times the row's distance to the boundary along the 2n chart axes
    (1 + max |c_i| on a boundaryless slice).  The axis rays of all rows are
    one ray solve, one origin per ray."""
    if fd_step is not None:
        return np.full(len(coords), float(fd_step))
    n = frame.chart_dim
    axes = np.vstack([np.eye(n), -np.eye(n)])
    dist = frame.boundary_distances(np.repeat(coords, 2 * n, axis=0), np.tile(axes, (len(coords), 1)))
    dist = dist.reshape(len(coords), 2 * n).min(axis=1)
    return 1e-4 * np.where(np.isfinite(dist), dist, 1.0 + np.abs(coords).max(axis=1))


def _split_rows(frame: ChartFrame, jets):
    """Split embedding second derivatives into connection and metric parts at
    the rows of ``ChartFrame._jets``: solves M @ [gamma^1_ij, ..., gamma^n_ij,
    g_ij] = d2(embedding)_ij with M = [tangent images | position vector].
    Returns the connection coefficients (m, n, n, n), upper index first, and
    the metric parts (m, n, n), each row rounded as it is alone; raises for
    the first row whose frame has condition number above
    :data:`MAX_FRAME_CONDITION` or whose metric part disagrees with the
    ``psi_formula``."""
    _, hx, grads, hess = jets
    n = frame.chart_dim
    # one moving frame per row
    moving = np.concatenate([frame._jacobian_rows(*jets), frame._embed_rows(*jets)[:, :, None]], axis=2)
    cond = np.linalg.cond(moving)
    solvable = np.isfinite(cond) & (cond <= MAX_FRAME_CONDITION)
    second = frame._second_rows(*jets)
    rhs = np.swapaxes(second.reshape(len(moving), n * n, frame.dimension), 1, 2)
    sol = np.full(rhs.shape, np.nan)
    sol[solvable] = np.linalg.solve(moving[solvable], rhs[solvable])  # rows of (n + 1, n * n)
    gamma = sol[:, :n].reshape(-1, n, n, n)
    gamma = 0.5 * (gamma + gamma.transpose(0, 1, 3, 2))
    gram = sol[:, n].reshape(-1, n, n)
    gram = 0.5 * (gram + np.swapaxes(gram, 1, 2))
    direct = _psi_rows(frame, hx, grads, hess)
    scale = np.maximum(1.0, np.abs(direct).max(axis=(1, 2)))
    disagree = solvable & (np.abs(gram - direct).max(axis=(1, 2)) > 1e-6 * scale)
    failed = np.flatnonzero(~solvable | disagree)
    if failed.size and not solvable[failed[0]]:
        raise DegenerateFrameError(f"moving frame is ill conditioned (cond {cond[failed[0]]:.2e})")
    if failed.size:
        raise DegenerateFrameError("position component of the split disagrees with the metric formula")
    return gamma, gram


def _volume_rows(frame: ChartFrame, jets) -> np.ndarray:
    """Density det(position, tangent images) of the induced volume form at
    the rows of ``ChartFrame._jets``."""
    return np.linalg.det(np.concatenate([frame._embed_rows(*jets)[:, :, None], frame._jacobian_rows(*jets)], axis=2))


def volume_parallel_residual(frame: ChartFrame, coords) -> float:
    """Max over i of |d_i(volume) - trace(gamma^._{. i}) * volume|.

    Vanishes when the volume density is parallel for the induced connection.
    One row of :func:`structure_residual_rows`.
    """
    return _one_row("volume_parallel", frame, coords, None)


def cubic_form(frame: ChartFrame, coords, method: str = "nabla_g") -> CubicFormSample:
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
        return CubicFormSample(coords=coords, tensor=_cubic_rows(frame, frame._jets(coords[None], (1,)))[0], method=method)
    if method != "nabla_g":
        raise ValueError(f"unknown method {method!r}")
    step = _default_steps(frame, coords[None], None)[0]
    gamma, g = (part[0] for part in _split_rows(frame, frame._jets(coords[None], (1, 2))))
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


def _cubic_rows(frame: ChartFrame, jets) -> np.ndarray:
    """The ``polarization`` cubic form at the rows of ``ChartFrame._jets``."""
    tri = polarization(frame.func)
    return np.array([-2.0 * np.einsum("abc,ai,bj,ck->ijk", tri, jac, jac, jac) for jac in frame._jacobian_rows(*jets)])


def fund_equation_residual(frame: ChartFrame, coords, fd_step: float | None = None) -> float:
    """Residual of the quartic identity tying the derivative of the cubic form
    to symmetrized metric products; cubic polynomials only.

    The cubic-form samples entering the finite difference are exact
    (polarization route), so the residual decreases at second order in the
    step size.  One row of :func:`structure_residual_rows`.
    """
    return _one_row("fund_equation", frame, coords, fd_step)


def curvature_residual(frame: ChartFrame, coords) -> float:
    """Defect of the constant-curvature identity at a chart point, with the
    connection derivatives taken by central differences.  One row of
    :func:`structure_residual_rows`."""
    return _one_row("curvature", frame, coords, None)


RESIDUALS = ("fund_equation", "curvature", "volume_parallel")


def structure_residual_rows(frame: ChartFrame, coords, kinds=RESIDUALS, fd_step: float | None = None) -> dict:
    """The residuals named in ``kinds`` (of :data:`RESIDUALS`) at each row of
    ``coords``, as arrays by name.  A row's finite-difference step (default
    1e-4 times its distance to the boundary along the chart axes) and its
    Gauss split are shared by the residuals; the stencil points c +- step e_i
    of all rows are evaluated together, the jets of h at the rows and at the
    stencil points once each.  Each row rounds as it does alone."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if "fund_equation" in kinds and not (isinstance(frame.func, HomogeneousPolynomial) and frame.func.degree == 3):
        raise ValueError("the quartic identity applies to cubic polynomials only")
    steps = _default_steps(frame, coords, fd_step)
    centre = frame._jets(coords, (1, 2))
    gamma, gram = _split_rows(frame, centre)
    n = frame.chart_dim
    shifts = steps[:, None, None] * np.eye(n)  # row i: step e_i
    stencil = np.stack([coords[:, None, :] + shifts, coords[:, None, :] - shifts], axis=2).reshape(-1, n)
    around = frame._jets(stencil, (1, 2) if "curvature" in kinds else (1,))
    out = {}
    for kind in kinds:
        if kind == "fund_equation":
            c0 = _cubic_rows(frame, centre)
            dc = _central_differences(_cubic_rows(frame, around), steps)
            out[kind] = np.array([_fund_defect(*row) for row in zip(gamma, gram, c0, dc)])
        elif kind == "curvature":
            dgamma = _central_differences(_split_rows(frame, around)[0], steps)
            out[kind] = np.array([curvature_defect(*row) for row in zip(gamma, dgamma, gram)])
        elif kind == "volume_parallel":
            nu = _volume_rows(frame, centre)[:, None]
            dnu = _central_differences(_volume_rows(frame, around), steps)
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
