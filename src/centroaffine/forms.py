"""Small dense symmetric bilinear forms: signatures, definiteness, restriction.

Eigenvalue-based throughout; the zero threshold is always relative to the
form's characteristic magnitude so that degeneracies that are exact in the
underlying geometry (but blurred by rounding) are detected reliably.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateFrameError

DEFAULT_ZERO_TOL = 1e-9


class Signature(NamedTuple):
    n_pos: int
    n_neg: int
    n_zero: int
    tol: float


class SymmetricForm:
    """Symmetric bilinear form on R^d stored as an exactly symmetric matrix."""

    def __init__(self, matrix):
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        if m.size == 0:
            m = m.reshape(0, 0)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        self.matrix = m
        self.dimension = m.shape[0]
        self.scale = float(np.abs(m).max()) if m.size else 0.0
        self._eigs: np.ndarray | None = None

    def eigenvalues(self) -> np.ndarray:
        if self._eigs is None:
            self._eigs = np.linalg.eigvalsh(self.matrix) if self.dimension else np.zeros(0)
        return self._eigs

    def signature(self, tol: float = DEFAULT_ZERO_TOL) -> Signature:
        """Count eigenvalues, treating |lam| <= tol * max(1, scale) as zero."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        return Signature(*eigen_counts(self.eigenvalues(), self.scale, tol).tolist(), tol)

    def is_definite(self, sign: int, tol: float = DEFAULT_ZERO_TOL) -> bool:
        """True iff the form is positive (sign=+1) or negative (sign=-1) definite.

        The empty form is vacuously definite of either sign.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        sig = self.signature(tol)
        if sign == 1:
            return sig.n_pos == self.dimension
        return sig.n_neg == self.dimension

    def psd_with_kernel_dim(self) -> tuple[bool, int]:
        """Return (positive semidefinite?, numeric kernel dimension)."""
        sig = self.signature()
        return sig.n_neg == 0, sig.n_zero

    def __repr__(self):
        return f"SymmetricForm({self.matrix.tolist()})"


def restrict_rows(matrices, bases) -> np.ndarray:
    """Gram matrices of a stack of forms (r, d, d) on the vectors of a stack
    of bases (r, m, d), symmetrized.  Raises if a basis is numerically
    dependent (rank check at 1e-9)."""
    svals = np.linalg.svd(bases, compute_uv=False)
    if svals.size and (svals.min(-1) <= DEFAULT_ZERO_TOL * np.maximum(1.0, svals.max(-1))).any():
        raise DegenerateFrameError("restriction basis is rank deficient")
    gram = bases @ matrices @ np.swapaxes(bases, -1, -2)
    return 0.5 * (gram + np.swapaxes(gram, -1, -2))


def signature_rows(matrices, tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """(n_pos, n_neg, n_zero), as in :meth:`SymmetricForm.signature`, of each
    symmetric matrix of a stack: an (r, 3) array."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = np.abs(matrices).max(axis=(-2, -1), initial=0.0)
    return eigen_counts(np.linalg.eigvalsh(matrices), scale, tol)


def eigen_counts(eigs, scale, tol: float) -> np.ndarray:
    """(n_pos, n_neg, n_zero) along the last axis of ``eigs``, an eigenvalue
    with |lam| <= tol * max(1, scale) counting as zero."""
    cut = (tol * np.maximum(1.0, scale))[..., None]
    return np.stack([(eigs > cut).sum(-1), (eigs < -cut).sum(-1), (np.abs(eigs) <= cut).sum(-1)], -1)
