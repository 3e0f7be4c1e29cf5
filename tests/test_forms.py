import numpy as np
import pytest

from centroaffine import DegenerateFrameError, SymmetricForm
from centroaffine.forms import restrict_rows


def _restrict(form, basis):
    """The form on the span of the vectors of ``basis``: one row of :func:`restrict_rows`."""
    vecs = np.asarray(basis, dtype=float).reshape(1, -1, form.dimension)
    return SymmetricForm(restrict_rows(form.matrix[None], vecs)[0])


def test_signature_examples():
    assert SymmetricForm([[6, 0], [0, -2]]).signature()[:3] == (1, 1, 0)
    assert SymmetricForm(np.zeros((3, 3))).signature()[:3] == (0, 0, 3)
    assert SymmetricForm([[0, -2], [-2, 0]]).signature()[:3] == (1, 1, 0)


def test_signature_counts_sum_to_dimension():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = rng.integers(1, 6)
        a = rng.standard_normal((d, d))
        sig = SymmetricForm(a + a.T).signature()
        assert sig.n_pos + sig.n_neg + sig.n_zero == d


def test_signature_requires_positive_tol():
    with pytest.raises(ValueError):
        SymmetricForm([[1.0]]).signature(tol=0.0)


def test_restrict_examples():
    f = SymmetricForm([[2, 2], [2, 0]])
    r = _restrict(f, [(1, -2)])
    assert r.matrix.shape == (1, 1) and abs(r.matrix[0, 0] + 6.0) == 0.0
    g = SymmetricForm([[1.5, 0.25], [0.25, -3.0]])
    assert np.array_equal(_restrict(g, np.eye(2)).matrix, g.matrix)
    empty = _restrict(g, [])
    assert empty.dimension == 0


def test_restrict_rejects_dependent_basis():
    f = SymmetricForm(np.eye(3))
    with pytest.raises(DegenerateFrameError):
        _restrict(f, [[1, 0, 0], [2, 0, 0]])


def test_is_definite_examples():
    assert SymmetricForm([[-6.0]]).is_definite(-1)
    f = SymmetricForm([[6, 0], [0, -2]])
    assert not f.is_definite(1) and not f.is_definite(-1)
    empty = SymmetricForm(np.zeros((0, 0)))
    assert empty.is_definite(1) and empty.is_definite(-1)


def test_psd_with_kernel_examples():
    assert SymmetricForm([[0, 0], [0, 3]]).psd_with_kernel_dim() == (True, 1)
    assert SymmetricForm([[0, -2], [-2, 0]]).psd_with_kernel_dim() == (False, 0)
    assert SymmetricForm([[0.0]]).psd_with_kernel_dim() == (True, 1)


def test_signature_invariant_under_congruence():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        a = rng.standard_normal((d, d))
        form = SymmetricForm(a + a.T + np.diag(rng.uniform(0.5, 2.0, d) * rng.choice([-1, 1], d)))
        # congruence by a matrix with condition number <= 1e3
        u, _, vt = np.linalg.svd(rng.standard_normal((d, d)))
        svals = rng.uniform(1.0, 1e3, d) ** 0.5
        c = u @ np.diag(svals) @ vt
        transformed = SymmetricForm(c.T @ form.matrix @ c)
        assert form.signature(1e-8)[:3] == transformed.signature(1e-8)[:3]


def test_restrict_then_signature_hand_cases():
    # Minkowski-type form on R^3 restricted to a spacelike plane
    f = SymmetricForm(np.diag([-1.0, 1.0, 1.0]))
    plane = _restrict(f, [[0, 1, 0], [0, 0, 1]])
    assert plane.signature()[:3] == (2, 0, 0)
    mixed = _restrict(f, [[1, 0, 0], [0, 1, 0]])
    assert mixed.signature()[:3] == (1, 1, 0)


def test_lorentzian_determinant_sign():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        eigs = np.concatenate([[-rng.uniform(0.5, 3.0)], rng.uniform(0.5, 3.0, d - 1)])
        u, _, _ = np.linalg.svd(rng.standard_normal((d, d)))
        form = SymmetricForm(u @ np.diag(eigs) @ u.T)
        sig = form.signature()
        assert sig[:3] == (d - 1, 1, 0)
        assert np.sign(np.linalg.det(form.matrix)) == (-1.0) ** sig.n_neg


def test_value_and_scale():
    f = SymmetricForm([[2, 2], [2, 0]])
    assert np.array([1, -2]) @ f.matrix @ np.array([1, -2]) == -6.0
    assert f.scale == 2.0


def test_matrix_is_read_only_and_symmetrized():
    f = SymmetricForm([[1.0, 2.0], [0.0, 3.0]])
    assert f.matrix[0, 1] == f.matrix[1, 0] == 1.0
    with pytest.raises(ValueError):
        f.matrix[0, 0] = 5.0
