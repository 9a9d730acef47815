import numpy as np
import pytest

from ci_toolkit import qmat
from ci_toolkit.errors import InvalidMatrix, NotPSD


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def test_psd_sqrt_rejects_non_square():
    with pytest.raises(InvalidMatrix):
        qmat.psd_sqrt(np.zeros((2, 3)))


def test_psd_sqrt_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidMatrix):
        qmat.psd_sqrt(m)


def test_psd_sqrt_accepts_tiny_asymmetry():
    m = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    root = qmat.psd_sqrt(m)
    assert np.max(np.abs(root @ root - 0.5 * (m + m.T))) <= 1e-12


def test_psd_sqrt_squares_back():
    for dim in (2, 4, 7):
        g = _random_hermitian(dim, 200 + dim)
        m = g @ g  # PSD by construction
        root = qmat.psd_sqrt(m)
        assert np.max(np.abs(root @ root - m)) <= 1e-8 * max(1.0, np.abs(m).max())
        assert np.max(np.abs(root - root.conj().T)) <= 1e-12


def test_psd_sqrt_clips_numerical_negatives():
    root = qmat.psd_sqrt(np.diag([1.0, -1e-13]))
    assert np.allclose(root, np.diag([1.0, 0.0]))


def test_psd_sqrt_rejects_genuinely_negative():
    with pytest.raises(NotPSD):
        qmat.psd_sqrt(np.diag([1.0, -1e-3]))


def test_trace_norm_matches_singular_values():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        expected = np.linalg.svd(m, compute_uv=False).sum()
        assert np.isclose(qmat.trace_norm(m), expected, atol=1e-12)


def test_trace_norm_hermitian_is_abs_eigenvalue_sum():
    m = np.diag([0.5, -0.25, -0.25])
    assert np.isclose(qmat.trace_norm(m), 1.0, atol=1e-14)


def test_trace_norm_rejects_non_square():
    with pytest.raises(InvalidMatrix):
        qmat.trace_norm(np.zeros((3, 2)))
