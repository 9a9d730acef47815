"""Dense complex-matrix kernel: Hermitian eigensolves, PSD square roots,
trace norms and Kronecker products.

Of these four functions the package itself calls only `psd_sqrt` and
`trace_norm` (from `info`, for fidelity and trace distance); the other
modules run their own NumPy eigensolves. `herm_eigen` and `kron` are public
helpers for callers. Here eigenvector residuals and PSD clipping live at
1e-10, eigenvalue zero-clipping at 1e-12.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrix, NotPSD

HERM_TOL = 1e-10
EIG_CLIP = 1e-12


class EigenResult(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues: real, ascending. eigenvectors: orthonormal columns,
    eigenvectors[:, k] belongs to eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(m, who: str) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"{who}: expected a square matrix, got shape {a.shape}")
    return a


def _as_hermitian(m, who: str) -> np.ndarray:
    a = _as_square(m, who)
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > HERM_TOL:
        raise InvalidMatrix(f"{who}: matrix is not Hermitian (max deviation {dev:.3e})")
    return 0.5 * (a + a.conj().T)


def herm_eigen(m) -> EigenResult:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending real eigenvalues and orthonormal eigenvectors with
    reconstruction residual below 1e-10 for well-scaled input. Deterministic
    for identical input. Raises InvalidMatrix for non-square or
    non-Hermitian input.
    """
    a = _as_hermitian(m, "herm_eigen")
    w, v = np.linalg.eigh(a)
    return EigenResult(w, v)


def psd_sqrt(m) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues within 1e-12 of zero are clipped to exactly zero before the
    square root; eigenvalues below -1e-10 raise NotPSD.
    """
    a = _as_hermitian(m, "psd_sqrt")
    w, v = np.linalg.eigh(a)
    if w.size and w[0] < -HERM_TOL:
        raise NotPSD(f"psd_sqrt: eigenvalue {w[0]:.3e} below PSD tolerance")
    w = np.where(w < EIG_CLIP, 0.0, w)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def trace_norm(m) -> float:
    """Trace norm (sum of singular values) of a square complex matrix."""
    a = _as_square(m, "trace_norm")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).sum())


def kron(a, b) -> np.ndarray:
    """Kronecker product; the left factor is the most significant index."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))
