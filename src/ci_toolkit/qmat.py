"""Dense complex-matrix kernel: PSD square roots and trace norms.

`info` calls both, for fidelity and trace distance, and
`measures.log_negativity` takes its trace norm here; the other modules run
their own NumPy eigensolves. Hermiticity and the PSD check use the
validation tolerance, eigenvalue zero-clipping the zero cut (see
`tolerances`).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMatrix, NotPSD
from .tolerances import VALIDATE, ZERO


def _as_square(m, who: str) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"{who}: expected a square matrix, got shape {a.shape}")
    return a


def _as_hermitian(m, who: str) -> np.ndarray:
    a = _as_square(m, who)
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > VALIDATE:
        raise InvalidMatrix(f"{who}: matrix is not Hermitian (max deviation {dev:.3e})")
    return 0.5 * (a + a.conj().T)


def psd_sqrt(m) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues within 1e-12 of zero are clipped to exactly zero before the
    square root; eigenvalues below -1e-10 raise NotPSD. Raises InvalidMatrix
    for non-square or non-Hermitian input.
    """
    a = _as_hermitian(m, "psd_sqrt")
    w, v = np.linalg.eigh(a)
    if w.size and w[0] < -VALIDATE:
        raise NotPSD(f"psd_sqrt: eigenvalue {w[0]:.3e} below PSD tolerance")
    w = np.where(w < ZERO, 0.0, w)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def trace_norm(m) -> float:
    """Trace norm (sum of singular values) of a square complex matrix."""
    a = _as_square(m, "trace_norm")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).sum())
