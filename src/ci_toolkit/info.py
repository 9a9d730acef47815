"""Entropic quantities, distance measures, and the mutual-information
continuity bound. All entropies are in bits (log base 2).

Every entropy in the package comes from one private kernel here, with one
support rule: each weight or eigenvalue p adds -p log2 p, with 0 log 0 = 0;
negative eigenvalues (rounding) are clipped to 0; no small value is cut.
On unnormalized matrices it keeps h(t sigma) = t h(sigma) - t Tr(sigma)
log2 t, so splitting a measurement outcome changes no measured quantity.

The entropy of an `Mstate` reads the spectrum the state stored when it was
built, which is exactly what the kernel computes from its matrix (a
`PureState`'s is the exact pure spectrum, so its entropy is exactly 0), and
a group's entropy is that of its `states.marginal`, which builds each
reduction of a state once.  So no state's matrix is diagonalized twice, and
the entropy itself is kept with the state, so no spectrum is summed twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .errors import InvalidArgument, LayoutMismatch
from .states import (
    Mstate,
    _marginal,
    _read_diagonal,
    as_labels,
    check_groups,
)

_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps
_LN2 = math.log(2.0)
# a state's entropy in its memo, beside the reductions keyed by label sets
_ENTROPY = "entropy"


@dataclass(frozen=True)
class Partition:
    """A bipartite cut: two disjoint groups of party labels."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    def __init__(self, left, right):
        object.__setattr__(self, "left", as_labels(left))
        object.__setattr__(self, "right", as_labels(right))

    def validate(self, layout) -> None:
        check_groups(layout, self.left, self.right)

    def restrict(self, rho: Mstate) -> Mstate:
        """Validate the cut against ``rho`` and trace out the parties
        outside it.  The result keeps both sides, so their marginals need
        no further check."""
        self.validate(rho.layout)
        return _marginal(rho, self.left + self.right)


def _log2(p: np.ndarray) -> np.ndarray:
    """log2 elementwise, its argument floored at the smallest normal double:
    finite at 0, so a zero weight times its log is 0."""
    return np.log2(np.maximum(p, _TINY))


def _plogp(p: np.ndarray) -> np.ndarray:
    """p log2 p elementwise, with 0 log 0 = 0 and no branch."""
    out = _log2(p)
    out *= p
    return out


def _spectrum_h(w: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis, negative values clipped to 0; taken
    as 0.0 - sum, so a pure spectrum gives +0.0, not -0.0."""
    return 0.0 - _plogp(np.maximum(w, 0.0)).sum(axis=-1)


def _entropy_stack(mats: np.ndarray) -> np.ndarray:
    """Unnormalized entropy -sum w log2 w of the eigenvalues w of each matrix
    in a (..., n, n) stack; a matrix whose off-diagonal entries are at most
    DIAG times its largest diagonal one is read as diagonal.  That reading is
    decided per matrix, so each entropy is the one the matrix gets alone."""
    diag, flat = _read_diagonal(mats)
    # a count, as all() and any() cost microseconds on one matrix's 0-d flag
    n_flat = np.count_nonzero(flat)
    if n_flat == flat.size:
        return _spectrum_h(diag)
    if mats.shape[-1] == 2 and mats.ndim > 2:
        # closed-form Hermitian eigenvalues, mean +/- radius: much cheaper than
        # LAPACK over a stack of many blocks, dearer for one matrix
        a = np.real(mats[..., 0, 0])
        d = np.real(mats[..., 1, 1])
        b = mats[..., 0, 1]
        mean = 0.5 * (a + d)
        rad = np.sqrt(0.25 * (a - d) ** 2 + np.real(b) ** 2 + np.imag(b) ** 2)
        w = np.stack([mean - rad, mean + rad], axis=-1)
    else:
        w = np.linalg.eigvalsh(mats)
    if n_flat:
        w = np.where(flat[..., None], diag, w)
    return _spectrum_h(w)


def _entropy_log_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized entropy h and log2 on the support of each PSD matrix in a
    (..., n, n) stack, from one eigensolve; -dh = Tr[(log2 sigma + 1/ln 2)
    d sigma] for moves that keep the support.  Eigenvalues within rounding of
    zero (at most eps times the largest) are read at that floor: they pair
    with eigenvectors on which a feasible move has no weight, so they add
    nothing above rounding, and a genuinely small eigenvalue keeps its log.
    A 1x1 matrix is its own eigenvalue, with eigenvector 1: bit for bit what
    eigh returns, without a LAPACK call per block."""
    if mats.shape[-1] == 1:
        w, u = np.real(mats[..., 0]), np.ones_like(mats)
    else:
        w, u = np.linalg.eigh(mats)
    w = np.maximum(w, 0.0)
    logs = _log2(np.maximum(w, _EPS * w[..., -1:]))
    log = (u * logs[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))
    return _spectrum_h(w), log


def _qubit_spectrum(x: np.ndarray):
    """The 2x2 Gram matrix G = x x^dagger of each (..., 2, n) pair of rows
    x0, x1, and its spectrum, in one pass: returns g = (|x0|^2, |x1|^2),
    g01 = <x1, x0> (G's off-diagonal entry), the weight p = g00 + g11 =
    Tr G, and the eigenvalues

        hi = p/2 + hypot((g00 - g11)/2, |g01|),  lo = det G / hi,

    with det G = sum over i < j of |x0i x1j - x0j x1i|^2 (Cauchy-Binet;
    |det x|^2 at n = 2).

    Neither eigenvalue loses accuracy to cancellation: hi adds two
    nonnegative terms, and lo is a quotient of a sum of nonnegative terms,
    where the textbook p/2 - radius, or the Gram determinant g00 g11 -
    |g01|^2, is a difference of nearly equal numbers that loses every digit
    of lo once lo << hi.  Each 2x2 minor of x is as accurate as its two
    products (exact when they are).  Each term of lo pairs a minor t with
    its ratio to hi, t (t / hi), and t <= |x0| |x1| <= hi, so no square
    under- or overflows, and neither does hypot."""
    g = np.vecdot(x, x).real
    g01 = np.vecdot(x[..., 1, :], x[..., 0, :])
    g00, g11 = g[..., 0], g[..., 1]
    p = g00 + g11
    hi = 0.5 * p + np.hypot(0.5 * (g00 - g11), np.abs(g01))
    # hi = 0 only for x = 0, where det G = 0 too
    scale = np.where(hi > 0.0, hi, 1.0)
    if x.shape[-1] == 2:
        t = np.abs(x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0])
        return g, g01, p, hi, t * (t / scale)
    # every minor x0i x1j - x0j x1i twice, once with each sign
    m = x[..., 0, :, None] * x[..., 1, None, :]
    t = np.abs(m - np.swapaxes(m, -1, -2))
    return g, g01, p, hi, 0.5 * np.sum(t * (t / scale[..., None, None]), axis=(-2, -1))


def _log2_coefficients(hi, lo) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (c0, c1) with log2 G = c0 1 + c1 G on the support of
    each 2x2 PSD matrix G of a stack, given its eigenvalues hi and lo from
    `_qubit_spectrum`: `_entropy_log_stack`'s log, with its eigenvalue
    rule, and no eigensolve.

    With f the floored log2, c1 is the divided difference (f(hi) - f(lo)) /
    (hi - lo) and c0 = f(lo) - c1 lo.  An eigenvalue below the floor, eps hi
    or the smallest normal double, is read at it.  The difference of logs is
    log1p(x) / ln 2 with x = (hi - lo) / lo, or (hi - floor) / floor where lo
    is floored, so equal or nearly equal eigenvalues lose no accuracy: c1 is
    then log1p(x) / x / (lo ln 2), and 1 / (lo ln 2) at x = 0."""
    floor = np.maximum(_EPS * hi, _TINY)
    held = lo >= floor
    low = np.where(held, lo, floor)
    spread = np.maximum(hi, floor) - low
    # log1p(x) / x, read as 1 at x = 0 (log1p(tiny) is tiny); rounding can
    # leave a degenerate pair's lo an ulp above hi, read as x = 0 too
    x = np.maximum(spread / low, _TINY)
    c1 = np.log1p(x) / x / (_LN2 * low)
    # where lo is floored, the log spread spans floor..hi over the gap lo..hi
    c1 = np.where(held, c1, c1 * spread / np.maximum(hi - lo, _TINY))
    return _log2(low) - c1 * lo, c1


def _pure_entropy_stack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight p = ||X||^2 and unnormalized entropy h of X X^dagger for each
    (..., m, n) amplitude matrix.  When the smaller side is a qubit the
    spectrum is `_qubit_spectrum`'s, taken on the side with two rows; other
    shapes diagonalize the Gram matrix on the smaller side."""
    m, n = x.shape[-2:]
    if min(m, n) == 2:
        _, _, p, hi, lo = _qubit_spectrum(x if m == 2 else np.swapaxes(x, -1, -2))
        return p, -(_plogp(hi) + _plogp(lo))
    flat = x.reshape(x.shape[:-2] + (m * n,))
    p = np.sum(flat.real**2 + flat.imag**2, axis=-1)
    xh = np.conj(np.swapaxes(x, -1, -2))
    gram = np.matmul(x, xh) if m <= n else np.matmul(xh, x)
    return p, _entropy_stack(gram)


def spectrum_entropy(w) -> float:
    """Shannon entropy (bits) of a spectrum, by the support rule above."""
    return float(max(_spectrum_h(np.asarray(w, dtype=np.float64)), 0.0))


def matrix_entropy(m: np.ndarray) -> float:
    """Von Neumann entropy of a density matrix given as a raw array."""
    return float(max(_entropy_stack(np.asarray(m)), 0.0))


def vn_entropy(state: Mstate) -> float:
    """Von Neumann entropy in bits, read from the state's stored spectrum:
    bit for bit `matrix_entropy(matrix)`, and exactly 0.0 for a
    `PureState`.  Computed once per state and kept in its memo."""
    memo = state._memo
    s = memo.get(_ENTROPY)
    if s is None:
        s = memo[_ENTROPY] = float(max(_spectrum_h(state.spectrum), 0.0))
    return s


def mutual_info(state: Mstate, cut: Partition) -> float:
    """I(left : right) = S(left) + S(right) - S(left,right).

    Parties outside the cut are traced out first.
    """
    rho = cut.restrict(state)
    return _mutual_info(rho, cut.left, cut.right)


def _mutual_info(rho: Mstate, left: tuple[str, ...], right: tuple[str, ...]) -> float:
    """`mutual_info` of two groups already checked against ``rho``'s layout
    that together cover it: the one place the three entropies are summed."""
    s_l = vn_entropy(_marginal(rho, left))
    s_r = vn_entropy(_marginal(rho, right))
    s_lr = vn_entropy(rho)
    return s_l + s_r - s_lr


def conditional_entropy(state: Mstate, target, given=()) -> float:
    """S(target | given) = S(target, given) - S(given)."""
    if given:
        t, g = check_groups(state.layout, target, given)
    else:
        (t,) = check_groups(state.layout, target)
        g = ()
    return _conditional_entropy(state, t, g)


def _conditional_entropy(
    state: Mstate, target: tuple[str, ...], given: tuple[str, ...]
) -> float:
    """`conditional_entropy` of groups already checked against ``state``'s
    layout (``given`` may be empty)."""
    s_tg = vn_entropy(_marginal(state, target + given))
    s_g = vn_entropy(_marginal(state, given)) if given else 0.0
    return s_tg - s_g


def conditional_mutual_info(state: Mstate, x, y, z=()) -> float:
    """I(x : y | z) = S(x,z) + S(y,z) - S(z) - S(x,y,z); z may be empty."""
    if z:
        xs, ys, zs = check_groups(state.layout, x, y, z)
    else:
        xs, ys = check_groups(state.layout, x, y)
        zs = ()
    s_xz = vn_entropy(_marginal(state, xs + zs))
    s_yz = vn_entropy(_marginal(state, ys + zs))
    s_z = vn_entropy(_marginal(state, zs)) if zs else 0.0
    s_xyz = vn_entropy(_marginal(state, xs + ys + zs))
    return s_xz + s_yz - s_z - s_xyz


def uhlmann_fidelity(a: Mstate, b: Mstate) -> float:
    """Fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1]."""
    if a.layout.parties != b.layout.parties:
        raise LayoutMismatch(
            f"fidelity: layouts differ ({a.layout.describe()} vs {b.layout.describe()})"
        )
    root = qmat.psd_sqrt(a.matrix)
    inner = root @ b.matrix @ root
    w = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(min(np.sqrt(w).sum(), 1.0))


def trace_distance(a: Mstate, b: Mstate) -> float:
    """Half the trace norm of the difference; in [0, 1]."""
    if a.layout.parties != b.layout.parties:
        raise LayoutMismatch(
            f"trace_distance: layouts differ ({a.layout.describe()} vs {b.layout.describe()})"
        )
    return float(min(0.5 * qmat.trace_norm(a.matrix - b.matrix), 1.0))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x) on [0, 1]."""
    if not (0.0 <= x <= 1.0):
        raise InvalidArgument(f"binary_entropy: argument {x} outside [0, 1]")
    out = 0.0
    if x > 0.0:
        out -= x * math.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log2(1.0 - x)
    return out


def mi_continuity_bound(t: float, total_dim: int) -> float:
    """Bound on |I(rho) - I(sigma)| given trace distance t and total dimension.

    Value is 3 t log2(d) + 3 h(t). The derivation behind it assumes
    t <= 1/2, which this function does not check; callers should flag
    larger t. No CLI path calls it, and the `continuity` suite only draws
    pairs at trace distance below 1/2.
    """
    if not (0.0 <= t <= 1.0):
        raise InvalidArgument(f"mi_continuity_bound: trace distance {t} outside [0, 1]")
    if total_dim < 2:
        raise InvalidArgument(f"mi_continuity_bound: total_dim must be >= 2, got {total_dim}")
    return 3.0 * t * math.log2(total_dim) + 3.0 * binary_entropy(t)
