"""Gradient search over isometries, and rank-1 POVMs.

`maximize` is the one search; it minimizes with `sense="min"`, and it
returns the best value and its isometry, with no report while it runs. Its
iterate is a K x c isometry V (V^dagger V = 1): the first c columns of a
K x K unitary, and for a rank-one POVM on a c-dimensional party, the K
outcome vectors as its rows. The batch objective maps a stack of
isometries to their values and their Euclidean gradients G, the
derivatives in the real inner product <A, B> = Re Tr[A^dagger B].

Each restart is a quasi-Newton ascent on the isometries (Absil, Mahony &
Sepulchre, *Optimization Algorithms on Matrix Manifolds*, 2008):

- the Riemannian gradient is xi = G - V herm(V^dagger G), the tangent part
  of G;
- the direction is D = P_V(H xi), where H is a limited-memory BFGS estimate
  of the inverse Hessian of the negated objective in real ambient
  coordinates, P_V the projection onto the tangent space, and D = xi
  whenever <xi, D> <= 0 (the memory is then cleared);
- the step is V' = polar(V + alpha D), with alpha = min(1, 1 / ||D||_F),
  so that no trial lands farther than unit length from V, except a
  restart's first step, which has length 0.1; until f(V') >= f + 1e-4
  alpha <xi, D>, at most 30 times, alpha backtracks to the maximizer of
  the quadratic through f, the slope <xi, D> and f(V'), clipped to
  [0.1 alpha, 0.5 alpha] (Nocedal & Wright, *Numerical Optimization*,
  2006, section 3.5);
- the memory gains the pair s = P_V'(V' - V), y = -(xi' - P_V' xi) when
  <y, s> > 0.

With H = 1 this is the Rehacek-Englert-Kaszlikowski iteration for
accessible information (PRA 71, 054303, 2005) with a backtracking step. A
restart ends when ||xi|| < tol, when its backtracking fails, or after
max_iters steps.

`maximize` owns the restart schedule: restart r starts from warm start r,
or else from a Haar isometry drawn from its seed when it opens. `restarts`
is a ceiling: the first eight starts run first, and the rest open only if
fewer than four of those end within `tol` of the best. Each block's Haar
starts are drawn as one stack (`_haar_stack`: one generator per seed, one
stacked QR), bit for bit the ones `haar_unitary` draws seed by seed.
`_ascend` returns each restart's isometry, value and steps as arrays in
start order; the winner is their argmax, the lowest restart index among
equal values.

The restarts that run advance in lockstep, as the rows of one stacked state:
arrays over the live restarts of V, the value, xi, D, alpha, the slope
<xi, D>, the backtracks and the steps, and the L-BFGS memory (`_Memory`).
The memory holds each row's eight pairs as one real (B, 16, 2Kc) array,
the s rows then the y rows, newest last, with the unused slots zero, so
that a push is one shift-append; beside it travel the small matrices of
the compact form (Byrd, Nocedal & Schnabel, Math. Prog. 63, 129, 1994):
R^-1, the inverse of R, the upper triangle of S Y^T; Y Y^T; diag(S Y^T);
and gamma. A push borders them from one product of the new memory with
the new y, and H xi is then a few batched products with them: no Gram
product and no inverse per round. A round makes one objective call over
the trial points, one tangent projection of (G, V' - V, xi) at them, one
H xi over the stack and its tangent projection, and one polar retraction
of W = V + alpha D: at c = 2 a closed form in the entries of W^dagger W,
otherwise a single SVD. Acceptance and backtracking are a row mask;
restarts that end are written out and dropped from the stack, so a round
costs a fixed number of NumPy calls however many restarts are live.

Rows are independent: every stacked product, QR, SVD, elementwise closed
form and reduction computes each row exactly as it does for a stack of one,
so each restart's arithmetic is that of its run alone and it ends exactly
where it ends when run alone. The search is deterministic for a
fixed seed and config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, NotPSD, ObjectiveError
from .tolerances import SLACK, VALIDATE

# L-BFGS pairs kept per restart; a restart's first step length; the
# sufficient-increase factor of the backtracking, and its most backtracks.
_MEMORY = 8
_FIRST_STEP = 0.1
# The longest later trial step, in Frobenius norm.  A tangent step of
# length t turns V by an angle of up to arctan(t), so past unit length
# polar(V + alpha D) tends to polar(D) whatever alpha is: a longer trial
# tells the search nothing more about D, and each halving back from it
# costs every live restart a round.  1 is the scale where that saturation
# sets in, not a tuned value.
_MAX_STEP = 1.0
_ARMIJO = 1e-4
_BACKTRACKS = 30

# The scout: how many starts run first, and how many of them must end
# within tol of the best for the remaining starts never to open.
_SCOUT = 8
_AGREE = 4


@dataclass(frozen=True)
class OptimizerConfig:
    """Search configuration; defaults are the package-wide defaults."""

    restarts: int = 32
    max_iters: int = 2000
    tol: float = 1e-6
    seed: int = 7

    def __post_init__(self):
        if self.restarts < 1:
            raise InvalidArgument("OptimizerConfig: restarts must be >= 1")
        if self.max_iters < 1:
            raise InvalidArgument("OptimizerConfig: max_iters must be >= 1")
        if not (self.tol > 0.0):
            raise InvalidArgument("OptimizerConfig: tol must be positive")
        if self.seed < 0:
            raise InvalidArgument("OptimizerConfig: seed must be >= 0")


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with phase-fixed R."""
    if dim < 1:
        raise InvalidArgument(f"haar_unitary: dim must be >= 1, got {dim}")
    return _haar_stack(dim, [seed])[0]


def _haar_stack(dim: int, seeds) -> np.ndarray:
    """The Haar-random unitaries of ``seeds`` as one (len(seeds), dim, dim)
    stack: one generator per seed draws its complex Gaussian, then one
    stacked QR and one phase fix.  Each unitary is bit for bit the one its
    seed gives alone."""
    g = np.array([np.random.default_rng(int(s)).standard_normal((2, dim, dim)) for s in seeds])
    z = (g[:, 0] + 1j * g[:, 1]) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


@dataclass(frozen=True)
class Povm:
    """Measurement with PSD elements summing to the identity on one party."""

    party_dim: int
    elements: tuple
    vectors: np.ndarray | None = None

    def __post_init__(self):
        d = int(self.party_dim)
        if d < 1:
            raise InvalidArgument("Povm: party_dim must be >= 1")
        elems = tuple(np.asarray(e, dtype=np.complex128) for e in self.elements)
        if not elems:
            raise InvalidArgument("Povm: needs at least one element")
        for i, e in enumerate(elems):
            if e.shape != (d, d):
                raise InvalidArgument(f"Povm: element {i} has shape {e.shape}, expected {(d, d)}")
        # the checks run on the (K, d, d) stack, each written so that a NaN
        # or an infinity fails it (inf - inf is a NaN); a failing element is
        # named by its index
        stack = np.array(elems)
        with np.errstate(invalid="ignore"):
            skew = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        bad = ~(skew <= SLACK)
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidArgument(f"Povm: element {i} is not a finite Hermitian matrix")
        bad = ~(np.linalg.eigvalsh(stack)[:, 0] >= -VALIDATE)
        if bad.any():
            raise NotPSD(f"Povm: element {int(np.argmax(bad))} has a negative eigenvalue")
        if not np.max(np.abs(stack.sum(axis=0) - np.eye(d))) <= SLACK:
            raise InvalidArgument(
                f"Povm: elements do not sum to the identity within {SLACK:g}"
            )
        object.__setattr__(self, "party_dim", d)
        object.__setattr__(self, "elements", elems)
        if self.vectors is not None:
            vec = np.asarray(self.vectors, dtype=np.complex128)
            if vec.shape != (len(elems), d):
                raise InvalidArgument(
                    f"Povm: vectors have shape {vec.shape}, expected {(len(elems), d)}"
                )
            outers = vec[:, :, None] * vec[:, None, :].conj()
            bad = ~(np.abs(outers - stack).max(axis=(1, 2)) <= SLACK)
            if bad.any():
                i = int(np.argmax(bad))
                raise InvalidArgument(f"Povm: vector {i} does not give element {i}")
            object.__setattr__(self, "vectors", vec)

    def __len__(self) -> int:
        return len(self.elements)


def rank1_povm(u, party_dim: int) -> Povm:
    """Rank-1 POVM from a K x c isometry with c >= `party_dim`, such as a
    K x K unitary: element i projects onto row i of the first `party_dim`
    columns. K outcomes on a dim-`party_dim` party."""
    m = np.asarray(u, dtype=np.complex128)
    if m.ndim != 2 or m.shape[1] > m.shape[0]:
        raise InvalidArgument(f"rank1_povm: expected a K x c isometry, got shape {m.shape}")
    if not (1 <= party_dim <= m.shape[1]):
        raise InvalidArgument(
            f"rank1_povm: party_dim {party_dim} must be in [1, {m.shape[1]}]"
        )
    v = m[:, :party_dim]
    return Povm(party_dim, tuple(v[:, :, None] * v[:, None, :].conj()), vectors=v)


# ---------------------------------------------------------------------------
# gradient search


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i, b_i> for each row i of two (B, K, c) stacks, B >= 0: bit for
    bit np.vdot(a_i, b_i).real."""
    n = a.shape[1] * a.shape[2]
    return np.vecdot(a.reshape(len(a), n), b.reshape(len(b), n)).real


def _flat(z: np.ndarray) -> np.ndarray:
    """A (B, K, c) complex stack as (B, 2Kc) real coordinates, a view."""
    return z.reshape(len(z), -1).view(np.float64)


def _tangent(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The tangent part z - v herm(v^dagger z) of z at the isometry v; on
    stacks, matrix by matrix (the leading axes broadcast)."""
    m = v.conj().swapaxes(-1, -2) @ z
    return z - v @ (0.5 * (m + m.conj().swapaxes(-1, -2)))


def _polar(w: np.ndarray) -> np.ndarray:
    """The isometry nearest a full-rank K x c matrix: w (w^dagger w)^(-1/2);
    on a (B, K, c) stack, matrix by matrix.

    At c = 2 it is the closed form w adj(A + s 1) / (s t), A = w^dagger w,
    s = sqrt(det A), t = sqrt(tr A + 2 s): (A + s 1) / t is the square root
    of a 2 x 2 PSD A, and det(A + s 1) = s t^2.  At a tangent step
    w = V + alpha D, A = 1 + alpha^2 D^dagger D >= 1, so det A loses
    nothing to cancellation.  It is elementwise in each row.  Every other
    c takes the SVD w = U S W^dagger, whose U W^dagger it is."""
    if w.shape[-1] == 2:
        w0, w1 = w[..., 0], w[..., 1]
        a = np.vecdot(w.swapaxes(-1, -2), w.swapaxes(-1, -2)).real
        a01 = np.vecdot(w0, w1)
        s = np.sqrt(a[..., 0] * a[..., 1] - (a01.real**2 + a01.imag**2))
        inv = 1.0 / (s * np.sqrt(a[..., 0] + a[..., 1] + 2.0 * s))
        # adj(A + s 1) / (s t) = [[a11 + s, -a01], [-conj(a01), a00 + s]] / (s t)
        off = (-inv * a01)[..., None]
        v = w * ((a[..., ::-1] + s[..., None]) * inv[..., None])[..., None, :]
        v[..., 0] += w1 * off.conj()
        v[..., 1] += w0 * off
        return v
    u, _, vh = np.linalg.svd(w, full_matrices=False)
    return u @ vh


class _Memory(NamedTuple):
    """The L-BFGS memories of a stack of B restarts, with the small matrices
    of the compact form kept beside them (Byrd, Nocedal & Schnabel, Math.
    Prog. 63, 129, 1994, section 4).  ``w`` holds each row's S rows, then
    its Y rows, (B, 2 * _MEMORY, n), newest last; ``rinv`` is R^-1, the
    inverse of R, the upper triangle of S Y^T; ``yy`` is Y Y^T; ``sy`` is
    diag(S Y^T), and ``gamma`` = <s, y> / <y, y> of the newest pair.  The
    unused slots of a memory that is not full are zero in ``w``, ``yy`` and
    ``sy``, and R^-1 holds the identity there; an empty memory has gamma 0.
    A push borders these from one product, so H q needs no Gram product and
    no inverse."""

    w: np.ndarray
    rinv: np.ndarray
    yy: np.ndarray
    sy: np.ndarray
    gamma: np.ndarray

    @classmethod
    def empty(cls, rows: int, n: int) -> _Memory:
        """``rows`` memories holding no pair, for pair rows of length n."""
        m = _MEMORY
        rinv = np.broadcast_to(np.eye(m), (rows, m, m)).copy()
        w, yy = np.zeros((rows, 2 * m, n)), np.zeros((rows, m, m))
        return cls(w, rinv, yy, np.zeros((rows, m)), np.zeros(rows))

    def rows(self, keep) -> _Memory:
        """The memories of the rows ``keep`` (a mask or an index array)."""
        return _Memory(*(a[keep] for a in self))

    def where(self, mask: np.ndarray, other: _Memory) -> _Memory:
        """This memory on the rows of ``mask``, ``other``'s elsewhere."""
        shaped = (mask.reshape((-1,) + (1,) * (a.ndim - 1)) for a in self)
        return _Memory(*(np.where(c, a, b) for c, a, b in zip(shaped, self, other)))


def _hq(mem: _Memory, q: np.ndarray) -> np.ndarray:
    """H q for each row of a (B, n) stack of real vectors, by the compact
    form of the L-BFGS inverse Hessian (Byrd, Nocedal & Schnabel, Math.
    Prog. 63, 129, 1994):

        H q = gamma q + S^T p - gamma Y^T r,  r = R^-1 S q,
        p = R^-T (diag(R) r + gamma (Y Y^T r - Y q)),

    where the rows of S and Y are the row's pairs and the small matrices
    R^-1, Y Y^T, diag(R) = diag(S Y^T) and gamma are the ones the memory
    keeps (`_Memory`): two products with the memory's rows and four
    (_MEMORY x _MEMORY) ones, and no inverse.  Unused slots add nothing, and
    a row with no pairs gets 0."""
    m = _MEMORY
    gamma = mem.gamma[:, None, None]
    wq = mem.w @ q[:, :, None]
    r = mem.rinv @ wq[:, :m]
    p = mem.rinv.swapaxes(1, 2) @ (mem.sy[:, :, None] * r + gamma * (mem.yy @ r - wq[:, m:]))
    coef = np.concatenate([p, -gamma * r], axis=1)
    return mem.gamma[:, None] * q + (mem.w.swapaxes(1, 2) @ coef)[:, :, 0]


def _push(mem: _Memory, s: np.ndarray, y: np.ndarray, sy: np.ndarray) -> _Memory:
    """The memory with the (B, n) pair rows (s, y), with ``sy`` = <s, y>
    nonzero (the search pushes a pair only when it is positive), as its
    newest slot, and its oldest slot dropped: one shift-append of the rows,
    with no branch for a memory that is not yet full.

    The small matrices are bordered, not rebuilt (Byrd, Nocedal & Schnabel
    1994, section 4).  Dropping the oldest slot drops the first row and
    column of R, Y Y^T and R^-1 alike (R is upper triangular, so the rest of
    R^-1 is the inverse of the rest of R).  One product of the new memory's
    rows with y gives the new last columns: b = S y above <s, y> for R, and
    Y y for Y Y^T; R^-1 gains the column -R'^-1 b / <s, y> above 1 / <s, y>,
    where R'^-1 is the kept block."""
    m = _MEMORY
    w = np.concatenate([mem.w[:, 1:m], s[:, None], mem.w[:, m + 1 :], y[:, None]], axis=1)
    wy = w @ y[:, :, None]
    kept = mem.rinv[:, 1:, 1:]
    rinv = np.zeros_like(mem.rinv)
    rinv[:, :-1, :-1] = kept
    rinv[:, :-1, -1:] = kept @ wy[:, : m - 1] / -sy[:, None, None]
    rinv[:, -1, -1] = 1.0 / sy
    yy = np.empty_like(mem.yy)
    yy[:, :-1, :-1] = mem.yy[:, 1:, 1:]
    yy[:, -1] = yy[:, :, -1] = wy[:, m:, 0]
    diag = np.concatenate([mem.sy[:, 1:], sy[:, None]], axis=1)
    return _Memory(w, rinv, yy, diag, sy / wy[:, -1, 0])


def _directions(v, xi, norm2, mem: _Memory, first: bool):
    """Each row's direction D, slope <xi, D> and step length, with its
    memory: D = P_V(H xi), or D = xi where the memory is empty (gamma = 0)
    or <xi, D> <= 0, which clears it.  The step length alpha is
    min(1, _MAX_STEP / ||D||_F), so that alpha D is at most _MAX_STEP long,
    except on a restart's first step, where alpha D has length _FIRST_STEP.
    (Masks are read by counts: any() and all() cost microseconds on short
    masks.)"""
    holding = np.count_nonzero(mem.gamma)
    if holding:
        d = _tangent(v, _hq(mem, _flat(xi)).view(np.complex128).reshape(xi.shape))
        if holding < len(xi):
            d = np.where(mem.gamma[:, None, None] > 0.0, d, xi)
        slope = _dots(xi, d)
        flat = slope <= 0.0
        if np.count_nonzero(flat):
            d = np.where(flat[:, None, None], xi, d)
            slope = np.where(flat, norm2, slope)
            mem = _Memory.empty(len(xi), mem.w.shape[2]).where(flat, mem)
    else:
        d, slope = xi, norm2
    if first:
        alpha = _FIRST_STEP / np.sqrt(slope)
    else:
        alpha = np.minimum(1.0, _MAX_STEP / np.sqrt(_dots(d, d)))
    return d, slope, alpha, mem


def _evaluator(batch_objective, sign: float):
    """Values and Euclidean gradients of a (B, dim, cols) stack, from one
    objective call, checked, and negated when `sign` is -1 (minimizing)."""

    def evaluate(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = batch_objective(stack)
        if not (isinstance(out, tuple) and len(out) == 2):
            raise ObjectiveError("batch objective must return (values, gradients)")
        vals = np.asarray(out[0], dtype=np.float64).reshape(-1)
        grad = np.asarray(out[1], dtype=np.complex128)
        if vals.shape[0] != stack.shape[0] or grad.shape != stack.shape:
            raise ObjectiveError(
                f"batch objective returned {vals.shape[0]} values and gradients of "
                f"shape {grad.shape} for {stack.shape[0]} isometries of shape "
                f"{stack.shape[1:]}"
            )
        if not (np.isfinite(vals).all() and np.isfinite(grad).all()):
            raise ObjectiveError("batch objective returned a non-finite value or gradient")
        return (vals, grad) if sign > 0 else (-vals, -grad)

    return evaluate


def _backtrack(alpha, slope, value, f, took):
    """Each row's step length for its next trial: ``alpha`` where the trial
    was taken; where it was rejected, the maximizer of the quadratic through
    the row's ``value`` and ``slope`` at 0 and its trial value ``f`` at
    ``alpha``, clipped to [0.1 alpha, 0.5 alpha].  On a rejected row f <
    value + _ARMIJO alpha slope, so the denominator is positive; it is
    computed on those rows only."""
    back = ~took
    a, g = alpha[back], slope[back]
    step = alpha.copy()
    step[back] = np.clip(g * a * a / (2.0 * (value[back] + g * a - f[back])), 0.1 * a, 0.5 * a)
    return step


def _ascend(evaluate, starts: list[np.ndarray], cfg: OptimizerConfig):
    """Run the restarts from ``starts`` in lockstep until each has ended;
    returns, in start order, their final isometries (R, K, c), values (R,)
    and steps (R,).

    The live restarts are the rows of one stacked state.  A round makes one
    objective call over their trial points, one tangent projection of (G,
    V' - V, xi) at the trial points, and one `_directions` call for the
    next round; acceptance and backtracking are a row mask, merged by
    `np.where` only on rounds where rows differ.  A row that backtracks
    keeps its V, xi and memory, so its direction comes out the same again.
    Restarts that end are written out and dropped from the stack."""
    v = np.stack(starts)
    value, grads = evaluate(v)
    xi = _tangent(v, grads)
    norm2 = _dots(xi, xi)
    out_v, out_value = v.copy(), value.copy()
    out_steps = np.zeros(len(v), dtype=np.int64)

    idx = np.flatnonzero(np.sqrt(norm2) >= cfg.tol)
    v, value, xi, norm2 = v[idx], value[idx], xi[idx], norm2[idx]
    mem = _Memory.empty(len(idx), 2 * v.shape[1] * v.shape[2])
    steps = np.zeros(len(idx), dtype=np.int64)
    backtracks = np.zeros(len(idx), dtype=np.int64)
    d, slope, alpha, mem = _directions(v, xi, norm2, mem, first=True)
    while len(idx):
        # the trial points polar(V + alpha D), retracted as one stack
        trial = _polar(v + alpha[:, None, None] * d)
        f, grads = evaluate(trial)
        took = ~(f < value + _ARMIJO * alpha * slope)
        steady = np.count_nonzero(took) == len(idx)
        # the tangent parts of G, V' - V and xi at V'; y = -(xi' - P_V' xi)
        t = _tangent(
            trial[:, None], np.concatenate([grads[:, None], (trial - v)[:, None], xi[:, None]], 1)
        )
        new_xi, s = t[:, 0], t[:, 1]
        y = t[:, 2] - new_xi
        sy = _dots(y, s)
        push = took & (sy > 0.0)
        n_push = np.count_nonzero(push)
        if n_push == len(idx):
            mem = _push(mem, _flat(s), _flat(y), sy)
        elif n_push:
            pushed = _push(mem.rows(push), _flat(s[push]), _flat(y[push]), sy[push])
            for kept, new in zip(mem, pushed):
                kept[push] = new
        if steady:
            v, value, xi = trial, f, new_xi
            backtracks = np.zeros_like(backtracks)
        else:
            alpha = _backtrack(alpha, slope, value, f, took)
            row = took[:, None, None]
            v = np.where(row, trial, v)
            value = np.where(took, f, value)
            xi = np.where(row, new_xi, xi)
            backtracks = np.where(took, 0, backtracks + 1)
        steps = steps + took
        norm2 = _dots(xi, xi)
        live = (backtracks <= _BACKTRACKS) & (steps < cfg.max_iters) & (np.sqrt(norm2) >= cfg.tol)
        if np.count_nonzero(live) < len(idx):
            end = idx[~live]
            out_v[end], out_value[end], out_steps[end] = v[~live], value[~live], steps[~live]
            idx, v, value, xi, norm2, steps, backtracks, alpha, took = (
                a[live] for a in (idx, v, value, xi, norm2, steps, backtracks, alpha, took)
            )
            mem = mem.rows(live)
        # a row that backtracked gets its direction again from its unchanged
        # state; it keeps its backtracked step
        d, slope, step, mem = _directions(v, xi, norm2, mem, first=False)
        alpha = step if steady else np.where(took, step, alpha)
    return out_v, out_value, out_steps


def _warm_isometry(w, dim: int, cols: int) -> np.ndarray:
    """The first `cols` columns of a warm start, checked to be an isometry."""
    m = np.asarray(w, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != dim or m.shape[1] < cols:
        raise InvalidArgument(
            f"maximize: a warm start must be {dim} x c with c >= {cols}, got {m.shape}"
        )
    v = np.array(m[:, :cols])
    dev = np.max(np.abs(v.conj().T @ v - np.eye(cols)))
    if dev > SLACK:
        raise InvalidArgument(f"maximize: warm start is not an isometry ({dev:.3e})")
    return v


def maximize(
    batch_objective,
    dim: int,
    config: OptimizerConfig | None = None,
    *,
    columns: int | None = None,
    sense: str = "max",
    warm_starts=(),
) -> tuple[float, np.ndarray]:
    """Maximize a real objective over dim x columns isometries, or minimize
    it with ``sense="min"``; returns the best value and its isometry.

    batch_objective maps a (B, dim, columns) stack of isometries to B values
    and their (B, dim, columns) Euclidean gradients, as a pair. Minimizing is
    exactly maximizing the negated objective: the returned value is negated
    back. `warm_starts` are dim x c isometries with c >= columns, of which
    the first `columns` columns count (a dim x dim unitary is one), searched
    before the seeded Haar restarts (they occupy the lowest restart
    indices). `restarts` is a ceiling: the other starts open only when the
    first eight disagree (see the module docstring). Ties between restarts
    keep the lowest index; two runs with the same seed and config return
    identical results.
    """
    cfg = config if config is not None else OptimizerConfig()
    n = int(dim)
    if n < 1:
        raise InvalidArgument(f"maximize: dim must be >= 1, got {n}")
    cols = n if columns is None else int(columns)
    if not (1 <= cols <= n):
        raise InvalidArgument(f"maximize: columns must be in [1, {n}]")
    if batch_objective is None:
        raise InvalidArgument("maximize: needs a batch_objective")
    sign = {"max": 1.0, "min": -1.0}.get(sense)
    if sign is None:
        raise InvalidArgument(f"maximize: sense must be 'max' or 'min', got {sense!r}")
    evaluate = _evaluator(batch_objective, sign)
    warm = [_warm_isometry(w, n, cols) for w in warm_starts]
    seeds = np.random.SeedSequence(cfg.seed).generate_state(cfg.restarts)
    # the warm starts come first; the Haar starts of a block of restarts are
    # drawn as one stack, and only when the block opens
    opened = min(len(warm) + len(seeds), _SCOUT)
    cut = max(opened - len(warm), 0)
    haar = _haar_stack(n, seeds[:cut])[:, :, :cols] if cut else ()
    v, value, _ = _ascend(evaluate, [*warm[:opened], *haar], cfg)
    if cut < len(seeds) and np.count_nonzero(value.max() - value <= cfg.tol) < _AGREE:
        haar = _haar_stack(n, seeds[cut:])[:, :, :cols]
        rest = _ascend(evaluate, [*warm[opened:], *haar], cfg)
        v, value = np.concatenate([v, rest[0]]), np.concatenate([value, rest[1]])
    best = int(np.argmax(value))
    return sign * float(value[best]), v[best]
