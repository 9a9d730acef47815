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
- the step is V' = polar(V + alpha D), by SVD, with alpha = 1, except a
  restart's first step, which has length 0.1; alpha is halved, at most 30
  times, until f(V') >= f + 1e-4 alpha <xi, D>;
- the memory gains the pair s = P_V'(V' - V), y = -(xi' - P_V' xi) when
  <y, s> > 0.

With H = 1 this is the Rehacek-Englert-Kaszlikowski iteration for
accessible information (PRA 71, 054303, 2005) with a backtracking step. A
restart ends when ||xi|| < tol, when its backtracking fails, or after
max_iters steps.

`maximize` owns the restart schedule: restart r starts from warm start r,
or else from a Haar isometry drawn from its seed when it opens. `restarts`
is a ceiling: the first eight starts run first, and the rest open only if
fewer than four of those end within `tol` of the best. `_ascend` returns
each restart's isometry, value and steps as arrays in start order; the
winner is their argmax, the lowest restart index among equal values.

The restarts that run advance in lockstep, as the rows of one stacked state:
arrays over the live restarts of V, the value, xi, D, alpha, the slope
<xi, D>, the halvings and the steps, and the L-BFGS memory as one real
(B, 16, 2Kc) array: the s rows of its eight pairs, then their y rows,
newest last, with the unused slots zero, so that a push is one
shift-append. A round makes one objective call over the trial points, one
tangent projection of (G, V' - V, xi) at them, one H xi over the stack and
its tangent projection, and one polar retraction (a single SVD). H xi takes
the compact form (Byrd, Nocedal & Schnabel, Math. Prog. 63, 129, 1994): a
few batched products with the Gram blocks S Y^T and Y Y^T, and one batched
inverse of R, the upper triangle of S Y^T. Acceptance and backtracking are
a row mask; restarts that end are written out and dropped from the stack,
so a round costs a fixed number of NumPy calls however many restarts are
live.

Rows are independent: every stacked product, inverse, SVD and reduction
computes each row exactly as it does for a stack of one, so each restart's
arithmetic is that of its run alone and it ends exactly where it ends when
run alone. The search is deterministic for a fixed seed and config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NotPSD, ObjectiveError
from .tolerances import SLACK, VALIDATE

# L-BFGS pairs kept per restart; a restart's first step length; the
# sufficient-increase factor of the backtracking, and its most halvings.
_MEMORY = 8
_FIRST_STEP = 0.1
_ARMIJO = 1e-4
_HALVINGS = 30

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
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


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
    """Re <a_i, b_i> for each row i of two (B, K, c) stacks: bit for bit
    np.vdot(a_i, b_i).real."""
    return np.vecdot(a.reshape(len(a), -1), b.reshape(len(b), -1)).real


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
    on a (B, K, c) stack, matrix by matrix."""
    u, _, vh = np.linalg.svd(w, full_matrices=False)
    return u @ vh


_UPPER = np.triu(np.ones((_MEMORY, _MEMORY)))
# _PAD[h]: the identity on the _MEMORY - h unused slots of a memory holding h
# pairs, which R holds there
_PAD = np.stack([np.diag((np.arange(_MEMORY) < _MEMORY - h) * 1.0) for h in range(_MEMORY + 1)])


def _hq(mem: np.ndarray, held: np.ndarray, q: np.ndarray) -> np.ndarray:
    """H q for each row of a (B, n) stack of real vectors, by the compact
    form of the L-BFGS inverse Hessian (Byrd, Nocedal & Schnabel, Math.
    Prog. 63, 129, 1994):

        H q = gamma q + S^T p - gamma Y^T r,  r = R^-1 S q,
        p = R^-T (diag(R) r + gamma (Y Y^T r - Y q)),

    where the rows of S and Y are the row's `held` newest pairs, R is the
    upper triangle of S Y^T and gamma = <s, y> / <y, y> of the newest pair.
    ``mem`` holds S then Y, (B, 2 * _MEMORY, n), newest last; unused slots
    are zero, and R holds the identity on them, so they add nothing.  A row
    with no pairs gets 0."""
    m = _MEMORY
    # the S Y^T and Y Y^T blocks of the Gram matrix W W^T
    gram = mem @ mem[:, m:].swapaxes(1, 2)
    sy, yy = gram[:, :m], gram[:, m:]
    pad = _PAD[held]
    rinv = np.linalg.inv(sy * _UPPER + pad)
    # the newest slot is unused only in an empty row, which reads gamma = 0 / 1
    gamma = sy[:, -1:, -1:] / (yy[:, -1:, -1:] + pad[:, -1:, -1:])
    wq = mem @ q[:, :, None]
    r = rinv @ wq[:, :m]
    p = rinv.swapaxes(1, 2) @ (
        sy.diagonal(axis1=1, axis2=2)[:, :, None] * r + gamma * (yy @ r - wq[:, m:])
    )
    coef = np.concatenate([p, -gamma * r], axis=1)
    return gamma[:, 0] * q + (mem.swapaxes(1, 2) @ coef)[:, :, 0]


def _push(mem: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The memory with the (B, n) pair rows (s, y) as its newest slot, and
    its oldest slot dropped: one shift-append, with no branch for a memory
    that is not yet full."""
    m = _MEMORY
    return np.concatenate([mem[:, 1:m], s[:, None], mem[:, m + 1 :], y[:, None]], axis=1)


def _directions(v, xi, norm2, mem, held, first: bool):
    """Each row's direction D, slope <xi, D> and step length, with its
    memory: D = P_V(H xi), or D = xi where the memory is empty or
    <xi, D> <= 0, which clears it.  The step length is 1, except on a
    restart's first step, which has length _FIRST_STEP.  (Masks are read by
    counts: any() and all() cost microseconds on short masks.)"""
    holding = np.count_nonzero(held)
    if holding:
        d = _tangent(v, _hq(mem, held, _flat(xi)).view(np.complex128).reshape(xi.shape))
        if holding < len(held):
            d = np.where(held[:, None, None] > 0, d, xi)
        slope = _dots(xi, d)
        flat = slope <= 0.0
        if np.count_nonzero(flat):
            d = np.where(flat[:, None, None], xi, d)
            slope = np.where(flat, norm2, slope)
            mem = np.where(flat[:, None, None], 0.0, mem)
            held = np.where(flat, 0, held)
    else:
        d, slope = xi, norm2
    alpha = _FIRST_STEP / np.sqrt(slope) if first else np.ones_like(slope)
    return d, slope, alpha, mem, held


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
    m = _MEMORY
    v = np.stack(starts)
    value, grads = evaluate(v)
    xi = _tangent(v, grads)
    norm2 = _dots(xi, xi)
    out_v, out_value = v.copy(), value.copy()
    out_steps = np.zeros(len(v), dtype=np.int64)

    idx = np.flatnonzero(np.sqrt(norm2) >= cfg.tol)
    v, value, xi, norm2 = v[idx], value[idx], xi[idx], norm2[idx]
    mem = np.zeros((len(idx), 2 * m, 2 * v.shape[1] * v.shape[2]))
    held = np.zeros(len(idx), dtype=np.int64)
    steps = np.zeros(len(idx), dtype=np.int64)
    halvings = np.zeros(len(idx), dtype=np.int64)
    d, slope, alpha, mem, held = _directions(v, xi, norm2, mem, held, first=True)
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
        push = took & (_dots(y, s) > 0.0)
        n_push = np.count_nonzero(push)
        if n_push:
            pushed = _push(mem, _flat(s), _flat(y))
            mem = pushed if n_push == len(idx) else np.where(push[:, None, None], pushed, mem)
            held = np.minimum(held + push, m)
        if steady:
            v, value, xi = trial, f, new_xi
            halvings = np.zeros_like(halvings)
        else:
            row = took[:, None, None]
            v = np.where(row, trial, v)
            value = np.where(took, f, value)
            xi = np.where(row, new_xi, xi)
            halvings = np.where(took, 0, halvings + 1)
            alpha = 0.5 * alpha
        steps = steps + took
        norm2 = _dots(xi, xi)
        live = (halvings <= _HALVINGS) & (steps < cfg.max_iters) & (np.sqrt(norm2) >= cfg.tol)
        if np.count_nonzero(live) < len(idx):
            end = idx[~live]
            out_v[end], out_value[end], out_steps[end] = v[~live], value[~live], steps[~live]
            idx, v, value, xi, norm2, mem, held, steps, halvings, alpha, took = (
                a[live]
                for a in (idx, v, value, xi, norm2, mem, held, steps, halvings, alpha, took)
            )
        # a row that backtracked gets its direction again from its unchanged
        # state; it keeps its halved step
        d, slope, step, mem, held = _directions(v, xi, norm2, mem, held, first=False)
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
    total = len(warm) + len(seeds)

    def start(r: int) -> np.ndarray:
        # a Haar start is drawn only when its restart opens
        if r < len(warm):
            return warm[r]
        return haar_unitary(n, int(seeds[r - len(warm)]))[:, :cols]

    opened = min(total, _SCOUT)
    v, value, _ = _ascend(evaluate, [start(r) for r in range(opened)], cfg)
    if opened < total and np.count_nonzero(value.max() - value <= cfg.tol) < _AGREE:
        rest = _ascend(evaluate, [start(r) for r in range(opened, total)], cfg)
        v, value = np.concatenate([v, rest[0]]), np.concatenate([value, rest[1]])
    best = int(np.argmax(value))
    return sign * float(value[best]), v[best]
