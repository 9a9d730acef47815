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

Restarts are seeded Haar isometries, after any warm starts, reduced
deterministically (strict improvement keeps the lowest restart index).
`restarts` is a ceiling: the first eight starts run first, and the rest open
only if fewer than four of those end within `tol` of the best; a Haar start
is drawn only when it opens. The restarts that run advance in lockstep. A
round makes one objective call over the live restarts' trial points; then
the restarts that accept theirs share one tangent projection of
(G, V' - V, xi), those of them that hold pairs one projection of H xi, and
every restart still live one polar retraction (a single SVD of the stack)
to its next trial point. The sufficient-increase test, the pairs, the
two-loop recursion and the stopping test stay per restart. A stacked matrix
product or SVD computes each matrix exactly as the single-matrix call does,
so each row's arithmetic is the same as the restart's run alone, and every
restart ends exactly where it ends when run alone. The search is
deterministic for a fixed seed and config.
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


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


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


class _Ascent:
    """One restart: its isometry, value and Riemannian gradient, its L-BFGS
    pairs, and the step its backtracking tries.  `_ascend` does the matrix
    work on the stack of restarts; the scalar tests and the two-loop
    recursion are the restart's own."""

    def __init__(self, v: np.ndarray, value: float, xi: np.ndarray, cfg: OptimizerConfig):
        self.cfg = cfg
        self.v, self.value, self.xi = v, value, xi
        self.pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
        self.steps = 0
        self.live = math.sqrt(_inner(xi, xi)) >= cfg.tol

    def inverse_hessian(self, q: np.ndarray) -> np.ndarray:
        """H q by the L-BFGS two-loop recursion, H_0 scaled by the newest
        pair's <s, y> / <y, y>."""
        q = q.copy()
        coef = []
        for s, y, ys in reversed(self.pairs):
            a = _inner(s, q) / ys
            q -= a * y
            coef.append(a)
        s, y, ys = self.pairs[-1]
        q *= ys / _inner(y, y)
        for (s, y, ys), a in zip(self.pairs, reversed(coef)):
            q += (a - _inner(y, q) / ys) * s
        return q

    def aim(self, d: np.ndarray, first: bool) -> None:
        """Step along d, or along xi (clearing the memory) when d is not an
        ascent direction."""
        slope = _inner(self.xi, d)
        if slope <= 0.0:
            self.pairs.clear()
            d, slope = self.xi, _inner(self.xi, self.xi)
        self.d, self.slope = d, slope
        self.alpha = _FIRST_STEP / math.sqrt(slope) if first else 1.0
        self.halvings = 0

    def backtracks(self, value: float) -> bool:
        """Whether the trial point's value fails the sufficient-increase
        test; if so the step is halved, or the restart ends."""
        if not value < self.value + _ARMIJO * self.alpha * self.slope:
            return False
        self.halvings += 1
        self.live = self.halvings <= _HALVINGS
        self.alpha *= 0.5
        return True

    def move(self, v, value: float, xi, s, y) -> None:
        """Accept the trial point v, with its gradient xi and the pair (s, y)."""
        ys = _inner(y, s)
        if ys > 0.0:
            self.pairs.append((s, y, ys))
            del self.pairs[:-_MEMORY]
        self.v, self.value, self.xi = v, value, xi
        self.steps += 1
        self.live = (
            self.steps < self.cfg.max_iters and math.sqrt(_inner(xi, xi)) >= self.cfg.tol
        )


def _aim(runs: list[_Ascent], first: bool) -> None:
    """Aim each restart in ``runs``: along P_V(H xi), one projection over
    the stack of those that hold pairs, or else along xi."""
    curved = [r for r in runs if r.pairs]
    plain = [r for r in runs if not r.pairs]
    if curved:
        v = np.stack([r.v for r in curved])
        hxi = np.stack([r.inverse_hessian(r.xi) for r in curved])
        for r, d in zip(curved, _tangent(v, hxi)):
            r.aim(d.copy(), first)
    for r in plain:
        r.aim(r.xi, first)


def _evaluator(batch_objective, sign: float):
    """Values and Euclidean gradients of a (B, dim, cols) stack, from one
    objective call, checked and signed."""

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
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(grad))):
            raise ObjectiveError("batch objective returned a non-finite value or gradient")
        return sign * vals, sign * grad

    return evaluate


def _ascend(evaluate, starts: list[np.ndarray], cfg: OptimizerConfig) -> list[_Ascent]:
    """Run the restarts from ``starts`` in lockstep until each has ended.  A
    round makes one objective call over the live restarts' trial points; the
    restarts that accept theirs share one tangent projection of (G, V' - V,
    xi), and every restart still live shares one polar retraction."""
    stack = np.stack(starts)
    values, grads = evaluate(stack)
    xis = _tangent(stack, grads)
    runs = [_Ascent(v, float(f), xi.copy(), cfg) for v, f, xi in zip(starts, values, xis)]
    live = [r for r in runs if r.live]
    _aim(live, first=True)
    while live:
        # the trial points polar(V + alpha D), retracted as one stack
        trial = _polar(np.stack([r.v + r.alpha * r.d for r in live]))
        values, grads = evaluate(trial)
        took = [i for i, r in enumerate(live) if not r.backtracks(float(values[i]))]
        if took:
            moved = [live[i] for i in took]
            v = trial[took]
            old_v = np.stack([r.v for r in moved])
            old_xi = np.stack([r.xi for r in moved])
            # the tangent parts of G, V' - V and xi at V'
            t = _tangent(v[:, None], np.stack([grads[took], v - old_v, old_xi], axis=1))
            for r, i, vi, (xi, s, y) in zip(moved, took, v, t):
                # y = -(xi' - P_V' xi); a restart copies out its rows, so it
                # keeps no round's stack alive
                r.move(vi.copy(), float(values[i]), xi.copy(), s.copy(), y - xi)
            _aim([r for r in moved if r.live], first=False)
        live = [r for r in live if r.live]
    return runs


def _restart_seeds(cfg: OptimizerConfig) -> np.ndarray:
    return np.random.SeedSequence(cfg.seed).generate_state(cfg.restarts)


class _Starts:
    """Start isometries in restart order: the warm starts, then the first
    columns of one seeded Haar unitary per restart seed.  A Haar start is
    drawn only when it is indexed, so the restarts a search never opens cost
    nothing."""

    def __init__(self, warm_starts, dim: int, cols: int, cfg: OptimizerConfig):
        self._warm = [_warm_isometry(w, dim, cols) for w in warm_starts]
        self._dim, self._cols = dim, cols
        self._seeds = _restart_seeds(cfg)

    def __len__(self) -> int:
        return len(self._warm) + len(self._seeds)

    def __getitem__(self, r: int) -> np.ndarray:
        if r < len(self._warm):
            return self._warm[r]
        seed = int(self._seeds[r - len(self._warm)])
        return haar_unitary(self._dim, seed)[:, : self._cols]


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
    starts = _Starts(warm_starts, n, cols, cfg)

    opened = min(len(starts), _SCOUT)
    runs = _ascend(evaluate, [starts[r] for r in range(opened)], cfg)
    top = max(r.value for r in runs)
    agree = sum(top - r.value <= cfg.tol for r in runs)
    if opened < len(starts) and agree < _AGREE:
        runs += _ascend(evaluate, [starts[r] for r in range(opened, len(starts))], cfg)

    best_val = -math.inf
    best_v = None
    for run in runs:
        if run.value > best_val:
            best_val, best_v = run.value, run.v
    return sign * best_val, best_v
