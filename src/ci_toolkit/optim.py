"""Derivative-free optimization over unitaries and rank-1 POVMs.

A dim x dim unitary is parameterized by dim^2 real angles: dim column
phases followed by (theta, phi) for every index pair (j < k) in
lexicographic order, each pair contributing one two-level rotation. The
product

    U = G(0,1) G(0,2) ... G(n-2,n-1) D(phases)

covers the whole unitary group (the factorization is constructive, see
`encode_unitary`), and `decode_unitary` returns an exactly unitary matrix
for arbitrary real angles.

`maximize` is the one search; it minimizes with `sense="min"`. It runs a
compass pattern search over the angles, with every poll of every restart
evaluated by one batch objective on the decoded blocks: every iteration
polls every live coordinate at +/- step around the base point, moves to the
best candidate that clears a sufficient-decrease margin, and halves the step
when none does. Only the first `columns` columns of U are ever decoded, so
the live coordinates are the phases of those columns and the rotations
(j, k) with j < columns, a prefix of the pair order. The other
(dim - columns)^2 angles are dead: a phase l >= columns scales a dropped
column, and a rotation with columns <= j < k mixes rows that are still zero
when it acts. Moving a dead angle reproduces the base block exactly, so its
candidate could never clear the margin and is not polled.
Restarts are seeded Haar unitaries, reduced deterministically (strict
improvement keeps the lowest restart index). The restarts that run advance in
lockstep — each follows its own trajectory, but every iteration's polls are
pooled into batched objective calls.

A restart stops when its step falls below `tol` or at `max_iters`, and it
goes dormant when it stalls: after more than W polls, W being the number of
candidates in one poll, its incumbent has gained less than `tol` over the
last W polls. Restarts that crawl along a flat ridge thus stop early. From
the same poll on a restart is also retired when, at twice its gain rate over
the last W polls, it could not reach the best incumbent of the opened restarts
before `max_iters` (successive elimination).

`restarts` is a ceiling. The first eight starts (warm starts first, then the
Haar restarts in seed order) scout in lockstep; once none of them is live,
the rest open only if fewer than four scouts ended within `tol` of the best
incumbent, and then all of them open at once; a Haar start is drawn only
when it opens. When no restart is live, the one with the highest incumbent
is resumed alone, without the stall or racing rules, until it stops. Up to
its dormancy or retirement each restart's trajectory equals that of running
it on its own, so the resumed leader ends exactly where an unstalled run of
it ends. The search is deterministic for a fixed seed and config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NotPSD, ObjectiveError
from .tolerances import SLACK, VALIDATE, ZERO

# Every restart's compass step starts here and halves on each failed poll.
_INITIAL_STEP = 0.5
_SHRINK = 0.5


def rotation_pairs(dim: int) -> list[tuple[int, int]]:
    return [(j, k) for j in range(dim) for k in range(j + 1, dim)]


@dataclass(frozen=True)
class UnitaryParam:
    """Angle vector (length dim^2) naming one unitary via the fixed product."""

    dim: int
    angles: np.ndarray

    def __post_init__(self):
        d = int(self.dim)
        if d < 1:
            raise InvalidArgument(f"UnitaryParam: dim must be >= 1, got {d}")
        a = np.asarray(self.angles, dtype=np.float64).reshape(-1)
        if a.shape != (d * d,):
            raise InvalidArgument(
                f"UnitaryParam: expected {d * d} angles for dim {d}, got {a.shape[0]}"
            )
        a = np.array(a, copy=True)
        a.setflags(write=False)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "angles", a)


@dataclass(frozen=True)
class OptimizerConfig:
    """Pattern-search configuration; defaults are the package-wide defaults."""

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


def _split_angles(dim: int, angles: np.ndarray):
    return angles[:dim], angles[dim::2], angles[dim + 1 :: 2]


def _decode_columns(dim: int, angles: np.ndarray, cols: int) -> np.ndarray:
    phases, th, ph = _split_angles(dim, angles)
    u = np.zeros((dim, cols), dtype=np.complex128)
    for l in range(min(dim, cols)):
        u[l, l] = np.exp(1j * phases[l])
    # only the live prefix of the pairs, j < cols, runs: the rotations past
    # it act first and mix rows that are still zero (see the module docstring)
    pairs = [(j, k) for j, k in rotation_pairs(dim) if j < cols]
    for r in range(len(pairs) - 1, -1, -1):
        j, k = pairs[r]
        c, s, e = math.cos(th[r]), math.sin(th[r]), np.exp(1j * ph[r])
        rj = u[j].copy()
        u[j] = c * rj - e * s * u[k]
        u[k] = np.conj(e) * s * rj + c * u[k]
    return u


def decode_unitary(param: UnitaryParam, columns: int | None = None) -> np.ndarray:
    """Decode angles to a unitary (or its first `columns` columns).

    The result is unitary to machine precision for every angle vector.
    """
    cols = param.dim if columns is None else int(columns)
    if not (1 <= cols <= param.dim):
        raise InvalidArgument(f"decode_unitary: columns must be in [1, {param.dim}]")
    return _decode_columns(param.dim, np.asarray(param.angles, dtype=np.float64), cols)


def encode_unitary(u) -> UnitaryParam:
    """Exact angle factorization of a unitary (decode inverts it to 1e-12)."""
    m = np.asarray(u, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgument(f"encode_unitary: expected a square matrix, got {m.shape}")
    n = m.shape[0]
    dev = np.max(np.abs(m.conj().T @ m - np.eye(n)))
    if dev > SLACK:
        raise InvalidArgument(f"encode_unitary: matrix is not unitary (deviation {dev:.3e})")
    work = m.copy()
    pairs = rotation_pairs(n)
    thetas = np.zeros(len(pairs))
    phis = np.zeros(len(pairs))
    for r, (j, k) in enumerate(pairs):
        a, b = work[j, j], work[k, j]
        theta = math.atan2(abs(b), abs(a))
        phi = float(np.angle(a) - np.angle(b)) if abs(b) > 1e-300 else 0.0
        c, s, e = math.cos(theta), math.sin(theta), np.exp(1j * phi)
        rj = work[j].copy()
        work[j] = c * rj + e * s * work[k]
        work[k] = -np.conj(e) * s * rj + c * work[k]
        thetas[r], phis[r] = theta, phi
    phases = np.angle(np.diagonal(work))
    angles = np.empty(n * n)
    angles[:n] = phases
    angles[n::2] = thetas
    angles[n + 1 :: 2] = phis
    return UnitaryParam(n, angles)


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with phase-fixed R."""
    if dim < 1:
        raise InvalidArgument(f"haar_unitary: dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def complete_isometry(v) -> np.ndarray:
    """Extend a K x d isometry (orthonormal columns) to a K x K unitary whose
    first d columns equal it exactly."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] > v.shape[0]:
        raise InvalidArgument(f"complete_isometry: bad shape {v.shape}")
    k, d = v.shape
    dev = np.max(np.abs(v.conj().T @ v - np.eye(d)))
    if dev > SLACK:
        raise InvalidArgument(f"complete_isometry: columns not orthonormal ({dev:.3e})")
    q, _ = np.linalg.qr(v, mode="complete")
    u = np.array(q)
    u[:, :d] = v  # replace the QR phase convention by the exact input
    if d < k:
        # re-orthogonalize the completion against the replaced block
        tail = u[:, d:] - v @ (v.conj().T @ u[:, d:])
        tq, _ = np.linalg.qr(tail)
        u[:, d:] = tq
    return u


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
        total = np.zeros((d, d), dtype=np.complex128)
        for i, e in enumerate(elems):
            if e.shape != (d, d):
                raise InvalidArgument(f"Povm: element {i} has shape {e.shape}, expected {(d, d)}")
            if np.max(np.abs(e - e.conj().T)) > SLACK:
                raise InvalidArgument(f"Povm: element {i} is not Hermitian")
            if np.linalg.eigvalsh(e)[0] < -VALIDATE:
                raise NotPSD(f"Povm: element {i} has a negative eigenvalue")
            total += e
        if np.max(np.abs(total - np.eye(d))) > SLACK:
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
            bad = np.max(np.abs(outers - np.array(elems)), axis=(1, 2)) > SLACK
            if bad.any():
                i = int(np.argmax(bad))
                raise InvalidArgument(f"Povm: vector {i} does not give element {i}")
            object.__setattr__(self, "vectors", vec)

    def __len__(self) -> int:
        return len(self.elements)


def rank1_povm(u, party_dim: int) -> Povm:
    """Rank-1 POVM from a K x K unitary: element i projects onto the i-th row
    of the first `party_dim` columns. K outcomes on a dim-`party_dim` party."""
    m = np.asarray(u, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgument(f"rank1_povm: expected a square unitary, got {m.shape}")
    k = m.shape[0]
    if not (1 <= party_dim <= k):
        raise InvalidArgument(f"rank1_povm: party_dim {party_dim} must be in [1, {k}]")
    v = m[:, :party_dim]
    elements = tuple(np.outer(v[i], v[i].conj()) for i in range(k))
    return Povm(party_dim, elements, vectors=v)


# ---------------------------------------------------------------------------
# pattern search


class _BatchEngine:
    """Poll evaluation: candidates for the polls of every live restart are
    assembled as rank-2 updates of each base isometry and evaluated in a
    handful of vectorized objective calls.

    A poll builds the rotation blocks of every live rotation of every
    restart in one stacked array: the base 2x2 block and its four variants,
    theta +/- step and phi +/- step. Two running products of the base blocks
    give, for every live rotation, the two prefix columns before it and the
    two suffix rows after it; a candidate is the base block plus prefix
    columns @ (variant - base) @ suffix rows. Pair (j, k) is addressed by
    the basic slice j:k+1:k-j, a view, so each chain step copies its input
    once into the stored columns or rows and multiplies that copy. Each step
    stays a BLAS `@` on the operands a gathered copy of the pair would give
    (an elementwise 2x2 product rounds differently, as BLAS uses FMA), so
    the candidates handed to the objective are bit for bit those of a
    gather-and-scatter assembly, which `tests/test_optim.py` keeps as the
    reference."""

    # outcome rows per objective call, keeping scratch arrays inside typical
    # objectives to tens of megabytes
    _ROW_BUDGET = 65536

    def __init__(self, batch_objective, dim: int, cols: int):
        self.f = batch_objective
        self.n = dim
        self.cols = cols
        # live coordinates (see the module docstring): the phase slots of the
        # kept columns and the rotations (j, k) with j < cols, which are the
        # first `live` pairs
        self.slots = min(dim, cols)
        self.pair_slices = [
            slice(j, k + 1, k - j) for j, k in rotation_pairs(dim) if j < cols
        ]
        self.live = len(self.pair_slices)
        self.width = 2 * self.slots + 4 * self.live
        # candidate -> (angle index, sign of the step), in the poll order:
        # phase +/- per kept column, then theta +/- and phi +/- per rotation
        self.move_coords = np.concatenate(
            [
                np.repeat(np.arange(self.slots), 2),
                dim + np.repeat(np.arange(2 * self.live), 2),
            ]
        )
        self.move_signs = np.tile([1.0, -1.0], self.slots + 2 * self.live)

    def _eval(self, blocks: np.ndarray) -> np.ndarray:
        total = blocks.shape[0]
        per = max(1, self._ROW_BUDGET // self.n)
        if total <= per:
            vals = np.asarray(self.f(blocks), dtype=np.float64).reshape(-1)
        else:
            vals = np.concatenate(
                [
                    np.asarray(self.f(blocks[i : i + per]), dtype=np.float64).reshape(-1)
                    for i in range(0, total, per)
                ]
            )
        if vals.shape[0] != total:
            raise ObjectiveError(
                f"batch objective returned {vals.shape[0]} values for {total} candidates"
            )
        if not np.all(np.isfinite(vals)):
            raise ObjectiveError("batch objective returned a non-finite value")
        return vals

    def values(self, angles_stack: np.ndarray) -> np.ndarray:
        blocks = [_decode_columns(self.n, a, self.cols) for a in angles_stack]
        return self._eval(np.stack(blocks))

    def _rotations(self, angles: np.ndarray, steps: np.ndarray, up: np.ndarray):
        """The (R, live, 5, 2, 2) blocks of every live rotation for R angle
        vectors: the base block, then theta + step, theta - step, phi + step
        and phi - step, with up = exp(i step)."""
        n, stop = self.n, self.n + 2 * self.live
        th = angles[:, n:stop:2]
        eph = np.exp(1j * angles[:, n + 1 : stop : 2])
        st, twist = steps[:, None], up[:, None]
        t = np.stack([th, th + st, th - st, th, th], axis=2)
        e = np.stack([eph, eph, eph, eph * twist, eph * np.conj(twist)], axis=2)
        cos_t, sin_t = np.cos(t), np.sin(t)
        g = np.empty(t.shape + (2, 2), dtype=np.complex128)
        g[..., 0, 0] = cos_t
        g[..., 0, 1] = -e * sin_t
        g[..., 1, 0] = np.conj(e) * sin_t
        g[..., 1, 1] = cos_t
        return g

    def _chains(self, phases: np.ndarray, g0: np.ndarray):
        """Running products of the rotation chain for R angle vectors, with
        base rotation blocks g0 (R, live, 2, 2): for every live rotation r
        the two prefix columns pre_r[:, (j, k)] and the two suffix rows
        suf_{r+1}[(j, k), :], plus the fully assembled base block. The dead
        rotations past the live prefix act on zero rows, so both chains stop
        at the last live one."""
        n, m, cols = self.n, self.live, self.cols
        nr = g0.shape[0]
        pg = np.empty((nr, m, n, 2), dtype=np.complex128)
        cur = np.empty((nr, n, n), dtype=np.complex128)
        cur[:] = np.eye(n)
        for r, jk in enumerate(self.pair_slices):
            pg[:, r] = cur[:, :, jk]
            cur[:, :, jk] = pg[:, r] @ g0[:, r]
        sg = np.empty((nr, m, 2, cols), dtype=np.complex128)
        tail = np.zeros((nr, n, cols), dtype=np.complex128)
        kept = np.arange(self.slots)
        tail[:, kept, kept] = np.exp(1j * phases[:, : self.slots])
        for r in range(m - 1, -1, -1):
            jk = self.pair_slices[r]
            sg[:, r] = tail[:, jk]
            tail[:, jk] = g0[:, r] @ sg[:, r]
        return pg, sg, tail

    def poll(self, angles: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Candidate values for a stack of poll points.

        angles is (R, n*n), steps is (R,); returns (R, width) in the fixed
        candidate order (phase +/- per kept column slot, then theta+/theta-/
        phi+/phi- per live rotation). width = 2 (n^2 - (n - cols)^2): the
        dead angles are left out, since moving one reproduces the base block.
        """
        n, m, cols, p = self.n, self.live, self.cols, self.slots
        nr = angles.shape[0]
        up = np.exp(1j * steps)
        g = self._rotations(angles, steps, up)
        pg, sg, base = self._chains(angles[:, :n], g[:, :, 0])

        cands = np.empty((nr, self.width, n, cols), dtype=np.complex128)
        # phase coordinates: scaling one kept column of the base
        cands[:, : 2 * p] = base[:, None]
        scale = np.stack([up, np.conj(up)], axis=1)[:, :, None]
        for l in range(p):
            cands[:, 2 * l : 2 * l + 2, :, l] *= scale

        if m:
            dg = g[:, :, 1:] - g[:, :, :1]  # (R, m, 4, 2, 2)
            # pre @ dg @ suf, both products spelled out over their inner
            # dimension of 2, which beats stacked matmuls of such small blocks.
            # Keep these operand layouts: NumPy's complex multiply can round
            # differently when the same products run on other strides.
            suf = sg[:, :, None]  # (R, m, 1, 2, cols)
            inner = dg[..., 0:1] * suf[..., 0:1, :] + dg[..., 1:2] * suf[..., 1:2, :]
            pre = pg[:, :, None]  # (R, m, 1, n, 2)
            out = cands[:, 2 * p :].reshape(nr, m, 4, n, cols)
            np.multiply(pre[..., 0:1], inner[..., 0:1, :], out=out)
            out += pre[..., 1:2] * inner[..., 1:2, :]
            out += base[:, None, None]

        flat = cands.reshape(nr * self.width, n, cols)
        return self._eval(flat).reshape(nr, self.width)


def _forcing(step: float) -> float:
    # Sufficient-decrease margin: a move must beat the incumbent by this or
    # the step is halved. Quadratic in the step, so it does not limit the
    # accuracy reachable at tol, but it stops noise-level improvements from
    # pinning the step at a coarse level for the whole iteration budget; the
    # floor keeps round-off wiggle from ever counting as progress.
    return 1e-4 * step * step + ZERO


# The scout: how many starts run first, and how many of them must end
# within tol of the best incumbent for the remaining starts never to open.
_SCOUT = 8
_AGREE = 4


def _pattern_search_many(engine, starts: np.ndarray | _Starts, cfg: OptimizerConfig):
    """Advance the restarts' compass searches in lockstep.

    Each restart follows exactly the trajectory it would follow on its own
    (own incumbent, own step, own iteration count) up to its dormancy or
    retirement; only the objective evaluations are pooled across the live
    restarts.

    A restart ends when its step falls below `tol` or it reaches
    `max_iters`. From poll W + 1 on, with W = `engine.width` the candidates
    per poll, it goes dormant, keeping its state, when it stalls: its
    incumbent beats the one it held W polls earlier by less than `tol`. From
    the same poll on it is retired when it cannot catch the leader: its
    incumbent plus twice its gain over the last W polls, scaled to the polls
    it has left, stays below the best incumbent of the opened restarts. The
    leader never meets that test.

    The first `_SCOUT` starts open together. Once none is live, the rest
    open in one batch, unless `_AGREE` of the opened restarts already hold
    incumbents within `tol` of the best. Once no restart is live, the one
    with the highest incumbent (lowest index on ties) is resumed alone,
    without either rule, until it ends. Its polls do not depend on the rest
    of the batch, so the leader finishes on the exact trajectory of an
    unstalled run. Returns a list of (value, angles) in restart order, one
    entry per opened restart.

    ``starts`` is indexed only when a restart opens: an (R, dim^2) array,
    or a sequence such as `_Starts` that draws each start on access.
    """
    nr = len(starts)
    angles = np.zeros((nr, engine.n * engine.n))
    best = np.full(nr, -np.inf)
    steps = np.full(nr, _INITIAL_STEP)
    iters = np.zeros(nr, dtype=np.intp)
    live = np.zeros(nr, dtype=bool)
    window = engine.width
    # incumbent after poll t in slot t % window (slot 0 starts with poll 0,
    # the start value), so a slot holds the incumbent of `window` polls ago
    # until it is overwritten
    history = np.zeros((nr, window))

    def open_starts(lo: int, hi: int) -> None:
        for r in range(lo, hi):
            angles[r] = starts[r]
        best[lo:hi] = engine.values(angles[lo:hi])
        history[lo:hi, 0] = best[lo:hi]
        live[lo:hi] = True

    def advance(idx: np.ndarray, race: bool) -> None:
        step, inc = steps[idx], best[idx]
        vals = engine.poll(angles[idx], step)
        picks = np.argmax(vals, axis=1)
        top = np.max(vals, axis=1)
        moved = top > inc + _forcing(step)
        hit, pick = idx[moved], picks[moved]
        angles[hit, engine.move_coords[pick]] += engine.move_signs[pick] * step[moved]
        inc = np.where(moved, top, inc)
        step = np.where(moved, step, step * _SHRINK)
        n = iters[idx] + 1
        best[idx], steps[idx], iters[idx] = inc, step, n
        if not race:
            return
        # past poll W, stalled or unable to catch the leader: dormant
        slot = n % window
        gain = inc - history[idx, slot]
        reach = inc + 2.0 * gain * (cfg.max_iters - n) / window
        keep = (n <= window) | ((gain >= cfg.tol) & (reach >= best.max()))
        live[idx] = (n < cfg.max_iters) & (step >= cfg.tol) & keep
        history[idx, slot] = inc

    opened = min(nr, _SCOUT)
    open_starts(0, opened)
    while True:
        while live.any():
            advance(np.nonzero(live)[0], race=True)
        agree = np.count_nonzero(best.max() - best[:opened] <= cfg.tol)
        if opened == nr or agree >= _AGREE:
            break
        open_starts(opened, nr)
        opened = nr
    # a leader that went dormant instead of ending runs on alone
    lead = int(np.argmax(best))
    while iters[lead] < cfg.max_iters and steps[lead] >= cfg.tol:
        advance(np.array([lead]), race=False)
    # Re-evaluate the opened restarts at their final angles so the reported
    # value is exactly what the returned parameters give, not the
    # incremental bookkeeping of the poll loop.
    return [(float(v), a.copy()) for v, a in zip(engine.values(angles[:opened]), angles)]


def _restart_seeds(cfg: OptimizerConfig) -> np.ndarray:
    return np.random.SeedSequence(cfg.seed).generate_state(cfg.restarts)


class _Starts:
    """Start angles in restart order: the warm starts, then one seeded Haar
    unitary per restart seed.  A Haar start is drawn and encoded only when
    it is indexed, so the restarts a search never opens cost nothing."""

    def __init__(self, warm_starts, dim: int, cfg: OptimizerConfig):
        self._warm = [encode_unitary(np.asarray(w)).angles for w in warm_starts]
        self._dim = dim
        self._seeds = _restart_seeds(cfg)

    def __len__(self) -> int:
        return len(self._warm) + len(self._seeds)

    def __getitem__(self, r: int) -> np.ndarray:
        if r < len(self._warm):
            return self._warm[r]
        seed = int(self._seeds[r - len(self._warm)])
        return encode_unitary(haar_unitary(self._dim, seed)).angles


def maximize(
    batch_objective,
    dim: int,
    config: OptimizerConfig | None = None,
    *,
    columns: int | None = None,
    sense: str = "max",
    warm_starts=(),
    progress=None,
) -> tuple[float, UnitaryParam]:
    """Maximize a real objective over the first `columns` columns of
    dim x dim unitaries, or minimize it with ``sense="min"``.

    batch_objective maps a (B, dim, columns) stack of decoded blocks to B
    values. Minimizing is exactly maximizing the negated objective: the
    returned value and the `progress` values are negated back. `warm_starts`
    are explicit unitaries searched before the seeded Haar restarts (they
    occupy the lowest restart indices). `restarts` is a ceiling: the other
    starts open only when the first eight disagree (see the module
    docstring). `progress(r, best)` fires once per restart that ran, in
    restart order, with the best value so far. Ties between restarts keep
    the lowest index; two runs with the same seed and config return
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
    f = batch_objective if sign > 0 else (lambda v: -np.asarray(batch_objective(v)))
    engine = _BatchEngine(f, n, cols)

    results = _pattern_search_many(engine, _Starts(warm_starts, n, cfg), cfg)

    best_val = -math.inf
    best_angles = None
    for r, (val, angles) in enumerate(results):
        if val > best_val:
            best_val, best_angles = val, angles
        if progress is not None:
            progress(r, sign * best_val)
    return sign * best_val, UnitaryParam(n, best_angles)
