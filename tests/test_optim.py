import math

import numpy as np
import pytest

from ci_toolkit import optim
from ci_toolkit.errors import InvalidArgument, NotPSD, ObjectiveError
from ci_toolkit.optim import (
    OptimizerConfig,
    Povm,
    UnitaryParam,
    _INITIAL_STEP,
    _SHRINK,
    _BatchEngine,
    _restart_seeds,
    _Starts,
    _forcing,
    _pattern_search_many,
    complete_isometry,
    decode_unitary,
    encode_unitary,
    haar_unitary,
    maximize,
    rank1_povm,
    rotation_pairs,
)

QUICK = OptimizerConfig(restarts=2, max_iters=60, tol=1e-4, seed=3)


def _overlap_batch(target):
    # |<target, block>|^2 per stacked block; einsum keeps every row's
    # arithmetic independent of the batch size
    def f(blocks):
        ov = np.einsum("bij,ij->b", blocks, target.conj())
        return np.real(ov * ov.conj())

    return f


# --- parameterization --------------------------------------------------------


def test_rotation_pairs_and_angle_count():
    assert rotation_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    # dim phases plus two angles per pair: dim^2 angles in all
    assert encode_unitary(haar_unitary(4, 0)).angles.shape == (16,)


def test_unitary_param_validation():
    with pytest.raises(InvalidArgument):
        UnitaryParam(0, np.zeros(0))
    with pytest.raises(InvalidArgument):
        UnitaryParam(2, np.zeros(3))
    p = UnitaryParam(2, np.zeros(4))
    with pytest.raises(ValueError):
        p.angles[0] = 1.0


def test_decode_is_always_unitary():
    rng = np.random.default_rng(17)
    for dim in (2, 3, 4, 5):
        for _ in range(100):
            angles = rng.uniform(-6.0, 6.0, dim * dim)
            u = decode_unitary(UnitaryParam(dim, angles))
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-12


def test_encode_decode_round_trip():
    for dim in (2, 3, 5, 8):
        u = haar_unitary(dim, 1000 + dim)
        param = encode_unitary(u)
        assert np.max(np.abs(decode_unitary(param) - u)) <= 1e-12


def test_encode_rejects_bad_input():
    with pytest.raises(InvalidArgument):
        encode_unitary(np.zeros((2, 3)))
    with pytest.raises(InvalidArgument):
        encode_unitary(np.eye(2) * 1.5)


def test_decode_columns_match_full_decode():
    rng = np.random.default_rng(8)
    angles = rng.uniform(-3.0, 3.0, 16)
    param = UnitaryParam(4, angles)
    full = decode_unitary(param)
    two = decode_unitary(param, columns=2)
    assert np.array_equal(two, full[:, :2])
    with pytest.raises(InvalidArgument):
        decode_unitary(param, columns=0)
    with pytest.raises(InvalidArgument):
        decode_unitary(param, columns=5)


def test_haar_unitary_deterministic_and_unitary():
    u1 = haar_unitary(4, 9)
    u2 = haar_unitary(4, 9)
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(4))) <= 1e-12
    assert not np.allclose(u1, haar_unitary(4, 10))
    with pytest.raises(InvalidArgument):
        haar_unitary(0, 1)


def test_complete_isometry_keeps_input_columns_exactly():
    v = haar_unitary(4, 21)[:, :2]
    u = complete_isometry(v)
    assert np.array_equal(u[:, :2], v)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
    with pytest.raises(InvalidArgument):
        complete_isometry(np.ones((2, 4)))
    with pytest.raises(InvalidArgument):
        complete_isometry(np.ones((4, 2)))


# --- POVMs --------------------------------------------------------------------


def test_povm_validation():
    ok = Povm(2, (np.eye(2) * 0.5, np.eye(2) * 0.5))
    assert len(ok) == 2
    with pytest.raises(InvalidArgument):
        Povm(2, ())
    with pytest.raises(InvalidArgument):
        Povm(2, (np.eye(3) / 3, np.eye(3) * 2 / 3))
    with pytest.raises(InvalidArgument):
        Povm(2, (np.array([[0.5, 0.3], [0.0, 0.5]]), np.eye(2) * 0.5))
    with pytest.raises(NotPSD):
        Povm(2, (np.diag([1.2, 0.0]), np.diag([-0.2, 1.0])))
    with pytest.raises(InvalidArgument):
        Povm(2, (np.eye(2) * 0.5, np.eye(2) * 0.4))


def test_povm_rejects_vectors_that_contradict_elements():
    halves = (np.eye(2) * 0.5, np.eye(2) * 0.5)
    with pytest.raises(InvalidArgument, match="vector 0"):
        Povm(2, halves, vectors=np.eye(2))
    with pytest.raises(InvalidArgument, match="shape"):
        Povm(2, halves, vectors=np.zeros((5, 7)))
    basis = rank1_povm(np.eye(2, dtype=complex), 2)
    assert Povm(2, basis.elements, vectors=basis.vectors).vectors.shape == (2, 2)


def test_rank1_povm_completeness():
    u = haar_unitary(4, 5)
    povm = rank1_povm(u, 2)
    assert len(povm) == 4
    assert povm.party_dim == 2
    total = sum(povm.elements)
    assert np.max(np.abs(total - np.eye(2))) <= 1e-12
    for i in range(4):
        v = povm.vectors[i]
        assert np.max(np.abs(povm.elements[i] - np.outer(v, v.conj()))) <= 1e-14
    with pytest.raises(InvalidArgument):
        rank1_povm(u[:, :2], 2)
    with pytest.raises(InvalidArgument):
        rank1_povm(u, 5)


# --- pattern search ------------------------------------------------------------


def test_optimizer_config_validation():
    for kw in (
        {"restarts": 0},
        {"max_iters": 0},
        {"tol": 0.0},
    ):
        with pytest.raises(InvalidArgument):
            OptimizerConfig(**kw)


def test_batch_poll_matches_brute_force_candidates():
    dim, cols = 3, 2
    target = haar_unitary(dim, 44)[:, :cols]
    f = _overlap_batch(target)
    engine = _BatchEngine(f, dim, cols)
    rng = np.random.default_rng(2)
    angles = rng.uniform(-2.0, 2.0, (3, dim * dim))
    steps = np.array([0.5, 0.25, 0.125])
    polled = engine.poll(angles, steps)
    # only the live coordinates are polled: 2 (K^2 - (K - c)^2) candidates
    width = 2 * (dim * dim - (dim - cols) ** 2)
    assert polled.shape == (3, width)
    for r in range(3):
        for idx in range(width):
            cand = angles[r].copy()
            cand[engine.move_coords[idx]] += engine.move_signs[idx] * steps[r]
            block = decode_unitary(UnitaryParam(dim, cand), columns=cols)
            assert np.isclose(polled[r, idx], f(block[None])[0], atol=1e-10)


@pytest.mark.parametrize("dim,cols", [(3, 2), (4, 1), (4, 2), (4, 4), (9, 3), (16, 4)])
def test_skipped_poll_coordinates_are_dead(dim, cols):
    engine = _BatchEngine(None, dim, cols)
    assert engine.move_coords.shape == engine.move_signs.shape == (engine.width,)
    polled = [
        (int(q), 0.5 * sign) for q, sign in zip(engine.move_coords, engine.move_signs)
    ]
    # every polled angle appears once at +step and once at -step
    coords = sorted({coord for coord, _ in polled})
    assert sorted(polled) == sorted([(q, -0.5) for q in coords] + [(q, 0.5) for q in coords])
    # the angles the poll skips, by the rule: phases of dropped columns and
    # the rotations (j, k) with j >= cols
    skipped = list(range(cols, dim))
    for r, (j, _) in enumerate(rotation_pairs(dim)):
        if j >= cols:
            skipped += [dim + 2 * r, dim + 2 * r + 1]
    assert sorted(coords + skipped) == list(range(dim * dim))
    assert len(coords) == dim * dim - (dim - cols) ** 2

    rng = np.random.default_rng(100 * dim + cols)
    angles = rng.uniform(-3.0, 3.0, dim * dim)
    base = decode_unitary(UnitaryParam(dim, angles), columns=cols)
    for q in skipped:
        moved = angles.copy()
        moved[q] += rng.uniform(0.1, 3.0)
        assert np.array_equal(decode_unitary(UnitaryParam(dim, moved), columns=cols), base)
    for q in coords:
        moved = angles.copy()
        moved[q] += 0.5
        assert not np.array_equal(decode_unitary(UnitaryParam(dim, moved), columns=cols), base)


# --- poll assembly against the gather-and-scatter reference ------------------


class _GatherScatterEngine(_BatchEngine):
    """A gather-and-scatter poll assembly, the reference for
    `_BatchEngine.poll`: every chain step gathers pair (j, k) by fancy
    indexing and scatters the product back, and each variant block is built
    on its own."""

    def __init__(self, batch_objective, dim: int, cols: int):
        super().__init__(batch_objective, dim, cols)
        self.pairs = np.array(rotation_pairs(dim), dtype=np.intp).reshape(-1, 2)

    def _chains(self, angles: np.ndarray):
        """Running products of the rotation chain for a stack of angle
        vectors, gathered down to what a poll needs: for every live rotation
        r the two prefix columns pre_r[:, (j, k)] and the two suffix rows
        suf_{r+1}[(j, k), :], plus the fully assembled base block. The dead
        rotations past the live prefix act on zero rows, so both chains stop
        at the last live one."""
        n, m, cols = self.n, self.live, self.cols
        nr = angles.shape[0]
        phases = angles[:, :n]
        stop = n + 2 * m
        cos_t = np.cos(angles[:, n:stop:2])
        sin_t = np.sin(angles[:, n:stop:2])
        eph = np.exp(1j * angles[:, n + 1 : stop : 2])
        g2 = self._g2(cos_t, sin_t, eph)  # (R, m, 2, 2)
        pg = np.empty((nr, m, n, 2), dtype=np.complex128)
        cur = np.empty((nr, n, n), dtype=np.complex128)
        cur[:] = np.eye(n)
        for r in range(m):
            jk = self.pairs[r]
            blk = cur[:, :, jk]
            pg[:, r] = blk
            cur[:, :, jk] = blk @ g2[:, r]
        sg = np.empty((nr, m, 2, cols), dtype=np.complex128)
        tail = np.zeros((nr, n, cols), dtype=np.complex128)
        for l in range(self.slots):
            tail[:, l, l] = np.exp(1j * phases[:, l])
        for r in range(m - 1, -1, -1):
            jk = self.pairs[r]
            blk = tail[:, jk]
            sg[:, r] = blk
            tail[:, jk] = g2[:, r] @ blk
        return pg, sg, tail, g2, cos_t, sin_t, eph

    @staticmethod
    def _g2(cos_t, sin_t, eph):
        # stack of 2x2 rotation blocks for arrays of angle values
        g = np.empty(cos_t.shape + (2, 2), dtype=np.complex128)
        g[..., 0, 0] = cos_t
        g[..., 0, 1] = -eph * sin_t
        g[..., 1, 0] = np.conj(eph) * sin_t
        g[..., 1, 1] = cos_t
        return g

    def poll(self, angles: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Candidate values for a stack of poll points.

        angles is (R, n*n), steps is (R,); returns (R, width) in the fixed
        candidate order (phase +/- per kept column slot, then theta+/theta-/
        phi+/phi- per live rotation). width = 2 (n^2 - (n - cols)^2): the
        dead angles are left out, since moving one reproduces the base block.
        """
        n, m, cols, p = self.n, self.live, self.cols, self.slots
        nr = angles.shape[0]
        pg, sg, base, g0, cos_t, sin_t, eph = self._chains(angles)

        cands = np.empty((nr, self.width, n, cols), dtype=np.complex128)
        # phase coordinates: scaling one kept column of the base
        cands[:, : 2 * p] = base[:, None]
        up = np.exp(1j * steps)
        for l in range(p):
            cands[:, 2 * l, :, l] *= up[:, None]
            cands[:, 2 * l + 1, :, l] *= np.conj(up)[:, None]

        if m:
            th = angles[:, n : n + 2 * m : 2]
            st = steps[:, None]
            twist = np.exp(1j * st)
            variants = np.stack(
                [
                    self._g2(np.cos(th + st), np.sin(th + st), eph),
                    self._g2(np.cos(th - st), np.sin(th - st), eph),
                    self._g2(cos_t, sin_t, eph * twist),
                    self._g2(cos_t, sin_t, eph * np.conj(twist)),
                ],
                axis=2,
            )  # (R, m, 4, 2, 2)
            dg = variants - g0[:, :, None]
            # pre @ dg @ suf, both products spelled out over their inner
            # dimension of 2, which beats stacked matmuls of such small blocks
            suf = sg[:, :, None]  # (R, m, 1, 2, cols)
            inner = dg[..., 0:1] * suf[..., 0:1, :] + dg[..., 1:2] * suf[..., 1:2, :]
            pre = pg[:, :, None]  # (R, m, 1, n, 2)
            out = cands[:, 2 * p :].reshape(nr, m, 4, n, cols)
            np.multiply(pre[..., 0:1], inner[..., 0:1, :], out=out)
            out += pre[..., 1:2] * inner[..., 1:2, :]
            out += base[:, None, None]

        flat = cands.reshape(nr * self.width, n, cols)
        return self._eval(flat).reshape(nr, self.width)


def _handed_candidates(engine_type, dim, cols, angles, steps):
    """The candidate stack that an engine's poll hands its objective."""
    seen = []

    def record(blocks):
        seen.append(blocks.copy())
        return np.zeros(blocks.shape[0])

    engine_type(record, dim, cols).poll(angles, steps)
    return np.concatenate(seen)


@pytest.mark.parametrize("dim,cols", [(3, 2), (4, 1), (4, 2), (4, 4), (9, 3), (16, 4)])
@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("step", [0.5, 1e-5])
def test_poll_candidates_match_gather_scatter_assembly(dim, cols, restarts, step):
    rng = np.random.default_rng(1000 * dim + 10 * cols + restarts)
    angles = rng.uniform(-3.0, 3.0, (restarts, dim * dim))
    steps = step * rng.uniform(0.5, 1.0, restarts)
    handed = _handed_candidates(_BatchEngine, dim, cols, angles, steps)
    reference = _handed_candidates(_GatherScatterEngine, dim, cols, angles, steps)
    width = 2 * (dim * dim - (dim - cols) ** 2)
    assert handed.shape == reference.shape == (restarts * width, dim, cols)
    assert np.array_equal(handed, reference)


def _all_pairs_decode(dim, angles, cols):
    # every rotation of the product, dead ones included
    phases, th, ph = angles[:dim], angles[dim::2], angles[dim + 1 :: 2]
    u = np.zeros((dim, cols), dtype=np.complex128)
    for l in range(min(dim, cols)):
        u[l, l] = np.exp(1j * phases[l])
    pairs = rotation_pairs(dim)
    for r in range(len(pairs) - 1, -1, -1):
        j, k = pairs[r]
        c, s, e = math.cos(th[r]), math.sin(th[r]), np.exp(1j * ph[r])
        rj = u[j].copy()
        u[j] = c * rj - e * s * u[k]
        u[k] = np.conj(e) * s * rj + c * u[k]
    return u


@pytest.mark.parametrize("dim,cols", [(3, 2), (4, 1), (4, 2), (4, 4), (9, 3), (16, 4)])
def test_decode_of_the_live_prefix_matches_all_pairs(dim, cols):
    rng = np.random.default_rng(7 * dim + cols)
    for _ in range(5):
        angles = rng.uniform(-6.0, 6.0, dim * dim)
        param = UnitaryParam(dim, angles)
        assert np.array_equal(
            decode_unitary(param, columns=cols), _all_pairs_decode(dim, angles, cols)
        )


def test_lockstep_restarts_equal_isolated_runs():
    dim, cols = 3, 2
    target = haar_unitary(dim, 44)[:, :cols]
    engine = _BatchEngine(_overlap_batch(target), dim, cols)
    starts = np.stack(
        [encode_unitary(haar_unitary(dim, s)).angles for s in (3, 5, 9, 12)]
    )
    cfg = OptimizerConfig(restarts=4, max_iters=40, tol=1e-4, seed=1)
    together = _pattern_search_many(engine, starts, cfg)
    for r in range(4):
        val, angles = _pattern_search_many(engine, starts[r : r + 1], cfg)[0]
        assert together[r][0] == val
        assert np.array_equal(together[r][1], angles)


def _recording_batch(target, calls):
    """`_overlap_batch` that records each call's candidate count and fails
    on a call above the entry budget, unless it holds exactly one candidate."""
    f = _overlap_batch(target)
    dim, cols = target.shape

    def batch(blocks):
        b = blocks.shape[0]
        assert b == 1 or b * dim * cols <= _BatchEngine._ENTRY_BUDGET
        calls.append(b)
        return f(blocks)

    return batch


@pytest.mark.parametrize(
    "dim,cols,restarts,budget",
    [(4, 2, 8, None), (9, 3, 8, None), (16, 4, 3, None), (16, 4, 3, 32)],
)
def test_objective_calls_stay_within_the_entry_budget(
    monkeypatch, dim, cols, restarts, budget
):
    if budget is not None:  # below one candidate's dim * cols entries
        monkeypatch.setattr(_BatchEngine, "_ENTRY_BUDGET", budget)
    calls = []
    target = haar_unitary(dim, 44)[:, :cols]
    cfg = OptimizerConfig(restarts=restarts, max_iters=4, tol=1e-6, seed=2)
    maximize(_recording_batch(target, calls), dim, cfg, columns=cols)
    # the first poll holds every restart; a call fills the budget when it can
    per = max(1, _BatchEngine._ENTRY_BUDGET // (dim * cols))
    width = 2 * (dim * dim - (dim - cols) ** 2)
    assert max(calls) == min(per, restarts * width)


def _ridge_batch(blocks):
    # Curved ridge in the Bloch coordinates (x, y) of the first column's top
    # two entries: its crest y = x^2 peaks at 0 at x = 1/2, y = 1/4, and
    # about 0.01 lower near x = -1/2. Compass search crawls along the crest.
    c = blocks[:, 0, 0].conj() * blocks[:, 1, 0]
    x, y = 2 * c.real, 2 * c.imag
    return -(100.0 * (y - x * x) ** 2 + (x * x - 0.25) ** 2 + 0.01 * (x - 0.5) ** 2)


def _ridge_top() -> np.ndarray:
    # angles of a 4x4 unitary whose first column sits at the ridge's maximum
    a = 0.5 * np.arcsin(np.hypot(0.5, 0.25))
    phi = np.arctan2(0.25, 0.5)
    block = np.array(
        [[np.cos(a), 0], [np.exp(1j * phi) * np.sin(a), 0], [0, 1], [0, 0]]
    )
    return encode_unitary(complete_isometry(block)).angles.copy()


def _compass(engine, start, cfg):
    """Unstalled compass loop on one restart: (value, angles, polls)."""
    angles = np.array(start, dtype=np.float64)
    best = engine.values(angles[None])[0]
    step, polls = _INITIAL_STEP, 0
    while polls < cfg.max_iters and step >= cfg.tol:
        vals = engine.poll(angles[None], np.array([step]))[0]
        polls += 1
        q = int(np.argmax(vals))
        if vals[q] > best + _forcing(step):
            angles[engine.move_coords[q]] += engine.move_signs[q] * step
            best = vals[q]
        else:
            step *= _SHRINK
    return engine.values(angles[None])[0], angles, polls


def _counted(engine):
    # wrap engine.poll to count restart-polls (rows), live or resumed
    polls = [0]
    poll = engine.poll

    def counting(angles, steps):
        polls[0] += angles.shape[0]
        return poll(angles, steps)

    engine.poll = counting
    return polls


def _starts(dim, restarts):
    return np.stack(
        [encode_unitary(haar_unitary(dim, s)).angles for s in range(restarts)]
    )


RIDGE = OptimizerConfig(restarts=8, max_iters=2000, tol=1e-6)


@pytest.fixture(scope="module")
def ridge_runs():
    engine = _BatchEngine(_ridge_batch, 4, 2)
    starts = _starts(4, RIDGE.restarts)
    reference = [_compass(engine, s, RIDGE) for s in starts]
    polls = _counted(engine)
    lockstep = _pattern_search_many(engine, starts, RIDGE)
    return reference, lockstep, polls[0]


def test_stall_rule_cuts_crawling_restarts(ridge_runs):
    reference, _, polls = ridge_runs
    # unstalled, most restarts crawl for hundreds of polls, far past W = 24
    assert sum(p > 400 for _, _, p in reference) >= 5
    assert polls < RIDGE.restarts * RIDGE.max_iters
    assert polls < 0.7 * sum(p for _, _, p in reference)


def test_reported_restart_matches_unstalled_compass_loop(ridge_runs):
    reference, lockstep, _ = ridge_runs
    # the reduction maximize applies: strict improvement, lowest index first
    lead = int(np.argmax([val for val, _ in lockstep]))
    val, angles, _ = reference[lead]
    assert lockstep[lead][0] == val
    assert np.array_equal(lockstep[lead][1], angles)
    # here the leader is also the unstalled winner, so the search reports
    # exactly what it reported without the stall rule
    assert lead == int(np.argmax([v for v, _, _ in reference]))
    # while other crawling restarts went dormant short of their unstalled end
    assert any(
        not np.array_equal(lockstep[r][1], reference[r][1])
        for r in range(RIDGE.restarts)
        if r != lead
    )


def test_restart_ending_within_one_window_is_unaffected():
    engine = _BatchEngine(_ridge_batch, 4, 2)
    top = _ridge_top()
    near = top.copy()
    near[6] += 0.375
    near[4] += 0.0625
    val, angles, polls = _compass(engine, near, RIDGE)
    # it climbs back toward the top, its last moves coming after several
    # halvings, and halves its step down to tol within W polls, so the stall
    # rule never looks at it
    assert 0 < polls <= engine.width
    assert not np.array_equal(angles, near)
    # restart 0 starts on the top, so restart 1 is never the resumed leader
    starts = np.stack(
        [top, near] + [encode_unitary(haar_unitary(4, s)).angles for s in (1, 2)]
    )
    together = _pattern_search_many(engine, starts, RIDGE)
    assert together[1][0] == val
    assert np.array_equal(together[1][1], angles)


def test_agreeing_scouts_open_no_more_restarts():
    # one optimum, so the eight scouts all end on it
    engine = _BatchEngine(_overlap_batch(haar_unitary(2, 31)[:, :1]), 2, 1)
    cfg = OptimizerConfig(restarts=32, max_iters=2000, tol=1e-6)
    rows = []
    poll = engine.poll

    def recording(angles, steps):
        rows.append(angles.shape[0])
        return poll(angles, steps)

    engine.poll = recording
    results = _pattern_search_many(engine, _starts(2, 32), cfg)
    assert len(results) == 8
    # the eight scouts poll together, and no other restart ever polls
    assert rows[0] == 8 and max(rows) == 8
    seen = []
    maximize(
        _overlap_batch(haar_unitary(2, 31)[:, :1]),
        2,
        cfg,
        columns=1,
        progress=lambda r, best: seen.append(r),
    )
    assert seen == list(range(8))


def test_unopened_restarts_are_never_drawn(monkeypatch):
    # the scouts agree, so 8 of 32 restarts open: each is drawn and encoded
    # once, and the other 24 are never drawn
    draws, encodes = [], []
    haar, encode = optim.haar_unitary, optim.encode_unitary
    monkeypatch.setattr(optim, "haar_unitary", lambda n, s: draws.append(s) or haar(n, s))
    monkeypatch.setattr(optim, "encode_unitary", lambda u: encodes.append(1) or encode(u))
    opened = []
    maximize(
        _overlap_batch(haar_unitary(2, 31)[:, :1]),
        2,
        OptimizerConfig(restarts=32, max_iters=2000, tol=1e-6),
        columns=1,
        progress=lambda r, best: opened.append(r),
    )
    assert opened == list(range(8))
    assert len(encodes) == len(draws) == len(opened)


def test_lazy_starts_keep_the_eager_angles():
    cfg = OptimizerConfig(restarts=5, seed=11)
    warm = haar_unitary(3, 2)
    starts = _Starts([warm], 3, cfg)
    eager = [encode_unitary(warm).angles] + [
        encode_unitary(haar_unitary(3, int(s))).angles for s in _restart_seeds(cfg)
    ]
    assert len(starts) == len(eager) == 6
    for r in reversed(range(6)):
        assert np.array_equal(starts[r], eager[r])


def test_disagreeing_scouts_open_every_restart(ridge_runs):
    _, lockstep, _ = ridge_runs
    # the ridge's eight restarts stall on different points of the crest,
    # fewer than four of them within tol of the best
    ends = np.array([val for val, _ in lockstep])
    assert np.count_nonzero(ends.max() - ends <= RIDGE.tol) < 4
    engine = _BatchEngine(_ridge_batch, 4, 2)
    results = _pattern_search_many(engine, _starts(4, 16), RIDGE)
    assert len(results) == 16


class _LineEngine(_BatchEngine):
    """One angle x, scored directly rather than through a decoded block: a
    peak of height 10 at x = 100, and the line slope * x below x = 50. A
    crawler on the line moves +0.5 every poll at the initial step and never
    stalls; W = 2."""

    def __init__(self, slope):
        super().__init__(None, 1, 1)
        self.slope = slope

    def score(self, x):
        return np.where(x > 50.0, 10.0 - (x - 100.0) ** 2, self.slope * x)

    def values(self, angles_stack):
        return self.score(angles_stack[:, 0])

    def value(self, angles):
        return float(self.score(angles[0]))

    def poll(self, angles, steps):
        return self.score(angles[:, :1] + self.move_signs * steps[:, None])


LINE = OptimizerConfig(restarts=2, max_iters=40, tol=1e-3)
LINE_STARTS = np.array([[100.0], [0.0]])


def test_far_behind_crawler_is_retired():
    engine = _LineEngine(slope=0.01)
    lead_val, lead_angles, _ = _compass(engine, LINE_STARTS[0], LINE)
    _, crawl_angles, crawl_polls = _compass(engine, LINE_STARTS[1], LINE)
    assert crawl_polls == LINE.max_iters and crawl_angles[0] == 20.0
    results = _pattern_search_many(engine, LINE_STARTS, LINE)
    # gaining 0.01 per window, it could add 2 * 0.01 * 37 / 2 = 0.37 by the
    # cap, far short of the leader's 10: retired at its first racing poll
    assert results[1][1][0] == 0.5 * (engine.width + 1)
    # the leader stalls at once and finishes alone on its unstalled path
    assert results[0][0] == lead_val
    assert np.array_equal(results[0][1], lead_angles)


def test_racing_extrapolates_twice_the_window_gain():
    engine = _LineEngine(slope=0.3)
    results = _pattern_search_many(engine, LINE_STARTS, LINE)
    # after n polls the crawler holds 0.15 n and gains 0.3 per window. At
    # that rate it would end at 6 < 10, but at twice the rate it reaches
    # 0.15 n + 0.3 (40 - n) >= 10 for every n up to 13: retired at poll 14
    assert results[1][1][0] == 0.5 * 14


def test_maximize_recovers_target_state():
    target = haar_unitary(2, 31)[:, :1]
    cfg = OptimizerConfig(restarts=8, max_iters=2000, tol=1e-6, seed=2)
    val, param = maximize(_overlap_batch(target), 2, cfg, columns=1)
    assert val >= 1.0 - 1e-6
    block = decode_unitary(param, columns=1)
    assert abs(np.vdot(target, block)) >= 1.0 - 1e-6


def test_maximize_deterministic():
    target = haar_unitary(3, 8)[:, :2]
    f = _overlap_batch(target)
    a = maximize(f, 3, QUICK, columns=2)
    b = maximize(f, 3, QUICK, columns=2)
    assert a[0] == b[0]
    assert np.array_equal(a[1].angles, b[1].angles)


def test_tie_break_keeps_lowest_restart_index():
    def const(blocks):
        return np.zeros(blocks.shape[0])

    one = maximize(const, 2, OptimizerConfig(restarts=1, seed=6))
    eight = maximize(const, 2, OptimizerConfig(restarts=8, seed=6))
    assert one[0] == eight[0] == 0.0
    assert np.array_equal(one[1].angles, eight[1].angles)


def test_warm_start_searched_first_and_never_lost():
    target = haar_unitary(3, 27)[:, :2]
    f = _overlap_batch(target)
    warm = complete_isometry(target)
    val, param = maximize(f, 3, QUICK, columns=2, warm_starts=(warm,))
    # the warm start already achieves the global optimum
    assert val >= f(target[None])[0] - 1e-12

    def const(blocks):
        return np.zeros(blocks.shape[0])

    _, param = maximize(const, 3, QUICK, columns=2, warm_starts=(warm,))
    assert np.array_equal(param.angles, encode_unitary(warm).angles)


def test_sense_min_is_negated_maximize():
    target = haar_unitary(2, 12)[:, :1]
    f = _overlap_batch(target)
    seen = []
    val, param = maximize(
        f,
        2,
        QUICK,
        columns=1,
        sense="min",
        progress=lambda r, best: seen.append(best),
    )
    neg_val, neg_param = maximize(lambda b: -f(b), 2, QUICK, columns=1)
    assert val == -neg_val
    assert np.array_equal(param.angles, neg_param.angles)
    assert val <= 1e-6
    achieved = f(decode_unitary(param, columns=1)[None])[0]
    assert abs(val - achieved) <= 1e-12
    assert len(seen) == QUICK.restarts
    assert all(seen[i + 1] <= seen[i] for i in range(len(seen) - 1))
    assert seen[-1] == val


def test_progress_reports_running_best():
    target = haar_unitary(2, 19)[:, :1]
    seen = []
    cfg = OptimizerConfig(restarts=5, max_iters=60, tol=1e-4, seed=4)
    maximize(
        _overlap_batch(target),
        2,
        cfg,
        columns=1,
        progress=lambda r, best: seen.append((r, best)),
    )
    assert [r for r, _ in seen] == list(range(5))
    bests = [b for _, b in seen]
    assert all(bests[i + 1] >= bests[i] for i in range(len(bests) - 1))


def test_objective_errors_are_reported():
    def nan(blocks):
        return np.full(blocks.shape[0], np.nan)

    with pytest.raises(ObjectiveError):
        maximize(nan, 2, OptimizerConfig(restarts=1))

    def short(blocks):
        return np.zeros(max(blocks.shape[0] - 1, 0))

    with pytest.raises(ObjectiveError):
        maximize(short, 2, OptimizerConfig(restarts=1))


def test_maximize_validates_arguments():
    zero = lambda b: np.zeros(len(b))
    with pytest.raises(InvalidArgument):
        maximize(zero, 0, QUICK)
    with pytest.raises(InvalidArgument):
        maximize(zero, 2, QUICK, columns=3)
    with pytest.raises(InvalidArgument):
        maximize(zero, 2, QUICK, sense="lowest")


def test_maximize_needs_an_objective():
    with pytest.raises(InvalidArgument):
        maximize(None, 2, QUICK)
    with pytest.raises(InvalidArgument):
        maximize(batch_objective=None, dim=2, config=QUICK, columns=1, sense="min")
