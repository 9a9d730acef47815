import numpy as np
import pytest

from ci_toolkit import optim
from ci_toolkit.errors import InvalidArgument, NotPSD, ObjectiveError
from ci_toolkit.optim import (
    OptimizerConfig,
    Povm,
    _ascend,
    _backtrack,
    _directions,
    _dots,
    _evaluator,
    _flat,
    _hq,
    _Memory,
    _push,
    _polar,
    _tangent,
    _warm_isometry,
    haar_unitary,
    maximize,
    rank1_povm,
)

QUICK = OptimizerConfig(restarts=2, max_iters=60, tol=1e-4, seed=3)


def _overlap_batch(target):
    # |<target, V>|^2 per stacked isometry and its gradient 2 <target, V> target;
    # einsum keeps every row's arithmetic independent of the batch size
    def f(blocks):
        ov = np.einsum("bij,ij->b", blocks, target.conj())
        return np.real(ov * ov.conj()), 2.0 * ov[:, None, None] * target

    return f


def _const(blocks):
    return np.zeros(blocks.shape[0]), np.zeros(blocks.shape, dtype=complex)


def _peaks_batch(dim, seed, peaks=8, power=64):
    # sum_j c_j |<t_j, v>|^(2 power) on unit vectors of C^dim: a peak at each
    # t_j, of height about c_j, so restarts end on different local maxima
    targets = np.stack([haar_unitary(dim, seed + j)[:, 0] for j in range(peaks)])
    heights = 1.0 - 0.1 * np.arange(peaks)

    def f(blocks):
        # einsum rather than BLAS, so each row's arithmetic is its own
        z = np.einsum("bi,pi->bp", blocks[:, :, 0], targets.conj())
        q = np.real(z * z.conj())
        vals = np.sum(heights * q**power, axis=-1)
        coef = 2.0 * power * heights * q ** (power - 1) * z
        return vals, np.einsum("bp,pi->bi", coef, targets)[:, :, None]

    return f


def _ridge_batch(blocks):
    # Curved ridge in the Bloch coordinates (x, y) of the first column's top
    # two entries: its crest y = x^2 peaks at 0 at x = 1/2, y = 1/4, and
    # about 0.01 lower near x = -1/2. Steepest ascent crawls along the crest.
    a, b = blocks[:, 0, 0], blocks[:, 1, 0]
    c = a.conj() * b
    x, y = 2 * c.real, 2 * c.imag
    ridge = y - x * x
    vals = -(100.0 * ridge**2 + (x * x - 0.25) ** 2 + 0.01 * (x - 0.5) ** 2)
    fx = 400.0 * ridge * x - 4.0 * x * (x * x - 0.25) - 0.02 * (x - 0.5)
    fy = -200.0 * ridge
    grads = np.zeros(blocks.shape, dtype=complex)
    grads[:, 0, 0] = fx * 2 * b - fy * 2j * b
    grads[:, 1, 0] = fx * 2 * a + fy * 2j * a
    return vals, grads


def _starts(dim, cols, restarts):
    return [haar_unitary(dim, s)[:, :cols] for s in range(restarts)]


# --- Haar starts and POVMs ---------------------------------------------------


def test_haar_unitary_deterministic_and_unitary():
    u1 = haar_unitary(4, 9)
    u2 = haar_unitary(4, 9)
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(4))) <= 1e-12
    assert not np.allclose(u1, haar_unitary(4, 10))
    with pytest.raises(InvalidArgument):
        haar_unitary(0, 1)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_povm_rejects_non_finite_elements(bad):
    n = np.full((2, 2), bad, dtype=complex)
    with pytest.raises(InvalidArgument, match="element 0"):
        Povm(2, (n, np.eye(2) - n))
    diag = np.diag([bad, 0.0])
    with pytest.raises(InvalidArgument, match="element 1"):
        Povm(2, (np.diag([0.0, 1.0]), diag))


def test_povm_rejects_a_nan_isometry():
    iso = haar_unitary(4, 5)[:, :2]
    iso[2, 1] = np.nan
    with pytest.raises(InvalidArgument, match="element 2"):
        rank1_povm(iso, 2)


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
    # a K x c isometry reads the same as the unitary whose first columns it is
    assert np.array_equal(rank1_povm(u[:, :3], 2).vectors, povm.vectors)
    assert np.array_equal(rank1_povm(u[:, :2], 2).vectors, povm.vectors)
    with pytest.raises(InvalidArgument):
        rank1_povm(u[:2], 2)
    with pytest.raises(InvalidArgument):
        rank1_povm(u, 5)
    with pytest.raises(InvalidArgument):
        rank1_povm(u[:, :1], 2)


# --- gradient search ----------------------------------------------------------


def test_optimizer_config_validation():
    for kw in (
        {"restarts": 0},
        {"max_iters": 0},
        {"tol": 0.0},
        # NumPy seeds only with non-negative integers
        {"seed": -1},
    ):
        with pytest.raises(InvalidArgument):
            OptimizerConfig(**kw)


def test_search_steps_stay_isometries():
    seen = []

    def recording(f):
        def batch(blocks):
            seen.extend(blocks.copy())
            return f(blocks)

        return batch

    cfg = OptimizerConfig(restarts=4, max_iters=200)
    maximize(recording(_peaks_batch(3, 40)), 3, cfg, columns=1)
    maximize(recording(_ridge_batch), 4, cfg, columns=2)
    assert len(seen) > 100
    for v in seen:
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) <= 1e-12


@pytest.mark.parametrize("dim,cols", [(3, 2), (4, 1), (4, 2), (4, 4), (9, 3), (16, 4)])
def test_skipped_poll_coordinates_are_dead(dim, cols):
    # A step moves V only along the tangent part of its direction. The
    # normal part V S, S Hermitian, is skipped: c^2 of the 2Kc real
    # coordinates, which leaves K^2 - (K - c)^2 live ones. Moving along a
    # skipped coordinate retracts back onto V; moving along a live one does not.
    rng = np.random.default_rng(100 * dim + cols)
    v = haar_unitary(dim, 100 * dim + cols)[:, :cols]
    n = dim * cols

    def matrix(x):
        return (x[:n] + 1j * x[n:]).reshape(dim, cols)

    def real(z):
        return np.concatenate([z.real.ravel(), z.imag.ravel()])

    proj = np.stack([real(_tangent(v, matrix(e))) for e in np.eye(2 * n)], axis=1)
    assert np.max(np.abs(proj @ proj - proj)) <= 1e-12
    live = dim * dim - (dim - cols) ** 2
    assert np.linalg.matrix_rank(proj) == live

    for _ in range(5):
        h = rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols))
        s = h + h.conj().T
        s *= rng.uniform(0.1, 0.9) / np.linalg.norm(s, 2)  # 1 + S stays positive
        assert np.max(np.abs(_tangent(v, v @ s))) <= 1e-12
        assert np.max(np.abs(_polar(v + v @ s) - v)) <= 1e-12
    # an orthonormal basis of the live coordinates
    basis = np.linalg.svd(proj)[0][:, :live]
    for t in basis.T:
        assert np.max(np.abs(_polar(v + 0.5 * matrix(t)) - v)) >= 0.05


RIDGE = OptimizerConfig(restarts=8, max_iters=2000, tol=1e-6)


def test_quasi_newton_ends_the_ridge_crawl():
    evaluate = _evaluator(_ridge_batch, 1.0)
    v, value, steps = _ascend(evaluate, _starts(4, 2, RIDGE.restarts), RIDGE)
    # steepest ascent crawls along the crest for hundreds of steps; the
    # quasi-Newton direction follows its curvature
    assert steps.max() <= 200
    best = int(np.argmax(value))
    assert value[best] >= -1e-10
    c = v[best, 0, 0].conj() * v[best, 1, 0]
    assert abs(2 * c.real - 0.5) <= 1e-4 and abs(2 * c.imag - 0.25) <= 1e-4


def test_lockstep_restarts_equal_isolated_runs():
    cases = [
        (_overlap_batch(haar_unitary(3, 44)[:, :2]), 3, 2),
        (_overlap_batch(haar_unitary(16, 44)[:, :4]), 16, 4),
        (_peaks_batch(3, 7), 3, 1),
        (_ridge_batch, 4, 2),
    ]
    cfg = OptimizerConfig(restarts=4, max_iters=40, tol=1e-8, seed=1)
    for f, dim, cols in cases:
        evaluate = _evaluator(f, 1.0)
        starts = [haar_unitary(dim, s)[:, :cols] for s in (3, 5, 9, 12)]
        together = _ascend(evaluate, starts, cfg)
        assert np.any(together[2] > 3)
        for r in range(4):
            alone = _ascend(evaluate, starts[r : r + 1], cfg)
            for t, a in zip(together, alone):
                assert np.array_equal(t[r : r + 1], a)


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("dim,cols", [(4, 2), (9, 3), (16, 4)])
def test_stacked_kernels_equal_the_per_matrix_results(dim, cols, batch):
    # a round projects and retracts the stack of its restarts at once; each
    # row must be bit for bit the single-matrix result
    rng = np.random.default_rng(100 * dim + batch)
    v = np.stack([haar_unitary(dim, 100 * dim + b)[:, :cols] for b in range(batch)])
    z = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
    w = v + 0.3 * z
    tangent, polar = _tangent(v, z), _polar(w)
    # the (G, V' - V, xi) form: one isometry against three matrices
    zs = np.stack([z, w - v, 2.0 * z], axis=1)
    triple = _tangent(v[:, None], zs)
    for b in range(batch):
        assert np.array_equal(tangent[b], _tangent(v[b], z[b]))
        assert np.array_equal(polar[b], _polar(w[b]))
        for k in range(3):
            assert np.array_equal(triple[b, k], _tangent(v[b], zs[b, k]))


@pytest.mark.parametrize("restarts", [1, 2, 8])
def test_one_polar_retraction_per_round(monkeypatch, restarts):
    # one retraction aims the first trial points, and each round but the
    # last, where every restart has ended, makes exactly one more: over the
    # stack that the next objective call evaluates
    retracted, evaluated = [], []
    polar = optim._polar
    monkeypatch.setattr(optim, "_polar", lambda w: retracted.append(len(w)) or polar(w))

    def counting(blocks):
        evaluated.append(len(blocks))
        return _ridge_batch(blocks)

    cfg = OptimizerConfig(restarts=restarts, max_iters=60, tol=1e-8)
    _, _, steps = _ascend(_evaluator(counting, 1.0), _starts(4, 2, restarts), cfg)
    assert np.all(steps > 3)
    assert len(retracted) == len(evaluated) - 1
    assert retracted == evaluated[1:]


def test_a_rejected_trial_backtracks_to_the_quadratic_maximizer():
    # rows on phi(t) = value + slope t - c t^2, tried at alpha: the maximizer
    # slope / 2c inside [0.1, 0.5] alpha, and beyond each end, where it clips
    value = np.array([0.3, -2.0, 1.0, 0.0])
    slope = np.array([2.0, 0.5, 4.0, 1.0])
    alpha = np.array([1.0, 0.25, 0.5, 2.0])
    c = np.array([5.0, 4.0, 400.0, 0.49998])
    f = value + slope * alpha - c * alpha**2
    took = ~(f < value + optim._ARMIJO * alpha * slope)
    assert not took.any()
    with np.errstate(all="raise"):
        step = _backtrack(alpha, slope, value, f, took)
    assert step[:2] == pytest.approx(slope[:2] / (2.0 * c[:2]), rel=1e-14)
    assert step[2] == 0.1 * alpha[2] and step[3] == 0.5 * alpha[3]
    # a taken row keeps its alpha, even where the quadratic has no maximizer
    # (f = value + slope alpha divides by zero) or none above 0
    f = np.array([f[0], value[1] + slope[1] * alpha[1], value[2] + 9.0, f[3]])
    took = np.array([False, True, True, False])
    with np.errstate(all="raise"):
        mixed = _backtrack(alpha, slope, value, f, took)
    assert mixed[1] == alpha[1] and mixed[2] == alpha[2]
    assert mixed[0] == step[0] and mixed[3] == step[3]


def test_a_restart_that_rejects_every_trial_ends_at_the_backtrack_cap():
    # every trial point reads lower than the start, so every trial is
    # rejected: the restart ends after _BACKTRACKS + 1 of them, where it began
    grad = haar_unitary(4, 8)[:, :2]
    calls = []

    def falling(blocks):
        calls.append(len(blocks))
        vals = np.full(len(blocks), 0.0 if len(calls) == 1 else -1.0)
        return vals, np.broadcast_to(grad, blocks.shape).copy()

    start = haar_unitary(4, 9)[:, :2]
    cfg = OptimizerConfig(restarts=1, max_iters=2000, tol=1e-8)
    v, value, steps = _ascend(_evaluator(falling, 1.0), [start], cfg)
    assert calls == [1] * (1 + optim._BACKTRACKS + 1)
    assert np.array_equal(v[0], start) and value[0] == 0.0 and steps[0] == 0


def _same_memory(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_a_non_ascent_direction_falls_back_to_the_gradient():
    # the direction clears the L-BFGS memory and steps along xi when <xi, d> <= 0; the
    # pair (xi, -xi) makes H xi = -xi, so d = P_V(-xi) is no ascent direction
    v = haar_unitary(4, 5)[:, :2][None]
    xi = _tangent(v, haar_unitary(4, 6)[:, :2][None])
    norm2 = _dots(xi, xi)
    empty = _Memory.empty(1, 16)
    mem = _push(empty, _flat(xi), -_flat(xi), -norm2)
    d, slope, alpha, mem = _directions(v, xi, norm2, mem, first=True)
    assert _same_memory(mem, empty) and mem.gamma[0] == 0.0
    assert np.array_equal(d, xi)
    assert slope[0] == pytest.approx(np.vdot(xi, xi).real)
    assert alpha[0] == pytest.approx(optim._FIRST_STEP / np.sqrt(slope[0]))
    # an ascent direction is kept, and so is the memory
    other = _tangent(v, haar_unitary(4, 7)[:, :2][None])
    mem = _push(empty, _flat(other), 2.0 * _flat(other), 2.0 * _dots(other, other))
    d, slope, alpha, kept = _directions(v, xi, norm2, mem, first=False)
    assert _same_memory(kept, mem) and kept.gamma[0] > 0.0
    hxi = _hq(mem, _flat(xi)).view(complex).reshape(xi.shape)
    assert np.array_equal(d, _tangent(v, hxi))
    assert slope[0] > 0.0 and alpha[0] == 1.0


def test_a_later_step_is_at_most_unit_length():
    # a pair (s, s / c) gives H = c 1, so D = c xi for a unit xi: rows with c
    # from 1e-3 to 1e4 step alpha = min(1, 1 / ||D||), so no trial lands
    # farther than unit Frobenius length from V, and a direction of at most
    # unit length keeps alpha = 1; each row as it is alone
    scales = np.array([1e-3, 0.5, 0.999, 1.001, 20.0, 1e4])
    n = len(scales)
    v = np.stack([haar_unitary(4, 20 + i)[:, :2] for i in range(n)])
    xi = _tangent(v, np.stack([haar_unitary(4, 40 + i)[:, :2] for i in range(n)]))
    xi = xi / np.sqrt(_dots(xi, xi))[:, None, None]
    norm2 = _dots(xi, xi)
    y = xi / scales[:, None, None]
    mem = _push(_Memory.empty(n, 16), _flat(xi), _flat(y), _dots(y, xi))
    d, slope, alpha, _ = _directions(v, xi, norm2, mem, first=False)
    length = np.sqrt(_dots(d, d))
    np.testing.assert_allclose(length, scales, rtol=1e-12)
    assert np.all(alpha * length <= 1.0 + 1e-15)
    assert np.all(alpha[length <= 1.0] == 1.0)
    assert alpha[length > 1.0] * length[length > 1.0] == pytest.approx(1.0, rel=1e-15)
    for i in range(n):
        row = slice(i, i + 1)
        alone = _directions(v[row], xi[row], norm2[row], mem.rows(row), first=False)
        assert alone[2][0] == alpha[i] and np.array_equal(alone[0][0], d[i])
    # a restart's first step keeps length 0.1 along xi, however long xi is
    big = xi * scales[:, None, None]
    d, _, alpha, _ = _directions(v, big, _dots(big, big), _Memory.empty(n, 16), first=True)
    assert np.array_equal(d, big)
    np.testing.assert_allclose(alpha * np.sqrt(_dots(d, d)), optim._FIRST_STEP, rtol=1e-14)


def test_a_long_quasi_newton_direction_trials_within_unit_length(monkeypatch):
    # on the ridge from this start the memory yields directions hundreds of
    # times longer than unit; each trial point is the retraction of
    # V + alpha D, which the spies pair with the V and D of its round: the
    # first trial has length 0.1, and none is longer than 1
    rounds, trials = [], []
    directions, polar = optim._directions, optim._polar

    def directions_spy(v, *args, **kwargs):
        out = directions(v, *args, **kwargs)
        rounds.append((v, out[0]))
        return out

    def polar_spy(w):
        trials.append(w)
        return polar(w)

    monkeypatch.setattr(optim, "_directions", directions_spy)
    monkeypatch.setattr(optim, "_polar", polar_spy)
    cfg = OptimizerConfig(restarts=1, max_iters=200, tol=1e-8)
    _, _, steps = _ascend(_evaluator(_ridge_batch, 1.0), [haar_unitary(4, 7)[:, :2]], cfg)
    assert steps[0] > 10 and len(trials) == len(rounds) - 1
    longest = max(float(np.sqrt(_dots(d, d)).max()) for _, d in rounds[:-1])
    assert longest > 100.0
    lengths = [float(np.sqrt(_dots(w - v, w - v))[0]) for w, (v, _) in zip(trials, rounds)]
    assert lengths[0] == pytest.approx(optim._FIRST_STEP, rel=1e-12)
    assert max(lengths) <= 1.0 + 1e-12


def _dense_bfgs(pairs, q):
    # the inverse Hessian built pair by pair: H_0 = gamma I from the newest
    # pair, then H <- V^T H V + rho s s^T with V = I - rho y s^T, oldest first
    s, y = pairs[-1]
    h = (s @ y) / (y @ y) * np.eye(len(q))
    for s, y in pairs:
        rho = 1.0 / (s @ y)
        w = np.eye(len(q)) - rho * np.outer(y, s)
        h = w.T @ h @ w + rho * np.outer(s, s)
    return h @ q


def _curvature_pairs(n, count, seed):
    # pairs (s, A s) of a fixed positive definite A, so every <s, y> > 0
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a @ a.T / n + np.eye(n)
    return [(s, a @ s) for s in rng.standard_normal((count, n))]


@pytest.mark.parametrize("n", [8, 32])
def test_compact_form_equals_the_dense_bfgs_inverse_hessian(n):
    # one stack of memories, pushed in lockstep as `_ascend` pushes them: a
    # row takes its next pair on the rounds its schedule marks.  Rows hold 1..8
    # pairs; one has filled and shifted out three; one is empty; one skips
    # two rounds midway; one is cleared flat after five pairs and refilled
    # with three, as `_directions` clears it; one is dropped from the stack
    # after round 6, as an ended restart is
    m = optim._MEMORY
    rounds = m + 3
    dropped = 4
    schedule = [range(count) for count in range(1, m + 1)]
    schedule.insert(dropped, range(rounds))
    schedule += [range(rounds), range(0), [0, 1, 2, 5, 6], range(8)]
    rows = len(schedule)
    full, skipping, flat = rows - 4, rows - 2, rows - 1
    pairs = [_curvature_pairs(n, len(when), seed=100 * n + k) for k, when in enumerate(schedule)]
    mem, alive = _Memory.empty(rows, n), np.arange(rows)
    held = [[] for _ in range(rows)]
    for t in range(rounds):
        push = np.array([t in schedule[k] for k in alive])
        if push.any():
            new = [pairs[k][list(schedule[k]).index(t)] for k in alive[push]]
            s, y = np.array([p[0] for p in new]), np.array([p[1] for p in new])
            pushed = _push(mem.rows(push), s, y, np.einsum("ij,ij->i", s, y))
            for kept, rows_pushed in zip(mem, pushed):
                kept[push] = rows_pushed
            for k, pair in zip(alive[push], new):
                held[k].append(pair)
        if t == 4:
            clear = alive == flat
            mem = _Memory.empty(len(alive), n).where(clear, mem)
            held[flat] = []
        if t == 6:
            live = alive != dropped
            mem, alive = mem.rows(live), alive[live]
    assert dropped not in alive and len(alive) == rows - 1
    assert len(held[skipping]) == 5 and len(held[flat]) == 3 and len(held[full]) == rounds
    qs = np.random.default_rng(n).standard_normal((len(alive), n))
    hq = _hq(mem, qs)
    for i, k in enumerate(alive):
        kept = held[k][-m:]
        if not kept:
            assert not hq[i].any() and mem.gamma[i] == 0.0
            continue
        want = _dense_bfgs(kept, qs[i])
        assert np.linalg.norm(hq[i] - want) <= 1e-12 * np.linalg.norm(want)
        # the kept small matrices are the ones the pairs give, rebuilt
        s, y = (np.array([p[j] for p in kept]) for j in (0, 1))
        used = slice(m - len(kept), m)
        r = np.triu(s @ y.T)
        np.testing.assert_allclose(mem.rinv[i, used, used] @ r, np.eye(len(kept)), atol=1e-12)
        np.testing.assert_allclose(mem.yy[i, used, used], y @ y.T, rtol=1e-13)
        np.testing.assert_allclose(mem.sy[i, used], np.diag(r), rtol=1e-13)
        # each row is its own, bit for bit
        alone = _hq(mem.rows([i]), qs[i][None])
        assert np.array_equal(alone[0], hq[i])


@pytest.mark.parametrize("dim,cols", [(2, 1), (4, 2), (16, 4)])
def test_stacked_inner_product_is_vdot_row_by_row(dim, cols):
    # on a strided slice too, as a round reads its rows out of one projection
    rng = np.random.default_rng(dim)
    z = rng.standard_normal((5, 3, dim, cols)) + 1j * rng.standard_normal((5, 3, dim, cols))
    a, b = z[:, 0], z[:, 2]
    dots = _dots(a, b)
    for i in range(5):
        assert dots[i] == np.vdot(a[i], b[i]).real
    # the real coordinates pair real parts with real parts
    flat = _flat(a) @ _flat(b)[0]
    np.testing.assert_allclose(flat, [np.vdot(x, b[0]).real for x in a], rtol=1e-13)


def test_agreeing_scouts_open_no_more_restarts():
    # one optimum, so the eight scouts all end on it
    f = _overlap_batch(haar_unitary(2, 31)[:, :1])
    rows = []

    def recording(blocks):
        rows.append(blocks.shape[0])
        return f(blocks)

    maximize(recording, 2, OptimizerConfig(restarts=32, max_iters=2000, tol=1e-6), columns=1)
    # the eight scouts run together, and no other restart ever runs
    assert rows[0] == 8 and max(rows) == 8


def _seeds(cfg):
    # the Haar seeds of a search's restarts, in restart order
    return np.random.SeedSequence(cfg.seed).generate_state(cfg.restarts)


def _spy_draws(monkeypatch):
    # the seeds of every Haar start drawn, in draw order, across the stacked
    # draws of the opened blocks
    draws = []
    stack = optim._haar_stack

    def spy(dim, seeds):
        draws.extend(int(s) for s in seeds)
        return stack(dim, seeds)

    monkeypatch.setattr(optim, "_haar_stack", spy)
    return draws


def test_unopened_restarts_are_never_drawn(monkeypatch):
    # the scouts agree, so 8 of 32 restarts open: each is drawn once, and
    # the other 24 are never drawn
    f = _overlap_batch(haar_unitary(2, 31)[:, :1])
    draws = _spy_draws(monkeypatch)
    cfg = OptimizerConfig(restarts=32, max_iters=2000, tol=1e-6)
    maximize(f, 2, cfg, columns=1)
    assert draws == [int(s) for s in _seeds(cfg)[:8]]


def test_lazy_starts_keep_the_eager_isometries(monkeypatch):
    cfg = OptimizerConfig(restarts=5, seed=11)
    warm = haar_unitary(3, 2)
    seen = []
    ascend = optim._ascend
    monkeypatch.setattr(optim, "_ascend", lambda e, st, c: seen.extend(st) or ascend(e, st, c))
    maximize(_overlap_batch(haar_unitary(3, 5)[:, :2]), 3, cfg, columns=2, warm_starts=[warm])
    eager = [warm[:, :2]] + [haar_unitary(3, int(s))[:, :2] for s in _seeds(cfg)]
    assert len(seen) == len(eager) == 6
    for got, want in zip(seen, eager):
        assert np.array_equal(got, want)


def test_disagreeing_scouts_open_every_restart(monkeypatch):
    f = _peaks_batch(3, 60)
    cfg = OptimizerConfig(restarts=16, max_iters=2000, tol=1e-6)
    evaluate = _evaluator(f, 1.0)
    scouts = [haar_unitary(3, int(s))[:, :1] for s in _seeds(cfg)[:8]]
    _, ends, _ = _ascend(evaluate, scouts, cfg)
    # the eight scouts end on different peaks, fewer than four of them
    # within tol of the best
    assert np.count_nonzero(ends.max() - ends <= cfg.tol) < 4
    # so every restart opens, each drawing its Haar start once
    draws = _spy_draws(monkeypatch)
    maximize(f, 3, cfg, columns=1)
    assert draws == [int(s) for s in _seeds(cfg)]


def test_maximize_recovers_target_state():
    target = haar_unitary(2, 31)[:, :1]
    cfg = OptimizerConfig(restarts=8, max_iters=2000, tol=1e-6, seed=2)
    val, v = maximize(_overlap_batch(target), 2, cfg, columns=1)
    assert val >= 1.0 - 1e-12
    assert v.shape == (2, 1)
    assert abs(np.vdot(target, v)) >= 1.0 - 1e-12


def test_maximize_deterministic():
    target = haar_unitary(3, 8)[:, :2]
    f = _overlap_batch(target)
    a = maximize(f, 3, QUICK, columns=2)
    b = maximize(f, 3, QUICK, columns=2)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_tie_break_keeps_lowest_restart_index():
    one = maximize(_const, 2, OptimizerConfig(restarts=1, seed=6))
    eight = maximize(_const, 2, OptimizerConfig(restarts=8, seed=6))
    assert one[0] == eight[0] == 0.0
    assert np.array_equal(one[1], eight[1])


def test_warm_start_searched_first_and_never_lost():
    target = haar_unitary(3, 27)[:, :2]
    f = _overlap_batch(target)
    val, v = maximize(f, 3, QUICK, columns=2, warm_starts=(target,))
    # the warm start already achieves the global optimum
    assert val >= f(target[None])[0][0] - 1e-12

    _, v = maximize(_const, 3, QUICK, columns=2, warm_starts=(target,))
    assert np.array_equal(v, target)
    # a unitary counts by its first columns
    unitary = haar_unitary(3, 28)
    _, v = maximize(_const, 3, QUICK, columns=2, warm_starts=(unitary,))
    assert np.array_equal(v, unitary[:, :2])
    with pytest.raises(InvalidArgument):
        maximize(f, 3, QUICK, columns=2, warm_starts=(target[:, :1],))
    with pytest.raises(InvalidArgument):
        maximize(f, 3, QUICK, columns=2, warm_starts=(2.0 * target,))


def test_encode_rejects_bad_input():
    # a warm start enters the search as its first columns, checked
    with pytest.raises(InvalidArgument):
        _warm_isometry(np.zeros((2, 3)), 2, 1)
    with pytest.raises(InvalidArgument):
        _warm_isometry(np.eye(2) * 1.5, 2, 1)
    with pytest.raises(InvalidArgument):
        _warm_isometry(np.eye(3), 2, 1)
    with pytest.raises(InvalidArgument):
        _warm_isometry(np.eye(2)[:, :1], 2, 2)
    u = haar_unitary(3, 30)
    assert np.array_equal(_warm_isometry(u, 3, 2), u[:, :2])


def test_sense_min_is_negated_maximize():
    target = haar_unitary(2, 12)[:, :1]
    f = _overlap_batch(target)
    val, v = maximize(f, 2, QUICK, columns=1, sense="min")

    def negated(blocks):
        vals, grads = f(blocks)
        return -vals, -grads

    neg_val, neg_v = maximize(negated, 2, QUICK, columns=1)
    assert val == -neg_val
    assert np.array_equal(v, neg_v)
    assert val <= 1e-6
    achieved = f(v[None])[0][0]
    assert abs(val - achieved) <= 1e-12


def test_objective_errors_are_reported():
    def nan(blocks):
        return np.full(blocks.shape[0], np.nan), np.zeros(blocks.shape, dtype=complex)

    def nan_gradient(blocks):
        return np.zeros(blocks.shape[0]), np.full(blocks.shape, np.nan, dtype=complex)

    def short(blocks):
        return np.zeros(max(blocks.shape[0] - 1, 0)), np.zeros(blocks.shape, dtype=complex)

    def flat_gradient(blocks):
        return np.zeros(blocks.shape[0]), np.zeros(blocks.shape[0])

    def values_only(blocks):
        return _const(blocks)[0]

    for bad in (nan, nan_gradient, short, flat_gradient, values_only):
        with pytest.raises(ObjectiveError):
            maximize(bad, 2, OptimizerConfig(restarts=1))


def test_maximize_validates_arguments():
    with pytest.raises(InvalidArgument):
        maximize(_const, 0, QUICK)
    with pytest.raises(InvalidArgument):
        maximize(_const, 2, QUICK, columns=3)
    with pytest.raises(InvalidArgument):
        maximize(_const, 2, QUICK, sense="lowest")


def test_maximize_needs_an_objective():
    with pytest.raises(InvalidArgument):
        maximize(None, 2, QUICK)
    with pytest.raises(InvalidArgument):
        maximize(batch_objective=None, dim=2, config=QUICK, columns=1, sense="min")


@pytest.mark.parametrize("dim", [2, 4, 9])
@pytest.mark.parametrize("step", [1e-6, 1e-2, 1.0, 10.0])
def test_two_column_polar_matches_the_svd_polar(dim, step):
    # c = 2 takes the closed form w adj(A + s 1) / (s t); at a tangent step,
    # near the isometry or far from it, it is the SVD's U W^dagger and an
    # isometry to rounding
    rng = np.random.default_rng(int(dim / step) + dim)
    v = np.stack([haar_unitary(dim, 700 + b)[:, :2] for b in range(6)])
    z = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
    d = _tangent(v, z)
    w = v + step * d / np.linalg.norm(d, axis=(1, 2))[:, None, None]
    with np.errstate(all="raise"):
        polar = _polar(w)
    u, _, vh = np.linalg.svd(w, full_matrices=False)
    assert np.max(np.abs(polar - u @ vh)) <= 1e-13
    gram = np.conj(np.swapaxes(polar, 1, 2)) @ polar
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-14
