import numpy as np
import pytest

from ci_toolkit import optim
from ci_toolkit.errors import InvalidArgument, NotPSD, ObjectiveError
from ci_toolkit.optim import (
    OptimizerConfig,
    Povm,
    _ascend,
    _directions,
    _dots,
    _evaluator,
    _flat,
    _hq,
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


def test_a_non_ascent_direction_falls_back_to_the_gradient():
    # the direction clears the L-BFGS memory and steps along xi when <xi, d> <= 0; the
    # pair (xi, -xi) makes H xi = -xi, so d = P_V(-xi) is no ascent direction
    v = haar_unitary(4, 5)[:, :2][None]
    xi = _tangent(v, haar_unitary(4, 6)[:, :2][None])
    norm2 = _dots(xi, xi)
    empty = np.zeros((1, 2 * optim._MEMORY, 16))
    mem = _push(empty, _flat(xi), -_flat(xi))
    d, slope, alpha, mem, held = _directions(v, xi, norm2, mem, np.array([1]), first=True)
    assert not mem.any() and held[0] == 0
    assert np.array_equal(d, xi)
    assert slope[0] == pytest.approx(np.vdot(xi, xi).real)
    assert alpha[0] == pytest.approx(optim._FIRST_STEP / np.sqrt(slope[0]))
    # an ascent direction is kept, and so is the memory
    other = _tangent(v, haar_unitary(4, 7)[:, :2][None])
    mem = _push(empty, _flat(other), 2.0 * _flat(other))
    d, slope, alpha, kept, held = _directions(v, xi, norm2, mem, np.array([1]), first=False)
    assert np.array_equal(kept, mem) and held[0] == 1
    hxi = _hq(mem, held, _flat(xi)).view(complex).reshape(xi.shape)
    assert np.array_equal(d, _tangent(v, hxi))
    assert slope[0] > 0.0 and alpha[0] == 1.0


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
    # rows holding 1..8 pairs, one that has filled and shifted out three
    # pairs, and an empty one, stacked in one call
    counts = list(range(1, optim._MEMORY + 1)) + [optim._MEMORY + 3, 0]
    rng = np.random.default_rng(n)
    mems, qs, pairs = [], [], []
    for k, count in enumerate(counts):
        row = _curvature_pairs(n, count, seed=100 * n + k)
        mem = np.zeros((1, 2 * optim._MEMORY, n))
        for s, y in row:
            mem = _push(mem, s[None], y[None])
        mems.append(mem[0])
        qs.append(rng.standard_normal(n))
        pairs.append(row[-optim._MEMORY :])
    held = np.minimum(counts, optim._MEMORY)
    hq = _hq(np.stack(mems), held, np.stack(qs))
    for k, count in enumerate(counts):
        if count == 0:
            assert not hq[k].any()
            continue
        want = _dense_bfgs(pairs[k], qs[k])
        assert np.linalg.norm(hq[k] - want) <= 1e-12 * np.linalg.norm(want)
        # each row is its own, bit for bit
        alone = _hq(mems[k][None], held[k : k + 1], qs[k][None])
        assert np.array_equal(alone[0], hq[k])


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


def test_unopened_restarts_are_never_drawn(monkeypatch):
    # the scouts agree, so 8 of 32 restarts open: each is drawn once, and
    # the other 24 are never drawn
    draws = []
    haar = optim.haar_unitary
    monkeypatch.setattr(optim, "haar_unitary", lambda n, s: draws.append(s) or haar(n, s))
    cfg = OptimizerConfig(restarts=32, max_iters=2000, tol=1e-6)
    maximize(_overlap_batch(haar_unitary(2, 31)[:, :1]), 2, cfg, columns=1)
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
    draws = []
    haar = optim.haar_unitary
    monkeypatch.setattr(optim, "haar_unitary", lambda n, s: draws.append(s) or haar(n, s))
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
