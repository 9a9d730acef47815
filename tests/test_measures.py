import math
from dataclasses import replace

import numpy as np
import pytest

from ci_toolkit import info, measures
from ci_toolkit.errors import (
    DimensionTooLarge,
    DuplicateParty,
    InvalidPartition,
    LayoutMismatch,
    UnknownParty,
)
from ci_toolkit.info import (
    Partition,
    _entropy_log_stack,
    _entropy_stack,
    _plogp,
    _pure_entropy_stack,
    matrix_entropy,
    mutual_info,
    spectrum_entropy,
    vn_entropy,
)
from ci_toolkit.measures import (
    EXACT,
    LOWER,
    UPPER,
    Bracket,
    _block_factors,
    _block_weights,
    _register_info,
    coherent_info_lower,
    discord,
    ed_interval,
    eoa,
    eof,
    flag_state,
    kw_discord,
    log_negativity,
    measure_ensemble,
    one_way_ci,
    povm_flag_mutual_info,
    regularized_eoa,
)
from ci_toolkit.optim import (
    OptimizerConfig,
    Povm,
    _ascend,
    _evaluator,
    haar_unitary,
    rank1_povm,
)
from ci_toolkit.states import (
    Ensemble,
    Mstate,
    PureState,
    SystemLayout,
    marginal,
    preset,
    purify,
    random_mixed_state,
    random_pure_state,
)
from ci_toolkit.suites import _TAG_KW, _TWO_QUBITS, _split
from ci_toolkit.tolerances import ZERO

QUICK = OptimizerConfig(restarts=4, max_iters=500, tol=1e-5, seed=13)
TWO = SystemLayout((("A", 2), ("B", 2)))

COMPUTATIONAL = rank1_povm(np.eye(2, dtype=complex), 2)


def _sep_mixture():
    # halves of |00> and |++>: separable, so formation entanglement is zero
    v00 = np.array([1.0, 0, 0, 0])
    vpp = np.full(4, 0.5)
    return Mstate(TWO, 0.5 * np.outer(v00, v00) + 0.5 * np.outer(vpp, vpp))


# --- measurement plumbing ----------------------------------------------------


def test_measure_ensemble_classical_state():
    ens = measure_ensemble(preset("classical_classical"), COMPUTATIONAL, "B")
    assert np.allclose(ens.weights, [0.5, 0.5])
    assert ens.layout.labels == ("A",)
    assert np.allclose(ens.members[0].matrix, np.diag([1.0, 0.0]))
    assert np.allclose(ens.members[1].matrix, np.diag([0.0, 1.0]))


def test_measure_ensemble_average_is_marginal():
    rho = random_mixed_state(TWO, 71)
    povm = rank1_povm(haar_unitary(4, 72), 2)
    ens = measure_ensemble(rho, povm, "B")
    rho_a = marginal(rho, "A")
    assert np.max(np.abs(ens.average().matrix - rho_a.matrix)) <= 1e-12


def test_measure_ensemble_drops_zero_weight_outcomes():
    zero_b = Mstate(TWO, np.kron(np.eye(2) / 2.0, np.diag([1.0, 0.0])))
    ens = measure_ensemble(zero_b, COMPUTATIONAL, "B")
    assert len(ens.members) == 1
    assert np.isclose(ens.weights[0], 1.0)


@pytest.mark.parametrize("db", [2, 3], ids=["qubit", "qutrit"])
def test_single_outcome_povm_learns_nothing(db):
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", db), ("C", 2))), 40 + db)
    identity = Povm(db, (np.eye(db),))
    ens = measure_ensemble(rho, identity, "B")
    assert len(ens.members) == 1
    rho_ac = marginal(rho, ("A", "C"))
    assert np.max(np.abs(ens.members[0].matrix - rho_ac.matrix)) <= 1e-12
    assert abs(povm_flag_mutual_info(rho, identity, "B")) <= 1e-12
    i_ac = mutual_info(rho, Partition("A", "C"))
    assert abs(_register_info(rho, identity) - i_ac) <= 1e-12


def test_measure_ensemble_layout_errors():
    rho = preset("classical_classical")
    with pytest.raises(UnknownParty):
        measure_ensemble(rho, COMPUTATIONAL, "Q")
    wide = rank1_povm(haar_unitary(3, 1), 3)
    with pytest.raises(LayoutMismatch):
        measure_ensemble(rho, wide, "B")


def test_flag_state_blocks_and_register():
    ens = measure_ensemble(preset("classical_classical"), COMPUTATIONAL, "B")
    flagged = flag_state(ens, "R")
    assert flagged.layout.parties == (("A", 2), ("R", 2))
    assert np.isclose(flagged.matrix[0, 0].real, 0.5)  # w0 * |0><0| in slot 0
    assert np.isclose(flagged.matrix[3, 3].real, 0.5)  # w1 * |1><1| in slot 1
    back = marginal(flagged, "A")
    assert np.max(np.abs(back.matrix - ens.average().matrix)) <= 1e-12
    with pytest.raises(DuplicateParty):
        flag_state(ens, "A")


def test_flag_state_pads_singleton_register():
    member = Mstate(SystemLayout((("A", 2),)), np.eye(2) / 2.0)
    flagged = flag_state(Ensemble((1.0,), (member,)), "R")
    assert flagged.layout.dim_of("R") == 2


def test_flag_state_checks_the_dimension_cap():
    # 16-dimensional members: four outcomes fit the cap, five do not
    members = tuple(
        random_mixed_state(SystemLayout((("A", 4), ("B", 4))), 20 + i) for i in range(5)
    )
    assert flag_state(Ensemble((0.25,) * 4, members[:4])).layout.total_dim == 64
    with pytest.raises(DimensionTooLarge, match="A:4,B:4,R:5"):
        flag_state(Ensemble((0.2,) * 5, members))


def test_povm_flag_mutual_info_reads_out_a_bit():
    assert np.isclose(
        povm_flag_mutual_info(preset("classical_classical"), COMPUTATIONAL, "B"),
        1.0,
        atol=1e-12,
    )
    bell = preset("bell")
    assert np.isclose(povm_flag_mutual_info(bell, COMPUTATIONAL, "B"), 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("outcomes", [2, 4])
def test_povm_flag_mutual_info_equals_the_flag_state_value(seed, outcomes):
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), seed)
    povm = rank1_povm(haar_unitary(outcomes, 10 + seed), 2)
    flagged = flag_state(measure_ensemble(rho, povm, "B"), "R")
    expected = mutual_info(flagged, Partition(("A", "C"), "R"))
    assert abs(povm_flag_mutual_info(rho, povm, "B") - expected) <= 1e-12


def test_povm_flag_mutual_info_on_the_family15_two_copy_pair():
    # two copies of family15 with A,C merged into X and B into Y, ordered
    # X1 X2 Y1 Y2; the 16-outcome flagged state is 256-dimensional, so the
    # reference is the bare block-diagonal matrix, one 256 x 256 eigensolve
    one = preset("family15", (math.cos(math.pi / 8.0),)).matrix
    one = one.reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
    two = np.kron(one, one).reshape(4, 2, 4, 2, 4, 2, 4, 2)
    pair = Mstate(
        SystemLayout((("X", 16), ("Y", 4))),
        two.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(64, 64),
    )
    povm = rank1_povm(haar_unitary(16, 21), 4)
    ens = measure_ensemble(pair, povm, "Y")
    joint = np.zeros((16 * len(ens.members),) * 2, dtype=complex)
    for i, (w, m) in enumerate(zip(ens.weights, ens.members)):
        joint[16 * i : 16 * (i + 1), 16 * i : 16 * (i + 1)] = w * m.matrix
    expected = (
        vn_entropy(ens.average())
        + spectrum_entropy(np.asarray(ens.weights))
        - matrix_entropy(joint)
    )
    assert abs(povm_flag_mutual_info(pair, povm, "Y") - expected) <= 1e-12


@pytest.mark.parametrize("weight", [1e-13, 5e-13, 1.4e-12, 2.4e-12, 4.7e-12, 5e-11])
def test_splitting_an_outcome_leaves_the_measured_information_unchanged(weight):
    # M_0 -> t M_0, (1 - t) M_0 has the same posterior on both halves, so the
    # register carries no more information; the split-off half has
    # probability ``weight``, down where an eigenvalue cut at 1e-12 would bite
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 311)
    base = rank1_povm(haar_unitary(4, 312), 2)
    v = base.vectors
    rho_b = np.einsum("aybazb->yz", rho.matrix.reshape((2,) * 6))
    t = weight / float(np.real(v[0].conj() @ rho_b @ v[0]))
    vecs = np.vstack([math.sqrt(t) * v[0], math.sqrt(1.0 - t) * v[0], v[1:]])
    split = Povm(2, tuple(np.outer(x, x.conj()) for x in vecs), vectors=vecs)
    # what one_way_ci reports for a POVM on B between A and C
    assert abs(_register_info(rho, split) - _register_info(rho, base)) <= 1e-13
    unsplit = povm_flag_mutual_info(rho, base, "B")
    assert abs(povm_flag_mutual_info(rho, split, "B") - unsplit) <= 1e-13


def _einsum_blocks(rho, povm, party):
    # the element-by-element contraction `_outcome_blocks` replaced, kept as
    # the reference
    layout = rho.layout
    idx = layout.index(party)
    d = layout.dim_of(party)
    before = math.prod(layout.dims[:idx])
    dk = layout.total_dim // d
    t = rho.matrix.reshape(before, d, dk // before, before, d, dk // before)
    sig = np.einsum("iyajzb,kzy->kiajb", t, np.array(povm.elements))
    return sig.reshape(len(povm), dk, dk)


def _rank_two_povm(d, seed):
    # pairs of the d^2 rank-one elements of a Haar isometry, summed
    v = rank1_povm(haar_unitary(d * d, seed), d).vectors
    elems = [np.outer(a, a.conj()) + np.outer(b, b.conj()) for a, b in zip(v[0::2], v[1::2])]
    if len(v) % 2:
        elems.append(np.outer(v[-1], v[-1].conj()))
    return Povm(d, tuple(elems))


@pytest.mark.parametrize(
    "dims,party",
    [((2, 2, 2), "A"), ((2, 2, 2), "B"), ((2, 2, 2), "C"), ((2, 3, 2), "B"), ((2, 2, 3), "C")],
)
@pytest.mark.parametrize("rank_one", [True, False], ids=["rank-one", "rank-two"])
def test_outcome_blocks_match_the_einsum_contraction(dims, party, rank_one):
    layout = SystemLayout(tuple(zip("ABC", dims)))
    rho = random_mixed_state(layout, 17 + sum(dims))
    d = layout.dim_of(party)
    povm = rank1_povm(haar_unitary(d * d, 5), d) if rank_one else _rank_two_povm(d, 5)
    kept, sig, p = measures._outcome_blocks(rho, povm, party)
    ref = _einsum_blocks(rho, povm, party)
    assert kept.labels == tuple(l for l in "ABC" if l != party)
    assert np.max(np.abs(sig - ref)) <= 1e-15
    assert np.array_equal(p, np.clip(np.real(np.trace(sig, axis1=1, axis2=2)), 0.0, None))


def test_measured_quantities_take_no_matrix_entropy(monkeypatch):
    # every entropy of the whole or of a marginal is a stored spectrum; the
    # outcome blocks go through the batched kernel
    def refuse(m):
        raise AssertionError("matrix_entropy called")

    monkeypatch.setattr(measures, "matrix_entropy", refuse)
    monkeypatch.setattr("ci_toolkit.info.matrix_entropy", refuse)
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 23)
    one_way_ci(rho, "A", "B", "C", QUICK)
    one_way_ci(preset("w"), "A", "B", "C", QUICK)
    discord(rho, ("A", "C"), "B", QUICK)
    discord(preset("family15", [0.9]), ("A", "C"), "B", QUICK)
    povm_flag_mutual_info(rho, rank1_povm(haar_unitary(4, 3), 2), "B")


def test_discord_reads_s_x_from_one_marginal(monkeypatch):
    # the objective and the classical correlation share one S(X), and
    # I(X:Y) reads it again in `info._mutual_info`: two reads of the stored
    # spectrum of one marginal Mstate
    read = []
    for module in (measures, info):
        real = module.vn_entropy

        def spy(state, real=real):
            read.append(state)
            return real(state)

        monkeypatch.setattr(module, "vn_entropy", spy)
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 29)
    est = discord(rho, ("A", "C"), "B", QUICK)
    x_reads = [s for s in read if s.layout.labels == ("(A+C)",)]
    assert len(x_reads) == 2
    assert all(s is x_reads[0] for s in x_reads)
    assert est.info["mutual_info"] > est.info["classical_correlation"] > 0.0


def _captured_objectives(monkeypatch):
    seen = []
    real = measures.maximize

    def spy(**kwargs):
        seen.append(kwargs["batch_objective"])
        return real(**kwargs)

    monkeypatch.setattr(measures, "maximize", spy)
    return seen


def test_one_way_objective_at_the_achiever_is_the_reported_value(monkeypatch):
    seen = _captured_objectives(monkeypatch)
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 31)
    est = one_way_ci(rho, "A", "B", "C", QUICK)
    (batch,) = seen
    at_achiever = float(batch(est.achiever.vectors[None])[0][0])
    assert abs(at_achiever - est.value) <= 1e-12


def test_discord_objective_at_the_achiever_is_the_reported_value(monkeypatch):
    seen = _captured_objectives(monkeypatch)
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 37)
    est = discord(rho, ("A", "C"), "B", QUICK)
    (batch,) = seen
    classical = float(batch(est.achiever.vectors[None])[0][0])
    assert abs(classical - est.info["classical_correlation"]) <= 1e-12
    assert abs(est.info["mutual_info"] - classical - est.value) <= 1e-12


# --- discord -------------------------------------------------------------------


def test_discord_bell_is_one():
    est = discord(preset("bell"), "A", "B", QUICK)
    assert abs(est.value - 1.0) <= 2e-3
    assert est.direction == UPPER
    assert np.isclose(est.info["mutual_info"], 2.0, atol=1e-12)
    assert est.info["measured_party"] == "B"
    assert est.info["outcomes"] == 4
    assert np.isclose(
        est.value,
        max(est.info["mutual_info"] - est.info["classical_correlation"], 0.0),
        atol=1e-15,
    )


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0, -1.0]).astype(complex),
)


def _bell_diagonal_eigenvalues(c):
    c1, c2, c3 = c
    return np.array(
        [1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3]
    ) / 4


def _luo_discord(c):
    """Luo's closed form (PRA 77, 042303) for (I + sum_j c_j s_j x s_j) / 4."""
    lam = _bell_diagonal_eigenvalues(c)
    lam = lam[lam > 0]
    mutual = 2.0 + float(np.sum(lam * np.log2(lam)))
    m = float(np.max(np.abs(c)))
    classical = sum((1 + s * m) / 2 * math.log2(1 + s * m) for s in (1, -1) if 1 + s * m > 0)
    return mutual - classical


def _bell_diagonal_states():
    rng = np.random.default_rng(42)
    cs = []
    while len(cs) < 4:
        c = rng.uniform(-1.0, 1.0, 3)
        if _bell_diagonal_eigenvalues(c).min() > 0:
            cs.append(c)
    # its winning POVM has an outcome of weight 2e-12, at the edge of the
    # eigenvalue cut of spectrum_entropy
    cs.append(np.array([0.397, -0.103, 0.598]))
    return cs


@pytest.mark.parametrize("c", _bell_diagonal_states(), ids=lambda c: str(np.round(c, 3)))
def test_discord_matches_luo_on_bell_diagonal_states(c):
    matrix = (np.eye(4) + sum(cj * np.kron(s, s) for cj, s in zip(c, _PAULIS))) / 4
    # the default config: 32 restarts, so the scout decides how many run
    est = discord(Mstate(TWO, matrix), "A", "B")
    assert est.direction == UPPER
    exact = _luo_discord(c)
    assert exact - 1e-9 <= est.value <= exact + 1e-6


def test_discord_classical_state_is_zero():
    warm = np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=complex)
    est = discord(preset("classical_classical"), "A", "B", QUICK, warm_starts=(warm,))
    assert est.value <= 1e-6


def test_discord_with_one_nonzero_block_of_rank_two():
    # |0><0| x I/2: the x-classical path factors one block of rank 2
    rho = Mstate(SystemLayout((("A", 2), ("B", 2))), np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
    assert abs(discord(rho, "A", "B", QUICK).value) <= 1e-12


def test_discord_pure_state_equals_entanglement_entropy():
    psi = random_pure_state(TWO, 55)
    rho = psi
    s_a = vn_entropy(marginal(rho, "A"))
    est = discord(rho, "A", "B", QUICK)
    assert abs(est.value - s_a) <= 5e-3


def test_discord_rank_two_blocks_match_generic_branch(monkeypatch):
    # classical on X = (A, C), with conditional states on B of rank 2, 1, 0
    # and 2, so the factored objective sums factor columns per block; a
    # local unitary on X adds coherences between the x-blocks, which sends
    # the copy through the generic branch, and leaves the discord unchanged
    rng = np.random.default_rng(314)
    blocks = []
    for weight, rank in zip((0.35, 0.25, 0.0, 0.4), (2, 1, 0, 2)):
        g = rng.standard_normal((2, rank)) + 1j * rng.standard_normal((2, rank))
        r = g @ g.conj().T
        blocks.append(weight * r / max(np.real(np.trace(r)), 1e-300))
    mat = np.zeros((8, 8), dtype=complex)
    view = mat.reshape(4, 2, 4, 2)
    for x, r in enumerate(blocks):
        view[x, :, x, :] = r
    layout = SystemLayout((("A", 2), ("C", 2), ("B", 2)))
    cq = Mstate(layout, mat)
    u = np.kron(haar_unitary(4, 27), np.eye(2))
    rotated = Mstate(layout, u @ mat @ u.conj().T)

    calls = []
    real_factors = _block_factors

    def spy(stack):
        calls.append(stack.shape)
        return real_factors(stack)

    monkeypatch.setattr("ci_toolkit.measures._block_factors", spy)
    a = discord(cq, ("A", "C"), "B", QUICK)
    assert calls == [(4, 2, 2)]
    b = discord(rotated, ("A", "C"), "B", QUICK)
    assert len(calls) == 1
    assert a.value > 1e-3
    assert abs(a.value - b.value) <= QUICK.tol


def test_discord_accepts_pure_state_and_rejects_groups():
    est = discord(preset("bell"), "A", "B", OptimizerConfig(restarts=2, max_iters=40, tol=1e-3))
    assert est.value >= 0.0
    ghz = preset("ghz")
    # a composite measured group is merged into one party: D(A|BC) = S(A)
    merged = discord(ghz, "A", ("B", "C"))
    assert merged.value == pytest.approx(1.0, abs=1e-9)
    assert merged.info["measured_party"] == "(B+C)"
    with pytest.raises(LayoutMismatch):
        discord(ghz, "A", "B", QUICK)
    with pytest.raises(LayoutMismatch):
        discord(ghz, ("A", "B"), ("B", "C"), QUICK)


# --- steering-based measures ------------------------------------------------------


def test_eoa_ghz_marginal_reaches_one_bit():
    rho_ac = marginal(preset("ghz"), ("A", "C"))
    est = eoa(rho_ac, "A", OptimizerConfig(restarts=8, max_iters=600, tol=1e-5, seed=23))
    assert est.direction == LOWER
    assert est.value <= 1.0 + 1e-9
    assert est.value >= 1.0 - 5e-3
    assert est.info["ancilla_dim"] == 2
    assert isinstance(est.achiever, Ensemble)


def test_eof_pure_state_is_exact():
    # PureState accepted directly, converted internally
    est = eof(preset("bell"), "A", OptimizerConfig(restarts=2, max_iters=60, tol=1e-3))
    assert abs(est.value - 1.0) <= 1e-9
    assert est.direction == UPPER


def test_eof_separable_mixture_is_zero():
    est = eof(_sep_mixture(), "A", OptimizerConfig(restarts=8, max_iters=600, tol=1e-5, seed=29))
    assert est.value <= 5e-3


def _wootters_eof(m):
    """Wootters' exact entanglement of formation of a two-qubit density
    matrix (PRL 80, 2245, 1998): h((1 + sqrt(1 - C^2)) / 2) with the
    concurrence C = max(0, l1 - l2 - l3 - l4), where l1 >= l2 >= ... are the
    square roots of the eigenvalues of m (Y x Y) m* (Y x Y). Those are the
    singular values of V^T (Y x Y) V for m = V V^dagger, V with one column
    per nonzero eigenvalue; no root of a rounded zero eigenvalue enters."""
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    w, u = np.linalg.eigh(m)
    keep = w > ZERO
    v = u[:, keep] * np.sqrt(w[keep])
    lam = np.linalg.svd(v.T @ np.kron(sy, sy) @ v, compute_uv=False)
    c = max(0.0, lam[0] - np.sum(lam[1:]))
    x = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    return float(-np.sum(_plogp(np.array([x, 1.0 - x]))))


def test_wootters_oracle_on_known_states():
    assert abs(_wootters_eof(preset("bell").matrix) - 1.0) <= 1e-12
    assert abs(_wootters_eof(_sep_mixture().matrix)) <= 1e-12
    for seed in range(5):
        psi = random_pure_state(TWO, 300 + seed)
        expected = vn_entropy(marginal(psi, "A"))
        assert abs(_wootters_eof(psi.matrix) - expected) <= 1e-9


WOOTTERS = OptimizerConfig(restarts=4, max_iters=300)


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eof_never_undershoots_wootters(rank, seed):
    # the upper-est tag: every decomposition averages at least the exact E_F
    rho = random_mixed_state(TWO, 100 * rank + seed, rank=rank)
    assert eof(rho, "A", WOOTTERS).value >= _wootters_eof(rho.matrix) - 1e-9


@pytest.mark.parametrize("rank", [3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_eof_meets_wootters_from_both_sides(rank, seed):
    # at the default config eof sits on its upper side and within 1e-9 of
    # the exact value, on each state and on its mixtures with a Bell state;
    # the 1e-12 below covers rounding in the re-verified value
    rho = random_mixed_state(TWO, 100 * rank + seed, rank=rank).matrix
    bell = preset("bell").matrix
    for weight in (0.0, 0.35, 0.7):
        mixed = Mstate(TWO, (1.0 - weight) * rho + weight * bell)
        exact = _wootters_eof(mixed.matrix)
        assert exact - 1e-12 <= eof(mixed, "A").value <= exact + 1e-9


def test_assistance_dominates_formation():
    rho = random_mixed_state(TWO, 88, rank=2)
    cfg = OptimizerConfig(restarts=6, max_iters=500, tol=1e-5, seed=31)
    hi = eoa(rho, "A", cfg)
    lo = eof(rho, "A", cfg)
    assert hi.value >= lo.value - 5e-3


def test_kw_discord_of_bell_is_exact():
    est = kw_discord(preset("bell"), "A", "B", QUICK)
    assert abs(est.value - 1.0) <= 1e-9
    assert est.info["eof"] <= 1e-9
    assert est.direction == UPPER


def test_kw_discord_matches_direct_route():
    rho = random_mixed_state(SystemLayout((("X", 2), ("Y", 2))), 91, rank=2)
    cfg = OptimizerConfig(restarts=6, max_iters=600, tol=1e-5, seed=37)
    direct = discord(rho, "X", "Y", cfg)
    exchanged = kw_discord(rho, "X", "Y", cfg)
    assert abs(direct.value - exchanged.value) <= 2e-2


def test_kw_discord_rejects_large_purifying_system():
    # full rank 16 on 16 dimensions: a 256-dimensional purification
    big = random_mixed_state(SystemLayout((("X", 4), ("Y", 4))), 7)
    with pytest.raises(DimensionTooLarge):
        kw_discord(big, "X", "Y", QUICK)


def test_kw_discord_reports_the_ancilla_it_searched():
    # the third eigenvalue, 1e-12, sits at the weight floor: eigvalsh and
    # eigh disagree on whether it counts, and the purification keeps it
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    m = q @ np.diag([0.6, 0.4 - 1e-12, 1e-12, 0.0]) @ q.conj().T
    rho = Mstate(SystemLayout((("X", 2), ("Y", 2))), (m + m.conj().T) / 2)
    est = kw_discord(rho, "X", "Y", QUICK)
    assert est.achiever.layout.parties == (("X", 2), ("Z", 3))
    assert est.info["ancilla_dim"] == 3


def test_eoa_reaches_past_the_cap_on_a_pure_64_dimensional_state():
    # the purification has 128 dimensions; the steering search reads it as
    # a bare amplitude matrix, so no layout passes the cap
    rho = random_pure_state(tuple((f"Q{i}", 2) for i in range(6)), 5)
    est = eoa(rho, "Q0", QUICK)
    assert est.info["ancilla_dim"] == 2
    s_q0 = vn_entropy(marginal(rho, "Q0"))
    assert abs(est.value - s_q0) <= 1e-9


# --- one-way concentration ---------------------------------------------------------


def test_one_way_ci_ghz_with_warm_start():
    # at the default config the search finds the plus/minus basis unaided
    ghz = preset("ghz")
    est = one_way_ci(ghz, "A", "B", "C")
    assert est.value >= 2.0 - 1e-6
    assert est.value <= 2.0 + 1e-9
    assert est.direction == LOWER
    assert est.info["outcomes"] == 4


def test_one_way_ci_pure_and_mixed_paths_agree():
    pure_in = preset("ghz")
    # breaking purity by an epsilon of white noise forces the generic path
    dusty = Mstate(
        pure_in.layout,
        (1 - 1e-9) * pure_in.matrix + 1e-9 * np.eye(8) / 8.0,
    )
    a = one_way_ci(pure_in, "A", "B", "C")
    b = one_way_ci(dusty, "A", "B", "C")
    assert a.value >= 2.0 - 1e-9
    assert abs(a.value - b.value) <= 1e-6


def test_register_info_equals_the_flag_state_value():
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 8)
    povm = rank1_povm(haar_unitary(4, 9), 2)
    flagged = flag_state(measure_ensemble(rho, povm, "B"), "R")
    expected = mutual_info(flagged, Partition("A", ("C", "R")))
    assert abs(_register_info(rho, povm) - expected) <= 1e-12
    # and it is the value one_way_ci reports at its achiever
    est = one_way_ci(rho, "A", "B", "C", QUICK)
    assert est.value == _register_info(rho, est.achiever)


def test_one_way_ci_reaches_the_computational_basis_value_on_w():
    # measuring B of the W state in the computational basis gives log2 3
    est = one_way_ci(preset("w"), "A", "B", "C")
    assert est.value >= math.log2(3.0) - 1e-11


def test_one_way_ci_agrees_across_the_purity_switch():
    # (1 - eps) W + eps I/8 has purity about 1 - 1.75 eps, so the pure-input
    # objective serves eps = 4e-13 and the mixed one eps = 7e-13
    w = preset("w")
    values = []
    for eps, pure_path in ((4e-13, True), (7e-13, False)):
        rho = Mstate(w.layout, (1.0 - eps) * w.matrix + eps * np.eye(8) / 8.0)
        assert (rho.purity() > 1.0 - ZERO) == pure_path
        values.append(one_way_ci(rho, "A", "B", "C").value)
    assert abs(values[0] - values[1]) <= 1e-10


def test_variational_measures_build_no_flagged_state(monkeypatch):
    calls = []
    monkeypatch.setattr(measures, "flag_state", lambda *a, **k: calls.append(a))
    # rank 2, so the steering searches run on a qubit ancilla
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 12, rank=2)
    one_way_ci(rho, "A", "B", "C", QUICK)
    discord(rho, ("A", "C"), "B", QUICK)
    eoa(rho, "A", QUICK)
    eof(rho, "A", QUICK)
    assert calls == []


def test_one_way_ci_rejects_group_helper():
    ghz = preset("ghz")
    with pytest.raises(LayoutMismatch):
        one_way_ci(ghz, "A", ("B", "C"), (), QUICK)


# --- closed forms ---------------------------------------------------------------


def test_log_negativity():
    bell = preset("bell")
    assert np.isclose(log_negativity(bell, Partition("A", "B")), 1.0, atol=1e-12)
    cc = preset("classical_classical")
    assert log_negativity(cc, Partition("A", "B")) <= 1e-12
    ghz = preset("ghz")
    assert log_negativity(ghz, Partition("A", "B")) <= 1e-12  # traced marginal
    assert np.isclose(log_negativity(ghz, Partition("A", ("B", "C"))), 1.0, atol=1e-12)
    with pytest.raises(InvalidPartition):
        log_negativity(bell, Partition(("A", "A"), "B"))


def test_coherent_info_lower():
    bell = preset("bell")
    assert np.isclose(coherent_info_lower(bell, Partition("A", "B")), 1.0, atol=1e-12)
    iso = Mstate(TWO, np.eye(4) / 4.0)
    assert coherent_info_lower(iso, Partition("A", "B")) == 0.0


def test_ed_interval_exact_on_paired_support():
    bell = preset("bell")
    band = ed_interval(bell, Partition("A", "B"))
    assert band.exact
    assert np.isclose(band.lower, 1.0, atol=1e-12)
    assert band.lower == band.upper

    cc = preset("classical_classical")
    band = ed_interval(cc, Partition("A", "B"))
    assert band.exact
    assert abs(band.lower) <= 1e-12


def test_ed_interval_hashing_value():
    params = (0.5, 0.0, 0.25, 0.0, 0.25, 0.0, 0.5, 0.0)
    rho = preset("max_correlated", params)
    band = ed_interval(rho, Partition("X", "Z"))
    expected = 1.0 - spectrum_entropy([0.75, 0.25])
    assert band.exact
    assert np.isclose(band.lower, expected, atol=1e-12)


def test_ed_interval_generic_bracket():
    rho = random_mixed_state(TWO, 77)
    band = ed_interval(rho, Partition("A", "B"))
    assert isinstance(band, Bracket) and not band.exact
    assert band.lower <= band.upper + 1e-12
    assert np.isclose(band.lower, coherent_info_lower(rho, Partition("A", "B")))
    assert np.isclose(band.upper, log_negativity(rho, Partition("A", "B")))


def test_partial_transpose_trace_norm_is_taken_once_per_state_and_group(monkeypatch):
    rho = random_mixed_state(TWO, 77)
    cut = Partition("A", "B")
    fresh = random_mixed_state(TWO, 77)
    want = (log_negativity(fresh, cut), log_negativity(fresh, Partition("B", "A")))
    norms = []
    trace_norm = measures.trace_norm

    def counting(m):
        norms.append(m)
        return trace_norm(m)

    monkeypatch.setattr(measures, "trace_norm", counting)
    assert ed_interval(rho, cut).upper == want[0]
    assert log_negativity(rho, cut) == want[0]
    assert log_negativity(rho, Partition("A", ("B",))) == want[0]
    assert len(norms) == 1
    # the other group is its own entry, with its own bits
    assert log_negativity(rho, Partition("B", "A")) == want[1]
    assert len(norms) == 2


def test_regularized_eoa():
    ghz = preset("ghz")
    rho_ac = marginal(ghz, ("A", "C"))
    assert np.isclose(regularized_eoa(rho_ac, "A"), 1.0, atol=1e-12)
    assert np.isclose(regularized_eoa(rho_ac), 1.0, atol=1e-12)  # first party default
    with pytest.raises(LayoutMismatch):
        regularized_eoa(rho_ac, ("A", "C"))
    with pytest.raises(UnknownParty):
        regularized_eoa(rho_ac, "Q")


# seeded states on each side of equality: eoa reaches min(S(A), S(C)) on
# pure states, on the GHZ marginal and on products
EOA_PANEL = {
    "ghz-marginal": lambda: marginal(preset("ghz"), ("A", "C")),
    "pure": lambda: random_pure_state((("A", 2), ("C", 2)), 31),
    "product": lambda: Mstate(
        SystemLayout((("A", 2), ("C", 2))), np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
    ),
    "rank-2": lambda: random_mixed_state((("A", 2), ("C", 2)), 32, rank=2),
    "rank-3": lambda: random_mixed_state((("A", 2), ("C", 2)), 33, rank=3),
    "qutrit": lambda: random_mixed_state((("A", 3), ("C", 2)), 34, rank=2),
}


@pytest.mark.parametrize("name", sorted(EOA_PANEL))
def test_eoa_never_exceeds_regularized_eoa(name):
    # the lower-est tag: every steered ensemble averages at most the rate
    rho = EOA_PANEL[name]()
    assert eoa(rho, "A", QUICK).value <= regularized_eoa(rho, "A") + 1e-12


# --- the entropy kernel of `info`, as the batched objectives use it ---------------


def test_entropy_stack_matches_reference():
    rng = np.random.default_rng(101)
    for n in (2, 3):
        g = rng.standard_normal((6, 4, n, n)) + 1j * rng.standard_normal((6, 4, n, n))
        mats = np.einsum("bkij,bklj->bkil", g, g.conj())
        out = _entropy_stack(mats)
        for b in range(6):
            for k in range(4):
                w = np.linalg.eigvalsh(mats[b, k])
                expected = -np.sum(_plogp(np.clip(w, 0.0, None)))
                assert abs(out[b, k] - expected) <= 1e-10


def test_entropy_stack_diagonal_fast_path():
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0] = np.diag([0.5, 0.5])
    mats[1] = np.diag([1.0, 0.0])
    out = _entropy_stack(mats)
    assert np.isclose(out[0], 1.0, atol=1e-12)
    assert abs(out[1]) <= 1e-12


def _gram_entropy(x):
    w = np.linalg.eigvalsh(x @ x.conj().T)
    return -np.sum(_plogp(np.clip(w, 0.0, None)))


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (1, 4), (4, 1)])
def test_pure_entropy_kernel_matches_gram_spectrum(shape):
    rng = np.random.default_rng(202)
    x = 0.4 * (rng.standard_normal((5, 7) + shape) + 1j * rng.standard_normal((5, 7) + shape))
    p, h = _pure_entropy_stack(x)
    assert p.shape == h.shape == (5, 7)
    for b in range(5):
        for k in range(7):
            assert abs(p[b, k] - np.sum(np.abs(x[b, k]) ** 2)) <= 1e-12
            assert abs(h[b, k] - _gram_entropy(x[b, k])) <= 1e-12


def test_pure_entropy_kernel_edge_rows():
    rng = np.random.default_rng(203)
    a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    c = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    product = 0.5 * np.einsum("ix,iy->ixy", a, c)  # det = 0: one nonzero weight
    entangled = np.stack([0.6 * haar_unitary(2, 40 + i) / math.sqrt(2) for i in range(6)])
    for stack in (product, entangled):
        p, h = _pure_entropy_stack(stack)
        for row, pr, hr in zip(stack, p, h):
            assert abs(hr - _gram_entropy(row)) <= 1e-12
            assert abs(pr - np.sum(np.abs(row) ** 2)) <= 1e-12
    p, h = _pure_entropy_stack(product)
    assert np.allclose(h, -_plogp(p), rtol=0.0, atol=1e-12)
    # maximally entangled: the degenerate spectrum p/2, p/2
    p, h = _pure_entropy_stack(entangled)
    assert np.allclose(p, 0.36, rtol=0.0, atol=1e-12)
    assert np.allclose(h, -2.0 * _plogp(np.full(6, 0.18)), rtol=0.0, atol=1e-12)
    for shape in ((2, 2), (2, 3), (3, 2), (1, 4)):
        p, h = _pure_entropy_stack(np.zeros((3,) + shape, dtype=complex))
        assert np.all(np.isfinite(h))
        assert np.all(p == 0.0)
        assert np.all(h == 0.0)


def _psd_blocks(ranks, dy, rng):
    out = np.zeros((len(ranks), dy, dy), dtype=complex)
    for x, r in enumerate(ranks):
        g = rng.standard_normal((dy, r)) + 1j * rng.standard_normal((dy, r))
        out[x] = 0.3 * g @ g.conj().T
    return out


@pytest.mark.parametrize("ranks", [(0, 1, 2), (1, 0, 1), (2, 2), (2, 0, 1, 2)])
def test_block_weights_match_gram_product(ranks):
    rng = np.random.default_rng(204)
    dy = 3
    blocks = _psd_blocks(ranks, dy, rng)
    rows = rng.standard_normal((40, dy)) + 1j * rng.standard_normal((40, dy))
    # the per-row Gram vectors against the blocks, as one matrix product
    t2 = np.ascontiguousarray(blocks.transpose(1, 2, 0).reshape(dy * dy, -1))
    gram = (rows.conj()[:, :, None] * rows[:, None, :]).reshape(-1, dy * dy)
    old = np.real(gram @ t2)
    factors, starts = _block_factors(blocks)
    assert factors.shape == (dy, sum(ranks))
    assert (starts is None) == (max(ranks) == 1)
    amp, q = _block_weights(rows, factors, starts)
    assert np.array_equal(amp, rows @ factors)
    kept = [x for x, r in enumerate(ranks) if r]
    assert q.shape == (40, len(kept))
    assert np.all(q >= 0.0)
    assert np.allclose(q, old[:, kept], rtol=0.0, atol=1e-12)
    assert np.allclose(old[:, [x for x, r in enumerate(ranks) if not r]], 0.0, atol=1e-12)


def test_weight_term_zero_limit():
    out = _plogp(np.array([0.0, 0.5, 1.0]))
    assert out[0] == 0.0
    assert np.isclose(out[1], -0.5)
    assert out[2] == 0.0


def test_direction_constants():
    assert LOWER != UPPER != EXACT


# --- pooled restarts on the package's own objectives ------------------------------


class _Captured(Exception):
    pass


def _captured_batch(monkeypatch, run):
    """The batch objective and measured dimension that ``run`` hands the
    POVM search, which is stopped before it starts."""
    seen = {}

    def capture(batch, d, *args, **kwargs):
        seen.update(batch=batch, d=d)
        raise _Captured

    monkeypatch.setattr(measures, "_povm_search", capture)
    with pytest.raises(_Captured):
        run()
    return seen["batch"], seen["d"]


def _diagonal_on_basis(layout, seed):
    """A diagonal (A, B, C) state with a GHZ-like coherence between B = 0 and
    B = 1, and Hermitian noise near 1e-15 off the diagonal: the outcome
    blocks of B's computational basis read as diagonal, those of other
    measurements do not."""
    rng = np.random.default_rng(seed)
    db, dc = layout.dim_of("B"), layout.dim_of("C")
    d = layout.total_dim
    ghz = np.zeros(d)
    ghz[[0, (db + 1) * dc + 1]] = math.sqrt(0.5)
    noise = 1e-15 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    m = 0.9 * np.diag(rng.dirichlet(np.ones(d))) + 0.1 * np.outer(ghz, ghz)
    m = m + noise + noise.conj().T
    np.fill_diagonal(m, np.diagonal(m).real)
    return Mstate(layout, m)


def _classical_on(layout, seed):
    # sum_x p_x |x><x| (x) rho_x, classical on the first party
    dx, dy = layout.dims
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(dx))
    m = np.zeros((dx * dy, dx * dy), dtype=complex)
    for x in range(dx):
        g = rng.standard_normal((dy, dy)) + 1j * rng.standard_normal((dy, dy))
        rho_x = g @ g.conj().T
        m[x * dy : (x + 1) * dy, x * dy : (x + 1) * dy] = p[x] * rho_x / np.trace(rho_x)
    return Mstate(layout, m)


QUBITS = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
QUART_B = SystemLayout((("A", 2), ("B", 4), ("C", 2)))
OBJECTIVES = {
    "one-way-4": lambda: one_way_ci(random_mixed_state(QUBITS, 71), "A", "B", "C"),
    "one-way-16": lambda: one_way_ci(random_mixed_state(QUART_B, 72), "A", "B", "C"),
    "one-way-diag-4": lambda: one_way_ci(_diagonal_on_basis(QUBITS, 73), "A", "B", "C"),
    "one-way-diag-16": lambda: one_way_ci(_diagonal_on_basis(QUART_B, 74), "A", "B", "C"),
    "x-classical-4": lambda: discord(_classical_on(TWO, 75), "A", "B"),
    "x-classical-16": lambda: discord(
        _classical_on(SystemLayout((("X", 3), ("Y", 4))), 76), "X", "Y"
    ),
    "steering-4": lambda: eoa(random_mixed_state(QUBITS, 77, rank=2), "A"),
    "steering-16": lambda: eoa(random_mixed_state(QUBITS, 78, rank=4), "A"),
}


def _start_points(k, d, seeds):
    # the computational basis first, where the blocks of the one-way-diag
    # states read as diagonal, then Haar starts, where they do not
    return [np.eye(k, dtype=complex)[:, :d]] + [haar_unitary(k, s)[:, :d] for s in seeds]


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_lockstep_restarts_equal_isolated_runs_on_package_objectives(monkeypatch, name):
    batch, d = _captured_batch(monkeypatch, OBJECTIVES[name])
    k = d * d
    evaluate = _evaluator(batch, 1.0)
    starts = _start_points(k, d, (3, 5, 9))
    cfg = OptimizerConfig(restarts=4, max_iters=12, tol=1e-6, seed=1)
    together = _ascend(evaluate, starts, cfg)
    for r in range(len(starts)):
        alone = _ascend(evaluate, starts[r : r + 1], cfg)
        for t, a in zip(together, alone):
            assert np.array_equal(t[r : r + 1], a)


# --- one search per measure ---------------------------------------------------------


SEARCH_KEYWORDS = {"batch_objective", "dim", "config", "columns", "sense", "warm_starts"}
ONE_SEARCH = {
    "one-way-pure": lambda: one_way_ci(preset("ghz"), "A", "B", "C", QUICK),
    "one-way-mixed": lambda: one_way_ci(random_mixed_state(QUBITS, 81), "A", "B", "C", QUICK),
    "discord-x-classical": lambda: discord(_classical_on(TWO, 82), "A", "B", QUICK),
    "discord-generic": lambda: discord(random_mixed_state(TWO, 83), "A", "B", QUICK),
    "eoa": lambda: eoa(random_mixed_state(QUBITS, 84, rank=2), "A", QUICK),
    "eof": lambda: eof(random_mixed_state(QUBITS, 85, rank=2), "A", QUICK),
    "kw-discord": lambda: kw_discord(random_mixed_state(TWO, 86), "A", "B", QUICK),
}


def test_each_measure_makes_exactly_one_keyword_search(monkeypatch):
    calls = []
    search = measures.maximize

    def counting(*args, **kwargs):
        calls.append((args, set(kwargs)))
        return search(*args, **kwargs)

    # looked up on `measures` at call time, as the benchmark's tracer wraps it
    monkeypatch.setattr(measures, "maximize", counting)
    for name, run in ONE_SEARCH.items():
        calls.clear()
        est = run()
        assert calls == [((), SEARCH_KEYWORDS)], name
        assert est.config == QUICK, name


# --- row gradients ------------------------------------------------------------------


def _w_ghz_mixture():
    # rank 2: every outcome block of a measurement on one qubit is rank deficient
    w, ghz = preset("w"), preset("ghz")
    return Mstate(w.layout, 0.5 * w.matrix + 0.5 * ghz.matrix)


QUTRIT_B = SystemLayout((("A", 2), ("B", 3), ("C", 2)))
FAMILY15 = preset("family15", (math.cos(math.pi / 8.0),))
GRADIENTS = {
    "one-way": lambda: one_way_ci(random_mixed_state(QUBITS, 91), "A", "B", "C"),
    "one-way-qutrit": lambda: one_way_ci(random_mixed_state(QUTRIT_B, 92), "A", "B", "C"),
    "one-way-rank-2": lambda: one_way_ci(_w_ghz_mixture(), "A", "B", "C"),
    "one-way-pure-w": lambda: one_way_ci(preset("w"), "A", "B", "C"),
    "holevo": lambda: discord(random_mixed_state(QUBITS, 93), ("A", "C"), "B"),
    "holevo-w": lambda: discord(preset("w"), ("A", "B"), "C"),
    "holevo-ghz": lambda: discord(preset("ghz"), ("A", "B"), "C"),
    "holevo-rank-2": lambda: discord(_w_ghz_mixture(), ("A", "B"), "C"),
    "holevo-qutrit": lambda: discord(random_mixed_state(QUTRIT_B, 94), ("A", "C"), "B"),
    "x-classical": lambda: discord(_classical_on(TWO, 95), "A", "B"),
    "x-classical-qutrit": lambda: discord(
        _classical_on(SystemLayout((("X", 2), ("Y", 3))), 96), "X", "Y"
    ),
    "x-classical-family15": lambda: discord(FAMILY15, ("A", "C"), "B"),
    "steering": lambda: eoa(random_mixed_state(QUBITS, 97, rank=2), "A"),
    "steering-16": lambda: eoa(random_mixed_state(QUBITS, 98, rank=4), "A"),
    "steering-w": lambda: eof(preset("w"), "A"),
    "steering-qutrit": lambda: eoa(random_mixed_state(QUBITS, 99, rank=3), ("A", "B")),
}


def _central_differences(batch, v, h=1e-6):
    # the Euclidean gradient in the real inner product Re <A, B>
    g = np.zeros_like(v)
    for idx in np.ndindex(v.shape):
        for unit in (1.0, 1j):
            e = np.zeros_like(v)
            e[idx] = unit * h
            up, down = batch((v + e)[None])[0][0], batch((v - e)[None])[0][0]
            g[idx] += unit * (up - down) / (2.0 * h)
    return g


@pytest.mark.parametrize("name", sorted(GRADIENTS))
def test_row_gradients_match_central_differences(monkeypatch, name):
    batch, d = _captured_batch(monkeypatch, GRADIENTS[name])
    k = d * d
    for seed in (1, 2):
        v = haar_unitary(k, 500 + seed)[:, :d]
        _, grads = batch(v[None])
        numeric = _central_differences(batch, v)
        # relative to the gradient's size; the holevo-w and holevo-ghz
        # objectives are constant, with a zero gradient
        scale = max(float(np.max(np.abs(numeric))), 1.0)
        assert np.max(np.abs(grads[0] - numeric)) <= 1e-6 * scale


@pytest.mark.parametrize("name", sorted(GRADIENTS))
def test_euler_identity_of_the_row_gradients(monkeypatch, name):
    # f(V) = const + sum_k g(P_k) with g 1-homogeneous, so f(t V) - f(V) =
    # (t^2 - 1) sum_k g(P_k), and (1/2) Re <v_k, G_k> sums to the same
    batch, d = _captured_batch(monkeypatch, GRADIENTS[name])
    k = d * d
    for seed in (3, 4):
        v = haar_unitary(k, 500 + seed)[:, :d]
        vals, grads = batch(np.stack([v, math.sqrt(2.0) * v]))
        euler = 0.5 * float(np.vdot(v, grads[0]).real)
        assert abs(euler - (vals[1] - vals[0])) <= 1e-12


# --- a trivial receiver: the one-way form is the classical correlation ------------

VACUUM = np.diag([1.0, 0.0]).astype(complex)


@pytest.mark.parametrize("da", [2, 3])
def test_one_way_with_a_trivial_receiver_equals_a_vacuum_receiver(da):
    # I(A : C R) with C in a fixed pure state is I(A : R), the dc = 1 form
    rng = np.random.default_rng(40 + da)
    g = rng.normal(size=(3, 4, da, da)) + 1j * rng.normal(size=(3, 4, da, da))
    sig = 0.1 * g @ np.conj(np.swapaxes(g, -1, -2))
    with_vacuum = np.kron(sig, VACUUM)
    for slope in (False, True):
        trivial = measures._one_way(0.7, sig, da, 1, slope=slope)
        vacuum = measures._one_way(0.7, with_vacuum, da, 2, slope=slope)
        if slope:
            trivial, vacuum = trivial[0], vacuum[0]
        assert np.max(np.abs(trivial - vacuum)) <= 1e-12


@pytest.mark.parametrize("da", [2, 3])
def test_block_batch_with_a_trivial_receiver_equals_a_vacuum_receiver(da):
    # the same identity through the search's objective: values and row
    # gradients of a measurement on B, with and without a vacuum C
    rho = random_mixed_state(SystemLayout((("A", da), ("B", 2))), 50 + da)
    with_vacuum = Mstate(
        SystemLayout((("A", da), ("B", 2), ("C", 2))), np.kron(rho.matrix, VACUUM)
    )
    s_a = vn_entropy(marginal(rho, "A"))
    trivial = measures._block_batch(measures._operand(rho, "B"), s_a, da, 1)
    vacuum = measures._block_batch(measures._operand(with_vacuum, "B"), s_a, da, 2)
    vstack = np.stack([haar_unitary(4, 60 + s)[:, :2] for s in range(3)])
    (v1, g1), (v2, g2) = trivial(vstack), vacuum(vstack)
    assert np.max(np.abs(v1 - v2)) <= 1e-12
    assert np.max(np.abs(g1 - g2)) <= 1e-12


# --- identities and oracles at the default config ------------------------------------


@pytest.mark.parametrize(
    "dims,seed", [((2, 2), 1), ((2, 2), 2), ((3, 2), 3), ((2, 3), 4), ((3, 3), 5)]
)
def test_pure_discord_equals_the_marginal_entropy_at_the_default_config(dims, seed):
    # a measured qutrit searches K = 9 outcomes
    layout = SystemLayout((("X", dims[0]), ("Y", dims[1])))
    rho = random_pure_state(layout, 700 + seed)
    est = discord(rho, "X", "Y")
    exact = vn_entropy(marginal(rho, "X"))
    assert exact - 1e-9 <= est.value <= exact + 1e-12


@pytest.mark.parametrize(
    "param", [(), (0.5, 0.2, 0.2, 0.1), (0.1, 0.4, 0.3, 0.2), (0.25,) * 4]
)
def test_classical_classical_discord_is_zero_at_the_default_config(param):
    # no warm start; a restart ends once its gradient norm is below tol =
    # 1e-6, which leaves a gap of order tol^2 over the curvature
    est = discord(preset("classical_classical", param), "A", "B")
    assert 0.0 <= est.value <= 1e-10


@pytest.mark.parametrize("k", range(10))
def test_kw_cross_discord_meets_koashi_winter_through_wootters(k):
    # the kw-cross suite's states and seeds at the default config
    cfg = OptimizerConfig()
    s_state, s_opt = _split(cfg.seed, _TAG_KW, k)
    rho = random_mixed_state(_TWO_QUBITS, s_state, rank=2)
    cfg = replace(cfg, seed=s_opt)
    # rank 2 with a qubit purification Z: D(X|Y) = S(Y) - S(XY) + E_F(X : Z)
    # (Koashi & Winter, PRA 69, 022309, 2004), with Wootters' E_F
    rho_xz = marginal(purify(rho, "Z"), ("X", "Z"))
    s_y = vn_entropy(marginal(rho, "Y"))
    exact = s_y - vn_entropy(rho) + _wootters_eof(rho_xz.matrix)
    for est in (discord(rho, "X", "Y", cfg), kw_discord(rho, "X", "Y", cfg)):
        assert est.direction == UPPER
        assert exact - 1e-9 <= est.value <= exact + 1e-6


# --- the steering objective's one 2-D product -------------------------------------


def _stacked_steering_batch(psi_mat, da, dc):
    # the stacked product: one small matmul per candidate
    rows = np.ascontiguousarray(psi_mat.T)

    def batch(vstack):
        chi = np.matmul(vstack.conj(), rows)
        p, h = _pure_entropy_stack(chi.reshape(chi.shape[:2] + (da, dc)))
        return np.sum(h + _plogp(p), axis=-1)

    return batch


@pytest.mark.parametrize("r", [2, 4])
@pytest.mark.parametrize("candidates", [1, 24, 192, 576])
def test_steering_objective_matches_the_stacked_product(r, candidates):
    # K = r^2 outcome rows on a rank-r purification of three qubits, A : BC
    k = r * r
    psi = purify(random_mixed_state(QUBITS, 80 + r, rank=r), "Z")
    psi_mat = psi.amplitudes.reshape(8, r)
    vstack = np.stack([haar_unitary(k, 1000 + s)[:, :r] for s in range(candidates)])
    new, _ = measures._steering_batch(psi_mat, 0.0, 2, 4)(vstack)
    old = _stacked_steering_batch(psi_mat, 2, 4)(vstack)
    assert np.array_equal(new, old)


def _eigh_steering_batch(psi_mat, da, dc):
    # the eigh route for every shape: log2 of the Gram matrix on the smaller
    # side of chi by `_entropy_log_stack`, applied by stacked products
    rows = np.ascontiguousarray(psi_mat.T)
    left = da <= dc

    def batch(vstack):
        b, k, d = vstack.shape
        chi = (vstack.conj().reshape(b * k, d) @ rows).reshape(b * k, da, dc)
        p, h = _pure_entropy_stack(chi.reshape(b, k, da, dc))
        chi_h = np.conj(np.swapaxes(chi, -1, -2))
        _, log = _entropy_log_stack(chi @ chi_h if left else chi_h @ chi)
        y = log @ chi if left else chi @ log
        y -= np.log2(p).reshape(b * k, 1, 1) * chi
        grads = -2.0 * (y.conj().reshape(b * k, da * dc) @ psi_mat)
        return np.sum(h + _plogp(p), axis=-1), grads.reshape(vstack.shape)

    return batch


@pytest.mark.parametrize("da,dc", [(2, 2), (2, 4), (4, 2)])
def test_qubit_steering_gradients_match_the_eigh_route(da, dc):
    # a qubit on the smaller side of chi takes log2 G = c0 1 + c1 G: the
    # values are the eigh route's bit for bit, the gradients agree to
    # rounding and with central differences
    r = 3
    rng = np.random.default_rng(10 * da + dc)
    psi_mat = rng.standard_normal((da * dc, r)) + 1j * rng.standard_normal((da * dc, r))
    psi_mat /= np.linalg.norm(psi_mat)
    vstack = np.stack([haar_unitary(r * r, 600 + s)[:, :r] for s in range(4)])
    batch = measures._steering_batch(psi_mat, 0.0, da, dc)
    values, grads = batch(vstack)
    ref_values, ref_grads = _eigh_steering_batch(psi_mat, da, dc)(vstack)
    assert np.array_equal(values, ref_values)
    assert np.max(np.abs(grads - ref_grads)) <= 1e-12 * np.max(np.abs(ref_grads))
    numeric = _central_differences(batch, vstack[0])
    assert np.max(np.abs(grads[0] - numeric)) <= 1e-6 * max(float(np.max(np.abs(numeric))), 1.0)
