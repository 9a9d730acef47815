import math

import numpy as np
import pytest

from ci_toolkit.ci import (
    ci_lower,
    ci_product_regularized,
    ci_pure_oneway,
    ci_pure_regularized,
    ci_upper,
    dilated_protocol_state,
    discord_additivity_check,
    discord_via_ci,
    family15_separation_report,
    family15_two_round_merge,
    lqsm_fidelity_lower,
    merge_conditional_entropy_check,
    monotone_necessary_check,
    oneway_ci_upper,
    resolve_tripartite,
)
from ci_toolkit.errors import (
    DimensionTooLarge,
    DuplicateParty,
    InvalidArgument,
    InvalidPartition,
    LayoutMismatch,
    NotPure,
    NotRankOne,
    ShapeMismatch,
)
from ci_toolkit.info import (
    Partition,
    binary_entropy,
    conditional_mutual_info,
    matrix_entropy,
    mutual_info,
)
from ci_toolkit.measures import (
    LOWER,
    Bracket,
    coherent_info_lower,
    discord,
    flag_state,
    log_negativity,
    measure_ensemble,
    one_way_ci,
)
from ci_toolkit.optim import OptimizerConfig, Povm, haar_unitary, rank1_povm
from ci_toolkit.states import (
    DIM_CAP,
    Mstate,
    PureState,
    SystemLayout,
    _relaid,
    marginal,
    merge_groups,
    preset,
    random_mixed_state,
    random_pure_state,
    tensor,
)

CFG = OptimizerConfig(restarts=8, max_iters=600, tol=1e-5, seed=17)
C_STAR = math.cos(math.pi / 8.0)


def test_resolve_tripartite_defaults_and_explicit():
    ghz = preset("ghz")
    assert resolve_tripartite(ghz.layout) == (("A",), ("B",), ("C",))
    assert resolve_tripartite(ghz.layout, "C", "A") == (("C",), ("A",), ("B",))
    four = preset("product_eq10", (0.0,)).layout
    a, b, c = resolve_tripartite(four)
    assert c == ("B2", "C")
    assert resolve_tripartite(four, ("A", "B1"), "B2", "C")[0] == ("A", "B1")


def test_resolve_tripartite_errors():
    bell = preset("bell")
    with pytest.raises(LayoutMismatch):
        resolve_tripartite(bell.layout)  # two parties, no defaults possible
    ghz = preset("ghz")
    with pytest.raises(LayoutMismatch):
        resolve_tripartite(ghz.layout, "A", "A", "B")
    with pytest.raises(LayoutMismatch):
        resolve_tripartite(ghz.layout, "A", "B", ())


def test_ci_upper_ghz():
    assert np.isclose(ci_upper(preset("ghz")), 2.0, atol=1e-9)


def test_ci_upper_distillable_cap_beats_total():
    rho = preset("product_eq10", (0.0,))
    # reference is maximally entangled with the helper only: nothing is
    # distillable toward the receiver, so the cap collapses to S(reference)
    assert np.isclose(ci_upper(rho), 1.0, atol=1e-9)
    assert np.isclose(mutual_info(rho, Partition("A", ("B1", "B2", "C"))), 2.0)


def test_ci_lower_report_on_ghz():
    report = ci_lower(preset("ghz"), config=CFG)
    assert report.upper == pytest.approx(2.0, abs=1e-9)
    assert report.lower <= report.upper + 1e-9
    assert report.lower >= 2.0 - 5e-3
    assert report.lower_source == "optimized-one-way"
    assert [c.name for c in report.lower_candidates] == [
        "trivial-protocol",
        "optimized-one-way",
    ]
    assert {c.name for c in report.upper_candidates} == {
        "total-mutual-info",
        "entropy-plus-distillable",
    }
    assert report.details["one_way"].direction == LOWER
    trivial = [c for c in report.lower_candidates if c.name == "trivial-protocol"][0]
    assert trivial.value == pytest.approx(1.0, abs=1e-9)


def test_ci_lower_bracket_on_random_mixed():
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 5, rank=3)
    cfg = OptimizerConfig(restarts=4, max_iters=400, tol=1e-4, seed=19)
    report = ci_lower(rho, config=cfg)
    assert report.lower <= report.upper + 1e-9
    trivial = [c for c in report.lower_candidates if c.name == "trivial-protocol"][0]
    assert report.lower >= trivial.value - 1e-12
    assert report.details["ed_upper"] >= 0.0


@pytest.mark.parametrize(
    "name",
    ["w", "ghz", "product_eq10", "random-5", "random-11"],
)
def test_ci_lower_dominates_helper_classical_correlation(name):
    # I(A:B) - discord(A|B) is the one-round value with the receiver
    # ignored; data processing, I(A:CR) >= I(A:R) for every POVM, puts the
    # optimized one-round protocol above it
    if name.startswith("random-"):
        layout = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
        rho = random_mixed_state(layout, int(name[7:]), rank=3)
    else:
        rho = preset(name, (0.75,) if name == "product_eq10" else ())
    report = ci_lower(rho, config=CFG)
    a, b, c = resolve_tripartite(rho.layout)
    rho_ab = marginal(rho, a + b)
    classical = mutual_info(rho_ab, Partition(a, b)) - discord(rho_ab, a, b[0], CFG).value
    assert report.lower >= classical - 1e-6


def test_composite_helper_is_measured_as_one_party():
    # ci_lower hands its groups to one_way_ci, which merges the helper
    rho = preset("product_eq10", (0.75,))
    direct = one_way_ci(rho, "A", ("B1", "B2"), "C", CFG)
    report = ci_lower(rho, "A", ("B1", "B2"), "C", CFG)
    assert direct.value == report.details["one_way"].value
    assert direct.info["measured_party"] == "(B1+B2)"
    assert direct.achiever.party_dim == 4 and len(direct.achiever) == 16


def test_ci_pure_oneway_ghz():
    est = ci_pure_oneway(preset("ghz"), config=CFG)
    assert est.value == pytest.approx(2.0, abs=5e-3)
    assert est.value <= 2.0 + 1e-9
    assert est.direction == LOWER
    assert est.info["marginal_entropy"] == pytest.approx(1.0, abs=1e-12)
    assert est.info["assisted_entanglement"] == pytest.approx(1.0, abs=5e-3)


def test_ci_pure_oneway_rejects_mixed():
    iso = Mstate(SystemLayout((("A", 2), ("B", 2), ("C", 2))), np.eye(8) / 8.0)
    with pytest.raises(NotPure):
        ci_pure_oneway(iso)


def test_ci_pure_regularized_closed_forms():
    assert ci_pure_regularized(preset("ghz")) == pytest.approx(2.0, abs=1e-12)
    assert ci_pure_regularized(preset("w")) == pytest.approx(
        2.0 * binary_entropy(1.0 / 3.0), abs=1e-12
    )
    # symmetric regrouping of the same state gives the same rate
    assert ci_pure_regularized(preset("ghz"), "C", "A", "B") == pytest.approx(
        2.0, abs=1e-12
    )
    with pytest.raises(NotPure):
        ci_pure_regularized(preset("classical_classical"), "A", "B", ())


def test_ci_product_regularized_exact_at_zero():
    rho = preset("product_eq10", (0.0,))
    band = ci_product_regularized(rho, "A", "B1", "B2", "C")
    assert band.exact
    assert band.lower == pytest.approx(1.0, abs=1e-9)
    assert band.upper == band.lower


def test_ci_product_regularized_generic_band():
    rho = preset("product_eq10", (0.5,))
    band = ci_product_regularized(rho, "A", "B1", "B2", "C")
    assert isinstance(band, Bracket) and not band.exact
    right = marginal(rho, ("B2", "C"))
    lo = 1.0 + min(1.0, coherent_info_lower(right, Partition("B2", "C")))
    hi = 1.0 + min(1.0, log_negativity(right, Partition("B2", "C")))
    assert band.lower == pytest.approx(lo, abs=1e-12)
    assert band.upper == pytest.approx(hi, abs=1e-12)
    assert band.lower <= band.upper + 1e-12


def test_ci_product_regularized_rejects_bad_factorization():
    rho = preset("product_eq10", (0.5,))
    with pytest.raises(ShapeMismatch):
        ci_product_regularized(rho, "A", "B2", "B1", "C")
    with pytest.raises(NotPure):
        ci_product_regularized(rho, "B2", "C", "A", "B1")


def test_ci_product_regularized_builds_only_the_marginals_it_reads(monkeypatch):
    # the factorization is checked against the Kronecker product of the two
    # factors' matrices, so no 16-dimensional product state is built: only
    # the two factors and the three one-party marginals the rate reads
    rho = preset("product_eq10", (0.5,))
    built = []
    validate = Mstate.__post_init__

    def spy(state):
        built.append(state.layout.total_dim)
        validate(state)

    monkeypatch.setattr(Mstate, "__post_init__", spy)
    ci_product_regularized(rho, "A", "B1", "B2", "C")
    assert built == [4, 4, 2, 2, 2]


def test_discord_via_ci_matches_direct():
    bell = preset("bell")
    via = discord_via_ci(bell, "A", "B", CFG)
    direct = discord(bell, "A", "B", CFG)
    assert abs(via.value - direct.value) <= 2e-2
    assert via.info["mutual_info"] == pytest.approx(2.0, abs=1e-12)
    # a composite measured group is measured as one party: D(A|BC) = S(A)
    # on GHZ
    ghz = discord_via_ci(preset("ghz"), "A", ("B", "C"), CFG)
    assert ghz.value == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(LayoutMismatch):
        discord_via_ci(preset("ghz"), "A", "B", CFG)


def test_lqsm_fidelity_lower():
    ghz = preset("ghz")
    assert lqsm_fidelity_lower(ghz, 2.0) == 1.0
    assert lqsm_fidelity_lower(ghz, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert lqsm_fidelity_lower(ghz, 2.0 + 5e-10) == 1.0  # inside the slack
    with pytest.raises(InvalidArgument):
        lqsm_fidelity_lower(ghz, 2.0 + 1e-6)
    lonely = Mstate(SystemLayout((("A", 2),)), np.eye(2) / 2.0)
    with pytest.raises(LayoutMismatch):
        lqsm_fidelity_lower(lonely, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lqsm_fidelity_lower_rejects_non_finite(bad):
    with pytest.raises(InvalidArgument, match="finite"):
        lqsm_fidelity_lower(preset("ghz"), bad)


def test_lqsm_fidelity_monotone_in_ci():
    ghz = preset("ghz")
    grid = np.linspace(0.0, 2.0, 21)
    vals = [lqsm_fidelity_lower(ghz, x) for x in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_oneway_ci_upper_ghz():
    ghz = preset("ghz")
    pinned = oneway_ci_upper(ghz, discord_value=1.0)
    assert pinned == pytest.approx(2.0, abs=1e-9)
    searched = oneway_ci_upper(ghz, config=CFG)
    assert searched <= 2.0 + 1e-9
    assert searched >= 2.0 - 5e-3


def test_merge_conditional_entropy_check():
    ok = merge_conditional_entropy_check(preset("ghz"), "B", "C")
    assert ok.feasible
    assert abs(ok.conditional_entropy) <= 1e-9
    iso = Mstate(SystemLayout((("B", 2), ("C", 2))), np.eye(4) / 4.0)
    bad = merge_conditional_entropy_check(iso, "B", "C")
    assert not bad.feasible
    assert bad.conditional_entropy == pytest.approx(1.0, abs=1e-12)
    # an empty receiver is no receiver: S(B|) would silently be S(B)
    with pytest.raises(InvalidPartition, match="empty"):
        merge_conditional_entropy_check(preset("bell"), "B", ())


def test_monotone_necessary_check():
    ok = monotone_necessary_check(preset("ghz"))
    assert ok.passes
    assert ok.helper_side == pytest.approx(1.0, abs=1e-9)
    bad = monotone_necessary_check(preset("product_eq10", (0.0,)))
    assert not bad.passes
    assert bad.helper_side <= 1e-9
    assert bad.reference_side == pytest.approx(1.0, abs=1e-9)


def test_family15_two_round_merge_reaches_the_bit():
    for c in (C_STAR, 0.3):
        outcome = family15_two_round_merge(c)
        assert outcome.achieved_mi == pytest.approx(1.0, abs=1e-9)
        assert outcome.rounds == 2
        assert len(outcome.transcript) == 3
        assert outcome.final_state.layout.parties == (("A", 2), ("C", 2), ("R", 2))


def test_family15_separation_report():
    report = family15_separation_report(C_STAR, CFG)
    assert report.receiver_pair_residual <= 1e-12
    assert report.helper_receiver_mi <= 1e-12
    assert report.total_mi == pytest.approx(1.0, abs=1e-9)
    assert report.helper_discord.value > 0.01
    assert report.oneway_upper <= 1.0 - 0.01
    # the cap is oneway_ci_upper's formula, to the last bit
    upper = report.total_mi + report.helper_receiver_mi - report.helper_discord.value
    assert report.oneway_upper == upper
    assert report.two_round_mi == pytest.approx(1.0, abs=1e-9)
    assert report.gap > 0.01
    assert report.separated


def _cq_state():
    # classical bit on X pointing at nonorthogonal pure states of Y
    v0 = np.array([1.0, 0.0])
    vp = np.array([1.0, 1.0]) / math.sqrt(2.0)
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = 0.5 * np.outer(v0, v0)
    m[2:, 2:] = 0.5 * np.outer(vp, vp)
    return Mstate(SystemLayout((("X", 2), ("Y", 2))), m)


def test_discord_additivity_check_happy_path():
    check = discord_additivity_check(
        _cq_state(), "X", "Y", OptimizerConfig(restarts=4, max_iters=400, tol=1e-5, seed=23)
    )
    assert check.single.value > 0.1  # nonorthogonal branches leave real discord
    assert check.product_values[0] == pytest.approx(2.0 * check.single.value, abs=1e-9)
    assert len(check.product_values) == 5
    assert min(check.product_values) >= check.double.value - 1e-9
    assert check.double.value <= 2.0 * check.single.value + 1e-9
    assert abs(check.deviation) <= 2e-2
    assert check.single_classical == check.single.info["classical_correlation"]


def test_discord_additivity_check_builds_the_pair_once(monkeypatch):
    # the pair (X1+X2 | Y1+Y2) is built once on its composite layout: no
    # copy and no four-party product is built on the way
    family15 = preset("family15", (C_STAR,))
    built = []
    validate = Mstate.__post_init__

    def spy(state):
        built.append(state.layout.describe())
        validate(state)

    monkeypatch.setattr(Mstate, "__post_init__", spy)
    check = discord_additivity_check(
        family15, ("A", "C"), "B", OptimizerConfig(restarts=1, max_iters=10, tol=1e-3)
    )
    assert len(built) < 9
    assert built.count("((A+C)1+(A+C)2):16,(B1+B2):4") == 1
    assert check.double.info["measured_party"] == "(B1+B2)"


@pytest.mark.parametrize("name", ["family15", "pure"])
def test_two_copies_relaid_at_once_equal_the_relaid_product(name):
    # the copies' product relaid in one step is the product of the copies
    # merged: bit for bit, matrix and stored spectrum, for a mixed state; a
    # pure one stays a PureState, its matrix the outer product of the pair
    if name == "family15":
        merged, (lx, ly) = merge_groups(preset("family15", (C_STAR,)), (("A", "C"), "B"))
    else:
        merged, (lx, ly) = random_pure_state((("X", 2), ("Y", 3)), 5), ("X", "Y")
    dx, dy = merged.layout.dims
    copy1 = _relaid(merged, SystemLayout(((lx + "1", dx), (ly + "1", dy))))
    copy2 = _relaid(merged, SystemLayout(((lx + "2", dx), (ly + "2", dy))))
    old, labels = merge_groups(
        tensor(copy1, copy2), ((lx + "1", lx + "2"), (ly + "1", ly + "2"))
    )
    new = _relaid(merged, old.layout, (0, 2, 1, 3), copies=2)
    assert labels == old.layout.labels
    if name == "family15":
        assert np.array_equal(new.matrix, old.matrix)
        assert np.array_equal(new.spectrum, old.spectrum)
    else:
        pair = np.kron(merged.amplitudes, merged.amplitudes)
        assert isinstance(new, PureState)
        assert np.array_equal(
            new.amplitudes, pair.reshape(dx, dy, dx, dy).transpose(0, 2, 1, 3).reshape(-1)
        )
        assert np.abs(new.matrix - old.matrix).max() <= 1e-15


def test_discord_additivity_check_rejections():
    # a qutrit measured party is searched, not rejected: the dimension cap
    # is the only size limit
    v0 = np.array([1.0, 0.0, 0.0])
    v1 = np.ones(3) / math.sqrt(3.0)
    m = np.zeros((6, 6), dtype=complex)
    m[:3, :3] = 0.5 * np.outer(v0, v0)
    m[3:, 3:] = 0.5 * np.outer(v1, v1)
    qutrit = discord_additivity_check(Mstate(SystemLayout((("X", 2), ("Y", 3))), m), "X", "Y")
    assert qutrit.single.value > 0.1
    assert abs(qutrit.deviation) <= 1e-9
    assert qutrit.product_values[0] == pytest.approx(2.0 * qutrit.single.value, abs=1e-9)
    assert min(qutrit.product_values) >= qutrit.double.value - 1e-9
    # mixed qutrit branches are still the wrong shape
    wide = Mstate(SystemLayout((("X", 2), ("Y", 3))), np.eye(6) / 6.0)
    with pytest.raises(ShapeMismatch):
        discord_additivity_check(wide, "X", "Y")
    with pytest.raises(ShapeMismatch):
        discord_additivity_check(preset("bell"), "A", "B")
    mixed_branch = np.diag([0.25, 0.25, 0.5, 0.0]).astype(complex)
    cq = Mstate(SystemLayout((("X", 2), ("Y", 2))), mixed_branch)
    with pytest.raises(ShapeMismatch):
        discord_additivity_check(cq, "X", "Y")


def test_dilated_protocol_state_recovers_flagged_state():
    ghz = preset("ghz")
    basis = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    povm = rank1_povm(basis, 2)
    dil = dilated_protocol_state(ghz, povm, "B")
    assert dil.layout.parties == (("A", 2), ("B", 2), ("C", 2), ("R", 2), ("E", 2))
    assert dil.purity() > 1.0 - 1e-12
    back = marginal(dil, ("A", "C", "R"))
    flagged = flag_state(measure_ensemble(ghz, povm, "B"), "R")
    assert np.max(np.abs(back.matrix - flagged.matrix)) <= 1e-10


def test_dilated_protocol_state_four_outcomes():
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 31, rank=2)
    povm = rank1_povm(haar_unitary(4, 33), 2)
    dil = dilated_protocol_state(rho, povm, "B")
    # B keeps its dimension; the environment copy spans B (x) E, 2 * 2 = 4
    assert dil.layout.parties == (("A", 2), ("B", 2), ("C", 2), ("R", 4), ("E", 2))
    assert dil.layout.total_dim == 64
    back = marginal(dil, ("A", "C", "R"))
    flagged = flag_state(measure_ensemble(rho, povm, "B"), "R")
    assert np.max(np.abs(back.matrix - flagged.matrix)) <= 1e-10


def _three_copy_dilation(rho, vecs):
    """Reference dilation V|b> = sum_i conj(v_i[b]) |i>_B' |i>_R |i>_E of a
    qubit B on a three-qubit state, as a bare matrix ordered A, B', C, R, E.
    It is kept off `Mstate`: at four outcomes it is 256-dimensional."""
    k = vecs.shape[0]
    w = np.zeros((k, k, k, 2), dtype=complex)
    for i in range(k):
        w[i, i, i] = vecs[i].conj()
    w = w.reshape(k**3, 2)
    t = np.einsum("wb,xbyXBY,WB->xwyXWY", w, rho.matrix.reshape((2,) * 6), w.conj())
    t = t.reshape(2, k, k, k, 2, 2, k, k, k, 2).transpose(0, 1, 4, 2, 3, 5, 6, 9, 7, 8)
    return t.reshape(4 * k**3, 4 * k**3)


def _reduced_entropy(matrix, dims, keep):
    n = len(dims)
    rows = "abcdefghij"[:n]
    cols = "".join("klmnopqrst"[i] if i in keep else rows[i] for i in range(n))
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    reduced = np.einsum(f"{rows}{cols}->{out}", matrix.reshape(dims + dims))
    m = math.prod(dims[i] for i in keep)
    return matrix_entropy(reduced.reshape(m, m))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dilated_protocol_state_matches_three_copy_dilation(k):
    # parties A, B', C, R, E at positions 0..4 of the reference
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 40 + k)
    povm = rank1_povm(haar_unitary(k, 50 + k), 2)
    dil = dilated_protocol_state(rho, povm, "B")
    ref = _three_copy_dilation(rho, povm.vectors)
    dims = (2, k, 2, k, k)

    def s(*keep):
        return _reduced_entropy(ref, dims, keep)

    ref_cmi = s(0, 2, 3) + s(1, 2, 3, 4) - s(2, 3) - s(0, 1, 2, 3, 4)
    ref_kept = s(0) + s(2, 3) - s(0, 2, 3)
    cmi = conditional_mutual_info(dil, "A", ("B", "E"), ("C", "R"))
    kept = mutual_info(dil, Partition("A", ("C", "R")))
    assert abs(cmi - ref_cmi) <= 1e-12
    assert abs(kept - ref_kept) <= 1e-12

    pure = dilated_protocol_state(preset("ghz"), povm, "B")
    assert pure.purity() > 1.0 - 1e-12


def test_dilated_protocol_state_reads_bob_as_a_measured_label():
    ghz = preset("ghz")
    povm = rank1_povm(haar_unitary(4, 35), 2)
    plain = dilated_protocol_state(ghz, povm, "B")
    assert np.array_equal(dilated_protocol_state(ghz, povm, ("B",)).matrix, plain.matrix)
    with pytest.raises(LayoutMismatch, match="merge first"):
        dilated_protocol_state(ghz, povm, ("B", "C"))


def test_dilated_protocol_state_checks_the_cap(monkeypatch):
    three = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 63)
    dil = dilated_protocol_state(three, rank1_povm(haar_unitary(4, 64), 2), "B")
    assert dil.layout.total_dim == DIM_CAP
    # one outcome: two-dimensional R and E, so 16 * 4 fits and 32 * 4 does not
    identity = Povm(2, (np.eye(2),))
    d16 = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 4))), 65)
    assert dilated_protocol_state(d16, identity, "B").layout.total_dim == DIM_CAP
    d32 = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 8))), 66)
    # qutrit Bob, 9 outcomes: 2 * 3 * 2 * R 9 * E 3 = 324
    qutrit = random_mixed_state(SystemLayout((("A", 2), ("B", 3), ("C", 2))), 61)
    nine = rank1_povm(haar_unitary(9, 62), 3)
    built = []
    validate = Mstate.__post_init__

    def spy(state):
        built.append(state.layout.total_dim)
        validate(state)

    monkeypatch.setattr(Mstate, "__post_init__", spy)
    with pytest.raises(DimensionTooLarge, match="total dimension 128"):
        dilated_protocol_state(d32, identity, "B")
    with pytest.raises(DimensionTooLarge, match="total dimension 324"):
        dilated_protocol_state(qutrit, nine, "B")
    assert built == []  # rejected before any state is built


def test_dilated_information_balance():
    ghz = preset("ghz")
    povm = rank1_povm(haar_unitary(4, 35), 2)
    dil = dilated_protocol_state(ghz, povm, "B")
    lhs = conditional_mutual_info(dil, "A", ("B", "E"), ("C", "R"))
    rhs = mutual_info(ghz, Partition("A", ("B", "C"))) - mutual_info(
        dil, Partition("A", ("C", "R"))
    )
    assert abs(lhs - rhs) <= 1e-9


def test_dilated_protocol_state_without_vectors():
    # a rank-one POVM given by its elements alone: the outcome rows come
    # from each element's top eigenvector, whose phase is eigh's choice
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), 31, rank=2)
    with_vectors = rank1_povm(haar_unitary(4, 33), 2)
    bare = Povm(2, with_vectors.elements)
    assert bare.vectors is None
    dil = dilated_protocol_state(rho, bare, "B")
    reference = dilated_protocol_state(rho, with_vectors, "B")
    assert dil.layout == reference.layout
    # the row phases cancel once B'E is traced out
    kept = ("A", "C", "R")
    assert np.max(np.abs(marginal(dil, kept).matrix - marginal(reference, kept).matrix)) <= 1e-12
    lhs = conditional_mutual_info(dil, "A", ("B", "E"), ("C", "R"))
    rhs = mutual_info(rho, Partition("A", ("B", "C"))) - mutual_info(
        dil, Partition("A", ("C", "R"))
    )
    assert abs(lhs - rhs) <= 1e-9


def test_dilated_protocol_state_single_outcome():
    bell = preset("bell")
    dil = dilated_protocol_state(bell, Povm(2, (np.eye(2, dtype=complex),)), "B")
    assert dil.layout.parties == (("A", 2), ("B", 2), ("R", 2), ("E", 2))
    back = marginal(dil, ("A", "B"))
    assert np.max(np.abs(back.matrix - bell.matrix)) <= 1e-12


def test_dilated_protocol_state_errors():
    ghz = preset("ghz")
    halves = Povm(2, (np.eye(2) * 0.5, np.eye(2) * 0.5))
    with pytest.raises(NotRankOne):
        dilated_protocol_state(ghz, halves, "B")
    wide = rank1_povm(haar_unitary(3, 1), 3)
    with pytest.raises(LayoutMismatch):
        dilated_protocol_state(ghz, wide, "B")
    two = rank1_povm(np.eye(2, dtype=complex), 2)
    with pytest.raises(DuplicateParty):
        dilated_protocol_state(ghz, two, "B", register_label="A")
    with pytest.raises(DuplicateParty):
        dilated_protocol_state(ghz, two, "B", register_label="Q", env_label="Q")


PURE_PANEL = {
    "ghz": lambda: preset("ghz"),
    "w": lambda: preset("w"),
    "random-41": lambda: random_pure_state((("A", 2), ("B", 2), ("C", 2)), 41),
    "random-42": lambda: random_pure_state((("A", 2), ("B", 2), ("C", 2)), 42),
    "qutrit": lambda: random_pure_state((("A", 3), ("B", 2), ("C", 2)), 43),
}


@pytest.mark.parametrize("name", sorted(PURE_PANEL))
def test_ci_pure_oneway_never_exceeds_the_regularized_rate(name):
    # the lower-est tag: one round concentrates no more than the many-copy
    # rate, which GHZ reaches
    psi = PURE_PANEL[name]()
    one_round = ci_pure_oneway(psi, "A", "B", "C", CFG).value
    assert one_round <= ci_pure_regularized(psi, "A", "B", "C") + 1e-12
