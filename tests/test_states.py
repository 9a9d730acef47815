import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ci_toolkit import states
from ci_toolkit.errors import (
    DimensionTooLarge,
    DuplicateParty,
    InvalidArgument,
    InvalidMatrix,
    InvalidPartition,
    InvalidPreset,
    NotPSD,
    StateFileError,
    UnknownParty,
)
from ci_toolkit.states import (
    DIM_CAP,
    Ensemble,
    Mstate,
    PureState,
    SystemLayout,
    family15_bob_states,
    fresh_label,
    load_state_file,
    marginal,
    merge_groups,
    partial_transpose,
    permute_parties,
    preset,
    purify,
    random_mixed_state,
    random_pure_state,
    state_from_dict,
    tensor,
)
from ci_toolkit.tolerances import VALIDATE

THREE = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
TWO = SystemLayout((("A", 2), ("B", 2)))


def _bell():
    v = np.zeros(4)
    v[0] = v[3] = 1 / math.sqrt(2)
    return Mstate(TWO, np.outer(v, v))


# --- layouts ---------------------------------------------------------------


def test_layout_accessors():
    lay = SystemLayout((("A", 2), ("B", 3)))
    assert lay.labels == ("A", "B")
    assert lay.dims == (2, 3)
    assert lay.total_dim == 6
    assert lay.index("B") == 1
    assert lay.dim_of("B") == 3
    assert lay.group_dim(("A", "B")) == 6
    assert lay.describe() == "A:2,B:3"


def test_layout_rejects_duplicates_and_small_dims():
    with pytest.raises(DuplicateParty):
        SystemLayout((("A", 2), ("A", 2)))
    with pytest.raises(InvalidArgument):
        SystemLayout((("A", 1),))


@pytest.mark.parametrize(
    "parties, match",
    [
        ((("A", 2.9),), "dim must be an integer"),
        ((("A", True),), "dim must be an integer"),
        (((1, 2),), "label must be a non-empty string"),
        ((("", 2),), "label must be a non-empty string"),
    ],
    ids=["float-dim", "bool-dim", "int-label", "empty-label"],
)
def test_layout_rejects_what_it_would_otherwise_coerce(parties, match):
    # rejected, not truncated to a dim or turned into a label
    with pytest.raises(InvalidArgument, match=match):
        SystemLayout(parties)


def test_layout_keeps_numpy_integer_dims():
    lay = SystemLayout((("A", np.int64(2)), ("B", np.int32(3))))
    assert lay.dims == (2, 3)
    assert all(type(d) is int for d in lay.dims)


def test_layout_unknown_party():
    with pytest.raises(UnknownParty):
        THREE.index("Q")


# the cap's edge: 64 = 2^6 fits, 65 = 5 * 13 does not
AT_CAP = tuple((f"Q{i}", 2) for i in range(6))
PAST_CAP = (("P", 5), ("R", 13))


def _built_mstates(monkeypatch):
    """Record the total dimension of every Mstate built from here on."""
    sizes = []
    validate = Mstate.__post_init__

    def spy(state):
        sizes.append(state.layout.total_dim)
        validate(state)

    monkeypatch.setattr(Mstate, "__post_init__", spy)
    return sizes


def test_layout_checks_the_dimension_cap():
    assert DIM_CAP == 64
    assert SystemLayout(AT_CAP).total_dim == 64
    with pytest.raises(DimensionTooLarge, match="layout P:5,R:13: total dimension 65"):
        SystemLayout(PAST_CAP)
    with pytest.raises(DimensionTooLarge):
        SystemLayout(AT_CAP + (("Z", 2),))


def test_tensor_checks_the_dimension_cap():
    half = random_mixed_state((("A", 2), ("B", 4)), 3)
    assert tensor(half, random_mixed_state((("C", 8),), 4)).layout.total_dim == 64
    with pytest.raises(DimensionTooLarge):
        tensor(random_mixed_state((("P", 5),), 5), random_mixed_state((("R", 13),), 6))
    with pytest.raises(DimensionTooLarge):
        tensor(half, random_mixed_state((("C", 9),), 7))


def test_purify_checks_the_dimension_cap():
    # 32 dimensions times the ancilla: rank 2 gives 64, rank 3 gives 96
    layout = AT_CAP[:5]
    assert purify(random_mixed_state(layout, 8, rank=2), "Z").layout.total_dim == 64
    with pytest.raises(DimensionTooLarge):
        purify(random_mixed_state(layout, 9, rank=3), "Z")
    with pytest.raises(DimensionTooLarge):
        purify(random_pure_state(AT_CAP, 10), "Z")


# --- state containers -------------------------------------------------------


def test_mstate_validation():
    with pytest.raises(InvalidMatrix):
        Mstate(TWO, np.eye(3) / 3.0)
    nh = np.eye(4) / 4.0
    nh = nh.astype(complex)
    nh[0, 1] = 0.1
    with pytest.raises(InvalidMatrix):
        Mstate(TWO, nh)
    with pytest.raises(InvalidMatrix):
        Mstate(TWO, np.eye(4) / 2.0)
    with pytest.raises(NotPSD):
        Mstate(TWO, np.diag([0.75, 0.75, -0.25, -0.25]))


def test_mstate_matrix_is_frozen():
    rho = _bell()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


def test_purity():
    assert np.isclose(_bell().purity(), 1.0)
    iso = Mstate(TWO, np.eye(4) / 4.0)
    assert np.isclose(iso.purity(), 0.25)


def test_pure_state_validation_and_to_mstate():
    with pytest.raises(InvalidMatrix):
        PureState(TWO, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InvalidMatrix):
        PureState(TWO, np.array([1.0, 1.0, 0.0, 0.0]))
    v = np.zeros(4)
    v[0] = v[3] = 1 / math.sqrt(2)
    psi = PureState(TWO, v)
    assert np.max(np.abs(psi.matrix - _bell().matrix)) <= 1e-14


def test_ensemble_validation_and_average():
    psi0 = PureState(TWO, [1, 0, 0, 0])
    psi3 = PureState(TWO, [0, 0, 0, 1])
    ens = Ensemble((0.5, 0.5), (psi0, psi3))
    avg = ens.average()
    assert np.allclose(np.diag(avg.matrix).real, [0.5, 0, 0, 0.5])
    with pytest.raises(InvalidArgument):
        Ensemble((0.7, 0.7), (psi0, psi3))
    with pytest.raises(InvalidArgument):
        Ensemble((1.0,), (psi0, psi3))
    with pytest.raises(InvalidArgument):
        Ensemble((), ())
    other = PureState(SystemLayout((("X", 4),)), [1, 0, 0, 0])
    with pytest.raises(InvalidArgument):
        Ensemble((0.5, 0.5), (psi0, other))


def test_non_finite_input_is_rejected():
    bad = _bell().matrix.copy()
    bad[0, 0] = np.nan
    with pytest.raises(InvalidMatrix):
        Mstate(TWO, bad)
    bad = _bell().matrix.copy()
    bad[0, 3] = bad[3, 0] = np.nan
    with pytest.raises(InvalidMatrix):
        Mstate(TWO, bad)
    with pytest.raises(InvalidMatrix):
        PureState(TWO, [np.nan, 0, 0, 1])
    psi0 = PureState(TWO, [1, 0, 0, 0])
    psi3 = PureState(TWO, [0, 0, 0, 1])
    for weights in ((np.nan, 0.5), (np.inf, 0.5)):
        with pytest.raises(InvalidArgument):
            Ensemble(weights, (psi0, psi3))


# --- structural operations --------------------------------------------------


def test_tensor_appends_and_rejects_clashes():
    q = Mstate(SystemLayout((("C", 2),)), np.diag([1.0, 0.0]))
    out = tensor(_bell(), q)
    assert out.layout.labels == ("A", "B", "C")
    assert np.isclose(out.matrix[0, 0].real, 0.5)
    with pytest.raises(DuplicateParty):
        tensor(_bell(), Mstate(SystemLayout((("A", 2),)), np.eye(2) / 2.0))


def test_partial_trace_bell_marginal():
    red = marginal(_bell(), "A")
    assert red.layout.labels == ("A",)
    assert np.allclose(red.matrix, np.eye(2) / 2.0)


def test_partial_trace_keeps_order():
    ghz = preset("ghz")
    red = marginal(ghz, ("A", "C"))
    assert red.layout.labels == ("A", "C")
    # GHZ with B removed is classically correlated across A:C
    assert np.allclose(np.diag(red.matrix).real, [0.5, 0, 0, 0.5])


def test_partial_trace_is_kept_on_its_state():
    rho = random_mixed_state(THREE, 5)
    red = marginal(rho, "A")
    assert marginal(rho, ("A",)) is red
    assert marginal(rho, ("B", "C")) is marginal(rho, ("C", "B"))
    # the group check still runs on every call, before the lookup
    with pytest.raises(UnknownParty):
        marginal(rho, ("A", "Q"))
    with pytest.raises(InvalidPartition):
        marginal(rho, ("A", "A"))
    with pytest.raises(InvalidPartition):
        marginal(rho, ())
    assert marginal(rho, "A") is red


def test_partial_trace_ignores_the_order_parties_are_named_in():
    # parties are traced in layout order, so the order the first call names
    # the kept group in cannot decide the bits every later call reads
    wide = SystemLayout((("A", 2), ("B", 3), ("C", 2), ("D", 2)))
    first = marginal(random_mixed_state(wide, 6), ("D", "B"))
    second = marginal(random_mixed_state(wide, 6), ("B", "D"))
    assert first.layout.labels == second.layout.labels == ("B", "D")
    assert np.array_equal(first.matrix, second.matrix)


def test_marginal_keeps_the_named_group_in_layout_order():
    rho = random_mixed_state(THREE, 5)
    red = marginal(rho, ("C", "A"))
    assert red.layout.labels == ("A", "C")
    assert marginal(rho, ("A", "C")) is red
    assert marginal(rho, ("C", "B", "A")) is rho
    # the group check still runs on every call, before the lookup
    with pytest.raises(InvalidPartition):
        marginal(rho, ("A", "C", "A"))


@pytest.mark.parametrize(
    "keep, error",
    [((), InvalidPartition), (("B", "B"), InvalidPartition), (("A", "Q"), UnknownParty)],
    ids=["empty", "repeated", "unknown"],
)
def test_marginal_checks_its_group(keep, error):
    with pytest.raises(error):
        marginal(random_mixed_state(THREE, 5), keep)


# A:2 x B:4 with lambda_min = -9e-11: accepted, but Tr_B scales that
# eigenvalue by d_B = 4, below the -1e-10 of a user-supplied matrix
EPS = 9e-11
SLIGHTLY_NEGATIVE = np.kron(np.diag([(1 + 4 * EPS) / 4, -EPS]), np.eye(4))


def test_reduction_of_an_accepted_state_is_accepted():
    rho = Mstate(SystemLayout((("A", 2), ("B", 4))), SLIGHTLY_NEGATIVE)
    assert rho.spectrum.min() == pytest.approx(-EPS, rel=1e-6)
    red = marginal(rho, "A")
    assert red.spectrum.min() == pytest.approx(-4 * EPS, rel=1e-6)
    assert np.allclose(marginal(rho, "B").matrix, np.eye(4) / 4)
    # each reduction's bound follows its own parent's eigenvalue, so a
    # reduction of a reduction is accepted too
    delta = 4 * EPS
    nested = Mstate(THREE, np.kron(np.diag([1 + delta, -delta]), np.eye(4) / 4))
    step = marginal(marginal(nested, ("A", "B")), "A")
    assert step.spectrum.min() == pytest.approx(-delta, rel=1e-6)
    assert np.array_equal(step.matrix, marginal(nested, "A").matrix)
    # reordering or merging the parties of a reduction keeps its allowance
    pair = marginal(nested, ("A", "B"))
    assert pair.spectrum.min() < -VALIDATE
    assert permute_parties(pair, ("B", "A")).spectrum.min() == pytest.approx(-delta / 2)
    assert merge_groups(pair, (("A", "B"),))[0].layout.dims == (4,)
    # a user-supplied matrix still meets the plain -1e-10 check
    with pytest.raises(NotPSD, match="below -1e-10"):
        Mstate(SystemLayout((("A", 2),)), red.matrix)


def test_spectrum_is_stored_in_kernel_form():
    generic = random_mixed_state(TWO, 8)
    assert np.array_equal(generic.spectrum, np.linalg.eigvalsh(generic.matrix))
    diag = Mstate(TWO, np.diag([0.4, 0.3, 0.2, 0.1]))
    assert np.array_equal(diag.spectrum, [0.4, 0.3, 0.2, 0.1])
    with pytest.raises(ValueError):
        generic.spectrum[0] = 0.0


def test_only_states_diagonalizes_a_state():
    # a state's spectrum is stored when it is built; `eigh` calls that need
    # eigenvectors are out of this guard's scope
    hits = []
    for path in sorted(Path(states.__file__).resolve().parent.glob("*.py")):
        if path.name == "states.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "eigvalsh"
                and any(
                    isinstance(arg, ast.Attribute) and arg.attr == "matrix"
                    for arg in node.args
                )
            ):
                hits.append(f"{path.name}:{node.lineno}: eigvalsh of .matrix")
    assert not hits, "read Mstate.spectrum instead:\n" + "\n".join(hits)


def test_a_pure_state_is_an_mstate_with_the_exact_spectrum():
    psi = preset("ghz")
    assert isinstance(psi, Mstate)
    assert np.array_equal(psi.spectrum, [0, 0, 0, 0, 0, 0, 0, 1])
    with pytest.raises(ValueError):
        psi.spectrum[0] = 1.0


def test_permute_parties_identity_returns_the_input():
    rho = random_mixed_state(THREE, 9)
    assert permute_parties(rho, ("A", "B", "C")) is rho
    psi = preset("w")
    assert permute_parties(psi, ("A", "B", "C")) is psi


def test_merge_groups_returns_the_input_when_nothing_merges():
    rho = random_mixed_state(THREE, 9)
    red = marginal(rho, ("A", "C"))
    merged, labels = merge_groups(rho, ("A", "B", "C"))
    assert merged is rho and labels == ("A", "B", "C")
    # so the marginals already taken are still there
    assert marginal(merged, ("A", "C")) is red
    # out of layout order, the permuted copy is the result
    merged, labels = merge_groups(rho, ("C", "A", "B"))
    assert labels == ("C", "A", "B") and merged.layout.labels == labels


def test_merge_groups_primes_a_composite_name_already_taken():
    four = SystemLayout((("A", 2), ("B", 2), ("C", 2), ("(B+C)", 2)))
    merged, labels = merge_groups(random_mixed_state(four, 3), ("A", ("B", "C"), "(B+C)"))
    assert labels == ("A", "(B+C)'", "(B+C)")
    assert merged.layout.parties == (("A", 2), ("(B+C)'", 4), ("(B+C)", 2))
    # two composites can spell the same name; the later one is primed
    plus = SystemLayout((("A+B", 2), ("C", 2), ("A", 2), ("B+C", 2)))
    _, labels = merge_groups(random_mixed_state(plus, 3), (("A+B", "C"), ("A", "B+C")))
    assert labels == ("(A+B+C)", "(A+B+C)'")


def test_fresh_label_primes_past_every_given_label():
    assert fresh_label(("Z", "Z'"), "Z") == "Z''"
    assert fresh_label(("A", "B"), "Z") == "Z"


def test_partial_transpose_bell_has_negative_eigenvalue():
    pt = partial_transpose(_bell(), "A")
    assert isinstance(pt, np.ndarray)
    w = np.linalg.eigvalsh(pt)
    assert np.isclose(w[0], -0.5, atol=1e-12)
    # transposing both subsystems is a full transpose
    both = partial_transpose(_bell(), ("A", "B"))
    assert np.allclose(both, _bell().matrix.T)


def test_partial_transpose_rejects_repeated_label():
    # transposing A twice would undo the transpose and hide the entanglement
    with pytest.raises(InvalidPartition):
        partial_transpose(_bell(), ("A", "A"))


def test_permute_parties_round_trip():
    psi = random_pure_state(THREE, 5)
    fwd = permute_parties(psi, ("C", "A", "B"))
    assert fwd.layout.labels == ("C", "A", "B")
    back = permute_parties(fwd, ("A", "B", "C"))
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-15

    rho = random_mixed_state(THREE, 6)
    fwd = permute_parties(rho, ("B", "C", "A"))
    back = permute_parties(fwd, ("A", "B", "C"))
    assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-15


def test_permute_parties_rejects_non_permutation():
    with pytest.raises(InvalidArgument):
        permute_parties(_bell(), ("A",))


@pytest.mark.parametrize("name", ["ghz", "w"])
def test_merge_groups_keeps_a_pure_state_pure(name):
    psi = preset(name)
    merged, labels = merge_groups(psi, (("A", "B"), ("C",)))
    assert isinstance(merged, PureState)
    assert labels == ("(A+B)", "C")
    assert merged.layout.parties == (("(A+B)", 4), ("C", 2))
    assert np.array_equal(merged.spectrum, [0, 0, 0, 0, 0, 0, 0, 1])
    # a contiguous merge moves no data
    assert np.array_equal(merged.amplitudes, psi.amplitudes)
    assert np.array_equal(merged.matrix, psi.matrix)


def test_merge_groups_builds_one_state_per_composite_merge(monkeypatch):
    rho = random_mixed_state(THREE, 12)
    permuted = permute_parties(rho, ("A", "C", "B"))
    relabelled = Mstate(SystemLayout((("(A+C)", 4), ("B", 2))), permuted.matrix)
    built = _built_mstates(monkeypatch)
    merged, labels = merge_groups(rho, (("A", "C"), ("B",)))
    assert built == [8]
    assert labels == ("(A+C)", "B")
    assert merged.layout == relabelled.layout
    assert np.array_equal(merged.matrix, relabelled.matrix)
    assert np.array_equal(merged.spectrum, relabelled.spectrum)


def test_purify_round_trip():
    rho = random_mixed_state(TWO, 9)
    psi = purify(rho, "Z")
    assert psi.layout.labels == ("A", "B", "Z")
    back = marginal(psi, ("A", "B"))
    assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-10


def test_purify_rank_deficient_uses_small_ancilla():
    rho = random_mixed_state(TWO, 10, rank=2)
    psi = purify(rho, "Z")
    assert psi.layout.dim_of("Z") == 2
    back = marginal(psi, ("A", "B"))
    assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-10


def test_purify_pure_input_appends_vacuum():
    psi = purify(_bell(), "Z")
    assert psi.layout.dim_of("Z") == 2
    amps = psi.amplitudes
    # input (x) |0> up to a global phase
    assert np.allclose(np.abs(amps[[0, 6]]), 1 / math.sqrt(2))
    assert np.allclose(np.delete(amps, [0, 6]), 0.0)
    assert np.isclose(amps[0] * np.conj(amps[6]), 0.5)


def test_purify_rejects_existing_label():
    with pytest.raises(DuplicateParty):
        purify(_bell(), "A")


# --- presets -----------------------------------------------------------------


def test_preset_ghz_w_bell():
    ghz = preset("ghz")
    assert np.allclose(ghz.amplitudes[[0, 7]], 1 / math.sqrt(2))
    w = preset("w")
    assert np.allclose(w.amplitudes[[1, 2, 4]], 1 / math.sqrt(3))
    bell = preset("bell")
    assert bell.layout.labels == ("A", "B")
    with pytest.raises(InvalidPreset):
        preset("ghz", (0.5,))
    with pytest.raises(InvalidPreset):
        preset("nope")


def test_family15_bob_states_are_orthonormal_pairs():
    for c in (0.3, math.cos(math.pi / 8)):
        b = family15_bob_states(c)
        assert np.isclose(np.vdot(b[2], b[2]).real, 1.0)
        assert abs(np.vdot(b[2], b[3])) <= 1e-15
        assert np.isclose(abs(np.vdot(b[0], b[2])), c)


def test_preset_family15_structure():
    c = 0.6
    rho = preset("family15", (c,))
    assert rho.layout.describe() == "A:2,B:2,C:2"
    # equal-weight classical flags on A and C
    red = marginal(rho, ("A", "C"))
    assert np.allclose(np.diag(red.matrix).real, 0.25)
    assert np.isclose(np.trace(rho.matrix).real, 1.0)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(InvalidPreset):
            preset("family15", (bad,))
    with pytest.raises(InvalidPreset):
        preset("family15")


def test_preset_product_eq10():
    rho = preset("product_eq10")
    assert rho.layout.labels == ("A", "B1", "B2", "C")
    half = preset("product_eq10", (0.5,))
    right = marginal(half, ("B2", "C"))
    # spectrum of 0.5*bell + 0.5*identity/4 is (0.625, 0.125, 0.125, 0.125)
    assert np.isclose(right.purity(), 0.625 ** 2 + 3 * 0.125 ** 2, atol=1e-12)
    left = marginal(half, ("A", "B1"))
    assert np.isclose(left.purity(), 1.0, atol=1e-12)
    with pytest.raises(InvalidPreset):
        preset("product_eq10", (1.5,))


def test_preset_classical_classical():
    rho = preset("classical_classical")
    assert np.allclose(np.diag(rho.matrix).real, [0.5, 0, 0, 0.5])
    skew = preset("classical_classical", (0.1, 0.2, 0.3, 0.4))
    assert np.allclose(np.diag(skew.matrix).real, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(InvalidPreset):
        preset("classical_classical", (0.5, 0.5))
    with pytest.raises(InvalidPreset):
        preset("classical_classical", (0.9, 0.9, -0.4, -0.4))


def test_preset_max_correlated():
    params = (0.5, 0.0, 0.25, 0.0, 0.25, 0.0, 0.5, 0.0)
    rho = preset("max_correlated", params)
    assert rho.layout.parties == (("X", 2), ("Z", 2))
    m = rho.matrix
    assert np.isclose(m[0, 3].real, 0.25)
    assert np.isclose(m[1, 1].real, 0.0)
    with pytest.raises(InvalidPreset):
        preset("max_correlated")
    with pytest.raises(InvalidPreset):
        preset("max_correlated", (0.5, 0.0, 0.5))  # odd count
    with pytest.raises(InvalidPreset):
        preset("max_correlated", (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))  # not square
    # non-hermitian coefficients
    with pytest.raises(InvalidPreset):
        preset("max_correlated", (0.5, 0.0, 0.25, 0.1, 0.25, 0.1, 0.5, 0.0))


@pytest.mark.parametrize(
    "name,params,match",
    [
        (["ghz"], (), "unknown preset"),
        ("family15", ["x"], "numbers"),
        ("family15", [None], "numbers"),
        ("family15", 0.5, "numbers"),
        ("family15", [math.inf], "finite"),
        ("classical_classical", [math.nan, 0.0, 0.0, 0.5], "finite"),
        ("max_correlated", [0.5, 0.0, math.nan, 0.0, math.nan, 0.0, 0.5, 0.0], "finite"),
    ],
)
def test_preset_rejects_bad_names_and_params(name, params, match):
    with pytest.raises(InvalidPreset, match=match):
        preset(name, params)


def _max_correlated_params(m):
    return [x for a in (np.eye(m) / m).ravel() for x in (a, 0.0)]


def test_preset_respects_dimension_cap(monkeypatch):
    assert preset("max_correlated", _max_correlated_params(8)).layout.total_dim == 64
    built = _built_mstates(monkeypatch)
    with pytest.raises(DimensionTooLarge, match="X:9,Z:9"):
        preset("max_correlated", _max_correlated_params(9))
    assert built == []  # rejected before any state is built


# --- random states -----------------------------------------------------------


def test_random_states_are_seed_deterministic():
    a = random_pure_state(THREE, 42)
    b = random_pure_state(THREE, 42)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = random_pure_state(THREE, 43)
    assert not np.allclose(a.amplitudes, c.amplitudes)

    m1 = random_mixed_state(TWO, 42)
    m2 = random_mixed_state(TWO, 42)
    assert np.array_equal(m1.matrix, m2.matrix)


def test_random_states_check_the_dimension_cap():
    assert random_pure_state(AT_CAP, 1).layout.total_dim == 64
    assert random_mixed_state(AT_CAP, 2, rank=3).layout.total_dim == 64
    with pytest.raises(DimensionTooLarge):
        random_pure_state(PAST_CAP, 3)
    with pytest.raises(DimensionTooLarge):
        random_mixed_state(PAST_CAP, 4)


def test_random_mixed_state_rank():
    rho = random_mixed_state(TWO, 3, rank=2)
    w = np.linalg.eigvalsh(rho.matrix)
    assert np.sum(w > 1e-12) == 2
    with pytest.raises(InvalidArgument):
        random_mixed_state(TWO, 3, rank=0)
    with pytest.raises(InvalidArgument):
        random_mixed_state(TWO, 3, rank=5)


def test_random_states_accept_label_dim_pairs():
    psi = random_pure_state((("X", 2), ("Y", 3)), 1)
    assert psi.layout.total_dim == 6


# --- state files ---------------------------------------------------------------


def _bell_matrix_doc():
    pairs = [[0.0, 0.0]] * 16
    for i in (0, 3, 12, 15):
        pairs[i] = [0.5, 0.0]
    return {
        "parties": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}],
        "matrix": pairs,
    }


def test_state_from_dict_matrix():
    rho = state_from_dict(_bell_matrix_doc())
    assert np.max(np.abs(rho.matrix - _bell().matrix)) <= 1e-12


def test_state_from_dict_ensemble():
    doc = {
        "parties": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}],
        "ensemble": {
            "weights": [0.5, 0.5],
            "vectors": [
                [[1, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [1, 0]],
            ],
        },
    }
    rho = state_from_dict(doc)
    assert np.allclose(np.diag(rho.matrix).real, [0.5, 0, 0, 0.5])


def test_state_from_dict_ensemble_normalizes_vectors():
    doc = {
        "parties": [{"label": "A", "dim": 2}],
        "ensemble": {"weights": [1.0], "vectors": [[[2, 0], [0, 0]]]},
    }
    rho = state_from_dict(doc)
    assert np.isclose(rho.matrix[0, 0].real, 1.0)


def test_state_from_dict_preset_with_relabel():
    doc = {
        "preset": {"name": "bell"},
        "parties": [{"label": "L", "dim": 2}, {"label": "M", "dim": 2}],
    }
    psi = state_from_dict(doc)
    assert psi.layout.labels == ("L", "M")


def test_state_from_dict_error_messages_name_the_field():
    with pytest.raises(StateFileError, match="parties"):
        state_from_dict({"matrix": []})
    with pytest.raises(StateFileError, match=r"parties\[0\].dim"):
        state_from_dict({"parties": [{"label": "A", "dim": 1}], "matrix": []})
    with pytest.raises(StateFileError, match="exactly one"):
        state_from_dict({"parties": [{"label": "A", "dim": 2}]})
    with pytest.raises(StateFileError, match="exactly one"):
        state_from_dict(
            {"parties": [{"label": "A", "dim": 2}], "matrix": [], "preset": {"name": "bell"}}
        )
    doc = _bell_matrix_doc()
    doc["matrix"] = doc["matrix"][:7]
    with pytest.raises(StateFileError, match="16"):
        state_from_dict(doc)
    doc = _bell_matrix_doc()
    doc["matrix"][2] = [0.1]
    with pytest.raises(StateFileError, match=r"matrix\[2\]"):
        state_from_dict(doc)
    with pytest.raises(StateFileError, match="preset"):
        state_from_dict({"preset": {"name": "nope"}})
    bad_ens = {
        "parties": [{"label": "A", "dim": 2}],
        "ensemble": {"weights": [0.4, 0.4], "vectors": [[[1, 0], [0, 0]]]},
    }
    with pytest.raises(StateFileError, match="vectors"):
        state_from_dict(bad_ens)


@pytest.mark.parametrize(
    "spec",
    [
        {"name": "family15", "params": ["x"]},
        {"name": ["ghz"]},
        {"name": "classical_classical", "params": [math.nan, 0.0, 0.0, 0.5]},
        {"name": "family15", "params": [math.inf]},
    ],
)
def test_state_from_dict_rejects_bad_preset_bodies(spec):
    with pytest.raises(StateFileError, match="^preset: "):
        state_from_dict({"preset": spec})


def test_state_from_dict_rejects_non_physical_matrix():
    doc = _bell_matrix_doc()
    doc["matrix"][1] = [0.3, 0.0]  # breaks hermiticity
    with pytest.raises(StateFileError, match="matrix"):
        state_from_dict(doc)


def _file_parties(parties):
    return [{"label": l, "dim": d} for l, d in parties]


def _maximally_mixed_doc(parties):
    d = math.prod(dim for _, dim in parties)
    return {
        "parties": _file_parties(parties),
        "matrix": [[a, 0.0] for a in (np.eye(d) / d).ravel()],
    }


def test_state_from_dict_dimension_cap(monkeypatch):
    assert state_from_dict(_maximally_mixed_doc(AT_CAP)).layout.total_dim == 64
    past_ensemble = {
        "parties": _file_parties(PAST_CAP),
        "ensemble": {"weights": [1.0], "vectors": [[[1.0, 0.0]] + [[0.0, 0.0]] * 64]},
    }
    past_preset = {"preset": {"name": "max_correlated", "params": _max_correlated_params(9)}}
    built = _built_mstates(monkeypatch)
    for doc in (_maximally_mixed_doc(PAST_CAP), past_ensemble, past_preset):
        with pytest.raises(DimensionTooLarge):
            state_from_dict(doc)
    assert built == []


def test_load_state_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(_bell_matrix_doc()))
    rho = load_state_file(path)
    assert rho.layout.labels == ("A", "B")

    with pytest.raises(StateFileError, match="cannot read"):
        load_state_file(tmp_path / "missing.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(StateFileError, match="not valid JSON"):
        load_state_file(bad)
