"""A `PureState` is an `Mstate`: every function takes it as it is, and its
stored spectrum is the exact pure one, so its entropy is exactly 0."""

import ast
from pathlib import Path

import numpy as np
import pytest

from ci_toolkit import states
from ci_toolkit.info import Partition, conditional_entropy, mutual_info, vn_entropy
from ci_toolkit.measures import (
    UPPER,
    Bracket,
    coherent_info_lower,
    discord,
    ed_interval,
    kw_discord,
    log_negativity,
    measure_ensemble,
    povm_flag_mutual_info,
)
from ci_toolkit.optim import haar_unitary, rank1_povm
from ci_toolkit.states import (
    Ensemble,
    Mstate,
    marginal,
    partial_transpose,
    preset,
    purify,
    random_mixed_state,
    random_pure_state,
    tensor,
)

THREE = (("A", 2), ("B", 2), ("C", 2))
PURE = {
    "ghz": lambda: preset("ghz"),
    "w": lambda: preset("w"),
    "random": lambda: random_pure_state(THREE, 41),
}
CUT = Partition("A", ("B", "C"))
POVM = rank1_povm(haar_unitary(4, 3), 2)

# the nine functions that read a state's matrix or reductions without any
# conversion; each must take a pure state as it is
DOORS = {
    "marginal": lambda s: marginal(s, ("A", "C")),
    "partial_transpose": lambda s: partial_transpose(s, "A"),
    "tensor": lambda s: tensor(s, random_mixed_state((("D", 2),), 5)),
    "purify": lambda s: purify(s, "Z"),
    "measure_ensemble": lambda s: measure_ensemble(s, POVM, "B"),
    "povm_flag_mutual_info": lambda s: povm_flag_mutual_info(s, POVM, "B"),
    "log_negativity": lambda s: log_negativity(s, CUT),
    "coherent_info_lower": lambda s: coherent_info_lower(s, CUT),
    "ed_interval": lambda s: ed_interval(s, CUT),
}


def _assert_same(got, want):
    """States, matrices and ensembles bit for bit; numbers within 1e-12."""
    if isinstance(want, Mstate):
        assert got.layout == want.layout
        assert np.array_equal(got.matrix, want.matrix)
    elif isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    elif isinstance(want, Ensemble):
        assert np.array_equal(got.weights, want.weights)
        for a, b in zip(got.members, want.members, strict=True):
            _assert_same(a, b)
    elif isinstance(want, Bracket):
        assert got.exact == want.exact
        assert abs(got.lower - want.lower) <= 1e-12
        assert abs(got.upper - want.upper) <= 1e-12
    else:
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("state", sorted(PURE))
@pytest.mark.parametrize("door", sorted(DOORS))
def test_every_door_takes_a_pure_state_as_it_is(door, state):
    psi = PURE[state]()
    mixed = Mstate(psi.layout, psi.matrix)
    _assert_same(DOORS[door](psi), DOORS[door](mixed))


@pytest.mark.parametrize("name", ["ghz", "w", "bell"])
def test_a_pure_state_has_exactly_zero_entropy(name):
    psi = preset(name)
    assert conditional_entropy(psi, psi.layout.labels) == 0.0


def test_pure_mutual_information_is_exact():
    assert mutual_info(preset("bell"), Partition("A", "B")) == 2.0
    assert mutual_info(preset("ghz"), Partition("A", ("B", "C"))) == 2.0


@pytest.mark.parametrize("name", ["ghz", "w"])
def test_pure_mutual_information_of_a_merged_group_is_exact(name):
    # the merged pure state keeps its exact spectrum, so S(A+B, C) adds 0
    psi = preset(name)
    got = discord(psi, ("A", "B"), "C").info["mutual_info"]
    assert got == vn_entropy(marginal(psi, ("A", "B"))) + vn_entropy(marginal(psi, "C"))


def test_pure_upper_estimates_sit_on_their_side():
    # each is exactly 1; an eigensolved entropy of the whole pure state, a
    # few ulps above 0, would put the estimate below it
    bell, ghz = preset("bell"), preset("ghz")
    for est in (
        discord(bell, "A", "B"),
        kw_discord(bell, "A", "B"),
        kw_discord(ghz, ("A", "B"), "C"),
    ):
        assert est.direction == UPPER
        assert est.value >= 1.0


# the one function that keeps a pure state's amplitudes when it copies it
_KEEP_AMPLITUDES = {"_relaid"}


def _owned_nodes(tree):
    """Every node with the module-level function it sits in (None outside
    one)."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            yield owner, node


def _names_pure_state(node) -> bool:
    return any(
        (isinstance(n, ast.Name) and n.id == "PureState")
        or (isinstance(n, ast.Attribute) and n.attr == "PureState")
        for n in ast.walk(node)
    )


def test_one_state_type_in_the_package():
    hits = []
    for path in sorted(Path(states.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner, node in _owned_nodes(tree):
            named = (
                (isinstance(node, ast.Name) and node.id)
                or (isinstance(node, ast.Attribute) and node.attr)
                or (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name)
                or (isinstance(node, ast.alias) and node.name)
            )
            if named == "to_mstate":
                hits.append(f"{path.name}:{node.lineno}: to_mstate")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and _names_pure_state(node.args[1])
                and not (path.name == "states.py" and owner in _KEEP_AMPLITUDES)
            ):
                hits.append(f"{path.name}:{node.lineno}: isinstance(..., PureState)")
    assert not hits, "a PureState is an Mstate; take it as it is:\n" + "\n".join(hits)


def _copied_operand(call):
    """The ``<name>.matrix`` or ``<name>.amplitudes`` an `Mstate` or
    `PureState` call builds its state from, or None."""
    func = call.func
    built = (isinstance(func, ast.Name) and func.id) or (
        isinstance(func, ast.Attribute) and func.attr
    )
    if built not in ("Mstate", "PureState"):
        return None
    operands = call.args[1:2] + [
        k.value for k in call.keywords if k.arg in ("matrix", "amplitudes")
    ]
    for arg in operands:
        if (
            isinstance(arg, ast.Attribute)
            and arg.attr in ("matrix", "amplitudes")
            and isinstance(arg.value, ast.Name)
        ):
            return f"{built}(..., {arg.value.id}.{arg.attr})"
    return None


def test_states_are_copied_only_by_the_relay():
    hits = []
    for path in sorted(Path(states.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner, node in _owned_nodes(tree):
            if not isinstance(node, ast.Call):
                continue
            copied = _copied_operand(node)
            if copied and not (path.name == "states.py" and owner in _KEEP_AMPLITUDES):
                hits.append(f"{path.name}:{node.lineno}: {copied}")
    assert not hits, "carry a state onto a new layout with states._relaid:\n" + "\n".join(hits)
