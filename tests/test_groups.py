"""Every grouping of a layout's party labels is filled and checked in
`ci_toolkit.states`: `default_groups` fills the groups a caller leaves out,
by position, and `check_groups`, `rest_of` and `check_group_cover` check
them. A measured group may name several parties; the searches merge it into
one (`merge_groups`). `measured_label` insists on one label, of the POVM's
dimension, only where a caller hands in a POVM built for one party.

A group's reduced state comes from `states.marginal`, or from
`states._marginal` in a function that has checked its groups once for
several reductions, or in a private form (`info._mutual_info`,
`measures._discord`) whose every caller has, and a repeated label is
rejected by the `SystemLayout` a new state is built on.

The guards below fail, naming file and line, when another module raises the
group errors or ``DuplicateParty`` itself, validates a label by calling
`.index(` for its side effect, calls `measured_label` outside the
functions that take a caller's POVM, or calls `_marginal` in a function
that checks no group and is not such a private form."""

import ast
from pathlib import Path

import pytest

from ci_toolkit import ci, info, measures, states
from ci_toolkit.ci import lqsm_fidelity_lower, resolve_tripartite
from ci_toolkit.errors import InvalidPartition, LayoutMismatch, UnknownParty
from ci_toolkit.info import Partition, conditional_mutual_info
from ci_toolkit.measures import eoa
from ci_toolkit.optim import OptimizerConfig, haar_unitary, rank1_povm
from ci_toolkit.states import (
    SystemLayout,
    check_group_cover,
    check_groups,
    default_groups,
    measured_label,
    preset,
    random_mixed_state,
    random_pure_state,
    rest_of,
)

PACKAGE = Path(states.__file__).resolve().parent
GROUP_ERRORS = {"UnknownParty", "InvalidPartition"}


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _outside_states():
    """(file name, node) for every syntax node of the package outside
    `states`."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "states.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.name, node


def test_only_states_checks_party_groups():
    hits = []
    for name, node in _outside_states():
        if isinstance(node, ast.Raise) and _raised_name(node) in GROUP_ERRORS:
            hits.append(f"{name}:{node.lineno}: raise {_raised_name(node)}")
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "index"
        ):
            hits.append(f"{name}:{node.lineno}: bare .index( call")
    assert not hits, "check party groups with ci_toolkit.states:\n" + "\n".join(hits)


def test_only_states_raises_duplicate_party():
    hits = [
        f"{name}:{node.lineno}: raise DuplicateParty"
        for name, node in _outside_states()
        if isinstance(node, ast.Raise) and _raised_name(node) == "DuplicateParty"
    ]
    assert not hits, "build the SystemLayout, which rejects a repeated label:\n" + "\n".join(hits)


# the functions that take a caller's POVM for one party
POVM_TAKERS = {
    ("measures.py", "measure_ensemble"),
    ("measures.py", "povm_flag_mutual_info"),
    ("ci.py", "dilated_protocol_state"),
}


def _called_name(node: ast.Call) -> str | None:
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    return f.attr if isinstance(f, ast.Attribute) else None


def test_measured_label_only_where_a_povm_is_given():
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "states.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.name, getattr(top, "name", None)) in POVM_TAKERS:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _called_name(node) == "measured_label":
                    hits.append(f"{path.name}:{node.lineno}: measured_label call")
    assert not hits, "pass measured groups to the search, which merges them:\n" + "\n".join(hits)


# the calls that check a group: directly, through a `Partition`, through
# a cover check (`check_group_cover`, and the calls made of it), or through
# `measured_label`
GROUP_CHECKS = {
    "check_groups",
    "restrict",
    "validate",
    "check_group_cover",
    "resolve_tripartite",
    "merge_groups",
    "measured_label",
}


def _uses(trees):
    """(module, function) -> the (module, function) of every top-level
    function that names it, None for a mention at module level: bare names
    resolve to the module's own functions and to its package imports."""
    uses = {}
    for module, tree in trees.items():
        scope = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                scope.update({a.asname or a.name: (node.module, a.name) for a in node.names})
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                scope[node.name] = (module, node.name)
        for top in tree.body:
            user = (module, top.name) if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id in scope:
                    target = scope[node.id]
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in trees
                ):
                    target = (node.value.id, node.attr)
                else:
                    continue
                if target != user:
                    uses.setdefault(target, set()).add(user)
    return uses


def test_unchecked_marginal_only_after_a_group_check():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    found = []
    for module, tree in trees.items():
        for top in ast.walk(tree):
            if not isinstance(top, ast.FunctionDef):
                continue
            called = {
                (_called_name(node), node.lineno)
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
            }
            names = {name for name, _ in called}
            checks = bool(names & GROUP_CHECKS)
            lines = sorted(line for name, line in called if name == "_marginal")
            found.append((module, top, checks, lines))
    # a private top-level form may reduce unchecked when every function
    # that names it checks its groups or is itself such a form
    guarded = {(m, top.name) for m, top, checks, _ in found if checks}
    private = {
        (m, top.name)
        for m, top, checks, lines in found
        if lines and not checks and top.name.startswith("_") and top in trees[m].body
    }
    uses = _uses(trees)
    grown = True
    while grown:
        reached = {f for f in private - guarded if uses.get(f) and uses[f] <= guarded}
        guarded |= reached
        grown = bool(reached)
    hits = [
        f"{m}.py:{line}: _marginal in {top.name}"
        for m, top, checks, lines in found
        if not checks and not (top in trees[m].body and (m, top.name) in guarded)
        for line in lines
    ]
    assert not hits, "check the groups before _marginal, or call marginal:\n" + "\n".join(hits)


THREE = SystemLayout((("A", 2), ("B", 2), ("C", 2)))


def test_group_errors_are_layout_mismatches():
    assert issubclass(UnknownParty, LayoutMismatch)
    assert issubclass(InvalidPartition, LayoutMismatch)


def test_check_groups_normalizes_and_rejects():
    assert check_groups(THREE, "A", ("C", "B")) == (("A",), ("C", "B"))
    assert check_groups(THREE) == ()
    with pytest.raises(InvalidPartition, match="'A'"):
        check_groups(THREE, ("A", "A"))
    with pytest.raises(InvalidPartition, match="'B'"):
        check_groups(THREE, ("A", "B"), "B")
    with pytest.raises(InvalidPartition, match="empty"):
        check_groups(THREE, "A", ())
    with pytest.raises(UnknownParty, match="'Q'"):
        check_groups(THREE, "A", ("B", "Q"))


def test_rest_of_keeps_layout_order():
    assert rest_of(THREE, "C", ("A",)) == ("B",)
    assert rest_of(THREE, "B") == ("A", "C")
    assert rest_of(THREE) == ("A", "B", "C")
    assert rest_of(THREE, ("C", "A", "B")) == ()


def test_check_group_cover_requires_every_party():
    assert check_group_cover(THREE, ("C", "A"), "B") == (("C", "A"), ("B",))
    with pytest.raises(LayoutMismatch, match="'C'"):
        check_group_cover(THREE, "A", "B")
    with pytest.raises(InvalidPartition):
        check_group_cover(THREE, "A", ("B", "C"), "A")


def test_default_groups_fill_by_position():
    assert default_groups(THREE, None, None, None) == (("A",), ("B",), ("C",))
    assert default_groups(THREE, None, None) == (("A",), ("B", "C"))
    assert default_groups(THREE, None) == (("A", "B", "C"),)
    # given groups pass through unchecked; the last default is the rest
    assert default_groups(THREE, "C", None) == ("C", ("A", "B"))
    assert default_groups(THREE, ("B", "C"), None, None) == (("B", "C"), ("B",), ("A",))
    assert default_groups(THREE, None, ("B", "C"), None) == (("A",), ("B", "C"), ())
    assert default_groups(THREE, None, None, ("C",)) == (("A",), ("B",), ("C",))
    assert default_groups(THREE, None, None, None, None) == (("A",), ("B",), ("C",), ())
    with pytest.raises(LayoutMismatch, match="at least 4 parties"):
        default_groups(THREE, None, None, None, None, None)


def test_measured_label_is_one_known_label():
    assert measured_label(THREE, "B", 2) == "B"
    assert measured_label(THREE, ("B",), 2) == "B"
    with pytest.raises(LayoutMismatch, match="merge first"):
        measured_label(THREE, ("B", "C"), 4)
    with pytest.raises(UnknownParty):
        measured_label(THREE, "Q", 2)
    with pytest.raises(LayoutMismatch, match="dimension 3, party 'B' has dimension 2"):
        measured_label(THREE, "B", 3)


QUICK = OptimizerConfig(restarts=1, max_iters=10, tol=1e-3)
GHZ = preset("ghz")


@pytest.mark.parametrize(
    "call",
    [
        lambda: eoa(GHZ, ("A", "Q"), QUICK),
        lambda: lqsm_fidelity_lower(GHZ, 0.0, "Q"),
        lambda: resolve_tripartite(GHZ.layout, "A", "B", ("C", "Q")),
        lambda: conditional_mutual_info(GHZ, "A", "B", "Q"),
    ],
    ids=["eoa", "lqsm_fidelity_lower", "resolve_tripartite", "conditional_mutual_info"],
)
def test_unknown_label_raises_unknown_party(call):
    with pytest.raises(UnknownParty, match="'Q'"):
        call()


THREE_MIXED = random_mixed_state(THREE, 81)
THREE_PURE = random_pure_state(THREE, 81)
PRODUCT = preset("product_eq10")
FAMILY15 = preset("family15", (0.9238795325112867,))
# each door checks its groups once, however many reductions, searches and
# bounds it takes after that
_DOORS = {
    "ci_lower": lambda: ci.ci_lower(THREE_MIXED, config=QUICK),
    "ci_upper": lambda: ci.ci_upper(THREE_MIXED),
    "ed_interval": lambda: measures.ed_interval(THREE_MIXED, Partition(("A", "B"), "C")),
    "log_negativity": lambda: measures.log_negativity(THREE_MIXED, Partition("A", "B")),
    "one_way_ci": lambda: measures.one_way_ci(THREE_MIXED, "A", "B", "C", QUICK),
    "monotone_necessary_check": lambda: ci.monotone_necessary_check(THREE_MIXED),
    "discord": lambda: measures.discord(THREE_MIXED, ("A", "C"), "B", QUICK),
    "kw_discord": lambda: measures.kw_discord(THREE_MIXED, ("A", "C"), "B", QUICK),
    "eoa": lambda: measures.eoa(THREE_MIXED, "A", QUICK),
    "eof": lambda: measures.eof(THREE_MIXED, ("A", "B"), QUICK),
    "regularized_eoa": lambda: measures.regularized_eoa(THREE_MIXED, "A"),
    "oneway_ci_upper": lambda: ci.oneway_ci_upper(THREE_MIXED, config=QUICK),
    "ci_pure_oneway": lambda: ci.ci_pure_oneway(THREE_PURE, config=QUICK),
    "ci_product_regularized": lambda: ci.ci_product_regularized(
        PRODUCT, "A", "B1", "B2", "C"
    ),
    "discord_via_ci": lambda: ci.discord_via_ci(THREE_MIXED, ("A", "C"), "B", QUICK),
    "lqsm_fidelity_lower": lambda: ci.lqsm_fidelity_lower(THREE_MIXED, 0.0),
    "merge_conditional_entropy_check": lambda: ci.merge_conditional_entropy_check(
        THREE_MIXED, "B", "C"
    ),
    "discord_additivity_check": lambda: ci.discord_additivity_check(
        FAMILY15, ("A", "C"), "B", QUICK
    ),
    "povm_flag_mutual_info": lambda: measures.povm_flag_mutual_info(
        THREE_MIXED, rank1_povm(haar_unitary(4, 3)[:, :2], 2), "B"
    ),
    "family15_separation_report": lambda: ci.family15_separation_report(0.75, QUICK),
    "family15_two_round_merge": lambda: ci.family15_two_round_merge(0.75),
}


@pytest.mark.parametrize("name", sorted(_DOORS))
def test_each_door_checks_its_groups_once(monkeypatch, name):
    checks = []
    check = states.check_groups

    def spy(layout, *groups):
        checks.append(groups)
        return check(layout, *groups)

    for module in (states, info, measures, ci):
        monkeypatch.setattr(module, "check_groups", spy)
    _DOORS[name]()
    assert len(checks) == 1
