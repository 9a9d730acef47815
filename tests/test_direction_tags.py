"""The direction tags an estimate carries are the strings the CLI prints,
set once as `measures.EXACT`, `LOWER` and `UPPER`. One guard fails on any
string literal elsewhere in the package that spells a bounding tag, or the
long forms they replaced, naming file and line.

One rule sets an estimate's tag: `measures._povm_search` makes every
`MeasureEstimate`, tagged by the sense it searched, and an exact shift of
one is `MeasureEstimate.derive`-d, keeping the tag for a plus sign and
swapping it for a minus. The guards below keep `MeasureEstimate(...)` inside
`_povm_search` and the tags out of `ci` and `suites`, and a table pins the
tag of each of the seven estimates."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from ci_toolkit import measures
from ci_toolkit.ci import ci_pure_oneway, discord_via_ci
from ci_toolkit.measures import (
    LOWER,
    UPPER,
    MeasureEstimate,
    discord,
    eoa,
    eof,
    kw_discord,
    one_way_ci,
)
from ci_toolkit.optim import OptimizerConfig, rank1_povm
from ci_toolkit.states import SystemLayout, random_mixed_state, random_pure_state

PACKAGE = Path(measures.__file__).resolve().parent
TAGS = {"lower-est", "upper-est", "lower_bound_estimate", "upper_bound_estimate"}


def test_the_constants_are_the_printed_tags():
    assert (measures.EXACT, measures.LOWER, measures.UPPER) == (
        "exact",
        "lower-est",
        "upper-est",
    )


def test_no_module_spells_a_bounding_tag():
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "measures.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in TAGS:
                hits.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not hits, "use measures.LOWER / UPPER instead of:\n" + "\n".join(hits)


def _trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_only_the_povm_search_makes_an_estimate():
    makers = []
    for name, tree in _trees().items():
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "MeasureEstimate" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    makers.append(f"{name}:{owner}")
    assert makers == ["measures.py:_povm_search"]


def test_the_povm_search_takes_no_direction():
    assert "direction" not in inspect.signature(measures._povm_search).parameters


@pytest.mark.parametrize("module", ["ci.py", "suites.py"])
def test_derived_estimates_name_no_tag(module):
    # a name, an attribute or an imported alias
    hits = [
        f"{module}:{getattr(node, 'lineno', '?')}"
        for node in ast.walk(_trees()[module])
        if {"LOWER", "UPPER"}
        & {getattr(node, key, None) for key in ("id", "attr", "name")}
    ]
    assert not hits, "derive the tag instead of naming it:\n" + "\n".join(hits)


# --- the rule --------------------------------------------------------------------


def test_derive_keeps_the_tag_for_a_plus_and_swaps_it_for_a_minus():
    cfg = OptimizerConfig(restarts=2)
    povm = rank1_povm(np.eye(2, dtype=complex), 2)
    for tag, swapped in ((LOWER, UPPER), (UPPER, LOWER)):
        inner = MeasureEstimate(0.25, tag, cfg, povm, {"outcomes": 4, "ancilla_dim": 2})
        plus = inner.derive(1.25, 1, ancilla_dim=3, shift=1.0)
        minus = inner.derive(0.75, -1, mutual_info=1.0)
        assert (plus.value, plus.direction) == (1.25, tag)
        assert (minus.value, minus.direction) == (0.75, swapped)
        for out in (plus, minus):
            assert out.config is cfg and out.achiever is povm
        assert plus.info == {"outcomes": 4, "ancilla_dim": 3, "shift": 1.0}
        assert minus.info == {"outcomes": 4, "ancilla_dim": 2, "mutual_info": 1.0}
        assert inner == MeasureEstimate(
            0.25, tag, cfg, povm, {"outcomes": 4, "ancilla_dim": 2}
        )


QUICK = OptimizerConfig(restarts=4, max_iters=500, tol=1e-5, seed=13)
THREE = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
XY = SystemLayout((("X", 2), ("Y", 2)))
MIXED = random_mixed_state(XY, 91, rank=2)
MIXED_ABC = random_mixed_state(THREE, 8)
PURE_ABC = random_pure_state(THREE, 5)

# every search below is on a qubit or a rank-2 purification: K = 4 outcomes
ESTIMATES = {
    "one_way_ci": (lambda: one_way_ci(MIXED_ABC, "A", "B", "C", QUICK), LOWER),
    "discord": (lambda: discord(MIXED, "X", "Y", QUICK), UPPER),
    "eoa": (lambda: eoa(MIXED, "X", QUICK), LOWER),
    "eof": (lambda: eof(MIXED, "X", QUICK), UPPER),
    "kw_discord": (lambda: kw_discord(MIXED, "X", "Y", QUICK), UPPER),
    "ci_pure_oneway": (lambda: ci_pure_oneway(PURE_ABC, "A", "B", "C", QUICK), LOWER),
    "discord_via_ci": (lambda: discord_via_ci(MIXED, "X", "Y", QUICK), UPPER),
}


@pytest.mark.parametrize("name", list(ESTIMATES))
def test_each_estimate_takes_its_tag_and_the_search_record(name):
    run, tag = ESTIMATES[name]
    est = run()
    assert est.direction == tag
    assert est.info["outcomes"] == 4
