import math

import pytest

import ci_toolkit.suites as suites
from ci_toolkit.ci import discord_additivity_check
from ci_toolkit.optim import OptimizerConfig
from ci_toolkit.states import DIM_CAP, Mstate, preset
from ci_toolkit.suites import (
    CheckResult,
    run_suites,
    suite_additivity,
    suite_bounds_chain,
    suite_cmi_identity,
    suite_continuity,
    suite_family15,
    suite_kw_cross,
    suite_pure_consistency,
)

QUICK = OptimizerConfig(restarts=4, max_iters=400, tol=1e-5, seed=7)


def _all_green(results, suite_name):
    assert results
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.suite == suite_name
        assert r.detail
        assert r.passed, f"{r.suite}/{r.name}: {r.detail}"


def test_suite_bounds_chain_small():
    results = suite_bounds_chain(QUICK, samples=2)
    _all_green(results, "bounds-chain")
    names = [r.name for r in results]
    assert names == [
        "one-way-under-cap[00]",
        "bracket-ordered[00]",
        "one-way-under-cap[01]",
        "bracket-ordered[01]",
        "fidelity-at-zero-gap",
        "fidelity-at-two-bit-gap",
        "fidelity-monotone-grid",
    ]


def test_suite_pure_consistency_small():
    results = suite_pure_consistency(QUICK, samples=1)
    _all_green(results, "pure-consistency")
    names = [r.name for r in results]
    assert names == ["ghz-regularized-rate", "rate-dominates-one-shot[00]", "dual-route[00]"]


def test_suite_family15_default_overlap():
    results = suite_family15(QUICK)
    _all_green(results, "family15")
    assert [r.name for r in results] == [
        "receiver-pair-maximally-mixed",
        "helper-receiver-uncorrelated",
        "total-correlation-one-bit",
        "helper-discord-positive",
        "one-round-cap-below-one-bit",
        "two-rounds-reach-total",
        "separation",
    ]


def test_suite_additivity_small():
    results = suite_additivity(OptimizerConfig(restarts=2, max_iters=200, tol=1e-5, seed=7))
    _all_green(results, "additivity")
    assert [r.name for r in results] == ["two-copy-deviation", "product-restriction"]


def test_suite_kw_cross_small():
    results = suite_kw_cross(QUICK, samples=2)
    _all_green(results, "kw-cross")
    assert [r.name for r in results] == ["exchange-route[00]", "exchange-route[01]"]


def test_suite_cmi_identity_small():
    results = suite_cmi_identity(QUICK, samples=2)
    _all_green(results, "cmi-identity")
    assert [r.name for r in results] == ["balance[00]", "balance[01]"]


def test_bookkeeping_states_stay_under_the_cap(monkeypatch):
    # the dilation (4 outcomes on three qubits) and the two-copy flag
    # information are the largest intermediate states the suites need
    sizes = []
    validate = Mstate.__post_init__

    def spy(state):
        sizes.append(state.layout.total_dim)
        validate(state)

    monkeypatch.setattr(Mstate, "__post_init__", spy)
    suite_cmi_identity(QUICK, samples=2)
    family15 = preset("family15", (math.cos(math.pi / 8.0),))
    discord_additivity_check(family15, ("A", "C"), "B", QUICK)
    assert max(sizes) <= DIM_CAP


def test_suite_continuity_small():
    results = suite_continuity(QUICK, samples=10)
    _all_green(results, "continuity")
    assert results[-1].name == "all-pairs"
    assert len(results) == 1  # failures would add pair[NN] rows


def test_checks_reproduce_independently_of_batch_size():
    # counter-based seed splitting: item k is the same state whether or not
    # the earlier items ran
    two = suite_cmi_identity(QUICK, samples=2)
    one = suite_cmi_identity(QUICK, samples=1)
    assert two[0] == one[0]


def test_run_suites_forms():
    results = run_suites("continuity", QUICK)
    assert {r.suite for r in results} == {"continuity"}
    both = run_suites(["cmi-identity", "continuity"], QUICK)
    assert [r.suite for r in both][0] == "cmi-identity"
    assert [r.suite for r in both][-1] == "continuity"
    with pytest.raises(KeyError):
        run_suites("nope", QUICK)
    with pytest.raises(KeyError):
        run_suites(["continuity", "nope"], QUICK)


def test_run_suites_all_expands_in_order(monkeypatch):
    calls = []

    def fake_a(config=None):
        calls.append("a")
        return [CheckResult("a", "only", True, "-")]

    def fake_b(config=None):
        calls.append("b")
        return [CheckResult("b", "only", True, "-")]

    monkeypatch.setattr(suites, "SUITES", {"a": fake_a, "b": fake_b})
    results = suites.run_suites("all", QUICK)
    assert calls == ["a", "b"]
    assert [r.suite for r in results] == ["a", "b"]
