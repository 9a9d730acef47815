"""End-to-end acceptance run at the package-wide default configuration.

Each verification suite runs once (module-scoped fixtures) and the tests
below assert, per claim, that every check in the corresponding suite came
back green and that the documented runtime budgets hold.  Budgets are
asserted on the full suite's wall time, which strictly contains the work
the claim needs, so a passing budget here implies the claim's own budget.
"""

import time

import numpy as np
import pytest

from ci_toolkit.info import conditional_mutual_info
from ci_toolkit.optim import OptimizerConfig
from ci_toolkit.qmat import psd_sqrt
from ci_toolkit.states import (
    Mstate,
    SystemLayout,
    marginal,
    purify,
    random_mixed_state,
)
from ci_toolkit.suites import (
    suite_additivity,
    suite_bounds_chain,
    suite_cmi_identity,
    suite_continuity,
    suite_family15,
    suite_kw_cross,
    suite_pure_consistency,
)

CFG = OptimizerConfig()  # restarts=32, max_iters=2000, tol=1e-6, seed=7


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    results = fn(*args, **kwargs)
    return results, time.perf_counter() - t0


def _green(results, names_like=""):
    picked = [r for r in results if r.name.startswith(names_like)]
    assert picked, f"no checks matching {names_like!r}"
    bad = [r for r in picked if not r.passed]
    assert not bad, "; ".join(f"{r.suite}/{r.name}: {r.detail}" for r in bad)
    return picked


@pytest.fixture(scope="module")
def pure_run():
    return _timed(suite_pure_consistency, CFG, samples=20)


@pytest.fixture(scope="module")
def bounds_run():
    return _timed(suite_bounds_chain, CFG, samples=50)


@pytest.fixture(scope="module")
def family_run():
    return _timed(suite_family15, CFG)


@pytest.fixture(scope="module")
def additivity_run():
    return _timed(suite_additivity, CFG)


@pytest.fixture(scope="module")
def kw_run():
    return _timed(suite_kw_cross, CFG, samples=10)


@pytest.fixture(scope="module")
def cmi_run():
    return _timed(suite_cmi_identity, CFG, samples=10)


@pytest.fixture(scope="module")
def continuity_run():
    return _timed(suite_continuity, CFG, samples=100)


def test_many_copy_rate_closed_form_and_dominance(pure_run):
    results, elapsed = pure_run
    _green(results, "ghz-regularized-rate")
    assert len(_green(results, "rate-dominates-one-shot")) == 20
    assert elapsed < 180.0


def test_pure_state_dual_route_agreement(pure_run):
    results, elapsed = pure_run
    assert len(_green(results, "dual-route")) == 20
    assert elapsed < 600.0


def test_mixed_state_bracket_chain_zero_violations(bounds_run):
    results, _ = bounds_run
    assert len(_green(results, "one-way-under-cap")) == 50
    assert len(_green(results, "bracket-ordered")) == 50


def test_flag_family_two_rounds_beat_one(family_run):
    results, _ = family_run
    assert [r.name for r in results] == [
        "receiver-pair-maximally-mixed",
        "helper-receiver-uncorrelated",
        "total-correlation-one-bit",
        "helper-discord-positive",
        "one-round-cap-below-one-bit",
        "two-rounds-reach-total",
        "separation",
    ]
    _green(results)


def test_two_copy_discord_additivity(additivity_run):
    results, elapsed = additivity_run
    _green(results, "two-copy-deviation")
    _green(results, "product-restriction")
    assert elapsed < 1200.0


def test_exchange_route_matches_direct_discord(kw_run):
    results, _ = kw_run
    assert len(_green(results, "exchange-route")) == 10


def test_merge_fidelity_closed_form_and_monotone(bounds_run):
    results, _ = bounds_run
    _green(results, "fidelity-at-zero-gap")
    _green(results, "fidelity-at-two-bit-gap")
    _green(results, "fidelity-monotone-grid")


def test_depolarized_pairs_within_continuity_bound(continuity_run):
    results, _ = continuity_run
    assert len(results) == 1  # any violating pair would add its own row
    _green(results, "all-pairs")


def test_dilated_measurement_information_balance(cmi_run):
    results, _ = cmi_run
    assert len(_green(results, "balance")) == 10


def test_kernel_numerics_floor():
    rng = np.random.default_rng(2026)
    for dim in (2, 3, 4, 8, 16, 32, 64):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ g.conj().T
        m /= np.trace(m).real
        root = psd_sqrt(m)
        assert np.max(np.abs(root @ root - m)) <= 1e-10

    layouts = (
        SystemLayout((("A", 2), ("B", 2), ("C", 2))),
        SystemLayout((("A", 2), ("B", 3), ("C", 2))),
    )
    for k in range(200):
        rho = random_mixed_state(layouts[k % 2], 10_000 + k)
        assert conditional_mutual_info(rho, "A", "B", ("C",)) >= -1e-9

    trips = (
        (SystemLayout((("A", 2), ("B", 2))), None),
        (SystemLayout((("A", 2), ("B", 2), ("C", 2))), 3),
        (SystemLayout((("A", 2), ("B", 3))), 2),
        (SystemLayout((("A", 8),)), None),
    )
    for j, (layout, rank) in enumerate(trips):
        rho = random_mixed_state(layout, 20_000 + j, rank=rank)
        psi = purify(rho, "Z")
        back = marginal(psi, layout.labels)
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-10
