"""Named verification suites, shared by the CLI and the acceptance tests.

Each suite returns a list of `CheckResult`s.  All randomness is derived
by counter-based splitting from a single base seed (one SeedSequence per
suite item), so individual checks reproduce identically regardless of
which other checks ran before them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ci import (
    ci_lower,
    ci_pure_oneway,
    ci_pure_regularized,
    dilated_protocol_state,
    discord_additivity_check,
    family15_separation_report,
    lqsm_fidelity_lower,
)
from .info import (
    Partition,
    conditional_mutual_info,
    mi_continuity_bound,
    mutual_info,
    trace_distance,
)
from .measures import discord, kw_discord, one_way_ci
from .optim import OptimizerConfig, haar_unitary, rank1_povm
from .states import (
    Mstate,
    SystemLayout,
    preset,
    random_mixed_state,
    random_pure_state,
)

# per-suite tags for the seed-splitting scheme; never reuse or renumber
_TAG_BOUNDS = 11
_TAG_PURE = 12
_TAG_KW = 13
_TAG_CMI = 14
_TAG_CONTINUITY = 15

_THREE_QUBITS = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
_TWO_QUBITS = SystemLayout((("X", 2), ("Y", 2)))
_OVERLAP = math.cos(math.pi / 8.0)  # family15's critical overlap


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _split(base_seed: int, tag: int, item: int, n: int = 2) -> list[int]:
    ss = np.random.SeedSequence([int(base_seed), tag, item])
    return [int(s) for s in ss.generate_state(n)]


def _check(suite: str, name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(suite, name, bool(passed), detail)


# ---------------------------------------------------------------------------


def suite_bounds_chain(config: OptimizerConfig | None = None, samples: int = 50):
    """Random mixed three-qubit states: the optimized one-round estimate
    stays under the information-theoretic cap, and every report's bracket
    is ordered.  Also exercises the merging-fidelity corollary: exact
    values at gap 0 and 2 bits, monotone on a 100-point gap grid."""
    cfg = config or OptimizerConfig()
    out = []
    for k in range(samples):
        s_state, s_opt = _split(cfg.seed, _TAG_BOUNDS, k)
        rho = random_mixed_state(_THREE_QUBITS, s_state)
        report = ci_lower(rho, "A", "B", ("C",), replace(cfg, seed=s_opt))
        ow = report.details["one_way"].value
        out.append(
            _check(
                "bounds-chain",
                f"one-way-under-cap[{k:02d}]",
                ow <= report.upper + 2e-2,
                f"one-way={ow:.9f} cap={report.upper:.9f} slack=2e-02",
            )
        )
        out.append(
            _check(
                "bounds-chain",
                f"bracket-ordered[{k:02d}]",
                report.lower <= report.upper + 1e-9,
                f"lower={report.lower:.9f} upper={report.upper:.9f}",
            )
        )
    ghz = preset("ghz")
    total = mutual_info(ghz, Partition("A", ("B", "C")))
    f_zero = lqsm_fidelity_lower(ghz, total)
    out.append(
        _check(
            "bounds-chain",
            "fidelity-at-zero-gap",
            f_zero == 1.0,
            f"value={f_zero!r} expected exactly 1.0",
        )
    )
    f_two = lqsm_fidelity_lower(ghz, total - 2.0)
    out.append(
        _check(
            "bounds-chain",
            "fidelity-at-two-bit-gap",
            abs(f_two - 0.5) <= 1e-12,
            f"value={f_two:.15f} expected 0.5 tol=1e-12",
        )
    )
    grid = np.linspace(0.0, 2.0, 100)
    fids = [lqsm_fidelity_lower(ghz, total - g) for g in grid]
    monotone = all(fids[i + 1] <= fids[i] + 1e-12 for i in range(len(fids) - 1))
    out.append(
        _check(
            "bounds-chain",
            "fidelity-monotone-grid",
            monotone,
            f"100-point gap grid, first={fids[0]:.9f} last={fids[-1]:.9f}",
        )
    )
    return out


def suite_pure_consistency(config: OptimizerConfig | None = None, samples: int = 20):
    """Pure global states: the closed-form many-copy rate on the GHZ state,
    the rate dominating each single-copy one-round estimate, and the two
    routes to the one-round value (direct optimization vs reference entropy
    plus steered entanglement) agreeing."""
    cfg = config or OptimizerConfig()
    out = []
    ghz = preset("ghz")
    reg = ci_pure_regularized(ghz, "A", "B", ("C",))
    out.append(
        _check(
            "pure-consistency",
            "ghz-regularized-rate",
            abs(reg - 2.0) <= 1e-9,
            f"value={reg:.12f} expected 2 tol=1e-09",
        )
    )
    for k in range(samples):
        s_state, s_opt = _split(cfg.seed, _TAG_PURE, k)
        psi = random_pure_state(_THREE_QUBITS, s_state)
        cfg_k = replace(cfg, seed=s_opt)
        ow = one_way_ci(psi, "A", "B", ("C",), cfg_k)
        reg_k = ci_pure_regularized(psi, "A", "B", ("C",))
        out.append(
            _check(
                "pure-consistency",
                f"rate-dominates-one-shot[{k:02d}]",
                reg_k >= ow.value - 5e-3,
                f"rate={reg_k:.9f} one-way={ow.value:.9f} slack=5e-03",
            )
        )
        route = ci_pure_oneway(psi, "A", "B", ("C",), cfg_k)
        gap = abs(ow.value - route.value)
        out.append(
            _check(
                "pure-consistency",
                f"dual-route[{k:02d}]",
                gap <= 5e-3,
                f"|direct-steered|={gap:.3e} tol=5e-03",
            )
        )
    return out


def suite_family15(config: OptimizerConfig | None = None):
    """The classical-flag family at the separating overlap: receiver pair
    maximally mixed, one full bit of total correlation, strictly positive
    helper discord, a one-round cap strictly below one bit, and the
    two-round protocol recovering the full bit."""
    cfg = config or OptimizerConfig()
    rep = family15_separation_report(_OVERLAP, cfg)
    out = [
        _check(
            "family15",
            "receiver-pair-maximally-mixed",
            rep.receiver_pair_residual <= 1e-12,
            f"trace-distance={rep.receiver_pair_residual:.3e} tol=1e-12",
        ),
        _check(
            "family15",
            "helper-receiver-uncorrelated",
            rep.helper_receiver_mi <= 1e-12,
            f"I(helper:receiver)={rep.helper_receiver_mi:.3e} tol=1e-12",
        ),
        _check(
            "family15",
            "total-correlation-one-bit",
            abs(rep.total_mi - 1.0) <= 1e-9,
            f"I(ref:rest)={rep.total_mi:.12f} expected 1 tol=1e-09",
        ),
        _check(
            "family15",
            "helper-discord-positive",
            rep.helper_discord.value > 0.01,
            f"discord={rep.helper_discord.value:.9f} threshold=0.01",
        ),
        _check(
            "family15",
            "one-round-cap-below-one-bit",
            rep.oneway_upper <= 0.99,
            f"cap={rep.oneway_upper:.9f} threshold=0.99",
        ),
        _check(
            "family15",
            "two-rounds-reach-total",
            abs(rep.two_round_mi - 1.0) <= 1e-9,
            f"achieved={rep.two_round_mi:.12f} expected 1 tol=1e-09",
        ),
        _check(
            "family15",
            "separation",
            rep.separated,
            f"two-round - cap = {rep.gap:.9f} > 0.01",
        ),
    ]
    return out


def suite_additivity(config: OptimizerConfig | None = None):
    """Two-copy discord of the classical-flag family (helper side measured):
    equals twice the single-copy value within tolerance, and the
    product-measurement restriction pins the restricted optimum at exactly
    twice the single-copy value."""
    cfg = config or OptimizerConfig()
    rho = preset("family15", (_OVERLAP,))
    chk = discord_additivity_check(rho, ("A", "C"), "B", cfg)
    restricted = min(chk.product_values)
    return [
        _check(
            "additivity",
            "two-copy-deviation",
            abs(chk.deviation) <= 2e-2,
            f"double={chk.double.value:.9f} 2*single={2 * chk.single.value:.9f} "
            f"|dev|={abs(chk.deviation):.3e} tol=2e-02",
        ),
        _check(
            "additivity",
            "product-restriction",
            restricted <= 2.0 * chk.single.value + 1e-6,
            f"restricted-min={restricted:.9f} 2*single={2 * chk.single.value:.9f} "
            "slack=1e-06",
        ),
    ]


def suite_kw_cross(config: OptimizerConfig | None = None, samples: int = 10):
    """Rank-two two-qubit states: the direct measurement optimization and
    the formation-entanglement exchange route give the same discord."""
    cfg = config or OptimizerConfig()
    out = []
    for k in range(samples):
        s_state, s_opt = _split(cfg.seed, _TAG_KW, k)
        rho = random_mixed_state(_TWO_QUBITS, s_state, rank=2)
        cfg_k = replace(cfg, seed=s_opt)
        direct = discord(rho, "X", "Y", cfg_k)
        exchanged = kw_discord(rho, "X", "Y", cfg_k)
        gap = abs(direct.value - exchanged.value)
        out.append(
            _check(
                "kw-cross",
                f"exchange-route[{k:02d}]",
                gap <= 2e-2,
                f"direct={direct.value:.9f} exchange={exchanged.value:.9f} "
                f"|gap|={gap:.3e} tol=2e-02",
            )
        )
    return out


def suite_cmi_identity(config: OptimizerConfig | None = None, samples: int = 10):
    """Dilated measurement bookkeeping: the conditional mutual information
    of the dilated state equals the drop in reference correlation caused by
    the measurement, to solver accuracy."""
    cfg = config or OptimizerConfig()
    out = []
    for k in range(samples):
        s_state, s_povm = _split(cfg.seed, _TAG_CMI, k)
        rho = random_mixed_state(_THREE_QUBITS, s_state)
        outcomes = 2 if k % 2 == 0 else 4
        povm = rank1_povm(haar_unitary(outcomes, s_povm), 2)
        dil = dilated_protocol_state(rho, povm, bob="B")
        lhs = conditional_mutual_info(dil, "A", ("B", "E"), ("C", "R"))
        total = mutual_info(rho, Partition("A", ("B", "C")))
        kept = mutual_info(dil, Partition("A", ("C", "R")))
        residual = abs(lhs - (total - kept))
        out.append(
            _check(
                "cmi-identity",
                f"balance[{k:02d}]",
                residual <= 1e-9,
                f"|CMI-(total-kept)|={residual:.3e} tol=1e-09",
            )
        )
    return out


def suite_continuity(config: OptimizerConfig | None = None, samples: int = 100):
    """Depolarized pairs: the mutual-information difference never exceeds
    3 T log2(d) + 3 h(T) at trace distance T."""
    cfg = config or OptimizerConfig()
    out = []
    failures = 0
    worst = -math.inf
    for k in range(samples):
        s_state, s_mix = _split(cfg.seed, _TAG_CONTINUITY, k)
        rho = random_mixed_state(_TWO_QUBITS, s_state)
        p = 0.5 * np.random.default_rng(s_mix).random()
        sigma = Mstate(
            rho.layout, (1.0 - p) * rho.matrix + p * np.eye(4, dtype=complex) / 4.0
        )
        t = trace_distance(rho, sigma)
        diff = abs(
            mutual_info(rho, Partition("X", "Y")) - mutual_info(sigma, Partition("X", "Y"))
        )
        bound = mi_continuity_bound(t, 4)
        worst = max(worst, diff - bound)
        if diff > bound + 1e-12:
            failures += 1
            out.append(
                _check(
                    "continuity",
                    f"pair[{k:02d}]",
                    False,
                    f"|dI|={diff:.9f} bound={bound:.9f} T={t:.6f}",
                )
            )
    out.append(
        _check(
            "continuity",
            "all-pairs",
            failures == 0,
            f"{samples - failures}/{samples} pairs within bound; "
            f"worst excess={worst:.3e}",
        )
    )
    return out


SUITES = {
    "bounds-chain": suite_bounds_chain,
    "pure-consistency": suite_pure_consistency,
    "family15": suite_family15,
    "additivity": suite_additivity,
    "kw-cross": suite_kw_cross,
    "cmi-identity": suite_cmi_identity,
    "continuity": suite_continuity,
}


def run_suites(names, config: OptimizerConfig | None = None):
    """Run the named suites ('all' expands to every suite, fixed order)."""
    if names == "all" or names == ["all"]:
        expanded = list(SUITES)
    else:
        expanded = list(names) if not isinstance(names, str) else [names]
    results = []
    for name in expanded:
        if name not in SUITES:
            raise KeyError(name)
        results.extend(SUITES[name](config))
    return results
