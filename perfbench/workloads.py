"""The benchmark's four workloads.

Each workload is a fixed list of items, run closed-loop by one caller (the
next item starts when the previous one returns).  An item is a timed call
sequence into the package plus an untimed check of its outputs that uses
plain NumPy only, so checks never show up in the traced layers.

Inputs come from fixed panels of states, drawn once from `PANEL_SEED`.  The
run's seed and the round number do not pick the panel: they draw the local
unitaries that rotate every panel state, the measurement unitaries and the
optimizer seeds.  Every number the workloads check or report (mutual
informations, brackets, discord, one-way and assisted quantities) is
invariant under local unitaries, so each round hands the program different
matrices and different random restarts of the same difficulty.  Fresh random
states instead take 0.5 s to 4.6 s per mixed-state bracket and move the
pure-state slack by 7x between seeds, which would swamp every regression
bound.
Each workload function takes (seed, round, workdir, tiny) and returns the items
of that round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import ci_toolkit as ct
import ci_toolkit.cli as ct_cli

PANEL_SEED = 14106346

THREE_QUBITS = ct.SystemLayout((("A", 2), ("B", 2), ("C", 2)))
TWO_QUBITS = ct.SystemLayout((("X", 2), ("Y", 2)))
FOUR_QUBITS = ct.SystemLayout((("A", 2), ("B1", 2), ("B2", 2), ("C", 2)))


@dataclass
class Outcome:
    """What a check makes of one item's outputs."""

    values: tuple[float, ...]  # compared bit-for-bit across passes
    failures: list[str] = field(default_factory=list)
    slack: list[float] = field(default_factory=list)  # bits, each >= 0


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


# ---------------------------------------------------------------------------
# input generation (benchmark-side NumPy only)


def _haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _local(dims, rng: np.random.Generator) -> np.ndarray:
    u = np.eye(1, dtype=complex)
    for d in dims:
        u = np.kron(u, _haar(d, rng))
    return u


def _ginibre(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _rotate(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = u @ m @ u.conj().T
    return 0.5 * (out + out.conj().T)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _rngs(seed: int, rnd: int, tag: int) -> tuple[np.random.Generator, np.random.Generator]:
    """(panel generator, generator of this seed and round) for one workload."""
    return (
        np.random.default_rng([PANEL_SEED, tag]),
        np.random.default_rng([int(seed), int(rnd), tag]),
    )


def _opt_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _write_state(path: Path, layout, matrix: np.ndarray) -> Path:
    doc = {
        "parties": [{"label": l, "dim": d} for l, d in layout.parties],
        "matrix": [[float(z.real), float(z.imag)] for z in matrix.reshape(-1)],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _failure(ok: bool, text: str, failures: list[str]) -> None:
    if not ok:
        failures.append(text)


# ---------------------------------------------------------------------------
# mixed-bracket: the bounds-chain traffic


def mixed_bracket(seed: int, rnd: int, workdir: Path, tiny: bool) -> list[Item]:
    """`ci_lower` at the default config on random mixed three-qubit states.

    The optimizer seed belongs to the panel state and the seed rotates only
    the unmeasured parties A and C, which leaves both searches' objectives
    unchanged: every run repeats the same restarts.  About one restart in
    forty runs far past the typical 70 iterations, up to the 2000 cap, and
    those restarts carry about half the evaluations, so a seed-drawn restart
    set moves a state's evaluation count by up to 3x between runs.
    """
    panel, rng = _rngs(seed, rnd, 1)
    cfg = ct.OptimizerConfig(restarts=4) if tiny else ct.OptimizerConfig()
    items = []
    for k in range(1 if tiny else 3):
        m = _ginibre(8, panel)
        u = np.kron(np.kron(_haar(2, rng), np.eye(2)), _haar(2, rng))
        rho = ct.Mstate(THREE_QUBITS, _rotate(m, u))
        items.append(_bracket_item(f"state{k}", rho, replace(cfg, seed=_opt_seed(panel))))
    return items


def _bracket_item(name: str, rho, cfg) -> Item:
    def run():
        return ct.ci_lower(rho, "A", "B", ("C",), cfg)

    def check(report) -> Outcome:
        ow = report.details["one_way"].value
        out = Outcome((report.lower, report.upper, ow))
        _failure(
            report.lower <= report.upper + 1e-9,
            f"bracket not ordered: lower={report.lower!r} upper={report.upper!r}",
            out.failures,
        )
        _failure(
            ow <= report.upper + 2e-2,
            f"one-way {ow!r} above cap {report.upper!r} + 2e-2",
            out.failures,
        )
        out.slack.append(report.upper - report.lower)
        return out

    return Item(name, run, check)


# ---------------------------------------------------------------------------
# pure-crawl: the pure-consistency traffic

# Capped at 100 iterations, most restarts still end at the cap, so the
# evaluation count barely depends on the restart draw (2.5% between seeds,
# against 13% with 8 restarts capped at 600).
PURE_CONFIG = ct.OptimizerConfig(max_iters=100)
PURE_TINY = ct.OptimizerConfig(restarts=2, max_iters=30)


def pure_crawl(seed: int, rnd: int, workdir: Path, tiny: bool) -> list[Item]:
    """Both one-round routes plus the closed-form rate on random pure
    three-qubit states; most restarts crawl to `max_iters`."""
    panel, rng = _rngs(seed, rnd, 2)
    cfg = PURE_TINY if tiny else PURE_CONFIG
    items = []
    for k in range(1 if tiny else 3):
        v = _unit(panel.standard_normal(8) + 1j * panel.standard_normal(8))
        psi = ct.PureState(THREE_QUBITS, _unit(_local((2, 2, 2), rng) @ v))
        items.append(_pure_item(f"state{k}", psi, replace(cfg, seed=_opt_seed(rng))))
    return items


def _pure_item(name: str, psi, cfg) -> Item:
    def run():
        direct = ct.one_way_ci(psi, "A", "B", ("C",), cfg)
        steered = ct.ci_pure_oneway(psi, "A", "B", ("C",), cfg)
        rate = ct.ci_pure_regularized(psi, "A", "B", ("C",))
        return direct.value, steered.value, rate

    def check(outputs) -> Outcome:
        direct, steered, rate = outputs
        out = Outcome(outputs)
        _failure(
            rate >= direct - 5e-3,
            f"rate {rate!r} below one-way {direct!r} - 5e-3",
            out.failures,
        )
        _failure(
            abs(direct - steered) <= 5e-3,
            f"routes disagree: direct={direct!r} steered={steered!r}",
            out.failures,
        )
        out.slack += [rate - direct, rate - steered]
        return out

    return Item(name, run, check)


# ---------------------------------------------------------------------------
# two-copy: the additivity traffic

# The doubled restarts of the K=16 search still end at the cap, and a round
# takes about 2 s, so a run sees a dozen rounds rather than four at 300.
TWO_COPY_CONFIG = ct.OptimizerConfig(restarts=1, max_iters=100)
TWO_COPY_TINY = ct.OptimizerConfig(restarts=1, max_iters=30)


def two_copy(seed: int, rnd: int, workdir: Path, tiny: bool) -> list[Item]:
    """Single- and two-copy discord of the classical-flag family at
    c = cos(pi/8); the seed rotates the measured qubit."""
    _, rng = _rngs(seed, rnd, 3)
    base = ct.preset("family15", (math.cos(math.pi / 8.0),))
    u = np.kron(np.eye(2), np.kron(_haar(2, rng), np.eye(2)))
    rho = ct.Mstate(base.layout, _rotate(base.matrix, u))
    cfg = replace(TWO_COPY_TINY if tiny else TWO_COPY_CONFIG, seed=_opt_seed(rng))

    def run():
        return ct.discord_additivity_check(rho, ("A", "C"), "B", cfg)

    def check(chk) -> Outcome:
        single, double = chk.single.value, chk.double.value
        restricted = min(chk.product_values)
        out = Outcome((single, double, chk.deviation, *chk.product_values))
        _failure(
            abs(chk.deviation) <= 2e-2,
            f"two-copy deviation {chk.deviation!r} beyond 2e-2",
            out.failures,
        )
        _failure(
            restricted <= 2.0 * single + 1e-6,
            f"product restriction {restricted!r} above 2*single={2 * single!r}",
            out.failures,
        )
        out.slack += [single, double]
        return out

    return [Item("family15", run, check)]


# ---------------------------------------------------------------------------
# closed-forms: the cmi-identity and continuity traffic, no optimizer

CLOSED_GROUP = 11  # ten continuity pairs, then one dilation item


def closed_forms(seed: int, rnd: int, workdir: Path, tiny: bool) -> list[Item]:
    """State files read back and put through the closed forms, each item
    with one in-process `compute` call, in the 100 : 10 proportion of the
    continuity and cmi-identity suites."""
    panel, rng = _rngs(seed, rnd, 4)
    groups = 2 if tiny else 10
    items = []
    for g in range(groups):
        for k in range(CLOSED_GROUP - 1):
            idx = g * (CLOSED_GROUP - 1) + k
            m = _rotate(_ginibre(4, panel), _local((2, 2), rng))
            p = 0.5 * float(panel.random())
            path = _write_state(workdir / f"pair{idx:03d}.json", TWO_QUBITS, m)
            items.append(_pair_item(f"pair{idx:03d}", path, p))
        m = _rotate(_ginibre(8, panel), _local((2, 2, 2), rng))
        path = _write_state(workdir / f"tri{g:02d}.json", THREE_QUBITS, m)
        left = _unit(panel.standard_normal(4) + 1j * panel.standard_normal(4))
        left = _local((2, 2), rng) @ left
        right = _rotate(_ginibre(4, panel), _local((2, 2), rng))
        product = np.kron(np.outer(left, left.conj()), right)
        prod_path = _write_state(workdir / f"prod{g:02d}.json", FOUR_QUBITS, product)
        outcomes = 2 if g % 2 == 0 else 4
        povm = ct.rank1_povm(_haar(outcomes, rng), 2)
        items.append(_dilation_item(f"tri{g:02d}", path, prod_path, povm))
    return items


def _cli_value(argv: list[str]) -> float:
    """Value of the single row a `compute ... --format csv` call prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ct_cli.main(["compute", *argv, "--format", "csv"])
    lines = buf.getvalue().splitlines()
    if code != 0 or len(lines) != 2:
        raise RuntimeError(f"cli {argv} exited {code} with {lines}")
    return float(lines[1].split(",")[1])


def _pair_item(name: str, path: Path, p: float) -> Item:
    cut = ct.Partition("X", "Y")

    def run():
        rho = ct.load_state_file(path)
        sigma = ct.Mstate(rho.layout, (1.0 - p) * rho.matrix + p * np.eye(4) / 4.0)
        t = ct.trace_distance(rho, sigma)
        return {
            "rho": rho.matrix,
            "t": t,
            "fidelity": ct.uhlmann_fidelity(rho, sigma),
            "mi": ct.mutual_info(rho, cut),
            "mi_sigma": ct.mutual_info(sigma, cut),
            "bound": ct.mi_continuity_bound(t, 4),
            "entropy": ct.vn_entropy(rho),
            "cond": ct.conditional_entropy(rho, "X", "Y"),
            "logneg": ct.log_negativity(rho, cut),
            "ed": ct.ed_interval(rho, cut),
            "purified": ct.purify(rho, "Z").amplitudes,
            "cli": _cli_value(["mutual-info", "--state", str(path)]),
        }

    def check(o) -> Outcome:
        ed = o["ed"]
        out = Outcome(
            (o["t"], o["fidelity"], o["mi"], o["mi_sigma"], o["bound"], o["entropy"],
             o["cond"], o["logneg"], ed.lower, ed.upper, o["cli"])
        )
        diff = abs(o["mi"] - o["mi_sigma"])
        _failure(
            diff <= o["bound"] + 1e-12,
            f"continuity: |dI|={diff!r} above bound {o['bound']!r}",
            out.failures,
        )
        f, t = o["fidelity"], o["t"]
        _failure(
            1.0 - f <= t + 1e-9 and t <= math.sqrt(max(1.0 - f * f, 0.0)) + 1e-9,
            f"Fuchs-van de Graaf violated: F={f!r} T={t!r}",
            out.failures,
        )
        amp = o["purified"].reshape(4, -1)
        residual = float(np.max(np.abs(amp @ amp.conj().T - o["rho"])))
        _failure(residual <= 1e-9, f"purification residual {residual:.3e}", out.failures)
        _failure(o["cli"] == o["mi"], f"cli {o['cli']!r} != library {o['mi']!r}", out.failures)
        _failure(ed.lower <= ed.upper + 1e-12, f"ed interval {ed} not ordered", out.failures)
        out.slack.append(ed.upper - ed.lower)
        return out

    return Item(name, run, check)


def _dilation_item(name: str, path: Path, prod_path: Path, povm) -> Item:
    def run():
        rho = ct.load_state_file(path)
        dil = ct.dilated_protocol_state(rho, povm, bob="B")
        return {
            "lhs": ct.conditional_mutual_info(dil, "A", ("B", "E"), ("C", "R")),
            "total": ct.mutual_info(rho, ct.Partition("A", ("B", "C"))),
            "kept": ct.mutual_info(dil, ct.Partition("A", ("C", "R"))),
            "cap": ct.ci_upper(rho, "A", "B", ("C",)),
            "ed": ct.ed_interval(rho, ct.Partition(("A", "B"), ("C",))),
            "band": ct.ci_product_regularized(
                ct.load_state_file(prod_path), "A", "B1", "B2", "C"
            ),
            "cmi": ct.conditional_mutual_info(rho, "A", "B", "C"),
            "cli": _cli_value(
                ["cmi", "--state", str(path), "--x", "A", "--y", "B", "--z", "C"]
            ),
        }

    def check(o) -> Outcome:
        ed, band = o["ed"], o["band"]
        out = Outcome(
            (o["lhs"], o["total"], o["kept"], o["cap"], ed.lower, ed.upper,
             band.lower, band.upper, o["cmi"], o["cli"])
        )
        residual = abs(o["lhs"] - (o["total"] - o["kept"]))
        _failure(residual <= 1e-9, f"CMI balance residual {residual:.3e}", out.failures)
        _failure(
            o["cap"] <= o["total"] + 1e-9,
            f"cap {o['cap']!r} above total {o['total']!r}",
            out.failures,
        )
        _failure(o["cli"] == o["cmi"], f"cli {o['cli']!r} != library {o['cmi']!r}", out.failures)
        _failure(ed.lower <= ed.upper + 1e-12, f"ed interval {ed} not ordered", out.failures)
        _failure(band.lower <= band.upper + 1e-12, f"band {band} not ordered", out.failures)
        out.slack += [ed.upper - ed.lower, band.upper - band.lower]
        return out

    return Item(name, run, check)


WORKLOADS = {
    "mixed-bracket": mixed_bracket,
    "pure-crawl": pure_crawl,
    "two-copy": two_copy,
    "closed-forms": closed_forms,
}
