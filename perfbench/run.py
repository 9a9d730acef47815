"""Benchmark harness for ci-toolkit.

One workload, with the arguments every benchmark run takes:

    python3 perfbench/run.py --workload mixed-bracket --seed 1 --seconds 25 --trace 0

prints one JSON object as its last line: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a separate traced run with
`--trace 1`; the line before it carries the environment stamp (Python,
NumPy, BLAS, nproc, commit, source digest) and the output digest.  Every
workload, untraced and then traced, each in its own fresh process, one at a
time, with a table of every metric and its unit:

    python3 perfbench/run.py [--seed 1] [--seconds 25]

Harness self-test at the smallest size (checks pass, counts and slack repeat
exactly at one seed, traced outputs are bit-identical to untraced ones):

    python3 perfbench/run.py --self-test

A run repeats rounds until `--seconds` is used up, at least one.  A round is
the workload's fixed item list on inputs drawn from (seed, round), run
closed-loop; a traced run runs each round untraced and then traced.  Times
are in reference seconds (hostspeed.py): each pass is scaled by the median
of the host-speed probe samples taken during it.

- wall_s: the median round.
- item_p50_s, item_p99_s: percentiles over the items of each item's median
  across rounds.
- setup_s: the median of SETUP_PROBES fresh processes, each timed until its
  inputs are ready.
- peak_rss_mb: this process's peak resident set, harness included.
- counts and slack_bits: round 0, so they are deterministic at a fixed seed.

Work runs single-process with BLAS pinned to one thread.  The package is
imported from `src/` next to this directory and nowhere else; without it the
harness exits 2.  Inputs and state files live under `.perfbench_work/` in
the checkout and are removed at exit.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before NumPy is imported, here and in every child process.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "ci_toolkit" / "__init__.py"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("mixed-bracket", "pure-crawl", "two-copy", "closed-forms")
SETUP_PROBES = 5
CALIBRATE_EVERY_S = 0.25  # item time between host-speed calibrations
CALIBRATION_SAMPLES = 3  # probe samples per calibration
CHILD_TIMEOUT_S = 170
# counted per pass by the tracer; these must repeat exactly at one seed
COUNT_METRICS = (
    "optim.searches",
    "optim.evals",
    "optim.obj_calls",
    "measures.one_way_ci.calls",
    "measures.discord.calls",
    "measures.eoa.calls",
    "measures.eof.calls",
    "states.mstate_builds",
)


class HarnessError(Exception):
    """The benchmark cannot run here (missing package, failed child)."""


# ---------------------------------------------------------------------------
# environment


def _load_package():
    sys.path.insert(0, str(SRC))
    import ci_toolkit

    where = Path(ci_toolkit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise HarnessError(f"ci_toolkit imported from {where}, not from {SRC}")
    return ci_toolkit


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """Digest of the package sources: it names the code under test where the
    checkout is not a git repository and the commit reads "unknown"."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _env_stamp() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source": _source_digest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    """One run of a round's items, untraced or traced."""

    traced: bool
    item_times: list[float] = field(default_factory=list)
    scale: float = 1.0  # reference seconds per second during this pass
    values: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed_items: int = 0
    slack: list[float] = field(default_factory=list)
    layers: dict | None = None
    attributed: float = 0.0

    @property
    def wall(self) -> float:
        """Seconds spent inside the items' calls into the package."""
        return sum(self.item_times)

    @property
    def ref_times(self) -> list[float]:
        return [t * self.scale for t in self.item_times]

    @property
    def ref_wall(self) -> float:
        return self.wall * self.scale


def _calibrate(probe) -> list[float]:
    return [probe.sample() for _ in range(CALIBRATION_SAMPLES)]


def _run_pass(items, probe, tracer, reference) -> Pass:
    """Run every item once; with a tracer, also compare each item's outputs
    with those of the untraced pass over the same inputs.  The host-speed
    probe runs before the first item, after the last, and between items
    once CALIBRATE_EVERY_S of item time has passed."""
    result = Pass(traced=tracer is not None)
    samples = _calibrate(probe)
    since = 0.0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for i, item in enumerate(items):
            if since >= CALIBRATE_EVERY_S:
                samples += _calibrate(probe)
                since = 0.0
            problems: list[str] = []
            values = None
            try:
                t0 = perf_counter()
                try:
                    out = item.run()
                finally:
                    result.item_times.append(perf_counter() - t0)
                    since += result.item_times[-1]
                outcome = item.check(out)
                values = outcome.values
                problems += outcome.failures
                problems += [f"negative slack term {s!r}" for s in outcome.slack if not s >= 0.0]
                result.slack += outcome.slack
            except Exception as exc:  # an item that raises is a failed item
                traceback.print_exc(file=sys.stderr)
                problems.append(f"{type(exc).__name__}: {exc}")
            if reference is not None and values is not None and values != reference[i]:
                problems.append("outputs differ from the untraced pass")
            result.values.append(values)
            if problems:
                result.failed_items += 1
                result.failures += [f"{item.name}: {p}" for p in problems]
    finally:
        if tracer is not None:
            tracer.uninstall()
    samples += _calibrate(probe)
    result.scale = hostspeed.REFERENCE_S / statistics.median(samples)
    if tracer is not None:
        result.layers = tracer.snapshot()
        result.attributed = tracer.attributed_s()
    return result


def _run_rounds(build, seconds: float, probe, tracer) -> list[Pass]:
    """Run rounds while the next one is projected to end within `seconds`,
    at least one.  Round r runs the items `build(r)` returns untraced and,
    in a traced run, then traced, so the two passes see the same inputs."""
    passes: list[Pass] = []
    start = perf_counter()
    rnd = 0
    while True:
        began = perf_counter()
        items = build(rnd)
        plain = _run_pass(items, probe, None, None)
        passes.append(plain)
        if tracer is not None:
            passes.append(_run_pass(items, probe, tracer, plain.values))
        rnd += 1
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _nearest_rank(xs, q: float) -> float:
    ordered = sorted(xs)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# one workload in this process


def _setup_probe_s(args, probe) -> float:
    """Fresh process until its inputs are ready (interpreter start, imports,
    input generation), in reference seconds."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-probe",
    ]
    samples = _calibrate(probe)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise HarnessError(f"setup probe exited {proc.returncode}")
    samples += _calibrate(probe)
    return elapsed * hostspeed.REFERENCE_S / statistics.median(samples)


def cmd_workload(args) -> int:
    if not PACKAGE_INIT.is_file():
        raise HarnessError(f"package source not found at {PACKAGE_INIT}")
    probe = None if args.setup_probe else hostspeed.SpeedProbe()
    setups = []
    if probe is not None and not args.trace:
        setups = [_setup_probe_s(args, probe) for _ in range(SETUP_PROBES)]

    package = _load_package()
    import spans
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    make_items = workloads.WORKLOADS[args.workload]

    def build(rnd: int):
        rounddir = workdir / f"round{rnd}"
        shutil.rmtree(workdir, ignore_errors=True)
        rounddir.mkdir(parents=True)
        return make_items(args.seed, rnd, rounddir, args.size == "tiny")

    try:
        first = build(0)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        tracer = spans.Tracer(package) if args.trace else None
        passes = _run_rounds(
            lambda r: first if r == 0 else build(r), args.seconds, probe, tracer
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.item_times) for p in passes)
    failed = sum(p.failed_items for p in passes)
    failures = [f for p in passes for f in p.failures]
    # round 0 only, so the number is deterministic at a fixed seed
    slack_bits = statistics.fmean(untraced[0].slack) if untraced[0].slack else 0.0

    if args.trace:
        metrics = _layer_metrics(untraced, traced)
    else:
        # each item's median over the rounds, then percentiles over items
        typical = [statistics.median(ts) for ts in zip(*(p.ref_times for p in passes))]
        metrics = {
            "wall_s": (statistics.median(p.ref_wall for p in passes), "s"),
            "item_p50_s": (statistics.median(typical), "s"),
            "item_p99_s": (_nearest_rank(typical, 0.99), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
            "slack_bits": (slack_bits, "bits"),
        }

    for line in failures[:20]:
        print(f"FAIL {args.workload}: {line}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "rounds": len(untraced),
        "items_per_round": len(first),
        "passes": [[p.traced, p.wall, p.ref_wall] for p in passes],
        "digest": _digest(untraced[0].values),
        "digest_traced": _digest(traced[0].values) if traced else None,
        "slack_bits": slack_bits,
        "failures": failures[:20],
        "env": _env_stamp(),
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def _layer_metrics(untraced: list[Pass], traced: list[Pass]) -> dict:
    """Counts of round 0, so they are deterministic at a fixed seed; times
    and ratios of the traced round with the median wall time, so its self
    times add up to its wall time.  Times are in reference seconds."""
    middle = sorted(traced, key=lambda p: p.ref_wall)[(len(traced) - 1) // 2]
    out = {}
    for key, value in traced[0].layers.items():
        if isinstance(value, int):
            out[key] = (value, "count")
        elif key.endswith("_frac"):
            out[key] = (middle.layers[key], "frac")
        else:
            unit = "ns" if key.endswith("_ns_per_eval") else "s"
            out[key] = (middle.layers[key] * middle.scale, unit)
    # item by item, since each traced pass reruns its untraced pass's inputs
    ratios = [
        t / u for up, tp in zip(untraced, traced) for u, t in zip(up.ref_times, tp.ref_times)
    ]
    out["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "frac")
    out["trace.unattributed_frac"] = ((middle.wall - middle.attributed) / middle.wall, "frac")
    return out


# ---------------------------------------------------------------------------
# every workload, each in a fresh process


def _child(workload: str, seed: int, seconds: float, trace: int, size: str = "full"):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--size", size,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise HarnessError(f"{workload} trace={trace} exited {proc.returncode}")
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _run_seconds() -> float:
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 20.0


def cmd_suite(args) -> int:
    seconds = args.seconds if args.seconds is not None else _run_seconds()
    ok = True
    env = None
    print(f"{'workload':<14} {'metric':<32} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            detail, result = _child(name, args.seed, seconds, trace)
            env = detail["env"]
            ok = ok and result["correct"]
            for key, m in result["metrics"].items():
                print(f"{name:<14} {key:<32} {m['value']:>14.6g}  {m['unit']}")
            print(
                f"{name:<14} {'(trace %d) failed/attempted' % trace:<32} "
                f"{result['failed']:>7d}/{result['attempted']:<6d}"
            )
    print(json.dumps({"env": env}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# self-test


def cmd_self_test(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    interactions = json.loads((HERE / "interactions.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    problems = [f"no interaction entry for {n}" for n in per_layer if n not in interactions]
    for name in WORKLOAD_NAMES:
        plain, plain_res = _child(name, args.seed, 1, 0, "tiny")
        traced, traced_res = _child(name, args.seed, 1, 1, "tiny")
        again, again_res = _child(name, args.seed, 1, 1, "tiny")
        for label, res in (("untraced", plain_res), ("traced", traced_res), ("repeat", again_res)):
            if not res["correct"]:
                problems.append(f"{name}: {label} run failed its checks")
        if sorted(plain_res["metrics"]) != sorted(end_to_end):
            problems.append(f"{name}: end-to-end metrics {sorted(plain_res['metrics'])}")
        if sorted(traced_res["metrics"]) != sorted(per_layer):
            problems.append(f"{name}: per-layer metrics {sorted(traced_res['metrics'])}")
        if not plain["digest"] == traced["digest_traced"] == again["digest_traced"]:
            problems.append(f"{name}: traced outputs differ from untraced outputs")
        if not plain["slack_bits"] == traced["slack_bits"] == again["slack_bits"]:
            problems.append(f"{name}: slack_bits does not repeat")
        for key in COUNT_METRICS:
            a = traced_res["metrics"][key]["value"]
            b = again_res["metrics"][key]["value"]
            if a != b:
                problems.append(f"{name}: {key} does not repeat ({a} vs {b})")
        print(
            f"{name:<14} checks={'ok' if plain_res['correct'] else 'FAILED'} "
            f"digest={plain['digest']} slack_bits={plain['slack_bits']!r} "
            f"evals={traced_res['metrics']['optim.evals']['value']}",
            flush=True,
        )
    for p in problems:
        print(f"SELF-TEST FAIL: {p}")
    print("self-test passed" if not problems else f"self-test: {len(problems)} problems")
    return 0 if not problems else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return cmd_self_test(args)
        if args.workload is None:
            return cmd_suite(args)
        if args.seconds is None:
            args.seconds = _run_seconds()
        return cmd_workload(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
