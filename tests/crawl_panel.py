"""The steering-crawl panel: `eoa` and `eof` across A : BC on random
three-qubit mixed states of rank 4, 6 and 8 (`random_mixed_state(parties,
seed, rank=r)`), seeds 1-3, at the default config.  Rank r gives a
purification with an r-dimensional ancilla, so each search runs over K = r^2
outcomes on c = r columns.

    PYTHONPATH=src python tests/crawl_panel.py

Each search runs in a child process under its own address-space limit of
LIMIT_MB (the limit `ulimit -v` sets), with one BLAS thread.  A row prints
the value (repr), the seconds, how many restarts ended at `max_iters`, and
the steps of each opened restart in start order, read from
`optim._ascend`.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

MEASURES = ("eof", "eoa")
RANKS = (4, 6, 8)
SEEDS = (1, 2, 3)
LIMIT_MB = 4096


def child(measure: str, rank: int, seed: int) -> None:
    """Run one search and print its row as one JSON line."""
    from ci_toolkit import measures, optim
    from ci_toolkit.optim import OptimizerConfig
    from ci_toolkit.states import SystemLayout, random_mixed_state

    cfg = OptimizerConfig()
    steps = []
    ascend = optim._ascend

    def recording(evaluate, starts, config):
        out = ascend(evaluate, starts, config)
        steps.extend(int(s) for s in out[2])
        return out

    optim._ascend = recording
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2), ("C", 2))), seed, rank=rank)
    start = time.perf_counter()
    est = getattr(measures, measure)(rho, "A", cfg)
    seconds = time.perf_counter() - start
    capped = sum(s >= cfg.max_iters for s in steps)
    print(json.dumps({"value": repr(est.value), "seconds": seconds, "capped": capped,
                      "steps": steps}))


def run(measure: str, rank: int, seed: int) -> dict:
    """One search in a child process under an address-space limit."""
    def limit():
        cap = LIMIT_MB * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--child", measure, str(rank), str(seed)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, preexec_fn=limit)
    if done.returncode != 0:
        return {"error": done.stderr.strip().splitlines()[-1:] or [f"exit {done.returncode}"]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", nargs=3, metavar=("MEASURE", "RANK", "SEED"))
    args = parser.parse_args()
    if args.child:
        measure, rank, seed = args.child
        child(measure, int(rank), int(seed))
        return
    print("measure rank seed value seconds at_max_iters steps")
    for rank in RANKS:
        for measure in MEASURES:
            for seed in SEEDS:
                row = run(measure, rank, seed)
                if "error" in row:
                    print(measure, rank, seed, "failed:", *row["error"], flush=True)
                    continue
                steps = " ".join(map(str, row["steps"]))
                print(measure, rank, seed, row["value"], f"{row['seconds']:.2f}",
                      f"{row['capped']}/{len(row['steps'])}", f"[{steps}]", flush=True)


if __name__ == "__main__":
    main()
