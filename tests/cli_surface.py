"""The CLI surface pinned under tests/golden/: every `compute` quantity on
every preset in CSV, and once in text, on the first preset whose CSV run
exits 0; ten quantities on a state file of each body kind
(tests/golden/states/: a matrix, an ensemble with a qutrit helper, and a
preset with relabelled parties); `verify all`; and the three `sweep`s, each
at the default config.

Each invocation's file holds its command line, exit code, stdout and
stderr, as `replay` renders them.  `tests/test_cli_surface.py` replays the
list in-process and compares byte for byte.  A change that moves output
rewrites the files with

    PYTHONPATH=src python tests/cli_surface.py

and the git diff of tests/golden/ is then the list of moved rows.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# preset: its --param values, if it takes any
PRESETS = {
    "ghz": (),
    "w": (),
    "bell": (),
    "family15": ("0.9238795325112867",),
    "product_eq10": (),
    "classical_classical": (),
    "max_correlated": ("0.6", "0", "0.3", "0", "0.3", "0", "0.4", "0"),
}


# state file (under tests/golden/states/, named from the repository root, as
# `replay` runs there): the quantities computed on it
STATE_FILES = ("matrix", "ensemble", "relabelled")
STATE_QUANTITIES = (
    "entropy", "one-way-ci", "ci-bounds", "discord", "eoa",
    "mutual-info", "cond-entropy", "cmi", "log-neg", "ed-interval",
)

# quantity: the preset of its text run, where that is not the first preset;
# each is the first in PRESETS order whose CSV run exits 0
TEXT_PRESETS = {"ci-product-reg": "product_eq10"}


def compute_argv(quantity: str, name: str) -> list[str]:
    """`compute` of ``quantity`` on the preset ``name``, in the default
    (text) format."""
    argv = ["compute", quantity, "--preset", name]
    for p in PRESETS[name]:
        argv += ["--param", p]
    return argv + (["--ci-value", "0.5"] if quantity == "lqsm-bound" else [])


def invocations() -> dict[str, list[str]]:
    """File name (without suffix): argv, in a fixed order."""
    from ci_toolkit.cli import QUANTITIES, SWEEP_QUANTITIES

    out = {}
    for quantity in QUANTITIES:
        for name in PRESETS:
            out[f"compute-{quantity}-{name}"] = compute_argv(quantity, name) + ["--format", "csv"]
    for quantity in QUANTITIES:
        name = TEXT_PRESETS.get(quantity, next(iter(PRESETS)))
        out[f"text-{quantity}-{name}"] = compute_argv(quantity, name)
    for name in STATE_FILES:
        path = f"tests/golden/states/{name}.json"
        for quantity in STATE_QUANTITIES:
            out[f"state-{name}-{quantity}"] = [
                "compute", quantity, "--state", path, "--format", "csv"
            ]
    out["verify-all"] = ["verify", "all"]
    for quantity in SWEEP_QUANTITIES:
        argv = ["sweep", quantity, "--start", "0.55", "--stop", "0.95", "--steps", "5"]
        out[f"sweep-{quantity}"] = argv
    return out


def replay(argv: list[str]) -> str:
    """Run one invocation in this process, from the repository root, and
    render what it left: the command line, the exit code, stdout and
    stderr."""
    from ci_toolkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    finally:
        os.chdir(cwd)
    return (
        f"$ ci-toolkit {' '.join(argv)}\n"
        f"exit: {code}\n"
        f"--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}"
    )


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.txt"


def rewrite() -> None:
    """Replay every invocation and write its file; delete files that no
    invocation names."""
    GOLDEN.mkdir(exist_ok=True)
    runs = invocations()
    for stale in set(GOLDEN.glob("*.txt")) - {golden_path(n) for n in runs}:
        stale.unlink()
    for name, argv in runs.items():
        golden_path(name).write_text(replay(argv), encoding="utf-8", newline="\n")
    print(f"wrote {len(runs)} files under {GOLDEN}")


if __name__ == "__main__":
    sys.exit(rewrite())
