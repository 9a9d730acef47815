"""Per-layer spans recorded from outside the package.

A layer is one module of the package: states, info, qmat, optim, measures,
ci and cli.  `Tracer.install` replaces every public function of a layer by
a wrapper that opens a span, and it does so under every name a caller looks
the function up by: the modules import each other's functions with
`from .x import f`, so `measures.maximize`, `ci.discord` and
`info.partial_trace` are patched next to the defining module's own name.
`Tracer.uninstall` puts the originals back, so traced and untraced passes
can alternate in one process.

A span's self time is its duration minus the time of the spans it caused.
Two pseudo-spans refine the picture:

- the batch objective handed to `maximize`/`minimize` is wrapped inside the
  search wrapper and timed as `measures.objective`, so `measures.self_s`
  is measures-module work outside the objective (set-up and the
  measure -> flag -> mutual-information re-verification);
- `Mstate.__post_init__` (the validating eigensolve every state build pays)
  is a `states` span and is counted as `states.mstate_builds`.

Totals are kept in memory; `snapshot` turns them into the per-layer metrics
of one pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("states", "info", "qmat", "optim", "measures", "ci", "cli")
OBJECTIVE = "measures.objective"
VARIATIONAL = ("one_way_ci", "discord", "eoa", "eof")
SEARCHES = ("maximize", "minimize")

# Bookkeeping helpers that every other public function calls: a span around
# them would cost more than their bodies, so their time stays with the caller.
_UNWRAPPED = {
    "states": {"as_labels", "dimension_cap", "check_dimension_cap"},
    "optim": {"rotation_pairs", "angle_count"},
}


def public_functions(module, layer: str):
    """Public functions defined in a layer module, minus the helpers above."""
    skip = _UNWRAPPED.get(layer, set())
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
        and name not in skip
    }


class Tracer:
    """Span recorder for one process; install it around traced passes only."""

    def __init__(self, package):
        self._package = package
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.search_s = 0.0
        self._stack: list[list] = []  # [layer, start, seconds in child spans]
        self._searching = False

    def _enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def _exit(self) -> float:
        layer, start, child = self._stack.pop()
        duration = perf_counter() - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _span(self, layer: str, fn, counter: str | None = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[layer] += 1
            if counter is not None:
                tracer.counts[counter] += 1
            tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    def _search(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, batch_objective=None, **kwargs):
            if tracer._searching:
                # minimize delegates to maximize: one search, counted once
                return fn(*args, batch_objective=batch_objective, **kwargs)
            tracer.counts["optim.searches"] += 1
            tracer.counts["optim.cap_evals"] += tracer._cap_evals(args, kwargs)
            if batch_objective is not None:
                batch_objective = tracer._objective(batch_objective)
            tracer._searching = True
            tracer._enter("optim")
            try:
                return fn(*args, batch_objective=batch_objective, **kwargs)
            finally:
                tracer.search_s += tracer._exit()
                tracer._searching = False

        return wrapper

    def _cap_evals(self, args, kwargs) -> int:
        """Evaluations the search makes if every restart hits `max_iters`:
        a start and a final value per restart, 2 K^2 candidates per poll."""
        optim = sys.modules[f"{self._package.__name__}.optim"]
        k = int(args[1] if len(args) > 1 else kwargs["dim"])
        cfg = (args[2] if len(args) > 2 else kwargs.get("config")) or optim.OptimizerConfig()
        starts = cfg.restarts + len(kwargs.get("warm_starts", ()))
        return starts * (cfg.max_iters * 2 * k * k + 2)

    def _objective(self, f):
        tracer = self

        def objective(vstack):
            tracer.counts["optim.obj_calls"] += 1
            tracer.counts["optim.evals"] += len(vstack)
            tracer._enter(OBJECTIVE)
            try:
                return f(vstack)
            finally:
                tracer._exit()

        return objective

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        root = self._package.__name__
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"{root}.{layer}"]
            for name, fn in public_functions(module, layer).items():
                if layer == "optim" and name in SEARCHES:
                    wrapped = self._search(fn)
                elif layer == "measures" and name in VARIATIONAL:
                    wrapped = self._span(layer, fn, f"measures.{name}.calls")
                else:
                    wrapped = self._span(layer, fn)
                wrappers[id(fn)] = (fn, wrapped)
        modules = [
            m for n, m in sys.modules.items() if n == root or n.startswith(root + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

        mstate = sys.modules[f"{root}.states"].Mstate
        build = mstate.__post_init__
        counted = self._span("states", build, "states.mstate_builds")
        self._patches.append((mstate, "__post_init__", build))
        mstate.__post_init__ = counted

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last `reset`."""
        c, s = self.counts, self.self_s
        evals = c["optim.evals"]
        out = {
            "optim.search_s": self.search_s,
            "optim.self_s": s["optim"],
            "optim.searches": c["optim.searches"],
            "optim.evals": evals,
            "optim.obj_calls": c["optim.obj_calls"],
            "optim.budget_frac": evals / c["optim.cap_evals"] if evals else 0.0,
            "measures.objective_s": s[OBJECTIVE],
            "measures.objective_ns_per_eval": s[OBJECTIVE] / evals * 1e9 if evals else 0.0,
            "measures.self_s": s["measures"],
        }
        for name in VARIATIONAL:
            out[f"measures.{name}.calls"] = c[f"measures.{name}.calls"]
        out["states.mstate_builds"] = c["states.mstate_builds"]
        for layer in ("states", "info", "qmat", "ci", "cli"):
            out[f"{layer}.self_s"] = s[layer]
            out[f"{layer}.calls"] = c[layer]
        return out

    def attributed_s(self) -> float:
        """Self time summed over every layer and the objective."""
        return sum(self.self_s.values())
