"""Command-line interface: compute quantities, run verification suites,
sweep a preset parameter to CSV.

Exit codes: 0 success, 1 verification check failed, 2 input error,
3 dimension/resource cap exceeded, 4 internal invariant violation.
Identical invocations with identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .ci import (
    ci_lower,
    ci_product_regularized,
    ci_pure_oneway,
    ci_pure_regularized,
    lqsm_fidelity_lower,
    merge_conditional_entropy_check,
    monotone_necessary_check,
    family15_separation_report,
)
from .errors import (
    DimensionTooLarge,
    InternalInvariantError,
    InvalidArgument,
    ObjectiveError,
    ToolkitError,
)
from .info import (
    Partition,
    conditional_entropy,
    conditional_mutual_info,
    mutual_info,
    vn_entropy,
)
from .measures import (
    EXACT,
    LOWER,
    UPPER,
    discord,
    ed_interval,
    eoa,
    eof,
    kw_discord,
    log_negativity,
    one_way_ci,
)
from .optim import OptimizerConfig
from .states import check_groups, default_groups, load_state_file, preset, rest_of
from .suites import SUITES, run_suites


def _group(arg: str | None) -> tuple[str, ...] | None:
    if arg is None:
        return None
    labels = tuple(t.strip() for t in arg.split(",") if t.strip())
    if not labels:
        raise InvalidArgument(f"empty party group {arg!r}")
    return labels


def _gname(labels) -> str:
    return "+".join(labels)


def _load_state(args):
    if (args.state is None) == (args.preset is None):
        raise InvalidArgument("exactly one of --state or --preset is required")
    if args.state is not None:
        if args.param:
            raise InvalidArgument("--param goes with --preset, not --state")
        state = load_state_file(args.state)
        origin = f"file {args.state}"
    else:
        state = preset(args.preset, tuple(args.param or ()))
        params = ",".join(format(p, "g") for p in (args.param or ()))
        origin = f"preset {args.preset}" + (f"({params})" if params else "")
    return state, origin


def _config(args) -> OptimizerConfig:
    # each optimizer knob is the flag of the same name
    return OptimizerConfig(**{f.name: getattr(args, f.name) for f in fields(OptimizerConfig)})


def _config_line(cfg: OptimizerConfig) -> str:
    return (
        f"# config: seed={cfg.seed} restarts={cfg.restarts} "
        f"tol={format(cfg.tol, 'g')} max-iters={cfg.max_iters}"
    )


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidArgument(f"cannot write --out {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


class _Row:
    """One reported value: label, number, direction tag, unit."""

    def __init__(self, label, value, tag, unit="bits"):
        self.label = label
        self.value = float(value)
        self.tag = tag
        self.unit = unit

    def text(self) -> str:
        unit = f" {self.unit}" if self.unit else ""
        return f"{self.label} = {self.value:.6f}{unit} ({self.tag})"

    def csv(self) -> str:
        return f"{self.label},{format(self.value, '.17g')},{self.tag}"


def _bracket_rows(name, band, exact_tag):
    """One ``exact_tag`` row for an exact `Bracket`, else a lower and an upper row."""
    if band.exact:
        return [_Row(name, band.lower, exact_tag)]
    return [
        _Row(name + "-lower", band.lower, LOWER),
        _Row(name + "-upper", band.upper, UPPER),
    ]


def _estimate_row(label, est):
    """The row of a variational estimate, tagged with its direction."""
    return _Row(label, est.value, est.direction)


def _entropy(rho, cfg, x):
    return [_Row(f"S({_gname(x)})", conditional_entropy(rho, x), EXACT)]


def _mutual_info(rho, cfg, x, y):
    v = mutual_info(rho, Partition(x, y))
    return [_Row(f"I({_gname(x)}:{_gname(y)})", v, EXACT)]


def _cond_entropy(rho, cfg, x, y):
    # the conditioner may not be the empty rest
    x, y = check_groups(rho.layout, x, y)
    v = conditional_entropy(rho, x, y)
    return [_Row(f"S({_gname(x)}|{_gname(y)})", v, EXACT)]


def _cmi(rho, cfg, x, y, z):
    v = conditional_mutual_info(rho, x, y, z)
    return [_Row(f"I({_gname(x)}:{_gname(y)}|{_gname(z) if z else '-'})", v, EXACT)]


def _discord(rho, cfg, x, y):
    return [_estimate_row(f"discord({_gname(x)}|{_gname(y)})", discord(rho, x, y, cfg))]


def _kw_discord(rho, cfg, x, y):
    return [_estimate_row(f"discord({_gname(x)}|{_gname(y)})", kw_discord(rho, x, y, cfg))]


def _eoa(rho, cfg, a, rest):
    return [_estimate_row(f"eoa({_gname(a)}:{_gname(rest)})", eoa(rho, a, cfg))]


def _eof(rho, cfg, a, rest):
    return [_estimate_row(f"eof({_gname(a)}:{_gname(rest)})", eof(rho, a, cfg))]


def _log_neg(rho, cfg, x, y):
    v = log_negativity(rho.to_mstate(), Partition(x, y))
    return [_Row(f"log-negativity({_gname(x)}:{_gname(y)})", v, EXACT)]


def _ed_interval(rho, cfg, x, y):
    band = ed_interval(rho.to_mstate(), Partition(x, y))
    return _bracket_rows(f"distillable({_gname(x)}:{_gname(y)})", band, EXACT)


def _one_way_ci(rho, cfg, a, b, c):
    est = one_way_ci(rho, a, b, c, cfg)
    return [_estimate_row(f"one-way-ci({_gname(a)};{_gname(b)}>{_gname(c)})", est)]


def _ci_bounds(rho, cfg, a, b, c):
    report = ci_lower(rho, a, b, c, cfg)
    return [
        _Row(f"ci-lower[{report.lower_source}]", report.lower, LOWER),
        _Row(f"ci-upper[{report.upper_source}]", report.upper, UPPER),
    ]


def _ci_pure(rho, cfg, a, b, c):
    return [_estimate_row("ci-pure-one-way", ci_pure_oneway(rho, a, b, c, cfg))]


def _ci_pure_reg(rho, cfg, a, b, c):
    v = ci_pure_regularized(rho, a, b, c)
    return [_Row("ci-pure-regularized", v, "exact, closed form")]


def _ci_product_reg(rho, cfg, a, b1, b2, c):
    band = ci_product_regularized(rho, a, b1, b2, c)
    return _bracket_rows("ci-product-regularized", band, "exact, closed form")


def _lqsm_bound(rho, cfg, a, rest, ci_value):
    v = lqsm_fidelity_lower(rho, ci_value, a)
    return [_Row("merge-fidelity-lower", v, EXACT, unit="")]


def _merge_check(rho, cfg, a, b, c):
    _, b, c = check_groups(rho.layout, a, b, c)
    res = merge_conditional_entropy_check(rho, b, c)
    return [
        _Row(f"S({_gname(b)}|{_gname(c)})", res.conditional_entropy, EXACT),
        f"mergeable-at-zero-cost: {'yes' if res.feasible else 'no'}",
    ]


def _monotone_check(rho, cfg, a, b, c):
    res = monotone_necessary_check(rho, a, b, c)
    return [
        _Row(f"log-negativity({_gname(a + b)}:{_gname(c)})", res.helper_side, EXACT),
        _Row(f"log-negativity({_gname(a)}:{_gname(b + c)})", res.reference_side, EXACT),
        f"monotone-necessary-condition: {'yes' if res.passes else 'no'}",
    ]


_ABC = ("alice", "bob", "charlie")

# quantity: (the party flags it reads, in position order, with None for the
# rest of the layout that no flag names; its rows).  A flag left out takes
# the party at its position, and the last group takes the rest.  The rows
# come from the state, the optimizer config and the filled groups; a string
# row is a verdict line, which CSV leaves out.
_COMPUTE = {
    "entropy": (("x",), _entropy),
    "mutual-info": (("x", "y"), _mutual_info),
    "cond-entropy": (("x", "y"), _cond_entropy),
    "cmi": (("x", "y", "z"), _cmi),
    "discord": (("x", "y"), _discord),
    "eoa": (("alice", None), _eoa),
    "eof": (("alice", None), _eof),
    "kw-discord": (("x", "y"), _kw_discord),
    "log-neg": (("x", "y"), _log_neg),
    "ed-interval": (("x", "y"), _ed_interval),
    "one-way-ci": (_ABC, _one_way_ci),
    "ci-bounds": (_ABC, _ci_bounds),
    "ci-pure": (_ABC, _ci_pure),
    "ci-pure-reg": (_ABC, _ci_pure_reg),
    "ci-product-reg": (("alice", "bob1", "bob2", "charlie"), _ci_product_reg),
    "lqsm-bound": (("alice", None), _lqsm_bound),
    "merge-check": (_ABC, _merge_check),
    "monotone-check": (_ABC, _monotone_check),
}
QUANTITIES = tuple(_COMPUTE)
# every party flag, in the order the table first names it
_PARTY_FLAGS = tuple(dict.fromkeys(f for flags, _ in _COMPUTE.values() for f in flags if f))


def _compute_rows(quantity, state, args, cfg):
    flags, rows = _COMPUTE[quantity]
    extra = ()
    if quantity == "lqsm-bound":  # the one number read besides the groups
        if args.ci_value is None:
            raise InvalidArgument("lqsm-bound requires --ci-value")
        extra = (args.ci_value,)
    elif args.ci_value is not None:
        raise InvalidArgument(f"{quantity} does not read --ci-value")
    for flag in _PARTY_FLAGS:
        if flag not in flags and getattr(args, flag) is not None:
            reads = " ".join(f"--{f}" for f in flags if f)
            raise InvalidArgument(f"{quantity} does not read --{flag}; it reads {reads}")
    layout = state.layout
    if quantity in ("discord", "kw-discord") and args.x is None:
        # the measured group defaults to the last party, --x to the rest
        y = _group(args.y) or layout.labels[-1:]
        groups = (rest_of(layout, y), y)
    else:
        groups = default_groups(layout, *(_group(getattr(args, f)) if f else None for f in flags))
    return rows(state, cfg, *groups, *extra)


def _cmd_compute(args) -> int:
    state, origin = _load_state(args)
    cfg = _config(args)
    rows = _compute_rows(args.quantity, state, args, cfg)
    if args.format == "text":
        lines = [
            f"# ci-toolkit compute {args.quantity}",
            f"# state: {state.layout.describe()} ({origin})",
            _config_line(cfg),
        ]
        lines.extend(r.text() if isinstance(r, _Row) else r for r in rows)
    else:
        lines = ["name,value,direction"]
        lines.extend(r.csv() for r in rows if isinstance(r, _Row))
    _emit(lines, args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = _config(args)
    results = run_suites(args.suite, cfg)
    lines = [f"# ci-toolkit verify {args.suite}", _config_line(cfg)]
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.suite}/{r.name}: {r.detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit(lines, args.out)
    return 0 if passed == len(results) else 1


def _sweep_entropy(name, p, cfg):
    return vn_entropy(preset(name, (p,)).to_mstate()), None, None, EXACT


def _sweep_ci_bounds(name, p, cfg):
    report = ci_lower(preset(name, (p,)), None, None, None, cfg)
    return None, report.lower, report.upper, "interval"


def _sweep_oneway_gap(name, p, cfg):
    if name != "family15":
        raise InvalidArgument("oneway-gap sweeps are defined for the family15 preset only")
    return family15_separation_report(p, cfg).gap, None, None, UPPER


# quantity: the (value, lower, upper, direction) cells of a sweep row, from
# the preset's name, its parameter and the optimizer config; None leaves a
# cell empty
_SWEEP = {
    "entropy": _sweep_entropy,
    "ci-bounds": _sweep_ci_bounds,
    "oneway-gap": _sweep_oneway_gap,
}
SWEEP_QUANTITIES = tuple(_SWEEP)


def _cmd_sweep(args) -> int:
    cfg = _config(args)
    if args.steps < 1:
        raise InvalidArgument(f"--steps must be >= 1, got {args.steps}")
    lines = ["param,value,lower,upper,direction,seed"]
    for p in np.linspace(args.start, args.stop, args.steps):
        value, lower, upper, direction = _SWEEP[args.quantity](args.preset, float(p), cfg)
        cells = ("" if v is None else format(v, ".17g") for v in (float(p), value, lower, upper))
        lines.append(",".join((*cells, direction, str(cfg.seed))))
    _emit(lines, args.out)
    return 0


_DEFAULTS = OptimizerConfig()


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed", type=int, default=_DEFAULTS.seed, help="base seed for all randomness"
    )
    p.add_argument(
        "--restarts",
        type=int,
        default=_DEFAULTS.restarts,
        help="most optimizer restarts; past the first eight, the rest run only "
        "when fewer than four of those end within --tol of the best",
    )
    p.add_argument(
        "--tol",
        type=float,
        default=_DEFAULTS.tol,
        help="optimizer tolerance: a restart ends once its gradient norm on "
        "the measurement isometries falls below this (or its line search "
        "fails, or it reaches --max-iters), and the first eight agree when "
        "they end within this of the best",
    )
    p.add_argument(
        "--max-iters",
        type=int,
        default=_DEFAULTS.max_iters,
        help="optimizer step cap per restart",
    )
    p.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ci-toolkit",
        description="Concentrated-information bounds on small multipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one quantity on one state")
    pc.add_argument("quantity", choices=QUANTITIES)
    pc.add_argument("--state", help="JSON state file")
    pc.add_argument("--preset", help="named preset state")
    pc.add_argument(
        "--param", type=float, action="append", help="preset parameter (repeatable)"
    )
    for flag in _PARTY_FLAGS:
        readers = ", ".join(q for q, (flags, _) in _COMPUTE.items() if flag in flags)
        pc.add_argument(f"--{flag}", help=f"party group (comma-separated labels) for {readers}")
    pc.add_argument("--ci-value", type=float, help="for lqsm-bound")
    pc.add_argument("--format", choices=("text", "csv"), default="text", help="output format")
    _add_common_flags(pc)
    pc.set_defaults(func=_cmd_compute)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=tuple(SUITES) + ("all",))
    _add_common_flags(pv)
    pv.set_defaults(func=_cmd_verify)

    ps = sub.add_parser("sweep", help="sweep a preset parameter, emit CSV")
    ps.add_argument("quantity", choices=SWEEP_QUANTITIES)
    ps.add_argument("--preset", default="family15", help="one-parameter preset")
    ps.add_argument("--start", type=float, required=True)
    ps.add_argument("--stop", type=float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    _add_common_flags(ps)
    ps.set_defaults(func=_cmd_sweep)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # argparse keeps no state between parse_args calls, so one parser serves
    # every call in the process; building it costs more than most commands
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except DimensionTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InternalInvariantError, ObjectiveError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ToolkitError as exc:  # every other error is bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
