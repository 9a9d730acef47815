"""Command-line interface: compute quantities, run verification suites,
sweep a preset parameter to CSV.

Exit codes: 0 success, 1 verification check failed, 2 input error,
3 dimension/resource cap exceeded, 4 internal invariant violation.
Identical invocations with identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

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

_TAGS = {
    "exact": "exact",
    "lower_bound_estimate": "lower-est",
    "upper_bound_estimate": "upper-est",
}

QUANTITIES = (
    "entropy",
    "mutual-info",
    "cond-entropy",
    "cmi",
    "discord",
    "eoa",
    "eof",
    "kw-discord",
    "log-neg",
    "ed-interval",
    "one-way-ci",
    "ci-bounds",
    "ci-pure",
    "ci-pure-reg",
    "ci-product-reg",
    "lqsm-bound",
    "merge-check",
    "monotone-check",
)

SWEEP_QUANTITIES = ("entropy", "ci-bounds", "oneway-gap")


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
        state = load_state_file(args.state)
        origin = f"file {args.state}"
    else:
        state = preset(args.preset, tuple(args.param or ()))
        params = ",".join(format(p, "g") for p in (args.param or ()))
        origin = f"preset {args.preset}" + (f"({params})" if params else "")
    return state, origin


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
    )


def _config_line(cfg: OptimizerConfig) -> str:
    return (
        f"# config: seed={cfg.seed} restarts={cfg.restarts} "
        f"tol={format(cfg.tol, 'g')} max-iters={cfg.max_iters}"
    )


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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
    """One ``exact_tag`` row for an exact `Bracket`, else a lower and an
    upper row."""
    if band.exact:
        return [_Row(name, band.lower, exact_tag)]
    return [
        _Row(name + "-lower", band.lower, "lower-est"),
        _Row(name + "-upper", band.upper, "upper-est"),
    ]


def _compute_rows(quantity, state, args, cfg):
    layout = state.layout
    rho = state

    def groups(*flags):
        # the flags' party groups, defaults filled by position
        return default_groups(layout, *map(_group, flags))

    if quantity == "entropy":
        (target,) = groups(args.x)
        return [_Row(f"S({_gname(target)})", conditional_entropy(rho, target), "exact")]

    if quantity == "mutual-info":
        x, y = groups(args.x, args.y)
        v = mutual_info(rho, Partition(x, y))
        return [_Row(f"I({_gname(x)}:{_gname(y)})", v, "exact")]

    if quantity == "cond-entropy":
        # the conditioner may not be the empty rest
        x, y = check_groups(layout, *groups(args.x, args.y))
        v = conditional_entropy(rho, x, y)
        return [_Row(f"S({_gname(x)}|{_gname(y)})", v, "exact")]

    if quantity == "cmi":
        x, y, z = groups(args.x, args.y, args.z)
        v = conditional_mutual_info(rho, x, y, z)
        zs = _gname(z) if z else "-"
        return [_Row(f"I({_gname(x)}:{_gname(y)}|{zs})", v, "exact")]

    if quantity in ("discord", "kw-discord"):
        if args.x is None:
            # the measured group defaults to the last party, --x to the rest
            y = _group(args.y) or layout.labels[-1:]
            x = rest_of(layout, y)
        else:
            x, y = groups(args.x, args.y)
        fn = discord if quantity == "discord" else kw_discord
        est = fn(rho, x, y, cfg)
        name = f"discord({_gname(x)}|{_gname(y)})"
        return [_Row(name, est.value, _TAGS[est.direction])]

    if quantity in ("eoa", "eof"):
        a, rest = groups(args.alice, None)
        fn = eoa if quantity == "eoa" else eof
        est = fn(rho, a, cfg)
        return [
            _Row(
                f"{quantity}({_gname(a)}:{_gname(rest)})",
                est.value,
                _TAGS[est.direction],
            )
        ]

    if quantity == "log-neg":
        x, y = groups(args.x, args.y)
        v = log_negativity(rho.to_mstate(), Partition(x, y))
        return [_Row(f"log-negativity({_gname(x)}:{_gname(y)})", v, "exact")]

    if quantity == "ed-interval":
        x, y = groups(args.x, args.y)
        band = ed_interval(rho.to_mstate(), Partition(x, y))
        return _bracket_rows(f"distillable({_gname(x)}:{_gname(y)})", band, "exact")

    abc = (args.alice, args.bob, args.charlie)

    if quantity == "one-way-ci":
        a, b, c = groups(*abc)
        est = one_way_ci(rho, a, b, c, cfg)
        return [
            _Row(
                f"one-way-ci({_gname(a)};{_gname(b)}>{_gname(c)})",
                est.value,
                _TAGS[est.direction],
            )
        ]

    if quantity == "ci-bounds":
        report = ci_lower(rho, *groups(*abc), cfg)
        return [
            _Row(f"ci-lower[{report.lower_source}]", report.lower, "lower-est"),
            _Row(f"ci-upper[{report.upper_source}]", report.upper, "upper-est"),
        ]

    if quantity == "ci-pure":
        est = ci_pure_oneway(rho, *groups(*abc), cfg)
        return [_Row("ci-pure-one-way", est.value, _TAGS[est.direction])]

    if quantity == "ci-pure-reg":
        v = ci_pure_regularized(rho, *groups(*abc))
        return [_Row("ci-pure-regularized", v, "exact, closed form")]

    if quantity == "ci-product-reg":
        band = ci_product_regularized(
            rho, *groups(args.alice, args.bob1, args.bob2, args.charlie)
        )
        return _bracket_rows("ci-product-regularized", band, "exact, closed form")

    if quantity == "lqsm-bound":
        if args.ci_value is None:
            raise InvalidArgument("lqsm-bound requires --ci-value")
        v = lqsm_fidelity_lower(rho, args.ci_value, _group(args.alice))
        return [_Row("merge-fidelity-lower", v, "exact", unit="")]

    if quantity == "merge-check":
        _, b, c = check_groups(layout, *groups(*abc))
        res = merge_conditional_entropy_check(rho, b, c)
        row = _Row(
            f"S({_gname(b)}|{_gname(c)})", res.conditional_entropy, "exact"
        )
        verdict = "yes" if res.feasible else "no"
        return [row, f"mergeable-at-zero-cost: {verdict}"]

    if quantity == "monotone-check":
        a, b, c = groups(*abc)
        res = monotone_necessary_check(rho, a, b, c)
        return [
            _Row(
                f"log-negativity({_gname(a + b)}:{_gname(c)})",
                res.helper_side,
                "exact",
            ),
            _Row(
                f"log-negativity({_gname(a)}:{_gname(b + c)})",
                res.reference_side,
                "exact",
            ),
            f"monotone-necessary-condition: {'yes' if res.passes else 'no'}",
        ]

    raise InvalidArgument(f"unknown quantity {quantity!r}")


def _cmd_compute(args) -> int:
    state, origin = _load_state(args)
    cfg = _config(args)
    rows = _compute_rows(args.quantity, state, args, cfg)
    lines = []
    if args.format == "text":
        lines.append(f"# ci-toolkit compute {args.quantity}")
        lines.append(f"# state: {state.layout.describe()} ({origin})")
        lines.append(_config_line(cfg))
        lines.extend(r.text() if isinstance(r, _Row) else r for r in rows)
    else:
        lines.append("name,value,direction")
        lines.extend(r.csv() for r in rows if isinstance(r, _Row))
    _emit(lines, args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = _config(args)
    results = run_suites(args.suite, cfg)
    lines = [f"# ci-toolkit verify {args.suite}", _config_line(cfg)]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.suite}/{r.name}: {r.detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit(lines, args.out)
    return 0 if passed == len(results) else 1


def _sweep_rows(args, cfg):
    import numpy as np

    if args.steps < 1:
        raise InvalidArgument(f"--steps must be >= 1, got {args.steps}")
    params = np.linspace(args.start, args.stop, args.steps)
    rows = []
    for p in params:
        pval = float(p)
        ptext = format(pval, ".17g")
        if args.quantity == "entropy":
            state = preset(args.preset, (pval,))
            v = vn_entropy(state.to_mstate())
            rows.append(f"{ptext},{format(v, '.17g')},,,exact,{cfg.seed}")
        elif args.quantity == "ci-bounds":
            state = preset(args.preset, (pval,))
            report = ci_lower(state, None, None, None, cfg)
            rows.append(
                f"{ptext},,{format(report.lower, '.17g')},"
                f"{format(report.upper, '.17g')},interval,{cfg.seed}"
            )
        else:  # oneway-gap
            if args.preset != "family15":
                raise InvalidArgument(
                    "oneway-gap sweeps are defined for the family15 preset only"
                )
            rep = family15_separation_report(pval, cfg)
            rows.append(
                f"{ptext},{format(rep.gap, '.17g')},,,upper-est,{cfg.seed}"
            )
    return rows


def _cmd_sweep(args) -> int:
    cfg = _config(args)
    lines = ["param,value,lower,upper,direction,seed"]
    lines.extend(_sweep_rows(args, cfg))
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
    p.add_argument(
        "--format", choices=("text", "csv"), default="text", help="output format"
    )


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
    for flag in ("--alice", "--bob", "--charlie", "--x", "--y", "--z", "--bob1", "--bob2"):
        pc.add_argument(flag, help="party group (comma-separated labels)")
    pc.add_argument("--ci-value", type=float, default=None, help="for lqsm-bound")
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
