"""Command-line surface: curve sweeps, model building, oracle verification, sampling.

Exit codes: 0 on success, 1 when a verification or reproduction check fails,
2 on usage errors (unknown flags, bad parameter values).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import shutil
import sys

from ._util import atomic_write_text, atomic_writer, fmt12
from .core import (
    BellcostError,
    CausalClass,
    chsh_value,
    correlations_of,
    is_factorized_per_lambda,
    is_nonsignaling,
    load_model,
    mutual_information,
    model_to_dict,
    save_model,
)
from .curves import (
    appendix_checks,
    conjugate,
    curve_point,
    curve_sweep,
    find_p0,
    i_C,
    i_OS,
    i_R,
    i_SD,
    s0,
    sweep_to_csv,
)
from .models import (
    Bias,
    Table2Branch,
    biased_lift,
    causal_pair_model,
    extreme_bias_example,
    flip_lift,
    one_sided_model,
    superdeterministic_model,
    table1_model,
    table2_model,
)
from .oracle import SearchConfig, brute_force_min_info
from .simulate import RNG_ALGORITHM, SampleOrder, _sample_summary

_SQRT2 = math.sqrt(2.0)
_TOKENS = {"sq": 2.0 * _SQRT2, "sqrt2": _SQRT2}

_CLASS_BY_TOKEN = {c.value: c for c in CausalClass}


def number(text: str) -> float:
    """Numeric flag parser accepting the exact tokens sq (= 2*sqrt(2)) and sqrt2."""
    if text in _TOKENS:
        return _TOKENS[text]
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number or known token: {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    # argparse sizes a formatter for every add_argument and probes the terminal each time;
    # one probe, with HelpFormatter's own "columns - 2", gives the same help text
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="bellcost",
        formatter_class=formatter,
        description=(
            "Minimal information cost of simulating CHSH violations under "
            "retrocausal, causal, zigzag, one-sided and superdeterministic "
            "measurement dependence."
        ),
    )
    add_parser = functools.partial(
        parser.add_subparsers(dest="command", required=True).add_parser, formatter_class=formatter
    )

    p_curve = add_parser("curve", help="write a CSV sweep of a minimal-information curve")
    p_curve.add_argument("--class", dest="causal_class", required=True, choices=sorted(_CLASS_BY_TOKEN))
    p_curve.add_argument("--from", dest="s_from", type=number, default=2.0)
    p_curve.add_argument("--to", dest="s_to", type=number, default=4.0)
    p_curve.add_argument("--points", type=int, default=201)
    p_curve.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    p_model = add_parser("model", help="build a model, write its JSON, print an evaluation block")
    p_model.add_argument(
        "--family",
        required=True,
        choices=["table1", "table2", "onesided", "superdet", "extreme-bias"],
    )
    p_model.add_argument("--p", type=number, default=None, help="family parameter (q for extreme-bias)")
    p_model.add_argument("--ptilde", type=number, default=None, help="explicit second parameter for table2")
    p_model.add_argument("--branch", choices=["same", "conjugate"], help="table2 branch, same when omitted")
    p_model.add_argument("--bias-x", dest="bias_x", type=number, default=None)
    p_model.add_argument("--bias-y", dest="bias_y", type=number, default=None)
    p_model.add_argument("--flip", action="store_true", help="apply the outcome-flip lift")
    p_model.add_argument("--out", default=None, help="model JSON path")

    p_verify = add_parser("verify", help="brute-force check of a curve at one target S")
    p_verify.add_argument("--class", dest="causal_class", required=True, choices=["retro", "causal", "onesided"])
    p_verify.add_argument("--s", type=number, required=True)
    p_verify.add_argument("--grid", type=int, default=16)
    p_verify.add_argument("--tolerance", type=number, default=1e-9)
    p_verify.add_argument("--out", default=None, help="JSON report path (stdout always)")

    p_sample = add_parser("sample", help="draw seeded rounds from a model file")
    p_sample.add_argument("--model", required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--order", choices=[o.value for o in SampleOrder], default="settings-first")
    p_sample.add_argument("--rounds-out", dest="rounds_out", default=None, help="round-log CSV path")
    p_sample.add_argument("--stats-out", dest="stats_out", default=None, help="stats JSON path")

    add_parser("reproduce", help="recompute the headline constants and check tolerances")
    return parser


def _require(value, flag: str):
    if value is None:
        raise BellcostError(f"missing required flag {flag}")
    return value


def _cmd_curve(args) -> int:
    cls = _CLASS_BY_TOKEN[args.causal_class]
    points = curve_sweep(cls, args.s_from, args.s_to, args.points)
    text = sweep_to_csv(points, cls, path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {len(points)} points to {args.out}")
    return 0


#: The families that read each optional model flag; passing it to any other family is a usage error.
_BIASED = ("table1", "table2", "onesided", "superdet")
_FLAG_FAMILIES = {"ptilde": ("table2",), "branch": ("table2",), "bias_x": _BIASED, "bias_y": _BIASED}


def _cmd_model(args) -> int:
    family = args.family
    for dest, families in _FLAG_FAMILIES.items():
        if getattr(args, dest) is not None and family not in families:
            raise BellcostError(f"--family {family} does not take --{dest.replace('_', '-')}")
    if args.ptilde is not None and args.branch is not None:
        raise BellcostError("--ptilde and --branch exclude each other: --ptilde sets ptilde itself")
    p = _require(args.p, "--p")
    bias = Bias(args.bias_x or 0.0, args.bias_y or 0.0)
    biased = bias.eps_x != 0.0 or bias.eps_y != 0.0
    if family == "table1":
        m = biased_lift(CausalClass.RETROCAUSAL, bias, p) if biased else table1_model(p)
    elif family == "table2":
        if biased:
            ptilde = conjugate(p).p_star if args.branch == "conjugate" else args.ptilde
            m = biased_lift(CausalClass.CAUSAL, bias, p, ptilde)
        elif args.ptilde is not None:
            m = causal_pair_model(p, args.ptilde)
        else:
            m = table2_model(p, Table2Branch(args.branch or "same"))
    elif family == "onesided":
        m = biased_lift(CausalClass.ONE_SIDED, bias, p) if biased else one_sided_model(p)
    elif family == "superdet":
        correlations = correlations_of(flip_lift(table1_model(p)))
        m = superdeterministic_model(correlations, bias.settings())
    elif family == "extreme-bias":
        m = extreme_bias_example(p)
    else:  # pragma: no cover
        raise BellcostError(f"unknown family {family!r}")
    if args.flip:
        m = flip_lift(m)

    evaluation = {
        "label": m.label,
        "S": chsh_value(m),
        "I": mutual_information(m),
        "nonsignaling": is_nonsignaling(correlations_of(m)),
        "factorized": is_factorized_per_lambda(m),
    }
    if args.out is not None:
        save_model(m, args.out)
        evaluation["model_file"] = args.out
    print(json.dumps(evaluation, indent=2))
    return 0


def _cmd_verify(args) -> int:
    cls = _CLASS_BY_TOKEN[args.causal_class]
    cfg = SearchConfig(
        resolution=args.grid, target_s=args.s, causal_class=cls, tolerance=args.tolerance
    )
    analytic = curve_point(cls, args.s).info  # rejects S outside [2, 4] before the search
    result = brute_force_min_info(cfg)
    report = {
        "class": args.causal_class,
        "target_s": args.s,
        "grid": args.grid,
        "achieved_s": chsh_value(result.best_model),
        "analytic": analytic,
        "brute_force": result.best_info,
        "gap": result.best_info - analytic,
        "states_searched": result.states_searched,
        "states_total": result.states_total,
        "incumbent_info": result.incumbent_info,
        "witness_model": model_to_dict(result.best_model),
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out is not None:
        atomic_write_text(args.out, text + "\n")
    # the curve at the achieved S, not the target, bounds the witness: --tolerance may let it land below the target
    bound = curve_point(cls, max(report["achieved_s"], 2.0)).info
    return 1 if result.best_info < bound - 1e-9 else 0


def _cmd_sample(args) -> int:
    m = load_model(args.model)
    rounds_out = contextlib.nullcontext() if args.rounds_out is None else atomic_writer(args.rounds_out)
    with rounds_out as fh:
        stats = _sample_summary(m, args.n, args.seed, SampleOrder(args.order), fh)
    doc = {
        "model_file": args.model,
        "label": m.label,
        "n": args.n,
        "seed": args.seed,
        "order": args.order,
        "rng": RNG_ALGORITHM,
        "s_exact": chsh_value(m),
        "info_exact": mutual_information(m),
        "s_hat": stats.s_hat,
        "s_standard_error": stats.s_standard_error,
        "info_hat": stats.info_hat,
        "prediction_accuracy": stats.prediction_accuracy,
    }
    if args.rounds_out is not None:
        doc["rounds_file"] = args.rounds_out
    text = json.dumps(doc, indent=2)
    print(text)
    if args.stats_out is not None:
        atomic_write_text(args.stats_out, text + "\n")
    return 0


def _cmd_reproduce(args) -> int:
    sq = 2.0 * _SQRT2
    report = appendix_checks()
    rows = [
        ("I_R(S_Q)", i_R(sq), 0.0463, 1e-3),
        ("I_C(S_Q)", i_C(sq).info, 0.0800, 1e-3),
        ("I_OS(S_Q)", i_OS(sq), 0.1275, 1e-3),
        ("I_R(4)", i_R(4.0), math.log2(4.0 / 3.0), 1e-9),
        ("I_C(4)", i_C(4.0).info, 1.0, 1e-9),
        ("I_OS(4)", i_OS(4.0), 1.0, 1e-9),
        ("I_SD", i_SD(3.0), 2.0, 0.0),
        ("p0", find_p0(), 0.218, 5e-4),
        ("S0", s0(), 3.620, 5e-3),
        ("slope(S0) vs h'(p0)/(8 p0)", report.slope_i1_at_s0, report.reference_slope, 5e-3),
        ("slope(S0) vs 1.059", report.slope_i1_at_s0, 1.059, 5e-3),
        ("|I1'(S0) - I2'(S0)|", report.tangent_gap, 0.0, 1e-4),
    ]
    all_pass = True
    print(f"{'constant':<28} {'value':>16} {'target':>16} {'tol':>8}  status")
    for name, value, target, tol in rows:
        ok = abs(value - target) <= tol
        all_pass &= ok
        print(f"{name:<28} {fmt12(value):>16} {fmt12(target):>16} {tol:>8.0e}  {'PASS' if ok else 'FAIL'}")
    convex = report.min_i1_second_derivative > 0.0 and report.min_i2_second_derivative > 0.0
    all_pass &= convex and report.f_ratio_monotone
    print(f"{'branch curves convex':<28} {'':>16} {'':>16} {'':>8}  {'PASS' if convex else 'FAIL'}")
    print(
        f"{'f(p)/(4-S) monotone':<28} {'':>16} {'':>16} {'':>8}  "
        f"{'PASS' if report.f_ratio_monotone else 'FAIL'}"
    )
    return 0 if all_pass else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "curve": _cmd_curve,
        "model": _cmd_model,
        "verify": _cmd_verify,
        "sample": _cmd_sample,
        "reproduce": _cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except (BellcostError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
