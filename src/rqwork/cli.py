"""Batch front door: reproducible JSON reports for every operation.

Each invocation runs one job and emits line-delimited JSON objects with
a schema tag and the full job configuration, so any report can be
regenerated from its own header.  Exit codes: 0 success, 1 usage error,
2 verification failure (a proved identity failed, a mined candidate was
dropped, or a numeric check was refuted).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

import mpmath

from . import modeq, numerics, quantities
from .characters import RQSpec, SpecError, TauTable, tau_relation_scan
from .modeq import MiningJob, SeriesRecipe
from .series import SeriesError

SCHEMA = "rq-report/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read -0.5 and -1e-20 as values; no option looks like a number
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


def _spec(text: str) -> RQSpec:
    try:
        return RQSpec.parse(text)
    except (SpecError, ValueError) as exc:
        raise UsageError(str(exc))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise UsageError(f"bad rational {text!r}: {exc}")


def _positive_fraction(text: str) -> Fraction:
    value = _fraction(text)
    if value <= 0:
        raise UsageError(f"substitution power must be positive, got {text!r}")
    return value


def _count(text: str) -> int:
    """A whole number of at least 1: digits, degree, box, range or order."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a whole number >= 1, got {text!r}")
    return int(text)


def _number(text: str) -> str:
    """A finite decimal, checked here and kept as typed for the report."""
    try:
        finite = mpmath.isfinite(mpmath.mpf(text))
    except ValueError:
        finite = False
    if not finite:
        raise UsageError(f"bad number {text!r}")
    return text


@functools.cache
def build_parser() -> _Parser:
    """The ``rq`` parser, built on first use and reused by every dispatch.

    Parsing does not change it, and every default in the tree is
    immutable, so one parse cannot leak into the next.
    """
    p = _Parser(prog="rq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the report here instead of stdout")
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="fmt", action="store_const",
                         const="json", default="json")
        fmt.add_argument("--text", dest="fmt", action="store_const",
                         const="text")

    sp = sub.add_parser("series", help="exact truncated series of a quantity")
    sp.add_argument("--spec", required=True, type=_spec)
    sp.add_argument("--order", default="20", type=_fraction)
    sp.add_argument("--star", action="store_true",
                    help="drop the fractional q-prefactor")
    common(sp)

    sp = sub.add_parser("tau", help="divisor-sum values of the character")
    sp.add_argument("--spec", required=True, type=_spec)
    sp.add_argument("--nmax", type=_count, default=50)
    common(sp)

    sp = sub.add_parser("tau-scan", help="mine linear tau relations")
    sp.add_argument("--spec", required=True, type=_spec)
    sp.add_argument("--J", type=_count, required=True)
    sp.add_argument("--nmax", type=_count, required=True)
    common(sp)

    sp = sub.add_parser("mine", help="mine bivariate modular equations")
    sp.add_argument("--spec", required=True, type=_spec)
    sp.add_argument("--spec2", type=_spec, help="second quantity (default: same)")
    sp.add_argument("--alpha", default="1", type=_positive_fraction,
                    help="substitution power for u")
    sp.add_argument("--beta", default="2", type=_positive_fraction,
                    help="substitution power for v")
    shape = sp.add_mutually_exclusive_group()
    shape.add_argument("--box", type=_count, help="box shape 0<=i,j<=s")
    shape.add_argument("--total", type=_count,
                       help="total-degree shape i+j<=d")
    sp.add_argument("--order", type=_count,
                    help="series order in lattice steps")
    common(sp)

    sp = sub.add_parser("verify-identities", help="run the identity registry")
    sp.add_argument("--order", type=_count, default=200,
                    help="lattice steps to check")
    sp.add_argument("--id", dest="only", help="verify just this entry")
    common(sp)

    sp = sub.add_parser("eval", help="numeric value of a quantity")
    sp.add_argument("--spec", required=True, type=_spec)
    point = sp.add_mutually_exclusive_group(required=True)
    point.add_argument("--q", type=_number,
                       help="evaluation point in (0,1)")
    point.add_argument("--r", type=_fraction,
                       help="evaluate at the nome e^(-pi sqrt(r))")
    sp.add_argument("--digits", type=_count, default=50)
    common(sp)

    sp = sub.add_parser("check", help="numeric verification of a closed form")
    sp.add_argument("--case", required=True, choices=[
        "derivative-rgg", "derivative-cubic", "derivative-n-quantity",
        "derivative-example-quartic", "derivative-example-octic",
        "singular-relations", "quartic-value", "gg-value",
        "theta-coherence", "root-of-unity"])
    sp.add_argument("--spec", type=_spec)
    sp.add_argument("--r", type=_fraction, default=Fraction(1))
    sp.add_argument("--q", type=_number)
    sp.add_argument("--digits", type=_count, default=50)
    common(sp)

    sp = sub.add_parser("recognize", help="integer polynomial for a constant")
    target = sp.add_mutually_exclusive_group(required=True)
    target.add_argument("--value", type=_number,
                        help="decimal constant to recognize")
    target.add_argument("--spec", type=_spec,
                        help="recognize the quantity at --r instead")
    sp.add_argument("--r", type=_fraction, default=Fraction(1))
    sp.add_argument("--degree", type=_count, default=4)
    sp.add_argument("--digits", type=_count, default=50)
    common(sp)

    return p


def _job_config(args) -> dict:
    skip = {"out", "fmt", "only"}
    cfg = {"subcommand": args.command}
    for key, val in sorted(vars(args).items()):
        if key in skip or key == "command" or val is None:
            continue
        cfg[key] = str(val) if isinstance(val, (Fraction, RQSpec)) else val
    return cfg


def _emit(reports, args):
    lines = []
    for rep in reports:
        if args.fmt == "json":
            lines.append(json.dumps(rep, default=str))
        else:
            body = " ".join(f"{k}={v}" for k, v in rep.items()
                            if k not in ("schema", "job"))
            lines.append(body)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _wrap(args, payload: dict) -> dict:
    return {"schema": SCHEMA, "job": _job_config(args), **payload}


def _run_series(args):
    s = quantities.rq_star_series(args.spec, args.order) if args.star \
        else quantities.rq_series(args.spec, args.order)
    payload = {"terms": [[str(e), str(c)] for e, c in s.terms()],
               "trunc": str(s.trunc)}
    if not args.spec.is_integer:
        w, power, inverted = quantities.normalize_rational_spec(args.spec)
        payload["normalized"] = {"spec": str(w), "power": str(power),
                                 "inverted": inverted}
    return [_wrap(args, payload)], 0


def _run_tau(args):
    values = TauTable(args.spec).fill(args.nmax).values[1:]
    return [_wrap(args, {"tau": values})], 0


def _run_tau_scan(args):
    relations = tau_relation_scan(args.spec, args.J, args.nmax)
    payload = {"relations": [rel.to_json() for rel in relations],
               "count": len(relations)}
    return [_wrap(args, payload)], 0


def _run_mine(args):
    u = SeriesRecipe(args.spec, args.alpha)
    v = SeriesRecipe(args.spec2 or args.spec, args.beta)
    if args.total is not None:
        shape, size = "total", args.total
    else:
        shape, size = "box", args.box if args.box is not None else 4
    job = MiningJob(u, v, shape=shape, size=size, order_steps=args.order)
    report = {}
    modeq.mine(job, report=report)
    status = 2 if report["dropped_candidates"] else 0
    return [_wrap(args, report)], status


def _run_verify_identities(args):
    registry = quantities.identity_registry()
    if args.only:
        registry = [rec for rec in registry if rec.id == args.only]
        if not registry:
            raise UsageError(f"no identity named {args.only!r}")
    status = 0
    reports = []
    for rec in registry:
        rep = rec.verify(steps=args.order)
        if "first_failure_exponent" in rep and rec.status == "proved":
            status = 2
        reports.append(_wrap(args, rep))
    return reports, status


def _unit_q(text: str, ctx):
    """A --q value as an mpf, which must lie strictly between 0 and 1."""
    q = ctx.mp.mpf(text)
    if not 0 < q < 1:
        raise UsageError("--q must lie in (0,1)")
    return q


def _run_eval(args):
    ctx = numerics.context(args.digits)
    if args.r is not None:
        q = numerics.nome(args.r, ctx)
    else:
        q = _unit_q(args.q, ctx)
    value = numerics.eval_rq(args.spec, q, ctx)
    # independent cross-check through the exact series
    order = numerics.series_order_for(float(q), ctx)
    series_value = numerics.eval_series(
        quantities.rq_series(args.spec, order), q, ctx)
    payload = {"q": ctx.str_of(q), "value": ctx.str_of(value),
               "series_value": ctx.str_of(series_value),
               "cross_check_abs_err": ctx.str_of(abs(value - series_value))}
    return [_wrap(args, payload)], 0


def _run_check(args):
    ctx = numerics.context(args.digits)
    case = args.case
    if case.startswith("derivative-"):
        rep = numerics.check_derivative_formulas(
            case[len("derivative-"):], args.r, ctx)
    elif case == "singular-relations":
        rep = numerics.check_singular_relations(args.r, ctx)
    elif case == "quartic-value":
        rep = numerics.check_quartic_value(args.r, ctx)
    elif case == "gg-value":
        if args.r != 1:
            raise UsageError("gg value is stated at r = 1")
        rep = numerics.check_gg_value(ctx)
    elif case == "theta-coherence":
        if args.spec is None:
            raise UsageError("theta-coherence needs --spec")
        rep = numerics.check_theta_coherence(args.spec, args.r, ctx)
    elif case == "root-of-unity":
        if args.spec is None or args.q is None:
            raise UsageError("root-of-unity needs --spec and --q")
        rep = numerics.check_root_of_unity_product(
            args.spec, _unit_q(args.q, ctx), ctx)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown case {case!r}")
    status = 0 if rep.get("verdict") == "confirmed" else 2
    return [_wrap(args, rep)], status


def _run_recognize(args):
    ctx = numerics.context(args.digits)
    if args.value is not None:
        x = ctx.mp.mpf(args.value)
        label = args.value
    else:
        x = numerics.eval_rq(args.spec, numerics.nome(args.r, ctx), ctx)
        label = f"{args.spec} at r={args.r}"
    found = numerics.recognize_algebraic(x, args.degree, ctx)
    payload = {"target": label, "x": ctx.str_of(x),
               "recognized": found if found else None}
    return [_wrap(args, payload)], 0


_RUNNERS = {
    "series": _run_series,
    "tau": _run_tau,
    "tau-scan": _run_tau_scan,
    "mine": _run_mine,
    "verify-identities": _run_verify_identities,
    "eval": _run_eval,
    "check": _run_check,
    "recognize": _run_recognize,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        reports, status = _RUNNERS[args.command](args)
    except UsageError as exc:
        print(f"rq: {exc}", file=sys.stderr)
        return 1
    except (SpecError, SeriesError, modeq.MiningError,
            numerics.NumericsError) as exc:
        print(f"rq: {exc}", file=sys.stderr)
        return 1
    _emit(reports, args)
    return status


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
