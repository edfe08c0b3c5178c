"""Command-line harness: instance generation, single solves, sweeps, bounds, checks."""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings

from .checks import SUITES, run_suite
from .model import RngSeed, generate_training_set, load_training_set, make_random_classifier, \
    save_classifier, save_training_set
from .solvers import SOLVERS, SolverConfig
from .sweeps import METHODS, default_d_sweep_spec, default_m_sweep_spec, default_r_sweep_spec, \
    emit_bound_overlay, run_sweep, write_sweep_rows
from .theory import bound_report, write_bound_reports

_METHOD_ALIASES = {
    "l1": "l1_svm", "l1_svm": "l1_svm",
    "l1l2": "l1l2_svm", "l1l2_svm": "l1l2_svm",
    "onebit": "one_bit_cs", "one_bit_cs": "one_bit_cs",
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="l1svm",
                                description="sparse classifier recovery from sign measurements")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a seeded training set as CSV")
    g.add_argument("--d", type=int, required=True, help="ambient dimension")
    g.add_argument("--s", type=int, required=True, help="classifier sparsity")
    g.add_argument("--m", type=int, required=True, help="sample count")
    g.add_argument("--r", type=float, required=True, help="data scale")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="training-set CSV path")
    g.add_argument("--classifier-out", default=None,
                   help="also write the generating classifier as CSV")

    s = sub.add_parser("solve", help="solve one instance from a training-set CSV")
    s.add_argument("--method", choices=("l1", "l1l2", "onebit"), required=True)
    s.add_argument("--data", required=True, help="training-set CSV path")
    s.add_argument("--R", type=float, required=True, help="l1 radius")
    s.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    s.add_argument("--out", default=None, help="write the recovered vector as CSV")

    w = sub.add_parser("sweep", help="run an error sweep and write CSV rows")
    w.add_argument("--kind", choices=("r", "m", "d"), required=True)
    w.add_argument("--trials", type=int, default=None,
                   help="trials per grid point (defaults: r=20, m=40, d=60)")
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--out", required=True)
    w.add_argument("--grid", default=None,
                   help="a:b:step range or comma-separated values")
    w.add_argument("--methods", nargs="+", default=None,
                   help=f"subset of {', '.join(METHODS)} (short forms l1/l1l2/onebit work too)")
    w.add_argument("--d", type=int, default=None, help="ambient dimension for r/m sweeps")
    w.add_argument("--r", type=float, default=None,
                   help="fixed scale for the d sweep (default sqrt(m)/30)")
    w.add_argument("--max-iters", type=int, default=None)
    w.add_argument("--bounds-out", default=None,
                   help="also write bound values per sweep point to this CSV")

    t = sub.add_parser("theory", help="evaluate every bound at one parameter tuple")
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--r", type=float, required=True)
    t.add_argument("--R", type=float, required=True)
    t.add_argument("--m", type=int, required=True)
    t.add_argument("--eps", type=float, default=0.1)
    t.add_argument("--u", type=float, default=0.5)
    t.add_argument("--s", type=int, default=5)
    t.add_argument("--t", type=float, default=1.0, help="probability sharpening parameter")
    t.add_argument("--out", default=None)

    c = sub.add_parser("check", help="run oracle cross-checks")
    c.add_argument("--suite", choices=sorted(SUITES), required=True)
    return p


def _cmd_generate(args) -> int:
    gen = RngSeed(args.seed).generator()
    a = make_random_classifier(args.d, args.s, gen)
    T = generate_training_set(a, args.m, args.r, gen)
    save_training_set(T, args.out)
    if args.classifier_out:
        save_classifier(a, args.classifier_out)
    print(f"wrote {T.m} x {T.d} training set (r = {args.r:g}) to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    T = load_training_set(args.data)
    method = _METHOD_ALIASES[args.method]
    res = SOLVERS[method](T, args.R, SolverConfig(max_iters=args.max_iters))
    print(f"method      : {method}")
    print(f"data        : m = {T.m}, d = {T.d}")
    print(f"objective   : {res.objective:.10g} ({res.objective_kind})")
    print(f"iterations  : {res.iterations}")
    print(f"converged   : {res.converged}")
    if args.out:
        save_classifier(res.w_hat, args.out)
        print(f"wrote recovered vector to {args.out}")
    return 0


def _parse_grid(text: str, kind: str):
    nums = [float(x) for x in text.split(":" if ":" in text else ",")]
    for x in nums:  # before the range loop or int() sees an infinity
        if not 0 < x < math.inf:
            raise ValueError(f"grid value must be positive and finite, got {x}")
    if ":" in text:
        if len(nums) != 3:
            raise ValueError(f"grid range {text!r} must be a:b:step")
        a, b, step = nums
        vals = []
        v = a
        while v <= b + step * 0.5:
            if vals and round(v, 10) <= vals[-1]:
                raise ValueError(f"grid step {step:g} does not advance the grid past {vals[-1]}")
            vals.append(round(v, 10))
            v += step
    else:
        vals = [round(x, 10) for x in nums]
    if kind in ("m", "d"):
        ints = [int(round(v)) for v in vals]
        for i, (v, n) in enumerate(zip(vals, ints)):
            if n < 1:
                raise ValueError(f"grid value {v} rounds to {kind} = {n}, below 1")
            if i and vals[i - 1] < v and ints[i - 1] == n:
                raise ValueError(f"grid values {vals[i - 1]} and {v} both round to {kind} = {n}")
        vals = ints
    return tuple(vals)


def _cmd_sweep(args) -> int:
    builders = {"r": default_r_sweep_spec, "m": default_m_sweep_spec, "d": default_d_sweep_spec}
    given = {"trials": args.trials, "d": args.d, "r": args.r, "max_iters": args.max_iters}
    spec = builders[args.kind](seed=RngSeed(args.seed),
                               **{k: v for k, v in given.items() if v is not None})
    if args.grid:
        spec = dataclasses.replace(spec, grid=_parse_grid(args.grid, args.kind))
    if args.methods:
        methods = tuple(dict.fromkeys(_METHOD_ALIASES.get(mth, mth) for mth in args.methods))
        spec = dataclasses.replace(spec, methods=methods)
    rows = run_sweep(spec)
    write_sweep_rows(rows, args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    if args.bounds_out:
        reports = emit_bound_overlay(spec, path=args.bounds_out)
        print(f"wrote {len(reports)} bound rows to {args.bounds_out}")
    return 0


def _cmd_theory(args) -> int:
    rep = bound_report(d=args.d, s=args.s, R=args.R, r=args.r, m=args.m,
                       eps=args.eps, u=args.u, t=args.t)
    print(f"d = {rep.d}, s = {rep.s}, R = {rep.R:g}, r = {rep.r:g}, "
          f"m = {rep.m}, eps = {rep.eps:g}, u = {rep.u:g}")
    print(f"deviation bound (total)       : {rep.thm1.total:.10g}")
    print(f"deviation failure probability : {rep.thm1.failure_prob:.10g}")
    print(f"ratio error bound             : {rep.thm3_error_bound:.10g}")
    print(f"error bound failure weight    : {rep.thm3_prob:.10g}")
    print(f"squared error bound           : {rep.thm8_error_bound:.10g}")
    print(f"sample size required          : {rep.sample_size_required}")
    if args.out:
        write_bound_reports([rep], args.out)
        print(f"wrote bound report to {args.out}")
    return 0


def _cmd_check(args) -> int:
    results = run_suite(args.suite)
    ok = True
    for res in results:
        ok &= res.passed
        print(f"{'ok  ' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    return 0 if ok else 2


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "theory": _cmd_theory,
    "check": _cmd_check,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    with warnings.catch_warnings():  # one line per warning, restored when the command ends
        warnings.showwarning = _show_warning
        try:
            return _COMMANDS[args.command](args)
        except (ValueError, TypeError, KeyError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
            print(f"runtime error: {exc}", file=sys.stderr)
            return 1


def entry() -> None:
    raise SystemExit(main())
