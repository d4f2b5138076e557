"""Command-line front end: file-based transforms, benchmarks, self-checks.

Exit codes: 0 success, 1 failed self-check, 2 invalid input (any ValueError or
OSError), 3 a failure found computing on valid input; stderr names the condition.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from . import __version__
from .bench import (
    ALL_METHODS,
    FIGURE_DEFAULTS,
    TrialConfig,
    relative_error,
    run_figure,
)
from .errors import NufftError
from .forward import nfft_type1, nfft_type1_direct, nfft_type2, nfft_type2_direct
from .grid import MethodParams, validate_grid
from .inverse import build_plan, refine_type4, refine_type5
from .vecio import (
    default_out_dir,
    read_grid_file,
    read_vector_file,
    write_results_csv,
    write_vector_file,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


def _ensure_parent(path: str):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nufft1d",
        description="1-D nonuniform FFT transforms, non-iterative inversion, and benchmarks",
    )
    parser.add_argument("--version", action="version", version=f"nufft1d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", help="apply a transform to vectors read from files")
    tr.add_argument("--type", type=int, choices=(1, 2, 4, 5), required=True, dest="kind")
    tr.add_argument("--grid", required=True, help="file with one instant in [0,1) per line")
    tr.add_argument("--data", required=True, help="file with one 're im' pair per line")
    tr.add_argument("--out", required=True, help="output vector file")
    # options left at None were not given; _cmd_transform rejects those a type does not read
    tr.add_argument("--p", type=int, default=None,
                    help="output length for type 1 (default: grid length)")
    tr.add_argument("--eta", type=int, default=None,
                    help="series oversampling factor (types 4/5, default 2)")
    group = tr.add_mutually_exclusive_group()
    group.add_argument("--mu", type=float, default=None, help="truncation ratio (types 4/5)")
    group.add_argument("--a", type=float, default=None, help="damping factor (types 4/5)")
    tr.add_argument("--passes", type=int, default=None,
                    help="most refinement passes for types 4/5 (0 = plain method)")
    tr.add_argument("--check-roundtrip", action="store_true", default=None,
                    help="after a type 4/5 solve, print the exact-forward residual")

    be = sub.add_parser("bench", help="run a figure-protocol benchmark sweep")
    be.add_argument("--figure", choices=sorted(FIGURE_DEFAULTS), required=True)
    be.add_argument("--out", default=None, help="results CSV (default <figure>.csv)")
    # every TrialConfig field is an option of that dest name; _cmd_bench copies those set
    be.add_argument("--p", type=int, nargs="+", default=None)
    be.add_argument("--eta", type=int, nargs="+", default=None)
    be.add_argument("--mu", type=float, nargs="+", default=None)
    be.add_argument("--trials", type=int, default=None)
    be.add_argument("--seed", type=int, default=None)
    be.add_argument("--method", nargs="+", choices=ALL_METHODS, default=None, dest="methods")
    be.add_argument("--dense-cap", type=int, default=None,
                    help="largest P at which GE rows are computed")

    sub.add_parser("verify", help="run the oracle self-check suite")
    return parser


def _solve_params(args, P: int) -> MethodParams:
    eta = args.eta if args.eta is not None else 2
    if args.a is not None:
        return MethodParams(damping_a=args.a, eta=eta)
    mu = args.mu if args.mu is not None else 1e-15
    return MethodParams.from_mu(mu, P, eta)


def _fail(exc: Exception, code: int) -> int:
    name = f"{type(exc).__name__}: " if isinstance(exc, NufftError) else ""
    print(f"error: {name}{exc}", file=sys.stderr)
    return code


# per inverse kind: its solver, and the exact forward transform it inverts
_INVERSES = {
    4: (refine_type4, lambda grid, x: nfft_type1_direct(grid, x, grid.size)),
    5: (refine_type5, lambda grid, x: nfft_type2_direct(x, grid)),
}

# the transform options each type reads; any other one given is a usage error
_INVERSE_OPTIONS = ("eta", "mu", "a", "passes", "check_roundtrip")
_TYPE_OPTIONS = {1: ("p",), 2: (), 4: _INVERSE_OPTIONS, 5: _INVERSE_OPTIONS}


def _cmd_transform(args) -> int:
    for dest in ("p", *_INVERSE_OPTIONS):
        if getattr(args, dest) is not None and dest not in _TYPE_OPTIONS[args.kind]:
            raise ValueError(f"--{dest.replace('_', '-')} does not apply to type {args.kind}")
    grid = validate_grid(read_grid_file(args.grid))
    data = read_vector_file(args.data)
    Q = grid.size
    if args.kind != 2 and data.size != Q:
        raise ValueError(f"data length {data.size} != grid size {Q}")
    if args.kind == 1:
        R = args.p if args.p is not None else Q
        out = nfft_type1(grid, data, R)
    elif args.kind == 2:
        out = nfft_type2(data, grid)
    else:
        solve, forward = _INVERSES[args.kind]
        out = solve(build_plan(grid, _solve_params(args, Q)), data, passes=args.passes or 0)
        if args.check_roundtrip:
            # before the write, so data with no defined residual leaves no output file
            print(f"roundtrip-residual {relative_error(data, forward(grid, out)):.17g}")
    _ensure_parent(args.out)
    write_vector_file(args.out, out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    # options are applied one field at a time, so a rejected value names its option
    config = FIGURE_DEFAULTS[args.figure]
    for f in fields(TrialConfig):
        if (v := getattr(args, f.name)) is None:
            continue
        try:
            config = replace(config, **{f.name: v})
        except ValueError as exc:
            option = "--method" if f.name == "methods" else f"--{f.name}"
            raise ValueError(f"{option}: {exc}") from None
    records, meta = run_figure(args.figure, config, dense_cap=args.dense_cap)
    meta["version"] = __version__
    out = args.out if args.out else os.path.join(default_out_dir(), f"{args.figure}.csv")
    _ensure_parent(out)
    write_results_csv(out, records, meta)
    print(f"wrote {out} ({len(records)} rows)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_checks

    outcomes = run_checks()
    failed = [(n, d) for n, ok, d in outcomes if not ok]
    for name, ok, detail in outcomes:
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    if failed:
        print(f"failed: {failed[0][0]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_COMMANDS = {"transform": _cmd_transform, "bench": _cmd_bench, "verify": _cmd_verify}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:    # input errors among NufftErrors are ValueErrors
        return _fail(exc, EXIT_PARSE)
    except NufftError as exc:
        return _fail(exc, EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
