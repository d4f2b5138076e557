"""Wall-time benchmark of the nufft1d library.

    python3 perfbench/run.py --workload fwd-large --seed 1 --seconds 28 --trace 0

Runs one workload (fwd-large, inv-reuse, oneshot or sweep) in this
process against the library source in ``src/`` beside this directory,
prints the run record and a table of every metric, and ends with one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from the traced half of the run. Spans and the
full table go to ``.perfbench-out/`` at the repository root.

Exits with status 2, printing no result, when the library source is
missing. See README.md in this directory for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# One thread for every BLAS/OpenMP pool; these must be set before numpy loads.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fwd-large", "inv-reuse", "oneshot", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "nufft1d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout; None when it is not a git clone or git is missing.

    The ceiling stops git from finding a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(args, np):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nufft1d" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC / 'nufft1d'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import numpy as np

    import harness
    import nufft1d
    import workloads

    if Path(nufft1d.__file__).resolve().parent != (SRC / "nufft1d").resolve():
        print(f"error: imported nufft1d from {nufft1d.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record_env = run_record(args, np)
    workload = workloads.WORKLOADS[args.workload]()
    result, table, tracer = harness.measure(workload, args.seed, args.seconds, trace=bool(args.trace))

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"record": record_env, "result": result, "table": table}, fh, indent=1)

    report(args.workload, record_env, result, table)
    return 0


def report(workload, record_env, result, table):
    """Run record, one line per metric with its unit, then the result as the last line."""
    print("run record: " + json.dumps(record_env))
    for name, m in table.items():
        print(f"{workload:10s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
