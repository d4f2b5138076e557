#!/usr/bin/env bash
# End-to-end checks of the nufft1d command line, run in the current directory,
# which should be an empty scratch directory: every file is written there.
#
#   ci/check-installed.sh                      # the installed console script
#   PYTHONPATH=src NUFFT1D="python -m nufft1d.cli" ci/check-installed.sh
#
# NUFFT1D names the command (default: nufft1d, the console script that
# `pip install .` puts on PATH); it may carry arguments, so it is expanded
# unquoted.
set -euo pipefail
NUFFT1D=${NUFFT1D:-nufft1d}

$NUFFT1D --version
$NUFFT1D verify
# file round trip on a 64-node jittered grid: amplitudes -> spectrum
# (type 1) -> amplitudes (type 4, one refinement pass)
python -c 'import numpy as np; from nufft1d import generate_trial; from nufft1d.vecio import write_vector_file; g, a = generate_trial(64, 1); np.savetxt("grid.txt", g.instants, fmt="%.17g"); write_vector_file("amps.txt", a)'
$NUFFT1D transform --type 1 --grid grid.txt --data amps.txt --out spectrum.txt
$NUFFT1D transform --type 4 --grid grid.txt --data spectrum.txt --out back.txt --passes 1 --check-roundtrip | tee roundtrip.out
python -c 'import sys; r = float(open("roundtrip.out").read().split("roundtrip-residual ")[1].split()[0]); sys.exit(0 if r < 1e-12 else f"roundtrip residual {r} >= 1e-12")'
# exit 2 for invalid input, 3 for a failure found while computing on valid input
rc=0; $NUFFT1D transform --type 4 --grid grid.txt --data spectrum.txt --out bad.txt --mu 2 || rc=$?
test "$rc" = 2 || { echo "--mu 2 exited $rc, want 2"; exit 1; }
python -c 'import numpy as np; from nufft1d.vecio import write_vector_file; write_vector_file("zeros.txt", np.zeros(64, dtype=complex))'
rc=0; $NUFFT1D transform --type 4 --grid grid.txt --data zeros.txt --out zero-back.txt --check-roundtrip || rc=$?
test "$rc" = 3 || { echo "--check-roundtrip on zero data exited $rc, want 3"; exit 1; }
# one figure sweep: at P = 64, fig6 writes a GE, a CG, an NFFT (eta = 6)
# and an R-NFFT (eta = 1) row
$NUFFT1D bench --figure fig6 --p 64 --trials 1 --out fig6.csv
python -c 'import csv, sys; rows = [(r["method"], r["eta"]) for r in csv.DictReader(l for l in open("fig6.csv") if not l.startswith("#"))]; want = [("GE", ""), ("CG", ""), ("NFFT", "6"), ("R-NFFT", "1")]; sys.exit(0 if rows == want else f"fig6.csv rows {rows}, want {want}")'
echo "check-installed: all checks passed"
