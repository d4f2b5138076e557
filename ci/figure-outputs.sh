#!/usr/bin/env bash
# Writes `nufft1d verify`, nine small figure sweeps (fig3 once more with NFFT
# beside R-NFFT, whose best-mu rows are kept per method; fig6 once more at
# P = 300, where the direct oracle spans two phase row blocks; fig1 once more
# with the `sweep` benchmark workload's cells, every row kept, and once more
# at P = 16, where eta 6 has no feasible mu and eta 2 one of two) and six
# transforms of one 64-node trial into OUTDIR: the outputs that a change
# which claims to keep every result must leave byte-identical, so two trees
# compare with one `diff -r` of their OUTDIRs.
#
#   ci/figure-outputs.sh OUTDIR                # the installed console script
#   PYTHONPATH=src NUFFT1D="python -m nufft1d.cli" ci/figure-outputs.sh OUTDIR
#
# NUFFT1D is as for ci/check-installed.sh: default nufft1d, expanded unquoted.
set -euo pipefail
NUFFT1D=${NUFFT1D:-nufft1d}
out=${1:?usage: ci/figure-outputs.sh OUTDIR}
mkdir -p "$out"

$NUFFT1D verify > "$out/verify.out"
$NUFFT1D bench --figure fig1 --p 64 --trials 2 --out "$out/fig1.csv"
$NUFFT1D bench --figure fig1 --p 256 --eta 1 6 --mu 1e-15 1e-8 --trials 2 --method GE CG NFFT R-NFFT --out "$out/fig1-sweep.csv"
$NUFFT1D bench --figure fig1 --p 16 --eta 6 2 1 --mu 0.05 0.03 --trials 2 --method GE CG NFFT R-NFFT --out "$out/fig1-skip.csv"
$NUFFT1D bench --figure fig2 --p 64 --trials 1 --out "$out/fig2.csv"
$NUFFT1D bench --figure fig3 --p 64 128 --trials 1 --out "$out/fig3.csv"
$NUFFT1D bench --figure fig3 --p 64 --trials 1 --method NFFT R-NFFT --out "$out/fig3-nfft.csv"
$NUFFT1D bench --figure fig6 --p 64 128 --trials 1 --out "$out/fig6.csv"
$NUFFT1D bench --figure fig6 --p 300 --trials 1 --out "$out/fig6-p300.csv"
$NUFFT1D bench --figure fig7 --p 64 --trials 1 --out "$out/fig7.csv"
# a fixed 64-node jittered trial, then type 1/2 of its amplitudes and the
# inverses of those: type 4 with one refinement pass, type 5 at eta = 6; and
# type 1/2 with a 3-point band, whose 6-point fine grid is shorter than the
# 29-tap pulse, so the padded grid folds onto it in several chunks
python -c 'import sys, numpy as np; from nufft1d import generate_trial; from nufft1d.vecio import write_vector_file; g, a = generate_trial(64, 1); np.savetxt(sys.argv[1] + "/grid.txt", g.instants, fmt="%.17g"); write_vector_file(sys.argv[1] + "/amps.txt", a); write_vector_file(sys.argv[1] + "/amps3.txt", a[:3])' "$out"
$NUFFT1D transform --type 1 --grid "$out/grid.txt" --data "$out/amps.txt" --out "$out/type1.txt"
$NUFFT1D transform --type 2 --grid "$out/grid.txt" --data "$out/amps.txt" --out "$out/type2.txt"
$NUFFT1D transform --type 1 --grid "$out/grid.txt" --data "$out/amps.txt" --out "$out/type1-p3.txt" --p 3
$NUFFT1D transform --type 2 --grid "$out/grid.txt" --data "$out/amps3.txt" --out "$out/type2-p3.txt"
$NUFFT1D transform --type 4 --grid "$out/grid.txt" --data "$out/type1.txt" --out "$out/type4.txt" --passes 1
$NUFFT1D transform --type 5 --grid "$out/grid.txt" --data "$out/type2.txt" --out "$out/type5.txt" --eta 6
