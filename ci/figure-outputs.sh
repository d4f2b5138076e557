#!/usr/bin/env bash
# Writes `nufft1d verify` and five small figure sweeps into OUTDIR: the
# outputs that a change which claims to keep every result must leave
# byte-identical, so two trees compare with one `diff -r` of their OUTDIRs.
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
$NUFFT1D bench --figure fig2 --p 64 --trials 1 --out "$out/fig2.csv"
$NUFFT1D bench --figure fig3 --p 64 128 --trials 1 --out "$out/fig3.csv"
$NUFFT1D bench --figure fig6 --p 64 128 --trials 1 --out "$out/fig6.csv"
$NUFFT1D bench --figure fig7 --p 64 --trials 1 --out "$out/fig7.csv"
