"""Tests of the benchmark itself, on tiny problem sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import nufft1d as nf  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "fwd-large": lambda: workloads.FwdLarge(P=256),
    "inv-reuse": lambda: workloads.InvReuse(P=64),
    "oneshot": lambda: workloads.OneShot(P=64),
    "sweep": lambda: workloads.Sweep(P=32),
}


@pytest.fixture(autouse=True)
def two_setups(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPS", 2)


def measure(workload, trace=False):
    return harness.measure(workload, seed=3, seconds=0.05, trace=trace)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(TINY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.LAYER_METRICS


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_prints_every_metric(name, trace, capsys):
    result, table, _ = measure(TINY[name](), trace=trace)
    run.report(name, {"workload": name}, result, table)
    lines = capsys.readouterr().out.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= harness.MIN_OPS
    expected = harness.LAYER_METRICS if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for metric_name in expected:
        assert any(line.split()[1:2] == [metric_name] for line in lines[:-1]), metric_name
    if not trace:
        assert all(last["metrics"][k]["value"] != 0 for k in expected)


def test_tracing_restores_library_bindings():
    before = (nf.nfft_type1, nf.forward.nfft_type2, nf.inverse.nfft_type2, nf.bench.FlopCounter,
              nf.kernel_for_size, nf.gridding.GriddingKernel.spread_geometry, np.fft.fft)
    _, _, tracer = measure(TINY["oneshot"](), trace=True)
    after = (nf.nfft_type1, nf.forward.nfft_type2, nf.inverse.nfft_type2, nf.bench.FlopCounter,
             nf.kernel_for_size, nf.gridding.GriddingKernel.spread_geometry, np.fft.fft)
    assert all(a is b for a, b in zip(before, after))
    names = {span[0] for span in tracer.spans}
    assert {"inverse.plan", "lagrange.v_samples", "forward.conv", "gridding.geometry", "fft"} <= names


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, 1, None], ["b", 1.0, 4.0, 0, 1, None], ["c", 2.0, 3.0, 1, 1, None]]
    assert harness.self_times(spans) == [7.0, 2.0, 1.0]


class CorruptedInvReuse(workloads.InvReuse):
    """Perturbs every solution by one part in 1e9, above the 1e-12 gate."""

    def run(self, state, inputs, flops):
        x, laps = super().run(state, inputs, flops)
        return x * (1 + 1e-9), laps


def test_corrupted_output_raises_fail_frac():
    clean, table, _ = measure(workloads.InvReuse(P=64))
    assert clean["failed"] == 0 and table["fail_frac"]["value"] == 0
    result, table, _ = measure(CorruptedInvReuse(P=64))
    assert result["failed"] == result["attempted"] > 0
    assert table["fail_frac"]["value"] == 1.0
    assert result["correct"] is False


def test_missing_library_exits_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
