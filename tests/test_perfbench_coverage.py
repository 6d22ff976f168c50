"""The benchmark's coverage gate, run on one tiny traced pass per workload.

A traced perfbench pass fails unless every function its workload names
(`WORKLOADS` in `perfbench/harness.py`) recorded a call, and the tracer
sees only calls made through module attributes. Running the gate here
catches a refactor that stops making such a call before the benchmark
does. `perfbench/` is loaded from the checkout and not changed; its
directory is on `sys.path` only inside each test.
"""

import importlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_MODULES = ("harness", "tracing", "calibration", "inputs")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    for name in _MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield SimpleNamespace(**{name: importlib.import_module(name) for name in ("harness", "tracing")})
    for name in _MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["central", "federated", "ingest"])
def test_traced_tiny_pass_passes_coverage(bench, workload, tmp_path):
    harness, tracing = bench.harness, bench.tracing
    size = harness.SIZES["tiny"]
    manifest = harness.setup_inputs(workload, 7, size, str(tmp_path))
    jobs = harness.make_jobs(workload, 7, size, str(tmp_path), manifest)
    p, _ = harness.run_pass(jobs, tracing.Tracer())
    assert harness.verify_coverage(harness.WORKLOADS[workload], p) == []
    layers = tracing.layer_metrics(p.spans)
    assert layers and all(math.isfinite(v) for v in layers.values())
    if workload == "federated":
        calls = tracing.span_calls(p.spans)
        # the history's checksums are computed in one call after the last round
        assert calls["federated.fnv1a64"] == calls["federated.run_schedule"] == 1
        assert layers["federated.fedavg_calls"] == size.rounds * size.seeds
