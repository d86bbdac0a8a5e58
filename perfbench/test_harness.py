"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

import layers
import run
import spans
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import owpan  # noqa: E402
import owpan.netsim  # noqa: E402,F401
import owpan.phy.frames  # noqa: E402,F401


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_span_minus_direct_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 3

    def failing_leaf():
        clock.now += 7
        raise ValueError("leaf failed")

    leaf = tracer.traced(leaf, "b.leaf")
    failing_leaf = tracer.traced(failing_leaf, "b.failing")

    def mid():
        clock.now += 2
        leaf()
        clock.now += 1
        leaf()
        with pytest.raises(ValueError):
            failing_leaf()

    mid = tracer.traced(mid, "a.mid")

    def top():
        clock.now += 5
        mid()
        clock.now += 4

    tracer.traced(top, "a.top")()

    st = tracer.stats
    assert (st["b.leaf"].calls, st["b.leaf"].total_ns, st["b.leaf"].self_ns) == (2, 6, 6)
    assert (st["b.failing"].calls, st["b.failing"].self_ns) == (1, 7)
    assert (st["a.mid"].total_ns, st["a.mid"].self_ns) == (16, 3)
    assert (st["a.top"].total_ns, st["a.top"].self_ns) == (25, 9)
    # self times partition the outermost span
    assert tracer.layer_self_ns() == {"a": 12, "b": 13}
    assert sum(tracer.layer_self_ns().values()) == st["a.top"].total_ns


def test_wrap_counts_work_and_close_restores():
    def double(x):
        return 2 * x

    module = types.SimpleNamespace(double=double)
    tracer = spans.Tracer()
    tracer.wrap(module, "double", "m.double", after=lambda args, result: result)
    assert module.double(3) == 6 and module.double(4) == 8
    assert tracer.stats["m.double"].work == 14
    tracer.close()
    assert module.double is double


def test_percentile_needs_ten_samples_beyond():
    assert run.samples_for(99) == 1000
    assert run.samples_for(90) == 100
    assert run.samples_for(75) == 40
    assert run.samples_for(50) == 20
    for q in (99, 90, 75, 50):
        n = run.samples_for(q)
        assert run.percentile(range(n), q) == n - 11
        with pytest.raises(ValueError):
            run.percentile(range(n - 1), q)
    assert run.percentile([5, 1, 4, 2, 3] * 4, 50) == 3


def _generated(name: str, seed: int) -> str:
    workload = workloads.WORKLOADS[name](seed)
    names = workload.mode_names(owpan) if hasattr(workload, "mode_names") else None
    workload.generate(names)
    return workload.inputs_digest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _generated(name, 7) == _generated(name, 7)
    assert _generated(name, 7) != _generated(name, 8)


def test_netsim_output_repeats_across_set_ups():
    first, second = workloads.Netsim(3), workloads.Netsim(3)
    first.setup(owpan)
    second.setup(owpan)
    assert first.digests == second.digests


def test_checks_reject_wrong_outputs():
    codec = workloads.CodecShort(1)
    codec.setup(owpan)
    index = next(i for i, op in enumerate(codec.ops) if op[0])
    assert codec.check(index, codec.run(index)) == (1, len(codec.ops[index][0]))
    with pytest.raises(workloads.CheckError):
        codec.check(index, codec.ops[index][0][:-1])

    sweep = workloads.Sweep(1)
    sweep.setup(owpan)
    laser, e2e, texts = sweep.run(0)
    a, j = sweep.ops[0][2][0]
    curve = laser[a]
    caps = list(curve.capacity_bps)
    caps[j] *= 1 + 1e-9
    laser[a] = type(curve)(curve.variable, curve.alpha_db_per_km, curve.x, tuple(caps),
                           curve.fixed_params)
    with pytest.raises(workloads.CheckError):
        sweep.check(0, (laser, e2e, texts))


def test_every_listed_per_layer_metric_is_computed():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    computed = layers.layer_metrics(spans.Tracer(), 1, 1, None)
    computed["trace.overhead"] = 1.0
    computed.update(layers.replay(layers.KernelRecorder(), {"pure": None})[0])
    assert {m["name"] for m in spec["per_layer"]} == set(computed)
