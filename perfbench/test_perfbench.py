"""Tests of the benchmark's own checks and accounting.

    python3 -m pytest perfbench/test_perfbench.py
"""

import itertools
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import bellcost as bc  # noqa: E402
import workloads  # noqa: E402
from spans import NULL, Tracer, op_coverage, per_layer_metrics  # noqa: E402
from worker import run_loop, tail  # noqa: E402


def small_workloads(tmp_path):
    exp = workloads.Experiment(3, str(tmp_path), rounds=20000)
    land = workloads.Landscape(3, str(tmp_path))
    cert = workloads.Certify(3, str(tmp_path))
    for w in (exp, land, cert):
        w.setup(NULL)
    # certify ops at N = 16: the N = 40 acceptance points take seconds each
    return {
        "experiment": (exp, [exp.op(0), exp.op(1)]),
        "landscape": (land, [op for op, _ in itertools.islice(land.ops(), 6)]),
        "certify": (cert, [(cls, 16, t) for cls in workloads.CLASS_BY_NAME.values()
                           for t in (workloads.S_Q, 3.9)]),
    }


@pytest.mark.parametrize("name", ["experiment", "landscape", "certify"])
def test_ops_pass(tmp_path, name):
    workload, ops = small_workloads(tmp_path)[name]
    for op in ops:
        workload.run(NULL, op)


def _corrupt(monkeypatch, name):
    """Shift the value each workload checks its outputs against."""
    if name == "experiment":
        real = bc.chsh_value
        monkeypatch.setattr(bc, "chsh_value", lambda m: real(m) + 0.5)
    else:
        real = bc.curve_point

        def shifted(cls, s):
            pt = real(cls, s)
            return bc.CurvePoint(pt.s, pt.info + 0.5, pt.branch)

        monkeypatch.setattr(bc, "curve_point", shifted)


@pytest.mark.parametrize("name", ["experiment", "landscape", "certify"])
def test_corrupted_expected_value_fails_every_op(tmp_path, monkeypatch, name):
    workload, ops = small_workloads(tmp_path)[name]
    _corrupt(monkeypatch, name)

    class Replay:
        run = workload.run

        @staticmethod
        def ops():
            return ((op, k == len(ops) - 1) for k, op in enumerate(ops))

    errors = run_loop(Replay, NULL, 0.0)["errors"]
    assert len(errors) == len(ops)
    assert all(error and error.startswith("CheckFailed") for error in errors)


def test_reproduce_op_passes():
    workloads.Certify(0, ".").run(NULL, workloads.REPRODUCE)


def test_tail_percentile():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = tail([float(v) for v in range(100)])
    assert (value, pct) == (89.0, 90.0)  # ten ops (90..99) lie above it


def burn(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_self_time_subtracts_children():
    t = Tracer()

    def op():
        burn(0.01)
        t.call("core.chsh_value", burn, 0.02)

    t.call("bench.op", op)
    own = t.self_times_ns()
    assert own[1] >= 20e6 and 10e6 <= own[0] < 20e6
    metrics = per_layer_metrics(t)
    assert metrics["core.chsh_value.busy_s"][0] == own[1] / 1e9
    assert metrics["core.calls"][0] == 1
    total, least = op_coverage(t)
    assert total == least and 0.5 < total < 0.7


def test_undeclared_span_is_rejected():
    t = Tracer()
    t.call("core.not_a_call", int)
    with pytest.raises(KeyError):
        per_layer_metrics(t)
