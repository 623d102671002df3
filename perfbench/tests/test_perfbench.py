"""Tests of the benchmark itself: inputs, answer checks, timeout guard, tracing.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import copy
import json
import shutil
import subprocess
import sys
import time

import pytest

import harness
import run
import tracing
import workloads
from checks import CheckFailed

ALL = list(workloads.WORKLOADS.values())


def build(cls, seed, tmp_path):
    workdir = tmp_path / ("%s-%d" % (cls.name, seed))
    workdir.mkdir()
    return cls(seed, workdir)


# A few cheap items of each workload, so one pass takes about a second.
SMALL = {
    "compgroup_mid": lambda items: items[:10],
    "monodromy_large": lambda items: items[:1],
    "extpan_torsor": lambda items: sorted(items, key=lambda i: -i["stabilizer"])[:3],
    "oracle_sweep": lambda items: [
        i for i in items if i["q"].order <= 4 and (i["kind"] == "sweep" or i["p"].order <= 4)
    ],
}


def small(cls, tmp_path, seed=0):
    workload = build(cls, seed, tmp_path)
    workload.items = SMALL[cls.name](workload.items)
    return workload


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.name)
def test_seed_fixes_the_inputs(cls, tmp_path):
    first = harness.input_digest(build(cls, 3, tmp_path))
    (tmp_path / "again").mkdir()
    assert harness.input_digest(build(cls, 3, tmp_path / "again")) == first
    assert harness.input_digest(build(cls, 4, tmp_path)) != first


def corrupt_divisor(output):
    code, text = output
    report = json.loads(text)
    report["divisors"][-1] *= 2
    return code, json.dumps(report)


def corrupt_gram(output):
    output = copy.deepcopy(output)
    output["gram"] = [list(row) for row in output["gram"]]
    output["gram"][0][0] += 1
    return output


def corrupt_basis_index_2(output):
    """Double basis row 0 and keep Gram and operator consistent with it.

    The rows are still h cycles and the Gram matrix is still C diag(w) C^T,
    but they span an index-2 sublattice of the cycle lattice.
    """
    output = copy.deepcopy(output)
    basis = [list(row) for row in output["basis"]]
    gram = [list(row) for row in output["gram"]]
    operator = [list(row) for row in output["operator"]]
    h = len(basis)
    offset = len(operator) - h
    basis[0] = [2 * x for x in basis[0]]
    for j in range(h):
        gram[0][j] *= 2
        gram[j][0] *= 2
        operator[0][offset + j] *= 2
        operator[j][offset] *= 2
    output.update(basis=basis, gram=gram, operator=operator)
    return output


def corrupt_operator(output):
    output = copy.deepcopy(output)
    output["operator"] = [list(row) for row in output["operator"]]
    output["operator"][0][-1] += 1
    return output


def corrupt_fiber(output):
    return dict(output, fiber_size=output["fiber_size"] * 2)


def corrupt_oracle(output):
    if isinstance(output, int):
        return output + 1
    witnesses = list(output)
    witnesses[1] = list(witnesses[0])  # claim a witness off the diagonal
    return witnesses


@pytest.mark.parametrize(
    "cls, corrupt",
    [
        (workloads.CompgroupMid, corrupt_divisor),
        (workloads.MonodromyLarge, corrupt_gram),
        (workloads.MonodromyLarge, corrupt_basis_index_2),
        (workloads.MonodromyLarge, corrupt_operator),
        (workloads.ExtpanTorsor, corrupt_fiber),
        (workloads.OracleSweep, corrupt_oracle),
    ],
    ids=lambda x: getattr(x, "__name__", ""),
)
def test_check_rejects_a_corrupted_answer(cls, corrupt, tmp_path):
    workload = small(cls, tmp_path)
    for item in workload.items:
        output = workload.run(item)
        if cls is workloads.CompgroupMid and not json.loads(output[1])["divisors"]:
            continue
        workload.check(item, output)
        with pytest.raises(CheckFailed):
            workload.check(item, corrupt(output))
        return
    pytest.fail("no item with a corruptible answer")


def test_timeout_guard_fires_on_a_slow_stub():
    def slow(item):
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                time.sleep(0.05)
            except Exception:  # the guard must not be swallowed by the op
                pass
        return item

    start = time.monotonic()
    status, output, latency = harness.guarded_call(slow, "x", timeout_s=1)
    assert status == "timeout" and output is None
    assert 0.9 < latency < 3 and time.monotonic() - start < 3


def test_raising_op_is_recorded_as_failed(tmp_path):
    workload = small(workloads.OracleSweep, tmp_path)
    bad = dict(workload.items[0], kind="ext1", p=None)
    workload.items = [bad] + workload.items
    loop = harness.run_passes(workload, 0)
    verdict = harness.Verdict(workload, [loop])
    assert loop.ops[0][1] == "error"
    assert verdict.failed == 1 and verdict.attempted == len(workload.items)


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.name)
def test_traced_and_untraced_runs_give_identical_outputs(cls, tmp_path):
    workload = small(cls, tmp_path)
    plain = harness.run_passes(workload, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = harness.run_passes(workload, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_verdict = harness.Verdict(workload, [plain])
    traced_verdict = harness.Verdict(workload, [traced])
    assert untraced_verdict.failed == traced_verdict.failed == 0
    assert traced_verdict.output_digest == untraced_verdict.output_digest
    assert tracer.absent_targets == []
    assert sum(tracer.calls.values()) > 0
    assert all(s >= -1e-6 for s in tracer.self_s.values())
    # Every wrapper is gone again.
    for _, module_name, attr in tracing.TARGETS:
        assert not hasattr(getattr(sys.modules[module_name], attr), "__wrapped__")


def test_a_vanished_function_is_reported_absent(monkeypatch):
    targets = tracing.TARGETS + (("kernels.gone", "monopair._kernels", "no_such_kernel"),
                                 ("kernels.moved", "monopair.no_such_module", "kernel"))
    monkeypatch.setattr(tracing, "TARGETS", targets)
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + ("kernels.gone", "kernels.moved"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent_targets == ["monopair._kernels.no_such_kernel",
                                     "monopair.no_such_module.kernel"]
    assert tracer.absent_layers() == ["kernels.gone", "kernels.moved"]
    assert tracer.calls["kernels.gone"] == 0


def test_self_time_excludes_wrapped_children(monkeypatch):
    import monopair.pairing as pairing

    targets = (("outer", "monopair.pairing", "component_group"),
               ("inner", "monopair.pairing", "smith_divisors"))
    monkeypatch.setattr(tracing, "TARGETS", targets)
    monkeypatch.setattr(tracing, "LAYERS", ("outer", "inner"))

    def slow_smith(rows):
        time.sleep(0.2)
        return [1, 2]

    monkeypatch.setattr(pairing, "smith_divisors", slow_smith)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pairing.component_group([[2, 0], [0, 1]]) == [2]
    finally:
        tracer.uninstall()
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.self_s["inner"] >= 0.2 > tracer.self_s["outer"]
    (inner, _, _, _, parent, _), (outer, *_rest) = tracer.spans
    assert parent == outer


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_metric_units()


def test_run_fails_where_the_package_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
