"""Tests for the benchmark itself: generators, span arithmetic, tracing
transparency, the output contract, and a smoke run of every workload."""

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
import spans
import worker
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _take(workload, seed, n_blocks):
    stream = inputs.blocks(workload, seed)
    return [next(stream) for _ in range(n_blocks)]


@pytest.mark.parametrize("workload", inputs.BLOCKS)
def test_generators_are_deterministic_under_a_seed(workload):
    assert _take(workload, 11, 4) == _take(workload, 11, 4)
    assert json.loads(json.dumps(_take(workload, 11, 4))) == _take(workload, 11, 4)
    if workload != "oracle":        # oracle inputs are the configs only
        assert _take(workload, 11, 4) != _take(workload, 12, 4)


def test_blocks_are_stratified():
    for block in _take("pipeline", 3, 5) + _take("oracle", 3, 5):
        assert sorted(op["config"] for op in block) == sorted(inputs.SHIPPED_CONFIGS)
    for block in _take("query", 3, 5):
        assert sorted(op["model"] for op in block) == sorted(inputs.QUERY_MODELS)
        assert all(0.0 < op["u"] < 1.0 for op in block)
    for block in _take("sweep", 3, 5):
        assert sorted(op["kind"] for op in block) == ["cubic"] * 3 + ["table"]
    for op in (o for b in _take("pipeline", 3, 20) for o in b):
        assert 0.3 <= op["beta"] <= 1.5 and 0.0 < op["x0"] <= 0.5


def test_table_instances_match_the_test_suite_generator():
    spec = importlib.util.spec_from_file_location(
        "suite_conftest", ROOT / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    random_table_instance = suite.random_table_instance
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(20):
        ours = inputs.table_instance(rng_a)
        theirs = random_table_instance(rng_b)
        assert ours["beta"] == theirs.beta
        assert ours["q_hi"] == theirs.demand_set.hi
        assert [tuple(p) for p in ours["revenue"]] == \
            list(zip(theirs.revenue.xs, theirs.revenue.ys))
        assert [tuple(p) for p in ours["cost"]] == \
            list(zip(theirs.cost.xs, theirs.cost.ys))
        if "finite" in ours["production"]:
            assert tuple(ours["production"]["finite"]) == theirs.production_set.values
        else:
            assert theirs.production_set.kind == "interval"


def test_self_time_on_a_synthetic_span_tree():
    # 0 [0, 10] -> 1 [1, 4] -> 3 [2, 3]
    #           -> 2 [5, 9]
    # 4 [11, 12] is a second root
    start = [0.0, 1.0, 5.0, 2.0, 11.0]
    end = [10.0, 4.0, 9.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, -1]
    dur, own = spans.span_times(start, end, parent)
    assert dur.tolist() == [10.0, 3.0, 4.0, 1.0, 1.0]
    assert own.tolist() == [3.0, 2.0, 4.0, 1.0, 1.0]
    assert own.sum() == pytest.approx(dur[[0, 4]].sum())


def test_layer_metrics_from_recorded_spans():
    tr = spans.Tracer()

    def leaf(x):
        return x

    def outer(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_leaf = tr.wrap(leaf, "hamiltonian.subgradient")
    traced_outer = tr.wrap(outer, "strategy.drawdown")
    for op in range(2):
        tr.current_op = op
        traced_outer(1.0)
    tr.current_op = -1
    traced_leaf(1.0)                     # outside any op: not counted
    m = tr.layer_metrics(2)
    assert m["hamiltonian.subgradient_calls"] == 2.0
    a = tr.arrays()
    dur, own = spans.span_times(a["start"], a["end"], a["parent"])
    outers = (a["name"] == tr.names.index("strategy.drawdown"))
    assert m["strategy.drawdown_self_s"] == pytest.approx(own[outers].sum() / 2)
    assert m["strategy.drawdown_self_s"] < dur[outers].sum() / 2
    assert m["strategy.drawdown_knots"] == 0.0


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       300 |        400 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       200 |        250 |     scipy",
        "import time:       500 |        750 |   scipy.optimize",
        "import time:        10 |       1200 | monopoly_control",
        "import time:         5 |          5 | unrelated",
    ])
    got = spans.parse_importtime(text)
    assert got["import.total_s"] == pytest.approx(1200e-6)
    assert got["import.scipy_s"] == pytest.approx(750e-6)


@pytest.fixture
def work_dir(tmp_path):
    return tmp_path


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_results_are_bit_identical(workload, work_dir):
    wl = WORKLOADS[workload](ROOT, work_dir)
    wl.setup()
    block = next(inputs.blocks(workload, 5))
    if workload == "oracle":        # the cheapest config is enough here
        block = [op for op in block if op["config"] == "table_curves"]
    inp = block[0]
    plain = wl.run(wl.prepare(dict(inp)))
    tr = spans.Tracer()
    tr.install()
    try:
        tr.current_op = 0
        traced = wl.run(wl.prepare(dict(inp)))
    finally:
        tr.uninstall()
    assert len(tr.start) > 0, "the tracer saw no calls"
    assert wl.fingerprint(plain) == wl.fingerprint(traced)
    if workload == "oracle":
        assert tr.measures["oracle.sweeps"] == traced.iterations
        # 65 production x (512 + pad) + 65 sales x 512 elements per sweep
        assert 1e7 < tr.measures["oracle.bytes"] / traced.iterations < 2e7
    wl.release(plain)
    wl.release(traced)


def test_uninstall_restores_every_binding():
    import monopoly_control
    from monopoly_control import hamiltonian, strategy, value
    before = (strategy._h_controls, hamiltonian.controls_at,
              monopoly_control.build_hamiltonian,
              value.ValueFunction.__dict__["v_prime"])
    tr = spans.Tracer()
    tr.install()
    assert strategy._h_controls is not before[0]
    assert strategy._h_controls is hamiltonian.controls_at
    tr.uninstall()
    after = (strategy._h_controls, hamiltonian.controls_at,
             monopoly_control.build_hamiltonian,
             value.ValueFunction.__dict__["v_prime"])
    assert after == before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke_at_minimal_size(workload, work_dir):
    wl = WORKLOADS[workload](ROOT, work_dir)
    wl.setup()
    got = worker.timed_passes(wl, inputs.blocks(workload, 2), 0.0, passes=2)
    assert len(got["records"]) == len(next(inputs.blocks(workload, 2)))
    assert all(len(t) == 2 for t in got["per_op_seconds"])
    m = got["metrics"]
    assert m["op_p50_ms"] > 0.0 and m["ops_per_s"] > 0.0
    assert m["peak_rss_mb"] > 0.0
    if workload != "sweep":     # sweep carries known solver defects
        assert got["bad"] == {}
    assert "result differs between passes" not in got["bad"].values()


def test_block_count_depends_only_on_seconds():
    class Nominal:
        block_seconds = 2.0

    assert worker.block_count(Nominal(), 30.0, passes=5) == 3
    assert worker.block_count(Nominal(), 0.0, passes=5) == 1
    for name, wl in WORKLOADS.items():
        assert worker.block_count(wl, 30.0) >= 1, name


def test_run_pass_stops_at_the_nearest_block_boundary():
    class Sleepy:
        def prepare(self, inp):
            return inp

        def run(self, arg):
            time.sleep(0.01)

    blocks = ([{"i": b}] for b in range(1000))
    recs, wall = worker.run_pass(Sleepy(), blocks, 0.1)
    assert [r.block for r in recs] == list(range(len(recs)))
    assert abs(wall - 0.1) <= 2.0 * max(r.seconds for r in recs)


def test_sweep_verdict_check():
    """optimal => gap ~ 0 and witness in Q n A; not optimal => gap > 0."""
    from monopoly_control import ControlSet, StaticReport
    sets = (ControlSet.interval(0.0, 1.0), ControlSet.finite((0.0, 0.7, 1.5)))
    cases = [
        (StaticReport(True, 0.375, 0.1, 0.1406, 0.375), False),  # the known defect
        (StaticReport(True, 0.7, 0.2, 0.0, 0.7), True),
        (StaticReport(True, 0.7, 0.2, 0.0, 0.375), False),       # witness not in A
        (StaticReport(True, 0.7, 0.2, 0.0, None), False),
        (StaticReport(False, 0.7, 0.2, 0.05, None), True),
        (StaticReport(False, 0.7, 0.2, 0.0, None), False),
    ]
    for report, ok in cases:
        res = {"report": report, "sets": sets, "h_min": 0.3}
        assert (WORKLOADS["sweep"]._verdict(res) is None) == ok, report


def test_query_monotonicity_check(work_dir):
    from workloads import Record
    wl = WORKLOADS["query"](ROOT, work_dir)
    wl.models = {"m": (None, type("VF", (), {"zeta": 1.0})(), 1.0)}

    def recs(rows):
        return [Record(index=i, block=0, inp={"model": "m", "x": x}, arg=None,
                       result=(v, d, 0.0, 0.0))
                for i, (x, v, d) in enumerate(rows)]

    assert wl.check(recs([(0.2, 2.0, 0.5), (0.1, 1.0, 0.6)])) == {}
    assert set(wl.check(recs([(0.1, 2.0, 0.6), (0.2, 1.0, 0.5)]))) == {1}
    assert set(wl.check(recs([(0.1, 1.0, 0.5), (0.2, 2.0, 0.6)]))) == {1}
    assert set(wl.check(recs([(0.1, 1.0, 1.5)]))) == {0}


def test_benchmark_json_names_match_what_the_runs_produce(work_dir):
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    wl = WORKLOADS["query"](ROOT, work_dir)
    wl.setup()
    e2e = worker.timed_passes(wl, inputs.blocks("query", 1), 0.0)["metrics"]
    for m in BENCH["end_to_end"]:
        assert m["name"] == "setup_s" or m["name"] in e2e
    produced = set(spans.Tracer().layer_metrics(1)) | {
        "import.total_s", "import.scipy_s", "trace.untraced_ops_per_s",
        "trace.traced_ops_per_s", "trace.overhead_frac", "trace.spans_per_op"}
    assert {m["name"] for m in BENCH["per_layer"]} == produced
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS + run.DIAGNOSTICS) == set(inputs.BLOCKS)


def test_predictions_name_known_metrics_and_workloads():
    pred = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    layer = {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]} | {"op_p90_ms"}
    workloads = {w["name"] for w in BENCH["workloads"]}
    for row in pred["predictions"]:
        assert set(row["layer_metrics"]) <= layer
        assert set(row["moves"]) <= e2e
        assert set(row["on"]) <= workloads
        assert set(row["no_change_on"]) <= workloads


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_end_to_end_contract_on_the_query_workload():
    out = _run(["--workload", "query", "--seed", "3", "--seconds", "0.2",
                "--trace", "0"], ROOT)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 3
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0.0
    record = json.loads((ROOT / ".perfbench_out" / "query-seed3-trace0.json")
                        .read_text())
    assert len(record["inputs"]) == last["attempted"]
    assert all("x" in op for op in record["inputs"])
    assert record["machine"]["blas_threads"]["OMP_NUM_THREADS"] == "1"


def test_traced_contract_on_the_query_workload():
    out = _run(["--workload", "query", "--seed", "3", "--seconds", "0.2",
                "--trace", "1"], ROOT)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert set(last["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert last["metrics"]["import.total_s"]["value"] > 0.0
    assert last["metrics"]["value.v_prime_calls"]["value"] == 2.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "query", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
