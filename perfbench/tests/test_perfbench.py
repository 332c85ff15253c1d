"""Tests of the benchmark itself:

    python3 -m pytest -q perfbench/tests

They take about half a minute; the repository's own suite does not
collect them.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import stratisolve  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def words():
    wl = workloads.make("words", ROOT, 5)
    wl.warm_up()
    return wl


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    a = workloads.make(name, ROOT, 3).fingerprint().encode()
    b = workloads.make(name, ROOT, 3).fingerprint().encode()
    c = workloads.make(name, ROOT, 4).fingerprint().encode()
    assert a == b
    assert a != c


def test_orders_random_graphs_are_pairwise_distinct():
    graphs = workloads.orders_graphs(11, workloads.ORDERS_POOL)
    texts = [stratisolve.serialize_graph(g) for g in graphs]
    assert len(texts) == workloads.ORDERS_POOL
    assert len(set(texts)) == len(texts)


def test_orders_random_batches_hold_distinct_graphs():
    wl = workloads.make("orders-random", ROOT, 7)
    assert all(len(b) == workloads.ORDERS_BATCH for b in wl.batches)
    assert [g for b in wl.batches for g in b] == \
        workloads.orders_graphs(7, workloads.ORDERS_POOL)


def test_times_are_scaled_to_the_reference_speed():
    nominal = run.REF_NOMINAL_S
    assert run.scaled(0.4, nominal, nominal) == pytest.approx(0.4)
    # the reference work ran at half speed around the query
    assert run.scaled(0.4, 2 * nominal, 2 * nominal) == pytest.approx(0.2)
    assert run.scaled(0.4, nominal, 3 * nominal) == pytest.approx(0.2)


def test_reference_work_is_timed_around_every_query(words):
    refs = []
    results, _ = run.run_queries(words, count=2, refs=refs)
    assert len(results) == 2 and len(refs) == 3
    assert all(t > 0 for t in refs)


def test_balanced_order_keeps_the_mix_in_every_prefix():
    items = [("a", i) for i in range(50)] + [("b", i) for i in range(30)] \
        + [("c", i) for i in range(20)]
    out = workloads.balanced_order(items, key=lambda it: it[0])
    assert sorted(out) == sorted(items)
    for n in range(1, len(out) + 1):
        for k, share in (("a", 0.5), ("b", 0.3), ("c", 0.2)):
            assert abs(sum(it[0] == k for it in out[:n]) - share * n) <= 1
    assert [i for k, i in out if k == "b"] == list(range(30))


def test_self_time_on_a_synthetic_span_tree():
    # root [0,10]; children a [1,4] and b [3,6] overlap, c [8,12] sticks out
    # of the root; a has a child [2,3]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert spans.self_times(starts, ends, parents) == pytest.approx(
        [10 - 5 - 2, 3 - 1, 3, 4, 1]
    )


def test_layer_metrics_from_recorded_spans():
    rec = spans.Recorder()
    outer = rec.add_span("fgroup_handles.white_handle:TriangleHandle", 0, 4, -1, 0)
    rec.add_span("fgroup_handles.white_handle:TriangleHandle", 1, 2, outer, 0)
    rec.add_span("oracle.derive_trivial:found", 4, 5, -1, 0)
    rec.add_span("oracle.derive_trivial:failed", 5, 8, -1, 0)
    solve = rec.add_span("serre_solver.solve", 8, 10, -1, 0)
    rec.add_span("handle.TriangleHandle.wp", 9, 9.5, solve, 0)
    m = spans.layer_metrics(rec)
    assert m["fgroup_handles.classify_calls"] == 1
    assert m["fgroup_handles.kind.TriangleHandle"] == 1
    assert m["fgroup_handles.classify_s"] == pytest.approx(4)
    assert (m["oracle.derive_calls"], m["oracle.derive_found"]) == (2, 1)
    assert m["oracle.derive_failed_s"] == pytest.approx(3)
    assert m["oracle.derive_found_ratio"] == pytest.approx(0.5)
    assert m["fgroup_handles.basepoint_wp_s"] == pytest.approx(0.5)
    assert m["serre_solver.solve_self_s"] == pytest.approx(1.5)


def test_child_process_records_merge_into_the_parent():
    child = spans.Recorder()
    child.begin(0)
    child.count("graph_model.lookup_calls", 5)
    child.observe_max("snf.max_cols", 7)
    child.end()
    run_span = child.add_span("cli.run", 1.0, 3.0, -1, 0)
    child.add_span("serre_solver.solve", 1.5, 2.0, run_span, 0)
    parent = spans.Recorder()
    parent.add_span("serre_solver.solve", 0.0, 0.5, -1, 0)
    parent.counters["cli.process_s"] = 2.5
    spans.merge_child(parent, json.loads(json.dumps(spans.dump(child))), 4)
    m = spans.layer_metrics(parent)
    assert m["graph_model.lookup_calls"] == 5
    assert m["snf.max_cols"] == 7
    assert m["serre_solver.solve_calls"] == 2
    assert m["cli.run_s"] == pytest.approx(2.0)
    assert m["cli.startup_s"] == pytest.approx(0.5)
    assert list(parent.span_parent) == [-1, -1, 1]
    assert list(parent.span_query) == [0, 4, 4]


def test_printed_metric_names_are_those_of_benchmark_json():
    e2e = run.e2e_metrics([0.1, 0.2, 0.3], 10.0, [0.5, 0.6])
    layer = dict(spans.layer_metrics(spans.Recorder()))
    layer.update(run.bench_values(3, 1.0, {"queries": 3, "wall_s": 1.0}, 0, 0, 0))
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(layer) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in list(e2e) + list(layer):
        assert NAME.match(name), name
    for m in BENCHMARK["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"]


def test_wrong_expected_answer_counts_as_failure(words):
    # (c1 c2) has order 7 in (2,3,7): expecting it trivial is wrong
    wrong = workloads.Query(0, "probe", workloads.TRI7, "c.e1 * c.e2", True)
    right = workloads.Query(1, "probe", workloads.TRI7, "c.e1 * c.e2", False)
    words.prepare_checks()
    results = [words.run(wrong), words.run(right)]
    for r in results:
        r.outcome = words.check(r)
    failed, unchecked, undetermined = run.summarise(words, results)
    assert [r.query.index for r in failed] == [0]
    rates = run.bench_values(2, 1.0, {"queries": 2, "wall_s": 1.0},
                             len(failed), undetermined, unchecked)
    assert rates["bench.error_rate"] > 0


def test_traced_counts_repeat_and_verdicts_match_untraced(words):
    plain, _ = run.run_queries(words, count=6)
    counts = []
    for _ in range(2):
        rec = spans.Recorder()
        undo, missing = spans.install(rec)
        try:
            traced, _ = run.run_queries(words, count=6, rec=rec)
        finally:
            spans.uninstall(undo)
        assert not missing
        m = spans.layer_metrics(rec)
        counts.append({k: m[k] for k in spans.EXACT_COUNTS})
        assert run.digest(traced) == run.digest(plain)
    assert counts[0] == counts[1]
    assert counts[0]["exactfield.mat_mul_calls"] > 0
    assert counts[0]["serre_solver.splices"] > 0
    # the wrappers are gone again
    assert stratisolve.serre_solver.word_problem is stratisolve.word_problem
    assert stratisolve.word_problem.__module__ == "stratisolve.serre_solver"
    assert not hasattr(stratisolve.word_problem, "__wrapped__")


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "words",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
