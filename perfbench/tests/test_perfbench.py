"""Tests of the benchmark itself: request generation, smoke runs, span trees.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# requests per smoke run: the first few of a workload's first cycle
SMOKE = {"cli-desk": 4, "exact-series": 3, "newton-ladder": 2, "quotient-ladder": 1}


def first_cycles(name, seed, count=3):
    return list(itertools.islice(workloads.cycles(workloads.WORKLOADS[name], seed), count))


@pytest.fixture
def checkout(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_one_request_list(name):
    assert first_cycles(name, 11) == first_cycles(name, 11)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seeds_give_different_q(name):
    def qs(seed):
        return [req.q for cycle in first_cycles(name, seed) for req in cycle]

    assert qs(1) != qs(2)


def smoke(name, tracer):
    workload = workloads.WORKLOADS[name]
    requests = next(workloads.cycles(workload, 3))[: SMOKE[name]]
    ctx = workload.setup(tracer)
    done, _, _ = run.run_loop(workload, ctx, iter([requests]), 0.0, tracer)
    workload.finish(ctx, done, tracer)
    return requests, done


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_fails_only_the_known_defects(name, checkout):
    requests, done = smoke(name, spans.NullTracer())
    defects = sum(req.kind == "cli" and req.params[3] is not None for req in requests)
    statuses = [outcome.status for _, outcome in done]
    assert statuses.count(workloads.FAILED) == 0, [o.note for _, o in done]
    failed_ratio = 1 - statuses.count(workloads.PASS) / len(done)
    assert failed_ratio == defects / len(requests)


@pytest.mark.parametrize("name", ["exact-series", "newton-ladder", "quotient-ladder"])
def test_span_tree_nests_and_self_times_are_nonnegative(name, checkout):
    tracer = spans.Tracer()
    _, done = smoke(name, tracer)
    assert all(outcome.status == workloads.PASS for _, outcome in done)
    by_id = {s["id"]: s for s in tracer.spans}
    layer_spans = [s for s in tracer.spans if s["parent"] is not None]
    assert layer_spans
    for s in layer_spans:
        parent = by_id[s["parent"]]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        assert s["request"] == parent["request"]
    assert all(t >= 0 for t in spans.self_times(tracer.spans).values())


def test_self_time_subtracts_the_union_of_children():
    def span(i, parent, start, end):
        return {"id": i, "name": f"s{i}", "parent": parent, "request": 0,
                "start": start, "end": end, "counts": {}}

    tree = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 0, 5.0, 6.0),
            span(3, 1, 2.0, 3.0)]
    assert spans.self_times(tree) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_boundaries_a_workload_does_not_cross_come_from_the_probe():
    main, probe = spans.Tracer(), spans.Tracer()
    main.add("toric_core.build", 0.0, 2.0)
    for name in {span for _, _, span, _ in run.PER_LAYER}:
        probe.add(name, 0.0, 1.0, roots=3, starts=150)
    values, _, _, probed = run.per_layer(main.spans, probe.spans, 1.1)
    assert values["toric_core.build_s"] == 2.0
    assert "toric_core.build_s" not in probed
    assert all(values[m] == 1.0 for m, unit, _, _ in run.PER_LAYER
               if unit == "s" and m != "toric_core.build_s")
    assert values["lg_model.root_yield"] == 0.02
    assert len(probed) == len(run.PER_LAYER) - 1


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "newton-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
