"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Kept out of the package's test suite (the file name does not match
test_*.py): they run every workload once, which takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ultrazeta import grid  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def test_benchmark_json_lists_what_the_run_prints():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == \
        run.END_TO_END_UNITS
    import tracer
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == \
        tracer.METRIC_UNITS


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_round_prints_every_end_to_end_metric(name, tmp_path):
    w = worker.setup(name, 11, str(tmp_path))
    labels = []
    times, failed, done = worker.run_rounds(
        w, 11, None, worker.plain_timer(w), lambda t: True, labels)
    assert failed == 0 and done == [1] and len(times) == len(w.catalog)
    assert sorted(labels) == sorted(label for label, _ in w.catalog)
    metrics = run.end_to_end([0.5], {"times": times, "labels": labels,
                                     "peak_rss_mb": 1.0})
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())


def test_task_metrics_take_each_kind_at_its_best_time():
    labels = ["a", "b", "c", "a", "b", "c"]
    times = [0.010, 0.020, 0.050, 0.030, 0.018, 0.040]
    m = run.end_to_end([1.0, 2.0, 4.0], {"times": times, "labels": labels,
                                         "peak_rss_mb": 1.0})
    assert m["task_p50_ms"]["value"] == pytest.approx(18.0)
    assert m["task_p90_ms"]["value"] == pytest.approx(35.6)
    assert m["tasks_per_s"]["value"] == pytest.approx(3 / 0.068)
    assert m["setup_s"]["value"] == 2.0


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return worker.trace(12, 0.0, str(tmp_path_factory.mktemp("work")))


def test_traced_run_prints_every_per_layer_metric(traced):
    want = {m["name"] for m in BENCH["per_layer"]}
    assert set(traced["metrics"]) == want
    assert traced["failed"] == 0
    for name, value in traced["metrics"].items():
        if name.endswith("_s"):
            assert value > 0, name


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_layer_self_times_account_for_traced_wall(traced, name):
    m = traced["metrics"]
    total = m[f"{name}.trace.layers_self_s"] + m[f"{name}.bench.self_s"]
    assert total == pytest.approx(m[f"{name}.trace.wall_s"], rel=1e-9)


def _one(name, label_prefix, tmp_path):
    w = workloads.WORKLOADS[name](str(tmp_path))
    spec = next(s for s in workloads.round_specs(w, 3, 1)
                if s.label.startswith(label_prefix))
    inputs = w.prepare(spec)
    out = w.execute(spec, inputs)
    w.check(spec, inputs, out)          # the genuine output passes
    return w, spec, inputs, out


def test_perturbed_grid_value_is_caught(tmp_path):
    w, spec, inputs, out = _one("grids", "full:Qp:p3:n2", tmp_path)
    out["g2"].values[0, 0] += 1e-6
    with pytest.raises(workloads.WrongOutput):
        w.check(spec, inputs, out)


def _corrupt_report(w, spec, runs, codes, edit):
    with open(runs[0][1]) as fh:
        report = json.load(fh)
    edit(report["results"])
    with open(runs[0][1], "w") as fh:
        json.dump(report, fh)
    with pytest.raises(workloads.WrongOutput):
        w.check(spec, runs, codes)


@pytest.mark.parametrize("label, edit", [
    ("igusa:cusp",
     lambda res: res["series"]["coefficients"].__setitem__(5, "1/7")),
    ("igusa:x1^2",
     lambda res: res["series"]["coefficients"].__setitem__(2, "1/7")),
    ("fundsol:x1",
     lambda res: res.__setitem__("t0_on_unit_ball_indicator", "1/2")),
])
def test_perturbed_cli_report_is_caught(label, edit, tmp_path):
    w, spec, _, _ = _one("cli", label, tmp_path)
    runs = w.prepare(spec)
    _corrupt_report(w, spec, runs, w.execute(spec, runs), edit)


@pytest.mark.parametrize("kind, p, n, L, m", [("Qp", 2, 2, 3, 3),
                                             ("LaurentFp", 3, 2, 2, 2),
                                             ("Qp", 3, 1, 1, 1)])
def test_grid_inputs_are_written_as_the_library_would(kind, p, n, L, m,
                                                     tmp_path):
    rng = np.random.default_rng(4)
    g = grid.GridFunction(workloads._field(kind, p), n, L, m,
                          workloads._random_complex(rng,
                                                    (p ** (L + m),) * n))
    g.values.reshape(-1)[::7] = 0
    path = str(tmp_path / "g.json")
    workloads._write_grid_json(path, g, {})
    with open(path) as fh:
        assert json.load(fh) == g.to_json()


def test_run_exits_nonzero_on_a_wrong_transform(monkeypatch, tmp_path,
                                                capsys):
    real = grid.fourier_transform

    def corrupted(g):
        h = real(g)
        return grid.GridFunction(h.field, h.n, h.L, h.m,
                                 h.values * (1 + 1e-9))
    monkeypatch.setattr(grid, "fourier_transform", corrupted)
    monkeypatch.setattr(worker, "HERE", str(tmp_path))
    assert worker.main(["measure", "grids", "1", "1"]) == 1
    assert capsys.readouterr().out == ""


def test_one_seed_gives_one_task_list():
    for name, cls in workloads.WORKLOADS.items():
        w = cls("unused")
        a = [workloads.round_specs(w, 5, r) for r in range(3)]
        b = [workloads.round_specs(w, 5, r) for r in range(3)]
        c = [workloads.round_specs(w, 6, r) for r in range(3)]
        assert a == b and a != c
        assert sorted(s.label for s in a[1]) == sorted(l for l, _ in
                                                        w.catalog)
    w = workloads.WORKLOADS["grids"]("unused")
    spec = workloads.round_specs(w, 5, 1)[0]
    g1, g2 = w.prepare(spec)[0], w.prepare(spec)[0]
    assert np.array_equal(g1.values, g2.values)


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grids",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
