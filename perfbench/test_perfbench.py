"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_METRICS, Tracer, attributed_layers, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap on [3, 4],
    # and c [9, 12], which runs past the root's end; a has a child [2, 3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    # root: 10 - |[1, 6] u [9, 10]| = 10 - 6; a: 3 - 1; b, c, leaf: no children
    assert self_times(start, end, parent) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_numpy_spans_count_for_the_innermost_package_layer():
    names = ["cli.main", "frame_ops.frame_bounds", "numpy.eigvalsh", "numpy.svd"]
    name = [0, 1, 2, 3]
    parent = [-1, 0, 1, 0]
    assert attributed_layers(names, name, parent) == ["cli", "frame_ops", "frame_ops", "cli"]


def test_metric_names_follow_the_pattern_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = end_to_end + per_layer + [w["name"] for w in spec["workloads"]]
    names += [name for name, _ in run.REPORTED] + ["failed_frac", "trace.spans"]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_layer_metrics_emit_every_per_layer_metric():
    tracer = Tracer()
    tracer.call("cli.main", lambda: tracer.call("paving_analysis.partition_from_assignment", int))
    metrics = layer_metrics(tracer, passes=1, partitions_per_pass=1, overhead_s=0.5)
    assert list(metrics) == [name for name, _, _ in LAYER_METRICS]
    assert metrics["paving_analysis.partitions"] == 1
    assert metrics["trace.overhead_s"] == 0.5


def test_tracer_rebinds_and_restores_the_package_names():
    import numpy as np

    import nonpaving
    import nonpaving.cli as cli

    original = cli.gram
    family = nonpaving.build_nonpavable_general(2, 2)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.gram is not original and nonpaving.matrix_core.gram is cli.gram
        nonpaving.frame_bounds(family)
    finally:
        tracer.uninstall()
    assert cli.gram is original and nonpaving.gram is original
    assert np.linalg.eigvalsh.__module__ == "numpy.linalg"
    spans = [tracer.names[i] for i in tracer.name]
    assert spans == ["frame_ops.frame_bounds", "numpy.eigvalsh"]
    assert attributed_layers(tracer.names, tracer.name, tracer.parent)[1] == "frame_ops"


def test_seed_changes_sampled_inputs_but_not_exhaustive_ones():
    assert jobs_for("sampled", 1) != jobs_for("sampled", 2)
    assert jobs_for("matrix-io", 1) != jobs_for("matrix-io", 2)
    assert jobs_for("exhaustive", 1) == jobs_for("exhaustive", 2)
    assert jobs_for("sampled", 7) == jobs_for("sampled", 7)


def _nonpaving(tmp_path, *argv):
    # The children get the absolute src path, so they run from any directory.
    proc = subprocess.run([sys.executable, "-m", "nonpaving", *argv], cwd=tmp_path,
                          env=run.child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def certificate(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cert")
    _nonpaving(tmp_path, "certify", "--r", "2", "--n", "2", "--mode", "sampled",
               "--count", "20", "--seed", "4", "--out", "cert.json")
    return json.loads((tmp_path / "cert.json").read_text())


def test_check_accepts_a_real_certificate(certificate):
    assert checks.check_certificate(certificate, 2, 2, "sampled", 20) == []


def test_check_rejects_one_corrupted_coefficient(certificate):
    bad = json.loads(json.dumps(certificate))
    bad["witness"]["coefficients"][0][0] += 1e-6
    assert checks.check_certificate(bad, 2, 2, "sampled", 20)


def test_check_rejects_a_wrong_partitions_checked(certificate):
    bad = dict(certificate, partitions_checked=19)
    assert checks.check_certificate(bad, 2, 2, "sampled", 20)
    assert checks.check_certificate(certificate, 2, 2, "exhaustive", None)


def test_check_accepts_build_and_sweep_outputs(tmp_path):
    _nonpaving(tmp_path, "build", "--r", "2", "--n", "3", "--out", "fam")
    _nonpaving(tmp_path, "sweep", "--r", "2", "--n-list", "2,3", "--out", "sweep.csv")
    assert checks.check_build(tmp_path, "fam", 2, 3) == []
    assert checks.check_sweep((tmp_path / "sweep.csv").read_text(), 2, [2, 3]) == []
    assert checks.check_sweep((tmp_path / "sweep.csv").read_text(), 2, [3, 2])


def test_unreadable_output_counts_as_failed_job(tmp_path):
    jobs = jobs_for("exhaustive", 0)
    for job in jobs:
        for o in job.outputs:
            (tmp_path / o).write_text("{not json")
    record = {"rc": 0, "digests": {}}
    result = {"passes": [{"jobs": [dict(record, digests={o: run.file_digest(tmp_path / o)
                                                          for o in job.outputs}) for job in jobs]}]}
    attempted, failed, problems = run.count_failures("exhaustive", 0, tmp_path, result)
    assert (attempted, failed) == (2, 2)
    assert any("unreadable output" in p for p in problems)
