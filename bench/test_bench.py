"""Self-tests of the benchmark at a tiny scale.

Run from the root of the checkout: python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_passes_every_check(name, tmp_path):
    result = run.run_workload(WORKLOADS[name], seed=3, seconds=0, trace=True,
                              scale_name="tiny", work=str(tmp_path))
    assert result["problems"] == []
    assert result["failed"] == 0 and result["error_rate"] == 0.0
    runs = run.MIN_RUNS + 2  # untraced and traced alternate, three untraced
    assert result["attempted"] == run.SETUP_REPS + (1 + run.SETUP_PER_RUN) * runs
    assert result["per_layer"]["trace.spans"]["median"] > 0


def _corrupt_second_run(monkeypatch, corrupt):
    """Make run_child corrupt the artifacts of the second workload run."""
    original = run.run_child
    calls = []

    def child(argv, env, log_path, traced=False):
        sample = original(argv, env, log_path, traced)
        if "--out" in argv:
            calls.append(argv)
            if len(calls) == 2:
                corrupt(argv[argv.index("--out") + 1])
        return sample

    monkeypatch.setattr(run, "run_child", child)


def test_corrupted_artifact_counts_in_error_rate(monkeypatch, tmp_path):
    def append_byte(out):
        with open(os.path.join(out, "icc_summary.csv"), "a", encoding="utf-8") as fh:
            fh.write("\n")

    _corrupt_second_run(monkeypatch, append_byte)
    result = run.run_workload(WORKLOADS["icc_missing"], seed=3, seconds=0, trace=False,
                              scale_name="tiny", work=str(tmp_path))
    assert result["failed"] == 1
    assert result["error_rate"] == 1 / result["attempted"]
    assert any("icc_summary.csv" in p for p in result["problems"])


def test_wrong_number_with_a_consistent_manifest_fails_the_oracle(tmp_path):
    workload = WORKLOADS["pipeline_d64"]
    scale = workload.scales["tiny"]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    workload.generate(str(inputs), 3, scale)
    sample = run.run_child([sys.executable, "-m", "spidereval.cli"]
                           + workload.cli_args(str(inputs), str(out), 3, scale),
                           run.child_env(), str(tmp_path / "log"))
    assert sample.exit_code == 0
    assert workload.check(str(inputs), str(out), scale) == []
    metrics = out / "metrics.csv"
    header, values = metrics.read_text().splitlines()
    fields = values.split(",")
    fields[1] = repr(float(fields[1]) * 1.01)
    metrics.write_text(header + "\n" + ",".join(fields) + "\n")
    manifest = json.loads((out / "run_manifest.json").read_text())
    manifest["outputs"]["metrics.csv"] = run.artifact_digests(str(out))["metrics.csv"]
    (out / "run_manifest.json").write_text(json.dumps(manifest))
    assert run.check_manifest(str(out), run.artifact_digests(str(out))) == []
    problems = workload.check(str(inputs), str(out), scale)
    assert any("metrics.csv" in p for p in problems)


def test_tracer_leaves_artifacts_unchanged_and_links_pool_spans(tmp_path):
    workload = WORKLOADS["search_d768"]
    scale = workload.scales["tiny"]
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    workload.generate(str(inputs), 4, scale)
    digests = {}
    trace_path = str(tmp_path / "trace.json")
    for traced in (False, True):
        out = str(tmp_path / f"out{int(traced)}")
        prefix = ([os.path.join(run.BENCH, "trace_child.py"), trace_path] if traced
                  else ["-m", "spidereval.cli"])
        sample = run.run_child([sys.executable, *prefix,
                                *workload.cli_args(str(inputs), out, 4, scale)],
                               run.child_env(), str(tmp_path / "log"))
        assert sample.exit_code == 0
        digests[traced] = run.artifact_digests(out)
    assert digests[True] == digests[False]
    with open(trace_path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    (cv,) = [s for s in spans if s[1] == "harness.run_nested_cv"]
    folds = [s for s in spans if s[1] == "harness._run_fold"]
    assert len(folds) == 25 and all(s[4] == cv[0] for s in folds)
    assert any(s[5] != cv[5] for s in folds)  # ran on the pool's threads


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = b"x" * (160 << 20)  # the benchmark process grows by 160 MiB
    sample = run.run_child([sys.executable, "-c", "pass"], run.child_env(),
                           str(tmp_path / "log"))
    del ballast
    assert sample.exit_code == 0
    assert 0 < sample.peak_rss_mb < 96


def test_child_past_the_timeout_is_killed_and_reaped(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 1)
    pid_file = tmp_path / "pid"
    sample = run.run_child(
        [sys.executable, "-c",
         f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); "
         "time.sleep(60)"],
        run.child_env(), str(tmp_path / "log"))
    assert sample.exit_code != 0
    pid = int(pid_file.read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_self_time_subtracts_the_union_of_children():
    trace = {
        "wall_s": 12.0,
        "counts": {"harness.threads": 2},
        "spans": [
            [1, "harness.run_nested_cv", 0.0, 10.0, None, 1],
            [2, "harness._run_fold", 1.0, 4.0, 1, 2],
            [3, "harness._run_fold", 3.0, 6.0, 1, 3],
            [4, "harness.fit_ridge", 2.0, 3.0, 2, 2],
        ],
    }
    m = tracer.layer_metrics(trace)
    assert m["harness.orchestration_s"] == pytest.approx((10 - 5) + (3 - 1) + 3)
    assert m["harness.fit_s"] == pytest.approx(1.0)
    assert m["harness.pool_efficiency"] == pytest.approx(6.0 / (2 * 10.0))
    assert m["cli.glue_s"] == pytest.approx(2.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline_d64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
