"""What the benchmark under ``bench/`` needs of the package.

The benchmark's tracer wraps package functions by name and reads some of
their arguments and results; its workloads build their inputs through
the package's public API. These tests load both bench modules from their
files and fail here, in the package's own suite, when a change to the
package would break the benchmark.
"""

import importlib
import importlib.util
import os
import sys

import numpy as np
import pytest

from spidereval import error_analysis, harness
from spidereval.ingest import FeatureTable

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    path = os.path.join(BENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

WRAPPED = {n for names in tracer.SELF_TIME.values() for n in names}


@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_traced_name_resolves_to_a_function(name):
    module, *attr = name.split(".")
    owner = importlib.import_module(f"spidereval.{module}")
    for part in attr:
        owner = getattr(owner, part)
    assert callable(owner)


def test_every_hook_and_call_count_names_a_traced_function():
    assert set(tracer.HOOKS) <= WRAPPED
    assert set(tracer.CALLS.values()) <= WRAPPED


def test_random_search_trials_have_a_loss():
    rng = np.random.default_rng(1)
    ids = [f"i{k:02d}" for k in range(20)]
    features = FeatureTable({i: rng.normal(size=3) for i in ids})
    targets = {i: float(rng.uniform(0, 100)) for i in ids}
    inner = tuple(tuple(part) for part in np.array_split(np.array(ids), 5))
    result = harness.random_search(harness.default_spec(), inner, features, targets,
                                   n_trials=3, seed=2)
    counts = tracer.HOOKS["harness.random_search"](harness.random_search, (), {}, result)
    assert counts == {"harness.trials": 3, "harness.trials_ok": 3}


def test_run_nested_cv_takes_threads():
    # plan, targets, features and spec are positional; binding needs no values
    assert tracer._bound(harness.run_nested_cv, (None,) * 4, {"threads": 2}, "threads") == 2


def test_stratified_bootstrap_ci_takes_b():
    groups = {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([4.0, 5.0])}
    args, kwargs = (groups, "texture"), {"B": 150}
    result = error_analysis.stratified_bootstrap_ci(*args, **kwargs)
    hook = tracer.HOOKS["error_analysis.stratified_bootstrap_ci"]
    assert hook(error_analysis.stratified_bootstrap_ci, args, kwargs, result) == {
        "error_analysis.replicates": 150,
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_generate_at_tiny_scale(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    workload.generate(str(tmp_path), 3, workload.scales["tiny"])
    assert os.listdir(tmp_path)
