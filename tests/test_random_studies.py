"""Random studies through the whole chain, checked by independent oracles.

Each example draws a study shape and the options of one run, generates
its inputs with the benchmark's ``pipeline_d64`` workload and runs
``all`` on them. The workload's ``check`` then recomputes what it can
without the package: ridge refits by least squares, metrics, ANOVA ICC,
the error analysis and the overlap statistics. On success the chained
subcommands must write the same bytes as ``all``.

The draws put the feature dimension on both sides of the training-set
size and the trial count on both sides of the per-run crossover (7
trials at these sizes), and four pinned studies make sure that every
factorization level of the ridge search meets the least-squares oracle,
one of them on a plan whose training sets straddle d = n.

QC's oracle, that every outlier rater is excluded, holds only where
the outliers are a small share of the raters. In scratch studies of 25
images QC missed a lone outlier in about 1 of 10 at 5 raters, and in 9
of 9 000 at 15-30 raters, each one whose own rater effect, near -3 sd,
cancelled half its offset. So the draws add an outlier only among at
least 15 raters, a share of at most 1 in 15, and only one that stands 2
sd of the rater effects beyond every regular rater: QC missed none of
8 540 such studies. Two outliers among a few raters widen the Tukey
fences they are judged by, and QC can keep one of them;
``test_two_outliers_can_mask_each_other`` pins such a study as the
rule's expected behaviour.

On the pinned studies, ``test_input_layout_changes_no_byte`` checks the
README's promise that the layout of the inputs changes no artifact: the
row order of every CSV, CRLF line ends, the key order of a JSON input
and the order of the ``--heatmaps`` directories.
"""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import random
import shutil
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from spidereval.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    path = os.path.join(BENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
PIPELINE = workloads.WORKLOADS["pipeline_d64"]
RATERS_PER_OUTLIER = 15  # the fewest raters a drawn outlier joins


def _run(argv) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _chain(inputs, root, seed, scale) -> dict[str, str]:
    """Run the subcommands ``all`` chains, each into a directory of its own
    under ``root``; returns the path of every artifact but the manifests."""
    at = os.path.join
    qc, split, cv = at(root, "qc"), at(root, "split"), at(root, "cv")
    targets, predictions = at(split, "image_targets.csv"), at(cv, "predictions.csv")
    seeded = ["--seed", str(seed)]
    commands = [
        ["qc", "--out", qc, "--ratings", at(inputs, "ratings.csv")],
        ["split", "--out", split, *seeded, "--ratings", at(qc, "ratings_filtered.csv")],
        ["cv", "--out", cv, *seeded, "--threads", str(scale.threads),
         "--plan", at(split, "cv_plan.json"), "--targets", targets,
         "--features", at(inputs, "features.csv"), "--trials", str(scale.trials)],
        ["metrics", "--out", at(root, "metrics"), "--predictions", predictions,
         "--targets", targets],
        ["icc", "--out", at(root, "icc"), *seeded, "--ratings", at(qc, "ratings_filtered.csv"),
         "--reps", str(scale.reps)],
        ["error-analysis", "--out", at(root, "errors"), *seeded, "--predictions", predictions,
         "--targets", targets, "--categories", at(inputs, "categories.csv"),
         "--bootstrap", str(scale.bootstrap)],
        ["overlap", "--out", at(root, "overlap"), "--heatmaps", at(inputs, "heatmaps1"),
         at(inputs, "heatmaps2"), "--masks", at(inputs, "masks"), "--targets", targets],
    ]
    written = {}
    for argv in commands:
        assert _run(argv)[0] == 0, argv
        out = argv[2]
        written.update((name, at(out, name)) for name in os.listdir(out))
    del written["run_manifest.json"]
    return written


@st.composite
def _study(draw):
    raters = draw(st.integers(5, 30))
    scale = workloads.Scale(
        images=draw(st.integers(12, 90)), raters=raters,
        dim=draw(st.integers(2, 300)), grid=8,
        outliers=draw(st.integers(0, 1)) if raters >= RATERS_PER_OUTLIER else 0,
        trials=draw(st.integers(1, 9)), bootstrap=200, reps=10,
        threads=draw(st.integers(1, 2)),
    )
    seed = draw(st.integers(0, 2**31 - 1))
    if scale.outliers:
        assume(_stands_out(scale, seed))
    return scale, seed


def _stands_out(scale, seed) -> bool:
    """Whether the study's outlier, offset included, leads every regular
    rater's effect by 2 sd of the rater effects."""
    _, _, truth = workloads._synth(scale, seed, PIPELINE.OUTLIER_OFFSET)
    effects = dict(truth.rater_effects)
    (outlier,) = truth.outlier_ids
    lead = effects.pop(outlier) + PIPELINE.OUTLIER_OFFSET - max(map(abs, effects.values()))
    return lead >= 2 * math.sqrt(workloads.VAR_RATER)


def _pinned(images, dim, trials, threads):
    """A study the draws may miss: one per factorization level, the last
    with training sets of 49 and 50 images at d = 49, which straddle d = n."""
    return workloads.Scale(images=images, raters=RATERS_PER_OUTLIER, dim=dim, grid=8,
                           outliers=1, trials=trials, bootstrap=200, reps=10,
                           threads=threads), 3


PINNED = {  # by the factorization level they reach
    "per fit set": _pinned(40, 8, 3, 1),
    "per outer fold": _pinned(40, 48, 8, 2),
    "per run": _pinned(40, 48, 3, 1),
    "per outer fold where wide, per fit set where narrow": _pinned(62, 49, 3, 2),
}


@settings(max_examples=20, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_study())
@example(PINNED["per fit set"])
@example(PINNED["per outer fold"])
@example(PINNED["per run"])
@example(PINNED["per outer fold where wide, per fit set where narrow"])
def test_random_study_meets_the_oracles(study):
    scale, seed = study
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = os.path.join(tmp, "inputs"), os.path.join(tmp, "all")
        os.makedirs(inputs)
        PIPELINE.generate(inputs, seed, scale)
        code, stderr = _run(PIPELINE.cli_args(inputs, out, seed, scale))
        if code == 1:
            lines = stderr.strip().splitlines()
            assert len(lines) == 1, lines
            assert "field" in json.loads(lines[0])["error"]
            return
        assert code == 0, stderr
        assert PIPELINE.check(inputs, out, scale) == []
        chained = _chain(inputs, os.path.join(tmp, "chain"), seed, scale)
        produced = set(os.listdir(out)) - {"run_manifest.json"}
        assert produced == set(chained)
        for name in sorted(produced):
            with open(os.path.join(out, name), "rb") as a, open(chained[name], "rb") as b:
                assert a.read() == b.read(), name


def test_two_outliers_can_mask_each_other(tmp_path):
    """Two outliers among 8 raters: the type-7 upper quartile of the 8 MAD
    scores lies between the 6th and the 7th, one outlier's own score, and
    lifts the fence Q3 + 1.5 IQR above it, so QC keeps that outlier."""
    PIPELINE.generate(str(tmp_path), 2, workloads.Scale(images=40, raters=8, dim=8, grid=8,
                                                        outliers=2))
    assert workloads.read_meta(str(tmp_path))["outliers"] == ["p003", "p005"]
    qc = tmp_path / "qc"
    assert _run(["qc", "--out", str(qc), "--ratings", str(tmp_path / "ratings.csv")])[0] == 0
    summary = json.loads((qc / "qc_summary.json").read_text())
    assert summary["excluded"] == ["p003"]
    with open(qc / "qc_report.csv", newline="") as fh:
        scores = {row["participant"]: float(row["mad_score"]) for row in csv.DictReader(fh)}
    regular = max(v for p, v in scores.items() if p not in ("p003", "p005"))
    assert sorted(scores.values())[6] == scores["p005"]
    assert 2 * regular < scores["p005"] < summary["mad_threshold"]


def _relaid_csv(src, dst, seed):
    """``src`` with its data rows shuffled and CRLF line ends."""
    with open(src, "rb") as fh:
        header, *rows = fh.read().splitlines()
    random.Random(seed).shuffle(rows)
    with open(dst, "wb") as fh:
        fh.write(b"".join(line + b"\r\n" for line in [header, *rows]))


def _reversed_keys(obj):
    """``obj`` with the keys of every JSON object in reverse order."""
    if isinstance(obj, dict):
        return {key: _reversed_keys(obj[key]) for key in reversed(obj)}
    return [_reversed_keys(item) for item in obj] if isinstance(obj, list) else obj


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _same_outputs(a, b):
    """Each file of ``a`` is in ``b`` with the same bytes, the manifests
    apart from the digests of the inputs."""
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in sorted(os.listdir(a)):
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            data_a, data_b = fa.read(), fb.read()
        if name == "run_manifest.json":
            data_a, data_b = json.loads(data_a), json.loads(data_b)
            inputs_a, inputs_b = data_a.pop("inputs"), data_b.pop("inputs")
            assert sorted(inputs_a) == sorted(inputs_b)
        assert data_a == data_b, name


@pytest.mark.parametrize("study", PINNED.values(), ids=PINNED)
def test_input_layout_changes_no_byte(study, tmp_path):
    """Every artifact keeps its bytes when the inputs are laid out
    otherwise: CSV rows shuffled, CRLF line ends, JSON keys reordered
    and the heatmap directories swapped."""
    scale, seed = study
    at = os.path.join
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    os.makedirs(a)
    PIPELINE.generate(a, seed, scale)
    shutil.copytree(a, b, ignore=shutil.ignore_patterns("*.csv"))
    for k, name in enumerate(["ratings.csv", "features.csv", "categories.csv"]):
        _relaid_csv(at(a, name), at(b, name), k)
    config = {"seed": seed, "threads": scale.threads, "trials": scale.trials,
              "bootstrap": scale.bootstrap, "reps": scale.reps}
    _write_json(at(a, "config.json"), config)
    _write_json(at(b, "config.json"), _reversed_keys(config))
    for inputs, heatmaps in ((a, ["heatmaps1", "heatmaps2"]), (b, ["heatmaps2", "heatmaps1"])):
        assert _run(["all", "--out", at(inputs, "all"), "--config", at(inputs, "config.json"),
                     "--ratings", at(inputs, "ratings.csv"),
                     "--features", at(inputs, "features.csv"),
                     "--categories", at(inputs, "categories.csv"), "--masks", at(inputs, "masks"),
                     "--heatmaps", *(at(inputs, h) for h in heatmaps)])[0] == 0
    _same_outputs(at(a, "all"), at(b, "all"))

    # b's copies of the plan, targets and predictions relaid where a keeps its own
    with open(at(a, "all", "cv_plan.json"), encoding="utf-8") as fh:
        _write_json(at(b, "all", "cv_plan.json"), _reversed_keys(json.load(fh)))
    for k, name in enumerate(["image_targets.csv", "predictions.csv"]):
        _relaid_csv(at(a, "all", name), at(b, "all", name), k)
    for inputs in (a, b):
        targets, predictions = at(inputs, "all", "image_targets.csv"), \
            at(inputs, "all", "predictions.csv")
        for argv in (["cv", "--seed", str(seed), "--trials", str(scale.trials),
                      "--plan", at(inputs, "all", "cv_plan.json"), "--targets", targets,
                      "--features", at(inputs, "features.csv")],
                     ["metrics", "--targets", targets, "--predictions", predictions],
                     ["error-analysis", "--seed", str(seed), "--bootstrap", str(scale.bootstrap),
                      "--targets", targets, "--predictions", predictions,
                      "--categories", at(inputs, "categories.csv")],
                     ["icc", "--seed", str(seed), "--reps", str(scale.reps),
                      "--ratings", at(inputs, "ratings.csv")],
                     ["overlap", "--targets", targets, "--masks", at(inputs, "masks"),
                      "--heatmaps", at(inputs, "heatmaps1"), at(inputs, "heatmaps2")]):
            assert _run(argv + ["--out", at(inputs, argv[0])])[0] == 0, argv
    for command in ["cv", "metrics", "error-analysis", "icc", "overlap"]:
        _same_outputs(at(a, command), at(b, command))
