"""The examples the README shows work as written.

Every line of a fenced README block that starts with ``spidereval`` (with
``\\`` continuations joined) runs through ``main`` in a fresh directory, in
README order, so later examples read what earlier ones wrote. Every
```` ```json ```` block parses, and each ``predictor`` object in one
resolves to a predictor spec.
"""

import json
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

from spidereval.cli import _predictor_spec, main

README = Path(__file__).parents[1] / "README.md"


def _commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```", text, flags=re.M | re.S)
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("spidereval ")
    ]


def test_readme_examples_run(tmp_path, monkeypatch):
    commands = _commands()
    assert [argv[0] for argv in commands] == ["synth", "qc", "split", "cv", "metrics", "all"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        out = tmp_path / argv[argv.index("--out") + 1]
        assert (out / "run_manifest.json").is_file(), argv


def test_readme_json_examples_are_valid():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```", text, flags=re.M | re.S)
    docs = [json.loads(block) for block in blocks]
    predictors = [doc for doc in docs if "predictor" in doc]
    assert len(docs) >= 3 and predictors
    for doc in predictors:
        _predictor_spec(SimpleNamespace(kind=doc.get("kind"), predictor=doc["predictor"]))
