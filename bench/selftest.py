"""Fast self-tests of the benchmark, kept out of the repository's test suite.

    python3 -m pytest -q bench/selftest.py

The file name does not match pytest's ``test_*.py`` pattern, so a plain
``pytest`` at the repository root does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from program import ROOT, require_program

require_program()

from bibagree.pipeline import run  # noqa: E402
from bibagree.corpus import SchemaOptions  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_at_toy_size(workload: str, trace: int):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 3
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)


@pytest.fixture(scope="module")
def toy_outputs(tmp_path_factory) -> tuple[Path, Path, dict]:
    tmp = tmp_path_factory.mktemp("toy")
    workload = workloads.scaled(workloads.WORKLOADS["bootstrap-serial"], toy=True)
    corpus_path = tmp / "corpus.csv"
    workloads.write_corpus(workloads.make_corpus(workload.n_records, 9), corpus_path)
    config = workloads.pipeline_config(workload, 9)
    population = workloads.population_path(corpus_path)
    run(corpus_path, tmp / "out", config, SchemaOptions(population_path=str(population)))
    return tmp, corpus_path, dataclasses.asdict(config)


@pytest.mark.parametrize("section, field", [("statistics", "value"), ("bootstrap", "lower"), ("bootstrap", "upper")])
def test_checker_rejects_a_perturbed_statistic(toy_outputs, tmp_path, section: str, field: str):
    src, corpus_path, config = toy_outputs
    population = workloads.population_path(corpus_path)
    assert check.verify(src / "out", corpus_path, population, config) == []

    out = tmp_path / "out"
    shutil.copytree(src / "out", out)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    entry = report[section][len(report[section]) // 2]
    entry[field] *= 1 + 1e-6
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    assert check.verify(out, corpus_path, population, config)


def test_bare_directory_fails_without_a_result(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench("--workload", "bootstrap-serial", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
