"""CLI subcommands, exit codes, report completeness and output determinism."""

import csv
import json

import pytest

from bibagree.cli import main

CORPUS_HEADER = (
    "pub_id,institution_id,area_id,year,citations,journal_id,category_weights,"
    "ref_category_weights,rev_a_originality,rev_a_rigour,rev_a_impact,"
    "rev_b_originality,rev_b_rigour,rev_b_impact,ext_citation_percentile,ext_journal_percentile\n"
)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    path = d / "corpus.csv"
    assert main(["generate", "--out", str(path), "--seed", "7"]) == 0
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_generate_writes_population_sidecar(corpus_file):
    pop = corpus_file.with_suffix(".population.csv")
    assert pop.exists()
    rows = read_rows(pop)
    assert rows[0] == ["institution_id", "count"]
    assert len(rows) > 1


def test_validate_ok(corpus_file, capsys):
    assert main(["validate", "--corpus", str(corpus_file)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_bad_corpus_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(CORPUS_HEADER + "p1,U1,A,2012,5,J1,PHY:0.5,,4,7,5,3,6,6,,\n")
    assert main(["validate", "--corpus", str(bad)]) == 1
    assert "weights sum" in capsys.readouterr().err


def test_sample_subcommand(corpus_file, tmp_path):
    out = tmp_path / "sub.csv"
    assert main(["sample", "--corpus", str(corpus_file), "--fraction", "0.5",
                 "--seed", "1", "--out", str(out)]) == 0
    assert 0 < len(read_rows(out)) - 1 < len(read_rows(corpus_file)) - 1


def run_pipeline(corpus_file, out_dir, *extra):
    args = ["run", "--corpus", str(corpus_file), "--out", str(out_dir),
            "--seed", "3", "--replicates", "25",
            "--population", str(corpus_file.with_suffix(".population.csv"))]
    return main(args + list(extra))


def test_run_produces_all_outputs(corpus_file, tmp_path):
    out = tmp_path / "out"
    assert run_pipeline(corpus_file, out) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "report.json", "mad_institution.csv", "mapd_institution.csv",
        "mad_publication.csv", "scatter_institution.csv", "coverage.csv",
    }
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["series_labels"] == [
        "reviewer1", "reviewer2", "ncs", "njs", "citation_percentile", "journal_percentile",
    ]
    labels = {s["metric_label"] for s in report["statistics"]}
    assert labels == {"reviewer2", "ncs", "njs", "citation_percentile", "journal_percentile"}
    # Every configured (area, metric, level, view) is in statistics or skips.
    areas = {s["area_id"] for s in report["statistics"]}
    seen = {(s["area_id"], s["metric_label"], s["level"], s["view"]) for s in report["statistics"]}
    skipped = {(s["area_id"], s["metric_label"], s["level"]) for s in report["skips"]}
    for area in areas:
        for metric in labels:
            for level, view in (
                ("institution", "size_independent"),
                ("institution", "size_dependent"),
                ("publication", "size_independent"),
            ):
                assert (area, metric, level, view) in seen or (area, metric, level) in skipped


def test_table_cardinalities(corpus_file, tmp_path):
    out = tmp_path / "out"
    assert run_pipeline(corpus_file, out) == 0
    report = json.loads((out / "report.json").read_text())
    areas = {s["area_id"] for s in report["statistics"]}
    mad_rows = read_rows(out / "mad_institution.csv")[1:]
    assert len(mad_rows) == len(areas) * 5
    scatter_rows = read_rows(out / "scatter_institution.csv")[1:]
    inst_areas = {(s["area_id"],) for s in report["statistics"]}
    n_aggregates = len({(r[0], r[1]) for r in scatter_rows})
    assert len(scatter_rows) == n_aggregates


def test_identical_runs_are_byte_identical(corpus_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_pipeline(corpus_file, out1) == 0
    assert run_pipeline(corpus_file, out2) == 0
    for p1 in sorted(out1.iterdir()):
        assert p1.read_bytes() == (out2 / p1.name).read_bytes()


def test_no_bootstrap_leaves_interval_columns_empty(corpus_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--corpus", str(corpus_file), "--out", str(out), "--no-bootstrap"]) == 0
    rows = read_rows(out / "mad_institution.csv")
    assert all(r[3] == "" and r[4] == "" for r in rows[1:])
    report = json.loads((out / "report.json").read_text())
    assert report["bootstrap"] == []


def test_zero_citation_field_year_flags_but_succeeds(tmp_path):
    lines = [CORPUS_HEADER]
    # DEAD field-year cell: all zero citations; the rest of the corpus is healthy.
    for i in range(4):
        lines.append(f"z{i},U1,A,2012,0,J0,DEAD:1.0,,4,5,6,5,5,5,,\n")
    for i in range(20):
        inst = f"U{i % 4}"
        lines.append(f"p{i},{inst},A,2012,{i + 1},J{i % 3},LIVE:1.0,,4,5,6,5,5,5,,\n")
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("".join(lines))
    out = tmp_path / "out"
    assert main(["run", "--corpus", str(corpus), "--out", str(out), "--no-bootstrap"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["flagged_records"]["zero_mean_cell"] == 4


def test_min_pubs_filter_reported(tmp_path, corpus_file):
    out = tmp_path / "out"
    assert main(["run", "--corpus", str(corpus_file), "--out", str(out),
                 "--no-bootstrap", "--min-pubs", "5"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["min_pubs"] == 5


def test_missing_corpus_is_validation_failure(tmp_path, capsys):
    code = main(["run", "--corpus", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "[load]" in capsys.readouterr().err


def test_unwritable_output_is_runtime_failure(corpus_file, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["run", "--corpus", str(corpus_file), "--out", str(blocker / "sub"),
                 "--no-bootstrap"])
    assert code == 2


@pytest.mark.parametrize(
    "extra, config, named",
    [
        ([], {"seeed": 1}, "seeed"),
        (["--replicates", "0"], None, "n_replicates"),
        (["--workers", "0"], None, "n_workers"),
        (["--min-pubs", "0"], None, "min_pubs"),
        ([], {"baseline_label": "reviewer3"}, "reviewer3"),
        ([], {"metric_labels": ["ncs", "h_index"]}, "h_index"),
        ([], {"bootstrap": "false"}, "bootstrap"),
        ([], {"n_replicates": 2.5}, "n_replicates"),
        ([], {"seed": "x"}, "seed"),
        ([], {"seed": True}, "seed"),
        ([], {"n_workers": 1.5}, "n_workers"),
        ([], {"metric_labels": "ncs"}, "metric_labels"),
    ],
    ids=[
        "unknown-key", "replicates", "workers", "min-pubs", "baseline-label", "metric-label",
        "bootstrap-string", "replicates-float", "seed-string", "seed-bool", "workers-float", "metric-labels-string",
    ],
)
def test_invalid_config_fails_before_load(tmp_path, capsys, extra, config, named):
    # The corpus does not exist: a config checked only after load would
    # report the load failure instead.
    args = ["run", "--corpus", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "out")] + extra
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert named in err
    assert "[load]" not in err
