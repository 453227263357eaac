"""CLI subcommands, exit codes, report completeness and output determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bibagree
from bibagree.cli import main
from bibagree.corpus import assign_reviewer_roles, load_corpus
from bibagree.pipeline import PipelineConfig
from bibagree.table import SERIES_LABELS
from record_pipeline import record_pipeline_stats

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


@pytest.mark.parametrize("min_pubs", [1, 3])
def test_scatter_table_holds_the_reference_unit_means(corpus_file, tmp_path, min_pubs):
    # One row per institution x area unit kept by min_pubs, in (area,
    # institution) order, each mean written with repr: the record-by-record
    # aggregates, with the units below min_pubs left out.
    out = tmp_path / "out"
    args = ["run", "--corpus", str(corpus_file), "--out", str(out), "--seed", "3", "--no-bootstrap"]
    assert main(args + ["--min-pubs", str(min_pubs)]) == 0
    config = PipelineConfig(seed=3, min_pubs=min_pubs)
    stats = record_pipeline_stats(assign_reviewer_roles(load_corpus(corpus_file), config.seed), config)
    assert bool(stats.excluded_below_min_pubs) == (min_pubs > 1)
    header, *rows = read_rows(out / "scatter_institution.csv")
    assert header == ["institution_id", "area_id", "pub_count"] + [f"mean_{lab}" for lab in SERIES_LABELS]
    assert rows == [
        [a.institution_id, a.area_id, str(a.pub_count)] + [repr(a.mean_score[lab]) for lab in SERIES_LABELS]
        for a in sorted(stats.aggregates, key=lambda a: (a.area_id, a.institution_id))
    ]


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


@pytest.mark.parametrize(
    "rows, reason",
    [("U000,-5\n", "negative population count -5"), ("U000,3\n", "duplicate institution 'U000'")],
    ids=["negative", "duplicate"],
)
def test_bad_population_sidecar_is_validation_failure(corpus_file, tmp_path, capsys, rows, reason):
    # Row 2 is a valid count for U000; row 3 is the bad one.
    pop = tmp_path / "pop.csv"
    pop.write_text("institution_id,count\nU000,40\n" + rows)
    code = main(["run", "--corpus", str(corpus_file), "--out", str(tmp_path / "o"),
                 "--no-bootstrap", "--population", str(pop)])
    assert code == 1
    assert f"{pop} row 3: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("count", [0, 9], ids=["zero", "below-sample"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_population_below_sample_is_validation_failure(corpus_file, tmp_path, capsys, command, count):
    # U000 has 10 records in the seed-7 corpus; its population cannot be smaller.
    pop = tmp_path / "pop.csv"
    pop.write_text(f"institution_id,count\nU000,{count}\nU001,10\n")
    args = [command, "--corpus", str(corpus_file), "--population", str(pop)]
    if command == "run":
        args += ["--out", str(tmp_path / "o"), "--no-bootstrap"]
    assert main(args) == 1
    assert f"{pop}: institution 'U000' has population count {count} below its 10 records" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validate_reads_population_sidecar(corpus_file, capsys):
    pop = corpus_file.with_suffix(".population.csv")
    assert main(["validate", "--corpus", str(corpus_file), "--population", str(pop)]) == 0
    assert "population counts for 20 institutions" in capsys.readouterr().out


GOOD_ROW = "p001,U1,A,2012,5,J1,PHY:1.0,,4,7,5,3,6,6,,\n"
GOOD_OBJECT = {
    "pub_id": "p001", "institution_id": "U1", "area_id": "A", "year": 2012, "citations": 5,
    "journal_id": "J1", "category_weights": {"PHY": 1.0},
    "review_a": {"originality": 4, "rigour": 7, "impact": 5},
    "review_b": {"originality": 3, "rigour": 6, "impact": 6},
}


@pytest.mark.parametrize(
    "name, text, named",
    [
        ("c.csv", GOOD_ROW.replace(",,\n", ",,,\n"), "c.csv row 2: more fields than the header"),
        ("c.csv", "p001,U1,A,2012,5,J1,PHY:1.0,,4,7,5\n", "c.csv row 2: fewer fields than the header"),
        ("c.csv", GOOD_ROW.replace("p001,", ","), "c.csv row 2: pub_id must be a non-empty string, got ''"),
        ("c.csv", GOOD_ROW.replace(",U1,", ", ,"), "c.csv row 2: institution_id must be a non-empty string"),
        ("c.csv", GOOD_ROW.replace(",A,", ",,"), "c.csv row 2: area_id must be a non-empty string"),
        ("c.csv", GOOD_ROW.replace(",J1,", ",,"), "c.csv row 2: journal_id must be a non-empty string"),
        ("c.jsonl", {"institution_id": None}, "c.jsonl line 1: institution_id must be a non-empty string, got None"),
        ("c.jsonl", {"journal_id": 7}, "c.jsonl line 1: journal_id must be a non-empty string, got 7"),
        ("c.jsonl", {"pub_id": ""}, "c.jsonl line 1: pub_id must be a non-empty string, got ''"),
    ],
    ids=[
        "extra-field", "truncated-row", "empty-pub-id", "blank-institution-id", "empty-area-id",
        "empty-journal-id", "jsonl-null-id", "jsonl-integer-id", "jsonl-empty-id",
    ],
)
def test_malformed_row_or_id_is_validation_failure(tmp_path, capsys, name, text, named):
    path = tmp_path / name
    if isinstance(text, dict):
        path.write_text(json.dumps({**GOOD_OBJECT, **text}) + "\n")
    else:
        path.write_text(CORPUS_HEADER + text)
    out = tmp_path / "out"
    assert main(["run", "--corpus", str(path), "--out", str(out), "--no-bootstrap"]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"category_weights": [1]}, "'list' object has no attribute 'items'"),
        ({"category_weights": None}, "'NoneType' object has no attribute 'items'"),
        ({"ref_category_weights": "x"}, "'str' object has no attribute 'items'"),
        ({"category_weights": {"PHY": 10**400}}, "int too large to convert to float"),
        ({"ext_citation_percentile": 10**400}, "int too large to convert to float"),
    ],
    ids=["weights-list", "weights-null", "refs-string", "weight-too-large", "percentile-too-large"],
)
def test_malformed_jsonl_value_names_its_line(tmp_path, capsys, fields, named):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(GOOD_OBJECT) + "\n" + json.dumps({**GOOD_OBJECT, "pub_id": "p002", **fields}) + "\n")
    assert main(["validate", "--corpus", str(path)]) == 1
    assert f"c.jsonl line 2: {named}" in capsys.readouterr().err


def test_run_without_both_reviews_is_validation_failure(tmp_path, capsys):
    # Without role assignment nothing else checks that both reviews are present.
    rows = [GOOD_ROW.replace("p001,U1", f"p00{i},U{i % 3}") for i in range(2, 8)]
    rows.insert(2, GOOD_ROW.replace("3,6,6,,", ",,,,"))
    corpus = tmp_path / "c.csv"
    corpus.write_text(CORPUS_HEADER + "".join(rows))
    config = tmp_path / "config.json"
    config.write_text('{"assign_roles": false}')
    out = tmp_path / "out"
    assert main(["run", "--corpus", str(corpus), "--config", str(config), "--out", str(out), "--no-bootstrap"]) == 1
    assert "record 'p001': missing reviewer score" in capsys.readouterr().err
    assert not out.exists()


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
        ([], {"metric_labels": ["ncs", "njs", "ncs"]}, "metric_labels: 'ncs' listed twice"),
        ([], {"bootstrap": 1}, "bootstrap"),
        (["--config", "nosuch.json"], None, "nosuch.json: cannot read config"),
    ],
    ids=[
        "unknown-key", "replicates", "workers", "min-pubs", "baseline-label", "metric-label",
        "bootstrap-string", "replicates-float", "seed-string", "seed-bool", "workers-float", "metric-labels-string",
        "metric-labels-duplicate", "bootstrap-int", "missing-config",
    ],
)
def test_invalid_config_fails_before_load(tmp_path, monkeypatch, capsys, extra, config, named):
    # The corpus does not exist: a config checked only after load would
    # report the load failure instead.
    monkeypatch.chdir(tmp_path)
    args = ["run", "--corpus", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "out")] + extra
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert named in err
    assert "[load]" not in err


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"seeed": 1}', "seeed"),
        ('{"pubs_per_institution": {"kind": "constant", "vaule": 3}}', "vaule"),
        ('{"pubs_per_institution": 5}', "pubs_per_institution"),
        ('{"seed": 1', "invalid JSON"),
        ("[1]", "expected a JSON object"),
        ('{"n_institutions": "5"}', "n_institutions"),
        ('{"seed": 1.5}', "seed"),
        ('{"seed": true}', "seed"),
        ('{"reviewer_noise_sd": "1"}', "reviewer_noise_sd"),
        ('{"pubs_per_institution": {"kind": "constant", "value": "3"}}', "pubs_per_institution: value"),
        (None, "synth.json: cannot read config"),
        (b'\xff{"seed": 1}', "synth.json: invalid JSON"),
        ('{"multidisciplinary_share": 1.5}', "multidisciplinary_share"),
        ('{"multidisciplinary_share": -0.1}', "multidisciplinary_share"),
        ('{"population_fraction": 1.5}', "population_fraction"),
        ('{"population_fraction": -0.1}', "population_fraction"),
        ('{"population_fraction": NaN}', "population_fraction"),
        ('{"n_institutions": 0}', "n_institutions must be >= 1"),
        ('{"reviewer_noise_sd": Infinity}', "reviewer_noise_sd must be nonnegative and finite"),
        ('{"citation_dispersion": Infinity}', "citation_dispersion must be positive and finite"),
        ('{"pubs_per_institution": {"kind": "skewed", "min": 0}}', "pubs_per_institution: min and max"),
        ('{"pubs_per_institution": {"kind": "skewed", "min": 5, "max": 2}}', "got min=5, max=2"),
        ('{"pubs_per_institution": {"kind": "constant", "value": 0}}', "pubs_per_institution: value must be >= 1"),
        ('{"pubs_per_institution": {"kind": "uniform"}}', "pubs_per_institution: kind"),
        ('{"latent_quality_sd": 1.0}', "unknown config key(s) 'latent_quality_sd'"),
        ('{"year_min": 2011}', "unknown config key(s) 'year_min'"),
        ('{"year_max": 2014}', "unknown config key(s) 'year_max'"),
        ('{"census_year": 2015}', "unknown config key(s) 'census_year'"),
        ('{"multidisciplinary_label": "MULTI"}', "unknown config key(s) 'multidisciplinary_label'"),
        ('{"area_share_skew": -1}', "area_share_skew must be nonnegative and finite, got -1"),
        ('{"area_share_skew": NaN}', "area_share_skew must be nonnegative and finite, got nan"),
        ('{"area_share_skew": Infinity}', "area_share_skew must be nonnegative and finite, got inf"),
        ('{"area_share_skew": 1e308}', "area_share_skew 1e+308 overflows"),
        ('{"n_areas": 1000, "area_share_skew": 102.7}', "area_share_skew 102.7 overflows"),
    ],
    ids=[
        "unknown-key", "unknown-pubs-key", "pubs-not-object", "invalid-json", "not-object",
        "institutions-string", "seed-float", "seed-bool", "float-string", "pubs-value-string",
        "missing-config", "not-utf8", "multidisciplinary-above-1", "multidisciplinary-negative",
        "population-above-1", "population-negative", "population-nan", "institutions-zero",
        "noise-infinite", "dispersion-infinite",
        "skewed-min-zero", "skewed-min-above-max", "constant-zero", "unknown-kind",
        "removed-latent-quality-sd", "removed-year-min", "removed-year-max", "removed-census-year",
        "removed-multidisciplinary-label", "skew-negative", "skew-nan", "skew-infinite", "skew-overflows",
        "skew-sum-overflows",
    ],
)
def test_generate_invalid_config_is_validation_failure(tmp_path, capsys, text, named):
    path = tmp_path / "synth.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    out = tmp_path / "corpus.csv"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fraction", ["1.5", "0", "-0.1", "nan"])
def test_sample_bad_fraction_fails_before_load(tmp_path, capsys, fraction):
    # The corpus does not exist: a fraction checked only after load would
    # report the load failure instead.
    args = ["sample", "--corpus", str(tmp_path / "missing.csv"), "--fraction", fraction,
            "--out", str(tmp_path / "sub.csv")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"fraction {float(fraction)}" in err
    assert "not found" not in err


def test_run_does_not_import_scipy(tmp_path):
    # numpy is the only runtime dependency; a fresh process shows what a CLI call imports.
    code = f"""
import sys
import bibagree, bibagree.cli, bibagree.synth
from bibagree import PipelineConfig, SynthConfig, generate, pipeline, save_corpus
save_corpus(generate(SynthConfig(n_institutions=8, seed=3)), {str(tmp_path / "c.csv")!r})
pipeline.run({str(tmp_path / "c.csv")!r}, {str(tmp_path / "out")!r}, PipelineConfig(n_replicates=3))
assert "scipy" not in sys.modules
"""
    src = str(Path(bibagree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
    assert (tmp_path / "out" / "report.json").exists()
