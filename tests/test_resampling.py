"""Bootstrap intervals, stratified sampling and coverage diagnostics."""

import json
import multiprocessing
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bibagree
from bibagree import (
    PubCountSpec,
    SynthConfig,
    assign_reviewer_roles,
    coverage_report,
    generate,
    load_corpus,
    midrank_quantile,
    resampling,
    run_bootstrap,
    save_corpus,
    stratified_sample,
)
from bibagree.pipeline import PipelineConfig, compute_pipeline_stats, run
from bibagree.resampling import ResamplingError, replicate_counts
from oracles import oracle_midrank_quantile
from record_pipeline import resample_within_areas, statistic_values
from record_pipeline import stratified_sample as record_stratified_sample


def _src_env() -> dict[str, str]:
    """The environment with the package's source on PYTHONPATH."""
    src = str(Path(bibagree.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class FailOn:
    """A bootstrap statistic that raises, or ends its process when die is
    set, on the replicate of the given copy counts, and writes no value for
    the others. A module-level class, so that it pickles for spawned
    workers."""

    def __init__(self, counts, die):
        self.counts, self.die = counts, die

    def __call__(self, table, counts, columns, row):
        if np.array_equal(counts, self.counts):
            if self.die:
                os._exit(1)  # as a worker the system kills ends, without a word
            raise ValueError("replicate fails")


@pytest.fixture(scope="module")
def boot_corpus():
    corpus = generate(SynthConfig(n_institutions=15, seed=20))
    return assign_reviewer_roles(corpus, 20)


class TestQuantile:
    def test_matches_interpolation_oracle(self):
        rng = random.Random(3)
        for n in (1, 2, 5, 40, 1000):
            values = [rng.uniform(-10, 10) for _ in range(n)]
            for q in (0.025, 0.5, 0.975, 0.0, 1.0):
                assert midrank_quantile(values, q) == pytest.approx(
                    oracle_midrank_quantile(values, q), abs=1e-12
                )

    def test_empty_rejected(self):
        with pytest.raises(ResamplingError):
            midrank_quantile([], 0.5)


class TestBootstrap:
    def test_single_replicate_collapses_interval(self, boot_corpus):
        cfg = PipelineConfig(n_replicates=1, seed=5)
        for b in run_bootstrap(boot_corpus, cfg):
            assert b.lower == b.upper

    def test_deterministic_across_runs(self, boot_corpus):
        cfg = PipelineConfig(n_replicates=40, seed=7)
        assert run_bootstrap(boot_corpus, cfg) == run_bootstrap(boot_corpus, cfg)
        other = run_bootstrap(boot_corpus, PipelineConfig(n_replicates=40, seed=8))
        assert other != run_bootstrap(boot_corpus, cfg)

    def test_worker_count_does_not_change_results(self, boot_corpus):
        base = run_bootstrap(boot_corpus, PipelineConfig(n_replicates=24, seed=3, n_workers=1))
        multi = run_bootstrap(boot_corpus, PipelineConfig(n_replicates=24, seed=3, n_workers=4))
        assert base == multi

    @staticmethod
    def recording_processes(monkeypatch) -> list:
        """Patches Process.start so that each process started is appended to
        the returned list. The class stays as it is, so that spawned and
        forkserver workers can still pickle their Process object."""
        started = []
        start = multiprocessing.process.BaseProcess.start

        def recording(self):
            started.append(self)
            start(self)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording)
        return started

    def test_pool_never_starts_more_workers_than_replicates(self, boot_corpus, monkeypatch):
        started = self.recording_processes(monkeypatch)
        monkeypatch.setattr(resampling, "_usable_cpus", lambda: 4)
        # The calling process evaluates a share itself.
        for n_replicates, n_started in ((2, 1), (1, 0)):
            serial = run_bootstrap(boot_corpus, PipelineConfig(n_replicates=n_replicates, seed=3))
            started.clear()
            assert run_bootstrap(boot_corpus, PipelineConfig(n_replicates=n_replicates, seed=3, n_workers=4)) == serial
            assert len(started) == n_started

    def test_pool_never_starts_more_workers_than_usable_cpus(self, boot_corpus, tmp_path, monkeypatch):
        started = self.recording_processes(monkeypatch)
        serial = run_bootstrap(boot_corpus, PipelineConfig(n_replicates=12, seed=3))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert run_bootstrap(boot_corpus, PipelineConfig(n_replicates=12, seed=3, n_workers=500)) == serial
        assert len(started) == 3 - 1  # the calling process is the third
        # Without sched_getaffinity (macOS, Windows), the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        corpus_path = tmp_path / "corpus.csv"
        save_corpus(boot_corpus, corpus_path)
        started.clear()
        report = run(corpus_path, tmp_path / "out", PipelineConfig(n_replicates=12, seed=3, n_workers=500))
        assert len(started) == 5 - 1
        assert report.config_echo["n_workers"] == 500
        assert json.loads((tmp_path / "out" / "report.json").read_text())["config"]["n_workers"] == 500

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers inherit modules only when forked")
    def test_pool_workers_inherit_numpy_random(self, boot_corpus, tmp_path):
        # numpy 2 imports numpy.random on first use. The calling process
        # draws its own share only after the workers start, so unless it
        # loads numpy.random before they fork, each worker imports it on its
        # first replicate.
        corpus_path, seen = tmp_path / "corpus.csv", tmp_path / "seen"
        save_corpus(boot_corpus, corpus_path)
        code = f"""
import sys
from bibagree import PipelineConfig, load_corpus, resampling, run_bootstrap
corpus = load_corpus({str(corpus_path)!r})
if "numpy.random" in sys.modules:
    sys.exit(3)  # imported with numpy itself
worker = resampling._worker
def recording(*args):
    with open({str(seen)!r}, "a") as fh:
        fh.write(str("numpy.random" in sys.modules) + "\\n")
    worker(*args)
resampling._worker = recording
resampling._usable_cpus = lambda: 3
run_bootstrap(corpus, PipelineConfig(n_replicates=4, n_workers=3, assign_roles=False))
"""
        status = subprocess.run([sys.executable, "-c", code], env=_src_env(), timeout=120).returncode
        if status == 3:
            pytest.skip("this numpy imports numpy.random with numpy")
        assert status == 0
        assert seen.read_text().split() == ["True", "True"]

    def test_spawned_workers_receive_the_table_by_pickle(self, boot_corpus, tmp_path):
        # Spawn is how macOS and Windows start workers, and forkserver, the
        # default on Linux from Python 3.14, pickles the same way.
        corpus_path = tmp_path / "corpus.csv"
        save_corpus(boot_corpus, corpus_path)
        code = f"""
import multiprocessing, sys
from bibagree import PipelineConfig, load_corpus, resampling, run_bootstrap
multiprocessing.set_start_method("spawn")
resampling._usable_cpus = lambda: 2
corpus = load_corpus({str(corpus_path)!r})
serial = run_bootstrap(corpus, PipelineConfig(n_replicates=12, seed=3))
pooled = run_bootstrap(corpus, PipelineConfig(n_replicates=12, seed=3, n_workers=2))
sys.exit(0 if pooled == serial and serial else 1)
"""
        assert subprocess.run([sys.executable, "-c", code], env=_src_env(), timeout=120).returncode == 0

    @pytest.mark.parametrize(
        "failing, die, error, message",
        [
            (0, False, ValueError, "replicate fails"),
            (1, False, ValueError, "replicate fails"),
            (1, True, ResamplingError, "bootstrap worker 1 ended without a result"),
        ],
        ids=["calling-share", "worker-share", "worker-dies"],
    )
    def test_a_failing_replicate_raises_and_leaves_no_process(
        self, boot_corpus, monkeypatch, failing, die, error, message
    ):
        # On 2 processes the calling one evaluates the even replicates and
        # the worker the odd ones.
        monkeypatch.setattr(resampling, "_usable_cpus", lambda: 2)
        config = PipelineConfig(n_replicates=6, seed=3, n_workers=2)
        stats = compute_pipeline_stats(boot_corpus, config)
        points = {s.key(): s.value for s in stats.statistics}
        fail = FailOn(replicate_counts(stats.table.area_sizes, config.seed, failing), die)
        with pytest.raises(error, match=f"^{message}$") as raised:
            resampling.bootstrap_statistics(stats.table, fail, points, config.n_replicates, config.seed, 2)
        assert raised.type is error
        assert multiprocessing.active_children() == []

    def test_missing_counts_do_not_depend_on_worker_count(self, monkeypatch):
        # 3 institutions in each of 2 areas: a replicate that draws no
        # publication of one of them has too few units for a fit.
        corpus = assign_reviewer_roles(generate(SynthConfig(n_institutions=3, n_areas=2, seed=4)), 4)
        monkeypatch.setattr(resampling, "_usable_cpus", lambda: 3)
        by_workers = [
            run_bootstrap(corpus, PipelineConfig(n_replicates=30, seed=1, n_workers=w)) for w in (1, 2, 3)
        ]
        missing = [[(b.n_missing, b.warn_missing) for b in boot] for boot in by_workers]
        assert any(n for n, _ in missing[0])
        assert missing[0] == missing[1] == missing[2]
        assert by_workers[0] == by_workers[1] == by_workers[2]

    def test_lower_at_most_upper_and_counts(self, boot_corpus):
        cfg = PipelineConfig(n_replicates=60, seed=1)
        results = run_bootstrap(boot_corpus, cfg)
        assert results
        for b in results:
            assert b.lower <= b.upper
            assert b.n_replicates == 60
            assert b.seed == 1

    def test_stratum_preservation(self, boot_corpus):
        counts = {}
        for rec in boot_corpus.records:
            counts[rec.area_id] = counts.get(rec.area_id, 0) + 1
        for k in range(5):
            rng = np.random.default_rng([99, k])
            resampled = resample_within_areas(boot_corpus, rng)
            got = {}
            for rec in resampled.records:
                got[rec.area_id] = got.get(rec.area_id, 0) + 1
            assert got == counts
            assert len({r.pub_id for r in resampled.records}) == len(resampled.records)

    def test_interval_covers_point_on_calibrated_corpora(self):
        # Percentile intervals from 150 replicates should contain the
        # full-sample statistic for nearly all statistics.
        inside = total = 0
        for seed in range(8):
            corpus = assign_reviewer_roles(
                generate(SynthConfig(n_institutions=12, seed=100 + seed)), seed
            )
            cfg = PipelineConfig(n_replicates=150, seed=seed)
            points = statistic_values(corpus, cfg)
            for b in run_bootstrap(corpus, cfg):
                total += 1
                if b.lower <= points[b.key()] <= b.upper:
                    inside += 1
        assert inside / total >= 0.92


class TestStratifiedSample:
    def test_fraction_one_is_identity(self, boot_corpus):
        sample, skipped = stratified_sample(boot_corpus, 1.0, seed=4)
        assert not skipped
        assert sorted(sample.records, key=lambda r: r.pub_id) == sorted(
            boot_corpus.records, key=lambda r: r.pub_id
        )

    def test_exact_rounding_per_stratum(self):
        corpus = generate(
            SynthConfig(n_institutions=20, pubs_per_institution=PubCountSpec("constant", value=100),
                        n_areas=2, seed=6)
        )
        per_area = {}
        for rec in corpus.records:
            per_area[rec.area_id] = per_area.get(rec.area_id, 0) + 1
        sample, _ = stratified_sample(corpus, 0.1, seed=2)
        got = {}
        for rec in sample.records:
            got[rec.area_id] = got.get(rec.area_id, 0) + 1
        for area, n in per_area.items():
            assert got[area] == int(0.1 * n + 0.5)

    def test_deterministic(self, boot_corpus):
        a, _ = stratified_sample(boot_corpus, 0.4, seed=11)
        b, _ = stratified_sample(boot_corpus, 0.4, seed=11)
        assert a == b

    @pytest.mark.parametrize("fraction", [0.0065, 0.02, 0.1, 0.35, 0.5, 0.99, 1.0])
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_rows_drawn_from_the_columns_are_the_record_draw(self, boot_corpus, fraction, seed):
        # boot_corpus holds columns; the shuffled copy holds records in another
        # order. At fraction 0.0065 the smaller of its two areas is skipped.
        records = random.Random(seed).sample(boot_corpus.records, len(boot_corpus))
        shuffled = replace(boot_corpus, records=tuple(records))
        expected = record_stratified_sample(boot_corpus, fraction, seed)
        assert expected[0].records
        assert stratified_sample(boot_corpus, fraction, seed) == expected
        assert stratified_sample(shuffled, fraction, seed) == expected

    @pytest.mark.parametrize("fraction", [0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_a_shuffled_file_is_sampled_in_pub_id_order_within_each_area(self, tmp_path, fraction, seed):
        # Unpadded ids (P1, P10, P2, ...), so that pub_id order is not
        # numeric order, nor file order once the rows are shuffled.
        corpus = generate(SynthConfig(n_institutions=15, seed=21))
        records = [replace(r, pub_id=f"P{i}") for i, r in enumerate(corpus.records, 1)]
        random.Random(seed).shuffle(records)
        path = tmp_path / "corpus.csv"
        save_corpus(replace(corpus, records=tuple(records)), path)
        # Each area in sorted order draws round(fraction * n) of its pub_ids
        # in sorted order, and keeps them in that order.
        by_area: dict[str, list[str]] = {}
        for pub_id, area in sorted((r.pub_id, r.area_id) for r in records):
            by_area.setdefault(area, []).append(pub_id)
        expected = []
        for area, pool in sorted(by_area.items()):
            k = int(fraction * len(pool) + 0.5)
            drawn = resampling._area_stream(seed, area).choice(len(pool), size=k, replace=False)
            expected += [pool[i] for i in sorted(drawn.tolist())]
        sample, skipped = stratified_sample(load_corpus(path), fraction, seed)
        assert not skipped
        assert [r.pub_id for r in sample.records] == expected

    def test_bad_fraction_rejected(self, boot_corpus):
        with pytest.raises(ResamplingError):
            stratified_sample(boot_corpus, 0.0, seed=1)

    def test_negative_seed_rejected(self, boot_corpus):
        with pytest.raises(ResamplingError, match="seed must be >= 0, got -1"):
            stratified_sample(boot_corpus, 0.5, seed=-1)


class TestCoverage:
    def test_ratio_computed_exactly(self, boot_corpus):
        counts = {}
        for rec in boot_corpus.records:
            counts[rec.institution_id] = counts.get(rec.institution_id, 0) + 1
        population = {inst: 100 for inst in counts}
        report = coverage_report(boot_corpus, population)
        for diag in report:
            assert diag.coverage_ratio == pytest.approx(counts[diag.institution_id] / 100)

    def test_missing_population_marked_unavailable(self, boot_corpus):
        report = coverage_report(boot_corpus, {})
        assert report
        for diag in report:
            assert diag.population_count is None
            assert diag.coverage_ratio is None

    def test_only_sampled_institutions_emitted(self, boot_corpus):
        report = coverage_report(boot_corpus, {"GHOST": 50})
        assert "GHOST" not in {d.institution_id for d in report}
