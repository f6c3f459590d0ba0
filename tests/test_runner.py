"""Tests for the batch-execution engine (runner/)."""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
import repro.relational.detail_fields
from repro.cli import main
from repro.core.pipeline import PIPELINE_GRAPH
from repro.core.stages import StageContext
from repro.ingest import ingest_pages, write_bundles
from repro.obs import Observability
from repro.runner import (
    BatchRunner,
    RunManifest,
    RunnerConfig,
    SiteTask,
    StageCache,
    TaskRecord,
    execute_task,
    tasks_for_sites,
    tasks_from_directory,
)
from repro.sitegen.corpus import build_site
from repro.sitegen.mixed import MixedCorpusSpec, build_mixed_corpus
from repro.webdoc.store import load_sample, save_sample

SITES = ("lee", "butler", "ohio")


def export_corpus(root, names=SITES):
    for name in names:
        site = build_site(name)
        save_sample(
            root / name,
            name,
            site.list_pages,
            [site.detail_pages(i) for i in range(len(site.list_pages))],
        )
    return root


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTasks:
    def test_single_sample_dir_is_one_task(self, tmp_path):
        export_corpus(tmp_path, names=("lee",))
        (task,) = tasks_from_directory(tmp_path / "lee")
        assert task.kind == "sample_dir" and task.task_id == "lee"
        assert task.cost_hint > 0

    def test_corpus_dir_is_one_task_per_subdir(self, tmp_path):
        export_corpus(tmp_path)
        tasks = tasks_from_directory(tmp_path)
        assert sorted(t.task_id for t in tasks) == sorted(SITES)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tasks_from_directory(tmp_path)

    def test_fingerprint_tracks_definition(self, tmp_path):
        export_corpus(tmp_path, names=("lee",))
        (prob,) = tasks_from_directory(tmp_path / "lee", method="prob")
        (csp,) = tasks_from_directory(tmp_path / "lee", method="csp")
        assert prob.fingerprint() != csp.fingerprint()


class TestExecuteTask:
    def test_sample_dir_task(self, tmp_path):
        export_corpus(tmp_path, names=("lee",))
        (task,) = tasks_from_directory(tmp_path / "lee", method="csp")
        result = execute_task(task)
        assert result.status == "ok"
        assert len(result.pages) == 2  # lee has two list pages
        assert result.record_count > 0
        assert result.metrics["counters"]["pipeline.sites"] == 1

    def test_failure_is_a_result_not_an_exception(self, tmp_path):
        task = SiteTask(
            task_id="gone", kind="sample_dir", spec=str(tmp_path / "gone")
        )
        result = execute_task(task)
        assert result.status == "failed"
        assert "SampleError" in (result.error or "")

    def test_unknown_kind_fails_cleanly(self):
        result = execute_task(SiteTask(task_id="x", kind="nope", spec=""))
        assert result.status == "failed"

    def test_degenerate_sample_is_quarantined(self, tmp_path):
        directory = tmp_path / "broken"
        directory.mkdir()
        for name in ("l0.html", "l1.html"):
            (directory / name).write_text("<html><body></body></html>")
        (directory / "sample.json").write_text(
            json.dumps(
                {
                    "name": "broken",
                    "pages": [
                        {"list": "l0.html", "details": []},
                        {"list": "l1.html", "details": []},
                    ],
                }
            )
        )
        (task,) = tasks_from_directory(directory)
        result = execute_task(task)
        assert result.status == "quarantined"

    def test_trace_collection(self, tmp_path):
        export_corpus(tmp_path, names=("lee",))
        (task,) = tasks_from_directory(tmp_path / "lee")
        result = execute_task(task, collect_trace=True)
        assert result.trace and result.trace[0]["name"] == "runner.task"


class TestManifest:
    def test_roundtrip_and_latest_wins(self, tmp_path):
        manifest = RunManifest(tmp_path / "run.jsonl")
        manifest.write_header(run={"workers": 2}, tasks=2, resumed=False)
        manifest.append_task(
            TaskRecord(task_id="a", fingerprint="f1", status="failed")
        )
        manifest.append_task(
            TaskRecord(task_id="a", fingerprint="f1", status="ok")
        )
        manifest.append_task(
            TaskRecord(task_id="b", fingerprint="f2", status="ok")
        )
        assert manifest.completed() == {"a", "b"}
        assert manifest.completed({"a": "f1"}) == {"a"}  # b unknown now
        # A changed task definition under the same id is not skipped.
        assert manifest.completed({"a": "different"}) == set()

    def test_failed_tasks_are_retried(self, tmp_path):
        manifest = RunManifest(tmp_path / "run.jsonl")
        manifest.append_task(
            TaskRecord(task_id="a", fingerprint="f", status="timeout")
        )
        assert manifest.completed() == set()

    def test_torn_trailing_line_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        manifest = RunManifest(path)
        manifest.append_task(
            TaskRecord(task_id="a", fingerprint="f", status="ok")
        )
        with path.open("a") as handle:
            handle.write('{"type": "task", "task_id": "b", "sta')  # killed
        assert manifest.completed() == {"a"}


class TestEngineSerial:
    def test_statuses_digest_and_manifest(self, tmp_path):
        corpus = export_corpus(tmp_path / "corpus")
        tasks = tasks_from_directory(corpus, method="prob")
        manifest_path = tmp_path / "run.jsonl"
        obs = Observability()
        batch = BatchRunner(
            RunnerConfig(manifest_path=str(manifest_path)), obs=obs
        ).run(tasks)
        assert batch.by_status() == {"ok": len(SITES)}
        assert not batch.interrupted
        records = RunManifest(manifest_path).latest_by_task()
        assert set(records) == set(SITES)
        assert all(r["status"] == "ok" for r in records.values())
        # The engine books runner.* metrics and merges worker metrics.
        counters = obs.metrics.as_dict()["counters"]
        assert counters["runner.tasks.ok"] == len(SITES)
        assert counters["pipeline.sites"] == len(SITES)

    def test_cost_ordering_runs_expensive_first(self, tmp_path):
        tasks = [
            SiteTask(task_id="small", kind="_sleep", spec="0", cost_hint=1),
            SiteTask(task_id="big", kind="_sleep", spec="0", cost_hint=9),
        ]
        batch = BatchRunner(RunnerConfig()).run(tasks)
        assert [r.task_id for r in batch.results] == ["big", "small"]

    def test_resume_skips_completed(self, tmp_path):
        corpus = export_corpus(tmp_path / "corpus")
        tasks = tasks_from_directory(corpus, method="prob")
        manifest_path = tmp_path / "run.jsonl"

        # First run is "killed" after one task: run a subset.
        first = BatchRunner(
            RunnerConfig(manifest_path=str(manifest_path))
        ).run(tasks[:1])
        assert len(first.results) == 1

        resumed = BatchRunner(
            RunnerConfig(manifest_path=str(manifest_path), resume=True)
        ).run(tasks)
        assert sorted(resumed.skipped) == [tasks[0].task_id]
        assert len(resumed.results) == len(tasks) - 1

        # A third run has nothing left to do.
        third = BatchRunner(
            RunnerConfig(manifest_path=str(manifest_path), resume=True)
        ).run(tasks)
        assert third.results == [] and len(third.skipped) == len(tasks)

    def test_resume_reruns_a_sample_whose_pages_changed(self, tmp_path):
        # A rebuilt bundle keeps its directory (bundles are named after
        # their head list page), so a path-only identity would resume
        # the old record.
        site_dir = tmp_path / "corpus" / "site"

        def save(name):
            site = build_site(name)
            shutil.rmtree(site_dir, ignore_errors=True)
            save_sample(
                site_dir,
                name,
                site.list_pages,
                [site.detail_pages(i) for i in range(len(site.list_pages))],
            )

        def run(resume):
            config = RunnerConfig(
                manifest_path=str(tmp_path / "run.jsonl"), resume=resume
            )
            return BatchRunner(config).run(
                tasks_from_directory(tmp_path / "corpus", method="csp")
            )

        save("lee")
        first = run(resume=False)
        assert [result.task_id for result in first.results] == ["site"]
        save("butler")
        changed = run(resume=True)
        assert changed.skipped == []
        assert [result.task_id for result in changed.results] == ["site"]
        assert changed.results[0].digest() != first.results[0].digest()
        unchanged = run(resume=True)
        assert unchanged.skipped == ["site"] and unchanged.results == []

    def test_cache_warm_run_identical(self, tmp_path):
        corpus = export_corpus(tmp_path / "corpus")
        tasks = tasks_from_directory(corpus, method="prob")
        cache_dir = str(tmp_path / "cache")
        cold = BatchRunner(RunnerConfig(cache_dir=cache_dir)).run(tasks)
        warm = BatchRunner(RunnerConfig(cache_dir=cache_dir)).run(tasks)
        assert cold.cache_misses > 0
        assert warm.cache_misses == 0 and warm.cache_hits > 0
        assert cold.digest() == warm.digest()


class TestWarmReadDiscipline:
    """A warm site reads only the cache entries its outputs need."""

    def test_warm_runs_skip_detail_tokens_and_field_parsing(
        self, tmp_path, monkeypatch
    ):
        """Warm tasks read one entry per output and nothing upstream.

        Inline, every site loads one ``template`` entry and each list
        page one ``segment`` and one ``detail_fields`` entry; no
        ``extracts``, ``observations`` or ``tokenize`` entry is read.
        """
        corpus = build_mixed_corpus(MixedCorpusSpec(sites=4, seed=5))
        write_bundles(ingest_pages(corpus.pages), tmp_path / "bundles")
        tasks = tasks_from_directory(tmp_path / "bundles")
        cache_dir = str(tmp_path / "cache")

        def run(workers):
            return BatchRunner(
                RunnerConfig(
                    workers=workers, cache_dir=cache_dir, collect_wire=True
                )
            ).run(tasks)

        def wire(batch):
            return {
                result.task_id: [page.wire for page in result.pages]
                for result in batch.results
            }

        cold = run(1)
        assert {result.status for result in cold.results} == {"ok"}
        assert any(
            entry["names"] for entries in wire(cold).values() for entry in entries
        )

        # Drop every detail page's tokenize entry: a warm run that asked
        # for one (directly, or by parsing detail fields) would miss it.
        cache = StageCache(cache_dir)
        samples = [load_sample(task.spec) for task in tasks]
        detail_keys = [
            PIPELINE_GRAPH.key("tokenize", StageContext({"page": page}))
            for sample in samples
            for group in sample.detail_pages_per_list
            for page in group
        ]
        assert all(cache.delete("tokenize", key) for key in detail_keys)
        parsed = []
        monkeypatch.setattr(
            repro.relational.detail_fields,
            "detail_field_pairs",
            lambda *args, **kwargs: parsed.append(args),
        )
        loads = Counter()
        load = StageCache.load

        def counted_load(self, stage, key):
            loads[stage] += 1
            return load(self, stage, key)

        monkeypatch.setattr(StageCache, "load", counted_load)

        for workers in (1, 2):
            warm = run(workers)
            assert warm.cache_misses == 0 and warm.cache_hits > 0, workers
            assert sorted(r.digest() for r in warm.results) == sorted(
                r.digest() for r in cold.results
            )
            assert wire(warm) == wire(cold)
            if workers == 1:  # spawned workers load the unpatched cache
                list_pages = sum(len(sample.list_pages) for sample in samples)
                assert dict(loads) == {
                    "template": len(tasks),
                    "segment": list_pages,
                    "detail_fields": list_pages,
                }
        assert parsed == []
        assert not any(cache.load("tokenize", key)[0] for key in detail_keys)


class TestEngineParallel:
    def test_parallel_matches_serial(self, tmp_path):
        corpus = export_corpus(tmp_path / "corpus", names=("lee", "butler"))
        tasks = tasks_from_directory(corpus, method="prob")
        serial = BatchRunner(RunnerConfig(workers=1)).run(tasks)
        parallel = BatchRunner(RunnerConfig(workers=2)).run(tasks)
        assert parallel.by_status() == serial.by_status() == {"ok": 2}
        assert parallel.digest() == serial.digest()

    def test_stall_watchdog_times_out_hung_tasks(self):
        tasks = [
            SiteTask(task_id=f"sleep{i}", kind="_sleep", spec="30")
            for i in range(2)
        ]
        batch = BatchRunner(
            RunnerConfig(workers=2, stall_timeout=1.0)
        ).run(tasks)
        assert batch.interrupted
        assert all(r.status == "timeout" for r in batch.results)

    def test_worker_kill_records_crashed_and_rebuilds_pool(self, tmp_path):
        # One task SIGKILLs its worker process (an OOM-kill stand-in);
        # the pool breaks, the engine records the casualties as
        # ``crashed``, rebuilds once, and finishes the rest.
        manifest = tmp_path / "run.jsonl"
        tasks = [
            SiteTask(task_id="boom", kind="_kill", spec="", cost_hint=100),
        ] + [
            SiteTask(
                task_id=f"sleep{i}", kind="_sleep", spec="0.05", cost_hint=1
            )
            for i in range(3)
        ]
        obs = Observability()
        batch = BatchRunner(
            RunnerConfig(workers=2, manifest_path=str(manifest)), obs=obs
        ).run(tasks)
        statuses = {r.task_id: r.status for r in batch.results}
        assert statuses["boom"] == "crashed"
        assert not batch.interrupted  # one rebuild is recovery, not failure
        assert obs.counter("runner.pool.crashes").value == 1
        assert obs.counter("runner.pool.rebuilds").value == 1
        # Tasks riding the broken pool are crashed (retryable), the
        # rest completed on the rebuilt pool; nothing is lost.
        assert set(statuses) == {"boom", "sleep0", "sleep1", "sleep2"}
        assert set(statuses.values()) <= {"ok", "crashed"}
        assert any(status == "ok" for status in statuses.values())

    def test_resume_retries_crashed_tasks(self, tmp_path):
        manifest = tmp_path / "run.jsonl"
        tasks = [
            SiteTask(task_id="boom", kind="_kill", spec="", cost_hint=100),
            SiteTask(
                task_id="sleep0", kind="_sleep", spec="0.05", cost_hint=1
            ),
        ]
        config = RunnerConfig(workers=2, manifest_path=str(manifest))
        first = BatchRunner(config).run(tasks)
        assert {r.task_id: r.status for r in first.results}["boom"] == "crashed"

        # Resume with the killer replaced by a task that succeeds (the
        # site was "fixed"); crashed ids re-run, completed ids skip.
        retry_tasks = [
            SiteTask(task_id="boom", kind="_sleep", spec="0.01", cost_hint=100),
            SiteTask(
                task_id="sleep0", kind="_sleep", spec="0.05", cost_hint=1
            ),
        ]
        second = BatchRunner(
            RunnerConfig(
                workers=2, manifest_path=str(manifest), resume=True
            )
        ).run(retry_tasks)
        rerun = {r.task_id for r in second.results}
        assert "boom" in rerun  # crashed is not a completed status
        assert all(r.status == "ok" for r in second.results)


class TestCliBatch:
    def test_segment_dir_corpus_summary_and_exit(self, tmp_path):
        export_corpus(tmp_path)
        code, output = run_cli(
            "segment-dir", str(tmp_path), "--method", "prob"
        )
        assert code == 0
        assert f"sites: {len(SITES)} ok, 0 quarantined, 0 failed" in output
        assert (tmp_path / "run_manifest.jsonl").is_file()

    def test_segment_dir_resume_completes_remainder(self, tmp_path):
        export_corpus(tmp_path)
        manifest = tmp_path / "run.jsonl"
        code, _ = run_cli(
            "segment-dir", str(tmp_path / "lee"),
            "--manifest", str(manifest),
        )
        assert code == 0
        code, output = run_cli(
            "segment-dir", str(tmp_path),
            "--manifest", str(manifest), "--resume",
        )
        assert code == 0
        assert "1 resumed-skipped" in output

    def test_quarantined_site_exits_nonzero(self, tmp_path):
        export_corpus(tmp_path, names=("lee",))
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("l0.html", "l1.html"):
            (broken / name).write_text("<html><body></body></html>")
        (broken / "sample.json").write_text(
            json.dumps(
                {
                    "name": "broken",
                    "pages": [
                        {"list": "l0.html", "details": []},
                        {"list": "l1.html", "details": []},
                    ],
                }
            )
        )
        code, output = run_cli("segment-dir", str(tmp_path))
        assert code == 1
        assert "1 quarantined" in output

    def test_failed_site_exits_nonzero(self, tmp_path):
        export_corpus(tmp_path, names=("lee",))
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "sample.json").write_text("{not json")
        code, output = run_cli("segment-dir", str(tmp_path))
        assert code == 1
        assert "1 failed" in output
        assert "!! bad: failed" in output

    def test_export_corpus_roundtrip(self, tmp_path):
        code, output = run_cli(
            "export-corpus", str(tmp_path), "--sites", "lee", "butler"
        )
        assert code == 0 and "2 sample directories" in output
        tasks = tasks_from_directory(tmp_path)
        assert sorted(t.task_id for t in tasks) == ["butler", "lee"]


class TestGeneratedTasks:
    def test_generated_matches_sample_dir(self, tmp_path):
        export_corpus(tmp_path, names=("lee",))
        (dir_task,) = tasks_from_directory(tmp_path / "lee", method="prob")
        (gen_task,) = tasks_for_sites(["lee"], method="prob")
        dir_result = execute_task(dir_task)
        gen_result = execute_task(gen_task)
        assert [p.records for p in dir_result.pages] == [
            p.records for p in gen_result.pages
        ]


#: Modules a csp task with ``collect_wire`` must not load: numpy and
#: the layers such a task never runs.
UNUSED_BY_CSP = (
    "numpy",
    "repro.ingest",
    "repro.prob.segmenter",
    "repro.serve.http",
    "repro.serve.supervisor",
    "repro.crawl.crawler",
    "repro.sitegen.corpus",
    "repro.reporting.experiment",
    "repro.wrapper.apply",
)

#: What a spawned pool worker does: import the worker module, then run
#: every task of a corpus cold and again warm against one cache dir.
WORKER_SCRIPT = """
import json, sys
from repro.runner.tasks import tasks_from_directory
from repro.runner.worker import execute_task
corpus, cache_dir, method = sys.argv[1:]
runs = []
for _ in ("cold", "warm"):
    results = [
        execute_task(task, cache_dir=cache_dir, collect_wire=True)
        for task in tasks_from_directory(corpus, method=method)
    ]
    runs.append({
        "statuses": sorted({result.status for result in results}),
        "misses": sum(result.cache_misses for result in results),
        "named": any(
            page.wire["names"] for result in results for page in result.pages
        ),
    })
print(json.dumps({"runs": runs, "modules": sorted(sys.modules)}))
"""


class TestWorkerImportSurface:
    """A fresh worker interpreter loads only the code its task runs."""

    def run_fresh(self, tmp_path, method):
        corpus = export_corpus(tmp_path / "corpus", names=("lee", "butler"))
        src = Path(repro.__file__).resolve().parents[1]
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                WORKER_SCRIPT,
                str(corpus),
                str(tmp_path / "cache"),
                method,
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        cold, warm = report["runs"]
        assert cold["statuses"] == warm["statuses"] == ["ok"]
        assert cold["misses"] > 0 and warm["misses"] == 0
        assert cold["named"] and warm["named"]
        return set(report["modules"])

    def test_csp_task_loads_no_numpy_and_no_unused_layer(self, tmp_path):
        loaded = self.run_fresh(tmp_path, "csp")
        assert sorted(loaded.intersection(UNUSED_BY_CSP)) == []

    def test_prob_task_imports_its_segmenter_on_use(self, tmp_path):
        loaded = self.run_fresh(tmp_path, "prob")
        assert {"numpy", "repro.prob.segmenter"} <= loaded
