"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import io
import json
import re
from pathlib import Path

import pytest

import repro
from repro.cli import _service_config, build_parser, main
from repro.serve import ServiceConfig

SURFACE_PATH = Path(__file__).parent / "data" / "cli_surface.json"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return dict(commands.choices)


def parser_surface() -> dict:
    """Each subcommand's options as JSON data: what the golden pins."""
    surface = {
        name: [
            {
                "options": action.option_strings or [action.dest],
                "default": action.default,
                "choices": (
                    None if action.choices is None else list(action.choices)
                ),
                "nargs": action.nargs,
                "required": action.required,
            }
            for action in parser._actions
        ]
        for name, parser in subcommand_parsers().items()
    }
    return json.loads(json.dumps(surface))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_site_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["segment", "nonexistent"])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["segment", "ohio", "--method", "x"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 2
        assert args.max_queue == 8
        assert args.method == "prob"
        assert args.wrapper_cache_dir is None
        assert args.deadline == 60.0
        assert args.drift_threshold == 0.5

    def test_serve_flags_parsed(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--workers", "4",
                "--max-queue", "16", "--wrapper-cache-dir", "/tmp/w",
                "--drift-threshold", "0.8",
            ]
        )
        assert args.port == 0
        assert args.workers == 4
        assert args.max_queue == 16
        assert args.wrapper_cache_dir == "/tmp/w"
        assert args.drift_threshold == 0.8

    def test_serve_rejects_zero_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "0"])

    def test_serve_rejects_out_of_range_drift_threshold(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--drift-threshold", "1.5"])

    def test_serve_defaults_build_the_default_service_config(self):
        args = build_parser().parse_args(["serve"])
        assert _service_config(args) == ServiceConfig()


class TestParserSurface:
    """Every subcommand's options, pinned as data (not ``--help`` text)."""

    def test_options_match_golden(self):
        golden = json.loads(SURFACE_PATH.read_text())
        assert parser_surface() == golden["commands"]

    def test_no_option_is_hidden(self):
        hidden = [
            (name, action.option_strings)
            for name, parser in subcommand_parsers().items()
            for action in parser._actions
            if action.help == argparse.SUPPRESS
        ]
        assert hidden == []


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        # tomllib is 3.11+; the package supports 3.10, so read the
        # [project] table's version line directly.
        pyproject = (
            Path(__file__).resolve().parent.parent / "pyproject.toml"
        ).read_text(encoding="utf-8")
        table = re.search(
            r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S
        )
        version = re.search(r'^version = "([^"]+)"$', table.group(1), re.M)
        assert repro.__version__ == version.group(1)


class TestSites:
    def test_lists_all_twelve(self):
        code, output = run_cli("sites")
        assert code == 0
        for name in ("amazon", "superpages", "ohio", "lee"):
            assert name in output
        assert output.count("\n") == 13  # header + 12 rows


class TestSegment:
    def test_clean_site_exit_zero(self):
        code, output = run_cli("segment", "lee", "--method", "csp")
        assert code == 0
        assert "Cor=16" in output
        assert "r0:" in output

    def test_page_filter(self):
        code, output = run_cli(
            "segment", "lee", "--method", "csp", "--page", "1"
        )
        assert "lee-list1.html" in output
        assert "lee-list0.html" not in output

    def test_imperfect_site_exit_nonzero(self):
        code, output = run_cli("segment", "michigan", "--method", "csp")
        assert code == 1  # page 2 has InC records

    def test_chaos_flags_print_crawl_health(self):
        code, output = run_cli(
            "segment", "lee", "--method", "csp",
            "--fault-rate", "0.3", "--fault-seed", "42",
        )
        assert output.startswith("crawl: requests=")
        assert "retries=" in output and "gaps=" in output
        assert "lee-list0.html" in output

    def test_chaos_run_is_reproducible(self):
        args = (
            "segment", "lee", "--method", "csp",
            "--fault-rate", "0.3", "--fault-seed", "7",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first[1].splitlines()[0] == second[1].splitlines()[0]


class TestSegmentJson:
    def test_json_summary_shape(self):
        code, output = run_cli("segment", "lee", "--method", "csp", "--json")
        summary = json.loads(output)  # whole output is one JSON document
        assert code == 0
        assert summary["site"] == "lee"
        assert summary["method"] == "csp"
        assert summary["exit_code"] == 0
        assert summary["record_count"] > 0
        assert summary["template_ok"] is True
        for page in summary["pages"]:
            assert set(page) >= {"url", "records", "record_count"}
            for record in page["records"]:
                assert set(record) == {"texts", "columns"}

    def test_json_exit_code_matches_text_mode(self):
        text_code, _ = run_cli("segment", "michigan", "--method", "csp")
        json_code, output = run_cli(
            "segment", "michigan", "--method", "csp", "--json"
        )
        summary = json.loads(output)
        assert json_code == text_code == 1
        assert summary["exit_code"] == 1

    def test_json_records_match_service_shape(self):
        # The CLI and POST /v1/segment share one serializer; the record
        # dicts must be interchangeable.
        _, output = run_cli("segment", "lee", "--method", "prob", "--json")
        summary = json.loads(output)
        texts = [
            record["texts"]
            for page in summary["pages"]
            for record in page["records"]
        ]
        assert texts and all(
            isinstance(text, str) for row in texts for text in row
        )

    def test_segment_dir_json(self, tmp_path):
        from repro.sitegen.corpus import build_site
        from repro.webdoc.store import save_sample

        site = build_site("lee")
        save_sample(
            tmp_path / "lee",
            "lee",
            site.list_pages,
            [site.detail_pages(i) for i in range(len(site.list_pages))],
        )
        code, output = run_cli(
            "segment-dir", str(tmp_path), "--method", "csp", "--json"
        )
        summary = json.loads(output)
        assert code == 0
        assert summary["exit_code"] == 0
        assert summary["method"] == "csp"
        assert summary["by_status"] == {"ok": 1}
        (entry,) = summary["sites"]
        assert entry["task_id"] == "lee"
        assert entry["status"] == "ok"
        assert entry["record_count"] > 0


class TestShow:
    def test_list_page_html(self):
        code, output = run_cli("show", "superpages")
        assert code == 0
        assert output.startswith("<html>")
        assert "SuperPages" in output

    def test_detail_page_html(self):
        code, output = run_cli("show", "ohio", "--detail", "0")
        assert code == 0
        assert "Full Record" in output


class TestStoreFlow:
    """segment-dir --store then repro query, end to end on disk."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("storeflow")
        corpus = root / "corpus"
        db = root / "tables.db"
        code, _ = run_cli(
            "export-corpus", str(corpus), "--sites", "ohio", "superpages"
        )
        assert code == 0
        code, text = run_cli(
            "segment-dir", str(corpus), "--store", str(db)
        )
        assert code == 0
        return db, text

    def test_segment_dir_reports_store_summary(self, stored):
        _, text = stored
        assert "store " in text and " sites, " in text and " rows" in text

    def test_query_ranks_and_prints_rows(self, stored):
        db, _ = stored
        code, text = run_cli("query", str(db), "name")
        assert code == 0
        assert "== ohio [prob]" in text
        assert "name→L0" in text
        assert "-- rows" in text

    def test_query_json_matches_wire_shape(self, stored):
        db, _ = stored
        code, text = run_cli("query", str(db), "name", "--json")
        assert code == 0
        payload = json.loads(text)
        assert set(payload) >= {"keywords", "tables", "rows", "row_count"}
        assert payload["tables"][0]["site"] in ("ohio", "superpages")
        assert payload["rows"][0]["record"] == 0

    def test_query_no_match_exits_one(self, stored):
        db, _ = stored
        code, text = run_cli("query", str(db), "zzz-no-such-column")
        assert code == 1
        assert "no tables match" in text

    def test_query_missing_db_exits_two(self, tmp_path):
        code, text = run_cli("query", str(tmp_path / "absent.db"), "name")
        assert code == 2
        assert "no store database" in text

    def test_reingest_is_noop(self, stored, tmp_path):
        db, _ = stored
        corpus = db.parent / "corpus"
        code, text = run_cli(
            "segment-dir", str(corpus), "--store", str(db), "--json"
        )
        assert code == 0
        summary = json.loads(text)
        assert summary["store"]["sites"] == 0
        assert summary["store"]["unchanged"] == 2

    def test_store_json_pages_are_structured(self, stored, tmp_path):
        db, _ = stored
        corpus = db.parent / "corpus"
        code, text = run_cli(
            "segment-dir", str(corpus), "--store", str(db), "--json"
        )
        assert code == 0
        summary = json.loads(text)
        page = summary["sites"][0]["pages"][0]
        # With --store the JSON records take the service's structured
        # {"texts", "columns"} shape instead of display strings.
        assert set(page["records"][0]) == {"texts", "columns"}


if __name__ == "__main__":
    # Re-record the parser surface golden (keeps the note).
    golden = json.loads(SURFACE_PATH.read_text())
    golden["commands"] = parser_surface()
    SURFACE_PATH.write_text(json.dumps(golden, indent=1) + "\n")
