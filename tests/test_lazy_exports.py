"""The lazy-export contract shared by every re-exporting package."""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.crawl",
    "repro.serve",
    "repro.relational",
)


@pytest.fixture(params=LAZY_PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_export_is_its_defining_modules_object(package):
    defined_in = {
        name: module
        for module, names in package._EXPORTS.items()
        for name in names
    }
    for name in package.__all__:
        if name in defined_in:
            source = importlib.import_module(defined_in[name])
            assert getattr(package, name) is getattr(source, name), name
        else:
            assert name in vars(package), name


def test_star_import_binds_every_name(package):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_unknown_name_raises_naming_the_package(package):
    with pytest.raises(AttributeError, match=re.escape(repr(package.__name__))):
        package.no_such_export


def test_dir_lists_globals_and_exports(package):
    listed = set(dir(package))
    assert listed == set(vars(package)) | set(package.__all__)
    assert {"__doc__", "__file__"} <= listed


def test_dir_lists_imported_submodules():
    import repro.core
    import repro.core.pipeline  # noqa: F401 - binds repro.core.pipeline

    assert "pipeline" in dir(repro.core)


def fresh_import(module):
    """The modules a fresh interpreter has loaded after ``import module``."""
    src = Path(repro.__file__).resolve().parents[1]
    script = f"import json, sys, {module}; print(json.dumps(list(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def test_serving_path_does_not_load_the_crawler():
    # Serving needs no crawl, ingest or simulator module at all.
    loaded = fresh_import("repro.serve.http")
    layers = ("repro.crawl", "repro.ingest", "repro.sitegen")
    assert not {name for name in loaded if name.startswith(layers)}


def test_cli_loads_no_pipeline_experiment_or_runner():
    # The parser needs only the method names and the corpus; each
    # command imports the layers it runs.
    loaded = fresh_import("repro.cli")
    heavy = {"repro.core.pipeline", "repro.reporting.experiment", "repro.runner"}
    assert not heavy & loaded


@pytest.mark.parametrize("module", ["repro.crawl.crawler", "repro.ingest"])
def test_crawl_and_ingest_import_first(module):
    # crawl.crawler -> ingest.fingerprint and ingest.fetch ->
    # crawl.resilient form a package cycle; either side must import
    # cleanly as the first import.
    assert module in fresh_import(module)
