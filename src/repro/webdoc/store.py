"""Saving page samples to disk and loading them back.

A *sample directory* is the on-disk interchange format for the
pipeline's input: the HTML files plus a ``sample.json`` manifest
mapping each list page to its detail pages in link (record) order.
It serves two purposes:

* exporting a simulated site so its pages can be inspected, archived
  or fed to other tools (:func:`save_sample`);
* running the pipeline on *real* saved pages: mirror a site's list
  and detail pages into a directory, write the manifest, and
  :func:`load_sample` hands the pipeline exactly what
  ``segment_site`` wants.

Manifest schema (``sample.json``)::

    {
      "name": "mysite",
      "pages": [
        {"list": "list0.html", "details": ["d0.html", "d1.html", ...]},
        {"list": "list1.html", "details": [...]}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro._atomic import write_atomic
from repro.core.exceptions import ReproError
from repro.webdoc.page import Page

__all__ = ["PageSample", "load_sample", "save_sample"]

MANIFEST_NAME = "sample.json"


class SampleError(ReproError):
    """A sample directory is missing files or malformed."""


@dataclass
class PageSample:
    """A loaded page sample, ready for the pipeline.

    Attributes:
        name: sample name from the manifest.
        list_pages: the list pages, manifest order.
        detail_pages_per_list: each list page's detail pages in link
            (record) order.
    """

    name: str
    list_pages: list[Page]
    detail_pages_per_list: list[list[Page]]


def save_sample(
    directory: str | Path,
    name: str,
    list_pages: list[Page],
    detail_pages_per_list: list[list[Page]],
) -> Path:
    """Write pages + manifest into ``directory``; returns the manifest path.

    Page URLs become file names (they must therefore be relative,
    slash-free names — the simulator's URLs already are).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    manifest: dict = {"name": name, "pages": []}
    for list_page, details in zip(list_pages, detail_pages_per_list):
        _write_page(directory, list_page)
        for page in details:
            _write_page(directory, page)
        manifest["pages"].append(
            {
                "list": list_page.url,
                "details": [page.url for page in details],
            }
        )
    manifest_path = directory / MANIFEST_NAME
    write_atomic(manifest_path, json.dumps(manifest, indent=2).encode("utf-8"))
    return manifest_path


def _write_page(directory: Path, page: Page) -> None:
    file_name = Path(page.url).name
    if not file_name:
        raise SampleError(f"page url {page.url!r} has no usable file name")
    (directory / file_name).write_text(page.html, encoding="utf-8")


def load_sample(directory: str | Path) -> PageSample:
    """Load a sample directory written by :func:`save_sample` (or by
    hand, for real saved pages).

    Raises:
        SampleError: missing manifest, missing files, or bad schema.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise SampleError(f"no {MANIFEST_NAME} in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SampleError(f"malformed {MANIFEST_NAME}: {error}") from error

    entries = manifest.get("pages")
    if not isinstance(entries, list) or not entries:
        raise SampleError('manifest needs a non-empty "pages" list')

    def read_page(file_name: str, kind: str) -> Page:
        path = directory / file_name
        if not path.is_file():
            raise SampleError(f"manifest references missing file {file_name!r}")
        return Page(url=file_name, html=path.read_text(encoding="utf-8"), kind=kind)

    list_pages: list[Page] = []
    details: list[list[Page]] = []
    for entry in entries:
        if "list" not in entry or "details" not in entry:
            raise SampleError('each pages entry needs "list" and "details"')
        list_pages.append(read_page(entry["list"], "list"))
        details.append([read_page(name, "detail") for name in entry["details"]])

    return PageSample(
        name=str(manifest.get("name", directory.name)),
        list_pages=list_pages,
        detail_pages_per_list=details,
    )
