"""A crawl snapshot directory served as a fetchable site.

:class:`DirectorySite` is the page source of fetch-driven ingestion
(``repro ingest --fetch``): it serves a directory of pages exactly
like a live site, so the one fetcher
(:class:`~repro.crawl.resilient.ResilientFetcher`: retries, budgets,
breakers, caching) runs the same code path whether pages come from a
generator or from disk.
"""

from __future__ import annotations

from pathlib import Path as _Path

from repro.core.exceptions import FetchError
from repro.webdoc.page import Page

__all__ = ["DirectorySite"]


class DirectorySite:
    """Serve a directory of ``*.html`` pages as a fetchable site.

    The inverse of a crawl snapshot: page URLs are file names inside
    ``directory``, ``fetch`` reads them back, and anything else —
    missing files, path traversal, non-HTML names, files that are not
    UTF-8 — is a permanent :class:`FetchError`, exactly like a 404
    from a live server.
    """

    def __init__(self, directory: str | _Path) -> None:
        self.directory = _Path(directory)

    def fetch(self, url: str) -> Page:
        """Read one page; raises :class:`FetchError` like a dead link."""
        name = url.strip()
        if (
            not name
            or "/" in name
            or "\\" in name
            or name.startswith(".")
            or not name.endswith(".html")
        ):
            raise FetchError(f"directory site does not serve {url!r}")
        try:
            html = (self.directory / name).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            raise FetchError(f"no page at {url!r}: {error}") from error
        return Page(url=name, html=html)

    def urls(self) -> list[str]:
        """Every servable page name, sorted."""
        return sorted(
            path.name
            for path in self.directory.glob("*.html")
            if path.is_file()
        )
