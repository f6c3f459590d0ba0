"""Atomic file writes: a reader sees the old bytes or the new, never a mix.

Every durable single-file writer — stage cache entries, ``sample.json``,
``crawl.json`` and the ingest manifest — goes through
:func:`write_atomic`, so a run killed mid-write leaves the previous
file whole.  A torn ingest manifest would read as "no previous
manifest", and the next full ingest would then leak the old
generation's bundle directories.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["write_atomic"]


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``.

    The temp file (``.tmp-*``) sits in ``path``'s directory, so the
    rename never crosses a file system, and it gets the mode a plain
    write would give ``path``.  On any failure it is removed and the
    error re-raised, leaving ``path`` as it was.
    """
    temp = path.with_name(f".tmp-{os.urandom(8).hex()}")
    try:
        with open(temp, "xb") as handle:
            handle.write(data)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
