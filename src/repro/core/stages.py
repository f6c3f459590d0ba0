"""Stage cache keys: the canonical fingerprint and the Merkle key rule.

The paper's method is one fixed chain of stages (tokenize → template →
extracts → observations → segment, Sections 3–4), which
:class:`~repro.core.pipeline.SegmentationPipeline` runs as plain code.
Every stage it caches is looked up under a content-addressed key:
:func:`stage_key` hashes the stage's name, :data:`CACHE_SCHEMA`, the
keys of the stages it reads (a Merkle chain) and its own inputs — the
page bytes and config slice it depends on.  So a downstream knob
change invalidates only downstream entries, and a stage whose key hits
is loaded without reading anything upstream of it.

The keys are the on-disk entry names of
:class:`~repro.runner.cache.StageCache`, which re-exports
:func:`fingerprint`.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from typing import Any

__all__ = ["CACHE_SCHEMA", "fingerprint", "stage_key"]

#: Part of every stage key.  Bumping it orphans every cache entry
#: written under the previous key or value format at once.
CACHE_SCHEMA = 2


def _update(digest: "hashlib._Hash", obj: Any) -> None:
    """Feed one value into ``digest`` in canonical form."""
    if obj is None:
        digest.update(b"N;")
    elif isinstance(obj, bool):  # before int: bool is an int subclass
        digest.update(b"b1;" if obj else b"b0;")
    elif isinstance(obj, int):
        digest.update(b"i" + repr(obj).encode() + b";")
    elif isinstance(obj, float):
        digest.update(b"f" + repr(obj).encode() + b";")
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        digest.update(b"s" + str(len(data)).encode() + b":")
        digest.update(data)
    elif isinstance(obj, bytes):
        digest.update(b"y" + str(len(obj)).encode() + b":")
        digest.update(obj)
    elif isinstance(obj, (list, tuple)):
        digest.update(b"l(")
        for item in obj:
            _update(digest, item)
        digest.update(b")")
    elif isinstance(obj, (set, frozenset)):
        # Iteration order is hash-randomized; sort element digests.
        digest.update(b"e(")
        for item_digest in sorted(fingerprint(item) for item in obj):
            digest.update(item_digest.encode())
        digest.update(b")")
    elif isinstance(obj, dict):
        digest.update(b"d(")
        for key in sorted(obj, key=lambda k: fingerprint(k)):
            _update(digest, key)
            _update(digest, obj[key])
        digest.update(b")")
    elif is_dataclass(obj) and not isinstance(obj, type):
        digest.update(b"D" + type(obj).__qualname__.encode() + b"(")
        for field_ in fields(obj):
            _update(digest, field_.name)
            _update(digest, getattr(obj, field_.name))
        digest.update(b")")
    else:
        digest.update(b"r" + repr(obj).encode() + b";")


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest of ``parts`` in canonical form.

    Stable across processes and interpreter restarts: dicts hash by
    sorted key, sets by sorted element digest (never by the iteration
    order ``PYTHONHASHSEED`` randomizes), dataclasses by qualified
    class name plus fields, and every value carries a type tag so
    ``1`` / ``1.0`` / ``"1"`` differ.
    """
    digest = hashlib.sha256()
    for part in parts:
        _update(digest, part)
    return digest.hexdigest()


def stage_key(name: str, upstream_keys: list[str], *parts: Any) -> str:
    """Stage ``name``'s cache key: a Merkle hash.

    ``fingerprint(name, CACHE_SCHEMA, upstream_keys, *parts)``, where
    ``upstream_keys`` are the keys of the stages ``name`` reads and
    ``parts`` its own inputs (its config slice plus per-invocation
    values such as page bytes).
    """
    return fingerprint(name, CACHE_SCHEMA, upstream_keys, *parts)
