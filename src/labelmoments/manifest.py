"""Run manifests, canonical config hashing, and the package's JSON file I/O."""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path

import numpy as np

from .errors import ContractError


def canonical_json(obj) -> str:
    """Key-order-independent JSON rendering used for hashing configs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_files(paths) -> dict:
    """path -> SHA-256 of its bytes, keyed by ``str(path)``."""
    return {str(p): file_sha256(p) for p in paths}


def write_json(path: str | Path, doc) -> None:
    """Every JSON document the package writes: two-space indent, sorted keys."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, default=float))


def read_json(path: str | Path, build):
    """``build(doc)`` for the JSON object stored at ``path``.

    A file that is not UTF-8 JSON (or nests too deeply to parse), a document
    that is not an object, and a ``build`` that fails with ``KeyError``,
    ``TypeError`` or ``ValueError`` all raise ``ContractError`` naming the
    file.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ContractError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ContractError(f"{path}: not a JSON object")
    try:
        return build(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"{path}: malformed ({type(exc).__name__}: {exc})") from exc


def write_manifest(
    path: str | Path,
    subcommand: str,
    config: dict,
    seed: int,
    version: str,
    input_hashes: dict,
    outputs,
    started: float,
    extra: dict | None = None,
) -> None:
    """Record of one CLI run, enough to reproduce it exactly.

    ``outputs`` are hashed here; ``started`` is the ``time.monotonic()`` at
    which the run began.  The Python and numpy versions are recorded
    because the Monte-Carlo outputs follow numpy's random streams.
    ``extra`` holds further entries of the record, such as a suite's
    per-cell tallies.
    """
    write_json(path, {
        **(extra or {}),
        "subcommand": subcommand,
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "version": version,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "input_hashes": input_hashes,
        "output_hashes": hash_files(outputs),
        "wall_clock_s": time.monotonic() - started,
    })
