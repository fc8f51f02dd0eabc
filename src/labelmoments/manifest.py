"""Run manifests and canonical config hashing."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path


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


@dataclass
class RunManifest:
    """Record of one CLI run; enough to reproduce it exactly."""

    subcommand: str
    config: dict
    seed: int
    version: str
    input_hashes: dict = field(default_factory=dict)
    output_hashes: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0
    _t0: float = field(default_factory=time.monotonic, repr=False)

    def add_input(self, path: str | Path) -> None:
        self.input_hashes[str(path)] = file_sha256(path)

    def add_output(self, path: str | Path) -> None:
        self.output_hashes[str(path)] = file_sha256(path)

    def finish(self, path: str | Path) -> None:
        self.wall_clock_s = time.monotonic() - self._t0
        doc = {
            "subcommand": self.subcommand,
            "config": self.config,
            "config_hash": config_hash(self.config),
            "seed": self.seed,
            "version": self.version,
            "input_hashes": self.input_hashes,
            "output_hashes": self.output_hashes,
            "wall_clock_s": self.wall_clock_s,
        }
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))

