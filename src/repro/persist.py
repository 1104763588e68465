"""The one persistence layer: atomic writes, tolerant reads, quarantine
and run-directory manifests.

Every file the program persists (campaign and experiment records,
manifests, aggregates, run tables, reports, waveform-store chunks and
metadata) is written here: to a sibling ``.tmp`` file, ``fsync``-ed,
then renamed into place, so a reader sees the old file or the new one.
Every write passes the ``persist.truncate`` fault seam, which truncates
the payload the way a crash between write and rename would; the
recovery per file type is in ``docs/robustness.md``.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from repro import faults
from repro.errors import CampaignError

__all__ = ["write_bytes", "write_text", "write_json", "read_json",
           "quarantine", "check_manifest"]

_log = logging.getLogger("repro.persist")


def write_bytes(path: os.PathLike, data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (temp file, fsync,
    rename), through the ``persist.truncate`` seam."""
    path = Path(path)
    data = faults.mangle_bytes("persist.truncate", data)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def write_text(path: os.PathLike, text: str) -> None:
    """:func:`write_bytes` of ``text`` encoded as UTF-8."""
    write_bytes(path, text.encode("utf-8"))


def write_json(path: os.PathLike, payload: Dict) -> None:
    """:func:`write_text` of ``json.dumps(payload, indent=1)`` + newline."""
    write_text(path, json.dumps(payload, indent=1) + "\n")


def read_json(path: os.PathLike) -> Optional[Dict]:
    """The JSON object at ``path``; ``None`` when the file is missing,
    truncated, undecodable or not an object."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def quarantine(path: os.PathLike, dest: Optional[os.PathLike] = None
               ) -> bool:
    """Move ``path`` to ``dest`` (default: a sibling ``quarantine/``
    directory, same name); ``False`` when there is no file to move."""
    path = Path(path)
    dest = Path(dest) if dest else path.parent / "quarantine" / path.name
    if not path.exists():
        return False
    dest.parent.mkdir(parents=True, exist_ok=True)
    os.replace(path, dest)
    return True


def check_manifest(path: os.PathLike, manifest: Dict, resume: bool,
                   moves: Iterable[Tuple[Path, Path]]) -> int:
    """Write ``manifest`` (it carries a ``"fingerprint"``) to ``path``,
    or verify it when resuming; returns the files quarantined.

    A readable manifest with another fingerprint raises
    :class:`CampaignError` (a different experiment, not corruption).
    An unreadable one leaves everything it governed unverifiable: the
    ``(file, destination)`` pairs of ``moves``, the manifest's own
    first, are quarantined and a fresh manifest is written.
    """
    path = Path(path)
    count = 0
    if resume and path.exists():
        existing = read_json(path)
        if existing is not None:
            if existing.get("fingerprint") != manifest["fingerprint"]:
                raise CampaignError(
                    f"run directory {path.parent} belongs to a different "
                    f"experiment (its manifest fingerprint differs); use "
                    f"a fresh directory or delete it")
            return 0
        count = sum(quarantine(src, dest) for src, dest in moves)
        _log.warning("resume: manifest %s unreadable; quarantined it and "
                     "%d governed file(s), restarting fresh", path,
                     count - 1)
    write_json(path, manifest)
    return count
