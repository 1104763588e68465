"""Chunked on-disk waveform store (the out-of-core Dataset backing).

A store is a directory::

    meta.json          # schema: axis name, column names, chunk table
    chunk_00000.npy    # (rows, columns) float64, written atomically
    chunk_00001.npy
    quarantine/        # chunks that failed validation on open

Rows are appended one accepted transient step at a time (``[t, x...]``
— the time point plus the full solution vector) into a bounded buffer
and flushed every ``chunk_rows`` rows, so a run's peak memory is one
chunk regardless of trace length.  Chunks and ``meta.json`` (rewritten
after each flush) are written by :func:`repro.persist.write_bytes` —
write-to-temp + ``fsync`` + rename through the ``persist.truncate``
fault seam — so a crash leaves at most one unreferenced temp file.

Reads are chunked too: :meth:`WaveformStore.read_column` materialises
one trace (a single column) at a time, loading chunks memory-mapped,
and :meth:`WaveformStore.open` validates the chunk table — a truncated
or unloadable chunk and everything after it is moved to
``quarantine/`` and the row count shrinks to the surviving prefix
(recomputing the run then simply rewrites the store).  The lazy
:class:`repro.circuit.results.Dataset` mode sits directly on this
class; see ``docs/partitioning.md`` for the layout/schema contract.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import persist
from repro.errors import ParameterError, StoreError

#: on-disk schema version (bumped on incompatible layout changes)
STORE_VERSION = 1

#: default rows per chunk — 256 rows x a 709-unknown rca32 solution is
#: ~1.4 MB of buffer, the out-of-core peak per store
DEFAULT_CHUNK_ROWS = 256


def _chunk_name(index: int) -> str:
    return f"chunk_{index:05d}.npy"


class WaveformStore:
    """One on-disk waveform matrix: a time axis plus named columns.

    Create a writable store with :meth:`create`, append rows with
    :meth:`append` and finish with :meth:`close` (or use the instance
    as a context manager); reopen an existing directory with
    :meth:`open`, which validates and quarantines corrupt chunks.
    """

    def __init__(self, directory: Path, columns: List[str],
                 exposed: List[str], chunk_rows: int,
                 chunks: List[Dict], writable: bool,
                 quarantined: int = 0) -> None:
        self.directory = Path(directory)
        self.columns = list(columns)
        self.exposed = list(exposed)
        self.chunk_rows = int(chunk_rows)
        self._chunks = list(chunks)
        self._writable = writable
        #: chunks moved to ``quarantine/`` by open-time validation
        self.quarantined = quarantined
        self._buffer: List[np.ndarray] = []
        self._column_index = {name: i for i, name in enumerate(columns)}

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, directory: Union[str, Path], columns: Sequence[str],
               exposed: Optional[Sequence[str]] = None,
               chunk_rows: int = DEFAULT_CHUNK_ROWS) -> "WaveformStore":
        """Create (or reset) a writable store in ``directory``.

        Existing chunks and metadata are removed — a store holds
        exactly one run; ``quarantine/`` is left in place as the
        forensic record of earlier validation failures.
        """
        if chunk_rows < 1:
            raise ParameterError(
                f"chunk_rows must be >= 1, got {chunk_rows!r}")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for stale in directory.glob("chunk_*.npy"):
            stale.unlink()
        for stale in directory.glob("*.tmp"):
            stale.unlink()
        meta = directory / "meta.json"
        if meta.exists():
            meta.unlink()
        store = cls(directory, list(columns),
                    list(exposed if exposed is not None else columns),
                    chunk_rows, [], writable=True)
        store._write_meta()
        return store

    @classmethod
    def open(cls, directory: Union[str, Path],
             validate: bool = True) -> "WaveformStore":
        """Open an existing store read-only.

        With ``validate`` (default), every chunk in the metadata table
        is load-checked; the first corrupt chunk **and every chunk
        after it** (their rows would otherwise shift) are moved to
        ``quarantine/`` and the store shrinks to the surviving prefix.
        """
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.exists():
            raise StoreError(f"no waveform store at {directory} "
                             f"(missing meta.json)")
        meta = persist.read_json(meta_path)
        if meta is None:
            raise StoreError(f"unreadable store metadata {meta_path} "
                             f"(rerun to rewrite the store)")
        if meta.get("version") != STORE_VERSION:
            raise StoreError(
                f"store {directory} has schema version "
                f"{meta.get('version')!r}, expected {STORE_VERSION}")
        chunks = list(meta.get("chunks", []))
        quarantined = 0
        if validate:
            keep: List[Dict] = []
            bad_from: Optional[int] = None
            for i, entry in enumerate(chunks):
                path = directory / entry["file"]
                try:
                    array = np.load(path, mmap_mode="r")
                    ok = (array.ndim == 2
                          and array.shape[0] == entry["rows"]
                          and array.shape[1] == len(meta["columns"]))
                    del array
                except (OSError, ValueError):
                    ok = False
                if not ok:
                    bad_from = i
                    break
                keep.append(entry)
            if bad_from is not None:
                for entry in chunks[bad_from:]:
                    persist.quarantine(directory / entry["file"])
                quarantined = len(chunks) - bad_from
                chunks = keep
        return cls(directory, meta["columns"],
                   meta.get("exposed", meta["columns"]),
                   meta.get("chunk_rows", DEFAULT_CHUNK_ROWS),
                   chunks, writable=False, quarantined=quarantined)

    def close(self) -> None:
        """Flush the row buffer and finalise the metadata."""
        if self._writable:
            self.flush()
            self._writable = False

    def __enter__(self) -> "WaveformStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writing ---------------------------------------------------------------

    def append(self, row: np.ndarray) -> None:
        """Append one row (length ``len(self.columns)``); flushed to a
        chunk file every ``chunk_rows`` rows."""
        if not self._writable:
            raise StoreError(f"store {self.directory} is not writable")
        row = np.asarray(row, dtype=float)
        if row.shape != (len(self.columns),):
            raise ParameterError(
                f"row has shape {row.shape}, store has "
                f"{len(self.columns)} columns")
        self._buffer.append(row.copy())
        if len(self._buffer) >= self.chunk_rows:
            self.flush()

    def flush(self) -> None:
        """Write the buffered rows as the next chunk (atomic: temp file
        + rename, through the ``persist.truncate`` fault seam)."""
        if not self._buffer:
            return
        array = np.vstack(self._buffer)
        self._buffer = []
        name = _chunk_name(len(self._chunks))
        sink = io.BytesIO()
        np.save(sink, array)
        persist.write_bytes(self.directory / name, sink.getvalue())
        self._chunks.append({"file": name, "rows": int(array.shape[0])})
        self._write_meta()

    def _write_meta(self) -> None:
        payload = {
            "version": STORE_VERSION,
            "axis_name": self.columns[0] if self.columns else "time",
            "columns": self.columns,
            "exposed": self.exposed,
            "chunk_rows": self.chunk_rows,
            "rows": self.n_rows,
            "chunks": self._chunks,
        }
        persist.write_text(self.directory / "meta.json",
                           json.dumps(payload, indent=1))

    # -- reading ---------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Total rows across committed chunks (plus the write buffer)."""
        return sum(entry["rows"] for entry in self._chunks) \
            + len(self._buffer)

    @property
    def axis_name(self) -> str:
        """Name of column 0 (the sweep axis, ``time`` for transients)."""
        return self.columns[0] if self.columns else "time"

    def column_index(self, name: str) -> int:
        """Index of a named column (:class:`ParameterError` if absent)."""
        try:
            return self._column_index[name]
        except KeyError:
            raise ParameterError(
                f"store has no column {name!r}; columns: "
                f"{', '.join(self.columns)}") from None

    def iter_chunks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(start_row, chunk_array)`` pairs, memory-mapped.

        A chunk that no longer loads (truncated by a crash after it
        entered the table) raises :class:`StoreError` — reopening the
        directory with :meth:`open` quarantines it.
        """
        if self._buffer:
            self.flush()
        start = 0
        for entry in self._chunks:
            path = self.directory / entry["file"]
            try:
                array = np.load(path, mmap_mode="r")
            except (OSError, ValueError) as exc:
                raise StoreError(
                    f"corrupt waveform chunk {path}: {exc} "
                    f"(reopen the store to quarantine it)") from exc
            yield start, array
            start += entry["rows"]

    def read_column(self, column: Union[int, str], start: int = 0,
                    stop: Optional[int] = None) -> np.ndarray:
        """Materialise one column slice ``[start:stop]``, chunk-wise.

        Peak memory is the returned slice plus one memory-mapped
        chunk; the full waveform matrix is never resident.
        """
        idx = self.column_index(column) if isinstance(column, str) \
            else int(column)
        if idx < 0 or idx >= len(self.columns):
            raise ParameterError(
                f"column index {idx} out of range "
                f"(store has {len(self.columns)} columns)")
        total = self.n_rows
        if stop is None or stop > total:
            stop = total
        start = max(0, int(start))
        if stop <= start:
            return np.empty(0)
        out = np.empty(stop - start)
        for chunk_start, array in self.iter_chunks():
            chunk_stop = chunk_start + array.shape[0]
            if chunk_stop <= start:
                continue
            if chunk_start >= stop:
                break
            lo = max(start, chunk_start) - chunk_start
            hi = min(stop, chunk_stop) - chunk_start
            dst = max(start, chunk_start) - start
            out[dst:dst + (hi - lo)] = array[lo:hi, idx]
        return out
