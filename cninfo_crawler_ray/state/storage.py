"""Checkpoint storage: the package's one commit protocol for resumable
partitioned writes (VERDICT r03 item 5, ADVICE r02 #4).

A resumable write is a sequence of named *parts*: the scheduler's rounds
(``round_00001`` …) and the CLI export's shards (``shard=K``). Ray Data
workers write a part's parquet files; the driver then commits it. A
committed part is a directory of parquet files plus one ``_COMMITTED`` file
holding the part's lineage record as JSON: the record the caller passes to
``commit_round``, plus ``files``, the part's parquet file names. Readers
take their file lists from the record, so a stray file in a committed dir
is never read.

- :class:`LocalStorage` (bare paths; POSIX or NFS): the part is staged in
  ``<name>.tmp``; the record is written into the staging dir, which is then
  renamed onto its final name with one atomic ``os.replace``.
- :class:`FsspecStorage` (``s3://…``, ``gs://…``, ``file://…``): object
  stores cannot rename a directory atomically, so workers write straight
  into the final dir and the record is written last, as the commit marker
  (the Hadoop/Spark output-committer marker; one object PUT is atomic).

``begin_round`` always clears what an earlier attempt left under the
part's name, committed or not. What is done is decided by the caller's own
durable state, not by the marker: the scheduler flushes ``state.pkl`` only
after a round's commit, so a kill between the two leaves round N committed
while the state says N-1, and the resume recomputes round N
(deterministically) into a cleared dir. ``state.pkl`` is staged to
``state.pkl.tmp`` and moved (``write_bytes_atomic``): atomic on POSIX and
``file://``, best effort on object stores, where a torn state file only
loses the last round's mark and the resume recomputes that round.

``storage_for(path)`` picks the backend from the URL scheme. ``ray_path()``
translates a storage URL into the path Ray Data workers read and write
(``file://`` strips to a plain shared-FS path; object-store URLs pass
through — Ray's parquet IO speaks fsspec natively).
"""

from __future__ import annotations

import json
import os
import shutil

__all__ = ["LocalStorage", "FsspecStorage", "round_name", "storage_for"]

#: a committed part's record file; the ``_`` prefix keeps parquet dataset
#: readers from taking it for data
MARKER = "_COMMITTED"


def round_name(round_no: int) -> str:
    return f"round_{round_no:05d}"


class _Storage:
    """The commit protocol's backend-independent half: a part's record, and
    the committed rounds' file lists read from their records."""

    def _record_blob(self, part_dir: str, record: dict) -> bytes:
        files = sorted(f for f in self._ls(part_dir) if f.endswith(".parquet"))
        return json.dumps({**record, "files": files}, sort_keys=True).encode()

    def read_record(self, parent: str, name: str) -> dict | None:
        """The committed part's lineage record, or None if it is not
        committed."""
        path = self.join(parent, name, MARKER)
        return json.loads(self.read_bytes(path)) if self.exists(path) else None

    def round_files(self, rounds_dir: str, upto: int) -> list[str]:
        """Parquet files of rounds 1..upto in round order, as each round's
        record names them (read_parquet treats list entries as files)."""
        files: list[str] = []
        for r in range(1, upto + 1):
            name = round_name(r)
            d = self.join(rounds_dir, name)
            files.extend(self.ray_path(self.join(d, f))
                         for f in self.read_record(rounds_dir, name)["files"])
        return files


class LocalStorage(_Storage):
    """POSIX shared-FS backend — atomic dir-rename commits."""

    # --- generic small-object ops ---
    def join(self, *parts: str) -> str:
        return os.path.join(*parts)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as f:
            return f.read()

    def write_bytes_atomic(self, path: str, blob: bytes) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)

    def _ls(self, path: str) -> list[str]:
        return os.listdir(path)

    # --- part commit protocol ---
    def begin_round(self, parent: str, name: str) -> str:
        """→ staging path the part's parquet is written into."""
        final = os.path.join(parent, name)
        for d in (final, final + ".tmp"):
            shutil.rmtree(d, ignore_errors=True)
        return final + ".tmp"

    def commit_round(self, parent: str, name: str, record: dict) -> None:
        final = os.path.join(parent, name)
        tmp = final + ".tmp"
        # an all-invalid wave yields zero long rows and write_parquet
        # creates nothing — commit an empty part so numbering stays dense
        os.makedirs(tmp, exist_ok=True)
        with open(os.path.join(tmp, MARKER), "wb") as f:
            f.write(self._record_blob(tmp, record))
        os.replace(tmp, final)

    def ray_path(self, path: str) -> str:
        return path


class FsspecStorage(_Storage):
    """fsspec backend — marker-file commits (no atomic dir rename)."""

    def __init__(self, url_prefix: str):
        import fsspec

        self.fs, _ = fsspec.core.url_to_fs(url_prefix)

    def _strip(self, path: str) -> str:
        """fsspec fs methods take scheme-less paths."""
        return path.split("://", 1)[1] if "://" in path else path

    def join(self, *parts: str) -> str:
        return "/".join(p.rstrip("/") for p in parts)

    def makedirs(self, path: str) -> None:
        self.fs.makedirs(self._strip(path), exist_ok=True)

    def exists(self, path: str) -> bool:
        return self.fs.exists(self._strip(path))

    def read_bytes(self, path: str) -> bytes:
        with self.fs.open(self._strip(path), "rb") as f:
            return f.read()

    def write_bytes_atomic(self, path: str, blob: bytes) -> None:
        p = self._strip(path)
        tmp = p + ".tmp"
        with self.fs.open(tmp, "wb") as f:
            f.write(blob)
        # atomic on file://; copy+delete on object stores (see module doc)
        self.fs.mv(tmp, p)

    def _ls(self, path: str) -> list[str]:
        p = self._strip(path)
        if not self.fs.exists(p):  # an empty part on an object store
            return []
        return [e.rstrip("/").rsplit("/", 1)[-1]
                for e in self.fs.ls(p, detail=False)]

    def begin_round(self, parent: str, name: str) -> str:
        # no rename on object stores: workers write straight into the final
        # dir, cleared first even if an earlier attempt committed it
        final = self.join(parent, name)
        if self.exists(final):
            self.fs.rm(self._strip(final), recursive=True)
        return final

    def commit_round(self, parent: str, name: str, record: dict) -> None:
        final = self.join(parent, name)
        self.makedirs(final)  # empty round (all-invalid wave) still commits
        blob = self._record_blob(final, record)
        with self.fs.open(self._strip(self.join(final, MARKER)), "wb") as f:
            f.write(blob)

    def ray_path(self, path: str) -> str:
        """Path Ray Data workers read/write. ``file://`` is a shared-FS
        mount → plain local path (Ray would otherwise route it through a
        slower fsspec shim); object-store URLs pass through untouched."""
        if path.startswith("file://"):
            return path[len("file://"):]
        return path


def storage_for(path: str):
    """Pick a backend from the URL scheme; bare paths → LocalStorage."""
    if "://" in path:
        return FsspecStorage(path)
    return LocalStorage()
