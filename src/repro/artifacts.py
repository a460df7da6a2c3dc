"""One two-level cache for compiled artifacts.

Every simulated cell needs compiled artifacts before it runs: the VLIW
programs of its threads (:mod:`repro.kernels.cache`) and, on the
``jit`` engine, one generated cycle loop per scheme
(:mod:`repro.sim.codegen`).  Both are instances of
:class:`ArtifactCache`, which differ only in their key function, their
builder and their :class:`Codec`:

* a memory level (always on), optionally capped — on overflow it is
  dropped wholesale and re-entry reloads from the directory;
* an optional directory of ``<key><suffix>`` files shared between
  processes.  Stores go through :func:`atomic_write` (temp file +
  ``os.replace``), so concurrent writers never expose a partial entry
  and concurrent writes of one key are idempotent;
* best-effort disk handling: a store that fails (read-only, full or
  uncreatable directory) is counted in ``disk_errors`` and the run
  continues memory-only; an entry that no longer loads (truncated or
  hand-edited) is counted too, moved aside to ``<file>.bad`` for
  post-mortem and rebuilt.  Cache damage can slow a run, never wedge it.

The process-wide default caches share one directory setting: read once
from ``REPRO_CACHE_DIR`` at import, redirected for every default by
:func:`set_cache_dir` (the grid runner points it at a run store's
``programs/`` directory).
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, Callable, NamedTuple

__all__ = ["ArtifactCache", "Codec", "atomic_write", "cache_dir",
           "default_cache", "set_cache_dir"]


def atomic_write(path: str, data: str | bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + ``os.replace``.

    A crash mid-write leaves the previous file contents (or no file)
    rather than a truncated one.  Text is written as UTF-8.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        if isinstance(data, str):
            data = data.encode("utf-8")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _identity(artifact):
    return artifact


class Codec(NamedTuple):
    """How one kind of artifact is stored and served."""

    #: file name suffix of a stored entry (``<key><suffix>``).
    suffix: str
    #: built artifact -> file contents.
    dump: Callable[[Any], bytes]
    #: file contents -> served value; raises when the entry is corrupt.
    load: Callable[[bytes], Any]
    #: built artifact -> served value.
    serve: Callable[[Any], Any] = _identity


class ArtifactCache:
    """Two-level (memory + optional directory) artifact cache.

    ``get(*args)`` serves ``key(*args)`` from memory, else from the
    directory, else from ``build(*args)`` — so each key is built at most
    once per process and, with a shared directory, once per host.
    ``compile_seconds`` times every miss of the memory level.
    """

    def __init__(self, key: Callable[..., str], build: Callable,
                 codec: Codec, directory: str | None = None,
                 cap: int | None = None):
        self.key = key
        self.build = build
        self.codec = codec
        self.directory = directory
        self.cap = cap
        self._memory: dict = {}
        self.compiles = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.disk_errors = 0
        self.compile_seconds = 0.0

    def path(self, key: str) -> str:
        return os.path.join(self.directory, key + self.codec.suffix)

    def get(self, *args):
        key = self.key(*args)
        value = self._memory.get(key)
        if value is not None:
            self.memory_hits += 1
            return value
        t0 = time.perf_counter()
        if self.directory:
            value = self._load(key)
        if value is None:
            artifact = self.build(*args)
            self.compiles += 1
            if self.directory:
                self._store(key, artifact)
            value = self.codec.serve(artifact)
        self.compile_seconds += time.perf_counter() - t0
        if self.cap is not None and len(self._memory) >= self.cap:
            self._memory.clear()
        self._memory[key] = value
        return value

    def _load(self, key: str):
        path = self.path(key)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError:
            return None
        try:
            value = self.codec.load(data)
        except Exception:
            # move the corrupt entry aside so the next process rebuilds
            # instead of re-reading the same broken file.
            self.disk_errors += 1
            try:
                os.replace(path, path + ".bad")
            except OSError:
                pass
            return None
        self.disk_hits += 1
        return value

    def _store(self, key: str, artifact) -> None:
        try:
            os.makedirs(self.directory, exist_ok=True)
            atomic_write(self.path(key), self.codec.dump(artifact))
        except OSError:
            self.disk_errors += 1

    def stats(self) -> dict:
        return {
            "compiles": self.compiles,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "disk_errors": self.disk_errors,
            "compile_seconds": round(self.compile_seconds, 6),
            "directory": self.directory,
        }


#: directory of every process-wide default cache (None = memory only).
_directory: str | None = os.environ.get("REPRO_CACHE_DIR") or None
_defaults: list[ArtifactCache] = []


def default_cache(cache: ArtifactCache) -> ArtifactCache:
    """Make ``cache`` a process-wide default: it takes the current
    directory setting and follows :func:`set_cache_dir` from now on."""
    cache.directory = _directory
    _defaults.append(cache)
    return cache


def cache_dir() -> str | None:
    """The directory setting of the default caches."""
    return _directory


def set_cache_dir(directory: str | None) -> None:
    """Point every default cache at ``directory`` (None = memory only).

    In-memory entries are kept.
    """
    global _directory
    _directory = directory
    for cache in _defaults:
        cache.directory = directory
