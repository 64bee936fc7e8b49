"""Content-hash-keyed caching of generated workload traces.

Generating a workload trace is pure: the same (profile, instructions, seed,
process_id) always produces the same instruction stream.  Campaigns exploit
the same property for *results* via :mod:`repro.harness.store`; this module
applies it one layer down, to the traces themselves — a suite × config ×
seed sweep runs every benchmark under several protection schemes, and
without a cache each scheme regenerates an identical trace.

Two tiers, mirroring the result store:

* an in-process LRU of recently generated workloads (always on), sized by
  ``MEMORY_ENTRIES`` so worker memory stays bounded;
* an optional on-disk tier enabled by pointing the ``REPRO_TRACE_CACHE``
  environment variable at a directory; entries are pickled per-key files
  written atomically, so parallel campaign workers share generated traces
  without contention.

Set ``REPRO_TRACE_CACHE=off`` to disable the LRU and disk tiers entirely
(fresh generation on every call — useful for benchmarking the generator
itself).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import logging
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Any, Optional

from repro.telemetry.log import get_logger, log_event
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.trace import WorkloadTraces

#: Environment variable: a directory enables the on-disk tier, ``off`` (or
#: ``none``/``0``/``disabled``) disables caching altogether, unset/empty
#: keeps the in-memory tier only.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Bump when the trace layout changes; stale on-disk entries are ignored.
TRACE_CACHE_VERSION = 2

#: Workloads kept in the in-process LRU tier.
MEMORY_ENTRIES = 8

_DISABLED_VALUES = frozenset({"off", "none", "0", "disabled", "false"})

#: Distinguishes temporary files written by concurrent threads of one
#: process; the pid distinguishes processes.
_TMP_COUNTER = itertools.count()


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def trace_key(profile: WorkloadProfile, instructions: int, seed: int,
              process_id: int) -> str:
    """Content hash identifying one generated workload.

    Covers the full profile (not just its name, so ad-hoc profiles cannot
    collide with registry entries) plus every generation parameter.
    """
    payload = {
        "profile": _jsonable(profile),
        "instructions": instructions,
        "seed": seed,
        "process_id": process_id,
        "version": TRACE_CACHE_VERSION,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


class TraceCache:
    """An in-memory LRU with an optional on-disk tier of pickled traces."""

    def __init__(self, root: Optional[os.PathLike] = None,
                 memory_entries: int = MEMORY_ENTRIES) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.memory_entries = max(1, memory_entries)
        self._memory: "OrderedDict[str, WorkloadTraces]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Optional[Path]:
        return None if self.root is None else self.root / f"{key}.pkl"

    def get(self, key: str) -> Optional[WorkloadTraces]:
        workload = self._memory.get(key)
        if workload is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return workload
        path = self._path(key)
        if path is not None:
            try:
                with path.open("rb") as handle:
                    payload = pickle.load(handle)
            except FileNotFoundError:
                payload = None
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError,
                    ValueError) as error:
                # A corrupt on-disk entry would otherwise fail again on
                # every run; evict it so the next put rewrites it cleanly.
                payload = None
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
                log_event(get_logger("workloads.cache"),
                          "trace_cache_evicted", _level=logging.WARNING,
                          key=key, reason=type(error).__name__)
            if (isinstance(payload, dict)
                    and payload.get("version") == TRACE_CACHE_VERSION):
                workload = payload["workload"]
                self._remember(key, workload)
                self.hits += 1
                return workload
        self.misses += 1
        return None

    def put(self, key: str, workload: WorkloadTraces) -> None:
        self._remember(key, workload)
        path = self._path(key)
        if path is None:
            return
        payload = {"version": TRACE_CACHE_VERSION, "key": key,
                   "workload": workload}
        # Unique per (process, thread-interleaving) so concurrent writers
        # of the same key never collide on the intermediate file; the
        # leading dot keeps it out of the ``*.pkl`` globs.
        tmp = (self.root / f".{key}.{os.getpid()}."
                           f"{next(_TMP_COUNTER)}.tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # A full or read-only disk must not break simulation.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def _remember(self, key: str, workload: WorkloadTraces) -> None:
        self._memory[key] = workload
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def clear(self) -> int:
        """Drop every cached workload (both tiers); returns entries removed."""
        removed = len(self._memory)
        self._memory.clear()
        if self.root is not None:
            for path in self.root.glob("*.pkl"):
                path.unlink()
                removed += 1
            for path in self.root.glob(".*.tmp"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        count = len(self._memory)
        if self.root is not None:
            on_disk = {path.stem for path in self.root.glob("*.pkl")}
            count += len(on_disk - set(self._memory))
        return count


_active_cache: Optional[TraceCache] = None
_active_signature: Optional[str] = None


def active_trace_cache() -> Optional[TraceCache]:
    """The process-wide cache configured by ``REPRO_TRACE_CACHE``.

    Re-reads the environment on every call so tests (and long-lived
    sessions) can reconfigure caching without restarting the process; the
    cache instance is only rebuilt when the setting actually changes.
    """
    global _active_cache, _active_signature
    signature = os.environ.get(TRACE_CACHE_ENV, "").strip()
    if signature.lower() in _DISABLED_VALUES:
        return None
    if _active_cache is None or signature != _active_signature:
        _active_cache = TraceCache(Path(signature) if signature else None)
        _active_signature = signature
    return _active_cache


def reset_trace_cache() -> None:
    """Forget the process-wide cache (test helper)."""
    global _active_cache, _active_signature
    _active_cache = None
    _active_signature = None
