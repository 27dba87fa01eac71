"""In-memory spans around calls into the library, written out when a run ends.

A span records its name, start and end (seconds since the tracer was made),
its parent span, and the workload and group it ran for.  A disabled tracer
records nothing, so untraced passes run the same code with no bookkeeping.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, *, workload: str | None = None, group: str | None = None,
             extra: bool = False):
        """Time the enclosed block.  ``workload`` and ``group`` default to the
        enclosing span's; ``extra`` marks a repeat measurement of work the
        workload's pass already does (left out of the tracing overhead)."""
        if not self.enabled:
            yield None
            return
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "workload": workload or (parent["workload"] if parent else None),
            "group": group or (parent["group"] if parent else None),
            "extra": extra or bool(parent and parent["extra"]),
            "start": time.perf_counter() - self._t0,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()

    @contextmanager
    def allocation(self, name: str):
        """A span that also records the tracemalloc peak of the block, in MB.
        Its duration is not a layer time: tracemalloc slows the block."""
        if not self.enabled:
            yield
            return
        with self.span(f"alloc:{name}", extra=True) as record:
            tracemalloc.start()
            try:
                yield
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                record["alloc_mb"] = peak / 2 ** 20

    def write(self, path, header: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def duration(record: dict) -> float:
    return record["end"] - record["start"]


def layer_totals(spans: list[dict], layers: list[str], allocations: list[str]) -> dict:
    """Per-layer metrics: the summed duration of the spans named after each
    layer, and the largest allocation peak recorded for each allocation."""
    totals = {f"{name}_s": 0.0 for name in layers}
    peaks = {f"{name}_alloc_mb": 0.0 for name in allocations}
    for record in spans:
        key = f"{record['name']}_s"
        if key in totals:
            totals[key] += duration(record)
        if "alloc_mb" in record:
            key = f"{record['name'].removeprefix('alloc:')}_alloc_mb"
            peaks[key] = max(peaks[key], record["alloc_mb"])
    return {**totals, **peaks}
