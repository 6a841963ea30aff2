"""Span recording around the public entry points of each layer.

The recorder wraps the bound methods of one live ``RgpdOS`` instance
(and ``DataExecutionDomain.run``, whose instances live for one call)
from outside the program: nothing under ``src/`` is changed.  Each span
is ``(op id, span id, parent span id, name, start ns, end ns)``; spans
stay in memory until the run writes them out.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ded import STAGES, DataExecutionDomain

Span = Tuple[int, int, int, str, int, int]

#: Direct ``dbfs`` children of ``ded.run`` and the stage that issues them.
_STAGE_OF_CHILD = {
    "dbfs.select_uids": "ded_type2req",
    "dbfs.select_uids_where": "ded_type2req",
    "dbfs.query_membranes": "ded_load_membrane",
    "dbfs.fetch_records": "ded_load_data",
    "dbfs.store": "ded_store",
}


def _targets(system) -> List[Tuple[object, str, str]]:
    """(object, method, span name) for every wrapped entry point."""
    dbfs = system.dbfs
    journal = dbfs.journal
    device = system.pd_device
    builtins = system.ps.builtins
    targets = [(system.ps, "ps_invoke", "ps.invoke")]
    targets += [
        (system.rights, name, f"rights.{name}")
        for name in ("erase", "grant_consent", "object_to")
    ]
    targets += [
        (builtins, name, f"builtins.{name}")
        for name in ("acquisition", "update", "delete")
    ]
    targets += [
        (dbfs, name, f"dbfs.{name}")
        for name in (
            "residue_counts", "live_record_blocks", "query_membranes",
            "fetch_records", "get_membrane", "put_membrane", "update",
            "store", "delete", "select_uids", "select_uids_where",
        )
    ]
    targets += [
        (journal, name, f"journal.{name}")
        for name in ("begin", "commit", "log_write", "log_delete", "log_op")
    ]
    targets += [
        (device, name, f"block.{name}")
        for name in ("read", "write", "scrub", "scan")
    ]
    targets.append((system.log, "record", "log.record"))
    return targets


class SpanRecorder:
    """Collects spans from the wrapped entry points of one system."""

    def __init__(self, device_blocks: int = 0) -> None:
        #: Blocks one ``BlockDevice.scan`` reads (the device size).
        self.device_blocks = device_blocks
        self.spans: List[Span] = []
        #: ded.run span id -> (stage wall seconds, membranes loaded,
        #: consented, processed) of the InvocationResult it returned.
        self.ded_results: Dict[int, Tuple[Dict[str, float], int, int, int]] = {}
        self.op_id = 0
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._installed: List[Tuple[object, str, Optional[object]]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter_ns
        on_result = self._record_ded if name == "ded.run" else None

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op_id, span_id, parent, name, start, end))
            if on_result is not None:
                on_result(span_id, result)
            return result

        return wrapper

    def _record_ded(self, span_id: int, result) -> None:
        counts = result.trace.counts
        self.ded_results[span_id] = (
            dict(result.trace.wall_seconds),
            counts.get("membranes_loaded", 0),
            counts.get("consented", 0),
            result.processed,
        )

    def install(self, system) -> None:
        for obj, attr, name in _targets(system):
            self._installed.append((obj, attr, obj.__dict__.get(attr)))
            setattr(obj, attr, self._wrap(name, getattr(obj, attr)))
        original = DataExecutionDomain.__dict__["run"]
        self._installed.append((DataExecutionDomain, "run", original))
        DataExecutionDomain.run = self._wrap("ded.run", original)

    def uninstall(self) -> None:
        for obj, attr, previous in reversed(self._installed):
            if previous is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)
        self._installed.clear()

    def write_jsonl(self, path: str) -> None:
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], int]:
        """Self nanoseconds and call counts per span name, and the total
        duration of top-level spans (those with no wrapped parent)."""
        child_ns: Dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent:
                child_ns[parent] += end - start
        self_ns: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        top_ns = 0
        for _, span_id, parent, name, start, end in self.spans:
            self_ns[name] += end - start - child_ns[span_id]
            calls[name] += 1
            if not parent:
                top_ns += end - start
        self_ns.update(self._ded_stage_split(self_ns))
        return dict(self_ns), dict(calls), top_ns

    def _ded_stage_split(self, self_ns: Dict[str, float]) -> Dict[str, float]:
        """Split ``ded.run`` self time into its stages.

        A stage's self time is its wall time from the InvocationResult
        trace less the wrapped dbfs calls it issued; what is left of the
        ``ded.run`` self time (pipeline glue between stages) is
        ``ded.other``.
        """
        stage_ns = {stage: 0.0 for stage in STAGES}
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span[2] in self.ded_results:
                children[span[2]].append(span)
        for span_id, (walls, _, _, _) in self.ded_results.items():
            for stage, seconds in walls.items():
                stage_ns[stage] += seconds * 1e9
            for _, _, _, name, start, end in children[span_id]:
                stage = _STAGE_OF_CHILD.get(name)
                if stage is not None:
                    stage_ns[stage] -= end - start
        split = {f"ded.{stage[4:]}": ns for stage, ns in stage_ns.items()}
        split["ded.other"] = self_ns.get("ded.run", 0.0) - sum(stage_ns.values())
        return split


def per_op_layers(recorder: SpanRecorder, ops: int) -> Dict[str, float]:
    """Self milliseconds per op for every named layer metric."""
    self_ns, _, _ = recorder.self_times()

    def ms(*names: str) -> float:
        return sum(self_ns.get(name, 0.0) for name in names) / ops / 1e6

    layers = {
        "ps.self_ms": ms("ps.invoke"),
        "ded.other_ms": ms("ded.other"),
        "block.scan_ms": ms("block.scan"),
        "block.io_ms": ms("block.read", "block.write", "block.scrub"),
        "journal.self_ms": ms(
            "journal.begin", "journal.commit", "journal.log_write",
            "journal.log_delete", "journal.log_op",
        ),
        "dbfs.residue_counts_ms": ms("dbfs.residue_counts", "dbfs.live_record_blocks"),
        "dbfs.select_ms": ms("dbfs.select_uids", "dbfs.select_uids_where"),
        "rights.erase_self_ms": ms("rights.erase"),
        "rights.consent_self_ms": ms("rights.grant_consent", "rights.object_to"),
        "builtins.delete_self_ms": ms("builtins.delete"),
        "builtins.update_self_ms": ms("builtins.update"),
        "builtins.acquisition_ms": ms("builtins.acquisition"),
        "log.record_ms": ms("log.record"),
    }
    for stage in STAGES:
        name = f"ded.{stage[4:]}"
        layers[f"{name}_ms"] = ms(name)
    for method in (
        "query_membranes", "fetch_records", "get_membrane", "put_membrane",
        "update", "store", "delete",
    ):
        layers[f"dbfs.{method}_ms"] = ms(f"dbfs.{method}")
    return layers
