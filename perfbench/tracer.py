"""The traced pass: spans around each layer's public entry points.

:class:`Tracer` swaps wrappers onto the program's classes and module
bindings from outside the program, records one span per call while a
run is being timed, and restores every original on :meth:`uninstall`.
Spans are kept in memory as parallel arrays (name, start, end, parent,
run); a span's self time is its duration minus the time its child
spans cover, so the self times of one pass plus the time no span
covers add up to the traced wall time.

Counts are recorded at the same boundaries (queue depth on schedule,
bytes on send, copies per transmit, cache hits per registry, timers
later cancelled), so every ratio is measured where the work happens.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.checks import oracle as oracle_module
from repro.core.replica import PRFTReplica
from repro.crypto import hashing
from repro.crypto.registry import KeyRegistry
from repro.ledger.chain import Chain
from repro.ledger.mempool import Mempool
from repro.net.faults import LinkPipeline
from repro.net.network import Network
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.pbft import PBFTReplica
from repro.protocols.polygraph import PolygraphReplica
from repro.protocols.runner import Deployment
from repro.protocols.trap import TrapReplica
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import CommitLog, MetricsCollector
from repro.sim.streaming import LatencySketch
from repro.sim.timers import TimerService
from repro.sim.trace import TraceRecorder
from repro.workloads.base import Workload

#: (span name, owner, attribute).  A module-level function is wrapped
#: at every ``repro`` module that binds it by name.  TRAP inherits
#: Polygraph's handler, so it is wrapped first, from the original.
METHOD_SPANS: Tuple[Tuple[str, type, str], ...] = (
    ("engine.step", SimulationEngine, "step"),
    ("engine.schedule", SimulationEngine, "schedule"),
    ("network.send", Network, "send"),
    ("faults.transmit", LinkPipeline, "transmit"),
    ("registry.verify", KeyRegistry, "verify"),
    ("registry.verify_aggregate", KeyRegistry, "verify_aggregate"),
    ("registry.trusted_setup", KeyRegistry, "trusted_setup"),
    ("replica.trap.handle_payload", TrapReplica, "handle_payload"),
    ("replica.polygraph.handle_payload", PolygraphReplica, "handle_payload"),
    ("replica.prft.handle_payload", PRFTReplica, "handle_payload"),
    ("replica.pbft.handle_payload", PBFTReplica, "handle_payload"),
    ("replica.hotstuff.handle_payload", HotStuffReplica, "handle_payload"),
    ("trace.record", TraceRecorder, "record"),
    ("metrics.record_send", MetricsCollector, "record_send"),
    ("commit_log.note", CommitLog, "note"),
    ("streaming.sketch_add", LatencySketch, "add"),
    ("mempool.submit", Mempool, "submit"),
    ("mempool.select", Mempool, "select"),
    ("mempool.mark_included", Mempool, "mark_included"),
    ("chain.finalize", Chain, "finalize"),
    ("chain.prune_final_bodies", Chain, "prune_final_bodies"),
    ("workload.submit", Workload, "submit"),
    ("timers.set_timer", TimerService, "set_timer"),
    ("runner.deployment_init", Deployment, "__init__"),
)
#: (span name, defining module, function, count outermost calls only)
FUNCTION_SPANS = (
    # canonical_bytes recurses through its own module global; only the
    # outermost call is a span, nested ones are part of its self time.
    ("hashing.canonical_bytes", hashing, "canonical_bytes", True),
    ("oracle.run_oracle", oracle_module, "run_oracle", False),
)
SPAN_NAMES = tuple(name for name, *_ in METHOD_SPANS + FUNCTION_SPANS)

#: per-function metric suffixes and units
FUNCTION_METRICS = (
    ("calls", "count", "lower"),
    ("self_s", "s", "lower"),
    ("us_per_call", "us", "lower"),
    ("per_block", "count/block", "lower"),
)
#: the other per-layer metrics: name, unit, better
LAYER_METRICS = (
    ("blocks", "count", "higher"),
    ("engine.events", "count", "lower"),
    ("engine.events.per_block", "count/block", "lower"),
    ("engine.fired_ratio", "ratio", "higher"),
    ("engine.pending_peak", "count", "lower"),
    ("network.bytes", "bytes", "lower"),
    ("network.bytes.per_block", "bytes/block", "lower"),
    ("faults.delivered_ratio", "ratio", "higher"),
    ("faults.dropped", "count", "lower"),
    ("faults.dropped.per_block", "count/block", "lower"),
    ("faults.duplicates", "count", "lower"),
    ("faults.duplicates.per_block", "count/block", "lower"),
    ("registry.cache_hit_ratio", "ratio", "higher"),
    ("registry.aggregate_cache_hit_ratio", "ratio", "higher"),
    ("mempool.pending_peak", "count", "lower"),
    ("timers.cancelled_ratio", "ratio", "lower"),
    ("sim_latency_p99", "vtime", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("untraced_remainder_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = [
        (f"{span}.{suffix}", unit, better)
        for span in SPAN_NAMES
        for suffix, unit, better in FUNCTION_METRICS
    ]
    return spec + list(LAYER_METRICS)


class Tracer:
    """Span recorder for one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack = [-1]
        self.active = False
        self.run_id = -1
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self._registries: List[KeyRegistry] = []
        self._timers: List[Any] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, outermost: bool = False,
              observe: Optional[Callable[[tuple, Any], None]] = None) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        tracer = self
        span_name, start, end, parent, run, stack = (
            self.span_name, self.start, self.end, self.parent, self.run, self._stack
        )
        clock = time.perf_counter
        depth = [0]

        def traced(*args, **kwargs):
            if not tracer.active or depth[0]:
                return fn(*args, **kwargs)
            if outermost:
                depth[0] += 1
            index = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
                if outermost:
                    depth[0] -= 1
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner)[attr] if own else None, own))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every entry point in :data:`METHOD_SPANS` and
        :data:`FUNCTION_SPANS`."""
        observers = {
            "engine.schedule": self._observe_schedule,
            "network.send": self._observe_send,
            "faults.transmit": self._observe_transmit,
            "registry.trusted_setup": lambda args, registry: self._registries.append(registry),
            "mempool.submit": self._observe_submit,
            "timers.set_timer": lambda args, handle: self._timers.append(handle.event),
        }
        for name, owner, attr in METHOD_SPANS:
            raw = vars(owner).get(attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, observe=observers.get(name)))
            else:
                wrapped = self._wrap(name, getattr(owner, attr), observe=observers.get(name))
            self._patch(owner, attr, wrapped)
        for name, module, attr, outermost in FUNCTION_SPANS:
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, outermost=outermost)
            for bound_in in list(sys.modules.values()):
                if getattr(bound_in, "__name__", "").startswith("repro") and (
                    vars(bound_in).get(attr) is original
                ):
                    self._patch(bound_in, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _observe_schedule(self, args: tuple, event: Any) -> None:
        self.peaks["engine.pending_peak"] = max(
            self.peaks["engine.pending_peak"], args[0].pending
        )

    def _observe_send(self, args: tuple, _: Any) -> None:
        self.counts["network.bytes"] += args[1].size_bytes

    def _observe_transmit(self, args: tuple, times: List[float]) -> None:
        if times:
            self.counts["faults.delivered"] += 1
            self.counts["faults.duplicates"] += len(times) - 1
        else:
            self.counts["faults.dropped"] += 1

    def _observe_submit(self, args: tuple, _: Any) -> None:
        self.peaks["mempool.pending_peak"] = max(
            self.peaks["mempool.pending_peak"], len(args[0])
        )

    # ------------------------------------------------------------------
    # Recording windows
    # ------------------------------------------------------------------
    @contextmanager
    def window(self, run_id: int) -> Iterator[None]:
        """Record spans for run ``run_id`` inside the block; afterwards
        fold the run's registry and timer state into the counts."""
        self.run_id = run_id
        self.active = True
        try:
            yield
        finally:
            self.active = False
            for registry in self._registries:
                self.counts["registry.hits"] += registry.cache_hits
                self.counts["registry.misses"] += registry.cache_misses
                self.counts["registry.agg_hits"] += registry.agg_cache_hits
                self.counts["registry.agg_misses"] += registry.agg_cache_misses
            self.counts["timers.cancelled"] += sum(1 for event in self._timers if event.cancelled)
            self._registries.clear()
            self._timers.clear()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def span_totals(self) -> Tuple[Counter, Dict[str, float]]:
        """Calls and self seconds per span name.  Children are recorded
        after their parent, so a reverse sweep sees every child's
        duration before it settles the parent's self time."""
        covered = array("d", bytes(8 * len(self.start)))
        self_by_id = [0.0] * len(self.names)
        calls_by_id = [0] * len(self.names)
        start, end, parent, span_name = self.start, self.end, self.parent, self.span_name
        for index in range(len(start) - 1, -1, -1):
            duration = end[index] - start[index]
            self_by_id[span_name[index]] += duration - covered[index]
            calls_by_id[span_name[index]] += 1
            owner = parent[index]
            if owner >= 0:
                covered[owner] += duration
        calls = Counter({name: calls_by_id[i] for i, name in enumerate(self.names)})
        self_s = {name: self_by_id[i] for i, name in enumerate(self.names)}
        return calls, self_s

    def exact_counts(self) -> Dict[str, int]:
        """Every count that must repeat exactly for (code, seed)."""
        calls, _ = self.span_totals()
        counts = {f"{name}.calls": calls[name] for name in SPAN_NAMES}
        counts.update(self.counts)
        counts.update(self.peaks)
        return counts

    def layer_metrics(self, blocks: int, events: int, traced_wall: float,
                      untraced_wall: float, sim_latency_p99: float) -> Dict[str, float]:
        """The per-layer metrics of :func:`per_layer_spec`, by name."""
        calls, self_s = self.span_totals()
        per_block = 1.0 / blocks if blocks else 0.0
        metrics: Dict[str, float] = {}
        for name in SPAN_NAMES:
            count = calls[name]
            seconds = self_s.get(name, 0.0)
            metrics[f"{name}.calls"] = count
            metrics[f"{name}.self_s"] = seconds
            metrics[f"{name}.us_per_call"] = seconds / count * 1e6 if count else 0.0
            metrics[f"{name}.per_block"] = count * per_block
        counts, peaks = self.counts, self.peaks
        transmits = calls["faults.transmit"]
        lookups = counts["registry.hits"] + counts["registry.misses"]
        agg_lookups = counts["registry.agg_hits"] + counts["registry.agg_misses"]
        timers = calls["timers.set_timer"]
        schedules = calls["engine.schedule"]
        metrics.update({
            "blocks": blocks,
            "engine.events": events,
            "engine.events.per_block": events * per_block,
            "engine.fired_ratio": events / schedules if schedules else 0.0,
            "engine.pending_peak": peaks["engine.pending_peak"],
            "network.bytes": counts["network.bytes"],
            "network.bytes.per_block": counts["network.bytes"] * per_block,
            "faults.delivered_ratio": counts["faults.delivered"] / transmits if transmits else 0.0,
            "faults.dropped": counts["faults.dropped"],
            "faults.dropped.per_block": counts["faults.dropped"] * per_block,
            "faults.duplicates": counts["faults.duplicates"],
            "faults.duplicates.per_block": counts["faults.duplicates"] * per_block,
            "registry.cache_hit_ratio": counts["registry.hits"] / lookups if lookups else 0.0,
            "registry.aggregate_cache_hit_ratio": (
                counts["registry.agg_hits"] / agg_lookups if agg_lookups else 0.0
            ),
            "mempool.pending_peak": peaks["mempool.pending_peak"],
            "timers.cancelled_ratio": counts["timers.cancelled"] / timers if timers else 0.0,
            "sim_latency_p99": sim_latency_p99,
            "traced_wall_s": traced_wall,
            "untraced_remainder_s": traced_wall - sum(self_s.values()),
            "trace_overhead": traced_wall / untraced_wall,
        })
        return metrics

    # ------------------------------------------------------------------
    # Span file
    # ------------------------------------------------------------------
    _FIELDS = ("span_name", "start", "end", "parent", "run")

    def write_spans(self, path) -> None:
        """One JSON header line (names, span count, field typecodes),
        then each field's array as raw native-endian bytes."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "byteorder": sys.byteorder,
            "fields": [[field, getattr(self, field).typecode] for field in self._FIELDS],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for field in self._FIELDS:
                getattr(self, field).tofile(handle)


def read_spans(path) -> Tuple[List[str], List[Tuple[str, float, float, int, int]]]:
    """Load a span file as (names, [(name, start, end, parent, run)])."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = []
        for _, typecode in header["fields"]:
            column = array(typecode)
            column.fromfile(handle, header["spans"])
            if header["byteorder"] != sys.byteorder:
                column.byteswap()
            columns.append(column)
    names = header["names"]
    spans = [
        (names[name_id], start, end, parent, run)
        for name_id, start, end, parent, run in zip(*columns)
    ]
    return names, spans
