"""Shared pieces of the benchmark: inputs, timing, spans and the result line.

Every workload module builds on these helpers:

* seeded input generation from :mod:`repro.datasets.synthetic` (through the
  Table II registry) plus a seeded relabelling, so the inputs are a pure
  function of ``--seed`` while their size and cost stay put;
* a digest of the inputs and the op sequence, printed by every run;
* :class:`Spans`, the benchmark's own span recorder: it wraps a layer's
  public function at the attribute its caller looks up, keeps the spans in
  memory and derives self time (span minus its children);
* percentiles, peak resident set size and the host fingerprint;
* process hygiene: every process a run starts has ended before it exits.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.datasets.registry import DATASETS
from repro.graph.bipartite import BipartiteGraph
from repro.graph.build import csr_from_edges

#: Scratch space for .mtx files, CLI outputs and server traces.  It lives
#: inside the checkout the benchmark runs from and is removed at exit.
WORK_ROOT = Path(".perfbench_work")

#: Workload names in a fixed order; the index salts each workload's seed.
WORKLOADS = ("cli-files", "serve-mix", "process-pool")

#: Full setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


#: Every per-layer metric: name -> (unit, better).  A traced run reports all
#: of them; a layer the workload never calls reads 0 (see WORKLOADS.md).
PER_LAYER = {
    # cli-files
    "graph.mmio.read_ms": ("ms", "lower"),
    "graph.ops.d2gc_build_ms": ("ms", "lower"),
    "core.fastpath.layout_ms": ("ms", "lower"),
    "core.fastpath.rounds_ms": ("ms", "lower"),
    "core.driver_ms": ("ms", "lower"),
    "core.validate_ms": ("ms", "lower"),
    "cli.output_ms": ("ms", "lower"),
    "cli.other_ms": ("ms", "lower"),
    "core.fastpath.rounds": ("count", "lower"),
    "core.fastpath.round_us": ("us", "lower"),
    "core.fastpath.small_frontier_share": ("ratio", "lower"),
    "core.fastpath.mask_or_words": ("count", "lower"),
    # serve-mix
    "service.protocol.parse_ms": ("ms", "lower"),
    "service.fingerprint_ms": ("ms", "lower"),
    "service.encode_ms": ("ms", "lower"),
    "service.wait_ms": ("ms", "lower"),
    "service.cache.hit_ratio": ("ratio", "higher"),
    "service.executed": ("count", "lower"),
    "service.route_share.numpy": ("ratio", "higher"),
    "service.route_share.process": ("ratio", "lower"),
    "service.route_share.sim": ("ratio", "lower"),
    "service.run_ms.numpy": ("ms", "lower"),
    "service.run_ms.process": ("ms", "lower"),
    "service.run_ms.sim": ("ms", "lower"),
    "incremental.apply_ms": ("ms", "lower"),
    "incremental.frontier_ratio": ("ratio", "lower"),
    # process-pool (pool start/close also on serve-mix)
    "process.pool_start_ms": ("ms", "lower"),
    "process.pool_close_ms": ("ms", "lower"),
    "process.loop_ms": ("ms", "lower"),
    "process.other_ms": ("ms", "lower"),
    "process.color_ms": ("ms", "lower"),
    "process.remove_ms": ("ms", "lower"),
    "process.worker_imbalance": ("ratio", "lower"),
    "process.parallel_efficiency": ("ratio", "higher"),
    "process.conflict_ratio": ("ratio", "lower"),
    "shard.partition_ms": ("ms", "lower"),
    "shard.comm_words": ("count", "lower"),
    "shard.comm_messages": ("count", "lower"),
    "shard.supersteps": ("count", "lower"),
    "shard.boundary_share": ("ratio", "lower"),
    # every workload
    "work.probes": ("count", "lower"),
    "work.scans": ("count", "lower"),
    "work.conflict_checks": ("count", "lower"),
    "trace.op_ms": ("ms", "lower"),
    "trace.overhead": ("ratio", "higher"),
}


def layer_metrics(values: dict) -> dict:
    """The full per-layer block: every :data:`PER_LAYER` name, with units."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return {name: metric(values.get(name, 0.0), unit)
            for name, (unit, _) in PER_LAYER.items()}


def host_fingerprint() -> dict:
    """What a result depends on besides the code: cores and versions."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


#: ``prctl`` option that makes a process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A grandchild whose parent exits (the server's resource tracker, say) is
    then re-parented here instead of to init, so :func:`reap_children` can
    wait for it.  Elsewhere this is a no-op.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker and wait for it.

    Creating a shared-memory segment starts the tracker as a child process
    that otherwise outlives its parent for a moment; stopping it is a no-op
    when it never started.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def reap_children(timeout: float = 30.0) -> bool:
    """Wait until this process has no child left; False on timeout."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)


def make_workdir(workload: str) -> Path:
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only succeeds once no other run uses it
    except OSError:
        pass


def workload_rng(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator per (workload, seed, stream)."""
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])


def relabel(bg: BipartiteGraph, rng: np.random.Generator,
            symmetric: bool) -> BipartiteGraph:
    """``bg`` with vertex and net ids permuted by ``rng``.

    A symmetric instance gets one permutation on both sides so it stays a
    valid D2GC input.  Relabelling changes the greedy order, the colors and
    every fingerprint, but not the instance's size or structure, which keeps
    per-op cost steady from seed to seed.
    """
    n2v = bg.net_to_vtxs
    rows = np.repeat(np.arange(n2v.nrows, dtype=np.int64), np.diff(n2v.ptr))
    pv = rng.permutation(bg.num_vertices).astype(np.int64)
    pn = pv if symmetric else rng.permutation(bg.num_nets).astype(np.int64)
    csr = csr_from_edges(pn[rows], pv[n2v.idx], bg.num_nets, bg.num_vertices)
    return BipartiteGraph.from_net_to_vtxs(csr)


def dataset(name: str, scale: str, rng: np.random.Generator) -> BipartiteGraph:
    """A Table II stand-in at ``scale``, relabelled by ``rng``."""
    spec = DATASETS[name]
    return relabel(spec.build(scale), rng, spec.d2gc)


class Digest:
    """sha256 over the inputs and the op sequence of one run."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def graph(self, bg: BipartiteGraph) -> None:
        csr = bg.vtx_to_nets
        self._h.update(csr.ptr.tobytes())
        self._h.update(csr.idx.tobytes())

    def text(self, value) -> None:
        self._h.update(repr(value).encode("utf-8"))

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def _nearest_rank(n: int, q: float) -> int:
    return min(n - 1, max(0, int(np.ceil(q * n)) - 1))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    return sorted(values)[_nearest_rank(len(values), q)]


def rank_class(latencies, classes, q: float) -> str:
    """The op class of the sample at the ``q`` nearest rank."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    return classes[order[_nearest_rank(len(order), q)]]


def peak_rss_mb(*, self_: bool = True, children: bool = True) -> float:
    """Largest peak RSS (MiB) of this process and/or its waited-for children."""
    peaks = []
    if self_:
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if children:
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(peaks) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_setups(setup, teardown):
    """Run ``setup()`` :data:`SETUP_REPEATS` times; keep the last state.

    Returns ``(state, median_seconds)``.  Each earlier state is torn down
    before the next setup starts, outside the timed interval.
    """
    walls = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        t0 = time.perf_counter()
        state = setup()
        walls.append(time.perf_counter() - t0)
    return state, statistics.median(walls)


class Spans:
    """In-memory span recorder with self time, filled by wrapped callables.

    :meth:`wrap` replaces ``owner.attr`` with a timing wrapper; :meth:`restore`
    puts every original back.  Each thread keeps its own stack, so spans
    opened on worker threads nest correctly.  A record is
    ``(name, start, duration, self_time, depth, attrs)``; ``start`` is
    ``time.monotonic()`` so records from another process on the same host
    can be matched against the client's clock.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        stack = self._stack()
        stack.append(0.0)
        start = time.monotonic()
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            dur = time.perf_counter() - t0
            children = stack.pop()
            if stack:
                stack[-1] += dur
            self.records.append(
                (name, start, dur, dur - children, len(stack), attrs or {})
            )

    def add(self, name: str, dur: float, attrs=None) -> None:
        """Record a span measured elsewhere (a child of the open span)."""
        stack = self._stack()
        if stack:
            stack[-1] += dur
        self.records.append(
            (name, time.monotonic(), dur, dur, len(stack), attrs or {})
        )

    def wrap(self, owner, attr: str, name: str, attrs_of=None,
             keep: list | None = None) -> None:
        """Time every call of ``owner.attr``; ``keep`` collects the results."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of is not None else None
            result = self.call(name, original, args, kwargs, attrs)
            if keep is not None:
                keep.append(result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap_engine(self, owner, attr: str = "ProcessPhaseEngine") -> None:
        """Time a pool engine class's construction and :meth:`close`."""
        base = getattr(owner, attr)
        spans = self

        class TimedEngine(base):
            def __init__(self, *args, **kwargs):
                spans.call("process.pool_start", super().__init__, args, kwargs)

            def close(self):
                spans.call("process.pool_close", super().close)

        setattr(owner, attr, TimedEngine)
        self._undo.append((owner, attr, base))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit_result(*, correct: bool, attempted: int, failed: int,
                metrics: dict, info: dict) -> None:
    """Print the run's info line, then the result object as the last line."""
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    sys.stdout.flush()


def end_to_end(*, setup_s, ops, wall, latencies_ms, ratios, rss_mb,
               classes) -> tuple[dict, dict]:
    """The end-to-end metric block plus the info it rests on.

    ``ratios`` maps an op kind to its ``num_colors / L`` values; the metric
    averages each kind once so it does not depend on how often a kind ran.
    """
    kind_means = [statistics.fmean(v) for v in ratios.values() if v]
    p50 = percentile(latencies_ms, 0.5)
    p90 = percentile(latencies_ms, 0.9)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ops / wall, "1/s"),
        "latency_p50_ms": metric(p50, "ms"),
        "latency_p90_ms": metric(p90, "ms"),
        "colors_per_bound": metric(statistics.fmean(kind_means), "ratio"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
    }
    info = {
        "samples": len(latencies_ms),
        "above_p90": sum(1 for v in latencies_ms if v > p90),
        "p50_class": rank_class(latencies_ms, classes, 0.5),
        "p90_class": rank_class(latencies_ms, classes, 0.9),
        "timed_wall_s": wall,
    }
    return metrics, info
