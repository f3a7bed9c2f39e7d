"""``process-pool``: real parallel execution on the shared-memory pool.

One client calls ``color_bgpc`` / ``color_d2gc`` in-process in a closed
loop on the ``medium`` meshes (channel, af_shell, bone): BGPC ``N1-N2`` and
``V-V-64D`` and D2GC ``N1-N2`` on ``backend="process", threads=2``, plus
``backend="sharded"`` with 2 bfs shards on channel and af_shell (twice).
Each op forks its own pool; the instances are big enough that the kernels
outweigh the fork.  No file and no wire is parsed.
"""

from __future__ import annotations

import statistics
import time

import repro.core.backends
import repro.dist.partition
from repro.core.bgpc import color_bgpc
from repro.core.d2gc import color_d2gc
from repro.core.validate import validate_bgpc, validate_d2gc
from repro.errors import ReproError
from repro.graph.ops import bipartite_to_graph
from repro.obs import RecordingTracer

from common import (
    Digest,
    Spans,
    dataset,
    end_to_end,
    peak_rss_mb,
    timed_setups,
    workload_rng,
)

NAME = "process-pool"
MESHES = ("channel", "af_shell", "bone")
#: Sharded ops; af_shell (the slowest kind) runs twice per cycle, so its
#: ops hold the top sixth of the latencies and the p90 rank falls inside
#: that one class.
SHARDED = ("channel", "af_shell", "af_shell")
THREADS = 2
#: Seeded relabellings of each sharded mesh; cycle ``c`` shards relabelling
#: ``c % VARIANTS``.  The bfs partition, and with it a sharded op's cost,
#: depends on the vertex labels (905-1392 boundary vertices on af_shell
#: across seeds), so each run averages over two labellings.  Process ops
#: always use relabelling 0.  Every relabelling holds its own two-hop memo
#: (about 60 MB on these meshes), which is why there are not more.
VARIANTS = 2
#: Nominal cycle time on the reference host (12 ops); see cli_files.
NOMINAL_CYCLE_S = 2.3
#: Fewest cycles per loop: 12 x 12 ops leaves 14 samples above p90.
MIN_CYCLES = 12
WORK = ("probes", "scans", "conflict_checks")
SHARD_COUNTS = ("shard.comm_words", "shard.comm_messages", "shard.supersteps")


def _kinds():
    kinds = []
    for mesh in MESHES:
        kinds += [(mesh, "bgpc", "N1-N2", "process"),
                  (mesh, "bgpc", "V-V-64D", "process"),
                  (mesh, "d2gc", "N1-N2", "process")]
    kinds += [(mesh, "bgpc", "N1-N2", "sharded") for mesh in SHARDED]
    return kinds


def _op(inputs, kind, variant, threads=THREADS, tracer=None):
    mesh, problem, algorithm, backend = kind
    options = {"partitioner": "bfs"} if backend == "sharded" else {}
    fn = color_bgpc if problem == "bgpc" else color_d2gc
    return fn(inputs[(mesh, variant, problem)], algorithm=algorithm,
              threads=threads, backend=backend, tracer=tracer, **options)


def _meshes(seed: int) -> dict:
    """``(mesh, variant) -> BipartiteGraph`` for every seeded relabelling."""
    rng = workload_rng(NAME, seed)
    return {(mesh, v): dataset(mesh, "medium", rng)
            for v in range(VARIANTS) for mesh in MESHES
            if v == 0 or mesh in SHARDED}


def input_digest(meshes: dict, seq) -> str:
    digest = Digest()
    for key in sorted(meshes):
        digest.graph(meshes[key])
    digest.text(seq)
    return digest.hexdigest()


def _setup(seed: int):
    inputs = {}
    for (mesh, v), bg in _meshes(seed).items():
        inputs[(mesh, v, "bgpc")] = bg
        if v == 0:
            inputs[(mesh, v, "d2gc")] = bipartite_to_graph(bg)
    # One untimed op of every op kind (problem x schedule x backend) on the
    # smallest mesh, then one cheap op on every other input, so the
    # per-graph two-hop memo is built before the timed loop.
    for kind in sorted({("channel",) + k[1:] for k in _kinds()}):
        _op(inputs, kind, 0)
    for mesh, v, problem in inputs:
        if mesh != "channel" or v != 0:
            algorithm = "V-V-64D" if problem == "bgpc" else "N1-N2"
            _op(inputs, (mesh, problem, algorithm, "process"), v)
    return inputs


def _sequence(cycles, seed):
    """``(kind, variant)`` pairs: every kind once per cycle, seeded order."""
    rng = workload_rng(NAME, seed, stream=1)
    kinds = _kinds()
    return [(kinds[i], c % VARIANTS if kinds[i][3] == "sharded" else 0)
            for c in range(cycles) for i in rng.permutation(len(kinds))]


def _loop(inputs, seq, spans: Spans | None = None):
    """Run ``seq``; per op ``(kind, result or error, latency s, tracer, variant)``."""
    ops = []
    t_loop = time.perf_counter()
    for kind, variant in seq:
        tracer = RecordingTracer() if spans is not None else None
        t0 = time.perf_counter()
        try:
            if spans is None:
                result = _op(inputs, kind, variant)
            else:
                result = spans.call("op", _op, (inputs, kind, variant),
                                    {"tracer": tracer})
        except ReproError as exc:
            result = exc
        ops.append((kind, result, time.perf_counter() - t0, tracer, variant))
    return ops, time.perf_counter() - t_loop


def _check(inputs, ops, spans: Spans | None = None):
    """Validate every result; gate the counts of the deterministic sharded tier."""
    failed, ratios, counts = [], {}, {}
    for kind, result, _, _, variant in ops:
        mesh, problem = kind[0], kind[1]
        instance = inputs[(mesh, variant, problem)]
        validate = validate_bgpc if problem == "bgpc" else validate_d2gc
        try:
            if isinstance(result, Exception):
                raise result
            if spans is None:
                validate(instance, result.colors)
            else:
                spans.call("core.validate", validate, (instance, result.colors))
            ratios.setdefault(kind, []).append(
                result.num_colors / instance.color_lower_bound()
            )
            if kind[3] == "sharded":
                wm = result.work_metrics
                counts.setdefault((kind, variant), set()).add(
                    (result.colors.tobytes(),)
                    + tuple(wm[m] for m in WORK + SHARD_COUNTS)
                )
            failed.append(False)
        except ReproError as exc:
            print(f"check failed: {kind}: {exc}")
            failed.append(True)
    unstable = [k for k, seen in counts.items() if len(seen) > 1]
    for kind in unstable:
        print(f"exact-count gate: {kind} changed between repetitions")
    return failed, ratios, unstable


def run(seed: int, seconds: int, trace: bool):
    # Whole rounds over the relabellings, so each weighs the same.
    rounds = round(seconds / NOMINAL_CYCLE_S / VARIANTS)
    cycles = max(MIN_CYCLES, rounds * VARIANTS)
    inputs, setup_s = timed_setups(lambda: _setup(seed), lambda st: None)
    meshes = {(mesh, v): bg for (mesh, v, problem), bg in inputs.items()
              if problem == "bgpc"}
    if trace:
        return _traced(inputs, seed, cycles, meshes)
    seq = _sequence(cycles, seed)
    ops, wall = _loop(inputs, seq)
    rss = peak_rss_mb()
    failed, ratios, unstable = _check(inputs, ops)
    metrics, info = end_to_end(
        setup_s=setup_s,
        ops=len(ops),
        wall=wall,
        latencies_ms=[o[2] * 1000 for o in ops],
        ratios=ratios,
        rss_mb=rss,
        classes=["/".join(o[0]) for o in ops],
    )
    info.update(digest=input_digest(meshes, seq), cycles=cycles)
    n_failed = sum(failed)
    return n_failed == 0 and not unstable, len(ops), n_failed, metrics, info


# -- traced run ---------------------------------------------------------------


def _imbalance(tracer) -> float | None:
    """max / mean of the pool workers' task totals (inline tails excluded)."""
    per_worker: dict[int, float] = {}
    for e in tracer.counters("process.worker_tasks"):
        if not e.attrs.get("inline"):
            per_worker[e.attrs["worker"]] = per_worker.get(e.attrs["worker"], 0) + e.value
    if len(per_worker) < 2:
        return None
    return max(per_worker.values()) / statistics.fmean(per_worker.values())


def _traced(inputs, seed: int, cycles: int, meshes: dict):
    half = max(VARIANTS, cycles // 2 // VARIANTS * VARIANTS)
    seq = _sequence(half, seed)
    plain_ops, plain_wall = _loop(inputs, seq)
    spans = Spans()
    spans.wrap_engine(repro.core.backends)
    original_get = repro.dist.partition.get_partitioner

    def get_partitioner(name):
        fn = original_get(name)
        return lambda *a, **k: spans.call("shard.partition", fn, a, k)

    repro.dist.partition.get_partitioner = get_partitioner
    try:
        ops, wall = _loop(inputs, seq, spans)
    finally:
        spans.restore()
        repro.dist.partition.get_partitioner = original_get
    # Same ops at one worker, for parallel efficiency.
    serial = {k: _op(inputs, k, 0, threads=1).wall_seconds
              for k in _kinds() if k[3] == "process"}
    failed, _, unstable = _check(inputs, plain_ops + ops, spans)

    n = len(ops)
    process_ops = [o for o in ops if o[0][3] == "process" and not isinstance(o[1], Exception)]
    sharded_ops = [o for o in ops if o[0][3] == "sharded" and not isinstance(o[1], Exception)]
    self_t = {}
    for name, _, _, st, _, _ in spans.records:
        self_t[name] = self_t.get(name, 0.0) + st
    run_wall = sum(e.value for o in ops for e in o[3].spans("run"))
    phase = {p: sum(e.value for o in process_ops for e in o[3].spans("phase")
                    if e.attrs.get("phase") == p) for p in ("color", "remove")}
    imbalances = [x for x in (_imbalance(o[3]) for o in process_ops) if x is not None]
    queued = sum(r.queue_size for o in process_ops for r in o[1].iterations)
    conflicts = sum(r.conflicts for o in process_ops for r in o[1].iterations)
    wall2 = {}
    for o in process_ops:
        wall2.setdefault(o[0], []).append(o[1].wall_seconds)
    efficiency = statistics.fmean(
        serial[k] / (THREADS * statistics.median(v)) for k, v in wall2.items()
    )
    boundary = sum(o[1].work_metrics["shard.boundary"] for o in sharded_ops)
    vertices = sum(o[1].colors.size for o in sharded_ops)
    per_cycle = {}
    for m in WORK + SHARD_COUNTS:
        per_cycle[m] = sum(o[1].work_metrics.get(m, 0) for o in process_ops + sharded_ops) / half
    ms = 1000.0 / n
    layers = {
        "process.pool_start_ms": self_t.get("process.pool_start", 0.0) * ms,
        "process.pool_close_ms": self_t.get("process.pool_close", 0.0) * ms,
        "shard.partition_ms": self_t.get("shard.partition", 0.0) * ms,
        "process.loop_ms": run_wall * ms,
        "process.other_ms": (self_t.get("op", 0.0) - run_wall) * ms,
    }
    values = dict(layers)
    values.update({
        "process.color_ms": phase["color"] * 1000 / max(1, len(process_ops)),
        "process.remove_ms": phase["remove"] * 1000 / max(1, len(process_ops)),
        "process.worker_imbalance": statistics.fmean(imbalances) if imbalances else 0.0,
        "process.parallel_efficiency": efficiency,
        "process.conflict_ratio": conflicts / queued if queued else 0.0,
        "shard.comm_words": per_cycle["shard.comm_words"],
        "shard.comm_messages": per_cycle["shard.comm_messages"],
        "shard.supersteps": per_cycle["shard.supersteps"],
        "shard.boundary_share": boundary / vertices if vertices else 0.0,
        "core.validate_ms": self_t.get("core.validate", 0.0) * 1000 / len(plain_ops + ops),
        "work.probes": per_cycle["probes"],
        "work.scans": per_cycle["scans"],
        "work.conflict_checks": per_cycle["conflict_checks"],
        "trace.op_ms": statistics.fmean(o[2] for o in ops) * 1000,
        "trace.overhead": (n / wall) / (len(plain_ops) / plain_wall),
    })
    info = {
        "digest": input_digest(meshes, seq),
        "traced_ops": n,
        "accounted_ms": sum(layers.values()),
    }
    n_failed = sum(failed)
    return n_failed == 0 and not unstable, len(plain_ops) + n, n_failed, values, info
