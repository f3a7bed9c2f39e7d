"""``cli-files``: the CLI path, ``.mtx`` load -> rounds -> validation -> output.

One client runs ``repro.cli.main([...])`` in-process in a closed loop over
the eight Table II stand-ins at ``small`` scale: BGPC on all eight and
D2GC on the five symmetric ones, on ``--backend numpy``, alternating
``--fastpath-mode exact`` and ``speculative``, each op writing its colors
with ``--output`` to its own file.  Every output is checked after the
timed loop.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import re
import statistics
import time

import numpy as np

import repro.cli
import repro.obs
from repro.core.bgpc import sequential_bgpc
from repro.core.d2gc import sequential_d2gc
from repro.core.validate import validate_bgpc, validate_d2gc
from repro.datasets.registry import DATASETS
from repro.errors import ReproError
from repro.graph.mmio import write_matrix_market
from repro.graph.ops import bipartite_to_graph
from repro.obs import RecordingTracer

from common import (
    Digest,
    Spans,
    dataset,
    end_to_end,
    make_workdir,
    peak_rss_mb,
    remove_workdir,
    timed_setups,
    workload_rng,
)

NAME = "cli-files"
#: Nominal cycle time on the reference host (36 ops), used only to turn
#: ``--seconds`` into a fixed number of whole cycles.
NOMINAL_CYCLE_S = 3.9
#: Fewest cycles per loop: 4 x 36 ops leaves 14 samples above p90.
MIN_CYCLES = 4
#: The heaviest kind, copapers D2GC, runs six times per cycle, each time
#: with its speculative twin so the modes still alternate.  Its exact ops
#: then hold the top sixth of the latencies, and the p90 rank falls inside
#: that one class instead of on the edge between several heavy kinds.
REPEATS = {("copapers", "d2gc"): 6}
#: Exact-mode rounds whose frontier is at most this big count as "small".
SMALL_FRONTIER = 8

_ROUNDS = re.compile(r"^rounds\s*:\s*(\d+)", re.MULTILINE)


class _Setup:
    def __init__(self, workdir, graphs, paths, kinds, warm):
        self.workdir = workdir
        self.graphs = graphs      # name -> BipartiteGraph
        self.paths = paths        # name -> .mtx path
        self.kinds = kinds        # (name, problem, mode), one per cycle slot
        self.warm = warm


def _kinds():
    kinds = []
    for name, spec in DATASETS.items():
        problems = ("bgpc", "d2gc") if spec.d2gc else ("bgpc",)
        for problem in problems:
            for mode in ("exact", "speculative"):
                kinds += [(name, problem, mode)] * REPEATS.get((name, problem), 1)
    return kinds


def _argv(path, problem, mode, out):
    return [str(path), "--problem", problem, "--backend", "numpy",
            "--fastpath-mode", mode, "--output", str(out)]


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = repro.cli.main(argv)
    return rc, buf.getvalue()


def _graphs(seed: int) -> dict:
    rng = workload_rng(NAME, seed)
    return {name: dataset(name, "small", rng) for name in DATASETS}


def input_digest(graphs: dict, seq) -> str:
    digest = Digest()
    for name in DATASETS:
        digest.graph(graphs[name])
    digest.text(seq)
    return digest.hexdigest()


def _setup(seed: int) -> _Setup:
    workdir = make_workdir(NAME)
    graphs = _graphs(seed)
    paths = {}
    for name in DATASETS:
        paths[name] = workdir / f"{name}.mtx"
        write_matrix_market(graphs[name], paths[name])
    # One untimed op of every op kind (problem x mode), on the smallest
    # symmetric instance.
    warm = []
    for problem in ("bgpc", "d2gc"):
        for mode in ("exact", "speculative"):
            rc, _ = _cli(_argv(paths["kkt"], problem, mode, workdir / "warm.txt"))
            warm.append(rc)
    return _Setup(workdir, graphs, paths, _kinds(), warm)


def _sequence(kinds, cycles, seed):
    """Per cycle: every slot once, exact and speculative ops alternating."""
    rng = workload_rng(NAME, seed, stream=1)
    exact = [k for k in kinds if k[2] == "exact"]
    spec = [k for k in kinds if k[2] == "speculative"]
    seq = []
    for _ in range(cycles):
        e = [exact[i] for i in rng.permutation(len(exact))]
        s = [spec[i] for i in rng.permutation(len(spec))]
        for a, b in zip(e, s):
            seq.extend((a, b))
    return seq


def _loop(st: _Setup, seq, tag: str, spans: Spans | None = None):
    """Run ``seq``; returns per-op (kind, rc, stdout, out path, latency s)."""
    ops = []
    t_loop = time.perf_counter()
    for i, (name, problem, mode) in enumerate(seq):
        out = st.workdir / f"{tag}-{i}.txt"
        argv = _argv(st.paths[name], problem, mode, out)
        if spans is not None:
            argv += ["--trace", str(st.workdir / "trace.jsonl")]
        t0 = time.perf_counter()
        if spans is None:
            rc, text = _cli(argv)
        else:
            rc, text = spans.call("op", _cli, (argv,), attrs={"op": i})
        ops.append(((name, problem, mode), rc, text, out,
                    time.perf_counter() - t0))
    return ops, time.perf_counter() - t_loop


def _check(st: _Setup, ops):
    """Validate every output file; returns (failed flags, ratios, rounds)."""
    refs = {}
    failed = []
    ratios: dict[tuple, list] = {}
    rounds: dict[tuple, set] = {}
    colorings: dict[tuple, set] = {}
    for kind, rc, text, out, _ in ops:
        name, problem, mode = kind
        bg = st.graphs[name]
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc}")
            with open(out, "rb") as fh:
                colors = np.array(fh.read().split(), dtype=np.int64)
            if problem == "bgpc":
                instance = bg
                validate_bgpc(bg, colors)
            else:
                if (name, "graph") not in refs:
                    refs[(name, "graph")] = bipartite_to_graph(bg)
                instance = refs[(name, "graph")]
                validate_d2gc(instance, colors)
            if mode == "exact":
                key = (name, problem)
                if key not in refs:
                    seq_fn = sequential_bgpc if problem == "bgpc" else sequential_d2gc
                    refs[key] = seq_fn(instance).colors
                if not np.array_equal(colors, refs[key]):
                    raise ValueError("exact colors differ from sequential")
            match = _ROUNDS.search(text)
            if match is None:
                raise ValueError("no rounds line in the CLI summary")
            rounds.setdefault(kind, set()).add(int(match.group(1)))
            colorings.setdefault(kind, set()).add(colors.tobytes())
            ratios.setdefault(kind, []).append(
                (int(colors.max()) + 1) / instance.color_lower_bound()
            )
            failed.append(False)
        except (OSError, ValueError, ReproError) as exc:
            print(f"check failed: {kind}: {exc}")
            failed.append(True)
    # numpy is deterministic in both modes: a kind whose round count or
    # colors differ between repetitions makes the workload broken.
    unstable = [k for k in rounds if len(rounds[k]) > 1 or len(colorings[k]) > 1]
    for kind in unstable:
        print(f"exact-count gate: {kind} changed between repetitions")
    return failed, ratios, rounds, unstable


def _teardown(st: _Setup) -> None:
    remove_workdir(st.workdir)


def run(seed: int, seconds: int, trace: bool):
    cycles = max(MIN_CYCLES, round(seconds / NOMINAL_CYCLE_S))
    st, setup_s = timed_setups(lambda: _setup(seed), _teardown)
    try:
        if trace:
            return _traced(st, seed, cycles)
        seq = _sequence(st.kinds, cycles, seed)
        ops, wall = _loop(st, seq, "op")
        rss = peak_rss_mb(children=False)
        failed, ratios, _, unstable = _check(st, ops)
        metrics, info = end_to_end(
            setup_s=setup_s,
            ops=len(ops),
            wall=wall,
            latencies_ms=[o[4] * 1000 for o in ops],
            ratios=ratios,
            rss_mb=rss,
            classes=[_op_class(o[0]) for o in ops],
        )
        info.update(digest=input_digest(st.graphs, seq), cycles=cycles,
                    warmup_ok=all(rc == 0 for rc in st.warm))
        n_failed = sum(failed)
        correct = n_failed == 0 and not unstable and info["warmup_ok"]
        return correct, len(ops), n_failed, metrics, info
    finally:
        _teardown(st)


def _op_class(kind) -> str:
    name, problem, mode = kind
    return f"{problem}/{mode}/{name}"


# -- traced run ---------------------------------------------------------------


class _TimedFile:
    """File handle proxy whose ``with`` block is one ``cli.output`` span."""

    def __init__(self, spans, t0, fh):
        self._spans, self._t0, self._fh = spans, t0, fh

    def __enter__(self):
        return self._fh.__enter__()

    def __exit__(self, *exc):
        result = self._fh.__exit__(*exc)
        self._spans.add("cli.output", time.perf_counter() - self._t0)
        return result


def _install(spans: Spans, tracers: list, results: list):
    """Wrap the CLI's layer calls; returns the undo callback."""
    spans.wrap(repro.cli, "read_matrix_market", "graph.mmio.read")
    spans.wrap(repro.cli, "bipartite_to_graph", "graph.ops.d2gc_build")
    spans.wrap(repro.cli, "validate_bgpc", "core.validate")
    spans.wrap(repro.cli, "validate_d2gc", "core.validate")
    spans.wrap(repro.cli, "color_bgpc", "core.color", keep=results)
    spans.wrap(repro.cli, "color_d2gc", "core.color", keep=results)

    def timed_open(*args, **kwargs):
        t0 = time.perf_counter()
        return _TimedFile(spans, t0, builtins.open(*args, **kwargs))

    repro.cli.open = timed_open

    class MemoryTracer(RecordingTracer):
        """``--trace`` sink that keeps the events in memory."""

        def __init__(self, sink):
            super().__init__()
            tracers.append(self)

        def close(self):
            pass

    saved = repro.obs.JsonlTracer
    repro.obs.JsonlTracer = MemoryTracer

    def undo():
        spans.restore()
        del repro.cli.open
        repro.obs.JsonlTracer = saved

    return undo


def _traced(st: _Setup, seed: int, cycles: int):
    half = max(2, cycles // 2)
    seq = _sequence(st.kinds, half, seed)
    plain_ops, plain_wall = _loop(st, seq, "plain")
    spans, tracers, results = Spans(), [], []
    undo = _install(spans, tracers, results)
    try:
        ops, wall = _loop(st, seq, "traced", spans)
    finally:
        undo()
    failed, _, rounds_seen, unstable = _check(st, plain_ops + ops)
    # The exact counts (work.*, mask_or_words) must repeat for each kind.
    counts: dict[tuple, set] = {}
    if len(results) == len(ops):
        for op, result in zip(ops, results):
            counts.setdefault(op[0], set()).add(
                tuple(sorted(result.work_metrics.items())))
    else:
        print("exact-count gate: an op ended before its color call")
        unstable.append("traced")
    for kind, seen in counts.items():
        if len(seen) > 1:
            print(f"exact-count gate: {kind} work counts changed between repetitions")
            unstable.append(kind)
    n = len(ops)
    per_op = {}
    for name, _, dur, self_t, depth, _ in spans.records:
        per_op[name] = per_op.get(name, 0.0) + self_t
    layout = sum(e.value for t in tracers for e in t.spans("setup"))
    round_spans = [e for t in tracers for e in t.spans("round")]
    round_wall = sum(e.value for e in round_spans)
    exact = [e for e in round_spans if e.attrs.get("mode") == "exact"]
    exact_wall = sum(e.value for e in exact)
    small_wall = sum(e.value for e in exact
                     if e.attrs.get("queue_size", 0) <= SMALL_FRONTIER)
    work = {m: sum(r.work_metrics.get(m, 0) for r in results) / half
            for m in ("probes", "scans", "conflict_checks",
                      "fastpath.mask_or_words")}
    ms = 1000.0 / n
    layers = {
        "graph.mmio.read_ms": per_op.get("graph.mmio.read", 0.0) * ms,
        "graph.ops.d2gc_build_ms": per_op.get("graph.ops.d2gc_build", 0.0) * ms,
        "core.fastpath.layout_ms": layout * ms,
        "core.fastpath.rounds_ms": round_wall * ms,
        "core.driver_ms": (per_op.get("core.color", 0.0) - layout - round_wall) * ms,
        "core.validate_ms": per_op.get("core.validate", 0.0) * ms,
        "cli.output_ms": per_op.get("cli.output", 0.0) * ms,
        "cli.other_ms": per_op.get("op", 0.0) * ms,
    }
    op_ms = statistics.fmean(o[4] for o in ops) * 1000
    values = dict(layers)
    values.update({
        "core.fastpath.rounds": len(round_spans) / half,
        "core.fastpath.round_us": exact_wall / max(1, len(exact)) * 1e6,
        "core.fastpath.small_frontier_share": small_wall / exact_wall if exact_wall else 0.0,
        "core.fastpath.mask_or_words": work["fastpath.mask_or_words"],
        "work.probes": work["probes"],
        "work.scans": work["scans"],
        "work.conflict_checks": work["conflict_checks"],
        "trace.op_ms": op_ms,
        "trace.overhead": (n / wall) / (len(plain_ops) / plain_wall),
    })
    info = {
        "digest": input_digest(st.graphs, seq),
        "traced_ops": n,
        "accounted_ms": sum(layers.values()),
        "rounds_by_kind": {"/".join(k): sorted(v) for k, v in rounds_seen.items()},
    }
    n_failed = sum(failed)
    correct = n_failed == 0 and not unstable
    return correct, len(plain_ops) + n, n_failed, values, info
