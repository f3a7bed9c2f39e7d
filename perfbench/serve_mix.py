"""``serve-mix``: the service path over the NDJSON wire.

Each run starts ``repro.serve --port 0`` (default router, default 128-entry
cache) through ``serve_launcher.py``, which stops the server's resource
tracker on shutdown, and drives it from one client connection, a closed loop
over a seeded sequence of pre-encoded request lines.  A run times three
such sessions, each on a fresh server, and reports per-metric medians.
Per cycle the mix is:

* ``numpy``   4 fresh ``color`` requests below 50k edges (kkt, web),
  exact and speculative alternating -> routed to ``numpy``;
* ``process`` 3 fresh ``color`` requests of 83k-97k edges (channel,
  af_shell) -> routed to a freshly forked ``process@1``;
* ``policy``  1 fresh ``B1``/``B2`` request (kkt) -> routed to ``sim``;
* ``sim``     1 fresh ``V-V`` request pinned to ``sim`` (kkt), the base of
  this cycle's delta chain;
* ``delta``   2 chained ``delta`` requests against that base -> incremental
  recoloring on ``sim``;
* ``hit``     4 repeats of earlier color requests -> cache hits.

A fresh request carries its own seeded relabelling of the base graph, so
its content fingerprint is new.  Every repeat targets a request that has
already completed, so hits, misses and runs are fixed by the sequence
alone.  The distinct keys of a run stay below the cache capacity, so
nothing is evicted.  One connection, not two: with two, both loops share
the server's one interpreter and a request's latency depended on what the
other connection was running, which made p50 unsteady; the micro-batcher
and request coalescing therefore go unmeasured.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.bgpc import color_bgpc, sequential_bgpc
from repro.core.incremental import recolor_incremental
from repro.core.policies import get_policy
from repro.core.validate import validate_bgpc
from repro.errors import ReproError
from repro.graph.delta import GraphDelta, apply_delta
from repro.service.fingerprint import graph_fingerprint
from repro.service.protocol import delta_to_wire, encode, graph_to_wire

from common import (
    SETUP_REPEATS,
    Digest,
    dataset,
    end_to_end,
    make_workdir,
    metric,
    peak_rss_mb,
    relabel,
    remove_workdir,
    workload_rng,
)

NAME = "serve-mix"
#: Request classes per cycle (see the module docstring).
MIX = {"numpy": 4, "process": 3, "policy": 1, "sim": 1, "delta": 2, "hit": 4}
NUMPY_BASES = ("kkt", "web")
PROCESS_BASES = ("channel", "af_shell")
CHAIN_BASE = "kkt"
#: The service's default cache capacity; a run must stay below it.
CACHE_CAPACITY = 128
#: Nominal cycle time on the reference host; see cli_files.
NOMINAL_CYCLE_S = 1.0
#: Fewest cycles per session: 8 x 15 = 120 requests leave 12 above p90.
MIN_CYCLES = 8
#: Edges inserted / deleted by each delta request.
DELTA_INSERTS, DELTA_DELETES = 3, 2
TIMEOUT_S = 120.0
LAUNCHER = str(Path(__file__).resolve().parent / "serve_launcher.py")
FRESH_PER_CYCLE = (MIX["numpy"] + MIX["process"] + MIX["policy"] + MIX["sim"]
                   + MIX["delta"])
#: Warm-up keys: one numpy, process, policy and sim request plus one delta.
WARM_KEYS = 5
MAX_CYCLES = (CACHE_CAPACITY - 1 - WARM_KEYS) // FRESH_PER_CYCLE
BACKEND_OF = {"numpy": "numpy", "process": "process", "policy": "sim",
              "sim": "sim", "delta": "sim"}


@dataclass
class Request:
    cls: str
    line: bytes
    graph: object = None            # graph the reply colors (after a delta:
    #                                 the mutated graph)
    options: dict = field(default_factory=dict)
    target: "Request | None" = None  # hit: the repeated request;
    #                                  delta: the request it mutates
    delta: GraphDelta | None = None
    fingerprint: str = ""           # delta: expected mutated fingerprint


class _Inputs:
    """Seeded base graphs and the per-request relabelling stream."""

    def __init__(self, seed: int):
        self.rng = workload_rng(NAME, seed)
        # The request order is part of the workload, the same for every
        # seed; the seed changes the graphs.  With a per-seed order the
        # server's peak RSS moved by 6% from seed to seed.
        self.order = workload_rng(NAME, 0, stream=1)
        self.bases = {name: dataset(name, "small", self.rng)
                      for name in NUMPY_BASES + PROCESS_BASES}
        self.ids = iter(range(1, 1 << 30))
        self.digest = Digest()

    def color(self, cls, base, **options) -> Request:
        graph = relabel(self.bases[base], self.rng, symmetric=False)
        payload = {"op": "color", "id": next(self.ids),
                   "graph": graph_to_wire(graph), **options}
        self.digest.graph(graph)
        self.digest.text(sorted(options.items()))
        return Request(cls, encode(payload), graph, options)

    def delta(self, target: Request, fingerprint: str) -> Request:
        base = target.graph
        v2n = base.vtx_to_nets
        present = set(zip(np.repeat(np.arange(v2n.nrows), np.diff(v2n.ptr)).tolist(),
                          v2n.idx.tolist()))
        inserts = set()
        while len(inserts) < DELTA_INSERTS:
            edge = (int(self.rng.integers(base.num_vertices)),
                    int(self.rng.integers(base.num_nets)))
            if edge not in present:
                inserts.add(edge)
        ordered = sorted(present)
        deletes = [ordered[i] for i in self.rng.choice(len(ordered), DELTA_DELETES,
                                                         replace=False)]
        delta = GraphDelta(insert=sorted(inserts), delete=deletes)
        mutated = apply_delta(base, delta)
        payload = {"op": "delta", "id": next(self.ids), "fingerprint": fingerprint,
                   "delta": delta_to_wire(delta), "algorithm": "V-V"}
        self.digest.text(payload)
        return Request("delta", encode(payload), mutated, {"algorithm": "V-V"},
                       target=target, delta=delta,
                       fingerprint=graph_fingerprint(mutated))


def _chain(inputs: _Inputs, length: int) -> list[Request]:
    """A fresh sim ``V-V`` base followed by ``length`` chained deltas."""
    base = inputs.color("sim", CHAIN_BASE, algorithm="V-V", backend="sim")
    chain = [base]
    fingerprint = graph_fingerprint(base.graph)
    for _ in range(length):
        step = inputs.delta(chain[-1], fingerprint)
        fingerprint = step.fingerprint
        chain.append(step)
    return chain


def _warmup_requests(inputs: _Inputs) -> list[Request]:
    """One request of every op kind, on keys the timed loop never uses."""
    reqs = [inputs.color("numpy", "kkt", fastpath_mode="exact"),
            inputs.color("process", "channel"),
            inputs.color("policy", "kkt", policy="B1")]
    reqs += _chain(inputs, 1)
    reqs.append(Request("hit", reqs[0].line, reqs[0].graph, reqs[0].options,
                        target=reqs[0]))
    return reqs


def _sequence(inputs: _Inputs, cycles: int, warm: list[Request]) -> list[Request]:
    """``cycles`` shuffled copies of :data:`MIX`."""
    seq: list[Request] = []
    colored = [r for r in warm if r.cls in ("numpy", "process")]
    counter = {"numpy": 0, "process": 0, "policy": 0}
    for _ in range(cycles):
        slots = [cls for cls, n in MIX.items() for _ in range(n)
                 if cls not in ("sim", "delta")]
        slots += ["chain"] * (1 + MIX["delta"])
        slots = [slots[i] for i in inputs.order.permutation(len(slots))]
        chain = iter(_chain(inputs, MIX["delta"]))
        for slot in slots:
            if slot == "chain":
                req = next(chain)
            elif slot == "hit":
                target = colored[int(inputs.order.integers(len(colored)))]
                req = Request("hit", target.line, target.graph,
                              target.options, target=target)
                inputs.digest.text(("hit", target.line[-40:]))
            elif slot == "numpy":
                i = counter["numpy"] = counter["numpy"] + 1
                req = inputs.color(
                    "numpy", NUMPY_BASES[i % len(NUMPY_BASES)],
                    fastpath_mode=("exact", "speculative")[(i // 2) % 2])
                colored.append(req)
            elif slot == "process":
                i = counter["process"] = counter["process"] + 1
                req = inputs.color("process", PROCESS_BASES[i % len(PROCESS_BASES)])
                colored.append(req)
            else:
                i = counter["policy"] = counter["policy"] + 1
                req = inputs.color("policy", "kkt", policy=("B1", "B2")[i % 2])
            seq.append(req)
    return seq


# -- server and wire ----------------------------------------------------------


class Server:
    """One ``repro.serve`` subprocess and the client connection to it."""

    def __init__(self, argv: list[str]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path("src").resolve())]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER] + argv + ["--port", "0"],
            stdout=subprocess.PIPE, env=env, text=True, process_group=0)
        self.sock = None
        banner = self.proc.stdout.readline()
        if not banner.startswith("serving on "):
            self.close()
            raise RuntimeError(f"server did not start: {banner!r}")
        host, port = banner.split()[-1].rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=TIMEOUT_S)
        self._file = self.sock.makefile("rb")

    def send(self, line: bytes) -> bytes:
        """Send one request line; return the raw reply line."""
        self.sock.sendall(line)
        reply = self._file.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply

    def request(self, payload) -> dict:
        line = payload if isinstance(payload, bytes) else encode(payload)
        return json.loads(self.send(line))

    def close(self) -> None:
        """Shut the server down and wait for it (killing it if it hangs).

        Anything the server left running in its process group is killed;
        the run's final :func:`common.reap_children` waits for it.
        """
        if self.sock is not None:
            try:
                if self.proc.poll() is None:
                    self.request({"op": "shutdown"})
            except (OSError, ValueError):
                pass
            self._file.close()
            self.sock.close()
            self.sock = None
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _drive(server: Server, seq: list[Request]):
    """The closed loop: ``(raw replies, send-to-reply seconds, wall)``."""
    replies, lats = [], []
    t_loop = time.perf_counter()
    for req in seq:
        t0 = time.perf_counter()
        replies.append(server.send(req.line))
        lats.append(time.perf_counter() - t0)
    return replies, lats, time.perf_counter() - t_loop


# -- checks -------------------------------------------------------------------


class Checker:
    """Validates replies and compares deterministic ones with direct calls."""

    def __init__(self):
        self._direct: dict[int, object] = {}

    def direct(self, req: Request):
        """The direct library call for ``req`` (memoized per request)."""
        key = id(req.target if req.cls == "hit" else req)
        if key in self._direct:
            return self._direct[key]
        if req.cls == "hit":
            result = self.direct(req.target)
        elif req.cls == "delta":
            base = self.direct(req.target)
            result = recolor_incremental(
                req.target.graph, base.colors, req.delta, algorithm="V-V", backend="sim",
                threads=1).result
        else:
            policy = req.options.get("policy", "U")
            result = color_bgpc(
                req.graph,
                algorithm=req.options.get("algorithm", "N1-N2"),
                threads=1,
                policy=None if policy == "U" else get_policy(policy),
                backend=BACKEND_OF[req.cls],
                fastpath_mode=req.options.get("fastpath_mode", "exact"),
            )
        self._direct[key] = result
        return result

    def check(self, req: Request, raw: bytes) -> dict:
        """Raise ``ValueError`` unless ``raw`` is a correct reply to ``req``."""
        reply = json.loads(raw)
        if not reply.get("ok"):
            raise ValueError(f"error reply: {reply.get('error')}")
        if reply["backend"] != BACKEND_OF[req.cls if req.cls != "hit" else req.target.cls]:
            raise ValueError(f"routed to {reply['backend']}")
        if req.cls == "hit" and not reply["cached"]:
            raise ValueError("repeat was not served from cache")
        if req.cls != "hit" and (reply["cached"] or reply["coalesced"]):
            raise ValueError("fresh request was not executed")
        colors = np.asarray(reply["colors"], dtype=np.int64)
        validate_bgpc(req.graph, colors)
        if reply["num_colors"] != int(colors.max()) + 1:
            raise ValueError("num_colors disagrees with the colors")
        if req.cls == "delta" and reply["fingerprint"] != req.fingerprint:
            raise ValueError("delta reply names the wrong mutated graph")
        # Every tier here is deterministic (numpy, sim, process at one
        # worker): the reply must equal the direct call.
        direct = self.direct(req)
        if not np.array_equal(colors, direct.colors):
            raise ValueError("colors differ from the direct call")
        if req.cls != "hit":
            for m in ("probes", "scans", "conflict_checks"):
                if reply["work_metrics"].get(m) != direct.work_metrics.get(m):
                    raise ValueError(f"work.{m} differs from the direct call")
        if req.options.get("fastpath_mode", "exact") == "exact" and req.cls == "numpy":
            if not np.array_equal(colors, sequential_bgpc(req.graph).colors):
                raise ValueError("numpy exact colors differ from sequential")
        return reply


def check_all(checker: Checker, seq, replies):
    """(failed flags, ratios by class, frontier ratios, decoded replies)."""
    failed, ratios, frontier, decoded = [], {}, [], []
    for req, raw in zip(seq, replies):
        try:
            reply = checker.check(req, raw)
        except (ValueError, KeyError, TypeError, ReproError) as exc:
            print(f"check failed: {req.cls} request: {exc}")
            failed.append(True)
            decoded.append(None)
            continue
        failed.append(False)
        decoded.append(reply)
        ratios.setdefault(req.cls, []).append(
            reply["num_colors"] / req.graph.color_lower_bound())
        if req.cls == "delta":
            frontier.append(reply["frontier_size"] / req.graph.num_vertices)
    return failed, ratios, frontier, decoded


def expected_counts(seq) -> dict:
    """Service counter deltas the sequence must produce, exactly."""
    n = {cls: sum(1 for r in seq if r.cls == cls) for cls in MIX}
    fresh = n["numpy"] + n["process"] + n["policy"] + n["sim"]
    backends: dict[str, int] = {}
    for r in seq:
        b = BACKEND_OF[r.cls if r.cls != "hit" else r.target.cls]
        backends[b] = backends.get(b, 0) + 1
    return {
        "requests": sum(n.values()),
        "executed": fresh + n["delta"],
        "coalesced": 0,
        # A delta looks up its base (a hit) and its mutated key (a miss).
        "hits": n["hit"] + n["delta"],
        "misses": fresh + n["delta"],
        "evictions": 0,
        "backends": backends,
    }


def counter_deltas(before: dict, after: dict) -> dict:
    b, a = before["stats"], after["stats"]
    return {
        "requests": a["requests"] - b["requests"],
        "executed": a["executed"] - b["executed"],
        "coalesced": a["coalesced"] - b["coalesced"],
        "hits": a["cache"]["hits"] - b["cache"]["hits"],
        "misses": a["cache"]["misses"] - b["cache"]["misses"],
        "evictions": a["cache"]["evictions"] - b["cache"]["evictions"],
        "backends": {k: v - b["backends"].get(k, 0)
                     for k, v in a["backends"].items()
                     if v - b["backends"].get(k, 0)},
    }


# -- runs ---------------------------------------------------------------------


class _Setup:
    def __init__(self, inputs, seq, server):
        self.inputs, self.seq, self.server = inputs, seq, server


def _start(seed: int, cycles: int, argv) -> _Setup:
    inputs = _Inputs(seed)
    warm = _warmup_requests(inputs)
    seq = _sequence(inputs, cycles, warm)
    server = Server(argv)
    try:
        for req in warm:
            reply = server.request(req.line)
            if not reply.get("ok"):
                raise RuntimeError(f"warm-up {req.cls} failed: {reply.get('error')}")
    except BaseException:
        server.close()
        raise
    return _Setup(inputs, seq, server)


def _session(st: _Setup):
    """Timed loop between two ``stats`` snapshots, then shutdown."""
    try:
        before = st.server.request({"op": "stats"})
        t_start = time.monotonic()
        replies, lats, wall = _drive(st.server, st.seq)
        t_end = time.monotonic()
        after = st.server.request({"op": "stats"})
    finally:
        st.server.close()
    return replies, lats, wall, before, after, (t_start, t_end)


def _cycles(seconds: int) -> int:
    """Cycles per timed session; :data:`SETUP_REPEATS` sessions share ``seconds``."""
    per_session = seconds / SETUP_REPEATS / NOMINAL_CYCLE_S
    return min(MAX_CYCLES, max(MIN_CYCLES, round(per_session)))


def _median_block(blocks: list[dict]) -> dict:
    """Per-metric median over the sessions' end-to-end blocks."""
    return {name: metric(statistics.median(b[name]["value"] for b in blocks),
                         blocks[0][name]["unit"])
            for name in blocks[0]}


def run(seed: int, seconds: int, trace: bool):
    """:data:`SETUP_REPEATS` fresh setups, each followed by a timed session.

    Every setup builds the same inputs and a fresh server, so each session
    replays the same request sequence on an empty cache.  ``setup_s`` and
    every timed metric are medians over the sessions, which keeps one
    disturbed session from moving the run.
    """
    cycles = _cycles(seconds)
    if trace:
        return _traced(seed, cycles)
    sessions, walls, seq = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        st = _start(seed, cycles, [])
        walls.append(time.perf_counter() - t0)
        if seq is not None and [r.line for r in st.seq] != [r.line for r in seq]:
            st.server.close()
            raise RuntimeError("setups of one seed built different requests")
        seq, digest = st.seq, st.inputs.digest.hexdigest()
        sessions.append(_session(st))
    setup_s = statistics.median(walls)
    rss = peak_rss_mb(self_=False)
    checker = Checker()
    expected = expected_counts(seq)
    classes = [r.cls for r in seq]
    n_failed, attempted, gate_ok = 0, 0, True
    blocks, pooled = [], []
    for replies, lats, wall, before, after, _ in sessions:
        failed, ratios, _, _ = check_all(checker, seq, replies)
        n_failed += sum(failed)
        attempted += len(failed)
        counts = counter_deltas(before, after)
        if counts != expected:
            gate_ok = False
            print(f"exact-count gate: service counters {counts} != expected {expected}")
        lat_ms = [x * 1000 for x in lats]
        pooled += lat_ms
        block, _ = end_to_end(setup_s=setup_s, ops=len(lats), wall=wall,
                              latencies_ms=lat_ms, ratios=ratios, rss_mb=rss,
                              classes=classes)
        blocks.append(block)
    _, info = end_to_end(setup_s=setup_s, ops=len(pooled),
                         wall=sum(s[2] for s in sessions), latencies_ms=pooled,
                         ratios={"all": [1.0]}, rss_mb=rss,
                         classes=classes * len(sessions))
    info.update(digest=digest, cycles=cycles, sessions=len(sessions),
                service_counts=counts)
    return n_failed == 0 and gate_ok, attempted, n_failed, _median_block(blocks), info


def _traced(seed: int, cycles: int):
    half = max(2, cycles // 2)
    plain = _start(seed, half, [])
    p_replies, p_lats, p_wall, _, _, _ = _session(plain)
    workdir = make_workdir(NAME)
    try:
        trace_path = workdir / "server-trace.json"
        st = _start(seed, half, ["--spans", str(trace_path)])
        replies, lats, wall, before, after, window = _session(st)
        with open(trace_path, encoding="utf-8") as fh:
            server_trace = json.load(fh)
    finally:
        remove_workdir(workdir)
    checker = Checker()
    p_failed, _, _, _ = check_all(checker, plain.seq, p_replies)
    checker = Checker()
    failed, _, frontier, decoded = check_all(checker, st.seq, replies)
    counts = counter_deltas(before, after)
    expected = expected_counts(st.seq)
    gate_ok = counts == expected
    if not gate_ok:
        print(f"exact-count gate: service counters {counts} != expected {expected}")

    t0, t1 = window
    records = [r for r in server_trace["spans"] if t0 <= r[1] <= t1]
    n = len(lats)
    latency_ms = sum(lats) * 1000
    self_t: dict[str, float] = {}
    run_by: dict[str, list] = {}
    for name, _, dur, self_time, depth, attrs in records:
        self_t[name] = self_t.get(name, 0.0) + self_time
        if name == "service.run":
            run_by.setdefault(attrs["backend"], []).append(dur)
    top = sum(r[2] for r in records if r[4] == 0) * 1000
    n_delta = sum(1 for r in st.seq if r.cls == "delta")
    pools = sum(1 for r in records if r[0] == "process.pool_start")
    work = {m: 0 for m in ("probes", "scans", "conflict_checks")}
    for reply in decoded:
        if reply is not None:
            for m in work:
                work[m] += reply["work_metrics"].get(m, 0)
    values = {
        "service.protocol.parse_ms": self_t.get("service.protocol.parse", 0.0) * 1000 / n,
        "service.fingerprint_ms": self_t.get("service.fingerprint", 0.0) * 1000 / n,
        "service.encode_ms": self_t.get("service.encode", 0.0) * 1000 / n,
        "service.wait_ms": (latency_ms - top) / n,
        "service.cache.hit_ratio": counts["hits"] / (counts["hits"] + counts["misses"]),
        "service.executed": counts["executed"] / half,
        "incremental.apply_ms": self_t.get("incremental.apply", 0.0) * 1000 / max(1, n_delta),
        "incremental.frontier_ratio": statistics.fmean(frontier) if frontier else 0.0,
        "process.pool_start_ms": self_t.get("process.pool_start", 0.0) * 1000 / max(1, pools),
        "process.pool_close_ms": self_t.get("process.pool_close", 0.0) * 1000 / max(1, pools),
        "work.probes": work["probes"] / half,
        "work.scans": work["scans"] / half,
        "work.conflict_checks": work["conflict_checks"] / half,
        "trace.op_ms": latency_ms / n,
        "trace.overhead": (n / wall) / (len(p_lats) / p_wall),
    }
    for backend in ("numpy", "process", "sim"):
        values[f"service.route_share.{backend}"] = (
            counts["backends"].get(backend, 0) / counts["requests"])
        runs = run_by.get(backend, [])
        values[f"service.run_ms.{backend}"] = (
            statistics.fmean(runs) * 1000 if runs else 0.0)
    info = {
        "digest": st.inputs.digest.hexdigest(),
        "traced_ops": n,
        "server_layers_ms": top / n,
        "accounted_ms": top / n + values["service.wait_ms"],
        "service_counts": counts,
        "server_peak_rss_mb": server_trace["peak_rss_mb"],
    }
    n_failed = sum(failed) + sum(p_failed)
    attempted = len(failed) + len(p_failed)
    return n_failed == 0 and gate_ok, attempted, n_failed, values, info
