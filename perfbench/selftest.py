"""Self-test of the benchmark's own checks.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It shows that each workload's checker counts a corrupted output as failed
(one corrupted wire reply, one corrupted CLI ``--output`` file, one
corrupted pool result) while the genuine output passes.  It also checks
that a seed always gives the same input digest and another seed a
different one, and that ``BENCHMARK.json`` lists exactly the metrics the
benchmark reports.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path.cwd() / "src"
sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402

import cli_files  # noqa: E402
import common  # noqa: E402
import process_pool  # noqa: E402
import serve_mix  # noqa: E402


def _clash(bg, colors):
    """``colors`` with one vertex recolored to clash with a net-mate."""
    bad = np.array(colors, dtype=np.int64, copy=True)
    net = int(np.argmax(np.diff(bg.net_to_vtxs.ptr)))
    u, v = bg.vtxs(net)[:2]
    bad[u] = bad[v]
    return bad


def check_serve() -> list[str]:
    st = serve_mix._start(1, serve_mix.MIN_CYCLES, [])
    req = next(r for r in st.seq if r.cls == "numpy")
    try:
        raw, _, _ = serve_mix._drive(st.server, [req])
    finally:
        st.server.close()
    reply = json.loads(raw[0])
    reply["colors"] = _clash(req.graph, reply["colors"]).tolist()
    corrupted = json.dumps(reply).encode() + b"\n"
    good, _, _, _ = serve_mix.check_all(serve_mix.Checker(), [req], raw)
    bad, _, _, _ = serve_mix.check_all(serve_mix.Checker(), [req], [corrupted])
    return _expect("serve-mix reply", good, bad)


def check_cli() -> list[str]:
    st = cli_files._setup(1)
    try:
        kind = ("channel", "bgpc", "exact")
        ops, _ = cli_files._loop(st, [kind], "selftest")
        good, _, _, _ = cli_files._check(st, ops)
        out = ops[0][3]
        colors = np.array(out.read_text().split(), dtype=np.int64)
        out.write_text("".join(f"{c}\n" for c in _clash(st.graphs["channel"], colors)))
        bad, _, _, _ = cli_files._check(st, ops)
    finally:
        cli_files._teardown(st)
    return _expect("cli-files output file", good, bad)


def check_pool() -> list[str]:
    bg = process_pool._meshes(1)[("channel", 0)]
    inputs = {("channel", 0, "bgpc"): bg}
    kind = ("channel", "bgpc", "V-V-64D", "process")
    ops, _ = process_pool._loop(inputs, [(kind, 0)])
    good, _, _ = process_pool._check(inputs, ops)
    result = ops[0][1]
    result.colors = _clash(bg, result.colors)
    bad, _, _ = process_pool._check(inputs, ops)
    return _expect("process-pool result", good, bad)


def _expect(what, good, bad) -> list[str]:
    if good != [False]:
        return [f"{what}: the genuine output was counted as failed"]
    if bad != [True]:
        return [f"{what}: the corrupted output was not counted as failed"]
    print(f"ok: corrupted {what} counted as failed, genuine one passed")
    return []


def check_digests() -> list[str]:
    def serve(seed):
        inputs = serve_mix._Inputs(seed)
        serve_mix._sequence(inputs, 2, serve_mix._warmup_requests(inputs))
        return inputs.digest.hexdigest()

    def cli(seed):
        kinds = cli_files._kinds()
        return cli_files.input_digest(cli_files._graphs(seed),
                                      cli_files._sequence(kinds, 2, seed))

    def pool(seed):
        return process_pool.input_digest(process_pool._meshes(seed),
                                         process_pool._sequence(2, seed))

    errors = []
    for name, fn in (("cli-files", cli), ("serve-mix", serve), ("process-pool", pool)):
        a, b, c = fn(1), fn(1), fn(2)
        if a != b or a == c:
            errors.append(f"{name}: digests {a} {b} (seed 1) {c} (seed 2)")
        else:
            print(f"ok: {name} digest repeats for one seed, differs for another")
    return errors


def check_config() -> list[str]:
    config = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in config["per_layer"]}
    errors = []
    if per_layer != common.PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from common.PER_LAYER")
    metrics, _ = common.end_to_end(setup_s=1, ops=10, wall=1.0,
                                   latencies_ms=[1.0] * 20,
                                   ratios={"k": [1.0]}, rss_mb=1.0,
                                   classes=["k"] * 20)
    e2e = {m["name"]: m["unit"] for m in config["end_to_end"]}
    if e2e != {k: v["unit"] for k, v in metrics.items()}:
        errors.append("BENCHMARK.json end_to_end differs from the reported metrics")
    if not errors:
        print("ok: BENCHMARK.json lists exactly the reported metrics")
    return errors


def main() -> int:
    common.adopt_orphans()
    try:
        errors = (check_config() + check_digests() + check_cli() + check_pool()
                  + check_serve())
    finally:
        common.stop_resource_tracker()
        if not common.reap_children():
            print("FAIL: a child process did not exit")
            return 1
    for error in errors:
        print(f"FAIL: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
