"""The vectorized NumPy backend: parity, validity, determinism, dispatch.

The contract under test (docs/backends.md):

* ``exact`` mode is byte-identical to the sequential reference — same
  colors, same palette size — on every fixture, both problems;
* ``speculative`` mode is conflict-free and deterministic;
* ``run_speculative(..., backend="numpy")`` (default exact mode) is
  conflict-free and never uses more colors than the sequential reference;
* the backend-selection layer rejects what the fast path cannot honour
  (unknown backends/modes, B1/B2 balancing policies).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    color_bgpc,
    color_d2gc,
    fastpath_color_bgpc,
    fastpath_color_d2gc,
    sequential_bgpc,
    sequential_d2gc,
)
from repro.core.bgpc.runner import BGPC_ALGORITHMS, BGPCAdapter
from repro.core.d2gc.runner import D2GCAdapter
from repro.core.driver import run_speculative
from repro.core.fastpath import d2gc_groups_csr, run_fastpath
from repro.core.policies import B1Policy
from repro.core.validate import validate_bgpc, validate_d2gc
from repro.errors import ColoringError
from repro.graph.build import bipartite_from_dense
from repro.machine.cost import CostModel

BIPARTITE_FIXTURES = ["tiny_bipartite", "small_bipartite", "medium_bipartite"]
GRAPH_FIXTURES = ["path_graph", "star_graph", "small_graph"]


# ---------------------------------------------------------------------------
# parity: exact mode reproduces the sequential reference byte-for-byte
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", BIPARTITE_FIXTURES)
def test_bgpc_exact_matches_sequential(fixture, request):
    bg = request.getfixturevalue(fixture)
    seq = sequential_bgpc(bg)
    fast = fastpath_color_bgpc(bg, mode="exact")
    validate_bgpc(bg, fast.colors)
    assert np.array_equal(fast.colors, seq.colors)
    assert fast.num_colors == seq.num_colors


@pytest.mark.parametrize("fixture", GRAPH_FIXTURES)
def test_d2gc_exact_matches_sequential(fixture, request):
    g = request.getfixturevalue(fixture)
    seq = sequential_d2gc(g)
    fast = fastpath_color_d2gc(g, mode="exact")
    validate_d2gc(g, fast.colors)
    assert np.array_equal(fast.colors, seq.colors)
    assert fast.num_colors == seq.num_colors


@pytest.mark.parametrize("fixture", BIPARTITE_FIXTURES)
def test_backend_numpy_conflict_free_and_no_more_colors(fixture, request):
    """The ISSUE acceptance shape: conflict-free, <= sequential palette."""
    bg = request.getfixturevalue(fixture)
    seq = sequential_bgpc(bg)
    result = color_bgpc(bg, backend="numpy")
    validate_bgpc(bg, result.colors)
    assert result.num_colors <= seq.num_colors
    assert result.backend == "numpy"
    assert result.cycles == 0.0
    assert result.wall_seconds >= 0.0


@pytest.mark.parametrize("fixture", GRAPH_FIXTURES)
def test_backend_numpy_d2gc_conflict_free_and_no_more_colors(fixture, request):
    g = request.getfixturevalue(fixture)
    seq = sequential_d2gc(g)
    result = color_d2gc(g, backend="numpy")
    validate_d2gc(g, result.colors)
    assert result.num_colors <= seq.num_colors
    assert result.backend == "numpy"


# ---------------------------------------------------------------------------
# speculative mode: valid, terminating, deterministic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", BIPARTITE_FIXTURES)
def test_bgpc_speculative_valid(fixture, request):
    bg = request.getfixturevalue(fixture)
    result = fastpath_color_bgpc(bg, mode="speculative")
    validate_bgpc(bg, result.colors)
    assert result.algorithm == "fastpath-speculative"
    # the last round must report zero conflicts (that is why it was last)
    assert result.iterations[-1].conflicts == 0


@pytest.mark.parametrize(
    "pattern",
    [[[1, 0], [0, 1], [0, 0]], [[0, 0], [0, 0]], [[0], [0]]],
    ids=["trailing-empty-net", "edgeless", "edgeless-one-vertex"],
)
def test_bgpc_speculative_degenerate(pattern):
    """A trailing empty net and edgeless graphs color without IndexError."""
    bg = bipartite_from_dense(np.array(pattern))
    result = color_bgpc(bg, "N1-N2", backend="numpy", fastpath_mode="speculative")
    validate_bgpc(bg, result.colors)


@pytest.mark.parametrize("fixture", GRAPH_FIXTURES)
def test_d2gc_speculative_valid(fixture, request):
    g = request.getfixturevalue(fixture)
    result = fastpath_color_d2gc(g, mode="speculative")
    validate_d2gc(g, result.colors)


@pytest.mark.parametrize("mode", ["exact", "speculative"])
def test_deterministic_across_runs(medium_bipartite, mode):
    """Same input, same mode -> bit-identical colors and round records."""
    a = fastpath_color_bgpc(medium_bipartite, mode=mode)
    b = fastpath_color_bgpc(medium_bipartite, mode=mode)
    assert np.array_equal(a.colors, b.colors)
    assert [(r.queue_size, r.conflicts) for r in a.iterations] == [
        (r.queue_size, r.conflicts) for r in b.iterations
    ]


def test_speculative_fewer_rounds_than_exact(medium_bipartite):
    """The optimistic template converges in a handful of rounds."""
    exact = fastpath_color_bgpc(medium_bipartite, mode="exact")
    spec = fastpath_color_bgpc(medium_bipartite, mode="speculative")
    assert spec.num_iterations < exact.num_iterations


# ---------------------------------------------------------------------------
# orderings and edge cases
# ---------------------------------------------------------------------------


def test_exact_with_ordering_matches_ordered_sequential(medium_bipartite):
    order = np.arange(medium_bipartite.num_vertices)[::-1].copy()
    seq = sequential_bgpc(medium_bipartite, order=order)
    fast = color_bgpc(medium_bipartite, backend="numpy", order=order)
    validate_bgpc(medium_bipartite, fast.colors)
    assert np.array_equal(fast.colors, seq.colors)


def test_degree_zero_vertices_get_color_zero():
    # vertex 2 touches no net; sequential greedy gives it color 0
    pattern = np.array([[1, 1, 0, 0], [0, 0, 0, 1]])
    bg = bipartite_from_dense(pattern)
    seq = sequential_bgpc(bg)
    for mode in ("exact", "speculative"):
        fast = fastpath_color_bgpc(bg, mode=mode)
        validate_bgpc(bg, fast.colors)
        assert fast.colors[2] == 0
    assert np.array_equal(fastpath_color_bgpc(bg, mode="exact").colors, seq.colors)


def test_unsorted_member_lists_are_handled():
    """run_fastpath must not rely on member lists arriving sorted."""
    from repro.graph.csr import CSR

    # two groups with deliberately descending member lists
    groups = CSR(np.array([0, 3, 5]), np.array([4, 2, 0, 3, 1]), 5)
    for mode in ("exact", "speculative"):
        colors, _ = run_fastpath(groups, mode=mode)
        assert colors.min() >= 0
        assert len(set(colors[[4, 2, 0]].tolist())) == 3
        assert len(set(colors[[3, 1]].tolist())) == 2
    exact_colors, _ = run_fastpath(groups, mode="exact")
    # sequential natural order over the same constraints
    assert exact_colors.tolist() == [0, 0, 1, 1, 2]


def test_d2gc_groups_csr_shape(path_graph):
    groups = d2gc_groups_csr(path_graph)
    assert groups.nrows == path_graph.num_vertices
    assert groups.ncols == path_graph.num_vertices
    # row v holds {v} U nbor(v)
    row1 = sorted(groups.idx[groups.ptr[1] : groups.ptr[2]].tolist())
    assert row1 == [0, 1, 2]


# ---------------------------------------------------------------------------
# backend-selection layer
# ---------------------------------------------------------------------------


def test_driver_dispatch_numpy(small_bipartite):
    adapter = BGPCAdapter(small_bipartite, CostModel())
    result = run_speculative(
        adapter, BGPC_ALGORITHMS["N1-N2"], threads=8, backend="numpy"
    )
    validate_bgpc(small_bipartite, result.colors)
    assert result.backend == "numpy"
    assert result.algorithm == "N1-N2"
    seq = sequential_bgpc(small_bipartite)
    assert np.array_equal(result.colors, seq.colors)


def test_driver_dispatch_d2gc_adapter(small_graph):
    adapter = D2GCAdapter(small_graph, CostModel())
    result = run_speculative(
        adapter, BGPC_ALGORITHMS["V-V"], threads=4, backend="numpy"
    )
    validate_d2gc(small_graph, result.colors)
    assert result.backend == "numpy"


def test_sim_backend_unchanged(small_bipartite):
    """backend='sim' must be the default and keep producing cycles."""
    default = color_bgpc(small_bipartite, threads=4)
    explicit = color_bgpc(small_bipartite, threads=4, backend="sim")
    assert default.backend == explicit.backend == "sim"
    assert default.cycles == explicit.cycles > 0
    assert np.array_equal(default.colors, explicit.colors)


def test_unknown_backend_rejected(small_bipartite):
    with pytest.raises(ColoringError, match="unknown backend"):
        color_bgpc(small_bipartite, backend="cuda")


def test_unknown_mode_rejected(small_bipartite):
    with pytest.raises(ColoringError, match="unknown fastpath mode"):
        color_bgpc(small_bipartite, backend="numpy", fastpath_mode="bogus")


def test_balancing_policy_rejected_on_numpy_backend(small_bipartite):
    with pytest.raises(ColoringError, match="first-fit"):
        color_bgpc(small_bipartite, backend="numpy", policy=B1Policy())


def test_bench_runner_backend_in_cache_key():
    from repro.bench import clear_cache
    from repro.bench.runner import run_algorithm

    clear_cache()
    sim = run_algorithm("channel", "N1-N2", 8, "tiny")
    fast = run_algorithm("channel", "N1-N2", 8, "tiny", backend="numpy")
    assert sim.backend == "sim" and fast.backend == "numpy"
    assert sim.cycles > 0 and fast.cycles == 0
    clear_cache()


def test_cli_backend_flag(tmp_path, capsys):
    from repro.cli import main
    from repro.datasets import random_bipartite
    from repro.graph.mmio import write_matrix_market

    mtx = tmp_path / "inst.mtx"
    write_matrix_market(random_bipartite(30, 40, density=0.1, seed=1), str(mtx))
    assert main([str(mtx), "--backend", "numpy"]) == 0
    out = capsys.readouterr().out
    assert "numpy backend" in out
    assert "wall" in out


class TestScipyFree:
    """The bitset rewrite removed scipy from the hot path entirely: both
    fastpath modes must run with scipy neither imported nor importable."""

    def test_speculative_runs_without_scipy(
        self, medium_bipartite, monkeypatch
    ):
        import builtins
        import sys

        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
            monkeypatch.delitem(sys.modules, name)
        real_import = builtins.__import__

        def guarded(name, *args, **kwargs):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"scipy is forbidden in this test ({name})")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", guarded)
        for mode in ("exact", "speculative"):
            result = fastpath_color_bgpc(medium_bipartite, mode=mode)
            validate_bgpc(medium_bipartite, result.colors)


class TestRankDtype:
    """Rank/prefix-sum arrays must widen to int64 before a >=2^31-entry
    groups CSR can overflow the cumulative count (mirrors GroupLayout's
    ``small`` check for the member-index dtype)."""

    def test_boundary_selection(self):
        from repro.core.fastpath.engine import rank_dtype

        assert rank_dtype(0) == np.int32
        assert rank_dtype(2**31 - 2) == np.int32
        # At exactly intmax the exclusive prefix sum's last value can be
        # intmax itself, which int32 cannot hold as a *count* — widen.
        assert rank_dtype(2**31 - 1) == np.int64
        assert rank_dtype(2**31) == np.int64

    def test_layout_uses_small_dtype_for_small_instances(
        self, medium_bipartite
    ):
        from repro.core.fastpath.engine import GroupLayout

        lay = GroupLayout(medium_bipartite.net_to_vtxs)
        assert lay.rank_dtype == np.int32
