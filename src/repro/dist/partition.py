"""Vertex partitioners for the distributed/sharded BGPC framework.

A partition assigns every ``V_A`` vertex an owning rank; its quality decides
how many vertices are *boundary* (share a net with another rank's vertex)
and therefore how much speculative cross-rank work and communication
:func:`repro.dist.distributed_bgpc` and ``backend="sharded"`` pay.  Four
strategies:

* :func:`partition_contiguous` — equal contiguous blocks of vertex ids
  (the naive default; locality only if the labeling has it);
* :func:`partition_random` — seeded uniform assignment (the anti-pattern:
  maximizes the boundary, useful as a worst case);
* :func:`partition_bfs` — BFS-grown parts over the vertex adjacency
  (topological locality regardless of labeling; small boundaries on
  meshes);
* :func:`partition_greedy` — BFS seed plus edge-cut-aware greedy
  refinement (moves a vertex to the rank owning most of its neighbors
  when balance allows).

Backends and the CLI select partitioners by name through the registry:
:data:`PARTITIONERS` maps a name to a uniform ``fn(bg, ranks, seed=0)``
callable; :func:`get_partitioner` resolves with a helpful error and
:func:`register_partitioner` admits new strategies.  All partitioners are
deterministic for a fixed ``(graph, ranks, seed)``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.core.fastpath.engine import _ragged_take
from repro.graph.bipartite import BipartiteGraph

__all__ = [
    "PARTITIONERS",
    "get_partitioner",
    "partition_bfs",
    "partition_contiguous",
    "partition_greedy",
    "partition_random",
    "partitioner_names",
    "register_partitioner",
]


def partition_contiguous(n: int, ranks: int) -> np.ndarray:
    """Owner array splitting ``n`` vertices into ``ranks`` contiguous blocks.

    Block sizes differ by at most one; the owner array is non-decreasing.
    """
    sizes = np.full(ranks, n // ranks, dtype=np.int64)
    sizes[: n % ranks] += 1
    return np.repeat(np.arange(ranks, dtype=np.int64), sizes)


def partition_random(n: int, ranks: int, seed: int = 0) -> np.ndarray:
    """Seeded uniform-random owner array (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, ranks, size=n, dtype=np.int64)


def partition_bfs(
    bg: BipartiteGraph, ranks: int, stats: dict | None = None
) -> np.ndarray:
    """Grow ``ranks`` balanced parts by BFS over the vertex adjacency.

    Each part is grown breadth-first (through shared nets) from the
    lowest-numbered unassigned vertex until it holds ``ceil(n / ranks)``
    vertices, so parts are connected chunks of the *topology* rather than
    of the label space.  Sizes never exceed ``ceil(n / ranks) + 1``.

    Each net is expanded at most once per part (a per-net stamp of the last
    part that expanded it), so growing a part costs ``O(|V| + |E|)`` rather
    than the ``Θ(Σ|vtxs(v)|²)`` of expanding a net once per member: a second
    expansion could enqueue nothing new.  A net's members are filtered with
    one mask over its adjacency slice.  Vertices are marked on *enqueue*
    (per part), so the frontier deque holds each vertex at most once and
    peaks at ``O(n)``.  Pass a ``stats`` dict to record the observed peak
    as ``stats["max_queue"]`` and the number of net expansions as
    ``stats["net_expansions"]``.
    """
    n = bg.num_vertices
    target = -(-n // ranks)
    vptr, vidx = bg.vtx_to_nets.ptr, bg.vtx_to_nets.idx
    nptr, nidx = bg.net_to_vtxs.ptr, bg.net_to_vtxs.idx
    part = np.full(n, -1, dtype=np.int64)
    # Stamp of the last part that enqueued each vertex: enqueue w for part
    # r at most once, without blocking a later part from re-visiting it.
    enqueued = np.full(n, -1, dtype=np.int64)
    # Stamp of the last part that expanded each net.
    expanded = np.full(bg.num_nets, -1, dtype=np.int64)
    max_queue = 0
    expansions = 0
    next_seed = 0
    for r in range(ranks - 1):
        size = 0
        queue: deque[int] = deque()
        while size < target:
            if not queue:
                while next_seed < n and part[next_seed] != -1:
                    next_seed += 1
                if next_seed == n:
                    break
                queue.append(next_seed)
                enqueued[next_seed] = r
            u = queue.popleft()
            if part[u] != -1:
                continue
            part[u] = r
            size += 1
            for net in vidx[vptr[u] : vptr[u + 1]].tolist():
                if expanded[net] == r:
                    continue
                expanded[net] = r
                expansions += 1
                vs = nidx[nptr[net] : nptr[net + 1]]
                new = vs[(part[vs] == -1) & (enqueued[vs] != r)]
                if new.size:
                    enqueued[new] = r
                    # dict.fromkeys: first occurrence wins if a net lists a
                    # vertex twice, as in the one-at-a-time enqueue.
                    queue.extend(dict.fromkeys(new.tolist()))
            if len(queue) > max_queue:
                max_queue = len(queue)
    part[part == -1] = ranks - 1
    if stats is not None:
        stats["max_queue"] = max_queue
        stats["net_expansions"] = expansions
    return part


def partition_greedy(
    bg: BipartiteGraph, ranks: int, seed: int = 0, passes: int = 2
) -> np.ndarray:
    """BFS seed plus edge-cut-aware greedy refinement.

    Starts from :func:`partition_bfs`, then sweeps the vertices in
    ascending id order (``passes`` times): a vertex moves to the rank that
    owns the most of its net-neighbors when that strictly reduces its cut
    edges and the destination stays within the BFS balance cap
    ``ceil(n / ranks) + 1``.  Ties break toward the smaller rank id; the
    result is deterministic (``seed`` is accepted for registry uniformity
    and ignored).

    A vertex's neighbor entries (every member of each of its nets except
    itself, with multiplicity) are gathered in vectorized blocks; the sweep
    counts their current owners with one ``np.bincount`` per vertex.
    """
    del seed  # deterministic sweep; kept for the uniform registry signature
    n = bg.num_vertices
    part = partition_bfs(bg, ranks)
    cap = -(-n // ranks) + 1
    sizes = np.bincount(part, minlength=ranks).astype(np.int64)
    for _ in range(passes):
        moved = 0
        for lo in range(0, n, _GREEDY_BLOCK):
            hi = min(n, lo + _GREEDY_BLOCK)
            nbr_ptr, nbr_idx = _neighbor_entries(bg, lo, hi)
            for u in range(lo, hi):
                counts = np.bincount(
                    part[nbr_idx[nbr_ptr[u - lo] : nbr_ptr[u - lo + 1]]],
                    minlength=ranks,
                )
                cur = int(part[u])
                # The ascending sweep keeps the first rank that strictly
                # beats the running best: the largest eligible count, ties
                # to the smallest rank.
                eligible = (counts > counts[cur]) & (sizes + 1 <= cap)
                if eligible.any():
                    best = int(np.argmax(np.where(eligible, counts, -1)))
                    part[u] = best
                    sizes[cur] -= 1
                    sizes[best] += 1
                    moved += 1
        if moved == 0:
            break
    return part


#: Vertices whose neighbor entries :func:`partition_greedy` gathers at once;
#: bounds the gather's memory on graphs with dense nets.
_GREEDY_BLOCK = 1024


def _neighbor_entries(
    bg: BipartiteGraph, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the net-neighbor entries of vertices ``lo..hi-1``.

    Row ``u - lo`` concatenates ``vtxs(net)`` over ``net in nets(u)``, in
    that order, with ``u`` itself dropped and multiplicities kept.
    """
    vptr, vidx = bg.vtx_to_nets.ptr, bg.vtx_to_nets.idx
    nptr = bg.net_to_vtxs.ptr
    nets = vidx[vptr[lo] : vptr[hi]]
    vertex_of_net = np.repeat(
        np.arange(lo, hi, dtype=np.int64), np.diff(vptr[lo : hi + 1])
    )
    members, net_pos = _ragged_take(
        bg.net_to_vtxs.idx, nptr[nets], nptr[nets + 1] - nptr[nets]
    )
    vertex = vertex_of_net[net_pos]
    keep = members != vertex
    ptr = np.zeros(hi - lo + 1, dtype=np.int64)
    np.cumsum(np.bincount(vertex[keep] - lo, minlength=hi - lo), out=ptr[1:])
    return ptr, members[keep]


# --------------------------------------------------------------------------
# Registry: name -> uniform ``fn(bg, ranks, seed=0) -> owner array``.


def _by_contiguous(bg: BipartiteGraph, ranks: int, seed: int = 0) -> np.ndarray:
    del seed
    return partition_contiguous(bg.num_vertices, ranks)


def _by_random(bg: BipartiteGraph, ranks: int, seed: int = 0) -> np.ndarray:
    return partition_random(bg.num_vertices, ranks, seed=seed)


def _by_bfs(bg: BipartiteGraph, ranks: int, seed: int = 0) -> np.ndarray:
    del seed
    return partition_bfs(bg, ranks)


Partitioner = Callable[..., np.ndarray]

#: Registered partitioners, keyed by the name the CLI / backend accept.
PARTITIONERS: dict[str, Partitioner] = {
    "contiguous": _by_contiguous,
    "random": _by_random,
    "bfs": _by_bfs,
    "greedy": partition_greedy,
}


def register_partitioner(name: str, fn: Partitioner) -> None:
    """Admit a new named partitioner with the uniform call signature."""
    PARTITIONERS[name] = fn


def get_partitioner(name: str) -> Partitioner:
    """Resolve a partitioner by name, or raise listing the known names."""
    try:
        return PARTITIONERS[name]
    except KeyError:
        known = ", ".join(sorted(PARTITIONERS))
        raise ValueError(f"unknown partitioner {name!r} (known: {known})") from None


def partitioner_names() -> tuple[str, ...]:
    """The registered partitioner names, sorted."""
    return tuple(sorted(PARTITIONERS))
