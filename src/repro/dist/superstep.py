"""Distributed-memory BGPC: partitioned speculative coloring in supersteps.

The framework the paper's shared-memory algorithms descend from (Bozdağ et
al.): vertices are partitioned across ranks; *interior* vertices (all of
whose nets stay within one rank) are colored locally with no communication,
while *boundary* vertices are colored speculatively in batched
bulk-synchronous supersteps — each rank picks colors against the last
committed snapshot, announces them, and cross-rank conflicts (two boundary
vertices of one net picking the same color in the same batch) are detected
after the exchange and re-queued, smaller vertex id winning.

Communication is charged through :class:`repro.dist.mpi.ClusterModel`; the
cost model is observational and never steers the coloring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.mpi import ClusterModel
from repro.dist.partition import partition_contiguous
from repro.errors import ColoringError
from repro.graph.bipartite import BipartiteGraph
from repro.types import UNCOLORED

__all__ = ["DistributedResult", "boundary_mask", "distributed_bgpc"]


@dataclass
class DistributedResult:
    """Outcome of a distributed (or hybrid) BGPC run.

    ``interior`` / ``boundary`` count the partition-induced vertex classes;
    ``supersteps`` and ``conflicts`` describe the boundary resolution;
    ``comm_words`` / ``comm_messages`` the exchanged traffic; ``cycles``
    the modeled end-to-end cost (local compute plus the cluster charge).
    """

    colors: np.ndarray
    num_colors: int
    ranks: int
    interior: int
    boundary: int
    supersteps: int
    conflicts: int
    comm_words: int
    comm_messages: int
    cycles: float


def _validated_partition(partition, n: int, ranks: int) -> np.ndarray:
    if partition is None:
        return partition_contiguous(n, ranks)
    part = np.asarray(partition, dtype=np.int64)
    if part.shape != (n,):
        raise ColoringError(
            f"partition must have one owner per vertex ({n}), got shape "
            f"{part.shape}"
        )
    if part.size and (part.min() < 0 or part.max() >= ranks):
        raise ColoringError(
            f"partition owners must lie in [0, {ranks}); got range "
            f"[{int(part.min())}, {int(part.max())}]"
        )
    return part


def boundary_mask(bg: BipartiteGraph, part: np.ndarray) -> np.ndarray:
    """True for vertices sharing a net with another rank's vertex.

    One pass over the net-major entries: a net is cut when the segmented
    minimum and maximum (``np.minimum.reduceat`` / ``np.maximum.reduceat``)
    of its members' owners differ, and every member of a cut net is marked.
    """
    ptr, idx = bg.net_to_vtxs.ptr, bg.net_to_vtxs.idx
    owners = part[idx]
    degs = np.diff(ptr)
    starts = ptr[:-1][degs > 0]
    cut = np.zeros(bg.num_nets, dtype=bool)
    cut[degs > 0] = (
        np.minimum.reduceat(owners, starts) != np.maximum.reduceat(owners, starts)
    )
    mask = np.zeros(bg.num_vertices, dtype=bool)
    mask[idx[np.repeat(cut, degs)]] = True
    return mask


def _first_fit(bg: BipartiteGraph, u: int, committed: np.ndarray,
               overlay: dict) -> tuple[int, int]:
    """Smallest color free around ``u``; returns ``(color, scans)``.

    ``committed`` is the globally committed palette; ``overlay`` holds the
    owning rank's same-batch picks (a rank sees its own speculation, not
    the other ranks').
    """
    forbidden = set()
    scans = 0
    for net in bg.nets(u):
        for w in bg.vtxs(net):
            scans += 1
            if w == u:
                continue
            c = overlay.get(int(w), committed[w])
            if c >= 0:
                forbidden.add(int(c))
    color = 0
    while color in forbidden:
        color += 1
    return color, scans


def _conflicted(bg: BipartiteGraph, batch: np.ndarray,
                colors: np.ndarray) -> list[int]:
    """Batch vertices losing a same-color tie to a smaller-id neighbor."""
    losers = []
    for u in batch.tolist():
        cu = colors[u]
        lost = False
        for net in bg.nets(u):
            for w in bg.vtxs(net):
                if w < u and colors[w] == cu:
                    lost = True
                    break
            if lost:
                break
        if lost:
            losers.append(u)
    return losers


def _neighbor_ranks(bg: BipartiteGraph, u: int, part: np.ndarray) -> set:
    mine = int(part[u])
    others = set()
    for net in bg.nets(u):
        for w in bg.vtxs(net):
            r = int(part[w])
            if r != mine:
                others.add(r)
    return others


def distributed_bgpc(
    bg: BipartiteGraph,
    ranks: int = 4,
    batch: int = 100,
    partition: np.ndarray | None = None,
    cluster: ClusterModel | None = None,
) -> DistributedResult:
    """Color ``bg`` on a modeled ``ranks``-node cluster.

    Parameters
    ----------
    bg:
        The bipartite instance.
    ranks:
        Number of ranks; ignored when ``cluster`` is given (its rank count
        wins).
    batch:
        Boundary vertices colored per superstep (>= 1): bigger batches mean
        fewer supersteps but more speculative conflicts.
    partition:
        Optional owner array (see :mod:`repro.dist.partition`); defaults to
        contiguous blocks.
    cluster:
        Optional :class:`~repro.dist.mpi.ClusterModel` cost model
        (fresh default otherwise).  Observational only — colors and
        supersteps never depend on it.
    """
    if batch < 1:
        raise ColoringError(f"batch must be >= 1, got {batch}")
    cluster = cluster if cluster is not None else ClusterModel(ranks)
    ranks = cluster.ranks
    if ranks < 1:
        raise ColoringError(f"ranks must be >= 1, got {ranks}")
    n = bg.num_vertices
    part = _validated_partition(partition, n, ranks)
    is_boundary = boundary_mask(bg, part)
    colors = np.full(n, UNCOLORED, dtype=np.int64)

    # Interior vertices never share a net across ranks: every rank colors
    # its own greedily, no exchange needed.  Charged as one parallel phase
    # (slowest rank's scan count).
    interior_scans = [0] * ranks
    for u in np.nonzero(~is_boundary)[0].tolist():
        c, scans = _first_fit(bg, u, colors, {})
        colors[u] = c
        interior_scans[part[u]] += scans
    cycles = float(max(interior_scans)) if interior_scans else 0.0

    # Boundary vertices go through batched speculative supersteps.
    pending = np.nonzero(is_boundary)[0].astype(np.int64)
    conflicts = 0
    while pending.size:
        batch_vs, rest = pending[:batch], pending[batch:]
        compute = [0.0] * ranks
        words = [0] * ranks
        messages = [0] * ranks
        overlays: list[dict] = [{} for _ in range(ranks)]
        neighbor_ranks: list[set] = [set() for _ in range(ranks)]
        for u in batch_vs.tolist():
            r = int(part[u])
            c, scans = _first_fit(bg, u, colors, overlays[r])
            overlays[r][u] = c
            compute[r] += scans
            words[r] += 1
            neighbor_ranks[r] |= _neighbor_ranks(bg, u, part)
        for overlay in overlays:
            for u, c in overlay.items():
                colors[u] = c
        for r in range(ranks):
            messages[r] = len(neighbor_ranks[r]) if words[r] else 0
        losers = _conflicted(bg, batch_vs, colors)
        colors[losers] = UNCOLORED
        conflicts += len(losers)
        cluster.superstep(compute, words, messages)
        pending = np.concatenate(
            [np.asarray(losers, dtype=np.int64), rest]
        )

    cycles += cluster.total_cycles
    return DistributedResult(
        colors=colors,
        num_colors=int(colors.max()) + 1 if colors.size else 0,
        ranks=ranks,
        interior=int((~is_boundary).sum()),
        boundary=int(is_boundary.sum()),
        supersteps=cluster.num_supersteps,
        conflicts=conflicts,
        comm_words=cluster.total_words,
        comm_messages=cluster.total_messages,
        cycles=cycles,
    )
