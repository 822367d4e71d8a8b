"""Pagerank atomic workload: the paper's §5.6 counter-example.

Graph analytics kernels (Pannotia's pagerank in the paper) also generate
enormous atomic traffic, but with *low* intra-warp locality: a warp's 32
edges point at 32 (mostly) different destination vertices, so fewer than
0.1% of warps have all lanes updating one address, and ARC's warp-level
reduction finds nothing to merge.  This module builds a push-style pagerank
iteration over a synthetic power-law graph and captures its atomic trace,
so the no-benefit/no-harm claim can be checked in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.warp import WARP_SIZE
from repro.trace.events import INACTIVE, KernelTrace

__all__ = ["PagerankWorkload", "pagerank_trace"]


@dataclass
class PagerankWorkload:
    """Push-style pagerank over a Barabasi-Albert graph.

    One GPU thread per directed edge: thread ``e = (u, v)`` executes
    ``atomicAdd(&rank_next[v], rank[u] / out_degree[u])``.  Warps cover 32
    consecutive edges in source-sorted order -- the standard CSR layout --
    so lanes of one warp share the *source* but scatter across
    destinations.
    """

    n_nodes: int = 4000
    attachments: int = 4
    seed: int = 0
    damping: float = 0.85

    def __post_init__(self) -> None:
        if self.n_nodes <= self.attachments:
            raise ValueError("n_nodes must exceed the attachment count")
        import networkx as nx

        graph = nx.barabasi_albert_graph(
            self.n_nodes, self.attachments, seed=self.seed
        )
        # Treat each undirected edge as two directed edges (push both ways).
        edges = np.array(graph.edges(), dtype=np.int64)
        directed = np.concatenate([edges, edges[:, ::-1]])
        order = np.lexsort((directed[:, 1], directed[:, 0]))
        self.sources = directed[order, 0]
        self.destinations = directed[order, 1]
        self.out_degree = np.bincount(self.sources, minlength=self.n_nodes)

    @property
    def n_edges(self) -> int:
        return len(self.sources)

    def iterate(self, ranks: np.ndarray) -> np.ndarray:
        """One synchronous pagerank iteration (the semantics the GPU
        kernel's atomics implement)."""
        if ranks.shape != (self.n_nodes,):
            raise ValueError("ranks must be one value per node")
        contribution = ranks[self.sources] / np.maximum(
            self.out_degree[self.sources], 1
        )
        pushed = np.zeros(self.n_nodes)
        np.add.at(pushed, self.destinations, contribution)
        return (1 - self.damping) / self.n_nodes + self.damping * pushed

    def solve(self, iterations: int = 30) -> np.ndarray:
        """Run pagerank to (approximate) convergence."""
        ranks = np.full(self.n_nodes, 1.0 / self.n_nodes)
        for _ in range(iterations):
            ranks = self.iterate(ranks)
        return ranks

    def capture_trace(self, with_values: bool = False) -> KernelTrace:
        """Atomic trace of one pagerank iteration (thread per edge)."""
        n_edges = self.n_edges
        n_batches = (n_edges + WARP_SIZE - 1) // WARP_SIZE
        padded = np.full(n_batches * WARP_SIZE, INACTIVE, dtype=np.int64)
        padded[:n_edges] = self.destinations
        lane_slots = padded.reshape(n_batches, WARP_SIZE)

        values = None
        if with_values:
            ranks = np.full(self.n_nodes, 1.0 / self.n_nodes)
            contribution = ranks[self.sources] / np.maximum(
                self.out_degree[self.sources], 1
            )
            padded_vals = np.zeros(n_batches * WARP_SIZE)
            padded_vals[:n_edges] = contribution
            values = padded_vals.reshape(n_batches, WARP_SIZE, 1)

        return KernelTrace(
            lane_slots=lane_slots,
            num_params=1,
            n_slots=self.n_nodes,
            compute_cycles=12.0,  # a divide and a load; atomics dominate
            values=values,
            bfly_eligible=False,
            name="pagerank",
        )


def pagerank_trace(
    n_nodes: int = 4000, attachments: int = 4, seed: int = 0
) -> KernelTrace:
    """Convenience: the atomic trace of one pagerank iteration."""
    return PagerankWorkload(
        n_nodes=n_nodes, attachments=attachments, seed=seed
    ).capture_trace()
