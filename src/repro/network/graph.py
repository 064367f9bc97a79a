"""The contractual social graph (§4.2's network centralisation analysis).

Definitions from the paper: users *n* and *m* share a **raw** connection
if they share at least one contract; an **inbound** connection is made
from *n* to *m* if *m* accepts a contract from *n*; an **outbound**
connection from *n* to *m* if *n* initiates a contract to *m*.  For
bidirectional contracts (EXCHANGE, TRADE) both parties receive both an
inbound and an outbound connection.

Degrees count *distinct* counterparties, so they measure connectivity
(influence), not volume.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Set

import numpy as np

from ..core.entities import Contract

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ContractGraph", "DEGREE_KINDS"]

DEGREE_KINDS = ("raw", "inbound", "outbound")


class ContractGraph:
    """Raw/inbound/outbound adjacency built from a contract list.

    The node set is every user party to at least one of the supplied
    contracts, so users who only ever accept contracts appear with an
    outbound degree of zero (the paper's Figure 7 zero-point).
    """

    def __init__(self, contracts: Iterable[Contract]) -> None:
        self._raw: Dict[int, Set[int]] = defaultdict(set)
        self._inbound: Dict[int, Set[int]] = defaultdict(set)
        self._outbound: Dict[int, Set[int]] = defaultdict(set)
        self._nodes: Set[int] = set()
        self._n_contracts = 0
        for contract in contracts:
            self.add_contract(contract)

    def add_contract(self, contract: Contract) -> None:
        """Incorporate one contract's connections (incremental build)."""
        maker, taker = contract.maker_id, contract.taker_id
        self._nodes.add(maker)
        self._nodes.add(taker)
        self._raw[maker].add(taker)
        self._raw[taker].add(maker)
        self._outbound[maker].add(taker)
        self._inbound[taker].add(maker)
        if contract.ctype.bidirectional:
            self._outbound[taker].add(maker)
            self._inbound[maker].add(taker)
        self._n_contracts += 1

    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> Set[int]:
        return self._nodes

    @property
    def n_contracts(self) -> int:
        return self._n_contracts

    def __len__(self) -> int:
        return len(self._nodes)

    def degree(self, user_id: int, kind: str = "raw") -> int:
        """Degree of one node (0 for unknown users)."""
        return len(self._adjacency(kind).get(user_id, ()))

    def degrees(self, kind: str = "raw") -> Dict[int, int]:
        """Map user id -> degree over the full node set."""
        adjacency = self._adjacency(kind)
        return {node: len(adjacency.get(node, ())) for node in self._nodes}

    def degree_array(self, kind: str = "raw") -> np.ndarray:
        """Degrees as an array (order: ascending user id, deterministic)."""
        adjacency = self._adjacency(kind)
        return np.asarray(
            [len(adjacency.get(node, ())) for node in sorted(self._nodes)],
            dtype=np.int64,
        )

    def max_degree(self, kind: str = "raw") -> int:
        array = self.degree_array(kind)
        return int(array.max()) if len(array) else 0

    def average_degree(self, kind: str = "raw") -> float:
        array = self.degree_array(kind)
        return float(array.mean()) if len(array) else 0.0

    def neighbors(self, user_id: int, kind: str = "raw") -> Set[int]:
        return set(self._adjacency(kind).get(user_id, ()))

    # ------------------------------------------------------------------ #

    def to_networkx(self, kind: str = "raw") -> "nx.Graph":
        """Export as a networkx graph (directed for inbound/outbound).

        networkx loads here, on first export: degree analyses and the
        streaming kernels use the adjacency sets and never import it.
        """
        import networkx as nx

        if kind == "raw":
            graph: nx.Graph = nx.Graph()
            graph.add_nodes_from(self._nodes)
            for node, neighbors in self._raw.items():
                graph.add_edges_from((node, other) for other in neighbors)
            return graph
        digraph = nx.DiGraph()
        digraph.add_nodes_from(self._nodes)
        if kind == "outbound":
            for node, targets in self._outbound.items():
                digraph.add_edges_from((node, t) for t in targets)
        elif kind == "inbound":
            for node, sources in self._inbound.items():
                digraph.add_edges_from((s, node) for s in sources)
        else:
            raise ValueError(f"unknown degree kind: {kind!r}")
        return digraph

    def _adjacency(self, kind: str) -> Dict[int, Set[int]]:
        if kind == "raw":
            return self._raw
        if kind == "inbound":
            return self._inbound
        if kind == "outbound":
            return self._outbound
        raise ValueError(f"unknown degree kind: {kind!r} (use {DEGREE_KINDS})")
