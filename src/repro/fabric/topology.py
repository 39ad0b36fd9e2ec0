"""Cluster topology: the collection of simulated nodes plus shared services.

A :class:`Cluster` owns the simulator, the nodes, the RNG registry and
aggregate observability.  Process placement follows the MPI convention used
in the paper's experiments: ranks are laid out block-wise,
``rank -> node = rank // procs_per_node``.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.config import ClusterSpec
from repro.simnet.core import Simulator
from repro.simnet.process import Process
from repro.simnet.rng import RngRegistry
from repro.simnet.trace import Sampler

from repro.fabric.node import Node
from repro.fabric.provider import Provider, get_provider
from repro.fabric.verbs import QueuePair

__all__ = ["Cluster"]


class Cluster:
    """A simulated cluster, ready to run rank processes."""

    def __init__(self, spec: ClusterSpec, provider: str = "roce",
                 oversubscription: float = 1.0):
        from repro.fabric.switch import Switch

        self.provider: Provider = get_provider(provider)
        cost = self.provider.apply(spec.cost)
        self.spec = spec.scaled(cost=cost)
        self.sim = Simulator()
        self.rngs = RngRegistry(seed=spec.seed)
        self.nodes: List[Node] = [
            Node(self.sim, i, self.spec) for i in range(self.spec.nodes)
        ]
        self.switch = Switch(self.sim, cost, self.spec.nodes,
                             oversubscription=oversubscription)
        self._qps: Dict[int, QueuePair] = {}
        #: active fault injector, or None for a fair-weather fabric — the
        #: RPC layer only arms its timeout/retry machinery when this is set
        #: (so fault-free runs stay bit-identical to the classic protocol)
        self.faults = None

    # -- fault injection ------------------------------------------------------
    def install_faults(self, plan):
        """Install a :class:`~repro.fabric.faults.FaultPlan`; returns the
        live :class:`~repro.fabric.faults.FaultInjector`."""
        from repro.fabric.faults import FaultInjector

        if self.faults is not None:
            raise RuntimeError("a fault plan is already installed")
        self.faults = FaultInjector(self, plan)
        return self.faults

    # -- structure -------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_procs(self) -> int:
        return self.spec.total_procs

    def node_of_rank(self, rank: int) -> int:
        """Block placement of MPI-style ranks onto nodes."""
        if not 0 <= rank < self.total_procs:
            raise IndexError(f"rank {rank} out of range [0, {self.total_procs})")
        return rank // self.spec.procs_per_node

    def ranks_on_node(self, node_id: int) -> range:
        p = self.spec.procs_per_node
        return range(node_id * p, (node_id + 1) * p)

    def qp(self, node_id: int) -> QueuePair:
        """The (shared, reusable) queue pair originating at ``node_id``."""
        qp = self._qps.get(node_id)
        if qp is None:
            qp = QueuePair(self, node_id)
            self._qps[node_id] = qp
        return qp

    # -- process management ---------------------------------------------------
    def spawn(self, gen: Generator, name: Optional[str] = None) -> Process:
        return self.sim.process(gen, name=name)

    def spawn_ranks(
        self,
        body: Callable[[int], Generator],
        ranks: Optional[range] = None,
    ) -> List[Process]:
        """Spawn ``body(rank)`` for every rank (or a subset)."""
        ranks = ranks if ranks is not None else range(self.total_procs)
        return [self.spawn(body(r), name=f"rank-{r}") for r in ranks]

    def run(self, until: Optional[float] = None) -> float:
        """Drive the simulation; returns final sim time (seconds)."""
        self.sim.run(until=until)
        return self.sim.now

    # -- observability --------------------------------------------------------------
    def sampler(self, interval: float = 1.0) -> Sampler:
        return Sampler(self.sim, interval=interval)

    def total_packets(self) -> float:
        return sum(n.egress.packets_total.value for n in self.nodes)

    def total_bytes(self) -> float:
        return sum(n.egress.bytes_total.value for n in self.nodes)

    def total_memory_used(self) -> float:
        return sum(n.memory_used.value for n in self.nodes)

    def packets_probe(self) -> Callable[[], float]:
        """Windowed cluster-wide packets-per-second probe for a Sampler."""
        state = {"pk": 0.0, "t": self.sim.now}

        def probe() -> float:
            now = self.sim.now
            pk = self.total_packets()
            span = now - state["t"]
            rate = (pk - state["pk"]) / span if span > 0 else 0.0
            state["pk"] = pk
            state["t"] = now
            return rate

        return probe

    def memory_probe(self, node_id: Optional[int] = None) -> Callable[[], float]:
        """Memory-utilization-% probe (one node, or cluster-wide)."""
        if node_id is not None:
            node = self.node(node_id)
            return lambda: 100.0 * node.memory_used.value / node.memory_capacity
        cap = sum(n.memory_capacity for n in self.nodes)
        return lambda: 100.0 * self.total_memory_used() / cap
