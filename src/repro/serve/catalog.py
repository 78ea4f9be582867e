"""The graph catalog: build a named graph once, serve it many times.

An offline pipeline run pays graph construction and NVM offload per
invocation; a serving system pays it **once**.  :class:`GraphCatalog`
builds each named graph exactly once — Kronecker edges, CSR, the
NUMA-partitioned forward/backward pair, and (for semi-external scenarios)
the array/value files on the simulated NVM device — then pins it and
hands out shared read handles.  Every query against the same name hits
the same :class:`~repro.semiext.storage.NVMStore`, the same simulated
clock and the same observability session, which is what lets concurrent
queries share forward-graph chunk fetches at all.

A pinned graph cannot be dropped while handles are open; the catalog
refuses rather than yanking files out from under an in-flight traversal.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.bfs.bottomup import InMemoryScanner
from repro.bfs.policies import AlphaBetaPolicy
from repro.core.config import ScenarioConfig, ScenarioKind
from repro.csr import BackwardGraph, ForwardGraph, build_csr
from repro.csr.io import ExternalCSR, offload_csr
from repro.errors import ConfigurationError
from repro.graph500 import EdgeList, generate_edges
from repro.obs.session import NULL, Observability
from repro.semiext.clock import SimulatedClock
from repro.semiext.storage import NVMStore

__all__ = ["PinnedGraph", "GraphHandle", "GraphCatalog"]


class PinnedGraph:
    """One built, resident graph plus everything a traversal needs.

    Holds the CSR pair, the (optional) NVM store with the offloaded
    forward shards, the shared simulated clock, per-node bottom-up
    scanners and the degree vector — i.e. the state
    :class:`~repro.serve.engine.BatchedBFS` reads.  Construction happens
    in :meth:`GraphCatalog.build`; treat instances as immutable — except
    through :class:`~repro.graphmut.versioned.GraphMutator`, which swaps
    the derived structures wholesale and bumps :attr:`version` so every
    reader sees whole-version transitions only.
    """

    def __init__(
        self,
        name: str,
        scenario: ScenarioConfig,
        scale: int,
        edges: EdgeList,
        forward: ForwardGraph,
        backward: BackwardGraph,
        store: NVMStore | None,
        external_shards: list[ExternalCSR] | None,
        alpha: float,
        beta: float,
        obs: Observability,
        clock: SimulatedClock | None = None,
    ) -> None:
        self.name = name
        self.scenario = scenario
        self.scale = scale
        self.edges = edges
        self.forward = forward
        self.backward = backward
        self.store = store
        self.external_shards = external_shards
        self.alpha = alpha
        self.beta = beta
        self.obs = obs
        self.topology = forward.topology
        self.n_vertices = forward.n_vertices
        self.cost_model = scenario.cost_model
        if store is not None:
            self.clock = store.clock
        elif clock is not None:
            self.clock = clock
        else:
            self.clock = SimulatedClock()
        self.obs.bind_clock(self.clock)
        self.degrees = backward.global_degrees()
        self.scanners = [InMemoryScanner(s) for s in backward.shards]
        if store is not None and self.cost_model is not None:
            per_edge_s = self.cost_model.level_time_s(1, 0, 0)
            store.cache_hit_time_per_byte = per_edge_s / 8.0
        self.pins = 0
        # Bumped by GraphMutator per applied mutation batch; 0 = as built.
        self.version = 0

    @property
    def semi_external(self) -> bool:
        """Whether top-down reads go through the NVM device."""
        return self.external_shards is not None

    def top_down_shards(self) -> list:
        """Adjacency sources for the top-down direction."""
        if self.external_shards is not None:
            return list(self.external_shards)
        return list(self.forward.shards)

    def make_policy(self) -> AlphaBetaPolicy:
        """A fresh per-query direction policy with this graph's α/β."""
        return AlphaBetaPolicy(alpha=self.alpha, beta=self.beta)

    def device_health(self) -> float:
        """Health score of the backing device (1.0 when there is none)."""
        if self.store is None:
            return 1.0
        return self.store.health.health_score()

    @property
    def circuit_open(self) -> bool:
        """Whether the backing device's circuit breaker is open."""
        return self.store is not None and self.store.health.circuit_open

    def __repr__(self) -> str:
        return (
            f"PinnedGraph({self.name!r}, scale={self.scale}, "
            f"scenario={self.scenario.name!r}, pins={self.pins})"
        )


class GraphHandle:
    """A pinned read handle on a catalog graph (context manager).

    While any handle is open the catalog refuses to drop the graph;
    closing is idempotent.
    """

    def __init__(self, graph: PinnedGraph) -> None:
        self.graph = graph
        self._open = True
        graph.pins += 1

    def close(self) -> None:
        """Release the pin (idempotent)."""
        if self._open:
            self._open = False
            self.graph.pins -= 1

    def __enter__(self) -> PinnedGraph:
        return self.graph

    def __exit__(self, *exc) -> None:
        self.close()


class GraphCatalog:
    """Named, pinned graphs shared by every query against them.

    Parameters
    ----------
    workdir:
        Directory for the per-graph NVM stores; a temporary directory is
        created (and reused for the catalog's lifetime) when omitted.
    obs:
        Observability session shared by every graph built here — the
        ``serve.*``, ``bfs.*`` and ``nvm.*`` series of one serving
        process belong in one registry.
    """

    def __init__(
        self,
        workdir: str | Path | None = None,
        obs: Observability | None = None,
    ) -> None:
        if workdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            workdir = self._tmpdir.name
        else:
            self._tmpdir = None
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.obs = obs if obs is not None else NULL
        # One clock for the whole catalog: arrival timelines, device
        # charges and cache TTLs of every graph advance the same axis.
        self.clock = SimulatedClock()
        self.obs.bind_clock(self.clock)
        self._graphs: dict[str, PinnedGraph] = {}

    def names(self) -> list[str]:
        """Catalogued graph names, sorted."""
        return sorted(self._graphs)

    def build(
        self,
        name: str,
        scenario: ScenarioConfig,
        scale: int,
        edge_factor: int = 16,
        seed: int | None = None,
        alpha: float | None = None,
        beta: float | None = None,
        page_cache_bytes: int = 0,
    ) -> PinnedGraph:
        """Build and pin a graph under ``name`` (exactly once per name).

        ``alpha``/``beta`` override the scenario's direction thresholds
        for queries against this graph; ``page_cache_bytes`` sizes the
        store's OS page cache (0 by default so serving measurements
        isolate the *batching* amortization from cache warmth).
        """
        if name in self._graphs:
            raise ConfigurationError(
                f"graph {name!r} already built; catalog graphs build once"
            )
        n = 1 << scale
        edges = EdgeList(generate_edges(scale, edge_factor=edge_factor,
                                        seed=seed), n)
        csr = build_csr(edges)
        forward = ForwardGraph(csr, scenario.topology)
        backward = BackwardGraph(csr, scenario.topology)
        store = None
        external = None
        if scenario.kind is ScenarioKind.SEMI_EXTERNAL:
            store = NVMStore(
                self.workdir / name,
                scenario.device,
                clock=self.clock,
                concurrency=scenario.topology.n_cores,
                page_cache_bytes=page_cache_bytes,
                io_mode=scenario.io_mode,
                fault_plan=scenario.fault_plan,
                retry=scenario.retry,
                obs=self.obs,
            )
            external = [
                offload_csr(shard, store, f"forward.node{k}")
                for k, shard in enumerate(forward.shards)
            ]
        graph = PinnedGraph(
            name=name,
            scenario=scenario,
            scale=scale,
            edges=edges,
            forward=forward,
            backward=backward,
            store=store,
            external_shards=external,
            alpha=scenario.alpha if alpha is None else alpha,
            beta=scenario.beta if beta is None else beta,
            obs=self.obs,
            clock=self.clock,
        )
        self._graphs[name] = graph
        return graph

    def build_partitioned(
        self,
        name: str,
        scenario: ScenarioConfig,
        scale: int,
        n_partitions: int,
        edge_factor: int = 16,
        seed: int | None = None,
        alpha: float | None = None,
        beta: float | None = None,
        strategy: str = "contiguous",
        backend: str = "local",
        replicate_after: int | None = None,
        page_cache_bytes: int = 0,
        fault_plans=None,
    ) -> "PartitionedGraph":
        """Build and register a partitioned deployment under ``name``.

        The graph is sharded across ``n_partitions`` workers, each with
        its own NVM store under this catalog's workdir; queries route
        through the lockstep coordinator (see :mod:`repro.dist`), and
        ``replicate_after`` completed queries mark the graph hot and
        replicate it to every worker.  Requires a semi-external scenario
        — a partitioned deployment is precisely a fleet of per-partition
        NVM stores.
        """
        from repro.dist import DistributedBFS
        from repro.dist.serve import PartitionedGraph, make_partitioner

        if name in self._graphs:
            raise ConfigurationError(
                f"graph {name!r} already built; catalog graphs build once"
            )
        if scenario.kind is not ScenarioKind.SEMI_EXTERNAL:
            raise ConfigurationError(
                f"partitioned deployments need a semi-external scenario, "
                f"got {scenario.name!r} ({scenario.kind.name})"
            )
        n = 1 << scale
        edges = EdgeList(generate_edges(scale, edge_factor=edge_factor,
                                        seed=seed), n)
        csr = build_csr(edges)
        use_alpha = scenario.alpha if alpha is None else alpha
        use_beta = scenario.beta if beta is None else beta
        partitioner = make_partitioner(strategy, n_partitions, csr.degrees())
        workdir = self.workdir / name
        coordinator = DistributedBFS.build(
            csr,
            partitioner,
            AlphaBetaPolicy(alpha=use_alpha, beta=use_beta),
            workdir,
            scenario.device,
            cost_model=scenario.cost_model,
            clock=self.clock,
            obs=self.obs,
            fault_plans=(fault_plans if fault_plans is not None
                         else scenario.fault_plan),
            backend=backend,
            concurrency=scenario.topology.n_cores,
            page_cache_bytes=page_cache_bytes,
            retry=scenario.retry,
        )
        graph = PartitionedGraph(
            name=name,
            scenario=scenario,
            scale=scale,
            csr=csr,
            coordinator=coordinator,
            workdir=workdir,
            alpha=use_alpha,
            beta=use_beta,
            obs=self.obs,
            replicate_after=replicate_after,
        )
        self._graphs[name] = graph
        return graph

    def get(self, name: str) -> PinnedGraph:
        """Look up a built graph."""
        try:
            return self._graphs[name]
        except KeyError:
            raise ConfigurationError(
                f"no graph named {name!r} in catalog "
                f"(have {self.names()})"
            ) from None

    def open(self, name: str) -> GraphHandle:
        """Pin a graph and return a read handle (context manager)."""
        return GraphHandle(self.get(name))

    def drop(self, name: str) -> None:
        """Remove a graph; refuses while read handles are open."""
        graph = self.get(name)
        if graph.pins > 0:
            raise ConfigurationError(
                f"graph {name!r} still has {graph.pins} open handle(s)"
            )
        del self._graphs[name]

    def close(self) -> None:
        """Stop partitioned deployments and drop an owned workdir."""
        for graph in self._graphs.values():
            closer = getattr(graph, "close", None)
            if closer is not None:
                closer()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __repr__(self) -> str:
        return f"GraphCatalog({self.names()})"
