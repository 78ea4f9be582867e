"""Versioned mutation of pinned catalog graphs.

:class:`GraphMutator` attaches to a :class:`~repro.serve.catalog.PinnedGraph`
and turns it into a *versioned* graph: each applied
:class:`~repro.graphmut.stream.MutationBatch` bumps the version, patches
the DRAM-resident structures wholesale (forward/backward shards,
degrees, bottom-up scanners — cheap, they live in DRAM by the paper's
design) and overlays the NVM-resident forward shards with
:class:`DeltaShard` views that read base rows from the device at full
charge and patch the few dirty rows from the DRAM overlay for free.

Compaction folds the overlay back into fresh NVM array files — built
completely under new (versioned) names, swapped in one reference
assignment, old files dropped after — so a reader can never observe a
half-compacted graph, and the write is charged to the simulated clock as
one sequential stream via
:meth:`~repro.semiext.storage.NVMStore.charge_write`.

The mutator also owns the serve tier's repair-or-recompute decision:
given a cached tree at an older version it merges the effective batch
history and runs :func:`~repro.graphmut.repair.repair_tree`, reading
only affected rows (charged through the delta shards).  History is
pruned at compaction, so trees older than the compaction base are
unrepairable — callers must invalidate them (see
:meth:`ResultCache.invalidate_versions`).
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bottomup import InMemoryScanner
from repro.csr.builder import build_csr
from repro.csr.graph import CSRGraph
from repro.csr.io import ExternalCSR, offload_csr
from repro.csr.partition import BackwardGraph, ForwardGraph
from repro.errors import ConfigurationError
from repro.graph500.edgelist import EdgeList
from repro.graphmut.delta import DeltaOverlay
from repro.graphmut.repair import RepairOutcome, repair_tree
from repro.graphmut.stream import MutationBatch, merge_batches
from repro.obs.schema import (
    M_MUT_APPLIED,
    M_MUT_BATCHES,
    M_MUT_COMPACT_BYTES,
    M_MUT_COMPACTIONS,
    M_MUT_OVERLAY_BYTES,
    M_MUT_REPAIR_DIRTY,
    M_MUT_REPAIR_ROWS,
    M_MUT_REPAIRS,
    M_MUT_VERSION,
)
from repro.perfmodel.cost import request_think_time_s

__all__ = ["DeltaShard", "GraphMutator"]


class DeltaShard(ExternalCSR):
    """A forward NVM shard patched with the DRAM delta overlay.

    Reads of clean rows are byte-for-byte the base shard's charged
    device reads; dirty rows still pay the base row's device read (the
    stale bytes come off NVM) and are then patched from the overlay in
    DRAM — insertions cost nothing on the read path until compaction
    folds them in.  Subclasses :class:`ExternalCSR` so the batched
    engine's charged top-down path engages unchanged.
    """

    def __init__(
        self, base: ExternalCSR, overlay: DeltaOverlay, lo: int, hi: int
    ) -> None:
        super().__init__(base.index, base.value, base.n_cols)
        self.base = base
        self.overlay = overlay
        self.lo = int(lo)
        self.hi = int(hi)

    def _shard_row(self, row: int) -> np.ndarray:
        """Effective destinations of ``row`` owned by this shard."""
        full = self.overlay.row(row)
        return full[(full >= self.lo) & (full < self.hi)]

    def _patch(
        self, rows: np.ndarray, values: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        dirty = [
            i for i, r in enumerate(rows.tolist())
            if self.overlay.row_is_dirty(int(r))
        ]
        if not dirty:
            return values, counts
        counts = counts.copy()
        segments = np.split(values, np.cumsum(counts)[:-1]) if rows.size else []
        for i in dirty:
            segments[i] = self._shard_row(int(rows[i]))
            counts[i] = segments[i].size
        merged = (
            np.concatenate(segments).astype(np.int64, copy=False)
            if segments else values
        )
        return merged, counts

    def row_extents(
        self, rows: np.ndarray, think_time_s: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Charged extents with effective counts (starts refer to the
        base value file and are only valid for clean rows)."""
        rows = np.asarray(rows, dtype=np.int64)
        starts, counts = self.base.row_extents(rows, think_time_s=think_time_s)
        counts = counts.copy()
        for i, r in enumerate(rows.tolist()):
            if self.overlay.row_is_dirty(int(r)):
                counts[i] = self._shard_row(int(r)).size
        return starts, counts

    def gather_rows(
        self, rows: np.ndarray, think_time_s: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Charged batch read of ``rows``, dirty rows patched from DRAM."""
        rows = np.asarray(rows, dtype=np.int64)
        values, counts = self.base.gather_rows(rows, think_time_s=think_time_s)
        return self._patch(rows, values, counts)

    def gather_rows_deferred(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list]:
        """Like :meth:`gather_rows` with the device charges handed back."""
        rows = np.asarray(rows, dtype=np.int64)
        values, counts, charges = self.base.gather_rows_deferred(rows)
        values, counts = self._patch(rows, values, counts)
        return values, counts, charges

    def to_csr_uncharged(self) -> CSRGraph:
        """The shard's effective CSR without touching the clock."""
        base = self.base.to_csr_uncharged()
        if self.overlay.is_empty:
            return base
        n = base.n_rows
        counts = base.degrees().astype(np.int64, copy=True)
        parts: list[np.ndarray] = []
        prev = 0
        for r in self.overlay.dirty_rows().tolist():
            start = int(base.indptr[r])
            parts.append(base.adj[prev:start])
            eff = self._shard_row(r)
            parts.append(eff)
            counts[r] = eff.size
            prev = int(base.indptr[r + 1])
        parts.append(base.adj[prev:])
        indptr = np.empty(n + 1, dtype=np.int64)
        indptr[0] = 0
        np.cumsum(counts, out=indptr[1:])
        return CSRGraph(
            indptr=indptr,
            adj=np.concatenate(parts).astype(np.int64, copy=False),
            n_cols=base.n_cols,
        )

    def degrees_uncharged(self) -> np.ndarray:
        """Effective per-row degrees without touching the clock."""
        deg = self.base.degrees_uncharged().astype(np.int64, copy=True)
        for r in self.overlay.dirty_rows().tolist():
            deg[r] = self._shard_row(int(r)).size
        return deg

    def __repr__(self) -> str:
        return (
            f"DeltaShard([{self.lo}, {self.hi}), "
            f"dirty={self.overlay.dirty_rows().size}, base={self.base!r})"
        )


def _edge_list(csr: CSRGraph) -> EdgeList:
    """The undirected edge list (u < v once each) of a symmetric CSR."""
    src = np.repeat(np.arange(csr.n_rows, dtype=np.int64), csr.degrees())
    keep = src < csr.adj
    return EdgeList(
        np.stack((src[keep], csr.adj[keep])).astype(np.int64), csr.n_rows
    )


class GraphMutator:
    """Apply versioned mutation batches to one pinned catalog graph.

    Parameters
    ----------
    graph:
        The :class:`~repro.serve.catalog.PinnedGraph` to mutate in
        place.  Partitioned deployments are not mutable (the conformance
        contract for them is byte-equality of *recomputation* on the
        post-mutation graph, see ``tools/mutation_smoke_gate.py``).
    repair_threshold:
        Maximum dirty fraction (level-changed vertices / n) an
        incremental repair may touch before falling back to recompute.
    compact_every:
        Fold the overlay back into the NVM CSR after this many applied
        batches (``0`` disables automatic compaction).
    """

    def __init__(
        self,
        graph,
        obs=None,
        repair_threshold: float = 0.25,
        compact_every: int = 8,
    ) -> None:
        if getattr(graph, "is_partitioned", False):
            raise ConfigurationError(
                f"graph {graph.name!r} is a partitioned deployment; "
                f"mutation streams attach to locally pinned graphs"
            )
        if not (0.0 <= repair_threshold <= 1.0):
            raise ConfigurationError(
                f"repair threshold must be in [0, 1]: {repair_threshold}"
            )
        self.graph = graph
        self.obs = obs if obs is not None else graph.obs
        self.repair_threshold = float(repair_threshold)
        self.compact_every = int(compact_every)
        base = build_csr(graph.edges)
        self._base_csr = base
        self.overlay = DeltaOverlay(base)
        self.version = 0
        self._base_version = 0
        self._batches: list[MutationBatch] = []
        self.n_compactions = 0
        if graph.semi_external:
            self._base_external: list[ExternalCSR] | None = list(
                graph.external_shards
            )
            self._prefixes = [
                f"forward.node{k}" for k in range(len(graph.external_shards))
            ]
        else:
            self._base_external = None
            self._prefixes = []
        graph.version = 0

    # -- state -----------------------------------------------------------------

    @property
    def effective_csr(self) -> CSRGraph:
        """The current (post-all-batches) graph as a canonical CSR."""
        return self.overlay.to_csr()

    @property
    def min_repairable_version(self) -> int:
        """Oldest version a cached tree may have and still be repairable
        (compaction prunes the batch history behind it)."""
        return self._base_version

    def can_repair(self, from_version: int) -> bool:
        """Whether a tree at ``from_version`` is within the repair window."""
        return self._base_version <= from_version <= self.version

    def batches_since(self, from_version: int) -> list[MutationBatch]:
        """Effective batches applied after ``from_version``."""
        if not self.can_repair(from_version):
            raise ConfigurationError(
                f"version {from_version} outside repairable window "
                f"[{self._base_version}, {self.version}]"
            )
        return list(self._batches[from_version - self._base_version:])

    # -- mutation --------------------------------------------------------------

    def apply(self, batch: MutationBatch) -> MutationBatch:
        """Apply one batch atomically; returns the effective sub-batch.

        Bumps ``graph.version`` and rebuilds the DRAM-resident
        structures so the next query (local engine or scanner) sees the
        new version in full — there is no intermediate state.
        """
        g = self.graph
        with self.obs.span(
            "mut.apply",
            graph=g.name,
            version=self.version + 1,
            inserts=len(batch.inserts),
            deletes=len(batch.deletes),
        ):
            effective = self.overlay.apply(batch)
            self.version += 1
            self._batches.append(effective)
            self._refresh_graph()
            self.obs.counter(M_MUT_BATCHES, graph=g.name).inc()
            if effective.inserts:
                self.obs.counter(
                    M_MUT_APPLIED, graph=g.name, kind="insert"
                ).inc(len(effective.inserts))
            if effective.deletes:
                self.obs.counter(
                    M_MUT_APPLIED, graph=g.name, kind="delete"
                ).inc(len(effective.deletes))
            self.obs.gauge(M_MUT_VERSION, graph=g.name).set(self.version)
            self.obs.gauge(M_MUT_OVERLAY_BYTES, graph=g.name).set(
                self.overlay.overlay_nbytes
            )
        self.maybe_compact()
        return effective

    def _refresh_graph(self) -> None:
        """Swap the pinned graph's derived structures to the new version."""
        g = self.graph
        eff = self.overlay.to_csr()
        forward = ForwardGraph(eff, g.topology)
        backward = BackwardGraph(eff, g.topology)
        # One reference assignment per structure; the batched engine
        # re-reads them every round, so between-batch application is a
        # clean version transition.
        g.forward = forward
        g.backward = backward
        g.degrees = backward.global_degrees()
        g.scanners = [InMemoryScanner(s) for s in backward.shards]
        g.edges = _edge_list(eff)
        if self._base_external is not None:
            g.external_shards = [
                DeltaShard(self._base_external[k], self.overlay,
                           part.lo, part.hi)
                for k, part in enumerate(forward.partitions)
            ]
        g.version = self.version

    # -- compaction ------------------------------------------------------------

    def maybe_compact(self) -> bool:
        """Compact when due and safe (pins closed); returns whether it ran."""
        if self.compact_every <= 0:
            return False
        if len(self._batches) < self.compact_every:
            return False
        if self.graph.pins > 0:
            return False
        self.compact()
        return True

    def compact(self) -> None:
        """Fold the overlay into a fresh base CSR (and NVM files).

        Refuses while read handles are open: compaction swaps the
        arrays under the forward shards, and a pinned traversal must
        never observe half of that swap.  The NVM write is charged as
        one sequential stream through ``charge_write``.
        """
        g = self.graph
        if g.pins > 0:
            raise ConfigurationError(
                f"graph {g.name!r} still has {g.pins} open handle(s); "
                f"compaction would tear the version they pinned"
            )
        with self.obs.span(
            "mut.compact", graph=g.name, version=self.version,
            overlay_entries=self.overlay.n_overlay_entries,
        ):
            eff = self.overlay.to_csr()
            store = g.store
            if store is not None and self._base_external is not None:
                forward = ForwardGraph(eff, g.topology)
                prefixes = [
                    f"forward.v{self.version}.node{k}"
                    for k in range(len(forward.shards))
                ]
                # Build the new files completely before any reference
                # moves: a crash or an observer mid-build still sees the
                # old, whole version.
                shards = [
                    offload_csr(shard, store, prefix)
                    for shard, prefix in zip(forward.shards, prefixes)
                ]
                nbytes = sum(s.nbytes for s in shards)
                store.charge_write(nbytes, file_key="compact")
                old_prefixes = self._prefixes
                self._base_external = shards
                self._prefixes = prefixes
                for prefix in old_prefixes:
                    store.drop_array(f"{prefix}.index")
                    store.drop_array(f"{prefix}.value")
                self.obs.counter(
                    M_MUT_COMPACT_BYTES, graph=g.name
                ).inc(nbytes)
            self._base_csr = eff
            self.overlay = DeltaOverlay(eff)
            self._batches = []
            self._base_version = self.version
            self.n_compactions += 1
            self._refresh_graph()
            self.obs.counter(M_MUT_COMPACTIONS, graph=g.name).inc()
            self.obs.gauge(M_MUT_OVERLAY_BYTES, graph=g.name).set(0)

    # -- incremental repair ----------------------------------------------------

    def _charged_row(self, vertex: int) -> np.ndarray:
        """One effective adjacency row at the current version, charged.

        Semi-external graphs pay the device read of the base row on
        every shard (the affected-region I/O Meyer's algorithm is
        bounded by); DRAM graphs read the overlay for free.
        """
        g = self.graph
        if g.semi_external:
            return self._charged_rows([int(vertex)])[int(vertex)]
        return self.overlay.row(vertex)

    def _charged_rows(self, vertices: list) -> dict:
        """Batched charged row reads — one gather per shard per call.

        :func:`~repro.graphmut.repair.repair_tree` requests each wave's
        rows together, so the store's queueing model overlaps them the
        same way the batched engine overlaps a frontier's chunk fetches;
        per-row serial latency would make repair lose to recompute on
        modeled time regardless of how few rows it touches.
        """
        g = self.graph
        vertices = [int(v) for v in vertices]
        if not g.semi_external:
            return {v: self.overlay.row(v) for v in vertices}
        req = np.array(vertices, dtype=np.int64)
        think = request_think_time_s(g.cost_model, g.store)
        per_shard = []
        for shard in g.external_shards:
            values, counts = shard.gather_rows(req, think_time_s=think)
            per_shard.append(
                np.split(values, np.cumsum(counts)[:-1])
                if req.size else []
            )
        out: dict[int, np.ndarray] = {}
        for i, v in enumerate(vertices):
            # Shards partition the destination range in ascending order,
            # so concatenation preserves sortedness.
            out[v] = np.concatenate(
                [parts[i] for parts in per_shard]
            ).astype(np.int64, copy=False)
        return out

    def repair(
        self, old_parent: np.ndarray, root: int, from_version: int
    ) -> RepairOutcome | None:
        """Repair a tree computed at ``from_version`` to the current
        version, or ``None`` (unrepairable history / dirty fallback)."""
        g = self.graph
        if not self.can_repair(from_version):
            return None
        batches = self.batches_since(from_version)
        merged = merge_batches(batches)
        with self.obs.span(
            "mut.repair", graph=g.name, root=int(root),
            from_version=from_version, to_version=self.version,
            mutations=merged.n_mutations,
        ):
            outcome = repair_tree(
                self._charged_row,
                g.n_vertices,
                int(root),
                old_parent,
                merged,
                max_dirty_frac=self.repair_threshold,
                fetch_rows=self._charged_rows,
            )
            if outcome is None:
                self.obs.counter(
                    M_MUT_REPAIRS, graph=g.name, outcome="fallback"
                ).inc()
                return None
            self.obs.counter(
                M_MUT_REPAIRS, graph=g.name, outcome="repaired"
            ).inc()
            self.obs.histogram(
                M_MUT_REPAIR_ROWS, graph=g.name
            ).observe(outcome.n_rows_read)
            self.obs.histogram(
                M_MUT_REPAIR_DIRTY, graph=g.name
            ).observe(outcome.n_dirty)
            return outcome

    def __repr__(self) -> str:
        return (
            f"GraphMutator({self.graph.name!r}, version={self.version}, "
            f"base={self._base_version}, "
            f"overlay_entries={self.overlay.n_overlay_entries})"
        )
