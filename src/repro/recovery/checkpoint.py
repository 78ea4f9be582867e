"""CRC32-framed, epoch-numbered checkpoints of BFS traversal state.

A long semi-external traversal is exactly the regime where a process
crash is catastrophic (FlashGraph and Graphyti anchor semi-external
computation on SSD-resident state for the same reason), so the recovery
layer persists the loop-carried state of every engine at level
boundaries:

* the **parent array as a delta chain** — each epoch stores only the
  ``(index, parent)`` pairs discovered since the previous epoch, so the
  chain's total size is ~16 bytes per vertex regardless of how many
  epochs are written;
* the **frontier queue** entering the next level (the bitmap form is
  derived — the engines rebuild it lazily);
* the **visited bitmap** (packed bits), doubling as a restore-time
  cross-check that the delta chain reassembled the exact parent array;
* the **schedule cursor** (level, direction, previous frontier size,
  visited-degree sum) and the **simulated-clock offset**, in the JSON
  header.

Every byte sequence is framed as ``length | payload | crc32(payload)``,
so a torn write — a crash mid-checkpoint, injected or real — is detected
at restore time and recovery falls back to the longest valid epoch
prefix.  Writes are charged to the simulated clock through
:meth:`repro.semiext.storage.NVMStore.charge_write`: durability costs
time on the same axis as the traversal's reads.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, StorageError
from repro.obs.schema import (
    M_REC_CHECKPOINT_BYTES,
    M_REC_CHECKPOINT_SECONDS,
    M_REC_CHECKPOINTS,
)
from repro.obs.session import NULL
from repro.semiext.storage import NVMStore

__all__ = [
    "QuerySnapshot",
    "RestoredQuery",
    "RestoredRun",
    "CheckpointManager",
    "load_run",
]

MAGIC = b"RPCK1\n"
_LEN = struct.Struct("<Q")
_CRC = struct.Struct("<I")


@dataclass(frozen=True)
class QuerySnapshot:
    """One traversal's loop-carried state at a level boundary.

    ``key`` distinguishes concurrent queries in a batched checkpoint
    (the serve tier uses the graph name); a single-engine run uses
    ``""``.  ``direction`` is the :class:`~repro.bfs.metrics.Direction`
    *value* string so headers stay JSON-serializable.
    """

    key: str
    root: int
    level: int
    direction: str
    prev_frontier: int
    visited_deg_sum: int
    parent: np.ndarray
    frontier_queue: np.ndarray

    @classmethod
    def at(cls, key: str, state, cursor) -> "QuerySnapshot":
        """Snapshot a traversal at a level boundary from its
        :class:`~repro.bfs.state.BFSState` and
        :class:`~repro.bfs.loop.LevelCursor`
        (:meth:`LevelCursor.restore <repro.bfs.loop.LevelCursor.restore>`
        is the inverse)."""
        return cls(
            key=key,
            root=int(state.root),
            level=int(cursor.level),
            direction=cursor.direction.value,
            prev_frontier=int(cursor.prev_frontier),
            visited_deg_sum=int(cursor.visited_deg_sum),
            parent=state.parent,
            frontier_queue=state.frontier_queue,
        )


@dataclass
class RestoredQuery:
    """One query's state reassembled from the valid epoch prefix."""

    key: str
    root: int
    level: int
    direction: str
    prev_frontier: int
    visited_deg_sum: int
    n_vertices: int
    parent: np.ndarray
    frontier_queue: np.ndarray


@dataclass
class RestoredRun:
    """Outcome of :func:`load_run` over one checkpoint directory.

    ``epoch`` is the newest epoch that survived CRC validation (-1 when
    nothing did); ``n_torn`` counts rejected epochs — files whose
    framing, checksum or visited-bitmap cross-check failed, which
    recovery skips by falling back to the prefix before them.
    """

    epoch: int = -1
    clock_s: float = 0.0
    queries: list[RestoredQuery] = field(default_factory=list)
    n_epochs_seen: int = 0
    n_torn: int = 0
    nbytes: int = 0


def _write_frame(buf: io.BytesIO, payload: bytes) -> None:
    buf.write(_LEN.pack(len(payload)))
    buf.write(payload)
    buf.write(_CRC.pack(zlib.crc32(payload)))


def _read_frame(f: io.BufferedReader, limit: int) -> bytes:
    head = f.read(_LEN.size)
    if len(head) != _LEN.size:
        raise StorageError("checkpoint frame truncated (length header)")
    (length,) = _LEN.unpack(head)
    if length > limit:
        raise StorageError(f"checkpoint frame length {length} implausible")
    payload = f.read(length)
    if len(payload) != length:
        raise StorageError("checkpoint frame truncated (payload)")
    tail = f.read(_CRC.size)
    if len(tail) != _CRC.size:
        raise StorageError("checkpoint frame truncated (checksum)")
    (crc,) = _CRC.unpack(tail)
    if zlib.crc32(payload) != crc:
        raise StorageError("checkpoint frame failed CRC32 verification")
    return payload


class CheckpointManager:
    """Persists epoch-numbered traversal snapshots to an NVM store.

    Parameters
    ----------
    store:
        The :class:`~repro.semiext.storage.NVMStore` whose root hosts
        the checkpoint directory and whose clock is charged per write.
    run_id:
        Namespace under ``<store root>/checkpoints/``; one traversal (or
        one serve batch) per id.
    every:
        Cadence in levels: an epoch is written at every ``every``-th
        level boundary.  1 = every level (the durability maximum); the
        default 2 halves the write amplification while losing at most
        one extra level on a crash.
    obs:
        Observability session for the ``recovery.*`` metrics and the
        ``recovery.checkpoint`` span; defaults to the store's session.
    """

    def __init__(
        self,
        store: NVMStore,
        run_id: str = "bfs",
        every: int = 2,
        obs=None,
    ) -> None:
        if every < 1:
            raise ConfigurationError(f"checkpoint cadence must be >= 1: {every}")
        if "/" in run_id or run_id.startswith("."):
            raise ConfigurationError(f"invalid checkpoint run id: {run_id!r}")
        self.store = store
        self.run_id = run_id
        self.every = int(every)
        self.obs = obs if obs is not None else store.obs
        if self.obs is None:  # a store always has one, but be safe
            self.obs = NULL
        self.dir = store.root / "checkpoints" / run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.next_epoch = 0
        self.bytes_written = 0
        self.n_checkpoints = 0
        self._prev_visited: dict[tuple[str, int], np.ndarray] = {}
        self._last_path: Path | None = None

    def epoch_path(self, epoch: int) -> Path:
        """File of epoch number ``epoch``."""
        return self.dir / f"epoch_{epoch:06d}.ckpt"

    def save(self, snapshots: list[QuerySnapshot]) -> Path:
        """Write one epoch covering ``snapshots`` and charge the clock."""
        if not snapshots:
            raise ConfigurationError("cannot checkpoint zero queries")
        epoch = self.next_epoch
        header = {
            "epoch": epoch,
            "clock_s": float(self.store.clock.now()),
            "queries": [],
        }
        arrays: list[np.ndarray] = []
        for snap in snapshots:
            parent = np.asarray(snap.parent, dtype=np.int64)
            visited = parent >= 0
            prev = self._prev_visited.get((snap.key, snap.root))
            fresh = visited if prev is None else (visited & ~prev)
            delta_idx = np.flatnonzero(fresh).astype(np.int64)
            header["queries"].append({
                "key": snap.key,
                "root": int(snap.root),
                "level": int(snap.level),
                "direction": snap.direction,
                "prev_frontier": int(snap.prev_frontier),
                "visited_deg_sum": int(snap.visited_deg_sum),
                "n_vertices": int(parent.size),
            })
            arrays.append(np.asarray(snap.frontier_queue, dtype=np.int64))
            arrays.append(delta_idx)
            arrays.append(parent[delta_idx])
            arrays.append(np.packbits(visited))
            self._prev_visited[(snap.key, snap.root)] = visited
        buf = io.BytesIO()
        buf.write(MAGIC)
        _write_frame(buf, json.dumps(header, sort_keys=True).encode())
        for arr in arrays:
            _write_frame(buf, arr.tobytes())
        payload = buf.getvalue()
        path = self.epoch_path(epoch)
        obs = self.obs
        with obs.span(
            "recovery.checkpoint",
            epoch=epoch,
            bytes=len(payload),
            queries=len(snapshots),
        ):
            path.write_bytes(payload)
            elapsed = self.store.charge_write(
                len(payload), file_key=f"ckpt:{self.run_id}"
            )
        self.next_epoch = epoch + 1
        self.bytes_written += len(payload)
        self.n_checkpoints += 1
        self._last_path = path
        obs.counter(M_REC_CHECKPOINTS).inc()
        obs.counter(M_REC_CHECKPOINT_BYTES).inc(len(payload))
        obs.counter(M_REC_CHECKPOINT_SECONDS).inc(elapsed)
        return path

    def corrupt_last(self) -> None:
        """Tear the newest epoch (crash-during-checkpoint injection).

        Truncates the file mid-frame, exactly what an interrupted write
        leaves behind; :func:`load_run` must reject it by CRC and fall
        back to the previous epoch.  No-op when nothing was written yet.
        """
        if self._last_path is None or not self._last_path.exists():
            return
        data = self._last_path.read_bytes()
        self._last_path.write_bytes(data[: max(len(MAGIC), len(data) - 7)])

    def adopt(self, restored: RestoredRun) -> None:
        """Continue an existing chain after :func:`load_run`.

        Primes the delta baseline with the restored parent arrays and
        points :attr:`next_epoch` past the valid prefix, so the resumed
        traversal's next epoch extends the chain instead of restarting
        it.  Epochs after the valid prefix (torn or from the crashed
        attempt) are removed — they would shadow the resumed chain.
        """
        self.next_epoch = restored.epoch + 1
        for q in restored.queries:
            self._prev_visited[(q.key, q.root)] = q.parent >= 0
        for path in sorted(self.dir.glob("epoch_*.ckpt")):
            try:
                num = int(path.stem.split("_")[1])
            except (IndexError, ValueError):  # pragma: no cover - foreign file
                continue
            if num > restored.epoch:
                path.unlink()

    def __repr__(self) -> str:
        return (
            f"CheckpointManager({str(self.dir)!r}, every={self.every}, "
            f"epochs={self.next_epoch})"
        )


def _parse_epoch(
    path: Path,
    visited_acc: dict[tuple[str, int], np.ndarray],
) -> tuple[dict, list[tuple[dict, np.ndarray, np.ndarray, np.ndarray]]]:
    """Parse + validate one epoch file without mutating ``visited_acc``.

    Returns the header and, per query, ``(query_header, frontier,
    delta_idx, delta_val)``.  Raises :class:`~repro.errors.StorageError`
    on any framing, CRC or cross-check violation — the caller treats the
    epoch (and everything after it) as torn.
    """
    limit = path.stat().st_size
    with path.open("rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise StorageError(f"{path.name}: bad checkpoint magic")
        header = json.loads(_read_frame(f, limit).decode())
        parsed = []
        for q in header["queries"]:
            frontier = np.frombuffer(_read_frame(f, limit), dtype=np.int64)
            delta_idx = np.frombuffer(_read_frame(f, limit), dtype=np.int64)
            delta_val = np.frombuffer(_read_frame(f, limit), dtype=np.int64)
            packed = np.frombuffer(_read_frame(f, limit), dtype=np.uint8)
            n = int(q["n_vertices"])
            if delta_idx.size != delta_val.size:
                raise StorageError(f"{path.name}: delta index/value mismatch")
            if delta_idx.size and (
                delta_idx.min() < 0 or int(delta_idx.max()) >= n
            ):
                raise StorageError(f"{path.name}: delta index out of range")
            prev = visited_acc.get((q["key"], q["root"]))
            visited = (
                np.zeros(n, dtype=bool) if prev is None else prev.copy()
            )
            visited[delta_idx] = True
            stored = np.unpackbits(packed, count=n).astype(bool)
            if not np.array_equal(visited, stored):
                raise StorageError(
                    f"{path.name}: visited bitmap disagrees with the "
                    f"delta chain"
                )
            parsed.append((q, frontier, delta_idx, delta_val))
    return header, parsed


def load_run(directory: str | Path) -> RestoredRun:
    """Reassemble traversal state from the longest valid epoch prefix.

    Epoch files are read in epoch order; the first file that fails its
    framing, CRC32 or visited-bitmap cross-check ends the prefix — it
    and everything after it count as torn, and the returned state is
    what the previous epoch persisted.  An empty or fully-torn directory
    returns ``epoch == -1`` (nothing to resume from).
    """
    directory = Path(directory)
    run = RestoredRun()
    if not directory.is_dir():
        return run
    parents: dict[tuple[str, int], np.ndarray] = {}
    visited_acc: dict[tuple[str, int], np.ndarray] = {}
    last_header: dict | None = None
    last_frontiers: dict[tuple[str, int], np.ndarray] = {}
    paths = sorted(directory.glob("epoch_*.ckpt"))
    run.n_epochs_seen = len(paths)
    for i, path in enumerate(paths):
        try:
            expected = int(path.stem.split("_")[1])
            if expected != i:
                raise StorageError(
                    f"{path.name}: epoch chain has a gap (expected {i})"
                )
            header, parsed = _parse_epoch(path, visited_acc)
            if header.get("epoch") != i:
                raise StorageError(f"{path.name}: header epoch mismatch")
        except (StorageError, KeyError, ValueError, json.JSONDecodeError):
            run.n_torn = len(paths) - i
            break
        # The epoch is fully validated: apply its deltas.
        last_frontiers = {}
        for q, frontier, delta_idx, delta_val in parsed:
            qk = (q["key"], q["root"])
            if qk not in parents:
                parents[qk] = np.full(
                    int(q["n_vertices"]), -1, dtype=np.int64
                )
                visited_acc[qk] = np.zeros(int(q["n_vertices"]), dtype=bool)
            parents[qk][delta_idx] = delta_val
            visited_acc[qk][delta_idx] = True
            last_frontiers[qk] = frontier
        run.epoch = i
        run.clock_s = float(header["clock_s"])
        run.nbytes += path.stat().st_size
        last_header = header
    if last_header is not None:
        for q in last_header["queries"]:
            qk = (q["key"], q["root"])
            run.queries.append(RestoredQuery(
                key=q["key"],
                root=int(q["root"]),
                level=int(q["level"]),
                direction=q["direction"],
                prev_frontier=int(q["prev_frontier"]),
                visited_deg_sum=int(q["visited_deg_sum"]),
                n_vertices=int(q["n_vertices"]),
                parent=parents[qk].copy(),
                frontier_queue=last_frontiers[qk].copy(),
            ))
    return run
