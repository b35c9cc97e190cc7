"""The on-disk checkpoint store: build, load, restore, list, collect.

One :class:`CheckpointSet` holds the snapshots of one functional-warming
pass over one program on one machine geometry, at a fixed snapshot
stride (a multiple of the sampling-unit size).  Sets are pickled and
LZMA-compressed into ``<checkpoint dir>/*.ckpt`` files named by the
fingerprints that key them, so any process (including forked sweep
workers) can reuse a set built by another.  Warm microarchitectural
state is stored as sparse per-stride deltas (full state only at the
first snapshot; see :func:`repro.checkpoint.snapshot.micro_delta`),
which — together with LZMA's large match window — shrinks sets several
times relative to the original full-state zlib format.

Restore semantics: within a run, sampling plans enumerate units in
ascending stream order, so restores are forward jumps.  Restoring to
snapshot *i* replaces registers/PC and warm microarchitectural state
wholesale and applies the memory deltas of exactly the strides being
skipped (those ending after the core's current position, in order).
Re-applying a delta whose stride partially precedes the current position
is safe: deltas store the *final* value of each written address at the
stride boundary, which lies on the same deterministic trajectory.
"""

from __future__ import annotations

import lzma
import pickle
import warnings
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from repro.config.machines import MachineConfig
from repro.core.procedure import recommended_warming
from repro.detailed.state import MicroarchState
from repro.functional.engine import create_core
from repro.functional.simulator import FunctionalCore
from repro.functional.warming import FunctionalWarmer, warming_pass
from repro.isa.program import Program
from repro.store import ArtifactStore, record_pass, register_artifact_kind
from repro.checkpoint.snapshot import (
    CHECKPOINT_VERSION,
    Snapshot,
    apply_micro_delta,
    copy_micro,
    machine_warm_fingerprint,
    micro_delta,
    program_fingerprint,
)

#: Default snapshot stride, in sampling units: one snapshot every
#: ``stride * unit_size`` instructions.  The residual fast-forward per
#: restored unit is bounded by one stride (plus the detailed-warming
#: remainder), so smaller strides save more warming work at the cost of
#: proportionally more snapshots on disk.  The default must stay below
#: the typical inter-unit gap ``(k-1)·U − W`` of suite-scale systematic
#: runs, or no grid point falls inside the gaps and restores never fire.
DEFAULT_STRIDE = 4

#: Build-pass instruction budget (matches ``measure_program_length``).
DEFAULT_BUILD_LIMIT = 200_000_000

#: Format version of cached BBV profiles (bump on BBVProfile changes).
BBV_PROFILE_VERSION = 1

#: LZMA preset for checkpoint-set blobs.  LZMA's multi-megabyte match
#: window spans many snapshots (zlib's 32 KiB covers barely one), which
#: is what lets the residual redundancy across strides compress away.
_LZMA_PRESET = 6

register_artifact_kind("checkpoint", ".ckpt",
                       f"--v{CHECKPOINT_VERSION}.ckpt")
register_artifact_kind("bbv", ".bbvp", f"--v{BBV_PROFILE_VERSION}.bbvp")


def _pack(payload: dict) -> bytes:
    """Serialize a store payload to its on-disk representation."""
    return lzma.compress(pickle.dumps(payload, protocol=4),
                         preset=_LZMA_PRESET)


def _unpack(blob: bytes) -> dict:
    """Deserialize an on-disk checkpoint-set blob."""
    return pickle.loads(lzma.decompress(blob))


class StaleCheckpointWarning(UserWarning):
    """Checkpoints exist for this program/unit but a different machine
    geometry (or snapshot format version); they will not be reused."""


@dataclass
class CheckpointSet:
    """Snapshots of one functional-warming pass, plus identity metadata."""

    benchmark: str
    machine: str
    program_hash: str
    machine_hash: str
    unit_size: int
    stride: int
    benchmark_length: int
    version: int = CHECKPOINT_VERSION
    snapshots: list[Snapshot] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._positions = [snap.position for snap in self.snapshots]
        # Delta-encoded warm state is materialized lazily; the cursor
        # makes a run's in-order restores replay each delta only once.
        self._micro_cursor = -1
        self._micro_materialized: dict | None = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def matches(self, program: Program, machine: MachineConfig) -> bool:
        """Whether this set was built for exactly this program/geometry."""
        return (self.program_hash == program_fingerprint(program)
                and self.machine_hash == machine_warm_fingerprint(machine))

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def restore_point(self, limit: int) -> int | None:
        """Index of the latest snapshot at or before stream position
        ``limit``, or None when no snapshot precedes it."""
        index = bisect_right(self._positions, limit) - 1
        return index if index >= 0 else None

    def position(self, index: int) -> int:
        return self._positions[index]

    def restore_into(self, index: int, core: FunctionalCore,
                     microarch: MicroarchState) -> int:
        """Jump ``core``/``microarch`` forward to snapshot ``index``.

        Returns the number of instructions skipped.  The core must be on
        this set's trajectory (same program, earlier position); restoring
        backwards is refused because memory deltas only replay forward.
        """
        snap = self.snapshots[index]
        current = core.instructions_retired
        if snap.position <= current:
            raise ValueError(
                f"cannot restore backwards: snapshot at {snap.position}, "
                f"core at {current}")
        first = bisect_right(self._positions, current)
        deltas = [self.snapshots[i].mem_delta for i in range(first, index + 1)]
        micro, int_regs, fp_regs = self._state_at(index)
        core.restore_arch(snap.position, snap.pc, snap.halted,
                          int_regs, fp_regs, deltas)
        microarch.restore_state(micro)
        return snap.position - current

    def _state_at(self, index: int) -> tuple[dict, list, list]:
        """Warm state and register files at snapshot ``index``.

        Snapshots carrying full state (the first of a delta-encoded set,
        or every snapshot of a pre-delta set) return it directly.  For
        delta snapshots the state is reconstructed by replaying the
        sparse per-stride changes forward from the base snapshot; the
        cursor caches the materialized state so a run's ascending
        restore sequence replays each delta exactly once.
        """
        snap = self.snapshots[index]
        if snap.micro_delta is None:
            return snap.micro, snap.int_regs, snap.fp_regs
        cursor, state = self._micro_cursor, self._micro_materialized
        if state is None or cursor > index:
            base = self.snapshots[0]
            state = (copy_micro(base.micro), list(base.int_regs),
                     list(base.fp_regs))
            cursor = 0
        while cursor < index:
            cursor += 1
            apply_micro_delta(state, self.snapshots[cursor].micro_delta)
        self._micro_cursor = cursor
        self._micro_materialized = state
        return state

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "meta": {
                "benchmark": self.benchmark,
                "machine": self.machine,
                "program_hash": self.program_hash,
                "machine_hash": self.machine_hash,
                "unit_size": self.unit_size,
                "stride": self.stride,
                "benchmark_length": self.benchmark_length,
                "version": self.version,
            },
            "snapshots": self.snapshots,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CheckpointSet":
        return cls(snapshots=payload["snapshots"], **payload["meta"])

    def describe(self) -> dict:
        """Flat metadata row for ``checkpoint ls`` style listings."""
        return {
            "benchmark": self.benchmark,
            "machine": self.machine,
            "program_hash": self.program_hash,
            "machine_hash": self.machine_hash,
            "unit_size": self.unit_size,
            "stride": self.stride,
            "benchmark_length": self.benchmark_length,
            "snapshots": len(self.snapshots),
            "version": self.version,
        }


class SnapshotRecorder:
    """Accumulates the delta-encoded snapshots of one warm pass.

    This is the capture half of :func:`build_checkpoints`, factored out
    so the full-stream reference pass (:mod:`repro.harness.reference`)
    can record the *same* snapshots while it produces the reference
    trace — one pass, two artifact namespaces.  The first capture keeps
    full warm state and register files; every later one stores only the
    delta against its predecessor (see
    :func:`repro.checkpoint.snapshot.micro_delta`).
    """

    def __init__(self) -> None:
        self.snapshots: list[Snapshot] = []
        self._previous: tuple[dict, list, list] | None = None

    def capture(self, core: FunctionalCore, microarch: MicroarchState,
                position: int, written: set[int]) -> None:
        """Record one snapshot at stream ``position``.

        ``written`` is the set of memory addresses stored to since the
        previous capture (the per-stride memory delta).
        """
        memory = core.state.memory
        state = core.state
        micro_state = microarch.snapshot_state()
        current = (micro_state, list(state.int_regs), list(state.fp_regs))
        if self._previous is None:
            micro, delta = micro_state, None
            snap_int_regs, snap_fp_regs = current[1], current[2]
        else:
            micro = {}
            snap_int_regs, snap_fp_regs = [], []
            delta = micro_delta(self._previous, current)
        self._previous = current
        self.snapshots.append(Snapshot(
            position=position,
            pc=state.pc,
            halted=state.halted,
            int_regs=snap_int_regs,
            fp_regs=snap_fp_regs,
            mem_delta={addr: memory[addr] for addr in written},
            micro=micro,
            micro_delta=delta,
        ))


def snapshot_offsets(chunk: int, warm_align: int | None) -> tuple[int, ...]:
    """The extra within-stride snapshot offsets a warming length implies.

    A systematic run warms each unit from ``unit.start - W``; snapshots
    at positions congruent to ``-W`` modulo the stride make those warm
    starts exact restore points (see :func:`build_checkpoints`).
    """
    if not warm_align:
        return ()
    residue = (-int(warm_align)) % chunk
    return (residue,) if residue else ()


def build_checkpoints(
    program: Program,
    machine: MachineConfig,
    unit_size: int,
    stride: int = DEFAULT_STRIDE,
    limit: int = DEFAULT_BUILD_LIMIT,
    warm_align: int | None = None,
) -> CheckpointSet:
    """Run one functional-warming pass and capture per-stride snapshots.

    The pass starts from cold (power-on) state, exactly as a
    ``cold_start`` engine run does, and runs to program halt; it also
    measures the benchmark's dynamic length as a by-product, which
    checkpointed runs reuse instead of a separate measuring pass.

    ``warm_align`` (a detailed-warming length W, typically the machine's
    :func:`~repro.core.procedure.recommended_warming`) interleaves extra
    snapshots at positions congruent to ``-W`` modulo the stride.  A
    systematic run warms each unit from ``unit.start - W``; whenever its
    sampling grid lands on the snapshot stride — the common suite
    configuration — those shifted snapshots are exact restore points and
    the residual per-unit fast-forward drops to zero.  Warm state is
    delta-encoded between consecutive snapshots, so the extra positions
    cost little on disk.
    """
    if unit_size <= 0:
        raise ValueError("unit_size must be positive")
    if stride <= 0:
        raise ValueError("stride must be positive")
    core = create_core(program)
    microarch = MicroarchState(machine)
    microarch.flush()
    warmer = FunctionalWarmer(microarch)
    chunk = unit_size * stride
    extra_offsets = snapshot_offsets(chunk, warm_align)

    recorder = SnapshotRecorder()
    for position, written in warming_pass(core, warmer, chunk, limit=limit,
                                          extra_offsets=extra_offsets):
        recorder.capture(core, microarch, position, written)
    snapshots = recorder.snapshots
    if not core.state.halted:
        raise RuntimeError(
            f"program {program.name!r} did not halt within {limit} "
            f"instructions; refusing to build a partial checkpoint set")
    record_pass("checkpoint_build", program.name, core.instructions_retired)
    return CheckpointSet(
        benchmark=program.name,
        machine=machine.name,
        program_hash=program_fingerprint(program),
        machine_hash=machine_warm_fingerprint(machine),
        unit_size=unit_size,
        stride=stride,
        benchmark_length=core.instructions_retired,
        snapshots=snapshots,
    )


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------
def default_checkpoint_dir() -> Path:
    """Directory used to persist checkpoint sets.

    Now the ``checkpoint`` namespace of the artifact store:
    ``REPRO_CHECKPOINT_DIR`` still wins as a legacy override, otherwise
    ``<REPRO_ARTIFACT_DIR or .artifacts>/checkpoint``.
    """
    return ArtifactStore().namespace_dir("checkpoint")


#: Process-wide cache of loaded sets keyed by (path, mtime_ns), so sweep
#: runs over the same benchmark/machine deserialize each set only once.
_LOADED: dict[tuple[str, int], CheckpointSet] = {}


class CheckpointStore:
    """File-per-set checkpoint store keyed by content fingerprints.

    A thin adapter over the artifact store's ``checkpoint`` and ``bbv``
    namespaces.  Blobs are written through the store's checksum frame,
    so a truncated or bit-rotted set is quarantined and rebuilt instead
    of being unpickled; pre-store files (headerless) still read fine.
    An explicit ``directory`` pins *both* namespaces to one flat
    directory — the legacy layout, and what keeps per-test isolation
    trivial.
    """

    def __init__(self, directory: Path | str | None = None,
                 enabled: bool = True, store: ArtifactStore | None = None):
        if store is None:
            overrides = ({"checkpoint": directory, "bbv": directory}
                         if directory else None)
            store = ArtifactStore(enabled=enabled, overrides=overrides)
        self.store = store
        self.directory = store.namespace_dir("checkpoint")
        self.bbv_directory = store.namespace_dir("bbv")
        self.enabled = enabled

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @staticmethod
    def _slug(name: str) -> str:
        return name.replace("/", "_").replace("--", "-")

    def path_for(self, program: Program, machine: MachineConfig,
                 unit_size: int) -> Path:
        return self.directory / (
            f"{self._slug(program.name)}--{program_fingerprint(program)}"
            f"--m{machine_warm_fingerprint(machine)}--u{unit_size}"
            f"--v{CHECKPOINT_VERSION}.ckpt")

    # ------------------------------------------------------------------
    # Load / save
    # ------------------------------------------------------------------
    def _load(self, path: Path) -> CheckpointSet | None:
        try:
            mtime = path.stat().st_mtime_ns
        except OSError:
            return None
        key = (str(path), mtime)
        cached = _LOADED.get(key)
        if cached is not None:
            return cached
        blob = self.store.read_path(path)  # verifies checksum, quarantines
        if blob is None:
            return None
        try:
            ckpt = CheckpointSet.from_payload(_unpack(blob))
        except Exception:
            return None  # corrupt or unreadable: treat as a miss
        while len(_LOADED) >= 8:  # bound resident decoded sets
            _LOADED.pop(next(iter(_LOADED)))
        _LOADED[key] = ckpt
        return ckpt

    def get(self, program: Program, machine: MachineConfig,
            unit_size: int) -> CheckpointSet | None:
        """Load the matching set, or None (warning if a stale one exists).

        A set whose program fingerprint and unit size match but whose
        machine geometry differs — e.g. after a cache-geometry change —
        is *never* restored; a :class:`StaleCheckpointWarning` points at
        the mismatch so callers know a rebuild is happening.
        """
        if not self.enabled:
            return None
        path = self.path_for(program, machine, unit_size)
        ckpt = self._load(path)
        if ckpt is not None:
            if (ckpt.version == CHECKPOINT_VERSION
                    and ckpt.matches(program, machine)
                    and ckpt.unit_size == unit_size):
                return ckpt
            return None
        # A stale set is one built for *this same machine* (by name)
        # before its geometry or the snapshot format changed; sets for
        # other machines legitimately coexist and are not reported.
        for candidate in self.directory.glob(
                f"*--{program_fingerprint(program)}--m*--u{unit_size}"
                f"--v*.ckpt"):
            if candidate == path:
                continue
            stale = self._load(candidate)
            if stale is not None and stale.machine == machine.name:
                warnings.warn(
                    f"checkpoints for {program.name!r} (U={unit_size}) on "
                    f"{machine.name!r} were built for a different machine "
                    f"geometry or format version; rebuilding",
                    StaleCheckpointWarning, stacklevel=2)
                break
        return None

    def put(self, ckpt: CheckpointSet, program: Program,
            machine: MachineConfig) -> Path:
        path = self.path_for(program, machine, ckpt.unit_size)
        if not self.enabled:
            return path
        return self.store.write_path(path, _pack(ckpt.to_payload()))

    def get_or_build(self, program: Program, machine: MachineConfig,
                     unit_size: int, stride: int | None = None,
                     limit: int = DEFAULT_BUILD_LIMIT) -> CheckpointSet:
        """The workhorse of ``checkpoints="auto"``: load else build+save.

        ``stride=None`` (the auto path) accepts a stored set at any
        stride — every grid restores exactly.  An explicit ``stride``
        is a requirement: a stored set at a different stride is rebuilt
        (``checkpoint build --stride N`` must produce the grid it names).

        Builds align extra snapshots at the machine's recommended
        detailed-warming offset (``unit.start - W`` for stride-aligned
        systematic grids restores with zero residual fast-forward); the
        alignment is an optimization only, so stored sets built for a
        different W remain valid and are reused as-is.
        """
        ckpt = self.get(program, machine, unit_size)
        if ckpt is not None and (stride is None or ckpt.stride == stride):
            return ckpt
        ckpt = build_checkpoints(program, machine, unit_size,
                                 stride=DEFAULT_STRIDE if stride is None
                                 else stride, limit=limit,
                                 warm_align=recommended_warming(machine))
        self.put(ckpt, program, machine)
        return ckpt

    # ------------------------------------------------------------------
    # BBV profiles (the stratified strategy's phase-labeling pass)
    # ------------------------------------------------------------------
    def bbv_path_for(self, program: Program, interval_size: int,
                     limit: int | None = None) -> Path:
        tag = "full" if limit is None else str(limit)
        return self.bbv_directory / (
            f"{self._slug(program.name)}--{program_fingerprint(program)}"
            f"--bbv-i{interval_size}-l{tag}--v{BBV_PROFILE_VERSION}.bbvp")

    def get_bbv_profile(self, program: Program, interval_size: int,
                        limit: int | None = None):
        """Load a cached BBV profile, or None on miss/mismatch."""
        if not self.enabled:
            return None
        blob = self.store.read_path(
            self.bbv_path_for(program, interval_size, limit))
        if blob is None:
            return None
        try:
            payload = pickle.loads(zlib.decompress(blob))
        except Exception:
            return None  # corrupt or unreadable: a miss
        meta = payload.get("meta", {})
        if (meta.get("version") != BBV_PROFILE_VERSION
                or meta.get("program_hash") != program_fingerprint(program)
                or meta.get("interval_size") != interval_size
                or meta.get("limit") != limit):
            return None
        return payload["profile"]

    def put_bbv_profile(self, profile, program: Program,
                        limit: int | None = None) -> Path:
        path = self.bbv_path_for(program, profile.interval_size, limit)
        if not self.enabled:
            return path
        payload = {
            "meta": {
                "benchmark": program.name,
                "program_hash": program_fingerprint(program),
                "interval_size": profile.interval_size,
                "limit": limit,
                "version": BBV_PROFILE_VERSION,
            },
            "profile": profile,
        }
        blob = zlib.compress(pickle.dumps(payload, protocol=4), 6)
        return self.store.write_path(path, blob)

    def get_or_profile(self, program: Program, interval_size: int,
                       max_instructions: int | None = None):
        """Load-else-profile the BBVs of ``program`` (load is exact).

        This is the stratified strategy's phase-labeling pass: profiling
        is deterministic, so a cached profile is bit-identical to a
        fresh one and caching it here removes the last redundant
        functional pass from repeated stratified runs (clustering —
        cheap and seed-dependent — still runs per spec).
        """
        profile = self.get_bbv_profile(program, interval_size,
                                       limit=max_instructions)
        if profile is None:
            from repro.simpoint.bbv import profile_bbv

            profile = profile_bbv(program, interval_size,
                                  max_instructions=max_instructions)
            try:
                self.put_bbv_profile(profile, program, limit=max_instructions)
            except OSError:
                # Profile caching is an optimization: an unwritable store
                # (read-only checkout, unwritable artifact root)
                # must not break a run that previously worked in memory.
                pass
        return profile

    # ------------------------------------------------------------------
    # Maintenance (checkpoint ls / gc)
    # ------------------------------------------------------------------
    def entries(self) -> list[dict]:
        """Metadata of every readable set in the store directory."""
        rows = []
        for path in sorted(self.directory.glob("*.ckpt")):
            ckpt = self._load(path)
            if ckpt is None:
                continue
            row = ckpt.describe()
            row["file"] = path.name
            row["size_bytes"] = path.stat().st_size
            rows.append(row)
        return rows

    def bbv_entries(self) -> list[dict]:
        """Metadata of every readable current-version BBV profile.

        Mirrors :meth:`entries`: unreadable, corrupt, or other-version
        files are skipped (``gc`` removes them), never raised on.
        """
        rows = []
        for path in sorted(self.bbv_directory.glob("*.bbvp")):
            blob = self.store.read_path(path)
            if blob is None:
                continue
            try:
                payload = pickle.loads(zlib.decompress(blob))
                meta = dict(payload["meta"])
                if meta.get("version") != BBV_PROFILE_VERSION:
                    continue
                meta["intervals"] = payload["profile"].num_intervals
                meta["file"] = path.name
                meta["size_bytes"] = path.stat().st_size
            except Exception:
                continue
            rows.append(meta)
        return rows

    def gc(self, max_age_days: float | None = None,
           remove_all: bool = False, dry_run: bool = False) -> list[Path]:
        """Delete stale checkpoint files; returns the removed paths.

        Delegates to :meth:`ArtifactStore.gc` over the ``checkpoint``
        and ``bbv`` namespaces: always removes leftover ``*.tmp`` files
        and sets/profiles written by a different format version;
        ``max_age_days`` additionally removes entries not touched within
        that window, ``remove_all`` empties the store (BBV profiles
        included), and ``dry_run`` reports without deleting.
        """
        return self.store.gc(namespaces=("checkpoint", "bbv"),
                             max_age_days=max_age_days,
                             remove_all=remove_all, dry_run=dry_run)
