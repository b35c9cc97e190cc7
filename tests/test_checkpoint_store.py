"""Checkpoint store: build, persist, restore semantics, invalidation.

The regression test this file exists for: a checkpoint set built for one
machine geometry must *never* be restored after the geometry changes —
a modified cache/TLB/predictor shape maps to a different store key, the
stale set is reported with a :class:`StaleCheckpointWarning`, and a
fresh build produces exactly the estimates a from-zero run produces.
"""

from __future__ import annotations

import copy
import pickle
import zlib
from dataclasses import replace

import pytest

from repro.checkpoint import (
    CheckpointStore,
    Snapshot,
    StaleCheckpointWarning,
    build_checkpoints,
    machine_warm_fingerprint,
    program_fingerprint,
)
from repro.config.machines import CacheConfig
from repro.core.procedure import recommended_warming
from repro.core.sampling import SystematicSamplingPlan
from repro.core.smarts import SmartsEngine
from repro.detailed.state import MicroarchState
from repro.functional.engine import create_core
from repro.functional.simulator import FunctionalCore
from repro.functional.warming import FunctionalWarmer


@pytest.fixture()
def store(tmp_path):
    return CheckpointStore(tmp_path / "ckpt")


@pytest.fixture(scope="module")
def plan():
    return SystematicSamplingPlan.for_sample_size(
        benchmark_length=15_000, unit_size=25, target_sample_size=40,
        detailed_warming=50)


def shrunk_l1d(machine):
    """The same machine with a halved, direct-mapped L1D."""
    return replace(machine, l1d=CacheConfig(2 * 1024, 1, block_bytes=32))


# ----------------------------------------------------------------------
# Build and restore mechanics
# ----------------------------------------------------------------------
class TestBuildAndRestore:
    def test_build_records_length_and_grid(self, micro, machine_8way):
        ckpt = build_checkpoints(micro.program, machine_8way, unit_size=25,
                                 stride=4)
        chunk = 25 * 4
        assert ckpt.benchmark_length > 0
        assert len(ckpt.snapshots) == ckpt.benchmark_length // chunk
        assert [s.position for s in ckpt.snapshots] == [
            chunk * (i + 1) for i in range(len(ckpt.snapshots))]

    def test_restore_reproduces_functional_state(self, micro, machine_8way):
        """Restoring then executing equals executing from zero."""
        ckpt = build_checkpoints(micro.program, machine_8way, unit_size=25)
        target = ckpt.snapshots[5].position + 37  # off-grid position

        reference = FunctionalCore(micro.program)
        reference.run(target)

        core = FunctionalCore(micro.program)
        micro_state = MicroarchState(machine_8way)
        index = ckpt.restore_point(target)
        skipped = ckpt.restore_into(index, core, micro_state)
        assert skipped == ckpt.snapshots[index].position
        core.run(target - core.instructions_retired)

        assert core.instructions_retired == reference.instructions_retired
        assert core.state == reference.state

    def test_restore_refuses_backward_jumps(self, micro, machine_8way):
        ckpt = build_checkpoints(micro.program, machine_8way, unit_size=25)
        core = FunctionalCore(micro.program)
        core.run(ckpt.snapshots[3].position + 1)
        with pytest.raises(ValueError, match="backwards"):
            ckpt.restore_into(3, core, MicroarchState(machine_8way))

    def test_restore_point_bounds(self, micro, machine_8way):
        ckpt = build_checkpoints(micro.program, machine_8way, unit_size=25)
        first = ckpt.snapshots[0].position
        assert ckpt.restore_point(first - 1) is None
        assert ckpt.restore_point(first) == 0
        assert ckpt.restore_point(ckpt.benchmark_length * 2) == (
            len(ckpt.snapshots) - 1)

    def test_roundtrip_through_disk(self, store, micro, machine_8way):
        built = build_checkpoints(micro.program, machine_8way, unit_size=25)
        store.put(built, micro.program, machine_8way)
        loaded = store.get(micro.program, machine_8way, unit_size=25)
        assert loaded is not None
        assert loaded.benchmark_length == built.benchmark_length
        assert [s.position for s in loaded.snapshots] == [
            s.position for s in built.snapshots]
        assert loaded.snapshots[0].micro == built.snapshots[0].micro

    def test_get_or_build_builds_once(self, store, micro, machine_8way):
        first = store.get_or_build(micro.program, machine_8way, unit_size=25)
        path = store.path_for(micro.program, machine_8way, 25)
        stamp = path.stat().st_mtime_ns
        again = store.get_or_build(micro.program, machine_8way, unit_size=25)
        assert path.stat().st_mtime_ns == stamp
        assert again.benchmark_length == first.benchmark_length


# ----------------------------------------------------------------------
# Invalidation (the regression this file guards)
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_geometry_change_changes_fingerprint(self, machine_8way):
        assert (machine_warm_fingerprint(shrunk_l1d(machine_8way))
                != machine_warm_fingerprint(machine_8way))

    def test_timing_change_keeps_fingerprint(self, machine_8way):
        """Latency/width-only changes reuse the same warm checkpoints."""
        retimed = replace(machine_8way, mem_latency=250, l2_latency=20,
                          commit_width=4, ruu_size=64)
        assert (machine_warm_fingerprint(retimed)
                == machine_warm_fingerprint(machine_8way))

    @pytest.mark.filterwarnings(
        "ignore::repro.checkpoint.StaleCheckpointWarning")
    def test_modified_geometry_never_restores_stale_snapshot(
            self, store, micro, machine_8way, plan):
        """Cache-geometry change: warn, rebuild, and match a cold run."""
        store.get_or_build(micro.program, machine_8way, unit_size=25)

        modified = shrunk_l1d(machine_8way)
        with pytest.warns(StaleCheckpointWarning):
            missed = store.get(micro.program, modified, unit_size=25)
        assert missed is None

        rebuilt = store.get_or_build(micro.program, modified, unit_size=25)
        assert rebuilt.machine_hash == machine_warm_fingerprint(modified)

        engine = SmartsEngine(machine=modified, measure_energy=False)
        serial = engine.run(micro.program, plan, 15_000)
        restored = engine.run(micro.program, plan, 15_000,
                              checkpoints=rebuilt)
        assert restored.units == serial.units
        assert restored.checkpoint_restores > 0

    def test_engine_rejects_mismatched_set(self, micro, machine_8way,
                                           machine_16way, plan):
        ckpt = build_checkpoints(micro.program, machine_8way, unit_size=25)
        engine = SmartsEngine(machine=machine_16way, measure_energy=False)
        with pytest.raises(ValueError, match="different program or machine"):
            engine.run(micro.program, plan, 15_000, checkpoints=ckpt)

    def test_program_change_changes_fingerprint(self, micro):
        from repro.workloads import get_benchmark

        other = get_benchmark("gzip.syn", scale=0.05).program
        assert program_fingerprint(other) != program_fingerprint(micro.program)

    def test_corrupt_file_is_a_miss(self, store, micro, machine_8way):
        built = build_checkpoints(micro.program, machine_8way, unit_size=25)
        path = store.put(built, micro.program, machine_8way)
        path.write_bytes(b"not a checkpoint")
        assert store.get(micro.program, machine_8way, unit_size=25) is None


# ----------------------------------------------------------------------
# Maintenance
# ----------------------------------------------------------------------
class TestMaintenance:
    def test_entries_lists_metadata(self, store, micro, machine_8way,
                                    machine_16way):
        store.get_or_build(micro.program, machine_8way, unit_size=25)
        store.get_or_build(micro.program, machine_16way, unit_size=25)
        rows = store.entries()
        assert len(rows) == 2
        assert {row["machine_hash"] for row in rows} == {
            machine_warm_fingerprint(machine_8way),
            machine_warm_fingerprint(machine_16way)}
        for row in rows:
            assert row["benchmark"] == micro.program.name
            assert row["snapshots"] > 0
            assert row["size_bytes"] > 0

    def test_gc_removes_stale_versions_and_tmp(self, store, micro,
                                               machine_8way):
        store.get_or_build(micro.program, machine_8way, unit_size=25)
        stale = store.directory / "old--deadbeef--mfeed--u25--v0.ckpt"
        stale.write_bytes(b"stale")
        leftover = store.directory / "partial.tmp"
        leftover.write_bytes(b"tmp")
        removed = store.gc()
        assert stale in removed and leftover in removed
        assert store.get(micro.program, machine_8way, unit_size=25) is not None

    def test_legacy_zlib_set_is_skipped_and_collected(self, store, micro,
                                                     machine_8way):
        """A pre-v2 set (zlib-compressed) is never read; gc removes it."""
        payload = build_checkpoints(micro.program, machine_8way,
                                    unit_size=25).to_payload()
        payload["meta"]["version"] = 1
        store.directory.mkdir(parents=True, exist_ok=True)
        legacy = store.directory / "micro--legacy--mfeed--u25--v1.ckpt"
        legacy.write_bytes(zlib.compress(pickle.dumps(payload, protocol=4), 6))
        assert store.entries() == []
        assert legacy in store.gc()
        assert not legacy.exists()

    def test_gc_all(self, store, micro, machine_8way):
        store.get_or_build(micro.program, machine_8way, unit_size=25)
        store.gc(remove_all=True)
        assert list(store.directory.glob("*.ckpt")) == []

    def test_disabled_store_is_inert(self, tmp_path, micro, machine_8way):
        disabled = CheckpointStore(tmp_path / "never", enabled=False)
        built = build_checkpoints(micro.program, machine_8way, unit_size=25)
        disabled.put(built, micro.program, machine_8way)
        assert not (tmp_path / "never").exists()
        assert disabled.get(micro.program, machine_8way, 25) is None


# ----------------------------------------------------------------------
# BBV profile caching (the stratified strategy's phase-labeling pass)
# ----------------------------------------------------------------------
class TestBBVProfileCache:
    def test_get_or_profile_builds_once_and_loads_exactly(
            self, store, micro, monkeypatch):
        import numpy as np

        import repro.simpoint.bbv as bbv_mod

        calls = []
        real = bbv_mod.profile_bbv

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bbv_mod, "profile_bbv", counting)
        first = store.get_or_profile(micro.program, 500,
                                     max_instructions=15_000)
        second = store.get_or_profile(micro.program, 500,
                                      max_instructions=15_000)
        assert len(calls) == 1          # the second call loaded from disk
        assert np.array_equal(first.vectors, second.vectors)
        assert np.array_equal(first.interval_lengths,
                              second.interval_lengths)
        assert len(list(store.directory.glob("*.bbvp"))) == 1

    def test_different_key_fields_miss(self, store, micro):
        store.get_or_profile(micro.program, 500, max_instructions=15_000)
        assert store.get_bbv_profile(micro.program, 250,
                                     limit=15_000) is None
        assert store.get_bbv_profile(micro.program, 500,
                                     limit=10_000) is None
        assert store.get_bbv_profile(micro.program, 500,
                                     limit=15_000) is not None

    def test_corrupt_profile_is_a_miss(self, store, micro):
        path = store.put_bbv_profile(
            store.get_or_profile(micro.program, 500, max_instructions=15_000),
            micro.program, limit=15_000)
        path.write_bytes(b"garbage")
        assert store.get_bbv_profile(micro.program, 500,
                                     limit=15_000) is None

    def test_bbv_entries_skip_stale_and_corrupt_files(self, store, micro):
        store.get_or_profile(micro.program, 500, max_instructions=15_000)
        (store.directory / "old--bbv-i500-lfull--v0.bbvp").write_bytes(
            b"not a profile")
        rows = store.bbv_entries()
        assert len(rows) == 1
        assert rows[0]["benchmark"] == micro.program.name
        assert rows[0]["intervals"] > 0

    def test_profile_cache_field_disables_persistence(
            self, tmp_path, monkeypatch, micro, machine_8way):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        from repro.api import StratifiedStrategy

        strategy = StratifiedStrategy(unit_size=25, sample_size=30,
                                      units_per_interval=4,
                                      detailed_warming=50,
                                      profile_cache=False)
        outcome = strategy.run(micro.program, machine_8way, 15_000, seed=3)
        assert outcome.final_run.units
        assert not (tmp_path / "ckpt").exists()
        # Same selection as a persisting run: the field is I/O-only.
        persisting = StratifiedStrategy(unit_size=25, sample_size=30,
                                        units_per_interval=4,
                                        detailed_warming=50)
        assert persisting.run(micro.program, machine_8way, 15_000,
                              seed=3).final_run.units == \
            outcome.final_run.units

    def test_profile_cache_flag_is_io_only_identity(self):
        """The flag cannot change estimates, so it must not change spec
        hashes, equality, or serialized payloads (cached results stay
        valid across the flag)."""
        from repro.api import RunSpec, StratifiedStrategy

        on = RunSpec(benchmark="gzip.syn",
                     strategy=StratifiedStrategy(unit_size=25))
        off = RunSpec(benchmark="gzip.syn",
                      strategy=StratifiedStrategy(unit_size=25,
                                                  profile_cache=False))
        assert on.key() == off.key()
        assert on == off
        assert "profile_cache" not in on.strategy.to_dict()["params"]

    def test_build_plan_accepts_injected_store(self, tmp_path, micro,
                                               machine_8way):
        from repro.api import StratifiedStrategy

        strategy = StratifiedStrategy(unit_size=25, sample_size=30,
                                      units_per_interval=4,
                                      detailed_warming=50)
        disabled = CheckpointStore(tmp_path / "never", enabled=False)
        plan, _ = strategy.build_plan(micro.program, 15_000, machine_8way,
                                      store=disabled)
        assert plan.unit_indices
        assert not (tmp_path / "never").exists()

    def test_unwritable_store_degrades_to_in_memory_profiling(
            self, tmp_path, micro):
        # A *file* at the store path makes mkdir raise: the profile must
        # still come back (computed in memory), never an OSError.
        blocker = tmp_path / "not-a-dir"
        blocker.write_bytes(b"")
        store = CheckpointStore(blocker)
        profile = store.get_or_profile(micro.program, 500,
                                       max_instructions=15_000)
        assert profile.num_intervals > 0

    def test_disabled_store_profiles_without_writing(self, tmp_path, micro):
        disabled = CheckpointStore(tmp_path / "never", enabled=False)
        profile = disabled.get_or_profile(micro.program, 500,
                                          max_instructions=15_000)
        assert profile.num_intervals > 0
        assert not (tmp_path / "never").exists()

    def test_gc_covers_bbv_profiles(self, store, micro):
        store.get_or_profile(micro.program, 500, max_instructions=15_000)
        stale = store.directory / "old--deadbeef--bbv-i500-lfull--v0.bbvp"
        stale.write_bytes(b"stale")
        removed = store.gc()
        assert stale in removed
        assert store.get_bbv_profile(micro.program, 500,
                                     limit=15_000) is not None
        store.gc(remove_all=True)
        assert list(store.directory.glob("*.bbvp")) == []

    def test_stratified_strategy_reuses_cached_profile(
            self, tmp_path, monkeypatch, micro, machine_8way):
        """Same estimates with a cold and a warm profile cache, and the
        second run performs no profiling pass at all."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        from repro.api import StratifiedStrategy

        strategy = StratifiedStrategy(unit_size=25, sample_size=30,
                                      units_per_interval=4,
                                      detailed_warming=50)
        cold = strategy.run(micro.program, machine_8way, 15_000, seed=3)
        import repro.simpoint.bbv as bbv_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("profile_bbv re-ran despite a cached profile")

        monkeypatch.setattr(bbv_mod, "profile_bbv", forbidden)
        warm = strategy.run(micro.program, machine_8way, 15_000, seed=3)
        assert cold.final_run.units == warm.final_run.units
        assert cold.info == warm.info


# ----------------------------------------------------------------------
# Warm-state delta encoding (the size lever behind denser grids)
# ----------------------------------------------------------------------
def v1_format_size(ckpt) -> int:
    """Re-encode a set the way version 1 stored it: every snapshot with
    full warm state and register files, zlib-compressed."""
    snapshots = []
    for index, snap in enumerate(ckpt.snapshots):
        micro, int_regs, fp_regs = ckpt._state_at(index)
        snapshots.append(Snapshot(
            position=snap.position, pc=snap.pc, halted=snap.halted,
            int_regs=list(int_regs), fp_regs=list(fp_regs),
            mem_delta=snap.mem_delta, micro=copy.deepcopy(micro),
            micro_delta=None))
    payload = {"meta": ckpt.to_payload()["meta"], "snapshots": snapshots}
    return len(zlib.compress(pickle.dumps(payload, protocol=4), 6))


class TestDeltaEncoding:
    def test_first_snapshot_full_rest_delta(self, micro, machine_8way):
        ckpt = build_checkpoints(micro.program, machine_8way, unit_size=25)
        head, tail = ckpt.snapshots[0], ckpt.snapshots[1:]
        assert head.micro and head.micro_delta is None
        assert head.int_regs and head.fp_regs
        assert tail
        for snap in tail:
            assert snap.micro == {} and snap.micro_delta is not None
            assert snap.int_regs == [] and snap.fp_regs == []

    def test_materialized_state_matches_serial_warming(self, micro,
                                                       machine_8way):
        """State at any snapshot equals warming there from scratch."""
        ckpt = build_checkpoints(micro.program, machine_8way, unit_size=25)
        for index in (len(ckpt.snapshots) - 1, 3, 10):  # backward jump too
            micro_state, int_regs, fp_regs = ckpt._state_at(index)
            core = create_core(micro.program)
            reference = MicroarchState(machine_8way)
            reference.flush()
            core.run_warmed(ckpt.snapshots[index].position,
                            FunctionalWarmer(reference))
            assert micro_state == reference.snapshot_state()
            assert int_regs == core.state.int_regs
            assert fp_regs == core.state.fp_regs

    def test_sets_shrink_at_least_2x_on_table6_configurations(
            self, store, machine_8way):
        """The acceptance criterion: on the Table 6 checkpoint subset the
        on-disk sets are at least 2x smaller than the same snapshot grids
        in the version-1 format (full warm state per snapshot, zlib)."""
        from repro.workloads import get_benchmark

        total_new = total_old = 0
        for name in ("gcc.syn", "mcf.syn", "ammp.syn"):
            program = get_benchmark(name, scale=0.1).program
            ckpt = store.get_or_build(program, machine_8way, 50)
            new_size = store.path_for(program, machine_8way, 50).stat().st_size
            old_size = v1_format_size(ckpt)
            assert old_size > 1.5 * new_size, name
            total_new += new_size
            total_old += old_size
        assert total_old >= 2 * total_new


# ----------------------------------------------------------------------
# Warm-aligned snapshots (unit.start - W restore points)
# ----------------------------------------------------------------------
class TestWarmAlignment:
    def test_aligned_build_interleaves_shifted_grid(self, micro,
                                                    machine_8way):
        warming = recommended_warming(machine_8way)   # 512 on the 8-way
        chunk = 25 * 4
        ckpt = build_checkpoints(micro.program, machine_8way, unit_size=25,
                                 warm_align=warming)
        residue = (-warming) % chunk
        positions = [snap.position for snap in ckpt.snapshots]
        assert residue in positions
        remainders = {position % chunk for position in positions}
        assert remainders == {0, residue}
        # Base grid intact: the plain-stride build is a subset.
        plain = build_checkpoints(micro.program, machine_8way, unit_size=25)
        assert set(p.position for p in plain.snapshots) <= set(positions)

    def test_zero_residual_fastforward_for_aligned_systematic_run(
            self, micro, machine_8way):
        """A systematic run whose grid lands on the snapshot stride
        restores exactly at unit.start - W: nothing is fast-forwarded."""
        warming = recommended_warming(machine_8way)
        length = 15_000
        ckpt = build_checkpoints(micro.program, machine_8way, unit_size=25,
                                 warm_align=warming)
        plan = SystematicSamplingPlan(unit_size=25, interval=32, offset=0,
                                      detailed_warming=warming)
        engine = SmartsEngine(machine=machine_8way, measure_energy=False)
        serial = engine.run(micro.program, plan, length)
        restored = engine.run(micro.program, plan, length, checkpoints=ckpt)
        assert restored.units == serial.units
        assert restored.checkpoint_restores > 0
        assert restored.instructions_fastforwarded == 0

    def test_get_or_build_aligns_to_recommended_warming(self, store, micro,
                                                        machine_8way):
        ckpt = store.get_or_build(micro.program, machine_8way, 25)
        chunk = 25 * ckpt.stride
        residue = (-recommended_warming(machine_8way)) % chunk
        assert residue != 0    # the 8-way W is off this grid
        assert any(snap.position % chunk == residue
                   for snap in ckpt.snapshots)

    def test_alignment_is_exact_for_offset_zero_only_grids(self, micro,
                                                           machine_8way):
        """Sanity: a misaligned interval still restores correctly (just
        with a nonzero residual), so alignment is purely an optimization."""
        warming = recommended_warming(machine_8way)
        ckpt = build_checkpoints(micro.program, machine_8way, unit_size=25,
                                 warm_align=warming)
        plan = SystematicSamplingPlan(unit_size=25, interval=30, offset=1,
                                      detailed_warming=warming)
        engine = SmartsEngine(machine=machine_8way, measure_energy=False)
        serial = engine.run(micro.program, plan, 15_000)
        restored = engine.run(micro.program, plan, 15_000, checkpoints=ckpt)
        assert restored.units == serial.units
        assert restored.checkpoint_restores > 0
