"""Tests for the SimPoint baseline: BBV profiling, k-means, estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simpoint import (
    choose_clustering,
    kmeans,
    profile_bbv,
    project_vectors,
    run_simpoint,
    select_simpoints,
)


class TestBBVProfiling:
    def test_profile_shapes_and_normalization(self, micro):
        profile = profile_bbv(micro.program, interval_size=500)
        assert profile.num_intervals >= 10
        assert profile.vectors.shape == (profile.num_intervals,
                                         profile.num_blocks)
        sums = profile.vectors.sum(axis=1)
        assert np.allclose(sums, 1.0)
        assert profile.interval_lengths[:-1].min() == 500
        assert profile.total_instructions > 0

    def test_max_instructions_cap(self, micro):
        profile = profile_bbv(micro.program, interval_size=100,
                              max_instructions=1000)
        assert profile.total_instructions == 1000
        assert profile.num_intervals == 10

    def test_invalid_interval(self, micro):
        with pytest.raises(ValueError):
            profile_bbv(micro.program, interval_size=0)

    def test_projection_reduces_dimension(self, micro):
        profile = profile_bbv(micro.program, interval_size=500)
        projected = project_vectors(profile, dimensions=5, seed=1)
        assert projected.shape == (profile.num_intervals, 5)

    def test_projection_noop_when_already_small(self, micro):
        profile = profile_bbv(micro.program, interval_size=500)
        projected = project_vectors(profile, dimensions=10_000)
        assert projected.shape == profile.vectors.shape


@pytest.mark.parametrize("name", ["micro.syn", "gzip.syn", "mcf.syn",
                                  "gcc.syn"])
@pytest.mark.parametrize("interval_size, max_instructions", [
    (1, 400), (7, 5000), (100, None), (1000, None), (2500, 12_345)])
def test_profile_identical_across_engines(name, interval_size,
                                          max_instructions, monkeypatch):
    """Block-granular profiling under the fast engine reproduces the
    interpreter's per-instruction vectors exactly."""
    from repro.workloads import get_benchmark, micro_benchmark

    program = (micro_benchmark().program if name == "micro.syn"
               else get_benchmark(name, scale=0.05).program)
    profiles = []
    for engine in ("interp", "fastpath"):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        profiles.append(profile_bbv(program, interval_size,
                                    max_instructions=max_instructions))
    interp, fast = profiles
    assert np.array_equal(interp.vectors, fast.vectors)
    assert np.array_equal(interp.interval_lengths, fast.interval_lengths)


class TestKMeans:
    def test_separable_clusters_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.1, size=(30, 3))
        b = rng.normal(5.0, 0.1, size=(30, 3))
        data = np.vstack([a, b])
        result = kmeans(data, k=2, seed=1)
        labels_a = set(result.labels[:30])
        labels_b = set(result.labels[30:])
        assert len(labels_a) == 1 and len(labels_b) == 1
        assert labels_a != labels_b

    def test_inertia_decreases_with_k(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(60, 4))
        inertias = [kmeans(data, k, seed=2).inertia for k in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(inertias, inertias[1:]))

    def test_k_capped_by_points(self):
        data = np.zeros((3, 2))
        result = kmeans(data, k=10)
        assert result.k == 3

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 3)), k=2)

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_labels_and_sizes_consistent(self, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(40, 3))
        result = kmeans(data, k=k, seed=seed)
        assert result.labels.shape == (40,)
        assert result.labels.min() >= 0 and result.labels.max() < result.k
        assert result.cluster_sizes().sum() == 40
        assert np.isfinite(result.centroids).all()

    def test_choose_clustering_prefers_few_clusters_for_uniform_data(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0.0, 0.01, size=(50, 3))
        result = choose_clustering(data, max_k=6, seed=0)
        assert result.k <= 3

    def test_choose_clustering_finds_structure(self):
        rng = np.random.default_rng(4)
        blobs = [rng.normal(center, 0.05, size=(20, 2))
                 for center in (0.0, 3.0, 6.0)]
        data = np.vstack(blobs)
        result = choose_clustering(data, max_k=8, seed=0)
        assert result.k >= 2


class TestSimPointEstimator:
    def test_weights_sum_to_one(self, micro):
        profile = profile_bbv(micro.program, interval_size=500)
        simpoints, clustering = select_simpoints(profile, max_clusters=5)
        assert sum(p.weight for p in simpoints) == pytest.approx(1.0)
        assert all(0 <= p.interval_index < profile.num_intervals
                   for p in simpoints)
        assert clustering.k >= 1

    def test_run_simpoint_produces_reasonable_estimate(
            self, micro, machine_8way, micro_reference):
        result = run_simpoint(micro.program, machine_8way, interval_size=1000,
                              max_clusters=6, measure_energy=True)
        assert result.simpoints
        assert result.instructions_detailed > 0
        assert result.cpi > 0
        assert result.epi > 0
        # SimPoint should land within a loose band of the true CPI; its
        # error is allowed to be much larger than SMARTS' (that is the
        # point of Figure 8) but it should not be wild on a tiny program.
        error = abs(result.cpi - micro_reference.cpi) / micro_reference.cpi
        assert error < 1.0

    def test_early_termination_skips_tail(self, micro, machine_8way):
        result = run_simpoint(micro.program, machine_8way, interval_size=1000,
                              max_clusters=3)
        total = result.instructions_detailed + result.instructions_fastforwarded
        # SimPoint stops after the last selected interval, so it should
        # not process the entire program unless the last interval is last.
        assert total <= 15_000

    def test_deterministic_given_seed(self, micro, machine_8way):
        a = run_simpoint(micro.program, machine_8way, interval_size=1000,
                         max_clusters=4, seed=5)
        b = run_simpoint(micro.program, machine_8way, interval_size=1000,
                         max_clusters=4, seed=5)
        assert a.cpi == pytest.approx(b.cpi)
        assert [p.interval_index for p in a.simpoints] == \
            [p.interval_index for p in b.simpoints]
