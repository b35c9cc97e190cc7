"""Basic block vector (BBV) profiling for the SimPoint baseline.

SimPoint (Sherwood et al., ASPLOS 2002; Section 5.3 of the SMARTS paper)
selects representative simulation regions by clustering per-interval
basic block vectors: for each fixed-size interval of the dynamic
instruction stream, the number of times each static basic block executes
(weighted by block length) forms a vector; intervals with similar vectors
are assumed to behave similarly.

Profiling runs entirely in functional simulation, matching SimPoint's
offline, microarchitecture-independent analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.functional.engine import create_core
from repro.isa.program import Program


@dataclass
class BBVProfile:
    """Per-interval basic block vectors for one benchmark."""

    benchmark: str
    interval_size: int
    #: Matrix of shape (num_intervals, num_blocks); rows L1-normalized.
    vectors: np.ndarray
    #: Instructions actually executed in each interval (the final
    #: interval may be short).
    interval_lengths: np.ndarray

    @property
    def num_intervals(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def num_blocks(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def total_instructions(self) -> int:
        return int(self.interval_lengths.sum())


def profile_bbv(program: Program, interval_size: int,
                max_instructions: int | None = None) -> BBVProfile:
    """Profile ``program`` into per-interval basic block vectors.

    Args:
        program: The benchmark to profile.
        interval_size: Instructions per profiling interval (SimPoint uses
            10M-100M at SPEC scale; scaled down here with everything else).
        max_instructions: Optional cap on profiled instructions.

    Returns:
        A :class:`BBVProfile` with one L1-normalized row per interval.
    """
    if interval_size <= 0:
        raise ValueError("interval_size must be positive")
    block_of = program.basic_block_map()
    num_blocks = max(block_of.values()) + 1 if block_of else 1

    core = create_core(program)
    rows: list[np.ndarray] = []
    lengths: list[int] = []
    total = 0
    limit = max_instructions if max_instructions is not None else float("inf")

    while total < limit:
        budget = int(min(interval_size, limit - total))
        # Whole chunks of straight-line code; a chunk never crosses a
        # basic-block leader, so all of it counts toward its first pc's
        # block.  Only a chunk cut by the interval boundary is stepped.
        current = [0] * num_blocks
        count = 0
        for pc, length in core.trace_blocks(budget):
            current[block_of[pc]] += length
            count += length
        if count == 0:
            break
        rows.append(np.asarray(current, dtype=float))
        lengths.append(count)
        total += count
        if count < budget:
            break

    if not rows:
        raise ValueError(f"program {program.name!r} executed no instructions")

    matrix = np.vstack(rows)
    row_sums = matrix.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    matrix = matrix / row_sums
    from repro.store import record_pass  # deferred: avoids cycle

    record_pass("bbv_profile", program.name, total)
    return BBVProfile(
        benchmark=program.name,
        interval_size=interval_size,
        vectors=matrix,
        interval_lengths=np.asarray(lengths, dtype=int),
    )


def project_vectors(profile: BBVProfile, dimensions: int = 15,
                    seed: int = 0) -> np.ndarray:
    """Randomly project BBVs to a lower dimension (as SimPoint does).

    SimPoint projects the (very sparse, high-dimensional) BBVs down to
    ~15 dimensions before clustering; this keeps k-means cheap and
    insensitive to the raw dimensionality.
    """
    if dimensions <= 0:
        raise ValueError("dimensions must be positive")
    if profile.num_blocks <= dimensions:
        return profile.vectors.copy()
    rng = np.random.default_rng(seed)
    projection = rng.normal(size=(profile.num_blocks, dimensions))
    projection /= np.sqrt(dimensions)
    return profile.vectors @ projection
