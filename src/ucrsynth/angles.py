"""Closed-form rotation angles for the disentangling cascade.

Both schedules are computed in one O(2**n) sweep over the input vector:

* z-angles equalize phases pairwise, level by level. The level-k angle for
  block j is the difference between the mean phases of the two half-blocks,
  taken over the original amplitudes (zero amplitudes contribute phase 0).
* y-angles rotate magnitude weight onto the first half of each block:
  ``2 * asin(norm(second half) / norm(block))``, again from the original
  amplitudes via a pairwise root-sum-square reduction (the norm tree).

Level k runs over j = 1..2**(n-k) blocks of 2**k amplitudes each; the gate
targeting qubit j consumes level n - j + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import StateVector, phases


@dataclass
class AngleSchedule:
    """Per-level UCR angles: entry k-1 of each list holds level k (2**(n-k) angles)."""

    n: int
    z_levels: list[np.ndarray]
    y_levels: list[np.ndarray]


@dataclass
class NormTree:
    """Pairwise block norms; levels[k-1][j-1] is the norm of block j at level k."""

    levels: list[np.ndarray]

    @property
    def root(self) -> float:
        return float(self.levels[-1][0])


def norm_tree(x: StateVector) -> NormTree:
    """Bottom-up pairwise root-sum-square reduction of the amplitudes."""
    block = np.abs(x.amplitudes) ** 2
    levels = []
    for _ in range(x.n):
        block = block[0::2] + block[1::2]
        levels.append(np.sqrt(block))
    return NormTree(levels)


def z_angles(x: StateVector) -> list[np.ndarray]:
    """Phase-equalization angles, level 1..n.

    Level k, block j: (mean phase of half-block 2j) - (mean phase of
    half-block 2j-1), with zero amplitudes carrying phase 0.
    """
    sums = phases(x)
    levels = []
    for k in range(1, x.n + 1):
        levels.append((sums[1::2] - sums[0::2]) / (1 << (k - 1)))
        sums = sums[0::2] + sums[1::2]
    return levels


def y_angles(x: StateVector) -> list[np.ndarray]:
    """Magnitude-zeroing angles, level 1..n.

    Level k, block j: 2 * asin(norm of half-block 2j / norm of block j).
    A zero denominator yields angle 0 (rotating a zero block is a no-op);
    the asin argument is clamped against floating-point overshoot.
    """
    child = np.abs(x.amplitudes)
    levels = []
    for parent in norm_tree(x).levels:
        numerator = child.reshape(-1, 2)[:, 1]
        ratio = numerator / np.where(parent > 0.0, parent, 1.0)
        ratio = np.where(parent > 0.0, ratio, 0.0)
        levels.append(2.0 * np.arcsin(np.clip(ratio, 0.0, 1.0)))
        child = parent
    return levels


def angle_schedule(x: StateVector) -> AngleSchedule:
    """Full cascade schedule for mapping x down to the first basis vector."""
    return AngleSchedule(n=x.n, z_levels=z_angles(x), y_levels=y_angles(x))
