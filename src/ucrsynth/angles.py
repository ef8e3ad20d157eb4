"""Closed-form rotation angles for the disentangling cascade.

Both schedules come from one O(2**n) sweep over the amplitudes' phases and
magnitudes, each taken once, that walks the levels bottom-up:

* z-angles equalize phases pairwise. The level-k angle for block j is the
  difference between the mean phases of the two half-blocks, taken over
  the original amplitudes (zero amplitudes contribute phase 0).
* y-angles rotate magnitude weight onto the first half of each block:
  ``2 * atan2(norm(second half), norm(first half))``, the paper's angle
  ``2 * asin(norm(second half) / norm(block))`` in a form that keeps a half
  far below its block; norms are root-sum-squares of the original moduli.

The sweep also yields the mean phase, the global phase a cascade leaves.

Level k runs over j = 1..2**(n-k) blocks of 2**k amplitudes each; the gate
targeting qubit j consumes level n - j + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import StateVector, phases


@dataclass
class AngleSchedule:
    """Per-level UCR angles: entry k-1 of each list holds level k (2**(n-k) angles).

    mean_phase is the mean of the swept phases, zeros counted as phase 0.
    """

    n: int
    z_levels: list[np.ndarray]
    y_levels: list[np.ndarray]
    mean_phase: float


def sweep(omega: np.ndarray, magnitude: np.ndarray) -> AngleSchedule:
    """Schedule of the state with per-amplitude phases omega and moduli magnitude.

    y angles are ``2 * atan2(second half norm, first half norm)``: 0 for a zero
    block (rotating it is a no-op), exactly pi for an empty first half.
    """
    sums, weight, child = omega, magnitude**2, magnitude
    z_levels, y_levels = [], []
    for k in range(1, omega.size.bit_length()):
        z = np.subtract(sums[1::2], sums[0::2])
        z *= 1.0 / (1 << (k - 1))
        z_levels.append(z)
        sums = sums[0::2] + sums[1::2]
        y_levels.append(2.0 * np.arctan2(child[1::2], child[0::2]))
        weight = weight[0::2] + weight[1::2]
        child = np.sqrt(weight)
    return AngleSchedule(len(z_levels), z_levels, y_levels, float(np.sum(omega)) / omega.size)


def angle_schedule(x: StateVector) -> AngleSchedule:
    """Full cascade schedule for mapping x down to the first basis vector."""
    return sweep(phases(x), np.abs(x.amplitudes))
