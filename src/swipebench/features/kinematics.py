"""Derived series for a block of equal-length swipes: velocities,
accelerations, deviations, angles.

Every series is computed row-wise on (k, n) arrays holding k swipes of n
samples each, so one call serves a whole length group of a feature table;
a single swipe is the block with k = 1. Each row of a result is bitwise
what the same operations give on that swipe alone.

Conventions used throughout (and mirrored by the feature definitions):
forward differences; dt in seconds for velocity (px/s) and acceleration
(px/s^2); accelerations divide velocity steps by the spacing of segment
midpoints; deviations are absolute perpendicular distances from the
start->stop chord (plain distance to the start point when the chord is
degenerate); pairwise angles are the signed turn atan2(cross, dot) between
consecutive displacement vectors; phase angles are atan2(dy, dx) per
displacement in screen coordinates (y grows downward), range (-pi, pi];
angular velocity is the turn angle over the midpoint time spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class KinematicSeries:
    """One row per swipe; column counts for swipes of n samples."""

    dt_ms: np.ndarray          # n-1 inter-sample gaps, milliseconds
    seg_len: np.ndarray        # n-1 displacement lengths
    velocity: np.ndarray       # n-1, px/s
    acceleration: np.ndarray   # n-2, px/s^2
    deviation: np.ndarray      # n absolute chord deviations
    pairwise_angle: np.ndarray  # n-2 signed turn angles
    phase_angle: np.ndarray    # n-1 displacement directions
    angular_velocity: np.ndarray  # n-2, rad/s
    pressure_delta: np.ndarray  # n-1
    area_delta: np.ndarray     # n-1


def chord_deviations(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Absolute perpendicular distance of every point from its row's
    start->stop chord; distance to the start point when start == stop."""
    ax, ay = xs[:, :1], ys[:, :1]
    cx, cy = xs[:, -1:] - ax, ys[:, -1:] - ay
    norm = np.hypot(cx, cy)
    with np.errstate(divide="ignore", invalid="ignore"):
        perp = np.abs(cx * (ys - ay) - cy * (xs - ax)) / norm
    return np.where(norm == 0.0, np.hypot(xs - ax, ys - ay), perp)


def compute_kinematics(t: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                       pressures: np.ndarray,
                       areas: np.ndarray) -> KinematicSeries:
    """Build every derived series for (k, n) sample blocks (n >= 2)."""
    if t.shape[1] < 2:
        raise ValueError("kinematics need at least 2 samples")

    dt_ms = np.diff(t, axis=1)
    dt_s = dt_ms / 1000.0
    seg_dx = np.diff(xs, axis=1)
    seg_dy = np.diff(ys, axis=1)
    seg_len = np.hypot(seg_dx, seg_dy)
    velocity = seg_len / dt_s

    # Midpoint spacing: velocity i lives at (t_i + t_{i+1}) / 2.
    mid_dt_s = (t[:, 2:] - t[:, :-2]) / 2000.0
    acceleration = np.diff(velocity, axis=1) / mid_dt_s

    cross = seg_dx[:, :-1] * seg_dy[:, 1:] - seg_dy[:, :-1] * seg_dx[:, 1:]
    dot = seg_dx[:, :-1] * seg_dx[:, 1:] + seg_dy[:, :-1] * seg_dy[:, 1:]
    pairwise_angle = np.arctan2(cross, dot)

    return KinematicSeries(
        dt_ms=dt_ms, seg_len=seg_len,
        velocity=velocity, acceleration=acceleration,
        deviation=chord_deviations(xs, ys),
        pairwise_angle=pairwise_angle,
        phase_angle=np.arctan2(seg_dy, seg_dx),
        angular_velocity=pairwise_angle / mid_dt_s,
        pressure_delta=np.diff(pressures, axis=1),
        area_delta=np.diff(areas, axis=1),
    )
