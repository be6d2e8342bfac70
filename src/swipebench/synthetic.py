"""Synthetic swipe dataset generator.

Each user gets latent habits (start/stop regions, speed, pressure and
touch-area levels, stroke curvature). The separability knob scales how
far apart user means sit, measured in units of the within-user spread:
0 makes all users statistically identical, large values make them
trivially distinguishable. Strokes are quadratic Bezier arcs sampled
with timing jitter; the output passes every swipe invariant and round-
trips byte-identically through the canonical export for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spec import Spec, count, number
from .touchdata import DOWN, MOVE, UP, Dataset, TouchColumns, assemble_dataset

SCREEN_W = 1080.0
SCREEN_H = 1920.0
SESSION_GAP_MS = 3_600_000          # sessions start an hour apart
_FAR_EDGES = (SCREEN_W - 1, SCREEN_H - 1) * 2   # bounds of sx, sy, ex, ey

# (baseline mean, within-user std) for each latent habit
_LATENTS = {
    "start_x": (320.0, 40.0),
    "start_y": (1380.0, 60.0),
    "end_x": (760.0, 40.0),
    "end_y": (620.0, 60.0),
    "speed": (900.0, 90.0),         # px/s along the chord
    "pressure": (0.55, 0.05),
    "area": (0.30, 0.04),
    "curvature": (0.06, 0.03),      # bow height as a fraction of chord length
}
_LATENT_ORDER = tuple(_LATENTS)


@dataclass(frozen=True)
class SyntheticSpec(Spec):
    users: int = 10
    sessions_per_user: int = 4
    swipes_per_session: int = 40
    separability: float = 0.0
    seed: int = 0
    name: str = "synthetic"

    RULES = {"users": count(2), "sessions_per_user": count(2),
             "swipes_per_session": count(1), "separability": number(0),
             "seed": count(0)}


def _user_latents(spec: SyntheticSpec, rng: np.random.Generator
                  ) -> list[dict[str, float]]:
    out = []
    for _ in range(spec.users):
        lat = {}
        for key in _LATENT_ORDER:
            base, within = _LATENTS[key]
            lat[key] = base + spec.separability * within * rng.standard_normal()
        lat["speed"] = max(200.0, lat["speed"])
        lat["pressure"] = min(1.5, max(0.05, lat["pressure"]))
        lat["area"] = min(1.5, max(0.05, lat["area"]))
        out.append(lat)
    return out


def _user_strokes(lat: dict[str, float], spec: SyntheticSpec,
                  rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """t, x, y, pressure and area over all of one user's strokes in
    session order, and the number of points in each stroke.

    The loop makes every random draw, stroke by stroke, in a fixed order.
    It clips the endpoints too, because a chord under 40 px draws an
    extra angle there. All other steps run once over the user's strokes
    laid end to end."""
    means = [lat[key] for key in _LATENT_ORDER]
    withins = [_LATENTS[key][1] for key in _LATENT_ORDER]
    n_strokes = spec.sessions_per_user * spec.swipes_per_session
    rows, pushed, counts, gaps, draws = [], [], [], [], []
    for k in range(n_strokes):
        v = [m + w * rng.standard_normal() for m, w in zip(means, withins)]
        sx, sy, ex, ey = map(min, map(max, v[:4], (0.0,) * 4), _FAR_EDGES)
        # the chord is at least either leg, so only short legs need it
        if (abs(ex - sx) < 40.0 and abs(ey - sy) < 40.0
                and np.hypot(ex - sx, ey - sy) < 40.0):
            # degenerate draw; push the endpoint out along a random direction
            theta = rng.uniform(0.0, 2.0 * np.pi)
            ex = float(np.clip(sx + 160.0 * np.cos(theta), 0.0, SCREEN_W - 1))
            ey = float(np.clip(sy + 160.0 * np.sin(theta), 0.0, SCREEN_H - 1))
            pushed.append(k)
        rows.append((sx, sy, ex, ey, *v[4:]))
        n = int(rng.integers(8, 17))
        counts.append(n)
        # timing jitter, x and y noise, timing stretch, pressure and area noise
        draws.append((rng.uniform(-0.3, 0.3, n - 2), rng.normal(0.0, 1.5, n),
                      rng.normal(0.0, 1.5, n), rng.uniform(0.8, 1.25, n - 1),
                      rng.normal(0.0, 0.01, n), rng.normal(0.0, 0.01, n)))
        gaps.append(int(rng.integers(200, 2000)))
    jitter, noise_x, noise_y, stretch, noise_p, noise_a = (
        np.concatenate(c) for c in zip(*draws))

    sx, sy, ex, ey, speed, level_p, level_a, bow = np.array(rows).T
    speed = np.maximum(120.0, speed)
    level_p, level_a = np.clip((level_p, level_a), 0.02, 1.5)
    chord = np.hypot(ex - sx, ey - sy)
    chord[pushed] = np.maximum(chord[pushed], 1.0)

    grids = {n: np.linspace(0.0, 1.0, n) for n in set(counts)}
    u = np.concatenate([grids[n] for n in counts])
    counts = np.array(counts)
    stroke = np.repeat(np.arange(n_strokes), counts)
    first = np.cumsum(counts) - counts
    later = np.ones(len(u), dtype=bool)     # every point but a stroke's first
    later[first] = False
    inner = later.copy()
    inner[first + counts - 1] = False
    u[inner] += jitter / (counts[stroke[inner]] - 1)
    u = np.clip(u, 0.0, 1.0)
    u = u[np.lexsort((u, stroke))]

    # quadratic Bezier through a control point perpendicular to the chord
    mx, my = (sx + ex) / 2.0, (sy + ey) / 2.0
    px, py = -(ey - sy) / chord, (ex - sx) / chord
    cx = mx + bow * chord * px
    cy = my + bow * chord * py
    one = 1.0 - u
    xs = one ** 2 * sx[stroke] + 2 * one * u * cx[stroke] + u ** 2 * ex[stroke]
    ys = one ** 2 * sy[stroke] + 2 * one * u * cy[stroke] + u ** 2 * ey[stroke]
    xs = np.clip(xs + noise_x, 0.0, SCREEN_W - 1)
    ys = np.clip(ys + noise_y, 0.0, SCREEN_H - 1)

    duration_ms = np.maximum(60.0, 1000.0 * chord / speed)
    dt = np.diff(u)[later[1:]] * duration_ms[stroke[later]]
    dt = np.maximum(1, np.rint(dt * stretch).astype(int))
    # a session's clock starts at its hour; each stroke starts a drawn gap
    # after the previous one ends (the last stroke's gap goes unused)
    steps = np.zeros(len(u), dtype=np.int64)
    steps[later] = dt
    steps[first[1:]] = gaps[:-1]
    session_first = first[::spec.swipes_per_session]
    steps[session_first] = 0
    t = np.cumsum(steps)
    t += np.repeat(np.arange(spec.sessions_per_user) * SESSION_GAP_MS
                   - t[session_first],
                   np.diff(session_first, append=len(t)))

    profile = 0.85 + 0.3 * np.sin(np.pi * u)
    pressures = np.maximum(0.01, level_p[stroke] * profile + noise_p)
    areas = np.maximum(0.01, level_a[stroke] * profile + noise_a)
    return t, xs, ys, pressures, areas, counts


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    latents = _user_latents(spec, rng)
    # shaped one user at a time: all users at once would hold every
    # intermediate array of the whole corpus at the same time
    users = [_user_strokes(lat, spec, rng) for lat in latents]

    t, x, y, pressure, area, lengths = (np.concatenate(c)
                                        for c in zip(*users))
    per_user = spec.sessions_per_user * spec.swipes_per_session
    user_id = np.repeat(np.array(
        [f"u{ui:02d}" for ui in range(spec.users)], dtype=object), per_user)
    session_id = np.tile(np.repeat(np.array(
        [f"s{si:02d}" for si in range(spec.sessions_per_user)], dtype=object),
        spec.swipes_per_session), spec.users)
    user_id, session_id = (np.repeat(c, lengths)
                           for c in (user_id, session_id))
    phase = np.full(len(t), MOVE, dtype=np.int8)
    stops = np.cumsum(lengths)
    phase[stops - 1] = UP
    phase[stops - lengths] = DOWN
    records = TouchColumns(
        dataset=np.full(len(t), spec.name, dtype=object), user_id=user_id,
        session_id=session_id,
        device_model=np.full(len(t), "synthetic-device", dtype=object),
        t=t, phase=phase, x=x, y=y, pressure=pressure,
        area=area)
    dataset, counts = assemble_dataset(spec.name, records)
    # the generator only emits valid strokes; nothing may be discarded
    assert counts.samples_kept == counts.samples_in, counts.as_dict()
    return dataset
