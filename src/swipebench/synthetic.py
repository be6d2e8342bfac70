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


def _stroke_series(lat: dict[str, float], rng: np.random.Generator,
                   start_ms: int) -> tuple[np.ndarray, ...]:
    """One swipe's t, x, y, pressure and area series."""
    def draw(key: str) -> float:
        base, within = _LATENTS[key]
        return lat[key] + within * rng.standard_normal()

    sx = float(np.clip(draw("start_x"), 0.0, SCREEN_W - 1))
    sy = float(np.clip(draw("start_y"), 0.0, SCREEN_H - 1))
    ex = float(np.clip(draw("end_x"), 0.0, SCREEN_W - 1))
    ey = float(np.clip(draw("end_y"), 0.0, SCREEN_H - 1))
    speed = max(120.0, draw("speed"))
    level_p = min(1.5, max(0.02, draw("pressure")))
    level_a = min(1.5, max(0.02, draw("area")))
    bow = draw("curvature")

    chord = np.hypot(ex - sx, ey - sy)
    if chord < 40.0:
        # degenerate draw; push the endpoint out along a random direction
        theta = rng.uniform(0.0, 2.0 * np.pi)
        ex = float(np.clip(sx + 160.0 * np.cos(theta), 0.0, SCREEN_W - 1))
        ey = float(np.clip(sy + 160.0 * np.sin(theta), 0.0, SCREEN_H - 1))
        chord = max(np.hypot(ex - sx, ey - sy), 1.0)

    n_pts = int(rng.integers(8, 17))
    u = np.linspace(0.0, 1.0, n_pts)
    u[1:-1] += rng.uniform(-0.3, 0.3, size=n_pts - 2) / (n_pts - 1)
    u = np.sort(np.clip(u, 0.0, 1.0))

    # quadratic Bezier through a control point perpendicular to the chord
    mx, my = (sx + ex) / 2.0, (sy + ey) / 2.0
    px, py = -(ey - sy) / chord, (ex - sx) / chord
    cx = mx + bow * chord * px
    cy = my + bow * chord * py
    one = 1.0 - u
    xs = one ** 2 * sx + 2 * one * u * cx + u ** 2 * ex
    ys = one ** 2 * sy + 2 * one * u * cy + u ** 2 * ey
    xs += rng.normal(0.0, 1.5, size=n_pts)
    ys += rng.normal(0.0, 1.5, size=n_pts)
    xs = np.clip(xs, 0.0, SCREEN_W - 1)
    ys = np.clip(ys, 0.0, SCREEN_H - 1)

    duration_ms = max(60.0, 1000.0 * chord / speed)
    dt = np.diff(u) * duration_ms
    dt = dt * rng.uniform(0.8, 1.25, size=n_pts - 1)
    dt = np.maximum(1, np.rint(dt).astype(int))
    t = start_ms + np.concatenate([[0], np.cumsum(dt)])

    profile = 0.85 + 0.3 * np.sin(np.pi * u)
    pressures = np.maximum(0.01, level_p * profile
                           + rng.normal(0.0, 0.01, size=n_pts))
    areas = np.maximum(0.01, level_a * profile
                       + rng.normal(0.0, 0.01, size=n_pts))

    return t, xs, ys, pressures, areas


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    latents = _user_latents(spec, rng)

    series = []             # (t, x, y, pressure, area) per stroke
    sessions = []           # (user, session) per stroke
    for ui in range(spec.users):
        user_id = f"u{ui:02d}"
        for si in range(spec.sessions_per_user):
            session_id = f"s{si:02d}"
            clock = si * SESSION_GAP_MS
            for _ in range(spec.swipes_per_session):
                stroke = _stroke_series(latents[ui], rng, clock)
                series.append(stroke)
                sessions.append((user_id, session_id))
                clock = int(stroke[0][-1]) + int(rng.integers(200, 2000))

    lengths = [len(stroke[0]) for stroke in series]
    t, x, y, pressure, area = (np.concatenate(c) for c in zip(*series))
    user_id, session_id = (np.repeat(np.array(c, dtype=object), lengths)
                           for c in zip(*sessions))
    phase = np.full(len(t), MOVE, dtype=np.int8)
    stops = np.cumsum(lengths)
    phase[stops - 1] = UP
    phase[stops - lengths] = DOWN
    records = TouchColumns(
        dataset=np.full(len(t), spec.name, dtype=object), user_id=user_id,
        session_id=session_id,
        device_model=np.full(len(t), "synthetic-device", dtype=object),
        t=t.astype(np.int64), phase=phase, x=x, y=y, pressure=pressure,
        area=area)
    dataset, counts = assemble_dataset(spec.name, records)
    # the generator only emits valid strokes; nothing may be discarded
    assert counts.samples_kept == counts.samples_in, counts.as_dict()
    return dataset
