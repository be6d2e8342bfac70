"""Shared builders for tests: swipes, event streams, and small datasets."""

from __future__ import annotations

import numpy as np

from swipebench.touchdata import (Dataset, Session, Swipe, TouchColumns,
                                  TouchSample, UserData)


def build_samples(t, x, y, pressure, area, *, user="u1", session="s1",
                  device="dev-a", dataset="unit", phases=None):
    n = len(t)
    if phases is None:
        phases = ["down"] + ["move"] * (n - 2) + ["up"]
    return [TouchSample(dataset=dataset, user_id=user, session_id=session,
                        device_model=device, t=int(ti), phase=ph,
                        x=float(xi), y=float(yi), pressure=float(pi),
                        area=float(ai))
            for ti, ph, xi, yi, pi, ai in zip(t, phases, x, y, pressure, area)]


def build_swipe(t, x, y, pressure=None, area=None, **kw) -> Swipe:
    n = len(t)
    if pressure is None:
        pressure = [0.5] * n
    if area is None:
        area = [0.3] * n
    samples = build_samples(t, x, y, pressure, area, **kw)
    return Swipe(TouchColumns.of(samples), 0, len(samples))


def random_swipe(rng: np.random.Generator, n: int | None = None,
                 *, integer_coords: bool = False, **kw) -> Swipe:
    """A generic well-formed swipe: irregular timing, non-straight path,
    varying channels."""
    if n is None:
        n = int(rng.integers(4, 31))
    dt = rng.integers(11, 41, size=n - 1)
    t0 = int(rng.integers(0, 10_000_000))
    t = np.concatenate(([t0], t0 + np.cumsum(dt)))
    x = np.cumsum(rng.normal(0.0, 30.0, size=n)) + rng.uniform(100, 900)
    y = np.cumsum(rng.normal(0.0, 40.0, size=n)) + rng.uniform(200, 1700)
    if integer_coords:
        x = np.round(x)
        y = np.round(y)
    pressure = rng.uniform(0.1, 0.9, size=n)
    area = rng.uniform(0.05, 0.6, size=n)
    return build_swipe(t.tolist(), x.tolist(), y.tolist(),
                       pressure.tolist(), area.tolist(), **kw)


def swipe_stream(swipes, *, user="u1", session="s1", device="dev-a",
                 dataset="unit") -> Dataset:
    """Wrap ready-made swipes of one session into a Dataset."""
    sess = Session(session_id=session, device_model=device, swipes=list(swipes))
    return Dataset(name=dataset,
                   users={user: UserData(user_id=user, sessions=[sess])})


def dataset_from_sessions(per_user: dict, *, name="unit", device="dev-a"):
    """per_user: {user_id: {session_id: [swipe, ...]}} -> Dataset with the
    sessions in the given order."""
    users = {}
    for uid, sessions in per_user.items():
        users[uid] = UserData(user_id=uid, sessions=[
            Session(session_id=sid, device_model=device, swipes=list(sw))
            for sid, sw in sessions.items()])
    return Dataset(name=name, users=users)
