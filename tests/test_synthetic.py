"""Synthetic dataset generator: structure, determinism, separability."""

import numpy as np
import pytest

from bitwise_oracles import o_synthetic_columns
from swipebench import synthetic
from swipebench.errors import ConfigError
from swipebench.features.extract import build_feature_table
from swipebench.ingest import write_canonical
from swipebench.synthetic import SyntheticSpec, generate_synthetic


def test_structure_matches_spec():
    spec = SyntheticSpec(users=4, sessions_per_user=3, swipes_per_session=6,
                         seed=1)
    ds = generate_synthetic(spec)
    assert ds.n_users == 4
    assert ds.user_ids() == ["u00", "u01", "u02", "u03"]
    for uid in ds.user_ids():
        sessions = ds.users[uid].sessions
        assert [s.session_id for s in sessions] == ["s00", "s01", "s02"]
        for session in sessions:
            assert len(session.swipes) == 6
            assert session.device_model == "synthetic-device"
            for swipe in session.swipes:
                swipe.validate()
    assert ds.n_swipes == 4 * 3 * 6


def test_sessions_are_chronologically_spaced():
    ds = generate_synthetic(SyntheticSpec(users=2, sessions_per_user=3,
                                          swipes_per_session=4, seed=2))
    for uid in ds.user_ids():
        starts = [s.start_ms for s in ds.users[uid].sessions]
        assert starts == sorted(starts)
        assert starts[1] - starts[0] >= 3_000_000


def test_swipes_fit_on_screen():
    ds = generate_synthetic(SyntheticSpec(users=3, sessions_per_user=2,
                                          swipes_per_session=10, seed=3,
                                          separability=5.0))
    for uid in ds.user_ids():
        for swipe in (sw for s in ds.users[uid].sessions for sw in s.swipes):
            assert np.all((swipe.xs >= 0) & (swipe.xs <= 1080))
            assert np.all((swipe.ys >= 0) & (swipe.ys <= 1920))
            assert np.all(swipe.pressures > 0)
            assert np.all(swipe.areas > 0)
            assert swipe.duration_ms >= 30


def test_generation_is_deterministic_to_the_byte(tmp_path):
    spec = SyntheticSpec(users=3, sessions_per_user=2, swipes_per_session=5,
                         separability=1.5, seed=44)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_canonical(generate_synthetic(spec), a)
    write_canonical(generate_synthetic(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_differ():
    s1 = generate_synthetic(SyntheticSpec(users=2, sessions_per_user=2,
                                          swipes_per_session=3, seed=1))
    s2 = generate_synthetic(SyntheticSpec(users=2, sessions_per_user=2,
                                          swipes_per_session=3, seed=2))
    a = s1.users["u00"].sessions[0].swipes[0]
    b = s2.users["u00"].sessions[0].swipes[0]
    assert not np.array_equal(a.xs, b.xs)


def separation_statistic(separability, seed=55):
    """Between-user F of the stroke length, a latent-driven feature."""
    from swipebench.selection import anova_f_scores
    ds = generate_synthetic(SyntheticSpec(
        users=6, sessions_per_user=2, swipes_per_session=15,
        separability=separability, seed=seed))
    table = build_feature_table(ds).select([6])
    return float(anova_f_scores(table.X, np.array(table.user_ids))[0])


def test_separability_widens_user_gaps():
    assert separation_statistic(8.0) > 10 * separation_statistic(0.0)


def test_zero_separability_keeps_users_statistically_alike():
    # users share latents up to within-user noise: F should stay small
    f = separation_statistic(0.0)
    assert f < 10.0


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(users=1)
    with pytest.raises(ConfigError):
        SyntheticSpec(sessions_per_user=1)
    with pytest.raises(ConfigError):
        SyntheticSpec(swipes_per_session=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(separability=-0.5)


def test_spec_dict_roundtrip():
    spec = SyntheticSpec(users=5, separability=2.0, seed=9, name="demo")
    assert SyntheticSpec.from_dict(spec.as_dict()) == spec


def generated_columns(spec, monkeypatch):
    """The TouchColumns that generate_synthetic hands to assemble_dataset."""
    seen = []

    def assemble(name, records):
        seen.append(records)
        return assemble_dataset(name, records)

    assemble_dataset = synthetic.assemble_dataset
    monkeypatch.setattr(synthetic, "assemble_dataset", assemble)
    generate_synthetic(spec)
    monkeypatch.undo()
    return seen[0]


def test_generator_matches_the_per_stroke_reference_bitwise(monkeypatch):
    specs = [SyntheticSpec(users=3, sessions_per_user=2, swipes_per_session=6,
                           separability=sep, seed=seed)
             for seed in range(8) for sep in (0.0, 0.5, 2.0, 8.0, 200.0)]
    # the benchmark's corpus (first format), ensemble-cell and
    # protocol-grid corpora at benchmark seed 1
    bench_seed = int(np.random.SeedSequence(1).generate_state(
        1, dtype=np.uint32)[0])
    specs += [SyntheticSpec(users=u, sessions_per_user=3, swipes_per_session=w,
                            separability=sep, seed=bench_seed, name=name)
              for u, w, sep, name in ((6, 16, 2.0, "corpus-csv"),
                                      (5, 20, 8.0, "ensemble-cell"),
                                      (5, 18, 0.5, "protocol-grid"))]
    # far-flung users: endpoints clip to the screen's corners, so chords
    # under 40 px push the endpoint out (an extra draw)
    pushing = SyntheticSpec(users=4, sessions_per_user=2,
                            swipes_per_session=5, separability=200.0, seed=3)
    assert o_synthetic_columns(pushing)[1] > 0
    for spec in specs + [pushing]:
        got = generated_columns(spec, monkeypatch)
        want, _ = o_synthetic_columns(spec)
        for name in ("dataset", "user_id", "session_id", "device_model"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()
        for name in ("t", "phase", "x", "y", "pressure", "area"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                spec, name)
