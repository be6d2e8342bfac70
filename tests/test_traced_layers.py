"""The benchmark's tracer still sees the ingest and protocol layers.

``bench/spans.py`` times layers from outside the package by replacing
module bindings with wrappers. Renaming a binding it wraps, or inlining a
call that goes through one, drops that layer's spans without an error.
This runs a small corpus-shaped ingest (canonical file, raw adapter
export, eligibility filter, feature table) and a small protocol-grid
shaped matrix under ``Tracer.install()`` and checks that every layer and
nested call still shows up.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spans import Tracer  # noqa: E402
from swipebench import experiments, ingest, touchdata  # noqa: E402
from swipebench.features import extract  # noqa: E402
from swipebench.synthetic import SyntheticSpec, generate_synthetic  # noqa: E402

ADAPTER = """
dataset = traced-raw
has_header = false
col.device_model = 0
col.user_id = 1
col.session_id = 2
col.t = 3
col.phase = 4
col.x = 5
col.y = 6
col.pressure = 7
col.area = 8
phase.0 = down
phase.1 = up
phase.2 = move
"""


def write_raw(dataset, path: Path) -> None:
    code = {"down": "0", "up": "1", "move": "2"}
    lines = [",".join([s.device_model, s.user_id, s.session_id, str(s.t),
                       code[s.phase], repr(s.x), repr(s.y), repr(s.pressure),
                       repr(s.area)])
             for user_id in dataset.user_ids()
             for session in dataset.users[user_id].sessions
             for swipe in session.swipes for s in swipe.samples]
    path.write_text("\n".join(lines) + "\n")


def children(spans: list, index: int) -> list[str]:
    return [s[0] for s in spans if s[3] == index]


def test_tracer_sees_every_ingest_layer(tmp_path):
    data = generate_synthetic(SyntheticSpec(
        users=3, sessions_per_user=2, swipes_per_session=4,
        separability=2.0, seed=5, name="traced"))
    canonical = tmp_path / "corpus.csv"
    ingest.write_canonical(data, canonical)
    raw = tmp_path / "corpus.raw"
    write_raw(data, raw)
    conf = tmp_path / "raw.conf"
    conf.write_text(ADAPTER)

    tracer = Tracer(seed=0)
    tracer.install()
    try:
        loaded, _ = ingest.load_canonical(canonical)
        records, _ = ingest.convert_raw(raw, ingest.AdapterConfig.load(conf))
        converted, _ = ingest.assemble_dataset("traced-raw", records)
        for dataset in (loaded, converted):
            eligible, _ = touchdata.filter_eligible(dataset)
            table = extract.build_feature_table(eligible)
            assert table.n_rows == data.n_swipes
    finally:
        tracer.uninstall()

    spans = tracer.spans
    top = [(i, s[0]) for i, s in enumerate(spans) if s[3] == -1]
    assert [name for _, name in top] == [
        "ingest.parse", "ingest.parse", "touchdata.assemble",
        "touchdata.filter", "features.extract",
        "touchdata.filter", "features.extract"]
    # load_canonical parses and assembles through its module's globals
    load_index = top[0][0]
    assert children(spans, load_index) == ["ingest.parse",
                                           "touchdata.assemble"]
    assert children(spans, top[1][0]) == []
    assert not hasattr(ingest.load_canonical, "__wrapped__")


def test_tracer_sees_every_protocol_layer(tmp_path):
    """A tiny matrix run: every span the protocol-grid workload's
    per-layer metrics read shows up at least once."""
    cfg = experiments.parse_config({
        "dataset": {"synthetic": {"users": 3, "sessions_per_user": 2,
                                  "swipes_per_session": 8,
                                  "separability": 2.0, "seed": 5}},
        "feature_set": "frank2013",
        "classifier": "knn",
        "aggregation": [
            "none",
            {"method": "mean", "window": 2},
            {"method": "feed", "window": 2},
            {"method": "stacking", "window": 2,
             "stacker": {"hidden": 2, "epochs": 1}}],
        "protocol": {"repetitions": 1, "seed": 0},
    })
    tracer = Tracer(seed=0)
    tracer.install()
    try:
        result = experiments.run_matrix(cfg)
        experiments.write_report(result, tmp_path)
    finally:
        tracer.uninstall()

    missing = {
        "aggregation.window", "aggregation.reduce", "aggregation.concat",
        "stacking.train", "stacking.score", "protocol.self",
        "protocol.sample", "metrics.eer", "experiments.self",
        "experiments.write", "classifiers.knn.train",
        "classifiers.knn.score"} - {s[0] for s in tracer.spans}
    assert not missing
    assert not hasattr(experiments.run_matrix, "__wrapped__")
