"""Touch data model: segmentation, conservation, eligibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_samples, build_swipe
from swipebench.errors import NoEligibleUsers
from swipebench.touchdata import (Session, Swipe, TouchColumns, TouchSample,
                                  UserData, assemble_dataset, filter_eligible)


def sample(t, phase, *, x=None, y=None, user="u1", session="s1",
           device="dev-a", pressure=0.5, area=0.3):
    return TouchSample(dataset="unit", user_id=user, session_id=session,
                       device_model=device, t=t, phase=phase,
                       x=float(t if x is None else x),
                       y=float(2 * t if y is None else y),
                       pressure=pressure, area=area)


def stroke_events(t0, n, *, dt=15, **kw):
    phases = ["down"] + ["move"] * (n - 2) + ["up"]
    return [sample(t0 + i * dt, ph, **kw) for i, ph in enumerate(phases)]


def segment_strokes(events):
    """Segment events through assemble_dataset: every swipe in dataset
    order, and the counts."""
    ds, counts = assemble_dataset("unit", events)
    return [swipe for user_id in ds.user_ids()
            for session in ds.users[user_id].sessions
            for swipe in session.swipes], counts


def test_sample_validation():
    with pytest.raises(ValueError):
        sample(-5, "down")
    with pytest.raises(ValueError):
        TouchSample(dataset="d", user_id="u", session_id="s",
                    device_model="m", t=0, phase="hover", x=0, y=0,
                    pressure=0.5, area=0.3)
    with pytest.raises(ValueError):
        sample(0, "down", x=float("inf"))
    with pytest.raises(ValueError):
        sample(0, "down", pressure=-0.1)
    # NaN channels are allowed (device did not report them)
    s = sample(0, "down", pressure=float("nan"))
    assert np.isnan(s.pressure)


def test_single_clean_stroke():
    events = stroke_events(1000, 6)
    swipes, counts = segment_strokes(events)
    assert len(swipes) == 1
    assert swipes[0].n == 6
    assert counts.samples_in == 6 and counts.samples_kept == 6
    assert counts.swipes == 1


def test_short_stroke_is_a_tap():
    events = stroke_events(0, 3)
    swipes, counts = segment_strokes(events)
    assert swipes == []
    assert counts.taps_discarded == 1
    assert counts.discarded_short == 3


def test_brief_stroke_is_a_tap():
    # 4 samples but only 15 ms end to end
    events = stroke_events(0, 4, dt=5)
    swipes, counts = segment_strokes(events)
    assert swipes == []
    assert counts.taps_discarded == 1
    assert counts.discarded_short == 4


def test_moves_without_down_are_orphans():
    events = [sample(10, "move"), sample(20, "move"), sample(30, "up")]
    swipes, counts = segment_strokes(events)
    assert swipes == []
    assert counts.discarded_orphan == 3


def test_down_reopens_and_discards_unterminated():
    events = (stroke_events(0, 5)[:-1]        # down + moves, no up
              + stroke_events(1000, 6))       # clean stroke
    swipes, counts = segment_strokes(events)
    assert len(swipes) == 1
    assert counts.strokes_unterminated == 1
    assert counts.discarded_unterminated == 4


def test_trailing_open_stroke_is_unterminated():
    events = stroke_events(0, 6)[:-1]
    swipes, counts = segment_strokes(events)
    assert swipes == []
    assert counts.strokes_unterminated == 1
    assert counts.discarded_unterminated == 5


def test_duplicate_timestamps_collapse_to_last():
    events = stroke_events(0, 6)
    dup = sample(events[2].t, "move", x=999.0)
    swipes, counts = segment_strokes(events + [dup])
    assert len(swipes) == 1
    assert counts.discarded_duplicate == 1
    # full-content sort key puts the larger-x duplicate last, so it wins
    assert 999.0 in list(swipes[0].xs)


def test_segmentation_is_order_independent():
    rng = np.random.default_rng(7)
    events = (stroke_events(0, 8) + stroke_events(500, 4)
              + [sample(300, "move")] + stroke_events(900, 3))
    shuffled = [events[i] for i in rng.permutation(len(events))]
    a, ca = segment_strokes(events)
    b, cb = segment_strokes(shuffled)
    assert [s.samples for s in a] == [s.samples for s in b]
    assert ca.as_dict() == cb.as_dict()


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 5000),
                          st.sampled_from(["down", "move", "up"])),
                max_size=40),
       st.randoms(use_true_random=False))
def test_every_sample_is_accounted_for(events, rnd):
    stream = [sample(t, ph) for t, ph in events]
    rnd.shuffle(stream)
    swipes, counts = segment_strokes(stream)
    counts.check_conservation()
    buckets = (counts.samples_kept + counts.discarded_orphan
               + counts.discarded_unterminated + counts.discarded_short
               + counts.discarded_duplicate)
    assert buckets == len(stream)
    for swipe in swipes:
        swipe.validate()


def test_assemble_groups_and_orders_sessions():
    records = (stroke_events(5000, 5, session="late")
               + stroke_events(100, 5, session="early")
               + stroke_events(200, 5, user="u2", session="s1"))
    ds, counts = assemble_dataset("unit", records)
    assert ds.user_ids() == ["u1", "u2"]
    assert [s.session_id for s in ds.users["u1"].sessions] == ["early", "late"]
    assert counts.swipes == 3
    assert ds.n_swipes == 3


def test_assemble_drops_empty_sessions():
    records = stroke_events(0, 5) + stroke_events(0, 3, session="taps-only")
    ds, counts = assemble_dataset("unit", records)
    assert [s.session_id for s in ds.users["u1"].sessions] == ["s1"]
    assert counts.taps_discarded == 1


def swipe_for(user, session, device, t0=0, *, nan_pressure=False):
    n = 5
    pr = [float("nan") if nan_pressure else 0.5] * n
    return build_swipe([t0 + 20 * i for i in range(n)],
                       [10.0 * i for i in range(n)],
                       [5.0 * i for i in range(n)], pr, [0.3] * n,
                       user=user, session=session, device=device)


def user_data(user, sessions):
    return UserData(user_id=user, sessions=[
        Session(session_id=sid, device_model=dev,
                swipes=[swipe_for(user, sid, dev, t0, nan_pressure=nan)])
        for sid, dev, t0, nan in sessions])


def test_eligibility_keeps_largest_device_group():
    from swipebench.touchdata import Dataset
    ds = Dataset(name="unit", users={
        "u1": user_data("u1", [("s1", "phone-a", 0, False),
                               ("s2", "phone-a", 100, False),
                               ("s3", "phone-b", 200, False)]),
    })
    kept, report = filter_eligible(ds)
    assert [s.session_id for s in kept.users["u1"].sessions] == ["s1", "s2"]
    assert report["users_kept"] == 1


def test_eligibility_device_tie_breaks_lexicographically():
    from swipebench.touchdata import Dataset
    ds = Dataset(name="unit", users={
        "u1": user_data("u1", [("s1", "zz-phone", 0, False),
                               ("s2", "aa-phone", 100, False),
                               ("s3", "zz-phone", 200, False),
                               ("s4", "aa-phone", 300, False)]),
    })
    kept, _ = filter_eligible(ds)
    assert [s.session_id for s in kept.users["u1"].sessions] == ["s2", "s4"]
    assert kept.users["u1"].sessions[0].device_model == "aa-phone"


def test_eligibility_drops_few_sessions_and_missing_channels():
    from swipebench.touchdata import Dataset
    ds = Dataset(name="unit", users={
        "one-session": user_data("one-session", [("s1", "d", 0, False)]),
        "nan-channel": user_data("nan-channel", [("s1", "d", 0, True),
                                                 ("s2", "d", 100, True)]),
        "good": user_data("good", [("s1", "d", 0, False),
                                   ("s2", "d", 100, False)]),
    })
    kept, report = filter_eligible(ds)
    assert list(kept.users) == ["good"]
    assert report["dropped_few_sessions"] == 1
    assert report["dropped_missing_channels"] == 1


def test_no_eligible_users_raises():
    from swipebench.touchdata import Dataset
    ds = Dataset(name="unit", users={
        "u1": user_data("u1", [("s1", "d", 0, False)]),
    })
    with pytest.raises(NoEligibleUsers):
        filter_eligible(ds)


def test_swipe_validate_rejects_malformed():
    good = build_swipe([0, 20, 40, 60], [0, 1, 2, 3], [0, 1, 2, 3])
    good.validate()
    bad_phase = build_swipe([0, 20, 40, 60], [0, 1, 2, 3], [0, 1, 2, 3])
    samples = list(bad_phase.samples)
    from dataclasses import replace
    samples[0] = replace(samples[0], phase="move")
    bad = Swipe(TouchColumns.of(samples), 0, len(samples))
    with pytest.raises(ValueError):
        bad.validate()
