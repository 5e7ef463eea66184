"""Scene generator: exact crossing times, rate scaling, stereo shift, layout."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, assume
from hypothesis import strategies as st

from spikedepth import events as ev
from spikedepth import synth
from spikedepth.synth import (PlaneSpec, SceneSpec, ValidationError,
                              generate_scene, parse_scene_spec,
                              serialize_scene_spec, write_dataset,
                              load_manifest, disparity_px)

from helpers import event_rows, events_equal, make_events, serialize_events


def one_plane_spec(**kw):
    args = dict(seed=7, height=16, width=16, n_windows=4, window_len_us=50000,
                camera_velocity=80.0, contrast_threshold=0.4, baseline_px=4.0,
                depth=1.0, period=8.0)
    args.update(kw)
    depth = args.pop("depth")
    period = args.pop("period")
    plane = PlaneSpec(depth_m=depth, x0=0, y0=0, width=args["width"],
                      height=args["height"], period_px=period)
    return SceneSpec(planes=(plane,), **args)


# ---------------------------------------------------------------------------
# crossing enumeration


def level_first_crossings(u0, omega, duration_s, threshold):
    """Independent oracle: solve tri(u0 - omega t) = k*threshold per level.

    tri(u) = q has the two in-period solutions frac(u) = 0.5 +- (1+q)/4. The
    + branch rises in u, hence falls in t; the - branch is the rising one.
    """
    out = []
    kmax = int(math.ceil(1.0 / threshold)) + 1
    for k in range(-kmax, kmax + 1):
        q = k * threshold
        if abs(q) >= 1.0:
            continue
        for u_off, pol in ((0.5 + (1.0 + q) / 4.0, -1),
                           (0.5 - (1.0 + q) / 4.0, +1)):
            n_hi = int(math.floor(u0 - u_off)) + 1
            n_lo = int(math.ceil(u0 - omega * duration_s - u_off)) - 1
            for n in range(n_lo, n_hi + 1):
                t = (u0 - (n + u_off)) / omega
                if 0.0 <= t < duration_s:
                    out.append((t, pol))
    out.sort()
    return out


def test_crossing_times_exact_hand_case():
    # u0 = 0 starts on a peak; omega = 1 makes one full period per second.
    got = synth._column_crossings(0.0, 1.0, 1.0, 0.4)
    want = [((1.0 - q) / 4.0, -1) for q in (0.8, 0.4, 0.0, -0.4, -0.8)]
    want += [((q + 3.0) / 4.0, +1) for q in (-0.8, -0.4, 0.0, 0.4, 0.8)]
    assert len(got) == len(want)
    for (gt, gp), (wt, wp) in zip(got, sorted(want)):
        assert gp == wp
        assert abs(gt - wt) < 1e-12


def test_peak_on_grid_level_is_touch_not_cross():
    # threshold 0.5 puts the amplitude itself on the grid; the turning points
    # touch +-1 without crossing, so only interior levels fire.
    got = synth._column_crossings(0.0, 1.0, 1.0, 0.5)
    assert len(got) == 6
    assert all(abs(q) < 1.0 for q in
               (1.0 - 4.0 * t if p < 0 else 4.0 * t - 3.0 for t, p in got))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_crossings_match_level_first_oracle(seed):
    rng = np.random.default_rng(seed)
    u0 = float(rng.uniform(0.0, 4.0))
    omega = float(rng.uniform(0.2, 30.0))
    duration = float(rng.uniform(0.05, 1.5))
    threshold = float(rng.uniform(0.15, 0.9))
    got = synth._column_crossings(u0, omega, duration, threshold)
    want = level_first_crossings(u0, omega, duration, threshold)
    # Skip draws whose crossings sit on a boundary or an amplitude touch,
    # where the two conventions may legitimately split hairs.
    edge = 1e-7
    assume(all(t > edge and t < duration - edge for t, _ in want))
    assume(all(abs(abs(k * threshold) - 1.0) > 1e-9
               for k in range(-8, 9)))
    assert len(got) == len(want)
    for (gt, gp), (wt, wp) in zip(sorted(got), want):
        assert gp == wp
        assert abs(gt - wt) < 1e-9


def test_static_scene_emits_nothing():
    data = generate_scene(one_plane_spec(camera_velocity=0.0))
    assert len(data.events_left) == 0
    assert len(data.events_right) == 0
    assert len(data.gt_frames) == 4


def test_polarity_balance():
    # Every crossed level is re-crossed on the way back: equal counts.
    data = generate_scene(one_plane_spec(n_windows=8))
    pos = int((data.events_left.p == 1).sum())
    neg = int((data.events_left.p == -1).sum())
    assert pos + neg == len(data.events_left)
    assert abs(pos - neg) <= 10 * 16 * 16


def test_event_count_exact_for_integer_periods():
    # 0.4 s of motion at depth 1 is exactly 4 texture periods: every column
    # fires 10 events per period (5 levels up, 5 down), all 16 rows alike.
    spec = one_plane_spec(n_windows=8, depth=1.0)
    data = generate_scene(spec)
    assert len(data.events_left) == 40 * 16 * 16


def test_halving_depth_doubles_event_count():
    near = generate_scene(one_plane_spec(n_windows=7, depth=1.0))
    far = generate_scene(one_plane_spec(n_windows=7, depth=2.0))
    ratio = len(near.events_left) / len(far.events_left)
    assert abs(ratio - 2.0) < 0.02 * 2.0


def test_rate_scales_with_velocity_and_period():
    base = len(generate_scene(one_plane_spec(n_windows=7)).events_left)
    fast = len(generate_scene(one_plane_spec(n_windows=7,
                                             camera_velocity=160.0)).events_left)
    coarse = len(generate_scene(one_plane_spec(n_windows=7,
                                               period=16.0)).events_left)
    assert abs(fast / base - 2.0) < 0.04
    assert abs(base / coarse - 2.0) < 0.04


def test_events_sorted_and_in_bounds():
    spec = two_plane_spec()
    data = generate_scene(spec)
    for evs in (data.events_left, data.events_right):
        assert len(evs) > 0
        keys = [(t, y, x, p) for t, x, y, p in event_rows(evs)]
        for a, b in zip(keys[:-1], keys[1:]):
            assert a <= b
        for t, x, y, p in event_rows(evs):
            assert 0 <= t < spec.duration_us
            assert 0 <= x < spec.width
            assert 0 <= y < spec.height
            assert p in (-1, 1)


def two_plane_spec(**kw):
    args = dict(seed=3, height=32, width=32, n_windows=4, window_len_us=50000,
                camera_velocity=80.0, contrast_threshold=0.4, baseline_px=8.0,
                noise_rate_hz=0.0)
    args.update(kw)
    planes = (PlaneSpec(depth_m=1.0, x0=0, y0=0, width=32, height=16, period_px=8.0),
              PlaneSpec(depth_m=2.0, x0=0, y0=16, width=32, height=16, period_px=8.0))
    return SceneSpec(planes=planes, **args)


def test_two_plane_counts_follow_depths():
    data = generate_scene(two_plane_spec(n_windows=7))
    near = int((data.events_left.y < 16).sum())
    far = int((data.events_left.y >= 16).sum())
    assert abs(near / far - 2.0) < 0.04


def test_right_camera_is_per_plane_shift():
    spec = two_plane_spec()
    data = generate_scene(spec)
    shifted = []
    for t, x, y, p in event_rows(data.events_left):
        d = 8 if y < 16 else 4  # round(8/1), round(8/2)
        xr = x - d
        if 0 <= xr < spec.width:
            shifted.append((t, xr, y, p))
    assert events_equal(make_events(sorted(shifted, key=lambda e: (e[0], e[2], e[1], e[3]))),
                        data.events_right)


def test_disparity_rounds():
    spec = one_plane_spec(baseline_px=10.0, depth=3.0)
    assert disparity_px(spec, spec.planes[0]) == 3
    spec = one_plane_spec(baseline_px=10.0, depth=4.0)
    assert disparity_px(spec, spec.planes[0]) == 2


def test_ground_truth_frames_exact():
    spec = two_plane_spec()
    data = generate_scene(spec)
    assert [f.t for f in data.gt_frames] == [50000, 100000, 150000, 200000]
    for f in data.gt_frames:
        assert f.valid.all()
        assert (f.depth.data[:16] == 1.0).all()
        assert (f.depth.data[16:] == 2.0).all()


def test_noise_event_budget():
    spec = one_plane_spec(camera_velocity=0.0, noise_rate_hz=50.0)
    data = generate_scene(spec)
    # 50 Hz/px * 256 px * 0.2 s, drawn independently per camera
    assert len(data.events_left) == 2560
    assert len(data.events_right) == 2560
    assert not events_equal(data.events_left, data.events_right)


def test_generation_is_deterministic():
    a = generate_scene(two_plane_spec())
    b = generate_scene(two_plane_spec())
    assert events_equal(a.events_left, b.events_left)
    assert events_equal(a.events_right, b.events_right)
    assert serialize_events(a.events_left) == serialize_events(b.events_left)


# ---------------------------------------------------------------------------
# spec files and dataset layout


def test_scene_spec_roundtrip():
    spec = two_plane_spec(seed=11, noise_rate_hz=1.5)
    text = serialize_scene_spec(spec)
    assert parse_scene_spec(text) == spec


def test_scene_spec_rejects_unknown_key():
    with pytest.raises(ev.ParseError, match="unknown key"):
        parse_scene_spec("frame_rate = 30\n")


def test_scene_spec_rejects_bad_plane():
    with pytest.raises(ev.ParseError, match="6 fields"):
        parse_scene_spec("plane.0 = 1.0, 0, 0, 4, 4\n")
    with pytest.raises(ev.ParseError, match="holes"):
        parse_scene_spec("height = 4\nwidth = 4\n"
                         "plane.1 = 1.0, 0, 0, 4, 4, 2.0\n")
    with pytest.raises(ev.ParseError, match="duplicate"):
        parse_scene_spec("seed = 1\nseed = 2\n"
                         "plane.0 = 1.0, 0, 0, 4, 4, 2.0\n")


def test_validation_overlap_and_gap_name_a_pixel():
    planes = (PlaneSpec(1.0, 0, 0, 4, 3, 2.0), PlaneSpec(2.0, 0, 2, 4, 2, 2.0))
    with pytest.raises(ValidationError, match=r"overlap at \(x=0, y=2\)"):
        SceneSpec(height=4, width=4, planes=planes)
    planes = (PlaneSpec(1.0, 0, 0, 4, 3, 2.0),)
    with pytest.raises(ValidationError, match=r"gap at \(x=0, y=3\)"):
        SceneSpec(height=4, width=4, planes=planes)


def test_validation_rejects_bad_numbers():
    good = (PlaneSpec(1.0, 0, 0, 4, 4, 2.0),)
    with pytest.raises(ValidationError, match="depth"):
        SceneSpec(height=4, width=4, planes=(PlaneSpec(0.0, 0, 0, 4, 4, 2.0),))
    with pytest.raises(ValidationError, match="period"):
        SceneSpec(height=4, width=4, planes=(PlaneSpec(1.0, 0, 0, 4, 4, 0.0),))
    with pytest.raises(ValidationError, match="frame"):
        SceneSpec(height=4, width=4, planes=(PlaneSpec(1.0, 2, 0, 4, 4, 2.0),))
    with pytest.raises(ValidationError, match="n_windows"):
        SceneSpec(height=4, width=4, n_windows=0, planes=good)
    with pytest.raises(ValidationError, match="contrast"):
        SceneSpec(height=4, width=4, contrast_threshold=0.0, planes=good)
    with pytest.raises(ValidationError, match="at least one plane"):
        SceneSpec(height=4, width=4)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_dataset_layout_and_determinism(tmp_path):
    spec = two_plane_spec()
    m1 = write_dataset(spec, str(tmp_path / "a"))
    write_dataset(spec, str(tmp_path / "b"))
    names = ["events_left.csv", "events_right.csv", "manifest.txt",
             "gt_0000.txt", "gt_0003.txt"]
    for name in names:
        assert read_bytes(str(tmp_path / "a" / name)) == \
            read_bytes(str(tmp_path / "b" / name))
    assert m1.height == 32 and m1.width == 32
    assert m1.window_starts == [0, 50000, 100000, 150000]
    assert m1.gt_files == ["gt_%04d.txt" % k for k in range(4)]
    assert m1.binocular
    loaded = ev.load_events(str(tmp_path / "a" / m1.events_left))
    assert events_equal(loaded, generate_scene(spec).events_left)
    frame = ev.load_depth_frame(str(tmp_path / "a" / m1.gt_files[2]))
    assert frame.t == 150000
    assert (frame.depth.data[:16] == 1.0).all()


def test_manifest_rejects_missing_windows(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("height = 4\nwidth = 4\nwindow_len_us = 100\nn_windows = 2\n"
                    "events_left = e.csv\nwindow.0 = 0\ngt.0 = g.txt\n")
    with pytest.raises(ev.ParseError, match="window.k and gt.k"):
        load_manifest(str(path))


def test_manifest_huge_window_count_fails_within_the_file(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("height = 4\nwidth = 4\nwindow_len_us = 100\nn_windows = %d\n"
                    "events_left = e.csv\nwindow.0 = 0\ngt.0 = g.txt\n" % 10 ** 9)
    tracemalloc.start()
    try:
        with pytest.raises(ev.ParseError, match="window.k and gt.k"):
            load_manifest(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_manifest_rejects_unknown_key(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("height = 4\nfps = 30\n")
    with pytest.raises(ev.ParseError, match="unknown manifest key"):
        load_manifest(str(path))


@pytest.mark.parametrize("line,bad", [
    (4, "n_windows = x"),
    (1, "height = 1.5"),
    (6, "window.0 = soon"),
    (6, "window.first = 0"),
    (7, "gt.x = g.txt"),
])
def test_manifest_rejects_non_integers_with_line(tmp_path, line, bad):
    lines = ["height = 4", "width = 4", "window_len_us = 100", "n_windows = 1",
             "events_left = e.csv", "window.0 = 0", "gt.0 = g.txt"]
    lines[line - 1] = bad
    path = tmp_path / "manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ev.ParseError, match="^line %d: " % line):
        load_manifest(str(path))


@pytest.mark.parametrize("line,bad,message", [
    (2, "height = 8", "duplicate key 'height'"),
    (7, "window.0 = 100", "duplicate key 'window.0'"),
    (5, "binocular = yes", "binocular must be true or false"),
    (6, "window.00 = 0", "bad index"),
])
def test_manifest_rejects_repeated_keys_and_bad_booleans(tmp_path, line, bad, message):
    lines = ["height = 4", "width = 4", "window_len_us = 100", "n_windows = 1",
             "events_left = e.csv", "window.0 = 0", "gt.0 = g.txt"]
    lines[line - 1] = bad
    path = tmp_path / "manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ev.ParseError, match="^line %d: %s" % (line, message)):
        load_manifest(str(path))
