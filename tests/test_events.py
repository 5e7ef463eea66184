import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikedepth import tensor as tz
from spikedepth import events as ev
from helpers import (events_equal, forbid_large_zeros, make_events, recount_stack, scalar_stack,
                     serialize_events)


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic_and_polarity_mapping():
    text = "t_us,x,y,p\n5000,1,2,1\n15000,1,2,1\n45000,0,0,0\n"
    out = ev.parse_events(text)
    assert events_equal(out, make_events([(5000, 1, 2, 1), (15000, 1, 2, 1), (45000, 0, 0, -1)]))


def test_parse_empty_body():
    assert events_equal(ev.parse_events("t_us,x,y,p\n"), make_events([]))


def test_parse_missing_header():
    with pytest.raises(ev.ParseError, match="line 1"):
        ev.parse_events("5000,1,2,1\n")


def test_parse_malformed_lines_carry_numbers():
    with pytest.raises(ev.ParseError, match="line 3"):
        ev.parse_events("t_us,x,y,p\n1,1,1,1\n2,1,1\n")
    with pytest.raises(ev.ParseError, match="line 2"):
        ev.parse_events("t_us,x,y,p\n1,1,x,1\n")
    with pytest.raises(ev.ParseError, match="line 2"):
        ev.parse_events("t_us,x,y,p\n-1,1,1,1\n")
    with pytest.raises(ev.ParseError, match="line 4"):
        ev.parse_events("t_us,x,y,p\n1,1,1,1\n2,1,1,0\n3,1,1,2\n")


@pytest.mark.parametrize("line,message", [
    ("3,1,1", "line 4: expected 4 fields, got 3"),
    ("3,1,y,1", "line 4: field 'y' is not an unsigned integer of at most 18 digits"),
    ("3,1,1,2", "line 4: polarity must be 0 or 1, got 2"),
])
def test_parse_error_describes_the_bad_line_not_its_block(line, message):
    # the bad line comes after good ones in the same scan block
    text = "t_us,x,y,p\n1,1,1,1\n2,1,1,0\n%s\n4,1,1,1\n" % line
    with pytest.raises(ev.ParseError) as err:
        ev.parse_events(text)
    assert str(err.value) == message


def test_parse_decreasing_timestamp():
    with pytest.raises(ev.OrderingError, match="line 3"):
        ev.parse_events("t_us,x,y,p\n100,1,1,1\n99,1,1,1\n")


def test_parse_rejects_overlong_and_non_ascii_fields():
    with pytest.raises(ev.ParseError, match="line 3"):
        ev.parse_events("t_us,x,y,p\n1,1,1,1\n%s,1,1,1\n" % ("9" * 19))
    with pytest.raises(ev.ParseError, match="line 2"):
        ev.parse_events("t_us,x,y,p\n1,\u0663,1,1\n")
    assert ev.parse_events("t_us,x,y,p\n%s,1,1,1\n" % ("9" * 18)).t[0] == 10**18 - 1


# block sizes that cut the scan mid-record, at every record, and never
SCAN_SIZES = (1, 7, 16, 64, ev._SCAN_BYTES)


FIELD_MUTATIONS = (
    lambda f, k: f[:k] + f[k + 1:],                       # drop a field
    lambda f, k: f + ["0"],                               # add a field
    lambda f, k: f[:k] + [""] + f[k + 1:],                # empty a field
    lambda f, k: f[:k] + [f[k] + "x"] + f[k + 1:],        # stray character
    lambda f, k: f[:k] + ["-" + f[k]] + f[k + 1:],        # signed field
    lambda f, k: f[:k] + ["1" * 19] + f[k + 1:],          # too many digits
    lambda f, k: f[:3] + [str(2 + k)],                    # polarity out of range
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 999),
                          st.integers(0, 999), st.sampled_from((-1, 1))),
                min_size=1, max_size=30),
       st.data())
def test_parse_error_names_the_mutated_line(rows, data):
    rows = sorted(rows)
    lines = serialize_events(make_events(rows)).split("\n")
    j = data.draw(st.integers(1, len(rows)), label="record line index")
    k = data.draw(st.integers(0, 3), label="field")
    mutate = data.draw(st.sampled_from(FIELD_MUTATIONS), label="mutation")
    lines[j] = ",".join(mutate(lines[j].split(","), k))
    scan = data.draw(st.sampled_from(SCAN_SIZES), label="scan block bytes")
    with mock.patch.object(ev, "_SCAN_BYTES", scan), \
            pytest.raises(ev.ParseError, match="^line %d:" % (j + 1)):
        ev.parse_events("\n".join(lines))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**17), st.integers(0, 999),
                          st.integers(0, 999), st.sampled_from((-1, 1))),
                max_size=40),
       st.sampled_from(SCAN_SIZES))
def test_parse_is_independent_of_the_scan_block(rows, scan):
    events = make_events(sorted(rows))
    text = serialize_events(events)
    with mock.patch.object(ev, "_SCAN_BYTES", scan):
        assert events_equal(ev.parse_events(text), events)


def test_load_events_peak_stays_near_the_columns(tmp_path):
    # a sensor-size stream: 134,940 events on 260 x 346
    rng = np.random.default_rng(3)
    n = 134940
    events = ev.EventArray(np.sort(rng.integers(0, 400000, n)), rng.integers(0, 346, n),
                           rng.integers(0, 260, n), rng.choice((-1, 1), n))
    path = str(tmp_path / "events.csv")
    ev.save_events(path, events)
    tracemalloc.start()
    try:
        loaded = ev.load_events(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert events_equal(loaded, events)
    columns = sum(c.nbytes for c in (loaded.t, loaded.x, loaded.y, loaded.p))
    assert peak <= 2.5 * columns, peak / columns


def test_serialize_roundtrip_byte_identity():
    text = "t_us,x,y,p\n5000,1,2,1\n5000,3,2,0\n45000,0,0,0\n"
    events = ev.parse_events(text)
    assert serialize_events(events) == text
    assert events_equal(ev.parse_events(serialize_events(events)), events)


def test_event_array_owns_int64_columns_without_a_copy():
    cols = [np.array(c, dtype=np.int64) for c in ([1, 2, 2], [0, 3, 1], [4, 0, 2], [1, -1, 1])]
    events = ev.EventArray(*cols)
    for name, col in zip(("t", "x", "y", "p"), cols):
        assert getattr(events, name) is col
        assert not col.flags.writeable
    listed = ev.EventArray([1, 2, 2], [0, 3, 1], [4, 0, 2], [1, -1, 1])
    assert events_equal(listed, events) and listed.t.dtype == np.int64


def test_read_text_translates_line_ends_and_names_bad_bytes(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\r\nb\rc\n")
    assert ev.read_text(str(path)) == "a\nb\nc\n"
    path.write_bytes(b"a\nb\n\xffc\n")
    with pytest.raises(ev.ParseError, match="f.txt: line 3: byte 0xff"):
        ev.read_text(str(path))


def test_event_array_checks_its_invariants():
    with pytest.raises(ev.OrderingError, match="event 2"):
        ev.EventArray([1, 5, 4], [0, 0, 0], [0, 0, 0], [1, 1, 1])
    with pytest.raises(tz.ArgumentError, match="polarity"):
        ev.EventArray([1], [0], [0], [0])
    with pytest.raises(tz.DimensionError):
        ev.EventArray([1, 2], [0], [0, 0], [1, 1])
    events = make_events([(1, 0, 0, 1), (1, 1, 0, -1)])
    assert len(events) == 2 and events.t.dtype == np.int64
    with pytest.raises(ValueError):
        events.t[0] = 9
    assert events_equal(events, make_events([(1, 0, 0, 1), (1, 1, 0, -1)]))
    assert not events_equal(events, make_events([(1, 0, 0, 1), (1, 1, 0, 1)]))


# ---------------------------------------------------------------------------
# stacking


def test_cumulative_worked_example():
    events = make_events([(5000, 1, 2, 1), (15000, 1, 2, 1), (45000, 0, 0, -1)])
    st_ = ev.cumulative_stack(events, 0, 50000, 5, 4, 4)
    d = st_.data.data
    assert d.shape == (5, 2, 4, 4)
    assert d[0, 0, 2, 1] == 1.0 and d[0].sum() == 1.0
    assert d[1, 0, 2, 1] == 2.0 and d[1].sum() == 2.0
    assert d[4, 0, 2, 1] == 2.0 and d[4, 1, 0, 0] == 1.0 and d[4].sum() == 3.0


def test_stack_no_events_is_zero():
    st_ = ev.cumulative_stack(make_events([]), 0, 50000, 5, 3, 3)
    assert st_.data.data.sum() == 0.0


def test_stack_ignores_out_of_window():
    events = make_events([(49999, 0, 0, 1), (50000, 0, 0, 1), (123456, 1, 1, -1)])
    st_ = ev.cumulative_stack(events, 0, 50000, 5, 3, 3)
    assert st_.data.data[4].sum() == 1.0


def test_stack_bounds_errors():
    with pytest.raises(ev.BoundsError):
        ev.cumulative_stack(make_events([(1, 3, 0, 1)]), 0, 50000, 5, 4, 3)
    # border coordinates x == W or y == H are rejected
    with pytest.raises(ev.BoundsError):
        ev.cumulative_stack(make_events([(1, 0, 4, 1)]), 0, 50000, 5, 4, 3)
    # out-of-window events are not bounds-checked
    ev.cumulative_stack(make_events([(60000, 99, 99, 1)]), 0, 50000, 5, 4, 3)


def test_stack_argument_validation():
    with pytest.raises(tz.ArgumentError):
        ev.cumulative_stack(make_events([]), 0, 50000, 7, 3, 3)
    with pytest.raises(tz.ArgumentError):
        ev.cumulative_stack(make_events([]), 0, 50000, 0, 3, 3)


def test_repeat_stack_replicates_final_histogram():
    events = make_events([(5000, 1, 2, 1), (15000, 1, 2, 1), (45000, 0, 0, -1)])
    rep = ev.repeat_stack(events, 0, 50000, 5, 4, 4)
    cum = ev.cumulative_stack(events, 0, 50000, 5, 4, 4)
    for tau in range(5):
        np.testing.assert_array_equal(rep.data.data[tau], cum.data.data[4])


def test_single_step_modes_agree():
    events = make_events([(i * 1000, i % 3, i % 2, 1) for i in range(20)])
    a = ev.cumulative_stack(events, 0, 50000, 1, 2, 3)
    b = ev.repeat_stack(events, 0, 50000, 1, 2, 3)
    np.testing.assert_array_equal(a.data.data, b.data.data)


def test_binarize_clamps_counts():
    events = make_events([(1, 0, 0, 1), (2, 0, 0, 1), (3, 0, 0, 1)])
    st_ = ev.cumulative_stack(events, 0, 50000, 5, 2, 2, binarize=True)
    assert st_.data.data.max() == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stack_matches_recount_oracle(seed):
    rng = np.random.default_rng(seed)
    height, width = 5, 6
    t_steps = int(rng.choice([1, 2, 5]))
    n = int(rng.integers(0, 60))
    ts = np.sort(rng.integers(0, 50000, size=n))
    events = make_events([(int(ts[i]), int(rng.integers(0, width)),
                           int(rng.integers(0, height)), int(rng.choice([-1, 1])))
                          for i in range(n)])
    got = ev.cumulative_stack(events, 0, 50000, t_steps, height, width)
    want = recount_stack(events, 0, 50000, t_steps, height, width)
    np.testing.assert_array_equal(got.data.data, want)
    rep = ev.repeat_stack(events, 0, 50000, t_steps, height, width)
    wrep = recount_stack(events, 0, 50000, t_steps, height, width, mode="repeat")
    np.testing.assert_array_equal(rep.data.data, wrep)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stack_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    ts = np.sort(rng.integers(0, 50000, size=n))
    events = make_events([(int(ts[i]), int(rng.integers(0, 4)),
                           int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                          for i in range(n)])
    st_ = ev.cumulative_stack(events, 0, 50000, 5, 4, 4)
    d = st_.data.data
    # frames are nested supersets
    assert (np.diff(d, axis=0) >= 0).all()
    # conservation: final frame counts every in-window event once
    assert d[-1].sum() == n
    # polarity separation
    pos = int((events.p > 0).sum())
    assert d[-1, 0].sum() == pos and d[-1, 1].sum() == n - pos


@st.composite
def stacking_cases(draw):
    """A sorted stream around one window, with its geometry and bin count.

    Every case holds events exactly at the window's first and last
    microseconds and just outside both ends, plus off-sensor events outside
    the window, which must be ignored rather than rejected.
    """
    t_steps = draw(st.integers(1, 6))
    window_len = t_steps * draw(st.integers(1, 40))
    ws = draw(st.integers(0, 300))
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    hi = ws + window_len
    on = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1),
                   st.sampled_from((-1, 1)))
    off = st.tuples(st.sampled_from((-3, width, width + 7)), st.integers(-2, height + 2),
                    st.sampled_from((-1, 1)))
    times = [ws, hi - 1] + draw(st.lists(st.integers(ws, hi - 1), max_size=40))
    rows = [(t,) + draw(on) for t in times]
    outside = [max(ws - 1, 0), hi] + draw(st.lists(
        st.one_of(st.integers(max(ws - 60, 0), max(ws - 1, 0)), st.integers(hi, hi + 60)),
        max_size=10))
    rows += [(t,) + draw(on if t == ws else off) for t in outside]
    rows.sort(key=lambda r: r[0])
    return rows, ws, window_len, t_steps, height, width


@settings(max_examples=80, deadline=None)
@given(stacking_cases())
def test_stacks_match_scalar_reference(case):
    rows, ws, window_len, t_steps, height, width = case
    events = make_events(rows)
    for mode, stack in (("cumulative", ev.cumulative_stack), ("repeat", ev.repeat_stack)):
        got = stack(events, ws, window_len, t_steps, height, width).data.data
        want = scalar_stack(events, ws, window_len, t_steps, height, width, mode)
        np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(stacking_cases(), st.data())
def test_one_off_sensor_event_in_window_raises(case, data):
    rows, ws, window_len, t_steps, height, width = case
    t = data.draw(st.integers(ws, ws + window_len - 1), label="t")
    x, y = data.draw(st.sampled_from(((-1, 0), (width, 0), (0, -1), (0, height))),
                     label="off-sensor pixel")
    rows = sorted(rows + [(t, x, y, 1)], key=lambda r: r[0])
    events = make_events(rows)
    with pytest.raises(ev.BoundsError):
        scalar_stack(events, ws, window_len, t_steps, height, width)
    for stack in (ev.cumulative_stack, ev.repeat_stack):
        with pytest.raises(ev.BoundsError, match="t=%d" % t):
            stack(events, ws, window_len, t_steps, height, width)


def test_window_offset_respected():
    events = make_events([(50000, 1, 1, 1), (99999, 2, 2, -1)])
    st_ = ev.cumulative_stack(events, 50000, 50000, 5, 4, 4)
    assert st_.data.data[0, 0, 1, 1] == 1.0
    assert st_.data.data[4].sum() == 2.0
    assert st_.window_start == 50000


# ---------------------------------------------------------------------------
# binocular


def test_binocular_concat_layout():
    left = ev.cumulative_stack(make_events([(1, 0, 0, 1)]), 0, 50000, 2, 2, 2)
    right = ev.cumulative_stack(make_events([(1, 1, 1, -1)]), 0, 50000, 2, 2, 2)
    both = ev.binocular_concat(left, right)
    assert both.data.data.shape == (2, 4, 2, 2)
    np.testing.assert_array_equal(both.data.data[:, :2], left.data.data)
    np.testing.assert_array_equal(both.data.data[:, 2:], right.data.data)


def test_binocular_window_mismatch():
    left = ev.cumulative_stack(make_events([]), 0, 50000, 2, 2, 2)
    right = ev.cumulative_stack(make_events([]), 50000, 50000, 2, 2, 2)
    with pytest.raises(ev.AlignmentError):
        ev.binocular_concat(left, right)


# ---------------------------------------------------------------------------
# ground truth alignment and files


def frame_at(t, h=2, w=2, value=1.5):
    return ev.DepthFrame(depth=np.full((h, w), value),
                         valid=np.ones((h, w), dtype=bool), t=t)


def test_align_exact_and_nearest():
    frames = [frame_at(45000), frame_at(56000)]
    got = ev.align_ground_truth(frames, 0, 50000)
    assert got.t == 45000


def test_align_tie_goes_earlier():
    frames = [frame_at(45000), frame_at(55000)]
    assert ev.align_ground_truth(frames, 0, 50000).t == 45000


def test_align_out_of_tolerance():
    with pytest.raises(ev.AlignmentError):
        ev.align_ground_truth([frame_at(200000)], 0, 50000)
    with pytest.raises(ev.AlignmentError):
        ev.align_ground_truth([], 0, 50000)


def test_depth_file_roundtrip(tmp_path):
    depth = np.array([[1.0, 2.5], [0.0, 0.125]])
    valid = np.array([[True, True], [False, True]])
    fr = ev.DepthFrame(depth=depth, valid=valid, t=50000)
    path = tmp_path / "gt.txt"
    ev.save_depth_frame(path, fr)
    text = path.read_text()
    assert text.splitlines()[0] == "2 2 50000"
    assert "nan" in text
    back = ev.load_depth_frame(path)
    np.testing.assert_array_equal(back.depth, depth)
    np.testing.assert_array_equal(back.valid, valid)
    assert back.t == 50000
    # canonical text is a fixed point
    assert ev.serialize_depth_frame(back) == text


def test_depth_file_errors():
    with pytest.raises(ev.ParseError, match="line 1"):
        ev.parse_depth_frame("")
    with pytest.raises(ev.ParseError):
        ev.parse_depth_frame("2 2 0\n1.0 1.0\n")
    with pytest.raises(ev.ParseError, match="line 2"):
        ev.parse_depth_frame("1 2 0\n1.0 oops\n")
    with pytest.raises(ev.ParseError):
        ev.parse_depth_frame("1 1 0\n-3.0\n")
    for head in ("1 -1 50000", "-1 1 50000", "0 1 50000"):
        with pytest.raises(ev.ParseError, match="^line 1: "):
            ev.parse_depth_frame(head + "\n1.0\n")


@pytest.mark.parametrize("width", [20000000, 1000000000])
def test_depth_rows_are_counted_before_the_arrays_are_made(monkeypatch, width):
    # a 20-byte file whose header asks for 160 MB, or for 7.45 GiB
    forbid_large_zeros(monkeypatch)
    with pytest.raises(ev.ParseError, match="^line 2: expected %d values, got 1$" % width):
        ev.parse_depth_frame("1 %d 0\n1.0\n" % width)


def test_depth_frame_rejects_nonpositive_valid():
    with pytest.raises(ev.ParseError):
        ev.DepthFrame(depth=np.array([[0.0]]),
                      valid=np.array([[True]]), t=0)
