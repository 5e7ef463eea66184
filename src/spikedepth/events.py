"""Event streams, cumulative stacking, and ground-truth alignment.

An event stream is an EventArray: four read-only int64 columns (t, x, y, p)
sorted by t, with polarity +1/-1. Timestamps are microseconds; the
constructor rejects a decrease, so a window is the index range that
np.searchsorted finds on t.

Event CSV dialect: header line "t_us,x,y,p", then one record per line with
unsigned decimal fields; polarity is 0/1 on disk.

Stacking splits a window of length L into T equal sub-bins and emits T
frames of per-pixel, per-polarity event counts. Frame tau of the cumulative
mode counts everything from the window start through the end of sub-bin tau,
so frames are nested supersets and frame T-1 holds the whole window. The
repeat mode emits the whole-window histogram at every step. Only events
inside the window are checked against the sensor geometry.

Ground-truth depth files: first line "H W t_us", then H rows of W values in
meters; the token "nan" marks an invalid pixel. Invalid pixels are stored as
0.0 behind a boolean mask so no NaN enters arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import Tensor


class ParseError(ValueError):
    """Malformed text input; carries a 1-based line number where known."""


class OrderingError(ValueError):
    """Timestamps decrease."""


class BoundsError(ValueError):
    """Event coordinates outside the sensor geometry."""


class AlignmentError(ValueError):
    """No ground-truth frame close enough to a window boundary."""


def read_text(path):
    """The text of a UTF-8 file, CRLF and CR line ends read as LF as in text mode.

    Bytes that are not UTF-8 raise ParseError naming the file and the line
    they are on, not UnicodeDecodeError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError("%s: line %d: byte 0x%02x is not valid UTF-8"
                         % (path, raw.count(b"\n", 0, e.start) + 1, raw[e.start])) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _first_decrease(t):
    """Index i of the first t[i] < t[i - 1], or -1 when t never decreases."""
    down = np.flatnonzero(t[1:] < t[:-1])
    return int(down[0]) + 1 if down.size else -1


class EventArray:
    """Events as read-only int64 columns t, x, y, p (+1/-1), sorted by t.

    The constructor takes ownership of int64 arrays it is given: they become
    the columns without a copy and are frozen read-only in place, so a
    caller must not keep writing to them. Other inputs are converted.
    """

    __slots__ = ("t", "x", "y", "p")

    def __init__(self, t, x, y, p):
        cols = [np.asarray(c, dtype=np.int64) for c in (t, x, y, p)]
        if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
            raise tz.DimensionError("event columns must be rank 1 and equal length, got %s"
                                    % [c.shape for c in cols])
        if not ((cols[3] == 1) | (cols[3] == -1)).all():  # np.isin would peak at 19 B/event
            raise tz.ArgumentError("polarity must be +1 or -1")
        i = _first_decrease(cols[0])
        if i >= 0:
            raise OrderingError("event %d: timestamp %d decreases from %d"
                                % (i, cols[0][i], cols[0][i - 1]))
        for c in cols:
            c.flags.writeable = False
        self.t, self.x, self.y, self.p = cols

    def __len__(self):
        return self.t.size


@dataclass
class StackedTensor:
    """Event counts as [T, C, H, W] with the window that produced them."""

    data: Tensor
    window_start: int
    window_len: int


@dataclass
class DepthFrame:
    """Metric depth with validity mask; invalid pixels hold 0.0."""

    depth: Tensor
    valid: np.ndarray
    t: int

    def __post_init__(self):
        if self.depth.data.ndim != 2:
            raise tz.DimensionError("depth must be rank 2, got %s" % (self.depth.data.shape,))
        if self.valid.shape != self.depth.data.shape:
            raise tz.DimensionError("valid mask shape %s does not match depth %s"
                                    % (self.valid.shape, self.depth.data.shape))
        d = self.depth.data[self.valid]
        if d.size and (not np.isfinite(d).all() or (d <= 0).any()):
            raise ParseError("valid depth values must be finite and positive")


EVENT_HEADER = "t_us,x,y,p"
_MAX_DIGITS = 18  # every 18-digit decimal fits in int64


def _line_error(lineno, line):
    """The ParseError for a record the vectorised scan flagged."""
    parts = line.split(",")
    if len(parts) != 4:
        return ParseError("line %d: expected 4 fields, got %d" % (lineno, len(parts)))
    for field in parts:
        if not (field.isascii() and field.isdigit()) or len(field) > _MAX_DIGITS:
            return ParseError("line %d: field %r is not an unsigned integer of at most "
                              "%d digits" % (lineno, field, _MAX_DIGITS))
    return ParseError("line %d: polarity must be 0 or 1, got %d" % (lineno, int(parts[3])))


# Bytes scanned at a time: temporaries follow the block, not the file (about 12 bytes
# per byte scanned), so they stay small beside the columns and far under the 4 MiB
# from which numpy asks for huge pages, which make peak memory erratic on the heap.
_SCAN_BYTES = 1 << 16


def parse_events(text):
    """Parse the CSV dialect into an EventArray; errors name the first bad line.

    The text is encoded once and scanned block by block; each block's records
    go straight into four int64 columns sized from the newline count.
    """
    if hasattr(text, "read"):
        text = text.read()
    raw = (text if text.endswith("\n") else text + "\n").encode()
    head = EVENT_HEADER.encode() + b"\n"
    if not raw.startswith(head):
        raise ParseError("line 1: expected header %r" % EVENT_HEADER)
    cols = np.empty((4, raw.count(b"\n") - 1), dtype=np.int64)  # one line per record at most
    n, start, bad = 0, len(head), -1  # bad: byte offset of the first bad line
    while bad < 0 and start < len(raw):  # blocks end at a newline
        stop = (raw.rfind(b"\n", start, start + _SCAN_BYTES) + 1
                or raw.index(b"\n", start + _SCAN_BYTES) + 1)
        buf = np.frombuffer(raw, np.uint8, stop - start, start)
        # every non-digit byte ends a field; record k owns separators 4k..4k+3
        seps = np.flatnonzero((buf < ord("0")) | (buf > ord("9")))
        want = np.full(seps.size, ord(","), dtype=np.uint8)
        want[3::4] = ord("\n")
        width = np.diff(seps, prepend=-1)  # field length + 1
        hits = np.flatnonzero((buf[seps] != want) | (width < 2) | (width > _MAX_DIGITS + 1))
        good = int(hits[0]) // 4 if hits.size else seps.size // 4
        end = seps[4 * good - 1] + 1 if good else 0  # records before `good` are ASCII
        block = np.fromstring(buf[:end].tobytes().replace(b"\n", b","), dtype=np.int64,
                              sep=",").reshape(-1, 4)
        high = np.flatnonzero(block[:, 3] > 1)
        if high.size:
            good = int(high[0])  # polarity above 1
        if hits.size or high.size:  # record `good` is the first bad one
            bad = start + (int(seps[4 * good - 1]) + 1 if good else 0)
        cols[:, n:n + good] = block[:good].T
        n, start = n + good, stop
    t, x, y, p = cols[:, :n]
    i = _first_decrease(t)
    if i >= 0:
        raise OrderingError("line %d: timestamp %d decreases from %d" % (i + 2, t[i], t[i - 1]))
    if bad >= 0:
        raise _line_error(n + 2, raw[bad:raw.index(b"\n", bad)].decode())
    p *= 2
    p -= 1  # 0/1 on disk, -1/+1 in memory
    return EventArray(t, x, y, p)


def _csv_pieces(events, rows=1 << 14):
    """Canonical CSV text in pieces of `rows` records, none a copy of the whole file."""
    yield EVENT_HEADER + "\n"
    pos = events.p > 0
    for lo in range(0, len(events), rows):
        cols = (c[lo:lo + rows].tolist() for c in (events.t, events.x, events.y, pos))
        yield "".join(map("%d,%d,%d,%d\n".__mod__, zip(*cols)))


def load_events(path):
    return parse_events(read_text(path))


def save_events(path, events):
    with open(path, "w") as fh:
        fh.writelines(_csv_pieces(events))


def _window_counts(events, window_start, window_len, t_steps, height, width):
    """Per-sub-bin histograms [T, 2, H, W] of the window; channel 0 positive."""
    lo, hi = np.searchsorted(events.t, (window_start, window_start + window_len))
    t, x, y, p = (c[lo:hi] for c in (events.t, events.x, events.y, events.p))
    outside = np.flatnonzero((x < 0) | (x >= width) | (y < 0) | (y >= height))
    if outside.size:
        i = outside[0]
        raise BoundsError("event at t=%d has (x=%d, y=%d) outside %dx%d"
                          % (t[i], x[i], y[i], height, width))
    taus = (t - window_start) * t_steps // window_len
    flat = ((taus * 2 + (p < 0)) * height + y) * width + x
    counts = np.bincount(flat, minlength=t_steps * 2 * height * width)
    return counts.astype(np.float64).reshape(t_steps, 2, height, width)


def _validate_stack_args(window_len, t_steps, height, width):
    if t_steps < 1:
        raise tz.ArgumentError("t_steps must be >= 1, got %d" % t_steps)
    if window_len < 1:
        raise tz.ArgumentError("window_len must be >= 1, got %d" % window_len)
    if window_len % t_steps != 0:
        raise tz.ArgumentError("window_len %d not divisible by t_steps %d"
                               % (window_len, t_steps))
    if height < 1 or width < 1:
        raise tz.ArgumentError("geometry must be positive, got %dx%d" % (height, width))


def cumulative_stack(events, window_start, window_len, t_steps, height, width,
                     binarize=False):
    """Nested event-count frames over one window."""
    _validate_stack_args(window_len, t_steps, height, width)
    counts = _window_counts(events, window_start, window_len, t_steps, height, width)
    return _finish_stack(np.cumsum(counts, axis=0), window_start, window_len, binarize)


def repeat_stack(events, window_start, window_len, t_steps, height, width,
                 binarize=False):
    """The whole-window histogram replicated at every step."""
    _validate_stack_args(window_len, t_steps, height, width)
    counts = _window_counts(events, window_start, window_len, 1, height, width)
    return _finish_stack(np.repeat(counts, t_steps, axis=0), window_start, window_len, binarize)


def _finish_stack(data, window_start, window_len, binarize):
    if binarize:
        data = (data > 0).astype(np.float64)
    t = Tensor(data)
    t.is_spike = bool(binarize)
    return StackedTensor(data=t, window_start=window_start, window_len=window_len)


def binocular_concat(left, right):
    """Stack two views along channels: [left+, left-, right+, right-]."""
    if left.window_start != right.window_start or left.window_len != right.window_len:
        raise AlignmentError("views cover different windows: [%d, +%d) vs [%d, +%d)"
                             % (left.window_start, left.window_len,
                                right.window_start, right.window_len))
    if left.data.shape != right.data.shape:
        raise tz.DimensionError("view shapes differ: %s vs %s"
                                % (left.data.shape, right.data.shape))
    joined = tz.concat([left.data, right.data], axis=1)
    joined.is_spike = left.data.is_spike and right.data.is_spike
    return StackedTensor(data=joined, window_start=left.window_start,
                         window_len=left.window_len)


def align_ground_truth(frames, window_start, window_len):
    """Pick the frame nearest the window end; ties go to the earlier frame.

    A frame farther than half a window from the boundary is a miss.
    """
    if not frames:
        raise AlignmentError("no ground-truth frames given")
    edge = window_start + window_len
    best = min(frames, key=lambda fr: abs(fr.t - edge))  # min keeps the first of equals
    best_d = abs(best.t - edge)
    if best_d > window_len // 2:
        raise AlignmentError("nearest ground truth at t=%d is %d us from window end %d "
                             "(tolerance %d)" % (best.t, best_d, edge, window_len // 2))
    return best


# ---------------------------------------------------------------------------
# depth ground-truth files


def parse_depth_frame(text):
    if hasattr(text, "read"):
        text = text.read()
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines:
        raise ParseError("line 1: empty depth file")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError("line 1: expected 'H W t_us', got %r" % lines[0])
    try:
        h, w, t = int(head[0]), int(head[1]), int(head[2])
    except ValueError:
        raise ParseError("line 1: expected integers in 'H W t_us', got %r" % lines[0])
    if h < 1 or w < 1:
        raise ParseError("line 1: depth frame size must be positive, got %d x %d" % (h, w))
    if len(lines) != 1 + h:
        raise ParseError("expected %d depth rows, got %d" % (h, len(lines) - 1))
    depth = np.zeros((h, w))
    valid = np.zeros((h, w), dtype=bool)
    for r, line in enumerate(lines[1:], start=2):
        cells = line.split()
        if len(cells) != w:
            raise ParseError("line %d: expected %d values, got %d" % (r, w, len(cells)))
        for c, cell in enumerate(cells):
            if cell == "nan":
                continue
            try:
                v = float(cell)
            except ValueError:
                raise ParseError("line %d: bad depth value %r" % (r, cell))
            depth[r - 2, c] = v
            valid[r - 2, c] = True
    return DepthFrame(depth=Tensor(depth), valid=valid, t=t)


def serialize_depth_frame(frame):
    h, w = frame.depth.data.shape
    rows = [" ".join(repr(v) if ok else "nan" for v, ok in zip(row, valid))
            for row, valid in zip(frame.depth.data.tolist(), frame.valid.tolist())]
    return "\n".join(["%d %d %d" % (h, w, frame.t)] + rows) + "\n"


def load_depth_frame(path):
    return parse_depth_frame(read_text(path))


def save_depth_frame(path, frame):
    with open(path, "w") as fh:
        fh.write(serialize_depth_frame(frame))
