"""Deterministic synthetic scenes with exact event timing and ground truth.

A scene is a set of fronto-parallel textured planes that tile the frame.
Each plane carries a triangular log-intensity stripe pattern (amplitude 1.0,
period in pixels) that translates horizontally under camera motion; a plane
at depth d translates at camera_velocity / d pixels per second, so nearer
planes move faster and fire more events per pixel. An event fires whenever a
pixel's log intensity crosses a line of the fixed level grid
{k * contrast_threshold}; crossing times come from the piecewise-linear
signal in closed form, then round to integer microseconds. Rising crossings
are positive polarity.

The right camera sees each plane's events shifted by
round(baseline_px / depth) pixels toward -x, dropping events that leave the
frame. Ground truth is the left view's plane depth, one frame per window,
timestamped at the window end, fully valid.

Event order is (t, y, x, polarity); generation is a pure function of the
scene spec, so the same spec yields byte-identical files.
"""

import os
from dataclasses import MISSING, dataclass

import numpy as np

from . import events as ev
from . import kv
from .tensor import InputError


class ValidationError(InputError):
    """Scene spec violates a structural constraint."""


AMPLITUDE = 1.0


# The most events one eye may fire. SceneSpec bounds a scene's events before
# any is made and refuses a bound past this: crossings are listed in Python and
# each event takes 32 bytes of int64 columns, so a tiny contrast_threshold would
# otherwise run for hours. 2**26 is about 2 GB of columns and 15 times the bound
# of the largest scene in use (8 windows of the two-plane scene at 260x346,
# about 4.3 million). Noise events are drawn one scalar at a time, about 20 us
# each, so a scene that spends the budget on noise takes over 20 minutes per eye.
EVENT_BUDGET = 2 ** 26


@dataclass(frozen=True)
class PlaneSpec:
    depth_m: float = kv.positive(MISSING)
    x0: int = kv.at_least(MISSING, 0)
    y0: int = kv.at_least(MISSING, 0)
    width: int = kv.at_least(MISSING, 1)
    height: int = kv.at_least(MISSING, 1)
    period_px: float = kv.positive(MISSING)


@dataclass(frozen=True)
class SceneSpec:
    seed: int = kv.at_least(0, 0)
    height: int = kv.at_least(64, 1)
    width: int = kv.at_least(64, 1)
    n_windows: int = kv.at_least(8, 1)
    window_len_us: int = kv.at_least(50000, 1)
    camera_velocity: float = kv.at_least(80.0, 0)
    contrast_threshold: float = kv.positive(0.4)
    baseline_px: float = kv.at_least(16.0, 0)
    noise_rate_hz: float = kv.at_least(0.0, 0)
    planes: tuple = kv.indexed("plane", PlaneSpec)

    def __post_init__(self):
        kv.check_fields(self, ValidationError)
        if not self.planes:
            raise ValidationError("scene needs at least one plane")
        least = 2 * self.height * self.width  # the bound below is >= 2 per tiled pixel
        if least > EVENT_BUDGET:  # so a frame this large fails whatever its planes
            raise ValidationError("a %dx%d frame may fire %d events per eye or more, past the "
                                  "budget of %d" % (self.height, self.width, least, EVENT_BUDGET))
        for p in self.planes:
            if p.x0 + p.width > self.width or p.y0 + p.height > self.height:
                raise ValidationError("plane region (x0=%d, y0=%d, w=%d, h=%d) leaves "
                                      "the %dx%d frame"
                                      % (p.x0, p.y0, p.width, p.height,
                                         self.height, self.width))
        # a row's cover changes only at a plane's top or bottom edge
        rows = sorted({0} | {p.y0 for p in self.planes}
                      | {p.y0 + p.height for p in self.planes} - {self.height})
        for what, overlap in (("overlap", True), ("leave a gap", False)):
            for y in rows:
                x = _first_miscovered(self.planes, y, self.width, overlap)
                if x is not None:
                    raise ValidationError("plane regions %s at (x=%d, y=%d)" % (what, x, y))
        nearest = min(p.depth_m for p in self.planes)
        if self.baseline_px / nearest > self.width:
            raise ValidationError("baseline_px %r shifts the plane at depth %r by more "
                                  "than the %d-px width" % (self.baseline_px, nearest,
                                                            self.width))
        duration_s = self.duration_us * 1e-6
        bound = self.noise_rate_hz * self.height * self.width * duration_s
        for p in self.planes:
            # (segments of the stripe signal) x (grid levels one segment crosses) x pixels
            omega = self.camera_velocity / p.depth_m / p.period_px
            bound += ((2.0 * omega * duration_s + 2.0)
                      * (2.0 * AMPLITUDE / self.contrast_threshold + 1.0) * p.width * p.height)
        if not bound <= EVENT_BUDGET:
            raise ValidationError("the scene may fire %r events per eye, more than the "
                                  "budget of %d" % (bound, EVENT_BUDGET))

    @property
    def duration_us(self):
        return self.n_windows * self.window_len_us


def _first_miscovered(planes, y, width, overlap):
    """The first x of row y that two planes cover (overlap) or none does, else None.

    A gap is looked for only once no row has an overlap, so the row's spans are disjoint.
    """
    end = 0  # [0, end) is the part of the row the spans before this one reach
    for x0, x1 in sorted((p.x0, p.x0 + p.width) for p in planes if p.y0 <= y < p.y0 + p.height):
        if x0 < end if overlap else x0 > end:
            return x0 if overlap else end
        end = max(end, x1)
    return None if overlap or end == width else end


def _triangle(u):
    return 4.0 * np.abs(u - np.floor(u) - 0.5) - 1.0


def _column_crossings(u0, omega, duration_s, threshold):
    """Crossing (time_s, polarity) pairs for L(t) = tri(u0 - omega t).

    The signal is piecewise linear with breakpoints at u = m/2; each segment
    runs peak-to-trough or trough-to-peak. A rising segment fires every grid
    level in (L_start, L_end]; a falling one fires levels in [L_end, L_start),
    so a segment boundary sitting exactly on a level fires once. A level equal
    to the amplitude is only ever touched by a turning point, never crossed,
    and fires nothing.
    """
    out = []
    if omega <= 0 or duration_s <= 0:
        return out
    m_hi = int(np.floor(2.0 * u0))
    m_lo = int(np.ceil(2.0 * (u0 - omega * duration_s)))
    knots = [0.0]
    for m in range(m_hi, m_lo - 1, -1):
        t = (u0 - 0.5 * m) / omega
        if 0.0 < t < duration_s:
            knots.append(t)
    knots.append(duration_s)
    amp = AMPLITUDE
    for a, b in zip(knots[:-1], knots[1:]):
        if b <= a:
            continue
        la = amp * _triangle(u0 - omega * a)
        lb = amp * _triangle(u0 - omega * b)
        if lb > la:
            pol, levels = 1, range(int(np.floor(la / threshold)) + 1,
                                   int(np.floor(lb / threshold)) + 1)
        elif lb < la:
            pol, levels = -1, range(int(np.ceil(la / threshold)) - 1,
                                    int(np.ceil(lb / threshold)) - 1, -1)
        else:
            continue
        for k in levels:
            q = k * threshold
            if abs(q) < amp:
                out.append((a + (q - la) / (lb - la) * (b - a), pol))
    return out


def _plane_events(spec, plane, rng):
    """Left- and right-view events of one plane as unsorted (t, x, y, p) columns."""
    phase = rng.uniform(0.0, 1.0)
    omega = spec.camera_velocity / plane.depth_m / plane.period_px
    duration_s = spec.duration_us * 1e-6
    crossings = []
    for x in range(plane.x0, plane.x0 + plane.width):
        u0 = x / plane.period_px + phase
        for t_s, pol in _column_crossings(u0, omega, duration_s, spec.contrast_threshold):
            t_us = int(round(t_s * 1e6))
            if 0 <= t_us < spec.duration_us:
                crossings.append((t_us, x, pol))
    t, x, p = np.array(crossings, dtype=np.int64).reshape(-1, 3).T
    rows = np.arange(plane.y0, plane.y0 + plane.height)
    t, x, y, p = (np.repeat(t, plane.height), np.repeat(x, plane.height),
                  np.tile(rows, t.size), np.repeat(p, plane.height))
    xr = x - disparity_px(spec, plane)
    seen = (xr >= 0) & (xr < spec.width)
    return (t, x, y, p), (t[seen], xr[seen], y[seen], p[seen])


def _noise_events(spec, rng):
    count = int(round(spec.noise_rate_hz * spec.height * spec.width * spec.duration_us * 1e-6))
    # scalar draws interleaved per event: batching them would change the datasets;
    # fromiter writes each draw into the int64 buffer as it is made
    draws = (v for _ in range(count)
             for v in (rng.integers(0, spec.duration_us), rng.integers(0, spec.width),
                       rng.integers(0, spec.height), rng.choice([-1, 1])))
    return np.fromiter(draws, dtype=np.int64, count=4 * count).reshape(-1, 4).T


def _sorted_events(parts):
    """Join (t, x, y, p) column groups, ordered by (t, y, x, p); empties parts."""
    t, x, y, p = (np.concatenate(cols) for cols in zip(*parts))
    parts.clear()
    order = np.lexsort((p, x, y, t))
    for col in (t, x, y, p):  # one at a time, so no stream is held three times over
        col[:] = col[order]
    return ev.EventArray(t, x, y, p)


def disparity_px(spec, plane):
    return int(round(spec.baseline_px / plane.depth_m))


@dataclass
class SceneData:
    spec: SceneSpec
    events_left: ev.EventArray
    events_right: ev.EventArray
    gt_frames: list


def generate_scene(spec):
    """Render the event streams and ground-truth frames for one scene."""
    rng = np.random.default_rng(spec.seed)
    views = [_plane_events(spec, plane, rng) for plane in spec.planes]
    left = [lv for lv, _ in views] + [_noise_events(spec, rng)]
    right = [rv for _, rv in views] + [_noise_events(spec, rng)]
    del views  # so that _sorted_events frees the views once it has joined them
    left = _sorted_events(left)
    right = _sorted_events(right)

    depth_map = np.zeros((spec.height, spec.width))
    for plane in spec.planes:
        depth_map[plane.y0:plane.y0 + plane.height,
                  plane.x0:plane.x0 + plane.width] = plane.depth_m
    valid = np.ones((spec.height, spec.width), dtype=bool)
    frames = []
    for k in range(spec.n_windows):
        frames.append(ev.DepthFrame(depth=depth_map.copy(),
                                    valid=valid.copy(),
                                    t=(k + 1) * spec.window_len_us))
    return SceneData(spec=spec, events_left=left, events_right=right, gt_frames=frames)


# ---------------------------------------------------------------------------
# scene spec files (key = value dialect)


def parse_scene_spec(text):
    return SceneSpec(**kv.read(text, SceneSpec, ""))


def load_scene_spec(path):
    return parse_scene_spec(ev.read_text(path))


# ---------------------------------------------------------------------------
# dataset directories


MANIFEST_NAME = "manifest.txt"


@dataclass(kw_only=True)
class DatasetManifest:
    height: int
    width: int
    window_len_us: int
    n_windows: int
    binocular: bool = False
    events_left: str
    events_right: str = ""
    window_starts: list = kv.indexed("window", int)
    gt_files: list = kv.indexed("gt", str)


def write_dataset(spec, out_dir):
    """Generate the scene and lay out a dataset directory; returns the manifest."""
    data = generate_scene(spec)
    man = DatasetManifest(height=spec.height, width=spec.width,
                          window_len_us=spec.window_len_us, n_windows=spec.n_windows,
                          binocular=True, events_left="events_left.csv",
                          events_right="events_right.csv",
                          window_starts=[k * spec.window_len_us
                                         for k in range(spec.n_windows)],
                          gt_files=["gt_%04d.txt" % k for k in range(spec.n_windows)])
    os.makedirs(out_dir, exist_ok=True)
    ev.save_events(os.path.join(out_dir, man.events_left), data.events_left)
    ev.save_events(os.path.join(out_dir, man.events_right), data.events_right)
    for name, frame in zip(man.gt_files, data.gt_frames):
        ev.save_depth_frame(os.path.join(out_dir, name), frame)

    lines = kv.format_lines(man) + ["spec." + line for line in kv.format_lines(spec)]
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return man


def load_manifest(path):
    man = DatasetManifest(**kv.read(ev.read_text(path), DatasetManifest, "manifest ",
                                    ignore=("spec.",)))
    n = man.n_windows
    if not len(man.window_starts) == len(man.gt_files) == n:
        raise ev.ParseError("manifest needs window.k and gt.k for k in 0..%d" % (n - 1))
    return man
