"""Span tracing from outside the program: module attributes that crosscal
calls through are replaced by wrappers that record one span per call (name,
start, end, parent) in memory, plus counts taken from arguments and results.
Nothing under `src/` is changed; `Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def traced(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out, args)
            return out

        return wrapper

    def patch(self, module: str, attr: str, make):
        """Replace `module.attr` by `make(original)`. A missing attribute
        raises, so that a renamed layer fails the traced run instead of
        reading 0."""
        owner = importlib.import_module(module)
        fn = getattr(owner, attr)
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def wrap(self, module: str, attr: str, name: str, on_result=None):
        self.patch(module, attr, lambda fn: self.traced(fn, name, on_result))

    def restore(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def dump(self, path: Path, summary: dict):
        doc = {"summary": summary, "spans": self.spans}
        Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def install(tracer: Tracer):
    """Wrap each layer at the attributes the program calls it through."""
    t = tracer
    count = t.counts

    def add(key, fn):
        return lambda out, args: count.update({key: fn(out, args)})

    # sim
    t.wrap("crosscal.sim", "make_scene", "sim.make_scene")
    t.wrap("crosscal.sim", "render_lidar", "sim.render_lidar", add("sim.points", lambda o, a: len(o)))
    t.wrap("crosscal.sim", "render_camera", "sim.render_camera")
    # io_formats (cloud bytes are read back from the file just written)
    t.wrap(
        "crosscal.io_formats",
        "write_cloud",
        "io_formats.write_cloud",
        add("io_formats.cloud_bytes", lambda o, a: Path(a[0]).stat().st_size),
    )
    for fn in ("read_cloud", "write_detections", "read_detections", "write_report"):
        t.wrap("crosscal.io_formats", fn, f"io_formats.{fn}")
    # lidar: the command calls the detector through names imported into cli
    t.wrap("crosscal.cli", "detect_target_lidar", "lidar.detect")
    for fn, name in (
        ("generate_mask_cloud", "mask"),
        ("filter_cloud", "filter"),
        ("gicp_register", "gicp"),
        ("match_points", "match"),
        ("ransac_plane", "ransac"),
        ("normalize_plane", "plane"),
        ("build_occupancy", "plane"),
        ("find_target_region", "window"),
        ("refine_circles", "circles"),
        ("check_circle_geometry", "circles"),
    ):
        t.wrap("crosscal.lidar", fn, f"lidar.{name}")
    t.patch("crosscal.lidar", "cKDTree", lambda cls: _counting_tree(cls, t))
    # camera
    t.wrap("crosscal.cli", "detect_target_camera", "camera.detect")
    t.wrap(
        "crosscal.camera",
        "levenberg_marquardt",
        "camera.lm",
        add("camera.lm_iterations", lambda o, a: o.iterations),
    )
    # optimizer and its LM
    for fn, name in (
        ("build_problem", "build_problem"),
        ("solve", "solve"),
        ("initial_guess", "initial_guess"),
        ("resolve_circle_ordering", "ordering"),
        ("residuals", "residuals"),
        ("consistency_check", "consistency"),
    ):
        t.wrap("crosscal.optimizer", fn, f"optimizer.{name}")
    t.patch("crosscal.optimizer", "levenberg_marquardt", lambda fn: _traced_lm(fn, t))


def _counting_tree(cls, tracer: Tracer):
    class CountingTree(cls):
        def query(self, x, *args, **kwargs):
            with tracer.span("lidar.kdtree_query"):
                out = super().query(x, *args, **kwargs)
            tracer.counts.update({"lidar.kdtree_queries": 1, "lidar.kdtree_points": len(x)})
            return out

    return CountingTree


def _traced_lm(lm, tracer: Tracer):
    """The global solve's LM, with its residual and Jacobian callbacks traced."""

    def rows(out, args):
        tracer.counts["optimizer.residual_rows"] = len(out)

    @functools.wraps(lm)
    def wrapper(state, residual_fn, jac_fn, *args, **kwargs):
        with tracer.span("lm.solve"):
            res = lm(
                state,
                tracer.traced(residual_fn, "lm.residual", rows),
                tracer.traced(jac_fn, "lm.jacobian"),
                *args,
                **kwargs,
            )
        tracer.counts["lm.iterations"] += res.iterations
        return res

    return wrapper


def _children(spans):
    kids = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            kids[parent].append(i)
    return kids


def summarize(tracer: Tracer, rounds: int) -> tuple:
    """Per-layer metrics, per round, and the per-command breakdown
    (span = children + self) that the trace file records."""
    spans = tracer.spans
    kids = _children(spans)
    dur = [end - start for _, start, end, _ in spans]
    total = Counter()
    calls = Counter()
    for (name, *_), d in zip(spans, dur):
        total[name] += d
        calls[name] += 1

    def self_time(i):
        return dur[i] - sum(dur[k] for k in kids[i])

    commands = []
    for i, (name, *_) in enumerate(spans):
        if name.startswith("cli."):
            children = sum(dur[k] for k in kids[i])
            commands.append(
                {"command": name, "span_s": dur[i], "children_s": children, "self_s": dur[i] - children}
            )
    lidar_detect = [d for (name, *_), d in zip(spans, dur) if name == "lidar.detect"]
    per_round = {
        "sim.render_lidar_s": total["sim.render_lidar"],
        "sim.render_camera_s": total["sim.render_camera"],
        "sim.points": tracer.counts["sim.points"],
        "io_formats.write_cloud_s": total["io_formats.write_cloud"],
        "io_formats.read_cloud_s": total["io_formats.read_cloud"],
        "io_formats.cloud_mb": tracer.counts["io_formats.cloud_bytes"] / 1e6,
        "io_formats.write_detections_s": total["io_formats.write_detections"],
        "io_formats.read_detections_s": total["io_formats.read_detections"],
        "io_formats.write_report_s": total["io_formats.write_report"],
        "lidar.detect_s": total["lidar.detect"],
        "lidar.filter_s": total["lidar.filter"],
        "lidar.gicp_s": total["lidar.gicp"],
        "lidar.match_s": total["lidar.match"],
        "lidar.ransac_s": total["lidar.ransac"],
        "lidar.plane_s": total["lidar.plane"],
        "lidar.window_s": total["lidar.window"],
        "lidar.circles_s": total["lidar.circles"],
        "lidar.mask_s": total["lidar.mask"],
        "lidar.kdtree_s": total["lidar.kdtree_query"],
        "lidar.kdtree_queries": tracer.counts["lidar.kdtree_queries"],
        "lidar.kdtree_points": tracer.counts["lidar.kdtree_points"],
        "camera.detect_s": total["camera.detect"],
        "camera.lm_s": total["camera.lm"],
        "camera.lm_iterations": tracer.counts["camera.lm_iterations"],
        "optimizer.initial_guess_s": total["optimizer.initial_guess"],
        "optimizer.ordering_s": total["optimizer.ordering"],
        "optimizer.ordering_residual_evals": calls["optimizer.residuals"],
        "optimizer.solve_s": total["optimizer.solve"],
        "lm.iterations": tracer.counts["lm.iterations"],
        "lm.residual_evals": calls["lm.residual"],
        "lm.residual_s": total["lm.residual"],
        "lm.jacobian_evals": calls["lm.jacobian"],
        "lm.jacobian_s": total["lm.jacobian"],
        "lm.self_s": sum(self_time(i) for i, s in enumerate(spans) if s[0] == "lm.solve"),
        "cli.simulate_s": total["cli.simulate"],
        "cli.detect_s": total["cli.detect"],
        "cli.calibrate_s": total["cli.calibrate"],
        "cli.self_s": sum(c["self_s"] for c in commands),
    }
    metrics = {k: v / rounds for k, v in per_round.items()}
    metrics["lidar.detect_median_s"] = statistics.median(lidar_detect) if lidar_detect else 0.0
    metrics["optimizer.residual_rows"] = tracer.counts["optimizer.residual_rows"]
    return metrics, commands
