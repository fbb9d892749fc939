"""Command-line driver: simulate / detect / calibrate.

Every command writes a run manifest (seed, config hash, tool version,
inputs/outputs) next to its outputs so runs are reproducible: `simulate` as
`manifest.json` in its dataset directory, `detect` and `calibrate` as
`<output stem>.manifest.json` beside their output file. The manifest names
files by their paths relative to its own directory. With the same inputs
(and, for `simulate`, the same seed) the outputs are byte-identical, also when
the inputs and outputs move together to another directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from . import __version__, io_formats, optimizer, sim
from .camera import detect_target_camera
from .errors import (
    CrosscalError,
    DisconnectedGraph,
    InfeasibleLayout,
    IoError,
    MissingField,
    ParseError,
    SchemaVersionMismatch,
    SolverNotConverged,
    UnknownSensor,
)
from .io_formats import DetectionRecord
from .lidar import detect_target_lidar, rough_board_pose
from .optimizer import SensorId

log = logging.getLogger("crosscal")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_DETECTIONS = 4
EXIT_DISCONNECTED = 5
EXIT_NOT_CONVERGED = 6

# a config, or calibrate's detections, that cannot be read or used: exit 2
_INPUT_ERRORS = (ParseError, MissingField, SchemaVersionMismatch, IoError)


def _manifest_path(out: Path) -> Path:
    """The manifest of a command that writes the one file `out`."""
    return out.with_name(out.stem + ".manifest.json")


def _config_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(path, config_path, seed, inputs, outputs, warnings=0):
    """Write the manifest `path`; it names files relative to its own directory."""
    here = Path(path).parent
    doc = {
        "tool_version": __version__,
        "seed": seed,
        "config_sha256": _config_hash(config_path),
        "inputs": sorted(os.path.relpath(p, here) for p in inputs),
        "outputs": sorted(os.path.relpath(p, here) for p in outputs),
        "warnings": warnings,
    }
    io_formats.atomic_write(path, io_formats.canonical_json(doc))
    return doc


def _scene_from_config(cfg, seed):
    s = cfg.sim
    return sim.make_scene(
        cfg.sensors,
        sequences=s["sequences"],
        spec=cfg.target,
        noise=sim.NoiseModel(**s["noise"]),
        seed=seed,
        scan=sim.ScanPattern(**s["scan"]),
    )


def cmd_simulate(args) -> int:
    try:
        cfg = io_formats.read_config(args.config)
        seed = args.seed if args.seed is not None else cfg.sim["seed"]
        scene = _scene_from_config(cfg, seed)
    except _INPUT_ERRORS as e:
        log.error("config error: %s", e)
        return EXIT_CONFIG
    except InfeasibleLayout as e:
        log.error("infeasible layout: %s", e)
        return EXIT_INFEASIBLE

    out = Path(args.out)
    outputs = []
    gt_doc = {
        "sensors": {str(s): io_formats.pose_to_json(t) for s, t in scene.sensors.items()},
        "boards": [io_formats.pose_to_json(t) for t in scene.board_poses],
    }
    gt_path = out / "ground_truth.json"
    io_formats.atomic_write(gt_path, io_formats.canonical_json(gt_doc))
    outputs.append(gt_path)

    # each LiDAR is one job on the pool; this process writes the cameras' files
    lidars = [(s,) for s in scene.sensor_ids if s.kind == "lidar"]
    cameras = [s for s in scene.sensor_ids if s.kind == "camera"]
    scene.ray_dirs  # built before the fork, so that every worker inherits it
    with _forked(partial(_simulate_lidar, scene, out), lidars) as lidar_outputs:
        for seq in range(len(scene.board_poses)):
            for sensor in cameras:
                if not sim.sensor_sees_board(scene, sensor, seq):
                    continue
                ids, uv = sim.render_camera(scene, sensor, seq)
                doc = {
                    "sensor": io_formats.sensor_to_json(sensor),
                    "corners": [{"id": int(i), "uv": p.tolist()} for i, p in zip(ids, uv)],
                }
                path = out / f"seq_{seq:03d}" / f"corners_{sensor}.json"
                io_formats.atomic_write(path, io_formats.canonical_json(doc))
                outputs.append(path)
        for paths in lidar_outputs:
            outputs += paths
    _write_manifest(out / "manifest.json", args.config, seed, [args.config], outputs)
    _summary(args, {"command": "simulate", "sequences": len(scene.board_poses), "out": str(out)})
    return EXIT_OK


def _simulate_lidar(scene, out: Path, sensor) -> list:
    """Write the cloud and the rough board pose of each station that the
    LiDAR `sensor` sees, under `out`; -> the paths written. The sensor's rays
    are cast once for all its stations."""
    cast = sim.LidarCast(scene, sensor)
    paths = []
    for seq in range(len(scene.board_poses)):
        if not sim.sensor_sees_board(scene, sensor, seq):
            continue
        seq_dir = out / f"seq_{seq:03d}"
        cloud_path = seq_dir / f"cloud_{sensor}.ply"
        io_formats.write_cloud(cloud_path, cast.render(seq))
        init = sim.perturbed_board_init(scene, sensor, seq)
        init_path = seq_dir / f"init_{sensor}.json"
        io_formats.atomic_write(
            init_path, io_formats.canonical_json({"pose": io_formats.pose_to_json(init)})
        )
        paths += [cloud_path, init_path]
    return paths


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_inherited = None  # in a worker of `_forked`, the function that its jobs call


def _inherit(fn):
    global _inherited
    _inherited = fn


def _call_inherited(job):
    return _inherited(*job)


@contextmanager
def _forked(fn, jobs):
    """Run fn(*job) for each of `jobs` on a pool of processes sized to the
    usable CPUs; yields an iterator over the outcomes, in job order, while
    the caller goes on working.

    The pool forks, by name since Python 3.14 changes the default: each
    worker inherits the imported modules, where `spawn` or `forkserver`
    would import numpy and crosscal again in every worker. `fn` is inherited
    too, not pickled, so it may hold large state such as a scene's ray
    directions. A job's arguments and its outcome or exception are pickled.
    Leaving the block waits for every job, also when it raises."""
    if not jobs:
        yield iter(())
        return
    # imported here, not at start-up, which every command pays: ~15 ms
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    workers = min(len(jobs), _usable_cpus())
    with ProcessPoolExecutor(
        workers, mp_context=get_context("fork"), initializer=_inherit, initargs=(fn,)
    ) as pool:
        yield pool.map(_call_inherited, jobs)


def _detect_lidar(cloud_path, init_path, cfg):
    """One LiDAR board detection, reads of its cloud and init included (with
    no init file, `init_path` is None); a CrosscalError is returned as the
    outcome, any other exception propagates."""
    try:
        cloud = io_formats.read_cloud(cloud_path)
        if init_path is not None:
            t_init = io_formats.read_board_init(init_path)
        else:
            t_init = rough_board_pose(cloud, cfg.lidar_params)
        return detect_target_lidar(cloud, cfg.target, t_init, cfg.lidar_params)
    except CrosscalError as e:
        return e


def _name_index(name: str, prefix: str):
    """The index that a dataset name gives after `prefix`, as `seq_003` or
    `cloud_lidar1` do; None when the rest of the name is not decimal digits."""
    digits = name[len(prefix) :]
    return int(digits) if digits.isascii() and digits.isdigit() else None


# (sensor kind, file name prefix, suffix, the kind's name in messages) of
# the files that `detect` reads in a station directory, in record order
_DATASET_FILES = (
    ("lidar", "cloud_lidar", ".ply", "LiDAR"),
    ("camera", "corners_camera", ".json", "camera"),
)


def cmd_detect(args) -> int:
    try:
        cfg = io_formats.read_config(args.config)
    except _INPUT_ERRORS as e:
        log.error("config error: %s", e)
        return EXIT_CONFIG
    data = Path(args.data)
    inputs = [args.config]
    # (sequence, sensor, CrosscalError | index into jobs[sensor kind]), in
    # the order the records are written; LiDARs are detected on a process
    # pool and cameras in one batch. A file whose name gives no sensor index
    # stands in for its sensor, with an error.
    slots, jobs = [], {"lidar": [], "camera": []}
    warnings = 0
    for seq_dir in sorted(data.glob("seq_*")):
        seq = _name_index(seq_dir.name, "seq_")
        if seq is None:
            log.warning("%s: no station index in the name; skipped", seq_dir)
            warnings += 1
            continue
        for kind, prefix, suffix, name in _DATASET_FILES:
            for path in sorted(seq_dir.glob(f"{prefix}*{suffix}")):
                inputs.append(path)
                index = _name_index(path.stem, prefix)
                if index is None:
                    slots.append((seq, path.name, UnknownSensor(f"no {name} index in the name")))
                    continue
                sensor = SensorId(kind, index)
                if sensor not in cfg.sensors:
                    slots.append((seq, sensor, UnknownSensor(f"{sensor} is not in the config")))
                    continue
                job = (path, cfg.sensors[sensor])  # a camera's intrinsics; None for a LiDAR
                init_path = seq_dir / f"init_{sensor}.json"
                if kind == "lidar" and init_path.exists():
                    inputs.append(init_path)
                    job = (path, init_path)
                jobs[kind].append(job)
                slots.append((seq, sensor, len(jobs[kind]) - 1))
    # the detections are independent and hold the GIL for much of their
    # time; each job reads its own cloud, so a worker holds one at a time,
    # and this process reads the corner files while the workers run
    with _forked(partial(_detect_lidar, cfg=cfg), jobs["lidar"]) as lidar_outcomes:
        camera_outcomes = []  # corner sets, then their detections
        for corner_path, _ in jobs["camera"]:
            try:
                camera_outcomes.append(io_formats.read_corners(corner_path, cfg.target))
            except CrosscalError as e:
                camera_outcomes.append(e)
        read = [k for k, c in enumerate(camera_outcomes) if not isinstance(c, CrosscalError)]
        found = detect_target_camera(
            [camera_outcomes[k] for k in read], cfg.target, [jobs["camera"][k][1] for k in read]
        )
        for k, d in zip(read, found):
            camera_outcomes[k] = d
        detected = {"camera": camera_outcomes, "lidar": list(lidar_outcomes)}
    records = []
    for seq, sensor, out in slots:
        if isinstance(out, int):
            out = detected[sensor.kind][out]
        if isinstance(out, CrosscalError):
            log.warning("sequence %d %s: detection failed: %s", seq, sensor, out)
            warnings += 1
        else:
            records.append(DetectionRecord(seq, sensor, out))
    if not records:
        log.error("no detections succeeded under %s", data)
        return EXIT_NO_DETECTIONS
    out = Path(args.out)
    io_formats.write_detections(out, records)
    _write_manifest(_manifest_path(out), args.config, None, inputs, [out], warnings)
    _summary(
        args,
        {"command": "detect", "detections": len(records), "failures": warnings, "out": str(out)},
    )
    return EXIT_OK


def _parse_reference(cfg, text):
    """Accept 'S2' display names, 'camera1' / 'lidar0', or config default.
    S<n> numbers the configured sensors as the report does."""
    if text is None:
        return cfg.reference
    display = optimizer.display_order(cfg.sensors)
    if text.upper().startswith("S") and text[1:].isdigit():
        k = int(text[1:]) - 1
        if 0 <= k < len(display):
            return display[k]
    for s in cfg.sensors:
        if str(s) == text:
            return s
    raise ParseError(f"unknown reference sensor {text!r}")


def cmd_calibrate(args) -> int:
    try:
        cfg = io_formats.read_config(args.config)
        reference = _parse_reference(cfg, args.reference)
        records = io_formats.read_detections(args.detections, strict=args.strict_schema)
    except _INPUT_ERRORS as e:
        log.error("input error: %s", e)
        return EXIT_CONFIG
    by_seq = {}
    for rec in records:
        by_seq.setdefault(rec.sequence, {})[rec.sensor] = rec.detection
    detections = [
        optimizer.SequenceObservations(seq, obs) for seq, obs in sorted(by_seq.items())
    ]
    try:
        problem = optimizer.build_problem(
            detections, reference, cfg.sensors, cfg.solve_params
        )
        result = optimizer.solve(problem)
    except DisconnectedGraph as e:
        log.error("co-visibility graph disconnected: %s", e)
        return EXIT_DISCONNECTED
    except SolverNotConverged as e:
        d = e.diagnostics
        log.error(
            "solver did not converge: final cost %.6g, gradient norm %.6g, %d iterations",
            d.final_cost,
            d.gradient_norm,
            d.iterations,
        )
        return EXIT_NOT_CONVERGED
    except CrosscalError as e:
        log.error("calibration failed: %s", e)
        return EXIT_CONFIG

    chain = list(result.problem.sensors)
    if args.pairwise_mode:
        rot_dev, trans_dev = optimizer.consistency_check_pairwise(result.problem, chain)
        mode = "pairwise"
    else:
        rot_dev, trans_dev = optimizer.consistency_check(result, chain)
        mode = "solved"
    chain_str = "->".join(result.problem.display_name(s) for s in chain + [chain[0]])
    consistency = {
        "chain": chain_str,
        "mode": mode,
        "rotation_deviation_deg": rot_dev,
        "translation_deviation_m": trans_dev,
    }
    print(
        f"consistency {chain_str} [{mode}]: rotation {rot_dev:.3e} deg, "
        f"translation {trans_dev:.3e} m",
        file=sys.stderr,
    )
    out = Path(args.out)
    io_formats.write_report(result, out, consistency)
    _write_manifest(_manifest_path(out), args.config, None, [args.config, args.detections], [out])
    _summary(
        args,
        {
            "command": "calibrate",
            "final_cost": result.final_cost,
            "iterations": result.iterations,
            "consistency": consistency,
            "out": str(out),
        },
    )
    return EXIT_OK


def _summary(args, doc):
    if getattr(args, "json", False):
        print(json.dumps(doc, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosscal",
        description="Multi-LiDAR multi-camera extrinsic calibration toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config JSON path")
        p.add_argument("--json", action="store_true", help="machine-readable summary on stdout")

    p = sub.add_parser("simulate", help="generate a synthetic dataset with ground truth")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="run board detection over a dataset")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory (simulate layout)")
    p.add_argument("--out", required=True, help="detections JSON output path")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("calibrate", help="solve all sensor poses from detections")
    common(p)
    p.add_argument("--detections", required=True, help="detections JSON path")
    p.add_argument("--out", required=True, help="report JSON output path")
    p.add_argument("--reference", default=None, help="reference sensor (e.g. S1 or camera0)")
    p.add_argument("--strict-schema", action="store_true", help="reject unknown record fields")
    p.add_argument(
        "--pairwise-mode",
        action="store_true",
        help="consistency check over independently estimated pairwise transforms",
    )
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IoError as e:  # an output that cannot be written
        log.error("output error: %s", e)
        return EXIT_CONFIG
    except Exception:  # panic guard: exit 1 is reserved for unexpected errors
        log.exception("unexpected failure")
        return 1


if __name__ == "__main__":
    sys.exit(main())
