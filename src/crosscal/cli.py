"""Command-line driver: simulate / detect / calibrate.

Every command writes a run manifest (seed, config hash, tool version,
inputs/outputs) next to its outputs so runs are reproducible: `simulate` as
`manifest.json` in its dataset directory, `detect` and `calibrate` as
`<output stem>.manifest.json` beside their output file. The manifest names
files by their paths relative to its own directory. With the same inputs the
outputs are byte-identical, also when the inputs and outputs move together
to another directory.
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
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from . import __version__, io_formats, optimizer, sim
from .camera import detect_target_camera
from .errors import (
    CrosscalError,
    DisconnectedGraph,
    InfeasibleLayout,
    IoError,
    NoDetections,
    ParseError,
    SolverNotConverged,
    UnknownSensor,
)
from .io_formats import DetectionRecord
from .lidar import detect_target_lidar
from .optimizer import SensorId

log = logging.getLogger("crosscal")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_DETECTIONS = 4
EXIT_DISCONNECTED = 5
EXIT_NOT_CONVERGED = 6

# (error type, exit code, log words) of every failure that a command raises
# as a CrosscalError: `main` logs "<words>: <message>" for the first row that
# matches and exits with its code; any other exception exits 1
_EXITS = (
    (InfeasibleLayout, EXIT_INFEASIBLE, "infeasible layout"),
    (NoDetections, EXIT_NO_DETECTIONS, "no detections"),
    (DisconnectedGraph, EXIT_DISCONNECTED, "co-visibility graph disconnected"),
    (SolverNotConverged, EXIT_NOT_CONVERGED, "solver did not converge"),
    (IoError, EXIT_CONFIG, "file error"),  # a file not read or written, a wrong directory
    (CrosscalError, EXIT_CONFIG, "input error"),  # a config, detections or flag not usable
)


def _manifest_path(out: Path) -> Path:
    """The manifest of a command that writes the one file `out`."""
    return out.with_name(out.stem + ".manifest.json")


def _refuse_overwriting(inputs, outputs):
    """IoError when an output already is the file (inode, device) of an input."""
    present = [p for p in outputs if os.path.exists(p)]
    read = {os.stat(p)[1:3] for p in inputs if present and os.path.exists(p)}
    for path in present:
        if os.stat(path)[1:3] in read:
            raise IoError(f"output {path} is one of the command's inputs")


def _write_manifest(path, config_path, seed, inputs, outputs, warnings=0):
    """Write the manifest `path`; it names files relative to its own directory."""
    here = Path(path).parent
    doc = {
        "tool_version": __version__,
        "seed": seed,
        "config_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
        "inputs": sorted(os.path.relpath(p, here) for p in inputs),
        "outputs": sorted(os.path.relpath(p, here) for p in outputs),
        "warnings": warnings,
    }
    io_formats.write_json(path, doc)


def _scene_from_config(cfg, seed):
    s = cfg.sim
    return sim.make_scene(
        cfg.sensors,
        sequences=s["sequences"],
        spec=cfg.target,
        noise=sim.NoiseModel(**s["noise"]),
        seed=seed,
        scan=sim.ScanPattern(**s["scan"]),
        lidar_params=cfg.lidar_params,
    )


def cmd_simulate(args) -> int:
    out = Path(args.out)
    # `detect` reads every station under its --data, listed in the manifest or not
    if any(out.glob("seq_*")):
        raise IoError(f"{out} already holds stations (seq_*); simulate into a new directory")
    _refuse_overwriting([args.config], [out / "ground_truth.json", out / "manifest.json"])
    cfg = io_formats.read_config(args.config)
    scene = _scene_from_config(cfg, cfg.sim["seed"])
    outputs = []
    gt_doc = {
        "sensors": {str(s): io_formats.pose_to_json(t) for s, t in scene.sensors.items()},
        "boards": [io_formats.pose_to_json(t) for t in scene.board_poses],
    }
    gt_path = out / "ground_truth.json"
    io_formats.write_json(gt_path, gt_doc)
    outputs.append(gt_path)

    # each LiDAR is one job on the pool; this process writes the cameras' files
    lidars = [(s,) for s in scene.sensor_ids if s.kind == "lidar"]
    cameras = [s for s in scene.sensor_ids if s.kind == "camera"]
    scene.visibility  # built once here and pickled with each job; each worker
    # builds the ray grid it casts, which this process never reads
    with _forked(partial(_simulate_lidar, scene, out), lidars) as lidar_outputs:
        seen = [
            (sensor, seq)
            for seq in range(len(scene.board_poses))
            for sensor in cameras
            if sim.sensor_sees_board(scene, sensor, seq)
        ]
        for (sensor, seq), (ids, uv) in zip(seen, sim.render_camera(scene, seen)):
            path = out / f"seq_{seq:03d}" / f"corners_{sensor}.json"
            io_formats.write_json(path, {"ids": ids.tolist(), "uv": uv.tolist()})
            outputs.append(path)
        for paths in lidar_outputs:
            outputs += paths
    _write_manifest(out / "manifest.json", args.config, scene.seed, [args.config], outputs)
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
        io_formats.write_json(init_path, {"pose": io_formats.pose_to_json(init)})
        paths += [cloud_path, init_path]
    return paths


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _forked(fn, jobs):
    """Run fn(*job) for each of `jobs` on a pool of processes sized to the
    usable CPUs; yields an iterator over the outcomes, in job order, while
    the caller goes on working.

    The pool forks, by name since Python 3.14 changes the default: each
    worker inherits the imported modules, where `spawn` or `forkserver`
    would import numpy and crosscal again in every worker. `fn` (kept
    small), each job's arguments and its outcome or exception are pickled.
    Leaving the block waits for every job, also when it raises."""
    if not jobs:
        yield iter(())
        return
    # imported here, not at start-up, which every command pays: ~15 ms
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    workers = min(len(jobs), _usable_cpus())
    with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
        yield pool.map(fn, *zip(*jobs))


def _detect_lidar(cloud_path, init_path, cfg):
    """One LiDAR board detection, reads of its cloud and init included (with
    no init file, `init_path` is None); a CrosscalError is returned as the
    outcome, any other exception propagates."""
    try:
        cloud = io_formats.read_cloud(cloud_path)
        t_init = None if init_path is None else io_formats.read_board_init(init_path)
        return detect_target_lidar(cloud, cfg.target, t_init, cfg.lidar_params)
    except CrosscalError as e:
        return e


def _name_index(name: str, prefix: str):
    """The index that a dataset name gives after `prefix`, as `seq_003` or
    `cloud_lidar1` do; None when the rest of the name is not decimal digits."""
    digits = name[len(prefix) :]
    return int(digits) if digits.isascii() and digits.isdigit() else None


def _by_index(paths, prefix: str, suffix: str = "") -> list:
    """(index, path) of each of `paths` by the index that its name gives
    between `prefix` and `suffix`, then by name; names that give no index
    (None) come last."""
    found = [(_name_index(p.name.removesuffix(suffix), prefix), p) for p in paths]
    return sorted(found, key=lambda e: (e[0] is None, e[0] or 0, e[1].name))


# (sensor kind, file name prefix, suffix) of the files that `detect` reads
# in a station directory, in record order
_DATASET_FILES = (("lidar", "cloud_lidar", ".ply"), ("camera", "corners_camera", ".json"))


def cmd_detect(args) -> int:
    cfg = io_formats.read_config(args.config)
    data = Path(args.data)
    if not data.is_dir():
        raise IoError(f"dataset {data} is not a directory")
    warnings = 0
    # (sequence, sensor) -> the files that name it, then its outcome, in the
    # order the records are written. A file whose name gives no sensor index
    # stands in for its sensor by that name.
    table = {}
    for seq, entries in groupby(_by_index(data.glob("seq_*"), "seq_"), itemgetter(0)):
        seq_dirs = [seq_dir for _, seq_dir in entries]
        if seq is None:
            for seq_dir in seq_dirs:
                log.warning("%s: no station index in the name; skipped", seq_dir)
            warnings += len(seq_dirs)
            continue
        for kind, prefix, suffix in _DATASET_FILES:
            files = [path for seq_dir in seq_dirs for path in seq_dir.glob(f"{prefix}*{suffix}")]
            for index, path in _by_index(files, prefix, suffix):
                sensor = path.name if index is None else SensorId(kind, index)
                table.setdefault((seq, sensor), []).append(path)
    lidars, cameras = {}, {}  # key -> (cloud, init file or None) | (corner file, intrinsics)
    for key, paths in table.items():
        sensor = key[1]
        if len(paths) > 1:
            names = " and ".join(map(str, paths))
            table[key] = ParseError(f"{names} name one station and sensor; neither is read")
        elif isinstance(sensor, str):
            table[key] = UnknownSensor("no sensor index in the name")
        elif sensor not in cfg.sensors:
            table[key] = UnknownSensor(f"{sensor} is not in the config")
        elif sensor.kind == "lidar":
            init_path = paths[0].with_name(f"init_{sensor}.json")
            lidars[key] = (paths[0], init_path if init_path.exists() else None)
        else:
            cameras[key] = (paths[0], cfg.sensors[sensor])
    # the files read: the config, each LiDAR's cloud and init file, each corner file
    inputs = [args.config, *(p for job in lidars.values() for p in job if p is not None)]
    inputs += [path for path, _ in cameras.values()]
    out = Path(args.out)
    _refuse_overwriting(inputs, [out, _manifest_path(out)])
    # the detections are independent and hold the GIL for much of their
    # time; each job reads its own cloud, so a worker holds one at a time,
    # and this process reads the corner files while the workers run
    with _forked(partial(_detect_lidar, cfg=cfg), list(lidars.values())) as lidar_outcomes:
        corners = {}  # key -> corner set, of each corner file read
        for key, (path, _) in cameras.items():
            try:
                corners[key] = io_formats.read_corners(path, cfg.target)
            except CrosscalError as e:
                table[key] = e
        intrinsics = [cameras[key][1] for key in corners]
        found = detect_target_camera(list(corners.values()), cfg.target, intrinsics)
        table.update(zip(corners, found))
        table.update(zip(lidars, lidar_outcomes))
    records = []
    for (seq, sensor), outcome in table.items():
        if isinstance(outcome, CrosscalError):
            log.warning("sequence %d %s: detection failed: %s", seq, sensor, outcome)
            warnings += 1
        else:
            records.append(DetectionRecord(seq, sensor, outcome))
    if not records:
        raise NoDetections(f"none succeeded under {data}")
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
    k = _name_index(text.upper(), "S") if text.upper().startswith("S") else None
    if k and k <= len(display):
        return display[k - 1]
    for s in cfg.sensors:
        if str(s) == text:
            return s
    raise ParseError(f"unknown reference sensor {text!r}")


def cmd_calibrate(args) -> int:
    out = Path(args.out)
    reports = io_formats.report_paths(out)
    _refuse_overwriting([args.config, args.detections], reports + [_manifest_path(out)])
    cfg = io_formats.read_config(args.config)
    reference = _parse_reference(cfg, args.reference)
    records = io_formats.read_detections(args.detections, strict=args.strict_schema)
    unconfigured = optimizer.display_order({rec.sensor for rec in records} - set(cfg.sensors))
    if unconfigured:
        names = ", ".join(map(str, unconfigured))
        raise UnknownSensor(f"detections of {names}, which the config does not list")
    by_seq = {}
    for rec in records:
        by_seq.setdefault(rec.sequence, {})[rec.sensor] = rec.detection
    detections = [
        optimizer.SequenceObservations(seq, obs) for seq, obs in sorted(by_seq.items())
    ]
    problem = optimizer.build_problem(detections, reference, cfg.sensors)
    result = optimizer.solve(problem)
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
    io_formats.write_report(result, out, consistency)
    _write_manifest(_manifest_path(out), args.config, None, [args.config, args.detections], reports)
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
    except CrosscalError as e:
        code, words = next((code, words) for kind, code, words in _EXITS if isinstance(e, kind))
        log.error("%s: %s", words, e)
        return code
    except Exception:  # panic guard: exit 1 is reserved for unexpected errors
        log.exception("unexpected failure")
        return 1
