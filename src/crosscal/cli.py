"""Command-line driver: simulate / detect / calibrate.

Every command writes a run manifest (seed, config hash, tool version,
inputs/outputs) next to its outputs so runs are reproducible; with the same
inputs and seed the outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

from . import __version__, io_formats, optimizer, sim
from .camera import detect_target_camera
from .errors import (
    CrosscalError,
    DisconnectedGraph,
    InfeasibleLayout,
    MissingField,
    ParseError,
    SchemaVersionMismatch,
    SolverNotConverged,
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


def _config_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir, config_path, seed, inputs, outputs, warnings=0):
    doc = {
        "tool_version": __version__,
        "seed": seed,
        "config_sha256": _config_hash(config_path),
        "inputs": sorted(str(p) for p in inputs),
        "outputs": sorted(str(p) for p in outputs),
        "warnings": warnings,
    }
    io_formats.atomic_write(Path(out_dir) / "manifest.json", io_formats.canonical_json(doc))
    return doc


def _load_config(path):
    try:
        return io_formats.read_config(path)
    except FileNotFoundError as e:
        raise ParseError(str(e))


def _scene_from_config(cfg, seed):
    s = cfg.sim
    return sim.make_scene(
        n_lidars=len(cfg.lidars()),
        m_cameras=len(cfg.cameras()),
        sequences=int(s["sequences"]),
        spec=cfg.target,
        noise=sim.NoiseModel(**s["noise"]),
        seed=seed,
        scan=sim.ScanPattern(**s["scan"]),
        camera_intrinsics=[c.intrinsics for c in cfg.cameras()],
    )


def cmd_simulate(args) -> int:
    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.sim.get("seed", 0))
        scene = _scene_from_config(cfg, seed)
    except (ParseError, MissingField, SchemaVersionMismatch, ValueError) as e:
        log.error("config error: %s", e)
        return EXIT_CONFIG
    except InfeasibleLayout as e:
        log.error("infeasible layout: %s", e)
        return EXIT_INFEASIBLE

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    gt_doc = {
        "sensors": {str(s): io_formats.pose_to_json(t) for s, t in scene.sensors},
        "boards": [io_formats.pose_to_json(t) for t in scene.board_poses],
    }
    gt_path = out / "ground_truth.json"
    io_formats.atomic_write(gt_path, io_formats.canonical_json(gt_doc))
    outputs.append(gt_path)

    for seq in range(len(scene.board_poses)):
        seq_dir = out / f"seq_{seq:03d}"
        seq_dir.mkdir(exist_ok=True)
        for sensor in scene.sensor_ids:
            if not sim.sensor_sees_board(scene, sensor, seq):
                continue
            if sensor.kind == "lidar":
                cloud = sim.render_lidar(scene, sensor, seq)
                cloud_path = seq_dir / f"cloud_{sensor}.ply"
                io_formats.write_cloud(cloud_path, cloud)
                init = sim.perturbed_board_init(scene, sensor, seq)
                init_path = seq_dir / f"init_{sensor}.json"
                io_formats.atomic_write(
                    init_path,
                    io_formats.canonical_json({"pose": io_formats.pose_to_json(init)}),
                )
                outputs += [cloud_path, init_path]
            else:
                corners = sim.render_camera(scene, sensor, seq)
                doc = {
                    "sensor": io_formats.sensor_to_json(sensor),
                    "corners": [
                        {"id": c.corner_id, "uv": [c.pixel[0], c.pixel[1]]} for c in corners
                    ],
                }
                path = seq_dir / f"corners_{sensor}.json"
                io_formats.atomic_write(path, io_formats.canonical_json(doc))
                outputs.append(path)
    _write_manifest(out, args.config, seed, [args.config], outputs)
    _summary(args, {"command": "simulate", "sequences": len(scene.board_poses), "out": str(out)})
    return EXIT_OK


def cmd_detect(args) -> int:
    try:
        cfg = _load_config(args.config)
    except (ParseError, MissingField, SchemaVersionMismatch, ValueError) as e:
        log.error("config error: %s", e)
        return EXIT_CONFIG
    data = Path(args.data)
    inputs = [args.config]
    intr = cfg.intrinsics_map()
    # (sequence, sensor, detection | CrosscalError | index into corner_sets),
    # in the order the records are written; cameras are detected in one batch
    slots, corner_sets, cameras = [], [], []
    for seq_dir in sorted(data.glob("seq_*")):
        seq = int(seq_dir.name.split("_")[1])
        for cloud_path in sorted(seq_dir.glob("cloud_lidar*.ply")):
            sensor = SensorId("lidar", int(cloud_path.stem.replace("cloud_lidar", "")))
            inputs.append(cloud_path)
            try:
                cloud = io_formats.read_cloud(cloud_path)
                init_path = seq_dir / f"init_{sensor}.json"
                if init_path.exists():
                    t_init = io_formats.read_board_init(init_path)
                else:
                    t_init = rough_board_pose(cloud, cfg.lidar_params)
                out = detect_target_lidar(cloud, cfg.target, t_init, cfg.lidar_params)
            except CrosscalError as e:
                out = e
            slots.append((seq, sensor, out))
        for corner_path in sorted(seq_dir.glob("corners_camera*.json")):
            sensor = SensorId("camera", int(corner_path.stem.replace("corners_camera", "")))
            inputs.append(corner_path)
            try:
                corners = io_formats.read_corners(corner_path)
                cameras.append(intr[sensor])
                corner_sets.append(corners)
                out = len(corner_sets) - 1
            except CrosscalError as e:
                out = e
            slots.append((seq, sensor, out))
    detected = detect_target_camera(corner_sets, cfg.target, cameras)
    records = []
    warnings = 0
    for seq, sensor, out in slots:
        if isinstance(out, int):
            out = detected[out]
        if isinstance(out, CrosscalError):
            log.warning("sequence %d %s: detection failed: %s", seq, sensor, out)
            warnings += 1
        else:
            records.append(DetectionRecord(seq, sensor, out))
    if not records:
        log.error("no detections succeeded under %s", data)
        return EXIT_NO_DETECTIONS
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    io_formats.write_detections(out, records)
    _write_manifest(out.parent, args.config, args.seed, inputs, [out], warnings)
    _summary(
        args,
        {"command": "detect", "detections": len(records), "failures": warnings, "out": str(out)},
    )
    return EXIT_OK


def _parse_reference(cfg, text):
    """Accept 'S2' display names, 'camera1' / 'lidar0', or config default."""
    if text is None:
        return cfg.reference
    ids = [s.sensor for s in cfg.sensors]
    display = [s for s in ids if s.kind == "camera"] + [s for s in ids if s.kind == "lidar"]
    if text.upper().startswith("S") and text[1:].isdigit():
        k = int(text[1:]) - 1
        if 0 <= k < len(display):
            return display[k]
    for s in ids:
        if str(s) == text:
            return s
    raise ParseError(f"unknown reference sensor {text!r}")


def cmd_calibrate(args) -> int:
    try:
        cfg = _load_config(args.config)
        reference = _parse_reference(cfg, args.reference)
        records = io_formats.read_detections(args.detections, strict=args.strict_schema)
    except (ParseError, MissingField, SchemaVersionMismatch, ValueError) as e:
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
            detections, reference, cfg.intrinsics_map(), cfg.solve_params
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
    out.parent.mkdir(parents=True, exist_ok=True)
    io_formats.write_report(result, out, consistency)
    _write_manifest(out.parent, args.config, args.seed, [args.config, args.detections], [out])
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
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
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
    except Exception:  # panic guard: exit 1 is reserved for unexpected errors
        log.exception("unexpected failure")
        return 1


if __name__ == "__main__":
    sys.exit(main())
