"""Output checks. Each compares crosscal's outputs with the simulator's ground
truth or with a property the method must have, never with a stored copy of
an earlier output; the one exception, `digest_problems`, asks that the same
program on the same inputs writes the same bytes. Every check returns a list
of problems; empty means pass.
"""

from __future__ import annotations

import numpy as np
from jsonschema import Draft202012Validator

from crosscal import geometry, io_formats
from crosscal.target import circle_centers_board


def schema_problems(doc: dict, schema: dict, what: str) -> list:
    return [
        f"{what}: {'/'.join(map(str, e.absolute_path)) or '<root>'}: {e.message}"
        for e in Draft202012Validator(schema).iter_errors(doc)
    ]


def pose_errors(report: dict, gt_doc: dict) -> dict:
    """Per non-reference sensor (translation m, rotation deg) error of the
    report's poses against ground truth, in the report's reference frame."""
    ref_w = io_formats.pose_from_json(gt_doc["sensors"][report["reference"]])
    errs = {}
    for name, doc in report["poses"].items():
        if name == report["reference"]:
            continue
        truth = geometry.compose(
            geometry.invert(ref_w), io_formats.pose_from_json(gt_doc["sensors"][name])
        )
        d = geometry.compose(geometry.invert(truth), io_formats.pose_from_json(doc))
        errs[name] = (
            float(np.linalg.norm(d.translation)),
            float(np.rad2deg(geometry.rotation_angle(d.rotation))),
        )
    return errs


def pose_problems(errors: dict, max_trans_m: float, max_rot_deg: float) -> list:
    return [
        f"{name}: pose error {t * 1000:.2f} mm / {r:.4f} deg exceeds "
        f"{max_trans_m * 1000:g} mm / {max_rot_deg:g} deg"
        for name, (t, r) in sorted(errors.items())
        if t > max_trans_m or r > max_rot_deg
    ]


def solver_problems(report: dict, tol: float = 1e-9) -> list:
    """`calibrate` converged, and its solved-pose loop closes to `tol`."""
    out = []
    if not report["solver"]["converged"]:
        out.append("solver did not converge")
    c = report["consistency"]
    if c.get("mode") != "solved":
        out.append(f"consistency mode {c.get('mode')!r}, expected 'solved'")
    elif c["rotation_deviation_deg"] > tol or c["translation_deviation_m"] > tol:
        out.append(
            f"consistency loop {c['chain']} open by {c['rotation_deviation_deg']:.3e} deg / "
            f"{c['translation_deviation_m']:.3e} m"
        )
    return out


def lidar_center_errors(record: dict, gt_doc: dict, spec) -> tuple:
    """(off-plane max, in-plane max, in-plane max of the centers implied by
    the record's registered pose), in meters, against the true board. The
    in-plane errors take the best of the 4 cyclic orders, which `calibrate`
    resolves."""
    board_in_sensor, _ = truth_centers(gt_doc, spec, str(_sensor(record)), record["sequence"])
    truth = circle_centers_board(spec)
    to_board = geometry.invert(board_in_sensor)
    local = to_board.apply(np.asarray(record["centers_3d"], dtype=float))
    from_pose = to_board.apply(io_formats.pose_from_json(record["pose"]).apply(truth))

    def in_plane(pts):
        return min(
            float(np.linalg.norm((pts - np.roll(truth, k, axis=0))[:, :2], axis=1).max())
            for k in range(4)
        )

    return float(np.abs(local[:, 2]).max()), in_plane(local), in_plane(from_pose)


def lidar_center_problems(records, gt_doc, spec, cell: float, plane_tol: float = 1e-5) -> list:
    """Noise-free LiDAR centers lie on the true board plane to `plane_tol`
    and within 2 occupancy-grid cells of the truth in the plane."""
    out = []
    for rec in records:
        if rec["type"] != "lidar":
            continue
        off, inp, _ = lidar_center_errors(rec, gt_doc, spec)
        if off > plane_tol or inp > 2 * cell:
            out.append(
                f"seq {rec['sequence']} {_sensor(rec)}: LiDAR centers {off:.2e} m off the "
                f"board plane, {inp * 1000:.2f} mm in-plane (limits {plane_tol:g} m, "
                f"{2 * cell * 1000:g} mm)"
            )
    return out


def camera_center_problems(records, gt_doc, spec, tol: float = 1e-5) -> list:
    """Noise-free PnP recovers the circle centers exactly."""
    out = []
    for rec in records:
        if rec["type"] != "camera":
            continue
        _, truth = truth_centers(gt_doc, spec, str(_sensor(rec)), rec["sequence"])
        err = float(np.linalg.norm(np.asarray(rec["centers_3d"]) - truth, axis=1).max())
        if err > tol:
            out.append(f"seq {rec['sequence']} {_sensor(rec)}: camera centers off by {err:.2e} m")
    return out


def lidar_pair_problems(report: dict, max_dist_m: float) -> list:
    """Every LiDAR-LiDAR row of the report maps the 4 centers onto each
    other to `max_dist_m`. A cyclic order left unresolved puts a center a
    board side (0.76 m) or a diagonal away from its partner."""
    lidar_display = {
        doc["display"] for name, doc in report["poses"].items() if name.startswith("lidar")
    }
    out = []
    for row in report["reprojection_errors"]:
        a, b = row["pair"].split("-")
        if a in lidar_display and b in lidar_display and max(row["errors_m"]) > max_dist_m:
            out.append(
                f"seq {row['sequence']} {row['pair']}: LiDAR centers {max(row['errors_m']):.4f} m "
                f"apart (limit {max_dist_m:g} m)"
            )
    return out


def failure_problems(failures: dict, known: dict) -> list:
    """Failures and known failures are {(sequence, sensor): stage}; only the
    known detections may fail, and only at their known stage."""
    return [
        f"seq {seq} {sensor}: detection failed at stage {stage!r}, "
        + (f"known to fail at {known[seq, sensor]!r}" if (seq, sensor) in known else "a new failure")
        for (seq, sensor), stage in sorted(failures.items())
        if stage != known.get((seq, sensor))
    ]


def digest_problems(digests: dict, previous: dict | None) -> list:
    """Outputs of the same program on the same inputs are byte-identical."""
    if previous is None:
        return []
    return [
        f"{name} differs from an earlier run on the same inputs"
        for name, digest in sorted(digests.items())
        if previous.get(name) not in (None, digest)
    ]


def truth_centers(gt_doc: dict, spec, sensor: str, sequence: int):
    """(board -> sensor pose, (4, 3) circle centers in the sensor frame)
    from a `ground_truth.json` document."""
    sensor_w = io_formats.pose_from_json(gt_doc["sensors"][sensor])
    board_w = io_formats.pose_from_json(gt_doc["boards"][sequence])
    board_in_sensor = geometry.compose(geometry.invert(sensor_w), board_w)
    return board_in_sensor, board_in_sensor.apply(circle_centers_board(spec))


def _sensor(record: dict):
    return io_formats.sensor_from_json(record["sensor"])
