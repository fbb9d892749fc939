"""Each output check of the benchmark passes on exact outputs and fails on a
wrong one. Run with `python3 -m pytest -q bench/test_checks.py`."""

import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from crosscal import cli, geometry, io_formats, optimizer, sim  # noqa: E402
from crosscal.camera import CameraDetection  # noqa: E402
from crosscal.io_formats import DetectionRecord  # noqa: E402
from crosscal.lidar import LidarDetection  # noqa: E402

CELL = 1.0 / io_formats.default_config().lidar_params.grid_res
PAIR_LIMIT = workloads.LIDAR_PAIR_LIMIT
LIMITS = workloads.POSE_LIMITS


@pytest.fixture(scope="module")
def exact(tmp_path_factory):
    """Detections, report and ground truth of a small default rig (6
    stations, scene seed 3) solved from exact (ground-truth) detections. The
    ground truth is the file `simulate` writes."""
    tmp = tmp_path_factory.mktemp("exact")
    base = io_formats.default_config()
    cfg = workloads.sparse_scan(replace(base, sim={**base.sim, "sequences": 6, "seed": 3}))
    io_formats.write_config(tmp / "config.json", cfg)
    argv = ["simulate", "--config", str(tmp / "config.json"), "--out", str(tmp / "data")]
    assert cli.main(argv) == 0
    scene = cli._scene_from_config(cfg, 3)
    gt = sim.ground_truth(scene)
    seqs, records = [], []
    for seq in range(len(scene.board_poses)):
        obs = {}
        for s in scene.sensor_ids:
            if not sim.sensor_sees_board(scene, s, seq):
                continue
            pose, centers = gt.board_in_sensor(s, seq), gt.centers_in_sensor(s, seq)
            if s.kind == "lidar":
                obs[s] = LidarDetection(pose, centers, 0.0)
            else:
                c2 = geometry.project_many(scene.intrinsics[s], centers)
                obs[s] = CameraDetection(pose, centers, c2, 0.0, 49)
            records.append(DetectionRecord(seq, s, obs[s]))
        seqs.append(optimizer.SequenceObservations(seq, obs))
    problem = optimizer.build_problem(
        seqs, optimizer.SensorId("camera", 0), scene.intrinsics, optimizer.SolveParams()
    )
    result = optimizer.solve(problem)
    io_formats.write_detections(tmp / "detections.json", records)

    def report_of(res):
        rot, trans = optimizer.consistency_check(res, list(res.problem.sensors))
        consistency = {
            "chain": "loop",
            "mode": "solved",
            "rotation_deviation_deg": rot,
            "translation_deviation_m": trans,
        }
        return json.loads(io_formats.canonical_json(io_formats.report_to_json(res, consistency)))

    return {
        "result": result,
        "report_of": report_of,
        "report": report_of(result),
        "records": json.loads((tmp / "detections.json").read_text())["records"],
        "detections": json.loads((tmp / "detections.json").read_text()),
        "gt": json.loads((tmp / "data" / "ground_truth.json").read_text()),
        "spec": scene.spec,
        "cfg": cfg,
        "data": tmp / "data",
    }


def _schema(name):
    return json.loads((ROOT / "schemas" / name).read_text())


def _first(records, kind):
    return next(i for i, r in enumerate(records) if r["type"] == kind)


def test_every_check_passes_on_exact_outputs(exact):
    r, gt, spec = exact["records"], exact["gt"], exact["spec"]
    errors = checks.pose_errors(exact["report"], gt)
    assert max(t for t, _ in errors.values()) < 1e-9
    assert checks.pose_problems(errors, *LIMITS["default_rig"]) == []
    assert checks.camera_center_problems(r, gt, spec) == []
    assert checks.lidar_center_problems(r, gt, spec, CELL) == []
    assert checks.lidar_pair_problems(exact["report"], PAIR_LIMIT) == []
    assert checks.solver_problems(exact["report"]) == []
    assert checks.schema_problems(exact["detections"], _schema("detections.schema.json"), "d") == []
    assert checks.schema_problems(exact["report"], _schema("report.schema.json"), "r") == []


def test_lidar_center_moved_three_cells_fails(exact):
    records = copy.deepcopy(exact["records"])
    rec = records[_first(records, "lidar")]
    board, _ = checks.truth_centers(exact["gt"], exact["spec"], "lidar0", rec["sequence"])
    # 3 cells along the board's x axis, which lies in the board plane
    moved = np.asarray(rec["centers_3d"]) + 3 * CELL * board.rotation[:, 0]
    rec["centers_3d"] = moved.tolist()
    assert len(checks.lidar_center_problems(records, exact["gt"], exact["spec"], CELL)) == 1


def test_lidar_center_off_the_board_plane_fails(exact):
    records = copy.deepcopy(exact["records"])
    rec = records[_first(records, "lidar")]
    board, _ = checks.truth_centers(exact["gt"], exact["spec"], "lidar0", rec["sequence"])
    rec["centers_3d"] = (np.asarray(rec["centers_3d"]) + 1e-4 * board.rotation[:, 2]).tolist()
    assert len(checks.lidar_center_problems(records, exact["gt"], exact["spec"], CELL)) == 1


def test_camera_center_moved_fails(exact):
    records = copy.deepcopy(exact["records"])
    rec = records[_first(records, "camera")]
    rec["centers_3d"][0][0] += 1e-4
    assert len(checks.camera_center_problems(records, exact["gt"], exact["spec"])) == 1


@pytest.mark.parametrize(
    "shift_m, limit",
    [
        (0.01, LIMITS["default_rig"]),
        (0.03, LIMITS["large_rig"]),
        (0.2, LIMITS["noisy_rig"]),  # what a wrong void or circle order does
    ],
)
def test_pose_moved_fails(exact, shift_m, limit):
    report = copy.deepcopy(exact["report"])
    report["poses"]["lidar1"]["translation"][1] += shift_m
    errors = checks.pose_errors(report, exact["gt"])
    assert errors["lidar1"][0] == pytest.approx(shift_m)
    assert len(checks.pose_problems(errors, *limit)) == 1


def test_pose_rotated_fails(exact):
    report = copy.deepcopy(exact["report"])
    report["poses"]["camera2"]["euler_xyz_deg"][2] += 0.2
    assert len(checks.pose_problems(checks.pose_errors(report, exact["gt"]), *LIMITS["default_rig"])) == 1


def test_report_row_from_a_wrong_cyclic_order_fails(exact):
    result = exact["result"]
    seqs = []
    for k, seq in enumerate(result.problem.sequences):
        obs = dict(seq.observations)
        lidar = optimizer.SensorId("lidar", 1)
        if k == 0 and lidar in obs:
            obs[lidar] = replace(obs[lidar], centers=np.roll(obs[lidar].centers, -1, axis=0))
        seqs.append(optimizer.SequenceObservations(seq.sequence, obs))
    wrong = replace(result, problem=replace(result.problem, sequences=tuple(seqs)))
    assert len(checks.lidar_pair_problems(exact["report_of"](wrong), PAIR_LIMIT)) == 1


def test_solver_not_converged_or_open_loop_fails(exact):
    report = copy.deepcopy(exact["report"])
    report["solver"]["converged"] = False
    assert checks.solver_problems(report) == ["solver did not converge"]
    report = copy.deepcopy(exact["report"])
    report["consistency"]["translation_deviation_m"] = 1e-6
    assert len(checks.solver_problems(report)) == 1


def test_schema_violation_fails(exact):
    detections = copy.deepcopy(exact["detections"])
    del detections["records"][_first(detections["records"], "lidar")]["fitness"]
    assert checks.schema_problems(detections, _schema("detections.schema.json"), "d")
    report = copy.deepcopy(exact["report"])
    report["solver"]["iterations"] = -1
    assert checks.schema_problems(report, _schema("report.schema.json"), "r")


def test_only_known_failures_pass():
    known = workloads.KNOWN_FAILURES["default_rig"]
    assert checks.failure_problems(dict(known), known) == []
    assert checks.failure_problems({}, known) == []  # a mended fault
    assert len(checks.failure_problems({**known, (3, "lidar0"): "gicp"}, known)) == 1
    # the known detection failing at another stage is a new fault
    assert len(checks.failure_problems({(16, "lidar1"): "circles"}, known)) == 1
    assert len(checks.failure_problems({(16, "lidar1"): "unknown"}, known)) == 1


def test_changed_output_bytes_fail():
    assert checks.digest_problems({"report.json": "a"}, None) == []
    assert checks.digest_problems({"report.json": "a"}, {"report.json": "a"}) == []
    assert len(checks.digest_problems({"report.json": "b"}, {"report.json": "a"})) == 1


def test_injected_lidar_records_match_the_truth(exact):
    records = workloads.lidar_records(exact["data"], exact["cfg"])
    clouds = sorted(exact["data"].glob("seq_*/cloud_lidar*.ply"))
    assert len(records) == len(clouds) > 0
    sigma = workloads.LARGE_CENTER_SIGMA
    for rec in records:
        sensor = str(checks._sensor(rec))
        _, truth = checks.truth_centers(exact["gt"], exact["spec"], sensor, rec["sequence"])
        err = np.abs(np.asarray(rec["centers_3d"]) - truth).max()
        assert 0 < err < 5 * sigma  # noisy, in the canonical order
    assert records == workloads.lidar_records(exact["data"], exact["cfg"])


def test_tracing_a_missing_attribute_raises():
    with pytest.raises(AttributeError):
        spans.Tracer().wrap("crosscal.lidar", "no_such_layer", "lidar.none")


def test_command_span_is_children_plus_self():
    from crosscal import lidar, target

    original = lidar.generate_mask_cloud
    tracer = spans.Tracer()
    tracer.wrap("crosscal.lidar", "generate_mask_cloud", "lidar.mask")
    with tracer.span("cli.detect"):
        lidar.generate_mask_cloud(target.TargetSpec(), 0.03)
        lidar.generate_mask_cloud(target.TargetSpec(), 0.03)
    tracer.restore()
    assert lidar.generate_mask_cloud is original
    metrics, commands = spans.summarize(tracer, rounds=1)
    (cmd,) = commands
    assert cmd["span_s"] == pytest.approx(cmd["children_s"] + cmd["self_s"], abs=1e-12)
    assert cmd["children_s"] == pytest.approx(metrics["lidar.mask_s"], abs=1e-12)
    assert metrics["cli.self_s"] == pytest.approx(cmd["self_s"], abs=1e-12)
