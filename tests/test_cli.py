"""CLI: simulate/detect/calibrate round trip on a small dataset, exit codes,
manifests, determinism, and reference-frame selection."""

import json
import logging
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crosscal
from crosscal import cli, geometry, io_formats, optimizer
from crosscal.camera import CameraDetection
from crosscal.errors import SolverNotConverged
from crosscal.geometry import RigidTransform
from crosscal.lidar import LidarDetection
from crosscal.optimizer import SensorId

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One simulate+detect+calibrate run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = replace(
        io_formats.default_config(), sim={**io_formats.DEFAULT_SIM, "sequences": 4}
    )
    cfg_path = root / "config.json"
    io_formats.write_config(cfg_path, cfg)
    data = root / "data"
    det = root / "detections.json"
    report = root / "report.json"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert (
        cli.main(
            ["detect", "--config", str(cfg_path), "--data", str(data), "--out", str(det)]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "calibrate",
                "--config",
                str(cfg_path),
                "--detections",
                str(det),
                "--out",
                str(report),
            ]
        )
        == 0
    )
    return {"root": root, "config": cfg_path, "data": data, "det": det, "report": report}


def _tree_bytes(root: Path):
    return {
        p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


# --- simulate ---------------------------------------------------------------

def test_simulate_layout_and_manifest(ws):
    data = ws["data"]
    seq_dirs = sorted(d.name for d in data.glob("seq_*"))
    assert seq_dirs == ["seq_000", "seq_001", "seq_002", "seq_003"]
    assert (data / "ground_truth.json").exists()
    man = json.loads((data / "manifest.json").read_text())
    assert man["seed"] == 0
    assert len(man["config_sha256"]) == 64
    # both lidars see every board; at least one camera per sequence
    for d in data.glob("seq_*"):
        clouds = list(d.glob("cloud_lidar*.ply"))
        inits = list(d.glob("init_lidar*.json"))
        corners = list(d.glob("corners_camera*.json"))
        assert len(clouds) == 2 and len(inits) == 2
        assert len(corners) >= 1


def test_simulate_repeat_byte_identical(ws, tmp_path):
    out2 = tmp_path / "data2"
    assert cli.main(["simulate", "--config", str(ws["config"]), "--out", str(out2)]) == 0
    a = _tree_bytes(ws["data"])
    b = _tree_bytes(out2)
    assert set(a) == set(b)
    clouds = [k for k in a if k.name.startswith("cloud_") and k.suffix == ".ply"]
    assert len(clouds) == 8
    assert all(a[k].startswith(b"ply\nformat binary_little_endian 1.0\n") for k in clouds)
    for k in a:
        if k.name == "manifest.json":
            continue  # records absolute output paths
        assert a[k] == b[k], k


def test_simulate_bad_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "nope.json"
    assert cli.main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2


def test_simulate_infeasible_exit_3(tmp_path):
    cfg = io_formats.default_config(n_lidars=1, m_cameras=0)
    cfg = replace(cfg, reference=SensorId("lidar", 0))
    path = tmp_path / "cfg.json"
    io_formats.write_config(path, cfg)
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


# --- detect -----------------------------------------------------------------

def test_detect_output_parses_with_full_coverage(ws):
    recs = io_formats.read_detections(ws["det"])
    by_seq = {}
    for r in recs:
        by_seq.setdefault(r.sequence, set()).add(r.sensor)
    assert set(by_seq) == {0, 1, 2, 3}
    for sensors in by_seq.values():
        assert SensorId("lidar", 0) in sensors and SensorId("lidar", 1) in sensors
    man = json.loads((ws["det"].parent / "manifest.json").read_text())
    assert man["warnings"] == 0


def test_detect_empty_dataset_exit_4(ws, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = cli.main(
        [
            "detect",
            "--config",
            str(ws["config"]),
            "--data",
            str(empty),
            "--out",
            str(tmp_path / "d.json"),
        ]
    )
    assert rc == 4


def test_detect_partial_failure_warns_but_succeeds(ws, tmp_path):
    data2 = tmp_path / "data"
    shutil.copytree(ws["data"], data2)
    # corrupt one cloud: the lidar stage fails, the rest still detects
    victim = data2 / "seq_000" / "cloud_lidar0.ply"
    victim.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\nproperty double y\nproperty double z\nend_header\n1 oops 3\n")
    out = tmp_path / "d.json"
    rc = cli.main(
        ["detect", "--config", str(ws["config"]), "--data", str(data2), "--out", str(out)]
    )
    assert rc == 0
    man = json.loads((out.parent / "manifest.json").read_text())
    assert man["warnings"] == 1
    recs = io_formats.read_detections(out)
    assert not any(r.sequence == 0 and r.sensor == SensorId("lidar", 0) for r in recs)


@pytest.mark.parametrize(
    "pattern, content",
    [
        ("corners_camera*.json", '{"sensor": {"kind": "camera", "index": 0}}'),  # no "corners"
        ("corners_camera*.json", "{not json"),
        ("init_lidar*.json", '{"pose": {"translation": [0, 0, 1]}}'),  # no "euler_xyz_deg"
        ("init_lidar*.json", "[]"),
    ],
    ids=["corners-missing-key", "corners-not-json", "init-missing-key", "init-not-an-object"],
)
def test_detect_malformed_input_file_costs_only_its_detection(ws, tmp_path, pattern, content):
    data2 = tmp_path / "data"
    shutil.copytree(ws["data"], data2)
    victim = sorted((data2 / "seq_001").glob(pattern))[0]
    victim.write_text(content)
    sensor = victim.stem.split("_")[1]
    out = tmp_path / "d.json"
    rc = cli.main(
        ["detect", "--config", str(ws["config"]), "--data", str(data2), "--out", str(out)]
    )
    assert rc == 0
    assert json.loads((out.parent / "manifest.json").read_text())["warnings"] == 1
    keys = [(r.sequence, str(r.sensor)) for r in io_formats.read_detections(ws["det"])]
    assert [(r.sequence, str(r.sensor)) for r in io_formats.read_detections(out)] == [
        k for k in keys if k != (1, sensor)
    ]


def test_detect_repeat_byte_identical(ws, tmp_path):
    out2 = tmp_path / "d2.json"
    rc = cli.main(
        [
            "detect",
            "--config",
            str(ws["config"]),
            "--data",
            str(ws["data"]),
            "--out",
            str(out2),
        ]
    )
    assert rc == 0
    assert out2.read_bytes() == ws["det"].read_bytes()


# --- calibrate --------------------------------------------------------------

def test_calibrate_report_reference_identity(ws):
    rep = json.loads(ws["report"].read_text())
    assert rep["reference"] == "camera0"
    ref_pose = io_formats.pose_from_json(rep["poses"]["camera0"])
    assert np.abs(ref_pose.matrix() - np.eye(4)).max() < 1e-12
    assert rep["consistency"]["mode"] == "solved"
    assert rep["consistency"]["rotation_deviation_deg"] < 1e-9
    assert rep["consistency"]["translation_deviation_m"] < 1e-9
    assert rep["solver"]["converged"] is True
    assert ws["report"].with_suffix(".txt").exists()


def test_calibrate_close_to_simulated_ground_truth(ws):
    rep = json.loads(ws["report"].read_text())
    gt = json.loads((ws["data"] / "ground_truth.json").read_text())
    ref_w = io_formats.pose_from_json(gt["sensors"]["camera0"])
    for name, doc in rep["poses"].items():
        est = io_formats.pose_from_json(doc)
        truth = geometry.compose(
            geometry.invert(ref_w), io_formats.pose_from_json(gt["sensors"][name])
        )
        d = geometry.compose(geometry.invert(truth), est)
        assert np.linalg.norm(d.translation) < 0.02
        assert geometry.rotation_angle(d.rotation) < np.deg2rad(0.5)


def test_calibrate_repeat_byte_identical(ws, tmp_path):
    out2 = tmp_path / "report2.json"
    rc = cli.main(
        [
            "calibrate",
            "--config",
            str(ws["config"]),
            "--detections",
            str(ws["det"]),
            "--out",
            str(out2),
        ]
    )
    assert rc == 0
    assert out2.read_bytes() == ws["report"].read_bytes()


def test_calibrate_reference_flag_moves_gauge_only(ws, tmp_path):
    out2 = tmp_path / "report_s2.json"
    rc = cli.main(
        [
            "calibrate",
            "--config",
            str(ws["config"]),
            "--detections",
            str(ws["det"]),
            "--out",
            str(out2),
            "--reference",
            "S2",
        ]
    )
    assert rc == 0
    rep1 = json.loads(ws["report"].read_text())
    rep2 = json.loads(out2.read_text())
    assert rep2["reference"] == "camera1"
    p1 = {k: io_formats.pose_from_json(v) for k, v in rep1["poses"].items()}
    p2 = {k: io_formats.pose_from_json(v) for k, v in rep2["poses"].items()}
    assert set(p1) == set(p2)
    for a in p1:
        for b in p1:
            t1 = geometry.compose(geometry.invert(p1[b]), p1[a])
            t2 = geometry.compose(geometry.invert(p2[b]), p2[a])
            # on real detections the optimum shifts by the solver tolerance
            assert np.abs(t1.matrix() - t2.matrix()).max() < 1e-6


def test_calibrate_pairwise_mode_runs(ws, tmp_path, capsys):
    out2 = tmp_path / "report_pw.json"
    rc = cli.main(
        [
            "calibrate",
            "--config",
            str(ws["config"]),
            "--detections",
            str(ws["det"]),
            "--out",
            str(out2),
            "--pairwise-mode",
        ]
    )
    assert rc == 0
    rep = json.loads(out2.read_text())
    assert rep["consistency"]["mode"] == "pairwise"
    assert np.isfinite(rep["consistency"]["rotation_deviation_deg"])
    assert np.isfinite(rep["consistency"]["translation_deviation_m"])


def test_calibrate_unknown_reference_exit_2(ws, tmp_path):
    rc = cli.main(
        [
            "calibrate",
            "--config",
            str(ws["config"]),
            "--detections",
            str(ws["det"]),
            "--out",
            str(tmp_path / "r.json"),
            "--reference",
            "sonar0",
        ]
    )
    assert rc == 2


def test_calibrate_disconnected_exit_5(ws, tmp_path):
    square = np.array(
        [[-0.38, 0.38, 0.0], [0.38, 0.38, 0.0], [0.38, -0.38, 0.0], [-0.38, -0.38, 0.0]]
    )
    pose = RigidTransform.identity()
    cam_det = CameraDetection(pose, square, square[:, :2], 0.0, 49)
    recs = [
        io_formats.DetectionRecord(0, SensorId("lidar", 0), LidarDetection(pose, square, 0.0)),
        io_formats.DetectionRecord(0, SensorId("lidar", 1), LidarDetection(pose, square, 0.0)),
        io_formats.DetectionRecord(1, SensorId("camera", 0), cam_det),
        io_formats.DetectionRecord(1, SensorId("camera", 1), cam_det),
    ]
    det = tmp_path / "split.json"
    io_formats.write_detections(det, recs)
    rc = cli.main(
        [
            "calibrate",
            "--config",
            str(ws["config"]),
            "--detections",
            str(det),
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert rc == 5


def test_calibrate_not_converged_logs_solver_state(ws, tmp_path, monkeypatch, caplog):
    def fail(problem):
        raise SolverNotConverged(
            optimizer.CalibrationResult(
                poses={},
                problem=problem,
                final_cost=0.0123456,
                initial_cost=9.87,
                iterations=100,
                converged=False,
                gradient_norm=4.5e-3,
            )
        )

    monkeypatch.setattr(optimizer, "solve", fail)
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        rc = cli.main(
            [
                "calibrate",
                "--config",
                str(ws["config"]),
                "--detections",
                str(ws["det"]),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
    assert rc == cli.EXIT_NOT_CONVERGED
    msg = caplog.text
    assert "final cost 0.0123456" in msg
    assert "gradient norm 0.0045" in msg
    assert "100 iterations" in msg
    assert not (tmp_path / "r.json").exists()


def test_calibrate_consistency_line_on_stderr(ws, tmp_path, capsys):
    out2 = tmp_path / "r.json"
    rc = cli.main(
        [
            "calibrate",
            "--config",
            str(ws["config"]),
            "--detections",
            str(ws["det"]),
            "--out",
            str(out2),
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "consistency" in err and "[solved]" in err


def test_json_summary_flag(ws, tmp_path, capsys):
    out2 = tmp_path / "r.json"
    rc = cli.main(
        [
            "calibrate",
            "--config",
            str(ws["config"]),
            "--detections",
            str(ws["det"]),
            "--out",
            str(out2),
            "--json",
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    doc = json.loads(line)
    assert doc["command"] == "calibrate"
    assert "final_cost" in doc and "consistency" in doc


def test_console_script_version():
    """The `crosscal` console script is declared in pyproject.toml and prints
    the package version. The installed script runs when it is on PATH; from a
    source tree (PYTHONPATH=src) the same entry point runs as a module."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"crosscal": "crosscal.cli:main"}
    script = shutil.which("crosscal")
    if script:
        cmd, env = [script], None
    else:
        src = str(REPO / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
        cmd = [sys.executable, "-m", "crosscal.cli"]
    out = subprocess.run(
        cmd + ["--version"], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == project["version"] == crosscal.__version__


def test_strict_schema_flag_rejects_extra_fields(ws, tmp_path):
    doc = json.loads(ws["det"].read_text())
    doc["records"][0]["mystery"] = 1
    det = tmp_path / "d.json"
    det.write_text(json.dumps(doc))
    args = [
        "calibrate",
        "--config",
        str(ws["config"]),
        "--detections",
        str(det),
        "--out",
        str(tmp_path / "r.json"),
    ]
    assert cli.main(args + ["--strict-schema"]) == 2
    assert cli.main(args) == 0  # lax mode tolerates unknown fields
