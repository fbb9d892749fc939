"""Inputs of the three benchmark workloads and the bounds of their checks.

The program only ever sees the files written here and by its own `simulate`:
a config, and for `large_rig` LiDAR records merged into `detections.json`
before `calibrate`.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from crosscal import io_formats, sim
from crosscal.optimizer import SensorId
from crosscal.target import TargetSpec

WORKLOADS = ("default_rig", "noisy_rig", "large_rig")
# Rounds per run: a shared machine's speed drifts by up to 2x within a
# minute, so the short large_rig rounds report a median of 4 spread over
# ~35 s, about as long as one rig round.
ROUNDS = {"default_rig": 1, "noisy_rig": 1, "large_rig": 4}

# The acceptance test's noise: 5 mm range, 0.5 px corners.
RIG_NOISE = {"lidar_sigma": 0.005, "pixel_sigma": 0.5, "dropout": 0.0}

# ROADMAP item 5's rig (4 LiDARs, 6 cameras) at 40 rather than 200 stations:
# a run takes the median of 4 rounds, which one 200-station round cannot give
# within the benchmark's time budget.
LARGE_LIDARS, LARGE_CAMERAS, LARGE_STATIONS = 4, 6, 40
LARGE_PIXEL_SIGMA = 0.5
LARGE_MAX_RANGE = 6.8  # m, farthest board station (sim.make_scene's board_range)
# m, per coordinate of each injected LiDAR center: an in-plane error of a few
# millimetres, like the 2.5 mm median that detect reaches on default_rig.
LARGE_CENTER_SIGMA = 0.002
# large_rig's simulate casts 24 rays per cloud instead of 55,800, so its
# clouds hold a few ground points and are deleted unread; LiDAR detection is
# measured on the rigs. Visibility, and so the scene, does not depend on the
# ray spacing.
SPARSE_SCAN = {"az_res_deg": 30.0, "el_res_deg": 30.0}

# Pose bounds (m, deg) of the output checks, per workload:
# - default_rig: the README's few-millimetre noise-free floor (5.5 mm today);
# - noisy_rig: separates noise (37 mm today) from a wrong void or circle
#   order, which moves a pose by decimetres;
# - large_rig: 3 sigma of the injected corner noise after averaging over the
#   stations. One station's PnP at range r over inner corners spanning s is
#   off by about r^2 sigma_px / (fx s) in depth and r sigma_px / (fx s) rad
#   in tilt (55 mm, 0.46 deg at 6.8 m); a pose averages LARGE_STATIONS of
#   them, which gives 26 mm and 0.22 deg.
_FX = sim.default_intrinsics().fx
_SPAN = (TargetSpec().squares_x - 2) * TargetSpec().square_size
_DEPTH_M = LARGE_MAX_RANGE**2 * LARGE_PIXEL_SIGMA / (_FX * _SPAN)
_TILT_DEG = float(np.rad2deg(LARGE_MAX_RANGE * LARGE_PIXEL_SIGMA / (_FX * _SPAN)))
POSE_LIMITS = {
    "default_rig": (0.008, 0.1),
    "noisy_rig": (0.1, 1.0),
    "large_rig": (3 * _DEPTH_M / LARGE_STATIONS**0.5, 3 * _TILT_DEG / LARGE_STATIONS**0.5),
}
# large_rig's LiDAR-LiDAR report rows: 10 sigma of the injected noise. A
# wrong cyclic order puts centers 0.76 m or more apart.
LIDAR_PAIR_LIMIT = 10 * LARGE_CENTER_SIGMA

# Detections that fail today, (sequence, sensor) -> stage. They stay in the
# workload and count as failed until the fault is mended; a failure of any
# other detection, or of these at another stage, is a correctness error.
KNOWN_FAILURES = {
    "default_rig": {(16, "lidar1"): "window"},  # GridTooSmall, 199x202 grid
    "noisy_rig": {(16, "lidar0"): "circles"},  # InconsistentCircles
    "large_rig": {},
}


def config_for(workload: str) -> io_formats.ConfigFile:
    """The workload's config. Scene seeds are fixed (the config's seed 0), so
    the two known failures above occur on every run."""
    cfg = io_formats.default_config()
    if workload == "default_rig":
        return cfg
    if workload == "noisy_rig":
        return replace(cfg, sim={**cfg.sim, "noise": dict(RIG_NOISE)})
    if workload == "large_rig":
        cfg = io_formats.default_config(LARGE_LIDARS, LARGE_CAMERAS)
        noise = {**cfg.sim["noise"], "pixel_sigma": LARGE_PIXEL_SIGMA}
        return sparse_scan(
            replace(cfg, sim={**cfg.sim, "sequences": LARGE_STATIONS, "noise": noise})
        )
    raise ValueError(f"unknown workload {workload!r}")


def sparse_scan(cfg: io_formats.ConfigFile) -> io_formats.ConfigFile:
    return replace(cfg, sim={**cfg.sim, "scan": {**cfg.sim["scan"], **SPARSE_SCAN}})


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def lidar_records(data: Path, cfg: io_formats.ConfigFile) -> list:
    """One LiDAR record per cloud that `simulate` wrote into `data`, that is
    per visible (station, LiDAR) pair: the ground-truth circle centers, in
    their canonical order, plus noise seeded by the scene seed."""
    gt = json.loads((data / "ground_truth.json").read_text())
    rng = np.random.default_rng([int(cfg.sim["seed"]) & 0x7FFFFFFF, 7])
    records = []
    for cloud in sorted(data.glob("seq_*/cloud_lidar*.ply")):
        seq = int(cloud.parent.name.split("_")[1])
        sensor = SensorId("lidar", int(cloud.stem[len("cloud_lidar") :]))
        board, centers = checks.truth_centers(gt, cfg.target, str(sensor), seq)
        centers = centers + rng.normal(0.0, LARGE_CENTER_SIGMA, size=centers.shape)
        records.append(
            {
                "type": "lidar",
                "sequence": seq,
                "sensor": io_formats.sensor_to_json(sensor),
                "pose": io_formats.pose_to_json(board),
                "centers_3d": centers.tolist(),
                "fitness": 0.0,
            }
        )
    return records


def merge_records(detections: Path, extra: list):
    """Add records to a detections file in the order `detect` writes them:
    by sequence, LiDARs before cameras, then by sensor index."""
    doc = json.loads(detections.read_text())
    records = doc["records"] + extra
    records.sort(
        key=lambda r: (r["sequence"], r["type"] != "lidar", r["sensor"]["index"])
    )
    detections.write_text(io_formats.canonical_json({**doc, "records": records}))
