"""The JSON files the tools emit validate against the published schemas."""

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from conftest import oracle_observations, rig
from crosscal import cli, io_formats, optimizer, sim
from crosscal.geometry import Intrinsics
from crosscal.lidar import LidarParams
from crosscal.optimizer import SensorId
from crosscal.sim import NoiseModel, ScanPattern
from crosscal.target import TargetSpec

SCHEMAS = Path(__file__).parent.parent / "schemas"


def _schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def test_config_schema(tmp_path):
    path = tmp_path / "c.json"
    io_formats.write_config(path, io_formats.default_config())
    jsonschema.validate(json.loads(path.read_text()), _schema("config"))


@pytest.mark.parametrize(
    "section, cls",
    [
        (("properties", "lidar_params"), LidarParams),
        (("properties", "target"), TargetSpec),
        (("properties", "sim", "properties", "noise"), NoiseModel),
        (("properties", "sim", "properties", "scan"), ScanPattern),
        (("$defs", "intrinsics"), Intrinsics),
    ],
    ids=["lidar_params", "target", "sim.noise", "sim.scan", "intrinsics"],
)
def test_config_schema_sections_list_their_dataclass_fields(section, cls):
    """A field removed from the code cannot linger in the schema, nor the reverse."""
    node = _schema("config")
    for key in section:
        node = node[key]
    assert node["additionalProperties"] is False
    assert sorted(node["properties"]) == sorted(f.name for f in fields(cls))


def test_config_schema_sections_are_the_config_files_fields():
    """A section removed from the code cannot linger in the schema, nor the
    reverse; every section is required."""
    schema = _schema("config")
    names = sorted(f.name for f in fields(io_formats.ConfigFile))
    assert schema["additionalProperties"] is False
    assert sorted(schema["properties"]) == names
    assert sorted(schema["required"]) == names


def test_detections_and_report_schemas(tmp_path):
    scene = sim.make_scene(rig(1, 1), sequences=4, seed=3)
    obs = oracle_observations(scene)
    records = [
        io_formats.DetectionRecord(seq.sequence, s, det)
        for seq in obs
        for s, det in seq.observations.items()
    ]
    det_path = tmp_path / "d.json"
    io_formats.write_detections(det_path, records)
    jsonschema.validate(json.loads(det_path.read_text()), _schema("detections"))

    result = optimizer.solve(
        optimizer.build_problem(
            obs, SensorId("camera", 0), scene.intrinsics, optimizer.SolveParams()
        )
    )
    rep_path = tmp_path / "r.json"
    io_formats.write_report(
        result,
        rep_path,
        {
            "chain": "S1->S2->S1",
            "mode": "solved",
            "rotation_deviation_deg": 0.0,
            "translation_deviation_m": 0.0,
        },
    )
    jsonschema.validate(json.loads(rep_path.read_text()), _schema("report"))


def test_corner_files_schema(tmp_path):
    """Every corner file that `simulate` writes, with pixel noise and dropout."""
    noise = {"lidar_sigma": 0.0, "pixel_sigma": 0.5, "dropout": 0.2}
    cfg = io_formats.default_config(0, 3)
    cfg = replace(cfg, sim={**cfg.sim, "sequences": 4, "noise": noise})
    io_formats.write_config(tmp_path / "c.json", cfg)
    argv = ["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "data")]
    assert cli.main(argv) == 0
    files = sorted(tmp_path.glob("data/seq_*/corners_camera*.json"))
    assert len(files) >= 8
    for path in files:
        jsonschema.validate(json.loads(path.read_text()), _schema("corners"))
