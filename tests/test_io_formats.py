"""io_formats: cloud files, detection records, config, report rendering."""

import json

import numpy as np
import pytest

from conftest import matrix, rig
from crosscal import geometry, io_formats
from crosscal.camera import CameraDetection
from crosscal.errors import (
    MissingField,
    ParseError,
    SchemaVersionMismatch,
    UnsupportedFormat,
)
from crosscal.geometry import Intrinsics, RigidTransform
from crosscal.lidar import LidarDetection
from crosscal.optimizer import SensorId
from crosscal.target import TargetSpec


# --- clouds -----------------------------------------------------------------

def test_ply_round_trip_1000_points(tmp_path):
    rng = np.random.default_rng(0)
    cloud = rng.uniform(-10, 10, size=(1000, 3))
    path = tmp_path / "c.ply"
    io_formats.write_cloud(path, cloud)
    back = io_formats.read_cloud(path)
    assert back.shape == (1000, 3) and back.dtype == np.float64
    # written as float32, rounded once to nearest; read back widened exactly
    assert np.array_equal(back, cloud.astype(np.float32).astype(np.float64))


def test_ply_written_as_binary_little_endian_float32(tmp_path):
    cloud = np.array([[1.0, -2.5, 3.25], [0.1, 0.2, 0.3]])
    path = tmp_path / "c.ply"
    # float64, a strided view, big-endian float32 and no points at all
    for given in (cloud, np.repeat(cloud, 2, axis=0)[::2], cloud.astype(">f4"), cloud[:0]):
        io_formats.write_cloud(path, given)
        header = (
            f"ply\nformat binary_little_endian 1.0\nelement vertex {len(given)}\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        ).encode()
        assert path.read_bytes() == header + given.astype("<f4").tobytes()


def test_float64_ply_of_earlier_versions_reads_bit_exact(tmp_path):
    cloud = np.random.default_rng(1).uniform(-30, 30, size=(1000, 3))
    path = tmp_path / "c.ply"
    _write_ply(
        path,
        ["format binary_little_endian 1.0", "element vertex 1000", *XYZ_DOUBLE],
        cloud.astype("<f8").tobytes(),
    )
    assert np.array_equal(io_formats.read_cloud(path), cloud)


def test_ply_extra_properties_ignored(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float nx\nproperty float x\nproperty float y\n"
        "property float z\nproperty float intensity\nend_header\n"
        "9 1 2 3 0.5\n9 4 5 6 0.5\n"
    )
    cloud = io_formats.read_cloud(path)
    assert np.array_equal(cloud, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def _write_ply(path, header_lines, body: bytes):
    path.write_bytes(("\n".join(["ply", *header_lines, "end_header"]) + "\n").encode() + body)


XYZ_DOUBLE = ["property double x", "property double y", "property double z"]


def test_binary_big_endian_float_with_extra_properties(tmp_path):
    rows = np.array(
        [(1.5, -2.25, 3.0, 7), (-0.5, 0.125, 8.0, 255)],
        dtype=[("x", ">f4"), ("y", ">f4"), ("z", ">f4"), ("intensity", "u1")],
    )
    path = tmp_path / "c.ply"
    header = [
        "format binary_big_endian 1.0",
        "comment scanner output",
        "element vertex 2",
        "property float x",
        "property float y",
        "property float z",
        "property uchar intensity",
        "element face 1",  # after the vertex element: not read
        "property list uchar int vertex_indices",
    ]
    face = bytes([3]) + np.array([0, 1, 2], dtype=">i4").tobytes()
    _write_ply(path, header, rows.tobytes() + face)
    cloud = io_formats.read_cloud(path)
    assert cloud.dtype == np.float64
    assert np.array_equal(cloud, [[1.5, -2.25, 3.0], [-0.5, 0.125, 8.0]])


def test_binary_ply_truncated_body(tmp_path):
    path = tmp_path / "c.ply"
    body = np.zeros((2, 3), dtype="<f8").tobytes()[:-1]
    _write_ply(path, ["format binary_little_endian 1.0", "element vertex 2", *XYZ_DOUBLE], body)
    with pytest.raises(ParseError):
        io_formats.read_cloud(path)


@pytest.mark.parametrize(
    "header",
    [
        ["element vertex 1", *XYZ_DOUBLE, "property list uchar int idx"],
        ["element camera 1", "property float k", "element vertex 1", *XYZ_DOUBLE],
    ],
    ids=["list-property", "element-before-vertex"],
)
@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
def test_ply_unsupported_layouts(tmp_path, header, fmt):
    path = tmp_path / "c.ply"
    _write_ply(path, [f"format {fmt} 1.0", *header], b"0 0 0 0\n" * 8)
    with pytest.raises(UnsupportedFormat):
        io_formats.read_cloud(path)


def test_unknown_extension(tmp_path):
    for name in ("c.xyz", "c.csv"):
        with pytest.raises(UnsupportedFormat):
            io_formats.write_cloud(tmp_path / name, np.zeros((1, 3)))
        with pytest.raises(UnsupportedFormat):
            io_formats.read_cloud(tmp_path / name)


def test_ply_malformed_row_has_line_number(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n"
        "1 2 3\n4 oops 6\n"
    )
    with pytest.raises(ParseError) as ei:
        io_formats.read_cloud(path)
    assert ei.value.line == 9


def test_ply_ascii_rows_must_hold_the_declared_values(tmp_path):
    # 6 values for 2 rows of 3, but split 4 + 2: not the points (1,2,3), (4,5,6)
    path = tmp_path / "c.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n"
        "1 2 3 4\n5 6\n"
    )
    with pytest.raises(ParseError, match="row has 4 values, 3 declared in c.ply") as ei:
        io_formats.read_cloud(path)
    assert ei.value.line == 8


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian", "binary_big_endian"])
def test_ply_non_finite_coordinate(tmp_path, fmt, value):
    cloud = np.arange(9, dtype=float).reshape(3, 3)
    cloud[1, 2] = value
    path = tmp_path / "c.ply"
    header = [f"format {fmt} 1.0", "element vertex 3", *XYZ_DOUBLE]
    if fmt == "ascii":
        body = "".join(" ".join(map(str, row)) + "\n" for row in cloud).encode()
    else:
        body = cloud.astype(("<" if fmt == "binary_little_endian" else ">") + "f8").tobytes()
    _write_ply(path, header, body)
    with pytest.raises(ParseError, match="vertex 1 has a non-finite coordinate in c.ply") as ei:
        io_formats.read_cloud(path)
    assert ei.value.line == (9 if fmt == "ascii" else None)


@pytest.mark.parametrize("row", [0, 2, 4])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_written_cloud_with_a_non_finite_coordinate_names_its_vertex(tmp_path, row, value):
    cloud = np.arange(15, dtype=float).reshape(5, 3)
    cloud[row, (row + 1) % 3] = value
    path = tmp_path / "c.ply"
    io_formats.write_cloud(path, cloud)  # float32 x, y, z: read as one (n, 3) array
    with pytest.raises(ParseError, match=f"vertex {row} has a non-finite coordinate in c.ply") as ei:
        io_formats.read_cloud(path)
    assert ei.value.line is None


_PLY_TYPE = {"f4": "float", "f8": "double"}


@pytest.mark.parametrize(
    "layout",
    [
        [("x", "<f4"), ("y", "<f4"), ("z", "<f4")],
        [("x", "<f8"), ("y", "<f8"), ("z", "<f8")],
        [("x", ">f4"), ("y", ">f4"), ("z", ">f4")],
        [("y", "<f4"), ("x", "<f4"), ("z", "<f4")],
        [("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("intensity", "<f4")],
    ],
    ids=["written", "float64", "big-endian", "yxz", "extra-property"],
)
def test_binary_layouts_read_bit_equal_to_the_per_column_widening(tmp_path, layout):
    values = np.random.default_rng(3).uniform(-30, 30, size=(500, 3)).astype(np.float32)
    rows = np.zeros(len(values), dtype=layout)
    for i, c in enumerate("xyz"):
        rows[c] = values[:, i]
    fmt = "binary_big_endian" if layout[0][1][0] == ">" else "binary_little_endian"
    props = [f"property {_PLY_TYPE[code[1:]]} {name}" for name, code in layout]
    path = tmp_path / "c.ply"
    _write_ply(path, [f"format {fmt} 1.0", f"element vertex {len(rows)}", *props], rows.tobytes())
    want = np.empty((len(rows), 3))
    for i, c in enumerate("xyz"):
        want[:, i] = rows[c]
    cloud = io_formats.read_cloud(path)
    assert cloud.dtype == np.float64 and cloud.flags.c_contiguous and cloud.flags.writeable
    assert cloud.tobytes() == want.tobytes()


def test_ply_truncated_body(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n"
        "1 2 3\n"
    )
    with pytest.raises(ParseError):
        io_formats.read_cloud(path)


# --- poses / detections -----------------------------------------------------

def _sample_records():
    pose_l = RigidTransform(geometry.rot_z(0.3), np.array([1.0, 2.0, 3.0]))
    pose_c = RigidTransform(geometry.rot_x(-0.2), np.array([0.1, 0.2, 0.3]))
    centers = np.arange(12, dtype=float).reshape(4, 3)
    c2 = np.arange(8, dtype=float).reshape(4, 2)
    return [
        io_formats.DetectionRecord(0, SensorId("lidar", 0), LidarDetection(pose_l, centers, 1e-5)),
        io_formats.DetectionRecord(
            0, SensorId("camera", 1), CameraDetection(pose_c, centers, c2, 0.2, 49)
        ),
    ]


# --- corner files -----------------------------------------------------------

def test_corner_columns_read_as_arrays(tmp_path):
    """Two columns, row k corner k; integral floats are integer ids, and a
    file without corners reads as empty arrays of the same shapes."""
    path = tmp_path / "corners_camera0.json"
    path.write_text('{"ids": [3, 1.0, 48], "uv": [[1, 2.5], [3.0, 4], [-1e3, 7]]}')
    ids, uv = io_formats.read_corners(path, TargetSpec())
    assert ids.dtype.kind == "i" and ids.tolist() == [3, 1, 48]
    assert uv.dtype == np.float64 and uv.tolist() == [[1.0, 2.5], [3.0, 4.0], [-1e3, 7.0]]
    path.write_text('{"ids": [], "uv": []}')
    ids, uv = io_formats.read_corners(path, TargetSpec())
    assert ids.shape == (0,) and uv.shape == (0, 2)


def test_corner_id_bound_is_the_corner_table_length(tmp_path):
    """read_corners takes the ids [0, n) of the board's corner table: 24
    rows on a 5 x 7 board."""
    spec = TargetSpec(squares_x=5, squares_y=7)
    path = tmp_path / "corners_camera0.json"
    path.write_text('{"ids": [0, 23], "uv": [[1, 2], [3, 4]]}')
    assert io_formats.read_corners(path, spec)[0].tolist() == [0, 23]
    path.write_text('{"ids": [0, 24], "uv": [[1, 2], [3, 4]]}')
    with pytest.raises(ParseError, match=r"corner id 24 is not in \[0, 24\)"):
        io_formats.read_corners(path, spec)


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ({"corners": [{"id": 0, "uv": [1.0, 2.0]}]}, MissingField, "'ids' in corners_camera0.json"),
        ({"ids": [0, 1], "uv": [[1.0, 2.0]]}, ParseError, "2 ids but 1 uv pairs"),
        ({"ids": [0, True], "uv": [[1, 2], [3, 4]]}, ParseError, "corner id True is not an integer"),
        ({"ids": [0, 49], "uv": [[1, 2], [3, 4]]}, ParseError, r"corner id 49 is not in \[0, 49\)"),
        ({"ids": [5, 2, 5], "uv": [[1, 2]] * 3}, ParseError, "corner id 5 repeated"),
        ({"ids": [0, 7], "uv": [[1, 2], [3]]}, MissingField, "uv of corner 7 must be 2"),
        ({"ids": [0, 7], "uv": [[1, 2], [3, "4"]]}, ParseError, "uv of corner 7 .* is not a number"),
        ({"ids": [0, 7], "uv": [[1, 2], [3, float("inf")]]}, ParseError, "uv of corner 7 is not finite"),
        ({"ids": {}, "uv": []}, ParseError, "ids must be a list, got dict"),
    ],
    ids=["per-corner-layout", "unequal-columns", "bool-id", "id-past-the-board", "repeated-id",
         "short-pair", "string-in-a-pair", "inf-in-a-pair", "ids-not-a-list"],
)
def test_corner_file_errors_name_the_corner_and_the_file(tmp_path, doc, error, message):
    path = tmp_path / "corners_camera0.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match=message) as info:
        io_formats.read_corners(path, TargetSpec())
    assert path.name in str(info.value)


def test_pose_json_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        from conftest import random_rigid

        t = random_rigid(rng)
        back = io_formats.pose_from_json(io_formats.pose_to_json(t))
        assert np.abs(matrix(back) - matrix(t)).max() < 1e-9


def test_detections_round_trip_byte_equal(tmp_path):
    recs = _sample_records()
    p1, p2 = tmp_path / "d1.json", tmp_path / "d2.json"
    io_formats.write_detections(p1, recs)
    back = io_formats.read_detections(p1)
    io_formats.write_detections(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_detections_mixed_variants_parse(tmp_path):
    path = tmp_path / "d.json"
    io_formats.write_detections(path, _sample_records())
    back = io_formats.read_detections(path)
    assert isinstance(back[0].detection, LidarDetection)
    assert isinstance(back[1].detection, CameraDetection)
    assert back[0].sensor == SensorId("lidar", 0)
    assert back[1].detection.corners_used == 49
    assert np.allclose(back[0].detection.centers, np.arange(12).reshape(4, 3))


def test_detections_three_centers_missing_field(tmp_path):
    path = tmp_path / "d.json"
    io_formats.write_detections(path, _sample_records())
    doc = json.loads(path.read_text())
    doc["records"][0]["centers_3d"] = doc["records"][0]["centers_3d"][:3]
    path.write_text(json.dumps(doc))
    with pytest.raises(MissingField):
        io_formats.read_detections(path)


def test_detections_strict_mode_rejects_unknown_fields(tmp_path):
    path = tmp_path / "d.json"
    io_formats.write_detections(path, _sample_records())
    doc = json.loads(path.read_text())
    doc["records"][0]["extra"] = 1
    path.write_text(json.dumps(doc))
    io_formats.read_detections(path)  # lax mode tolerates it
    with pytest.raises(ParseError):
        io_formats.read_detections(path, strict=True)


def test_detections_version_mismatch(tmp_path):
    path = tmp_path / "d.json"
    io_formats.write_detections(path, _sample_records())
    doc = json.loads(path.read_text())
    doc["version"] = "v2"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaVersionMismatch):
        io_formats.read_detections(path)


_DELETE = object()


def _edited(doc, path, value):
    """doc with the node at `path` deleted (value _DELETE) or replaced."""
    if not path:
        return value
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    return doc


@pytest.mark.parametrize(
    "path, value, error",
    [
        (("records", 0, "pose"), _DELETE, MissingField),
        (("records", 0, "pose", "euler_xyz_deg"), _DELETE, MissingField),
        (("records", 1, "sensor", "kind"), _DELETE, MissingField),
        ((), [], ParseError),
        (("records",), 5, ParseError),
        (("records", 0, "pose"), "x", ParseError),
    ],
    ids=[
        "no-pose",
        "pose-without-euler",
        "sensor-without-kind",
        "document-a-list",
        "records-a-number",
        "pose-a-string",
    ],
)
def test_detections_missing_required_key(tmp_path, path, value, error):
    file = tmp_path / "d.json"
    io_formats.write_detections(file, _sample_records())
    doc = _edited(json.loads(file.read_text()), path, value)
    file.write_text(json.dumps(doc))
    with pytest.raises(error):
        io_formats.read_detections(file)


# --- config -----------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = io_formats.default_config()
    path = tmp_path / "config.json"
    io_formats.write_config(path, cfg)
    back = io_formats.read_config(path)
    assert back == cfg
    # and byte-stable
    path2 = tmp_path / "config2.json"
    io_formats.write_config(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_default_configs_share_no_sim_dicts():
    before = json.dumps(io_formats.DEFAULT_SIM, sort_keys=True)
    cfg = io_formats.default_config()
    cfg.sim["noise"]["lidar_sigma"] = 0.01
    cfg.sim["scan"].update(az_res_deg=1.0)
    io_formats.config_to_json(cfg)["sim"]["noise"]["dropout"] = 0.5
    assert json.dumps(io_formats.DEFAULT_SIM, sort_keys=True) == before
    assert io_formats.default_config().sim == json.loads(before)


def test_config_sim_integers_as_json_schema_has_them():
    # JSON Schema counts 2.0 as an integer; 1.5 and the rest are cases of
    # test_cli.py::test_simulate_malformed_sim_section_exit_2
    doc = io_formats.config_to_json(io_formats.default_config())
    doc["sim"].update(sequences=2.0, seed=0.0)
    assert io_formats.config_from_json(doc).sim["sequences"] == 2


def test_config_duplicate_sensor_ids():
    # the decoder builds the sensor table, so it is the one to see a repeat
    doc = io_formats.config_to_json(io_formats.default_config(n_lidars=2, m_cameras=0))
    doc["sensors"].append(dict(doc["sensors"][0]))
    with pytest.raises(ParseError, match="duplicate sensor ids in config: lidar0"):
        io_formats.config_from_json(doc)


def test_config_reference_is_one_of_its_sensors():
    """`default_config` takes the first sensor in display order (camera0 when
    there are cameras, lidar0 otherwise); a config naming another is refused."""
    assert io_formats.default_config().reference == SensorId("camera", 0)
    assert io_formats.default_config(2, 0).reference == SensorId("lidar", 0)
    doc = io_formats.config_to_json(io_formats.default_config())
    doc["reference"] = {"kind": "lidar", "index": 2}
    with pytest.raises(ParseError, match="reference lidar2 is not one of the config's sensors"):
        io_formats.config_from_json(doc)


def test_config_intrinsics_iff_camera():
    lidar = {SensorId("lidar", 1): None}  # a valid second sensor
    cam_no_intr = {SensorId("camera", 0): None}
    lidar_with_intr = {SensorId("lidar", 0): Intrinsics(700.0, 700.0, 639.5, 359.5, 1280, 720)}
    for bad in (cam_no_intr, lidar_with_intr):
        with pytest.raises(ParseError, match="intrinsics must be present iff camera"):
            io_formats.ConfigFile(
                {**bad, **lidar},
                io_formats.TargetSpec(),
                io_formats.LidarParams(),
                next(iter(bad)),
                dict(io_formats.DEFAULT_SIM),
            )


def test_config_unknown_field_rejected(tmp_path):
    cfg = io_formats.default_config()
    doc = io_formats.config_to_json(cfg)
    doc["lidar_params"]["bogus"] = 1
    with pytest.raises(ParseError):
        io_formats.config_from_json(doc)
    # sensor entries too: a config still carrying the removed initial_pose fails loudly
    doc = io_formats.config_to_json(cfg)
    doc["sensors"][-1]["initial_pose"] = {"translation": [0, 0, 0], "euler_xyz_deg": [0, 0, 0]}
    with pytest.raises(ParseError, match="initial_pose"):
        io_formats.config_from_json(doc)
    # so does one still carrying the removed section of the global solve's
    # settings, with any of the settings it held
    for key in (
        "max_iter",
        "gradient_tol",
        "lm_lambda_init",
        "camera_residual_weight",
        "lidar_residual_weight",
        "huber_delta",
    ):
        doc = io_formats.config_to_json(cfg)
        doc["solve_params"] = {key: 1.0}
        with pytest.raises(ParseError, match=r"unknown config fields: \['solve_params'\]"):
            io_formats.config_from_json(doc)
    # and a misspelled section, whose settings would otherwise give way to the defaults
    doc = io_formats.config_to_json(cfg)
    doc["lidar_param"] = {"d_max": 3.0}
    with pytest.raises(ParseError, match="lidar_param"):
        io_formats.config_from_json(doc)


# --- report formatting ------------------------------------------------------

def test_format_pose_row_table_style():
    pose = {"translation": [-0.6165, 0.2887, 0.1292], "euler_xyz_deg": [110.80, -1.609, -87.738]}
    row = io_formats.format_pose_row(pose)
    assert row == "(-0.6165, 0.2887, 0.1292) / (110.800, -1.609, -87.738)"


def test_format_pose_row_identity():
    """Identity's angles include -0.0, and small negatives round to -0.0:
    each prints without a minus sign."""
    row = io_formats.format_pose_row(io_formats.pose_to_json(RigidTransform.identity()))
    assert row == "(0.0000, 0.0000, 0.0000) / (0.000, 0.000, 0.000)"
    pose = {"translation": [-0.0, -0.00004, 1e-9], "euler_xyz_deg": [-0.0, -0.0004, 0.0]}
    assert io_formats.format_pose_row(pose) == row


def test_format_pose_row_at_gimbal_lock():
    """The report's angles at ry = 90 deg, where rz is fixed to 0, print as
    the rotation's own angles did."""
    t = RigidTransform(geometry.rotation_from_euler_xyz(30.0, 90.0, 40.0), [1.23456, -0.00004, 2.0])
    row = io_formats.format_pose_row(io_formats.pose_to_json(t))
    assert row == "(1.2346, 0.0000, 2.0000) / (70.000, 90.000, 0.000)"


def test_report_text_lists_poses_by_display_number():
    # 11 sensors, given in reverse: S10 and S11 come after S9, not after S1
    names = [f"camera{j}" for j in range(6)] + [f"lidar{i}" for i in range(5)]
    pose = io_formats.pose_to_json(RigidTransform.identity())
    doc = {
        "reference": "camera0",
        "poses": {n: {"display": f"S{k + 1}", **pose} for k, n in reversed(list(enumerate(names)))},
        "reprojection_errors": [],
        "consistency": {},
    }
    rows = [line.split()[:2] for line in io_formats.format_report_text(doc).splitlines()[3:14]]
    assert rows == [[f"S{k + 1}", f"{n}:"] for k, n in enumerate(names)]


def test_report_round_trip(tmp_path):
    from conftest import oracle_observations
    from crosscal import optimizer, sim

    scene = sim.make_scene(rig(1, 1), sequences=4, seed=3)
    problem = optimizer.build_problem(
        oracle_observations(scene), SensorId("camera", 0), scene.intrinsics
    )
    result = optimizer.solve(problem)
    path = tmp_path / "report.json"
    consistency = {"chain": "S1->S2->S1", "mode": "solved"}
    assert io_formats.report_paths(path) == [path, tmp_path / "report.txt"]
    io_formats.write_report(result, path, consistency)
    assert path.exists() and path.with_suffix(".txt").exists()
    doc = io_formats.report_to_json(result, consistency)
    back = json.loads(path.read_text())
    assert back == doc
    assert back["reference"] == "camera0"
    assert back["euler_convention"] == "intrinsic XYZ, degrees"
    assert set(back["poses"]) == {"camera0", "lidar0"}
    # re-read poses equal within printed precision
    for name, p in back["poses"].items():
        t = io_formats.pose_from_json(p)
        orig = result.poses[SensorId(name[:-1], int(name[-1]))]
        assert np.abs(t.translation - orig.translation).max() < 1e-9
    # reprojection rows carry "Si-Sj" pair labels and 4 rounded errors
    row = back["reprojection_errors"][0]
    assert row["pair"] == "S1-S2"
    assert len(row["errors_m"]) == 4
    assert doc["solver"]["converged"]
