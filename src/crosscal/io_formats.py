"""File schemas: point clouds (PLY / CSV), detection records (JSON,
schema v1), config files and calibration reports.

All JSON is serialized canonically (sorted keys, 2-space indent, trailing
newline) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import geometry
from .camera import CameraDetection, CornerObservation
from .errors import IoError, MissingField, ParseError, SchemaVersionMismatch, UnsupportedFormat
from .geometry import Intrinsics, RigidTransform
from .lidar import LidarDetection, LidarParams
from .optimizer import CalibrationResult, SensorId, SolveParams, reprojection_report
from .target import TargetSpec

SCHEMA_VERSION = "v1"


# --- canonical JSON ---------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def atomic_write(path, data: str | bytes):
    """Write text or bytes via temp file + rename so readers never see
    partial output."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


# --- point clouds -----------------------------------------------------------

# PLY scalar type names (both spellings) -> NumPy type codes, byte order apart.
_PLY_SCALARS = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}
_PLY_FORMATS = {"ascii": None, "binary_little_endian": "<", "binary_big_endian": ">"}


def write_cloud(path, cloud: np.ndarray):
    """Binary little-endian float64 PLY for .ply, CSV with x,y,z header for .csv."""
    path = Path(path)
    cloud = np.asarray(cloud, dtype="<f8").reshape(-1, 3)
    if path.suffix == ".ply":
        header = (
            "ply\n"
            "format binary_little_endian 1.0\n"
            f"element vertex {len(cloud)}\n"
            "property double x\n"
            "property double y\n"
            "property double z\n"
            "end_header\n"
        )
        atomic_write(path, header.encode("ascii") + cloud.tobytes())
    elif path.suffix == ".csv":
        body = ("%.12g,%.12g,%.12g\n" * len(cloud)) % tuple(cloud.ravel())
        atomic_write(path, "x,y,z\n" + body)
    else:
        raise UnsupportedFormat(f"unknown cloud extension {path.suffix!r}")


def read_cloud(path) -> np.ndarray:
    """(n, 3) float64 x, y, z from ASCII or binary PLY, or CSV."""
    path = Path(path)
    if path.suffix == ".ply":
        return _read_ply(path)
    if path.suffix == ".csv":
        return _read_csv(path)
    raise UnsupportedFormat(f"unknown cloud extension {path.suffix!r}")


def _read_ply_header(data: bytes):
    """-> (format, vertex count, {property: type code}, body offset, header lines).

    Only the vertex element is read, so it must come first and hold scalar
    properties; elements after it are ignored.
    """
    fmt = n_vertex = None
    props = {}
    in_vertex = False
    pos = 0
    ln = 0
    while True:
        end = data.find(b"\n", pos)
        tok = data[pos : len(data) if end < 0 else end].decode("ascii", "replace").split()
        ln += 1
        if ln == 1 and tok != ["ply"]:
            raise ParseError("missing 'ply' magic", line=1)
        if tok == ["end_header"]:
            break
        if end < 0:
            raise ParseError("unterminated PLY header", line=ln)
        pos = end + 1
        if not tok:
            continue
        if tok[0] == "format":
            fmt = tok[1] if len(tok) > 1 else None
            if fmt not in _PLY_FORMATS:
                raise UnsupportedFormat(f"PLY format {fmt!r} not supported")
        elif tok[0] == "element":
            if len(tok) != 3 or not tok[2].isdigit():
                raise ParseError("malformed PLY element line", line=ln)
            in_vertex = tok[1] == "vertex"
            if in_vertex:
                n_vertex = int(tok[2])
            elif n_vertex is None:
                raise UnsupportedFormat(f"PLY element {tok[1]!r} before the vertex element")
        elif tok[0] == "property" and in_vertex:
            if len(tok) > 1 and tok[1] == "list":
                raise UnsupportedFormat("PLY list property in the vertex element")
            if len(tok) != 3 or tok[1] not in _PLY_SCALARS:
                raise UnsupportedFormat(f"PLY property {' '.join(tok[1:])!r} not supported")
            if tok[2] in props:
                raise ParseError(f"duplicate PLY property {tok[2]!r}", line=ln)
            props[tok[2]] = _PLY_SCALARS[tok[1]]
    if fmt is None or n_vertex is None:
        raise ParseError("PLY header lacks a format or vertex element", line=ln)
    if not {"x", "y", "z"} <= props.keys():
        raise ParseError("PLY vertex element lacks x/y/z properties", line=ln)
    return fmt, n_vertex, props, len(data) if end < 0 else end + 1, ln


def _read_ply(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    fmt, n_vertex, props, offset, header_end = _read_ply_header(data)
    endian = _PLY_FORMATS[fmt]
    if endian is not None:
        vertex = np.dtype([(name, endian + code) for name, code in props.items()])
        if len(data) - offset < n_vertex * vertex.itemsize:
            raise ParseError("binary PLY body shorter than declared", line=header_end)
        rows = np.frombuffer(data, vertex, count=n_vertex, offset=offset)
        return np.column_stack([rows[c] for c in ("x", "y", "z")]).astype(np.float64, copy=False)

    cols = [list(props).index(c) for c in ("x", "y", "z")]
    lines = data[offset:].decode("ascii", "replace").splitlines()
    if len(lines) < n_vertex:
        raise ParseError("fewer vertex rows than declared", line=header_end + len(lines))
    body = lines[:n_vertex]
    # Whole body parsed at once; any mismatch falls back to the per-line
    # loop for a precise error location.
    try:
        flat = np.array(" ".join(body).split(), dtype=float)
    except ValueError:
        flat = np.empty(0)
    if flat.size == n_vertex * len(props):
        return flat.reshape(n_vertex, len(props))[:, cols]
    out = np.zeros((n_vertex, 3))
    for i, line in enumerate(body):
        tok = line.split()
        try:
            out[i] = [float(tok[c]) for c in cols]
        except (ValueError, IndexError):
            raise ParseError("malformed vertex row", line=header_end + i + 1)
    return out


def _read_csv(path) -> np.ndarray:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or [c.strip() for c in lines[0].split(",")[:3]] != ["x", "y", "z"]:
        raise ParseError("CSV cloud must start with 'x,y,z' header", line=1)
    out = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tok = line.split(",")
        try:
            out.append([float(tok[0]), float(tok[1]), float(tok[2])])
        except (ValueError, IndexError):
            raise ParseError("malformed row", line=ln)
    return np.asarray(out, dtype=float).reshape(-1, 3)


# --- poses / common pieces --------------------------------------------------

def pose_to_json(t: RigidTransform) -> dict:
    e = geometry.euler_xyz_from_rotation(t.rotation)
    return {
        "translation": [float(v) for v in t.translation],
        "euler_xyz_deg": [float(e.rx), float(e.ry), float(e.rz)],
    }


def pose_from_json(d: dict) -> RigidTransform:
    rot = geometry.rotation_from_euler_xyz(*d["euler_xyz_deg"])
    return RigidTransform(rot, np.asarray(d["translation"], dtype=float))


def _load_json(path):
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(e.msg, line=e.lineno) from e
        except UnicodeDecodeError as e:
            raise ParseError(str(e)) from e


def read_corners(path) -> list:
    """A camera's checker-corner detections, [CornerObservation], from a
    `corners_camera*.json` file: {"corners": [{"id": int, "uv": [u, v]}, ...]}."""
    doc = _load_json(path)
    try:
        return [
            CornerObservation(int(c["id"]), (float(c["uv"][0]), float(c["uv"][1])))
            for c in doc["corners"]
        ]
    except KeyError as e:
        raise MissingField(f"{e} in {Path(path).name}") from e
    except (TypeError, ValueError, IndexError) as e:
        raise ParseError(f"malformed corner in {Path(path).name}: {e}") from e


def read_board_init(path) -> RigidTransform:
    """A LiDAR's rough board pose from an `init_lidar*.json` file: {"pose": pose}."""
    doc = _load_json(path)
    try:
        return pose_from_json(doc["pose"])
    except KeyError as e:
        raise MissingField(f"{e} in {Path(path).name}") from e
    except (TypeError, ValueError) as e:
        raise ParseError(f"malformed pose in {Path(path).name}: {e}") from e


def sensor_to_json(s: SensorId) -> dict:
    return {"kind": s.kind, "index": s.index}


def sensor_from_json(d: dict) -> SensorId:
    return SensorId(d["kind"], int(d["index"]))


# --- detection records ------------------------------------------------------

@dataclass(frozen=True)
class DetectionRecord:
    sequence: int
    sensor: SensorId
    detection: object  # LidarDetection | CameraDetection


_LIDAR_FIELDS = {"type", "sequence", "sensor", "pose", "centers_3d", "fitness"}
_CAMERA_FIELDS = {
    "type",
    "sequence",
    "sensor",
    "pose",
    "centers_3d",
    "centers_2d",
    "reprojection_error",
    "corners_used",
}


def _record_to_json(rec: DetectionRecord) -> dict:
    det = rec.detection
    base = {
        "sequence": rec.sequence,
        "sensor": sensor_to_json(rec.sensor),
        "pose": pose_to_json(det.pose),
    }
    if isinstance(det, LidarDetection):
        base["type"] = "lidar"
        base["centers_3d"] = [[float(v) for v in c] for c in det.centers]
        base["fitness"] = float(det.fitness)
    else:
        base["type"] = "camera"
        base["centers_3d"] = [[float(v) for v in c] for c in det.centers_3d]
        base["centers_2d"] = [[float(v) for v in c] for c in det.centers_2d]
        base["reprojection_error"] = float(det.reprojection_error)
        base["corners_used"] = int(det.corners_used)
    return base


def _record_from_json(d: dict, strict: bool) -> DetectionRecord:
    for key in ("type", "sequence", "sensor", "pose", "centers_3d"):
        if key not in d:
            raise MissingField(key)
    kind = d["type"]
    allowed = _LIDAR_FIELDS if kind == "lidar" else _CAMERA_FIELDS
    if strict:
        unknown = set(d) - allowed
        if unknown:
            raise ParseError(f"unknown fields in strict mode: {sorted(unknown)}")
    centers = np.asarray(d["centers_3d"], dtype=float)
    if centers.shape != (4, 3):
        raise MissingField(f"centers_3d must be 4x3, got {list(centers.shape)}")
    pose = pose_from_json(d["pose"])
    if kind == "lidar":
        if "fitness" not in d:
            raise MissingField("fitness")
        det = LidarDetection(pose, centers, float(d["fitness"]))
    elif kind == "camera":
        for key in ("centers_2d", "reprojection_error", "corners_used"):
            if key not in d:
                raise MissingField(key)
        c2 = np.asarray(d["centers_2d"], dtype=float)
        if c2.shape != (4, 2):
            raise MissingField(f"centers_2d must be 4x2, got {list(c2.shape)}")
        det = CameraDetection(pose, centers, c2, float(d["reprojection_error"]), int(d["corners_used"]))
    else:
        raise ParseError(f"unknown record type {kind!r}")
    return DetectionRecord(int(d["sequence"]), sensor_from_json(d["sensor"]), det)


def write_detections(path, records):
    doc = {"version": SCHEMA_VERSION, "records": [_record_to_json(r) for r in records]}
    atomic_write(path, canonical_json(doc))


def read_detections(path, strict: bool = False):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("version") != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"expected {SCHEMA_VERSION!r}, got {doc.get('version')!r}")
    if "records" not in doc:
        raise MissingField("records")
    return [_record_from_json(d, strict) for d in doc["records"]]


# --- config -----------------------------------------------------------------

@dataclass(frozen=True)
class SensorConfig:
    sensor: SensorId
    intrinsics: Intrinsics | None = None


@dataclass(frozen=True)
class ConfigFile:
    sensors: tuple  # of SensorConfig
    target: TargetSpec
    lidar_params: LidarParams
    solve_params: SolveParams
    reference: SensorId
    sim: dict  # simulate-only knobs: sequences, noise, scan, seed

    def __post_init__(self):
        ids = [s.sensor for s in self.sensors]
        if len(set(ids)) != len(ids):
            raise ParseError("duplicate sensor ids in config")
        for s in self.sensors:
            if (s.sensor.kind == "camera") != (s.intrinsics is not None):
                raise ParseError(f"intrinsics must be present iff camera ({s.sensor})")

    def cameras(self):
        return [s for s in self.sensors if s.sensor.kind == "camera"]

    def lidars(self):
        return [s for s in self.sensors if s.sensor.kind == "lidar"]

    def intrinsics_map(self):
        return {s.sensor: s.intrinsics for s in self.cameras()}


DEFAULT_SIM = {
    "sequences": 20,
    "seed": 0,
    "noise": {"lidar_sigma": 0.0, "pixel_sigma": 0.0, "dropout": 0.0},
    "scan": {
        "az_res_deg": 0.2,
        "el_min_deg": -15.0,
        "el_max_deg": 15.0,
        "el_res_deg": 0.2,
        "max_range": 30.0,
    },
}


def default_config(n_lidars: int = 2, m_cameras: int = 3) -> ConfigFile:
    sensors = []
    for j in range(m_cameras):
        sensors.append(
            SensorConfig(SensorId("camera", j), Intrinsics(700.0, 700.0, 639.5, 359.5, 1280, 720))
        )
    for i in range(n_lidars):
        sensors.append(SensorConfig(SensorId("lidar", i)))
    return ConfigFile(
        tuple(sensors),
        TargetSpec(),
        LidarParams(),
        SolveParams(),
        SensorId("camera", 0),
        dict(DEFAULT_SIM),
    )


def config_to_json(cfg: ConfigFile) -> dict:
    sensors = []
    for s in cfg.sensors:
        d = {"kind": s.sensor.kind, "index": s.sensor.index}
        if s.intrinsics is not None:
            d["intrinsics"] = asdict(s.intrinsics)
        sensors.append(d)
    return {
        "sensors": sensors,
        "target": asdict(cfg.target),
        "lidar_params": asdict(cfg.lidar_params),
        "solve_params": asdict(cfg.solve_params),
        "reference": sensor_to_json(cfg.reference),
        "sim": cfg.sim,
    }


def _reject_unknown(d: dict, names, what: str):
    unknown = set(d) - set(names)
    if unknown:
        raise ParseError(f"unknown {what} fields: {sorted(unknown)}")


def _dataclass_from(d: dict, cls, what: str):
    _reject_unknown(d, [f.name for f in fields(cls)], what)
    return cls(**d)


def config_from_json(doc: dict) -> ConfigFile:
    try:
        sensors = []
        for d in doc["sensors"]:
            _reject_unknown(d, ("kind", "index", "intrinsics"), "sensor")
            intr = _dataclass_from(d["intrinsics"], Intrinsics, "intrinsics") if "intrinsics" in d else None
            sensors.append(SensorConfig(SensorId(d["kind"], int(d["index"])), intr))
        d2 = doc.get("target", {})
        if "circle_offsets" in d2:
            d2 = {**d2, "circle_offsets": tuple(map(tuple, d2["circle_offsets"]))}
        spec = _dataclass_from(d2, TargetSpec, "target")
        lp = _dataclass_from(doc.get("lidar_params", {}), LidarParams, "lidar_params")
        sp = _dataclass_from(doc.get("solve_params", {}), SolveParams, "solve_params")
        ref = sensor_from_json(doc["reference"])
        sim = {**DEFAULT_SIM, **doc.get("sim", {})}
        sim["noise"] = {**DEFAULT_SIM["noise"], **sim.get("noise", {})}
        sim["scan"] = {**DEFAULT_SIM["scan"], **sim.get("scan", {})}
        return ConfigFile(tuple(sensors), spec, lp, sp, ref, sim)
    except KeyError as e:
        raise MissingField(str(e)) from e
    except TypeError as e:
        raise ParseError(str(e)) from e


def read_config(path) -> ConfigFile:
    return config_from_json(_load_json(path))


def write_config(path, cfg: ConfigFile):
    atomic_write(path, canonical_json(config_to_json(cfg)))


# --- calibration reports ----------------------------------------------------

def format_pose_row(t: RigidTransform) -> str:
    """Translation to 4 decimals, Euler XYZ degrees to 3."""
    e = geometry.euler_xyz_from_rotation(t.rotation)
    # adding 0.0 after rounding turns -0.0 into 0.0 so identity rows print
    # without stray minus signs
    tx, ty, tz = (round(float(v), 4) + 0.0 for v in t.translation)
    rx, ry, rz = (round(float(v), 3) + 0.0 for v in (e.rx, e.ry, e.rz))
    return f"({tx:.4f}, {ty:.4f}, {tz:.4f}) / ({rx:.3f}, {ry:.3f}, {rz:.3f})"


def report_to_json(result: CalibrationResult, consistency: dict | None = None) -> dict:
    problem = result.problem
    poses = {}
    for s in problem.sensors:
        poses[str(s)] = {
            "display": problem.display_name(s),
            **pose_to_json(result.poses[s]),
        }
    rows = [
        {"sequence": seq, "pair": f"{a}-{b}", "errors_m": [round(v, 6) for v in errs]}
        for seq, a, b, errs in reprojection_report(result)
    ]
    return {
        "euler_convention": "intrinsic XYZ, degrees",
        "reference": str(problem.reference),
        "poses": poses,
        "reprojection_errors": rows,
        "consistency": consistency or {},
        "solver": {
            "final_cost": result.final_cost,
            "initial_cost": result.initial_cost,
            "iterations": result.iterations,
            "converged": result.converged,
            "gradient_norm": result.gradient_norm,
            **result.metadata,
        },
    }


def format_report_text(doc: dict) -> str:
    lines = ["Calibration results (reference: %s)" % doc["reference"], ""]
    lines.append("Sensor poses (translation x,y,z [m] / Euler XYZ [deg]):")
    for name in sorted(doc["poses"], key=lambda n: doc["poses"][n]["display"]):
        p = doc["poses"][name]
        pose = pose_from_json(p)
        lines.append(f"  {p['display']} {name}: {format_pose_row(pose)}")
    lines.append("")
    lines.append("Reprojection errors per sequence and sensor pair (m):")
    for row in doc["reprojection_errors"]:
        errs = ", ".join(f"{v:.4f}" for v in row["errors_m"])
        lines.append(f"  seq {row['sequence']}: {row['pair']}, [{errs}]")
    if doc["consistency"]:
        lines.append("")
        lines.append("Consistency check:")
        for key, val in sorted(doc["consistency"].items()):
            lines.append(f"  {key}: {val}")
    return "\n".join(lines) + "\n"


def write_report(result: CalibrationResult, path, consistency: dict | None = None):
    """JSON report at `path`, human-readable table alongside as .txt."""
    path = Path(path)
    doc = report_to_json(result, consistency)
    atomic_write(path, canonical_json(doc))
    atomic_write(path.with_suffix(".txt"), format_report_text(doc))
    return doc


def read_report(path) -> dict:
    with open(path) as f:
        return json.load(f)
