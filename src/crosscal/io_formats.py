"""File schemas: point clouds (PLY), detection records (JSON,
schema v1), config files and calibration reports.

All JSON is serialized canonically (sorted keys, 2-space indent, trailing
newline) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import geometry
from .camera import CameraDetection
from .errors import IoError, MissingField, ParseError, SchemaVersionMismatch, UnsupportedFormat
from .geometry import Intrinsics, RigidTransform
from .lidar import LidarDetection, LidarParams
from .optimizer import CalibrationResult, SensorId, SolveParams, reprojection_report
from .sim import NoiseModel, ScanPattern, default_intrinsics
from .target import TargetSpec

SCHEMA_VERSION = "v1"


# --- canonical JSON ---------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def atomic_write(path, data: str | bytes):
    """Write text or bytes via temp file + rename so readers never see
    partial output; missing parent directories are created."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def _read(path, mode: str):
    """The contents of the input file `path`, opened with `mode`."""
    try:
        with open(path, mode) as f:
            return f.read()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e.strerror}") from e


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
    """Binary little-endian float32 PLY; `path` must end in .ply.

    float32 is what LiDAR drivers publish. Rounding to nearest moves a
    coordinate within a 30 m range by at most 0.95 µm, far below the 5 mm
    occupancy cell and range noise, and halves the file against float64."""
    path = Path(path)
    if path.suffix != ".ply":
        raise UnsupportedFormat(f"unknown cloud extension {path.suffix!r}")
    cloud = np.ascontiguousarray(cloud, dtype="<f4").reshape(-1, 3)
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(cloud)}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n"
    )
    atomic_write(path, b"".join((header.encode("ascii"), memoryview(cloud))))  # one body copy


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


def read_cloud(path) -> np.ndarray:
    """(n, 3) float64 x, y, z from an ASCII or binary PLY of any scalar
    type. A malformed file, a vertex row of the wrong length or a
    non-finite coordinate is a ParseError naming the file."""
    path = Path(path)
    if path.suffix != ".ply":
        raise UnsupportedFormat(f"unknown cloud extension {path.suffix!r}")
    try:
        return _parse_ply(_read(path, "rb"))
    except ParseError as e:
        raise ParseError(f"{e.reason} in {path.name}", line=e.line) from e
    except UnsupportedFormat as e:
        raise UnsupportedFormat(f"{e} in {path.name}") from e


def _parse_ply(data: bytes) -> np.ndarray:
    fmt, n_vertex, props, offset, header_end = _read_ply_header(data)
    endian = _PLY_FORMATS[fmt]
    if endian is not None:
        vertex = np.dtype([(name, endian + code) for name, code in props.items()])
        if len(data) - offset < n_vertex * vertex.itemsize:
            raise ParseError("binary PLY body shorter than declared", line=header_end)
        rows = np.frombuffer(data, vertex, count=n_vertex, offset=offset)
        cloud = np.empty((n_vertex, 3))
        for i, c in enumerate("xyz"):
            cloud[:, i] = rows[c]  # widened exactly, once
    else:
        lines = data[offset:].decode("ascii", "replace").splitlines()
        if len(lines) < n_vertex:
            raise ParseError("fewer vertex rows than declared", line=header_end + len(lines))
        body = lines[:n_vertex]
        for i, line in enumerate(body):
            n_values = len(line.split())
            if n_values != len(props):
                raise ParseError(
                    f"vertex row has {n_values} values, {len(props)} declared",
                    line=header_end + i + 1,
                )
        try:
            values = np.array(" ".join(body).split(), dtype=float)
        except ValueError:
            for i, line in enumerate(body):  # locate the row for the message
                try:
                    np.array(line.split(), dtype=float)
                except ValueError:
                    raise ParseError("malformed vertex row", line=header_end + i + 1) from None
            raise
        cloud = values.reshape(n_vertex, len(props))[:, [list(props).index(c) for c in "xyz"]]
    if not np.isfinite(cloud).all():
        row = int(np.flatnonzero(~np.isfinite(cloud).all(axis=1))[0])
        line = header_end + row + 1 if endian is None else None  # binary: no lines
        raise ParseError(f"vertex {row} has a non-finite coordinate", line=line)
    return cloud


# --- poses / common pieces --------------------------------------------------

def pose_to_json(t: RigidTransform) -> dict:
    e = geometry.euler_xyz_from_rotation(t.rotation)
    return {
        "translation": [float(v) for v in t.translation],
        "euler_xyz_deg": [float(e.rx), float(e.ry), float(e.rz)],
    }


def pose_from_json(d: dict) -> RigidTransform:
    rot = geometry.rotation_from_euler_xyz(*_finite(d["euler_xyz_deg"], "euler_xyz_deg", (3,)))
    return RigidTransform(rot, _finite(d["translation"], "translation", (3,)))


@contextmanager
def _decoding(where: str):
    """Type the errors of decoding `where`, naming it in each: a KeyError is
    a MissingField, and a TypeError, ValueError or OverflowError a
    ParseError. Nested uses name the innermost part first ("'pose' in
    record 3 in detections.json")."""
    try:
        yield
    except KeyError as e:
        raise MissingField(f"{e} in {where}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"{e} in {where}") from e
    except (MissingField, ParseError, SchemaVersionMismatch) as e:  # raised by the decoder
        raise type(e)(f"{e} in {where}") from e


def _read_json(path, decode, *args):
    """decode(doc, *args) of the JSON file `path`, its errors typed by
    `_decoding` and naming the file; a file that cannot be read is an IoError."""
    with _decoding(Path(path).name):
        return decode(json.loads(_read(path, "r")), *args)


def _integer(v, what: str, minimum=None) -> int:
    """v, an integer as JSON Schema has it (an int or an integral float, not
    a bool), as an int; at least `minimum` if one is given."""
    if not (type(v) is int or type(v) is float and v.is_integer()):
        raise ValueError(f"{what} {v!r} is not an integer")
    if minimum is not None and v < minimum:
        raise ValueError(f"{what} {v!r} is below {minimum}")
    return int(v)


def _finite(v, what: str, shape=(), minimum=None):
    """v, a number (shape ()) or nested lists of numbers of `shape`, as a
    float or a float array, if every number is finite and, if `minimum` is
    given, at least it. A bool is not a number. Nested lists of another
    shape lack or add a value: MissingField."""
    a = np.array(v, dtype=object)
    if shape and a.shape != shape:
        raise MissingField(f"{what} must be {'x'.join(map(str, shape))}, got {list(a.shape)}")
    if a.shape != shape or any(type(x) not in (int, float) for x in a.flat):
        raise ValueError(f"{what} {v!r} is not a number")
    a = a.astype(float)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} is not finite")
    if minimum is not None and (a < minimum).any():
        raise ValueError(f"{what} is below {minimum}")
    return a if shape else float(a)


def _corners_from_json(doc, n_ids: int):
    ids, uv = [], []
    for c in doc["corners"]:
        cid = _integer(c["id"], "corner id")
        if not 0 <= cid < n_ids:
            raise ValueError(f"corner id {cid} is not in [0, {n_ids})")
        if cid in ids:
            raise ValueError(f"corner id {cid} repeated")
        ids.append(cid)
        uv.append(_finite(c["uv"], f"corner {cid} uv", (2,)))
    return np.array(ids, dtype=int), np.reshape(uv, (-1, 2))


def read_corners(path, spec: TargetSpec):
    """A camera's checker-corner detections (ids, uv), (n,) ints and (n, 2)
    pixels, from a `corners_camera*.json` file:
    {"corners": [{"id": int, "uv": [u, v]}, ...]}. The ids are distinct
    corners of the board `spec`, each uv 2 finite numbers; anything else is
    a ParseError or MissingField naming the file."""
    return _read_json(path, _corners_from_json, (spec.squares_x - 1) * (spec.squares_y - 1))


def read_board_init(path) -> RigidTransform:
    """A LiDAR's rough board pose from an `init_lidar*.json` file: {"pose": pose}."""
    return _read_json(path, lambda doc: pose_from_json(doc["pose"]))


def sensor_to_json(s: SensorId) -> dict:
    return {"kind": s.kind, "index": s.index}


def sensor_from_json(d: dict) -> SensorId:
    return SensorId(d["kind"], _integer(d["index"], "sensor index", minimum=0))


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
    kind = d["type"]
    if strict:
        unknown = set(d) - (_LIDAR_FIELDS if kind == "lidar" else _CAMERA_FIELDS)
        if unknown:
            raise ValueError(f"unknown fields in strict mode: {sorted(unknown)}")
    centers = _finite(d["centers_3d"], "centers_3d", (4, 3))
    pose = pose_from_json(d["pose"])
    if kind == "lidar":
        det = LidarDetection(pose, centers, _finite(d["fitness"], "fitness", minimum=0))
    elif kind == "camera":
        det = CameraDetection(
            pose,
            centers,
            _finite(d["centers_2d"], "centers_2d", (4, 2)),
            _finite(d["reprojection_error"], "reprojection_error", minimum=0),
            _integer(d["corners_used"], "corners_used", minimum=4),
        )
    else:
        raise ValueError(f"unknown record type {kind!r}")
    sequence = _integer(d["sequence"], "sequence", minimum=0)
    return DetectionRecord(sequence, sensor_from_json(d["sensor"]), det)


def _detections_from_json(doc, strict: bool) -> list:
    if doc["version"] != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"expected {SCHEMA_VERSION!r}, got {doc['version']!r}")
    records = doc["records"]
    if not isinstance(records, list):
        raise TypeError(f"records must be a list, got {type(records).__name__}")
    out = []
    for n, d in enumerate(records):
        with _decoding(f"record {n}"):
            out.append(_record_from_json(d, strict))
    return out


def write_detections(path, records):
    doc = {"version": SCHEMA_VERSION, "records": [_record_to_json(r) for r in records]}
    atomic_write(path, canonical_json(doc))


def read_detections(path, strict: bool = False):
    return _read_json(path, _detections_from_json, strict)


# --- config -----------------------------------------------------------------

@dataclass(frozen=True)
class ConfigFile:
    sensors: dict  # SensorId -> Intrinsics of a camera, None for a LiDAR; file order
    target: TargetSpec
    lidar_params: LidarParams
    solve_params: SolveParams
    reference: SensorId
    sim: dict  # simulate-only knobs: sequences, noise, scan, seed

    def __post_init__(self):
        for s, intr in self.sensors.items():
            if (s.kind == "camera") != (intr is not None):
                raise ParseError(f"intrinsics must be present iff camera ({s})")
        if len(self.sensors) < 2:
            raise ParseError(f"{len(self.sensors)} sensors in config, need >= 2")


DEFAULT_SIM = {
    "sequences": 20,
    "seed": 0,
    "noise": asdict(NoiseModel()),
    "scan": asdict(ScanPattern()),
}


def default_config(n_lidars: int = 2, m_cameras: int = 3) -> ConfigFile:
    sensors = {SensorId("camera", j): default_intrinsics() for j in range(m_cameras)}
    sensors.update({SensorId("lidar", i): None for i in range(n_lidars)})
    return ConfigFile(
        sensors,
        TargetSpec(),
        LidarParams(),
        SolveParams(),
        SensorId("camera", 0),
        copy.deepcopy(DEFAULT_SIM),
    )


def config_to_json(cfg: ConfigFile) -> dict:
    sensors = []
    for s, intr in cfg.sensors.items():
        d = sensor_to_json(s)
        if intr is not None:
            d["intrinsics"] = asdict(intr)
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
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


_FIELD_DECODERS = {int: _integer, float: _finite}


def _dataclass_from(d: dict, cls, what: str):
    """cls(**d), each int field an integer (2.0 is 2) and each float field a
    finite number, neither a bool; cls checks the ranges."""
    types = typing.get_type_hints(cls)
    _reject_unknown(d, types, what)
    out = {}
    for k in d:  # d[k], not d.items(): a list of names is a TypeError too
        decode = _FIELD_DECODERS.get(types[k])
        out[k] = decode(d[k], f"{what}.{k}") if decode else d[k]
    return cls(**out)


def config_from_json(doc: dict) -> ConfigFile:
    with _decoding("config"):
        _reject_unknown(doc, [f.name for f in fields(ConfigFile)], "config")
        sensors = {}
        for d in doc["sensors"]:
            _reject_unknown(d, ("kind", "index", "intrinsics"), "sensor")
            sensor = sensor_from_json(d)
            if sensor in sensors:
                raise ValueError(f"duplicate sensor ids in config: {sensor}")
            intr = _dataclass_from(d["intrinsics"], Intrinsics, "intrinsics") if "intrinsics" in d else None
            sensors[sensor] = intr
        target = doc["target"]
        if "circle_offsets" in target:
            offsets = _finite(target["circle_offsets"], "target.circle_offsets", (4, 2))
            target = {**target, "circle_offsets": offsets}
        spec = _dataclass_from(target, TargetSpec, "target")
        lp = _dataclass_from(doc["lidar_params"], LidarParams, "lidar_params")
        sp = _dataclass_from(doc["solve_params"], SolveParams, "solve_params")
        ref = sensor_from_json(doc["reference"])
        sim = {**DEFAULT_SIM, **doc["sim"]}
        _reject_unknown(sim, DEFAULT_SIM, "sim")
        for key, cls in (("noise", NoiseModel), ("scan", ScanPattern)):
            sim[key] = asdict(_dataclass_from({**DEFAULT_SIM[key], **sim[key]}, cls, f"sim.{key}"))
        for key, low in (("sequences", 1), ("seed", 0)):
            sim[key] = _integer(sim[key], f"sim.{key}", low)
        return ConfigFile(sensors, spec, lp, sp, ref, sim)


def read_config(path) -> ConfigFile:
    return _read_json(path, config_from_json)


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
    for name in sorted(doc["poses"], key=lambda n: int(doc["poses"][n]["display"][1:])):  # S<n>
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
