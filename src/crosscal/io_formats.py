"""File schemas: point clouds (PLY), detection records (JSON,
schema v1), config files and calibration reports.

All JSON is written in one canonical form, so identical inputs produce
byte-identical files: sorted keys, no whitespace between tokens, one
trailing newline. The compact form is what json's C encoder serves (an
indent sends every document through the pure-Python encoder) and takes
about half the bytes of a 2-space indent. Readers accept any layout.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import geometry
from .camera import CameraDetection
from .errors import IoError, MissingField, ParseError, SchemaVersionMismatch, UnsupportedFormat
from .geometry import Intrinsics, RigidTransform
from .lidar import LidarDetection, LidarParams
from .optimizer import CalibrationResult, SensorId, display_order, reprojection_report
from .sim import NoiseModel, ScanPattern, default_intrinsics
from .target import TargetSpec

SCHEMA_VERSION = "v1"


# --- canonical JSON ---------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path, doc):
    """Write `doc` to `path` in the canonical form, atomically."""
    atomic_write(path, canonical_json(doc))


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
# the vertex properties that write_cloud writes, in order
_WRITTEN_PROPS = [("x", "f4"), ("y", "f4"), ("z", "f4")]


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
        if endian == "<" and list(props.items()) == _WRITTEN_PROPS:
            # write_cloud's layout: the body is the (n, 3) array, widened below
            cloud = np.frombuffer(data, "<f4", count=3 * n_vertex, offset=offset).reshape(-1, 3)
        else:
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
    return cloud.astype(np.float64, copy=False)  # float32 widens exactly


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
    """The columns `ids` and `uv`, each checked as a whole; the first corner
    that fails a check is named in its error."""
    ids, uv = doc["ids"], doc["uv"]
    for name, column in (("ids", ids), ("uv", uv)):
        if type(column) is not list:
            raise TypeError(f"{name} must be a list, got {type(column).__name__}")
    if len(ids) != len(uv):
        raise ValueError(f"{len(ids)} ids but {len(uv)} uv pairs")
    if not set(map(type, ids)) <= {int, float}:
        _integer(next(v for v in ids if type(v) not in (int, float)), "corner id")
    a = np.array(ids, dtype=float)
    bad = np.flatnonzero(~((a == np.floor(a)) & (a >= 0) & (a < n_ids)))  # NaN is bad
    if bad.size:
        cid = _integer(ids[bad[0]], "corner id")
        raise ValueError(f"corner id {cid} is not in [0, {n_ids})")
    ids = a.astype(int)
    distinct = ids.tolist()
    if len(set(distinct)) < len(ids):  # a set: np.unique imports numpy.ma
        cid = next(c for n, c in enumerate(distinct) if c in distinct[:n])
        raise ValueError(f"corner id {cid} repeated")
    pairs = set(map(type, uv)) <= {list} and set(map(len, uv)) <= {2}
    if not (pairs and set(map(type, chain.from_iterable(uv))) <= {int, float}):
        k = next(
            k for k, p in enumerate(uv)
            if type(p) is not list or len(p) != 2 or not {type(x) for x in p} <= {int, float}
        )
        _finite(uv[k], f"uv of corner {ids[k]}", (2,))  # raises the error of this pair
    pixels = np.array(uv, dtype=float).reshape(-1, 2)
    bad = np.flatnonzero(~np.isfinite(pixels).all(axis=1))
    if bad.size:
        raise ValueError(f"uv of corner {ids[bad[0]]} is not finite")
    return ids, pixels


def read_corners(path, spec: TargetSpec):
    """A camera's checker-corner detections (ids, uv), (n,) ints and (n, 2)
    pixels, from a `corners_camera*.json` file: {"ids": [id, ...], "uv":
    [[u, v], ...]}, two columns of equal length, row k corner k. The ids are
    distinct integers in [0, n) for the n inner corners of the board `spec`,
    each uv 2 finite numbers; anything else, the per-corner objects of older
    files included, is a ParseError or MissingField naming the file."""
    n_ids = (spec.squares_x - 1) * (spec.squares_y - 1)  # the rows of checker_corners_board(spec)
    return _read_json(path, _corners_from_json, n_ids)


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
_CAMERA_FIELDS = _LIDAR_FIELDS - {"fitness"} | {"centers_2d", "reprojection_error", "corners_used"}


def _record_to_json(rec: DetectionRecord) -> dict:
    det = rec.detection
    base = {
        "type": rec.sensor.kind,
        "sequence": rec.sequence,
        "sensor": sensor_to_json(rec.sensor),
        "pose": pose_to_json(det.pose),
        "centers_3d": [[float(v) for v in c] for c in det.centers],
    }
    if rec.sensor.kind == "lidar":
        base["fitness"] = float(det.fitness)
    else:
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
    sensor = sensor_from_json(d["sensor"])
    if sensor.kind != kind:
        raise ValueError(f"a {kind} record of {sensor}")
    return DetectionRecord(sequence, sensor, det)


def _detections_from_json(doc, strict: bool) -> list:
    if doc["version"] != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"expected {SCHEMA_VERSION!r}, got {doc['version']!r}")
    records = doc["records"]
    if not isinstance(records, list):
        raise TypeError(f"records must be a list, got {type(records).__name__}")
    out, first = [], {}
    for n, d in enumerate(records):
        with _decoding(f"record {n}"):
            rec = _record_from_json(d, strict)
            m = first.setdefault((rec.sequence, rec.sensor), n)
            if m != n:
                raise ValueError(f"sequence {rec.sequence} {rec.sensor} repeats record {m}")
        out.append(rec)
    return out


def write_detections(path, records):
    write_json(path, {"version": SCHEMA_VERSION, "records": [_record_to_json(r) for r in records]})


def read_detections(path, strict: bool = False):
    return _read_json(path, _detections_from_json, strict)


# --- config -----------------------------------------------------------------

@dataclass(frozen=True)
class ConfigFile:
    sensors: dict  # SensorId -> Intrinsics of a camera, None for a LiDAR; file order
    target: TargetSpec
    lidar_params: LidarParams
    reference: SensorId
    sim: dict  # simulate-only knobs: sequences, noise, scan, seed

    def __post_init__(self):
        for s, intr in self.sensors.items():
            if (s.kind == "camera") != (intr is not None):
                raise ParseError(f"intrinsics must be present iff camera ({s})")
        if len(self.sensors) < 2:
            raise ParseError(f"{len(self.sensors)} sensors in config, need >= 2")
        if self.reference not in self.sensors:
            raise ParseError(f"reference {self.reference} is not one of the config's sensors")


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
        sensors, TargetSpec(), LidarParams(), display_order(sensors)[0], copy.deepcopy(DEFAULT_SIM)
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
        ref = sensor_from_json(doc["reference"])
        sim = {**DEFAULT_SIM, **doc["sim"]}
        _reject_unknown(sim, DEFAULT_SIM, "sim")
        for key, cls in (("noise", NoiseModel), ("scan", ScanPattern)):
            sim[key] = asdict(_dataclass_from({**DEFAULT_SIM[key], **sim[key]}, cls, f"sim.{key}"))
        for key, low in (("sequences", 1), ("seed", 0)):
            sim[key] = _integer(sim[key], f"sim.{key}", low)
        return ConfigFile(sensors, spec, lp, ref, sim)


def read_config(path) -> ConfigFile:
    return _read_json(path, config_from_json)


def write_config(path, cfg: ConfigFile):
    write_json(path, config_to_json(cfg))


# --- calibration reports ----------------------------------------------------

def format_pose_row(pose: dict) -> str:
    """A report's pose, as `pose_to_json` writes it: translation to 4
    decimals, Euler XYZ degrees to 3."""
    # adding 0.0 after rounding turns -0.0 into 0.0 so identity rows print
    # without stray minus signs
    tx, ty, tz = (round(float(v), 4) + 0.0 for v in pose["translation"])
    rx, ry, rz = (round(float(v), 3) + 0.0 for v in pose["euler_xyz_deg"])
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
            "gradient_cosine": result.gradient_cosine,
            **result.metadata,
        },
    }


def format_report_text(doc: dict) -> str:
    lines = ["Calibration results (reference: %s)" % doc["reference"], ""]
    lines.append("Sensor poses (translation x,y,z [m] / Euler XYZ [deg]):")
    for name in sorted(doc["poses"], key=lambda n: int(doc["poses"][n]["display"][1:])):  # S<n>
        p = doc["poses"][name]
        lines.append(f"  {p['display']} {name}: {format_pose_row(p)}")
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


def report_paths(path) -> list:
    """[`path`, its .txt twin]: a JSON report and its table; IoError for a .txt `path`."""
    path = Path(path)
    text_path = path.with_suffix(".txt")
    if text_path == path:
        raise IoError(f"report {path} ends in .txt, the name of its table")
    return [path, text_path]


def write_report(result: CalibrationResult, path, consistency: dict | None = None):
    """The JSON report and its table at `report_paths(path)`."""
    json_path, text_path = report_paths(path)
    doc = report_to_json(result, consistency)
    write_json(json_path, doc)
    atomic_write(text_path, format_report_text(doc))
