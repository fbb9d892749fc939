"""One table of malformed inputs over every input kind: the config (through
each command), corner detections, rough board poses, PLY clouds and
detections.

Each JSON case applies one mutation to one field: the key deleted, a value
of the wrong type, a bool, NaN, inf, an array of the wrong length, a value
out of the range the format allows, or an integral float for an integer.
The fields and their ranges come from `schemas/` for the config, the
detections and the corner files, and from the format that README gives for
init files. A corner file's two columns are walked at their first row too:
a case that breaks that value is named by its corner, `corners.0.id` or
`corners.0.uv`. Other cases give a path that is missing or a directory,
break a PLY header or body, or copy a dataset file or station directory to
a name that gives no index. A config key that earlier versions read
(`_REMOVED`) is put back with each value of the type it had, but for
`deleted`, which is today's config: every command exits 2, naming the key.

No case may exit 1. A command that reads the config or the detections
exits 2, naming the file, or exits 0 with the outputs of the unmutated run.
A bad dataset file costs its own detection: `detect` exits 0 with exactly
one warning, naming the file. A misnamed copy costs only itself. For the
config, the detections and the corner files, `jsonschema` rejects a file
exactly when the reader does, but for the cases named in `_READER_ONLY` and
for NaN and inf, which the schemas accept as numbers.

The dataset has 2 stations, 2 cameras and 1 LiDAR, so that the table runs
in seconds.
"""

import copy
import json
import logging
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from crosscal import cli, io_formats

jsonschema = pytest.importorskip("jsonschema")

SCHEMAS = Path(__file__).parent.parent / "schemas"
_DELETE = object()
_NAN, _INF = float("nan"), float("inf")

# The format of the dataset's init files, in the schemas' terms; no schema
# file publishes it.
_INIT_FORMAT = {
    "type": "object",
    "required": ["pose"],
    "properties": {"pose": {"$ref": "#/$defs/pose"}},
    "$defs": json.loads((SCHEMAS / "detections.schema.json").read_text())["$defs"],
}

# input kind -> (its schema, the elements that each array of objects is walked by)
_KINDS = {
    "config": (json.loads((SCHEMAS / "config.schema.json").read_text()), ("camera", "lidar")),
    "detections": (json.loads((SCHEMAS / "detections.schema.json").read_text()), ("lidar", "camera")),
    "corners": (json.loads((SCHEMAS / "corners.schema.json").read_text()), ()),
    "init": (_INIT_FORMAT, ()),
}


def _resolve(node, schema, element=None):
    if "$ref" in node:
        node = schema["$defs"][node["$ref"].rsplit("/", 1)[1]]
    if "oneOf" in node:  # a detection record: the variant of its type
        variants = (_resolve(n, schema) for n in node["oneOf"])
        node = next(n for n in variants if n["properties"]["type"]["const"] == element)
    return node


def _holds_objects(node):
    items = node.get("items", {})
    return node.get("type") == "array" and ("oneOf" in items or items.get("type") == "object")


def _mutations(node):
    """(name, value(old) or _DELETE) for a field whose schema is `node`."""
    out = [("deleted", lambda v: _DELETE), ("string", lambda v: "1")]
    kind = node.get("type")
    if kind in ("integer", "number"):
        out += [("bool", lambda v: True), ("nan", lambda v: _NAN), ("inf", lambda v: _INF)]
        if "minimum" in node:
            out.append(("low", lambda v, m=node["minimum"]: m - 1))
        if "exclusiveMinimum" in node:
            out.append(("low", lambda v, m=node["exclusiveMinimum"]: m))
        if "maximum" in node:
            out.append(("high", lambda v, m=node["maximum"]: m + 1))
        if kind == "integer":
            out.append(("integral", float))
    elif kind == "array" and not _holds_objects(node):
        for name, x in (("bool", True), ("nan", _NAN), ("inf", _INF)):
            out.append((name, lambda v, x=x: _with_first_number(v, x)))
        out.append(("short", lambda v: v[:-1]))
    elif "minItems" in node:  # an array of objects: one object too few
        out.append(("short", lambda v, m=node["minItems"]: v[: m - 1]))
    elif "enum" in node or "const" in node:
        out.append(("bool", lambda v: True))
    return out


def _with_first_number(v, x):
    v = copy.deepcopy(v)
    inner = v
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = x
    return v


def _fields(kind):
    """(path, mutation name, mutate) for every field of the input `kind`."""
    schema, elements = _KINDS[kind]

    def walk(node, path, element=None):
        node = _resolve(node, schema, element)
        for key, sub in node.get("properties", {}).items():
            if path[:1] == ("sensors",) and element == "lidar" and key == "intrinsics":
                continue  # a LiDAR has none
            sub = _resolve(sub, schema, element)
            column = kind == "corners"  # walked at its first row too
            for name, mutate in _mutations(sub):
                if not (column and name in ("bool", "nan", "inf")):  # cases of its first row
                    yield path + (key,), name, mutate
            if column:
                for name, mutate in _mutations(_resolve(sub["items"], schema)):
                    yield path + (key, 0), name, mutate
            if sub.get("type") == "object":
                yield from walk(sub, path + (key,), element)
            if _holds_objects(sub):
                for e in elements:
                    yield from walk(sub["items"], path + (key, e), e)

    return list(walk(schema, ()))


def _node(doc, path):
    """The object at `path`; an element name picks the first array element
    of that kind or type."""
    for key in path:
        if isinstance(doc, list) and isinstance(key, str):
            key = next(i for i, d in enumerate(doc) if key in (d.get("kind"), d.get("type")))
        doc = doc[key]
    return doc


def _mutated(doc, path, mutate):
    doc = copy.deepcopy(doc)
    parent = _node(doc, path[:-1])
    value = mutate(parent[path[-1]])
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _edit(path, value):
    return lambda doc: _mutated(doc, path, lambda v: value)


def _lidar_with_intrinsics(doc):
    doc = copy.deepcopy(doc)
    _node(doc, ("sensors", "lidar"))["intrinsics"] = _node(doc, _CAMERA)["intrinsics"]
    return doc


def _repeated_record(doc):
    """Record 0 again right after itself, its centers moved by 0.3 m."""
    doc = copy.deepcopy(doc)
    again = copy.deepcopy(doc["records"][0])
    again["centers_3d"] = [[x + 0.3 for x in c] for c in again["centers_3d"]]
    doc["records"].insert(1, again)
    return doc


def _lidar_type_of_a_camera(doc):
    """The first camera record typed as a LiDAR's, with a fitness: valid as
    a LiDAR record but for its sensor's kind."""
    doc = copy.deepcopy(doc)
    record = _node(doc, ("records", "camera"))
    record.update(type="lidar", fitness=0.0)
    return doc


_CAMERA = ("sensors", "camera")
# Cases that the schema accepts and the reader rejects: each breaks a rule
# between fields or records, which JSON Schema cannot express.
_READER_ONLY = {
    "config-sensors.camera.intrinsics-deleted": "intrinsics iff camera",
    "config-lidar-with-intrinsics": "intrinsics iff camera",
    "config-principal-point-outside-the-image": "principal point inside the image",
    "config-circles-past-the-board": "circles inside the board",
    "config-board-smaller-than-the-checker": "board at least the checker extent",
    "config-d_min-not-below-d_max": "d_min < d_max",
    "config-duplicate-sensor-ids": "duplicate sensor ids",
    "detections-repeated-record": "one record per station and sensor",
    "corners-ids-short": "ids and uv of equal length",
    "corners-uv-short": "ids and uv of equal length",
    "corners-corners.0.id-deleted": "ids and uv of equal length",
    "corners-corners.0.uv-deleted": "ids and uv of equal length",
    "corners-corners.0.id-high": "ids below the config board's corner count",
}
_CROSS_FIELD = {
    "config-lidar-with-intrinsics": _lidar_with_intrinsics,
    "config-principal-point-outside-the-image": _edit(_CAMERA + ("intrinsics", "cx"), 1280.0),
    "config-circles-past-the-board": _edit(("target", "circle_radius"), 0.2),
    "config-board-smaller-than-the-checker": _edit(("target", "square_size"), 0.2),
    "config-d_min-not-below-d_max": _edit(("lidar_params", "d_min"), 8.0),
    "config-duplicate-sensor-ids": lambda doc: _mutated(
        doc, ("sensors", 1, "index"), lambda v: _node(doc, ("sensors", 0, "index"))
    ),
    "detections-repeated-record": _repeated_record,
    "detections-lidar-type-of-a-camera-record": _lidar_type_of_a_camera,
    "corners-corners.0.id-high": _edit(("ids", 0), 49),  # the 8x8 board has 49 inner corners
    "corners-repeated-id": lambda doc: _mutated(doc, ("ids", 1), lambda v: doc["ids"][0]),
}

# PLY edits: (bytes of the cloud -> bytes), each of which the reader rejects
_PLY = {
    "not-ply": lambda b: b"plx" + b[3:],
    "unknown-format": lambda b: b.replace(b"binary_little_endian", b"binary_middle_endian", 1),
    "no-z-property": lambda b: b.replace(b"property float z\n", b"", 1),
    "list-property": lambda b: b.replace(b"property float z\n", b"property list uchar int z\n", 1),
    "negative-count": lambda b: b.replace(b"element vertex ", b"element vertex -", 1),
    "count-past-the-body": lambda b: b.replace(b"element vertex ", b"element vertex 9", 1),
    "no-end-header": lambda b: b.replace(b"end_header\n", b"", 1),
    "short-body": lambda b: b[:-5],
    "nan-coordinate": lambda b: b[:-4] + b"\x00\x00\xc0\x7f",
    "inf-coordinate": lambda b: b[:-4] + b"\x00\x00\x80\x7f",
    "ascii-row-of-two": lambda b: b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
    b"property float y\nproperty float z\nend_header\n1 2\n",
    "ascii-word": lambda b: b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
    b"property float y\nproperty float z\nend_header\n1 oops 3\n",
}

# Config keys that earlier versions read -> (the schema each had, its old default)
_REMOVED = {
    ("lidar_params", "rng_seed"): ({"type": "integer", "minimum": 0}, 0),
    ("lidar_params", "ransac_iters"): ({"type": "integer", "minimum": 1}, 500),
    ("solve_params",): ({"type": "object"}, {}),
    ("solve_params", "max_iter"): ({"type": "integer", "minimum": 1}, 100),
    ("solve_params", "gradient_tol"): ({"type": "number", "exclusiveMinimum": 0}, 1e-9),
}


def _put_back(path, value):
    """An edit that sets the removed key `path` to `value`, making the
    sections on its way."""

    def edit(doc):
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent.setdefault(key, {})
        parent[path[-1]] = value
        return doc

    return edit


def _unknown_key(doc, path):
    """The first key of `path` that `doc` does not hold."""
    for key in path:
        if key not in doc:
            return key
        doc = doc[key]


def _removed_cases():
    """case id -> (edit, the key that its error names)."""
    today = io_formats.config_to_json(io_formats.default_config())
    cases = {}
    for path, (node, old) in _REMOVED.items():
        named = _unknown_key(today, path)
        for name, mutate in _mutations(node):
            if name != "deleted":
                cases[f"config-{'.'.join(path)}-{name}"] = (_put_back(path, mutate(old)), named)
    return cases


_REMOVED_CASES = _removed_cases()


_VICTIMS = {"corners": "corners_camera*.json", "init": "init_lidar*.json", "cloud": "cloud_lidar*.ply"}

# Names that give no station or sensor index -> the glob of the dataset
# file or directory that is copied to that name
_NAMES = {
    "seq_000/cloud_lidarX.ply": "seq_000/cloud_lidar*.ply",
    "seq_000/cloud_lidar.ply": "seq_000/cloud_lidar*.ply",
    "seq_000/corners_cameraX.json": "seq_000/corners_camera*.json",
    "seq_000/corners_camera-1.json": "seq_000/corners_camera*.json",
    "seq_x": "seq_000",
    "seq_000.json": "ground_truth.json",
}


def _field_name(kind, path):
    """The dotted path of a field; a corner column's row k is corner k's
    `corners.<k>.id` or `corners.<k>.uv`."""
    if kind == "corners" and len(path) == 2:
        column, k = path
        return f"corners.{k}.{'id' if column == 'ids' else column}"
    return ".".join(map(str, path))


def _cases():
    cases = []
    for kind in ("config", "detections", "corners", "init"):
        for path, name, mutate in _fields(kind):
            edit = lambda doc, p=path, m=mutate: _mutated(doc, p, m)  # noqa: E731
            cases.append(pytest.param(kind, edit, id=f"{kind}-{_field_name(kind, path)}-{name}"))
    cases += [pytest.param("config", edit, id=k) for k, (edit, _) in _REMOVED_CASES.items()]
    cases += [pytest.param(k.split("-")[0], edit, id=k) for k, edit in _CROSS_FIELD.items()]
    cases += [pytest.param("cloud", edit, id=f"cloud-{k}") for k, edit in _PLY.items()]
    cases += [pytest.param("name", name, id=f"name-{name}") for name in _NAMES]
    for kind in ("config", "detections", "corners", "init", "cloud"):
        cases.append(pytest.param(kind, "directory", id=f"{kind}-path-is-a-directory"))
    for kind in ("config", "detections"):  # a dataset file that is missing was not observed
        cases.append(pytest.param(kind, "missing", id=f"{kind}-path-missing"))
    return cases


def _tree(root: Path):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"  # it hashes the config's bytes
    }


def _commands(config, data, det, out):
    return {
        "simulate": ["simulate", "--config", str(config), "--out", str(out / "data")],
        "detect": ["detect", "--config", str(config), "--data", str(data), "--out", str(out / "d.json")],
        "calibrate": [
            "calibrate", "--config", str(config), "--detections", str(det), "--out", str(out / "r.json")
        ],
    }


def _outputs(out: Path):
    return {
        "simulate": _tree(out / "data") if (out / "data").exists() else None,
        "detect": (out / "d.json").read_bytes() if (out / "d.json").exists() else None,
        "calibrate": (out / "r.json").read_bytes() if (out / "r.json").exists() else None,
    }


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("table")
    cfg = io_formats.default_config(n_lidars=1, m_cameras=2)
    cfg = replace(cfg, sim={**io_formats.DEFAULT_SIM, "sequences": 2})
    config = root / "config.json"
    io_formats.write_config(config, cfg)
    out = root / "out"
    for argv in _commands(config, out / "data", out / "d.json", out).values():
        assert cli.main(argv) == 0
    det = json.loads((out / "d.json").read_text())
    return {"root": root, "config": config, "out": out, "outputs": _outputs(out),
            "det": det, "keys": _keys(det)}


def _keys(det_doc):
    return [(r["sequence"], r["sensor"]["kind"], r["sensor"]["index"]) for r in det_doc["records"]]


def _run(argv, caplog):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="crosscal"):
        rc = cli.main(argv)
    return rc, [r for r in caplog.records if r.levelno >= logging.WARNING]


def _write(path: Path, edit, doc):
    """Write edit(doc) at `path`, or make it a directory or leave it missing;
    -> the document written, or None."""
    if edit == "directory":
        path.mkdir()
    elif edit != "missing":
        doc = edit(doc)
        path.write_text(json.dumps(doc))  # NaN and Infinity, as Python's json writes them
        return doc
    return None


def _check_schema_agreement(kind, case_id, doc, rejected):
    """Whether the schema and the reader agree on the mutated `doc`."""
    if doc is None:
        return
    name = case_id.rsplit("-", 1)[1]
    if name in ("nan", "inf"):
        assert rejected, "a non-finite number was accepted"
        return
    valid = jsonschema.Draft202012Validator(_KINDS[kind][0]).is_valid(doc)
    if case_id in _READER_ONLY:
        assert valid and rejected, _READER_ONLY[case_id]
    else:
        assert rejected == (not valid), f"schema valid: {valid}, reader rejects: {rejected}"


@pytest.mark.parametrize("kind, edit", _cases())
def test_malformed_input(base, tmp_path, caplog, request, kind, edit):
    case_id = request.node.callspec.id
    out = base["out"]
    if kind == "config":
        config = tmp_path / "cfg.json"
        doc = _write(config, edit, json.loads(base["config"].read_text()))
        if case_id == "config-sim.sequences-deleted":  # the default is 20 stations
            assert io_formats.read_config(config).sim["sequences"] == 20
            return
        results = {}
        for command, argv in _commands(config, out / "data", out / "d.json", tmp_path).items():
            rc, logged = _run(argv, caplog)
            assert rc in (0, 2), (command, [r.getMessage() for r in logged])
            if rc == 2:
                assert config.name in caplog.text, (command, caplog.text)
            if case_id in _REMOVED_CASES:
                named = _REMOVED_CASES[case_id][1]
                assert rc == 2 and named in caplog.text, (command, caplog.text)
            results[command] = rc
        assert len(set(results.values())) == 1, results
        if results["simulate"] == 0:
            assert _outputs(tmp_path) == base["outputs"]
        _check_schema_agreement(kind, case_id, doc, results["simulate"] == 2)
    elif kind == "detections":
        det = tmp_path / "det.json"
        doc = _write(det, edit, base["det"])
        argv = _commands(base["config"], out / "data", det, tmp_path)["calibrate"]
        rc, logged = _run(argv, caplog)
        assert rc in (0, 2), [r.getMessage() for r in logged]
        if rc == 2:
            assert det.name in caplog.text, caplog.text
            if case_id == "detections-repeated-record":
                assert "repeats record 0 in record 1" in caplog.text, caplog.text
            if case_id == "detections-lidar-type-of-a-camera-record":
                assert "a lidar record of camera0 in record 1" in caplog.text, caplog.text
        else:
            assert (tmp_path / "r.json").read_bytes() == base["outputs"]["calibrate"]
        _check_schema_agreement(kind, case_id, doc, rc == 2)
    elif kind == "name":
        data = tmp_path / "data"
        shutil.copytree(out / "data", data)
        source = sorted(data.glob(_NAMES[edit]))[0]
        (shutil.copytree if source.is_dir() else shutil.copy)(source, data / edit)
        argv = _commands(base["config"], data, out / "d.json", tmp_path)["detect"]
        rc, logged = _run(argv, caplog)
        messages = [r.getMessage() for r in logged]
        assert rc == 0, messages
        assert len(messages) == 1 and Path(edit).name in messages[0], messages
        assert (tmp_path / "d.json").read_bytes() == base["outputs"]["detect"]
    else:
        data = tmp_path / "data"
        shutil.copytree(out / "data", data)
        victim = sorted((data / "seq_000").glob(_VICTIMS[kind]))[0]
        if kind == "cloud":
            if edit == "directory":
                victim.unlink()
                victim.mkdir()
            else:
                victim.write_bytes(edit(victim.read_bytes()))
        else:
            doc = json.loads(victim.read_text())
            victim.unlink()
            doc = _write(victim, edit, doc)
        argv = _commands(base["config"], data, out / "d.json", tmp_path)["detect"]
        rc, logged = _run(argv, caplog)
        assert rc == 0, [r.getMessage() for r in logged]
        messages = [r.getMessage() for r in logged]
        sensor = victim.stem.split("_")[1]  # camera0, lidar0
        sensor_kind = sensor.rstrip("0123456789")
        lost = (0, sensor_kind, int(sensor[len(sensor_kind):]))
        if messages:
            assert len(messages) == 1 and victim.name in messages[0], messages
            keys = [k for k in base["keys"] if k != lost]
        else:
            keys = base["keys"]
            assert (tmp_path / "d.json").read_bytes() == base["outputs"]["detect"]
        assert _keys(json.loads((tmp_path / "d.json").read_text())) == keys
        if kind == "corners":
            _check_schema_agreement(kind, case_id, doc, bool(messages))


@pytest.mark.parametrize(
    "section, key, value",
    [("lidar_params", "d_min", 0.0), ("lidar_params", "h_min", -2.0)],
)
def test_config_reads_values_that_the_schema_allows(section, key, value):
    """A minimum range of 0 and a height gate below -1 m are settings, not errors."""
    doc = json.loads(io_formats.canonical_json(io_formats.config_to_json(io_formats.default_config())))
    doc[section][key] = value
    jsonschema.validate(doc, _KINDS["config"][0])
    assert getattr(getattr(io_formats.config_from_json(doc), section), key) == value
