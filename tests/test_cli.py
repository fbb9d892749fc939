"""CLI: simulate/detect/calibrate round trip on a small dataset, exit codes,
manifests, determinism, and reference-frame selection."""

import json
import logging
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crosscal
from conftest import CIRCLE_BEHIND_CAMERA, exp_rigid, matrix, oracle_observations
from crosscal import cli, errors, geometry, io_formats, optimizer, sim
from crosscal.camera import CameraDetection
from crosscal.errors import SolverNotConverged
from crosscal.geometry import RigidTransform
from crosscal.lidar import LidarDetection, LidarParams
from crosscal.optimizer import SensorId
from crosscal.target import TargetSpec, checker_corners_board, circle_centers_board

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


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _source_env(**extra):
    """The environment of a subprocess that imports crosscal from this
    source tree, without the BLAS thread variables, plus `extra`."""
    src = str(REPO / "src")
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    return {**env, "PYTHONPATH": src + os.pathsep + path if path else src, **extra}


def _tree_bytes(root: Path):
    return {
        p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


# Counters that `detect`'s pool workers and the test share: made before the
# pool forks its workers, they live in memory that the workers inherit.
_SHARED = multiprocessing.get_context("fork")


def _add(counter, n=1):
    """Add n to a shared counter and return its new value."""
    with counter.get_lock():
        counter.value += n
        return counter.value


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
            continue  # names the config relative to the dataset, so by another path
        assert a[k] == b[k], k


def test_simulate_tree_moves_with_its_config(tmp_path):
    """Two runs, each with its config beside its dataset, in directories of
    different name lengths: the trees are byte-identical, manifest included."""
    cfg = replace(io_formats.default_config(), sim={**io_formats.DEFAULT_SIM, "sequences": 2})
    trees = []
    for name in ("a", "a_much_longer_directory_name"):
        root = tmp_path / name
        root.mkdir()
        io_formats.write_config(root / "config.json", cfg)
        argv = ["simulate", "--config", str(root / "config.json"), "--out", str(root / "data")]
        assert cli.main(argv) == 0
        trees.append(_tree_bytes(root))
    assert trees[0] == trees[1]
    man = json.loads(trees[0][Path("data/manifest.json")])
    assert man["inputs"] == ["../config.json"]
    assert "ground_truth.json" in man["outputs"]


def _simulate(config, out):
    return cli.main(["simulate", "--config", str(config), "--out", str(out)])


def test_simulate_on_one_worker_byte_identical_to_pool(ws, tmp_path, monkeypatch):
    """Each LiDAR's files are written by one job on the pool: with the
    default pool and with one worker the trees are the same, manifest
    included, and those of the serial writer that the fixture's tree was
    checked against."""
    assert _simulate(ws["config"], tmp_path / "pool" / "data") == 0
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert _simulate(ws["config"], tmp_path / "one" / "data") == 0
    pool = _tree_bytes(tmp_path / "pool" / "data")
    assert pool == _tree_bytes(tmp_path / "one" / "data")
    fixture = _tree_bytes(ws["data"])
    assert {k: v for k, v in pool.items() if k.name != "manifest.json"} == {
        k: v for k, v in fixture.items() if k.name != "manifest.json"
    }
    assert not multiprocessing.active_children()


@pytest.mark.parametrize(
    "error, code, logged",
    [
        (errors.IoError("cannot write cloud_lidar1.ply"), 2, "file error"),
        (RuntimeError("bug in a cast"), 1, "unexpected failure"),
    ],
    ids=["IoError", "RuntimeError"],
)
def test_simulate_error_in_a_lidar_job(ws, tmp_path, monkeypatch, caplog, error, code, logged):
    """A typed output error in a LiDAR's job exits 2 and any other exception
    exits 1, as in this process; no manifest is written and no worker is
    left behind."""

    class FailingCast(sim.LidarCast):
        def render(self, sequence):
            if self.sensor.index == 1 and sequence == 2:
                raise error
            return super().render(sequence)

    monkeypatch.setattr(cli.sim, "LidarCast", FailingCast)
    out = tmp_path / "data"
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert _simulate(ws["config"], out) == code
    assert logged in caplog.text and str(error) in caplog.text
    assert not (out / "manifest.json").exists()
    assert (out / "seq_003" / "cloud_lidar0.ply").exists()  # the other job ran to its end
    assert not multiprocessing.active_children()


def test_simulate_into_a_dataset_exit_2(ws, tmp_path, caplog):
    """`detect` reads every station under its --data: `simulate` into a
    directory that holds one would mix two scenes, so it writes nothing."""
    out = tmp_path / "data"
    shutil.copytree(ws["data"], out)
    before = _tree_bytes(out)
    argv = ["simulate", "--config", str(ws["config"]), "--out", str(out)]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert cli.main(argv) == 2
    assert "file error" in caplog.text and str(out) in caplog.text
    assert _tree_bytes(out) == before


def test_importing_the_cli_loads_no_process_pool():
    """Every command pays for the modules that `crosscal.cli` imports; the
    process pool's load only when a command starts a pool, and scipy, which
    only the benchmark's tracer uses, never."""
    env = _source_env()
    code = (
        "import sys, crosscal.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process', 'scipy') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_lidar_detection_loads_no_numpy_ma():
    """`numpy.ma` costs 11-15 ms to import, which each fork worker of `detect`
    would pay on every run: a LiDAR detection, the board's outline
    included, must not load it (`np.unique` with `axis=` does)."""
    env = _source_env()
    code = (
        "import sys, crosscal.cli as c\n"
        "from crosscal.lidar import LidarParams\n"
        "r = c.io_formats.default_config(2, 0).sensors\n"
        "s = c.sim.make_scene(r, 1, seed=3)\n"
        "l = c.SensorId('lidar', 0)\n"
        "cloud = c.sim.render_lidar(s, l, 0)\n"
        "t_init = c.sim.perturbed_board_init(s, l, 0)\n"
        "d = c.detect_target_lidar(cloud, s.spec, t_init, LidarParams())\n"
        "print(len(d.centers), 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "4 False"


def test_simulate_and_detect_load_no_numpy_ma(tmp_path):
    """The parent process of `simulate` and `detect` renders, writes and
    reads every corner file, and would pay `numpy.ma`'s import on each run:
    none of it may load it (`np.unique` does, even without `axis=`)."""
    cfg = replace(io_formats.default_config(1, 2), sim={**io_formats.DEFAULT_SIM, "sequences": 2})
    config = tmp_path / "config.json"
    io_formats.write_config(config, cfg)
    code = (
        "import sys\n"
        "from crosscal import cli\n"
        "c, d = sys.argv[1:]\n"
        "assert cli.main(['simulate', '--config', c, '--out', d + '/data']) == 0\n"
        "argv = ['detect', '--config', c, '--data', d + '/data', '--out', d + '/d.json']\n"
        "assert cli.main(argv) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(config), str(tmp_path)],
        capture_output=True,
        text=True,
        env=_source_env(),
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
    assert len(list(tmp_path.glob("data/seq_*/corners_camera*.json"))) >= 2


def test_simulate_bad_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "nope.json"
    assert cli.main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "key",
    ["gicp_max_iter", "gicp_corr_dist", "gicp_fitness_eps", "nn_delta", "rng_seed", "ransac_iters"],
)
def test_config_naming_a_removed_lidar_param_exit_2(tmp_path, caplog, key):
    """The GICP settings and `nn_delta` left the detector with GICP, and
    RANSAC's seed and draw count are constants; a config that still names
    one is an unknown key, not silently ignored."""
    doc = io_formats.config_to_json(io_formats.default_config())
    doc["lidar_params"][key] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(errors.ParseError, match=key):
        io_formats.read_config(path)
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        rc = cli.main(
            ["detect", "--config", str(path), "--data", str(tmp_path), "--out", str(tmp_path / "d")]
        )
    assert rc == 2
    assert "input error" in caplog.text and key in caplog.text


@pytest.mark.parametrize(
    "section, edit",
    [
        ("sim", {"bogus": 1}),
        ("noise", {"bogus": 1}),
        ("scan", {"bogus": 1}),
        ("noise", {"lidar_sigma": "x"}),
        ("scan", {"az_res_deg": 0}),
        ("sim", {"sequences": 0}),
        ("sim", {"sequences": 1.5}),
        ("sim", {"sequences": "2"}),
        ("sim", {"seed": -3}),
        ("sim", {"seed": True}),
    ],
    ids=[
        "sim-unknown-key",
        "noise-unknown-key",
        "scan-unknown-key",
        "lidar-sigma-string",
        "az-res-zero",
        "sequences-zero",
        "sequences-fractional",
        "sequences-string",
        "seed-negative",
        "seed-bool",
    ],
)
def test_simulate_malformed_sim_section_exit_2(tmp_path, caplog, section, edit):
    jsonschema = pytest.importorskip("jsonschema")
    cfg = replace(io_formats.default_config(), sim={**io_formats.DEFAULT_SIM, "sequences": 2})
    doc = json.loads(io_formats.canonical_json(io_formats.config_to_json(cfg)))
    target = doc["sim"] if section == "sim" else doc["sim"][section]
    target.update(edit)
    schema = json.loads((REPO / "schemas" / "config.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "input error" in caplog.text


def test_simulate_infeasible_exit_3(tmp_path):
    """A readable config that no board layout fits: 2 LiDARs, no camera, and
    a scan within 1 deg of the horizon, which no board reaches."""
    cfg = io_formats.default_config(n_lidars=2, m_cameras=0)
    scan = {**io_formats.DEFAULT_SIM["scan"], "el_min_deg": -1.0, "el_max_deg": 1.0}
    sim_section = {**io_formats.DEFAULT_SIM, "scan": scan}
    cfg = replace(cfg, reference=SensorId("lidar", 0), sim=sim_section)
    path = tmp_path / "cfg.json"
    io_formats.write_config(path, cfg)
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


def _gated_config(tmp_path, d_max):
    """A 4-station default config whose detector keeps ranges up to d_max."""
    cfg = replace(
        io_formats.default_config(),
        sim={**io_formats.DEFAULT_SIM, "sequences": 4},
        lidar_params=replace(LidarParams(), d_max=d_max),
    )
    path = tmp_path / "cfg.json"
    io_formats.write_config(path, cfg)
    return path


def test_simulate_places_lidar_boards_inside_the_configured_gates(tmp_path):
    """With d_max = 6.0, inside the 5.5-6.8 m board range, simulate places
    each board inside the detector's gates, so detect finds every LiDAR
    station that simulate writes, with no warning."""
    path = _gated_config(tmp_path, 6.0)
    data, det = tmp_path / "data", tmp_path / "detections.json"
    assert cli.main(["simulate", "--config", str(path), "--out", str(data)]) == 0
    assert cli.main(["detect", "--config", str(path), "--data", str(data), "--out", str(det)]) == 0
    written = {
        (int(p.parent.name[len("seq_"):]), p.stem[len("cloud_"):])
        for p in data.glob("seq_*/cloud_lidar*.ply")
    }
    found = {(r.sequence, str(r.sensor)) for r in io_formats.read_detections(det)}
    assert len(written) == 8 and written <= found
    assert json.loads((tmp_path / "detections.manifest.json").read_text())["warnings"] == 0


def test_simulate_with_d_max_below_the_board_range_exit_3(tmp_path):
    """No board of the 5.5-6.8 m range fits inside a 4.5 m d_max gate:
    simulate exits 3 instead of writing stations that detect would drop."""
    path = _gated_config(tmp_path, 4.5)
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    assert not list(out.glob("seq_*"))


# --- detect -----------------------------------------------------------------

def test_detect_output_parses_with_full_coverage(ws):
    recs = io_formats.read_detections(ws["det"])
    by_seq = {}
    for r in recs:
        by_seq.setdefault(r.sequence, set()).add(r.sensor)
    assert set(by_seq) == {0, 1, 2, 3}
    for sensors in by_seq.values():
        assert SensorId("lidar", 0) in sensors and SensorId("lidar", 1) in sensors
    man = json.loads((ws["root"] / "detections.manifest.json").read_text())
    assert man["warnings"] == 0
    # paths relative to the manifest's directory, ws["root"]
    inits = sorted(str(p.relative_to(ws["root"])) for p in ws["data"].glob("seq_*/init_lidar*.json"))
    assert len(inits) == 8 and set(inits) <= set(man["inputs"])
    assert man["outputs"] == ["detections.json"]
    man = json.loads((ws["root"] / "report.manifest.json").read_text())
    assert man["inputs"] == ["config.json", "detections.json"]
    assert man["outputs"] == ["report.json", "report.txt"]


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


@pytest.mark.parametrize("kind", ["missing", "regular-file"])
def test_detect_data_not_a_directory_exit_2(ws, tmp_path, caplog, kind):
    data = tmp_path / "data"
    if kind == "regular-file":
        data.write_text("")
    argv = ["detect", "--config", str(ws["config"]), "--data", str(data)]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert cli.main(argv + ["--out", str(tmp_path / "d.json")]) == 2
    assert "file error" in caplog.text and str(data) in caplog.text
    assert not (tmp_path / "d.json").exists()


def test_detect_partial_failure_warns_but_succeeds(ws, tmp_path):
    """A cloud that cannot be read, or corners whose pose puts a circle
    center behind the camera, costs its own detection: the rest still
    detects, with one warning."""
    intr = sim.default_intrinsics()
    board = checker_corners_board(TargetSpec())
    pixels = geometry.project_many(intr, CIRCLE_BEHIND_CAMERA.apply(board))
    corners = {"ids": list(range(len(board))), "uv": pixels.tolist()}
    victims = [
        (
            "cloud_lidar0.ply",
            "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n1 oops 3\n",
        ),
        ("corners_camera0.json", json.dumps(corners)),
    ]
    everything = [(r.sequence, r.sensor) for r in io_formats.read_detections(ws["det"])]
    for k, (name, content) in enumerate(victims):
        data2 = tmp_path / f"data{k}"
        shutil.copytree(ws["data"], data2)
        assert (data2 / "seq_000" / name).exists()
        (data2 / "seq_000" / name).write_text(content)
        out = tmp_path / f"d{k}.json"
        rc = cli.main(
            ["detect", "--config", str(ws["config"]), "--data", str(data2), "--out", str(out)]
        )
        assert rc == 0
        man = json.loads((tmp_path / f"d{k}.manifest.json").read_text())
        assert man["warnings"] == 1
        lost = (0, SensorId("lidar" if name.endswith(".ply") else "camera", 0))
        recs = io_formats.read_detections(out)
        assert [(r.sequence, r.sensor) for r in recs] == [r for r in everything if r != lost]


def _corner_edit(column, value, i=0):
    """Content that sets row i of the file's column `column` to value(column)."""

    def edit(path):
        doc = json.loads(path.read_text())
        doc[column][i] = value(doc[column])
        path.write_text(json.dumps(doc))

    return edit


def _cloud_edit(axis, value):
    """Content that sets coordinate `axis` of the cloud's first point to value."""

    def edit(path):
        cloud = io_formats.read_cloud(path)
        cloud[0, axis] = value
        io_formats.write_cloud(path, cloud)

    return edit


@pytest.mark.parametrize(
    "pattern, content",
    [
        ("corners_camera*.json", '{"corners": [{"id": 0, "uv": [1.0, 2.0]}]}'),  # no "ids"
        ("corners_camera*.json", "{not json"),
        ("corners_camera*.json", _corner_edit("uv", lambda uv: [float("nan"), uv[0][1]])),
        ("corners_camera*.json", _corner_edit("uv", lambda uv: uv[0] + [0.0])),
        ("corners_camera*.json", _corner_edit("ids", lambda ids: 1.5)),
        ("corners_camera*.json", _corner_edit("ids", lambda ids: 9999)),
        ("corners_camera*.json", _corner_edit("ids", lambda ids: ids[0], i=1)),
        ("init_lidar*.json", '{"pose": {"translation": [0, 0, 1]}}'),  # no "euler_xyz_deg"
        ("init_lidar*.json", "[]"),
        ("init_lidar*.json", '{"pose": {"euler_xyz_deg": [0, 0, 0], "translation": [NaN, 0, 1]}}'),
        (
            "init_lidar*.json",
            '{"pose": {"euler_xyz_deg": [0, Infinity, 0], "translation": [0, 0, 1]}}',
        ),
        ("cloud_lidar*.ply", None),  # the path is a directory
        ("cloud_lidar*.ply", _cloud_edit(0, float("nan"))),
        ("cloud_lidar*.ply", _cloud_edit(2, float("inf"))),
    ],
    ids=[
        "corners-missing-key",
        "corners-not-json",
        "corners-nan-uv",
        "corners-uv-of-three",
        "corners-fractional-id",
        "corners-id-past-the-board",
        "corners-repeated-id",
        "init-missing-key",
        "init-not-an-object",
        "init-nan-translation",
        "init-inf-angle",
        "cloud-is-a-directory",
        "cloud-nan-x",
        "cloud-inf-z",
    ],
)
def test_detect_malformed_input_file_costs_only_its_detection(
    ws, tmp_path, caplog, pattern, content
):
    data2 = tmp_path / "data"
    shutil.copytree(ws["data"], data2)
    victim = sorted((data2 / "seq_001").glob(pattern))[0]
    if content is None:
        victim.unlink()
        victim.mkdir()
    elif callable(content):
        content(victim)
    else:
        victim.write_text(content)
    sensor = victim.stem.split("_")[1]
    out = tmp_path / "d.json"
    with caplog.at_level(logging.WARNING, logger="crosscal"):
        rc = cli.main(
            ["detect", "--config", str(ws["config"]), "--data", str(data2), "--out", str(out)]
        )
    assert rc == 0
    assert json.loads((tmp_path / "d.manifest.json").read_text())["warnings"] == 1
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 1 and victim.name in warned[0], warned
    keys = [(r.sequence, str(r.sensor)) for r in io_formats.read_detections(ws["det"])]
    assert [(r.sequence, str(r.sensor)) for r in io_formats.read_detections(out)] == [
        k for k in keys if k != (1, sensor)
    ]


@pytest.mark.parametrize(
    "sensor, copies",
    [
        ("camera7", {"corners_camera*.json": "corners_camera7.json"}),
        ("lidar5", {"cloud_lidar*.ply": "cloud_lidar5.ply", "init_lidar*.json": "init_lidar5.json"}),
    ],
)
def test_detect_file_of_unlisted_sensor_costs_only_its_detection(
    ws, tmp_path, monkeypatch, caplog, sensor, copies
):
    data2 = tmp_path / "data"
    shutil.copytree(ws["data"], data2)
    for pattern, name in copies.items():
        shutil.copy(sorted((data2 / "seq_001").glob(pattern))[0], data2 / "seq_001" / name)
    read, read_lidar5 = _SHARED.Value("i", 0), _SHARED.Value("i", 0)
    read_cloud = io_formats.read_cloud

    def counted_read(path):
        _add(read)
        if "lidar5" in str(path):
            _add(read_lidar5)
        return read_cloud(path)

    monkeypatch.setattr(io_formats, "read_cloud", counted_read)
    out = tmp_path / "d.json"
    with caplog.at_level(logging.WARNING, logger="crosscal"):
        rc = cli.main(
            ["detect", "--config", str(ws["config"]), "--data", str(data2), "--out", str(out)]
        )
    assert rc == 0
    assert json.loads((tmp_path / "d.manifest.json").read_text())["warnings"] == 1
    assert f"{sensor} is not in the config" in caplog.text
    assert out.read_bytes() == ws["det"].read_bytes()
    assert read.value == 8 and not read_lidar5.value


def test_detect_writes_records_in_index_order(ws, tmp_path):
    """Stations and sensors go by the index their names give, not by the
    names: seq_101 before seq_1000 and camera2 before camera10, with a name
    that gives no index among them."""
    data = tmp_path / "data"
    shutil.copytree(ws["data"], data)
    (data / "seq_001").rename(data / "seq_1000")
    (data / "seq_002").rename(data / "seq_101")
    corners = sorted(data.glob("seq_*/corners_camera2.json"))[0]
    for name in ("corners_camera10.json", "corners_cameraX.json"):
        shutil.copy(corners, corners.with_name(name))
    cfg = io_formats.read_config(ws["config"])
    camera2, camera10 = SensorId("camera", 2), SensorId("camera", 10)
    cfg_path = tmp_path / "config.json"
    sensors = {**cfg.sensors, camera10: cfg.sensors[camera2]}
    io_formats.write_config(cfg_path, replace(cfg, sensors=sensors))
    out = tmp_path / "d.json"
    args = ["--config", str(cfg_path), "--data", str(data), "--out", str(out)]
    assert cli.main(["detect", *args]) == 0
    recs = io_formats.read_detections(out)
    keys = [(r.sequence, r.sensor.kind != "lidar", r.sensor.index) for r in recs]
    assert keys == sorted(keys)
    assert {101, 1000} <= {k[0] for k in keys} and (int(corners.parent.name[4:]), True, 10) in keys
    assert json.loads((tmp_path / "d.manifest.json").read_text())["warnings"] == 1


def test_detect_and_calibrate_without_init_files(ws, tmp_path):
    """With no operator prior, the detector derives each board pose from the
    cloud (`detect_target_lidar`'s None prior);
    the noise-free detections still meet the zero-noise criterion's bounds on
    the circle centers: 1e-5 m off the board plane, 2 grid cells in it, for
    the best of the 4 cyclic orders `calibrate` resolves."""
    data = tmp_path / "data"
    shutil.copytree(ws["data"], data, ignore=shutil.ignore_patterns("init_lidar*.json"))
    det, report = tmp_path / "d.json", tmp_path / "r.json"
    config = ["--config", str(ws["config"])]
    assert cli.main(["detect", *config, "--data", str(data), "--out", str(det)]) == 0
    assert cli.main(["calibrate", *config, "--detections", str(det), "--out", str(report)]) == 0
    cfg = io_formats.read_config(ws["config"])
    gt = json.loads((data / "ground_truth.json").read_text())
    truth = circle_centers_board(cfg.target)
    orders = [np.roll(truth, k, axis=0) for k in range(4)]
    lidar_recs = [r for r in io_formats.read_detections(det) if r.sensor.kind == "lidar"]
    assert len(lidar_recs) == 8
    for rec in lidar_recs:
        sensor_w = io_formats.pose_from_json(gt["sensors"][str(rec.sensor)])
        board_w = io_formats.pose_from_json(gt["boards"][rec.sequence])
        board_in_sensor = geometry.compose(geometry.invert(sensor_w), board_w)
        local = geometry.invert(board_in_sensor).apply(rec.detection.centers)
        assert np.abs(local[:, 2]).max() <= 1e-5
        in_plane = min(np.linalg.norm((local - o)[:, :2], axis=1).max() for o in orders)
        assert in_plane <= 2 / cfg.lidar_params.grid_res


def test_detect_and_calibrate_without_init_files_on_noisy_clouds(tmp_path):
    """The no-prior path under 5 mm range and 0.5 px corner noise on the
    default rig's 20 stations: every one of the 40 LiDAR clouds is detected
    with `detect_target_lidar`'s None prior, and each pose stays within the
    noisy rig's bound of 0.1 m / 1 deg, which a wrong void or circle order
    exceeds."""
    cfg = io_formats.default_config()
    noise = {"lidar_sigma": 0.005, "pixel_sigma": 0.5, "dropout": 0.0}
    config = tmp_path / "config.json"
    io_formats.write_config(config, replace(cfg, sim={**cfg.sim, "noise": noise}))
    data, det, report = tmp_path / "data", tmp_path / "d.json", tmp_path / "r.json"
    args = ["--config", str(config)]
    assert cli.main(["simulate", *args, "--out", str(data)]) == 0
    inits = list(data.glob("seq_*/init_lidar*.json"))
    assert len(inits) == 40
    for path in inits:
        path.unlink()
    assert cli.main(["detect", *args, "--data", str(data), "--out", str(det)]) == 0
    assert cli.main(["calibrate", *args, "--detections", str(det), "--out", str(report)]) == 0
    lidar_recs = [r for r in io_formats.read_detections(det) if r.sensor.kind == "lidar"]
    assert len(lidar_recs) == 40
    rep = json.loads(report.read_text())
    gt = json.loads((data / "ground_truth.json").read_text())
    ref_w = io_formats.pose_from_json(gt["sensors"]["camera0"])
    for name, doc in rep["poses"].items():
        truth = geometry.compose(
            geometry.invert(ref_w), io_formats.pose_from_json(gt["sensors"][name])
        )
        d = geometry.compose(geometry.invert(truth), io_formats.pose_from_json(doc))
        assert np.linalg.norm(d.translation) < 0.1
        assert geometry.rotation_angle(d.rotation) < np.deg2rad(1.0)


def test_detect_without_init_files_names_the_failed_stage(ws, tmp_path, caplog):
    """A no-prior cloud of ground only fails in the detector's filter stage,
    and its warning names the stage, as with an init file."""
    data = tmp_path / "data"
    shutil.copytree(ws["data"], data, ignore=shutil.ignore_patterns("init_lidar*.json"))
    cloud_path = data / "seq_000" / "cloud_lidar0.ply"
    cloud = io_formats.read_cloud(cloud_path)
    h_min = io_formats.read_config(ws["config"]).lidar_params.h_min
    io_formats.write_cloud(cloud_path, cloud[cloud[:, 2] < h_min])
    argv = ["detect", "--config", str(ws["config"]), "--data", str(data)]
    with caplog.at_level(logging.WARNING, logger="crosscal"):
        assert cli.main(argv + ["--out", str(tmp_path / "d.json")]) == 0
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 1
    assert "sequence 0 lidar0: detection failed: stage 'filter': 0 points" in warned[0]


@pytest.mark.parametrize(
    "original, copy", [("seq_001", "seq_1"), ("seq_001/cloud_lidar1.ply", "seq_001/cloud_lidar01.ply")]
)
def test_detect_two_names_for_one_station_and_sensor(ws, tmp_path, caplog, original, copy):
    """A second file for a (station, sensor) already listed fails it, with one
    warning naming both files; neither is detected, and `calibrate` reads
    what `detect` writes."""
    data = tmp_path / "data"
    shutil.copytree(ws["data"], data)
    everything = [(r.sequence, r.sensor) for r in io_formats.read_detections(ws["det"])]
    if (data / original).is_dir():
        shutil.copytree(data / original, data / copy)
        name = {"lidar": "cloud_{}.ply", "camera": "corners_{}.json"}
        files = {
            (seq, s): [data / d / name[s.kind].format(s) for d in (original, copy)]
            for seq, s in everything
            if seq == 1
        }
    else:
        shutil.copy(data / original, data / copy)
        files = {(1, SensorId("lidar", 1)): [data / original, data / copy]}
    det, report = tmp_path / "d.json", tmp_path / "r.json"
    config = ["--config", str(ws["config"])]
    with caplog.at_level(logging.WARNING, logger="crosscal"):
        assert cli.main(["detect", *config, "--data", str(data), "--out", str(det)]) == 0
    assert [(r.sequence, r.sensor) for r in io_formats.read_detections(det)] == [
        k for k in everything if k not in files
    ]
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == len(files)
    for (seq, sensor), paths in files.items():
        (message,) = [m for m in warned if m.startswith(f"sequence {seq} {sensor}: ")]
        assert all(str(path) in message for path in paths), message
    assert json.loads((tmp_path / "d.manifest.json").read_text())["warnings"] == len(files)
    assert cli.main(["calibrate", *config, "--detections", str(det), "--out", str(report)]) == 0


def test_detect_manifest_lists_the_files_it_reads(ws, tmp_path):
    """The manifest's inputs are the config and the files that become jobs:
    each cloud with its init file, and each corner file, also one that fails
    to parse. Not a file of an unlisted sensor, a name with no sensor index,
    nor either file of a repeated (station, sensor)."""
    data = tmp_path / "data"
    shutil.copytree(ws["data"], data)
    unread = [
        data / "seq_000" / "cloud_lidar5.ply",
        data / "seq_000" / "cloud_lidarX.ply",
        data / "seq_001" / "cloud_lidar00.ply",
        data / "seq_001" / "cloud_lidar0.ply",
        data / "seq_001" / "init_lidar0.json",
    ]
    for path in unread[:3]:
        shutil.copy(data / "seq_001" / "cloud_lidar0.ply", path)
    broken = sorted(data.glob("seq_002/corners_camera*.json"))[0]
    broken.write_text("{not json")
    out = tmp_path / "d.json"
    argv = ["detect", "--config", str(ws["config"]), "--data", str(data), "--out", str(out)]
    assert cli.main(argv) == 0
    read = [ws["config"]] + [
        path
        for pattern in ("cloud_lidar*.ply", "init_lidar*.json", "corners_camera*.json")
        for path in data.glob(f"seq_*/{pattern}")
        if path not in unread
    ]
    assert broken in read
    man = json.loads((tmp_path / "d.manifest.json").read_text())
    assert man["inputs"] == sorted(os.path.relpath(p, tmp_path) for p in read)
    assert man["warnings"] == 4  # lidar5, lidarX, the repeated lidar0, the broken corners


def _detect(ws, out):
    return cli.main(
        ["detect", "--config", str(ws["config"]), "--data", str(ws["data"]), "--out", str(out)]
    )


def test_detect_on_one_worker_byte_identical_to_pool(ws, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    out = tmp_path / "d1.json"
    assert _detect(ws, out) == 0
    assert out.read_bytes() == ws["det"].read_bytes()


def test_detect_holds_at_most_one_cloud_per_worker(ws, tmp_path, monkeypatch):
    alive = _SHARED.Value("i", 0)
    peak = _SHARED.Value("i", 0)
    reads = _SHARED.Value("i", 0)
    # the first two reads wait for each other, so two workers hold a cloud at once
    first_two = _SHARED.Barrier(2, timeout=30)
    read_cloud, detect = io_formats.read_cloud, cli.detect_target_lidar

    def counted_read(path):
        cloud = read_cloud(path)
        with alive.get_lock():
            alive.value += 1
            peak.value = max(peak.value, alive.value)
        if _add(reads) <= 2:
            first_two.wait()
        return cloud

    def counted_detect(*args):
        try:
            return detect(*args)
        finally:
            _add(alive, -1)

    monkeypatch.setattr(io_formats, "read_cloud", counted_read)
    monkeypatch.setattr(cli, "detect_target_lidar", counted_detect)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    out = tmp_path / "d.json"
    assert _detect(ws, out) == 0
    assert alive.value == 0
    assert 1 < peak.value <= 3
    assert out.read_bytes() == ws["det"].read_bytes()


def test_detect_unexpected_error_in_a_lidar_job_exits_1(ws, tmp_path, monkeypatch, caplog):
    calls = _SHARED.Value("i", 0)
    detect = cli.detect_target_lidar

    def third_call_fails(*args):
        if _add(calls) == 3:
            raise RuntimeError("bug in a detector")
        return detect(*args)

    monkeypatch.setattr(cli, "detect_target_lidar", third_call_fails)
    out = tmp_path / "d.json"
    with caplog.at_level(logging.WARNING, logger="crosscal"):
        assert _detect(ws, out) == 1
    assert "unexpected failure" in caplog.text and "bug in a detector" in caplog.text
    assert "detection failed" not in caplog.text
    assert not out.exists()
    assert not multiprocessing.active_children()


@pytest.mark.parametrize(
    "outcome",
    [
        *(
            cls(f"stage '{cls.stage}': no board")
            for cls in (errors.LidarStageError, *errors.LidarStageError.__subclasses__())
        ),
        errors.ParseError("bad value", line=3),
        errors.IoError("cannot read cloud.ply"),
        errors.UnsupportedFormat("cloud.xyz: unknown extension"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_lidar_job_error_survives_the_process_boundary(outcome):
    back = pickle.loads(pickle.dumps(outcome))
    assert type(back) is type(outcome) and str(back) == str(outcome)
    assert getattr(back, "stage", None) == getattr(outcome, "stage", None)
    assert getattr(back, "line", None) == getattr(outcome, "line", None)


def test_lidar_detection_survives_the_process_boundary():
    rng = np.random.default_rng(3)
    det = LidarDetection(
        exp_rigid(rng.normal(size=6)), rng.normal(size=(4, 3)), float(rng.random())
    )
    back = pickle.loads(pickle.dumps(det))
    assert type(back) is LidarDetection
    for name in ("rotation", "translation"):
        assert getattr(back.pose, name).tobytes() == getattr(det.pose, name).tobytes()
    assert back.centers.tobytes() == det.centers.tobytes()
    assert back.fitness.hex() == det.fitness.hex()


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
    assert not multiprocessing.active_children()


# --- calibrate --------------------------------------------------------------

def test_calibrate_report_reference_identity(ws):
    rep = json.loads(ws["report"].read_text())
    assert rep["reference"] == "camera0"
    ref_pose = io_formats.pose_from_json(rep["poses"]["camera0"])
    assert np.abs(matrix(ref_pose) - np.eye(4)).max() < 1e-12
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


def _run_pipeline(sensors, tmp_path, caplog):
    """simulate, detect and calibrate of the default config with the sensor
    table `sensors` over 8 noise-free stations; -> (detection records, the
    (translation m, rotation deg) error of each reported pose against the
    ground truth)."""
    base = io_formats.default_config()
    config = tmp_path / "config.json"
    io_formats.write_config(config, replace(base, sensors=sensors, sim={**base.sim, "sequences": 8}))
    data, det, report = tmp_path / "data", tmp_path / "d.json", tmp_path / "r.json"
    args = ["--config", str(config)]
    with caplog.at_level(logging.WARNING, logger="crosscal"):
        assert cli.main(["simulate", *args, "--out", str(data)]) == 0
        assert cli.main(["detect", *args, "--data", str(data), "--out", str(det)]) == 0
        assert cli.main(["calibrate", *args, "--detections", str(det), "--out", str(report)]) == 0
    gt = json.loads((data / "ground_truth.json").read_text())
    ref_w = io_formats.pose_from_json(gt["sensors"]["camera0"])
    pose_errors = {}
    for name, doc in json.loads(report.read_text())["poses"].items():
        truth = geometry.compose(
            geometry.invert(ref_w), io_formats.pose_from_json(gt["sensors"][name])
        )
        d = geometry.compose(geometry.invert(truth), io_formats.pose_from_json(doc))
        pose_errors[name] = (
            np.linalg.norm(d.translation), np.rad2deg(geometry.rotation_angle(d.rotation))
        )
    return io_formats.read_detections(det), pose_errors


def test_config_listing_camera1_before_camera0_recovers_every_pose(tmp_path, caplog):
    """Each camera is simulated with its own intrinsics, whatever the order of
    the config's sensor list: camera1 (fx 900) listed before camera0 (fx 700)
    calibrates within default_rig's bounds, 8 mm and 0.1 deg."""
    k700 = sim.default_intrinsics()
    k900 = replace(k700, fx=900.0, fy=900.0)
    sensors = {
        SensorId("camera", 1): k900,
        SensorId("camera", 0): k700,
        SensorId("lidar", 0): None,
        SensorId("lidar", 1): None,
    }
    records, pose_errors = _run_pipeline(sensors, tmp_path, caplog)
    assert sorted(pose_errors) == ["camera0", "camera1", "lidar0", "lidar1"]
    for name, (trans, rot) in pose_errors.items():
        assert trans < 0.008 and rot < 0.1, (name, trans, rot)
    assert "detection failed" not in caplog.text


def test_config_of_camera0_and_camera2_simulates_camera2(tmp_path, caplog):
    """A rig whose camera indices skip 1 gets corner files for camera0 and
    camera2, each detected under its own id."""
    k = sim.default_intrinsics()
    sensors = {
        SensorId("camera", 0): k,
        SensorId("camera", 2): k,
        SensorId("lidar", 0): None,
        SensorId("lidar", 1): None,
    }
    records, pose_errors = _run_pipeline(sensors, tmp_path, caplog)
    cameras = {str(r.sensor) for r in records if r.sensor.kind == "camera"}
    assert cameras == {"camera0", "camera2"}
    assert "not in the config" not in caplog.text
    assert sorted(pose_errors) == ["camera0", "camera2", "lidar0", "lidar1"]
    for name, (trans, rot) in pose_errors.items():
        assert trans < 0.008 and rot < 0.1, (name, trans, rot)


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
            assert np.abs(matrix(t1) - matrix(t2)).max() < 1e-6


def test_calibrate_reference_display_name_follows_the_report_not_the_config(ws, tmp_path):
    """With the config's sensors listed in reverse, `--reference S<n>` still
    names the sensor that the report calls S<n>."""
    cfg = io_formats.read_config(ws["config"])
    cfg_path = tmp_path / "reversed.json"
    io_formats.write_config(cfg_path, replace(cfg, sensors=dict(reversed(cfg.sensors.items()))))
    for k in range(1, len(cfg.sensors) + 1):
        out = tmp_path / f"report_s{k}.json"
        argv = ["calibrate", "--config", str(cfg_path), "--detections", str(ws["det"])]
        assert cli.main(argv + ["--out", str(out), "--reference", f"S{k}"]) == 0
        rep = json.loads(out.read_text())
        assert rep["poses"][rep["reference"]]["display"] == f"S{k}"


def test_calibrate_numbers_the_configured_sensors_when_one_has_no_detections(ws, tmp_path, caplog):
    """With camera1's records removed from the detections, the report and
    `--reference S<n>` still number the configured sensors alike: the report
    calls camera2 S3, `--reference S3` names camera2, and `--reference S2`
    names camera1, which has no detections (exit 2)."""
    doc = json.loads(ws["det"].read_text())
    doc["records"] = [r for r in doc["records"] if r["sensor"] != {"kind": "camera", "index": 1}]
    det = tmp_path / "detections.json"
    det.write_text(json.dumps(doc))
    argv = ["calibrate", "--config", str(ws["config"]), "--detections", str(det), "--out"]
    assert cli.main(argv + [str(tmp_path / "report.json")]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    display = {name: pose["display"] for name, pose in rep["poses"].items()}
    assert display == {"camera0": "S1", "camera2": "S3", "lidar0": "S4", "lidar1": "S5"}
    text = (tmp_path / "report.txt").read_text()
    assert "  S3 camera2: " in text and "  S4 lidar0: " in text
    assert cli.main(argv + [str(tmp_path / "report_s3.json"), "--reference", "S3"]) == 0
    assert json.loads((tmp_path / "report_s3.json").read_text())["reference"] == "camera2"
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert cli.main(argv + [str(tmp_path / "report_s2.json"), "--reference", "S2"]) == 2
    assert "reference camera1 has no detections" in caplog.text


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


def test_calibrate_pairwise_mode_composes_along_a_path_of_cameras(tmp_path):
    """Four cameras whose records co-detect only along the path camera0 -
    camera1 - camera2 - camera3: the pairwise loop composes camera3 -> camera0
    over three hops, and both modes exit 0."""
    cfg = io_formats.default_config(0, 4)
    config = tmp_path / "config.json"
    io_formats.write_config(config, cfg)
    scene = sim.make_scene(cfg.sensors, sequences=24, seed=1)
    records, hops = [], set()
    for seq in oracle_observations(scene):
        seen = {s.index for s in seq.observations}
        for k in ((seq.sequence + n) % 3 for n in range(3)):
            if {k, k + 1} <= seen:
                hops.add(k)
                for s in (SensorId("camera", k), SensorId("camera", k + 1)):
                    records.append(io_formats.DetectionRecord(seq.sequence, s, seq.observations[s]))
                break
    assert hops == {0, 1, 2}
    det = tmp_path / "detections.json"
    io_formats.write_detections(det, records)
    argv = ["calibrate", "--config", str(config), "--detections", str(det), "--out"]
    assert cli.main(argv + [str(tmp_path / "report.json")]) == 0
    assert cli.main(argv + [str(tmp_path / "report_pw.json"), "--pairwise-mode"]) == 0
    rep = json.loads((tmp_path / "report_pw.json").read_text())
    assert rep["consistency"]["mode"] == "pairwise"
    assert rep["consistency"]["translation_deviation_m"] < 1e-9


def test_calibrate_unknown_reference_exit_2(ws, tmp_path, caplog):
    """A reference that is neither a sensor id nor S<n> of a configured
    sensor exits 2, "S²" too, whose digit `str.isdigit` accepts."""
    argv = ["calibrate", "--config", str(ws["config"]), "--detections", str(ws["det"])]
    for name in ("sonar0", "S²", "S0", "S6"):
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="crosscal"):
            assert cli.main(argv + ["--out", str(tmp_path / "r.json"), "--reference", name]) == 2
        assert f"unknown reference sensor {name!r}" in caplog.text


def test_calibrate_out_ending_in_txt_exit_2(ws, tmp_path, caplog):
    """The report's table goes beside it as .txt, so a .txt --out would be
    overwritten by its own table: refused before anything is written."""
    argv = ["calibrate", "--config", str(ws["config"]), "--detections", str(ws["det"])]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert cli.main(argv + ["--out", str(tmp_path / "rep.txt")]) == 2
    assert "file error" in caplog.text and "rep.txt" in caplog.text
    assert not list(tmp_path.iterdir())


def _copy_inputs(ws, tmp_path, config_name="config.json"):
    """A copy of the config (as `config_name`), the dataset and the
    detections under `tmp_path`."""
    shutil.copy(ws["config"], tmp_path / config_name)
    shutil.copytree(ws["data"], tmp_path / "data")
    shutil.copy(ws["det"], tmp_path / "d.json")
    return tmp_path / config_name, tmp_path / "data", tmp_path / "d.json"


@pytest.mark.parametrize(
    "config_name, out",
    [
        ("config.json", "config.json"),
        ("config.json", "data/seq_000/corners_camera0.json"),
        ("config.json", "data/seq_001/../seq_000/init_lidar0.json"),
        ("config.json", "data/seq_000/cloud_lidar0.ply"),
        ("out.manifest.json", "out.json"),  # its manifest
    ],
    ids=["config", "corner-file", "init-file", "cloud", "manifest-onto-the-config"],
)
def test_detect_output_onto_one_of_its_inputs_exit_2(ws, tmp_path, caplog, config_name, out):
    """An output that names a file `detect` reads is refused before any
    file is read or written."""
    config, data, _ = _copy_inputs(ws, tmp_path, config_name)
    before = _tree_bytes(tmp_path)
    argv = ["detect", "--config", str(config), "--data", str(data), "--out", str(tmp_path / out)]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert cli.main(argv) == 2
    assert "file error" in caplog.text and "is one of the command's inputs" in caplog.text
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize(
    "config_name, detections, out",
    [
        ("config.json", "d.json", "d.json"),
        ("config.json", "d.json", "config.json"),
        ("config.json", "r.txt", "r.json"),  # the report's table
        ("r.manifest.json", "d.json", "r.json"),  # its manifest
        ("config.json", "d.json", "./sub/../d.json"),
        ("config.json", "d.json", "link.json"),  # a hard link to the detections
    ],
    ids=[
        "detections",
        "config",
        "table-onto-the-detections",
        "manifest-onto-the-config",
        "by-another-path",
        "hard-link",
    ],
)
def test_calibrate_output_onto_one_of_its_inputs_exit_2(
    ws, tmp_path, caplog, monkeypatch, config_name, detections, out
):
    """An output that names a file `calibrate` reads, the report's table and
    manifest included, is refused before any file is read or written."""
    config, _, det = _copy_inputs(ws, tmp_path, config_name)
    det.rename(tmp_path / detections)
    os.link(tmp_path / detections, tmp_path / "link.json")
    (tmp_path / "sub").mkdir()
    before = _tree_bytes(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = ["calibrate", "--config", str(config), "--detections", detections, "--out", out]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert cli.main(argv) == 2
    assert "file error" in caplog.text and "is one of the command's inputs" in caplog.text
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("name", ["ground_truth.json", "manifest.json"])
def test_simulate_output_onto_its_config_exit_2(ws, tmp_path, caplog, name):
    """A config at the path of the ground truth or the manifest that
    `simulate` writes under --out is refused before anything is written."""
    (tmp_path / "d").mkdir()
    config = tmp_path / "d" / name
    shutil.copy(ws["config"], config)
    before = _tree_bytes(tmp_path)
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "d")]) == 2
    assert "file error" in caplog.text and "is one of the command's inputs" in caplog.text
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("command", ["simulate", "detect", "calibrate"])
def test_config_reference_not_a_listed_sensor_exit_2(ws, tmp_path, caplog, command):
    doc = json.loads(ws["config"].read_text())
    doc["reference"] = {"kind": "camera", "index": 7}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = {
        "simulate": ["--out", str(out)],
        "detect": ["--data", str(ws["data"]), "--out", str(out)],
        "calibrate": ["--detections", str(ws["det"]), "--out", str(out)],
    }[command]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert cli.main([command, "--config", str(config), *argv]) == 2
    assert "input error" in caplog.text
    assert "reference camera7 is not one of the config's sensors" in caplog.text
    assert not out.exists()


def _translations(report: Path) -> dict:
    return {
        name: np.array(doc["translation"])
        for name, doc in json.loads(report.read_text())["poses"].items()
    }


_LIDAR_SWAP = {SensorId("lidar", 0): SensorId("lidar", 1), SensorId("lidar", 1): SensorId("lidar", 0)}


# Reordering and renumbering leave the solve's start and path alone: its
# poses move by float rounding. Relabelled LiDARs or doubled stations start
# it elsewhere, and it stops where the cost's rounding lets it: 5.2e-10 m
# apart for the swap and 1.5e-9 m for the doubling on this dataset.
@pytest.mark.parametrize(
    "edit, renamed, bound",
    [
        (lambda recs: [recs[k] for k in np.random.default_rng(5).permutation(len(recs))], {}, 1e-9),
        (lambda recs: recs[::-1], {}, 1e-9),
        (lambda recs: [replace(r, sequence=100 - 7 * r.sequence) for r in recs], {}, 1e-9),
        (
            lambda recs: [replace(r, sensor=_LIDAR_SWAP.get(r.sensor, r.sensor)) for r in recs],
            {"lidar0": "lidar1", "lidar1": "lidar0"},
            1e-8,
        ),
        (lambda recs: recs + [replace(r, sequence=r.sequence + 1000) for r in recs], {}, 1e-8),
    ],
    ids=["shuffled", "reversed", "renumbered", "lidars-swapped", "stations-doubled"],
)
def test_calibrate_does_not_depend_on_record_order_station_numbers_or_lidar_labels(
    ws, tmp_path, edit, renamed, bound
):
    """The same detections, reordered, renumbered, with lidar0 and lidar1
    relabelled, or with every station given twice under new numbers, solve
    to the same poses (the relabelled LiDARs' under each other's name)."""
    det, report = tmp_path / "d.json", tmp_path / "r.json"
    io_formats.write_detections(det, edit(io_formats.read_detections(ws["det"])))
    argv = ["calibrate", "--config", str(ws["config"]), "--detections", str(det)]
    assert cli.main(argv + ["--out", str(report)]) == 0
    got = {renamed.get(name, name): t for name, t in _translations(report).items()}
    want = _translations(ws["report"])
    assert got.keys() == want.keys()
    assert max(np.linalg.norm(got[k] - want[k]) for k in want) <= bound


def test_calibrate_malformed_detections_exit_2(ws, tmp_path, caplog):
    doc = json.loads(ws["det"].read_text())
    del doc["records"][0]["pose"]["euler_xyz_deg"]
    det = tmp_path / "d.json"
    det.write_text(json.dumps(doc))
    argv = ["calibrate", "--config", str(ws["config"]), "--detections", str(det)]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        rc = cli.main(argv + ["--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "input error" in caplog.text and "euler_xyz_deg" in caplog.text


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "kind, path, value, message",
    [
        ("lidar", ("pose", "euler_xyz_deg"), [0.0, _NAN, 0.0], "not finite"),
        ("lidar", ("pose", "translation"), [0.0, _INF, 1.0], "not finite"),
        ("lidar", ("centers_3d", 1, 2), _NAN, "not finite"),
        ("camera", ("centers_3d", 2, 0), -_INF, "not finite"),
        ("camera", ("centers_2d", 0, 1), _NAN, "not finite"),
        ("lidar", ("fitness",), _NAN, "not finite"),
        ("camera", ("reprojection_error",), _INF, "not finite"),
        ("lidar", ("sequence",), 1.5, "not an integer"),
        ("lidar", ("sequence",), True, "not an integer"),
        ("camera", ("sensor", "index"), 1.5, "not an integer"),
        ("camera", ("corners_used",), 2.7, "not an integer"),
    ],
    ids=[
        "nan-angle",
        "inf-translation",
        "nan-lidar-center",
        "inf-camera-center",
        "nan-pixel-center",
        "nan-fitness",
        "inf-reprojection-error",
        "fractional-sequence",
        "boolean-sequence",
        "fractional-index",
        "fractional-corners",
    ],
)
def test_calibrate_non_finite_pose_in_detections_exit_2(
    ws, tmp_path, caplog, kind, path, value, message
):
    """A value that calibrate would misread, set at `path` in the first
    record of type `kind`, is an input error: exit 2."""
    doc = json.loads(ws["det"].read_text())
    rec = next(r for r in doc["records"] if r["type"] == kind)
    *outer, key = path
    for k in outer:
        rec = rec[k]
    rec[key] = value
    det = tmp_path / "d.json"
    det.write_text(json.dumps(doc))  # NaN and Infinity, as Python's json writes them
    argv = ["calibrate", "--config", str(ws["config"]), "--detections", str(det)]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        rc = cli.main(argv + ["--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "input error" in caplog.text and message in caplog.text


@pytest.mark.parametrize("name", ["nope.json", "a_directory"])
def test_calibrate_unreadable_detections_exit_2(ws, tmp_path, caplog, name):
    det = tmp_path / name
    if name == "a_directory":
        det.mkdir()
    argv = ["calibrate", "--config", str(ws["config"]), "--detections", str(det)]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        rc = cli.main(argv + ["--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "file error" in caplog.text and name in caplog.text


@pytest.mark.parametrize("command", ["simulate", "detect", "calibrate"])
def test_output_under_a_regular_file_exit_2(ws, tmp_path, caplog, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub" / "out.json"
    inputs = {
        "simulate": [],
        "detect": ["--data", str(ws["data"])],
        "calibrate": ["--detections", str(ws["det"])],
    }[command]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        rc = cli.main([command, "--config", str(ws["config"]), *inputs, "--out", str(out)])
    assert rc == 2
    assert str(blocker) in caplog.text
    assert "unexpected failure" not in caplog.text


def test_value_error_inside_simulation_exit_1(ws, tmp_path, monkeypatch, caplog):
    """Only the reading of the config maps a ValueError to exit 2; one raised
    by a bug inside the simulator is an unexpected failure."""

    def broken(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(cli.sim, "make_scene", broken)
    argv = ["simulate", "--config", str(ws["config"]), "--out", str(tmp_path / "o")]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert cli.main(argv) == 1
    assert "unexpected failure" in caplog.text and "input error" not in caplog.text


def _error_types(base=errors.CrosscalError):
    """`base` and every class below it, depth first."""
    return [base] + [t for sub in base.__subclasses__() for t in _error_types(sub)]


# the exit code of every error type of `errors`, as README lists them; a new
# type fails test_every_error_type_exits_with_its_code until it is listed
_CODES = {
    errors.InfeasibleLayout: 3,
    errors.NoDetections: 4,
    errors.DisconnectedGraph: 5,
    errors.SolverNotConverged: 6,
    **dict.fromkeys(
        [
            errors.CrosscalError,
            errors.NonPositiveDepth,
            errors.LidarStageError,
            errors.EmptyAfterFilter,
            errors.EmptyMatch,
            errors.DegenerateInput,
            errors.LowInlierRatio,
            errors.PoorFit,
            errors.GridTooSmall,
            errors.NoVoidFound,
            errors.InconsistentCircles,
            errors.InsufficientCorners,
            errors.DegenerateConfiguration,
            errors.BehindCamera,
            errors.NoReferenceObservations,
            errors.DegenerateCenters,
            errors.SingularNormalEquations,
            errors.UnknownSensor,
            errors.ParseError,
            errors.UnsupportedFormat,
            errors.SchemaVersionMismatch,
            errors.MissingField,
            errors.IoError,
        ],
        2,
    ),
}
# the arguments of the error types whose constructor takes no message
_ERROR_ARGS = {
    errors.DisconnectedGraph: ([["lidar0"], ["camera0"]],),
    errors.SingularNormalEquations: (["lidar0"],),
    errors.SolverNotConverged: (
        optimizer.CalibrationResult(
            poses={},
            problem=None,
            final_cost=1.5,
            initial_cost=2.0,
            iterations=7,
            converged=False,
            gradient_norm=0.25,
            gradient_cosine=0.5,
        ),
    ),
}


@pytest.mark.parametrize(
    "kind",
    [t for t in _error_types() if t.__module__ == "crosscal.errors"] + [ValueError],
    ids=lambda t: t.__name__,
)
def test_every_error_type_exits_with_its_code(tmp_path, monkeypatch, caplog, kind):
    """`main` maps each CrosscalError that a command raises to its exit code
    and logs one line with its message; any other exception exits 1."""
    error = kind(*_ERROR_ARGS.get(kind, ("a failure",)))

    def fail(path):
        raise error

    monkeypatch.setattr(cli.io_formats, "read_config", fail)
    argv = ["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        rc = cli.main(argv)
    if kind is ValueError:
        assert rc == 1 and "unexpected failure" in caplog.text
        return
    assert rc == _CODES[kind]
    (logged,) = caplog.records
    assert logged.getMessage().endswith(f": {error}")


def test_calibrate_detections_of_a_camera_not_in_the_config_exit_2(ws, tmp_path, caplog):
    cams = sorted({r.sensor for r in io_formats.read_detections(ws["det"]) if r.sensor.kind == "camera"})
    cfg = io_formats.read_config(ws["config"])
    assert len(cams) > 1 and cfg.reference != cams[-1]
    cfg_path = tmp_path / "config.json"
    io_formats.write_config(
        cfg_path, replace(cfg, sensors={s: k for s, k in cfg.sensors.items() if s != cams[-1]})
    )
    report = tmp_path / "r.json"
    argv = ["calibrate", "--config", str(cfg_path), "--detections", str(ws["det"]), "--out", str(report)]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert cli.main(argv) == 2
    assert f"detections of {cams[-1]}, which the config does not list" in caplog.text
    assert "unexpected failure" not in caplog.text
    assert not report.exists()


def test_calibrate_detections_of_a_lidar_not_in_the_config_exit_2(ws, tmp_path, caplog):
    """Detections of a sensor that the config does not list are an input
    error, as `detect` refuses that sensor's files: solved, the sensor would
    shift the S<n> names that `--reference` reads (S4 is lidar1 here)."""
    lidar0 = SensorId("lidar", 0)
    assert lidar0 in {r.sensor for r in io_formats.read_detections(ws["det"])}
    cfg = io_formats.read_config(ws["config"])
    cfg_path = tmp_path / "config.json"
    io_formats.write_config(
        cfg_path, replace(cfg, sensors={s: k for s, k in cfg.sensors.items() if s != lidar0})
    )
    report = tmp_path / "r.json"
    argv = ["calibrate", "--config", str(cfg_path), "--detections", str(ws["det"])]
    with caplog.at_level(logging.ERROR, logger="crosscal"):
        assert cli.main(argv + ["--out", str(report), "--reference", "S4"]) == 2
    assert "input error: detections of lidar0, which the config does not list" in caplog.text
    assert not report.exists()


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
                gradient_cosine=2.5e-3,
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
    assert "gradient cosine 0.0025" in msg
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
    assert project["scripts"] == {"crosscal": "crosscal.__main__:main"}
    script = shutil.which("crosscal")
    if script:
        cmd, env = [script], None
    else:
        env = _source_env()
        cmd = [sys.executable, "-m", "crosscal"]
    out = subprocess.run(
        cmd + ["--version"], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == project["version"] == crosscal.__version__


def test_importing_crosscal_loads_no_numpy_and_pins_no_blas():
    """Only the command pins BLAS: the package loads no numpy, and a program
    that imports the commands keeps its environment."""
    code = (
        "import os, sys, crosscal; print('numpy' in sys.modules); import crosscal.cli; "
        f"print([v for v in {_BLAS_VARS!r} if v in os.environ])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_source_env(), timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == ["False", "[]", ""]


def test_command_pins_blas_only_where_the_environment_does_not(monkeypatch):
    from crosscal import __main__ as command

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        # setenv first, so that teardown also removes what main() sets
        monkeypatch.setenv(var, "x")
        monkeypatch.delenv(var)
    monkeypatch.setattr(cli, "main", lambda: 0)
    assert command.main() == 0
    assert [os.environ[v] for v in _BLAS_VARS] == ["3", "1", "1"]


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_every_json_output_is_compact_and_sorted_through_the_c_encoder(tmp_path, monkeypatch):
    """Every JSON file of the three commands is in the one canonical form,
    written by json's C encoder: the pure-Python one would raise."""

    def python_encoder(*args, **kwargs):
        raise AssertionError("canonical_json ran json's pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
    cfg = replace(io_formats.default_config(), sim={**io_formats.DEFAULT_SIM, "sequences": 2})
    config = tmp_path / "config.json"
    io_formats.write_config(config, cfg)
    data, det, report = tmp_path / "data", tmp_path / "d.json", tmp_path / "r.json"
    args = ["--config", str(config)]
    assert cli.main(["simulate", *args, "--out", str(data)]) == 0
    assert cli.main(["detect", *args, "--data", str(data), "--out", str(det)]) == 0
    assert cli.main(["calibrate", *args, "--detections", str(det), "--out", str(report)]) == 0
    outputs = sorted(tmp_path.rglob("*.json"))
    kinds = {"config", "ground_truth", "manifest", "init_lidar0", "corners_camera0", "d", "r"}
    assert kinds | {"d.manifest", "r.manifest"} <= {p.stem for p in outputs}
    for path in outputs:
        text = path.read_text()
        assert text == _canonical(text), path


def test_indented_inputs_give_the_bytes_of_compact_ones(ws, tmp_path):
    """Datasets and detections written with a 2-space indent still read, and
    `detect` and `calibrate` write the same bytes from them."""

    def indent(path):
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) + "\n")

    data = tmp_path / "data"
    shutil.copytree(ws["data"], data)
    config = tmp_path / "config.json"
    shutil.copy(ws["config"], config)
    inputs = [config, *data.glob("seq_*/corners_*.json"), *data.glob("seq_*/init_*.json")]
    assert len(inputs) > 8
    for path in inputs:
        indent(path)
    det = tmp_path / "detections.json"
    args = ["--config", str(config)]
    assert cli.main(["detect", *args, "--data", str(data), "--out", str(det)]) == 0
    assert det.read_bytes() == ws["det"].read_bytes()
    indent(det)
    report = tmp_path / "report.json"
    assert cli.main(["calibrate", *args, "--detections", str(det), "--out", str(report)]) == 0
    assert report.read_bytes() == ws["report"].read_bytes()
    assert report.with_suffix(".txt").read_bytes() == ws["report"].with_suffix(".txt").read_bytes()


def _lidar_truth_records(data: Path, cfg) -> list:
    """An exact LiDAR record per cloud that `simulate` wrote into `data`:
    the ground-truth circle centers in the sensor frame."""
    gt = json.loads((data / "ground_truth.json").read_text())
    records = []
    for cloud in sorted(data.glob("seq_*/cloud_lidar*.ply")):
        seq = int(cloud.parent.name.split("_")[1])
        sensor = SensorId("lidar", int(cloud.stem[len("cloud_lidar") :]))
        sensor_w = io_formats.pose_from_json(gt["sensors"][str(sensor)])
        board = geometry.compose(
            geometry.invert(sensor_w), io_formats.pose_from_json(gt["boards"][seq])
        )
        records.append(
            {
                "type": "lidar",
                "sequence": seq,
                "sensor": io_formats.sensor_to_json(sensor),
                "pose": io_formats.pose_to_json(board),
                "centers_3d": board.apply(circle_centers_board(cfg.target)).tolist(),
                "fitness": 0.0,
            }
        )
    return records


def test_calibrate_command_report_is_the_same_on_any_blas_thread_count(tmp_path):
    """A rig of 4 LiDARs and 6 cameras over 40 stations, whose global solve
    is large enough for BLAS to split its products over threads: the
    command writes the same report whether or not the environment pins BLAS
    to one thread."""
    base = io_formats.default_config(4, 6)
    noise = {**base.sim["noise"], "pixel_sigma": 0.5}
    scan = {**base.sim["scan"], "az_res_deg": 30.0, "el_res_deg": 30.0}
    cfg = replace(base, sim={**base.sim, "sequences": 40, "noise": noise, "scan": scan})
    config = tmp_path / "config.json"
    io_formats.write_config(config, cfg)
    data, det = tmp_path / "data", tmp_path / "detections.json"
    assert cli.main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    lidar = _lidar_truth_records(data, cfg)
    for cloud in data.glob("seq_*/cloud_*.ply"):
        cloud.unlink()
    assert cli.main(["detect", "--config", str(config), "--data", str(data), "--out", str(det)]) == 0
    doc = json.loads(det.read_text())
    records = sorted(
        doc["records"] + lidar,
        key=lambda r: (r["sequence"], r["type"] != "lidar", r["sensor"]["index"]),
    )
    det.write_text(io_formats.canonical_json({**doc, "records": records}))
    reports = []
    for name, extra in (("unset", {}), ("one", dict.fromkeys(_BLAS_VARS, "1"))):
        report = tmp_path / f"report_{name}.json"
        cmd = [sys.executable, "-m", "crosscal", "calibrate", "--config", str(config)]
        cmd += ["--detections", str(det), "--out", str(report)]
        out = subprocess.run(
            cmd, capture_output=True, text=True, env=_source_env(**extra), timeout=120
        )
        assert out.returncode == 0, out.stderr
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


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
