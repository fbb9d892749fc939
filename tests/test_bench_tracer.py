"""The benchmark's tracer (`bench/spans.py`) wraps the program's functions at
the module attributes the program calls them through. Installing it here
fails when one of those attributes is renamed or removed, not only a traced
benchmark run."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from conftest import oracle_observations, rig
from crosscal import cli, io_formats, lidar, optimizer, sim


def _load_spans():
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped():
    return sim.render_lidar, lidar.gicp_register, lidar.cKDTree


def test_tracer_installs_on_every_attribute_it_names_and_restores_them():
    spans = _load_spans()
    originals = _wrapped()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert all(now is not was for now, was in zip(_wrapped(), originals))
    finally:
        tracer.restore()
    assert _wrapped() == originals


def test_installing_the_tracer_loads_no_scipy():
    """The tracer's `lidar.cKDTree` is a placeholder class: installing it in a
    fresh interpreter imports no scipy."""
    root = Path(__file__).resolve().parent.parent
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('bench_spans', {str(root / 'bench' / 'spans.py')!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "tracer.restore()\n"
        "print('scipy' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_traced_calibrate_counts_one_normal_equation_call_per_lm_iteration(tmp_path, monkeypatch):
    """The tracer counts LM's third positional callback, the normal
    equations, as `lm.jacobian`: a traced calibrate reads one call per LM
    iteration, and the residual rows it saw: the global solve's residual
    count, 8 rows per camera term and 12 per LiDAR pair, which the batch of
    one returns flat."""
    problems, solve = [], optimizer.solve
    monkeypatch.setattr(optimizer, "solve", lambda p: problems.append(p) or solve(p))
    cfg = io_formats.default_config()
    scene = sim.make_scene(rig(), sequences=4, seed=0)
    records = [
        io_formats.DetectionRecord(seq.sequence, s, det)
        for seq in oracle_observations(scene)
        for s, det in seq.observations.items()
    ]
    io_formats.write_config(tmp_path / "config.json", cfg)
    io_formats.write_detections(tmp_path / "detections.json", records)
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        argv = ["--config", str(tmp_path / "config.json"), "--detections", str(tmp_path / "detections.json")]
        assert cli.main(["calibrate", *argv, "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.restore()
    metrics = spans.summarize(tracer, 1)[0]
    assert metrics["lm.jacobian_evals"] == metrics["lm.iterations"] > 0
    (problem,) = problems
    terms = problem._table
    assert metrics["optimizer.residual_rows"] == 8 * len(terms.cam.i) + 12 * len(terms.lidar.i) > 0
