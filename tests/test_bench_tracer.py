"""The benchmark's tracer (`bench/spans.py`) wraps the program's functions at
the module attributes the program calls them through. Installing it here
fails when one of those attributes is renamed or removed, not only a traced
benchmark run."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from crosscal import lidar, sim


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
