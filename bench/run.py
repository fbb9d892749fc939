"""crosscal benchmark: runs `simulate` / `detect` / `calibrate` through
`crosscal.cli.main` in this process, checks every output against the
simulator's ground truth, and prints one JSON result as its last stdout line.

    python3 bench/run.py --workload default_rig --seed 0 --seconds 10 --trace 0

A round calls each of the workload's commands once. A run repeats whole
rounds until `--seconds` have passed, and at least `workloads.ROUNDS`, and
reports the median round. `--trace 1` reports the per-layer metrics from a
traced run instead of the end-to-end ones and writes the spans to
`bench/out/<workload>/trace.json`. See bench/README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
if not (SRC / "crosscal" / "cli.py").is_file() or not (ROOT / "schemas").is_dir():
    sys.exit(f"bench: no crosscal source tree under {ROOT}")
# One process, no extra threads: BLAS pools are sized before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(SRC), str(ROOT / "bench")]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import crosscal  # noqa: E402

if Path(crosscal.__file__).resolve().parent != SRC / "crosscal":
    sys.exit(f"bench: imported crosscal from {crosscal.__file__}, not from {SRC}")

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from crosscal import cli, io_formats  # noqa: E402

# A set-up is mostly a fresh interpreter importing numpy and scipy (~0.7 s),
# which spreads widely from one start to the next.
SETUP_REPEATS = 5

UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "dataset_mb": "MB",
    "peak_rss_mb": "MB",
    "trans_err_max_m": "m",
    "trans_err_median_m": "m",
    "rot_err_max_deg": "deg",
}


class FailureLog(logging.Handler):
    """The stage of each failed detection, {(sequence, sensor): stage}, from
    `detect`'s warnings; which detections failed is read from its output."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.stages = {}

    def emit(self, record):
        if "detection failed" not in str(record.msg) or len(record.args) != 3:
            return
        seq, sensor, err = record.args
        m = re.search(r"stage '(\w+)'", str(err))
        self.stages[(int(seq), str(sensor))] = m.group(1) if m else type(err).__name__


def _detection_keys(data: Path) -> set:
    """(sequence, sensor) of every cloud and corner file in a dataset."""
    keys = set()
    for pattern, prefix in (("cloud_*.ply", "cloud_"), ("corners_*.json", "corners_")):
        for path in data.glob(f"seq_*/{pattern}"):
            keys.add((int(path.parent.name.split("_")[1]), path.stem[len(prefix):]))
    return keys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="accepted; inputs are fixed, see README")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # The previous run's outputs go before anything is timed, and the
    # deletions are committed: files freed just before a timed write make the
    # file system's allocations cost several times more kernel time.
    work = workloads.fresh_dir(OUT / args.workload)
    os.sync()

    setups = [prepare(args.workload, work) for _ in range(SETUP_REPEATS)]
    setup = setups[-1]

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.install(tracer)
    fail_log = FailureLog()
    logging.getLogger("crosscal").addHandler(fail_log)
    rounds = []
    t_rounds = time.perf_counter()
    try:
        while (
            len(rounds) < workloads.ROUNDS[args.workload]
            or time.perf_counter() - t_rounds < args.seconds
        ):
            rounds.append(run_round(args.workload, setup, work, tracer, fail_log, len(rounds)))
    finally:
        logging.getLogger("crosscal").removeHandler(fail_log)
        if tracer is not None:
            tracer.restore()

    problems, errors, records, gt = check_outputs(args.workload, setup, work, rounds)
    for p in problems:
        print(f"bench: CHECK FAILED: {p}", file=sys.stderr)
    for (seq, sensor), stage in sorted(rounds[-1]["failures"].items()):
        print(f"bench: failed detection: seq {seq} {sensor} at stage {stage!r}", file=sys.stderr)
    if not errors:  # no report to measure
        errors = {"none": (float("nan"), float("nan"))}

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(s["seconds"] for s in setups),
            "pipeline_s": statistics.median(r["pipeline_s"] for r in rounds),
            "dataset_mb": statistics.median(r["dataset_bytes"] for r in rounds) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "trans_err_max_m": max(t for t, _ in errors.values()),
            "trans_err_median_m": statistics.median(t for t, _ in errors.values()),
            "rot_err_max_deg": max(r for _, r in errors.values()),
        }
        units = UNITS
    else:
        metrics, commands = spans.summarize(tracer, len(rounds))
        if records:
            metrics.update(layer_accuracy(records, gt, setup["cfg"]))
        tracer.dump(work / "trace.json", {"rounds": len(rounds), "metrics": metrics, "commands": commands})
        units = {k: _unit(k) for k in metrics}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": sum(len(r["failures"]) for r in rounds),
                "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_mm", "mm"), ("_px", "px")):
        if name.endswith(suffix):
            return unit
    return "count"


def prepare(workload: str, work: Path) -> dict:
    """Set-up, timed as a user meets it: a fresh interpreter importing the
    program, then the config."""
    t0 = time.perf_counter()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", "import crosscal.cli"], env=env, check=True)
    cfg = workloads.config_for(workload)
    config = work / "config.json"
    io_formats.write_config(config, cfg)
    return {"cfg": cfg, "config": config, "seconds": time.perf_counter() - t0}


def run_round(
    workload: str, setup: dict, work: Path, tracer, fail_log: FailureLog, index: int
) -> dict:
    """One pass of the workload's commands, each called once, on a freshly
    written dataset. Each round's `simulate` writes into a new directory, so
    that no deletion comes right before it. The clouds are deleted once
    `detect` has read them; on large_rig before `detect`, whose LiDAR records
    are made from ground truth instead. Only the commands are timed."""
    config = str(setup["config"])
    det, report = work / "detections.json", work / "report.json"
    span = tracer.span if tracer is not None else lambda name: contextlib.nullcontext()
    out = {"exit_codes": [], "pipeline_s": 0.0}

    def command(name, *argv):
        t0 = time.perf_counter()
        with span(f"cli.{name}"):
            out["exit_codes"].append(cli.main([name, "--config", config, *argv]))
        out["pipeline_s"] += time.perf_counter() - t0

    data = workloads.fresh_dir(work / f"data_{index}")
    command("simulate", "--out", str(data))
    out["data"] = data
    out["dataset_bytes"] = sum(p.stat().st_size for p in data.rglob("*") if p.is_file())
    if workload == "large_rig":
        lidar_records = workloads.lidar_records(data, setup["cfg"])
        _delete_clouds(data)
    expected = _detection_keys(data)
    out["attempted"] = len(expected)
    fail_log.stages = {}
    command("detect", "--data", str(data), "--out", str(det))
    detected = set()
    if det.exists():
        for r in json.loads(det.read_text())["records"]:
            detected.add((r["sequence"], f"{r['sensor']['kind']}{r['sensor']['index']}"))
    out["failures"] = {k: fail_log.stages.get(k, "unknown") for k in expected - detected}
    _delete_clouds(data)
    if workload == "large_rig" and det.exists():
        workloads.merge_records(det, lidar_records)
    command("calibrate", "--detections", str(det), "--out", str(report))
    out["digests"] = tuple(
        hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None for p in (det, report)
    )
    return out


def _delete_clouds(data: Path):
    for cloud in data.glob("seq_*/cloud_*.ply"):
        cloud.unlink()


def check_outputs(workload: str, setup: dict, work: Path, rounds: list) -> tuple:
    """Exit codes, failures and byte-identity on every round; all other
    checks on the last round's outputs. Returns (problems, pose errors,
    detection records, ground truth)."""
    problems = []
    for k, r in enumerate(rounds):
        if any(r["exit_codes"]):
            problems.append(f"round {k}: exit codes {r['exit_codes']}")
        problems += checks.failure_problems(r["failures"], workloads.KNOWN_FAILURES[workload])
    if len({r["digests"] for r in rounds}) > 1:
        problems.append("rounds wrote different detections or reports")
    report_path, det_path = work / "report.json", work / "detections.json"
    if problems or not report_path.exists():
        return problems or ["no report written"], {}, [], {}

    det_doc = json.loads(det_path.read_text())
    report = json.loads(report_path.read_text())
    gt = json.loads((rounds[-1]["data"] / "ground_truth.json").read_text())
    spec = setup["cfg"].target
    records = det_doc["records"]
    for doc, name in ((det_doc, "detections"), (report, "report")):
        schema = json.loads((ROOT / "schemas" / f"{name}.schema.json").read_text())
        problems += checks.schema_problems(doc, schema, f"{name}.json")
    problems += checks.solver_problems(report)
    errors = checks.pose_errors(report, gt)
    problems += checks.pose_problems(errors, *workloads.POSE_LIMITS[workload])
    if workload == "default_rig":
        problems += checks.camera_center_problems(records, gt, spec)
        cell = 1.0 / setup["cfg"].lidar_params.grid_res
        problems += checks.lidar_center_problems(records, gt, spec, cell)
    if workload == "large_rig":
        problems += checks.lidar_pair_problems(report, workloads.LIDAR_PAIR_LIMIT)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (det_path, report_path)}
    problems += check_digests(workload, digests)
    return problems, errors, records, gt


def check_digests(workload: str, digests: dict) -> list:
    """Compare the outputs with those of earlier runs in this checkout of the
    same program on the same inputs (the key hashes the sources and the
    workload; the inputs do not depend on the seed)."""
    key = hashlib.sha256(workload.encode())
    for path in sorted((SRC / "crosscal").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        key.update(path.read_bytes())
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    problems = checks.digest_problems(digests, known.get(key.hexdigest()))
    if not problems:
        known[key.hexdigest()] = digests
        store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return problems


def layer_accuracy(records: list, gt: dict, cfg) -> dict:
    """Per-layer accuracy: LiDAR centers (in-plane, best cyclic order) as
    detected and as implied by the registered pose, and PnP reprojection."""
    in_plane, from_pose = [], []
    for rec in records:
        if rec["type"] == "lidar":
            _, inp, pose = checks.lidar_center_errors(rec, gt, cfg.target)
            in_plane.append(inp * 1000)
            from_pose.append(pose * 1000)
    reproj = [r["reprojection_error"] for r in records if r["type"] == "camera"]
    return {
        "lidar.center_err_median_mm": statistics.median(in_plane) if in_plane else 0.0,
        "lidar.center_err_max_mm": max(in_plane, default=0.0),
        "lidar.pose_center_err_median_mm": statistics.median(from_pose) if from_pose else 0.0,
        "camera.reproj_err_median_px": statistics.median(reproj) if reproj else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
