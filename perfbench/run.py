"""crossdiff benchmark: seeded workloads, end-to-end metrics and a traced per-layer split.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-generic --seed 1 --seconds 25 --trace 0

Every repeat runs in a fresh worker process with BLAS pinned to one thread.
``--trace 0`` repeats the workload for ``--seconds`` and reports the medians
of ``wall_s``, ``setup_s`` and ``peak_rss_mb``.  Times are in reference
seconds: each measured time is multiplied by ``CAL_REF_S`` over the time a
fixed calibration kernel took next to it in the same process, which removes
the drift of a shared host's speed.  ``--trace 1`` runs the
workload twice with spans recorded, once with the default BLAS threading,
and then untraced until ``--seconds`` have passed; it reports the per-layer
metrics of the first traced repeat.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from tracing import EXACT_COUNTS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPEATS = 3
SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0
SELF_SUM_TOL_S = 1e-3
# calibration kernel time (worker._calibration_s) on the reference box, quiet host
CAL_REF_S = 0.2
WORKER = Path(__file__).resolve().parent / "worker.py"


class Harness:
    """Runs worker processes for one workload and keeps their reports."""

    def __init__(self, root: Path, workload: str, run_dir: Path, config_path: Path):
        self.root = root
        self.workload = workload
        self.run_dir = run_dir
        self.config_path = config_path
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = str(root / "src")
        self.default_env = env
        self.pinned_env = {**env, **{k: "1" for k in THREAD_VARS}}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def worker(self, *extra: str, config: Path | None = None, pinned: bool = True,
               count: bool = True) -> dict:
        """One repeat in a fresh process, writing into a fresh, empty directory."""
        out = Path(tempfile.mkdtemp(dir=self.run_dir)) / "out"
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--config", str(config or self.config_path), "--out", str(out), *extra]
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                  env=self.pinned_env if pinned else self.default_env,
                                  timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
            lines = proc.stdout.strip().splitlines()
            report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except subprocess.TimeoutExpired:
            proc, report = None, None
        finally:
            shutil.rmtree(out.parent, ignore_errors=True)
        if report is None:
            tail = (["timed out"] if proc is None else
                    [f"exit {proc.returncode}", *proc.stderr.strip().splitlines()[-3:]])
            report = {"problems": [f"worker failed: {' | '.join(tail)}"]}
        if "calibration_pre_s" in report:
            report["ref_setup_s"] = report["setup_s"] * CAL_REF_S / report["calibration_pre_s"]
        if "calibration_post_s" in report:
            report["calibration_s"] = 0.5 * (report["calibration_pre_s"]
                                             + report["calibration_post_s"])
            report["ref_wall_s"] = report["wall_s"] * CAL_REF_S / report["calibration_s"]
        if count:
            self.attempted += 1
            self.failed += bool(report["problems"])
        for problem in report["problems"]:
            print(f"[{self.workload}] check failed: {problem}", file=sys.stderr)
        return report

    def untraced(self, until_s: float, at_least: int) -> list[dict]:
        """Untraced repeats until ``until_s`` has passed (and ``at_least`` ran)."""
        reports: list[dict] = []
        last = 0.0
        while len(reports) < at_least or self.elapsed() < until_s:
            if self.elapsed() + 2.0 * last > HARD_LIMIT_S:
                break
            began = self.elapsed()
            reports.append(self.worker())
            last = self.elapsed() - began
        return [r for r in reports if not r["problems"]]


def _median(reports: list[dict], key: str) -> float:
    values = [r[key] for r in reports if key in r]
    return statistics.median(values) if values else float("nan")


def _count_mismatches(reports: list[dict]) -> int:
    """Exact counts that differ between repeats of the same config."""
    mismatches = 0
    for key in EXACT_COUNTS:
        values = {r["layers"][key] for r in reports if "layers" in r}
        if len(values) > 1:
            print(f"count {key} differs between repeats: {sorted(values)}", file=sys.stderr)
            mismatches += 1
    return mismatches


def end_to_end(h: Harness, seconds: float) -> tuple[dict, bool]:
    good = h.untraced(seconds, MIN_REPEATS)
    setups = good + [h.worker("--setup-only", count=False) for _ in range(SETUP_SAMPLES)]
    if not good:
        return {}, False
    values = {"wall_s": _median(good, "ref_wall_s"), "setup_s": _median(setups, "ref_setup_s"),
              "peak_rss_mb": _median(good, "peak_rss_mb")}
    print(f"measured wall_s {_median(good, 'wall_s'):.6g} s, setup_s "
          f"{_median(setups, 'setup_s'):.6g} s, calibration {_median(good, 'calibration_s'):.6g} s")
    byte_counts = {r.get("artifact_bytes") for r in good}
    if len(byte_counts) > 1:
        print(f"cli.artifact_bytes differs between repeats: {sorted(byte_counts)}",
              file=sys.stderr)
    return values, len(byte_counts) == 1


def per_layer(h: Harness, seconds: float) -> tuple[dict, bool]:
    spans = h.root / ".perfbench_work" / f"spans-{h.workload}.json"
    traced = [h.worker("--trace", str(spans)),
              h.worker("--trace", str(h.run_dir / "spans-2.json"))]
    default = h.worker(pinned=False)
    good = h.untraced(seconds, 2)
    if any(r["problems"] for r in [*traced, default]) or not good:
        return {}, False
    ok = True
    for r in traced:
        if abs(r["self_sum_s"] - r["wall_s"]) > SELF_SUM_TOL_S:
            print(f"span self times sum to {r['self_sum_s']:.6f} s, traced wall "
                  f"{r['wall_s']:.6f} s", file=sys.stderr)
            ok = False
    first = traced[0]
    return {**first["layers"],
            "trace.wall_s": first["wall_s"],
            "trace.overhead_s": first["wall_s"] - _median(good, "wall_s"),
            "trace.count_mismatches": _count_mismatches(traced),
            "info.default_threads_wall_s": default["wall_s"],
            "info.measured_wall_s": _median(good, "wall_s"),
            "info.calibration_s": _median(good, "calibration_s")}, ok


def machine_record(h: Harness) -> dict:
    """Versions, BLAS and load, from a warm-up worker that also fills caches."""
    tiny = h.run_dir / "warmup.json"
    tiny.write_text(json.dumps(workloads.make_config(h.workload, 0, tiny=True)))
    load = os.getloadavg()
    report = h.worker(config=tiny, count=False)
    if "machine" not in report:
        return {}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **report["machine"],
            "blas_threads": {k: h.pinned_env[k] for k in THREAD_VARS},
            "loadavg_at_start": load}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few cells and steps (smoke test)")
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "crossdiff" / "__init__.py").is_file():
        print(f"no crossdiff sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(
            workloads.make_config(args.workload, args.seed, tiny=args.tiny), indent=1))
        h = Harness(root, args.workload, run_dir, config_path)
        machine = machine_record(h)
        if not machine:
            print("the warm-up worker failed; no result", file=sys.stderr)
            return 2
        print("machine " + json.dumps(machine, sort_keys=True))
        measure = per_layer if args.trace else end_to_end
        values, ok = measure(h, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # the metric list and units are the ones BENCHMARK.json declares
    listed = json.loads((root / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    metrics = {}
    if values:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {h.failed}/{h.attempted}")
    print(json.dumps({"correct": ok and h.failed == 0, "attempted": h.attempted,
                      "failed": h.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
