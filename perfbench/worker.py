"""One repeat of one workload in a fresh process: set up, run, check, report.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src`` and
BLAS threads pinned in the environment.  Prints one JSON object as its last
line of output: set-up time, wall time of the timed call, the calibration
time measured right before and right after it, peak resident memory, the
failed output checks, library versions and, with ``--trace``, per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer


def _machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _calibration_s() -> float:
    """Time of a fixed kernel that shares no code with crossdiff.

    It mixes what the workloads spend their time on: sparse matrix-vector
    products, small numpy operations and float formatting.  Run next to the
    timed call, it measures how fast this machine is at that moment, which
    on a shared host drifts by tens of percent within minutes.  ``run.py``
    rescales times by it, so the kernel must never change.
    """
    import numpy as np
    import scipy.sparse as sparse
    t = time.perf_counter()
    n = 64 * 64
    a = sparse.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    x = np.linspace(0.0, 1.0, n)
    idx = np.arange(n) % 64
    acc = np.zeros(64)
    for _ in range(1500):
        x = a @ x
        x /= np.linalg.norm(x)
        np.add.at(acc, idx, np.where(x > 0.0, x, 0.5 * x))
        ",".join(repr(float(v)) for v in x[:100])
    return time.perf_counter() - t


def _artifact_bytes(manifest, out_dir: Path) -> int:
    return sum((out_dir / name).stat().st_size for name in manifest.artifacts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=Path, default=None,
                        help="record spans and write them to this file at the end")
    parser.add_argument("--setup-only", action="store_true",
                        help="report the set-up time and stop before the timed call")
    args = parser.parse_args()
    src = (Path.cwd() / "src").resolve()

    t0 = time.perf_counter()
    try:
        import crossdiff
        from crossdiff.fv import SolverFailure
    except ImportError as exc:
        print(f"cannot import crossdiff from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(crossdiff.__file__).resolve().is_relative_to(src):
        print(f"crossdiff was imported from {crossdiff.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        tracer.install()
    raw_config = json.loads(args.config.read_text())
    config, spec = workloads.setup(args.workload, args.config)
    setup_s = time.perf_counter() - t0

    report = {"setup_s": setup_s, "calibration_pre_s": _calibration_s(), "problems": []}
    if args.setup_only:
        print(json.dumps(report))
        return 0
    t1 = time.perf_counter()
    try:
        outcome = workloads.run_workload(args.workload, config, spec, args.out)
    except SolverFailure as exc:
        outcome = None
        report["problems"].append(f"SolverFailure: {exc}")
    except Exception:  # a failed run is counted, never fatal to the harness
        outcome = None
        report["problems"].append(traceback.format_exc(limit=3))
    report["wall_s"] = time.perf_counter() - t1
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["calibration_post_s"] = _calibration_s()
    if tracer is not None:
        tracer.uninstall()

    if outcome is not None:
        report["problems"] += workloads.check_outputs(args.workload, raw_config, config,
                                                      spec, outcome, args.out)
        if workloads.WORKLOADS[args.workload] is not None:
            report["artifact_bytes"] = _artifact_bytes(outcome, args.out)
    if tracer is not None:
        report["layers"] = {**tracer.metrics(),
                            "cli.artifact_bytes": report.get("artifact_bytes", 0)}
        root = "solver.run" if workloads.WORKLOADS[args.workload] is None else "cli.execute"
        report["self_sum_s"] = tracer.root_self_sum(root)
        args.trace.write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans]))
    report["machine"] = _machine()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
