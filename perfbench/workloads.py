"""Seeded workload configs, the timed call of each workload and its output checks.

Every workload is a strict JSON scenario config for ``crossdiff``; the seed
only perturbs data inside admissible ranges, so the program receives plain
configs and nothing benchmark-specific.  ``run_workload`` is the part a
worker times; ``check_outputs`` is the untimed part that decides whether
the repeat counts as failed.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

# workload -> crossdiff command it runs, or None for the library call
WORKLOADS = {
    "cli-generic": "simulate",
    "generic-large": None,
    "keulegan-both": "keulegan",
}

POSITIVITY_FLOOR = -1e-10
FRESHWATER_DRIFT = 1e-6


def make_config(workload: str, seed: int, tiny: bool = False) -> dict:
    """Scenario config for one workload; the same seed gives the same config.

    Perturbed data (all inside the admissible ranges of the model):
    amplitude of species 2 in [0.7, 0.9], Keulegan tilt in [0.4, 0.5] and
    pump rate in [0.04, 0.06].  ``tiny`` shrinks grids and step counts for
    the smoke test and keeps every code path.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("cli-generic", "generic-large"):
        amp2 = rng.uniform(0.7, 0.9)
        n, steps = (32, 100) if workload == "cli-generic" else (128, 10)
        if tiny:
            n, steps = 6, 3
        config = {
            "schema": 1, "kind": "generic",
            "grid": {"dims": [n, n], "extents": [1.0, 1.0]},
            "stepper": {"dt": 1e-3, "t_end": steps * 1e-3, "snapshot_every": 1},
            "model": {"m": 2, "delta": [1.0, 1.0], "K": [[1.0, 1.0], [1.0, 1.0]],
                      "ell": 1.0,
                      "initial": [{"profile": "sine", "amplitude": 1.0},
                                  {"profile": "sine", "amplitude": amp2}],
                      "dirichlet": [0.0, 0.0]},
        }
        if workload == "cli-generic":
            config["diagnostics"] = {"levels": {"count": 20}, "degiorgi": {"species": 1},
                                     "bounds": {"lo": 0.0}}
        return config
    if workload == "keulegan-both":
        n, steps = (8, 4) if tiny else (64, 50)
        return {
            "schema": 1, "kind": "keulegan",
            "grid": {"dims": [n], "extents": [1.0]},
            "stepper": {"dt": 3e-3, "t_end": steps * 3e-3, "snapshot_every": 5},
            "model": {"tilt": rng.uniform(0.4, 0.5), "pump_rate": rng.uniform(0.04, 0.06),
                      "variant": "both"},
        }
    raise ValueError(f"unknown workload {workload!r}")


def expected_artifacts(workload: str, config: dict) -> set[str]:
    steps = round(config["stepper"]["t_end"] / config["stepper"]["dt"])
    if workload == "cli-generic":
        return {"snapshots.csv", "series.csv", "levels.csv", "degiorgi.csv",
                "bounds.csv", "manifest.txt"}
    every = config["stepper"]["snapshot_every"]
    n_snap = 1 + len({min(k, steps) for k in range(every, steps + every, every)})
    return ({"series.csv", "confinement.csv", "confined_series.csv",
             "confined_snapshots.csv", "manifest.txt"}
            | {f"interface_{i:04d}.csv" for i in range(n_snap)})


# ---------------------------------------------------------------------------
# timed part
# ---------------------------------------------------------------------------

def setup(workload: str, config_path: Path):
    """Parse the config and build what the timed call needs (spec or grid)."""
    from crossdiff import cli
    config = cli.parse_scenario(config_path)
    if WORKLOADS[workload] is None:
        return config, cli.build_generic_spec(config)
    return config, None


def run_workload(workload: str, config, spec, out_dir: Path):
    """The timed call: ``cli.execute`` with its files, or ``solver.run``."""
    from crossdiff import cli, solver
    command = WORKLOADS[workload]
    if command is None:
        return solver.run(spec, config.grid, config.stepper)
    return cli.execute(config, command, out_dir=str(out_dir))


# ---------------------------------------------------------------------------
# untimed output checks
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().strip().splitlines()
    head = lines[0].split(",")
    return head, [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_outputs(workload: str, raw_config: dict, config, spec, outcome,
                  out_dir: Path) -> list[str]:
    """Return the list of failed checks (empty when the repeat is good)."""
    if WORKLOADS[workload] is None:
        from crossdiff.solver import mass_balance_residual
        problems = []
        if float(outcome.minmax[:, :, 1].min()) < POSITIVITY_FLOOR:
            problems.append("positivity floor")
        if not mass_balance_residual(outcome, spec, config.grid).ok:
            problems.append("mass balance")
        return problems

    manifest = outcome
    if manifest.exit_status != 0:
        return [f"exit status {manifest.exit_status}"]
    listed = set(manifest.artifacts)
    if listed != expected_artifacts(workload, raw_config):
        return [f"artifact set {sorted(listed)}"]
    if {p.name for p in out_dir.iterdir()} != listed:
        return ["files outside the manifest"]
    problems = []
    head, rows = _read_csv(out_dir / "series.csv")
    if workload == "cli-generic":
        mins = [head.index(c) for c in head if c.startswith("min_")]
        if min(r[c] for r in rows for c in mins) < POSITIVITY_FLOOR:
            problems.append("positivity floor")
        bhead, brows = _read_csv(out_dir / "bounds.csv")
        lo = bhead.index("lo_margin")
        if min(r[lo] for r in brows) < POSITIVITY_FLOOR:
            problems.append("bounds lo-margin")
        return problems

    h2 = float(raw_config["model"].get("h2", 1.0))
    for name in sorted(listed):
        if name.startswith("interface_"):
            ihead, irows = _read_csv(out_dir / name)
            h, h1 = ihead.index("h"), ihead.index("h1")
            if not all(0.0 <= r[h1] <= r[h] <= h2 for r in irows):
                problems.append(f"hierarchy in {name}")
    m1, m2 = head.index("mass_1"), head.index("mass_2")
    fresh = [r[m1] - r[m2] for r in rows]
    drift = max(abs(f - fresh[0]) for f in fresh) / abs(fresh[0])
    if not drift <= FRESHWATER_DRIFT:
        problems.append(f"freshwater drift {drift:.3e}")
    _, crows = _read_csv(out_dir / "confined_series.csv")
    if not all(math.isfinite(v) for r in crows for v in r):
        problems.append("confined series not finite")
    return problems
