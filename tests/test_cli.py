import json
import math
from pathlib import Path

import pytest

from crossdiff import diagnostics as diag
from crossdiff.cli import ConfigError, build_generic_spec, main, parse_scenario


def write_config(tmp_path: Path, payload: dict, name: str = "scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


GENERIC = {
    "schema": 1,
    "kind": "generic",
    "grid": {"dims": [10, 10], "extents": [1.0, 1.0]},
    "stepper": {"dt": 1e-3, "t_end": 5e-3, "snapshot_every": 2},
    "model": {
        "m": 2, "delta": [1.0, 1.0], "ell": 1.0, "K": [[1.0, 1.0], [1.0, 1.0]],
        "initial": [{"profile": "sine"}, {"profile": "sine", "amplitude": 0.8}],
        "dirichlet": [0.0, 0.0],
    },
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_minimal_config_gets_defaults(tmp_path):
    path = write_config(tmp_path, {"schema": 1, "kind": "generic"})
    config = parse_scenario(path)
    assert config.stepper.dt == 1e-3
    assert config.stepper.lin_tol == 1e-10
    assert config.effective["stepper"]["picard_max"] == 2
    assert config.grid.dims == (32,)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, {"schema": 1, "kind": "generic", "foo": 1})
    with pytest.raises(ConfigError, match="foo"):
        parse_scenario(path)
    assert main(["check", "--config", str(path)]) == 2


def test_unknown_nested_key_rejected(tmp_path):
    bad = dict(GENERIC)
    bad["stepper"] = {"dt": 1e-3, "cadence": 2}
    path = write_config(tmp_path, bad)
    assert main(["check", "--config", str(path)]) == 2


@pytest.mark.parametrize("update, named", [
    ({"diagnostics": {"degiorgi": {"specie": 2}}}, "'specie'"),
    ({"diagnostics": {"degiorgi": {"species": 0}}}, "species"),
    ({"diagnostics": {"degiorgi": {"species": 3}}}, "species"),
    ({"model": {"m": 1}, "diagnostics": {"degiorgi": {"species": 1}}}, "m = 1"),
    ({"diagnostics": {"levels": {"counts": 5}}}, "'counts'"),
    ({"diagnostics": {"bounds": {"low": 0.0}}}, "'low'"),
    ({"diagnostics": {"probe": {"radius": 0.2, "centre": [0.5, 0.5]}}}, "'centre'"),
    ({"diagnostics": {"conditions": {"gs": 1.0}}}, "'gs'"),
    ({"diagnostics": {"degiorgi": 1}}, "diagnostics.degiorgi"),
    ({"stepper": {"picard_max": 0}}, "picard_max"),
    ({"stepper": {"lin_max": -1}}, "lin_max"),
    ({"stepper": {"snapshot_every": 0}}, "snapshot_every"),
    ({"stepper": {"snapshot_every": 2.5}}, "snapshot_every"),
    ({"grid": [32]}, "grid must be an object"),
    ({"stepper": "fast"}, "stepper must be an object"),
    ({"diagnostics": {"levels": {"count": "many"}}}, "count"),
    ({"diagnostics": {"levels": {"count": -1}}}, "count"),
    ({"diagnostics": {"degiorgi": {"ell0": "max"}}}, "ell0"),
    ({"diagnostics": {"degiorgi": {"n_max": 2.5}}}, "n_max"),
    ({"diagnostics": {"degiorgi": {"species": True}}}, "species"),
    ({"diagnostics": {"probe": {"amplitude": "big"}}}, "amplitude"),
    ({"diagnostics": {"probe": {"center": [0.5, "mid"]}}}, "center"),
    ({"diagnostics": {"probe": {"center": [0.5]}}}, "center"),
    ({"diagnostics": {"bounds": {"hi": None}}}, "hi"),
    ({"convergence": {"levels": 2.5}}, "levels"),
    ({"convergence": {"dt0": "small"}}, "dt0"),
    ({"sweep": {"epsilon_list": [0.1, "tiny"]}}, "epsilon_list"),
    ({"diagnostics": {"degiorgi": {"n_max": 0}}}, "diagnostics.degiorgi.n_max"),
    ({"diagnostics": {"degiorgi": {"m_prime": 1e-9}}}, "diagnostics.degiorgi.n_max"),
    ({"diagnostics": {"degiorgi": {"m": 1.0}}}, "diagnostics.degiorgi.m"),
    ({"diagnostics": {"degiorgi": {"m_prime": 0.0}}}, "diagnostics.degiorgi.m_prime"),
    ({"diagnostics": {"degiorgi": {"ell0": -1.0}}}, "diagnostics.degiorgi.ell0"),
    ({"stepper": {"t_end": math.nan}}, "t_end"),
    ({"stepper": {"dt": math.inf}}, "dt"),
    ({"stepper": {"t_end": math.inf}}, "t_end"),
])
def test_bad_diagnostics_and_stepper_values_rejected(tmp_path, capsys, update, named):
    cfg = json.loads(json.dumps(GENERIC))
    for block, entries in update.items():
        cfg[block] = {**cfg.get(block, {}), **entries} if isinstance(entries, dict) else entries
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["probe", "simulate"])
def test_incompatible_spec_rejected_without_output(tmp_path, capsys, command):
    # sine initial data cannot meet the boundary value 1.0 of species 1
    cfg = json.loads(json.dumps(GENERIC))
    cfg["model"]["dirichlet"] = [1.0, 0.0]
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "compatibility" in err
    assert not (tmp_path / "out").exists()


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["check", "--config", str(path)]) == 2


def test_missing_file_rejected(tmp_path):
    assert main(["check", "--config", str(tmp_path / "nope.json")]) == 2


def test_command_kind_compatibility(tmp_path):
    path = write_config(tmp_path, GENERIC)
    assert main(["aquifer", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_keulegan_defaults_alpha(tmp_path):
    payload = {"schema": 1, "kind": "keulegan", "grid": {"dims": [16]},
               "model": {"tilt": 0.2, "pump_rate": 0.0}}
    config = parse_scenario(write_config(tmp_path, payload))
    from crossdiff.cli import build_aquifer_spec
    spec = build_aquifer_spec(config)
    assert spec.alpha == 0.025


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_check_writes_reports(tmp_path):
    path = write_config(tmp_path, GENERIC)
    out = tmp_path / "out"
    assert main(["check", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "conditions.csv").read_text()
    assert text.startswith("name,lhs,rhs,margin,pass")
    assert "existence_12" in text
    assert (out / "manifest.txt").exists()


def test_check_require_feasible_exit_code(tmp_path):
    failing = json.loads(json.dumps(GENERIC))
    failing["model"]["K"] = [[1.0, 4.0], [4.0, 1.0]]
    failing["model"]["delta"] = [0.1, 0.1]
    failing["model"]["ell"] = 4.0
    path = write_config(tmp_path, failing)
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "b"),
                 "--require-feasible"]) == 3


def test_simulate_end_to_end(tmp_path):
    cfg = json.loads(json.dumps(GENERIC))
    cfg["diagnostics"] = {"degiorgi": {"ell0": "max_initial", "m": 2.0, "m_prime": 0.5,
                                       "s": 6.0},
                          "levels": {"count": 8},
                          "bounds": {"lo": 0.0}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    for name in ("snapshots.csv", "series.csv", "degiorgi.csv", "levels.csv",
                 "bounds.csv", "manifest.txt"):
        assert (out / name).exists(), name
    header = (out / "snapshots.csv").read_text().splitlines()[0]
    assert header == "x,y,species,value,t"


def test_zero_horizon_single_snapshot(tmp_path):
    cfg = json.loads(json.dumps(GENERIC))
    cfg["stepper"]["t_end"] = 0.0
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "snapshots.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 100  # header + m * n_cells rows, one snapshot


def test_solver_failure_exit_one_with_partial(tmp_path):
    cfg = json.loads(json.dumps(GENERIC))
    cfg["grid"] = {"dims": [24, 24], "extents": [1.0, 1.0]}
    cfg["stepper"] = {"dt": 1e6, "t_end": 2e6, "lin_tol": 1e-14, "lin_max": 1}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert (out / "error.txt").exists()
    assert (out / "series.csv").exists()  # partial series retained
    manifest = (out / "manifest.txt").read_text()
    assert "exit_status=1" in manifest


def test_confined_failure_keeps_penalized_series(tmp_path, singular_confined_step):
    # the penalized run succeeds, the confined one fails at its first step
    def run_variant(variant):
        payload = {"schema": 1, "kind": "keulegan", "grid": {"dims": [48]},
                   "stepper": {"dt": 3e-3, "t_end": 9e-3, "lin_tol": 1e-12},
                   "model": {"tilt": 0.4, "pump_rate": 0.05, "variant": variant}}
        path = write_config(tmp_path, payload, f"{variant}.json")
        out = tmp_path / variant
        return main(["keulegan", "--config", str(path), "--out", str(out)]), out

    code_pen, out_pen = run_variant("penalized")
    code_both, out_both = run_variant("both")
    assert code_pen == 0
    assert code_both == 1
    assert (out_both / "error.txt").exists()
    assert (out_both / "series.csv").read_bytes() == (out_pen / "series.csv").read_bytes()
    confined_rows = (out_both / "confined_series.csv").read_text().splitlines()
    assert len(confined_rows) == 2  # header and the t = 0 row


def test_probe_command_matches_library(tmp_path):
    cfg = json.loads(json.dumps(GENERIC))
    cfg["diagnostics"] = {"probe": {"amplitude": 1e-3, "radius": 0.2}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["probe", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "probe.csv").read_text()

    config = parse_scenario(path)
    spec = build_generic_spec(config)
    pert, cells = diag.disc_perturbation(config.grid, spec.m, (0.5, 0.5), 0.2, 1e-3)
    report = diag.uniqueness_probe(spec, config.grid, config.stepper, pert, cells)
    assert text == report.to_csv()
    assert "amplification," in text


def test_keulegan_command_writes_profiles(tmp_path):
    payload = {"schema": 1, "kind": "keulegan",
               "grid": {"dims": [24]},
               "stepper": {"dt": 5e-3, "t_end": 5e-2, "snapshot_every": 5},
               "model": {"tilt": 0.3, "pump_rate": 0.01}}
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["keulegan", "--config", str(path), "--out", str(out)]) == 0
    profiles = sorted(out.glob("interface_*.csv"))
    assert profiles
    header = profiles[0].read_text().splitlines()[0]
    assert header == "x,h,h1,s"
    first = profiles[0].read_text().splitlines()[1].split(",")
    x, h, h1, s = (float(v) for v in first)
    assert 0.0 <= h1 <= h <= 1.0
    assert s == pytest.approx((h - h1) + (1.0 - h))


def test_sweep_command(tmp_path):
    payload = {"schema": 1, "kind": "aquifer",
               "grid": {"dims": [32]},
               "stepper": {"dt": 2e-3, "t_end": 0.05, "snapshot_every": 25},
               "model": {"h2": 1.0, "delta": 0.3, "alpha": 0.025, "epsilon": 1e-1,
                         "initial_h": 0.5, "initial_h1": 0.05,
                         "dirichlet_h": 0.5, "dirichlet_h1": 0.05,
                         "pumping": {"profile": "point", "rate": -0.3}},
               "sweep": {"epsilon_list": [1e-1, 1e-2]}}
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "sweep.csv").read_text()
    assert text.startswith("epsilon,violation,residual,error")
    assert "fit_exponent" in text


def test_convergence_command(tmp_path):
    payload = {"schema": 1, "kind": "generic",
               "convergence": {"case": "heat", "levels": 2, "nx0": 8, "dt0": 2e-3}}
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "h,dt,err_inf,err_l2,order_inf,order_l2"
    last_order = float(lines[-1].split(",")[4])
    assert last_order >= 1.8


def test_unwritable_output_dir(tmp_path):
    path = write_config(tmp_path, GENERIC)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["check", "--config", str(path), "--out", str(blocker / "sub")]) == 2


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_repeated_runs_byte_identical(tmp_path):
    cfg = json.loads(json.dumps(GENERIC))
    cfg["diagnostics"] = {"levels": {"count": 6}}
    path = write_config(tmp_path, cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
