import json
import math
from pathlib import Path

import numpy as np
import pytest

from crossdiff import aquifer as aq
from crossdiff import diagnostics as diag
from crossdiff import fv
from crossdiff.cli import (ConfigError, build_aquifer_spec, build_generic_spec, main,
                           parse_scenario)
from crossdiff.model import Grid, point_density


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
    assert config.effective["stepper"]["picard_max"] == 10
    assert config.grid.dims == (32,)
    assert config.effective["model"]["delta"] == [1.0, 1.0]
    assert config.effective["model"]["sources"] == [None, None]
    assert config.effective["diagnostics"] == {
        "probe": {"amplitude": 1e-3, "radius": 0.2, "center": [0.5]}}
    assert "outputs" not in config.effective
    assert config.effective["convergence"]["dt0"] == 2e-3
    # effective holds only the blocks that some command of the kind reads
    assert "sweep" not in config.effective
    for kind in ("aquifer", "keulegan"):
        path = write_config(tmp_path, {"schema": 1, "kind": kind})
        assert set(parse_scenario(path).effective) == {
            "schema", "kind", "grid", "stepper", "model", "sweep"}


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, {"schema": 1, "kind": "generic", "foo": 1})
    with pytest.raises(ConfigError, match="foo"):
        parse_scenario(path)
    assert main(["check", "--config", str(path)]) == 2


def test_top_level_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text("[1]")
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: top level must be an object\n"
    assert not (tmp_path / "out").exists()


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
    # on an aquifer config run by sweep: a generic config may not set sweep at all
    ({"kind": "aquifer", "model": None, "sweep": {"epsilon_list": [0.1, "tiny"]}},
     "epsilon_list"),
    ({"diagnostics": {"degiorgi": {"n_max": 0}}}, "diagnostics.degiorgi.n_max"),
    ({"diagnostics": {"degiorgi": {"m_prime": 1e-9}}}, "diagnostics.degiorgi.n_max"),
    ({"diagnostics": {"degiorgi": {"m": 1.0}}}, "diagnostics.degiorgi.m"),
    ({"diagnostics": {"degiorgi": {"m_prime": 0.0}}}, "diagnostics.degiorgi.m_prime"),
    ({"diagnostics": {"degiorgi": {"ell0": -1.0}}}, "diagnostics.degiorgi.ell0"),
    ({"stepper": {"t_end": math.nan}}, "t_end"),
    ({"stepper": {"dt": math.inf}}, "dt"),
    ({"stepper": {"t_end": math.inf}}, "t_end"),
    ({"stepper": {"dt": "0.001"}}, "dt"),
    ({"stepper": {"lin_tol": "1e-10"}}, "lin_tol"),
    ({"stepper": {"dt": True}}, "dt"),
    ({"stepper": {"picard_tol": 1.0}}, "picard_tol"),
    ({"stepper": {"picard_tol": 0.0}}, "picard_tol"),
    ({"grid": {"dims": ["a"]}}, "grid.dims"),
    ({"grid": {"extents": "x"}}, "grid.extents"),
    ({"model": {"m": "2"}}, "model.m"),
    ({"model": {"ell": "x"}}, "model.ell"),
    ({"model": {"delta": 1.0}}, "model.delta"),
    ({"model": {"K": 3}}, "model.K"),
    ({"model": {"initial": [{"profile": "bump", "amplitude": "x"}, 0.0]}},
     "model.initial.amplitude"),
    ({"diagnostics": {"levels": {"lo": 1.0, "hi": 0.5}}}, "diagnostics.levels.hi"),
    ({"diagnostics": {"levels": {"lo": 0.5, "hi": 0.5, "count": 2}}}, "diagnostics.levels.hi"),
    ({"diagnostics": {"conditions": {"g_r": 1.0}}}, "'g_r'"),
    ({"stepper": {"lin_tol": math.inf}}, "stepper.lin_tol"),
    ({"stepper": {"picard_tol": math.nan}}, "stepper.picard_tol"),
    ({"model": {"ell": math.nan}}, "model.ell"),
    ({"model": {"delta": [math.inf, 1.0]}}, "model.delta"),
    ({"stepper": {"cross_weighting": "centered"}}, "'cross_weighting'"),
    ({"stepper": {"coefficient_mode": "raw"}}, "'coefficient_mode'"),
    ({"outputs": {"directory": "elsewhere"}}, "'outputs'"),
    ({"diagnostics": {"conditions": {"g_s": 1.0}}}, "'g_s'"),
    ({"model": {"initial": 0.5}}, "model.initial must be a list of one datum per species"),
    ({"model": {"initial": ["high", 0.0]}},
     "model.initial must be a number, null or a profile object"),
    ({"model": {"dirichlet": [{"value": 0.0}, 0.0]}}, "dirichlet profile needs a 'profile' name"),
    ({"stepper": {"lin_max": 6000}}, "unknown key 'lin_max' in stepper"),
    ({"kind": "aquifer", "model": None, "sweep": {"epsilon_list": []}},
     "sweep needs a nonempty sweep.epsilon_list"),
    # a profile block takes only the keys its profile reads
    ({"model": {"initial": [{"profile": "constant", "value": 0.5, "width": 0.3}, 0.0]}},
     "unknown key 'width' in model.initial"),
    ({"model": {"initial": [{"profile": "sine", "center": [0.5, 0.5]}, 0.0]}},
     "unknown key 'center' in model.initial"),
    ({"model": {"initial": [{"profile": "bump", "rate": 1.0}, 0.0]}},
     "unknown key 'rate' in model.initial"),
    ({"model": {"dirichlet": [{"profile": "zero", "value": 0.0}, 0.0]}},
     "unknown key 'value' in model.dirichlet"),
    ({"model": {"sources": [{"profile": "point", "amplitude": 1.0}, None]}},
     "unknown key 'amplitude' in model.sources"),
    ({"model": {"sources": [{"profile": "point", "position": "mid"}, None]}},
     "model.sources.position must be a list of numbers or null"),
])
def test_bad_diagnostics_and_stepper_values_rejected(tmp_path, capsys, update, named):
    cfg = json.loads(json.dumps(GENERIC))
    for block, entries in update.items():
        cfg[block] = {**cfg.get(block, {}), **entries} if isinstance(entries, dict) else entries
    path = write_config(tmp_path, cfg)
    command = "simulate" if cfg["kind"] == "generic" else "sweep"
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err
    assert not (tmp_path / "out").exists()


AQUIFER = {"schema": 1, "kind": "aquifer", "grid": {"dims": [16]},
           "stepper": {"dt": 2e-3, "t_end": 6e-3},
           "model": {"pumping": {"profile": "point", "rate": -0.3}},
           "sweep": {"epsilon_list": [1e-1, 1e-2]}}
KEULEGAN = {"schema": 1, "kind": "keulegan", "grid": {"dims": [16]},
            "stepper": {"dt": 3e-3, "t_end": 9e-3}, "model": {"pump_rate": 0.05},
            "sweep": {"epsilon_list": [1e-2]}}
UNREAD = {"convergence": {"case": "coupled"}, "diagnostics.conditions": {},
          "diagnostics.degiorgi": {"species": 2}, "diagnostics.bounds": None,
          "diagnostics.levels": {"count": 6}, "diagnostics.probe": {}}


@pytest.mark.parametrize("payload, commands, block, value", [
    *((payload, commands, block, value) for payload, commands in (
        (AQUIFER, ["check", "aquifer", "sweep"]),
        (KEULEGAN, ["check", "aquifer", "keulegan", "sweep"])) for block, value in UNREAD.items()),
    (GENERIC, ["check", "simulate", "probe", "convergence"], "sweep", {"epsilon_list": [1e-2]}),
])
def test_blocks_no_command_of_the_kind_reads_rejected(tmp_path, capsys, payload, commands,
                                                      block, value):
    # set, even empty or null, is rejected by name before anything is written
    cfg = json.loads(json.dumps(payload))
    top, _, sub = block.partition(".")
    cfg[top] = {sub: value} if sub else value
    path = write_config(tmp_path, cfg)
    for command in commands:
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {block} is read by no command of kind {cfg['kind']!r}\n"
        assert not (tmp_path / "out").exists()


def test_empty_diagnostics_blocks_run_with_defaults(tmp_path):
    names = ("levels.csv", "bounds.csv", "degiorgi.csv")
    written = {}
    for tag, diagnostics in [
            ("empty", {"levels": {}, "bounds": {}, "degiorgi": {}}),
            ("explicit", {"levels": {"count": 20}, "bounds": {"lo": 0.0},
                          "degiorgi": {"species": 1}}),
            ("null", {"levels": None, "bounds": None, "degiorgi": None})]:
        cfg = {**json.loads(json.dumps(GENERIC)), "diagnostics": diagnostics}
        path = write_config(tmp_path, cfg, f"{tag}.json")
        out = tmp_path / tag
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        written[tag] = {name: (out / name).read_text() for name in names
                        if (out / name).exists()}
    assert sorted(written["empty"]) == sorted(names)
    assert written["empty"] == written["explicit"]
    assert written["null"] == {}


def test_empty_degiorgi_block_needs_two_species(tmp_path, capsys):
    cfg = json.loads(json.dumps(GENERIC))
    cfg["model"]["m"] = 1
    cfg["diagnostics"] = {"degiorgi": {}}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "m = 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_point_profiles_are_point_densities(tmp_path):
    cfg = json.loads(json.dumps(GENERIC))
    cfg["model"]["sources"] = [{"profile": "point", "rate": 0.5, "position": [0.3, 0.6]},
                               {"profile": "point"}]
    spec = build_generic_spec(parse_scenario(write_config(tmp_path, cfg)))
    grid = Grid((10, 10), (1.0, 1.0))
    assert spec.sources[0].tobytes() == point_density(grid, [0.3, 0.6], 0.5).tobytes()
    assert spec.sources[1].tobytes() == point_density(grid, [0.5, 0.5], 1.0).tobytes()
    aquifer = {"schema": 1, "kind": "aquifer", "grid": {"dims": [8, 6]},
               "model": {"pumping": {"profile": "point", "rate": -0.3}}}
    aspec = build_aquifer_spec(parse_scenario(write_config(tmp_path, aquifer, "aq.json")))
    assert aspec.pumping.tobytes() == point_density(Grid((8, 6), (1.0, 1.0)), [0.5, 0.5],
                                                    -0.3).tobytes()


def test_zero_constant_and_bump_profiles_take_their_closed_forms(tmp_path):
    cfg = json.loads(json.dumps(GENERIC))
    # width 0.05 about the centre leaves exp(-50) of the amplitude at the boundary,
    # so the bump meets the zero trace
    cfg["model"].update(
        initial=[{"profile": "bump", "amplitude": 0.7, "width": 0.05},
                 {"profile": "constant", "value": 0.4}],
        dirichlet=[{"profile": "zero"}, {"profile": "constant", "value": 0.4}],
        sources=[{"profile": "zero"}, {"profile": "constant", "value": -0.2}])
    path = write_config(tmp_path, cfg)
    spec = build_generic_spec(parse_scenario(path))
    pts = Grid((10, 10), (1.0, 1.0)).cell_centers()
    r2 = np.sum((pts - 0.5) ** 2, axis=1)
    assert np.array_equal(spec.initial_values(0, pts), 0.7 * np.exp(-r2 / (2.0 * 0.05 ** 2)))
    assert np.array_equal(spec.initial_values(1, pts), np.full(100, 0.4))
    assert np.array_equal(spec.dirichlet_values(0, 0.0, pts), np.zeros(100))
    assert np.array_equal(spec.dirichlet_values(1, 0.0, pts), np.full(100, 0.4))
    u = np.ones(100)
    assert np.array_equal(spec.source_values(0, 0.0, pts, u), np.zeros(100))
    assert np.array_equal(spec.source_values(1, 0.0, pts, u), np.full(100, -0.2))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("block, datum, name", [
    ("sources", "source", "sine"), ("sources", "source", "bump"),
    ("dirichlet", "dirichlet", "sine"), ("dirichlet", "dirichlet", "point"),
    ("initial", "initial", "point"), ("initial", "initial", "wave"),
])
def test_profile_names_checked_per_datum(tmp_path, capsys, block, datum, name):
    cfg = json.loads(json.dumps(GENERIC))
    cfg["model"][block] = [{"profile": name}, 0.0]
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"unknown {datum} profile {name!r}" in capsys.readouterr().err
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


@pytest.mark.parametrize("kind, model, named", [
    ("keulegan", {"tilt": "abc"}, "model.tilt"),
    ("keulegan", {"tilt": True}, "model.tilt"),
    ("keulegan", {"h2": None}, "model.h2"),
    ("aquifer", {"h2": None}, "model.h2"),
    ("keulegan", {"epsilon": [1]}, "model.epsilon"),
    ("aquifer", {"epsilon": [1]}, "model.epsilon"),
    ("aquifer", {"variant": "mixed"}, "model.variant"),
    ("aquifer", {"alpha": 1.0, "variant": "confined"}, "model.alpha"),
    ("aquifer", {"alpha": 1.0, "variant": "both"}, "model.alpha"),
    ("keulegan", {"alpha": 1, "variant": "both"}, "model.alpha"),
])
def test_bad_aquifer_values_rejected(tmp_path, capsys, monkeypatch, kind, model, named):
    # rejected before any run: the penalized variant of "both" does not run first
    runs = []
    monkeypatch.setattr(aq, "run_penalized", lambda *args: runs.append(args))
    path = write_config(tmp_path, {"kind": kind, "grid": {"dims": [16]}, "model": model})
    assert main(["aquifer", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {named} must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert runs == []


def test_levels_lo_above_automatic_hi_names_the_key(tmp_path, capsys):
    # the automatic hi (largest snapshot value plus 1e-9) is known only after the run
    cfg = {**json.loads(json.dumps(GENERIC)), "grid": {"dims": [6, 6], "extents": [1.0, 1.0]},
           "diagnostics": {"levels": {"lo": 5.0}}}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: diagnostics.levels.lo must lie below" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_levels_hi_at_or_below_lo_allowed_for_one_level(tmp_path):
    cfg = {**json.loads(json.dumps(GENERIC)), "diagnostics": {"levels": {"lo": 1.0, "hi": 0.5,
                                                                          "count": 1}}}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "levels.csv").exists()


@pytest.mark.parametrize("command, payload", [
    ("keulegan", {"kind": "keulegan", "grid": {"dims": [16]},
                  "model": {"pump_rate": 0.05, "well_position": [0.5, 0.5, 9]}}),
    ("keulegan", {"kind": "keulegan", "grid": {"dims": [16]},
                  "model": {"well_position": [1.5]}}),
    ("simulate", {**GENERIC, "model": {**GENERIC["model"], "sources": [
        {"profile": "point", "position": [5.0, 5.0]}, None]}}),
    ("aquifer", {"kind": "aquifer", "grid": {"dims": [8, 6]},
                 "model": {"pumping": {"profile": "point", "position": [0.5]}}}),
])
def test_misplaced_point_positions_rejected(tmp_path, capsys, command, payload):
    path = write_config(tmp_path, payload)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "position" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_keulegan_defaults_alpha(tmp_path):
    payload = {"schema": 1, "kind": "keulegan", "grid": {"dims": [16]},
               "model": {"tilt": 0.2, "pump_rate": 0.0}}
    config = parse_scenario(write_config(tmp_path, payload))
    spec = build_aquifer_spec(config)
    assert spec.alpha == 0.025


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_check_writes_reports(tmp_path, capsys):
    path = write_config(tmp_path, GENERIC)
    out = tmp_path / "out"
    assert main(["check", "--config", str(path), "--out", str(out)]) == 0
    err = capsys.readouterr().err  # no g(r) caveat: check reports no k(r)
    assert err.startswith("check: exit 0 (") and err.count("\n") == 1
    text = (out / "conditions.csv").read_text()
    assert text.startswith("name,lhs,rhs,margin,pass")
    assert "existence_12" in text and "regularity" not in text
    assert (out / "manifest.txt").exists()
    # an empty conditions block adds the regularity rows
    path = write_config(tmp_path, {**GENERIC, "diagnostics": {"conditions": {}}}, "reg.json")
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "reg")]) == 0
    lines = (tmp_path / "reg" / "conditions.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [
        "existence_12", "existence_21", "regularity_12", "regularity_21"]


def test_check_rejects_non_elliptic_tensor(tmp_path, capsys):
    cfg = json.loads(json.dumps(GENERIC))
    cfg["model"]["K"] = [[-1.0, 0.1], [0.1, 1.0]]
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "non-elliptic-tensor K[1][1]" in err
    assert not (tmp_path / "out").exists()


def test_check_reports_the_nonsymmetric_regularity_row_without_diffusivity(tmp_path):
    # delta_1 = 0 and a non-symmetric K_11 leave no Meyers constants: an infeasible row
    cfg = {**GENERIC, "grid": {"dims": [4, 4]}, "diagnostics": {"conditions": {}},
           "model": {**GENERIC["model"], "delta": [0.0, 1.0],
                     "K": [[[[1.0, 0.4], [-0.4, 1.0]], 0.2], [0.2, 1.0]]}}
    out = tmp_path / "out"
    assert main(["check", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    rows = {line.split(",")[0]: line for line in (out / "conditions.csv").read_text().splitlines()}
    assert rows["regularity_12"] == "regularity_12,inf,0.2,-inf,False"


@pytest.mark.parametrize("model, message", [
    ({"initial_h1": 0.7}, "initial data violate 0 <= h1 <= h <= h2"),
    ({"dirichlet_h1": 0.7}, "boundary traces violate 0 <= h1 <= h <= h2"),
    ({"initial_h1": 0.2}, "initial data incompatible with boundary traces"),
], ids=["initial-hierarchy", "trace-hierarchy", "trace-compatibility"])
def test_check_rejects_the_aquifer_data_that_aquifer_rejects(tmp_path, capsys, model, message):
    path = write_config(tmp_path, {**AQUIFER, "model": {**AQUIFER["model"], **model}})
    for command in ("aquifer", "check"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


def test_check_reports_aquifer_admissibility_as_a_row(tmp_path):
    # alpha 0.5 lies below the window 1 - 4 delta / h2 = 0.96: aquifer rejects the
    # config, check reports the failed row and exits 3 only under --require-feasible
    path = write_config(tmp_path, {**AQUIFER, "model": {**AQUIFER["model"],
                                                        "delta": 0.01, "alpha": 0.5}})
    assert main(["aquifer", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a" / "conditions.csv").read_text().splitlines()[1:] == [
        "aquifer_admissibility,0.96,0.5,-0.45999999999999996,False"]
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "b"),
                 "--require-feasible"]) == 3


@pytest.mark.parametrize("argv", [
    ["simulate", "--require-feasible"],
    ["sweep", "--epsilon-list", "0.1", "0.01"],
])
def test_flags_outside_the_config_rejected(tmp_path, capsys, argv):
    # a run's settings come from its config; --require-feasible belongs to check alone
    path = write_config(tmp_path, GENERIC)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(path), "--out", str(tmp_path / "out"), *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_solver_failure_exit_one_with_partial(tmp_path, monkeypatch):
    # one GMRES iteration per call, so the stiff step stalls at once
    monkeypatch.setattr(fv, "GMRES_RESTART", 1)
    monkeypatch.setattr(fv, "GMRES_CYCLES", 1)
    cfg = json.loads(json.dumps(GENERIC))
    cfg["grid"] = {"dims": [24, 24], "extents": [1.0, 1.0]}
    cfg["stepper"] = {"dt": 1e6, "t_end": 2e6, "lin_tol": 1e-14}
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


KEULEGAN_BOTH = {"schema": 1, "kind": "keulegan", "grid": {"dims": [48]},
                 "stepper": {"dt": 3e-3, "t_end": 9e-3},
                 "model": {"tilt": 0.4, "pump_rate": 0.05, "variant": "both"}}


@pytest.mark.parametrize("command, payload, stepper, counts", [
    ("simulate", GENERIC, {}, "5/5"),
    ("simulate", GENERIC, {"picard_tol": 1e-14, "picard_max": 2}, "0/5"),
    ("keulegan", KEULEGAN_BOTH, {}, "3/3;3/3"),
])
def test_manifest_counts_converged_steps(tmp_path, command, payload, stepper, counts):
    cfg = json.loads(json.dumps(payload))
    cfg["stepper"].update(stepper)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert f"\nexit_status=0\npicard_converged={counts}\n" in (out / "manifest.txt").read_text()


def test_manifest_counts_partial_run(tmp_path, singular_confined_step):
    # the confined run fails at its first step, after the penalized run
    path = write_config(tmp_path, KEULEGAN_BOTH)
    out = tmp_path / "out"
    assert main(["keulegan", "--config", str(path), "--out", str(out)]) == 1
    assert "\npicard_converged=3/3;0/0\n" in (out / "manifest.txt").read_text()


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


@pytest.mark.parametrize("grid, probe", [
    ({"dims": [6, 6]}, {}),  # its 4 disc cells all lie on the disc's boundary ring
    ({"dims": [10]}, {"radius": -1.0}),
    ({"dims": [10, 10]}, {"amplitude": 0.0}),
])
def test_probe_without_perturbation_rejected(tmp_path, capsys, grid, probe):
    m = 2 if len(grid["dims"]) == 2 else 1
    cfg = {"schema": 1, "kind": "generic", "grid": grid,
           "model": {"m": m, "delta": [1.0] * m, "K": [[1.0] * m] * m},
           "diagnostics": {"probe": probe}}
    path = write_config(tmp_path, cfg)
    assert main(["probe", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: diagnostics.probe perturbs no cell")
    assert not (tmp_path / "out").exists()


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


def test_fully_saturated_penalized_2d_keulegan_run_converges(tmp_path):
    # h1 = 0 at eps 1e-4 keeps the drain active everywhere; the solves that outgrow the
    # kept inverse rebuild it inside the solve instead of stalling on it
    payload = {"schema": 1, "kind": "keulegan", "grid": {"dims": [24, 24]},
               "stepper": {"dt": 1e-3, "t_end": 1e-2},
               "model": {"tilt": 0.8, "pump_rate": 0.5, "h1_level": 0.0, "epsilon": 1e-4,
                         "variant": "penalized"}}
    out = tmp_path / "out"
    assert main(["keulegan", "--config", str(write_config(tmp_path, payload)),
                 "--out", str(out)]) == 0
    assert "\nexit_status=0\npicard_converged=10/10\n" in (out / "manifest.txt").read_text()


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
    assert text.splitlines()[-1].startswith("fit_exponent,")
    assert "" not in text.splitlines()


def _penalized_failing_at(monkeypatch, failing):
    run_penalized = aq.run_penalized

    def run(spec, grid, cfg):
        if spec.epsilon in failing:
            raise fv.SolverFailure(f"stalled at epsilon {spec.epsilon}")
        return run_penalized(spec, grid, cfg)
    monkeypatch.setattr(aq, "run_penalized", run)


def test_sweep_with_a_failed_epsilon_exits_one_and_keeps_its_row(tmp_path, monkeypatch):
    _penalized_failing_at(monkeypatch, [1e-2])
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, AQUIFER)),
                 "--out", str(out)]) == 1
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "epsilon,violation,residual,error"
    assert rows[1].startswith("0.1,") and rows[1].endswith(",")
    assert rows[2] == "0.01,nan,nan,stalled at epsilon 0.01"
    assert rows[3:] == ["fit_exponent,nan"]  # one successful epsilon fits no exponent
    assert "exit_status=1" in (out / "manifest.txt").read_text()
    assert not (out / "error.txt").exists()


def test_sweep_with_every_epsilon_failed_writes_the_first_error(tmp_path, monkeypatch):
    _penalized_failing_at(monkeypatch, [1e-1, 1e-2])
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, AQUIFER)),
                 "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.txt", "manifest.txt"]
    assert (out / "error.txt").read_text() == "solver failure at t=None: stalled at epsilon 0.1\n"


def test_initial_head_failure_keeps_the_penalized_run(tmp_path, failing_initial_head):
    payload = {**KEULEGAN, "model": {"pump_rate": 0.05, "variant": "both"}}
    out = tmp_path / "out"
    assert main(["keulegan", "--config", str(write_config(tmp_path, payload)),
                 "--out", str(out)]) == 1
    assert (out / "error.txt").read_text() == "solver failure at t=0.0: stalled\n"
    names = {p.name for p in out.iterdir()}
    assert {"series.csv", "confinement.csv", "interface_0000.csv"} <= names
    assert not any(name.startswith("confined_") for name in names)
    manifest = (out / "manifest.txt").read_text()
    assert "exit_status=1" in manifest and "picard_converged=3/3\n" in manifest


def test_infeasible_degiorgi_budget_writes_only_the_header(tmp_path):
    # s = 3 on a 2D grid leaves the level iteration no exponent budget (zeta <= 0)
    cfg = {**json.loads(json.dumps(GENERIC)), "diagnostics": {"degiorgi": {"s": 3.0}}}
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)]) == 0
    assert (out / "degiorgi.csv").read_text().splitlines() == [
        ",".join(diag.DeGiorgiTrace.COLUMNS), "# infeasible budget (zeta <= 0)"]


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


def test_convergence_manifest_counts_converged_steps_per_level(tmp_path):
    payload = {"convergence": {"case": "coupled", "levels": 2}}
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
    assert len((out / "convergence.csv").read_text().splitlines()) == 1 + 2
    manifest = (out / "manifest.txt").read_text()
    assert "\nexit_status=0\npicard_converged=9/10;40/40\n" in manifest
    assert '"dt0":0.004' in manifest and '"t_end":0.04' in manifest


def test_convergence_without_grids_rejected(tmp_path, capsys):
    # the coupled case runs levels grids (heat runs levels + 1), so 0 levels is no study
    path = write_config(tmp_path, {"convergence": {"case": "coupled", "levels": 0}})
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "convergence.levels" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


FULL_GENERIC = {**GENERIC, "diagnostics": {
    "conditions": {}, "degiorgi": {"species": 2}, "bounds": {},
    "levels": {"count": 6}, "probe": {"radius": 0.3}},
    "convergence": {"case": "coupled", "levels": 1}}
BOTH = {"variant": "both"}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _echoed(effective: dict, echo: dict) -> dict:
    """``effective`` restricted to the blocks of ``echo`` (its diagnostics sub-blocks too)."""
    return {name: {sub: effective[name][sub] for sub in block} if name == "diagnostics"
            else effective[name] for name, block in echo.items()}


# one case per (command, kind) row of cli._COMMANDS; each payload also sets non-default
# values in blocks that its kind accepts but its command does not read, except under sweep,
# which reads every block of its kinds
@pytest.mark.parametrize("command, payload, block, default", [
    ("simulate", FULL_GENERIC, "diagnostics", {"levels": {"count": 6, "lo": 0.0, "hi": None}}),
    ("aquifer", {**AQUIFER, "model": {**AQUIFER["model"], **BOTH}},
     "model", {"h2": 1.0, "pumping": {"profile": "point", "rate": -0.3, "position": None}}),
    ("keulegan", KEULEGAN, "model", {"tilt": 0.5, "well_position": None}),
    ("convergence", {**FULL_GENERIC, "convergence": {"levels": 1}}, "convergence",
     {"dt0": 2e-3, "t_end": 0.01}),
    ("check", FULL_GENERIC, "diagnostics", {"conditions": {}}),
    ("sweep", AQUIFER, "sweep", {"epsilon_list": [1e-1, 1e-2]}),
    ("check", AQUIFER, "model", {"pumping": {"profile": "point", "rate": -0.3, "position": None}}),
    ("check", KEULEGAN, "model", {"pump_rate": 0.05}),
    ("probe", FULL_GENERIC, "diagnostics",
     {"probe": {"amplitude": 1e-3, "radius": 0.3, "center": [0.5, 0.5]}}),
    ("aquifer", {**KEULEGAN, "model": {**KEULEGAN["model"], **BOTH}}, "model", BOTH),
    ("sweep", KEULEGAN, "sweep", {"epsilon_list": [1e-2]}),
])
def test_echoed_config_reruns_identically(tmp_path, command, payload, block, default):
    first = write_config(tmp_path, payload)
    assert main([command, "--config", str(first), "--out", str(tmp_path / "a")]) == 0
    manifest = (tmp_path / "a" / "manifest.txt").read_text()
    echoed = next(line for line in manifest.splitlines() if line.startswith("config="))
    echo = json.loads(echoed[len("config="):], parse_constant=_reject_constant)  # strict JSON
    second = tmp_path / "echoed.json"
    second.write_text(echoed[len("config="):])
    assert default.items() <= echo[block].items()
    assert _echoed(parse_scenario(second).effective, echo) == echo
    assert _echoed(parse_scenario(first).effective, echo) == echo
    assert main([command, "--config", str(second), "--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:  # the manifest too, config_hash included
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_blocks_the_command_does_not_read_leave_the_tree_unchanged(tmp_path):
    # each pair differs only in blocks that other commands of the generic kind read:
    # convergence and the probe settings for simulate, the stepper for convergence
    cfg = {**GENERIC, "diagnostics": {"levels": {"count": 6}}}
    study = {"schema": 1, "kind": "generic", "convergence": {"case": "heat", "levels": 1}}
    pairs = [("simulate", cfg, {**cfg, "convergence": {"case": "coupled"},
                                "diagnostics": {**cfg["diagnostics"],
                                                "probe": {"amplitude": 1e-2}}}),
             ("convergence", study, {**study, "stepper": {"dt": 0.5, "picard_max": 1,
                                                          "lin_tol": 1e-6}})]
    for command, payload, other in pairs:
        runs = [tmp_path / command / name for name in ("a", "b")]
        for out, data in zip(runs, (payload, other)):
            path = write_config(tmp_path, data, f"{command}-{out.name}.json")
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(p.name for p in runs[1].iterdir())
        for name in names:  # the manifest too, config_hash included
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_readme_minimal_scenario_checks(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    scenario = readme.split("A minimal scenario:", 1)[1].split("```json", 1)[1].split("```")[0]
    path = tmp_path / "minimal.json"
    path.write_text(scenario)
    parse_scenario(path)
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
