"""CSV artifacts against references rendered cell by cell with ``repr(float(x))``.

Every artifact promises Python's shortest round-trip float text; these tests
rebuild each table line by line, the slow obvious way, and require the
package's output to match it byte for byte.
"""

import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff import aquifer as aq
from crossdiff import cli
from crossdiff import diagnostics as diag
from crossdiff import table
from crossdiff.conditions import ConditionReport, check_existence, degiorgi_budget, reports_to_csv
from crossdiff.model import CrossTensor, Grid, ModelSpec
from crossdiff.solver import StepperConfig, run
from crossdiff.table import _BLOCK_ROWS, cells, csv_table

from conftest import coupled_spec_2d, product_sine

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e308, -1e308,
           1e-300, 0.1 + 0.2, 1.0, -3.0, 2.0 ** 53, 1e16, 1e-5, 123456.0,
           # the ends of [1e-4, 1e16), where repr writes digits without an exponent
           1e-4, -1e-4, float(np.nextafter(1e-4, 0.0)), 9999999999999998.0, 1e15 + 1,
           2.0 ** 53 + 2]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())


def fmt(x) -> str:
    return repr(float(x))


def reference(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


# ---------------------------------------------------------------------------
# the shared writer
# ---------------------------------------------------------------------------

@st.composite
def float_tables(draw):
    n_cols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(FLOATS, min_size=n_cols, max_size=n_cols), max_size=25))
    return n_cols, rows


@settings(max_examples=200, deadline=None)
@given(float_tables())
def test_float_table_matches_repr_reference(table):
    n_cols, rows = table
    header = [f"c{j}" for j in range(n_cols)]
    columns = [np.array([row[j] for row in rows], dtype=float) for j in range(n_cols)]
    expected = reference(",".join(header), (",".join(fmt(x) for x in row) for row in rows))
    assert csv_table(header, columns) == expected


def test_special_floats_spelled_by_repr():
    text = csv_table(["v"], [np.array(SPECIAL)])
    assert text.splitlines()[1:] == [repr(x) for x in SPECIAL]
    assert text.splitlines()[1:8] == ["-0.0", "0.0", "5e-324", "-5e-324", "inf", "-inf", "nan"]


def test_mixed_columns_and_short_columns_across_blocks():
    n = 2 * _BLOCK_ROWS + 7
    rng = np.random.default_rng(3)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    ints = rng.integers(-5, 5, n)
    flags = values > 0.0
    names = [f"r{k}" for k in range(n)]
    short = values[:_BLOCK_ROWS + 1]  # ends inside the second block
    text = csv_table(["name", "i", "flag", "v", "short"], [names, ints, flags, values, short])
    rows = [f"{names[k]},{ints[k]},{bool(flags[k])},{fmt(values[k])},"
            + (fmt(short[k]) if k < len(short) else "") for k in range(n)]
    assert text == reference("name,i,flag,v,short", rows)


def test_empty_table_is_header_line():
    assert csv_table(["a", "b"], [np.array([]), []]) == "a,b\n"


def _mismatches(column):
    """The (expected, rendered) pairs of ``cells(column)`` that differ from ``repr``."""
    rendered, expected = cells(column), [fmt(x) for x in np.asarray(column).tolist()]
    if rendered == expected:
        return []
    assert len(rendered) == len(expected)
    return [(e, r) for e, r in zip(expected, rendered) if e != r]


def test_float_bit_patterns_and_every_decade_match_repr():
    rng = np.random.default_rng(32)
    lo, hi = np.array([1e-4, 1e16]).view(np.int64)
    inside = rng.integers(lo, hi, 500_000).view(np.float64)  # uniform in the bit patterns
    exponents = np.concatenate([(np.arange(-320, 308)[:, None] + rng.random((628, 64))).ravel(),
                                rng.uniform(308.0, 308.25, 64)])  # below the largest double
    integers = rng.integers(0, 2 ** 53, 20_000).astype(float)
    short = rng.integers(1, 10 ** 7, 20_000) / 10.0 ** rng.integers(0, 12, 20_000)  # short decimals
    positive = np.concatenate([inside, 10.0 ** exponents, integers, short])
    values = np.concatenate([positive, -positive])
    assert ((np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)).sum() >= 10 ** 6
    assert _mismatches(values)[:5] == []


def test_float32_strided_and_empty_columns():
    rng = np.random.default_rng(7)
    f32 = (rng.standard_normal(3000) * 10.0 ** rng.integers(-12, 20, 3000)).astype(np.float32)
    f32[:5] = [1e-4, np.nextafter(np.float32(1e-4), np.float32(0.0)), -0.0, np.nan, 0.1]
    assert _mismatches(f32) == []
    assert cells(f32[:5]) == ["9.999999747378752e-05", "9.99999901978299e-05", "-0.0", "nan",
                              "0.10000000149011612"]

    stack = rng.standard_normal((3, 50, 3)) * 10.0 ** rng.integers(-6, 3, (3, 50, 3))
    for column in (stack[1, :, 1], stack[2, ::-1, 0], f32[::7]):  # none C-contiguous
        assert not column.flags.c_contiguous
        assert _mismatches(column) == []
    with mock.patch.object(table, "_BLOCK_ROWS", 16):
        assert csv_table(["v"], [stack[0, :, 2]]) == reference(
            "v", map(fmt, stack[0, :, 2]))

    for empty in (np.array([]), np.array([], dtype=np.float32), np.empty((4, 0))[0], []):
        assert cells(empty) == []
    assert csv_table(["v", "i"], [np.array([]), np.arange(2)]) == "v,i\n,0\n,1\n"


# ---------------------------------------------------------------------------
# rendered columns pass through
# ---------------------------------------------------------------------------

# cells a float or int rendering would never produce, so a re-render would show
TEXTS = ["1.50", "0.10000", "-0", "1e+05", "+3", "", " 7", "x"]


def test_rendered_column_passes_through_across_blocks():
    n = 2 * _BLOCK_ROWS + 5
    rendered = [TEXTS[k % len(TEXTS)] + str(k // len(TEXTS)) for k in range(n)]
    assert cells(rendered) is rendered
    text = csv_table(["s", "i"], [rendered, np.arange(n)])
    assert text == reference("s,i", (f"{rendered[k]},{k}" for k in range(n)))


def test_short_rendered_column_ends_in_empty_cells():
    n = _BLOCK_ROWS + 3
    values = np.linspace(0.0, 1.0, n) / 3.0
    short = TEXTS * 2  # ends inside the first block
    text = csv_table(["v", "s"], [values, short])
    assert text == reference("v,s", (fmt(values[k]) + "," + (short[k] if k < len(short) else "")
                                     for k in range(n)))


def test_raw_lists_and_int_arrays_are_rendered():
    floats = [0.1 + 0.2, 1e16, -0.0, 5e-324, math.nan, 2.0]  # Python floats, as in convergence rows
    ints = np.array([-7, 0, 3, 2 ** 40, 12, 1], dtype=np.int64)
    assert cells(floats) == [repr(x) for x in floats]
    assert cells(ints) == [str(int(x)) for x in ints]
    assert cells([3, -1]) == ["3", "-1"]
    assert csv_table(["f", "i"], [floats, ints]) == reference(
        "f,i", (f"{repr(x)},{int(i)}" for x, i in zip(floats, ints)))


RENDERED_TEXT = st.text(st.characters(exclude_characters=",\n\r"), max_size=6)


@st.composite
def mixed_columns(draw):
    """Columns of unequal length: rendered text, float lists or arrays, int lists or arrays."""
    columns, expected = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["text", "float-list", "float-array", "int-list", "int-array"]))
        size = draw(st.integers(0, 12))
        if kind == "text":
            # a rendered column is a non-empty list of str; an empty one is any empty column
            col = draw(st.lists(RENDERED_TEXT, min_size=max(size, 1), max_size=max(size, 1)))
            columns.append(col)
            expected.append(list(col))
        elif kind.startswith("float"):
            col = draw(st.lists(FLOATS, min_size=size, max_size=size))
            columns.append(col if kind == "float-list" else np.array(col, dtype=float))
            expected.append([repr(float(x)) for x in col])
        else:
            col = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=size, max_size=size))
            columns.append(col if kind == "int-list" else np.array(col, dtype=np.int64))
            expected.append([str(x) for x in col])
    return columns, expected


@settings(max_examples=300, deadline=None)
@given(mixed_columns(), st.integers(1, 5))
def test_mixed_rendered_and_raw_columns_match_naive_reference(drawn, block_rows):
    columns, expected = drawn
    header = [f"c{j}" for j in range(len(columns))]
    n_rows = max(map(len, expected))
    rows = (",".join(col[k] if k < len(col) else "" for col in expected) for k in range(n_rows))
    with mock.patch.object(table, "_BLOCK_ROWS", block_rows):  # small blocks, many boundaries
        text = csv_table(header, columns)
    assert text == reference(",".join(header), rows)


# ---------------------------------------------------------------------------
# artifact writers on tiny runs
# ---------------------------------------------------------------------------

def _generic_run():
    grid = Grid((4, 3), (1.0, 1.0))
    return grid, run(coupled_spec_2d(), grid,
                     StepperConfig(dt=1e-3, t_end=3e-3, snapshot_every=2))


def _snapshot_rows(result, grid):
    coords = grid.cell_centers()
    return [",".join([*(fmt(v) for v in coords[c]), str(i + 1), fmt(snap[i, c]), fmt(t)])
            for snap, t in zip(result.snapshots, result.snapshot_times)
            for i in range(result.m) for c in range(grid.n_cells)]


def _series_rows(result):
    return [",".join([fmt(t)] + [fmt(v) for i in range(result.m) for v in
                                 (result.minmax[i, k, 1], result.minmax[i, k, 2],
                                  result.mass[i, k])])
            for k, t in enumerate(result.times)]


def test_generic_run_writers_match_reference():
    grid, result = _generic_run()
    assert "".join(cli.snapshots_csv(result, grid)) == reference(
        "x,y,species,value,t", _snapshot_rows(result, grid))
    assert cli.series_csv(result) == reference(
        "t,min_1,max_1,mass_1,min_2,max_2,mass_2", _series_rows(result))

    for lo, hi in ((0.0, math.inf), (0.1, 0.5)):
        rep = diag.bound_check(result, lo, hi)
        rows = [f"{sb.species + 1}," + ",".join(fmt(v) for v in (
            sb.lo_margin, sb.hi_margin, sb.min_value, sb.min_time, sb.max_value, sb.max_time))
            for sb in rep.species]
        assert rep.to_csv() == reference(
            "species,lo_margin,hi_margin,min_value,min_time,max_value,max_time", rows)

    profile = diag.level_set_profile(result, grid, np.linspace(0.0, 1.0, 5))
    rows = [",".join([fmt(k)] + [fmt(v) for v in profile.measures[:, j]])
            for j, k in enumerate(profile.levels)]
    assert profile.to_csv() == reference("level,mu_1,mu_2", rows)

    budget = degiorgi_budget(N=2, s=6.0, ell0=1.0, m_factor=2.0, M_s=1.0,
                             K_offdiag_plus=0.5, K_diag_minus=1.0, delta_i=1.0,
                             ell=1.0, sobolev_beta=1.0)
    trace = diag.degiorgi_trace(result, grid, 0, 0.5, 2.0, 0.5, budget, n_max=6)
    rows = [f"{n},{fmt(trace.k_n[n])},{fmt(trace.v_n[n])},"
            + (f"{fmt(trace.recursion_rhs[n])},{bool(trace.holds[n])}"
               if n < len(trace.recursion_rhs) else ",")
            for n in range(len(trace.k_n))]
    assert trace.to_csv() == reference("n,k_n,v_n,rhs_n,holds", rows)


def test_simulate_snapshots_hold_cells_on_both_sides_of_1e_4(tmp_path):
    # species 1 of amplitude 1e-3 spans about 7e-5 to 1e-3 at every snapshot, and species 2
    # starts at -0.0: one snapshots.csv mixes orjson's cells with repr's, row by row
    payload = {"schema": 1, "kind": "generic", "grid": {"dims": [6, 5]},
               "stepper": {"dt": 1e-3, "t_end": 2e-3},
               "model": {"initial": [{"profile": "sine", "amplitude": 1e-3}, -0.0]}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0

    config = cli.parse_scenario(path)
    result = run(cli.build_generic_spec(config), config.grid, config.stepper)
    species_1 = np.abs(result.snapshots[:, 0])
    assert ((species_1 < 1e-4).any(axis=1) & (species_1 >= 1e-4).any(axis=1)).all()
    assert np.signbit(result.snapshots[0, 1]).all() and not result.snapshots[0, 1].any()
    rows = _snapshot_rows(result, config.grid)
    assert (out / "snapshots.csv").read_text() == reference("x,y,species,value,t", rows)
    cells_written = {row.split(",")[3] for row in rows}
    assert "-0.0" in cells_written and any("e-05" in c for c in cells_written)
    assert (out / "series.csv").read_text() == reference(
        "t,min_1,max_1,mass_1,min_2,max_2,mass_2", _series_rows(result))


def _iso_spec(ndim):
    iso = CrossTensor.isotropic
    k = [[iso(1.0, ndim), iso(0.5, ndim)], [iso(0.5, ndim), iso(1.0, ndim)]]
    return ModelSpec(m=2, delta=[1.0, 1.0], K=k, ell=1.0, domain=(1.0,) * ndim,
                     initial=[product_sine(1.0), product_sine(0.8)], dirichlet=[0.0, 0.0])


def test_snapshots_csv_matches_per_row_reference_across_blocks():
    dt = 1e-3 / 3.0  # snapshot times with long reprs
    for grid in (Grid((24, 24), (1.0, 1.0)), Grid((40,), (1.0,))):
        result = run(_iso_spec(grid.ndim), grid, StepperConfig(dt=dt, t_end=4 * dt))
        rows = _snapshot_rows(result, grid)
        assert len(result.snapshots) == 5
        assert len(rows) > _BLOCK_ROWS or grid.ndim == 1
        head = "x,y" if grid.ndim == 2 else "x"
        assert "".join(cli.snapshots_csv(result, grid)) == reference(
            f"{head},species,value,t", rows)


# ---------------------------------------------------------------------------
# chunks written to disk
# ---------------------------------------------------------------------------

def _generic_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schema": 1, "kind": "generic"}))
    return cli.parse_scenario(path)


TABLE_CASES = {
    "header-only": (["a", "b"], [np.array([]), []]),
    "one-block": (["i", "v"], [np.arange(_BLOCK_ROWS), np.linspace(0.0, 1.0, _BLOCK_ROWS) / 3.0]),
    "two-blocks": (["v", "s"], [np.linspace(0.0, 1.0, 2 * _BLOCK_ROWS) / 7.0, TEXTS]),
}


def _chunk_source(case):
    """A callable giving fresh chunks of the case, and the case's row count."""
    if case in TABLE_CASES:
        header, columns = TABLE_CASES[case]
        return lambda: table.csv_chunks(header, [columns]), max(map(len, columns))
    grid = Grid((6, 5), (1.0, 1.0)) if case == "snapshots-2d" else Grid((7,), (1.0,))
    dt = 1e-3 / 3.0
    result = run(_iso_spec(grid.ndim), grid, StepperConfig(dt=dt, t_end=3 * dt))
    assert len(result.snapshots) == 4
    return lambda: cli.snapshots_csv(result, grid), 4 * 2 * grid.n_cells


@pytest.mark.parametrize("case", [*TABLE_CASES, "snapshots-1d", "snapshots-2d"])
def test_written_file_is_the_joined_chunks(tmp_path, case):
    make, n_rows = _chunk_source(case)
    chunks = list(make())
    text = "".join(chunks)
    assert chunks[0].count("\n") == 1 and text.count("\n") == 1 + n_rows
    assert all(c.endswith("\n") and c.count("\n") <= _BLOCK_ROWS for c in chunks)
    # the header, then one block per snapshot or per _BLOCK_ROWS rows
    assert len(chunks) == 1 + (4 if case.startswith("snapshots") else -(-n_rows // _BLOCK_ROWS))
    config, out = _generic_config(tmp_path), tmp_path / "out"
    for artifact in (make(), text):  # streamed chunks, then the joined text
        cli.write_outputs(out, config, "simulate", {"t.csv": artifact}, 0, [])
        assert (out / "t.csv").read_bytes() == text.encode()


def test_snapshot_rendering_memory_does_not_grow_with_snapshots(tmp_path):
    # a 32x32 two-species run: 2048 rows per snapshot, 9.9 MB of text at 101 snapshots;
    # rendering the whole table at once peaks at 7.4 MiB (26 snapshots) and 27.3 MiB (101)
    grid = Grid((32, 32), (1.0, 1.0))
    result = run(coupled_spec_2d(), grid, StepperConfig(dt=1e-3, t_end=0.1))
    assert len(result.snapshots) == 101
    config, out, peaks = _generic_config(tmp_path), tmp_path / "out", {}
    for count in (26, 101):
        part = dataclasses.replace(result, snapshots=result.snapshots[:count],
                                   snapshot_times=result.snapshot_times[:count])
        tracemalloc.start()
        try:
            cli.write_outputs(out, config, "simulate",
                              {"snapshots.csv": cli.snapshots_csv(part, grid)}, 0, [])
            peaks[count] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert (out / "snapshots.csv").stat().st_size > count * 2048 * 40
    assert max(peaks.values()) < 2.0, peaks
    assert peaks[101] < peaks[26] + 0.25, peaks


def test_probe_writer_matches_reference():
    grid = Grid((8, 8), (1.0, 1.0))
    spec = coupled_spec_2d()
    pert, cells = diag.disc_perturbation(grid, 2, (0.5, 0.5), 0.3, 1e-3)
    report = diag.uniqueness_probe(spec, grid, StepperConfig(dt=1e-3, t_end=2e-3), pert, cells)
    rows = [",".join([fmt(t)] + [fmt(report.v_norms[i, j]) for i in range(2)])
            for j, t in enumerate(report.times)]
    rows += ["", "quantity,value"]
    for i in range(2):
        rows += [f"grad_energy_{i + 1},{fmt(report.grad_energies[i])}",
                 f"cross_energy_{i + 1},{fmt(report.cross_energies[i])}"]
    rows += [f"epsilon_{k + 1},{fmt(e)}" for k, e in enumerate(report.epsilons)]
    rows += [f"margin_{k + 1},{fmt(mg)}" for k, mg in enumerate(report.margins)]
    rows += [f"amplification,{fmt(report.amplification)}"]
    assert report.to_csv() == reference("t,v_norm_1,v_norm_2", rows)


def test_keulegan_artifacts_match_reference(tmp_path):
    payload = {"schema": 1, "kind": "keulegan", "grid": {"dims": [8]},
               "stepper": {"dt": 3e-3, "t_end": 1.2e-2, "snapshot_every": 2},
               "model": {"tilt": 0.45, "pump_rate": 0.05, "variant": "both"}}
    path = tmp_path / "keulegan.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert cli.main(["keulegan", "--config", str(path), "--out", str(out)]) == 0

    config = cli.parse_scenario(path)
    grid = config.grid
    aspec = cli.build_aquifer_spec(config)
    result, conf = aq.run_penalized(aspec, grid, config.stepper)
    confined = aq.run_confined_aquifer(aspec, grid, config.stepper)
    assert (out / "series.csv").read_text() == reference(
        "t,min_1,max_1,mass_1,min_2,max_2,mass_2", _series_rows(result))
    rows = [f"{fmt(t)},{fmt(conf.violation[k])},{fmt(conf.residual[k])}"
            for k, t in enumerate(conf.times)]
    assert (out / "confinement.csv").read_text() == reference("t,violation,residual", rows)
    h2c = aspec.h2_cells(grid)
    x = grid.cell_centers()[:, 0]
    for idx, (h, h1) in enumerate(result.snapshots):
        s = (h - h1) + (h2c - h)
        rows = [f"{fmt(x[c])},{fmt(h[c])},{fmt(h1[c])},{fmt(s[c])}" for c in range(grid.n_cells)]
        assert (out / f"interface_{idx:04d}.csv").read_text() == reference("x,h,h1,s", rows)
    assert (out / "confined_series.csv").read_text() == reference(
        "t,min_1,max_1,mass_1,min_2,max_2,mass_2", _series_rows(confined))
    assert (out / "confined_snapshots.csv").read_text() == reference(
        "x,species,value,t", _snapshot_rows(confined, grid))


def test_sweep_and_convergence_writers_match_reference():
    entries = [{"epsilon": 0.1, "violation": 0.1 + 0.2, "residual": 5e-324, "error": None},
               {"epsilon": 1e-300, "violation": math.nan, "residual": math.nan,
                "error": "linear solver stalled, twice"},
               {"epsilon": -0.0, "violation": math.inf, "residual": 1e308, "error": None}]
    report = aq.SweepReport(entries, fit_exponent=-1.5)
    rows = [f"{fmt(e['epsilon'])},{fmt(e['violation'])},{fmt(e['residual'])},"
            + ("" if e["error"] is None else e["error"].replace(",", ";")) for e in entries]
    rows += [f"fit_exponent,{fmt(report.fit_exponent)}"]
    assert cli.sweep_csv(report) == reference("epsilon,violation,residual,error", rows)

    keys = ("h", "dt", "err_inf", "err_l2", "order_inf", "order_l2")
    table = [dict(zip(keys, vals)) for vals in
             ((0.125, 2e-3, 1e-300, 0.1 + 0.2, 0.0, -0.0),
              (0.0625, 5e-4, math.inf, math.nan, 1.9590726040055466, 2.0))]
    rows = [",".join(fmt(r[k]) for k in keys) for r in table]
    assert cli.convergence_csv(table) == reference(",".join(keys), rows)


def test_condition_reports_match_reference():
    reports = check_existence(coupled_spec_2d()) + [
        ConditionReport("integers", 1, 2), ConditionReport("unbounded", 1.0, math.inf),
        ConditionReport("tiny", 0.0, 5e-324)]
    rows = [f"{r.name},{fmt(r.lhs)},{fmt(r.rhs)},{fmt(r.margin)},{r.passed}" for r in reports]
    assert reports_to_csv(reports) == reference("name,lhs,rhs,margin,pass", rows)
