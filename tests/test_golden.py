"""Golden artifacts: the CLI's output files are byte-identical to recorded hashes.

Each config runs through ``crossdiff.cli.main`` and every file it writes,
``manifest.txt`` included, is compared by SHA-256 with the hashes below.  A
change that alters any artifact of these configs must say why and record the
new hashes (``python tests/test_golden.py`` prints them).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossdiff
from crossdiff.cli import main

CONFIGS = {
    # levels, De Giorgi and bounds diagnostics on a 2D generic run
    "simulate": ("simulate", {
        "schema": 1, "kind": "generic", "grid": {"dims": [8, 8]},
        "stepper": {"dt": 1e-3, "t_end": 6e-3, "snapshot_every": 3},
        "model": {"m": 2, "delta": [1.0, 0.8], "ell": 1.0, "K": [[1.0, 0.5], [0.5, 1.0]],
                  "initial": [{"profile": "sine"}, {"profile": "sine", "amplitude": 0.8}],
                  "dirichlet": [0.0, 0.0]},
        "diagnostics": {"levels": {"count": 5}, "degiorgi": {}, "bounds": {}}}),
    # both closed-box variants with a well, 1D
    "keulegan": ("keulegan", {
        "schema": 1, "kind": "keulegan", "grid": {"dims": [32]},
        "stepper": {"dt": 2e-3, "t_end": 1e-2, "snapshot_every": 5},
        "model": {"tilt": 0.4, "pump_rate": 0.05, "variant": "both"}}),
    # both Dirichlet variants with a well on 24^2, above fv.DIRECT_MAX_UNKNOWNS (GMRES)
    "aquifer": ("aquifer", {
        "schema": 1, "kind": "aquifer", "grid": {"dims": [24, 24]},
        "stepper": {"dt": 1e-3, "t_end": 3e-3, "snapshot_every": 3},
        "model": {"epsilon": 1e-4, "variant": "both",
                  "pumping": {"profile": "point", "rate": 0.5}}}),
    # one species on 72^2, at fv.TRANSFORM_MIN_CELLS: GMRES preconditioned by fast transforms
    "simulate-transform": ("simulate", {
        "schema": 1, "kind": "generic", "grid": {"dims": [72, 72]},
        "stepper": {"dt": 1e-3, "t_end": 3e-3, "snapshot_every": 3},
        "model": {"m": 1, "delta": [1.0], "ell": 1.0, "K": [[1.0]],
                  "initial": [{"profile": "sine"}], "dirichlet": [0.0]}}),
    "convergence": ("convergence", {
        "schema": 1, "kind": "generic", "convergence": {"case": "heat", "levels": 2}}),
}

GOLDEN = {
    "simulate": {
        "bounds.csv": "2ce9e67cc6efc6a9fb817a8f9bd4261311acaa745f8551b844acbe7e08ad5798",
        "degiorgi.csv": "1336e2f5e930b4cf700caabc0fa73057f5c476d57ba09fea165e501fef341e06",
        "levels.csv": "e7b6ce79b127181e11fe5cdbb9630a09516ef937a671ec3925bce948f0f84313",
        "manifest.txt": "4cc07fedf04c52e9696d9ce480a527b7f67fe85ada5f239b2555fca9da312705",
        "series.csv": "c10cf477992e8cbec7c10748e87f2d59268fccd5fe9dd9d863d0fd24a1c46917",
        "snapshots.csv": "ed94530d63ba1685d91ebe0fb58a1e42f1ab4550037b1ad7c35705ff304bbcc2",
    },
    "keulegan": {
        "confined_series.csv": "c9a2328bff160bbb9f1107f1c90d8ff282afc78a8f99c799631cccfc999046ca",
        "confined_snapshots.csv": "9e563bbafe9831330c0de1729975f5399b7959b7d821da201c7300165ac9a15e",
        "confinement.csv": "7a090f6af75244b538f1a1e682b8c018d71176caab22f8ee55f4b5d02293a410",
        "interface_0000.csv": "14364c2aa34fca7571a251f94418344f3151154b360e1ea7db74c646a0e46819",
        "interface_0001.csv": "a98882cd08020b8a79f2cffed91d24a764502bc7470095a17578bf69362b5156",
        "manifest.txt": "5718039505cfddc08cad47d959b984a76def629a78c1bbabe991dd203f96cdf7",
        "series.csv": "34fcdeb7545f7d49c7d9e325b40fc73569ec91281f8885f73f070f23a9afbff1",
    },
    "aquifer": {
        "confined_series.csv": "a25d14e11e823521d99b0cbfc82ffae4487ad42ec427e1e5236c5ce0d501d2cc",
        "confined_snapshots.csv": "f8ca4d3e7355904d39f36ae3170bb956f80cc78dcaefd3996501cbc583206e32",
        "confinement.csv": "7f425363b3d29a2f554ae918bd2e1a000a620eeb38ec6bca7d231b1f848d9746",
        "interface_0000.csv": "15a9dc0926b04ff23c5023f39f5c44bdad14a00a38c85b92644a634fcc1e7e64",
        "interface_0001.csv": "81164b78b1d18bdc9433c5e4dfe932f91d8e7b3a50d0584029fec4d9ca487907",
        "manifest.txt": "75006fecf902a8730a02607d78eb4d3ea153ff2c4e9e1b2e199e2f749c8f03d0",
        "series.csv": "e328c7281c858cac3e5cf8b2111c0ee81130a5163dd8e5898be6ae22ea30d1bf",
    },
    "simulate-transform": {
        "manifest.txt": "928cfff2aa444c847de144aeebd2ba03a1c463e79fcfa54107dc0603304bb169",
        "series.csv": "ab9e52e893b751a9bc80d3ae5fa0fe5b34f963dcb769848450777f91c8e20539",
        "snapshots.csv": "4c886a740f378b7e851d126f807a2f64566a2cba239696f58e30c5c3a53b487e",
    },
    "convergence": {
        "convergence.csv": "ed60678eecd6457cc865b6c3c100b6c8b71adfc2ce36863d20dcfaeb8243b8d5",
        "manifest.txt": "51d2cee339fd90d851eda0aaef0aaf307873f97786b4c18eef0a82fd7d9239bc",
    },
}


def artifact_hashes(name: str, tmp_path: Path) -> dict[str, str]:
    command, payload = CONFIGS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / name
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("name", CONFIGS)
def test_artifacts_match_golden_hashes(tmp_path, name):
    assert artifact_hashes(name, tmp_path) == GOLDEN[name]


def test_golden_hashes_hold_with_one_blas_thread():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(crossdiff.__file__).parents[1])}
    out = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert json.loads(out) == GOLDEN


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        json.dump({name: artifact_hashes(name, Path(tmp)) for name in CONFIGS},
                  sys.stdout, indent=4)
