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
    "convergence": ("convergence", {
        "schema": 1, "kind": "generic", "convergence": {"case": "heat", "levels": 2}}),
}

GOLDEN = {
    "simulate": {
        "bounds.csv": "f8a43000c40081db1de8660cb6d0da59e02e6511e7dd48fda80b6922ddb1b4ef",
        "degiorgi.csv": "1336e2f5e930b4cf700caabc0fa73057f5c476d57ba09fea165e501fef341e06",
        "levels.csv": "1f60ceaac120b8a1303fbd58c5e57901a868abf0665fc0a9294befedd26ea4ad",
        "manifest.txt": "33893f995a7c6fb9c95decc07f039800815e7b97ff126f92b1e85b2f86530d90",
        "series.csv": "00f270862027df25b5a194055d584a8b9fc030bc98180cbd998630578c2c5c0d",
        "snapshots.csv": "7cca876b8f4fc2533ed3c0dbaab0f0724926c2dadcd2080e716082950ffca585",
    },
    "keulegan": {
        "confined_series.csv": "c9a2328bff160bbb9f1107f1c90d8ff282afc78a8f99c799631cccfc999046ca",
        "confined_snapshots.csv": "9e563bbafe9831330c0de1729975f5399b7959b7d821da201c7300165ac9a15e",
        "confinement.csv": "7a090f6af75244b538f1a1e682b8c018d71176caab22f8ee55f4b5d02293a410",
        "interface_0000.csv": "14364c2aa34fca7571a251f94418344f3151154b360e1ea7db74c646a0e46819",
        "interface_0001.csv": "7c9ae9c12d7ec02bac9f0dfa363046e66ea8bef8cd2d091ee723046f86ed6350",
        "manifest.txt": "86e9385aca01993e646264f629eecfe62bda3f46266bc801b3c6f807c8953b68",
        "series.csv": "8601b103b087d9fe1c2e608afc026d8c3806cb8c99003d5d30c098974df35de5",
    },
    "aquifer": {
        "confined_series.csv": "a25d14e11e823521d99b0cbfc82ffae4487ad42ec427e1e5236c5ce0d501d2cc",
        "confined_snapshots.csv": "f8ca4d3e7355904d39f36ae3170bb956f80cc78dcaefd3996501cbc583206e32",
        "confinement.csv": "7f425363b3d29a2f554ae918bd2e1a000a620eeb38ec6bca7d231b1f848d9746",
        "interface_0000.csv": "15a9dc0926b04ff23c5023f39f5c44bdad14a00a38c85b92644a634fcc1e7e64",
        "interface_0001.csv": "1c99c230ae53a53bfb925bb47332f5bd8a8d0dd69cc7ff65b8b30053e5cc79ca",
        "manifest.txt": "883cbdeefb365cd8a87bab18b9070d2c418c271a249c8f34b705db1bf29045ed",
        "series.csv": "5ccee841310b9b8bc46b9a7e92eee319efe89cfa5897345fee417136f957b884",
    },
    "convergence": {
        "convergence.csv": "ed60678eecd6457cc865b6c3c100b6c8b71adfc2ce36863d20dcfaeb8243b8d5",
        "manifest.txt": "b76c50ff1cc71113569244aa2bec878adda6af0a2764f51fd114ae6fae72dcdc",
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
