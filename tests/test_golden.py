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
        "series.csv": "92a69f4df226a5ff97b3ddb99cafba0438f89e1acc0d1c7e55e6d9d4bca18342",
        "snapshots.csv": "83ac5d3760f79d04b29fac3aebc8f13f18022c750de200c17b94ac6f233ea69d",
    },
    "keulegan": {
        "confined_series.csv": "1265eee2dcf71bcc2a614e32250bc37079b82780d117080e4afe3ee70d70bf53",
        "confined_snapshots.csv": "98883bd4d66f73e8f9b7c5161639dd649cc4f649e24aed3ab8cd43c317255db0",
        "confinement.csv": "7a090f6af75244b538f1a1e682b8c018d71176caab22f8ee55f4b5d02293a410",
        "interface_0000.csv": "14364c2aa34fca7571a251f94418344f3151154b360e1ea7db74c646a0e46819",
        "interface_0001.csv": "354a68519c6032ffabff70a35237931902e6f588de136713f3fd52c9b054ab0b",
        "manifest.txt": "86e9385aca01993e646264f629eecfe62bda3f46266bc801b3c6f807c8953b68",
        "series.csv": "8370add6633c9b1a771844393e9b328b97c9044459000a3d171cc09d967bc990",
    },
    "aquifer": {
        "confined_series.csv": "caf759c58bab0ea9868feb31aec46a09a76d599855a63f6cf8cecc81d67347e0",
        "confined_snapshots.csv": "1cf968f9149ac0fa8897e238f858b3c319c6dc7919a4fc060b878ce1aa36f53c",
        "confinement.csv": "7f425363b3d29a2f554ae918bd2e1a000a620eeb38ec6bca7d231b1f848d9746",
        "interface_0000.csv": "15a9dc0926b04ff23c5023f39f5c44bdad14a00a38c85b92644a634fcc1e7e64",
        "interface_0001.csv": "c750d12625a997d623969efbc3388db72fd5262e236f47864450e1e164097a48",
        "manifest.txt": "883cbdeefb365cd8a87bab18b9070d2c418c271a249c8f34b705db1bf29045ed",
        "series.csv": "3623b211102640c803dda016018302f27c8918e8bd2a814421a205de0112e248",
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
