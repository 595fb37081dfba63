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
    # both Dirichlet variants with a well on 24^2, above fv.DIRECT_MAX_UNKNOWNS[2] (GMRES)
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
    # the two-species model of the cli-generic benchmark workload on 24^2: above
    # fv.DIRECT_MAX_UNKNOWNS[2] and below fv.TRANSFORM_MIN_CELLS, so GMRES preconditioned by
    # the SuperLU factors of the species block diagonal
    "simulate-gmres": ("simulate", {
        "schema": 1, "kind": "generic", "grid": {"dims": [24, 24]},
        "stepper": {"dt": 1e-3, "t_end": 3e-3, "snapshot_every": 1},
        "model": {"m": 2, "delta": [1.0, 1.0], "ell": 1.0, "K": [[1.0, 1.0], [1.0, 1.0]],
                  "initial": [{"profile": "sine"}, {"profile": "sine", "amplitude": 0.8}],
                  "dirichlet": [0.0, 0.0]},
        "diagnostics": {"levels": {"count": 20}, "degiorgi": {"species": 1, "ell0": 0.3},
                        "bounds": {"lo": 0.0}}}),
    "convergence": ("convergence", {
        "schema": 1, "kind": "generic", "convergence": {"case": "heat", "levels": 2}}),
}

GOLDEN = {
    "simulate": {
        "bounds.csv": "5a11e2fe919201370dbe1743ed2fe107f469b7a5ec5eae1b861790f2fa064e87",
        "degiorgi.csv": "1336e2f5e930b4cf700caabc0fa73057f5c476d57ba09fea165e501fef341e06",
        "levels.csv": "e7b6ce79b127181e11fe5cdbb9630a09516ef937a671ec3925bce948f0f84313",
        "manifest.txt": "d93c29c0168233cdfb1fe9c5c6188cb4818add95c5196ad1d0e68b3919241e87",
        "series.csv": "1f3d05232432ec972fd40512d253fa00d2cc0c6a2b7b3f24a1ff87ebe3743e0b",
        "snapshots.csv": "2225cf3e099db1d3223e5f210f13da98078769ad7d4678dd5bf7dc75c2f1c169",
    },
    "keulegan": {
        "confined_series.csv": "cd9f9af61bef133a8d3c0680d97d25ece0c723a824538b1fd3bc817d29c08f3e",
        "confined_snapshots.csv": "af5139ed0af9e88f8ce6607a86e87f8ad8ba15f5f69bcfae902655e53ee8c8db",
        "confinement.csv": "7a090f6af75244b538f1a1e682b8c018d71176caab22f8ee55f4b5d02293a410",
        "interface_0000.csv": "14364c2aa34fca7571a251f94418344f3151154b360e1ea7db74c646a0e46819",
        "interface_0001.csv": "70030f42c8ce070f1ad51d38b69cef1f45132de073592bdb47929fb2a830e997",
        "manifest.txt": "320cc77371f710bb60bc01d216fe7fd49b106efb94a9b7ec5712f5d364cbe2d6",
        "series.csv": "db9bbd150568f6b57a6f87605d61eef495a1f87c832f96eba4e9aa8345784195",
    },
    "aquifer": {
        "confined_series.csv": "1002bf0f6f3e96155ac32e7d4c21eb53151b4c0bc90d76e75d67879139eac355",
        "confined_snapshots.csv": "94d058215825b8957d9a0d8ecd6e40e09aa563676cd576586ec5c5c9ceffef03",
        "confinement.csv": "7f425363b3d29a2f554ae918bd2e1a000a620eeb38ec6bca7d231b1f848d9746",
        "interface_0000.csv": "15a9dc0926b04ff23c5023f39f5c44bdad14a00a38c85b92644a634fcc1e7e64",
        "interface_0001.csv": "d2d262f4306a8c3a2682196e17922eb2094f3caa2febbcb9dec287089e50628a",
        "manifest.txt": "dc7c75b2196b437b47b5dc7a20890bf12df6bc4ebdd492faf3fe8f85b84022b9",
        "series.csv": "43025bb6c86867c4a8e492ef8905b3dc9c09bd83b0c015d11dc9ced0f78a9c87",
    },
    "simulate-transform": {
        "manifest.txt": "1890fa47491e7d81c1db641856691b7bf2e253aa9dac04217d6f3228546a718d",
        "series.csv": "1d140289182d88ffe6d485609d0da080f42e8d760893bfdc5129c611b0b942b4",
        "snapshots.csv": "7dec4bf4e638316e8203bfa65ede93920c9c810aad6168c4e2bd4ea8a28c0d05",
    },
    "simulate-gmres": {
        "bounds.csv": "23fc494ab55625ad9ea69bf096534bf0cc8698fab2b0a3ce2ab76d80cb4dd969",
        "degiorgi.csv": "5de79ccf31f53131dd75f0d2b84d00f1b1ad859caad2268a0f9a5ab9e1965aac",
        "levels.csv": "3bf1d643c9206aa041d66f98e59ae25bf977f5e5770232d768830c52c974f63b",
        "manifest.txt": "e5c1b4d61e26fc0839653501d047aaf4cf98aca0070a02e79614cd870713cae7",
        "series.csv": "64fe8b0df280a7d90a400dc6feb13859fe3162a9ed318ce58a72163e7b93bf64",
        "snapshots.csv": "4fa2153b4b80f146b38b4dc03893bb68c5e96bbf76ae94ac477a411cf480588d",
    },
    "convergence": {
        "convergence.csv": "71e83326a81fb7bd648be8ebbbc56ee26c644d20e912618ea011bde958704ea3",
        "manifest.txt": "0c440961574f74da54c627113ef430943f6be83e1f5997eed19d00d5acb9326d",
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
