"""Write a fixed set of seeded CLI outputs and print one SHA-256 per file.

    python tests/seeded_outputs.py OUT_DIR > hashes.txt

Run in two checkouts, ``diff`` of the two listings names the outputs that differ, and
``cmp`` or numpy on the two OUT_DIRs tells by how much.  Each command runs the CLI of the
checkout that holds this script, in a subprocess of its own.  The input tensors and the image
come from that checkout's ``trpca.synth`` and from ``tests/``, and are listed too, so a change
there shows as a changed input.  The wall time that ``table1`` prints (``time=...``) is dropped
from the stdout files.  pytest does not collect this file: its name does not start with
``test_``.  The whole set takes about 20 s on a 2-vCPU Xeon.

The set: Table-1 rows at 40x40x20, 30x30x10 (with ``mu0 = 0.001``) and 100^3 (both starts,
and at m = 200,000, the instance of acceptance criterion 2); phase grids at 15x15x4 and
40x40x20; ``solve`` of 40x40x20, 30x70x7 and 100^3 instances with both starts and of a narrow
8x8x2000 one; ``denoise --baseline`` of a 64x64 colour image; and ``tsvd --json`` of the
40x40x20 instance and of a random 7x6x6 tensor, the latter also as text.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from random_tensors import save_netpbm, save_tensor  # noqa: E402
from test_acceptance import make_test_image  # noqa: E402
from trpca import imaging, synth  # noqa: E402
from trpca.tensor_core import TensorDims  # noqa: E402


def instance(n1, n2, n3, seed):
    """X = L0 + E0 with tubal rank a tenth of min(n1, n2) and a tenth of the entries corrupted."""
    spec = synth.TrialSpec(TensorDims(n1, n2, n3), max(1, min(n1, n2) // 10), "uniform_m",
                           n1 * n2 * n3 // 10, seed)
    L0, E0 = synth.make_instance(spec)
    return L0 + E0


def main(out: Path) -> None:
    out.mkdir(parents=True)  # fresh: denoise appends to its report
    (out / "mu0.cfg").write_text("mu0 = 0.001\n")
    tensors = {
        "x40": instance(40, 40, 20, 1),
        "x30x70": instance(30, 70, 7, 2),
        "x100": instance(100, 100, 100, 3),
        "x8x2000": instance(8, 8, 2000, 4),
        "r7x6x6": np.random.default_rng(5).normal(size=(7, 6, 6)),
    }
    for name, X in tensors.items():
        save_tensor(out / f"{name}.tns3", X)
    image = imaging.tensor_to_stack(make_test_image(3), color=True)
    save_netpbm(out / "img.ppm", image)

    commands = {
        "table1_40": ["table1", "--n", "40", "--n3", "20", "--seeds", "2", "--seed", "5"],
        "table1_30_mu0": ["table1", "--n", "30", "--n3", "10", "--seeds", "2", "--seed", "6",
                          "--config", "mu0.cfg"],
        "table1_100": ["table1", "--n", "100", "--n3", "100", "--seeds", "1"],
        "table1_100_mu0": ["table1", "--n", "100", "--n3", "100", "--seeds", "1", "--config",
                           "mu0.cfg"],
        "table1_100_m200k": ["table1", "--n", "100", "--n3", "100", "--m-frac", "0.2",
                             "--seeds", "1"],
        "phase_15": ["phase", "--n", "15", "--n3", "4", "--grid", "3x3", "--trials", "2",
                     "--seed", "1"],
        "phase_40": ["phase", "--n", "40", "--n3", "20", "--grid", "4x4", "--trials", "1",
                     "--seed", "2024"],
        "denoise": ["denoise", "img.ppm", "--baseline", "--seed", "3", "--out-dir", "denoised"],
    }
    for name in ("x40", "x30x70", "x100", "x8x2000"):
        for start, config in (("", []), ("_mu0", ["--config", "mu0.cfg"])):
            if name == "x8x2000" and start:
                continue
            tag = f"solve_{name}{start}"
            commands[tag] = ["solve", f"{name}.tns3", "--out-L", f"{tag}_L.tns3",
                             "--out-E", f"{tag}_E.tns3", *config]
    for name in ("x40", "r7x6x6"):
        commands[f"tsvd_{name}"] = ["tsvd", f"{name}.tns3", "--json"]
        commands[f"tsvd_{name}_tol"] = ["tsvd", f"{name}.tns3", "--json", "--tol", "0.3"]
    commands["tsvd_r7x6x6_text"] = ["tsvd", "r7x6x6.tns3", "--tol", "0.3"]

    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    for tag, argv in commands.items():
        if argv[0] in ("table1", "phase"):
            argv = argv + ["--out", f"{tag}.csv"]
        run = subprocess.run([sys.executable, "-m", "trpca.cli", *argv], cwd=out, env=env,
                             capture_output=True, text=True, check=True)
        (out / f"{tag}.stdout").write_text(re.sub(r" time=\S+", "", run.stdout))

    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out)}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    main(Path(sys.argv[1]))
