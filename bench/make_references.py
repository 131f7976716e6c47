#!/usr/bin/env python3
"""Regenerate the benchmark's stored reference data in bench/data/.

    python3 bench/make_references.py

Takes about 15 s and needs mpmath.  The files it writes are committed, so a
benchmark run never pays for them:

- ``zetazero_100.txt``: imaginary parts of the first 100 nontrivial zeta
  zeros from ``mpmath.zetazero`` (an oracle independent of
  ``spectralforge.zeta``);
- ``x2y2_levels.json``: the lowest levels of the finite-difference
  -Laplacian + x^2 y^2 operator for the full and tiny ``spectra_sources``
  sizes.  The operator is assembled here, not by the package, and solved
  with scipy's shift-invert Lanczos at sigma = 0 (the potential and the
  Laplacian are non-negative, so every level is above the shift).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
HALF_WIDTH = 10.0  # the CLI's default box half-width


def x2y2_levels(points: int, levels: int) -> list[float]:
    h = 2.0 * HALF_WIDTH / (points + 1)
    x = -HALF_WIDTH + h * np.arange(1, points + 1)
    lap = sp.diags(
        [np.full(points - 1, -1.0), np.full(points, 2.0), np.full(points - 1, -1.0)],
        [-1, 0, 1],
    ) / h**2
    eye = sp.identity(points)
    H = sp.kron(lap, eye) + sp.kron(eye, lap) + sp.diags(np.outer(x**2, x**2).ravel())
    if points**2 <= 4096:
        w = np.linalg.eigvalsh(H.toarray())[:levels]
    else:
        w = spla.eigsh(H.tocsc(), k=levels, sigma=0.0, which="LM", tol=1e-14,
                       return_eigenvectors=False)
    return [float(v) for v in np.sort(w)]


def main() -> None:
    import mpmath

    mpmath.mp.dps = 30
    zeros = [mpmath.zetazero(k).imag for k in range(1, 101)]
    lines = ["# imaginary parts of the first 100 nontrivial zeta zeros",
             f"# source: mpmath {mpmath.__version__} zetazero(k), k = 1..100, 30 digits"]
    lines += [mpmath.nstr(z, 20) for z in zeros]
    (DATA_DIR / "zetazero_100.txt").write_text("\n".join(lines) + "\n")

    sizes = json.loads((BENCH_DIR / "workloads.json").read_text())
    refs = {
        "source": "bench/make_references.py: independent FD assembly, half-width "
                  f"{HALF_WIDTH}, scipy eigsh shift-invert at sigma = 0 "
                  "(dense eigvalsh for dim <= 4096)",
        "levels": {},
    }
    for key, sz in sizes["workloads"]["spectra_sources"]["sizes"].items():
        points, levels = sz["x2y2_points"], sz["x2y2_levels"]
        refs["levels"][f"{points}x{levels}"] = x2y2_levels(points, levels)
    (DATA_DIR / "x2y2_levels.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
