"""Finite-difference Schrödinger operators fed into the integrability pipeline.

Discretize -Laplacian + V on a box, extract the low spectrum, project onto
the low-energy eigenspace, and certify a commuting family for the projection.
The harmonic well reproduces the odd integers; the x^2 y^2 channel potential
has purely discrete low-lying levels despite its escape valleys.
"""

import numpy as np

from spectralforge import schrodinger

print("-- 1D harmonic well: -u'' + x^2 u, exact levels 1, 3, 5, 7 --")
for M in (200, 400, 800):
    grid = schrodinger.GridSpec(1, 10.0, M)
    H = schrodinger.assemble_sparse(grid, schrodinger.potential("harmonic", grid))
    w = schrodinger.low_spectrum(H, 4)
    err = np.abs(w - np.array([1.0, 3.0, 5.0, 7.0])).max()
    print(f"  M={M:4d}  h={grid.h:.4f}  levels={np.round(w, 5)}  max err={err:.2e}")

print("\n-- 2D channel potential V = x^2 y^2 --")
for M in (64, 96):
    grid = schrodinger.GridSpec(2, 8.0, M)
    # V is even in x and in y and equals its x <-> y swap, so the levels come
    # from the C4v blocks, each solved for the levels an inertia count gives
    w, sectors = schrodinger.grid_levels(grid, schrodinger.potential("x2y2", grid), 3)
    print(f"  M={M}  lowest levels: {np.round(w, 4)}  from sectors {sectors}")

print("\n-- integrability certificates for the low-energy projections --")
grid = schrodinger.GridSpec(1, 10.0, 400)
cert_1d = schrodinger.pipeline_integrate(grid, schrodinger.potential("harmonic", grid), 1, 20)
print(
    f"  1D harmonic, 20 levels: passed={cert_1d.passed}  "
    f"max commutator={cert_1d.max_hamiltonian_commutator:.2e}"
)
grid = schrodinger.GridSpec(2, 8.0, 64)
cert_2d = schrodinger.pipeline_integrate(grid, schrodinger.potential("x2y2", grid), 2, 30)
print(
    f"  2D x^2y^2, 30 levels:   passed={cert_2d.passed}  "
    f"max commutator={cert_2d.max_pairwise_commutator:.2e}"
)
