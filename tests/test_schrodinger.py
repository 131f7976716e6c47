import numpy as np
import pytest

from spectralforge.errors import CapacityError, InputError
from spectralforge.schrodinger import (
    GridSpec,
    PotentialSpec,
    assemble_sparse,
    build_fd_hamiltonian,
    certify_levels,
    load_potential_csv,
    low_spectrum,
    pipeline_integrate,
)


def test_fd_laplacian_structure_1d():
    grid = GridSpec(1, 8.5, 16)  # h = 1
    assert grid.h == pytest.approx(1.0)
    H = build_fd_hamiltonian(grid, PotentialSpec.from_table(np.zeros(16)))
    assert np.allclose(np.diag(H), 2.0)
    assert np.allclose(np.diag(H, 1), -1.0)
    assert np.allclose(np.diag(H, -1), -1.0)
    assert np.abs(H - np.diag(np.diag(H)) - np.diag(np.diag(H, 1), 1)
                  - np.diag(np.diag(H, -1), -1)).max() == 0.0


def test_fd_harmonic_shifts_diagonal():
    grid = GridSpec(1, 5.0, 20)
    free = build_fd_hamiltonian(grid, PotentialSpec.from_table(np.zeros(20)))
    harm = build_fd_hamiltonian(grid, PotentialSpec.harmonic())
    assert np.allclose(harm - free, np.diag(grid.axis_nodes() ** 2))


def test_fd_kronecker_sum_sparsity_2d():
    grid = GridSpec(2, 8.0, 16)
    H = assemble_sparse(grid, PotentialSpec.quartic_cross())
    assert H.shape == (256, 256)
    # each row couples to at most 4 neighbors
    nnz_per_row = np.diff(H.tocsr().indptr)
    assert nnz_per_row.max() <= 5
    assert np.abs((H - H.T)).max() == 0.0


def test_fd_symmetry_exact():
    grid = GridSpec(2, 6.0, 20)
    H = build_fd_hamiltonian(grid, PotentialSpec.harmonic())
    assert np.array_equal(H, H.T)


def test_dimension_cap(monkeypatch):
    grid = GridSpec(2, 8.0, 96)
    with pytest.raises(CapacityError, match="coarser"):
        build_fd_hamiltonian(grid, PotentialSpec.quartic_cross())
    monkeypatch.setenv("SPECTRAL_FORGE_CAP", "10000")
    H = assemble_sparse(grid, PotentialSpec.quartic_cross())
    assert H.shape == (9216, 9216)


def test_free_particle_box_levels():
    # Dirichlet Laplacian on [0, pi] has levels k^2; our box is [-L, L]
    L = np.pi / 2
    grid = GridSpec(1, L, 400)
    H = build_fd_hamiltonian(grid, PotentialSpec.from_table(np.zeros(400)))
    w = low_spectrum(H, 2)
    assert np.allclose(w, [1.0, 4.0], atol=1e-4)


def test_harmonic_levels_and_h2_convergence():
    errors = []
    for M in (200, 400, 800):
        H = assemble_sparse(GridSpec(1, 10.0, M), PotentialSpec.harmonic())
        w = low_spectrum(H, 4)
        errors.append(np.abs(w - np.array([1.0, 3.0, 5.0, 7.0])))
    assert errors[-1].max() < 1e-2
    ratios = np.array(errors[0][:3]) / np.array(errors[1][:3])
    ratios2 = np.array(errors[1][:3]) / np.array(errors[2][:3])
    assert (ratios >= 3.5).all()
    assert (ratios2 >= 3.5).all()


def test_gershgorin_lower_bound():
    grid = GridSpec(1, 6.0, 64)
    pot = PotentialSpec.harmonic()
    H = build_fd_hamiltonian(grid, pot)
    w = low_spectrum(H, 1)
    assert w[0] >= pot.on_grid(grid).min() - 1e-10


def test_quartic_cross_stable_under_refinement():
    w64 = low_spectrum(
        assemble_sparse(GridSpec(2, 8.0, 64), PotentialSpec.quartic_cross()), 1
    )
    w96 = low_spectrum(
        assemble_sparse(GridSpec(2, 8.0, 96), PotentialSpec.quartic_cross()), 1
    )
    assert w64[0] > 0
    assert abs(w64[0] - w96[0]) / w96[0] < 0.05


def test_low_spectrum_dense_and_sparse_agree():
    grid = GridSpec(1, 10.0, 200)
    pot = PotentialSpec.harmonic()
    w_dense = low_spectrum(build_fd_hamiltonian(grid, pot), 6)
    w_sparse = low_spectrum(assemble_sparse(grid, pot), 6)
    assert np.allclose(w_dense, w_sparse, atol=1e-9)


def test_low_spectrum_range_check():
    H = build_fd_hamiltonian(GridSpec(1, 5.0, 16), PotentialSpec.harmonic())
    with pytest.raises(InputError):
        low_spectrum(H, 17)


def test_pipeline_harmonic_certificate():
    cert = pipeline_integrate(GridSpec(1, 10.0, 400), PotentialSpec.harmonic(), 1, 20)
    assert cert.passed
    assert np.array_equal(cert.joint_spectrum[:, 0], np.arange(20))


def test_pipeline_quartic_cross_certificate():
    cert = pipeline_integrate(GridSpec(2, 8.0, 64), PotentialSpec.quartic_cross(), 2, 30)
    assert cert.passed
    assert cert.max_pairwise_commutator < 1e-8
    assert cert.max_hamiltonian_commutator < 1e-8


def test_pipeline_trivial_single_level():
    cert = pipeline_integrate(GridSpec(1, 10.0, 100), PotentialSpec.harmonic(), 1, 1)
    assert cert.passed
    assert cert.dim == 1


def test_grid_and_potential_validation():
    with pytest.raises(InputError):
        GridSpec(3, 1.0, 32)
    with pytest.raises(InputError):
        GridSpec(1, -1.0, 32)
    with pytest.raises(InputError):
        GridSpec(1, 1.0, 8)
    with pytest.raises(InputError):
        PotentialSpec.quartic_cross().on_grid(GridSpec(1, 1.0, 16))


def test_potential_csv_roundtrip(tmp_path):
    grid = GridSpec(1, 5.0, 16)
    x = grid.axis_nodes()
    path = tmp_path / "pot.csv"
    path.write_text("# x,V\n" + "\n".join(f"{xi},{xi**2}" for xi in x) + "\n")
    pot = load_potential_csv(path, grid)
    assert np.allclose(pot.on_grid(grid), x**2)


def test_potential_csv_node_mismatch(tmp_path):
    grid = GridSpec(1, 5.0, 16)
    x = grid.axis_nodes() + 0.1
    path = tmp_path / "pot.csv"
    path.write_text("\n".join(f"{xi},{xi**2}" for xi in x) + "\n")
    with pytest.raises(InputError, match="do not match"):
        load_potential_csv(path, grid)


def test_certify_levels_matches_pipeline():
    grid, pot = GridSpec(1, 10.0, 200), PotentialSpec.harmonic()
    levels = low_spectrum(assemble_sparse(grid, pot), 15)
    cert = certify_levels(levels, 2)
    assert cert.passed
    assert cert.to_dict() == pipeline_integrate(grid, pot, 2, 15).to_dict()
