import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spectralforge import schrodinger

from spectralforge.errors import CapacityError, InputError
from spectralforge.fockspace import check_dimension
from spectralforge.schrodinger import (
    GridSpec,
    assemble_sparse,
    certify_levels,
    grid_levels,
    low_spectrum,
    pipeline_integrate,
    potential,
)


def test_fd_laplacian_structure_1d():
    grid = GridSpec(1, 8.5, 16)  # h = 1
    assert grid.h == pytest.approx(1.0)
    H = assemble_sparse(grid, np.zeros(16)).toarray()
    assert np.allclose(np.diag(H), 2.0)
    assert np.allclose(np.diag(H, 1), -1.0)
    assert np.allclose(np.diag(H, -1), -1.0)
    assert np.abs(H - np.diag(np.diag(H)) - np.diag(np.diag(H, 1), 1)
                  - np.diag(np.diag(H, -1), -1)).max() == 0.0


def test_fd_harmonic_shifts_diagonal():
    grid = GridSpec(1, 5.0, 20)
    free = assemble_sparse(grid, np.zeros(20)).toarray()
    harm = assemble_sparse(grid, potential("harmonic", grid)).toarray()
    assert np.allclose(harm - free, np.diag(grid.axis_nodes() ** 2))


def test_fd_kronecker_sum_sparsity_2d():
    grid = GridSpec(2, 8.0, 16)
    H = assemble_sparse(grid, potential("x2y2", grid))
    assert H.shape == (256, 256)
    # each row couples to at most 4 neighbors
    nnz_per_row = np.diff(H.tocsr().indptr)
    assert nnz_per_row.max() <= 5
    assert np.abs((H - H.T)).max() == 0.0


def test_fd_symmetry_exact():
    grid = GridSpec(2, 6.0, 20)
    H = assemble_sparse(grid, potential("harmonic", grid)).toarray()
    assert np.array_equal(H, H.T)


def test_dimension_cap(monkeypatch):
    grid = GridSpec(2, 8.0, 96)
    with pytest.raises(CapacityError, match="coarser"):
        check_dimension(grid.size)
    monkeypatch.setenv("SPECTRAL_FORGE_CAP", "10000")
    H = assemble_sparse(grid, potential("x2y2", grid))
    assert H.shape == (9216, 9216)


def test_free_particle_box_levels():
    # Dirichlet Laplacian on [0, pi] has levels k^2; our box is [-L, L]
    L = np.pi / 2
    grid = GridSpec(1, L, 400)
    H = assemble_sparse(grid, np.zeros(400)).toarray()
    w = low_spectrum(H, 2)
    assert np.allclose(w, [1.0, 4.0], atol=1e-4)


def test_harmonic_levels_and_h2_convergence():
    errors = []
    for M in (200, 400, 800):
        grid = GridSpec(1, 10.0, M)
        H = assemble_sparse(grid, potential("harmonic", grid))
        w = low_spectrum(H, 4)
        errors.append(np.abs(w - np.array([1.0, 3.0, 5.0, 7.0])))
    assert errors[-1].max() < 1e-2
    ratios = np.array(errors[0][:3]) / np.array(errors[1][:3])
    ratios2 = np.array(errors[1][:3]) / np.array(errors[2][:3])
    assert (ratios >= 3.5).all()
    assert (ratios2 >= 3.5).all()


def test_gershgorin_lower_bound():
    grid = GridSpec(1, 6.0, 64)
    V = potential("harmonic", grid)
    H = assemble_sparse(grid, V).toarray()
    w = low_spectrum(H, 1)
    assert w[0] >= V.min() - 1e-10


def test_quartic_cross_stable_under_refinement():
    g64, g96 = GridSpec(2, 8.0, 64), GridSpec(2, 8.0, 96)
    w64 = low_spectrum(assemble_sparse(g64, potential("x2y2", g64)), 1)
    w96 = low_spectrum(assemble_sparse(g96, potential("x2y2", g96)), 1)
    assert w64[0] > 0
    assert abs(w64[0] - w96[0]) / w96[0] < 0.05


def test_low_spectrum_dense_and_sparse_agree():
    # a dense H takes the sparse dispatch: tridiagonal in 1-D, Lanczos in 2-D
    for grid in (GridSpec(1, 10.0, 200), GridSpec(2, 8.0, 20)):
        H = assemble_sparse(grid, potential("harmonic", grid))
        assert np.array_equal(low_spectrum(H.toarray(), 6), low_spectrum(H, 6))


@pytest.mark.parametrize("m", [300, 12], ids=["whole_spectrum", "lowest_levels"])
def test_low_spectrum_1d_matches_dense_eigvalsh(m, monkeypatch):
    grid = GridSpec(1, 10.0, 300)
    H = assemble_sparse(grid, potential("harmonic", grid))
    ref = np.linalg.eigvalsh(H.toarray())[:m]

    def no_dense(*args, **kwargs):
        raise AssertionError("a tridiagonal H needs neither the dense solver nor Lanczos")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_dense)
    monkeypatch.setattr(spla, "eigsh", no_dense)
    w = low_spectrum(H, m)
    assert w.shape == (m,)
    assert np.abs(w - ref).max() <= 1e-12 * np.abs(ref).max()


def test_low_spectrum_complex_hermitian_tridiagonal():
    rng = np.random.default_rng(6)
    e = rng.normal(size=39) + 1j * rng.normal(size=39)
    H = sp.diags([e.conj(), rng.normal(size=40), e], [-1, 0, 1], format="csr")
    ref = np.linalg.eigvalsh(H.toarray())
    assert np.abs(low_spectrum(H, 40) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_low_spectrum_complex_hermitian_dense_lowest_levels():
    # a dense H takes the sparse dispatch, so a full complex one goes to Lanczos
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))
    H = X + X.conj().T
    ref = np.linalg.eigvalsh(H)
    for m in (5, 59):  # Lanczos, then the dense solver ARPACK would fall back to
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = low_spectrum(H, m)
        assert np.abs(w - ref[:m]).max() <= 1e-10 * np.abs(ref).max()


def test_low_spectrum_range_check():
    grid = GridSpec(1, 5.0, 16)
    H = assemble_sparse(grid, potential("harmonic", grid)).toarray()
    with pytest.raises(InputError):
        low_spectrum(H, 17)


def test_pipeline_harmonic_certificate():
    grid = GridSpec(1, 10.0, 400)
    cert = pipeline_integrate(grid, potential("harmonic", grid), 1, 20)
    assert cert.passed


def test_pipeline_quartic_cross_certificate():
    grid = GridSpec(2, 8.0, 64)
    cert = pipeline_integrate(grid, potential("x2y2", grid), 2, 30)
    assert cert.passed
    assert cert.max_pairwise_commutator < 1e-8
    assert cert.max_hamiltonian_commutator < 1e-8


def test_pipeline_trivial_single_level():
    grid = GridSpec(1, 10.0, 100)
    cert = pipeline_integrate(grid, potential("harmonic", grid), 1, 1)
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
        potential("x2y2", GridSpec(1, 1.0, 16))


@pytest.mark.parametrize("M", [16, 17, 64, 65])
def test_potential_formulas_bit_identical(M):
    line = GridSpec(1, 7.0, M)
    x = line.axis_nodes()
    assert np.array_equal(potential("harmonic", line), x**2)
    grid = GridSpec(2, 7.0, M)
    assert np.array_equal(potential("harmonic", grid),
                          (x[:, None] ** 2 + x[None, :] ** 2).ravel())
    assert np.array_equal(potential("x2y2", grid), ((x[:, None] ** 2) * (x[None, :] ** 2)).ravel())


def test_unknown_potential_spec_names_the_specs():
    with pytest.raises(InputError, match="use harmonic, x2y2 or csv:PATH"):
        potential("quartic_cross", GridSpec(2, 8.0, 16))


@pytest.mark.parametrize("V", [np.zeros(255), np.zeros((16, 16)), np.full(256, np.nan)],
                         ids=["short", "square", "nan"])
def test_potential_array_is_one_finite_value_per_node(V):
    grid = GridSpec(2, 8.0, 16)
    with pytest.raises(InputError):
        assemble_sparse(grid, V)
    with pytest.raises(InputError):
        grid_levels(grid, V, 3)


def test_potential_csv_nan_node_does_not_match(tmp_path):
    grid = GridSpec(1, 5.0, 16)
    x = grid.axis_nodes()
    path = tmp_path / "pot.csv"
    path.write_text("nan,0.0\n" + "\n".join(f"{xi},{xi**2}" for xi in x[1:]) + "\n")
    with pytest.raises(InputError, match="do not match"):
        potential(f"csv:{path}", grid)


def test_potential_csv_roundtrip(tmp_path):
    grid = GridSpec(1, 5.0, 16)
    x = grid.axis_nodes()
    path = tmp_path / "pot.csv"
    path.write_text("# x,V\n" + "\n".join(f"{xi},{xi**2}" for xi in x) + "\n")
    assert np.allclose(potential(f"csv:{path}", grid), x**2)


def test_potential_csv_node_mismatch(tmp_path):
    grid = GridSpec(1, 5.0, 16)
    x = grid.axis_nodes() + 0.1
    path = tmp_path / "pot.csv"
    path.write_text("\n".join(f"{xi},{xi**2}" for xi in x) + "\n")
    with pytest.raises(InputError, match="do not match"):
        potential(f"csv:{path}", grid)


def test_certify_levels_matches_pipeline():
    grid = GridSpec(1, 10.0, 200)
    V = potential("harmonic", grid)
    levels = low_spectrum(assemble_sparse(grid, V), 15)
    cert = certify_levels(levels, 2)
    assert cert.passed
    assert cert.to_dict() == pipeline_integrate(grid, V, 2, 15).to_dict()


def _full_grid_levels(grid, V, m):
    return low_spectrum(assemble_sparse(grid, V), m)


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("M", [64, 65])
@pytest.mark.parametrize("spec", ["x2y2", "harmonic"])
def test_sector_levels_match_full_grid(spec, M):
    grid = GridSpec(2, 8.0, M)
    V = potential(spec, grid)
    levels, sectors = grid_levels(grid, V, 30)
    _assert_close(levels, _full_grid_levels(grid, V, 30))
    assert list(sectors) == list(schrodinger.SECTORS)
    assert sum(sectors.values()) == 30
    # the swap x <-> y makes (even, odd) and (odd, even) one spectrum
    assert abs(sectors["even,odd"] - sectors["odd,even"]) <= 1


@pytest.mark.parametrize("M", [16, 17, 24, 25])
def test_axis_nodes_exactly_antisymmetric(M):
    grid = GridSpec(2, 10.0, M)
    x = grid.axis_nodes()
    assert np.array_equal(x, -x[::-1])
    assert (x[M // 2] == 0.0) == (M % 2 == 1)
    assert np.abs(x - (-grid.L + grid.h * np.arange(1, M + 1))).max() <= 1e-13 * grid.h
    V = potential("x2y2", grid).reshape(M, M)
    assert np.array_equal(V, V[::-1]) and np.array_equal(V, V[:, ::-1])
    assert np.array_equal(V, V.T)


def _counted_solves(monkeypatch):
    calls = []
    solve = schrodinger.low_spectrum

    def counted(H, m, cap=None):
        calls.append((H.shape[0], m))
        return solve(H, m, cap)

    monkeypatch.setattr(schrodinger, "low_spectrum", counted)
    return calls


def test_x2y2_solves_three_quarter_grid_sectors(monkeypatch):
    calls = _counted_solves(monkeypatch)
    grid = GridSpec(2, 8.0, 64)
    grid_levels(grid, potential("x2y2", grid), 20)
    assert calls == [(32 * 32, 10)] * 3


def test_sector_retry_until_complete(monkeypatch):
    grid = GridSpec(2, 8.0, 33)
    V = potential("x2y2", grid)
    ref = _full_grid_levels(grid, V, 25)
    calls = _counted_solves(monkeypatch)
    # every sector starts from one level and doubles until it is complete
    monkeypatch.setattr(schrodinger, "_FIRST_SECTOR_SHARE", 10**6)
    levels, sectors = grid_levels(grid, V, 25)
    _assert_close(levels, ref)
    assert sum(sectors.values()) == 25
    assert len(calls) > 3 and [m for _, m in calls[:3]] == [1, 1, 1]


def test_asymmetric_2d_potential_solves_full_grid(monkeypatch):
    grid = GridSpec(2, 8.0, 20)
    x = grid.axis_nodes()
    V = ((x[:, None] - 1.0) ** 2 + x[None, :] ** 2).ravel()
    calls = _counted_solves(monkeypatch)
    levels, sectors = grid_levels(grid, V, 6)
    assert sectors is None and calls == [(400, 6)]
    _assert_close(levels, _full_grid_levels(grid, V, 6))


def test_grid_levels_range_check():
    grid = GridSpec(2, 8.0, 16)
    with pytest.raises(InputError, match="out of range 1..256"):
        grid_levels(grid, potential("harmonic", grid), 257)
    with pytest.raises(InputError, match="out of range"):
        grid_levels(grid, potential("harmonic", grid), 0)


@pytest.mark.parametrize("m", [255, 256])
def test_low_spectrum_caps_the_dense_solve_before_making_it(monkeypatch, m):
    grid = GridSpec(2, 8.0, 16)
    H = assemble_sparse(grid, potential("harmonic", grid))

    def no_dense(self, *args, **kwargs):
        raise AssertionError("H was made dense before the cap was checked")

    monkeypatch.setattr(sp.csr_matrix, "toarray", no_dense)
    with pytest.raises(CapacityError, match="matrix dimension 256 exceeds cap 100"):
        low_spectrum(H, m, cap=100)
    monkeypatch.setenv("SPECTRAL_FORGE_CAP", "255")
    with pytest.raises(CapacityError, match="matrix dimension 256 exceeds cap 255"):
        low_spectrum(H, m)
    # fewer levels are solved by Lanczos, with no dense matrix
    assert low_spectrum(H, 10).size == 10
