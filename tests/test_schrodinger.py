import functools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spectralforge import intertwiner, schrodinger

from spectralforge.errors import CapacityError, InputError
from spectralforge.fockspace import dense_within_cap
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
    wide = sp.csr_array((1, grid.size))
    with pytest.raises(CapacityError, match="matrix dimension 9216 exceeds cap"):
        dense_within_cap(wide)
    monkeypatch.setenv("SPECTRAL_FORGE_CAP", "10000")
    assert dense_within_cap(wide).shape == (1, 9216)
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


@pytest.mark.parametrize("m", [300, 299, 12],
                         ids=["whole_spectrum", "all_but_one", "lowest_levels"])
def test_low_spectrum_1d_matches_dense_eigvalsh(m, monkeypatch):
    grid = GridSpec(1, 10.0, 300)
    H = assemble_sparse(grid, potential("harmonic", grid))
    ref = np.linalg.eigvalsh(H.toarray())[:m]

    def no_dense(*args, **kwargs):
        raise AssertionError("a tridiagonal H needs neither the dense solver nor Lanczos")

    selects, solve = [], intertwiner.eigh_tridiagonal
    monkeypatch.setattr(intertwiner, "eigh_tridiagonal",
                        lambda *args, **kwargs: selects.append(kwargs.get("select", "a"))
                        or solve(*args, **kwargs))
    for module, name in ((intertwiner, "eigendecompose"), (np.linalg, "eigvalsh"),
                         (np.linalg, "eigh"), (spla, "eigsh")):
        monkeypatch.setattr(module, name, no_dense)
    w = low_spectrum(H, m)
    assert w.shape == (m,)
    assert np.abs(w - ref).max() <= 1e-12 * np.abs(ref).max()
    # bisection only below dim/16 levels, where it costs less than MRRR for all
    assert selects == ["a" if m >= 300 / 16 else "i"]


def test_low_spectrum_complex_hermitian_tridiagonal():
    rng = np.random.default_rng(6)
    e = rng.normal(size=39) + 1j * rng.normal(size=39)
    H = sp.diags([e.conj(), rng.normal(size=40), e], [-1, 0, 1], format="csr")
    ref = np.linalg.eigvalsh(H.toarray())
    assert np.abs(low_spectrum(H, 40) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_low_spectrum_split_H_makes_no_block_dense():
    # values alone never split H: a chain cut by a zero hopping into two
    # blocks of 100, and two disconnected 2-D grids of 256, each block above the cap
    rng = np.random.default_rng(8)
    e = rng.uniform(0.5, 1.5, 199)
    e[99] = 0.0
    chain = sp.diags([e, rng.normal(size=200), e], [-1, 0, 1], format="csr")
    grid = GridSpec(2, 6.0, 16)
    grids = sp.block_diag([assemble_sparse(grid, rng.normal(size=grid.size)) for _ in range(2)],
                          format="csr")
    # bisection, MRRR, then Lanczos
    for H, m, cap, rtol in ((chain, 5, 50, 1e-12), (chain, 200, 50, 1e-12), (grids, 5, 200, 1e-10)):
        ref = np.linalg.eigvalsh(H.toarray())
        assert np.abs(low_spectrum(H, m, cap=cap) - ref[:m]).max() <= rtol * np.abs(ref).max()


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


@pytest.mark.parametrize("entry, message", [(5.0, "not Hermitian"), (np.nan, "not finite"),
                                            (np.inf, "not finite")],
                         ids=["non_symmetric", "nan", "inf"])
def test_low_spectrum_refuses_bad_input(entry, message):
    # a tridiagonal 1-D grid and a 2-D grid solved by Lanczos
    for grid, m in ((GridSpec(1, 5.0, 16), 4), (GridSpec(2, 5.0, 16), 4)):
        H = assemble_sparse(grid, potential("harmonic", grid)).tolil()
        if np.isfinite(entry):
            H[3, 4] = entry  # H[4, 3] stays -1/h^2
        else:
            H[3, 3] = entry
        with pytest.raises(InputError, match=message):
            low_spectrum(H.tocsr(), m)


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


def _blocks_of(spec, M):
    grid = GridSpec(2, 8.0, M)
    return grid, schrodinger._blocks(grid, potential(spec, grid).reshape(M, M))


@pytest.mark.parametrize("M", [16, 17, 24, 25])
@pytest.mark.parametrize("spec", ["x2y2", "harmonic"])
def test_inertia_count_matches_dense_eigvalsh(spec, M):
    _, blocks = _blocks_of(spec, M)
    assert [name for name, _, _ in blocks] == ["A1", "B1", "B2", "A2", "E"]
    for name, H, _ in blocks:
        w = np.linalg.eigvalsh(H.toarray())
        # midpoints of gaps wider than rounding, and cutoffs 1e-9 either side of a level
        wide = np.flatnonzero(np.diff(w) > 1e-9 * np.abs(w).max())
        between = (0.5 * (w[wide] + w[wide + 1]))[:: max(1, wide.size // 7)]
        # harmonic's A1 and B1 share levels, so a cutoff near one is near both
        near = np.concatenate([w[:: max(1, w.size // 5)] * (1 + s * 1e-9) for s in (-1, 1)])
        for c in np.concatenate([between, near]):
            assert schrodinger._count_below(H, c) == np.count_nonzero(w < c), (name, c)


@pytest.mark.parametrize("M", [17, 25])
def test_blocks_with_multiplicity_are_the_whole_grid(M):
    grid, blocks = _blocks_of("x2y2", M)
    n_even, n_odd = M // 2 + 1, M // 2
    dims = {name: H.shape[0] for name, H, _ in blocks}
    assert dims == {"A1": n_even * (n_even + 1) // 2, "B1": n_even * (n_even - 1) // 2,
                    "A2": n_odd * (n_odd - 1) // 2, "B2": n_odd * (n_odd + 1) // 2,
                    "E": n_even * n_odd}
    parts = [np.linalg.eigvalsh(H.toarray()) for name, H, copies in blocks for _ in copies]
    ref = np.linalg.eigvalsh(assemble_sparse(grid, potential("x2y2", grid)).toarray())
    _assert_close(np.sort(np.concatenate(parts)), ref)


def _mirror_isometry(M, parity):
    """Columns (e_j + e_mirror(j)) or (e_j - e_mirror(j)), normalised, for the
    nodes j with x >= 0 in ascending order; an odd function has no centre column."""
    Q = (np.eye(M) + (1.0 if parity == "even" else -1.0) * np.eye(M)[::-1])[:, M // 2:]
    Q = Q[:, np.abs(Q).sum(axis=0) > 0]
    return Q / np.linalg.norm(Q, axis=0)


def _swap_columns(n, sign):
    """Columns e_ij + sign e_ji, normalised, i <= j (i < j for sign -1), on an n x n grid."""
    i, j = np.triu_indices(n, 0 if sign > 0 else 1)
    Q = np.zeros((n * n, i.size))
    Q[i * n + j, np.arange(i.size)] += 1.0
    Q[j * n + i, np.arange(i.size)] += sign
    return Q / np.linalg.norm(Q, axis=0)


def _grid_isometries(M, name):
    """The isometries onto the grid of each copy of the block ``name``, from the
    axis isometries, their kron and the swap x <-> y."""
    P = {p: _mirror_isometry(M, p) for p in ("even", "odd")}
    swap = {"A1": ("even", 1.0), "B1": ("even", -1.0), "B2": ("odd", 1.0), "A2": ("odd", -1.0)}
    if name in swap:
        p, sign = swap[name]
        return [np.kron(P[p], P[p]) @ _swap_columns(P[p].shape[1], sign)]
    if name == "E":
        Q = np.kron(P["even"], P["odd"])
        # its copy, the (odd, even) sector, is E's image under the swap of the axes
        return [Q, Q.reshape(M, M, -1).transpose(1, 0, 2).reshape(M * M, -1)]
    return [functools.reduce(np.kron, [P[p] for p in name.split(",")])]


@pytest.mark.parametrize("dimension, M, spec", [
    (1, 16, "harmonic"), (1, 17, "harmonic"), (2, 16, "x2y2"), (2, 17, "x2y2"), (2, 24, "quartic"),
])
def test_blocks_are_compressions_onto_an_orthonormal_basis(dimension, M, spec):
    """Each block is Q^T H Q for the isometry Q of its copy, and the copies'
    columns together are an orthonormal basis of the grid: the premise of the
    floor below every block's spectrum."""
    grid = GridSpec(dimension, 6.0 if spec == "quartic" else 8.0, M)
    if spec == "quartic":  # the CI's table: even in x and in y, but V != V^T
        x = grid.axis_nodes()
        V = ((x[:, None] ** 2) ** 2 + 0.5 * x[None, :] ** 2).ravel()
    else:
        V = potential(spec, grid)
    W = schrodinger._mirror_average(grid, V)
    H = assemble_sparse(grid, W.ravel()).toarray()
    columns = []
    for name, B, copies in schrodinger._blocks(grid, W):
        isometries = _grid_isometries(M, name)
        assert len(isometries) == len(copies)
        for Q in isometries:
            assert np.abs(B.toarray() - Q.T @ H @ Q).max() <= 1e-15 * np.abs(H).max(), name
        columns += isometries
    Q = np.hstack(columns)
    assert Q.shape == (grid.size, grid.size)
    assert np.abs(Q.T @ Q - np.eye(grid.size)).max() <= 1e-15


def test_mirror_symmetric_potential_without_swap_match_full_grid(monkeypatch):
    # the quartic table of the CI: V is even in x and in y, but V != V^T
    grid = GridSpec(2, 6.0, 24)
    x = grid.axis_nodes()
    V = ((x[:, None] ** 2) ** 2 + 0.5 * x[None, :] ** 2).ravel()
    ref = _full_grid_levels(grid, V, 12)
    calls = _counted_solves(monkeypatch)
    levels, sectors = grid_levels(grid, V, 12)
    _assert_close(levels, ref)
    assert list(sectors) == list(schrodinger.SECTORS) and sum(sectors.values()) == 12
    # the first block is (even, even), a quarter of the grid, asked for ceil(m / 2)
    assert calls[0] == (12 * 12, 6)


def _counted_solves(monkeypatch, blocks=()):
    """Record (dimension, m) of every solve, or (block name, m) for a matrix of ``blocks``."""
    calls = []
    solve = schrodinger.low_spectrum

    def counted(H, m, cap=None, **kwargs):
        names = [name for name, B, _ in blocks if B.shape == H.shape and abs(B - H).max() == 0]
        calls.append((names[0] if names else H.shape[0], m))
        return solve(H, m, cap, **kwargs)

    monkeypatch.setattr(schrodinger, "low_spectrum", counted)
    return calls


def _recorded_counts(monkeypatch, blocks, short=()):
    """Record (block name, count) of every inertia count; in the rounds ``short`` every
    block but A1 counts 0."""
    counts, cutoffs = [], []
    count = schrodinger._count_below

    def recorded(H, c):
        if c not in cutoffs:
            cutoffs.append(c)
        name = next(name for name, B, _ in blocks if B.shape == H.shape and abs(B - H).max() == 0)
        n = count(H, c)
        counts.append((name, 0 if len(cutoffs) - 1 in short and name != "A1" else n))
        return counts[-1][1]

    monkeypatch.setattr(schrodinger, "_count_below", recorded)
    return counts, cutoffs


def test_x2y2_solves_each_block_for_its_count(monkeypatch):
    grid = GridSpec(2, 8.0, 64)
    V = potential("x2y2", grid)
    ref = _full_grid_levels(grid, V, 20)
    blocks = schrodinger._blocks(grid, V.reshape(64, 64))
    counts, cutoffs = _recorded_counts(monkeypatch, blocks)
    calls = _counted_solves(monkeypatch, blocks)
    levels, sectors = grid_levels(grid, V, 20)
    _assert_close(levels, ref)
    # A1 is 32 * 33 / 2 = 528 of the 4096 nodes: k1 = ceil(2 * 20 * 528 / 4096) = 6
    assert calls[0] == ("A1", 6)
    assert len(cutoffs) == 1 and [name for name, _ in counts] == ["A1", "B1", "B2", "A2", "E"]
    # A1 is solved again only if its count exceeds k1; every other block once,
    # for exactly its count
    assert calls[1:] == [(name, n) for name, n in counts if n and (name, n) != ("A1", 6)]
    assert sum(n * (2 if name == "E" else 1) for name, n in counts) >= 20
    assert list(sectors) == list(schrodinger.SECTORS) and sum(sectors.values()) == 20


def test_block_whose_count_is_zero_is_not_solved(monkeypatch):
    grid = GridSpec(2, 8.0, 64)
    V = potential("x2y2", grid)
    blocks = schrodinger._blocks(grid, V.reshape(64, 64))
    counts, cutoffs = _recorded_counts(monkeypatch, blocks)
    calls = _counted_solves(monkeypatch, blocks)
    grid_levels(grid, V, 3)
    final = dict(counts[-len(blocks):])
    assert 0 in final.values()
    assert {name for name, _ in calls} == {name for name, n in final.items() if n}


def test_sector_retry_when_counts_fall_short(monkeypatch):
    grid = GridSpec(2, 8.0, 33)
    V = potential("x2y2", grid)
    ref = _full_grid_levels(grid, V, 25)
    blocks = schrodinger._blocks(grid, V.reshape(33, 33))
    # in the first round every block but A1 counts nothing, so k1 doubles
    counts, cutoffs = _recorded_counts(monkeypatch, blocks, short=(0,))
    calls = _counted_solves(monkeypatch, blocks)
    levels, sectors = grid_levels(grid, V, 25)
    _assert_close(levels, ref)
    assert sum(sectors.values()) == 25
    # A1 is 17 * 18 / 2 = 153 of the 1089 nodes: k1 = ceil(2 * 25 * 153 / 1089) = 8
    assert calls[:2] == [("A1", 8), ("A1", 16)]
    assert len(cutoffs) == 2 and len(counts) == 2 * len(blocks)


def test_first_block_solved_again_when_its_count_exceeds_k1(monkeypatch):
    grid = GridSpec(2, 8.0, 40)
    V = potential("x2y2", grid)
    ref = _full_grid_levels(grid, V, 20)
    eigsh, calls = spla.eigsh, []

    def skips_once(A, k, **kwargs):
        calls.append(k)
        if len(calls) > 1:
            return eigsh(A, k=k, **kwargs)
        return np.delete(np.sort(eigsh(A, k=k + 1, **kwargs)), 1)  # k levels, one skipped

    monkeypatch.setattr(spla, "eigsh", skips_once)
    levels, _ = grid_levels(grid, V, 20)
    _assert_close(levels, ref)
    # A1 is 20 * 21 / 2 = 210 of the 1600 nodes: k1 = ceil(2 * 20 * 210 / 1600) = 6, and
    # the count below a cutoff above the skipping solve's top level is 7
    assert calls[:2] == [6, 7]


def test_zero_pivot_moves_the_cutoff(monkeypatch):
    assert schrodinger._count_below(sp.diags([1.0, 2.0, 3.0]).tocsr(), 2.0) is None
    grid = GridSpec(2, 8.0, 24)
    V = potential("x2y2", grid)
    ref = _full_grid_levels(grid, V, 10)
    cutoffs, count = [], schrodinger._count_below

    def pivot_once(H, c):
        cutoffs.append(c)
        return None if len(cutoffs) == 1 else count(H, c)

    monkeypatch.setattr(schrodinger, "_count_below", pivot_once)
    _assert_close(grid_levels(grid, V, 10)[0], ref)
    first, moved = list(dict.fromkeys(cutoffs))[:2]
    assert moved == first + schrodinger.PIVOT_RTOL * abs(first)


@pytest.mark.parametrize("skip", ["lowest", "second"])
def test_lanczos_that_misses_a_level_is_refused(monkeypatch, skip):
    eigsh = spla.eigsh

    def missing(A, k, **kwargs):
        if skip == "lowest":  # k - 1 levels
            return np.sort(eigsh(A, k=k, **kwargs))[1:]
        return np.delete(np.sort(eigsh(A, k=k + 1, **kwargs)), 1)  # k levels, one skipped

    monkeypatch.setattr(spla, "eigsh", missing)
    grid = GridSpec(2, 8.0, 40)
    with pytest.raises(np.linalg.LinAlgError, match="block A1"):
        grid_levels(grid, potential("x2y2", grid), 20)


def test_asymmetric_2d_potential_solves_full_grid(monkeypatch):
    grid = GridSpec(2, 8.0, 20)
    x = grid.axis_nodes()
    V = ((x[:, None] - 1.0) ** 2 + x[None, :] ** 2).ravel()
    calls = _counted_solves(monkeypatch)
    levels, sectors = grid_levels(grid, V, 6)
    assert sectors is None and calls == [(400, 6)]
    _assert_close(levels, _full_grid_levels(grid, V, 6))


def _skipping(solve, skip):
    """``solve(k)`` that gives k - 1 levels ("lowest") or k with the second skipped."""
    if skip == "lowest":
        return lambda k: solve(k)[1:]
    return lambda k: np.delete(solve(k + 1), 1)


@pytest.mark.parametrize("skip", ["lowest", "second"])
def test_lanczos_that_misses_a_level_of_a_whole_grid_is_refused(monkeypatch, skip):
    eigsh = spla.eigsh
    monkeypatch.setattr(spla, "eigsh", lambda A, k, **kwargs: _skipping(
        lambda j: np.sort(eigsh(A, k=j, **kwargs)), skip)(k))
    grid = GridSpec(2, 6.0, 24)
    x = grid.axis_nodes()
    # x^2 y^2 + ((x - 0.3)(y - 0.7))^2 / 2: no mirror, and no level within 1e-9 of another
    V = ((x[:, None] * x[None, :]) ** 2 + 0.5 * ((x[:, None] - 0.3) * (x[None, :] - 0.7)) ** 2)
    with pytest.raises(np.linalg.LinAlgError, match="block grid"):
        grid_levels(grid, V.ravel(), 12)


def _double_well(grid):
    x = grid.axis_nodes()
    return (x * x - 4.0) ** 2  # exactly even, with near-degenerate tunnelling pairs


@pytest.mark.parametrize("share", ["5", "half", "all"])
@pytest.mark.parametrize("M", [64, 65, 1000])
@pytest.mark.parametrize("spec", ["harmonic", "double_well"])
def test_1d_parity_levels_match_whole_grid(spec, M, share):
    # at M = 1000 the top harmonic levels come in pairs 4e-16 apart, wells at the walls
    grid = GridSpec(1, 10.0 if M == 1000 else 6.0, M)
    V = potential("harmonic", grid) if spec == "harmonic" else _double_well(grid)
    m = {"5": 5, "half": M // 2, "all": M}[share]
    levels, sectors = grid_levels(grid, V, m)
    _assert_close(levels, _full_grid_levels(grid, V, m))
    assert list(sectors) == list(schrodinger.PARITIES) and sum(sectors.values()) == m


def test_1d_grid_counts_each_parity_half_once(monkeypatch):
    grid = GridSpec(1, 10.0, 200)
    V = potential("harmonic", grid)
    ref = _full_grid_levels(grid, V, 10)
    blocks = schrodinger._blocks(grid, V)
    assert [(name, H.shape[0]) for name, H, _ in blocks] == [("even", 100), ("odd", 100)]
    counts, cutoffs = _recorded_counts(monkeypatch, blocks)
    calls = _counted_solves(monkeypatch, blocks)
    levels, sectors = grid_levels(grid, V, 10)
    _assert_close(levels, ref)
    # the even half is asked for min(100, 10, ceil(2 * 10 * 100 / 200)) = 10 levels,
    # the 19th level of the grid; the odd half holds 9 below it
    assert len(cutoffs) == 1 and counts == [("even", 10), ("odd", 9)]
    assert calls == [("even", 10), ("odd", 9)] and sectors == {"even": 5, "odd": 5}


@pytest.mark.parametrize("M", [200, 201])
def test_1d_grid_solved_whole_factors_no_count(monkeypatch, M):
    grid = GridSpec(1, 10.0, M)
    V = potential("harmonic", grid)
    ref = _full_grid_levels(grid, V, M)

    def no_count(H, c):
        raise AssertionError("a first block solved whole leaves nothing to count")

    monkeypatch.setattr(schrodinger, "_count_below", no_count)
    calls = _counted_solves(monkeypatch)
    levels, sectors = grid_levels(grid, V, M)
    _assert_close(levels, ref)
    assert calls == [((M + 1) // 2, (M + 1) // 2), (M // 2, M // 2)]
    assert sectors == {"even": (M + 1) // 2, "odd": M // 2}


def test_asymmetric_1d_potential_is_one_counted_block(monkeypatch):
    grid = GridSpec(1, 6.0, 101)
    V = (grid.axis_nodes() - 1.0) ** 2
    ref = _full_grid_levels(grid, V, 8)
    counts, count = [], schrodinger._count_below

    def recorded(H, c):
        counts.append((H.shape[0], count(H, c)))
        return counts[-1][1]

    monkeypatch.setattr(schrodinger, "_count_below", recorded)
    calls = _counted_solves(monkeypatch)
    levels, sectors = grid_levels(grid, V, 8)
    _assert_close(levels, ref)
    # a single block asks for m levels, not 2m, and its count proves them complete
    assert sectors is None and calls == [(101, 8)] and counts == [(101, 8)]


@pytest.mark.parametrize("skip", ["lowest", "second"])
def test_tridiagonal_solve_that_misses_a_level_is_refused(monkeypatch, skip):
    eigh = intertwiner.eigh_tridiagonal
    calls = []

    def missing(d, e, eigvals_only=False, select="a", select_range=None):
        assert eigvals_only  # levels are asked for, never vectors
        calls.append(select)
        if select == "a":  # the whole spectrum, of which low_spectrum keeps the lowest m
            w = eigh(d, e, eigvals_only=True)
            return w[1:] if skip == "lowest" else np.delete(w, 1)
        return _skipping(lambda k: eigh(d, e, eigvals_only=True, select="i",
                                        select_range=(0, k - 1)), skip)(select_range[1] + 1)

    monkeypatch.setattr(intertwiner, "eigh_tridiagonal", missing)
    grid = GridSpec(1, 10.0, 200)
    # the halves have 100 levels: 3 are bisected, 10 (at least 100/16) solved whole
    for m, select in ((3, "i"), (10, "a")):
        calls.clear()
        with pytest.raises(np.linalg.LinAlgError, match="block (even|odd)"):
            grid_levels(grid, potential("harmonic", grid), m)
        assert set(calls) == {select}


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

    monkeypatch.setattr(sp.csr_array, "toarray", no_dense)  # the dispatch reads H as CSR
    with pytest.raises(CapacityError, match="matrix dimension 256 exceeds cap 100"):
        low_spectrum(H, m, cap=100)
    monkeypatch.setenv("SPECTRAL_FORGE_CAP", "255")
    with pytest.raises(CapacityError, match="matrix dimension 256 exceeds cap 255"):
        low_spectrum(H, m)
    # fewer levels are solved by Lanczos, with no dense matrix
    assert low_spectrum(H, 10).size == 10


def _recorded_shifts(monkeypatch):
    """Record (window, Lanczos shift) of every sparse solve and every final cutoff."""
    windows, sigmas, cutoffs = [], [], []
    solve, eigsh, counts_below = schrodinger.low_spectrum, spla.eigsh, schrodinger._counts_below

    def windowed(H, m, cap=None, **kwargs):
        windows.append(kwargs["window"])
        return solve(H, m, cap, **kwargs)

    def shifted(A, k, **kwargs):
        sigmas.append(kwargs["sigma"])
        return eigsh(A, k=k, **kwargs)

    def recorded(blocks, c):
        counts, c = counts_below(blocks, c)
        cutoffs.append(c)
        return counts, c

    monkeypatch.setattr(schrodinger, "low_spectrum", windowed)
    monkeypatch.setattr(spla, "eigsh", shifted)
    monkeypatch.setattr(schrodinger, "_counts_below", recorded)
    return windows, sigmas, cutoffs


@pytest.mark.parametrize("spec, M", [("x2y2", 64), ("x2y2", 65), ("harmonic", 64)])
def test_counted_blocks_are_shifted_inside_their_window(monkeypatch, spec, M):
    grid = GridSpec(2, 8.0, M)
    V = potential(spec, grid)
    windows, sigmas, cutoffs = _recorded_shifts(monkeypatch)
    grid_levels(grid, V, 40)
    floor = V.min()
    assert len(windows) == len(sigmas) > 1
    probe, *counted = zip(windows, sigmas)
    # the first block is probed from below the floor, with no cutoff yet
    assert probe[0] == (floor, np.inf) and probe[1] < floor
    for (lo, c), sigma in counted:
        assert lo == floor and c == cutoffs[-1] and lo < sigma < c


def test_shifted_potential_shifts_every_level():
    grid = GridSpec(2, 8.0, 64)
    V = potential("x2y2", grid)
    levels, sectors = grid_levels(grid, V, 40)
    shifted, moved = grid_levels(grid, V - 50.0, 40)
    assert moved == sectors
    assert np.abs(shifted - (levels - 50.0)).max() <= 1e-12 * (50.0 + np.abs(levels).max())


def test_shift_that_is_exactly_a_level_is_moved(monkeypatch):
    grid = GridSpec(2, 8.0, 40)
    V = potential("x2y2", grid)
    ref = _full_grid_levels(grid, V, 20)
    splu, lanczos = spla.splu, [0]

    def singular_once(A, **kwargs):
        if "diag_pivot_thresh" not in kwargs:  # a Lanczos factorization, not a count
            lanczos[0] += 1
            if lanczos[0] == 2:  # the first solve at a window's midpoint
                raise RuntimeError("Factor is exactly singular")
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", singular_once)
    windows, sigmas, _ = _recorded_shifts(monkeypatch)
    levels, _ = grid_levels(grid, V, 20)
    _assert_close(levels, ref)
    lo, c = windows[1]
    middle = 0.5 * (lo + c)
    assert sigmas[1] == middle + schrodinger.PIVOT_RTOL * max(abs(middle), c - lo)


def test_windowed_solve_takes_fewer_lanczos_steps(monkeypatch):
    grid = GridSpec(2, 8.0, 64)
    V = potential("x2y2", grid)
    name, A1, _ = schrodinger._blocks(grid, V.reshape(64, 64))[0]
    assert name == "A1"
    top = low_spectrum(A1, 10)[-1]
    (n,), c = schrodinger._counts_below([(name, A1, ())], top * (1 + schrodinger.CUTOFF_RTOL))
    splu, solves = spla.splu, [0]

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, x):
            solves[0] += 1
            return self.lu.solve(x)

    monkeypatch.setattr(spla, "splu", lambda A, **kwargs: Counted(splu(A, **kwargs)))
    below = low_spectrum(A1, n)
    from_below, solves[0] = solves[0], 0
    middle = low_spectrum(A1, n, window=(V.min(), c))
    assert solves[0] <= 0.8 * from_below
    _assert_close(middle, below)
    assert middle[-1] < c


@pytest.mark.parametrize("table, message", [
    ("# no rows\n", "{path}: the potential table has no data rows"),
    ("0.0,1.0,2.0\n", "{path}: expected 2 columns, got 3"),
    ("0.0,1.0\n1.0,2.0\n", "{path}: expected 16 rows, got 2"),
], ids=["no_rows", "columns", "rows"])
def test_malformed_potential_table_raises_its_message(tmp_path, table, message):
    path = tmp_path / "potential.csv"
    path.write_text(table)
    with pytest.raises(InputError) as info:
        potential(f"csv:{path}", GridSpec(1, 8.5, 16))
    assert str(info.value) == message.format(path=path)
