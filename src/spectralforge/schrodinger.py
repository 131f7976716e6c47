"""Finite-difference Schrödinger operators -Δ + V on a Dirichlet box.

Second-order central differences on a uniform grid over [-L, L]^dim with
homogeneous Dirichlet walls.  Confining potentials keep the low spectrum
discrete and box-truncation error negligible for the retained levels.
The grid is exactly mirror-symmetric, so a 2-D potential that is even in
x and in y is solved one parity sector at a time (``grid_levels``).
``low_spectrum`` takes every H as CSR and picks its solver from the
structure and the level count alone; the dimension cap applies only to
a matrix it makes dense.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh_tridiagonal

from .errors import InputError
from .fockspace import dense_within_cap, sparse_diagonal
from .intertwiner import IntegrabilityCertificate, certify


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid on [-L, L]^dimension with M interior points per axis."""

    dimension: int
    L: float
    M: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise InputError("grid dimension must be 1 or 2")
        if self.M < 16:
            raise InputError("need at least 16 points per axis")
        if not self.L > 0:
            raise InputError("box half-width must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.M + 1)

    @property
    def size(self) -> int:
        return self.M**self.dimension

    def axis_nodes(self) -> np.ndarray:
        """The M interior nodes -L + h j, j = 1..M, written about the centre so
        that they are exactly antisymmetric, with x = 0 exactly when M is odd."""
        return self.h * (np.arange(1, self.M + 1) - (self.M + 1) / 2)


@dataclass(frozen=True)
class PotentialSpec:
    """Confining potential: harmonic sum of squares, x^2 y^2, or a grid table."""

    variant: str
    table: np.ndarray | None = None

    @classmethod
    def harmonic(cls) -> "PotentialSpec":
        return cls(variant="harmonic")

    @classmethod
    def quartic_cross(cls) -> "PotentialSpec":
        return cls(variant="quartic_cross")

    @classmethod
    def from_table(cls, values) -> "PotentialSpec":
        return cls(variant="table", table=np.asarray(values, dtype=float).ravel())

    def on_grid(self, grid: GridSpec) -> np.ndarray:
        x = grid.axis_nodes()
        if self.variant == "harmonic":
            if grid.dimension == 1:
                v = x**2
            else:
                v = (x[:, None] ** 2 + x[None, :] ** 2).ravel()
        elif self.variant == "quartic_cross":
            if grid.dimension != 2:
                raise InputError("the x^2 y^2 potential requires a 2-D grid")
            v = ((x[:, None] ** 2) * (x[None, :] ** 2)).ravel()
        elif self.variant == "table":
            if self.table is None or self.table.size != grid.size:
                raise InputError(
                    f"potential table must have {grid.size} entries for this grid"
                )
            v = self.table
        else:
            raise InputError(f"unknown potential variant {self.variant!r}")
        if not np.isfinite(v).all():
            raise InputError("potential is not finite on the grid")
        return v


def load_potential_csv(path, grid: GridSpec) -> PotentialSpec:
    """Read a (x[,y],V) table whose rows match the grid nodes in row-major order."""
    try:
        with warnings.catch_warnings():
            # numpy warns of a table with no data rows, which is refused below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")
    if data.size == 0:
        raise InputError(f"{path}: the potential table has no data rows")
    expected_cols = grid.dimension + 1
    if data.shape[1] != expected_cols:
        raise InputError(
            f"{path}: expected {expected_cols} columns, got {data.shape[1]}"
        )
    if data.shape[0] != grid.size:
        raise InputError(f"{path}: expected {grid.size} rows, got {data.shape[0]}")
    x = grid.axis_nodes()
    if grid.dimension == 1:
        nodes = x[:, None]
    else:
        nodes = np.stack(
            [np.repeat(x, grid.M), np.tile(x, grid.M)], axis=1
        )
    if np.abs(data[:, :-1] - nodes).max() > 1e-9 * grid.h + 1e-12:
        raise InputError(f"{path}: node coordinates do not match the grid")
    return PotentialSpec.from_table(data[:, -1])


def _laplacian_1d(M: int, h: float) -> sp.csr_matrix:
    main = np.full(M, 2.0 / h**2)
    off = np.full(M - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _parity_laplacian(M: int, h: float, odd: bool) -> tuple[sp.csr_matrix, np.ndarray]:
    """The 1-D Laplacian on the even or odd functions of the symmetric M-node grid.

    Its basis is orthonormal: the centre node when M is odd, and the
    normalised mirror pairs (e_j +- e_mirror(j)) / sqrt(2).  Returns the
    matrix and the indices of the nodes x >= 0 that label its basis.
    """
    # an odd function vanishes on the centre node of an odd grid
    nodes = np.arange(M // 2 + (M % 2 == 1 and odd), M)
    main = np.full(nodes.size, 2.0)
    off = np.full(nodes.size - 1, -1.0)
    if M % 2 == 0:
        # the mirror partner of the first node is its neighbour across x = 0
        main[0] = 3.0 if odd else 1.0
    elif not odd:
        # the centre node couples to the normalised pair of its two neighbours
        off[0] = -np.sqrt(2.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2, nodes


def _kron_sum(Tx, Ty, v) -> sp.csr_matrix:
    """Tx (x) I + I (x) Ty + diag(v): -Laplacian + V on a product of two axes."""
    ex = sp.identity(Tx.shape[0], format="csr")
    ey = sp.identity(Ty.shape[0], format="csr")
    return (sp.kron(Tx, ey) + sp.kron(ex, Ty) + sp.diags(v)).tocsr()


def assemble_sparse(grid: GridSpec, pot: PotentialSpec) -> sp.csr_matrix:
    """Sparse real-symmetric FD Hamiltonian; no size cap applies."""
    T = _laplacian_1d(grid.M, grid.h)
    if grid.dimension == 1:
        return (T + sp.diags(pot.on_grid(grid))).tocsr()
    return _kron_sum(T, T, pot.on_grid(grid))


def _is_tridiagonal(H) -> bool:
    """True when the sparse H has no nonzero entry beyond its first off-diagonals."""
    H = H.tocoo()
    return not np.any(H.data[np.abs(H.row - H.col) > 1])


def _check_level_count(m: int, dim: int) -> None:
    if not 1 <= m <= dim:
        raise InputError(f"level count {m} out of range 1..{dim}")


def low_spectrum(H, m: int, cap: int | None = None) -> np.ndarray:
    """The m smallest eigenvalues of a Hermitian matrix, ascending.

    A dense H is taken as CSR, so every H meets one dispatch.  A
    tridiagonal H (every 1-D grid) uses the tridiagonal solver: MRRR for
    the whole spectrum and bisection for fewer levels.  Any other H uses
    the dense solver for all levels or all but one, within the dimension
    ``cap`` (default ``fockspace.dimension_cap()``), and shift-invert
    Lanczos anchored below the spectrum for fewer levels.
    """
    m = int(m)
    dim = H.shape[0]
    _check_level_count(m, dim)
    H = sp.csr_matrix(H)
    if _is_tridiagonal(H):
        # a Hermitian tridiagonal matrix has the eigenvalues of the
        # real one with off-diagonal |e|
        e = H.diagonal(1)
        e = np.abs(e) if np.iscomplexobj(e) else e
        if m == dim:
            return eigvalsh_tridiagonal(H.diagonal().real, e)
        return eigvalsh_tridiagonal(
            H.diagonal().real, e, select="i", select_range=(0, m - 1)
        )
    if m >= dim - 1:  # ARPACK takes at most dim - 2 levels
        return np.sort(np.linalg.eigvalsh(dense_within_cap(H, cap, "ask for fewer levels")))[:m]
    # Gershgorin lower bound keeps the shift strictly below the spectrum
    Habs = abs(H)
    row_radius = np.asarray(Habs.sum(axis=1)).ravel() - Habs.diagonal()
    sigma = float((H.diagonal().real - row_radius).min()) - 1.0
    # fixed start vector keeps the Lanczos iteration bit-reproducible
    v0 = np.full(dim, 1.0 / np.sqrt(dim))
    # H is symmetric, so a minimum-degree ordering on its pattern keeps
    # the LU fill of H - sigma I low
    lu = spla.splu(
        (H - sigma * sp.identity(dim, format="csr")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
    )
    w = spla.eigsh(
        H, k=m, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False,
        OPinv=spla.LinearOperator((dim, dim), matvec=lu.solve, dtype=H.dtype),
    )
    return np.sort(w)


SECTORS = ("even,even", "even,odd", "odd,even", "odd,odd")  # parity in x, then in y


def grid_levels(
    grid: GridSpec, pot: PotentialSpec, m: int, cap: int | None = None
) -> tuple[np.ndarray, dict | None]:
    """The m lowest levels of the FD Hamiltonian, and the levels each parity sector gave.

    A 2-D potential that equals its x-mirror and its y-mirror exactly
    commutes with both reflections, so H splits into the four sectors of
    ``SECTORS``, each about a quarter of the grid, solved one at a time.
    Any other grid is solved whole and its sector map is None.  ``cap``
    bounds each matrix that ``low_spectrum`` makes dense.
    """
    m = int(m)
    _check_level_count(m, grid.size)
    if grid.dimension == 2:
        V = pot.on_grid(grid).reshape(grid.M, grid.M)
        if np.array_equal(V, V[::-1]) and np.array_equal(V, V[:, ::-1]):
            return _sector_levels(grid, V, m, cap)
    return low_spectrum(assemble_sparse(grid, pot), m, cap), None


_FIRST_SECTOR_SHARE = 2  # each sector first solves for ceil(m / this) levels


def _sector_levels(grid: GridSpec, V: np.ndarray, m: int, cap) -> tuple[np.ndarray, dict]:
    """The m lowest levels of -Laplacian + V, V symmetric under x -> -x and y -> -y."""
    # with V = V^T the swap x <-> y maps (even, odd) onto (odd, even)
    source = {label: label for label in SECTORS}
    if np.array_equal(V, V.T):
        source["odd,even"] = "even,odd"
    solved = list(dict.fromkeys(source.values()))
    axis = {odd: _parity_laplacian(grid.M, grid.h, odd) for odd in (False, True)}
    ops = {}
    for s in solved:
        (Tx, ix), (Ty, iy) = (axis[p == "odd"] for p in s.split(","))
        ops[s] = _kron_sum(Tx, Ty, V[np.ix_(ix, iy)].ravel())
    count = {s: min(ops[s].shape[0], -(-m // _FIRST_SECTOR_SHARE)) for s in solved}
    levels = {}
    pending = solved
    while pending:
        for s in pending:
            levels[s] = low_spectrum(ops[s], count[s], cap)
        values = np.concatenate([levels[source[label]] for label in SECTORS])
        order = np.argsort(values, kind="stable")
        cutoff = values[order[m - 1]] if values.size >= m else np.inf
        # a sector is complete when solved whole or when its top computed
        # level is at or above the m-th level of the union
        pending = [
            s for s in solved if count[s] < ops[s].shape[0] and levels[s][-1] < cutoff
        ]
        for s in pending:
            count[s] = min(2 * count[s], ops[s].shape[0])
    sizes = [levels[source[label]].size for label in SECTORS]
    given = np.bincount(np.repeat(np.arange(len(SECTORS)), sizes)[order[:m]],
                        minlength=len(SECTORS))
    return values[order[:m]], {label: int(n) for label, n in zip(SECTORS, given)}


def pipeline_integrate(
    grid: GridSpec,
    pot: PotentialSpec,
    n_modes: int,
    m: int,
) -> IntegrabilityCertificate:
    """End-to-end demonstration on a physical operator.

    Solves for the lowest m levels of the FD Hamiltonian, then certifies
    their projection with ``certify_levels``.
    """
    return certify_levels(grid_levels(grid, pot, m)[0], n_modes)


def certify_levels(levels, n_modes: int) -> IntegrabilityCertificate:
    """Certificate for the projection of H onto the span of its ``levels``.

    In the eigenbasis of H that projection is H_proj = diag(levels), which
    ``certify`` intertwines with an isospectral diagonal operator on
    ``n_modes`` modes without an eigendecomposition, held as a CSR array.
    """
    return certify(sparse_diagonal(np.sort(np.asarray(levels, dtype=float))), None, n_modes)
