"""Finite-difference Schrödinger operators -Δ + V on a Dirichlet box.

Second-order central differences on a uniform grid over [-L, L]^dim with
homogeneous Dirichlet walls.  Confining potentials keep the low spectrum
discrete and box-truncation error negligible for the retained levels.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .errors import CapacityError, InputError
from .fockspace import TruncationBasis, _synthesized_diagonal
from .intertwiner import (
    IntegrabilityCertificate,
    _intertwine,
    first_integrals,
    verify_integrability,
)

DEFAULT_DIM_CAP = 4096
CAP_ENV_VAR = "SPECTRAL_FORGE_CAP"
_DENSE_EIG_LIMIT = 1200  # above this, low_spectrum switches to sparse Lanczos


def dimension_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    if cap < 1:
        raise InputError(f"{CAP_ENV_VAR} must be positive")
    return cap


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
        return -self.L + self.h * np.arange(1, self.M + 1)


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
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
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


def assemble_sparse(grid: GridSpec, pot: PotentialSpec) -> sp.csr_matrix:
    """Sparse real-symmetric FD Hamiltonian; no size cap applies."""
    T = _laplacian_1d(grid.M, grid.h)
    if grid.dimension == 1:
        H = T + sp.diags(pot.on_grid(grid))
    else:
        eye = sp.identity(grid.M, format="csr")
        H = sp.kron(T, eye) + sp.kron(eye, T) + sp.diags(pot.on_grid(grid))
    return H.tocsr()


def build_fd_hamiltonian(
    grid: GridSpec, pot: PotentialSpec, cap: int | None = None
) -> np.ndarray:
    """Dense FD Hamiltonian, refused above the dimension cap."""
    cap = dimension_cap() if cap is None else int(cap)
    if grid.size > cap:
        raise CapacityError(
            f"matrix dimension {grid.size} exceeds cap {cap}; "
            "use a coarser grid or raise the cap"
        )
    return assemble_sparse(grid, pot).toarray()


def low_spectrum(H, m: int) -> np.ndarray:
    """The m smallest eigenvalues of a Hermitian matrix, ascending.

    Dense input uses a direct solver; large or sparse input uses
    shift-invert Lanczos anchored below the spectrum.
    """
    m = int(m)
    dim = H.shape[0]
    if not 1 <= m <= dim:
        raise InputError(f"level count {m} out of range 1..{dim}")
    if sp.issparse(H):
        if m == dim:
            return np.sort(np.linalg.eigvalsh(H.toarray()))
        # Gershgorin lower bound keeps the shift strictly below the spectrum
        Habs = abs(H)
        row_radius = np.asarray(Habs.sum(axis=1)).ravel() - Habs.diagonal()
        sigma = float((H.diagonal() - row_radius).min()) - 1.0
        # fixed start vector keeps the Lanczos iteration bit-reproducible
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        w = spla.eigsh(
            H.tocsc(), k=m, sigma=sigma, which="LM", v0=v0,
            return_eigenvectors=False,
        )
        return np.sort(w)
    H = np.asarray(H)
    if dim > _DENSE_EIG_LIMIT and m < dim // 4:
        return low_spectrum(sp.csr_matrix(H), m)
    w = eigh(H, eigvals_only=True, subset_by_index=[0, m - 1])
    return np.sort(w)


def pipeline_integrate(
    grid: GridSpec,
    pot: PotentialSpec,
    n_modes: int,
    m: int,
    cap: int | None = None,
) -> IntegrabilityCertificate:
    """End-to-end demonstration on a physical operator.

    Solves for the lowest m levels of the FD Hamiltonian, then certifies
    their projection with ``certify_levels``.
    """
    cap = dimension_cap() if cap is None else int(cap)
    if m > cap:
        raise CapacityError(f"projected dimension {m} exceeds cap {cap}")
    return certify_levels(low_spectrum(assemble_sparse(grid, pot), m), n_modes)


def certify_levels(levels, n_modes: int) -> IntegrabilityCertificate:
    """Certificate for the projection of H onto the span of its ``levels``.

    In the eigenbasis of H that projection is H_proj = diag(levels), whose
    eigenvectors are the identity, so no eigendecomposition is needed: an
    isospectral diagonal operator on ``n_modes`` modes is intertwined from
    those known eigenpairs, and the first integrals are verified against the
    dense H_proj.
    """
    levels = np.sort(np.asarray(levels, dtype=float))
    m = levels.size
    basis = TruncationBasis.build(n_modes, m)
    a = _synthesized_diagonal(levels, basis)
    U = _intertwine(levels, np.eye(m, dtype=complex), a, None)
    T = first_integrals(U, basis)
    return verify_integrability(np.diag(levels.astype(complex)), U, T, basis, A=a)
