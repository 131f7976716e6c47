"""Finite-difference Schrödinger operators -Δ + V on a Dirichlet box.

Second-order central differences on a uniform grid over [-L, L]^dim with
homogeneous Dirichlet walls.  Confining potentials keep the low spectrum
discrete and box-truncation error negligible for the retained levels.
A potential is its values at the grid nodes in row-major order, which
``potential`` reads from the spec ``harmonic``, ``x2y2`` or ``csv:PATH``.
Every operator is the ``_kron_sum`` of its axes' Laplacians plus diag(V),
and every grid is solved as a list of blocks P^T H P, P an isometry made
of the mirror and swap pairs of ``_pair_isometry``.  The grid is exactly
mirror-symmetric, so a potential even in every axis, to a few rounding
errors, splits: a 1-D grid into its even and odd halves, a 2-D grid into
its four parity sectors or, when V = V^T, the C4v blocks A1, B1, A2, B2
and the doubly degenerate E.  Any other grid is one block.  An inertia
count (Sylvester's law, from an LDL^T of H - cI) gives each block the
number of its levels below one cutoff c, so each is asked for exactly
those and a solve that skips one is refused; a spectrum solved whole
needs no count.  ``low_spectrum`` solves a block by
``intertwiner.eigensolve``, the one solver dispatch; the dimension cap
applies only to a matrix it makes dense.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InputError
from .fockspace import dimension_cap, sparse_diagonal
from .intertwiner import PIVOT_RTOL, IntegrabilityCertificate, certify, eigensolve, level_count


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
        h2 = self.h * self.h
        # 3 dimension / h^2 bounds every Laplacian entry, parity sectors included
        if not (self.L > 0 and 0.0 < h2 < math.inf and math.isfinite(3 * self.dimension / h2)):
            raise InputError(f"box half-width must be positive, with 1/h^2 a finite positive "
                             f"float, got {self.L!r}")

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


def _on_grid(V, grid: GridSpec) -> np.ndarray:
    """V as one finite float per grid node, or InputError."""
    V = np.asarray(V, dtype=float)
    if V.shape != (grid.size,):
        raise InputError(f"potential must have {grid.size} values for this grid, got {V.size}")
    if not np.isfinite(V).all():
        raise InputError("potential is not finite on the grid")
    return V


def _csv_table(path, nodes: np.ndarray, h: float) -> np.ndarray:
    """The V column of a (x[,y],V) table whose rows match ``nodes``."""
    try:
        with warnings.catch_warnings():
            # numpy warns of a table with no data rows, which is refused below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")
    if data.size == 0:
        raise InputError(f"{path}: the potential table has no data rows")
    if data.shape[1] != nodes.shape[1] + 1:
        raise InputError(f"{path}: expected {nodes.shape[1] + 1} columns, got {data.shape[1]}")
    if data.shape[0] != nodes.shape[0]:
        raise InputError(f"{path}: expected {nodes.shape[0]} rows, got {data.shape[0]}")
    # written so that a NaN coordinate fails the match
    if not np.abs(data[:, :-1] - nodes).max() <= 1e-9 * h + 1e-12:
        raise InputError(f"{path}: node coordinates do not match the grid")
    return data[:, -1]


def potential(spec: str, grid: GridSpec) -> np.ndarray:
    """V at the grid nodes, in row-major order, for ``harmonic`` (|x|^2),
    ``x2y2`` (x^2 y^2, 2-D only) or ``csv:PATH``, a (x[,y],V) table whose
    rows are the grid nodes in that order."""
    axes = np.meshgrid(*[grid.axis_nodes()] * grid.dimension, indexing="ij")
    nodes = np.stack(axes, axis=-1).reshape(grid.size, grid.dimension)
    # a square that overflows is refused as not finite, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if spec == "harmonic":
            V = (nodes**2).sum(axis=1)
        elif spec == "x2y2":
            if grid.dimension != 2:
                raise InputError("the x^2 y^2 potential requires a 2-D grid")
            V = (nodes**2).prod(axis=1)
        elif spec.startswith("csv:"):
            V = _csv_table(spec[4:], nodes, grid.h)
        else:
            raise InputError(f"unknown potential {spec!r}; use harmonic, x2y2 or csv:PATH")
    return _on_grid(V, grid)


def _laplacian_1d(M: int, h: float) -> sp.csr_matrix:
    main = np.full(M, 2.0 / h**2)
    off = np.full(M - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _pair_isometry(a: np.ndarray, b: np.ndarray, sign: float, size: int) -> sp.csr_matrix:
    """The size x len(a) isometry whose column k is (e_a_k + sign e_b_k) / sqrt(2),
    or e_a_k where a_k = b_k, which only sign = 1 allows."""
    pair = a != b
    r = np.sqrt(0.5)
    cols = np.concatenate([np.arange(a.size), np.flatnonzero(pair)])
    vals = np.concatenate([np.where(pair, r, 1.0), np.full(np.count_nonzero(pair), sign * r)])
    return sp.csr_matrix((vals, (np.concatenate([a, b[pair]]), cols)), shape=(size, a.size))


def _kron_sum(axes, v) -> sp.csr_matrix:
    """The sum over axes of I (x) T_axis (x) I, plus diag(v): -Laplacian + V
    on the product of the axes, the first varying slowest."""
    H = axes[0]
    for T in axes[1:]:
        H = sp.kronsum(T, H)
    return (H + sp.diags(v)).tocsr()


def assemble_sparse(grid: GridSpec, V) -> sp.csr_matrix:
    """Sparse real-symmetric FD Hamiltonian for V at the grid nodes; no size cap applies."""
    V = _on_grid(V, grid)
    return _kron_sum([_laplacian_1d(grid.M, grid.h)] * grid.dimension, V)


def low_spectrum(
    H, m: int, cap: int | None = None, *, window: tuple[float, float] | None = None
) -> np.ndarray:
    """The m smallest eigenvalues of a Hermitian matrix, ascending, by
    ``intertwiner.eigensolve`` with values only.

    ``cap`` (default ``fockspace.dimension_cap()``) bounds a matrix made
    dense.  A ``window`` (floor, c), of a floor strictly below the spectrum
    and a cutoff c with exactly m levels below it, shifts Lanczos into it;
    a missing window is (Gershgorin's bound, ∞).
    """
    return eigensolve(H, m, cap=cap, window=window)


SECTORS = ("even,even", "even,odd", "odd,even", "odd,odd")  # parity in x, then in y
PARITIES = ("even", "odd")  # the sectors of a 1-D grid
MIRROR_RTOL = 4 * np.finfo(float).eps  # of max|V|: how far V may be from its mirrors


def _mirror_average(grid: GridSpec, V: np.ndarray) -> np.ndarray | None:
    """V on the grid's axes, averaged over its mirror in each axis, or None
    when it lies farther than ``MIRROR_RTOL`` max|V| from one of them."""
    W = V.reshape((grid.M,) * grid.dimension)
    tol = MIRROR_RTOL * np.abs(W).max()
    axes = range(grid.dimension)
    if any(np.abs(W - np.flip(W, axis)).max() > tol for axis in axes):
        return None
    for axis in axes:
        W = 0.5 * W + 0.5 * np.flip(W, axis)
    return W


def grid_levels(
    grid: GridSpec, V, m: int, cap: int | None = None
) -> tuple[np.ndarray, dict | None]:
    """The m lowest levels of -Laplacian + V, and the levels each parity sector gave.

    A V within ``MIRROR_RTOL`` max|V| of its mirror in every axis is
    averaged over them (an exactly symmetric V is unchanged, and by Weyl's
    inequality no level moves by more than the average does), so H splits
    into the blocks of ``_blocks``: the even and odd halves of a 1-D grid,
    the blocks of the four parity sectors of a 2-D one.  The sector map
    gives each label of ``PARITIES`` or ``SECTORS`` its blocks' share of
    the m levels.  Any other grid is one block, the whole grid, and its
    sector map is None.  Every block is solved by ``_sector_levels``,
    whole or for the levels an inertia count puts below one cutoff.  Each
    block compresses the positive definite Dirichlet -Laplacian plus
    diag(V) onto an invariant subspace, so the floor min V (of the averaged
    V when H splits) lies strictly below every block's spectrum.  ``cap``,
    checked here, bounds each matrix that ``low_spectrum`` makes dense.
    """
    V = _on_grid(V, grid)
    m = level_count(m, grid.size)
    cap = dimension_cap(cap)
    W = _mirror_average(grid, V)
    if W is None:
        whole = [("grid", assemble_sparse(grid, V), ("grid",))]
        return _sector_levels(whole, ("grid",), m, cap, float(V.min()))[0], None
    labels = PARITIES if grid.dimension == 1 else SECTORS
    return _sector_levels(_blocks(grid, W), labels, m, cap, float(W.min()))


CUTOFF_RTOL = 1e-9  # the cutoff's height above the first block's top level, relative


def _blocks(grid: GridSpec, V: np.ndarray) -> list[tuple[str, sp.csr_matrix, tuple[str, ...]]]:
    """The blocks of -Laplacian + V, V an M-vector even in x or an M x M
    array even in x and in y.

    Each is (name, P^T H P, the ``PARITIES`` or ``SECTORS`` labels of its
    copies), P an isometry onto an invariant subspace of H.  Each axis
    Laplacian T splits into P^T T P, P the ``_pair_isometry`` of the nodes
    x >= 0 and their mirrors, even or odd.  A sector, an even or odd half
    of a 1-D grid or one of the four of a 2-D one, is the ``_kron_sum`` of
    its axes' blocks plus V at those nodes.  With V = V^T the swap x <-> y
    splits (even, even) into A1 and B1 and (odd, odd) into A2 and B2, by
    the pair isometry of e_ij and e_ji, and maps (even, odd), the block E,
    onto (odd, even).  The first block holds the ground state, which is
    positive.
    """
    M = grid.M
    T = _laplacian_1d(M, grid.h)
    # an odd function vanishes on the centre node of an odd grid
    half = {p: np.arange(M // 2 + (M % 2 == 1 and p == "odd"), M) for p in PARITIES}
    axis = {}
    for p, sign in zip(PARITIES, (1.0, -1.0)):
        P = _pair_isometry(half[p], M - 1 - half[p], sign, M)
        axis[p] = P.T.tocsr() @ T @ P  # a CSR P^T: P^T @ T would convert T to CSC

    def sector(label):
        parities = label.split(",")
        return _kron_sum([axis[p] for p in parities], V[np.ix_(*map(half.get, parities))].ravel())

    if not (V.ndim == 2 and np.array_equal(V, V.T)):  # no swap symmetry
        labels = SECTORS if V.ndim == 2 else PARITIES
        return [(label, sector(label), (label,)) for label in labels]
    blocks = []
    for p, names in (("even", ("A1", "B1")), ("odd", ("B2", "A2"))):
        label, n = f"{p},{p}", half[p].size
        H = sector(label)
        for name, sign in zip(names, (1.0, -1.0)):
            i, j = np.triu_indices(n, 0 if sign > 0 else 1)
            P = _pair_isometry(i * n + j, j * n + i, sign, n * n)
            blocks.append((name, P.T.tocsr() @ H @ P, (label,)))
    return blocks + [("E", sector("even,odd"), ("even,odd", "odd,even"))]


def _count_below(H, c: float) -> int | None:
    """How many eigenvalues of the real symmetric H lie below c, or None at a zero pivot.

    By Sylvester's law of inertia that is the number of negative pivots of
    an LDL^T of H - cI.  SuperLU with no pivot threshold keeps to the
    diagonal of a symmetric ordering, leaving it only at a zero pivot, and
    then U = D L^T.
    """
    try:
        lu = spla.splu(
            (H - c * sp.identity(H.shape[0], format="csr")).tocsc(),
            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError:  # SuperLU's "Factor is exactly singular"
        return None
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and pivots.all()):
        return None
    return int(np.count_nonzero(pivots < 0))


def _counts_below(blocks, c: float) -> tuple[list[int], float]:
    """Every block's level count below one cutoff, moved off a zero pivot, and the cutoff."""
    for _ in range(4):
        counts = [_count_below(H, c) for _, H, _ in blocks]
        if None not in counts:
            return counts, c
        c += PIVOT_RTOL * abs(c)
    raise np.linalg.LinAlgError(f"no cutoff near {c:.17g} gives every block nonzero pivots")


def _sector_levels(
    blocks, labels: tuple[str, ...], m: int, cap, floor: float
) -> tuple[np.ndarray, dict]:
    """The m lowest levels of the direct sum of ``blocks``, and each label's share of them.

    ``blocks`` is a list of (name, operator, the labels of its copies), the
    first holding the ground state.  The first block is solved for its
    share k of the m levels, at most m, and a cutoff c put just above its
    top level; k doubles until the blocks' inertia counts below c, with
    multiplicity, reach m.  Each block is then solved for exactly its
    count, and one whose solver finds a different number of levels below c
    is refused, so no level below c is skipped.  A first block solved
    whole puts c at infinity and every block is solved whole, uncounted.
    ``floor`` lies strictly below every block's spectrum: Lanczos probes
    the first block from just below it, and solves each counted block at
    the middle of (floor, c), where its levels below c are the nearest.
    """
    H1 = blocks[0][1]
    size = sum(H.shape[0] * len(copies) for _, H, copies in blocks)
    k = min(H1.shape[0], m, -(-2 * m * H1.shape[0] // size))
    while True:
        first = low_spectrum(H1, k, cap, window=(floor, math.inf))
        if k == H1.shape[0]:  # solved whole, so every level lies below c = inf
            c, counts = np.inf, [H.shape[0] for _, H, _ in blocks]
            break
        counts, c = _counts_below(blocks, first[-1] + CUTOFF_RTOL * abs(first[-1]))
        if sum(n * len(copies) for n, (_, _, copies) in zip(counts, blocks)) >= m:
            break
        k = min(2 * k, H1.shape[0])
    found = {label: [] for label in labels}
    for (name, H, copies), n in zip(blocks, counts):
        if H is H1 and n <= k:
            w = first
        else:
            w = low_spectrum(H, n, cap, window=(floor, c)) if n else np.empty(0)
        if w.size != n or (n and not w[-1] < c):
            raise np.linalg.LinAlgError(
                f"block {name}: the solver found {np.count_nonzero(w < c)} levels below "
                f"{c:.17g}, where the inertia count is {n}"
            )
        for label in copies:
            found[label].append(w)
    parts = [np.concatenate(found[label]) for label in labels]
    values = np.concatenate(parts)
    order = np.argsort(values, kind="stable")[:m]
    given = np.bincount(np.repeat(np.arange(len(labels)), [p.size for p in parts])[order],
                        minlength=len(labels))
    return values[order], {label: int(n) for label, n in zip(labels, given)}


def pipeline_integrate(grid: GridSpec, V, n_modes: int, m: int) -> IntegrabilityCertificate:
    """End-to-end demonstration on a physical operator.

    Solves for the lowest m levels of the FD Hamiltonian for V at the grid
    nodes, then certifies their projection with ``certify_levels``.
    """
    return certify_levels(grid_levels(grid, V, m)[0], n_modes)


def certify_levels(levels, n_modes: int) -> IntegrabilityCertificate:
    """Certificate for the projection of H onto the span of its ``levels``.

    In the eigenbasis of H that projection is H_proj = diag(levels), which
    ``certify`` intertwines with an isospectral diagonal operator on
    ``n_modes`` modes without an eigendecomposition, held as a CSR array.
    """
    return certify(sparse_diagonal(np.sort(np.asarray(levels, dtype=float))), None, n_modes)
