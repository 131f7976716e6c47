import time
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import unitary_group

from spectralforge import fockspace, intertwiner
from spectralforge.errors import CapacityError, InputError, NotIsospectralError
from spectralforge.fockspace import (
    TruncationBasis,
    eigendecompose,
    number_operator,
    sparse_diagonal,
    synthesize,
)
from spectralforge.intertwiner import (
    build_unitary,
    certify,
    first_integrals,
    verify_integrability,
)


def random_conjugated(seq, n_modes, unitary_seed):
    basis = TruncationBasis.build(n_modes, len(seq))
    A = synthesize(seq, basis)
    Q = unitary_group.rvs(len(seq), random_state=unitary_seed)
    H = Q @ A @ Q.conj().T
    return (H + H.conj().T) / 2, A, basis


def test_build_unitary_identity_case():
    D = np.diag([1.0, 2.0]).astype(complex)
    U = build_unitary(D, np.diag(D), tol=0.0)
    assert np.allclose(np.abs(U.toarray()), np.eye(2))


def test_build_unitary_swap_case():
    H = np.array([[0, 1], [1, 0]], dtype=complex)
    a = np.array([-1.0, 1.0])
    U = build_unitary(H, a, tol=1e-12)
    s = 1 / np.sqrt(2)
    # hand eigendecomposition fixes U up to column sign
    assert np.allclose(np.abs(U), [[s, s], [s, s]])
    assert np.abs(U @ H - np.diag(a) @ U).max() < 1e-12


def test_build_unitary_random_conjugation():
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    Q = unitary_group.rvs(3, random_state=0)
    H = Q @ A @ Q.conj().T
    H = (H + H.conj().T) / 2
    U = build_unitary(H, np.diag(A))
    assert np.linalg.norm(U @ H - A @ U, "fro") < 1e-9


def test_build_unitary_rejects_mismatched_spectra():
    with pytest.raises(NotIsospectralError) as excinfo:
        build_unitary(np.diag([1.0, 2.0]).astype(complex), np.array([1.0, 3.0]), tol=0.5)
    assert excinfo.value.report is not None
    assert not excinfo.value.report.matched


def test_certify_refuses_a_nan_tolerance():
    # with a NaN tolerance every spectrum would match, and no precondition would hold
    H = np.diag([1.0, 2.0, 4.0])
    with pytest.raises(InputError, match="tolerance must be >= 0, got nan"):
        certify(H, [5.0, 7.0, 9.0], 1, tol=np.nan)
    with pytest.raises(NotIsospectralError):
        certify(H, [5.0, 7.0, 9.0], 1, tol=0.5)


def test_build_unitary_rejects_dimension_mismatch():
    with pytest.raises(InputError, match="dimension mismatch"):
        build_unitary(np.eye(2, dtype=complex), np.ones(3))


def test_first_integrals_identity_conjugation():
    basis = TruncationBasis.build(2, 6)
    T = first_integrals(np.eye(6, dtype=complex), basis)
    for i, Ti in enumerate(T, start=1):
        assert np.array_equal(Ti, number_operator(basis, i))


def test_first_integrals_spectrum_preserved():
    basis = TruncationBasis.build(2, 3)
    U = unitary_group.rvs(3, random_state=1)
    T1, T2 = first_integrals(U, basis)
    # conjugation preserves the eigenvalue multisets {0,0,1} and {0,1,0}
    assert np.allclose(np.sort(np.linalg.eigvalsh(T1)), [0, 0, 1], atol=1e-9)
    assert np.allclose(np.sort(np.linalg.eigvalsh(T2)), [0, 0, 1], atol=1e-9)


def test_verify_all_diagonal():
    seq = [5.0, 7.0, 9.0]
    basis = TruncationBasis.build(2, 3)
    A = synthesize(seq, basis)
    U = np.eye(3, dtype=complex)
    cert = verify_integrability(A, U, basis, A=np.diag(A))
    assert cert.passed
    assert cert.max_pairwise_commutator == 0.0
    assert cert.max_hamiltonian_commutator == 0.0
    assert cert.independence


def test_verify_with_degenerate_levels():
    # repeated eigenvalues stay separated by their quantum numbers
    H, A, basis = random_conjugated([7.0, 7.0, 5.0, 5.0, 5.0, 1.0], 2, 3)
    U = build_unitary(H, np.diag(A))
    cert = verify_integrability(H, U, basis, A=np.diag(A))
    assert cert.passed
    assert cert.independence


def test_repeated_multi_index_fails_independence():
    rng = np.random.default_rng(9)
    for d, n in ((6, 2), (40, 3), (40, 1)):
        for repeat in (False, True):
            idx = TruncationBasis.build(n, d).indices.copy()
            if repeat:
                idx[-1] = idx[0]
            idx = idx[rng.permutation(d)]
            basis = TruncationBasis(n=n, d=d, indices=idx)
            U = np.eye(d, dtype=complex)
            a = np.arange(d, dtype=float)
            cert = verify_integrability(np.diag(a), U, basis, A=a)
            # the Python-set reference for injectivity of the joint spectrum
            assert cert.independence is (len({tuple(row) for row in idx.tolist()}) == d)
            assert cert.independence is not repeat
            assert cert.passed is not repeat


def test_certify_random_100():
    rng = np.random.default_rng(4)
    seq = np.sort(rng.uniform(0, 10, 100))
    H, _, _ = random_conjugated(seq, 2, 5)
    cert = certify(H, seq, 2)
    assert cert.passed
    assert cert.max_pairwise_commutator < 1e-8
    assert cert.max_hamiltonian_commutator < 1e-8
    assert cert.unitarity_defect <= 1e-9 * 100


def test_certificate_json_fields():
    H, A, basis = random_conjugated([1.0, 2.0, 3.0], 1, 7)
    cert = certify(H, None, 1)
    data = cert.to_dict()
    for key in (
        "dim",
        "unitarity_defect",
        "max_pairwise_commutator",
        "max_hamiltonian_commutator",
        "independence",
        "commutator_tol",
        "passed",
    ):
        assert key in data


def test_first_integrals_match_dense_conjugation():
    basis = TruncationBasis.build(3, 64)
    U = unitary_group.rvs(64, random_state=11)
    for i, Ti in enumerate(first_integrals(U, basis), start=1):
        dense = U.conj().T @ number_operator(basis, i) @ U
        assert np.abs(Ti - dense).max() < 1e-12


def test_certificate_fails_on_non_hermitian_H():
    H, A, basis = random_conjugated(np.arange(1.0, 21.0), 2, 8)
    a = np.diag(A)
    U = build_unitary(H, a)
    clean = verify_integrability(H, U, basis, A=a)
    assert clean.passed
    assert clean.hermiticity_defect == 0.0  # (X + X†)/2 is exactly Hermitian
    S = np.random.default_rng(0).normal(size=(20, 20))
    bad = H + 1e-6j * (S + S.T)  # a small anti-Hermitian part
    cert = verify_integrability(bad, U, basis, A=a)
    assert cert.hermiticity_defect > 1e-5
    assert not cert.passed


def test_certificate_fails_on_corrupted_row_of_unitary():
    H, A, basis = random_conjugated(np.arange(1.0, 21.0), 2, 9)
    U = build_unitary(H, np.diag(A))
    U[3] += 1e-4 * np.random.default_rng(1).normal(size=20)
    cert = verify_integrability(H, U, basis, A=np.diag(A))
    assert cert.unitarity_defect > 1e-5
    assert cert.intertwining_residual > 1e-4
    # the first integrals stop commuting with H, and the bound sees it
    assert cert.max_hamiltonian_commutator > commutator_gate(cert, H, basis)
    assert not cert.passed


@pytest.mark.parametrize(
    "seq",
    [[3.0, 1.0, 2.0, 9.0, 4.0, 0.5], [5.0, 7.0, 7.0, 7.0, 9.0, 5.0]],
    ids=["unsorted", "degenerate"],
)
def test_certify_unsorted_and_degenerate_seq(seq):
    H, _, _ = random_conjugated(seq, 2, 12)
    cert = certify(H, seq, 2)
    assert cert.passed
    _, VH = eigendecompose(H)
    # U = P V_H† for a permutation P, so U V_H = P
    overlap = np.abs(cert.U @ VH)
    P = np.round(overlap)
    assert np.allclose(overlap, P, atol=1e-10)
    assert np.array_equal(P.sum(axis=0), np.ones(6))
    assert np.array_equal(P.sum(axis=1), np.ones(6))


def test_build_unitary_rejects_non_diagonal_A():
    H = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(InputError):
        build_unitary(H, np.array([[1.0, 0.1], [0.1, 2.0]]))


def test_diagonal_A_as_matrix_or_1d():
    # A is taken only as its 1-D diagonal; a diagonal matrix, dense or sparse, is refused
    H, A, basis = random_conjugated([4.0, 1.0, 3.0, 2.0], 2, 13)
    U = build_unitary(H, np.diag(A))
    assert verify_integrability(H, U, basis, A=np.diag(A)).passed
    # a complex diagonal is Hermitian within the tolerance of is_hermitian
    assert verify_integrability(H, U, basis, A=np.diag(A) + 1e-12j).passed
    with pytest.raises(InputError, match="A is not Hermitian"):
        verify_integrability(H, U, basis, A=np.diag(A) + 1e-6j)
    for matrix in (A, sp.csr_array(A)):
        with pytest.raises(InputError, match="1-D diagonal"):
            build_unitary(H, matrix)
        with pytest.raises(InputError, match="1-D diagonal"):
            verify_integrability(H, U, basis, A=matrix)


def test_passed_gates_intertwining_residual():
    H = np.diag(np.arange(1.0, 9.0)).astype(complex)
    cert = certify(H, None, 2)
    assert cert.passed
    basis = TruncationBasis.build(2, 8)
    U = cert.U.toarray()
    U[[0, 7]] = U[[7, 0]]  # still a permutation: unitary, and T still commutes
    bad = verify_integrability(H, U, basis, A=np.arange(1.0, 9.0))
    assert bad.intertwining_residual == pytest.approx(7 * np.sqrt(2))
    assert bad.unitarity_defect == 0.0
    assert not bad.passed
    # a wrong level at the vacuum, where every n_i is 0, shows in no commutator
    a = np.arange(1.0, 9.0)
    a[0] += 1.0
    vacuum = verify_integrability(H, cert.U, basis, A=a)
    assert vacuum.max_hamiltonian_commutator == vacuum.max_pairwise_commutator == 0.0
    assert vacuum.intertwining_residual == 1.0 and not vacuum.passed


# structured path: a diagonal H, a permutation U and diagonal T_i are
# verified through sparse products; the references below are dense numpy

STRUCTURED_D = 200


def commutator_gate(cert, H, basis):
    """The bound that ``passed`` holds each commutator field to."""
    H = H.toarray() if sp.issparse(H) else H
    n = [basis.indices[:, i].astype(float) for i in range(basis.n)]
    return cert.commutator_tol * max(1.0, np.linalg.norm(H) + sum(np.linalg.norm(x) for x in n))


def dense_certificate(H, U, A, basis, commutator_tol=1e-8):
    """Every ``to_dict`` field, from the residuals R = UH − AU, R_ρ = UH − diag(ρ) U
    and G = UU† − I formed densely, ρ the rows' Rayleigh quotients.

    [T_i, H] = U† N_i R_ρ − R_ρ† N_i U − D T_i with D = H − H†, and
    [T_i, T_j] = U† (N_i G N_j − N_j G N_i) U, bounded through ‖U‖₂² ≤ 1 + ‖G‖_F.
    """
    d = H.shape[0]
    fro = np.linalg.norm
    N = [np.diag(basis.indices[:, i].astype(float)) for i in range(basis.n)]
    R, G, D = U @ H - A @ U, U @ U.conj().T - np.eye(d), H - H.conj().T
    rho = np.diag(U @ H @ U.conj().T).real / np.diag(G + np.eye(d)).real
    R_rho = U @ H - rho[:, None] * U
    g = fro(G)
    pairs = [(1 + g) * fro(N[i] @ G @ N[j] - N[j] @ G @ N[i])
             for i in range(len(N)) for j in range(i + 1, len(N))]
    ref = {
        "dim": d,
        "n_modes": basis.n,
        "unitarity_defect": np.abs(G).max(),
        "intertwining_residual": fro(R),
        "hermiticity_defect": fro(D),
        "max_pairwise_commutator": max(pairs, default=0.0),
        "max_hamiltonian_commutator": max(2 * np.sqrt(1 + g) * fro(Ni @ R_rho)
                                          + fro(D) * Ni.max() * (1 + g) for Ni in N),
        "independence": True,
        "commutator_tol": commutator_tol,
        "unitarity_tol": 1e-9 * d,
    }
    scale = fro(H) + sum(fro(Ni) for Ni in N)
    ref["passed"] = bool(
        max(ref["max_pairwise_commutator"], ref["max_hamiltonian_commutator"],
            ref["hermiticity_defect"], ref["intertwining_residual"])
        <= commutator_tol * max(1.0, scale)
        and ref["unitarity_defect"] <= ref["unitarity_tol"]
    )
    return ref


def assert_matches_dense(cert, ref):
    got = cert.to_dict()
    assert got.keys() == ref.keys()
    for key, value in ref.items():
        if isinstance(value, bool) or key in ("dim", "n_modes"):
            assert got[key] == value, key
        else:
            assert abs(got[key] - value) <= 1e-12, key


@pytest.fixture
def structured():
    """Unsorted diagonal H with ties and a 1e-13 imaginary part, certified."""
    rng = np.random.default_rng(21)
    h = np.round(rng.uniform(0.0, 20.0, STRUCTURED_D), 1)
    assert np.unique(h).size < STRUCTURED_D  # ties
    H = np.diag(h + 1e-13j * rng.uniform(-1.0, 1.0, STRUCTURED_D))
    basis = TruncationBasis.build(3, STRUCTURED_D)
    return H, synthesize(np.sort(h), basis), basis


def test_diagonal_certificate_matches_dense_reference(structured, monkeypatch):
    H, A, basis = structured

    def no_eigh(M):
        raise AssertionError("a diagonal H must not be decomposed")

    monkeypatch.setattr(intertwiner, "eigendecompose", no_eigh)
    cert = certify(H, None, 3)
    assert cert.passed
    assert_matches_dense(cert, dense_certificate(H, cert.U.toarray(), A, basis))
    # U is a permutation and T_i = U† N_i U, computed densely here
    assert np.array_equal(np.abs(cert.U.toarray()).sum(axis=0), np.ones(STRUCTURED_D))
    assert np.array_equal(np.abs(cert.U.toarray()).sum(axis=1), np.ones(STRUCTURED_D))
    for i, Ti in enumerate(cert.T, start=1):
        dense = cert.U.toarray().conj().T @ number_operator(basis, i) @ cert.U.toarray()
        assert np.abs(Ti.toarray() - dense).max() <= 1e-12


@pytest.mark.parametrize("kind", ["dense", "csr", "csr_beside_csr_H"])
def test_scaled_entry_of_monomial_unitary_fails(structured, monkeypatch, kind):
    H, A, basis = structured
    U = certify(H, None, 3).U.toarray()
    j = np.flatnonzero(U[5])[0]
    U[5, j] *= 1 + 1e-3  # still monomial, no longer unitary
    Uop = U if kind == "dense" else sp.csr_array(U)
    Hop = sp.csr_array(H) if kind == "csr_beside_csr_H" else H

    def no_general_path(*args):
        raise AssertionError("a monomial U beside a diagonal H took the general path")

    if kind != "dense":  # measured on U's d entries and H's diagonal alone
        monkeypatch.setattr(intertwiner, "_residuals", no_general_path)
    cert = verify_integrability(Hop, Uop, basis, A=np.diag(A))
    assert cert.unitarity_defect == pytest.approx(2.001e-3)
    assert not cert.passed
    assert_matches_dense(cert, dense_certificate(H, U, A, basis))


def test_csr_unitary_with_two_rows_in_one_column_takes_the_general_path(structured, monkeypatch):
    H, A, basis = structured
    U = certify(H, None, 3).U.toarray()
    j = np.flatnonzero(U[6])[0]
    U[5] = 0.0
    U[5, j] = 1.0  # rows 5 and 6 in column j: one entry per row, not monomial

    def no_array_path(*args):
        raise AssertionError("a U with a repeated column was measured as monomial")

    monkeypatch.setattr(intertwiner, "_monomial_residuals", no_array_path)
    cert = verify_integrability(H, sp.csr_array(U), basis, A=np.diag(A))
    assert not cert.passed and cert.unitarity_defect == 1.0
    assert_matches_dense(cert, dense_certificate(H, U, A, basis))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32, np.complex64, np.int64])
def test_diagonal_eigenpairs_equal_the_stacked_blocks(dtype, monkeypatch):
    """A diagonal H is solved by one stable argsort: the eigenpairs, ties in
    basis order and dtypes equal the stacked eigh of its 1 x 1 blocks."""
    h = np.round(np.random.default_rng(9).uniform(-5.0, 5.0, 300)).astype(dtype)
    assert np.unique(h).size < h.size  # ties
    stacked = intertwiner._stacked(sparse_diagonal(h), np.arange(h.size), None)

    def no_stack(*args):
        raise AssertionError("a diagonal H was solved block by block")

    monkeypatch.setattr(intertwiner, "_stacked", no_stack)
    for H in (sparse_diagonal(h), np.diag(h)):
        w, V = intertwiner.eigensolve(H, vectors=True)
        assert w.dtype == stacked[0].dtype and np.array_equal(w, stacked[0])
        assert V.format == "csc" and V.dtype == stacked[1].dtype
        assert (V != stacked[1]).nnz == 0
        w3, V3 = intertwiner.eigensolve(H, 3, vectors=True)
        assert np.array_equal(w3, w[:3]) and (V3 != V[:, :3]).nnz == 0


def test_dense_H_of_several_components_is_made_csr_once(monkeypatch):
    H = np.diag(np.arange(40.0))
    H[:3, :3] += np.ones((3, 3))  # a 3 x 3 block beside 37 single nodes
    made, csr_array = [], sp.csr_array

    def counted(arg, *args, **kwargs):
        if isinstance(arg, np.ndarray):
            made.append(arg)
        return csr_array(arg, *args, **kwargs)

    monkeypatch.setattr(sp, "csr_array", counted)
    cert = certify(H, None, 2)
    assert cert.passed and sp.issparse(cert.U)
    assert len(made) == 1 and made[0] is H


def test_certify_forms_the_first_integrals_on_first_read(structured, monkeypatch):
    H, A, basis = structured
    eager = first_integrals(certify(H, None, 3).U, basis)
    calls = []

    def counted(U, basis):
        calls.append(U)
        return first_integrals(U, basis)

    monkeypatch.setattr(intertwiner, "first_integrals", counted)
    cert = certify(H, None, 3)
    assert cert.passed and not calls
    T = cert.T
    assert cert.T is T and len(calls) == 1
    assert all((Ti != Ei).nnz == 0 for Ti, Ei in zip(T, eager)) and len(T) == len(eager)
    assert "T" not in cert.to_dict() and "basis" not in cert.to_dict()
    bare = verify_integrability(H, cert.U, basis, A=np.diag(A))
    assert bare.T is None and len(calls) == 1


def test_rotated_pair_of_unitary_rows_fails(structured):
    H, A, basis = structured
    good = certify(H, None, 3)
    U = good.U.toarray()
    a, n1 = np.diag(A).real, basis.indices[:, 0]
    i = 0
    j = next(k for k in range(STRUCTURED_D) if a[k] != a[i] and n1[k] != n1[i])
    c, s = np.cos(1e-3), np.sin(1e-3)
    U[[i, j]] = [c * U[i] + s * U[j], c * U[j] - s * U[i]]  # still unitary
    for Uop in (U, sp.csr_array(U)):
        cert = verify_integrability(H, Uop, basis, A=np.diag(A))
        assert cert.unitarity_defect <= 1e-15
        assert cert.max_hamiltonian_commutator > commutator_gate(cert, H, basis)
        assert not cert.passed
        assert_matches_dense(cert, dense_certificate(H, U, A, basis))


@pytest.mark.parametrize("entry", [np.nan, 1.0 + 1e-6j], ids=["nan", "non_hermitian"])
def test_diagonal_H_rejected_like_eigendecompose(entry):
    H = np.diag(np.arange(1.0, 9.0)).astype(complex)
    H[3, 3] = entry
    with pytest.raises(InputError):
        eigendecompose(H)
    with pytest.raises(InputError):
        certify(H, None, 2)


def test_diagonal_csr_certificate_at_1e5_is_linear(monkeypatch):
    def no_eigh(M):
        raise AssertionError("a diagonal H must not be decomposed")

    monkeypatch.setattr(intertwiner, "eigendecompose", no_eigh)
    d = 10**5
    h = np.random.default_rng(22).uniform(-5.0, 5.0, d)
    start = time.perf_counter()
    cert = certify(sparse_diagonal(h), None, 3)
    assert time.perf_counter() - start < 10.0
    assert cert.passed
    assert cert.unitarity_defect == 0.0 and cert.intertwining_residual == 0.0
    assert sp.issparse(cert.U) and cert.U.nnz == d
    assert all(sp.issparse(Ti) and Ti.nnz <= d for Ti in cert.T)


def test_sparse_and_dense_diagonal_H_certify_alike(structured):
    H, A, basis = structured
    dense, sparse = certify(H, None, 3), certify(sp.csr_array(H), None, 3)
    assert dense.to_dict() == sparse.to_dict()
    assert (dense.U != sparse.U).nnz == 0


def test_dense_H_is_verified_in_the_kind_of_a_csr_U(structured, monkeypatch):
    H, A, basis = structured
    U, a = certify(H, None, 3).U, np.diag(A)
    reference = verify_integrability(sp.csr_array(H), U, basis, A=a).to_dict()

    def no_dense(self, *args, **kwargs):
        raise AssertionError("a CSR operand was made dense")

    monkeypatch.setattr(sp.csr_array, "toarray", no_dense)
    cert = verify_integrability(H, U, basis, A=a)
    assert cert.passed and cert.to_dict() == reference


def test_build_unitary_kind_follows_H():
    # U is of certify's kind: CSR for an H, dense or sparse, of several components
    X = np.random.default_rng(36).normal(size=(30, 60)).view(complex)
    h = np.array([3.0, 1.0, 2.0, 1.0])
    for H, sparse in (((X + X.conj().T) / 2, False), (np.diag(h), True),
                      (sparse_diagonal(h), True), (permuted_blocks([1, 2, 3, 5], 37), True)):
        U, ref = build_unitary(H, intertwiner.eigensolve(H, vectors=True)[0]), certify(H, None, 2).U
        assert sp.issparse(U) is sp.issparse(ref) is sparse
        assert type(U) is type(ref) and U.dtype == ref.dtype
        assert np.array_equal(U.toarray() if sparse else U, ref.toarray() if sparse else ref)


def test_dense_intertwiner_allocates_only_U():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))
    wH, VH = intertwiner.eigensolve((X + X.conj().T) / 2, vectors=True)
    a = rng.permutation(wH)
    perm = np.argsort(a, kind="stable")
    tracemalloc.start()
    try:
        U = intertwiner._intertwine(wH, VH, a, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one d x d array, U itself, plus O(d) for the match and the permutation
    assert peak < U.nbytes + 64 * U.shape[0] * 8
    assert U.flags.c_contiguous and np.array_equal(U, VH.conj().T[np.argsort(perm)])


def test_first_integrals_of_sparse_permutation_are_csr_diagonals():
    basis = TruncationBasis.build(2, 10)
    P = np.eye(10)[np.random.default_rng(5).permutation(10)]
    for i, (Ti, ref) in enumerate(zip(first_integrals(sp.csr_array(P), basis),
                                      first_integrals(P, basis)), start=1):
        assert Ti.format == "csr" and isinstance(ref, np.ndarray)
        assert np.array_equal(Ti.toarray(), ref)
        assert np.array_equal(Ti.toarray(), np.diag(Ti.diagonal()))


def test_certify_caps_sparse_non_diagonal_H_before_densifying(monkeypatch):
    rng = np.random.default_rng(12)
    X = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    H = sp.csr_array(X + X.conj().T)

    def no_dense(self, *args, **kwargs):
        raise AssertionError("H was made dense before the cap was checked")

    monkeypatch.setenv("SPECTRAL_FORGE_CAP", "11")
    monkeypatch.setattr(sp.csr_array, "toarray", no_dense)
    with pytest.raises(CapacityError, match="matrix dimension 12 exceeds cap 11"):
        certify(H, None, 2)
    # a diagonal H is certified in O(d), with no dense matrix to cap
    cert = certify(sparse_diagonal(np.arange(12.0)), None, 2)
    assert cert.passed and sp.issparse(cert.U)


# block path: H splits into the connected components of its sparsity graph

def permuted_blocks(sizes, seed, dtype=complex):
    """A CSR Hermitian H holding random blocks of ``sizes`` under a random permutation."""
    rng = np.random.default_rng(seed)
    blocks = []
    for s in sizes:
        X = rng.normal(size=(s, s)) + (1j * rng.normal(size=(s, s)) if dtype is complex else 0)
        blocks.append((X + X.conj().T) / 2 + 3.0 * np.eye(s))  # no zero on a 1 x 1 block
    P = rng.permutation(sum(sizes))
    return sp.csr_array(sp.block_diag(blocks, format="csr")[P][:, P])


def test_block_H_certificate_matches_dense_reference(monkeypatch):
    sizes = [1, 1, 2, 3, 5, 5, 8, 13, 21, 40, 1, 40]
    H = permuted_blocks(sizes, 31)
    d, basis = H.shape[0], TruncationBasis.build(3, H.shape[0])

    def no_eigh(M):
        raise AssertionError("a block H must not be decomposed whole")

    monkeypatch.setattr(intertwiner, "eigendecompose", no_eigh)
    cert = certify(H, None, 3)
    assert cert.passed and sp.issparse(cert.U) and all(sp.issparse(Ti) for Ti in cert.T)
    assert cert.U.nnz == sum(s * s for s in sizes)
    dense = H.toarray()
    w = np.linalg.eigvalsh(dense)
    assert_matches_dense(cert, dense_certificate(dense, cert.U.toarray(), np.diag(w), basis))
    U = cert.U.toarray()
    assert np.abs(U @ dense @ U.conj().T - np.diag(w)).max() <= 1e-12 * d


def test_block_H_above_cap_certifies_without_dense_H(monkeypatch):
    H = permuted_blocks([1, 7, 40, 12, 40, 33, 2], 32)

    def no_dense(self, *args, **kwargs):
        raise AssertionError("H was made dense")

    monkeypatch.setenv("SPECTRAL_FORGE_CAP", "40")
    monkeypatch.setattr(sp.csr_array, "toarray", no_dense)
    cert = certify(H, None, 2)
    assert H.shape[0] > 40 and cert.passed


def test_largest_block_above_cap_is_refused(monkeypatch):
    H = permuted_blocks([6, 12, 1], 33)
    monkeypatch.setenv("SPECTRAL_FORGE_CAP", "11")
    with pytest.raises(CapacityError, match="matrix dimension 12 exceeds cap 11"):
        certify(H, None, 2)
    monkeypatch.setenv("SPECTRAL_FORGE_CAP", "12")
    assert certify(H, None, 2).passed


@pytest.mark.parametrize("entry, message", [(np.nan, "not finite"),
                                            (1.0 + 1e-6j, "not Hermitian")],
                         ids=["nan", "complex"])
def test_csr_diagonal_entry_refused_with_its_message(entry, message):
    h = np.arange(1.0, 9.0).astype(complex)
    h[3] = entry
    with pytest.raises(InputError, match=message):
        certify(sparse_diagonal(h), None, 2)


@pytest.mark.parametrize("layout", ["dense_connected", "dense_blocks", "csr"])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_H_refused_with_one_message_and_no_warning(entry, layout):
    H = np.ones((6, 6)) + np.diag(np.arange(6.0))
    if layout == "dense_blocks":
        H[:3, 3:] = H[3:, :3] = 0.0
    H[1, 2] = H[2, 1] = entry  # a symmetric pair, so only finiteness is wrong
    if layout == "csr":
        H = sp.csr_array(H)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^H has entries that are not finite$"):
            certify(H, None, 2)


@pytest.mark.parametrize("H", [np.zeros((0, 0)), sp.csr_array((0, 0))], ids=["dense", "csr"])
def test_empty_H_refused_with_its_message(H):
    with pytest.raises(InputError, match="^H is 0 x 0"):
        certify(H, None, 1)


@pytest.mark.parametrize("make", [
    lambda: (lambda X: (X + X.T) / 2)(np.random.default_rng(34).normal(size=(200, 200))),
    lambda: permuted_blocks([1, 3, 16, 40, 40, 100], 35, dtype=float),
], ids=["dense", "block_csr"])
def test_real_H_certifies_in_its_own_field(make):
    H = make()
    real, cast = certify(H, None, 3), certify(H.astype(complex), None, 3)
    assert real.passed and cast.passed
    assert not np.iscomplexobj(real.U) and not any(np.iscomplexobj(Ti) for Ti in real.T)
    assert np.iscomplexobj(cast.U) and all(np.iscomplexobj(Ti) for Ti in cast.T)
    got, ref = real.to_dict(), cast.to_dict()
    assert got.keys() == ref.keys()
    for key, value in ref.items():
        assert abs(got[key] - value) <= 1e-12, key


# every corruption must fail the certificate, for a dense H and for a
# block-sparse one, and every commutator field must bound the commutators of
# the exact U† N_i U, which the tests below form densely

def random_tridiagonal(d, seed, field):
    """A CSR Hermitian tridiagonal H with no zero off-diagonal, of random phases when complex."""
    rng = np.random.default_rng(seed)
    e = rng.uniform(0.5, 1.5, d - 1) * rng.choice([-1.0, 1.0], d - 1)
    if field is complex:
        e = e * np.exp(2j * np.pi * rng.uniform(size=d - 1))
    return sp.csr_array(sp.diags([e.conj(), rng.normal(size=d), e], [-1, 0, 1]))


@pytest.mark.parametrize("field", [float, complex], ids=["real", "complex"])
def test_tridiagonal_H_certificate_matches_dense_reference(monkeypatch, field):
    H = random_tridiagonal(80, 38, field)

    def no_eigh(*args, **kwargs):
        raise AssertionError("a tridiagonal H must not be decomposed densely")

    monkeypatch.setattr(intertwiner, "eigendecompose", no_eigh)
    cert = certify(H, None, 3)
    assert cert.passed and isinstance(cert.U, np.ndarray)
    assert np.iscomplexobj(cert.U) is (field is complex)
    dense, basis = H.toarray(), TruncationBasis.build(3, 80)
    w = np.linalg.eigvalsh(dense)
    assert_matches_dense(cert, dense_certificate(dense, cert.U, np.diag(w), basis))


@pytest.mark.parametrize("m", [80, 3], ids=["mrrr", "bisection"])
@pytest.mark.parametrize("field", [float, complex], ids=["real", "complex"])
def test_tridiagonal_eigenpairs_have_small_residuals(field, m):
    H = random_tridiagonal(80, 39, field)
    w, V = intertwiner.eigensolve(H, m, vectors=True)
    dense = H.toarray()
    assert np.abs(w - np.linalg.eigvalsh(dense)[:m]).max() <= 1e-13
    assert np.abs(dense @ V - V * w).max() <= 1e-13
    assert np.abs(V.conj().T @ V - np.eye(m)).max() <= 1e-13
    assert np.abs(w - intertwiner.eigensolve(H, m)).max() <= 1e-13  # values alone


def test_lanczos_eigenpairs_have_small_residuals():
    X = np.random.default_rng(40).normal(size=(60, 60))
    H = sp.csr_array(X + X.T)
    w, V = intertwiner.eigensolve(H, 5, vectors=True)
    assert np.abs(w - np.linalg.eigvalsh(H.toarray())[:5]).max() <= 1e-10
    assert np.abs(H @ V - V * w).max() <= 1e-10


BLOCK_SIZES = {10: [1, 2, 3, 4], 57: [1, 3, 5, 8, 40], 200: [1, 7, 12, 40, 40, 100]}


def certified_case(kind, d, n_modes, seed):
    """H (dense or CSR), its certified U, the diagonal a and the basis."""
    if kind == "dense":
        X = np.random.default_rng(seed).normal(size=(d, 2 * d)).view(complex)
        H = (X + X.conj().T) / 2
    else:
        H = permuted_blocks(BLOCK_SIZES[d], seed)
    a = intertwiner.eigensolve(H, vectors=True)[0]
    cert = certify(H, None, n_modes)
    assert cert.passed and sp.issparse(cert.U) is (kind == "blocks")
    return H, cert.U, a, TruncationBasis.build(n_modes, d)


def on_pattern(H, rng):
    """A real symmetric matrix on H's sparsity pattern: everywhere for a dense H."""
    S = rng.normal(size=H.shape)
    S = (S + S.T) / 2
    return sp.csr_array((H != 0).multiply(S)) if sp.issparse(H) else S


def corrupt(name, H, U, a, basis, rng):
    """(H, U) with one defect; a stays the diagonal certified for the clean pair."""
    kind = sp.csr_array if sp.issparse(U) else np.asarray
    Ud = U.toarray() if sp.issparse(U) else U.copy()
    # rows i and j differ in a and in n_1, and their quantum numbers are not
    # parallel, so mixing them shows in [T_1, H] and in [T_1, T_2]
    n = basis.indices
    i = np.flatnonzero(n[:, 0])[0]
    j = next(k for k in range(a.size) if a[k] != a[i] and n[k, 0] != n[i, 0]
             and (basis.n == 1 or n[i, 0] * n[k, 1] != n[i, 1] * n[k, 0]))
    if name == "scaled_row":
        Ud[3] *= 1 + 1e-4
    elif name == "rotated_rows":  # still unitary
        c, s = np.cos(1e-3), np.sin(1e-3)
        Ud[[i, j]] = [c * Ud[i] + s * Ud[j], c * Ud[j] - s * Ud[i]]
    elif name == "non_unitary_U":  # a shear: G = UU† − I gains the pair (i, j)
        Ud[i] += 1e-4 * Ud[j]
    elif name == "perturbed_H":
        H = H + 1e-6 * on_pattern(H, rng)
    elif name == "non_hermitian_H":
        H = H + 1e-6j * on_pattern(H, rng)  # i S is anti-Hermitian
    return H, kind(Ud)


CORRUPTIONS = ["scaled_row", "rotated_rows", "non_unitary_U", "perturbed_H", "non_hermitian_H"]


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("kind", ["dense", "blocks"])
def test_corrupted_operands_fail_the_certificate(kind, corruption):
    H, U, a, basis = certified_case(kind, 57, 2, 41)
    assert verify_integrability(H, U, basis, A=a).passed
    Hc, Uc = corrupt(corruption, H, U, a, basis, np.random.default_rng(42))
    cert = verify_integrability(Hc, Uc, basis, A=a)
    assert not cert.passed
    gate = commutator_gate(cert, H, basis)
    failed = {
        "scaled_row": cert.unitarity_defect > cert.unitarity_tol,
        "rotated_rows": cert.max_hamiltonian_commutator > gate,
        "non_unitary_U": min(cert.unitarity_defect / cert.unitarity_tol,
                             cert.max_pairwise_commutator / gate) > 1,
        "perturbed_H": cert.intertwining_residual > gate,
        "non_hermitian_H": cert.hermiticity_defect > gate,
    }
    assert failed[corruption]


def rounding_scale(X, Y):
    """‖X‖_F ‖Y‖_F: a dense product XY in double is rounded by about ε times it."""
    return np.linalg.norm(X) * np.linalg.norm(Y)


@pytest.mark.parametrize("n_modes", [1, 2, 3])
@pytest.mark.parametrize("d", [10, 57, 200])
@pytest.mark.parametrize("kind", ["dense", "blocks"])
def test_commutator_fields_bound_the_dense_commutators(kind, d, n_modes):
    """Each field is at least the commutator formed densely in the test.

    The dense commutator is itself rounded, by about ε ‖X‖_F ‖Y‖_F, so each
    comparison allows 64 times that.  A clean pair's commutators lie within
    that allowance on both sides; the test asserts that it stays below 1% of
    the gate, so every commutator large enough to decide ``passed`` is
    compared.
    """
    H, U, a, basis = certified_case(kind, d, n_modes, 43 + d)
    rng = np.random.default_rng(44)
    eps = 64 * np.finfo(float).eps
    for corruption in ["clean", *CORRUPTIONS]:
        Hc, Uc = corrupt(corruption, H, U, a, basis, rng)
        cert = verify_integrability(Hc, Uc, basis, A=a)
        Hd = Hc.toarray() if sp.issparse(Hc) else Hc
        Ud = Uc.toarray() if sp.issparse(Uc) else Uc
        T = [Ud.conj().T @ (basis.indices[:, [i]] * Ud) for i in range(n_modes)]
        for Ti in T:
            ham = np.linalg.norm(Hd @ Ti - Ti @ Hd)
            assert cert.max_hamiltonian_commutator >= ham - eps * rounding_scale(Hd, Ti), corruption
        for i, j in combinations(range(n_modes), 2):
            pair = np.linalg.norm(T[i] @ T[j] - T[j] @ T[i])
            assert cert.max_pairwise_commutator >= pair - eps * rounding_scale(T[i], T[j]), corruption
        assert eps * rounding_scale(T[0], T[-1]) < 1e-2 * commutator_gate(cert, Hd, basis)
        assert cert.passed is (corruption == "clean"), corruption


def test_uniformly_shifted_sequence_passes_and_a_corrupted_row_still_fails():
    """A sequence off by a uniform shift below the isospectrality tolerance
    commutes with every T_i; the commutator bound, taken from the rows'
    Rayleigh quotients, does not charge for it, and the residual against a does."""
    d, shift = 200, 5e-8
    X = np.random.default_rng(1).normal(size=(d, 2 * d)).view(complex)
    H = (X + X.conj().T) / 2
    cert = certify(H, np.linalg.eigvalsh(H) + shift, 3)
    basis = TruncationBasis.build(3, d)
    assert cert.passed
    # as small as for the unshifted sequence, which is about 1e-6 of the gate
    clean = certify(H, None, 3).max_hamiltonian_commutator
    assert cert.max_hamiltonian_commutator <= 2 * clean < 1e-5 * commutator_gate(cert, H, basis)
    assert cert.intertwining_residual == pytest.approx(shift * np.sqrt(d), rel=1e-3)
    U = cert.U.copy()
    U[3] += 1e-4 * np.random.default_rng(2).normal(size=d)
    a = np.linalg.eigvalsh(H) + shift
    bad = verify_integrability(H, U, basis, A=a)
    assert bad.max_hamiltonian_commutator > commutator_gate(bad, H, basis)
    assert not bad.passed


def test_rayleigh_residual_of_a_permutation_is_the_residual(structured):
    """For a permutation U, R = UH − diag(a) U has no real part along U's
    rows, so R_ρ = R and diagonal-H certificates are as before."""
    H, A, basis = structured
    U = sp.csr_array(certify(H, None, 3).U)
    u2 = intertwiner._gram_defect(U)[0]
    r2, rho2 = intertwiner._residual_row_norms(U, sp.csr_array(H), np.diag(A).real, u2)
    assert r2.any() and np.array_equal(rho2, r2)  # R is the 1e-13 imaginary part of H
    levels = np.sort(np.random.default_rng(3).uniform(0.0, 5.0, 40))
    U = certify(sparse_diagonal(levels), None, 2).U
    u2 = intertwiner._gram_defect(U)[0]
    r2, rho2 = intertwiner._residual_row_norms(U, sparse_diagonal(levels), levels, u2)
    assert np.array_equal(rho2, r2) and not r2.any()


def test_zero_modes_are_skipped_and_the_fields_match_all_pairs():
    """At n = 40 on d = 12, only the last 11 number columns are nonzero; the
    certificate of a sheared U equals the one formed over all 40 modes."""
    H, A, basis = random_conjugated(np.arange(1.0, 13.0), 40, 5)
    assert np.count_nonzero(basis.indices.any(axis=0)) == 11
    U = build_unitary(H, np.diag(A))
    U[4] += 1e-4 * U[9]  # G = UU† − I gains the pair (4, 9)
    cert = verify_integrability(H, U, basis, A=np.diag(A))
    ref = dense_certificate(H, U, A, basis)
    assert ref["max_pairwise_commutator"] > 0 and not cert.passed
    assert_matches_dense(cert, ref)


@pytest.mark.parametrize("case", ["diagonal", "dense"])
def test_zero_modes_share_one_read_only_zero(case):
    """Every mode whose number column is all zero gets one shared, read-only
    zero of U's kind; every other T_i is U† N_i U."""
    if case == "diagonal":  # 12 levels on 1000 modes: a CSR permutation U
        H, n_modes = sparse_diagonal(np.arange(12.0)), 1000
    else:  # a dense d = 8 H on 20 modes
        X = np.random.default_rng(7).normal(size=(8, 16)).view(complex)
        H, n_modes = (X + X.conj().T) / 2, 20
    cert = certify(H, None, n_modes)
    assert sp.issparse(cert.U) == (case == "diagonal")
    basis = TruncationBasis.build(n_modes, cert.dim)
    zero = [T for T, col in zip(cert.T, basis.indices.T) if not col.any()]
    assert len(zero) > n_modes // 2 and all(T is zero[0] for T in zero)
    Z = zero[0]
    if sp.issparse(Z):
        assert Z.format == "csr" and Z.shape == (cert.dim, cert.dim) and Z.nnz == 0
        assert not any(part.flags.writeable for part in (Z.data, Z.indices, Z.indptr))
    else:
        assert not Z.any() and not Z.flags.writeable and Z.dtype == cert.U.dtype
        with pytest.raises(ValueError):
            Z[0, 0] = 1.0
    U = cert.U.toarray() if sp.issparse(cert.U) else cert.U
    for T, col in zip(cert.T, basis.indices.T):
        if col.any():
            assert sp.issparse(T) == sp.issparse(cert.U)
            T = T.toarray() if sp.issparse(T) else T
            assert np.abs(T - U.conj().T @ np.diag(col.astype(float)) @ U).max() <= 1e-13


def test_verification_reads_a_non_canonical_csr_H_without_writing_it():
    # Hermitian [[2, 1, 1j], [1, 3, 1], [-1j, 1, 4]], each row's columns
    # descending and (0, 0) stored as 3 - 1
    H = sp.csr_array(
        ([1j, 1.0, 3.0, -1.0, 1.0, 3.0, 1.0, 4.0, 1.0, -1j], [2, 1, 0, 0, 2, 1, 0, 2, 1, 0],
         [0, 4, 7, 10]),
        shape=(3, 3),
    )
    assert not H.has_canonical_format
    before = [part.tobytes() for part in (H.data, H.indices, H.indptr)]
    cert = certify(H, None, 2)
    assert cert.passed
    verify_integrability(H, cert.U, TruncationBasis.build(2, 3), np.linalg.eigvalsh(H.toarray()))
    assert [part.tobytes() for part in (H.data, H.indices, H.indptr)] == before


@pytest.mark.parametrize("kind", ["dense", "csr-diagonal"])
def test_certify_reads_H_twice_through_hermitian_defect(monkeypatch, kind):
    X = np.random.default_rng(26).normal(size=(300, 300))
    H = (X + X.T) / 2 if kind == "dense" else sparse_diagonal(X[0])
    measure, seen = fockspace.hermitian_defect, []

    def counted(M):
        seen.append(M)
        return measure(M)

    for module in (fockspace, intertwiner):
        monkeypatch.setattr(module, "hermitian_defect", counted)
    assert certify(H, None, 2).passed
    # once to choose the eigensolver, once in verification; A's diagonal is real
    assert len(seen) == 2
    assert all(np.shares_memory(M.data if sp.issparse(M) else M, H.data if sp.issparse(H) else H)
               for M in seen)
    assert not hasattr(intertwiner, "_frob")


@pytest.mark.parametrize("call, message", [
    (lambda basis: build_unitary(np.eye(3), [1.0, np.nan, 1.0]),
     "A has entries that are not finite"),
    (lambda basis: intertwiner.eigensolve(np.zeros((2, 3))),
     "H must be a square matrix, got shape (2, 3)"),
    (lambda basis: first_integrals(np.eye(4), basis),
     "unitary dimension (4, 4) does not match basis size 3"),
    (lambda basis: verify_integrability(np.eye(3), np.eye(4), basis, np.arange(3.0)),
     "H, U and the basis must share the Hamiltonian's dimension"),
    (lambda basis: verify_integrability(np.eye(3), np.eye(3), basis, np.arange(4.0)),
     "A has dimension 4, the Hamiltonian 3"),
], ids=["A_not_finite", "H_not_square", "U_not_basis_size", "U_not_H_size", "A_not_H_size"])
def test_malformed_input_raises_its_message(call, message):
    with pytest.raises(InputError) as info:
        call(TruncationBasis.build(2, 3))
    assert str(info.value) == message
