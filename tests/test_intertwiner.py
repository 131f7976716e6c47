import numpy as np
import pytest
from scipy.stats import unitary_group

from spectralforge.errors import InputError, NotIsospectralError
from spectralforge.fockspace import (
    TruncationBasis,
    eigendecompose,
    number_operator,
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
    U = build_unitary(D, D, tol=0.0)
    assert np.allclose(np.abs(U), np.eye(2))


def test_build_unitary_swap_case():
    H = np.array([[0, 1], [1, 0]], dtype=complex)
    A = np.diag([-1.0, 1.0]).astype(complex)
    U = build_unitary(H, A, tol=1e-12)
    s = 1 / np.sqrt(2)
    # hand eigendecomposition fixes U up to column sign
    assert np.allclose(np.abs(U), [[s, s], [s, s]])
    assert np.abs(U @ H - A @ U).max() < 1e-12


def test_build_unitary_random_conjugation():
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    Q = unitary_group.rvs(3, random_state=0)
    H = Q @ A @ Q.conj().T
    H = (H + H.conj().T) / 2
    U = build_unitary(H, A)
    assert np.linalg.norm(U @ H - A @ U, "fro") < 1e-9


def test_build_unitary_rejects_mismatched_spectra():
    with pytest.raises(NotIsospectralError) as excinfo:
        build_unitary(np.diag([1.0, 2.0]).astype(complex),
                      np.diag([1.0, 3.0]).astype(complex), tol=0.5)
    assert excinfo.value.report is not None
    assert not excinfo.value.report.matched


def test_build_unitary_rejects_dimension_mismatch():
    with pytest.raises(InputError):
        build_unitary(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


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
    cert = verify_integrability(A, U, first_integrals(U, basis), basis, A=A)
    assert cert.passed
    assert cert.max_pairwise_commutator == 0.0
    assert cert.max_hamiltonian_commutator == 0.0
    assert cert.independence


def test_verify_with_degenerate_levels():
    # repeated eigenvalues stay separated by their quantum numbers
    H, A, basis = random_conjugated([7.0, 7.0, 5.0, 5.0, 5.0, 1.0], 2, 3)
    U = build_unitary(H, A)
    cert = verify_integrability(H, U, first_integrals(U, basis), basis, A=A)
    assert cert.passed
    assert cert.independence


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
    assert isinstance(cert.to_json(), str)


def test_first_integrals_match_dense_conjugation():
    basis = TruncationBasis.build(3, 64)
    U = unitary_group.rvs(64, random_state=11)
    for i, Ti in enumerate(first_integrals(U, basis), start=1):
        dense = U.conj().T @ number_operator(basis, i) @ U
        assert np.abs(Ti - dense).max() < 1e-12


def test_certificate_fails_on_anti_hermitian_first_integral():
    H, A, basis = random_conjugated(np.arange(1.0, 21.0), 2, 8)
    U = build_unitary(H, A)
    T = first_integrals(U, basis)
    clean = verify_integrability(H, U, T, basis, A=A)
    assert clean.passed
    assert clean.hermiticity_defect < 1e-12
    S = np.random.default_rng(0).normal(size=(20, 20))
    T[0] = T[0] + 1e-6j * (S + S.T)  # small anti-Hermitian perturbation
    cert = verify_integrability(H, U, T, basis, A=A)
    assert cert.hermiticity_defect > 1e-5
    assert not cert.passed


def test_certificate_fails_on_corrupted_row_of_unitary():
    H, A, basis = random_conjugated(np.arange(1.0, 21.0), 2, 9)
    U = build_unitary(H, A)
    U[3] += 1e-4 * np.random.default_rng(1).normal(size=20)
    cert = verify_integrability(H, U, first_integrals(U, basis), basis, A=A)
    assert cert.unitarity_defect > 1e-5
    assert cert.intertwining_residual > 1e-4
    # the first integrals stop commuting with H, and the halved commutators see it
    tol = cert.commutator_tol * (np.linalg.norm(H) + sum(np.linalg.norm(T) for T in cert.T))
    assert cert.max_hamiltonian_commutator > tol
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
    H, A, basis = random_conjugated([4.0, 1.0, 3.0, 2.0], 2, 13)
    a = np.diag(A)
    U = build_unitary(H, A)
    assert np.array_equal(build_unitary(H, a), U)
    T = first_integrals(U, basis)
    assert (verify_integrability(H, U, T, basis, A=a).to_dict()
            == verify_integrability(H, U, T, basis, A=A).to_dict())
