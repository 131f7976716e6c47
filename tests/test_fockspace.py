import json

import numpy as np
import pytest
import scipy.sparse as sp

from spectralforge.errors import InputError
from spectralforge.fockspace import (
    TruncationBasis,
    dimension_cap,
    eigendecompose,
    hermitian_defect,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    number_operator,
    sparse_diagonal,
    synthesize,
)


def test_number_operator_examples():
    b1 = TruncationBasis.build(1, 3)
    assert np.array_equal(np.diag(number_operator(b1, 1)).real, [0, 1, 2])
    b2 = TruncationBasis.build(2, 3)  # (0,0), (0,1), (1,0)
    assert np.array_equal(np.diag(number_operator(b2, 1)).real, [0, 0, 1])
    assert np.array_equal(np.diag(number_operator(b2, 2)).real, [0, 1, 0])


def test_number_operator_mode_range():
    b = TruncationBasis.build(2, 4)
    with pytest.raises(InputError):
        number_operator(b, 0)
    with pytest.raises(InputError):
        number_operator(b, 3)


def test_number_operators_commute_exactly():
    b = TruncationBasis.build(3, 30)
    ops = [number_operator(b, i) for i in (1, 2, 3)]
    for Ni in ops:
        for Nj in ops:
            assert np.abs(Ni @ Nj - Nj @ Ni).max() == 0.0


def test_synthesize_examples():
    b1 = TruncationBasis.build(1, 3)
    assert np.array_equal(np.diag(synthesize([5, 7, 7], b1)).real, [5, 7, 7])
    b2 = TruncationBasis.build(2, 3)
    A = synthesize([5, 7, 9], b2)
    assert np.array_equal(np.diag(A).real, [5, 7, 9])
    b0 = TruncationBasis.build(3, 1)
    assert synthesize([42.0], b0).shape == (1, 1)


def test_synthesize_commutes_with_number_operators():
    b = TruncationBasis.build(2, 20)
    A = synthesize(np.random.default_rng(0).normal(size=20), b)
    for i in (1, 2):
        N = number_operator(b, i)
        assert np.abs(A @ N - N @ A).max() == 0.0


def test_synthesize_spectrum_is_exact_multiset():
    rng = np.random.default_rng(1)
    seq = rng.integers(0, 5, size=50).astype(float)
    b = TruncationBasis.build(3, 40)
    A = synthesize(seq, b)
    assert sorted(np.diag(A).real) == sorted(seq[:40])


def test_synthesize_requires_enough_energies():
    b = TruncationBasis.build(1, 5)
    with pytest.raises(InputError):
        synthesize([1.0, 2.0], b)


def test_eigendecompose_examples():
    w, _ = eigendecompose(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1, 2, 3])
    w2, _ = eigendecompose(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w2, [-1, 1])


def test_eigendecompose_reconstruction():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    M = (M + M.conj().T) / 2
    w, V = eigendecompose(M)
    rel = np.linalg.norm(V @ np.diag(w) @ V.conj().T - M, "fro") / np.linalg.norm(M, "fro")
    assert rel < 1e-10
    assert np.abs(V.conj().T @ V - np.eye(50)).max() <= 1e-10 * 50


def test_eigendecompose_rejects_non_hermitian():
    with pytest.raises(InputError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    back = matrix_from_json(matrix_to_json(M))
    assert np.array_equal(back, M)


def test_matrix_json_bytes_match_17g_round_trip():
    # reference: the former per-element ".17g" round trip, which tolist() equals
    # because ".17g" reproduces every double
    values = np.array([-0.0, 5e-324, 1.0 / 3.0, 1e300, -2.5, 0.1, 1e-310, -1 / 7, 2.0])
    M = np.empty((3, 3), dtype=complex)
    M.real = values.reshape(3, 3)
    M.imag = values[::-1].reshape(3, 3)
    expected = json.dumps(
        {
            "dim": M.shape[0],
            "re": [float(f"{v:.17g}") for v in M.real.ravel()],
            "im": [float(f"{v:.17g}") for v in M.imag.ravel()],
        }
    )
    assert matrix_to_json(M) == expected
    assert "-0.0" in expected and "5e-324" in expected and "1e+300" in expected


def test_matrix_json_validation():
    with pytest.raises(InputError):
        matrix_from_json('{"dim": 2, "re": [1.0], "im": [0.0]}')


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"dim": 2, "re": ["a", 0, 0, 1], "im": [0, 0, 0, 0]}',
        '{"dim": -1, "re": [1], "im": [0]}',
        '{"dim": 2, "re": [[1, 0], [0, 1]], "im": [0, 0, 0, 0]}',
        '{"dim": 2, "re": [NaN, 1, 1, 1], "im": [0, 0, 0, 0]}',
        '{"dim": 2.5, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}',
        '{"dim": true, "re": [1], "im": [0]}',
        '{"dim": "2", "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}',
        '{"dim": 2.5, "rows": [0, 1], "cols": [0, 1], "re": [1, 1], "im": [0, 0]}',
    ],
    ids=["not_json", "non_numeric_entry", "negative_dim", "nested_re", "dense_nan",
         "float_dim", "bool_dim", "string_dim", "sparse_float_dim"],
)
def test_matrix_from_json_rejects_malformed_payload(text):
    with pytest.raises(InputError):
        matrix_from_json(text)


@pytest.mark.parametrize("text", ['{"dim": 0, "re": [], "im": []}',
                                  '{"dim": 0, "rows": [], "cols": [], "re": [], "im": []}'],
                         ids=["dense", "sparse"])
def test_matrix_from_json_refuses_dim_0(text):
    with pytest.raises(InputError, match="matrix JSON dim must be at least 1, got 0"):
        matrix_from_json(text)


# sparse form {dim, rows, cols, re, im}: one list entry per nonzero

def test_sparse_matrix_json_roundtrip_bit_exact():
    values = np.array([-0.5, 5e-324, 1.0 / 3.0, 1e300, -2.5, 0.1, 1e-310, -1 / 7, 2.0])
    rows = np.array([0, 0, 1, 2, 3, 3, 4, 5, 6])
    cols = np.array([6, 1, 1, 0, 5, 3, 4, 2, 6])
    M = sp.csr_array((values + 1j * values[::-1], (rows, cols)), shape=(7, 7))
    text = matrix_to_json(M)
    back = matrix_from_json(text)
    assert sp.issparse(back) and back.format == "csr"
    assert (back != M).nnz == 0
    assert matrix_to_json(back) == text
    data = json.loads(text)
    assert set(data) == {"dim", "rows", "cols", "re", "im"}
    # row-major, and every value as ".17g" prints it
    assert list(zip(data["rows"], data["cols"])) == sorted(zip(rows.tolist(), cols.tolist()))
    assert sorted(data["re"]) == sorted(float(f"{v:.17g}") for v in values)


def test_sparse_matrix_json_holds_nonzeros_only():
    data = json.loads(matrix_to_json(sparse_diagonal([0.0, 2.0, -1.0])))
    assert data == {"dim": 3, "rows": [1, 2], "cols": [1, 2], "re": [2.0, -1.0], "im": [0.0, 0.0]}
    assert np.array_equal(matrix_from_json(json.dumps(data)).toarray(), np.diag([0, 2.0, -1.0]))


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 2, "rows": [0, 2], "cols": [0, 1], "re": [1, 1], "im": [0, 0]}',
        '{"dim": 2, "rows": [0, 1], "cols": [-1, 1], "re": [1, 1], "im": [0, 0]}',
        '{"dim": 2, "rows": [0, 1.0], "cols": [0, 1], "re": [1, 1], "im": [0, 0]}',
        '{"dim": 2, "rows": [0, "1"], "cols": [0, 1], "re": [1, 1], "im": [0, 0]}',
        '{"dim": 2, "rows": [0, true], "cols": [0, 1], "re": [1, 1], "im": [0, 0]}',
        '{"dim": 2, "rows": [1, 1], "cols": [0, 0], "re": [1, 2], "im": [0, 0]}',
        '{"dim": 2, "rows": [0, 1], "cols": [0, 1], "re": [1], "im": [0, 0]}',
        '{"dim": 2, "rows": [0], "cols": [0, 1], "re": [1], "im": [0]}',
        '{"dim": 2, "rows": [0, 1], "cols": [0, 1], "re": [1, NaN], "im": [0, 0]}',
        '{"dim": 2, "rows": [0, 1], "cols": [0, 1], "re": [1, 1], "im": [0, -Infinity]}',
        '{"dim": 2, "rows": [0, 1], "re": [1, 1], "im": [0, 0]}',
        '{"dim": 2, "rows": [0, 99999999999999999999], "cols": [0, 1], "re": [1, 1], "im": [0, 0]}',
    ],
    ids=["row_out_of_range", "negative_col", "float_index", "string_index", "bool_index",
         "repeated_pair", "re_length", "cols_length", "nan_value", "infinite_value",
         "no_cols", "huge_index"],
)
def test_sparse_matrix_json_rejects_malformed_payload(text):
    with pytest.raises(InputError):
        matrix_from_json(text)


def test_matrix_json_with_zero_imaginary_parts_reads_real():
    X = np.random.default_rng(4).normal(size=(5, 5))
    for M in (X + X.T, sp.csr_array(X + X.T)):
        back = matrix_from_json(matrix_to_json(M))
        assert back.dtype == np.float64 and (back != M).sum() == 0
        # the writer still gives "im", so a file's bytes do not change
        assert matrix_to_json(back) == matrix_to_json(M.astype(complex))
    back = matrix_from_json(matrix_to_json(X + 1j * X.T))
    assert back.dtype == np.complex128 and np.array_equal(back, X + 1j * X.T)


def non_canonical_csr(M):
    """M as a CSR array with each row's columns descending and every entry
    stored twice, as M_kl + 1 and -1: duplicates that cancel.  Exact for an
    M of small dyadic entries, in whatever order the duplicates are summed."""
    d = M.shape[0]
    data = np.concatenate([M[:, ::-1] + 1, -np.ones_like(M)], axis=1).ravel()
    cols = np.tile(np.arange(2 * d)[::-1] % d, d)
    S = sp.csr_array((data, cols, np.arange(0, 2 * d * d + 1, 2 * d)), shape=(d, d))
    assert not S.has_canonical_format
    return S


def test_is_hermitian_dense_or_sparse():
    X = np.random.default_rng(5).normal(size=(6, 6)) + 0j
    H = X + X.conj().T
    for M in (H, sp.csr_array(H)):
        assert is_hermitian(M)
    H[0, 1] += 1e-6j
    for M in (H, sp.csr_array(H)):
        assert not is_hermitian(M)
    assert not is_hermitian(sp.csr_array(np.ones((2, 3))))
    # duplicates that cancel, 1001 - 1000 at (0, 0): the scale is 1, so a
    # defect of 1e-9 is not within tolerance; M's buffers are only read
    M = sp.csr_array(([1001.0, -1000.0, 1e-9, 1.0], [0, 0, 1, 1], [0, 3, 4]), shape=(2, 2))
    before = [part.tobytes() for part in (M.data, M.indices, M.indptr)]
    assert not is_hermitian(M)
    assert [part.tobytes() for part in (M.data, M.indices, M.indptr)] == before
    assert is_hermitian(non_canonical_csr(np.round(64 * (X + X.conj().T)) / 64))


@pytest.mark.parametrize("d", [1, 127, 129, 300])
@pytest.mark.parametrize("field", [float, complex])
def test_hermitian_defect_is_the_direct_formulas(d, field):
    rng = np.random.default_rng(d)
    M = rng.normal(size=(d, d))
    if field is complex:
        M = M + 1j * rng.normal(size=(d, d))
    M = np.round(64 * M) / 64  # dyadic, so non_canonical_csr(M) sums to M exactly
    D = M - M.conj().T
    for given in (M, sp.csr_array(M), non_canonical_csr(M)):
        defect_max, defect_frob, entry_max, entry_frob = hermitian_defect(given)
        assert defect_max == np.abs(D).max()
        assert entry_max == np.abs(M).max()
        assert defect_frob == pytest.approx(np.linalg.norm(D, "fro"), rel=1e-13, abs=0.0)
        assert entry_frob == pytest.approx(np.linalg.norm(M, "fro"), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("k, l", [(0, 0), (5, 200), (299, 299)])
def test_a_dense_nan_is_not_hermitian(k, l):
    # the NaN lies in the first, an off-diagonal and the last tile
    H = np.eye(300, dtype=complex)
    H[k, l] = np.nan
    assert not is_hermitian(H)
    assert np.isnan(hermitian_defect(H)).all()


@pytest.mark.parametrize("cap", [0, -5])
def test_given_and_environment_caps_are_refused_alike(monkeypatch, cap):
    with pytest.raises(InputError, match=f"^cap must be positive, got {cap}$"):
        dimension_cap(cap)
    monkeypatch.setenv("SPECTRAL_FORGE_CAP", str(cap))
    with pytest.raises(InputError, match=f"^SPECTRAL_FORGE_CAP must be positive, got {cap}$"):
        dimension_cap()
    assert dimension_cap(7) == 7  # a given cap takes precedence over the environment


@pytest.mark.parametrize("call, message", [
    (lambda: dimension_cap(), "SPECTRAL_FORGE_CAP must be an integer, got '2.5'"),
    (lambda: matrix_to_json(np.zeros((2, 3))), "matrix must be square"),
    (lambda: matrix_to_json(np.zeros(4)), "matrix must be square"),
    (lambda: matrix_to_json(sp.csr_array((2, 3))), "matrix must be square"),
], ids=["cap_not_integer", "dense_not_square", "dense_1d", "sparse_not_square"])
def test_malformed_input_raises_its_message(monkeypatch, call, message):
    monkeypatch.setenv("SPECTRAL_FORGE_CAP", "2.5")
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
