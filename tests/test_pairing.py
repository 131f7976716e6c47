import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralforge import pairing
from spectralforge.errors import CapacityError, InputError

GRADED_LEX_N2_PREFIX = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_encode_examples():
    assert pairing.encode((0, 0)) == 0
    assert pairing.encode((7,)) == 7
    # brute-force enumeration of all |I| <= 2 multi-indices fixes rank 4
    assert pairing.encode((1, 1)) == 4


def test_decode_examples():
    assert pairing.decode(0, 3) == (0, 0, 0)
    assert pairing.decode(4, 2) == (1, 1)
    assert pairing.decode(5, 2) == (2, 0)


def test_enumerate_first_examples():
    assert pairing.enumerate_first(1, 2).tolist() == [[0, 0]]
    assert pairing.enumerate_first(3, 2).tolist() == [[0, 0], [0, 1], [1, 0]]
    assert pairing.enumerate_first(2, 1).tolist() == [[0], [1]]


def test_enumeration_matches_brute_force_prefix():
    assert [tuple(r) for r in pairing.enumerate_first(6, 2)] == GRADED_LEX_N2_PREFIX


@pytest.mark.parametrize("n", [16, 20, 40])
def test_enumerate_first_beyond_int64_rank_range(n):
    # encode_many refuses these n, whose falling products overflow int64; the table needs none
    idx = pairing.enumerate_first(200, n)
    assert [tuple(row) for row in idx.tolist()] == [pairing.decode(k, n) for k in range(200)]


def test_enumerate_first_of_many_modes_builds_only_its_rows():
    # rank k < d has no entry before column n - d + 1, so n = 5000 costs O(d n)
    idx = pairing.enumerate_first(3, 5000)
    assert idx.shape == (3, 5000) and idx.sum() == 2
    assert idx[1, -1] == 1 and idx[2, -2] == 1
    with pytest.raises(CapacityError):
        pairing.enumerate_first(3, 10**19)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_roundtrip_rank_to_index(n):
    for k in list(range(200)) + [10**3, 10**4, 10**5]:
        assert pairing.encode(pairing.decode(k, n)) == k


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4)
)
@settings(max_examples=300, deadline=None)
def test_roundtrip_index_to_rank(entries):
    I = tuple(entries)
    assert pairing.decode(pairing.encode(I), len(I)) == I


def test_graded_order_monotone_in_degree():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        I = tuple(int(v) for v in rng.integers(0, 15, n))
        J = tuple(int(v) for v in rng.integers(0, 15, n))
        if sum(I) < sum(J):
            assert pairing.encode(I) < pairing.encode(J)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerated_prefix_ranks_distinct(n):
    idx = pairing.enumerate_first(10**5, n)
    ranks = pairing.encode_many(idx)
    assert np.array_equal(ranks, np.arange(10**5))


def test_encode_many_agrees_with_scalar():
    idx = pairing.enumerate_first(500, 3)
    ranks = pairing.encode_many(idx)
    for k in (0, 1, 17, 499):
        assert pairing.encode(tuple(idx[k])) == ranks[k]


def test_invalid_inputs_rejected():
    with pytest.raises(InputError):
        pairing.encode((1, -1))
    with pytest.raises(InputError):
        pairing.encode(())
    with pytest.raises(InputError):
        pairing.decode(-1, 2)
    with pytest.raises(InputError):
        pairing.decode(3, 0)
    with pytest.raises(InputError):
        pairing.enumerate_first(0, 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: pairing.enumerate_first(3, 0), InputError, "dimension must be >= 1"),
    (lambda: pairing.encode_many(np.zeros(3)), InputError,
     "expected a (d, n) array of multi-indices"),
    (lambda: pairing.encode_many(np.zeros((3, 0))), InputError,
     "expected a (d, n) array of multi-indices"),
    (lambda: pairing.encode_many([[0, -1]]), InputError, "multi-index entries must be >= 0"),
    (lambda: pairing.encode_many([[3_000_000, 0, 0]]), CapacityError,
     "multi-index degree too large for int64 rank arithmetic"),
], ids=["no_modes", "one_dimensional", "no_columns", "negative_entry", "degree_overflow"])
def test_malformed_input_raises_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
