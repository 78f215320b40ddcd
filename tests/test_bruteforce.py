import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bolext.bruteforce import (canonical_solutions, contract_mod,
                               require_int64_headroom, rref_transform)
from bolext.errors import UnsupportedEnumerationError
from bolext.exactlin import Matrix, PrimeField


def _oracle(a, b, p):
    """(consistent, solution residues) per right-hand side via Matrix.solve."""
    field = PrimeField(p)
    mat = Matrix.from_int_rows(field, a.tolist())
    out = []
    for row in b:
        sol = mat.solve(tuple(field.scalar(int(v)) for v in row))
        out.append((sol is not None,
                    None if sol is None else [int(v.value) for v in sol]))
    return mat.rank(), out


def _check_against_oracle(a, b, p):
    t, rank, pivots = rref_transform(a, p)
    consistent, x = canonical_solutions(t, rank, pivots, a.shape[1], b, p)
    want_rank, want = _oracle(a, b, p)
    assert rank == want_rank == len(pivots)
    assert (t @ a % p)[rank:].sum() == 0
    for k, (ok, sol) in enumerate(want):
        assert bool(consistent[k]) == ok
        if ok:
            assert x[k].tolist() == sol
    return consistent


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_residue_solver_matches_matrix_solve(data):
    p = data.draw(st.sampled_from([5, 7, 1_000_003]))
    rows = data.draw(st.integers(1, 12))
    cols = data.draw(st.integers(1, 8))
    rank = data.draw(st.integers(0, min(rows, cols)))

    def residues(shape):
        return data.draw(arrays(np.int64, shape, elements=st.integers(0, p - 1)))

    # a product of a rows x rank and a rank x cols factor: rank-deficient
    # whenever rank < min(rows, cols)
    a = residues((rows, rank)) @ residues((rank, cols)) % p
    consistent_rhs = residues((3, cols)) @ a.T % p
    b = np.concatenate([consistent_rhs, residues((3, rows))])
    consistent = _check_against_oracle(a, b, p)
    assert consistent[:3].all()


def test_residue_solver_rank_deficient_and_inconsistent():
    a = np.array([[1, 2], [2, 4], [0, 0]])
    b = np.array([[1, 2, 0], [1, 0, 0], [0, 0, 3]])
    consistent = _check_against_oracle(a, b, 5)
    assert consistent.tolist() == [True, False, False]


def test_int64_headroom_guard():
    require_int64_headroom(12, 2, 1_000_003)
    with pytest.raises(UnsupportedEnumerationError):
        require_int64_headroom(2, 2, 2 ** 32 + 15)
    big = 3_037_000_507  # the least prime with (p - 1)^2 >= 2^63
    with pytest.raises(UnsupportedEnumerationError):
        rref_transform(np.eye(2, dtype=np.int64), big)
    x = np.full((2, 3), 4)
    assert contract_mod("ij,jk->ik", 5, x, x.T).tolist() == [[3, 3], [3, 3]]
    with pytest.raises(UnsupportedEnumerationError):
        contract_mod("ij,jk,kl->il", 2 ** 31 - 1, x, x.T, x)
