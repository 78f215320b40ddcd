import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bolext.errors import ContainmentError, UnsupportedEnumerationError, UsageError
from bolext.exactlin import (Matrix, ModP, PrimeField, RATIONALS, Subspace,
                             enumerate_vectors, kernel_basis, quotient_dim,
                             rref, solve_linear)


def test_prime_field_restrictions():
    PrimeField(5)
    PrimeField(7)
    with pytest.raises(UsageError):
        PrimeField(4)
    with pytest.raises(UsageError):
        PrimeField(2)
    with pytest.raises(UsageError):
        PrimeField(3)


def test_prime_field_rejects_unprovable_moduli():
    # the least strong pseudoprime to every Miller-Rabin base in use
    # (399165290221 * 798330580441), which the test alone would accept
    psi12 = 318_665_857_834_031_151_167_461
    assert PrimeField(psi12 - 20).p == psi12 - 20  # the largest prime below
    for p in (psi12, 2 ** 89 - 1):
        with pytest.raises(UsageError, match="too large"):
            PrimeField(p)


def test_modp_arithmetic():
    a, b = ModP(3, 5), ModP(4, 5)
    assert a + b == 2
    assert a - b == 4
    assert a * b == 2
    assert a / b == ModP(2, 5)
    assert -a == 2
    assert bool(ModP(0, 5)) is False
    with pytest.raises(ZeroDivisionError):
        a / ModP(0, 5)
    with pytest.raises(UsageError):
        a + ModP(1, 7)


def test_rref_examples(Q, F5):
    red, rank = rref(Matrix.identity(Q, 2))
    assert red == Matrix.identity(Q, 2) and rank == 2
    red, rank = rref(Matrix.from_int_rows(Q, [[2, 4], [1, 2]]))
    assert red == Matrix.from_int_rows(Q, [[1, 2], [0, 0]]) and rank == 1
    red, rank = rref(Matrix.from_int_rows(F5, [[2]]))
    assert red == Matrix.from_int_rows(F5, [[1]]) and rank == 1


def test_kernel_examples(Q):
    k = kernel_basis(Matrix.from_int_rows(Q, [[1, 2]]))
    assert k.dim == 1 and k.contains((Fraction(-2), Fraction(1)))
    assert kernel_basis(Matrix.identity(Q, 3)).dim == 0
    assert kernel_basis(Matrix.zeros(Q, 2, 3)) == Subspace.full(Q, 3)


def test_solve_examples(Q, F5):
    x = solve_linear(Matrix.from_int_rows(F5, [[2]]), (F5.scalar(1),))
    assert x == (F5.scalar(3),)
    none = solve_linear(Matrix.from_int_rows(Q, [[1, 0], [0, 0]]),
                        (Fraction(0), Fraction(1)))
    assert none is None
    b = (Fraction(7), Fraction(-2))
    assert solve_linear(Matrix.identity(Q, 2), b) == b
    with pytest.raises(UsageError):
        solve_linear(Matrix.identity(Q, 2), (Fraction(1),))


def test_quotient_dim(Q):
    z = Subspace.full(Q, 3)
    b = Subspace.from_vectors(Q, 3, [(Fraction(1), Fraction(0), Fraction(0))])
    assert quotient_dim(z, b) == 2
    assert quotient_dim(z, z) == 0
    assert quotient_dim(Subspace.full(Q, 5), Subspace.zero(Q, 5)) == 5
    inside = Subspace.from_vectors(Q, 3, [(Fraction(0), Fraction(1), Fraction(1))])
    small = Subspace.from_vectors(Q, 3, [(Fraction(1), Fraction(1), Fraction(0))])
    with pytest.raises(ContainmentError):
        quotient_dim(inside, small)


def test_enumerate_vectors(Q, F5):
    vs = list(enumerate_vectors(F5, 1))
    assert len(vs) == 5
    vs = list(enumerate_vectors(F5, 2))
    assert len(vs) == 25 and vs[0] == (F5.zero, F5.zero)
    assert vs[1] == (F5.zero, F5.one)
    with pytest.raises(UnsupportedEnumerationError):
        next(enumerate_vectors(Q, 1))


def _random_matrix(field, rows, cols, draw):
    return Matrix(field, [[field.scalar(draw()) for _ in range(cols)]
                          for _ in range(rows)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rref_idempotent_and_rank_nullity(data):
    field = data.draw(st.sampled_from([RATIONALS, PrimeField(5), PrimeField(7)]))
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    m = _random_matrix(field, rows, cols,
                       lambda: data.draw(st.integers(-6, 6)))
    red, rank = rref(m)
    red2, rank2 = rref(red)
    assert red2 == red and rank2 == rank
    assert rank + kernel_basis(m).dim == cols


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_iff_rank(data):
    field = data.draw(st.sampled_from([RATIONALS, PrimeField(5)]))
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    a = _random_matrix(field, rows, cols, lambda: data.draw(st.integers(-4, 4)))
    b = tuple(field.scalar(data.draw(st.integers(-4, 4))) for _ in range(rows))
    aug = a.hstack(Matrix.from_cols(field, [b], rows=rows))
    x = a.solve(b)
    if x is None:
        assert aug.rank() == a.rank() + 1
    else:
        assert a.apply(x) == b
        assert aug.rank() == a.rank()


@settings(max_examples=40, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 40), st.integers(-40, 40),
       st.integers(1, 40))
def test_exact_rational_arithmetic(a, b, c, d):
    x = Fraction(a, b)
    y = Fraction(c, d)
    assert (x + y) - y == x
    assert (x + y) == (y + x)
    # lowest terms, positive denominator
    s = x + y
    from math import gcd
    assert s.denominator > 0 and gcd(s.numerator, s.denominator) == 1


def test_subspace_canonical_equality(Q):
    s1 = Subspace.from_vectors(Q, 2, [(Fraction(-2), Fraction(1))])
    s2 = Subspace.from_vectors(Q, 2, [(Fraction(4), Fraction(-2))])
    assert s1 == s2 and s1.basis == s2.basis
