import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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


def _sparse_matrix(data, field, rows, cols):
    """Mostly zero entries, some rows and columns cleared; or the zero matrix,
    or the identity (square shapes)."""
    kind = data.draw(st.sampled_from(["sparse", "sparse", "sparse", "zero", "identity"]))
    if kind == "zero":
        return Matrix.zeros(field, rows, cols)
    if kind == "identity" and rows == cols:
        return Matrix.identity(field, rows)
    values = [0] * 6 + [1, -1, 2, 3]
    if not field.is_prime_field:
        values += [Fraction(1, 2), Fraction(-2, 3)]
    entries = [[field.scalar(data.draw(st.sampled_from(values))) for _ in range(cols)]
               for _ in range(rows)]
    for r in data.draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        entries[r] = [field.zero] * cols
    for c in data.draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in entries:
            row[c] = field.zero
    return Matrix(field, entries)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_kernels_match_dense_oracle(data):
    # exact scalars are canonical: skipping zero factors must give the dense
    # loops' results, entry for entry and in the same scalar types
    field = data.draw(st.sampled_from([RATIONALS, PrimeField(5), PrimeField(7)]))
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = _sparse_matrix(data, field, r, k), _sparse_matrix(data, field, k, c)
    sq = _sparse_matrix(data, field, k, k)
    v = _sparse_matrix(data, field, 1, k).row(0)
    rhs = (a.apply(_sparse_matrix(data, field, 1, k).row(0))
           if data.draw(st.booleans()) else _sparse_matrix(data, field, 1, r).row(0))

    def results():
        return (a * b, a.apply(v), a.rref(), a.rank(), a.solve(rhs), a.kernel(),
                sq.inverse(), sq.is_invertible(), Subspace.from_vectors(field, k, a.entries))

    got = results()
    with oracles.dense_kernels():
        want = results()
    assert got == want
    assert repr(got) == repr(want)
    assert all(type(x) is type(field.zero) for row in got[0].entries for x in row)


@pytest.mark.parametrize("r, k, c", [(2, 0, 3), (0, 2, 3), (2, 3, 0), (0, 0, 0)])
def test_empty_products_match_dense_oracle(Q, r, k, c):
    a, b = Matrix.zeros(Q, r, k), Matrix.zeros(Q, k, c)
    got = (a * b, a.apply((Q.zero,) * k), a.rref())
    with oracles.dense_kernels():
        want = (a * b, a.apply((Q.zero,) * k), a.rref())
    assert got == want  # Matrix equality compares the shapes too
    # an r x k by k x c product is the r x c zero matrix, k = 0 included
    assert got[0] == Matrix.zeros(Q, r, c) and (got[0].rows, got[0].cols) == (r, c)


def test_sparse_kernels_keep_mixed_moduli_errors(F5, F7):
    # a dense product multiplies every zero residue, so a vector or matrix of
    # another modulus is refused even where all its entries are zero
    m = Matrix.identity(F5, 2)
    with pytest.raises(UsageError, match="mixed moduli"):
        m.apply((F7.zero, F7.zero))
    stray = Matrix(F5, [[F5.one, F7.zero], [F5.zero, F5.one]])
    for call in (lambda: stray.rref(), lambda: m * stray, lambda: stray * m,
                 lambda: stray.apply((F5.zero, F5.zero))):
        with pytest.raises(UsageError, match="mixed moduli"):
            call()


def test_rational_zero_and_one_are_shared(Q, F5):
    assert Q.zero is Q.zero and Q.one is Q.one
    assert (Q.zero, Q.one) == (Fraction(0), Fraction(1))
    assert F5.zero is F5.zero and F5.one == ModP(1, 5)


@pytest.mark.parametrize("token", ["1e10000000", "1E5", "-2.5e-3", " 7e1 ", "1_0e2",
                                   ".5e100000000"])
def test_rational_parser_refuses_exponent_forms(Q, token):
    with pytest.raises(ValueError, match="exponent forms"):
        Q.parse_scalar(token)


@pytest.mark.parametrize("token, value", [
    ("3", Fraction(3)), ("-3/6", Fraction(-1, 2)), ("0.25", Fraction(1, 4)),
    (" 2 ", Fraction(2)), ("1_000", Fraction(1000)), ("٣", Fraction(3)), (7, Fraction(7))])
def test_rational_parser_keeps_integer_fraction_and_decimal_forms(Q, token, value):
    got = Q.parse_scalar(token)
    assert got == value and type(got) is Fraction
    assert got == Fraction(token)
