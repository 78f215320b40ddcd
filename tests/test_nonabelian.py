import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bolext.bol import BolAlgebra, h3, s2, validate_bol, z1, z2, z3, zero_algebra
from bolext.cohomology import Cochain2, Cochain3
from bolext.core import Status, Variant
from bolext.errors import UsageError
from bolext.exactlin import RATIONALS, Matrix, PrimeField
from bolext.extensions import (extract_cocycle, make_section,
                               semidirect_extension, theta_map, as_extension)
from bolext.identities import residues
from bolext.nonabelian import (NonAbelianCocycle, build_extension_algebra,
                               cocycles_equivalent_via, solve_equivalence,
                               validate_nab_cocycle)
from bolext.representation import validate_representation

from test_cohomology import _mu_squared_rep
from test_identities import _grid, _random_actions


def _nu1(field, base, fiber):
    nu = Cochain2.from_pairs(2, 1, field, {(0, 1): (field.one,)})
    z = NonAbelianCocycle.zero(base, fiber)
    return NonAbelianCocycle(base, fiber, nu, z.omega, z.mu, z.theta, z.dd)


def test_validate_examples(F5):
    base, fiber = z2(F5), zero_algebra(F5, 1)
    assert validate_nab_cocycle(NonAbelianCocycle.zero(base, fiber)).valid
    assert validate_nab_cocycle(_nu1(F5, base, fiber)).valid
    one = Matrix.identity(F5, 1)
    z = Matrix.zeros(F5, 1, 1)
    c = NonAbelianCocycle(base, fiber, Cochain2.zero(2, 1, F5),
                          Cochain3.zero(2, 1, F5), (z, z),
                          ((z, z), (z, z)), ((z, one), (-one, z)))
    rep = validate_nab_cocycle(c)
    assert not rep.valid and rep.tags() == ["d-theta"]


def test_build_examples(F5):
    base, fiber = z2(F5), zero_algebra(F5, 1)
    assert build_extension_algebra(NonAbelianCocycle.zero(base, fiber)) == z3(F5)
    assert build_extension_algebra(_nu1(F5, base, fiber)) == h3(F5)


def test_build_zero_cocycle_with_actions_is_semidirect(F5):
    from bolext.representation import r_s2, semidirect_product
    a, r = s2(F5), r_s2(F5)
    fiber = zero_algebra(F5, 1)
    c = NonAbelianCocycle(a, fiber, Cochain2.zero(2, 1, F5),
                          Cochain3.zero(2, 1, F5), r.mu, r.theta, r.dd)
    assert build_extension_algebra(c) == semidirect_product(a, r)


def _random_cocycle(field, rng, base, fiber, skew=False):
    """Random cocycle data, not a valid cocycle in general; nu and omega
    skew when asked."""
    n, m = base.dim, fiber.dim
    if skew:
        nu = Cochain2.from_pairs(n, m, field, {
            (i, j): _grid(field, rng, (m,)) for i in range(n) for j in range(i + 1, n)})
        om = Cochain3.from_triples(n, m, field, {
            (i, j, k): _grid(field, rng, (m,))
            for i in range(n) for j in range(i + 1, n) for k in range(n)})
    else:
        nu = Cochain2(n, m, field, _grid(field, rng, (n, n, m)))
        om = Cochain3(n, m, field, _grid(field, rng, (n, n, n, m)))
    return NonAbelianCocycle(base, fiber, nu, om, *_random_actions(field, rng, n, m))


@pytest.mark.parametrize("field", [PrimeField(5), RATIONALS], ids=str)
def test_glued_products_follow_the_product_formula(field):
    # the glue against the product formula of the module docstring,
    # evaluated on random elements x+a, y+b, z+c over a non-abelian fiber
    rng = random.Random(11)
    c = _random_cocycle(field, rng, h3(field), s2(field))
    total = build_extension_algebra(c)

    def add(*vecs):
        return tuple(sum(v) for v in zip(*vecs))

    def neg(vec):
        return tuple(-v for v in vec)

    for _ in range(6):
        (x, a), (y, b), (z, w) = ((_grid(field, rng, (3,)), _grid(field, rng, (2,)))
                                  for _ in range(3))
        assert total.star(x + a, y + b) == c.base.star(x, y) + add(
            c.nu.eval(x, y), c.mu_op(x).apply(b), neg(c.mu_op(y).apply(a)),
            c.fiber.star(a, b))
        assert total.bracket(x + a, y + b, z + w) == c.base.bracket(x, y, z) + add(
            c.omega.eval(x, y, z), c.dd_op(x, y).apply(w), c.theta_op(y, z).apply(a),
            neg(c.theta_op(x, z).apply(b)), c.fiber.bracket(a, b, w))


def test_equivalence_via_examples(F5):
    fiber = zero_algebra(F5, 1)
    c1 = _nu1(F5, s2(F5), fiber)
    c2 = NonAbelianCocycle.zero(s2(F5), fiber)
    assert cocycles_equivalent_via(c1, c1, Matrix.zeros(F5, 1, 2)).valid
    good = Matrix.from_int_rows(F5, [[1, 0]])
    assert cocycles_equivalent_via(c1, c2, good).valid
    bad = Matrix.from_int_rows(F5, [[4, 0]])
    rep = cocycles_equivalent_via(c1, c2, bad)
    assert not rep.valid and rep.tags() == ["eqv-nu"]


def test_solve_equivalence(F5):
    fiber = zero_algebra(F5, 1)
    c1 = _nu1(F5, s2(F5), fiber)
    c2 = NonAbelianCocycle.zero(s2(F5), fiber)
    dec = solve_equivalence(c1, c1)
    assert dec.found and dec.witness.is_zero()
    dec = solve_equivalence(c1, c2)
    assert dec.found and dec.witness.entries[0][0] == F5.one
    assert dec.witness.entries[0][1] == F5.zero
    z_pair = _nu1(F5, z2(F5), fiber)
    dec = solve_equivalence(z_pair, NonAbelianCocycle.zero(z2(F5), fiber))
    assert dec.status is Status.NONE
    with pytest.raises(UsageError):
        solve_equivalence(c1, z_pair)  # different bases share shape but not data
    # same-shape requirement
    c_big = NonAbelianCocycle.zero(z3(F5), fiber)
    with pytest.raises(UsageError):
        solve_equivalence(c1, c_big)


def test_solve_equivalence_exhaustive_nonabelian_fiber(F5):
    # direct products with a non-abelian fiber: equivalent to themselves via
    # the exhaustive route
    c = NonAbelianCocycle.zero(z1(F5), s2(F5))
    dec = solve_equivalence(c, c)
    assert dec.found and dec.witness.is_zero()


def test_variant_discrimination_corrected_vs_strict(F5):
    # extracted from a section shift over a module with mu(e1) = 1: corrected
    # accepts it (it comes from an extension), strict rejects the nu/omega
    # product coupling
    a = s2(F5)
    r = _mu_squared_rep(F5)
    assert validate_representation(a, r).valid
    e = semidirect_extension(a, r)
    shifted = make_section(e, Matrix.from_int_rows(F5, [[1, 0], [0, 1], [0, 1]]))
    c = extract_cocycle(e, shifted)
    assert c.nu.at(0, 1) != (F5.zero,)
    assert validate_nab_cocycle(c, Variant.CORRECTED).valid
    strict = validate_nab_cocycle(c, Variant.STRICT)
    assert not strict.valid and "nu-omega-star" in strict.tags()
    assert validate_bol(build_extension_algebra(c)).valid


def test_variant_discrimination_strict_accepts_invalid(F5):
    # theta(e1,e1) = id over a one-dimensional base with the s2 fiber: every
    # printed identity holds, but the glued structure is not a Bol algebra;
    # the corrected set catches it
    base, fiber = z1(F5), s2(F5)
    one = Matrix.identity(F5, 2)
    z = Matrix.zeros(F5, 2, 2)
    c = NonAbelianCocycle(base, fiber, Cochain2.zero(1, 2, F5),
                          Cochain3.zero(1, 2, F5), (z,), ((one,),), ((z,),))
    assert validate_nab_cocycle(c, Variant.STRICT).valid
    corrected = validate_nab_cocycle(c, Variant.CORRECTED)
    assert not corrected.valid and "theta-mu-star" in corrected.tags()
    assert not validate_bol(build_extension_algebra(c)).valid


def test_iff_with_built_algebra_random(F5):
    rng = random.Random(3)
    base, fiber = z2(F5), s2(F5)

    def rmat():
        return Matrix.from_int_rows(
            F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])

    for _ in range(80):
        nu = Cochain2.from_pairs(2, 2, F5, {(0, 1): (
            F5.scalar(rng.randrange(5)), F5.scalar(rng.randrange(5)))})
        om = Cochain3.from_triples(2, 2, F5, {
            (0, 1, k): (F5.scalar(rng.randrange(5)), F5.scalar(rng.randrange(5)))
            for k in range(2)})
        d12 = rmat()
        z = Matrix.zeros(F5, 2, 2)
        c = NonAbelianCocycle(base, fiber, nu, om, (rmat(), rmat()),
                              ((rmat(), rmat()), (rmat(), rmat())),
                              ((z, d12), (-d12, z)))
        assert validate_nab_cocycle(c, Variant.CORRECTED).valid == \
            validate_bol(build_extension_algebra(c)).valid


def test_round_trip_through_extension(F5):
    fiber = zero_algebra(F5, 1)
    for c in (NonAbelianCocycle.zero(z2(F5), fiber),
              _nu1(F5, z2(F5), fiber), _nu1(F5, s2(F5), fiber)):
        assert theta_map(as_extension(c)) == c


def _shift(c, phi):
    """The unique cocycle equivalent to c via phi (abelian fiber, fixed
    actions): nu and omega absorb the phi terms of the equivalence
    identities."""
    from bolext.exactlin import vec_add, vec_sub
    n = c.n
    nu2, om2 = {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            v = vec_sub(c.nu.at(i, j), phi.apply(c.base.bil[i][j]))
            v = vec_add(v, c.mu[i].apply(phi.col(j)))
            v = vec_sub(v, c.mu[j].apply(phi.col(i)))
            nu2[(i, j)] = v
            for k in range(n):
                w = vec_sub(c.omega.at(i, j, k), phi.apply(c.base.tri[i][j][k]))
                w = vec_sub(w, c.theta[i][k].apply(phi.col(j)))
                w = vec_add(w, c.dd[i][j].apply(phi.col(k)))
                w = vec_add(w, c.theta[j][k].apply(phi.col(i)))
                om2[(i, j, k)] = w
    return NonAbelianCocycle(
        c.base, c.fiber,
        Cochain2.from_pairs(c.n, c.m, c.field, nu2),
        Cochain3.from_triples(c.n, c.m, c.field, om2),
        c.mu, c.theta, c.dd)


def test_equivalence_is_an_equivalence_relation(F5):
    fiber = zero_algebra(F5, 1)
    c1 = _nu1(F5, s2(F5), fiber)
    phi1 = Matrix.from_int_rows(F5, [[2, 3]])
    phi2 = Matrix.from_int_rows(F5, [[1, 4]])
    c2 = _shift(c1, phi1)
    c3 = _shift(c2, phi2)
    # reflexive
    assert cocycles_equivalent_via(c1, c1, Matrix.zeros(F5, 1, 2)).valid
    # the shift construction produces the claimed witness
    assert cocycles_equivalent_via(c1, c2, phi1).valid
    # symmetric with the negated witness
    assert cocycles_equivalent_via(c2, c1, -phi1).valid
    assert solve_equivalence(c2, c1).found
    # transitive with the summed witness
    assert cocycles_equivalent_via(c1, c3, phi1 + phi2).valid
    assert solve_equivalence(c1, c3).found


def test_equivalence_matrix_reads_phi_column_major(F5):
    # with a two-dimensional fiber the row- and column-major parameter
    # orders differ; the residue readers take x[q*m + t] = phi(e_q)_t.  The
    # system A x + b = 0 read off the EQV table holds exactly for the maps
    # that the residue route `_equivalent_via` accepts, on every map B -> V
    import numpy as np
    from bolext.exactlin import enumerate_vectors
    from bolext.nonabelian import (_CocycleArrays, _cocycle_arrays,
                                   _equivalence_matrix, _equivalent_via)
    from bolext.representation import Representation

    def mat(rows):
        return Matrix.from_int_rows(F5, rows)
    z = mat([[0, 0], [0, 0]])
    r = Representation(F5, 2, 2, (mat([[1, 2], [0, 3]]), mat([[0, 1], [4, 0]])),
                       ((z, mat([[2, 0], [1, 1]])), (mat([[0, 3], [0, 0]]), z)),
                       ((z, mat([[1, 1], [0, 2]])), (mat([[4, 4], [0, 3]]), z)))
    c = NonAbelianCocycle.split(s2(F5), r)
    arr = _cocycle_arrays(c)
    a = _equivalence_matrix(c)
    xs = np.array([[int(v.value) for v in vec] for vec in enumerate_vectors(F5, 4)])
    phis = xs.reshape(-1, 2, 2).transpose(0, 2, 1)
    bil, tri = residues(c.base.bil), residues(c.base.tri)
    rng = np.random.default_rng(3)
    split = arr.nu.size  # the rows of `_flat`: nu, then om
    # b = -shift: a random right-hand side, and one that phi(x0) solves
    for shift in (rng.integers(0, 5, len(a)), a @ xs[rng.integers(len(xs))] % 5):
        other = arr._replace(nu=arr.nu - shift[:split].reshape(arr.nu.shape),
                             om=arr.om - shift[split:].reshape(arr.om.shape))
        many = _CocycleArrays(*(np.broadcast_to(x, (len(xs),) + x.shape) for x in other))
        want = _equivalent_via(many, arr, phis, bil, tri, 5)
        assert ((xs @ a.T - shift) % 5 == 0).all(axis=1).tolist() == want.tolist()
    assert 0 < want.sum() < len(xs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_orbit_read_equivalence_matrix_matches_the_affine_reading(data):
    # L read on residues off the orbit of the zero cocycle at the unit maps
    # equals the `identities.affine` reading on field scalars, row for row
    # in `_flat` order (nu, then om): abelian fibers, random base products
    # and actions, half their entries zero so that terms die
    import numpy as np
    from bolext.identities import scalars
    from bolext.nonabelian import _equivalence_matrix
    from oracles import equivalence_matrix

    p = data.draw(st.sampled_from([5, 7]))
    field = PrimeField(p)
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))

    def draw(shape):
        return data.draw(arrays(np.int64, shape, elements=st.one_of(st.just(0),
                                                                      st.integers(0, p - 1))))

    def mats(a):
        return tuple(Matrix.from_int_rows(field, x.tolist()) if x.ndim == 2 else mats(x)
                     for x in a)
    base = BolAlgebra(field, n, scalars(field, draw((n,) * 3)), scalars(field, draw((n,) * 4)))
    zero = NonAbelianCocycle.zero(base, zero_algebra(field, m))
    c = NonAbelianCocycle(base, zero.fiber, zero.nu, zero.omega, mats(draw((n, m, m))),
                          mats(draw((n, n, m, m))), mats(draw((n, n, m, m))))
    got = _equivalence_matrix(c)
    assert got.shape == (n * n * m + n ** 3 * m, n * m)
    assert got.tolist() == equivalence_matrix(c).tolist()


def test_flat_reads_an_empty_stack():
    # the class code's digit matrix over a base of dimension one has no
    # column: `_flat` of zero cocycles gives zero rows of the full width
    import numpy as np
    from bolext.nonabelian import _CocycleArrays, _flat

    n, m = 2, 3
    shapes = ((n, n, m), (n, n, n, m), (n, m, m), (n, n, m, m), (n, n, m, m))
    empty = _CocycleArrays(*(np.zeros((0,) + s, dtype=np.int64) for s in shapes))
    assert _flat(empty).shape == (0, 12 + 24 + 18 + 36 + 36)
    assert _flat(empty[:2]).shape == (0, 36)
    one = _CocycleArrays(*(np.arange(np.prod(s)).reshape((1,) + s) for s in shapes))
    assert _flat(one).tolist() == [np.concatenate([a.ravel() for a in one]).tolist()]
