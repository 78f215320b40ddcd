import random

import pytest

from bolext.bol import (BolAlgebra, automorphism_int_arrays,
                        enumerate_automorphisms, enumerate_bol_algebras,
                        evaluate_products, is_morphism, s2, validate_bol,
                        z1, zero_algebra)
from bolext.errors import UnsupportedEnumerationError, UsageError
from bolext.exactlin import Matrix


def mutate(a, kind, idx, value):
    """Rebuild with one structure-constant entry replaced."""
    field = a.field
    v = field.scalar(value)
    if kind == "bil":
        i, j, k = idx
        bil = [[list(vec) for vec in row] for row in a.bil]
        bil[i][j][k] = v
        return BolAlgebra(field, a.dim,
                          tuple(tuple(tuple(vec) for vec in row) for row in bil),
                          a.tri)
    i, j, k, l = idx
    tri = [[[list(vec) for vec in row] for row in plane] for plane in a.tri]
    tri[i][j][k][l] = v
    return BolAlgebra(field, a.dim, a.bil,
                      tuple(tuple(tuple(tuple(vec) for vec in row)
                                  for row in plane) for plane in tri))


def test_evaluate_products(Q, fixtures_q):
    e1 = (Q.one, Q.zero)
    e2 = (Q.zero, Q.one)
    assert evaluate_products(fixtures_q["z2"], e1, e2) == (Q.zero, Q.zero)
    assert evaluate_products(fixtures_q["s2"], e1, e2) == (Q.one, Q.zero)
    h = fixtures_q["h3"]
    b1 = (Q.one, Q.zero, Q.zero)
    b2 = (Q.zero, Q.one, Q.zero)
    b3 = (Q.zero, Q.zero, Q.one)
    assert evaluate_products(h, b1, b2, b3) == (Q.zero,) * 3
    assert evaluate_products(h, b1, b2) == b3
    with pytest.raises(UsageError):
        evaluate_products(h, b1, (Q.one,))


def test_validate_fixtures(fixtures_q, fixtures_f5):
    for fam in (fixtures_q, fixtures_f5):
        for name, a in fam.items():
            assert validate_bol(a).valid, name


def test_validate_skew_violation(Q):
    a = s2(Q)
    broken = mutate(a, "bil", (1, 0, 0), 1)  # b[2][1][1] = +b[1][2][1]
    rep = validate_bol(broken)
    assert not rep.valid and "star-skew" in rep.tags()


def test_validate_mixed_violation(Q):
    # a trilinear entry on s2 that survives skewness but breaks the
    # mixed-product identity would need paired entries; a single entry breaks
    # both, and the mixed tag must be among the reported ones
    broken = mutate(s2(Q), "tri", (0, 1, 0, 0), 1)
    rep = validate_bol(broken)
    assert not rep.valid
    assert "mixed-product" in rep.tags()


def test_is_morphism(Q, fixtures_q):
    a = fixtures_q["s2"]
    assert is_morphism(Matrix.identity(Q, 2), a, a)
    assert is_morphism(Matrix.from_int_rows(Q, [[2, 0], [0, 1]]), a, a)
    assert not is_morphism(Matrix.from_int_rows(Q, [[0, 1], [1, 0]]), a, a)
    with pytest.raises(UsageError):
        is_morphism(Matrix.identity(Q, 3), a, a)


def _corpus_maps():
    """(name, f, domain, codomain): each corpus extension's injection and
    projection, and a few automorphisms of its three algebras (enumerated
    over GF(5) up to dimension 3; the identity, and diag(2, 1, 2) of h3
    over Q)."""
    from bolext import documents as docs

    from conftest import corpus_dir

    for name in ("e_h3.ext", "e_h3_q.ext", "e_s2_s2.ext"):
        e = docs.parse_document(str(corpus_dir() / name), "extension")
        yield f"{name} i", e.inj, e.fiber, e.total
        yield f"{name} p", e.proj, e.total, e.base
        for role, a in (("base", e.base), ("fiber", e.fiber), ("total", e.total)):
            if a.field.is_prime_field and a.dim <= 3:
                auts = enumerate_automorphisms(a, max_results=10 ** 5)
                picked = auts[::max(1, len(auts) // 5)]
            else:
                picked = [Matrix.identity(a.field, a.dim)]
                if a.dim == 3:
                    picked.append(Matrix.from_int_rows(a.field, [[2, 0, 0], [0, 1, 0], [0, 0, 2]]))
            for g in picked:
                yield f"{name} {role} automorphism", g, a, a


def _bracket_maps(F5):
    """The corpus brackets are all zero: the first six GF(5) algebras of
    dimension 2 with nonzero products and brackets, with their
    automorphisms (every fourth) and the identity into the next one."""
    from itertools import islice

    algebras = list(islice((a for a in enumerate_bol_algebras(F5, 2)
                            if a._bil_support and a._tri_support), 6))
    for k, a in enumerate(algebras):
        for g in enumerate_automorphisms(a)[::4]:
            yield f"algebra {k} automorphism", g, a, a
        if k + 1 < len(algebras):
            yield f"identity {k} -> {k + 1}", Matrix.identity(F5, 2), a, algebras[k + 1]


def test_is_morphism_matches_dense_oracle(F5):
    # the maps themselves, then each with one entry raised by 1 (at most
    # four entries per map, drawn with a fixed seed)
    from itertools import chain

    from oracles import is_morphism_oracle

    rng = random.Random(19)
    verdicts = []
    for name, f, a1, a2 in chain(_corpus_maps(), _bracket_maps(F5)):
        cells = [(r, c) for r in range(f.rows) for c in range(f.cols)]
        variants = [f]
        for r, c in rng.sample(cells, min(4, len(cells))):
            rows = [list(row) for row in f.entries]
            rows[r][c] = rows[r][c] + 1
            variants.append(Matrix(f.field, rows))
        for g in variants:
            want = is_morphism_oracle(g, a1, a2)
            assert is_morphism(g, a1, a2) == want, (name, g)
            verdicts.append(want)
        assert verdicts[-len(variants)] or name.startswith("identity"), name
    assert verdicts.count(False) >= 60 and verdicts.count(True) >= 60


def test_automorphism_counts(F5, fixtures_f5):
    assert len(enumerate_automorphisms(fixtures_f5["z1"])) == 4
    auts = enumerate_automorphisms(fixtures_f5["s2"])
    assert len(auts) == 20
    assert automorphism_int_arrays(fixtures_f5["h3"]).shape[0] == 12000


def test_automorphism_group_structure(F5, fixtures_f5):
    a = fixtures_f5["s2"]
    auts = enumerate_automorphisms(a)
    key = {g.entries for g in auts}
    assert Matrix.identity(F5, 2).entries in key
    for g in auts:
        assert g.inverse().entries in key
    rng = random.Random(11)
    for _ in range(100):
        g1, g2 = rng.choice(auts), rng.choice(auts)
        assert (g1 * g2).entries in key


def test_automorphism_unsupported(Q, fixtures_q):
    with pytest.raises(UnsupportedEnumerationError):
        enumerate_automorphisms(fixtures_q["s2"])


def test_enumerate_algebras_counts(F5, F7):
    assert sum(1 for _ in enumerate_bol_algebras(F5, 1)) == 1
    assert sum(1 for _ in enumerate_bol_algebras(F7, 1)) == 1
    algs = list(enumerate_bol_algebras(F5, 2, tri_zero=True))
    assert len(algs) == 25
    for a in algs:
        assert validate_bol(a).valid
    assert algs[0] == zero_algebra(F5, 2)


def test_enumerate_algebras_bounds(Q, F5):
    with pytest.raises(UnsupportedEnumerationError):
        next(enumerate_bol_algebras(Q, 1))
    with pytest.raises(UnsupportedEnumerationError):
        next(enumerate_bol_algebras(F5, 3, tri_zero=False))
    with pytest.raises(UnsupportedEnumerationError):
        next(enumerate_bol_algebras(F5, 4, tri_zero=True))


def test_enumerate_algebras_dim3_tri_zero_stream(F5):
    stream = enumerate_bol_algebras(F5, 3, tri_zero=True)
    first = next(stream)
    assert first == zero_algebra(F5, 3)
    for _ in range(5):
        assert validate_bol(next(stream)).valid


def test_validity_invariant_under_basis_change(F5, fixtures_f5):
    rng = random.Random(23)
    for name in ("s2", "h3"):
        a = fixtures_f5[name]
        n = a.dim
        while True:
            g = Matrix.from_int_rows(
                F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
            if g.is_invertible():
                break
        assert validate_bol(a.conjugate(g)).valid


def test_dimension_zero_is_refused(F5):
    from bolext.extensions import as_extension
    from bolext.nonabelian import NonAbelianCocycle
    from bolext.wells import verify_wells_exactness
    with pytest.raises(UsageError, match="positive"):
        zero_algebra(F5, 0)
    with pytest.raises(UsageError, match="positive"):
        verify_wells_exactness(as_extension(NonAbelianCocycle.zero(z1(F5),
                                                                   zero_algebra(F5, 0))))
