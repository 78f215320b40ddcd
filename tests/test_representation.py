import pytest

from bolext.bol import validate_bol, z2, z3, s2
from bolext.errors import UnsupportedEnumerationError, UsageError
from bolext.exactlin import Matrix
from bolext.representation import (Representation, is_pseudoderivation, r_s2,
                                   semidirect_iff_census, semidirect_product,
                                   trivial_representation,
                                   validate_representation)


def test_trivial_module_valid(Q, fixtures_q):
    for name, a in fixtures_q.items():
        r = trivial_representation(Q, a.dim)
        assert validate_representation(a, r).valid, name


def test_r_s2_valid(Q):
    assert validate_representation(s2(Q), r_s2(Q)).valid


def test_mu_e1_invalid(Q):
    one = Matrix.identity(Q, 1)
    z = Matrix.zeros(Q, 1, 1)
    r = Representation(Q, 2, 1, (one, z), ((z, z), (z, z)), ((z, z), (z, z)))
    rep = validate_representation(s2(Q), r)
    assert not rep.valid
    assert "rep-d-mu" in rep.tags()


def test_dd_alternating_enforced(Q):
    one = Matrix.identity(Q, 1)
    z = Matrix.zeros(Q, 1, 1)
    with pytest.raises(UsageError):
        Representation(Q, 2, 1, (z, z), ((z, z), (z, z)), ((z, one), (one, z)))


def test_semidirect_examples(Q):
    assert semidirect_product(z2(Q), trivial_representation(Q, 2)) == z3(Q)
    sd = semidirect_product(s2(Q), trivial_representation(Q, 2))
    assert sd.dim == 3
    assert sd.bil[0][1] == (Q.one, Q.zero, Q.zero)
    assert all(not c for c in sd.bil[1][2])
    sd2 = semidirect_product(s2(Q), r_s2(Q))
    # e2 * v = v for the module basis vector v = e3
    assert sd2.bil[1][2] == (Q.zero, Q.zero, Q.one)
    assert validate_bol(sd2).valid


def test_pseudoderivation(Q, fixtures_q):
    a = s2(Q)
    r = r_s2(Q)
    zero_f = Matrix.zeros(Q, 1, 2)
    assert is_pseudoderivation(zero_f, (Q.zero,), a, r)
    az, tz = z2(Q), trivial_representation(Q, 2)
    any_f = Matrix.from_int_rows(Q, [[3, -5]])
    assert is_pseudoderivation(any_f, (Q.zero,), az, tz)
    good = Matrix.from_int_rows(Q, [[0, 7]])
    assert is_pseudoderivation(good, (Q.scalar(3),), a, r)
    bad = Matrix.from_int_rows(Q, [[1, 7]])
    assert not is_pseudoderivation(bad, (Q.scalar(3),), a, r)


def test_iff_census_dim_one(F5):
    census = semidirect_iff_census(F5, 1, 1)
    assert census.algebras == 1
    assert census.candidates_per_algebra == 25
    assert census.discrepancies == []


def test_census_checks_the_bound_before_enumerating_algebras(F5, monkeypatch):
    # 5^28 action tuples on GF(5)^2 with a 2-dimensional module; the 25 base
    # algebras alone would fit the bound
    from bolext import bruteforce

    def no_algebras(*args, **kwargs):
        raise AssertionError("enumerated the algebras before checking the bound")
    monkeypatch.setattr(bruteforce, "enumerate_valid_tensors", no_algebras)
    with pytest.raises(UnsupportedEnumerationError,
                       match=f"^{5 ** 28} candidate representations exceed the bound 10000$"):
        semidirect_iff_census(F5, 2, 2, budget=10 ** 4)


def test_census_shared_masks_match_per_algebra_routes(monkeypatch):
    # the 3,125 Bol structures on GF(5)^2 have 125 distinct tri, 25 each:
    # three algebras from each of four tri classes (one of them tri = 0);
    # the census runs `identity_mask` in far smaller slices than the
    # per-algebra masks it is compared with
    import numpy as np

    from bolext import bruteforce, identities
    from bolext.representation import _census_routes

    p = 5
    algebras = [(b.copy(), t.copy())
                for b, t in bruteforce.enumerate_valid_tensors(2, p, False, 10 ** 5)]
    by_tri = {}
    for k, (_, tri) in enumerate(algebras):
        by_tri.setdefault(tri.tobytes(), []).append(k)
    assert len(algebras) == 3125 and len(by_tri) == 125
    classes = list(by_tri.values())
    sample = [algebras[k] for c in (0, 1, 50, 124) for k in classes[c][:3]]
    assert not sample[0][1].any() and all(t.any() for _, t in sample[3:])
    start, stop = 1000, 7000
    params = bruteforce.digit_block(start, stop, p, bruteforce._rep_param_width(2, 1),
                                    np.int16)
    mu, theta, dd = bruteforce.rep_param_batches(2, 1, p, params)
    with monkeypatch.context() as patch:
        patch.setattr(bruteforce, "_ENTRIES", 1 << 12)
        routes = list(_census_routes(sample, 2, 1, p, params))
    rng = np.random.default_rng(9)
    passed = 0
    for (bil, tri), (route1, route2) in zip(sample, routes):
        want1 = bruteforce.validate_rep_mask(bil, tri, mu, theta, dd, p)
        bil_e, tri_e = bruteforce.semidirect_arrays(bil, tri, mu, theta, dd, p)
        want2 = bruteforce.validate_bol_mask(bil_e, tri_e, p)
        assert (route1 == want1).all() and (route2 == want2).all()
        passed += int(want1.sum())
        # a starting mask only removes rows
        ok = rng.random(stop - start) < 0.7
        assert (bruteforce.validate_rep_mask(bil, tri, mu, theta, dd, p, ok=ok)
                == ok & want1).all()
        assert (bruteforce.identity_mask(identities.BOL, p, {"bil": bil_e, "tri": tri_e},
                                         ok=ok) == ok & want2).all()
    assert passed > len(sample)


def test_semidirect_shape_mismatch(Q):
    with pytest.raises(UsageError):
        semidirect_product(z2(Q), trivial_representation(Q, 3))


def _mixed_actions(field):
    # not a module: nonzero mu, theta and D to place every action block
    def mat(v):
        return Matrix.from_int_rows(field, [[v]])
    return Representation(field, 2, 1, (mat(1), mat(2)),
                          ((mat(0), mat(3)), (mat(4), mat(1))),
                          ((mat(0), mat(2)), (mat(-2), mat(0))))


@pytest.mark.parametrize("name", ["s2_r_s2", "z2_trivial", "z2_mixed"])
def test_semidirect_product_matches_census_route_2(F5, name):
    # the glued algebra of the zero cocycle against census route 2: one glue,
    # on exact scalars and on batched residue arrays; the glue itself is
    # checked against the product formula in test_nonabelian
    import numpy as np

    from bolext import identities
    from bolext.bruteforce import semidirect_arrays

    a, r = {"s2_r_s2": (s2(F5), r_s2(F5)),
            "z2_trivial": (z2(F5), trivial_representation(F5, 2)),
            "z2_mixed": (z2(F5), _mixed_actions(F5))}[name]

    def residues(mats):
        return np.array([[[int(x.value) for x in row] for row in m.entries]
                         for m in mats], dtype=np.int64)

    n, m = a.dim, r.module_dim
    mu = residues(r.mu)
    theta = residues([g for row in r.theta for g in row]).reshape(n, n, m, m)
    dd = residues([g for row in r.dd for g in row]).reshape(n, n, m, m)
    bil, tri = identities.residues(a.bil), identities.residues(a.tri)
    bil_e, tri_e = semidirect_arrays(bil, tri, mu[None], theta[None], dd[None], 5)
    sd = semidirect_product(a, r)
    got_bil, got_tri = identities.residues(sd.bil), identities.residues(sd.tri)
    assert (got_bil == bil_e[0]).all() and (got_tri == tri_e[0]).all()
    assert got_bil[n:].any() == bool(mu.any())


def test_action_operators_extend_the_basis_images(F5):
    r = _mixed_actions(F5)  # theta(e1,e2) = 3 but theta(e2,e1) = 4
    basis = [(F5.one, F5.zero), (F5.zero, F5.one)]
    for i in range(2):
        assert r.mu_op(basis[i]) == r.mu[i]
        for j in range(2):
            assert r.theta_op(basis[i], basis[j]) == r.theta[i][j]
            assert r.dd_op(basis[i], basis[j]) == r.dd[i][j]
    x, y = (F5.scalar(2), F5.scalar(3)), (F5.scalar(4), F5.scalar(1))
    assert r.mu_op(x) == Matrix.from_int_rows(F5, [[2 * 1 + 3 * 2]])
    assert r.theta_op(x, y) == Matrix.from_int_rows(F5, [[2 * 1 * 3 + 3 * 4 * 4 + 3 * 1 * 1]])
    assert r.dd_op(x, y) == Matrix.from_int_rows(F5, [[2 * 1 * 2 - 3 * 4 * 2]])
