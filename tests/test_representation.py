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
    with pytest.raises(UsageError, match="D must be alternating"):
        Representation(Q, 2, 1, (z, z), ((z, z), (z, z)), ((z, one), (one, z)))
    # a nonzero D(x, x) is refused too; D(e1, e2) = -D(e2, e1) is kept
    with pytest.raises(UsageError, match="D must be alternating"):
        Representation(Q, 2, 1, (z, z), ((z, z), (z, z)), ((one, z), (z, z)))
    Representation(Q, 2, 1, (z, z), ((z, z), (z, z)), ((z, one), (one.scale(-1), z)))


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


@pytest.mark.parametrize("dims, want", [((0, 1), (1, 1, 1)), ((1, 0), (1, 1, 1)),
                                         ((2, 0), (25, 1, 25)), ((1, 1), (1, 25, 25))])
def test_degenerate_censuses(F5, dims, want):
    # the (theta, D) digit strings of (0, 1), (1, 0) and (2, 0) have width 0
    census = semidirect_iff_census(F5, *dims)
    got = (census.algebras, census.candidates_per_algebra, census.valid_pairs)
    assert got == want and census.discrepancies == []


@pytest.mark.parametrize("dims", [(-1, 1), (2, -1)])
def test_census_refuses_negative_dimensions_first(F5, monkeypatch, dims):
    from bolext import bruteforce

    def never(*args, **kwargs):
        raise AssertionError("checked the bound or enumerated before the dimensions")
    monkeypatch.setattr(bruteforce, "candidate_blocks", never)
    monkeypatch.setattr(bruteforce, "enumerate_valid_tensors", never)
    with pytest.raises(UsageError, match="nonnegative"):
        semidirect_iff_census(F5, *dims)


@pytest.fixture(scope="module")
def census_sample():
    # the 3,125 Bol structures on GF(5)^2 have 125 distinct tri, 25 each:
    # three algebras from each of four tri classes (one of them tri = 0)
    from bolext import bruteforce

    algebras = [(b.copy(), t.copy())
                for b, t in bruteforce.enumerate_valid_tensors(2, 5, False, 10 ** 5)]
    by_tri = {}
    for k, (_, tri) in enumerate(algebras):
        by_tri.setdefault(tri.tobytes(), []).append(k)
    assert len(algebras) == 3125 and len(by_tri) == 125
    classes = list(by_tri.values())
    sample = [algebras[k] for c in (0, 1, 50, 124) for k in classes[c][:3]]
    assert not sample[0][1].any() and all(t.any() for _, t in sample[3:])
    return sample


def _census_masks(sample, tails):
    """Per algebra of `sample` (on GF(5)^2, a 1-dimensional module), its
    census (route 1, route 2) masks over (mu string, row of `tails`), from
    `_census_routes` run once per tri class of the sample; a pair yielded
    twice fails."""
    import numpy as np

    from bolext import representation

    masks = np.zeros((len(sample), 2, 25, len(tails)), dtype=bool)
    seen = np.zeros((len(sample),) + masks.shape[2:], dtype=int)
    classes = {}
    for k, (_, tri) in enumerate(sample):
        classes.setdefault(tri.tobytes(), []).append(k)
    for ks in map(np.array, classes.values()):
        bils = np.stack([sample[k][0] for k in ks])
        for q, i, j, route1, route2 in representation._census_routes(
                bils, sample[ks[0]][1], 1, 5, tails):
            np.add.at(seen, (ks[q], i, j), 1)
            masks[ks[q], 0, i, j] = route1
            masks[ks[q], 1, i, j] = route2
    assert seen.max(initial=0) <= 1
    return masks


def _census_candidates(start, stop):
    """(the (theta, D) tail strings start..stop-1 of the (2,1) census over
    GF(5), the digit rows of every candidate with one of those tails: mu
    string major, tail row minor)."""
    import numpy as np

    from bolext import bruteforce

    tails = bruteforce.digit_block(start, stop, 5, 5, np.int16)
    mus = bruteforce.digit_block(0, 25, 5, 2, np.int16)
    return tails, np.hstack([np.repeat(mus, len(tails), axis=0),
                             np.tile(tails, (len(mus), 1))])


def _census_routes_against_per_algebra_masks(sample, start, stop, monkeypatch):
    """The census routes on the tail strings start..stop-1, run in far
    smaller identity slices and stacked slices than the per-algebra route 1
    (`validate_rep_mask`) and route 2 (`validate_bol_mask` of
    `semidirect_arrays`) they are compared with, on every candidate with one
    of those tails; returns the route-1 passes."""
    import numpy as np

    from bolext import bruteforce, identities, representation

    p = 5
    tails, params = _census_candidates(start, stop)
    mu, theta, dd = bruteforce.rep_param_batches(2, 1, p, params)
    with monkeypatch.context() as patch:
        patch.setattr(bruteforce, "_ENTRIES", 1 << 12)
        patch.setattr(representation, "_CENSUS_CHUNK", 100)
        routes = _census_masks(sample, tails)
    assert len(routes) == len(sample)
    rng = np.random.default_rng(9)
    passed = 0
    for (bil, tri), (route1, route2) in zip(sample, routes):
        want1 = bruteforce.validate_rep_mask(bil, tri, mu, theta, dd, p)
        bil_e, tri_e = bruteforce.semidirect_arrays(bil, tri, mu, theta, dd, p)
        want2 = bruteforce.validate_bol_mask(bil_e, tri_e, p)
        assert route1.shape == route2.shape == (25, stop - start)
        assert (route1.ravel() == want1).all() and (route2.ravel() == want2).all()
        passed += int(want1.sum())
        # a starting mask only removes rows
        ok = rng.random(len(params)) < 0.7
        assert (bruteforce.identity_mask(identities.REP, p,
                                         {"mu": mu, "theta": theta, "dd": dd},
                                         {"bil": bil, "tri": tri}, ok) == ok & want1).all()
        assert (bruteforce.identity_mask(identities.BOL, p, {"bil": bil_e, "tri": tri_e},
                                         ok=ok) == ok & want2).all()
    return passed


def test_census_shared_masks_match_per_algebra_routes(census_sample, monkeypatch):
    passed = _census_routes_against_per_algebra_masks(census_sample, 0, 400, monkeypatch)
    assert passed > len(census_sample)


@pytest.mark.parametrize("start, stop, passes", [
    # a run of tail strings aligned to no power of 5, over many stacked slices
    (1234, 1734, True),
    # one tail string: theta = D = 0, a module (with mu = 0) over every algebra
    (0, 1, True),
    # one tail string, D(e1, e2) = 1 and theta = 0: fails rep-d-theta in every class
    (1, 2, False),
])
def test_census_routes_on_short_slices(census_sample, monkeypatch, start, stop, passes):
    passed = _census_routes_against_per_algebra_masks(census_sample, start, stop, monkeypatch)
    assert bool(passed) == passes


@pytest.mark.parametrize("algebras, chunk", [
    # census-21: one tri class (tri = 0), its 5^5 tail strings in one chunk
    ("tri-zero", 1 << 14),
    # ... and over four chunks
    ("tri-zero", 1000),
    # the sample's four tri classes in place of the enumerated algebras
    ("sample", 1000),
])
def test_census_decides_each_tail_string_once_per_tri_class(F5, census_sample, monkeypatch,
                                                            algebras, chunk):
    from bolext import bruteforce, representation

    if algebras == "sample":
        monkeypatch.setattr(bruteforce, "enumerate_valid_tensors",
                            lambda *args: iter(census_sample))
    classes = 4 if algebras == "sample" else 1
    rows = {"_REP_TAIL": 0, "_BOL_TAIL": 0}
    real = bruteforce.identity_mask

    def spy(suite, p, batch, fixed=None, ok=None, index=None):
        for name in rows:
            if suite is getattr(representation, name):
                rows[name] += len(next(iter(batch.values())))
        return real(suite, p, batch, fixed, ok, index)
    monkeypatch.setattr(bruteforce, "identity_mask", spy)
    monkeypatch.setattr(representation, "_CENSUS_CHUNK", chunk)
    census = semidirect_iff_census(F5, 2, 1)
    assert rows == {"_REP_TAIL": classes * 5 ** 5, "_BOL_TAIL": classes * 5 ** 5}
    assert census.candidates_per_algebra == 5 ** 7 and census.discrepancies == []
    # 296 module structures over the sample's 12 algebras among the 5^7 candidates
    want = (12, 296) if algebras == "sample" else (25, 1225)
    assert (census.algebras, census.valid_pairs) == want


def test_census_discrepancies_name_the_candidates_that_differ(F5, monkeypatch):
    # with route 1's tail emptied, route 1 also accepts candidates that pass
    # only the rest of REP; each listed discrepancy, read back from its index
    # (the tail strings in two chunks), is such a candidate, and its glue is
    # not Bol
    import numpy as np

    from bolext import bruteforce, identities, representation

    tail, rest = bruteforce.reading(identities.REP, ("tri", "theta", "dd"))
    monkeypatch.setattr(representation, "_REP_TAIL", ())
    monkeypatch.setattr(representation, "_CENSUS_CHUNK", 3000)
    census = semidirect_iff_census(F5, 2, 1)
    assert census.valid_pairs == 1225 + 12700 and len(census.discrepancies) == 12700
    found = np.array(census.discrepancies)
    for k, (bil, tri) in enumerate(bruteforce.enumerate_valid_tensors(2, 5, True, 10 ** 5)):
        index = found[found[:, 0] == k, 1]
        params = (index[:, None] // 5 ** np.arange(6, -1, -1) % 5).astype(np.int16)
        mu, theta, dd = bruteforce.rep_param_batches(2, 1, 5, params)
        batch, fixed = {"mu": mu, "theta": theta, "dd": dd}, {"bil": bil, "tri": tri}
        assert index.size and bruteforce.identity_mask(rest, 5, batch, fixed).all()
        assert not bruteforce.identity_mask(tail, 5, batch, fixed).any()
        bil_e, tri_e = bruteforce.semidirect_arrays(bil, tri, mu, theta, dd, 5)
        assert not bruteforce.validate_bol_mask(bil_e, tri_e, 5).any()


def _tags(suite):
    return {idt.tag for group in suite for idt in group.identities}


def test_census_routes_stay_independent(census_sample, monkeypatch):
    # each table splits into a tail that reads neither bil nor mu and the
    # rest; route 1 runs REP on the base tensors only, route 2 BOL on the
    # glued tensors of B + V only
    from bolext import bruteforce, identities, representation

    for table, tail, rest in ((identities.REP, representation._REP_TAIL,
                               representation._REP_REST),
                              (identities.BOL, representation._BOL_TAIL,
                               representation._BOL_REST)):
        assert _tags(tail) and _tags(rest) and not _tags(tail) & _tags(rest)
        assert _tags(tail) | _tags(rest) == _tags(table)
        assert not {name for group in tail for idt in group.identities
                    for t in idt.terms for name, _ in t.factors} & {"bil", "mu"}
    calls = []
    real = bruteforce.identity_mask

    def spy(suite, p, batch, fixed=None, ok=None, index=None):
        calls.append((_tags(suite), {name: a.shape[-1]
                                     for name, a in {**batch, **(fixed or {})}.items()}))
        return real(suite, p, batch, fixed, ok, index)
    monkeypatch.setattr(bruteforce, "identity_mask", spy)
    tails, _ = _census_candidates(0, 160)
    routes = _census_masks(census_sample, tails)
    # the zero actions are a module over each of the 12 algebras
    assert len(routes) == 12 and routes[:, 0, 0, 0].all()
    for read, last_axis in calls:
        if read <= _tags(identities.REP):
            # the base's bil and tri (n = 2), 1 x 1 action matrices
            assert {last_axis[name] for name in ("bil", "tri") if name in last_axis} <= {2}
            assert {last_axis[name] for name in ("mu", "theta", "dd") if name in last_axis} == {1}
        else:
            assert read <= _tags(identities.BOL)
            assert set(last_axis) <= {"bil", "tri"} and set(last_axis.values()) == {3}
    assert {frozenset(read) for read, _ in calls} == {
        frozenset(_tags(part)) for part in (representation._REP_TAIL, representation._REP_REST,
                                            representation._BOL_TAIL, representation._BOL_REST)}


@pytest.mark.parametrize("broken", ["_REP_TAIL", "_BOL_TAIL"])
def test_a_broken_census_route_leaves_the_other_alone(census_sample, monkeypatch, broken):
    # with one route's tail table emptied, that route accepts rows it should
    # not, and the other route still matches its per-algebra mask
    from bolext import bruteforce, representation

    p = 5
    tails, params = _census_candidates(0, 160)
    mu, theta, dd = bruteforce.rep_param_batches(2, 1, p, params)
    monkeypatch.setattr(representation, broken, ())
    routes = _census_masks(census_sample, tails)
    intact = 1 if broken == "_REP_TAIL" else 0
    changed = 0
    for (bil, tri), masks in zip(census_sample, routes):
        masks = masks.reshape(2, -1)
        bil_e, tri_e = bruteforce.semidirect_arrays(bil, tri, mu, theta, dd, p)
        want = (bruteforce.validate_rep_mask(bil, tri, mu, theta, dd, p),
                bruteforce.validate_bol_mask(bil_e, tri_e, p))
        assert (masks[intact] == want[intact]).all()
        assert not (masks[1 - intact] < want[1 - intact]).any()
        changed += int((masks[1 - intact] != want[1 - intact]).sum())
    assert changed


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
