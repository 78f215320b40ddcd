import random

import numpy as np
import pytest

from bolext.bol import s2, z1, z2, zero_algebra
from bolext.core import Status, Variant
from bolext.errors import UsageError
from bolext.exactlin import Matrix
from bolext.extensions import as_extension, canonical_section, theta_map
from bolext.nonabelian import NonAbelianCocycle, validate_nab_cocycle
from bolext.representation import r_s2, trivial_representation
from bolext.wells import (AutPair, act_on_cocycle, compatible_pairs,
                          inducible_via, is_compatible_pair, kappa,
                          lift_automorphism, s_map, solve_inducibility,
                          verify_wells_exactness, wells_map, z1_nab)


def _pair(F5, a_rows, b_rows):
    return AutPair(Matrix.from_int_rows(F5, a_rows),
                   Matrix.from_int_rows(F5, b_rows))


def test_act_examples(F5, ext_h3_f5):
    c = theta_map(ext_h3_f5)
    idp = _pair(F5, [[1, 0], [0, 1]], [[1]])
    assert act_on_cocycle(c, idp) == c
    acted = act_on_cocycle(c, _pair(F5, [[2, 0], [0, 1]], [[1]]))
    assert acted.nu.at(0, 1) == (F5.scalar(3),)
    acted = act_on_cocycle(c, _pair(F5, [[1, 0], [0, 1]], [[2]]))
    assert acted.nu.at(0, 1) == (F5.scalar(2),)
    with pytest.raises(UsageError):
        act_on_cocycle(c, _pair(F5, [[1, 1], [1, 1]], [[1]]))


def test_action_preserves_validity_and_is_functorial(F5, ext_h3_f5):
    rng = random.Random(9)
    c = theta_map(ext_h3_f5)
    pairs = []
    while len(pairs) < 4:
        alpha = Matrix.from_int_rows(
            F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
        beta = Matrix.from_int_rows(F5, [[rng.randrange(1, 5)]])
        if alpha.is_invertible():
            pairs.append(AutPair(alpha, beta))
    for p1 in pairs:
        acted = act_on_cocycle(c, p1)
        assert validate_nab_cocycle(acted, Variant.CORRECTED).valid
        for p2 in pairs:
            composed = AutPair(p2.alpha * p1.alpha, p2.beta * p1.beta)
            assert act_on_cocycle(acted, p2) == act_on_cocycle(c, composed)


def test_inducible_via_examples(F5, ext_h3_f5):
    s = canonical_section(ext_h3_f5)
    zphi = Matrix.zeros(F5, 1, 2)
    assert inducible_via(ext_h3_f5, s, _pair(F5, [[1, 0], [0, 1]], [[1]]), zphi).valid
    assert inducible_via(ext_h3_f5, s, _pair(F5, [[2, 0], [0, 1]], [[2]]), zphi).valid
    rep = inducible_via(ext_h3_f5, s, _pair(F5, [[1, 0], [0, 1]], [[2]]), zphi)
    assert not rep.valid and rep.tags() == ["ind-nu"]


def test_solve_inducibility(F5, ext_h3_f5):
    dec = solve_inducibility(ext_h3_f5, _pair(F5, [[1, 0], [0, 1]], [[1]]))
    assert dec.found and dec.witness.is_zero()
    dec = solve_inducibility(ext_h3_f5, _pair(F5, [[2, 0], [0, 1]], [[2]]))
    assert dec.found and dec.witness.is_zero()
    dec = solve_inducibility(ext_h3_f5, _pair(F5, [[1, 0], [0, 1]], [[2]]))
    assert dec.status is Status.NONE and dec.reason == "ind-nu"


def test_lift_examples(F5, ext_h3_f5):
    s = canonical_section(ext_h3_f5)
    zphi = Matrix.zeros(F5, 1, 2)
    idp = _pair(F5, [[1, 0], [0, 1]], [[1]])
    assert lift_automorphism(ext_h3_f5, s, idp, zphi) == Matrix.identity(F5, 3)
    g = lift_automorphism(ext_h3_f5, s, _pair(F5, [[2, 0], [0, 1]], [[2]]), zphi)
    assert g == Matrix.from_int_rows(F5, [[2, 0, 0], [0, 1, 0], [0, 0, 2]])
    phi = Matrix.from_int_rows(F5, [[1, 0]])
    g2 = lift_automorphism(ext_h3_f5, s, idp, phi)
    assert g2 == Matrix.from_int_rows(F5, [[1, 0, 0], [0, 1, 0], [4, 0, 1]])
    with pytest.raises(UsageError):
        lift_automorphism(ext_h3_f5, s, _pair(F5, [[1, 0], [0, 1]], [[2]]), zphi)


def test_kappa(F5, ext_h3_f5):
    s = canonical_section(ext_h3_f5)
    idp = kappa(ext_h3_f5, s, Matrix.identity(F5, 3))
    assert idp.alpha == Matrix.identity(F5, 2) and idp.beta == Matrix.identity(F5, 1)
    g = Matrix.from_int_rows(F5, [[2, 0, 0], [0, 1, 0], [0, 0, 2]])
    pair = kappa(ext_h3_f5, s, g)
    assert pair.alpha == Matrix.from_int_rows(F5, [[2, 0], [0, 1]])
    assert pair.beta == Matrix.from_int_rows(F5, [[2]])
    shear = Matrix.from_int_rows(F5, [[1, 0, 0], [0, 1, 0], [4, 0, 1]])
    pair = kappa(ext_h3_f5, s, shear)
    assert pair.alpha == Matrix.identity(F5, 2)
    with pytest.raises(UsageError):
        kappa(ext_h3_f5, s, Matrix.from_int_rows(F5, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]))


def test_wells_map(F5, ext_h3_f5):
    w = wells_map(ext_h3_f5, _pair(F5, [[1, 0], [0, 1]], [[1]]))
    assert w.status == "zero" and w.witness.is_zero()
    w = wells_map(ext_h3_f5, _pair(F5, [[1, 0], [0, 1]], [[2]]))
    assert w.status == "nonzero"
    w = wells_map(ext_h3_f5, _pair(F5, [[2, 0], [0, 1]], [[2]]))
    assert w.status == "zero"


def test_z1_examples(F5, ext_h3_f5):
    c0 = NonAbelianCocycle.zero(z2(F5), zero_algebra(F5, 1))
    res = z1_nab(c0)
    assert res.dim == 2
    c = theta_map(ext_h3_f5)
    res = z1_nab(c)
    assert res.dim == 2 and len(res.maps) == 25
    cs = NonAbelianCocycle.zero(s2(F5), zero_algebra(F5, 1))
    res = z1_nab(cs)
    assert res.dim == 1
    for phi in res.maps:
        assert phi.entries[0][0] == F5.zero  # phi(e1) forced to vanish


def test_s_map(F5, ext_h3_f5):
    s = canonical_section(ext_h3_f5)
    assert s_map(ext_h3_f5, s, Matrix.identity(F5, 3)).is_zero()
    shear = Matrix.from_int_rows(F5, [[1, 0, 0], [0, 1, 0], [4, 0, 1]])
    phi = s_map(ext_h3_f5, s, shear)
    assert phi == Matrix.from_int_rows(F5, [[1, 0]])
    # additivity on two lifts
    shear2 = Matrix.from_int_rows(F5, [[1, 0, 0], [0, 1, 0], [0, 3, 1]])
    combined = s_map(ext_h3_f5, s, shear * shear2)
    assert combined == phi + s_map(ext_h3_f5, s, shear2)
    with pytest.raises(UsageError):
        s_map(ext_h3_f5, s, Matrix.from_int_rows(
            F5, [[2, 0, 0], [0, 1, 0], [0, 0, 2]]))


def test_compatible_pairs(F5):
    pairs = compatible_pairs(z2(F5), trivial_representation(F5, 2))
    assert len(pairs) == 480 * 4  # zero actions: every pair qualifies
    pairs = compatible_pairs(s2(F5), r_s2(F5))
    assert len(pairs) == 80
    assert is_compatible_pair(
        s2(F5), r_s2(F5),
        AutPair(Matrix.identity(F5, 2), Matrix.identity(F5, 1)))


def test_exactness_on_trivial_extension(F5):
    e = as_extension(NonAbelianCocycle.zero(z1(F5), zero_algebra(F5, 1)))
    rep = verify_wells_exactness(e)
    assert rep.all_verdicts
    assert rep.aut_v_total == 80
    assert rep.aut_fixing_both == 5 == rep.z1_count
    assert rep.image_kappa == 16 == rep.pairs_total == rep.kernel_wells
    assert rep.aut_v_total == rep.aut_fixing_both * rep.image_kappa


def test_exactness_requires_prime_field(Q):
    e = as_extension(NonAbelianCocycle.zero(z1(Q), zero_algebra(Q, 1)))
    from bolext.errors import UnsupportedEnumerationError
    with pytest.raises(UnsupportedEnumerationError):
        verify_wells_exactness(e)


def test_wells_incompatible_pair_reported_distinctly(F5):
    # abelian fiber with mu = (1, 0) over the two-dimensional zero algebra:
    # pairs that fail to intertwine mu are gated out before acting
    from bolext.exactlin import Matrix as M
    r = _mu_first_representation(F5)
    e = _extension(F5, "z2_mu_first")
    bad = AutPair(M.from_int_rows(F5, [[2, 0], [0, 2]]), M.identity(F5, 1))
    rep = wells_map(e, bad)
    assert rep.status == "incompatible"
    good = AutPair(M.from_int_rows(F5, [[1, 0], [0, 2]]), M.identity(F5, 1))
    assert is_compatible_pair(z2(F5), r, good)
    assert wells_map(e, good).status == "zero"


def test_wells_verdicts_section_independent(F5, ext_h3_f5):
    # class verdicts computed from two different sections agree on every
    # sampled pair
    from bolext.extensions import extract_cocycle, make_section
    from bolext.wells import _wells_verdict
    from bolext.core import DEFAULT_ENUMERATION_BOUND

    e = ext_h3_f5
    s = canonical_section(e)
    sp = make_section(e, Matrix.from_int_rows(F5, [[1, 0], [0, 1], [3, 2]]))
    c1 = extract_cocycle(e, s)
    c2 = extract_cocycle(e, sp)
    rng = random.Random(17)
    pairs = []
    while len(pairs) < 12:
        alpha = Matrix.from_int_rows(
            F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
        if alpha.is_invertible():
            pairs.append(AutPair(alpha,
                                 Matrix.from_int_rows(F5, [[rng.randrange(1, 5)]])))
    for pair in pairs:
        v1 = _wells_verdict(c1, pair, DEFAULT_ENUMERATION_BOUND)
        v2 = _wells_verdict(c2, pair, DEFAULT_ENUMERATION_BOUND)
        assert v1.status == v2.status


def _mu_first_representation(F5):
    from bolext.representation import Representation
    one = Matrix.identity(F5, 1)
    z = Matrix.zeros(F5, 1, 1)
    return Representation(F5, 2, 1, (one, z), ((z, z), (z, z)), ((z, z), (z, z)))


def _theta_omega_cocycle(F5, mu2):
    # mu(e2) = mu2, theta(e2,e2) = 1 and omega(e1,e2,e2) = 1 over z2 x z1: a
    # non-split extension; with mu2 = 1 its pairs cover all three class
    # statuses, with mu2 = 0 the theta gate alone rejects some pairs
    from bolext.cohomology import Cochain2, Cochain3

    def one_by_one(v):
        return Matrix.from_int_rows(F5, [[v]])
    zero = one_by_one(0)
    c = NonAbelianCocycle(
        z2(F5), z1(F5), Cochain2.zero(2, 1, F5),
        Cochain3.from_triples(2, 1, F5, {(0, 1, 1): (F5.one,)}),
        (zero, one_by_one(mu2)), ((zero, zero), (zero, one_by_one(1))),
        ((zero, zero), (zero, zero)))
    assert validate_nab_cocycle(c).valid
    return c


def _bracket_base(F5):
    # [e1,e2,e2] = e1, product zero: a base with a nonzero bracket
    from bolext.bol import BolAlgebra, validate_bol
    z, e1 = (F5.zero, F5.zero), (F5.one, F5.zero)
    tri = (((z, z), (z, e1)), ((z, tuple(-x for x in e1)), (z, z)))
    a = BolAlgebra(F5, 2, z2(F5).bil, tri)
    assert validate_bol(a).valid
    return a


def _extension(F5, name):
    from bolext.extensions import e_h3, semidirect_extension
    if name == "e_h3":
        return e_h3(F5)
    if name == "z2_mu_first":
        return semidirect_extension(z2(F5), _mu_first_representation(F5))
    if name == "z2_theta_omega":
        return as_extension(_theta_omega_cocycle(F5, 1))
    if name == "z2_theta_omega_mu0":
        return as_extension(_theta_omega_cocycle(F5, 0))
    if name == "s2_trivial":
        return semidirect_extension(s2(F5), trivial_representation(F5, 2))
    if name == "bracket_base":
        return semidirect_extension(_bracket_base(F5),
                                    trivial_representation(F5, 2))
    if name == "z1_s2":
        return as_extension(NonAbelianCocycle.zero(z1(F5), s2(F5)))
    if name == "z1_m2_actions":
        # a module of dimension 2 over z1 with mu and theta nonzero and not
        # scalar: beta in GL2 does not commute with them
        from bolext.representation import Representation
        mu, theta, z = ([[0, 1], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 0]])
        return semidirect_extension(z1(F5), Representation(
            F5, 1, 2, (Matrix.from_int_rows(F5, mu),),
            ((Matrix.from_int_rows(F5, theta),),), ((Matrix.from_int_rows(F5, z),),)))
    if name in ("e_s2_s2", "e_z2_s2"):
        from bolext.documents import parse_document
        from conftest import corpus_dir
        return parse_document(str(corpus_dir() / f"{name}.ext"), "extension")
    if name == "e_s2_s2_sheared":
        # e_s2_s2 read through a skew section: its pairs' witnesses are
        # nonzero maps into a non-abelian fiber
        from bolext.extensions import extract_cocycle, make_section
        e = _extension(F5, "e_s2_s2")
        sheared = make_section(e, Matrix.from_int_rows(F5, [[1, 0], [0, 1], [2, 3], [1, 4]]))
        return as_extension(extract_cocycle(e, sheared))
    split = semidirect_extension(s2(F5), r_s2(F5))
    if name == "s2_r_s2_sheared":
        # the split extension read through a skew section: nu is a nonzero
        # coboundary, so most lifts need a nonzero map
        from bolext.extensions import extract_cocycle, make_section
        sheared = make_section(split, Matrix.from_int_rows(F5, [[1, 0], [0, 1], [2, 3]]))
        return as_extension(extract_cocycle(split, sheared))
    return split


def _class_case(F5, name):
    """(cocycle, base and fiber groups as `_checked_automorphisms` gives
    them) of the extension `name`."""
    from bolext.bol import automorphism_int_arrays
    from bolext.wells import _checked_automorphisms

    e = _extension(F5, name)
    return (theta_map(e),
            _checked_automorphisms(automorphism_int_arrays(e.base), e.base, "first", "base"),
            _checked_automorphisms(automorphism_int_arrays(e.fiber), e.fiber, "second",
                                   "fiber"))


def _first_witnesses(c, acted, zero):
    """Per acted cocycle of a vanishing class over an abelian fiber, the
    first map phi in candidate order with `_equivalent_via` true."""
    from bolext.exactlin import enumerate_vectors
    from bolext.identities import residues
    from bolext.nonabelian import _cocycle_arrays, _equivalent_via

    n, m, p = c.n, c.m, c.field.p
    maps = np.array([[[v[q * m + t].value for q in range(n)] for t in range(m)]
                     for v in enumerate_vectors(c.field, n * m)], dtype=np.int64)
    members = acted.take(np.repeat(np.flatnonzero(zero), len(maps)))
    ok = _equivalent_via(members, _cocycle_arrays(c), np.tile(maps, (int(zero.sum()), 1, 1)),
                         residues(c.base.bil), residues(c.base.tri), p).reshape(-1, len(maps))
    assert ok.any(axis=1).all()
    return maps[ok.argmax(axis=1)]


@pytest.mark.parametrize("name", ["e_h3", "z2_mu_first", "s2_r_s2", "s2_r_s2_sheared",
                                  "z2_theta_omega", "bracket_base", "z1_m2_actions", "z1_s2",
                                  "e_s2_s2"])
def test_batched_class_verdicts_match_per_pair(F5, name, monkeypatch):
    # every pair of the exactness scan: the orbit pass against the per-pair
    # route (status, and over a non-abelian fiber the witness, the first map
    # its search meets) and, over an abelian fiber, against the batched
    # elimination (status; its canonical witness against the per-pair
    # route's) and the first map `_equivalent_via` accepts (witness)
    from bolext import wells
    from bolext.core import DEFAULT_ENUMERATION_BOUND
    from bolext.nonabelian import _cocycle_arrays
    from bolext.wells import _act, _alpha_run, _class_verdicts
    from oracles import abelian_class_verdicts, pairwise_class_verdicts

    c, base, fiber = _class_case(F5, name)
    total = len(base[0]) * len(fiber[0])
    # a chunk size that does not divide the pair count
    monkeypatch.setattr(wells, "_VERDICT_CHUNK", 700)
    got = list(_class_verdicts(c, base, fiber, DEFAULT_ENUMERATION_BOUND))
    assert [start for start, _, _ in got] == list(range(0, total, 700))
    status, phi = (np.concatenate([part[k] for part in got]) for k in (1, 2))
    want = list(pairwise_class_verdicts(c, base, fiber, DEFAULT_ENUMERATION_BOUND))
    want_status, want_phi = (np.concatenate([part[k] for part in want]) for k in (1, 2))
    assert status.tolist() == want_status.tolist()
    zero = status == wells._ZERO
    assert zero.any() and not phi[~zero].any()
    if not c.fiber.is_abelian():
        assert phi.tolist() == want_phi.tolist()
        return
    batched = list(abelian_class_verdicts(c, base, fiber))
    assert [start for start, _, _ in batched] == list(range(0, total, 700))
    assert np.concatenate([s for _, s, _ in batched]).tolist() == want_status.tolist()
    assert np.concatenate([f for _, _, f in batched]).tolist() == want_phi.tolist()
    ia, ib = np.divmod(np.arange(total), len(fiber[0]))
    span, which = _alpha_run(ia)
    acted = _act(_cocycle_arrays(c), base[1][span], fiber[0][ib], fiber[1][ib], 5,
                 which)
    assert phi[zero].tolist() == _first_witnesses(c, acted, zero).tolist()


def test_orbit_verdicts_match_per_pair_on_a_sample_of_the_z2_s2_class(F5):
    # e_z2_s2.ext (d = 4, a non-abelian fiber, 9,600 pairs): the orbit pass
    # on every pair against the per-pair route on a seeded sample of 200,
    # status and witness
    from bolext.core import DEFAULT_ENUMERATION_BOUND
    from bolext.wells import _class_verdicts, _NONZERO, _ZERO
    from oracles import pairwise_class_verdicts

    c, base, fiber = _class_case(F5, "e_z2_s2")
    got = list(_class_verdicts(c, base, fiber, DEFAULT_ENUMERATION_BOUND))
    status, phi = (np.concatenate([part[k] for part in got]) for k in (1, 2))
    assert len(status) == 9600 and (status == _ZERO).sum() == 2400
    sample = sorted(random.Random(33).sample(range(9600), 200))
    (pairs, want_status, want_phi), = pairwise_class_verdicts(
        c, base, fiber, DEFAULT_ENUMERATION_BOUND, pairs=sample)
    assert status[pairs].tolist() == want_status.tolist()
    assert phi[pairs].tolist() == want_phi.tolist()
    assert {_ZERO, _NONZERO} <= set(want_status.tolist())


@pytest.mark.parametrize("name", ["e_h3", "z2_theta_omega_mu0", "s2_r_s2", "z2_mu_first",
                                  "z1_m2_actions"])
def test_zero_actions_are_skipped_without_changing_the_acted_cocycles(F5, name):
    # every pair: `_act` and `_intertwines`, which skip each all-zero
    # tensor, against the same steps with every tensor moved by alpha^-1 per
    # pair and every action tensor conjugated.  z2_theta_omega_mu0 has
    # mu = 0 and theta != 0, z2_mu_first mu != 0 and theta = 0, s2_r_s2
    # both nonzero, e_h3 all three zero, and z1_m2_actions mu and theta
    # nonzero on a fiber of dimension 2, where conjugation moves them
    from bolext.bruteforce import contract_mod as f
    from bolext.nonabelian import _cocycle_arrays
    from bolext.wells import _act, _alpha_run, _conjugate, _intertwines

    c, (alphas, alpha_invs), (betas, beta_invs) = _class_case(F5, name)
    arr = _cocycle_arrays(c)
    ia, ib = np.divmod(np.arange(len(alphas) * len(betas)), len(betas))
    span, which = _alpha_run(ia)
    beta, binv, ainv = betas[ib], beta_invs[ib], alpha_invs[ia]
    nu = f("kry,kxrs->kxys", 5, ainv, f("kqx,qrs->kxrs", 5, ainv, arr.nu))
    om = f("kuz,kxyus->kxyzs", 5, ainv, f("kry,kxrus->kxyus", 5, ainv,
                                          f("kqx,qrus->kxrus", 5, ainv, arr.om)))
    grids = [f("kry,kxrst->kxyst", 5, ainv, f("kqx,qrst->kxrst", 5, ainv, g))
             for g in (arr.theta, arr.dd)]
    want = (f("kst,kxyt->kxys", 5, beta, nu), f("kst,kxyzt->kxyzs", 5, beta, om),
            *(_conjugate(beta, a, binv, 5)
              for a in [f("kqx,qst->kxst", 5, ainv, arr.mu)] + grids))
    acted = _act(arr, alpha_invs[span], beta, binv, 5, which)
    assert all((a == b).all() for a, b in zip(acted, want))
    k = len(beta)
    mu = _conjugate(beta, np.broadcast_to(arr.mu, (k,) + arr.mu.shape), binv, 5)
    theta = _conjugate(beta, np.broadcast_to(arr.theta, (k,) + arr.theta.shape), binv, 5)
    moved_mu = f("kqx,qst->kxst", 5, alphas, arr.mu)[ia]
    moved_theta = f("kry,kxrst->kxyst", 5, alphas, f("kqx,qrst->kxrst", 5, alphas, arr.theta))[ia]
    unskipped = ((mu == moved_mu).all(axis=(1, 2, 3))
                 & (theta == moved_theta).all(axis=(1, 2, 3, 4)))
    assert _intertwines(arr, alphas[span], beta, binv, 5, which).tolist() == unskipped.tolist()
    assert unskipped.all() == (name in ("e_h3", "s2_r_s2"))


@pytest.mark.parametrize("name", ["s2_r_s2_sheared", "e_s2_s2_sheared"])
def test_shear_sign_is_pinned_by_a_nonzero_witness(F5, name):
    # the shear [[I, 0], [phi, I]] maps the glued total of c into that of
    # the acted cocycle; with -phi it does not, on each vanishing class whose
    # witness phi is not its own negative's
    from bolext.core import DEFAULT_ENUMERATION_BOUND
    from bolext.identities import residues
    from bolext.nonabelian import _cocycle_arrays, glue
    from bolext.wells import _act, _alpha_run, _class_verdicts, _shears_hold, _ZERO

    c, base, fiber = _class_case(F5, name)
    status, phi = (np.concatenate([part[k] for part in _class_verdicts(
        c, base, fiber, DEFAULT_ENUMERATION_BOUND)]) for k in (1, 2))
    ia, ib = np.divmod(np.arange(len(status)), len(fiber[0]))
    span, which = _alpha_run(ia)
    acted = _act(_cocycle_arrays(c), base[1][span], fiber[0][ib], fiber[1][ib], 5, which)
    tensors = {key: residues(t) for key, t in c.tensors().items()}
    source = glue(**tensors, p=5)
    nonzero = np.flatnonzero((status == _ZERO) & phi.any(axis=(1, 2)))
    assert len(nonzero) >= 10
    for k in nonzero[:: max(1, len(nonzero) // 10)]:
        member = acted.take([k])
        assert _shears_hold(tensors, source, member, phi[[k]], 5)
        assert not _shears_hold(tensors, source, member, -phi[[k]] % 5, 5)


def test_two_structure_morphisms_match_the_scalar_test(F5):
    # identities.HOM on maps of the glued total of e_s2_s2_sheared's
    # cocycle into the glued totals of its acted cocycles, against the
    # scalar bol.is_morphism: each pair's shear by its witness, which
    # passes, and random maps, which fail
    from bolext.bol import BolAlgebra, int_matrix, is_morphism
    from bolext.bruteforce import identity_mask
    from bolext.core import DEFAULT_ENUMERATION_BOUND
    from bolext.identities import HOM, residues, scalars
    from bolext.nonabelian import _cocycle_arrays, glue
    from bolext.wells import _act, _alpha_run, _class_verdicts, _ZERO

    c, base, fiber = _class_case(F5, "e_s2_s2_sheared")
    status, phi = (np.concatenate([part[k] for part in _class_verdicts(
        c, base, fiber, DEFAULT_ENUMERATION_BOUND)]) for k in (1, 2))
    pairs = np.flatnonzero(status == _ZERO)[::7]
    ia, ib = np.divmod(pairs, len(fiber[0]))
    span, which = _alpha_run(ia)
    acted = _act(_cocycle_arrays(c), base[1][span], fiber[0][ib], fiber[1][ib], 5, which)
    tensors = {key: residues(t) for key, t in c.tensors().items()}
    bil, tri = glue(**tensors, p=5)
    bil2, tri2 = glue(tensors["bil"], tensors["tri"], tensors["vbil"], tensors["vtri"],
                      *acted, p=5)
    d, n = len(bil), c.n
    shears = np.tile(np.eye(d, dtype=np.int64), (len(pairs), 1, 1))
    shears[:, n:, :n] = phi[pairs]
    maps = np.concatenate([shears, np.random.default_rng(3).integers(0, 5, shears.shape)])
    targets = np.concatenate([bil2, bil2]), np.concatenate([tri2, tri2])
    got = identity_mask(HOM, 5, {"f": maps, "bil2": targets[0], "tri2": targets[1]},
                        {"bil": bil, "tri": tri})
    source = BolAlgebra(F5, d, scalars(F5, bil), scalars(F5, tri))
    want = [is_morphism(int_matrix(F5, f), source, BolAlgebra(F5, d, scalars(F5, b),
                                                              scalars(F5, t)))
            for f, b, t in zip(maps, *targets)]
    assert got.tolist() == want
    assert len(pairs) > 10 and got[:len(pairs)].all() and not got[len(pairs):].any()


def test_corrupted_elimination_fails_witness_verification(F5, monkeypatch):
    # every witness of the batched elimination (`oracles.abelian_class_verdicts`)
    # is checked against its pair.  The shared solves (one-member stacks)
    # are corrupted to find every right-hand side consistent; e_h3's
    # equivalence matrix is zero, so each pair with a nonzero class is then
    # taken for zero with the witness 0
    import bolext.bruteforce
    from bolext.errors import InternalConsistencyError
    from oracles import abelian_class_verdicts

    eliminate = bolext.bruteforce.eliminate

    def corrupted(aug, cols, p):
        out, rank, pivot_row = eliminate(aug, cols, p)
        if len(out) == 1:
            out[0, rank[0]:, cols:] = 0
        return out, rank, pivot_row

    monkeypatch.setattr(bolext.bruteforce, "eliminate", corrupted)
    with pytest.raises(InternalConsistencyError,
                       match="^batched class witness failed verification$"):
        list(abelian_class_verdicts(*_class_case(F5, "e_h3")))


@pytest.mark.parametrize("name,route", [
    ("e_h3", "_equivalent_via"), ("e_h3", "_shears_hold"), ("s2_r_s2_sheared", "_shears_hold"),
    ("e_s2_s2", "_shears_hold")])
def test_corrupted_orbit_fails_witness_verification(F5, monkeypatch, name, route):
    # every witness of the orbit pass is checked off the EQV table, by each
    # route alone.  The lookup is corrupted to find every acted cocycle in
    # the orbit, reached by the map 0 or, where that is right, by the last
    # map: each pair with a nonzero class is then taken for zero with a
    # wrong witness
    from bolext import nonabelian, wells
    from bolext.errors import InternalConsistencyError

    lookup = nonabelian._orbit_lookup

    def corrupted(tensors, p, bound):
        maps, find = lookup(tensors, p, bound)
        return maps, lambda rows: np.where(find(rows) > 0, len(maps) - 1, 0)

    monkeypatch.setattr(wells, "_orbit_lookup", corrupted)
    other = {"_equivalent_via": "_shears_hold", "_shears_hold": "_equivalent_via"}[route]
    monkeypatch.setattr(wells, other, lambda *args: np.ones(len(args[2]), dtype=bool)
                        if other == "_equivalent_via" else True)
    with pytest.raises(InternalConsistencyError,
                       match="^batched class witness failed verification$"):
        verify_wells_exactness(_extension(F5, name))


@pytest.mark.parametrize("name,pairs,incompatible", [
    ("z2_mu_first", 1920, 1840), ("s2_r_s2", 80, 0)])
def test_exactness_on_semidirect_extensions(F5, name, pairs, incompatible):
    rep = verify_wells_exactness(_extension(F5, name))
    assert rep.all_verdicts
    assert rep.aut_v_total == 400
    assert rep.aut_fixing_both == 5 == rep.z1_count
    assert rep.image_kappa == 80 == rep.kernel_wells
    assert rep.pairs_total == pairs
    assert rep.incompatible_pairs == incompatible


def test_exactness_with_nonabelian_fiber(F5):
    # fiber s2 is not abelian: the class verdicts take the orbit pass, with
    # no incompatible status
    e = as_extension(NonAbelianCocycle.zero(z1(F5), s2(F5)))
    rep = verify_wells_exactness(e)
    assert rep.all_verdicts
    assert (rep.aut_v_total, rep.aut_fixing_both, rep.z1_count) == (80, 1, 1)
    assert rep.pairs_total == rep.image_kappa == rep.kernel_wells == 80
    assert rep.incompatible_pairs == 0


@pytest.mark.parametrize("name", ["e_h3", "s2_trivial", "z2_theta_omega",
                                  "z2_theta_omega_mu0", "bracket_base"])
def test_residue_pair_steps_match_scalar_route(F5, name):
    # the steps of the batched pass on sampled pairs, incompatible ones
    # included, against the scalar functions they stand for; the witness
    # check runs over every map base -> fiber
    from bolext.bol import automorphism_int_arrays, int_matrix
    from bolext.exactlin import enumerate_vectors
    from bolext.identities import residues
    from bolext.nonabelian import (_cocycle_arrays, _equivalent_via,
                                   cocycles_equivalent_via, solve_equivalence)
    from bolext.wells import _act, _intertwines, _pair_intertwines
    from oracles import same_actions

    e = _extension(F5, name)
    c = theta_map(e)
    arr = _cocycle_arrays(c)
    bil, tri = residues(c.base.bil), residues(c.base.tri)
    maps = [Matrix(F5, [[v[q * c.m + t] for q in range(c.n)] for t in range(c.m)])
            for v in enumerate_vectors(F5, c.n * c.m)]
    phis = np.array([[[int(x.value) for x in row] for row in f.entries]
                     for f in maps])
    base_auts = automorphism_int_arrays(e.base)
    fiber_auts = automorphism_int_arrays(e.fiber)
    nb = len(fiber_auts)

    def batch_of_one(g):
        return np.asarray(g, dtype=np.int64)[None]

    def inverse(g):
        return batch_of_one([[int(x.value) for x in row]
                             for row in int_matrix(F5, g).inverse().entries])

    for i in range(0, len(base_auts) * nb, 13):
        ga, gb = base_auts[i // nb], fiber_auts[i % nb]
        pair = AutPair(int_matrix(F5, ga), int_matrix(F5, gb))
        acted = act_on_cocycle(c, pair)
        got = _act(arr, inverse(ga), batch_of_one(gb), inverse(gb), 5, [0])
        assert all((a[0] == b).all() for a, b in zip(got, _cocycle_arrays(acted)))
        assert _intertwines(arr, batch_of_one(ga), batch_of_one(gb),
                            inverse(gb), 5, [0])[0] == \
            _pair_intertwines(c, pair)
        gated = solve_equivalence(acted, c).reason in ("eqv-mu", "eqv-theta", "eqv-d")
        assert same_actions(got, arr)[0] == (not gated)
        many = got.take(np.zeros(len(maps), dtype=np.int64))
        assert _equivalent_via(many, arr, phis, bil, tri, 5).tolist() == \
            [cocycles_equivalent_via(acted, c, f).valid for f in maps]


@pytest.mark.parametrize("name", ["e_h3", "z2_theta_omega"])
def test_cocycle_moved_once_per_alpha_matches_once_per_pair(F5, name):
    # a chunk of pairs, alpha-major: the cocycle moved by each distinct
    # alpha^-1 once and read by index, against the same moved per pair
    from bolext.bol import automorphism_int_arrays
    from bolext.bruteforce import inverse_mod
    from bolext.nonabelian import _cocycle_arrays
    from bolext.wells import _act, _alpha_run, _intertwines

    e = _extension(F5, name)
    arr = _cocycle_arrays(theta_map(e))
    alphas, betas = automorphism_int_arrays(e.base), automorphism_int_arrays(e.fiber)
    ia, ib = np.divmod(np.arange(37, 37 + 301), len(betas))
    alpha_invs, beta_invs = inverse_mod(alphas, 5)[1], inverse_mod(betas, 5)[1]
    beta, binv = betas[ib].astype(np.int64), beta_invs[ib]
    span, which = _alpha_run(ia)
    assert len(np.unique(ia)) > 1
    each = np.arange(len(ia))
    once = _act(arr, alpha_invs[span], beta, binv, 5, which)
    assert all((a == b).all()
               for a, b in zip(once, _act(arr, alpha_invs[ia], beta, binv, 5, each)))
    alphas = alphas.astype(np.int64)
    assert (_intertwines(arr, alphas[span], beta, binv, 5, which)
            == _intertwines(arr, alphas[ia], beta, binv, 5, each)).all()


def test_inducibility_reason_lists_each_inconsistent_block(F5):
    # z2 x z1, trivial actions, nu(e1,e2) = 1 and omega(e1,e2,e1) = 1: under
    # (diag(2,1), 1) the nu and the omega systems are each inconsistent alone
    from bolext.cohomology import Cochain2, Cochain3

    zero = NonAbelianCocycle.zero(z2(F5), z1(F5))
    c = NonAbelianCocycle(zero.base, zero.fiber,
                          Cochain2.from_pairs(2, 1, F5, {(0, 1): (F5.one,)}),
                          Cochain3.from_triples(2, 1, F5, {(0, 1, 0): (F5.one,)}),
                          zero.mu, zero.theta, zero.dd)
    e = as_extension(c)
    pair = _pair(F5, [[2, 0], [0, 1]], [[1]])
    dec = solve_inducibility(e, pair)
    assert (dec.status, dec.reason) == (Status.NONE, "ind-nu+ind-omega")
    assert wells_map(e, pair).status == "nonzero"


@pytest.mark.parametrize("name,step", [("z2_theta_omega", 7), ("s2_r_s2", 1),
                                       ("s2_r_s2_sheared", 1)])
def test_inducibility_agrees_with_wells_class(F5, name, step):
    # a pair lifts iff its class verdict is zero: the inducibility solver
    # against the equivalence solver, each witness checked by its lift
    from bolext.bol import automorphism_int_arrays, int_matrix

    e = _extension(F5, name)
    s = canonical_section(e)
    fiber_auts = automorphism_int_arrays(e.fiber)
    pairs = [AutPair(int_matrix(F5, ga), int_matrix(F5, gb))
             for ga in automorphism_int_arrays(e.base) for gb in fiber_auts]
    reasons = set()
    nonzero_witnesses = 0
    for pair in pairs[::step]:
        dec = solve_inducibility(e, pair)
        verdict = wells_map(e, pair).status
        assert dec.found == (verdict == "zero")
        if dec.found:
            gamma = lift_automorphism(e, s, pair, dec.witness)
            assert e.proj * gamma == pair.alpha * e.proj
            nonzero_witnesses += not dec.witness.is_zero()
        else:
            reasons.add((dec.reason, verdict))
    if name == "z2_theta_omega":
        assert reasons == {("ind-mu", "incompatible"),
                           ("ind-omega+ind-nu", "nonzero")}
    if name == "s2_r_s2_sheared":
        assert not reasons and nonzero_witnesses == 60


def _rebased(F5, e, seed):
    """e with the total written in a random basis, so that the fiber leaves
    the coordinate axes."""
    from bolext.extensions import Extension
    rng = random.Random(seed)
    while True:
        g = Matrix.from_int_rows(F5, [[rng.randrange(5) for _ in range(3)]
                                      for _ in range(3)])
        if g.is_invertible():
            break
    return Extension(e.fiber, e.total.conjugate(g), e.base, g.inverse() * e.inj,
                     e.proj * g)


_SCAN_CASES = ["e_h3", "z1_z1", "z2_mu_first", "s2_r_s2", "z1_s2", "e_h3_rebased_3",
               "e_h3_rebased_8"]
# d = 3 totals whose adapted tri is nonzero, so the scan reads
# triple-product rows: two classes with omega != 0 (z2 x z1, and s2 x z1
# with the actions of r_s2_gf5), and two whose tri takes a fiber input
# (theta) or gives a base output (the bracket of the base), so that those
# rows reach the linear part in C
_TRI_CASES = ["z2_z1_omega", "s2_z1_r_s2_omega", "z2_theta_omega", "bracket_base"]


def _scanned(stream):
    """The slices of `bruteforce.triangular_arrays`, concatenated: (blocks,
    pair indices)."""
    slices = list(stream)
    return (np.concatenate([s.blocks for s in slices]),
            np.concatenate([s.pairs for s in slices]))


def _omega_class(F5, base, actions=None):
    """The first class representative over base x z1 with omega != 0."""
    from bolext.extensions import classify_corpus
    from bolext.identities import residues

    reps = classify_corpus(base, zero_algebra(F5, 1), actions)[1]
    return next(c for c in reps if residues(c.omega.grid).any())


def _scan_case(F5, name):
    """(extension, adapted basis [s | i], the factored scan's arguments bil,
    tri, alphas, betas) of one extension of the factored scan tests."""
    from bolext.bol import automorphism_int_arrays
    from bolext.documents import parse_document
    from bolext.identities import residues
    from conftest import corpus_dir

    if name == "z1_z1":
        e = as_extension(NonAbelianCocycle.zero(z1(F5), zero_algebra(F5, 1)))
    elif name == "z2_z1_omega":
        e = as_extension(_omega_class(F5, z2(F5)))
    elif name == "s2_z1_r_s2_omega":
        r = parse_document(str(corpus_dir() / "r_s2_gf5.rep"), "representation")
        e = as_extension(_omega_class(F5, s2(F5), (r.mu, r.theta, r.dd)))
    elif name.startswith("e_h3_rebased"):
        e = _rebased(F5, _extension(F5, "e_h3"), int(name.rsplit("_", 1)[1]))
    else:
        e = _extension(F5, name)
    s = canonical_section(e)
    t = Matrix.from_cols(F5, [s.matrix.col(i) for i in range(e.n)]
                         + [e.inj.col(a) for a in range(e.m)])
    adapted = e.total.conjugate(t)
    return e, t, (residues(adapted.bil), residues(adapted.tri),
                  automorphism_int_arrays(e.base), automorphism_int_arrays(e.fiber))


@pytest.mark.parametrize("name", _SCAN_CASES)
def test_stabiliser_scan_matches_flat_scan(F5, monkeypatch, name):
    # the factored scan of the fiber's stabiliser in the adapted basis
    # against the flat scan of the total filtered to the fiber-preserving
    # maps and rewritten in that basis, its pair indices against its
    # diagonal blocks, and those blocks against the lift search oracle
    import bolext.bol
    from bolext.bol import automorphism_int_arrays, int_matrix
    from bolext.bruteforce import triangular_arrays
    from bolext.identities import residues
    from oracles import lift_search_image

    e, t, (bil, tri, alphas, betas) = _scan_case(F5, name)
    T, Tinv, P, I = (residues(f.entries) for f in (t, t.inverse(), e.proj, e.inj))
    if name.startswith("e_h3_rebased"):
        assert sorted(T.ravel().tolist()) != [0] * 6 + [1] * 3
    got, pairs = _scanned(triangular_arrays(bil, tri, alphas, betas, 5, 10 ** 7))
    got = got.astype(np.int64)
    n = e.n
    assert (alphas[pairs // len(betas)] == got[:, :n, :n]).all()
    assert (betas[pairs % len(betas)] == got[:, n:, n:]).all()
    flat = automorphism_int_arrays(e.total).astype(np.int64)
    moves = np.einsum("xy,byz,zw->bxw", P, flat, I) % 5
    want = np.einsum("xy,byz,zw->bxw", Tinv, flat[~moves.any(axis=(1, 2))], T) % 5
    keys = {g.tobytes() for g in got}
    assert len(keys) == len(got) == len(want)
    assert keys == {g.tobytes() for g in want}
    image = {(int_matrix(F5, g[:n, :n]).entries, int_matrix(F5, g[n:, n:]).entries)
             for g in got}

    def same_flat_scan(a, budget):
        # the lift search starts from the same flat scan; hand it this one
        assert a is e.total
        return flat
    monkeypatch.setattr(bolext.bol, "automorphism_int_arrays", same_flat_scan)
    assert image == lift_search_image(e)


@pytest.mark.parametrize("name", _SCAN_CASES + ["e_s2_s2"] + _TRI_CASES)
def test_factored_scan_matches_unpruned_scan(F5, name):
    # probe and solve returns what the morphism test of every candidate
    # returns: the same arrays and pair indices, in the same order
    from bolext.bruteforce import triangular_arrays
    from oracles import triangular_arrays_oracle

    args = _scan_case(F5, name)[2]
    assert args[1].any() == (name in _TRI_CASES)
    got, pairs = _scanned(triangular_arrays(*args, 5, 10 ** 7))
    want, want_pairs = triangular_arrays_oracle(*args, 5, 10 ** 7)
    assert len(want) and (got.dtype, pairs.dtype) == (want.dtype, want_pairs.dtype)
    assert got.tolist() == want.tolist() and pairs.tolist() == want_pairs.tolist()


@pytest.mark.parametrize("seed", [3, 8])
def test_exactness_report_is_basis_invariant(F5, seed):
    # the verifier scans in a basis adapted to the fiber; e_h3 with the
    # fiber off the coordinate axes must give the same report
    e = _extension(F5, "e_h3")
    rebased = verify_wells_exactness(_rebased(F5, e, seed)).as_dict()
    assert rebased == verify_wells_exactness(e).as_dict()
    assert rebased["cardinalities"]["aut_v_total"] == 12000


def test_stabiliser_scan_refuses_dimension_four():
    # only the flat scan is limited in dimension; the factored scan of a
    # d = 4 total is covered by the corpus extension in test_cli
    from bolext.bruteforce import automorphism_arrays
    from bolext.errors import UnsupportedEnumerationError

    with pytest.raises(UnsupportedEnumerationError,
                       match="matrix enumeration supports dimension <= 3"):
        automorphism_arrays(np.zeros((4,) * 3, dtype=np.int64),
                            np.zeros((4,) * 4, dtype=np.int64), 2, 10 ** 7)


def test_exactness_e_h3_gf7_at_default_bound(F7):
    # 7^9 matrices exceed the default bound; the 2016 * 6 * 7^2 candidates
    # of the factored scan do not
    import time
    from bolext.extensions import e_h3

    t0 = time.monotonic()
    rep = verify_wells_exactness(e_h3(F7))
    assert time.monotonic() - t0 < 30.0
    assert rep.all_verdicts
    assert rep.aut_v_total == 98784 == 2016 * 49
    assert rep.aut_fixing_both == rep.z1_count == 49
    assert rep.image_kappa == rep.kernel_wells == rep.aut_base == 2016
    assert (rep.pairs_total, rep.aut_fiber, rep.incompatible_pairs) == (12096, 6, 0)


def test_exactness_e_h3_gf11_closed_forms():
    """e_h3 over GF(p), p = 11, against closed forms derived by hand.

    The base z2 has the zero product, so every invertible matrix is an
    automorphism: aut_base = |GL2(p)| = (p^2 - 1)(p^2 - p), the choices of a
    first column that is nonzero and a second that is off its line.  The
    fiber is one-dimensional with the zero product: aut_fiber = p - 1.  The
    cocycle is nu(e1, e2) = e3 = -nu(e2, e1) and nothing else, and every
    term of a degree-one cocycle phi: B -> V meets a zero product of B or V
    or a zero action, so every one of the p^2 linear maps is one: z1 = p^2.
    A pair (alpha, beta) moves nu to beta nu(alpha^-1 x, alpha^-1 y), that
    is nu times beta / det(alpha); it is cohomologous to nu exactly when the
    two are equal, since coboundaries of an abelian fiber over the zero
    product of B vanish.  So for each alpha exactly one beta, det(alpha),
    gives a zero class: kernel_wells = |GL2(p)|, and by exactness
    image_kappa = |GL2(p)|.  Each such pair lifts to p^2 automorphisms of
    the total (one per degree-one cocycle): aut_v_total = p^2 |GL2(p)|.

    The factored scan has |GL2(p)| (p - 1) p^2 = 15,972,000 candidates,
    above the default bound; the 132,000 pairs make 33 class-verdict chunks
    of 4,096 pairs, the last one short."""
    from bolext.exactlin import PrimeField
    from bolext.extensions import e_h3

    p = 11
    gl2 = (p * p - 1) * (p * p - p)
    rep = verify_wells_exactness(e_h3(PrimeField(p)), bound=20_000_000)
    assert rep.all_verdicts
    assert (gl2, gl2 * (p - 1) * p * p) == (13_200, 15_972_000)
    assert rep.aut_base == rep.image_kappa == rep.kernel_wells == gl2
    assert (rep.aut_fiber, rep.z1_count, rep.aut_fixing_both) == (p - 1, p * p, p * p)
    assert rep.aut_v_total == p * p * gl2
    assert (rep.pairs_total, rep.incompatible_pairs) == (gl2 * (p - 1), 0)
    assert -(-rep.pairs_total // 4096) == 33 and rep.pairs_total % 4096


# ---------------------------------------------------------------------------
# the batched phi searches over a non-abelian fiber against the scalar oracle

def _sheared_z2_s2(F5):
    """(c, c'): a valid z2 x s2 cocycle with nu(e1,e2) = e1 and no actions,
    and the cocycle of its total read through the section sheared by a
    nonzero map, which has nonzero mu and is equivalent to c."""
    from bolext.bol import s2 as fiber
    from bolext.cohomology import Cochain2, Cochain3
    from bolext.extensions import extract_cocycle, make_section

    zero = NonAbelianCocycle.zero(z2(F5), fiber(F5))
    nu = Cochain2.from_pairs(2, 2, F5, {(0, 1): (F5.one, F5.zero)})
    c = NonAbelianCocycle(zero.base, zero.fiber, nu, Cochain3.zero(2, 2, F5),
                          zero.mu, zero.theta, zero.dd)
    assert validate_nab_cocycle(c).valid
    e = as_extension(c)
    sheared = make_section(e, Matrix.from_int_rows(F5, [[1, 0], [0, 1], [1, 2], [0, 3]]))
    return c, extract_cocycle(e, sheared)


def _decided(dec):
    return dec.status.value, dec.reason, dec.witness


def test_batched_phi_searches_match_scalar_oracle(F5):
    # equivalence, inducibility and degree-one cocycles over non-abelian
    # fibers: the same status, reason and witness (the first accepted map in
    # enumeration order) as one scalar report per map, and the same reason
    # past the bound
    from bolext.bol import h3
    from bolext.identities import Z1, report
    from bolext.nonabelian import cocycles_equivalent_via, solve_equivalence
    from bolext.wells import _inducibility_report
    from oracles import decision_oracle, phi_search_oracle

    c, sheared = _sheared_z2_s2(F5)
    zero = NonAbelianCocycle.zero(c.base, c.fiber)
    seen = []
    for c1, c2, bound in ((c, sheared, 10 ** 7), (sheared, c, 10 ** 7),
                          (zero, c, 10 ** 7), (c, sheared, 624)):
        want = decision_oracle(F5, 2, 2, bound,
                               lambda phi: cocycles_equivalent_via(c1, c2, phi).valid)
        assert _decided(solve_equivalence(c1, c2, bound)) == want
        seen.append(want)
    e = as_extension(sheared)
    cocycle = theta_map(e)
    swap = [[0, 1], [1, 0]]
    for alpha, beta, bound in (([[1, 0], [0, 1]], [[1, 0], [0, 1]], 10 ** 7),
                               (swap, [[1, 0], [0, 1]], 10 ** 7),
                               (swap, [[4, 0], [0, 1]], 10 ** 7),
                               (swap, [[4, 0], [0, 1]], 624)):
        pair = _pair(F5, alpha, beta)
        want = decision_oracle(F5, 2, 2, bound,
                               lambda phi: _inducibility_report(cocycle, pair, phi).valid)
        assert _decided(solve_inducibility(e, pair, bound)) == want
        seen.append(want)
    statuses = {(status, reason) for status, reason, _ in seen}
    assert {("none", "exhausted"),
            ("undecided", "625 candidate maps exceed the bound 624")} <= statuses
    found = [w for status, _, w in seen if status == "found"]
    assert any(not w.is_zero() for w in found) and any(w.is_zero() for w in found)

    h3_zero = NonAbelianCocycle.zero(z1(F5), h3(F5))
    lists = []
    for cz, bound in ((sheared, 10 ** 7), (h3_zero, 10 ** 7), (h3_zero, 124)):
        maps, reason = phi_search_oracle(
            F5, cz.n, cz.m, bound,
            lambda phi: report(Z1, F5, phi=phi.entries, **cz.tensors()).valid)
        z = z1_nab(cz, bound)
        assert (z.kind, z.maps, z.reason) == ("list" if maps is not None else "undecided",
                                              maps, reason)
        lists.append(maps)
    assert [len(maps) for maps in lists[:2]] == [1, 5] and lists[2] is None


# ---------------------------------------------------------------------------
# the verifier's batched re-checks against the scalar routes they replace

@pytest.mark.parametrize("name", ["z1", "z2", "s2", "bracket_base"])
def test_checked_automorphisms_match_scalar_oracle(F5, name):
    # the group of each algebra passes with the same inverses; a singular
    # matrix and, where the algebra has a product, an invertible
    # non-morphism appended to it are refused with the same message
    from bolext.bol import automorphism_int_arrays
    from bolext.wells import _checked_automorphisms
    from oracles import checked_automorphisms_oracle

    a = {"z1": z1, "z2": z2, "s2": s2, "bracket_base": _bracket_base}[name](F5)
    auts = automorphism_int_arrays(a)
    got = _checked_automorphisms(auts, a, "first", "base")
    want = checked_automorphisms_oracle(auts, a, "first", "base")
    assert all(g.dtype == w.dtype and g.tolist() == w.tolist() for g, w in zip(got, want))
    extras = [np.zeros((a.dim, a.dim), dtype=np.int64)]
    if not a.is_abelian():
        extras.append(2 * np.eye(a.dim, dtype=np.int64))
    for extra in extras:
        bad = np.concatenate([auts, extra[None].astype(auts.dtype)])
        for check in (_checked_automorphisms, checked_automorphisms_oracle):
            with pytest.raises(UsageError,
                               match="^second component is not an automorphism of the fiber$"):
                check(bad, a, "second", "fiber")


@pytest.mark.parametrize("base,rep,count", [("z2", "trivial", 1920), ("s2", "r_s2", 80),
                                            ("z2", "mu_first", 80)])
def test_compatible_pairs_match_scalar_oracle(F5, base, rep, count):
    # the batched pairs against one `is_compatible_pair` call per pair, in
    # the same alpha-major order
    from bolext.bol import automorphism_int_arrays, int_matrix

    b = {"z2": z2, "s2": s2}[base](F5)
    r = {"trivial": lambda f: trivial_representation(f, 2), "r_s2": r_s2,
         "mu_first": _mu_first_representation}[rep](F5)
    module = zero_algebra(F5, r.module_dim)
    every = [AutPair(int_matrix(F5, ga), int_matrix(F5, gb))
             for ga in automorphism_int_arrays(b) for gb in automorphism_int_arrays(module)]
    want = [pair for pair in every if is_compatible_pair(b, r, pair)]
    assert compatible_pairs(b, r) == want
    assert len(want) == count


@pytest.mark.parametrize("seed", [None, 3])
def test_batched_s_map_images_match_scalar_s_map(F5, seed):
    # every kernel map of e_h3 (and of e_h3 rebased): the batched images
    # against `s_map`; a fiber-preserving map outside the kernel is refused
    # by both
    from bolext.bol import automorphism_int_arrays, int_matrix
    from bolext.bruteforce import triangular_arrays
    from bolext.errors import InternalConsistencyError
    from bolext.extensions import _adapted_total, _canonical_section
    from bolext.identities import residues
    from bolext.wells import _fiber_preserving_automorphisms, _s_map_images

    e = _extension(F5, "e_h3")
    if seed is not None:
        e = _rebased(F5, e, seed)
    s = _canonical_section(e)
    t, adapted = _adapted_total(e, s)
    alphas, betas = automorphism_int_arrays(e.base), automorphism_int_arrays(e.fiber)
    scanned = _fiber_preserving_automorphisms(e, t, adapted, alphas, betas, 10 ** 7)
    assert len(scanned.kernel) == 25
    got = _s_map_images(e, s, scanned.kernel)
    want = [residues(s_map(e, s, int_matrix(F5, g)).entries).tolist() for g in scanned.kernel]
    assert got.tolist() == want
    # the first member the scan finds restricts to a pair other than the identity
    blocks, _ = _scanned(triangular_arrays(residues(adapted.bil), residues(adapted.tri),
                                           alphas, betas, 5, 10 ** 7))
    T, Tinv = residues(t.entries), residues(t.inverse().entries)
    outside = np.einsum("xy,byz,zw->bxw", T, blocks[:1].astype(np.int64), Tinv) % 5
    assert outside.tolist() not in scanned.kernel.tolist()
    with pytest.raises(InternalConsistencyError):
        _s_map_images(e, s, outside)
    with pytest.raises(UsageError, match="does not restrict to the identity pair"):
        s_map(e, s, int_matrix(F5, outside[0]))


@pytest.mark.parametrize("seed", [None, 3])
def test_the_fiber_check_refuses_a_map_moving_the_fiber(F5, monkeypatch, seed):
    # each member of the scan is checked by its upper-right block once the
    # adapted basis is checked to split off the fiber: a slice with a member
    # whose upper-right block is nonzero is refused, and so is a basis T with
    # P T != [I | 0] (its fiber column moved to the front)
    import bolext.bruteforce
    from bolext.bol import automorphism_int_arrays
    from bolext.errors import InternalConsistencyError
    from bolext.extensions import _adapted_total, _canonical_section
    from bolext.wells import _fiber_preserving_automorphisms

    e = _extension(F5, "e_h3")
    if seed is not None:
        e = _rebased(F5, e, seed)
    t, adapted = _adapted_total(e, _canonical_section(e))
    groups = automorphism_int_arrays(e.base), automorphism_int_arrays(e.fiber)
    scan = bolext.bruteforce.triangular_arrays

    def moved(*args):
        for part in scan(*args):
            blocks = part.blocks.copy()
            blocks[-1:, 0, e.n] = 1
            yield part._replace(blocks=blocks)
    monkeypatch.setattr(bolext.bruteforce, "triangular_arrays", moved)
    with pytest.raises(InternalConsistencyError, match="moving the fiber"):
        _fiber_preserving_automorphisms(e, t, adapted, *groups, 10 ** 7)
    monkeypatch.undo()
    d = e.n + e.m
    swapped = Matrix.from_cols(F5, [t.col(d - 1)] + [t.col(i) for i in range(d - 1)])
    with pytest.raises(InternalConsistencyError, match="does not split off the fiber"):
        _fiber_preserving_automorphisms(e, swapped, adapted, *groups, 10 ** 7)
    assert _fiber_preserving_automorphisms(e, t, adapted, *groups, 10 ** 7).count == 12000


@pytest.mark.parametrize("name,extra", [("e_h3", [[1, 1], [1, 1]]),
                                        ("s2_r_s2", [[2, 0], [0, 2]])])
def test_exactness_refuses_a_base_group_with_a_non_automorphism(F5, monkeypatch,
                                                                name, extra):
    # a singular matrix (e_h3) and an invertible non-morphism of s2 handed to
    # the verifier as automorphisms of the base
    import bolext.wells
    from bolext.bol import automorphism_int_arrays

    e = _extension(F5, name)

    def with_extra(a, budget):
        auts = automorphism_int_arrays(a, budget)
        if a is not e.base:
            return auts
        return np.concatenate([auts, np.array([extra], dtype=auts.dtype)])
    monkeypatch.setattr(bolext.wells, "automorphism_int_arrays", with_extra)
    with pytest.raises(UsageError,
                       match="^first component is not an automorphism of the base$"):
        verify_wells_exactness(e)


def test_exactness_sees_a_z1_map_that_is_not_a_cocycle(F5, monkeypatch):
    # s2 x r_s2 has 5 degree-one cocycles among its 25 maps; one of them
    # swapped for a map that is not a cocycle gives a shear that is not an
    # automorphism of the total
    import bolext.wells
    from bolext.exactlin import enumerate_vectors
    from bolext.identities import Z1, report
    from bolext.wells import Z1Result

    e = _extension(F5, "s2_r_s2")
    c = theta_map(e)
    real = z1_nab(c)
    bad = next(f for f in (Matrix(F5, [list(v)]) for v in enumerate_vectors(F5, 2))
               if not report(Z1, F5, phi=f.entries, **c.tensors()).valid)

    def one_wrong(cocycle, bound):
        return Z1Result(real.kind, real.subspace, real.maps[:-1] + [bad])
    assert verify_wells_exactness(e).kernel_kappa_equals_inclusion_image
    monkeypatch.setattr(bolext.wells, "_z1_cocycles", one_wrong)
    rep = verify_wells_exactness(e)
    assert not rep.kernel_kappa_equals_inclusion_image
    assert not rep.all_verdicts


def test_exactness_checks_each_part_once(ext_h3_f5, monkeypatch):
    # the base and the fiber are checked once each, and the cocycle suite
    # once, by the verifier itself rather than by z1_nab's full guard
    import bolext.nonabelian
    import bolext.wells
    from bolext.bol import validate_bol

    seen, suites = [], []

    def spy(a):
        seen.append(a.dim)
        return validate_bol(a)

    def suite_spy(c, variant=Variant.CORRECTED):
        suites.append(variant)
        return validate_nab_cocycle(c, variant)

    monkeypatch.setattr(bolext.nonabelian, "validate_bol", spy)
    monkeypatch.setattr(bolext.wells, "validate_nab_cocycle", suite_spy)
    assert verify_wells_exactness(ext_h3_f5).all_verdicts
    assert seen == [2, 1] and suites == [Variant.CORRECTED]


def test_exactness_refuses_a_cocycle_outside_the_suite(F5):
    # Bol base and fiber, but mu(e1) = 1 on the fiber breaks the cocycle
    # suite: refused with z1_nab's message
    z = NonAbelianCocycle.zero(s2(F5), zero_algebra(F5, 1))
    mu = (Matrix.from_int_rows(F5, [[1]]), z.mu[1])
    c = NonAbelianCocycle(z.base, z.fiber, z.nu, z.omega, mu, z.theta, z.dd)
    with pytest.raises(UsageError, match="^degree-one cocycles over an invalid "
                                         "cocycle: mu-d-star, theta-star$"):
        verify_wells_exactness(as_extension(c))
