"""The identity suites' two readers: report order, residuals, large moduli,
and the agreement of the batch masks with the reports.

The golden cases pin the full `describe()` lines of each suite's report on
invalid inputs (as a sha256 and a line count), so any change in the order in
which violations are emitted, in their `where` tuples or in their residuals
shows up here.  The decisions about a map phi are pinned the same way: the
status, reason and witness of `solve_equivalence` and `solve_inducibility`,
and the maps of `z1_nab`.
"""
import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bolext.bol import (BolAlgebra, algebra_from_int_arrays, h3, s2, validate_bol,
                        z1, z2, z3, zero_algebra)
from bolext.bruteforce import (_headroom_dtype, skew_from_params, skew_pairs,
                               validate_bol_mask, validate_rep_mask)
from bolext.cohomology import Cochain2, Cochain3, coboundary, is_cocycle23
from bolext.core import Variant
from bolext.exactlin import Matrix, PrimeField, RATIONALS
from bolext.extensions import (as_extension, canonical_section, extract_cocycle,
                               make_section, semidirect_extension)
from bolext.identities import EQV, IND, Z1, affine, report, residues
from bolext.nonabelian import (NonAbelianCocycle, _equivalence_tensors,
                               cocycles_equivalent_via, solve_equivalence,
                               validate_nab_cocycle)
from bolext.representation import Representation, r_s2, validate_representation
from bolext.errors import UsageError
from bolext.wells import (AutPair, _inducibility_report, _inducibility_tensors,
                          _z1_cocycles, inducible_via, solve_inducibility, z1_nab)

from test_acceptance import MUTATIONS
from test_bol import mutate
from test_cohomology import _mu_squared_rep

Q = RATIONALS
F5 = PrimeField(5)
FAMILIES = {"z1": z1, "z2": z2, "z3": z3, "s2": s2, "h3": h3}


def _lines(report, field):
    return [v.describe(lambda x: str(field.format_scalar(x)))
            for v in report.violations]


def _scalar(field, rng):
    if field.is_prime_field:
        return field.scalar(rng.randrange(field.p))
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _matrix(field, rng, rows, cols=None):
    return Matrix(field, [[_scalar(field, rng) for _ in range(cols or rows)]
                          for _ in range(rows)])


def _grid(field, rng, shape):
    if len(shape) == 1:
        return tuple(_scalar(field, rng) for _ in range(shape[0]))
    return tuple(_grid(field, rng, shape[1:]) for _ in range(shape[0]))


def _random_actions(field, rng, n, m):
    """mu, theta and a skew D with random entries."""
    mu = tuple(_matrix(field, rng, m) for _ in range(n))
    theta = tuple(tuple(_matrix(field, rng, m) for _ in range(n)) for _ in range(n))
    dd = [[Matrix.zeros(field, m, m)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dd[i][j] = _matrix(field, rng, m)
            dd[j][i] = -dd[i][j]
    return mu, theta, tuple(tuple(r) for r in dd)


def _bol_mutations(field):
    out = []
    for name, make in FAMILIES.items():
        for kind, idx, value in MUTATIONS[name]:
            out.append(f"# {name} {kind} {idx} {value}")
            out += _lines(validate_bol(mutate(make(field), kind, idx, value)), field)
    return out


def _bol_conjugated_q():
    # rational structure constants: h3 in a non-unimodular basis, mutated
    g = Matrix.from_int_rows(Q, [[2, 1, 0], [0, 3, 1], [1, 0, 2]])
    a = h3(Q).conjugate(g)
    return _lines(validate_bol(mutate(a, "tri", (0, 1, 2, 1), 1)), Q)


def _rep_mu_e1():
    one, z = Matrix.identity(Q, 1), Matrix.zeros(Q, 1, 1)
    r = Representation(Q, 2, 1, (one, z), ((z, z), (z, z)), ((z, z), (z, z)))
    return _lines(validate_representation(s2(Q), r), Q)


def _rep_random(field, seed):
    rng = random.Random(seed)
    r = Representation(field, 3, 2, *_random_actions(field, rng, 3, 2))
    return _lines(validate_representation(h3(field), r), field)


def _cocycle_random(field, seed, variant):
    rng = random.Random(seed)
    a = s2(field)
    r = Representation(field, 2, 2, *_random_actions(field, rng, 2, 2))
    nu = Cochain2(2, 2, field, _grid(field, rng, (2, 2, 2)))
    om = Cochain3(2, 2, field, _grid(field, rng, (2, 2, 2, 2)))
    return _lines(is_cocycle23(a, r, nu, om, variant), field)


def _cocycle_coboundary_strict():
    a, r = s2(F5), _mu_squared_rep(F5)
    nu, om = coboundary(Matrix.from_int_rows(F5, [[0, 1]]), (F5.zero,), a, r)
    return _lines(is_cocycle23(a, r, nu, om, Variant.STRICT), F5)


def _nab_extracted(variant):
    e = semidirect_extension(s2(F5), _mu_squared_rep(F5))
    shifted = make_section(e, Matrix.from_int_rows(F5, [[1, 0], [0, 1], [0, 1]]))
    return _lines(validate_nab_cocycle(extract_cocycle(e, shifted), variant), F5)


def _nab_theta_identity(variant):
    one, z = Matrix.identity(F5, 2), Matrix.zeros(F5, 2, 2)
    c = NonAbelianCocycle(z1(F5), s2(F5), Cochain2.zero(1, 2, F5),
                          Cochain3.zero(1, 2, F5), (z,), ((one,),), ((z,),))
    return _lines(validate_nab_cocycle(c, variant), F5)


def _nab_random(field, seed, variant, base=z2, random_fiber=False):
    """A random cocycle over base with the s2 fiber (nonzero product) or a
    random two-dimensional fiber (nonzero product and bracket)."""
    rng = random.Random(seed)
    b = base(field)
    n = b.dim
    fiber = (BolAlgebra(field, 2, _grid(field, rng, (2, 2, 2)),
                        _grid(field, rng, (2, 2, 2, 2)))
             if random_fiber else s2(field))
    c = NonAbelianCocycle(b, fiber,
                          Cochain2(n, 2, field, _grid(field, rng, (n, n, 2))),
                          Cochain3(n, 2, field, _grid(field, rng, (n, n, n, 2))),
                          *_random_actions(field, rng, n, 2))
    return _lines(validate_nab_cocycle(c, variant), field)


# ---------------------------------------------------------------------------
# decisions about a map phi: B -> V (equivalence, inducibility, Z^1)

def _random_algebra(field, rng, dim):
    """Random (not necessarily Bol) structure constants: nonzero product
    and bracket."""
    return BolAlgebra(field, dim, _grid(field, rng, (dim,) * 3),
                      _grid(field, rng, (dim,) * 4))


def _random_cocycle(field, rng, base, fiber):
    n, m = base.dim, fiber.dim
    return NonAbelianCocycle(base, fiber,
                             Cochain2(n, m, field, _grid(field, rng, (n, n, m))),
                             Cochain3(n, m, field, _grid(field, rng, (n, n, n, m))),
                             *_random_actions(field, rng, n, m))


def _fiber(field, rng, m):
    """z1 (abelian) or a random two-dimensional fiber with a nonzero bracket."""
    return z1(field) if m == 1 else _random_algebra(field, rng, m)


def _eqv_random(field, seed, m):
    rng = random.Random(seed)
    base = _random_algebra(field, rng, 2)
    fiber = _fiber(field, rng, m)
    c1, c2 = (_random_cocycle(field, rng, base, fiber) for _ in range(2))
    return _lines(cocycles_equivalent_via(c1, c2, _matrix(field, rng, m, 2)), field)


def _ind_random(field, seed, m):
    # random alpha and beta, not automorphisms: every term of the suite fires
    rng = random.Random(seed)
    base = _random_algebra(field, rng, 2)
    c = _random_cocycle(field, rng, base, _fiber(field, rng, m))
    pair = AutPair(_matrix(field, rng, 2), _matrix(field, rng, m))
    return _lines(_inducibility_report(c, pair, _matrix(field, rng, m, 2)), field)


def _s2_automorphism(field, rng):
    # alpha(e1) = c e1, alpha(e2) = b e1 + e2 with c != 0
    c = _scalar(field, rng) or field.one
    return Matrix(field, [[c, _scalar(field, rng)], [field.zero, field.one]])


def _fiber_automorphism(field, rng, m):
    """A nonzero scalar on z1; the identity on the random fiber."""
    return (Matrix(field, [[_scalar(field, rng) or field.one]]) if m == 1
            else Matrix.identity(field, m))


def _ind_public(field, seed, m):
    # inducible_via on the glued extension of a random cocycle over s2; the
    # random fiber keeps beta = 1
    rng = random.Random(seed)
    c = _random_cocycle(field, rng, s2(field), _fiber(field, rng, m))
    e = as_extension(c)
    beta = _fiber_automorphism(field, rng, m)
    pair = AutPair(_s2_automorphism(field, rng), beta)
    return _lines(inducible_via(e, canonical_section(e), pair,
                                _matrix(field, rng, m, 2)), field)


def _decision(d, field):
    witness = "" if d.witness is None else " " + repr(
        [[str(field.format_scalar(x)) for x in row] for row in d.witness.entries])
    return f"{d.status.value} {d.reason}{witness}"


def _with(c, **changes):
    fields = dict(nu=c.nu, omega=c.omega, mu=c.mu, theta=c.theta, dd=c.dd)
    fields.update(changes)
    return NonAbelianCocycle(c.base, c.fiber, **fields)


def _tuples(a):
    return tuple(map(_tuples, a)) if isinstance(a, (list, np.ndarray)) else a


def _shifted(c, phi):
    """A cocycle equivalent to c via phi, for an abelian fiber: c's nu and
    omega plus the residuals of c against itself."""
    grids = {"eqv-nu": np.array(c.nu.grid, dtype=object),
             "eqv-omega": np.array(c.omega.grid, dtype=object)}
    for v in cocycles_equivalent_via(c, c, phi).violations:
        grids[v.tag][v.where] += np.array(v.residual, dtype=object)
    return _with(c, nu=Cochain2(c.n, c.m, c.field, _tuples(grids["eqv-nu"])),
                 omega=Cochain3(c.n, c.m, c.field, _tuples(grids["eqv-omega"])))


def _decisions(field, seed):
    """solve_equivalence and solve_inducibility on random inputs: each gate,
    the affine system (found and none) and, for the random fiber, the
    search (over GF(5) exhausted, or found at the zero map; over Q
    undecided)."""
    rng = random.Random(seed)
    out = []
    base = _random_algebra(field, rng, 2)
    c1, other = (_random_cocycle(field, rng, base, z1(field)) for _ in range(2))
    for c2 in (other, _with(other, mu=c1.mu), _with(other, mu=c1.mu, theta=c1.theta),
               _with(other, mu=c1.mu, theta=c1.theta, dd=c1.dd),
               _shifted(c1, _matrix(field, rng, 1, 2))):
        out.append(_decision(solve_equivalence(c1, c2), field))
    base, fiber = _random_algebra(field, rng, 1), _fiber(field, rng, 2)
    c1, c2 = (_random_cocycle(field, rng, base, fiber) for _ in range(2))
    out += [_decision(solve_equivalence(c1, c), field) for c in (c2, c1)]
    for base, m in ((s2(field), 1), (z1(field), 2)):
        c = _random_cocycle(field, rng, base, _fiber(field, rng, m))
        zero = NonAbelianCocycle.zero(c.base, c.fiber)
        for actions in (c, zero):
            e = as_extension(_with(c, mu=actions.mu, theta=actions.theta, dd=actions.dd))
            for _ in range(3):
                alpha = (_s2_automorphism(field, rng) if base.dim == 2
                         else _fiber_automorphism(field, rng, 1))
                pair = AutPair(alpha, _fiber_automorphism(field, rng, m))
                out.append(_decision(solve_inducibility(e, pair), field))
    return out


def _unit_algebra(field, dim, entries):
    """Structure constants that are zero but for each entry (i, j): l or
    (i, j, k): l, which makes e_l the product e_i*e_j or the bracket
    [e_i,e_j,e_k]; not skew, which Z^1 does not need."""
    bil = np.full((dim,) * 3, field.zero, dtype=object)
    tri = np.full((dim,) * 4, field.zero, dtype=object)
    for idx, l in entries.items():
        (bil if len(idx) == 2 else tri)[idx + (l,)] = field.one
    return BolAlgebra(field, dim, _tuples(bil), _tuples(tri))


def _z1_lines(c, z1=z1_nab):
    z = z1(c)
    fmt = c.field.format_scalar
    lines = [f"dim={z.dim} reason={z.reason}"]
    lines += [repr([str(fmt(x)) for x in row]) for row in z.subspace.basis.entries]
    return lines + [repr([[str(fmt(x)) for x in row] for row in f.entries])
                    for f in z.maps or ()]


def _nilpotent_module(field):
    """A module over z2 on field^2 with D != 0: theta(e1,e2) = N,
    theta(e2,e1) = 2N and D(e1,e2) = N for N = e1 e2^T, all products zero."""
    def mat(v):
        return Matrix(field, [[field.zero, field.scalar(v)], [field.zero, field.zero]])
    return Representation(field, 2, 2, (mat(0), mat(0)),
                          ((mat(0), mat(1)), (mat(2), mat(0))),
                          ((mat(0), mat(1)), (mat(-1), mat(0))))


def _z1_abelian(field):
    """z1_nab of split cocycles: theta and D, mu and the product, and the
    base's bracket each cut the degree-one cocycles down.  Over the bracket
    base [e1,e2,e2] = e1, theta(e2,e2) = 1 cancels phi([e1,e2,e2]) in the
    bracket condition."""
    from test_wells import _bracket_base
    z, one = Matrix.zeros(field, 1, 1), Matrix.identity(field, 1)
    theta22 = Representation(field, 2, 1, (z, z), ((z, z), (z, one)), ((z, z), (z, z)))
    out = []
    for base, r in ((z2(field), _nilpotent_module(field)), (s2(field), r_s2(field)),
                    (s2(field), _mu_squared_rep(field)), (_bracket_base(field), theta22)):
        out += _z1_lines(NonAbelianCocycle.split(base, r))
    return out


def _z1_nonabelian(seed):
    """The degree-one cocycles of zero cocycles, which satisfy the cocycle
    suite over any fiber: a random base and fiber; e2*e1 = e1 over s2, whose
    degree-one cocycles send e2 into span(e2); and e2*e1 = e1,
    [e3,e2,e3] = e1 over z1, where e1, e2 and e3 each fail exactly one of
    the three annihilation conditions.  None of these fibers (nor the
    random base) is a Bol algebra, which `z1_nab` refuses, so the lines
    come from its guard-free body."""
    return [line for c in _z1_nonabelian_cocycles(seed)
            for line in _z1_lines(c, _z1_cocycles)]


def _z1_nonabelian_cocycles(seed):
    rng = random.Random(seed)
    return [NonAbelianCocycle.zero(base, fiber) for base, fiber in (
        (_random_algebra(F5, rng, 2), _random_algebra(F5, rng, 2)),
        (s2(F5), _unit_algebra(F5, 2, {(1, 0): 0})),
        (z1(F5), _unit_algebra(F5, 3, {(1, 0): 0, (2, 1, 2): 0})))]


def test_z1_nab_refuses_a_non_bol_base_or_fiber():
    # the cocycles of the golden case z1-nonabelian-gf5 pass the cocycle
    # suite, but each has a base or fiber that breaks a Bol axiom
    for c in _z1_nonabelian_cocycles(41):
        assert validate_nab_cocycle(c).valid
        with pytest.raises(UsageError, match="^degree-one cocycles over an invalid "
                                             "cocycle: (base|fiber):"):
            z1_nab(c)


C, S = Variant.CORRECTED, Variant.STRICT
GOLDEN = {  # name: (report lines, line count, sha256 of the joined lines)
    "bol-mutations-q": (lambda: _bol_mutations(Q), 105,
        "9cd5fd9c79963a461d09860f7c3d19ee332196c2901a0e696e33678767e5c767"),
    "bol-mutations-gf5": (lambda: _bol_mutations(F5), 105,
        "e4271723498d61c4d9bcf7d785be160d7517e97c8d2a832bcda06b23a13f9e66"),
    "bol-conjugated-q": (_bol_conjugated_q, 15,
        "d013740a72fa1b925c970a07059aa980609fc99f325ec270c86d592ea3694684"),
    "rep-mu-e1-q": (_rep_mu_e1, 4,
        "f45460b48ebf4d9c0ab0d189c631c673051f095c745cce9096e1ead459105ced"),
    "rep-random-gf5": (lambda: _rep_random(F5, 7), 168,
        "b48990e40b9de6636d00112b60648321d044be5951a9c29458ff7dd8a372f445"),
    "rep-random-q": (lambda: _rep_random(Q, 8), 174,
        "432bc9cadcaa70092289c0d036f156db7f02faceb4ae59da440ada2d8accd450"),
    "cocycle-random-gf5-corrected": (lambda: _cocycle_random(F5, 11, C), 51,
        "3f49fcc426a3cf6653131536b42319d6502f8eee1b033d6722ae86b68a4f2d34"),
    "cocycle-random-gf5-strict": (lambda: _cocycle_random(F5, 11, S), 50,
        "7d8935fc5eb9519f6292501f0e744418602d8dcc399a7dccbaa523fb34bfed76"),
    "cocycle-random-q-corrected": (lambda: _cocycle_random(Q, 12, C), 52,
        "f03c51cc5d550e79d8eb83046216c5dd849e816b373747b7488e515a0a9f07cd"),
    "cocycle-random-q-strict": (lambda: _cocycle_random(Q, 12, S), 52,
        "ae33491a82d20af6f230dbc5d62c46e102e07bbc5667c27f3bf80bf7544e4845"),
    "cocycle-coboundary-strict": (_cocycle_coboundary_strict, 4,
        "164b00f852ca7e2ba082d97d4860ebc3ff0c582ebf3756db12c9fc326e97726e"),
    "nab-extracted-corrected": (lambda: _nab_extracted(C), 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nab-extracted-strict": (lambda: _nab_extracted(S), 6,
        "10323bcb52a5cfba2e1c219e8c725d023a0e0b323efecf1a1d14c8896bea8ca6"),
    "nab-theta-identity-corrected": (lambda: _nab_theta_identity(C), 2,
        "895d9fc3d60760895275079a07e406cf3722fdbca30df31873024c11bdccb44f"),
    "nab-theta-identity-strict": (lambda: _nab_theta_identity(S), 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nab-random-gf5-corrected": (lambda: _nab_random(F5, 13, C), 158,
        "89f73024630a487162bd843b8e7bedf7ec1d1e98e9a0eaebc35f49d964d5fafe"),
    "nab-random-gf5-strict": (lambda: _nab_random(F5, 13, S), 113,
        "b69b83f243276037bbec0fdfad5f6eae6cf1175b3c082bf006a06cf1debee73a"),
    "nab-random-q-corrected": (lambda: _nab_random(Q, 14, C), 163,
        "62406a34ffbcee04e7ce2bb7b9826dbc6f9d5c78942f559f32d6e1a5f932015f"),
    "nab-random-q-strict": (lambda: _nab_random(Q, 14, S), 114,
        "a2fa854e2cdecef8035d6b54ace680b088a09dc1fe63120ee0e128a0b682d10c"),
    "nab-wide-gf5-corrected": (lambda: _nab_random(F5, 15, C, z3, True), 1524,
        "6e9c6d3e6a5b85ef04cd851d512fd5e47ab36149369a7f6426a0d4e5b83b376c"),
    "nab-wide-gf5-strict": (lambda: _nab_random(F5, 15, S, z3, True), 798,
        "03d1722b4b70912a44d3538954c0b24be1c4dbf13e4dff3fa79b0892c9b71055"),
    "nab-wide-q-corrected": (lambda: _nab_random(Q, 16, C, z2, True), 459,
        "317da22b89649963cbd0ab87f983382b429d2d064b1effb3fcfd7e5d4c6c393f"),
    "eqv-random-gf5-m1": (lambda: _eqv_random(F5, 21, 1), 17,
        "680d7018ab47e2090c1a37ace1d26665fba1bb681d0a3b8729d58cfe150f32a3"),
    "eqv-random-gf5-m2": (lambda: _eqv_random(F5, 22, 2), 32,
        "e5522c6045e11afbcc186afe3f9e7f3242be72c9a408eaf427d2e9d07e3ac1de"),
    "eqv-random-q-m1": (lambda: _eqv_random(Q, 31, 1), 20,
        "ec111bb0b2a0bc030ca8990bdc14549d36847ac90e1fa919e10d6285b4ac2b58"),
    "eqv-random-q-m2": (lambda: _eqv_random(Q, 32, 2), 32,
        "f6812422100885d36574878927c819ca1ff825deec37e259c9c6ce442415e735"),
    "ind-random-gf5-m1": (lambda: _ind_random(F5, 23, 1), 14,
        "311e4d8cfbd98cf611a1ac8072b7673ec1ff42d469e53d732e9e77a55a79de6e"),
    "ind-random-gf5-m2": (lambda: _ind_random(F5, 24, 2), 29,
        "165f3521874517eb841946505518aae93c764c0b9f83b45ae74fc8f8ac0c507d"),
    "ind-random-q-m1": (lambda: _ind_random(Q, 33, 1), 18,
        "3db337d422fbca90eb3023231ba5f33299975f78960f6f2323f18d039538fc4b"),
    "ind-random-q-m2": (lambda: _ind_random(Q, 34, 2), 32,
        "ad1e51c256c24c079a5d16c3df770407cb1cc4620cafab7b42ebc3bbd9e331fe"),
    "ind-public-gf5-m1": (lambda: _ind_public(F5, 25, 1), 10,
        "bbbf4bda50772ee23b1e14d9f3013ddb68472876c771f26a0791a4bbc39c5010"),
    "ind-public-gf5-m2": (lambda: _ind_public(F5, 26, 2), 32,
        "c5ce0c77415ce894beff553332dc5e8336c7dcd8ed0a2b15d7791e4dac3f0737"),
    "ind-public-q-m1": (lambda: _ind_public(Q, 35, 1), 13,
        "17e1026e13901b92a1e6390b439ab77a3ae521c7421d2e1e1a1b51536107223c"),
    "ind-public-q-m2": (lambda: _ind_public(Q, 36, 2), 32,
        "dde5ccacedb4e4e6d775f3a0b9b1a00a2c8b3684ff5f98bb4c2befeee9b4b3c1"),
    "decisions-gf5": (lambda: _decisions(F5, 27), 19,
        "0b4d7c65381b5786233ba565ea7161a74fb030822faac251b37b7dad8c480dec"),
    "decisions-q": (lambda: _decisions(Q, 37), 19,
        "586489e7bc79ba106591d10402e9e0d20a5e0354cd09df6f20fb5e480190e71c"),
    "z1-nonabelian-gf5": (lambda: _z1_nonabelian(41), 11,
        "848421b39c22fd90098bf4772e55ec869a555c39364fee04c79767b32e4c2af1"),
    "z1-abelian-gf5": (lambda: _z1_abelian(F5), 166,
        "fbc98453ecb4b8ecbf825489ed37f8c9608ff5d16a409eff3874ec9a609a2015"),
    "z1-abelian-q": (lambda: _z1_abelian(Q), 10,
        "816954fb392da306c0b74669fd34a52e17bb512d75ce2e0400d4f508c7a738f6"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_lines(name):
    make, count, digest = GOLDEN[name]
    lines = make()
    text = "\n".join(lines)
    assert (len(lines), hashlib.sha256(text.encode()).hexdigest()) == (count, digest)


# ---------------------------------------------------------------------------
# moduli beyond int64: the reports stay exact

BIG = PrimeField(18446744073709551557)  # 2^64 - 59, above 2^63


def _first(report):
    v = report.violations[0]
    return v.tag, v.where, tuple(int(x.value) for x in v.residual)


def test_reports_over_a_modulus_above_int64():
    p = BIG.p
    assert p > 2 ** 63
    a = mutate(s2(BIG), "bil", (1, 0, 0), p - 3)
    assert _first(validate_bol(a)) == ("star-skew", (0, 1), (p - 2, 0))

    minus, z = Matrix.identity(BIG, 1).scale(BIG.scalar(-1)), Matrix.zeros(BIG, 1, 1)
    r = Representation(BIG, 2, 1, (minus, z), ((z, z), (z, z)), ((z, z), (z, z)))
    assert _first(validate_representation(s2(BIG), r)) == ("rep-d-mu", (0, 1, 0), (p - 1,))

    nu = Cochain2(2, 1, BIG, (((BIG.zero,), (BIG.scalar(-1),)),
                              ((BIG.scalar(-1),), (BIG.zero,))))
    rep = is_cocycle23(s2(BIG), r_s2(BIG), nu, Cochain3.zero(2, 1, BIG))
    assert _first(rep) == ("nu-skew", (0, 1), (p - 2,))

    two = Matrix.identity(BIG, 1).scale(BIG.scalar(p - 2))
    c = NonAbelianCocycle(z2(BIG), z1(BIG), Cochain2.zero(2, 1, BIG),
                          Cochain3.zero(2, 1, BIG), (z, z),
                          ((z, z), (z, z)), ((z, two), (-two, z)))
    for variant in Variant:
        assert _first(validate_nab_cocycle(c, variant)) == ("d-theta", (0, 1), (p - 2,))


# ---------------------------------------------------------------------------
# the batch reader agrees with the report reader

def _sparse(p):
    """Residues, zero half of the time, so that some candidates are valid."""
    return st.one_of(st.just(0), st.integers(0, p - 1))


def _bol_batch(data, p, n, size):
    width = len(skew_pairs(n)) * n
    bil = skew_from_params(data.draw(arrays(np.int64, (size, width), elements=_sparse(p))),
                           n, (n,), p)
    tri = skew_from_params(data.draw(arrays(np.int64, (size, width * n), elements=_sparse(p))),
                           n, (n, n), p)
    if data.draw(st.booleans()):  # break skewness somewhere
        k, i, j, r = (data.draw(st.integers(0, s - 1)) for s in (size, n, n, n))
        bil[k, i, j, r] = data.draw(st.integers(0, p - 1))
    return bil, tri


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_bol_mask_agrees_with_report(data):
    p = data.draw(st.sampled_from([5, 7]))
    n = data.draw(st.integers(1, 3))
    bil, tri = _bol_batch(data, p, n, data.draw(st.integers(1, 6)))
    field = PrimeField(p)
    want = [validate_bol(algebra_from_int_arrays(field, b, t)).valid
            for b, t in zip(bil, tri)]
    assert validate_bol_mask(bil, tri, p).tolist() == want


def _representation(field, mu, theta, dd):
    def mat(a):
        return Matrix.from_int_rows(field, a.tolist())
    n = len(mu)
    return Representation(field, n, mu.shape[-1], tuple(mat(a) for a in mu),
                          tuple(tuple(mat(a) for a in row) for row in theta),
                          tuple(tuple(mat(a) for a in row) for row in dd))


def _rep_agreement(field, a, mu, theta, dd):
    want = [validate_representation(a, _representation(field, *acts)).valid
            for acts in zip(mu, theta, dd)]
    got = validate_rep_mask(residues(a.bil), residues(a.tri), mu, theta, dd, field.p)
    assert got.tolist() == want
    return want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_rep_mask_agrees_with_report(data):
    p = data.draw(st.sampled_from([5, 7]))
    field = PrimeField(p)
    a = data.draw(st.sampled_from([z2, s2, h3]))(field)
    n, m, size = a.dim, data.draw(st.integers(1, 2)), data.draw(st.integers(1, 6))
    mu = data.draw(arrays(np.int64, (size, n, m, m), elements=_sparse(p)))
    theta = data.draw(arrays(np.int64, (size, n, n, m, m), elements=_sparse(p)))
    free = len(skew_pairs(n)) * m * m
    dd = skew_from_params(data.draw(arrays(np.int64, (size, free), elements=_sparse(p))),
                          n, (m, m), p)
    _rep_agreement(field, a, mu, theta, dd)


def test_masks_at_p7_with_worst_case_residues():
    # every entry p - 1 or 1, the largest sums the terms' int16 holds at
    # these dimensions (int16 gives way to int32 only from n = 13 for the
    # Bol product term and from n*m = 152 for mu(x*y) mu(z))
    p, field = 7, PrimeField(7)
    assert _headroom_dtype(3 * 3, 3, p) is np.int16
    assert _headroom_dtype(13 * 13, 3, p) is np.int32
    assert _headroom_dtype(2 * 76, 3, p) is np.int32
    # bil(x,y) = 6 (1,...,1) for x < y: valid, as (y1*y2)*(x1*x2) sums to a
    # multiple of 6*6*(6+1) and every other term has a bracket
    pattern = np.triu(np.full((3, 3), 6), 1) + np.tril(np.ones((3, 3), dtype=np.int64), -1)
    bil6 = np.repeat(pattern[:, :, None], 3, axis=2)
    g = Matrix.from_int_rows(field, [[6, 6, 5], [6, 5, 6], [5, 6, 6]])
    h = h3(field).conjugate(g)
    cases = [(bil6, np.zeros((3,) * 4, dtype=np.int64)),
             (bil6, np.repeat(bil6[:, :, :, None], 3, axis=3)),
             (residues(h.bil), residues(h.tri)),
             (residues(mutate(h, "bil", (0, 1, 2), 6).bil), residues(h.tri))]
    bil = np.stack([b for b, _ in cases])
    tri = np.stack([t for _, t in cases])
    want = [validate_bol(algebra_from_int_arrays(field, b, t)).valid
            for b, t in cases]
    assert want == [True, False, True, False]
    assert validate_bol_mask(bil, tri, p).tolist() == want
    # mu(e2) all 6 is a module of s2 while mu(e1) = 0; mu(e1) all 6 is not
    m = 2
    mu = np.zeros((2, 2, m, m), dtype=np.int64)
    mu[:, 1] = 6
    mu[1, 0] = 6
    zero = np.zeros((2, 2, 2, m, m), dtype=np.int64)
    assert _rep_agreement(field, s2(field), mu, zero, zero) == [True, False]


# ---------------------------------------------------------------------------
# the affine reader agrees with the report reader

@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_affine_reader_agrees_with_report(data):
    # abelian fiber: A x + b, x the parameters of phi, is the residual the
    # report gives at phi, identity by identity and basis tuple by tuple
    field = data.draw(st.sampled_from([F5, PrimeField(7), Q]))
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    base = _random_algebra(field, rng, n)
    c1, c2 = (_random_cocycle(field, rng, base, zero_algebra(field, m)) for _ in range(2))
    pair = AutPair(_matrix(field, rng, n), _matrix(field, rng, m))
    suite, tensors = data.draw(st.sampled_from([
        (EQV, _equivalence_tensors(c1, c2)), (IND, _inducibility_tensors(c1, pair)),
        (Z1, c1.tensors())]))
    phi = _matrix(field, rng, m, n)
    x = [phi.entries[t][q] for q in range(n) for t in range(m)]
    rep = report(suite, field, phi=phi.entries, **tensors)
    for tag, (a, b) in affine(suite, field, n, m, **tensors).items():
        where = next(i.where for g in suite for i in g.identities if i.tag == tag)
        shape = tuple(n if ch in "ijk" else m for ch in where)
        values = [sum((r * v for r, v in zip(row, x)), bb) for row, bb in zip(a, b)]
        want = {idx: tuple(values[k * m:(k + 1) * m])
                for k, idx in enumerate(np.ndindex(shape))}
        assert {v.where: v.residual for v in rep.violations if v.tag == tag} == \
            {idx: r for idx, r in want.items() if any(r)}


# ---------------------------------------------------------------------------
# the readers' live terms sum to what every term sums to

_SHAPES = {"bil": "nnn", "tri": "nnnn", "nu": "nnm", "om": "nnnm", "mu": "nmm",
           "theta": "nnmm", "dd": "nnmm", "vbil": "mmm", "vtri": "mmmm", "f": "nn",
           "alpha": "nn", "beta": "mm", "phi": "mn", "bil2": "nnn", "tri2": "nnnn"}


def _tensors(field, rng, names, zero, n, m):
    """Random tensors of the tables' names (nu1 as nu, ...), those in
    `zero` all zero."""
    out = {}
    for name in names:
        shape = tuple(n if ch == "n" else m for ch in _SHAPES[name.rstrip("1")])
        out[name] = (np.full(shape, field.zero, dtype=object).tolist() if name in zero
                     else _grid(field, rng, shape))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_readers_agree_with_the_dense_reader(data):
    # random tensors, a random set of them all zero: the violations and
    # residuals of `report`, the systems of `affine` (over an abelian fiber)
    # and the masks of `identity_mask` (over GF(p)), which read only the
    # live terms, equal what the dense reader, contracting every term, gives
    from bolext import identities
    from bolext.bruteforce import identity_mask
    from oracles import dense_residuals

    field = data.draw(st.sampled_from([F5, PrimeField(7), Q]))
    table, variant = data.draw(st.sampled_from(
        [("BOL", None), ("MOR", None), ("HOM", None), ("REP", None),
         ("COCYCLE", Variant.CORRECTED), ("COCYCLE", Variant.STRICT),
         ("NAB", Variant.CORRECTED), ("NAB", Variant.STRICT), ("EQV", None), ("IND", None), ("Z1", None)]))
    suite = getattr(identities, table)
    variant = variant or Variant.CORRECTED
    n, m = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    names = sorted({f for g in suite for i in g.identities for t in i.terms for f, _ in t.factors})
    zero = data.draw(st.sets(st.sampled_from(names)))
    abelian = table in ("EQV", "IND", "Z1") and data.draw(st.booleans())
    if abelian:
        zero |= {"vbil", "vtri"}
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    tensors = _tensors(field, rng, names, zero, n, m)
    dense = dense_residuals(suite, field, variant, **tensors)
    by_tag = {i.tag: (g, i) for g in suite for i in g.identities}

    want = {}
    for tag, r in dense.items():
        group, idt = by_tag[tag]
        for where in np.ndindex(r.shape[:len(idt.where)]):
            residual = tuple(r[where].ravel())
            if any(x != field.zero for x in residual) \
                    and not (group.triangle and where[1] < where[0]):
                want[tag, where] = residual
    rep = report(suite, field, variant, **tensors)
    assert {(v.tag, v.where): v.residual for v in rep.violations} == want

    if abelian:
        rest = {k: v for k, v in tensors.items() if k != "phi"}
        units = np.eye(n * m + 1, n * m, k=-1, dtype=int)  # phi = 0, then the unit maps
        at = [dense_residuals(suite, field, variant, phi=[[field.scalar(int(u[q * m + t]))
                                                           for q in range(n)]
                                                          for t in range(m)], **rest)
              for u in units]
        for tag, (a, b) in affine(suite, field, n, m, **rest).items():
            free = at[0][tag].ravel()
            assert b == tuple(free)
            assert a == tuple(zip(*(tuple(d[tag].ravel() - free) for d in at[1:])))

    if field.is_prime_field:
        batched = data.draw(st.sets(st.sampled_from(names), min_size=1))
        other = _tensors(field, rng, names, zero, n, m)
        rows = [tensors, {**tensors, **{k: other[k] for k in batched}}]
        batch = {k: np.stack([residues(r[k]) for r in rows]) for k in batched}
        fixed = {k: residues(tensors[k]) for k in names if k not in batched}
        passes = [{tag: all(x == field.zero for x in r.ravel())
                   for tag, r in dense_residuals(suite, field, variant, **row).items()}
                  for row in rows]
        chosen = identities.select(suite, variant)
        for idt in (i for g in chosen for i in g.identities):
            alone = (identities.Group(len(idt.where), (idt,)),)
            assert identity_mask(alone, field.p, batch, fixed).tolist() == \
                [p[idt.tag] for p in passes]
        assert identity_mask(chosen, field.p, batch, fixed).tolist() == \
            [all(p.values()) for p in passes]


def test_a_letter_only_dead_terms_carry_still_sizes_the_residual():
    # no table has one, but the readers size every axis from the whole
    # identity: with b all zero, the live a(ir) is broadcast along j
    from bolext import identities
    from bolext.bruteforce import identity_mask
    from oracles import dense_residuals

    idt = identities.Identity("lone", "ij", "r", (
        identities.Term(1, (("a", "ir"),)), identities.Term(1, (("b", "ijr"),))))
    suite = (identities.Group(2, (idt,)),)
    a = ((F5.scalar(1),), (F5.zero,))
    b = np.full((2, 3, 1), F5.zero, dtype=object).tolist()
    dense = dense_residuals(suite, F5, a=a, b=b)["lone"]
    assert dense.shape == (2, 3, 1)
    rep = report(suite, F5, a=a, b=b)
    assert [(v.where, v.residual) for v in rep.violations] == \
        [((0, j), (F5.scalar(1),)) for j in range(3)] == \
        [(w, tuple(dense[w])) for w in np.ndindex(2, 3) if dense[w].any()]
    ints = {"a": np.stack([residues(a), 0 * residues(a)]), "b": np.zeros((2, 2, 3, 1), dtype=int)}
    assert identity_mask(suite, 5, ints).tolist() == [False, True]
