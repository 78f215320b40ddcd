import random
from functools import lru_cache
from itertools import islice

import pytest

from bolext import bruteforce
from bolext import documents as docs
from bolext import extensions
from bolext.bol import s2, z1, z2, zero_algebra
from bolext.cohomology import Cochain2, Cochain3, CochainCoords
from bolext.core import Status, Variant
from bolext.errors import (InternalConsistencyError, UnsupportedEnumerationError,
                           UsageError)
from bolext.exactlin import RATIONALS, Matrix, PrimeField, enumerate_vectors
from bolext.extensions import (Extension, _class_code, _coset_classes, _decoded,
                               _valid_cocycles,
                               as_extension, candidate_rows, canonical_section,
                               classify_corpus, extensions_equivalent,
                               extract_cocycle, make_section,
                               semidirect_extension, theta_map,
                               validate_extension)
from bolext.nonabelian import (NonAbelianCocycle, cocycles_equivalent_via,
                               solve_equivalence)
from bolext.representation import r_s2

from conftest import corpus_dir
from oracles import (class_witnesses, coset_classes_oracle, equivalence_by_search,
                     equivalence_matrix, orbit_classes, pairwise_classes, solve_rows,
                     valid_cocycles_oracle)
from test_identities import _grid
from test_nonabelian import _random_cocycle


def test_validate_extension(F5, ext_h3_f5):
    assert validate_extension(ext_h3_f5).valid
    se = semidirect_extension(s2(F5), r_s2(F5))
    assert validate_extension(se).valid
    broken = Extension(ext_h3_f5.fiber, ext_h3_f5.total, ext_h3_f5.base,
                       ext_h3_f5.inj, Matrix.zeros(F5, 2, 3))
    rep = validate_extension(broken)
    assert not rep.valid and "proj-surjective" in rep.tags()


def test_canonical_section(F5, ext_h3_f5):
    s = canonical_section(ext_h3_f5)
    assert s.matrix == Matrix.from_int_rows(F5, [[1, 0], [0, 1], [0, 0]])
    se = semidirect_extension(s2(F5), r_s2(F5))
    ss = canonical_section(se)
    assert ss.matrix == Matrix.from_int_rows(F5, [[1, 0], [0, 1], [0, 0]])
    assert se.proj * ss.matrix == Matrix.identity(F5, 2)


def test_extract_examples(F5, ext_h3_f5):
    c = extract_cocycle(ext_h3_f5, canonical_section(ext_h3_f5))
    assert c.nu.at(0, 1) == (F5.one,)
    assert c.omega == c.omega.zero(2, 1, F5)
    assert all(m.is_zero() for m in c.mu)
    # different section, same cocycle (cross terms vanish)
    sp = make_section(ext_h3_f5, Matrix.from_int_rows(F5, [[1, 0], [0, 1], [1, 0]]))
    assert extract_cocycle(ext_h3_f5, sp) == c
    # semidirect extraction returns (0, 0, mu, theta, D)
    se = semidirect_extension(s2(F5), r_s2(F5))
    cs = extract_cocycle(se, canonical_section(se))
    r = r_s2(F5)
    assert cs.nu == Cochain2.zero(2, 1, F5)
    assert cs.mu == r.mu and cs.theta == r.theta and cs.dd == r.dd


def test_extract_requires_section(F5, ext_h3_f5):
    from bolext.extensions import Section
    with pytest.raises(UsageError):
        extract_cocycle(ext_h3_f5, Section(Matrix.zeros(F5, 3, 2)))
    with pytest.raises(UsageError):
        make_section(ext_h3_f5, Matrix.zeros(F5, 3, 2))
    # an injection outside ker(proj) is refused, not read through
    e = ext_h3_f5
    moved = Extension(e.fiber, e.total, e.base, Matrix.from_int_rows(F5, [[1], [0], [1]]),
                      e.proj)
    with pytest.raises(UsageError, match="kernel of the projection"):
        extract_cocycle(moved, canonical_section(e))


@pytest.mark.parametrize("kind, where", [
    ("bil", (0, 1)),      # nu: e1*e2 = e1 is not s(e1*e2) = 0
    ("bil", (0, 2)),      # mu: e1*f = e1
    ("tri", (0, 1, 0)),   # omega
    ("tri", (2, 0, 1)),   # theta: [f, e1, e2] = e1
    ("tri", (0, 1, 2)),   # D
])
def test_extract_refuses_values_outside_the_kernel(F5, kind, where):
    # one product of the total has a base coordinate where extraction reads
    # a fiber value: the projection is no morphism, and nothing is read
    import numpy as np

    from bolext.bol import algebra_from_int_arrays
    from bolext.extensions import Section
    arrays = {"bil": np.zeros((3,) * 3, dtype=int), "tri": np.zeros((3,) * 4, dtype=int)}
    arrays[kind][where + (0,)] = 1
    total = algebra_from_int_arrays(F5, arrays["bil"], arrays["tri"])
    e = Extension(z1(F5), total, z2(F5), Matrix.from_int_rows(F5, [[0], [0], [1]]),
                  Matrix.from_int_rows(F5, [[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(InternalConsistencyError, match="kernel of the projection"):
        extract_cocycle(e, Section(Matrix.from_int_rows(F5, [[1, 0], [0, 1], [0, 0]])))


@pytest.mark.parametrize("field", [PrimeField(5), RATIONALS], ids=str)
def test_extract_is_invariant_under_basis_change(field):
    # the total rewritten in a random basis, with the injection and a random
    # section carried along, carries the same cocycle; in the standard basis
    # extraction reads back the cocycle that was glued
    rng = random.Random(7)
    c = _random_cocycle(field, rng, s2(field), s2(field), skew=True)
    e = as_extension(c)
    standard = make_section(e, Matrix(field, [row[:2] for row in
                                             Matrix.identity(field, 4).entries]))
    assert extract_cocycle(e, standard) == c
    s = make_section(e, standard.matrix + e.inj * Matrix(field, _grid(field, rng, (2, 2))))
    while True:
        g = Matrix(field, _grid(field, rng, (4, 4)))
        if g.is_invertible():
            break
    ginv = g.inverse()
    moved = Extension(e.fiber, e.total.conjugate(g), e.base, ginv * e.inj, e.proj * g)
    assert extract_cocycle(moved, make_section(moved, ginv * s.matrix)) == \
        extract_cocycle(e, s)


def test_section_independence(F5, ext_h3_f5):
    s = canonical_section(ext_h3_f5)
    sp = make_section(ext_h3_f5, Matrix.from_int_rows(F5, [[1, 0], [0, 1], [1, 0]]))
    c, cp = extract_cocycle(ext_h3_f5, s), extract_cocycle(ext_h3_f5, sp)
    phi = ext_h3_f5.left_inverse() * (s.matrix - sp.matrix)
    assert cocycles_equivalent_via(c, cp, phi).valid
    assert solve_equivalence(c, cp).found


def test_extensions_equivalent(F5, ext_h3_f5):
    dec = extensions_equivalent(ext_h3_f5, ext_h3_f5)
    assert dec.found and dec.witness == Matrix.identity(F5, 3)
    trivial = as_extension(NonAbelianCocycle.zero(z2(F5), zero_algebra(F5, 1)))
    dec = extensions_equivalent(ext_h3_f5, trivial)
    assert dec.status is Status.NONE
    rebuilt = as_extension(theta_map(ext_h3_f5))
    dec = extensions_equivalent(ext_h3_f5, rebuilt)
    assert dec.found
    with pytest.raises(UsageError):
        extensions_equivalent(ext_h3_f5,
                              as_extension(NonAbelianCocycle.zero(
                                  s2(F5), zero_algebra(F5, 1))))


def test_theta_map_well_defined_and_injective(F5, ext_h3_f5):
    # two sections of one extension give equivalent classifying data
    c = theta_map(ext_h3_f5)
    sp = make_section(ext_h3_f5, Matrix.from_int_rows(F5, [[1, 0], [0, 1], [0, 1]]))
    assert solve_equivalence(c, extract_cocycle(ext_h3_f5, sp)).found
    # inequivalent classes stay inequivalent as extensions
    fiber = zero_algebra(F5, 1)
    nu2 = Cochain2.from_pairs(2, 1, F5, {(0, 1): (F5.scalar(2),)})
    z = NonAbelianCocycle.zero(z2(F5), fiber)
    c2 = NonAbelianCocycle(z.base, z.fiber, nu2, z.omega, z.mu, z.theta, z.dd)
    assert solve_equivalence(c, c2).status is Status.NONE
    assert extensions_equivalent(as_extension(c), as_extension(c2)).status \
        is Status.NONE


def test_classify_corpus_small(F5):
    count, reps, valid = classify_corpus(z1(F5), zero_algebra(F5, 1))
    assert (count, valid) == (1, 1)
    count, reps, valid = classify_corpus(s2(F5), zero_algebra(F5, 1))
    assert (count, valid) == (25, 125)
    # representatives round-trip through their built extensions
    for c in reps[:5]:
        assert solve_equivalence(theta_map(as_extension(c)), c).found


_BASES = {"z1": z1, "s2": s2, "z2": z2}


def _zero_actions(field, n, m):
    z = Matrix.zeros(field, m, m)
    return ((z,) * n, tuple((z,) * n for _ in range(n)),
            tuple((z,) * n for _ in range(n)))


def _zero_cocycle(base, fiber, actions):
    n, m = base.dim, fiber.dim
    return NonAbelianCocycle(base, fiber, Cochain2.zero(n, m, base.field),
                             Cochain3.zero(n, m, base.field), *actions)


def _decode_all(zero, stream):
    """Every cocycle of a `_valid_cocycles` stream, decoded; each block's
    candidate indices must rebuild its rows."""
    out = []
    for index, nu, om in stream:
        rebuilt = candidate_rows(zero, index)
        assert [a.tolist() for a in rebuilt] == [nu.tolist(), om.tolist()]
        out += _decoded(zero, nu, om)
    return out


def _blocks(zero, **chunk):
    coords = CochainCoords(zero.n, zero.m, zero.field)
    return bruteforce.candidate_blocks(zero.field.p, coords.total, 10 ** 7, "cocycles",
                                       **chunk)


@lru_cache(maxsize=None)
def _classify_input(base_name, actions_doc, variant):
    """(base, fiber, actions, valid candidates) over GF(5), fiber z1."""
    field = PrimeField(5)
    base, fiber = _BASES[base_name](field), zero_algebra(field, 1)
    if actions_doc is None:
        actions = _zero_actions(field, base.dim, 1)
    else:
        r = docs.parse_document(str(corpus_dir() / actions_doc), "representation")
        actions = (r.mu, r.theta, r.dd)
    zero = _zero_cocycle(base, fiber, actions)
    cands = tuple(_decode_all(zero, _valid_cocycles(zero, variant, _blocks(zero))))
    return base, fiber, actions, cands


def _pairs(reps):
    return [(c.nu, c.omega) for c in reps]


@pytest.mark.parametrize("base_name, actions_doc, variant, want", [
    ("z1", None, Variant.CORRECTED, (1, 1)),
    ("s2", None, Variant.CORRECTED, (25, 125)),
    ("z2", None, Variant.CORRECTED, (125, 125)),
    ("s2", "r_s2_gf5.rep", Variant.CORRECTED, (5, 25)),
    ("s2", "r_s2_gf5.rep", Variant.STRICT, (5, 25)),
])
def test_coset_classes_match_pairwise(base_name, actions_doc, variant, want):
    base, fiber, actions, cands = _classify_input(base_name, actions_doc, variant)
    count, reps, valid = classify_corpus(base, fiber, actions, variant=variant)
    assert (count, valid) == want
    oracle_reps, oracle_valid = pairwise_classes(cands)
    assert (len(oracle_reps), oracle_valid) == want
    assert _pairs(reps) == _pairs(oracle_reps)
    # candidate blocks of 7 rows: classes span blocks, and some blocks
    # hold no valid cocycle
    zero = _zero_cocycle(base, fiber, actions)
    index, coset_valid = _coset_classes(
        zero, _valid_cocycles(zero, variant, _blocks(zero, chunk=7)))
    coset_reps = _decoded(zero, *candidate_rows(zero, index))
    assert coset_valid == valid and _pairs(coset_reps) == _pairs(reps)


@pytest.mark.parametrize("base_name, actions_doc, want", [
    ("s2", None, (25, 125)), ("s2", "r_s2_gf5.rep", (5, 25))])
def test_coset_classes_cut_each_block_into_slices(monkeypatch, base_name, actions_doc, want):
    # one candidate block of 125 rows, coded and witness-checked 7 rows at a
    # time (18 slices, with classes whose members lie in several): the
    # representatives of the pairwise search, and every member that joins a
    # class witness-checked, at most 7 at a time
    base, fiber, actions, cands = _classify_input(base_name, actions_doc, Variant.CORRECTED)
    zero = _zero_cocycle(base, fiber, actions)
    sizes = []
    check = extensions._equivalent_via

    def recorded(members, *args):
        sizes.append(len(members.nu))
        return check(members, *args)

    monkeypatch.setattr(extensions, "_CLASS_ROWS", 7)
    monkeypatch.setattr(extensions, "_equivalent_via", recorded)
    blocks = list(_valid_cocycles(zero, Variant.CORRECTED, _blocks(zero)))
    assert len(blocks) == 1
    index, valid = _coset_classes(zero, blocks)
    assert (len(index), valid) == want
    assert max(sizes) == 7 and sum(sizes) == valid - len(index)
    oracle_reps, _ = pairwise_classes(cands)
    assert _pairs(_decoded(zero, *candidate_rows(zero, index))) == _pairs(oracle_reps)


@pytest.mark.parametrize("base_name, fiber_dim, actions_doc, variant, want", [
    ("z1", 1, None, Variant.CORRECTED, (1, 1)),
    ("s2", 1, None, Variant.CORRECTED, (25, 125)),
    ("s2", 1, "r_s2_gf5.rep", Variant.CORRECTED, (5, 25)),
    ("s2", 1, "r_s2_gf5.rep", Variant.STRICT, (5, 25)),
    ("z2", 2, None, Variant.CORRECTED, (15625, 15625)),
    ("s2", 2, None, Variant.CORRECTED, (625, 15625)),
])
def test_class_store_matches_the_dict_oracle(monkeypatch, base_name, fiber_dim, actions_doc,
                                             variant, want):
    # candidate blocks of 40 rows, coded 7 at a time: classes repeat across
    # slices and blocks.  The sorted store of codes and candidate indices
    # gives the classes, representatives and count of the dict keyed by the
    # whole key, representatives kept as rows, and every member that joins
    # a class is witness-checked against its representative's row, with
    # the witness that `solve_rows` gives on the `identities.affine`
    # reading of the equivalence matrix.  The blocks streamed last first
    # give the same classes, each represented by its first member in that
    # stream: codes need not arrive in order
    field = PrimeField(5)
    base, fiber = _BASES[base_name](field), zero_algebra(field, fiber_dim)
    actions = _zero_actions(field, base.dim, fiber_dim)
    if actions_doc is not None:
        r = docs.parse_document(str(corpus_dir() / actions_doc), "representation")
        actions = (r.mu, r.theta, r.dd)
    zero = _zero_cocycle(base, fiber, actions)
    targets, checked = [], []
    check = extensions._equivalent_via

    def recorded(members, reps, phi, *args):
        targets.extend(zip(reps.nu.tolist(), reps.om.tolist()))
        checked.append((members, reps, phi))
        return check(members, reps, phi, *args)

    monkeypatch.setattr(extensions, "_CLASS_ROWS", 7)
    monkeypatch.setattr(extensions, "_equivalent_via", recorded)
    blocks = list(_valid_cocycles(zero, variant, _blocks(zero, chunk=40)))
    index, valid = _coset_classes(zero, blocks)
    (nu, om), oracle_valid = coset_classes_oracle(zero, blocks, rows=7)
    assert (len(index), valid) == (len(nu), oracle_valid) == want
    assert (index[1:] > index[:-1]).all()
    assert [a.tolist() for a in candidate_rows(zero, index)] == [nu.tolist(), om.tolist()]
    assert len(targets) == valid - len(index)
    assert set(map(str, targets)) <= set(map(str, zip(nu.tolist(), om.tolist())))
    index, _ = _coset_classes(zero, blocks[::-1])
    (nu, om), _ = coset_classes_oracle(zero, blocks[::-1], rows=7)
    assert sorted(map(str, zip(*(a.tolist() for a in candidate_rows(zero, index))))) \
        == sorted(map(str, zip(nu.tolist(), om.tolist())))
    matrix = equivalence_matrix(zero)
    for members, reps, phi in checked:
        solvable, want = class_witnesses(members, reps, matrix, 5)
        assert solvable.all() and phi.tolist() == want.tolist()
    assert sum(len(phi) for _, _, phi in checked) == 2 * (valid - len(index))


@pytest.mark.parametrize("base_name, fiber_dim, actions_doc, rank", [
    ("z1", 1, None, 0), ("s2", 1, None, 2), ("z2", 1, None, 3),
    ("s2", 1, "r_s2_gf5.rep", 2), ("z2", 3, None, 9)])
def test_class_code_is_injective_on_the_key(base_name, fiber_dim, actions_doc, rank):
    # on candidates drawn from every digit string, valid or not, two codes
    # are equal exactly where the whole keys of `solve_rows` on the
    # `identities.affine` reading of the equivalence matrix are, and each
    # code is below p^rank, the rank of the map from the digits to the key.
    # Over z2 x z3 the key has 36 entries and that rank is 9, the digit count
    import numpy as np

    from bolext.nonabelian import _flat

    field = PrimeField(5)
    base, fiber = _BASES[base_name](field), zero_algebra(field, fiber_dim)
    actions = _zero_actions(field, base.dim, fiber_dim)
    if actions_doc is not None:
        r = docs.parse_document(str(corpus_dir() / actions_doc), "representation")
        actions = (r.mu, r.theta, r.dd)
    zero = _zero_cocycle(base, fiber, actions)
    total = 5 ** CochainCoords(base.dim, fiber_dim, field).total
    index = np.random.default_rng(rank).integers(0, total, size=min(total, 3000))
    nu, om = candidate_rows(zero, index)
    codes = _class_code(zero)[0](nu, om)
    keys = solve_rows(equivalence_matrix(zero), _flat((nu, om)), 5)[2]
    if fiber_dim == 3:
        assert keys.shape[1] == 36
    assert codes.dtype == np.int64 and codes.min() >= 0 and codes.max() < 5 ** rank
    _, by_code = np.unique(codes, return_inverse=True)
    _, by_key = np.unique(keys, axis=0, return_inverse=True)
    pairs = set(zip(by_code.tolist(), by_key.ravel().tolist()))
    assert len(pairs) == len(set(by_code.tolist())) == len(set(by_key.ravel().tolist()))
    assert len(pairs) > 1 or rank == 0


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("base_name, actions_doc", [("z2", None), ("s2", "r_s2_gf5.rep")])
def test_batched_valid_cocycles_match_scalar_oracle(base_name, actions_doc, variant):
    # every candidate: 125 of z2 x z1, 125 of s2 x z1 with the actions of r_s2
    base, fiber, actions, cands = _classify_input(base_name, actions_doc, variant)
    want = list(valid_cocycles_oracle(base, fiber, actions, variant))
    assert _pairs(cands) == _pairs(want) and want


@pytest.mark.parametrize("variant, valid", [(Variant.CORRECTED, 1), (Variant.STRICT, 2)])
def test_batched_valid_cocycles_match_scalar_oracle_on_z2_s2(F5, variant, valid):
    # candidates 2500..3499 of the 5^6 of z2 x s2, as two chunks of the
    # stream; 3125 is valid in both variants and 2500 in the strict one
    base, fiber = z2(F5), s2(F5)
    actions = _zero_actions(F5, 2, 2)
    blocks = islice(bruteforce.candidate_blocks(5, 6, 10 ** 7, "cocycles", chunk=500), 5, 7)
    zero = _zero_cocycle(base, fiber, actions)
    got = _decode_all(zero, _valid_cocycles(zero, variant, blocks))
    want = list(valid_cocycles_oracle(base, fiber, actions, variant,
                                      islice(enumerate_vectors(F5, 6), 2500, 3500)))
    assert _pairs(got) == _pairs(want) and len(want) == valid


def test_classify_refuses_the_bound_before_any_mask(F5, monkeypatch):
    def no_mask(*args, **kwargs):
        raise AssertionError("a mask ran before the bound was checked")

    monkeypatch.setattr(bruteforce, "identity_mask", no_mask)
    with pytest.raises(UnsupportedEnumerationError,
                       match="^15625 candidate cocycles exceed the bound 15624$"):
        classify_corpus(z2(F5), s2(F5), bound=15624)


def _actions_of(name):
    c = theta_map(docs.parse_document(str(corpus_dir() / name), "extension"))
    return c.base, c.fiber, (c.mu, c.theta, c.dd)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("case", ["z1_x_s2", "z2_x_s2", "s2_x_s2", "e_s2_s2.ext", "e_z2_s2.ext"])
def test_nonabelian_fiber_is_classed_by_cosets(F5, monkeypatch, case, variant):
    # a non-abelian fiber takes the one coset path, with no pairwise
    # search: the representatives of `pairwise_classes` over the decoded
    # valid cocycles, and of orbit marking, with zero actions or those of a
    # corpus extension
    from bolext import nonabelian

    if case.endswith(".ext"):
        base, fiber, actions = _actions_of(case)
    else:
        base, fiber = ({"z1": z1, "z2": z2, "s2": s2}[name](F5) for name in case.split("_x_"))
        actions = None
    cosets = []
    coset_classes = extensions._coset_classes

    def spy(zero, blocks):
        cosets.append(zero)
        return coset_classes(zero, blocks)

    def no_search(*args):
        raise AssertionError("solve_equivalence called during classification")

    monkeypatch.setattr(extensions, "_coset_classes", spy)
    monkeypatch.setattr(extensions, "solve_equivalence", no_search)
    monkeypatch.setattr(nonabelian, "solve_equivalence", no_search)
    count, reps, valid = classify_corpus(base, fiber, actions, variant=variant)
    monkeypatch.undo()
    assert len(cosets) == 1 and not cosets[0].fiber.is_abelian()
    zero = cosets[0]
    cands = _decode_all(zero, _valid_cocycles(zero, variant, _blocks(zero)))
    oracle_reps, oracle_valid = pairwise_classes(cands)
    assert (count, valid) == (len(oracle_reps), oracle_valid)
    assert _pairs(reps) == _pairs(oracle_reps)
    assert count == (1 if base.dim == 1 else 5 if variant is Variant.CORRECTED else 25)
    index = extensions.classify_rows(base, fiber, actions, variant=variant)[1]
    assert orbit_classes(zero, _valid_cocycles(zero, variant, _blocks(zero))).tolist() \
        == index.tolist()


def test_abelian_fiber_decodes_only_the_representatives(F5, monkeypatch):
    # 125 valid cocycles of s2 x z1 in 25 classes: a NonAbelianCocycle is
    # decoded per class, not per row, and only the zero cocycle of the
    # actions runs the constructor's checks
    built, decoded = [], []
    post_init, decode = NonAbelianCocycle.__post_init__, extensions._decoded

    def spy(self):
        built.append(self)
        post_init(self)

    def decode_spy(*args):
        out = decode(*args)
        decoded.extend(out)
        return out

    monkeypatch.setattr(NonAbelianCocycle, "__post_init__", spy)
    monkeypatch.setattr(extensions, "_decoded", decode_spy)
    count, reps, valid = classify_corpus(s2(F5), zero_algebra(F5, 1))
    assert (count, valid) == (25, 125)
    assert len(built) == 1 and decoded == reps


@pytest.mark.parametrize("base, fiber", [(s2, lambda F: zero_algebra(F, 1)), (z1, s2)])
def test_decoded_cocycles_equal_the_constructed_ones(F5, base, fiber):
    # every decoded representative, abelian fiber or not, equals the cocycle
    # the public constructor builds from its parts, which checks them all
    _, reps, _ = classify_corpus(base(F5), fiber(F5))
    assert reps
    for c in reps:
        built = NonAbelianCocycle(c.base, c.fiber, Cochain2(c.n, c.m, F5, c.nu.grid),
                                  Cochain3(c.n, c.m, F5, c.omega.grid), c.mu, c.theta, c.dd)
        assert built == c and hash(built) == hash(c)
        assert (type(c.nu), type(c.omega)) == (Cochain2, Cochain3)


def test_decoded_cochains_of_a_wrong_shape_are_refused(F5):
    import numpy as np

    zero = NonAbelianCocycle.zero(s2(F5), zero_algebra(F5, 1))
    nu, om = np.zeros((1, 2, 2, 1), dtype=np.int64), np.zeros((1, 2, 2, 2, 1), dtype=np.int64)
    assert _decoded(zero, nu, om) == [zero]
    with pytest.raises(UsageError, match="^cochain shapes do not match base and fiber$"):
        _decoded(zero, nu[:, :, :, :0], om)
    with pytest.raises(UsageError, match="^cochain shapes do not match base and fiber$"):
        _decoded(zero, nu, om[:, :1])


def test_constructor_refuses_a_bad_action_matrix(F5):
    # decoding skips the action checks; the public constructor keeps them
    zero = NonAbelianCocycle.zero(s2(F5), zero_algebra(F5, 1))
    wide = Matrix.zeros(F5, 1, 2)
    for mu in ((wide, zero.mu[1]), (Matrix.zeros(PrimeField(7), 1, 1), zero.mu[1]),
               ("not a matrix", zero.mu[1])):
        with pytest.raises(UsageError, match="^action matrix has wrong shape or field$"):
            NonAbelianCocycle(zero.base, zero.fiber, zero.nu, zero.omega, mu, zero.theta,
                              zero.dd)
    theta = ((zero.theta[0][0], wide), zero.theta[1])
    with pytest.raises(UsageError, match="^action matrix has wrong shape or field$"):
        NonAbelianCocycle(zero.base, zero.fiber, zero.nu, zero.omega, zero.mu, theta, zero.dd)


def test_corrupted_class_witness_raises(monkeypatch):
    base, fiber, actions, _ = _classify_input("s2", None, Variant.CORRECTED)
    zero = _zero_cocycle(base, fiber, actions)
    class_code = extensions._class_code

    def corrupted(zero):
        # the codes stay right, so the classes do; the witness map W does not
        code, witness = class_code(zero)
        return code, (witness + 1) % zero.field.p

    monkeypatch.setattr(extensions, "_class_code", corrupted)
    with pytest.raises(InternalConsistencyError, match="^class witness failed verification$"):
        _coset_classes(zero, _valid_cocycles(zero, Variant.CORRECTED, _blocks(zero)))


@pytest.mark.parametrize("fiber_dim, actions_doc, want", [
    (1, None, (25, 125)), (1, "r_s2_gf5.rep", (5, 25)), (2, None, (625, 15625))])
def test_abelian_classification_eliminates_once(F5, monkeypatch, fiber_dim, actions_doc, want):
    # the class codes and every joining member's witness come from one
    # elimination of [L | D], and L is read off the orbit, not off
    # `identities.affine`
    from bolext import identities

    calls = []
    eliminate = bruteforce.eliminate

    def counted(*args):
        calls.append(args[0].shape)
        return eliminate(*args)

    def no_affine(*args, **kwargs):
        raise AssertionError("identities.affine read during classification")

    monkeypatch.setattr(bruteforce, "eliminate", counted)
    monkeypatch.setattr(identities, "affine", no_affine)
    actions = None
    if actions_doc is not None:
        r = docs.parse_document(str(corpus_dir() / actions_doc), "representation")
        actions = (r.mu, r.theta, r.dd)
    zero, index, valid = extensions.classify_rows(s2(F5), zero_algebra(F5, fiber_dim), actions)
    assert (len(index), valid) == want
    assert len(calls) == 1 and calls[0][0] == 1


@lru_cache(maxsize=None)
def _s2_h3(moved):
    """(zero cocycle with the actions, every valid candidate index, the
    representatives' indices) of s2 x h3 over GF(5), zero actions or those
    a map outside their stabiliser moves them to."""
    import numpy as np

    from bolext.bol import h3
    from oracles import moved_actions

    field = PrimeField(5)
    base, fiber = s2(field), h3(field)
    zero, index, valid = extensions.classify_rows(
        base, fiber, moved_actions(base, fiber) if moved else None)
    every = np.concatenate([k for k, _, _ in _valid_cocycles(zero, Variant.CORRECTED,
                                                             _blocks(zero))])
    assert (len(index), valid, len(every)) == (625, 3125, 3125)
    return zero, every, index


@pytest.mark.parametrize("moved", [False, True], ids=["zero-actions", "moved-actions"])
def test_s2_h3_classes_agree_with_solve_equivalence_on_sampled_pairs(moved):
    # 3,125 valid cocycles in 625 classes of 5 over a non-abelian fiber.
    # On a seeded sample of 240 valid pairs, half of them within one class
    # and half drawn at random, the pairwise search finds a comparison map
    # exactly where the class codes agree, and each class is represented by
    # its first member in candidate order.  The search is the `EQV` mask
    # over every map (`oracles.equivalence_by_search`), which reads no orbit
    import numpy as np

    from bolext.core import DEFAULT_ENUMERATION_BOUND

    zero, every, index = _s2_h3(moved)
    nu, om = candidate_rows(zero, every)
    codes = _class_code(zero)[0](nu, om)
    _, first = np.unique(codes, return_index=True)
    assert sorted(every[first].tolist()) == index.tolist()
    rng = np.random.default_rng(35)
    left = rng.choice(len(every), 240)
    right = rng.choice(len(every), 240)
    for k in range(0, 240, 2):
        right[k] = rng.choice(np.flatnonzero(codes == codes[left[k]]))
    cocycles = _decoded(zero, *candidate_rows(zero, every[np.concatenate([left, right])]))
    found = [equivalence_by_search(a, b, DEFAULT_ENUMERATION_BOUND).found
             for a, b in zip(cocycles[:240], cocycles[240:])]
    assert found == (codes[left] == codes[right]).tolist()
    assert 120 <= sum(found) < 240


def test_equivalence_matrix_guards_the_stabiliser_basis(F5, monkeypatch):
    # over a non-abelian fiber the maps that keep the actions are read off
    # the orbit and reduced to a basis; a basis that spans less than they
    # do, or whose orbit rows are not the members', is refused
    import numpy as np

    from bolext import nonabelian
    from bolext.bol import h3

    zero = NonAbelianCocycle.zero(s2(F5), h3(F5))
    matrix, maps = nonabelian._equivalence_matrix(zero)
    assert len(maps) and matrix.shape[1] == len(maps)
    eliminate = bruteforce.eliminate
    for corrupt in ("drop", "scale"):
        def corrupted(aug, cols, p):
            out, rank, pivot_row = eliminate(aug, cols, p)
            if corrupt == "drop":
                return out, rank - 1, pivot_row
            out = out.copy()
            out[0, 0] = 2 * out[0, 0] % p
            return out, rank, pivot_row

        monkeypatch.setattr(bruteforce, "eliminate", corrupted)
        with pytest.raises(InternalConsistencyError, match="^the maps that keep the actions"):
            nonabelian._equivalence_matrix(zero)
    monkeypatch.undo()
    assert np.array_equal(nonabelian._equivalence_matrix(zero)[0], matrix)
