from functools import lru_cache
from math import prod
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bolext import identities
from bolext.bol import is_morphism, s2, z1, z2
from bolext.bruteforce import (_headroom_dtype, _morphism_fixed,
                               _narrowest, _term_bound, automorphism_arrays,
                               candidate_blocks, contract_mod, digit_block,
                               eliminate, identity_mask, inverse_mod,
                               require_int64_headroom, triangular_arrays)
from bolext.errors import InternalConsistencyError, UnsupportedEnumerationError
from bolext.exactlin import Matrix, PrimeField

from oracles import solve_rows


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
    consistent, x, key = solve_rows(a, b, p)
    want_rank, want = _oracle(a, b, p)
    assert key.shape == (len(b), a.shape[0] - want_rank)
    for k, (ok, sol) in enumerate(want):
        assert bool(consistent[k]) == ok == (not key[k].any())
        if ok:
            assert x[k].tolist() == sol
    # the key names the class of a right-hand side modulo the image of a
    differences = (b[:, None] - b[None, :]).reshape(-1, b.shape[1]) % p
    solvable = [ok for ok, _ in _oracle(a, differences, p)[1]]
    same_key = (key[:, None] == key[None, :]).all(axis=2).ravel()
    assert same_key.tolist() == solvable
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
    other = residues((3, rows))
    # the last three rows share their keys with the three before them
    b = np.concatenate([consistent_rhs, other, (other + consistent_rhs) % p])
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
        solve_rows(np.eye(2, dtype=np.int64), np.zeros((1, 2), dtype=np.int64), big)
    with pytest.raises(UnsupportedEnumerationError):
        inverse_mod(np.eye(2, dtype=np.int64)[None], big)
    x = np.full((2, 3), 4)
    assert contract_mod("ij,jk->ik", 5, x, x.T).tolist() == [[3, 3], [3, 3]]
    with pytest.raises(UnsupportedEnumerationError):
        contract_mod("ij,jk,kl->il", 2 ** 31 - 1, x, x.T, x)


def _check_contraction(spec, sizes, p, rng):
    """contract_mod against the einsum oracle on random residues of the
    given letter sizes; where the headroom check refuses, both sides agree
    that the sum may not fit."""
    ops = [rng.integers(0, p, size=[sizes[ch] for ch in term])
           for term in spec.split("->")[0].split(",")]
    summed = prod(sizes[ch] for ch in set(sizes) - set(spec.split("->")[1]))
    if summed * (p - 1) ** len(ops) >= 2 ** 63:
        with pytest.raises(UnsupportedEnumerationError):
            contract_mod(spec, p, *ops)
        return
    got = contract_mod(spec, p, *ops)
    want = np.einsum(spec, *ops) % p
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want), spec


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_contract_mod_matches_einsum(data):
    # random specs of one to three operands over letters of size 0 to 3
    p = data.draw(st.sampled_from([5, 7, 1_000_003]))
    letters = "abcdef"
    terms = data.draw(st.lists(st.lists(st.sampled_from(letters), unique=True, max_size=4),
                               min_size=1, max_size=3))
    used = sorted(set().union(*terms))
    out = data.draw(st.lists(st.sampled_from(used), unique=True)) if used else []
    sizes = {ch: data.draw(st.integers(0, 3)) for ch in used}
    spec = ",".join(map("".join, terms)) + "->" + "".join(out)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    _check_contraction(spec, sizes, p, rng)


@pytest.mark.parametrize("p", [5, 7, 1_000_003])
@pytest.mark.parametrize("spec", [
    "ij,jkl->il",         # l summed inside the second operand alone
    "kst,kxyt->kxys",     # the batched operand first
    "xst,kty->kxys",      # the batched operand second
    "xy,byz,zw->bxw",     # a chain of three
    "ijk->",              # one operand summed to a scalar
    "ab,cd->dcab",        # an outer product
])
def test_contract_mod_plans_per_spec_and_shapes(p, spec):
    # each spec at small sizes (with a size-1 and a size-0 letter where it
    # has four letters or more), one larger, then the first sizes again:
    # every new shape takes its own cached plan, a repeated one reuses it
    from bolext.bruteforce import _contraction_plan

    rng = np.random.default_rng(len(spec) * p)
    letters = sorted(set(spec) - set(",->"))
    first = {ch: (2, 3, 1, 0)[i % 4] if len(letters) > 3 else 2 + i % 2
             for i, ch in enumerate(letters)}
    second = {ch: size + 1 for ch, size in first.items()}
    _contraction_plan.cache_clear()
    for sizes in (first, second, first):
        _check_contraction(spec, sizes, p, rng)
    info = _contraction_plan.cache_info()
    assert (info.misses, info.hits) == (2, 1)


def test_contract_mod_refuses_a_spec_that_does_not_fit():
    # mismatched sizes of one letter, an output letter no operand carries,
    # too few operands, and a letter twice in one operand (einsum's
    # diagonal, which no residue contraction uses)
    x = np.zeros((2, 3), dtype=np.int64)
    for spec, ops in [("ij,jk->ik", (x, x)), ("ij->k", (x,)), ("ij,jk->ik", (x,)),
                      ("ii->i", (np.zeros((2, 2)),))]:
        with pytest.raises(ValueError):
            contract_mod(spec, 5, *ops)


def test_headroom_dtype():
    # the four-factor contraction of the automorphism scan at n = 3
    assert _headroom_dtype(27, 4, 5) is np.int16      # 27 * 4^4 = 6912
    assert _headroom_dtype(27, 4, 7) is np.int32      # 27 * 6^4 = 34992
    assert _headroom_dtype(9, 3, 1_000_003) is np.int64
    with pytest.raises(UnsupportedEnumerationError):
        _headroom_dtype(27, 4, 2 ** 31 - 1)
    for terms in (1, 3, 9, 27, 1000):
        for degree in (1, 2, 3, 4):
            for p in (5, 7, 11, 101, 65_537, 1_000_003):
                worst = terms * (p - 1) ** degree
                if worst >= 2 ** 63:
                    continue
                dt = _headroom_dtype(terms, degree, p)
                assert worst <= np.iinfo(dt).max
                if dt is not np.int16:
                    narrower = np.int16 if dt is np.int32 else np.int32
                    assert worst > np.iinfo(narrower).max


def _morphism_oracle(bil, tri, M, p):
    """`_morphism_fixed` on Python integers, one matrix at a time."""
    out = []
    for g in M.tolist():
        n = len(g)

        def image(v):
            return [sum(g[r][q] * v[q] for q in range(n)) % p for r in range(n)]

        cols = [[g[r][i] for r in range(n)] for i in range(n)]
        ok = True
        for i in range(n):
            for j in range(n):
                lhs = [sum(cols[i][a] * cols[j][c] * int(bil[a][c][l])
                           for a in range(n) for c in range(n)) % p
                       for l in range(n)]
                ok &= lhs == image([int(v) for v in bil[i][j]])
                for k in range(n):
                    lhs = [sum(cols[i][a] * cols[j][c] * cols[k][d] * int(tri[a][c][d][l])
                               for a in range(n) for c in range(n) for d in range(n)) % p
                           for l in range(n)]
                    ok &= lhs == image([int(v) for v in tri[i][j][k]])
        out.append(ok)
    return out


_RESIDUAL_SPECS = {2: ("bai,bcj,acl->bijl", "blq,ijq->bijl"),
                   3: ("bai,bcj,bek,acel->bijkl", "blq,ijkq->bijkl")}


def _sparse_products(rng, p, d, arity):
    """Products of one shape: dense, all zero, one entry 1, one entry v != 1
    (where p > 2) and a few entries."""
    shape = (d,) * (arity + 1)
    yield rng.integers(0, p, size=shape)
    yield np.zeros(shape, dtype=np.int64)
    for v in {1, p - 1}:
        t = np.zeros(shape, dtype=np.int64)
        t[tuple(rng.integers(0, d, size=arity + 1))] = v
        yield t
    yield rng.integers(0, p, size=shape) * (rng.random(shape) < 0.2)


def _residual_routes(t, M, p):
    """(the kernel, the batched-matmul chain of the scan's oracle, one int64
    einsum) of the morphism residual."""
    from bolext.bruteforce import _morphism_residual
    from oracles import morphism_residual_by_chain

    lhs, rhs = _RESIDUAL_SPECS[t.ndim - 1]
    want = (np.einsum(lhs, *[M.astype(np.int64)] * (t.ndim - 1), t.astype(np.int64))
            - np.einsum(rhs, M.astype(np.int64), t.astype(np.int64))) % p
    return _morphism_residual(t, M, p), morphism_residual_by_chain(t, M, p), want


@pytest.mark.parametrize("p", [5, 7, 10_007])
@pytest.mark.parametrize("arity", [2, 3])
def test_morphism_residual_matches_one_full_contraction(p, arity):
    # every entry of t(M x, M y[, M z]) - M t(x, y[, z]) mod p, in the type
    # its worst case picks, against one int64 einsum and against the chain
    # of batched matrix products the scan's oracle tests with: batches of 0,
    # 1 and 40 matrices of dimension 1 to 4, and products that are dense,
    # zero, one entry 1, one entry v != 1, or a few entries
    from bolext.bruteforce import _morphism_residual
    from oracles import morphism_residual_by_chain

    lhs, rhs = _RESIDUAL_SPECS[arity]
    rng = np.random.default_rng(p + arity)
    for d in range(1, 5):
        for t in _sparse_products(rng, p, d, arity):
            for k in (0, 1, 40):
                M = rng.integers(0, p, size=(k, d, d))
                want = (np.einsum(lhs, *[M] * arity, t) - np.einsum(rhs, M, t)) % p
                got = _morphism_residual(t, M, p)
                assert got.dtype == _headroom_dtype(d ** arity, arity + 1, p)
                assert got.shape == want.shape and (got == want).all()
                chain = morphism_residual_by_chain(t, M, p)
                assert chain.dtype == got.dtype and (chain == got).all()


@pytest.mark.parametrize("name", ["e_h3.ext", "e_z2_z2.ext"])
def test_morphism_residual_on_adapted_totals(name):
    # both products of the adapted totals the exactness runs scan, on
    # random matrices, on block-triangular ones and on the identity: the
    # kernel, the chain and the einsum agree
    from bolext.documents import parse_document
    from bolext.extensions import _adapted_total, canonical_section
    from conftest import corpus_dir

    e = parse_document(str(corpus_dir() / name), "extension")
    _, adapted = _adapted_total(e, canonical_section(e))
    dt = _headroom_dtype(1, 1, 5)
    rng = np.random.default_rng(23)
    d = e.n + e.m
    M = rng.integers(0, 5, size=(30, d, d))
    M[10:, :e.n, e.n:] = 0
    M = np.concatenate([M, np.eye(d, dtype=np.int64)[None]]).astype(dt)
    for t in (identities.residues(adapted.bil), identities.residues(adapted.tri)):
        got, chain, want = _residual_routes(t.astype(dt), M, 5)
        assert got.dtype == chain.dtype and got.shape == want.shape
        assert (got == chain).all() and (got == want).all()
        assert not got[-1].any()


@pytest.mark.parametrize("arity", [2, 3])
def test_morphism_residual_refuses_int64_overflow_as_the_chain_does(arity):
    # at p = 1,000,003 the worst left side d^arity (p - 1)^(arity + 1)
    # overflows int64 from d = 4 on for a bracket and at every d for a
    # triple product; the kernel raises exactly where the chain does, also
    # for an all-zero product, and agrees with it elsewhere
    from bolext.bruteforce import _morphism_residual
    from oracles import morphism_residual_by_chain

    p = 1_000_003
    rng = np.random.default_rng(arity)
    raised = []
    for d in range(1, 5):
        M = rng.integers(0, p, size=(3, d, d))
        for t in (np.zeros((d,) * (arity + 1), dtype=np.int64),
                  rng.integers(0, p, size=(d,) * (arity + 1))):
            outcomes = []
            for kernel in (_morphism_residual, morphism_residual_by_chain):
                try:
                    outcomes.append(kernel(t, M, p))
                except UnsupportedEnumerationError:
                    outcomes.append(None)
            got, chain = outcomes
            assert (got is None) == (chain is None)
            if got is None:
                raised.append(d)
            else:
                assert got.dtype == chain.dtype == np.int64 and (got == chain).all()
    assert raised == ([4, 4] if arity == 2 else [1, 1, 2, 2, 3, 3, 4, 4])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_morphism_residual_property(data):
    # a product with a random support, dimension 1 to 4, arity 2 or 3 and
    # batches of 0, 1 and 7 matrices: the kernel, the chain and the einsum
    p = data.draw(st.sampled_from([2, 3, 5, 7, 101]))
    d = data.draw(st.integers(1, 4))
    arity = data.draw(st.sampled_from([2, 3]))
    shape = (d,) * (arity + 1)
    support = data.draw(st.integers(0, d ** (arity + 1)))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    t = np.zeros(d ** (arity + 1), dtype=np.int64)
    t[rng.choice(t.size, support, replace=False)] = rng.integers(1, p, size=support)
    t = t.reshape(shape)
    for k in (0, 1, 7):
        M = rng.integers(0, p, size=(k, d, d))
        got, chain, want = _residual_routes(t, M, p)
        assert got.dtype == chain.dtype == _headroom_dtype(d ** arity, arity + 1, p)
        assert got.shape == chain.shape == want.shape == (k,) + shape
        assert (got == chain).all() and (got == want).all()


def test_candidate_blocks_check_the_bound_when_called():
    # the bound is checked before any block is asked for, and the blocks
    # together are the p^width digit strings in lexicographic order
    with pytest.raises(UnsupportedEnumerationError,
                       match="^78125 candidate things exceed the bound 78124$"):
        candidate_blocks(5, 7, 78124, "things")
    blocks = list(candidate_blocks(5, 4, 625, "things", chunk=100))
    assert [start for start, _ in blocks] == list(range(0, 625, 100))
    assert [len(rows) for _, rows in blocks] == [100] * 6 + [25]
    assert (np.concatenate([rows for _, rows in blocks])
            == digit_block(0, 625, 5, 4, np.int64)).all()


@pytest.mark.parametrize("name", ["z1", "z2", "s2", "bracket_base"])
def test_stabiliser_scan_of_a_trivial_subspace_is_the_flat_scan(F5, name):
    # the flat scan is every invertible matrix that `_morphism_oracle`
    # accepts, in lexicographic order of its row-major digits
    from test_wells import _bracket_base

    a = {"z1": z1, "z2": z2, "s2": s2, "bracket_base": _bracket_base}[name](F5)
    bil, tri, d = identities.residues(a.bil), identities.residues(a.tri), a.dim
    flat = automorphism_arrays(bil, tri, 5, 10 ** 4)
    every = digit_block(0, 5 ** (d * d), 5, d * d, np.int64).reshape(-1, d, d)
    invertible = every[[Matrix.from_int_rows(F5, g.tolist()).rank() == d for g in every]]
    want = invertible[_morphism_oracle(bil, tri, invertible, 5)]
    assert len(flat)
    assert flat.tolist() == want.tolist()


def test_morphism_mask_at_p7_has_headroom():
    # tri(x, y, z) = s(x) s(y) s(z) w with s the coordinate sum; every column
    # of g sums to 4 = 18 mod 7 and g w = w = 4^3 w, so g commutes with tri,
    # while the lhs entry at (0, 0, 0, 0) sums 27 * 6^4 = 34992 > 2^15 - 1
    p = 7
    g = np.array([[6, 0, 1], [6, 0, 6], [6, 4, 4]])
    w = np.array([6, 3, 5])
    tri = np.broadcast_to(w, (3, 3, 3, 3))
    bil = np.zeros((3, 3, 3), dtype=np.int64)
    batch = np.stack([g, np.full((3, 3), 6), (g + np.eye(3, dtype=np.int64)) % p])
    want = _morphism_oracle(bil, tri, batch, p)
    assert want == [True, False, False]
    for dt in (np.int16, np.int64):
        got = _morphism_fixed(bil.astype(dt), tri.astype(dt), batch.astype(dt), p)
        assert got.tolist() == want


def test_morphism_mask_skips_a_zero_bracket_without_changing_it(F5, monkeypatch,
                                                               ext_h3_f5):
    # e_h3's total in the adapted basis has no bracket, so neither the
    # residual rows of the factored scan nor `_morphism_fixed` contract it.
    # Per pair of base and fiber automorphisms the scan evaluates the
    # residual at C = 0 and at one guard C (1,920 * 2 rows), then tests the
    # 12,000 members of the solution cosets with the mask: every residual
    # row equals both contractions made in full, the mask equals both checks
    # made in full, and the slices count what was done
    import bolext.bruteforce
    from bolext.bol import automorphism_int_arrays
    from bolext.extensions import _adapted_total, canonical_section

    e = ext_h3_f5
    _, adapted = _adapted_total(e, canonical_section(e))
    bil, tri = identities.residues(adapted.bil), identities.residues(adapted.tri)
    assert not tri.any()
    alphas, betas = automorphism_int_arrays(e.base), automorphism_int_arrays(e.fiber)
    probed, tested = [], []
    rows, skipping = bolext.bruteforce._residual_rows, bolext.bruteforce._morphism_fixed

    def recorded_rows(*args):
        probed.append((args[2].astype(np.int64), rows(*args)))
        return probed[-1][1]

    def recorded(*args):
        tested.append((args[2].astype(np.int64), skipping(*args)))
        return tested[-1][1]
    monkeypatch.setattr(bolext.bruteforce, "_residual_rows", recorded_rows)
    monkeypatch.setattr(bolext.bruteforce, "_morphism_fixed", recorded)
    slices = list(triangular_arrays(bil, tri, alphas, betas, 5, 10 ** 7))
    counts = [sum(getattr(s, name) for s in slices)
              for name in ("scanned", "evaluated", "tested")]
    assert counts + [sum(len(s.blocks) for s in slices)] == [1920, 3840, 12000, 12000]

    def residual(lhs, rhs, *ops):
        diff = (np.einsum(lhs, *ops[:-1], ops[-1], optimize=True)
                - np.einsum(rhs, ops[0], ops[-1]))
        return diff.reshape(len(diff), -1) % 5

    def full(M):
        return (residual("bai,bcj,acl->bijl", "blq,ijq->bijl", M, M, bil),
                residual("bai,bcj,bdk,acdl->bijkl", "blq,ijkq->bijkl", M, M, M, tri))

    M = np.concatenate([m for m, _ in probed])
    per_pair = M.reshape(1920, 2, 3, 3)
    assert not per_pair[:, 0, 2:, :2].any()
    res2, res3 = full(M)
    assert np.concatenate([r for _, r in probed]).tolist() == res2.tolist()
    assert not res3.any()

    M = np.concatenate([m for m, _ in tested])
    got = np.concatenate([mask for _, mask in tested])
    assert len(M) == 12000
    res2, res3 = full(M)
    assert got.tolist() == (~(res2.any(axis=1) | res3.any(axis=1))).tolist()
    assert got.sum() == 12000


def test_affinity_guard_refuses_rows_quadratic_in_c(F5, monkeypatch):
    # over the non-abelian fiber s2 (a bracket, no triple product), some
    # pair's residual rows with two base inputs are quadratic in C: the
    # residual at a C is not its value at C = 0 plus the differences at the
    # unit maps.  `_affine_rows` leaves them out of the solved system; kept,
    # the guard refuses the system
    import bolext.bruteforce
    from bolext.bruteforce import _affine_rows
    from bolext.errors import InternalConsistencyError
    from test_wells import _scan_case

    bil, tri, alphas, betas = _scan_case(F5, "e_s2_s2")[2]
    n, m = alphas.shape[1], betas.shape[1]
    width = n * m
    assert not tri.any()
    C = np.concatenate([np.zeros((1, width), dtype=np.int64), np.eye(width, dtype=np.int64),
                        np.random.default_rng(5).integers(0, 5, size=(8, width))])
    ia, ib = np.divmod(np.arange(len(alphas) * len(betas)), len(betas))
    g = np.zeros((len(ia), len(C), n + m, n + m), dtype=np.int64)
    g[:, :, :n, :n] = alphas[ia][:, None]
    g[:, :, n:, :n] = C.reshape(1, len(C), m, n)
    g[:, :, n:, n:] = betas[ib][:, None]
    res = (np.einsum("kcai,kcbj,abl->kcijl", g, g, bil)
           - np.einsum("kclq,ijq->kcijl", g, bil)) % 5
    const, lin = res[:, :1], res[:, 1:width + 1] - res[:, :1]
    defect = (res[:, width + 1:] - const
              - np.einsum("cu,ku...->kc...", C[width + 1:], lin)) % 5
    base = (np.arange(n + m) < n).astype(np.int64)
    quadratic = defect.any(axis=(0, 1, 4))
    assert quadratic.any() and ((base[:, None] + base)[quadratic] == 2).all()
    assert not defect[..., _affine_rows(bil, tri, n)[0]].any()

    def every_row(bil, tri, n):
        return np.ones(bil.shape, dtype=bool), np.ones(tri.shape, dtype=bool)
    monkeypatch.setattr(bolext.bruteforce, "_affine_rows", every_row)
    with pytest.raises(InternalConsistencyError, match="not affine in C"):
        list(triangular_arrays(bil, tri, alphas, betas, 5, 10 ** 6))


def test_triangular_scan_checks_the_bound_when_called(F5):
    # the bound counts all 480 * 4 * 5^2 candidates of e_h3 and is checked
    # when the scan is called, before the first slice is asked for
    from test_wells import _scan_case

    args = _scan_case(F5, "e_h3")[2]
    with pytest.raises(UnsupportedEnumerationError,
                       match="^48000 candidate matrices exceed the bound 47999$"):
        triangular_arrays(*args, 5, 47999)
    assert sum(len(s.blocks) for s in triangular_arrays(*args, 5, 48000)) == 12000


@pytest.mark.parametrize("name, nonzero, per_pair", [
    ("e_h3", (0, 0), 2), ("e_s2_s2", (8, 0), 6), ("z2_z1_omega", (0, 0), 2),
    ("s2_z1_r_s2_omega", (2, 0), 4), ("z2_theta_omega", (6, 4), 4),
    ("bracket_base", (2, 2), 4)])
def test_reachable_rows_hold_the_linear_part(F5, name, nonzero, per_pair):
    # the part of the residual linear in C, probed at the unit maps on every
    # pair and every kept row, is zero off the rows `_reachable` marks;
    # `nonzero` counts the kept rows it is nonzero on for some pair, and
    # those of the triple product among them.  The scan evaluates `per_pair`
    # residual rows per pair: C = 0, the nm unit maps where a kept row is
    # reachable, and the guard C
    from bolext.bruteforce import _affine_rows, _reachable
    from oracles import linear_part_by_probes
    from test_wells import _TRI_CASES, _scan_case

    bil, tri, alphas, betas = _scan_case(F5, name)[2]
    assert tri.any() == (name in _TRI_CASES)
    n = alphas.shape[1]
    counts = []
    for t, kept, lin in zip((bil, tri), _affine_rows(bil, tri, n),
                            linear_part_by_probes(bil, tri, alphas, betas, 5)):
        hit = lin.any(axis=(0, 1)) & kept
        assert not (hit & ~_reachable(t, n)).any()
        counts.append(int(hit.sum()))
    assert (sum(counts), counts[1]) == nonzero
    slices = list(triangular_arrays(bil, tri, alphas, betas, 5, 10 ** 7))
    assert sum(s.evaluated for s in slices) == per_pair * len(alphas) * len(betas)
    assert sum(s.scanned for s in slices) == len(alphas) * len(betas)


@pytest.mark.parametrize("name", ["e_s2_s2", "z2_theta_omega"])
def test_guard_refuses_a_wrong_linear_part(F5, monkeypatch, name):
    # the guard C checks the probed system: with no row marked reachable the
    # scan takes the part linear in C for zero, and with the residual at the
    # first unit map moved by one on every row it takes a wrong one; either
    # way some pair's prediction at the guard C is wrong, and the scan
    # raises instead of solving a wrong system
    import bolext.bruteforce
    from test_wells import _scan_case

    args = _scan_case(F5, name)[2]
    width = args[2].shape[1] * args[3].shape[1]
    monkeypatch.setattr(bolext.bruteforce, "_reachable",
                        lambda t, n: np.zeros(t.shape, dtype=bool))
    with pytest.raises(InternalConsistencyError, match="not affine in C"):
        list(triangular_arrays(*args, 5, 10 ** 7))
    monkeypatch.undo()
    rows = bolext.bruteforce._residual_rows

    def moved(*a):
        out = rows(*a)
        out[1::width + 2] = (out[1::width + 2] + 1) % 5
        return out
    monkeypatch.setattr(bolext.bruteforce, "_residual_rows", moved)
    with pytest.raises(InternalConsistencyError, match="not affine in C"):
        list(triangular_arrays(*args, 5, 10 ** 7))


@pytest.mark.parametrize("p, rows, width", [(2, 3, 3), (3, 4, 3), (5, 2, 4), (5, 5, 2)])
def test_solution_cosets_are_every_solution_in_order(p, rows, width):
    # systems of every rank, consistent or not: the members of each coset
    # are exactly the digit strings solving the system, in lexicographic
    # order, pair by pair
    from bolext.bruteforce import _coset_members, _solve_stack

    rng = np.random.default_rng(p * 100 + rows * 10 + width)
    rank = rng.integers(0, min(rows, width) + 1, size=60)
    a = np.stack([rng.integers(0, p, size=(rows, r)) @ rng.integers(0, p, size=(r, width))
                  for r in rank]) % p
    b = np.where(rng.random((60, 1)) < 0.5,
                 np.einsum("kij,kj->ki", a, rng.integers(0, p, size=(60, width))),
                 rng.integers(0, p, size=(60, rows))) % p
    consistent, x0, free = _solve_stack(a, b, p)
    got = [(int(k), x.tolist()) for pair, c in _coset_members(
        np.flatnonzero(consistent), x0[consistent], free[consistent], p)
        for k, x in zip(pair, c)]
    every = digit_block(0, p ** width, p, width, np.int64)
    solves = ~np.any((np.einsum("kij,xj->kxi", a, every) - b[:, None]) % p, axis=2)
    assert got == [(k, every[x].tolist()) for k, x in zip(*np.nonzero(solves))]
    assert consistent.tolist() == solves.any(axis=1).tolist()
    assert 0 < consistent.sum() < 60


def test_solution_cosets_wider_than_the_chunk(monkeypatch):
    # 5^8 = 390,625 digit strings of width 8 exceed the chunk of 65,536: the
    # zero system (every string solves it) and two rank-2 systems still
    # give every solution in order, and every array the stream builds
    # (the digit table, each contraction's operands, each slice) has at most
    # `_CHUNK` rows
    import bolext.bruteforce as bf

    p, width = 5, 8
    rng = np.random.default_rng(8)
    a = np.stack([np.zeros((2, width), dtype=np.int64), rng.integers(0, p, (2, width)),
                  np.eye(7, width, dtype=np.int64)[:2]])
    b = np.array([[0, 0], [1, 2], [3, 4]])
    consistent, x0, free = bf._solve_stack(a, b, p)
    assert consistent.all() and (free.any(axis=2).sum(axis=1) == [8, 6, 6]).all()
    rows = []
    contract, table = bf.contract_mod, bf.digit_block

    def spy(f):
        def wrapped(*args):
            out = f(*args)
            rows.extend(len(x) for x in (*args, out) if isinstance(x, np.ndarray))
            return out
        return wrapped
    monkeypatch.setattr(bf, "contract_mod", spy(contract))
    monkeypatch.setattr(bf, "digit_block", spy(table))
    slices = list(bf._coset_members(np.arange(3), x0, free, p))
    assert max(rows) <= bf._CHUNK and max(len(k) for k, _ in slices) <= bf._CHUNK
    owner = np.concatenate([k for k, _ in slices])
    got = np.concatenate([c for _, c in slices])
    every = digit_block(0, p ** width, p, width, np.int64)
    for k in range(3):
        solves = ~np.any((every @ a[k].T - b[k]) % p, axis=1)
        assert np.array_equal(got[owner == k], every[solves])
    assert owner.tolist() == sorted(owner.tolist())


def _int_rows(m):
    return [[int(x.value) for x in row] for row in m.entries]


@pytest.mark.parametrize("p", [5, 7, 1_000_003])
@pytest.mark.parametrize("k, rows, cols", [(0, 3, 4), (16, 1, 1), (16, 2, 5),
                                           (16, 5, 2), (16, 4, 4)])
def test_eliminate_matches_matrix_rref(p, k, rows, cols):
    # each member reduced as Matrix.rref reduces it alone: the reduced rows,
    # the rank and the pivot columns; members of every rank, every fourth
    # all zero, and a zero first column in others
    rng = np.random.default_rng(p + 100 * rows + 10 * cols)
    ranks = rng.integers(0, min(rows, cols) + 1, size=k)
    aug = np.array([rng.integers(0, p, size=(rows, r)) @ rng.integers(0, p, size=(r, cols))
                    for r in ranks], dtype=np.int64).reshape(k, rows, cols) % p
    aug[::4] = 0
    aug[1::3, :, 0] = 0
    red, rank, pivot_row = eliminate(aug, cols, p)
    assert (red.shape, rank.shape, pivot_row.shape) == (aug.shape, (k,), (k, cols))
    # beside extra columns, the pivots stay those of the first cols columns,
    # and the extra columns come out as T times their input
    eye = np.broadcast_to(np.eye(rows, dtype=np.int64), (k, rows, rows))
    wide, wide_rank, wide_pivots = eliminate(np.concatenate([aug, eye], axis=2), cols, p)
    assert (wide[:, :, :cols] == red).all()
    assert (wide_rank == rank).all() and (wide_pivots == pivot_row).all()
    t = wide[:, :, cols:]
    assert (np.einsum("kij,kjl->kil", t, aug) % p == red).all()
    field = PrimeField(p)
    for g, h, r, where in zip(aug, red, rank, pivot_row):
        want, want_rank, pivots = Matrix.from_int_rows(field, g.tolist()).rref()
        assert h.tolist() == _int_rows(want)
        assert r == want_rank
        assert tuple(np.flatnonzero(where >= 0)) == pivots
        assert where[list(pivots)].tolist() == list(range(want_rank))
    if k:
        assert (rank[::4] == 0).all() and 0 < rank.max()


def test_inverse_mod_matches_matrix_inverse(F5):
    # every 2 x 2 matrix over GF(5), the singular ones included; sampled
    # 3 x 3 matrices over GF(7): singular ones with a zero first column,
    # where the pivot search finds nothing in the first column, singular
    # ones with dependent rows, and invertible ones
    rng = np.random.default_rng(7)
    sampled = rng.integers(0, 7, size=(300, 3, 3))
    sampled[:60, :, 0] = 0
    sampled[60:120, 2] = (sampled[60:120, 0] + 2 * sampled[60:120, 1]) % 7
    cases = [(F5, digit_block(0, 625, 5, 4, np.int64).reshape(-1, 2, 2)),
             (PrimeField(7), sampled)]
    for field, mats in cases:
        ok, inv = inverse_mod(mats, field.p)
        for g, invertible, h in zip(mats, ok, inv):
            want = Matrix.from_int_rows(field, g.tolist()).inverse()
            assert invertible == (want is not None)
            assert h.tolist() == (np.zeros_like(g).tolist() if want is None else _int_rows(want))
        assert inverse_mod(mats[:0], field.p)[1].shape == (0,) + mats.shape[1:]
    assert ok[:120].sum() == 0 and ok[120:].any()
    assert inverse_mod(cases[0][1], 5)[0].sum() == 480


def test_corrupted_elimination_fails_inverse_verification(monkeypatch):
    # every inverse is checked against its matrix, whatever the elimination
    # returned
    import bolext.bruteforce

    def corrupted(aug, cols, p):
        out, rank, pivot_row = eliminate(aug, cols, p)
        out[:, 0, cols:] = (out[:, 0, cols:] + 1) % p
        return out, rank, pivot_row

    mats = digit_block(0, 625, 5, 4, np.int64).reshape(-1, 2, 2)
    monkeypatch.setattr(bolext.bruteforce, "eliminate", corrupted)
    with pytest.raises(InternalConsistencyError, match="^batched inverse failed verification$"):
        inverse_mod(mats, 5)


@pytest.mark.parametrize("name", ["s2", "z2", "bracket_base"])
def test_mor_mask_matches_is_morphism_on_every_2x2_matrix(F5, name):
    from test_wells import _bracket_base

    a = {"z2": z2, "s2": s2, "bracket_base": _bracket_base}[name](F5)
    mats = digit_block(0, 625, 5, 4, np.int64).reshape(-1, 2, 2)
    got = identity_mask(identities.MOR, 5, {"f": mats},
                        {"bil": identities.residues(a.bil), "tri": identities.residues(a.tri)})
    want = [is_morphism(Matrix.from_int_rows(F5, g.tolist()), a, a) for g in mats]
    assert got.tolist() == want
    assert all(want) if name == "z2" else 0 < sum(want) < 625


def test_mor_mask_matches_is_morphism_on_the_h3_total(F5, ext_h3_f5):
    # h3: e1*e2 = e3.  Half the matrices are uniform; the other half are
    # [[A, 0], [c, z]] with z = det A half the time, the morphisms among them
    a = ext_h3_f5.total
    rng = np.random.default_rng(12)
    mats = rng.integers(0, 5, (2000, 3, 3))
    shaped = mats[1000:]
    shaped[:, :2, 2] = 0
    det = shaped[:, 0, 0] * shaped[:, 1, 1] - shaped[:, 0, 1] * shaped[:, 1, 0]
    shaped[::2, 2, 2] = det[::2] % 5
    got = identity_mask(identities.MOR, 5, {"f": mats},
                        {"bil": identities.residues(a.bil), "tri": identities.residues(a.tri)})
    want = [is_morphism(Matrix.from_int_rows(F5, g.tolist()), a, a) for g in mats]
    assert got.tolist() == want
    assert 500 < sum(want) < 1000


class _NoPeak(np.ndarray):
    def max(self, *args, **kwargs):
        raise AssertionError("took the largest entry of a tensor no identity reads")


def test_identity_mask_bounds_only_the_tensors_its_suite_reads():
    # the tail of the Bol axioms reads tri alone: bil is handed in, not read
    from bolext.bruteforce import reading

    tail, rest = reading(identities.BOL, ("tri",))
    assert {g.identities[0].tag for g in tail} == {
        "bracket-skew", "bracket-cyclic", "bracket-derivation"}
    assert {g.identities[0].tag for g in rest} == {"star-skew", "mixed-product"}
    tri = np.zeros((3, 2, 2, 2, 2), dtype=np.int64)
    tri[1, 0, 1, 0, 0], tri[1, 1, 0, 0, 0] = 1, 4
    # not skew
    tri[2, 0, 1, 0, 0] = 1
    bil = np.ones((3, 2, 2, 2), dtype=np.int64).view(_NoPeak)
    got = identity_mask(tail, 5, {"bil": bil, "tri": tri})
    assert got.tolist() == identity_mask(tail, 5, {"tri": tri}).tolist()
    assert got[0] and not got[2]


@pytest.mark.parametrize("top, dtype", [(120, np.int16), (130, np.int16)])
def test_zero_rows_reduce_exactly_at_the_int16_edge(monkeypatch, top, dtype):
    # the residual c - a b mod p = 16,411, with a and b up to `top` and c
    # up to 1,000: the terms' bounds sum to 15,400 or 17,900, below 2^15
    # either way, so the sum type, which holds the bounds' sum and p, is
    # int16.  A sum of -130^2 = -16,900 < -p floors to -2p, below int16's
    # range: the product wraps, and so does the difference, back to the
    # residue.  The mask is the einsum's mod p
    import bolext.bruteforce as bf

    p = 16411
    edge = identities.Identity("edge", "i", "r", (
        identities.Term(1, (("c", "ir"),)), identities.Term(-1, (("a", "ir"), ("b", "ir")))))
    rng = np.random.default_rng(top)
    a, b = rng.integers(0, top + 1, size=(2, 64, 2, 2))
    a[:4], b[:4] = top, top
    c = rng.integers(0, 1001, size=(64, 2, 2))
    c[::2] = np.minimum(a[::2] * b[::2] % p, 1000)
    c[1], c[3] = 1000, 0  # c reaches its bound; c - a b reaches -top^2
    real, types = bf._zero_rows, []

    def spy(key, *args):
        types.append(args[5])
        return real(key, *args)
    monkeypatch.setattr(bf, "_zero_rows", spy)
    got = identity_mask((identities.Group(1, (edge,)),), p, {"a": a, "b": b, "c": c})
    want = ~((c - np.einsum("kir,kir->kir", a, b)) % p).any(axis=(1, 2))
    assert types == [dtype]
    assert got.tolist() == want.tolist() and 0 < want.sum() < len(want)


# the batched tensors of each table as `identity_mask` would be handed them
_BATCHED = [(identities.BOL, {"bil", "tri"}),
            (identities.REP, {"mu", "theta", "dd"}),
            (identities.NAB, {"nu", "om", "mu", "theta", "dd"}),
            (identities.EQV, {"phi"}), (identities.IND, {"phi"}),
            (identities.Z1, {"phi"}), (identities.MOR, {"f"})]


def _tensor_shapes(n, m):
    cocycle = dict(nu=(n, n, m), om=(n, n, n, m), mu=(n, m, m), theta=(n, n, m, m),
                   dd=(n, n, m, m))
    return dict(cocycle, **{name + "1": shape for name, shape in cocycle.items()},
                bil=(n,) * 3, tri=(n,) * 4, vbil=(m,) * 3, vtri=(m,) * 4,
                phi=(m, n), alpha=(n, n), beta=(m, m), f=(n, n))


def _join_values(term, axes, sizes, arrays, batched, worst):
    """One term evaluated alone by the support join (`_plan`, `_term`) on
    tensors `arrays`, those named in `batched` with a batch axis: its
    unreduced values over (batch, axes), and their type."""
    import bolext.bruteforce as bf

    layout = {name: bf._layout(name, a, name in batched) for name, a in arrays.items()}
    one = identities.Identity("one", axes, "", (term,))
    hit, _, terms = bf._plan(one, tuple(sizes.items()),
                             tuple(layout[name][1] for name in sorted(arrays)), "", 0)
    rows = max(rows.shape[1] for rows, _ in layout.values())
    dense, types = np.zeros((prod(sizes[ch] for ch in axes), rows), dtype=np.int64), set()
    cols = {name: rows for name, (rows, _) in layout.items()}
    for _, _, joins, places in terms:
        value = bf._term(joins, {None: np.ones((1, 1), np.int8), **cols}, _narrowest(worst, "one"))
        types.add(value.dtype)
        dense[hit[places]] = value
    return np.moveaxis(dense.reshape(tuple(sizes[ch] for ch in axes) + (rows,)), -1, 0), types


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_contract_is_exact_for_every_batched_term(data):
    # every term of every table `identity_mask` reads, evaluated alone by
    # the support join in the narrow type its bound picks, against an
    # unoptimised int64 einsum; "edge" takes the largest p whose all-(p-1)
    # operands still fit int16 (or the next p, the first to need int32),
    # and "zero" makes the first factor's tensor all zero with every entry
    # kept in its support (`_support` all true), so its bound is 0 while
    # products of the other factors wrap int16, with the largest p <= 30011
    # whose all-(p-1) operands still fit the int64 reference
    from contextlib import nullcontext
    from unittest import mock

    import bolext.bruteforce as bf

    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    mode = data.draw(st.sampled_from(["random", "top", "edge", "zero"]))
    above = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shapes = _tensor_shapes(n, m)
    rows = 3
    every_entry = mock.patch.object(bf, "_support", lambda flat: np.ones(flat.shape[1], bool))
    for suite, batched in _BATCHED:
        for idt in (i for g in suite for i in g.identities):
            sizes = identities.axis_sizes(idt, shapes)
            for t in idt.terms:
                summed = _term_bound(t, idt.axes, sizes, dict.fromkeys(shapes, 1))
                degree = len(t.factors)
                if mode == "edge":
                    p = 2 + int((32767 / summed) ** (1 / degree))
                    while summed * (p - 1) ** degree > 32767:
                        p -= 1
                    p += above
                elif mode == "zero":
                    top = np.iinfo(np.int64).max
                    p = min(30011, 2 + int((top / summed) ** (1 / degree)))
                    while summed * (p - 1) ** degree > top:
                        p -= 1
                else:
                    p = {"random": 7, "top": 5}[mode]
                arrays = {}
                for k, (name, _) in enumerate(t.factors):
                    shape = ((rows,) if name in batched else ()) + shapes[name]
                    if mode == "random":
                        arrays.setdefault(name, rng.integers(0, p, shape))
                    else:
                        arrays.setdefault(name, np.full(shape, 0 if mode == "zero" and k == 0
                                                        else p - 1))
                peak = {name: int(a.max()) for name, a in arrays.items()}
                worst = _term_bound(t, idt.axes, sizes, peak)
                with every_entry if mode == "zero" else nullcontext():
                    got, types = _join_values(t, idt.axes, sizes, arrays, batched, worst)
                want = identities.contract(t, idt.axes, arrays, sizes, batched & arrays.keys(), "Z")
                assert (got == np.broadcast_to(want, got.shape)).all(), (idt.tag, t)
                assert types <= {np.dtype(_narrowest(worst, idt.tag))}, (idt.tag, t)
                if mode == "zero" or (mode == "edge" and worst):
                    assert types == {np.dtype(np.int32 if above and mode == "edge"
                                              else np.int16)}, (idt.tag, t)


def test_plan_is_built_once_per_key(monkeypatch):
    # a plan is built once per (identity, axis sizes, supports, screen
    # letter and value): a second run on the same batch, or on one with the
    # same supports and other values, builds none and gives the same mask;
    # a batch with another support builds its own; screened, an identity
    # builds one plan per value of its first where letter that it decides
    # (its unscreened plan, which sizes the slices, is built already)
    import bolext.bruteforce as bf
    from oracles import identity_mask_by_einsum

    real, built = bf._plan.__wrapped__, []

    def build(*key):
        built.append(key)
        return real(*key)
    monkeypatch.setattr(bf, "_plan", lru_cache(maxsize=None)(build))
    rng = np.random.default_rng(19)

    def batch(support):
        # alternating tensors, tri zero on half the rows and bil on a
        # quarter: every identity of BOL is reached
        out = {}
        for name, keep in support.items():
            t = rng.integers(1, 5, (40,) + keep.shape) * keep
            t[:10 if name == "bil" else 20] = 0
            out[name] = (t - t.swapaxes(1, 2)) % 5
        return out
    support = {"bil": rng.random((3,) * 3) < 0.4, "tri": rng.random((3,) * 4) < 0.2}
    first = batch(support)
    masks = [identity_mask(identities.BOL, 5, first)]
    cold = len(built)
    assert {key[0].tag for key in built} == _tags(identities.BOL)
    assert cold == len(set(built)) and {key[3:] for key in built} == {("", 0)}
    masks.append(identity_mask(identities.BOL, 5, first))
    second = batch(support)
    masks.append(identity_mask(identities.BOL, 5, second))
    assert len(built) == cold
    assert masks[0].tolist() == masks[1].tolist() == identity_mask_by_einsum(
        identities.BOL, 5, first).tolist()
    assert masks[2].tolist() == identity_mask_by_einsum(identities.BOL, 5, second).tolist()
    third = batch({"bil": support["bil"], "tri": ~support["tri"]})
    assert identity_mask(identities.BOL, 5, third).tolist() == identity_mask_by_einsum(
        identities.BOL, 5, third).tolist()
    assert len(built) > cold and not set(built[:cold]) & set(built[cold:])
    built.clear()
    monkeypatch.setattr(bf, "_ENTRIES", 1)
    runs = _spy_runs(monkeypatch)
    assert identity_mask(identities.BOL, 5, first).tolist() == masks[0].tolist()
    assert all(run.letter == run.idt.where[0] for run in runs)
    assert len(built) == len(set(built)) == len({(run.idt, run.letter, run.v) for run in runs})
    assert all(key[3] == key[0].where[0] for key in built)


# two identities no table has: a term that does not carry the first where
# letter (its value is broadcast over it), and a factor that repeats it
_SYNTHETIC = (identities.Group(2, (identities.Identity("broadcast", "ij", "r", (
    identities.Term(1, (("bil", "jjr"),)), identities.Term(-1, (("tri", "jijr"),)))),)),
              identities.Group(2, (identities.Identity("diagonal", "ik", "r", (
                  identities.Term(1, (("tri", "iikr"),)),
                  identities.Term(1, (("bil", "ikr"),)))),)))


def _screen_batch(rng, p, n, m, suite, batched, rows):
    """Random residue tensors for `suite`: each batch row at a density of
    0, 5%, 20% or 100% nonzero entries, or (density 2) nonzero only off
    index 0 of every axis longer than 1, so that some residuals vanish on
    some values of their first where axis and not on others."""
    shapes = _tensor_shapes(n, m)
    names = {name for g in suite for i in g.identities for t in i.terms
             for name, _ in t.factors}
    density = rng.choice([0, 0.05, 0.2, 1, 2], size=rows)
    batch, fixed = {}, {}
    for name in sorted(names):
        if name in batched:
            shape = (rows,) + shapes[name]
            keep = rng.random(shape) < density.reshape((rows,) + (1,) * len(shapes[name]))
            for axis in range(1, len(shape)):
                if shape[axis] > 1:
                    np.moveaxis(keep, axis, 1)[density == 2, 0] = False
            batch[name] = rng.integers(0, p, shape) * keep
        else:
            fixed[name] = rng.integers(0, p, shapes[name]) * (rng.random(shapes[name]) < 0.3)
    return batch, fixed


@pytest.mark.parametrize("p, n, m", [(5, 2, 2), (7, 3, 1)])
def test_screen_changes_no_mask(monkeypatch, p, n, m):
    # every identity of every batched table, alone and in its table, with
    # _ENTRIES shrunk so that each is screened (one row per slice) against
    # _ENTRIES so large that none is, from random starting masks
    import bolext.bruteforce as bf

    real, calls = bf._zero_rows, []

    def spy(key, p, layout, index, idx, bounds, dtype, letter="", v=0):
        passed = real(key, p, layout, index, idx, bounds, dtype, letter, v)
        calls.append((key[0], letter, v, idx.size, int(passed.sum())))
        return passed
    monkeypatch.setattr(bf, "_zero_rows", spy)
    rng = np.random.default_rng(p * 100 + n)
    pruned, passes = [], 0
    for suite, batched in _BATCHED + [(_SYNTHETIC, {"bil", "tri"})]:
        pruned.append(set())
        batch, fixed = _screen_batch(rng, p, n, m, suite, batched, 16)
        for part in [(g,) for g in suite] + [suite]:
            ok = rng.random(16) < 0.8
            masks = {}
            for entries in (1, 1 << 40):
                monkeypatch.setattr(bf, "_ENTRIES", entries)
                calls.clear()
                masks[entries] = identity_mask(part, p, batch, fixed, ok)
                if entries == 1:
                    assert all(letter == idt.where[0] for idt, letter, *_ in calls)
                    pruned[-1] |= {idt.tag for idt, _, v, rows, kept in calls
                                   if v and kept < rows}
                else:
                    assert all(letter == "" for _, letter, *_ in calls)
            assert masks[1].tolist() == masks[1 << 40].tolist(), [i.tag for g in part
                                                                  for i in g.identities]
            assert not (masks[1] & ~ok).any()
            passes += int(masks[1].sum())
    assert passes
    # some rows pass the first value of an identity's first where axis and
    # fail a later one, in every table but IND and Z1, which these batches
    # do not always reach that way
    assert all(pruned[:4]) and pruned[6], pruned
    assert {"mixed-product", "broadcast", "diagonal"} <= set().union(*pruned), pruned


def _tags(suite) -> set:
    return {i.tag for g in suite for i in g.identities}


# identities whose residual is not alternating in (i, j), or is but not in
# the form the pair rule reads: a factor with the pair letters reversed, two
# factors that carry them, and a pair letter repeated later in its factor
_NO_PAIR_FORM = (identities.Group(3, (identities.Identity("reversed", "ijk", "r", (
    identities.Term(1, (("tri", "jikr"),)), identities.Term(1, (("bil", "ijq"), ("bil", "qkr"))))),)),
                 identities.Group(3, (identities.Identity("two-factors", "ijk", "r", (
                     identities.Term(1, (("bil", "ijq"), ("tri", "qjkr"))),)),)),
                 identities.Group(2, (identities.Identity("repeated", "ij", "r", (
                     identities.Term(1, (("tri", "ijir"),)),
                     identities.Term(1, (("bil", "ijr"),)))),)))


def test_pair_form_is_read_off_the_tables():
    from bolext.bruteforce import _pair_form, _paired

    forms = {i.tag: _pair_form(i) for suite, _ in _BATCHED + [(identities.HOM, None)]
             for g in suite for i in g.identities}
    assert forms["mixed-product"] is not None and forms["bracket-derivation"] is not None
    for tag in ("star-skew", "bracket-skew", "bracket-cyclic", "mor-star", "mor-bracket",
                "hom-star", "hom-bracket"):
        assert forms[tag] is None, tag
    assert {tag for tag in _tags(identities.BOL) if forms[tag]} == {
        "mixed-product", "bracket-derivation"}
    assert {tag for tag in _tags(identities.REP) if forms[tag]} == {
        "rep-d-mu", "rep-d-d", "rep-d-theta-comm"}
    assert not any(forms[tag] for suite in (identities.MOR, identities.HOM, identities.EQV,
                                            identities.IND, identities.Z1)
                   for tag in _tags(suite))
    assert not any(_pair_form(i) for g in _NO_PAIR_FORM for i in g.identities)
    # the strict nu-omega-star term bil(ijq) mu(qst) nu(ijt) has two factors
    # that carry i and j
    from bolext.core import Variant

    def nab(variant):
        return {i.tag: _pair_form(i) for g in identities.select(identities.NAB, variant)
                for i in g.identities}
    assert nab(Variant.CORRECTED)["nu-omega-star"] and not nab(Variant.STRICT)["nu-omega-star"]
    # i j become the pair axis P: tri carries it in the first three terms,
    # bil in the last two
    mixed = forms["mixed-product"]
    assert mixed.where == "Pkl" and mixed.tag == "mixed-product"
    assert [t.factors for t in mixed.terms] == [
        (("bil", "klq"), ("tri", "Pqr")), (("tri", "Pkq"), ("bil", "qlr")),
        (("tri", "Plq"), ("bil", "kqr")), (("bil", "Pq"), ("tri", "klqr")),
        (("bil", "klq"), ("bil", "Ps"), ("bil", "qsr"))]
    assert _paired(mixed) == {"bil", "tri"}


def _alternate(p, t, batched):
    """t minus its transpose in the first two axes (after the batch axis),
    mod p, where those axes have one length: alternating."""
    lead = int(batched)
    if t.ndim < lead + 2 or t.shape[lead] != t.shape[lead + 1]:
        return t
    return (t - t.swapaxes(lead, lead + 1)) % p


@pytest.mark.parametrize("p, n, m, kind", [(5, 2, 2, "alternating"), (7, 3, 1, "alternating"),
                                           (2, 3, 2, "alternating"), (5, 3, 2, "one non-skew row"),
                                           (2, 3, 1, "nonzero diagonal")])
def test_pair_form_changes_no_mask(monkeypatch, p, n, m, kind):
    # every identity of every batched table and the synthetic ones, alone
    # and in its table, decided with the pair form (screened, one row per
    # slice, and not) and with _pair_form patched to None, from random
    # starting masks: on alternating data (every square tensor t - t^T,
    # half the rows with at most two nonzero entries per tensor), with one
    # row of one batched tensor made non-skew, and at p = 2 with one row's
    # diagonal made nonzero (skew mod 2, not alternating), where the
    # fallback runs
    import bolext.bruteforce as bf

    real, calls, pair_form = bf._zero_rows, [], bf._pair_form

    def spy(key, *args):
        calls.append(key[0])
        return real(key, *args)
    monkeypatch.setattr(bf, "_zero_rows", spy)
    rng = np.random.default_rng(p * 1000 + n * 10 + m)
    paired, passes, fails = set(), 0, 0
    for suite, batched in _BATCHED + [(_SYNTHETIC + _NO_PAIR_FORM, {"bil", "tri"})]:
        batch, fixed = _screen_batch(rng, p, n, m, suite, batched, 16)
        # the first 8 rows: one nonzero entry per tensor
        for t in batch.values():
            t[:8] = 0
            for row in range(8):
                t[(row,) + tuple(rng.integers(0, t.shape[1:]))] = rng.integers(1, p)
        batch = {name: _alternate(p, t, True) for name, t in batch.items()}
        fixed = {name: _alternate(p, t, False) for name, t in fixed.items()}
        square = sorted(name for name, t in batch.items() if t.shape[1] == t.shape[2] > 1)
        broken = None
        if kind != "alternating" and square:
            broken = square[rng.integers(len(square))]
            t, row = batch[broken], rng.integers(16)
            if kind == "one non-skew row":
                t[(row, 0, 1) + (0,) * (t.ndim - 3)] += 1
            else:
                t[(row, 0, 0) + (0,) * (t.ndim - 3)] = 1
            t %= p
        for part in [(g,) for g in suite] + [suite]:
            ok = rng.random(16) < 0.8
            masks = []
            for form, entries in ((pair_form, 1), (pair_form, 1 << 40),
                                  (lambda idt: None, 1 << 40)):
                monkeypatch.setattr(bf, "_pair_form", form)
                monkeypatch.setattr(bf, "_ENTRIES", entries)
                calls.clear()
                masks.append(identity_mask(part, p, batch, fixed, ok).tolist())
                paired |= {idt.tag for idt in calls if idt.where[0] == "P"}
                # a tensor that is not alternating is never read on pairs
                assert not any(broken in bf._paired(idt) for idt in calls
                               if idt.where[0] == "P")
            assert masks[0] == masks[1] == masks[2], _tags(part)
            passes += sum(masks[0])
            fails += int(ok.sum()) - sum(masks[0])
    assert passes and fails
    if kind == "alternating":
        assert {"mixed-product", "bracket-derivation", "rep-d-d", "mu-d-star"} <= paired
    else:
        assert broken is not None


class _Run(NamedTuple):
    idt: object
    sizes: dict
    letter: str
    v: int
    rows: int
    passed: np.ndarray
    plan: tuple


def _spy_runs(monkeypatch) -> list:
    """Record a `_Run` of every `_zero_rows` call: the identity, its axis
    sizes, the screen letter and value, the rows it decides, which pass,
    and the `_plan` it reads."""
    import bolext.bruteforce as bf

    real, runs = bf._zero_rows, []

    def spy(key, p, layout, index, idx, bounds, dtype, letter="", v=0):
        passed = real(key, p, layout, index, idx, bounds, dtype, letter, v)
        runs.append(_Run(key[0], dict(key[1]), letter, v, idx.size, passed,
                         bf._plan(*key, letter, v)))
        return passed
    monkeypatch.setattr(bf, "_zero_rows", spy)
    return runs


def test_screen_prunes_the_census_glue(F5, monkeypatch):
    # census-21's route 2 decides mixed-product of the glue (d = 3) on its
    # star-skew survivors in its pair form (the glue is alternating), one
    # row slice of _ENTRIES // 3^5 glued pairs at a time, as without it;
    # within a slice, pair (0, 1) sees every row and pairs (0, 2) and (1, 2)
    # see only the rows that passed the pairs before them, each from its
    # own plan
    from bolext.bruteforce import _ENTRIES
    from bolext.representation import semidirect_iff_census

    runs = _spy_runs(monkeypatch)
    census = semidirect_iff_census(F5, 2, 1)
    assert (census.algebras, census.candidates_per_algebra, census.valid_pairs,
            census.discrepancies) == (25, 78125, 1225, [])
    # the glue has 3 basis vectors, the 25 enumerated algebras 2
    skew, = [r for r in runs if r.idt.tag == "star-skew" and r.sizes["r"] == 3]
    assert (skew.rows, skew.letter) == (5 ** 6, "")
    glue = [r for r in runs if r.idt.tag == "mixed-product" and r.sizes["r"] == 3]
    step = _ENTRIES // 3 ** 5
    starts, left = [], 0
    seen, kept = [0, 0, 0], [0, 0, 0]
    for r in glue:
        assert (r.idt.where, r.letter) == ("Pkl", "P")
        if r.v:
            assert r.rows == left
        else:
            starts.append(r.rows)
        left = int(r.passed.sum())
        seen[r.v] += r.rows
        kept[r.v] += left
    assert glue[0].v == 0 and all(b.v == ((a.v + 1) % 3 if a.passed.any() else 0)
                                  for a, b in zip(glue, glue[1:]))
    assert len({id(r.plan) for r in glue}) == 3
    rows = int(skew.passed.sum())
    assert starts == [step] * (rows // step) + [rows % step] * bool(rows % step)
    # 15,625 glued pairs reach pair (0, 1), 1,705 pass it, 1,305 pass (0, 2)
    # and 1,225 pass (1, 2): every valid pair of the census
    assert rows == 15_625
    assert seen == [15_625, 1_705, 1_305] and kept == [1_705, 1_305, 1_225]


def test_small_batches_make_one_contraction_per_term(F5, monkeypatch, ext_h3_f5):
    # a classify-z2 chunk (125 rows) and the MOR re-checks of the exactness
    # verifier (480 rows and fewer) stay at or below _ENTRIES: every
    # identity they reach is decided in one run on all its survivors, with
    # one planned term per live term at most.  The classification's
    # actions, fiber and base bracket are zero, so only the nu and omega
    # terms of three NAB identities are live; e_h3's total has a zero
    # bracket, so mor-bracket is decided with no run
    from bolext.extensions import classify_corpus
    from bolext.wells import verify_wells_exactness

    runs = _spy_runs(monkeypatch)
    assert classify_corpus(z2(F5), z1(F5))[0] == 125
    assert [(r.idt.tag, len(r.idt.terms), r.rows) for r in runs] == \
        [("nu-skew", 2, 125), ("omega-skew", 2, 125), ("omega-cyclic", 3, 125)]
    assert verify_wells_exactness(ext_h3_f5).kernel_wells_equals_kappa_image
    assert all(r.letter == "" for r in runs)
    assert "mor-star" in {r.idt.tag for r in runs}
    assert "mor-bracket" not in {r.idt.tag for r in runs}
    for r in runs:
        numbers = [k for k, *_ in r.plan[2]]
        assert numbers == sorted(set(numbers)) and set(numbers) <= set(range(len(r.idt.terms)))


def test_support_join_matches_the_einsum_oracle_on_real_batches(F5, monkeypatch, ext_h3_f5):
    # every identity_mask call of census-21 (the enumeration, both tails,
    # route 1's rest and the 15,625-row glue of route 2), of one chunk of a
    # tri_zero=False class (with the tri_zero=False enumeration), of the
    # z2 x z2 classification (its NAB block) and of e_h3's exactness (its
    # MOR passes), decided again with every term contracted densely
    import bolext.bruteforce as bf
    from bolext.extensions import classify_corpus
    from bolext.representation import _census_routes, semidirect_iff_census
    from bolext.wells import verify_wells_exactness
    from oracles import identity_mask_by_einsum

    real, calls = bf.identity_mask, []

    def spy(suite, p, batch, fixed=None, ok=None, index=None):
        mask = real(suite, p, batch, fixed, ok, index)
        # a batch read through an index, gathered: one array row per entry
        rows = {name: a[index[name]] if name in (index or {}) else a
                for name, a in batch.items()}
        calls.append(((suite, p, rows, fixed, ok), mask))
        return mask
    monkeypatch.setattr(bf, "identity_mask", spy)
    assert semidirect_iff_census(F5, 2, 1).valid_pairs == 1225
    bil, tri = next((b, t) for b, t in bf.enumerate_valid_tensors(2, 5, False, 10 ** 6)
                    if t.any())
    tails = bf.digit_block(0, 5 ** 5, 5, 5, np.int16)
    assert sum(int(r1.sum()) for *_, r1, _ in _census_routes(bil[None], tri, 1, 5, tails))
    assert classify_corpus(z2(F5), z2(F5))[0] == 15_625
    assert verify_wells_exactness(ext_h3_f5).kernel_wells_equals_kappa_image
    monkeypatch.setattr(bf, "identity_mask", real)
    tags = [{i.tag for g in args[0] for i in g.identities} for args, _ in calls]
    assert any("mixed-product" in t and len(args[2]["bil"]) == 5 ** 6
               for t, (args, _) in zip(tags, calls))
    assert any("nu-omega-star" in t for t in tags) and any("mor-star" in t for t in tags)
    for args, mask in calls:
        assert mask.tolist() == identity_mask_by_einsum(*args).tolist()


_ROUTES = _BATCHED + [(_SYNTHETIC + _NO_PAIR_FORM, {"bil", "tri"})]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_support_join_matches_the_einsum_oracle_on_sparse_supports(data):
    # random sparse supports, the same for every row of a batch of 0, 1 or
    # 7 rows: each entry of each tensor in it with probability 0.1, 0.5 or
    # 1 (or none), its values random residues; alternating or not, screened
    # (_ENTRIES = 1) or not, from a random starting mask
    from unittest import mock

    import bolext.bruteforce as bf
    from oracles import identity_mask_by_einsum

    suite, batched = data.draw(st.sampled_from(_ROUTES))
    p = data.draw(st.sampled_from([2, 5, 7]))
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    rows = data.draw(st.sampled_from([0, 1, 7]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shapes = _tensor_shapes(n, m)
    batch, fixed = {}, {}
    for name in sorted({name for g in suite for i in g.identities for t in i.terms
                        for name, _ in t.factors}):
        keep = rng.random(shapes[name]) < data.draw(st.sampled_from([0, 0.1, 0.5, 1]))
        if name in batched:
            batch[name] = rng.integers(0, p, (rows,) + shapes[name]) * keep
        else:
            fixed[name] = rng.integers(0, p, shapes[name]) * keep
    if data.draw(st.booleans()):
        batch = {name: _alternate(p, t, True) for name, t in batch.items()}
        fixed = {name: _alternate(p, t, False) for name, t in fixed.items()}
    ok = rng.random(rows) < 0.8
    with mock.patch.object(bf, "_ENTRIES", data.draw(st.sampled_from([1, 1 << 19]))):
        got = identity_mask(suite, p, batch, fixed, ok)
        assert got.tolist() == identity_mask_by_einsum(suite, p, batch, fixed, ok).tolist()
    assert got.shape == (rows,)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_an_indexed_batch_gives_the_mask_of_the_gathered_batch(data):
    # each batched tensor of 0, 1, 7 or 12 entries is read through an index
    # into 1 to 4 values (repeated, some unreached, each with its own
    # random support) or not at all; the mask is the one of the batch
    # gathered row by row, and the einsum oracle's on the same index:
    # alternating or not, screened (_ENTRIES = 1) or not, with pair forms
    # or none, from a random starting mask
    from unittest import mock

    import bolext.bruteforce as bf
    from oracles import identity_mask_by_einsum

    suite, batched = data.draw(st.sampled_from(_ROUTES))
    p = data.draw(st.sampled_from([2, 5, 7]))
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    rows = data.draw(st.sampled_from([0, 1, 7, 12]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    alternating = data.draw(st.booleans())
    shapes = _tensor_shapes(n, m)
    batch, fixed, index = {}, {}, {}
    for name in sorted({name for g in suite for i in g.identities for t in i.terms
                        for name, _ in t.factors}):
        density = data.draw(st.sampled_from([0, 0.1, 0.5, 1]))
        indexed = name in batched and data.draw(st.booleans())
        values = data.draw(st.integers(1, 4)) if indexed else rows
        shape = ((values,) if name in batched else ()) + shapes[name]
        t = rng.integers(0, p, shape) * (rng.random(shape) < density)
        t = _alternate(p, t, name in batched) if alternating else t
        if name not in batched:
            fixed[name] = t
            continue
        batch[name] = t
        if indexed:
            index[name] = rng.integers(0, values, rows)
    if not batch:
        return
    ok = rng.random(rows) < 0.8
    gathered = {name: a[index[name]] if name in index else a for name, a in batch.items()}
    form = data.draw(st.sampled_from([bf._pair_form, lambda idt: None]))
    entries = data.draw(st.sampled_from([1, 1 << 19]))
    with mock.patch.object(bf, "_ENTRIES", entries), mock.patch.object(bf, "_pair_form", form):
        got = identity_mask(suite, p, batch, fixed, ok, index)
        assert got.tolist() == identity_mask(suite, p, gathered, fixed, ok).tolist()
        assert got.tolist() == identity_mask_by_einsum(suite, p, batch, fixed, ok,
                                                       index).tolist()
    assert got.shape == (rows,) and not (got & ~ok).any()


def test_census_lays_out_and_glues_each_factor_once(F5, monkeypatch):
    # census-21: 25 algebras (one tri class), 25 mu strings and 25 (theta,
    # D) tail strings that pass a tail, 15,625 pairs in one slice.  Route 2
    # glues the 3,125 tail strings once, and each (algebra, mu string) once:
    # 625 bil; its rest reads them and the 25 surviving glued tri through an
    # index.  Route 1's rest reads the 25 algebras' bil, the 25 mu tensors and
    # the 25 surviving theta and D the same way
    import bolext.bruteforce as bf
    from bolext import nonabelian, representation

    glued, calls = [], {}
    real_glue, real_mask = nonabelian.glue, bf.identity_mask

    def glue(*args, **kwargs):
        bil_e, tri_e = real_glue(*args, **kwargs)
        glued.append(prod(bil_e.shape[:-3]))
        return bil_e, tri_e

    def spy(suite, p, batch, fixed=None, ok=None, index=None):
        for name in ("_REP_REST", "_BOL_REST"):
            if suite is getattr(representation, name):
                calls[name] = ({k: len(a) for k, a in batch.items()},
                               {k: len(a) for k, a in (index or {}).items()})
        return real_mask(suite, p, batch, fixed, ok, index)
    monkeypatch.setattr(nonabelian, "glue", glue)
    monkeypatch.setattr(bf, "identity_mask", spy)
    census = representation.semidirect_iff_census(F5, 2, 1)
    assert (census.valid_pairs, census.discrepancies) == (1225, [])
    assert glued == [5 ** 5, 25 * 25]
    assert calls["_REP_REST"] == ({"bil": 25, "mu": 25, "theta": 25, "dd": 25},
                                  dict.fromkeys(("bil", "mu", "theta", "dd"), 5 ** 6))
    assert calls["_BOL_REST"] == ({"bil": 625, "tri": 25}, {"bil": 5 ** 6, "tri": 5 ** 6})


class _Counted(np.ndarray):
    """Records the size of every array derived from it."""

    sizes: list = []

    def __array_finalize__(self, obj):
        _Counted.sizes.append(self.size)


def test_slices_bound_every_array_of_a_dense_join(monkeypatch):
    # a dense d = 4 MOR batch: f, bil and tri have every entry in their
    # support, so mor-bracket's pairwise joins gather 1,024 tuples per row
    # against a residual of 4^4 = 256 entries.  Its slices are sized by the
    # join: with _ENTRIES = 2^14, 16 rows, not 64; no array a slice forms
    # from the layout (rows, gathers, products, sums), nor its residual,
    # holds more than _ENTRIES entries
    import bolext.bruteforce as bf
    from oracles import identity_mask_by_einsum

    monkeypatch.setattr(bf, "_ENTRIES", 1 << 14)
    real, residuals = bf._term, []

    def term(joins, cols, dt):
        return real(joins, {name: c.view(_Counted) for name, c in cols.items()}, dt)
    monkeypatch.setattr(bf, "_term", term)
    runs = _spy_runs(monkeypatch)
    rng = np.random.default_rng(4)
    f = rng.integers(1, 5, (200, 4, 4))
    fixed = {"bil": rng.integers(1, 5, (4,) * 3), "tri": rng.integers(1, 5, (4,) * 4)}
    f[::3] = np.eye(4, dtype=int)  # the identity map passes both
    _Counted.sizes.clear()
    mask = identity_mask(identities.MOR, 5, {"f": f}, fixed)
    assert mask.tolist() == identity_mask_by_einsum(identities.MOR, 5, {"f": f}, fixed).tolist()
    assert mask[::3].all() and not mask.all()
    bracket = [r for r in runs if r.idt.tag == "mor-bracket"]
    assert bracket and max(r.rows for r in bracket) == (1 << 14) // 1024
    assert max(_Counted.sizes) <= bf._ENTRIES
    assert max(len(r.plan[0]) * r.rows for r in runs) <= bf._ENTRIES
