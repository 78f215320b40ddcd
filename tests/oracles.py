"""Independent brute-force oracles used by the test suite.

Kept deliberately simple and separate from the package's linear algebra so
that dimension counts and verdicts are confirmed through a second route.
"""
from contextlib import contextmanager
from functools import lru_cache


def elimination_rank(rows):
    """Rank by plain Gaussian elimination over any exact field scalars."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def dense_product(a, b):
    """`Matrix.__mul__` by dense sums: every product, zero factors included."""
    from bolext.errors import UsageError
    from bolext.exactlin import Matrix

    if not isinstance(b, Matrix):
        return a.scale(b)
    if a.field != b.field or a.cols != b.rows:
        raise UsageError("matrix product shape/field mismatch")
    bt = tuple(tuple(row[j] for row in b.entries) for j in range(b.cols))
    return Matrix(a.field, tuple(
        tuple(sum((x * y for x, y in zip(row, col)), a.field.zero) for col in bt)
        for row in a.entries), cols=b.cols)


def dense_apply(m, vec):
    """`Matrix.apply` by dense sums."""
    from bolext.errors import UsageError

    if len(vec) != m.cols:
        raise UsageError("matrix/vector size mismatch")
    return tuple(sum((a * b for a, b in zip(row, vec)), m.field.zero)
                 for row in m.entries)


def dense_rref(m):
    """`Matrix.rref` by Gauss-Jordan on whole rows: (matrix, rank, pivots)."""
    from bolext.exactlin import Matrix

    rows = [list(row) for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [a / inv for a in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(m.field, rows, cols=m.cols), r, tuple(pivots)


@contextmanager
def dense_kernels():
    """`Matrix`'s product, mat-vec and rref replaced by the dense loops
    above, so that rank, kernel, solve, inverse and `Subspace` read them."""
    from unittest import mock

    from bolext.exactlin import Matrix

    with mock.patch.object(Matrix, "__mul__", dense_product), \
            mock.patch.object(Matrix, "apply", dense_apply), \
            mock.patch.object(Matrix, "rref", dense_rref):
        yield


def is_morphism_oracle(f, a1, a2):
    """f(x*y) = f(x)*f(y) and f([x,y,z]) = [f(x),f(y),f(z)] on all basis
    tuples, by dense sums over the full structure tensors."""
    n, d, zero = a1.dim, a2.dim, a2.field.zero
    g = f.entries

    def image(v):
        return tuple(sum((g[r][c] * v[c] for c in range(n)), zero) for r in range(d))

    def star(i, j):
        return tuple(sum((g[k][i] * g[l][j] * a2.bil[k][l][t]
                          for k in range(d) for l in range(d)), zero) for t in range(d))

    def bracket(i, j, k):
        return tuple(sum((g[q][i] * g[r][j] * g[s][k] * a2.tri[q][r][s][t]
                          for q in range(d) for r in range(d) for s in range(d)), zero)
                     for t in range(d))

    idx = range(n)
    return (all(image(a1.bil[i][j]) == star(i, j) for i in idx for j in idx)
            and all(image(a1.tri[i][j][k]) == bracket(i, j, k)
                    for i in idx for j in idx for k in idx))


def cohomology_dims_oracle(a, r, variant):
    """(z, b) by evaluating every unit cochain through the identity checker
    and row-reducing the resulting residual columns."""
    from bolext.cohomology import CochainCoords, coboundary

    coords = CochainCoords(a.dim, r.module_dim, a.field)
    total = coords.total
    if total == 0:
        return 0, 0
    residual_cols = [
        _full_residual(a, r, coords, k, variant) for k in range(total)]
    rank = elimination_rank([list(row) for row in zip(*residual_cols)]) \
        if residual_cols[0] else 0
    z = total - rank
    n, m = a.dim, r.module_dim
    cob_cols = []
    for q in range(n * m + m):
        fvec = [a.field.zero] * (n * m)
        chi = [a.field.zero] * m
        if q < n * m:
            fvec[q] = a.field.one
        else:
            chi[q - n * m] = a.field.one
        from bolext.exactlin import Matrix
        f = Matrix(a.field, [[fvec[qq * m + t] for qq in range(n)]
                             for t in range(m)])
        nu, om = coboundary(f, tuple(chi), a, r)
        cob_cols.append(list(coords.encode(nu, om)))
    b = elimination_rank([list(row) for row in zip(*cob_cols)])
    return z, b


def _full_residual(a, r, coords, k, variant):
    """Residuals of all three coupling identities over the full tuple grid
    for the k-th unit cochain."""
    from bolext.cohomology import is_cocycle23
    vec = [a.field.zero] * coords.total
    vec[k] = a.field.one
    nu, om = coords.decode(tuple(vec))
    n, m = a.dim, r.module_dim
    out = []
    # cyclic identity
    from bolext.exactlin import vec_add
    for i in range(n):
        for j in range(n):
            for kk in range(n):
                out.extend(vec_add(vec_add(om.at(i, j, kk), om.at(j, kk, i)),
                                   om.at(kk, i, j)))
    rep = is_cocycle23(a, r, nu, om, variant)
    tagged = {}
    for v in rep.violations:
        tagged[(v.tag,) + v.where] = v.residual
    from bolext.exactlin import zero_vec
    for i in range(n):
        for j in range(n):
            for kk in range(n):
                for l in range(n):
                    out.extend(tagged.get(("cocycle-star", i, j, kk, l),
                                          zero_vec(a.field, m)))
    for i in range(n):
        for j in range(n):
            for kk in range(n):
                for l in range(n):
                    for w in range(n):
                        out.extend(tagged.get(("cocycle-bracket", i, j, kk, l, w),
                                              zero_vec(a.field, m)))
    return out


def lift_search_image(extension, budget=10_000_000):
    """All restriction pairs realized by fiber-preserving automorphisms of the
    total algebra, found by direct search and plain matrix arithmetic."""
    from bolext.bol import enumerate_automorphisms
    from bolext.exactlin import Matrix
    from bolext.extensions import canonical_section

    e = extension
    s = canonical_section(e)
    linv = e.left_inverse()
    fib = e.fiber_subspace()
    image = set()
    for gamma in enumerate_automorphisms(e.total, budget, max_results=budget):
        if not all(fib.contains(gamma.apply(e.inj.col(a))) for a in range(e.m)):
            continue
        alpha = e.proj * gamma * s.matrix
        beta = linv * gamma * e.inj
        image.add((alpha.entries, beta.entries))
    return image


def phi_search_oracle(field, n, m, bound, accepts):
    """(every map phi: B -> V that `accepts`, in `enumerate_vectors` order,
    "") by one scalar check per map, or (None, the reason no map is
    checked): the search that `nonabelian._phi_solutions` batches."""
    from bolext.cohomology import _phi_from_params
    from bolext.exactlin import enumerate_vectors

    if not field.is_prime_field:
        return None, "non-abelian fiber over an infinite field"
    total = field.p ** (n * m)
    if total > bound:
        return None, f"{total} candidate maps exceed the bound {bound}"
    maps = (_phi_from_params(field, n, m, vec) for vec in enumerate_vectors(field, n * m))
    return [phi for phi in maps if accepts(phi)], ""


def decision_oracle(field, n, m, bound, accepts):
    """(status, reason, witness) of the first accepted map, as
    `nonabelian._search_phi` decides them."""
    maps, reason = phi_search_oracle(field, n, m, bound, accepts)
    if maps is None:
        return "undecided", reason, None
    if not maps:
        return "none", "exhausted", None
    return "found", "", maps[0]


def valid_cocycles_oracle(base, fiber, actions, variant, vectors=None):
    """The candidates (nu, omega) with the fixed actions that pass the
    scalar `validate_nab_cocycle`, built one at a time from the coordinate
    vectors `vectors` (default every one, in `enumerate_vectors` order):
    the stream that `extensions._valid_cocycles` batches."""
    from bolext.cohomology import CochainCoords
    from bolext.exactlin import enumerate_vectors
    from bolext.nonabelian import NonAbelianCocycle, validate_nab_cocycle

    coords = CochainCoords(base.dim, fiber.dim, base.field)
    if vectors is None:
        vectors = enumerate_vectors(base.field, coords.total)
    for vec in vectors:
        cand = NonAbelianCocycle(base, fiber, *coords.decode(vec), *actions)
        if validate_nab_cocycle(cand, variant).valid:
            yield cand


def solve_rows(a, b, p):
    """Solve a x = b[k] mod p for one residue matrix a (rows, cols) and
    every row b[k] of b (K, rows), in one `bruteforce.eliminate` of
    [a | b^T].

    Returns (consistent mask, x, key): x (K, cols) has the free unknowns at
    zero, as `Matrix.solve` returns it, and is meaningful only where
    consistent; key (K, rows - rank) is (T b[k])[rank:], zero exactly where
    consistent.  The key is linear in b, so two right-hand sides have the
    same key iff their difference is solvable."""
    import numpy as np

    from bolext import bruteforce

    cols = a.shape[1]
    aug, rank, pivot_row = bruteforce.eliminate(np.concatenate([a, b.T], axis=1)[None], cols, p)
    tb, r = aug[0, :, cols:].T, int(rank[0])
    x = np.zeros((len(tb), cols), dtype=np.int64)
    x[:, pivot_row[0] >= 0] = tb[:, :r]
    return ~np.any(tb[:, r:], axis=1), x, tb[:, r:]


def equivalence_matrix(c):
    """`nonabelian._equivalence_matrix` read off the `EQV` table by
    `identities.affine` on field scalars, for any cocycle c over an abelian
    fiber: the eqv-nu rows, then the eqv-omega rows (the nu and om rows of
    `nonabelian._flat`), columns in `_phi_from_params` order."""
    from bolext import identities
    from bolext.identities import residues
    from bolext.nonabelian import _equivalence_tensors

    system = identities.affine(identities.EQV, c.field, c.n, c.m, **_equivalence_tensors(c, c))
    return residues(system["eqv-nu"][0] + system["eqv-omega"][0])


def class_witnesses(members, reps, matrix, p):
    """(solvable mask, phi) for members[k] ~ reps[k] on the omega/nu system
    of `matrix` = `equivalence_matrix(c)`, every k in one `solve_rows`.
    phi[k, t, q] is the canonical witness (free unknowns at zero),
    meaningful where solvable.  reps.nu and reps.om may lack the leading
    axis (one target for every k)."""
    from bolext.nonabelian import _flat, _maps

    n, m = members.nu.shape[2:]
    targets = [a if a.ndim == b.ndim else a[None]
               for a, b in ((reps.nu, members.nu), (reps.om, members.om))]
    rhs = (_flat(targets) - _flat((members.nu, members.om))) % p
    solvable, x, _ = solve_rows(matrix, rhs, p)
    return solvable, _maps(x, n, m)


def coset_classes_oracle(zero, blocks, rows=1 << 12):
    """`extensions._coset_classes` by a dict keyed by each cocycle's whole
    key (T c)[r:] as bytes, solved by `solve_rows` `rows` cocycles at a
    time on the `identities.affine` reading of the equivalence matrix
    (`equivalence_matrix`), every representative kept as its residue rows
    and every joined member's witness checked against them.  Returns ((nu,
    om) of the representatives, stacked, in candidate order, valid
    count)."""
    import numpy as np

    from bolext.errors import InternalConsistencyError
    from bolext.identities import residues
    from bolext.nonabelian import _cocycle_arrays, _CocycleArrays, _equivalent_via, _flat

    p = zero.field.p
    actions = _cocycle_arrays(zero)
    matrix = equivalence_matrix(zero)
    bil, tri = residues(zero.base.bil), residues(zero.base.tri)
    classes, count = {}, 0
    rep_nu, rep_om = [], []
    for _, block_nu, block_om in blocks:
        count += len(block_nu)
        for at in range(0, len(block_nu), rows):
            nu, om = block_nu[at:at + rows], block_om[at:at + rows]
            keys = solve_rows(matrix, _flat((nu, om)), p)[2]
            joins, joined = [], []
            for k, key in enumerate(keys):
                cls = classes.setdefault(key.tobytes(), len(rep_nu))
                if cls == len(rep_nu):
                    rep_nu.append(nu[k])
                    rep_om.append(om[k])
                else:
                    joins.append(k)
                    joined.append(cls)
            if joins:
                members = _CocycleArrays(nu[joins], om[joins], *(
                    np.broadcast_to(a, (len(joins),) + a.shape) for a in actions[2:]))
                targets = actions._replace(nu=np.array([rep_nu[c] for c in joined]),
                                           om=np.array([rep_om[c] for c in joined]))
                solvable, phi = class_witnesses(members, targets, matrix, p)
                if not (solvable.all()
                        and _equivalent_via(members, targets, phi, bil, tri, p).all()):
                    raise InternalConsistencyError("class witness failed verification")
    return (np.array(rep_nu), np.array(rep_om)), count


def classify_text(count, reps, valid, count_only=False):
    """The stdout of `bolext classify` built from `classify_corpus`'s result
    by the document encoder: each representative, a cocycle of field
    scalars, as `json.dumps` of its `cochain_pair_to_doc`."""
    import json

    from bolext.documents import cochain_pair_to_doc

    lines = [f"valid-cocycles: {valid}", f"classes: {count}"]
    if not count_only:
        lines += [f"representative {k}: " + json.dumps(cochain_pair_to_doc(c.nu, c.omega))
                  for k, c in enumerate(reps)]
    return "".join(line + "\n" for line in lines)


def checked_automorphisms_oracle(auts, a, component, role):
    """(automorphisms, inverses) as residue arrays, each matrix checked by
    the scalar `Matrix.is_invertible` and `bol.is_morphism` and inverted by
    `Matrix.inverse`: the checks `wells._checked_automorphisms` batches."""
    import numpy as np

    from bolext.bol import int_matrix, is_morphism
    from bolext.errors import UsageError
    from bolext.identities import residues

    invs = []
    for g in auts:
        mat = int_matrix(a.field, g)
        if not mat.is_invertible() or not is_morphism(mat, a, a):
            raise UsageError(f"{component} component is not an automorphism of the {role}")
        invs.append(residues(mat.inverse().entries))
    return (np.asarray(auts, dtype=np.int64),
            np.array(invs, dtype=np.int64).reshape(np.shape(auts)))


def same_actions(acted, c):
    """The phi-free gates eqv-mu, eqv-theta, eqv-d (abelian fiber), per
    acted cocycle."""
    return ((acted.mu == c.mu).all(axis=(1, 2, 3))
            & (acted.theta == c.theta).all(axis=(1, 2, 3, 4))
            & (acted.dd == c.dd).all(axis=(1, 2, 3, 4)))


# the class verdicts by their codes in `wells._class_verdicts` (0, 1, 2);
# a per-pair verdict can also be undecided
VERDICT_STATUS = ("incompatible", "nonzero", "zero", "undecided")


def abelian_class_verdicts(c, base, fiber):
    """Class verdicts of every pair of base x fiber automorphisms (each an
    (automorphisms, inverses) pair from `wells._checked_automorphisms`),
    alpha-major, against a cocycle over a prime field with an abelian fiber.

    Decides what `wells._wells_verdict` decides pair by pair, but
    eliminates the equivalence system once per chunk: each pair only
    contributes a right-hand side.  Yields (first pair index, status codes
    into `VERDICT_STATUS`, witness maps phi[k, t, q], zero unless the
    class vanishes) per chunk of `wells._VERDICT_CHUNK` pairs, as
    `wells._class_verdicts` does; each witness is the canonical one of the
    elimination (free unknowns at zero), checked by `_equivalent_via`."""
    import numpy as np

    from bolext import wells
    from bolext.errors import InternalConsistencyError
    from bolext.identities import residues
    from bolext.nonabelian import _cocycle_arrays, _equivalent_via

    p = c.field.p
    (alphas, alpha_invs), (betas, beta_invs) = base, fiber
    arr = _cocycle_arrays(c)
    bil, tri = residues(c.base.bil), residues(c.base.tri)
    matrix = equivalence_matrix(c)
    nb = len(betas)
    total = len(alphas) * nb
    for start in range(0, total, wells._VERDICT_CHUNK):
        ia, ib = np.divmod(np.arange(start, min(start + wells._VERDICT_CHUNK, total)), nb)
        beta, binv = betas[ib], beta_invs[ib]
        span, which = wells._alpha_run(ia)
        acted = wells._act(arr, alpha_invs[span], beta, binv, p, which)
        solvable, phi = class_witnesses(acted, arr, matrix, p)
        compatible = wells._intertwines(arr, alphas[span], beta, binv, p, which)
        status = np.where(~compatible, wells._INCOMPATIBLE,
                          np.where(same_actions(acted, arr) & solvable,
                                   wells._ZERO, wells._NONZERO))
        zero = status == wells._ZERO
        phi = phi * zero[:, None, None]
        if not _equivalent_via(acted.take(zero), arr, phi[zero], bil, tri, p).all():
            raise InternalConsistencyError("batched class witness failed verification")
        yield start, status, phi


def pairwise_class_verdicts(c, base, fiber, bound, pairs=None):
    """The stream of `abelian_class_verdicts`, decided by one scalar
    `wells._wells_verdict` per pair, any fiber: its witness where the class
    vanishes (over a non-abelian fiber the first map its search meets),
    zero elsewhere.  One chunk per alpha; with `pairs`, a list of pair
    indices (alpha-major), one chunk (pairs, status codes, witnesses)."""
    import numpy as np

    from bolext.bol import int_matrix
    from bolext.identities import residues
    from bolext.wells import AutPair, _wells_verdict

    field = c.field
    (base_auts, _), (fiber_auts, _) = base, fiber
    nb = len(fiber_auts)

    def chunk(ks):
        verdicts = [_wells_verdict(c, AutPair(int_matrix(field, base_auts[k // nb]),
                                              int_matrix(field, fiber_auts[k % nb])), bound)
                    for k in ks]
        phi = np.zeros((len(ks), c.m, c.n), dtype=np.int64)
        for k, v in enumerate(verdicts):
            if v.witness is not None:
                phi[k] = residues(v.witness.entries)
        return np.array([VERDICT_STATUS.index(v.status) for v in verdicts],
                        dtype=np.int64), phi
    if pairs is not None:
        yield (pairs, *chunk(pairs))
        return
    for ia in range(len(base_auts)):
        yield (ia * nb, *chunk(range(ia * nb, (ia + 1) * nb)))


def triangular_arrays_oracle(bil, tri, alphas, betas, p, budget):
    """The output of `bruteforce.triangular_arrays` by its unpruned scan: the
    morphism test `morphism_mask_by_chain` on every one of the k l p^(nm)
    candidates [[alpha, 0], [C, beta]], read alpha-major, then beta, then
    the digits of C (candidate k reads the digits of k mod p^(nm))."""
    import numpy as np

    from bolext.bruteforce import _CHUNK, _check_bound, _headroom_dtype, digit_block

    n, m = alphas.shape[1], betas.shape[1]
    dt = _headroom_dtype(1, 1, p)
    bil, tri = bil.astype(dt), tri.astype(dt)
    width, nb = n * m, len(betas)
    total = len(alphas) * nb * p ** width
    _check_bound(total, budget, "matrices")
    found, pairs = [], []
    for start in range(0, total, _CHUNK):
        digits = digit_block(start, min(start + _CHUNK, total), p, width, dt)
        pair = np.arange(start, start + len(digits)) // p ** width
        g = np.zeros((len(digits), n + m, n + m), dtype=dt)
        g[:, :n, :n] = alphas[pair // nb]
        g[:, n:, :n] = digits.reshape(len(digits), m, n)
        g[:, n:, n:] = betas[pair % nb]
        good = morphism_mask_by_chain(bil, tri, g, p)
        found.append(g[good])
        pairs.append(pair[good])
    return np.concatenate(found), np.concatenate(pairs)


def morphism_residual_by_chain(t, M, p):
    """t(M x, M y[, M z]) - M t(x, y[, z]) mod p on the basis vectors, for
    each matrix of M (columns = basis images) and one fixed product t of
    arity 2 or 3 (the output axis last), as (len(M), inputs.., output): the
    values, dtype and overflow errors of `bruteforce._morphism_residual`,
    by a second route.

    The left side moves the inputs of t one at a time, first to last, each
    by a batched matrix product with M transposed that leaves the input's
    axis in place; the right side is one batched product.  Each side is
    computed in the narrowest integer type that holds its worst case, which
    bounds every partial sum of its nonnegative residues; their difference
    fits the wider, signed type and is reduced once."""
    from bolext.bruteforce import _headroom_dtype

    k, n, arity = len(M), M.shape[1], t.ndim - 1
    dt = _headroom_dtype(n ** arity, arity + 1, p)
    mt = M.astype(dt, copy=False).transpose(0, 2, 1)
    lhs = t.astype(dt)
    for q in range(arity):  # lhs[k, moved inputs.., input q, the rest]
        lhs = (mt.reshape((k,) + (1,) * q + (n, n))
               @ lhs.reshape((k if q else 1,) + (n,) * (q + 1) + (n ** (arity - q),)))
    rt = _headroom_dtype(n, 2, p)
    rhs = t.astype(rt).reshape(-1, n) @ M.astype(rt, copy=False).transpose(0, 2, 1)
    return (lhs.reshape(rhs.shape) - rhs).reshape((k,) + t.shape) % p


def morphism_mask_by_chain(bil, tri, M, p):
    """`bruteforce._morphism_fixed` by `morphism_residual_by_chain`: the
    matrices commuting with both products, the bracket checked only where
    the bilinear product passes."""
    ok = ~morphism_residual_by_chain(bil, M, p).reshape(len(M), -1).any(axis=1)
    idx = ok.nonzero()[0]
    ok[idx] = ~morphism_residual_by_chain(tri, M[idx], p).reshape(len(idx), -1).any(axis=1)
    return ok


def linear_part_by_probes(bil, tri, alphas, betas, p):
    """Per pair of `alphas` and `betas` (alpha major), the part of the
    morphism residual of G = [[alpha, 0], [C, beta]] linear in C, probed by
    plain einsum on every row: the residual at each of the nm unit maps C
    minus its value at C = 0.  One array per product, (K, nm, rows..)."""
    import numpy as np

    n, m = alphas.shape[1], betas.shape[1]
    width = n * m
    units = np.eye(width + 1, width, k=-1, dtype=np.int64)  # C = 0, then the unit maps
    ia, ib = np.divmod(np.arange(len(alphas) * len(betas)), len(betas))
    g = np.zeros((len(ia), width + 1, n + m, n + m), dtype=np.int64)
    g[:, :, :n, :n] = alphas[ia][:, None]
    g[:, :, n:, :n] = units.reshape(width + 1, m, n)
    g[:, :, n:, n:] = betas[ib][:, None]
    bil, tri = bil.astype(np.int64), tri.astype(np.int64)
    res = ((np.einsum("kcai,kcbj,abl->kcijl", g, g, bil, optimize=True)
            - np.einsum("kclq,ijq->kcijl", g, bil)) % p,
           (np.einsum("kcai,kcbj,kceh,abel->kcijhl", g, g, g, tri, optimize=True)
            - np.einsum("kclq,ijhq->kcijhl", g, tri)) % p)
    return tuple((r[:, 1:] - r[:, :1]) % p for r in res)


def dense_residuals(suite, field, variant=None, **tensors):
    """tag -> the residual of each identity of a suite (of one variant, if
    marked) over its axes, `where` then `out`, as an object array of field
    scalars: every term contracted by plain einsum on the scalars, terms
    with an all-zero factor included.  An axis that no factor of a term
    carries is met by a factor of ones."""
    import numpy as np

    arrays = {name: np.array(t, dtype=object) for name, t in tensors.items()}
    out = {}
    for idt in (i for g in suite for i in g.identities if i.variant in (None, variant)):
        terms = [t for t in idt.terms if t.variant in (None, variant)]
        sizes = {ch: s for t in idt.terms for name, idx in t.factors
                 for ch, s in zip(idx, arrays[name].shape)}
        total = np.full(tuple(sizes[ch] for ch in idt.axes), field.zero, dtype=object)
        for t in terms:
            ones = [ch for ch in idt.axes if all(ch not in idx for _, idx in t.factors)]
            spec = ",".join([idx for _, idx in t.factors] + ones) + "->" + idt.axes
            value = np.einsum(spec, *[arrays[name] for name, _ in t.factors],
                              *[np.full(sizes[ch], field.one, dtype=object) for ch in ones])
            total = total + value if t.sign > 0 else total - value
        out[idt.tag] = total
    return out


def identity_mask_by_einsum(suite, p, batch, fixed=None, ok=None, index=None):
    """`bruteforce.identity_mask` with each identity decided by
    `zero_rows_by_einsum` on the arrays handed in, a batch read through
    `index` gathered first, one array row per batch entry: the same order,
    pair rule, slices and screen, every term contracted densely."""
    from unittest import mock

    from bolext import bruteforce

    rows = {name: a[index[name]] if name in (index or {}) else a for name, a in batch.items()}

    def dense(key, p, layout, _index, idx, bounds, dtype, letter="", v=0):
        return zero_rows_by_einsum(key[0], p, rows, fixed or {}, idx, dict(key[1]), bounds,
                                   dtype, key[0].tag, letter, v)

    with mock.patch.object(bruteforce, "_zero_rows", dense):
        return bruteforce.identity_mask(suite, p, batch, fixed, ok, index)


def zero_rows_by_einsum(idt, p, batch, fixed, idx, sizes, bounds, dtype, what, letter="", v=0):
    """Which batch rows `idx` have an all-zero residual of `idt` mod p, as
    `bruteforce._zero_rows` decided it before its support join: each term
    contracted densely by `_contract` (the terms bounded by `bounds`,
    summed in `dtype`); with a `letter`, only on the where tuples whose
    `letter` axis is v: each factor is sliced at v:v+1 on every axis that
    carries the letter, and its size is 1.  A factor over the pair axis of
    a pair form is gathered from its tensor at the pairs a < b (at pair v
    alone with the letter), on the rows idx.  Axes that no factor of a term
    carries are broadcast, as `identities.contract` does."""
    import numpy as np

    from bolext.bruteforce import _PAIR

    every = idx.size == len(next(iter(batch.values())))
    rows = (slice(None),) if every else (idx[:, None],)
    arrays = {}

    def operand(name, axes):
        batched = name not in fixed
        if axes.startswith(_PAIR):
            a = fixed[name] if not batched else batch[name]
            ia, ib = np.triu_indices(a.shape[batched], 1)
            if letter:
                ia, ib = ia[v:v + 1], ib[v:v + 1]
            return a[rows * batched + (ia, ib)]
        if name not in arrays:
            arrays[name] = fixed[name] if not batched else batch[name] if every \
                else batch[name][idx]
        return _at(arrays[name], axes, letter, v, batched) if letter else arrays[name]

    if letter:
        sizes = {**sizes, letter: 1}
    full = tuple(sizes[ch] for ch in idt.axes)
    total = np.zeros((idx.size,) + full, dtype=dtype)
    for t, worst in zip(idt.terms, bounds):
        carried = "".join(ch for ch in idt.axes if any(ch in axes for _, axes in t.factors))
        spec = (",".join(("Z" if name in batch else "") + axes for name, axes in t.factors)
                + "->" + ("Z" if any(name in batch for name, _ in t.factors) else "") + carried)
        value = _contract(worst, what, spec, *[operand(name, axes) for name, axes in t.factors])
        if len(carried) < len(idt.axes):
            lead = value.shape[:value.ndim - len(carried)]
            shape = tuple(sizes[ch] if ch in carried else 1 for ch in idt.axes)
            value = np.broadcast_to(value.reshape(lead + shape), lead + full)
        (np.add if t.sign > 0 else np.subtract)(total, value, out=total)
    total -= total // p * p
    return ~np.any(total, axis=tuple(range(1, total.ndim)))


def _at(a, axes, letter, v, batched):
    """The view of a factor with indices `axes` (after a batch axis if
    `batched`) at v:v+1 on every axis that carries `letter`."""
    return a[(slice(None),) * batched
             + tuple(slice(v, v + 1) if ch == letter else slice(None) for ch in axes)]


def _contract(worst, what, spec, *ops):
    """Unreduced `np.einsum(spec, *ops)` of residue arrays in the narrowest
    integer type that holds `worst`, its bound, contracted pairwise in the
    order einsum's optimizer picks (batched matrix products where it can).

    Exact in every order: residues are nonnegative, so every partial sum is
    bounded by the contraction of the factors it has met, which is at most
    `worst` unless a factor not yet met is all zero.  Then the result is 0,
    and an intermediate that wrapped around does not change it: integer
    arithmetic wraps modulo 2^bits, and the result fits."""
    import numpy as np

    from bolext.bruteforce import _narrowest

    dt = _narrowest(worst, what)
    path = _einsum_path(spec, tuple(op.shape for op in ops), dt)
    return np.einsum(spec, *(op.astype(dt, copy=False) for op in ops), optimize=path)


@lru_cache(maxsize=256)
def _einsum_path(spec, shapes, dtype):
    """The path `np.einsum(..., optimize=True)` would search for operands of
    these shapes and dtype, searched once per key: the greedy search reads
    nothing else of the operands, so zero-stride stand-ins take their place."""
    import numpy as np

    stand_ins = (np.broadcast_to(np.zeros((), dtype), shape) for shape in shapes)
    return tuple(np.einsum_path(spec, *stand_ins, optimize="greedy")[0])
