"""Batched mod-p enumeration engines (numpy int arithmetic, exact).

Everything here works on integer residue arrays; callers convert to and from
the exact scalar types.  Every enumeration (the Bol tensors, the flat
automorphism scan, the census's action tuples, the maps phi of a cocycle's
orbit or over a non-abelian fiber, the cocycles of a classification) takes
its candidates from one stream, `candidate_blocks`: the p^width digit
strings of its
parameters in lexicographic order, checked against the bound once and read
in fixed-size chunks, by `identity_mask` (joins over the supports of each
term's factors) where a table decides them.  The factored scan of
block-triangular automorphisms checks the bound on all its candidates too,
but solves for the blocks C its morphism residual allows, from a linear
system it probes where the system can be nonzero, tests only those, and
streams what it finds slice by slice (`triangular_arrays`).  Only the flat
scan is limited to dimension <= 3.

Every mod-p elimination here (the batched inverses of `inverse_mod`, the
factored scan's per-pair systems, and the class codes and class witnesses
of `extensions._class_code`, both from one elimination per classification)
runs through one stacked Gauss-Jordan loop, `eliminate`, with pivots as in
`Matrix.rref`, and every residue contraction given as an einsum spec (here,
in `wells`, in `nonabelian` and in `extensions`) through `contract_mod`.
"""
from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product
from math import factorial, prod
from typing import NamedTuple

import numpy as np

from . import identities
from .errors import InternalConsistencyError, UnsupportedEnumerationError

_CHUNK = 1 << 16
# residual or gathered entries per slice of an identity in `identity_mask`
_ENTRIES = 1 << 19
# the letter of the pair axis of a pair form; the tables use lower case only
_PAIR = "P"


def _headroom_dtype(terms: int, degree: int, p: int):
    """The narrowest integer type that holds a sum of `terms` products of
    `degree` residues mod p; raises where even int64 does not."""
    return _narrowest(max(terms, 1) * (p - 1) ** degree,
                      f"{terms} products of {degree} residues mod {p}")


# the integer types of residue sums, narrowest first, with their maxima
_WIDTHS = tuple((dt, int(np.iinfo(dt).max)) for dt in (np.int16, np.int32, np.int64))


def _narrowest(worst: int, what: str):
    for dt, top in _WIDTHS:
        if worst <= top:
            return dt
    raise UnsupportedEnumerationError(f"{what} overflow int64")


def digit_block(start: int, stop: int, p: int, width: int, dtype) -> np.ndarray:
    """The last `width` base-p digits of rows start..stop-1, most
    significant first; raises unless stop - 1 and p^width - 1 (and p
    itself) fit int64."""
    require_int64_headroom(1, 1, max(stop, p ** max(width, 1)))
    return digit_rows(np.arange(start, stop, dtype=np.int64), p, width, dtype)


def digit_rows(index: np.ndarray, p: int, width: int, dtype) -> np.ndarray:
    """The last `width` base-p digits of each int64 row index, most
    significant first."""
    weights = p ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((index[:, None] // weights[None, :]) % p).astype(dtype)


def candidate_blocks(p: int, width: int, budget: int, what: str, chunk=_CHUNK):
    """The p^width candidates as (start, digit rows) per chunk of `chunk`
    rows, in lexicographic order: candidate k is the digit string of k.
    The count is checked against `budget` here, before the first block is
    asked for."""
    total = p ** width
    _check_bound(total, budget, what)
    dt = _headroom_dtype(1, 1, p)
    return ((start, digit_block(start, min(start + chunk, total), p, width, dt))
            for start in range(0, total, chunk))


def _check_bound(total: int, budget: int, what: str):
    if total > budget:
        raise UnsupportedEnumerationError(
            f"{total} candidate {what} exceed the bound {budget}")


def skew_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def skew_from_params(params: np.ndarray, n: int, shape: tuple, p: int) -> np.ndarray:
    """Tensors skew in their first two axes, from one free block of the
    given shape per pair (i, j), i < j, in `skew_pairs` order."""
    b, size = params.shape[0], prod(shape)
    out = np.zeros((b, n, n) + shape, dtype=params.dtype)
    for k, (i, j) in enumerate(skew_pairs(n)):
        block = params[:, k * size:(k + 1) * size].reshape((b,) + shape)
        out[:, i, j] = block
        out[:, j, i] = (-block) % p
    return out


def identity_mask(suite, p: int, batch: dict, fixed=None, ok=None, index=None) -> np.ndarray:
    """Mask of the batch entries that satisfy every identity of a suite
    without variant marks: an `identities` table, the suite of one variant
    (`identities.select`), or a part of one (`reading`).

    `batch` maps tensor names to residue arrays with a leading batch axis,
    `fixed` to residue arrays shared by the whole batch; entries false in
    the starting mask `ok` stay false, unevaluated.  `index` maps some
    batch names to an integer array: batch entry k reads row index[name][k]
    of batch[name], so a batch that is a product of factors is handed in as
    its factors, each value once; a name not in `index` reads its own row.
    Each tensor read is laid out once, its values batch axis last
    (`_layout`), and each slice gathers its rows' values from there; a
    support, largest entry or alternation taken over values no entry reads
    still covers the ones it does.  Identities run cheapest first, each on
    the survivors of the ones before it, in slices whose residual and
    largest gather hold at most `_ENTRIES` entries.  Only live terms
    (`identities.live`) are read, each joined over the supports of its
    factors (`_plan`), and summed unreduced in a type that holds their
    bounds (`_term_bound`) and p, then reduced once.

    The pair rule: an identity with a pair form (`_pair_form`) is decided
    on the pairs a < b of its first two `where` letters (i, j) when every
    tensor its pair form gathers is alternating mod p (`_alternating`):
    every term is then alternating too, so the residual vanishes exactly
    when it vanishes on a < b.  Slices and the screen are sized by the
    residual over every (i, j).

    The screen: an identity whose residual over the survivors exceeds
    `_ENTRIES` entries is decided in each slice one value v of its first
    `where` axis at a time (`_zero_rows` at (letter, v)), each only on the
    rows that passed the values before it: a row passes exactly when every
    entry of its residual is zero mod p.
    """
    fixed = fixed or {}
    every = [idt for group in suite for idt in group.identities]
    read = set().union(*map(_reads, every))
    layout = {name: _layout(name, a, name in batch) for name, a in {**batch, **fixed}.items()
              if name in read}
    peak = {name: int(rows.max(initial=0)) for name, (rows, _) in layout.items()}
    zero = frozenset(name for name, top in peak.items() if not top)
    shapes = {name: key[1] for name, (_, key) in layout.items()}
    checks = [(identities.axis_sizes(idt, shapes), identities.live(idt, zero)) for idt in every]
    alternates = lru_cache(None)(lambda name: _alternating(*layout[name], p, peak[name]))
    index = index or {}
    rows = len(next(iter(index.values()))) if index else len(next(iter(batch.values())))
    index = {name: index.get(name, _SAME) for name in batch}
    ok = np.ones(rows, dtype=bool) if ok is None else ok.copy()
    for sizes, idt in sorted(checks, key=lambda c: _identity_cost(*c)):
        survivors = np.flatnonzero(ok)
        if not survivors.size:
            break
        if not idt.terms:
            continue
        bounds = [_term_bound(t, idt.axes, sizes, peak) for t in idt.terms]
        dtype = _narrowest(max(sum(bounds), p), f"the terms of {idt.tag} mod {p}")
        entries = prod(sizes[ch] for ch in idt.axes)
        form = _pair_form(idt)
        if form is not None and all(map(alternates, _paired(form))):
            d = sizes[idt.where[0]]
            sizes, idt = {**sizes, _PAIR: d * (d - 1) // 2}, form
        key = idt, tuple(sizes.items()), tuple(layout[name][1] for name in sorted(_reads(idt)))
        step = max(1, _ENTRIES // max(entries, _plan(*key, "", 0)[1]))
        lead = idt.where[:1] if survivors.size * entries > _ENTRIES else ""
        for idx in np.split(survivors, range(step, survivors.size, step)):
            for v in range(sizes[lead]) if lead else (0,):
                passed = _zero_rows(key, p, layout, index, idx, bounds, dtype, lead, v)
                ok[idx] = passed
                idx = idx[passed]
                if not idx.size:
                    break
    return ok


class _Same:
    """The index of a batch name `identity_mask` is given none: entry k
    reads row k, so a slice's rows are its own gather."""

    def __getitem__(self, idx):
        return idx


_SAME = _Same()


def _support(flat: np.ndarray) -> np.ndarray:
    """The columns of a tensor's rows `flat` nonzero in some row."""
    return flat.any(axis=0)


def _layout(name: str, a: np.ndarray, batched: bool) -> tuple:
    """A tensor, batch axis last: the rows of its support (`_support`) and
    a zero row; and its `_plan` key (name, shape, support mask bytes)."""
    shape = a.shape[batched:]
    flat = a.reshape(len(a) if batched else 1, prod(shape))
    keep = _support(flat)
    rows = np.vstack([flat[:, keep].T, np.zeros((1, len(flat)), a.dtype)])
    return rows, (name, shape, keep.tobytes())


@lru_cache(maxsize=None)
def _pair_form(idt):
    """The pair form of an identity, or None: where every term has exactly
    one factor that carries the first two `where` letters (i, j), as its
    first two indices in that order and nowhere else, and no other factor
    carries either, (i, j) become the one axis `_PAIR`, read as the pairs
    a < b in `np.triu_indices` order."""
    if len(idt.where) < 2:
        return None
    i, j = idt.where[:2]
    terms = []
    for t in idt.terms:
        carriers = [k for k, (_, axes) in enumerate(t.factors) if i in axes or j in axes]
        if len(carriers) != 1:
            return None
        name, axes = t.factors[carriers[0]]
        if axes[:2] != i + j or i in axes[2:] or j in axes[2:]:
            return None
        factors = list(t.factors)
        factors[carriers[0]] = (name, _PAIR + axes[2:])
        terms.append(replace(t, factors=tuple(factors)))
    return replace(idt, where=_PAIR + idt.where[2:], terms=tuple(terms))


def _paired(form) -> set:
    """The tensors a pair form reads over its pair axis."""
    return {name for t in form.terms for name, axes in t.factors if axes.startswith(_PAIR)}


def _alternating(rows: np.ndarray, key: tuple, p: int, peak: int) -> bool:
    """Whether a tensor laid out by `_layout`, with largest entry `peak`,
    is alternating mod p in its first two axes: t[a,a] = 0, t[a,b] +
    t[b,a] = 0 or p.  One comparison of the rows `_mirrors` names."""
    mirrors = _mirrors(key)
    if mirrors is None:
        return False
    diagonal, up, low = mirrors
    pair = np.add(rows[up], rows[low],
                  dtype=np.result_type(rows.dtype, _narrowest(2 * peak, "a pair sum")))
    return not (rows[diagonal].any() or ((pair != 0) & (pair != p)).any())


@lru_cache(maxsize=1 << 10)
def _mirrors(key: tuple):
    """For a `_layout` key whose first two axes have one length: the layout
    rows of the diagonal t[a,a], and of t[a,b] and t[b,a], a < b, where
    either is in the support (the zero row stands for an entry outside
    it); otherwise None."""
    _, shape, bits = key
    if len(shape) < 2 or shape[0] != shape[1]:
        return None
    keep = np.frombuffer(bits, dtype=bool)
    zero = int(keep.sum())
    at = np.where(keep, np.cumsum(keep) - 1, zero).reshape(shape[0], shape[0], prod(shape[2:]))
    a, b = np.triu_indices(shape[0], 1)
    up, low = at[a, b].ravel(), at[b, a].ravel()
    some = np.minimum(up, low) < zero
    return np.diagonal(at).ravel(), up[some], low[some]


@lru_cache(maxsize=1 << 10)
def _plan(idt, sizes: tuple, supports: tuple, letter: str, v: int) -> tuple:
    """How `_zero_rows` reads an identity on tensors with these supports
    (`_layout`), at `letter` = v if given: (the residual entries some term
    hits, the most rows a gather or slice holds, per term with a tuple its
    (number, sign, joins, places in the hit)).  A term's factors, and ones
    over each output letter none carries, are joined pairwise (`_join`),
    greedily by support size as einsum's path."""
    sizes, out, made = dict(sizes), idt.axes, []
    masks = {name: np.frombuffer(bits, bool).reshape(shape) for name, shape, bits in supports}
    for k, t in enumerate(idt.terms):
        ops = [_entries(masks[name], name, axes, letter, v) for name, axes in t.factors]
        for ch in sorted(set(out).difference(*(axes for _, axes in t.factors))):
            span = [v] if ch == letter else range(sizes[ch])
            ops.append((ch, np.array(span)[:, None], (None, np.zeros(len(span), int))))
        joins = []
        while len(ops) > 1 or not joins:
            options = []
            for pick in list(combinations(range(len(ops)), 2)) or [(0,)]:
                rest = [o for z, o in enumerate(ops) if z not in pick]
                join = _join([ops[z] for z in pick], set(out).union(*(o[0] for o in rest)), sizes)
                options.append((len(join[1]) - sum(len(ops[z][1]) for z in pick),
                                len(join[2][0][1]), rest, join))
            *_, ops, (letters, vals, sources, starts) = min(options, key=lambda o: o[:2])
            joins.append((sources, starts))
            ops.append((letters, vals, (len(joins) - 1, np.arange(len(vals)))))
        if len(vals):
            made.append((k, t.sign, tuple(joins), _code(vals, letters, out, sizes)))
    hit = np.flatnonzero(np.bincount(np.concatenate([m[-1] for m in made] + [np.zeros(0, int)])))
    largest = max([len(at) for m in made for sources, _ in m[2] for _, at in sources]
                  + [mask.sum() + 1 for mask in masks.values()])
    return hit, largest, tuple(m[:-1] + (np.searchsorted(hit, m[-1]),) for m in made)


def _entries(mask: np.ndarray, name: str, axes: str, letter: str, v: int) -> tuple:
    """A factor as a `_join` operand: its letters, each once, their values
    at the support entries it reads, and (name, their layout rows).  A pair
    axis reads a < b as the pair's index; a repeated letter, equal values."""
    at, row = np.argwhere(mask), np.arange(mask.sum())
    if axes[0] == _PAIR:
        a, b, d = at[:, 0], at[:, 1], mask.shape[0]
        at, row = np.column_stack([a * (2 * d - a - 3) // 2 + b - 1, at[:, 2:]])[a < b], row[a < b]
    keep = (at == at[:, [axes.index(ch) for ch in axes]]).all(axis=1)
    if letter and letter in axes:
        keep &= at[:, axes.index(letter)] == v
    letters = "".join(dict.fromkeys(axes))
    return letters, at[keep][:, [axes.index(ch) for ch in letters]], (name, row[keep])


def _join(ops: list, keep: set, sizes: dict) -> tuple:
    """Join one or two operands (letters, values per entry, (source, row
    per entry)) where they agree, grouped on the letters in `keep`: (kept
    letters, values per group, (source, rows) per operand in group order,
    reduceat offsets, or None if each group is one tuple)."""
    (letters, vals, _), *other = ops
    picks = [np.arange(len(vals))]
    for ly, vy, _ in other:
        shared = [ch for ch in letters if ch in ly]
        picks = np.nonzero(_code(vals, letters, shared, sizes)[:, None]
                           == _code(vy, ly, shared, sizes))
        new = "".join(ch for ch in ly if ch not in letters)
        vals = np.hstack([vals[picks[0]], vy[picks[1]][:, [ly.index(ch) for ch in new]]])
        letters += new
    kept = "".join(ch for ch in letters if ch in keep)
    code = _code(vals, letters, kept, sizes)
    order = np.argsort(code, kind="stable")
    first = np.flatnonzero(np.diff(code[order], prepend=-1))
    return (kept, vals[order[first]][:, [letters.index(ch) for ch in kept]],
            tuple((src, rows[pick[order]]) for (*_, (src, rows)), pick in zip(ops, picks)),
            None if len(first) == len(order) else first)


def _code(vals: np.ndarray, letters: str, of: str, sizes: dict) -> np.ndarray:
    """Each row of `vals` on the letters `of`, as one row-major integer."""
    code = np.zeros(len(vals), dtype=np.int64)
    for ch in of:
        code = code * sizes[ch] + vals[:, letters.index(ch)]
    return code


def _zero_rows(key: tuple, p: int, layout: dict, index: dict, idx: np.ndarray, bounds: list,
               dtype, letter: str = "", v: int = 0) -> np.ndarray:
    """Which rows `idx` have an all-zero residual mod p of the identity of a
    `_plan` key, its terms bounded by `bounds`, summed in `dtype`: each
    batched tensor's values gathered at its `index` of those rows."""
    hit, _, terms = _plan(*key, letter, v)
    cols = {None: np.ones((1, 1), np.int8)}
    for name in _reads(key[0]):
        rows = layout[name][0]
        cols[name] = rows[:, index[name][idx]] if name in index else rows
    total = np.zeros((len(hit), idx.size), dtype)
    for k, sign, joins, places in terms:
        total[places] += sign * _term(joins, cols, _narrowest(bounds[k], key[0].tag))
    total -= total // p * p  # mod p, faster than np.remainder
    return ~total.any(axis=0)


def _term(joins: tuple, cols: dict, dt) -> np.ndarray:
    """A planned term's unreduced values, in `dt`: per join a gather, a
    multiply and at most one `np.add.reduceat`.  Exact: residues are
    nonnegative, so a partial sum is at most the term's bound unless a
    factor not yet met is all zero, and then wrapping leaves the 0."""
    got = []
    for sources, starts in joins:
        a = [(got[ref] if isinstance(ref, int) else cols[ref])[at] for ref, at in sources]
        value = a[0].astype(dt, copy=False) if len(a) == 1 else np.multiply(*a, dtype=dt)
        got.append(value if starts is None else np.add.reduceat(value, starts, dtype=dt))
    return got[-1]


def reading(suite, names) -> tuple:
    """(the identities of `suite` whose terms read only the tensors `names`,
    the others), each as a suite for `identity_mask`: the checks of a batch
    that are shared by every structure agreeing on those tensors, and the
    checks left to each structure."""
    checks = [identities.Group(len(idt.where), (idt,))
              for group in suite for idt in group.identities]
    part = tuple(g for g in checks if _reads(g.identities[0]) <= set(names))
    return part, tuple(g for g in checks if g not in part)


def _reads(idt) -> set:
    return {name for t in idt.terms for name, _ in t.factors}


def _term_bound(term, axes: str, sizes: dict, peak: dict) -> int:
    """The largest value one term's unreduced contraction can take: its
    summed products times its factors' largest entries (so an all-zero
    factor bounds it by 0)."""
    summed = set().union(*(idx for _, idx in term.factors)) - set(axes)
    return prod(sizes[ch] for ch in summed) * prod(peak[name] for name, _ in term.factors)


def _identity_cost(sizes, idt) -> int:
    return sum(prod(sizes[ch] for ch in set(idt.axes).union(*(idx for _, idx in t.factors)))
               for t in idt.terms)


def validate_bol_mask(bil: np.ndarray, tri: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of batch entries whose tensors satisfy all five axioms."""
    return identity_mask(identities.BOL, p, {"bil": bil, "tri": tri})


def enumerate_valid_tensors(n: int, p: int, tri_zero: bool, budget: int):
    """Yield (bil, tri) integer tensor pairs passing the axiom suite."""
    npairs = len(skew_pairs(n))
    bw = npairs * n
    width = bw if tri_zero else bw + npairs * n * n
    for _, params in candidate_blocks(p, width, budget, "tensors"):
        bil = skew_from_params(params[:, :bw], n, (n,), p)
        if tri_zero:
            tri = np.zeros((len(params), n, n, n, n), dtype=params.dtype)
        else:
            tri = skew_from_params(params[:, bw:], n, (n, n), p)
        mask = validate_bol_mask(bil, tri, p)
        for i in np.flatnonzero(mask):
            yield bil[i], tri[i]


def det_mask(M: np.ndarray, p: int) -> np.ndarray:
    """Nonzero-determinant mask; supports n <= 3."""
    n = M.shape[1]
    M = M.astype(_headroom_dtype(factorial(n), n, p), copy=False)
    if n == 1:
        d = M[:, 0, 0]
    elif n == 2:
        d = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    elif n == 3:
        d = (M[:, 0, 0] * (M[:, 1, 1] * M[:, 2, 2] - M[:, 1, 2] * M[:, 2, 1])
             - M[:, 0, 1] * (M[:, 1, 0] * M[:, 2, 2] - M[:, 1, 2] * M[:, 2, 0])
             + M[:, 0, 2] * (M[:, 1, 0] * M[:, 2, 1] - M[:, 1, 1] * M[:, 2, 0]))
    else:
        raise UnsupportedEnumerationError("matrix enumeration supports dimension <= 3")
    return (d % p) != 0


def automorphism_arrays(bil: np.ndarray, tri: np.ndarray, p: int, budget: int) -> np.ndarray:
    """All automorphism matrices as one (k, n, n) int array, in candidate
    order: the p^(n^2) matrices, those with nonzero determinant tested
    against both products.  Supports n <= 3."""
    n = bil.shape[0]
    if n > 3:
        raise UnsupportedEnumerationError("matrix enumeration supports dimension <= 3")
    dt = _headroom_dtype(1, 1, p)
    bil, tri = bil.astype(dt), tri.astype(dt)
    found = []
    for _, digits in candidate_blocks(p, n * n, budget, "matrices"):
        g = digits.reshape(len(digits), n, n)
        g = g[det_mask(g, p)]
        found.append(g[_morphism_fixed(bil, tri, g, p)])
    return np.concatenate(found)


class ScanSlice(NamedTuple):
    """One slice of the factored scan `triangular_arrays`: the automorphisms
    it found and their pair indices, with what it took to find them.  A
    slice of pairs whose coset members fill more than one chunk yields one
    record per chunk, its pair and row counts on the first."""

    blocks: np.ndarray  # (K, d, d) automorphisms [[alpha, 0], [C, beta]]
    pairs: np.ndarray   # (K,) pair index ia * l + ib of each
    scanned: int        # pairs whose system the slice solved
    evaluated: int      # residual rows evaluated: C = 0, any unit maps, the guard C
    tested: int         # coset members handed to `_morphism_fixed`


def triangular_arrays(bil: np.ndarray, tri: np.ndarray, alphas: np.ndarray,
                      betas: np.ndarray, p: int, budget: int):
    """The automorphisms G = [[alpha, 0], [C, beta]] of one structure as a
    stream of `ScanSlice`s, in candidate order: alpha-major, then beta, then
    the digits of C, of the k l p^(nm) candidates for alphas (k, n, n) and
    betas (l, m, m).  That count is checked against the bound here, before
    the first slice is asked for.  G is invertible when alpha and beta are,
    so it is only tested against both products.

    Probe and solve, per slice of pairs: on the rows `_affine_rows` keeps,
    the morphism residual of G is affine in C, so its value at C = 0 and,
    when some kept row is one `_reachable` marks, its values at the nm unit
    maps give each pair an affine system in the digits of C.  With no such
    row the part linear in C is zero and no unit map is evaluated.  One C
    per pair, a fixed hash of the pair (`_guard`), evaluated directly,
    checks that system (the affinity guard), and so `_reachable` too.  Rows
    zero in every pair's [L | b] are dropped, and `_solve_stack` eliminates
    every pair's system at once; the members of each solution coset, in
    C-digit order, are the only candidates `_morphism_fixed` tests (on
    e_h3: 2 rows per pair, and 12,000 of 48,000 candidates)."""
    n, m = alphas.shape[1], betas.shape[1]
    _check_bound(len(alphas) * len(betas) * p ** (n * m), budget, "matrices")
    return _triangular_slices(bil, tri, alphas, betas, p)


def _triangular_slices(bil, tri, alphas, betas, p):
    n, m = alphas.shape[1], betas.shape[1]
    d, width, total = n + m, n * m, len(alphas) * len(betas)
    dt = _headroom_dtype(1, 1, p)
    bil, tri = bil.astype(dt), tri.astype(dt)
    keep = _affine_rows(bil, tri, n)
    reach = any(_reachable(t, n)[rows].any() for t, rows in zip((bil, tri), keep))
    probes = width if reach else 0
    units = np.eye(probes + 1, width, k=-1, dtype=dt)  # C = 0, then the unit maps
    rows = d ** 3 + (d ** 4 if tri.any() else 0)
    step = max(1, _ENTRIES // ((width + 2) * rows))
    for start in range(0, total, step):
        pair = np.arange(start, min(start + step, total))
        guard = _guard(pair, width, p).astype(dt)
        digits = np.concatenate([np.broadcast_to(units, (len(pair),) + units.shape),
                                 guard], axis=1)
        g = _triangular(alphas, betas, np.repeat(pair, probes + 2),
                        digits.reshape(-1, width), n, m)
        res = _residual_rows(bil, tri, g, p, keep).reshape(len(pair), probes + 2, -1)
        const = res[:, 0]
        if probes:
            const = const.astype(np.int64)
            lin = (res[:, 1:-1] - const[:, None]) % p  # (k, probes, rows)
            predicted = (const + contract_mod("ku,kur->kr", p, guard[:, 0, :probes], lin)) % p
        else:  # no linear part: the guard C must leave the C = 0 residual as it is
            lin, predicted = res[:, 1:-1], const
        if not np.array_equal(predicted, res[:, -1]):
            raise InternalConsistencyError(
                "the morphism residual is not affine in C on the rows solved")
        used = lin.any(axis=(0, 1)) | const.any(axis=0)
        a = np.zeros((len(pair), int(used.sum()), width), dtype=np.int64)
        a[:, :, :probes] = lin[:, :, used].transpose(0, 2, 1)
        consistent, x0, free = _solve_stack(a, -const[:, used] % p, p)
        scanned, evaluated = len(pair), len(g)
        for owner, c in _coset_members(pair[consistent], x0[consistent],
                                       free[consistent], p):
            g = _triangular(alphas, betas, owner, c.astype(dt), n, m)
            good = _morphism_fixed(bil, tri, g, p)
            yield ScanSlice(g[good], owner[good], scanned, evaluated, len(g))
            scanned = evaluated = 0
        if scanned:
            yield ScanSlice(np.zeros((0, d, d), dtype=dt), np.zeros(0, dtype=np.int64),
                            scanned, evaluated, 0)


def _guard(pair: np.ndarray, width: int, p: int) -> np.ndarray:
    """The guard C of each pair, (len(pair), 1, width): digit u of pair k's
    is splitmix64 of k * width + u, mod p.  A fixed integer hash, so the
    scan draws from no generator."""
    z = pair.astype(np.uint64)[:, None, None] * np.uint64(width) + np.arange(
        width, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))) % np.uint64(p)


def _reachable(t, n) -> np.ndarray:
    """Mask of the rows (inputs.., l) of the morphism residual of product t
    on which the part linear in C can be nonzero for some alpha and beta,
    from the nonzero pattern of t alone.  That part is the derivative of the
    residual at G0 = diag(alpha, beta) in the direction E = [[0, 0], [C, 0]].
    E on the output reads t(inputs) at its base coordinates, on a fiber
    row l; E in input slot q reads t with a fiber input there, a base input
    x in the row, and on each other input any index of the row's block (base
    or fiber), since G0 keeps the blocks."""
    r = t.ndim - 1
    nonzero = t != 0
    reach = np.zeros(t.shape, dtype=bool)
    reach[..., n:] = nonzero[..., :n].any(axis=-1, keepdims=True)
    halves = (slice(None, n), slice(n, None))
    for q in range(r):
        fiber_in = np.moveaxis(nonzero[(slice(None),) * q + (slice(n, None),)], q, 0).any(axis=0)
        for sides in product(halves, repeat=r - 1):
            at = sides[:q] + (slice(None, n),) + sides[q:]
            reach[at] |= fiber_in[sides].any(axis=tuple(range(r - 1)))
    return reach


def _triangular(alphas, betas, pair, digits, n, m) -> np.ndarray:
    """The matrices [[alpha, 0], [C, beta]] of pair indices `pair` (alpha
    major) and the digit rows of C (row-major, m by n)."""
    nb = len(betas)
    g = np.zeros((len(pair), n + m, n + m), dtype=digits.dtype)
    g[:, :n, :n] = alphas[pair // nb]
    g[:, n:, :n] = digits.reshape(len(pair), m, n)
    g[:, n:, n:] = betas[pair % nb]
    return g


def _affine_rows(bil: np.ndarray, tri: np.ndarray, n: int) -> tuple:
    """Masks of the residual rows (inputs, output) of both products that are
    affine in C for G = [[alpha, 0], [C, beta]].  C only sends base inputs
    (the first n coordinates) into the fiber, so a term of degree two in C
    needs a component of a product with two or more fiber inputs: where
    none is nonzero (in a glued total, an abelian fiber), every row is
    affine; otherwise the rows with at most one base input are."""
    fiber = (np.arange(bil.shape[0]) >= n).astype(np.int64)
    f2 = fiber[:, None] + fiber[None, :]
    f3 = f2[:, :, None] + fiber
    if not (bil[f2 >= 2].any() or tri[f3 >= 2].any()):
        return np.ones(bil.shape, dtype=bool), np.ones(tri.shape, dtype=bool)
    return (np.broadcast_to((f2 >= 1)[..., None], bil.shape),
            np.broadcast_to((f3 >= 2)[..., None], tri.shape))


def _residual_rows(bil, tri, M, p, keep) -> np.ndarray:
    """The morphism residuals of matrices M against both products on the
    rows `keep` (`_affine_rows`), one row per matrix; an all-zero bracket
    has no residual.  The kept rows are taken where the residual lies,
    batch axis last, so only they are copied; the result is their
    transpose."""
    kept = [np.moveaxis(_morphism_residual(t, M, p), 0, -1)[mask]
            for t, mask in zip((bil, tri) if tri.any() else (bil,), keep)]
    return (kept[0] if len(kept) == 1 else np.concatenate(kept)).T


def _solve_stack(a: np.ndarray, b: np.ndarray, p: int) -> tuple:
    """Solve a[k] x = b[k] mod p for a stack a (K, rows, w), by one
    `eliminate` of the whole stack [a | b] with the columns of a taken last
    first.  Each pivot unknown is then an affine function of the free
    unknowns before it, so the solution coset in lexicographic order is its
    free unknowns in lexicographic order.

    Returns (consistent mask, x0, free): x0 (K, w) the solution with every
    free unknown zero; free (K, w, w) with free[k, u] the direction the coset
    moves in when free unknown u grows by one (zero where u is a pivot).
    Only meaningful where consistent."""
    k, rows, w = a.shape
    if not rows:  # no equation: one zero row leaves every unknown free
        a, b, rows = np.zeros((k, 1, w), dtype=a.dtype), np.zeros((k, 1), dtype=b.dtype), 1
    aug, rank, pivot_row = eliminate(np.concatenate([a[:, :, ::-1], b[:, :, None]], axis=2),
                                     w, p)
    consistent = ~np.any(aug[:, :, w] * (np.arange(rows) >= rank[:, None]), axis=1)
    is_pivot = pivot_row >= 0
    reduced = aug[np.arange(k)[:, None], np.maximum(pivot_row, 0)] * is_pivot[:, :, None]
    x0 = reduced[:, :, w]
    moves = (np.eye(w, dtype=np.int64) - reduced[:, :, :w].transpose(0, 2, 1)) \
        * ~is_pivot[:, :, None] % p
    return consistent, x0[:, ::-1], moves[:, ::-1, ::-1]


def _coset_members(pair: np.ndarray, x0: np.ndarray, free: np.ndarray, p: int):
    """(pair index, digit rows) of the members of each pair's solution coset
    x0[k] + span of free[k] (`_solve_stack`), pair by pair and each coset in
    lexicographic order, in slices of at most `_CHUNK` rows.  A member's
    free digits are its index in its coset in base p: the low ones are read
    from a table of at most `_CHUNK` digit strings, the rest by division.
    Each member is one contraction: its digits and a one, times the free
    directions of its pair and x0[k]."""
    if not len(pair):
        return
    is_free = free.any(axis=2)
    counts = is_free.sum(axis=1)
    width = int(counts.max())
    require_int64_headroom(1, 1, len(pair) * p ** width)
    # slot the free directions of each pair last before x0, in order of their
    # unknowns, so that a member's index is its free digits in base p
    slots = np.zeros((len(pair), width + 1, free.shape[2]), dtype=np.int64)
    kk, uu = np.nonzero(is_free)
    slots[kk, width - counts[kk] + np.cumsum(is_free, axis=1)[kk, uu] - 1] = free[kk, uu]
    slots[:, width] = x0
    sizes = p ** counts
    ends = np.cumsum(sizes)
    begins = ends - sizes
    low = 0
    while low < width and p ** (low + 1) <= _CHUNK:
        low += 1
    table = np.ones((p ** low, low + 1), dtype=np.int64)
    table[:, :low] = digit_block(0, p ** low, p, low, np.int64)
    high = p ** np.arange(width - low - 1, -1, -1, dtype=np.int64)
    for start in range(0, int(ends[-1]), _CHUNK):
        stop = min(start + _CHUNK, int(ends[-1]))
        first, last = np.searchsorted(ends, [start, stop - 1], side="right")
        run = slice(first, last + 1)
        k = np.repeat(np.arange(first, last + 1),
                      np.minimum(ends[run], stop) - np.maximum(begins[run], start))
        yield pair.take(k), contract_mod(
            "js,jsu->ju", p, _digits(np.arange(start, stop) - begins.take(k), table, high, p),
            slots.take(k, axis=0))


def _digits(index: np.ndarray, table: np.ndarray, high: np.ndarray, p: int) -> np.ndarray:
    """The rows of `table` (the p^low digit strings of width low, each
    followed by a one) at index mod p^low, after the digits of index // p^low
    at the weights `high`."""
    if not len(high):
        return table.take(index, axis=0)
    top, index = np.divmod(index, len(table))
    return np.concatenate([top[:, None] // high % p, table.take(index, axis=0)], axis=1)


def _morphism_residual(t: np.ndarray, M: np.ndarray, p: int) -> np.ndarray:
    """t(M x, M y[, M z]) - M t(x, y[, z]) mod p on the basis vectors, for
    each matrix of M (columns = basis images) and one fixed product t of
    arity 2 or 3 (the output axis last), as (len(M), inputs.., output).

    By the support of t, the batch axis last: for each input tuple where t
    is nonzero, the outer product of its rows of M is formed once and added,
    times each entry t(..)_e, into output e, and the entry times column e of
    M is subtracted there.  Every partial sum lies between minus the worst
    right side and the worst left side, which the type holds: exact."""
    k, n, arity = len(M), M.shape[1], t.ndim - 1
    dt = _headroom_dtype(n ** arity, arity + 1, p)
    r = np.ascontiguousarray(M.transpose(1, 2, 0), dtype=dt)  # r[a, x, k] = M[k, a, x]
    out = np.zeros((n,) + t.shape[:-1] + (k,), dtype=dt)    # out[output, inputs.., k]
    support = np.argwhere(t.any(axis=-1))
    for at in map(tuple, support):
        outer = r[at[0]]
        for a in at[1:]:
            outer = outer[..., None, :] * r[a]
        for e in np.flatnonzero(t[at]):
            v = int(t[at + (e,)])
            out[e] += v * outer
            out[(slice(None),) + at] -= v * r[:, e]
    if len(support):
        out -= out // p * p  # mod p, faster than np.remainder
    return out.swapaxes(0, -1)


def _morphism_fixed(bil: np.ndarray, tri: np.ndarray, M: np.ndarray, p: int) -> np.ndarray:
    """Mask of matrices (columns = basis images) commuting with both products
    of one fixed structure (`_morphism_residual` zero).  An all-zero bracket
    is skipped: both sides of its check are then zero."""
    ok = ~np.any(_morphism_residual(bil, M, p), axis=(1, 2, 3))
    if ok.any() and tri.any():
        idx = np.flatnonzero(ok)
        ok[idx] = ~np.any(_morphism_residual(tri, M[idx], p), axis=(1, 2, 3, 4))
    return ok


# ---------------------------------------------------------------------------
# representation censuses

def _rep_param_width(n, m):
    return (n + n * n + len(skew_pairs(n))) * m * m


def rep_param_batches(n: int, m: int, p: int, params: np.ndarray):
    """The (mu, theta, dd) action tensors, D skew, of candidate digit rows
    `params` (`candidate_blocks` of width `_rep_param_width(n, m)`).

    Returns (mu, theta, dd) arrays of shapes (N,n,m,m), (N,n,n,m,m),
    (N,n,n,m,m).
    """
    rows, mm = len(params), m * m
    mu = params[:, :n * mm].reshape(rows, n, m, m)
    theta = params[:, n * mm:(n + n * n) * mm].reshape(rows, n, n, m, m)
    dd = skew_from_params(params[:, (n + n * n) * mm:], n, (m, m), p)
    return mu, theta, dd


def validate_rep_mask(bil, tri, mu, theta, dd, p) -> np.ndarray:
    """Mask of (mu, theta, D) batches satisfying the six module identities."""
    return identity_mask(identities.REP, p, {"mu": mu, "theta": theta, "dd": dd},
                         {"bil": bil, "tri": tri})


def semidirect_arrays(bil, tri, mu, theta, dd, p):
    """Batched structure tensors of the semidirect sum for each action tuple:
    the glue of the zero cocycle over an abelian fiber, with the action
    arrays (leading batch axes that broadcast; None for a zero action) laid
    out as the `identities` tensors."""
    from .nonabelian import glue
    return glue(bil, tri, None, None, None, None, mu, theta, dd, p=p)


# ---------------------------------------------------------------------------
# exact linear algebra on residue arrays (delayed reduction: each contraction
# sums its products in int64 and reduces once, after a headroom check; every
# elimination is one `eliminate` run, pivots as in `Matrix.rref`)

def require_int64_headroom(terms: int, degree: int, p: int):
    """Raise unless a sum of `terms` products of `degree` residues fits int64."""
    _headroom_dtype(terms, degree, p)


def contract_mod(spec: str, p: int, *operands) -> np.ndarray:
    """`np.einsum(spec, *operands) % p` on residue arrays: the one residue
    contraction of the engines.  The spec names every output letter (no
    ellipsis) and no letter twice within one operand.

    Runs as the chain of `np.matmul` calls of `_contraction_plan`, cached per
    spec and shapes.  The products sum in int64 and are reduced mod p once,
    at the end, after one headroom check: the product of every summed size,
    times (p - 1) to the number of operands, must fit int64."""
    ops = [np.asarray(op, dtype=np.int64) for op in operands]
    summed, inside, steps, order = _contraction_plan(spec, tuple(op.shape for op in ops))
    require_int64_headroom(summed, len(ops), p)
    acc, *rest = [op.sum(axis=axes) if axes else op for op, axes in zip(ops, inside)]
    for op, (perm, shape, perm_op, shape_op, out) in zip(rest, steps):
        acc = np.matmul(acc.transpose(perm).reshape(shape),
                        op.transpose(perm_op).reshape(shape_op)).reshape(out)
    return (acc - acc // p * p).transpose(order)  # mod p, faster than np.remainder


@lru_cache(maxsize=256)
def _contraction_plan(spec: str, shapes: tuple) -> tuple:
    """How `contract_mod` runs `spec` on operands of `shapes`: (the product
    of every summed size, the axes each operand sums alone, the steps, the
    final axis order).  The operands are folded left to right.  Each step
    multiplies the running product, laid out as (batch, own, summed), by the
    next operand, laid out as (batch, summed, own), as one batched matmul:
    batch letters are in both and still needed, summed letters in both and
    needed nowhere after.  A step is (its axis order and 3-d shape for the
    running product, the same for the operand, the shape of the result)."""
    inputs, output = spec.split("->")
    terms = inputs.split(",")
    if len(terms) != len(shapes):
        raise ValueError(f"{spec}: {len(terms)} terms for {len(shapes)} operands")
    sizes = {}
    for term, shape in zip(terms, shapes):
        if len(term) != len(shape) or len(set(term)) != len(term):
            raise ValueError(f"{spec}: term {term!r} does not fit shape {shape}")
        for ch, size in zip(term, shape):
            if sizes.setdefault(ch, size) != size:
                raise ValueError(f"{spec}: letter {ch!r} has sizes {sizes[ch]} and {size}")
    if len(set(output)) != len(output) or not set(output) <= set(sizes):
        raise ValueError(f"{spec}: bad output letters")
    inside, letters = [], []
    for i, term in enumerate(terms):
        elsewhere = set(output).union(*terms[:i], *terms[i + 1:])
        inside.append(tuple(a for a, ch in enumerate(term) if ch not in elsewhere))
        letters.append([ch for ch in term if ch in elsewhere])
    acc, steps = letters[0], []
    for i, op in enumerate(letters[1:], 2):
        keep = set(output).union(*letters[i:])
        batch = [ch for ch in acc if ch in op and ch in keep]
        summed = [ch for ch in acc if ch in op and ch not in keep]
        own, own_op = [ch for ch in acc if ch not in op], [ch for ch in op if ch not in acc]
        steps.append((tuple(map(acc.index, batch + own + summed)),
                      tuple(prod(sizes[ch] for ch in g) for g in (batch, own, summed)),
                      tuple(map(op.index, batch + summed + own_op)),
                      tuple(prod(sizes[ch] for ch in g) for g in (batch, summed, own_op)),
                      tuple(sizes[ch] for ch in batch + own + own_op)))
        acc = batch + own + own_op
    return (prod(sizes[ch] for ch in sizes if ch not in output), tuple(inside),
            tuple(steps), tuple(map(acc.index, output)))


def eliminate(aug: np.ndarray, cols: int, p: int) -> tuple:
    """Gauss-Jordan elimination mod p of every member of a stack aug (K,
    rows, cols + extra) on its first `cols` columns, the extra columns
    carried along: the one mod-p elimination loop of the engines.  Pivots
    are chosen as in `Matrix.rref`: in each column, the first row at or
    below the rank with a nonzero entry, swapped up and scaled to one.

    Returns (reduced stack, rank (K,), pivot_row (K, cols): the row of each
    column's pivot, -1 where the column has none).  The pivots depend on
    the first `cols` columns alone, so the extra columns come out as T times
    their input, for the T that brings those columns to reduced echelon
    form."""
    require_int64_headroom(1, 2, p)
    aug = np.asarray(aug, dtype=np.int64) % p
    k, rows, _ = aug.shape
    pivot_row = np.full((k, cols), -1)
    rank = np.zeros(k, dtype=np.int64)
    below = np.arange(rows)[None, :]
    for c in range(cols):
        nonzero = (aug[:, :, c] != 0) & (below >= rank[:, None])
        has = np.flatnonzero(nonzero.any(axis=1))
        if not has.size:
            continue
        r, src = rank[has], nonzero[has].argmax(axis=1)
        pivot = aug[has, src]
        aug[has, src] = aug[has, r]
        pivot = pivot * _power_mod(pivot[:, c], p - 2, p)[:, None] % p
        aug[has, r] = pivot
        f = aug[has, :, c]
        f[np.arange(len(has)), r] = 0
        aug[has] = (aug[has] - f[:, :, None] * pivot[:, None, :]) % p
        pivot_row[has, c] = r
        rank[has] += 1
    return aug, rank, pivot_row


def inverse_mod(a: np.ndarray, p: int):
    """(invertible mask, inverses) of a stack a[k] of square residue
    matrices mod p, from one `eliminate` of [a | I]: a[k] is invertible
    where its rank is n.  The inverse of a singular matrix is zero.  Every
    inverse is confirmed: a[k] a^-1[k] = I."""
    a = np.asarray(a, dtype=np.int64) % p
    k, n = a.shape[0], a.shape[-1]
    eye = np.eye(n, dtype=np.int64)
    aug, rank, _ = eliminate(np.concatenate([a, np.broadcast_to(eye, (k, n, n))], axis=2),
                             n, p)
    ok = rank == n
    inv = aug[:, :, n:] * ok[:, None, None]
    if not (contract_mod("kij,kjl->kil", p, a[ok], inv[ok]) == eye).all():
        raise InternalConsistencyError("batched inverse failed verification")
    return ok, inv


def _power_mod(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """x^e mod p elementwise, by repeated squaring (x a residue array)."""
    out = np.ones_like(x)
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out

