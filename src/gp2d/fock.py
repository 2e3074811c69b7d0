"""Truncated excitation Fock space and its operator algebra at desk scale.

Operators act on the occupation-number states with total occupation at
most the particle cap N.  Each basis builds one table of its ladder
matrices (``FockBasis.ladder_table``) from the lowering matrices a_i:
a*_i is the transpose of a_i, and b*_i that of b_i = diag(sqrt((N -
number)/N)) a_i, the factor that makes the modified operators
endomorphisms of the truncated space.  The transpose drops any element
of a* that would push the total above N (the one deliberate deviation
from the untruncated algebra).  An operator is a sum of coefficients
times ladder products, which are walked through the table in batches of
consecutive products of equal length.

Every operator of the excitation-space argument conserves the total
momentum P = sum p n_p, so it is stored as dense blocks over the momentum
sectors of the basis (``FockBasis.sectors``); sectors of equal size are
stacked and handled by one batched call.  ``build_operator`` refuses a
product that does not conserve P; ``largest_entries`` sums the products
of any number of operators, in any momentum, over their nonzero entries
by one keyed sum.  A matrix given whole is one dense block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations, product

import numpy as np
from numpy.linalg import eigh

from .errors import ConfigError, ConsistencyError, SizeError
from .kernels import GPParameters, KernelTable, RenormPotential
from .lattice import TWO_PI
from .potentials import RadialPotential, fourier_transform_radial

HERMITIAN_TOL = 1e-12
DEFAULT_DIM_CAP = 200_000


def shell_modes(count: int = 4) -> tuple[tuple[int, int], ...]:
    """Small negation-closed integer mode shells (4, 8 or 12 points)."""
    first = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    second = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    third = [(2, 0), (0, 2), (-2, 0), (0, -2)]
    if count == 4:
        return tuple(first)
    if count == 8:
        return tuple(first + second)
    if count == 12:
        return tuple(first + second + third)
    raise ConfigError(f"unsupported shell size {count}")


def _occupations(cap: int, parts: int) -> np.ndarray:
    """Every row of ``parts`` occupation numbers with total at most cap,
    ordered by total, then lexicographically.

    Stars and bars: the rows of total t are the gaps between parts - 1
    bars placed in t + parts - 1 slots, and bar placements in
    lexicographic order give rows in lexicographic order.
    """
    blocks = []
    for total in range(cap + 1):
        slots = total + parts - 1
        count = math.comb(slots, parts - 1)
        bars = np.fromiter(
            chain.from_iterable(combinations(range(slots), parts - 1)),
            dtype=np.int64, count=count * (parts - 1)).reshape(count, -1)
        edges = np.hstack((np.full((count, 1), -1), bars,
                           np.full((count, 1), slots)))
        blocks.append(np.diff(edges, axis=1) - 1)
    return np.concatenate(blocks)


@dataclass(frozen=True, eq=False)
class Partition:
    """A split of the basis indices 0..dim-1 into blocks.

    Blocks of equal size s form one size class, stacked into a (count, s)
    index array; inside a block the indices keep basis order.  An
    operator on a partition stores one (count, s, s) stack per class and
    is zero outside its blocks.
    """

    dim: int
    classes: tuple

    @cached_property
    def slots(self) -> tuple:
        """Where basis index x sits in the stacks laid end to end, flat:
        entry (row r, column c) of a block is at first[c] + pos[r] *
        size[c].  Also returns the total flat length."""
        first = np.empty(self.dim, dtype=np.int64)
        pos = np.empty(self.dim, dtype=np.int64)
        size = np.empty(self.dim, dtype=np.int64)
        total = 0
        for idx in self.classes:
            count, s = idx.shape
            pos[idx] = np.arange(s)
            first[idx] = total + s * s * np.arange(count)[:, None] + pos[idx]
            size[idx] = s
            total += count * s * s
        return first, pos, size, total

    def split(self, flat: np.ndarray) -> tuple:
        """The (count, s, s) stacks of a flat buffer laid out as ``slots``."""
        out, at = [], 0
        for count, s in (idx.shape for idx in self.classes):
            out.append(flat[at:at + count * s * s].reshape(count, s, s))
            at += count * s * s
        return tuple(out)


@lru_cache(maxsize=None)
def whole_partition(dim: int) -> Partition:
    """The one-block partition of dim indices."""
    return Partition(dim, (np.arange(dim)[None, :],))


def partition_by(labels) -> Partition:
    """The partition of range(len(labels)) into blocks of equal label,
    in label order inside each size class of blocks, classes by size."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    _, first, sizes = np.unique(labels[order], return_index=True,
                                return_counts=True)
    by_size = np.argsort(sizes, kind="stable")
    _, cut = np.unique(sizes[by_size], return_index=True)
    return Partition(len(labels), tuple(
        order[first[group][:, None] + np.arange(sizes[group[0]])]
        for group in np.split(by_size, cut)[1:]))


# row block of each ladder kind in ``FockBasis.ladder_table``
_KIND = {"a": 0, "ad": 1, "b": 2, "bd": 3}


@dataclass(frozen=True)
class FockBasis:
    """Occupation basis over a negation-closed mode set, total <= cap.

    A state's key is its mixed-radix number sum_j n_j r^(m-1-j), radix r
    one above the largest occupation; a state is found by binary search
    of its key among the sorted keys of ``states``.
    """

    modes: tuple
    cap: int
    states: np.ndarray = field(repr=False)
    neg_mode: np.ndarray = field(repr=False)
    mode_p2: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mode_index(self, mode) -> int:
        try:
            return self.modes.index(tuple(mode))
        except ValueError:
            raise ConfigError(f"mode {mode} not in basis") from None

    @cached_property
    def _keys(self) -> tuple:
        m, radix = self.n_modes, int(self.states.max()) + 1
        if radix ** m > np.iinfo(np.int64).max:
            raise SizeError(f"occupation keys of {m} modes in radix "
                            f"{radix} overflow int64")
        weights = radix ** np.arange(m - 1, -1, -1, dtype=np.int64)
        keys = self.states @ weights
        order = np.argsort(keys)
        return weights, keys, order, keys[order]

    def find(self, keys) -> np.ndarray:
        """Basis index of each key; every key must be a state's."""
        _, _, order, ordered = self._keys
        at = np.minimum(np.searchsorted(ordered, keys), len(ordered) - 1)
        if not np.array_equal(ordered[at], keys):
            raise ConfigError("occupation not in the basis")
        return order[at]

    def totals(self) -> np.ndarray:
        return self.states.sum(axis=1)

    def vacuum(self) -> np.ndarray:
        """The unit vector at index 0: ``_occupations`` orders the states
        by total, so the vacuum is row 0."""
        v = np.zeros(self.dim)
        v[0] = 1.0
        return v

    @cached_property
    def sectors(self) -> Partition:
        """The basis states grouped by total momentum P = sum p n_p,
        sectors in lexicographic order of P: each P gets the integer code
        (Px - min Px) * span + (Py - min Py), span the range of Py."""
        P = self.states @ np.array(self.modes, dtype=np.int64)
        low = P.min(axis=0)
        span = int(P[:, 1].max() - low[1]) + 1
        return partition_by((P[:, 0] - low[0]) * span + (P[:, 1] - low[1]))

    @cached_property
    def ladder_table(self) -> tuple:
        """Every ladder matrix as one row of the (4 m + 1, dim) tables
        dest and amp, (kind, mode i) in row _KIND[kind] * m + i and the
        identity, the empty product, last: column c of a row's matrix
        holds amp[row, c] in row dest[row, c], and is empty when
        dest[row, c] < 0.  Also each row's nonzero columns, in order.

        All four kinds derive from the lowering matrices a_i, built for
        all modes at once; a*_i and b*_i are the transposes of a_i and
        b_i = diag(sqrt((N - number)/N)) a_i.  A creator's nonzero
        columns are the states below the cap, the first ones in order.
        """
        m, dim = self.n_modes, self.dim
        mode, col = np.nonzero(self.states.T)
        weights, keys = self._keys[:2]
        # lowering n_i lowers the key by the weight of digit i
        low = self.find(keys[col] - weights[mode])
        occ = np.sqrt(self.states[col, mode])
        damp = np.sqrt((self.cap - self.totals()) / self.cap)
        dest = np.full((4 * m + 1, dim), -1, dtype=np.int32)
        amp = np.zeros(dest.shape)
        dest[-1], amp[-1] = np.arange(dim), 1.0
        flat_dest, flat_amp = dest.reshape(-1), amp.reshape(-1)
        for kind, vals in (("a", occ), ("b", damp[low] * occ)):
            at = (_KIND[kind] * m + mode) * dim + col
            flat_dest[at], flat_amp[at] = low, vals
            # the adjoint, m rows further down, has the transposed entries
            at += m * dim + low - col
            flat_dest[at], flat_amp[at] = col, vals
        lowering = np.split(col.astype(np.int32),
                            np.cumsum(np.bincount(mode))[:-1])
        below = dest[-1, :np.count_nonzero(self.totals() < self.cap)]
        nonzero = (lowering + [below] * m) * 2 + [dest[-1]]
        return dest, amp, nonzero

    @cached_property
    def ladder_rows(self) -> dict:
        """The ``ladder_table`` row of each ladder (kind, mode index)."""
        m = self.n_modes
        return {(kind, i): k * m + i for kind, k in _KIND.items()
                for i in range(m)}


def build_basis(modes, cap: int) -> FockBasis:
    modes = tuple(tuple(int(c) for c in m) for m in modes)
    if cap < 1:
        raise ConfigError("particle cap must be at least 1")
    mode_set = set(modes)
    if len(mode_set) != len(modes):
        raise ConfigError(f"mode set repeats a mode: {modes}")
    for m in modes:
        if m == (0, 0):
            raise ConfigError("the zero mode does not belong to the "
                              "excitation space")
        if (-m[0], -m[1]) not in mode_set:
            raise ConfigError(f"mode set not closed under negation: {m}")
    m = len(modes)
    dim = math.comb(cap + m, m)
    if dim > DEFAULT_DIM_CAP:
        raise SizeError(f"basis dimension {dim} exceeds cap "
                        f"{DEFAULT_DIM_CAP}")
    neg = np.array([modes.index((-a, -b)) for a, b in modes])
    p2 = TWO_PI ** 2 * np.array([a * a + b * b for a, b in modes],
                                dtype=float)
    return FockBasis(modes, cap, _occupations(cap, m), neg, p2)


class LinearOperator:
    """Operator over a FockBasis with its symbol tag, stored as one
    (count, s, s) stack of dense blocks per size class of a Partition.

    LinearOperator(mat, tag, hermitian) holds a dense matrix as the
    one-block partition; ``from_blocks`` takes the stacks of any
    partition.  ``mat`` assembles the dense matrix when asked for it.
    """

    def __init__(self, mat, tag: str, hermitian: bool = False):
        mat = np.asarray(mat)
        self._set(whole_partition(mat.shape[0]), (mat[None],), tag,
                  hermitian)

    @classmethod
    def from_blocks(cls, part: Partition, blocks, tag: str,
                    hermitian: bool = False) -> "LinearOperator":
        op = cls.__new__(cls)
        op._set(part, tuple(blocks), tag, hermitian)
        return op

    def _set(self, part, blocks, tag, hermitian):
        self.part, self.blocks = part, blocks
        self.tag, self.hermitian = tag, hermitian
        if hermitian:
            r = self.residual()
            if r > HERMITIAN_TOL:
                raise ConsistencyError(
                    f"{tag}: hermiticity residual {r:.3e}")

    @property
    def dim(self) -> int:
        return self.part.dim

    @property
    def mat(self) -> np.ndarray:
        """The dense matrix, assembled from the blocks on every call (the
        one-block partition hands out its matrix itself)."""
        if self.part is whole_partition(self.dim):
            return self.blocks[0][0]
        out = np.zeros((self.dim, self.dim),
                       dtype=np.result_type(*self.blocks))
        for idx, blk in zip(self.part.classes, self.blocks):
            out[idx[:, :, None], idx[:, None, :]] = blk
        return out

    def residual(self, sign: float = 1.0) -> float:
        """Hermiticity residual over the blocks (antihermiticity for
        sign -1)."""
        return max(hermiticity_residual(b, sign) for b in self.blocks)

    def lowest(self, eigvalsh, eigh) -> tuple[float, np.ndarray]:
        """Smallest eigenvalue over all blocks and its eigenvector in
        basis order.  ``eigvalsh`` (the values alone, one batched call
        per size class) picks the block, the first of the smallest in
        class order; ``eigh`` solves that block alone and gives the
        value and the vector.  Both are numpy's batched Hermitian
        eigensolvers, values ascending."""
        best = None
        for c, blk in enumerate(self.blocks):
            low = eigvalsh(blk)[:, 0]
            k = int(np.argmin(low))
            if best is None or low[k] < best[0]:
                best = low[k], c, k
        _, c, k = best
        vals, vecs = eigh(self.blocks[c][k])
        vec = np.zeros(self.dim, dtype=vecs.dtype)
        vec[self.part.classes[c][k]] = vecs[:, 0]
        return float(vals[0]), vec


def hermiticity_residual(mat: np.ndarray, sign: float = 1.0) -> float:
    """max |mat - sign mat^*| of a matrix or a stack of matrices."""
    return float(np.max(np.abs(mat - sign * np.swapaxes(mat, -1, -2).conj())))


def common(*ops) -> tuple:
    """The operators on one partition: as they are when they share one,
    else as dense matrices on the one-block partition."""
    if len({op.dim for op in ops}) > 1:
        raise ConfigError("operator dimensions differ")
    if all(op.part is ops[0].part for op in ops):
        return ops
    return tuple(LinearOperator(op.mat, op.tag, op.hermitian) for op in ops)


def combine(terms, tag: str, hermitian: bool = False,
            diagonal: np.ndarray | None = None) -> LinearOperator:
    """diag(diagonal), when a per-state diagonal is given, plus the sum of
    coef * op over the (coef, op) pairs, added left to right, block by
    block on the operators' common partition."""
    coefs, ops = zip(*terms)
    ops = common(*ops)
    part = ops[0].part
    first, pos, size, total = part.slots
    flat = np.zeros(total, dtype=np.result_type(
        *coefs, *(op.blocks[0] for op in ops)))
    if diagonal is not None:
        flat[first + pos * size] = diagonal
    blocks = part.split(flat)
    for coef, op in zip(coefs, ops):
        for acc, b in zip(blocks, op.blocks):
            acc += coef * b
    return LinearOperator.from_blocks(part, blocks, tag, hermitian)


# momentum a ladder adds to a state: +p for a creator, -p for an annihilator
_CHARGE = {"a": -1, "b": -1, "ad": 1, "bd": 1}

# entries a batch of the ladder walk starts from, at most (a product with
# more is walked alone)
_BATCH_ENTRIES = 4096


def _conserves_momentum(basis: FockBasis, ops) -> bool:
    px = py = 0
    for kind, i in ops:
        if kind not in _CHARGE:
            raise ConfigError(f"unknown ladder kind {kind!r}")
        px += _CHARGE[kind] * basis.modes[i][0]
        py += _CHARGE[kind] * basis.modes[i][1]
    return px == py == 0


def _batches(basis: FockBasis, terms):
    """The products in runs of consecutive products of equal length, cut
    where the entries they start from would pass _BATCH_ENTRIES: lists
    of (coef, ``ladder_table`` rows of the factors).  The empty product
    is the identity, the table's last row."""
    row_of, nonzero = basis.ladder_rows, basis.ladder_table[2]
    identity = [len(nonzero) - 1]
    run, size = [], 0
    for coef, ops in terms:
        try:
            rows = [row_of[kind, i] for kind, i in ops] or identity
        except KeyError as exc:
            raise ConfigError(f"unknown ladder {exc.args[0]}") from None
        n = len(nonzero[rows[-1]])
        if run and (len(rows) != len(run[0][1])
                    or size + n > _BATCH_ENTRIES):
            yield run
            run, size = [], 0
        run.append((coef, rows))
        size += n
    if run:
        yield run


def _entries(basis: FockBasis, operators):
    """(owner, rows, cols, coef * amp) of the nonzero entries of the
    operators, each given as (terms, diagonal or None), owner the index
    of each entry's operator: the products of all operators in one walk,
    one quadruple per batch (``_batches``) in product order, each
    product in column order, then each operator's diagonal.  Every
    factor has at most one nonzero per column, so a product follows
    each column's single path, rightmost factor first, from the nonzero
    columns of that factor."""
    terms = [term for ts, _ in operators for term in ts]
    owner_of = np.repeat(np.arange(len(operators)),
                         [len(ts) for ts, _ in operators])
    dest, amp_of, nonzero = basis.ladder_table
    dest, amp_of = dest.ravel(), amp_of.ravel()
    done = 0
    for run in _batches(basis, terms):
        coefs, rows = zip(*run)
        start = [nonzero[r[-1]] for r in rows]
        term = np.repeat(np.arange(len(run)), [len(c) for c in start])
        offsets = np.array(rows) * basis.dim
        cols = to = np.concatenate(start)
        amp = 1.0
        for k in reversed(range(offsets.shape[1])):
            at = offsets[:, k][term] + to
            to, amp = dest[at], amp * amp_of[at]
            keep = to >= 0
            if not keep.all():
                term, cols, to, amp = (term[keep], cols[keep], to[keep],
                                       amp[keep])
        yield owner_of[done + term], to, cols, np.array(coefs)[term] * amp
        done += len(run)
    start = np.arange(basis.dim)
    for owner, (_, diagonal) in enumerate(operators):
        if diagonal is not None:
            yield np.full(basis.dim, owner), start, start, diagonal


def _products(basis: FockBasis, terms, diagonal=None):
    """(rows, cols, coef * amp) of one operator's nonzero entries, as
    ``_entries`` walks them."""
    for _, rows, cols, vals in _entries(basis, [(terms, diagonal)]):
        yield rows, cols, vals


def build_operator(basis: FockBasis, terms, tag: str,
                   hermitian: bool = False,
                   diagonal: np.ndarray | None = None) -> LinearOperator:
    """Assemble sum of coefficient * product of ladder matrices, plus
    diag(diagonal) when a per-state diagonal is given.

    A product is a list of (kind, mode index) pairs, leftmost written
    first; kinds are 'a', 'ad', 'b' and 'bd'.  Every product conserves
    total momentum, and the operator is stored in the momentum sectors.
    Entries are added in product order (``np.add.at`` adds in order).
    """
    terms = [(coef, ops) for coef, ops in terms if coef != 0.0]
    if not all(_conserves_momentum(basis, ops) for _, ops in terms):
        raise ConfigError(f"{tag}: a product does not conserve momentum")
    part = basis.sectors
    first, pos, size, total = part.slots
    flat = np.zeros(total)
    for rows, cols, vals in _products(basis, terms, diagonal):
        np.add.at(flat, first[cols] + pos[rows] * size[cols], vals)
    return LinearOperator.from_blocks(part, part.split(flat), tag, hermitian)


def _largest_sums(dim: int, count: int, entries) -> np.ndarray:
    """Largest |entry| of each of count dim x dim matrices whose entries
    are the (owner, rows, cols, vals) quadruples: summed by the int64 key
    (owner, row, col) in the order given (``np.bincount`` adds in
    order), then the largest |sum| per owner, 0 for one with none."""
    if count * dim * dim > np.iinfo(np.int64).max:
        raise SizeError(f"keys of {count} matrices of dimension {dim} "
                        f"overflow int64")
    out = np.zeros(count)
    parts = tuple(zip(*entries))
    if not parts:
        return out
    owner, rows, cols, vals = map(np.concatenate, parts)
    keys = (owner.astype(np.int64) * dim + rows) * dim + cols
    uniq, at = np.unique(keys, return_inverse=True)
    sums = np.abs(np.bincount(at, weights=vals))
    # the keys are sorted, so each owner's sums are one run
    owners = uniq // (dim * dim)
    first = np.flatnonzero(np.diff(owners, prepend=-1))
    out[owners[first]] = np.maximum.reduceat(sums, first)
    return out


def largest_entries(basis: FockBasis, operators) -> np.ndarray:
    """Largest |entry| of each operator ``build_operator`` would assemble
    from (terms, diagonal or None), products in any momentum: one walk
    over all their products (``_entries``) and one keyed sum over their
    nonzero entries (``_largest_sums``)."""
    return _largest_sums(basis.dim, len(operators),
                         _entries(basis, operators))


def ladder(basis: FockBasis, mode, kind: str) -> LinearOperator:
    mat = np.zeros((basis.dim, basis.dim))
    for rows, cols, vals in _products(
            basis, [(1.0, [(kind, basis.mode_index(mode))])]):
        mat[rows, cols] = vals
    return LinearOperator(mat, f"{kind}_{mode}")


def number_operator(basis: FockBasis) -> LinearOperator:
    return build_operator(basis, [], "N+", hermitian=True,
                          diagonal=basis.totals().astype(float))


def _per_total(basis: FockBasis, func) -> np.ndarray:
    """func(n) at each state's total occupation n, one call per total."""
    return np.array([func(n) for n in range(basis.cap + 1)],
                    dtype=float)[basis.totals()]


def diagonal_in_total(basis: FockBasis, func, tag: str) -> LinearOperator:
    return build_operator(basis, [], tag, hermitian=True,
                          diagonal=_per_total(basis, func))


def _kinetic(basis: FockBasis) -> np.ndarray:
    """The kinetic energy sum p^2 n_p of each state."""
    return (basis.states * basis.mode_p2).sum(axis=1)


def kinetic_operator(basis: FockBasis) -> LinearOperator:
    return build_operator(basis, [], "K", hermitian=True,
                          diagonal=_kinetic(basis))


def _vhat(pot: RadialPotential, params: GPParameters, vecs) -> np.ndarray:
    """Vhat(2 pi v / e^N) at integer vectors v: one transform over their
    distinct |v|^2."""
    n2 = (np.asarray(vecs) ** 2).sum(axis=-1)
    uniq, inv = np.unique(n2, return_inverse=True)
    k = TWO_PI * np.sqrt(uniq) * math.exp(-params.N)
    return fourier_transform_radial(pot, k)[inv]


@lru_cache(maxsize=None)
def _potential_products(modes: tuple) -> tuple:
    """V_N's product structure on a mode set: the shift r of each (p, q, r)
    term, the merged products in the order first met and the index of
    each term's product among them.

    Creators commute with creators and annihilators with annihilators,
    also at the cap, where both orders drop at the same total.  So the
    products with one sorted creator pair and one sorted annihilator pair
    are one product, whose coefficient is their sum.
    """
    index = {m: i for i, m in enumerate(modes)}
    shifts, merged, term = [], {}, []
    for (ip, p), (iq, q), (ipr, pr) in product(enumerate(modes), repeat=3):
        r = (pr[0] - p[0], pr[1] - p[1])            # pr = p + r
        # q + r, never the zero mode, which no mode set holds
        iqr = index.get((q[0] + r[0], q[1] + r[1]))
        if iqr is not None:
            shifts.append(r)
            key = (min(ipr, iq), max(ipr, iq), min(iqr, ip), max(iqr, ip))
            term.append(merged.setdefault(key, len(merged)))
    return np.array(shifts), tuple(merged), np.array(term)


def _potential_terms(basis: FockBasis, pot: RadialPotential,
                     params: GPParameters) -> list:
    """The merged ladder products of V_N (see ``potential_operator``);
    ``np.bincount`` adds each product's coefficients in term order."""
    shifts, products, term = _potential_products(basis.modes)
    coefs = np.bincount(term, weights=0.5 * _vhat(pot, params, shifts),
                        minlength=len(products))
    return [(coef, [("ad", i), ("ad", j), ("a", k), ("a", l)])
            for coef, (i, j, k, l) in zip(coefs, products)]


def potential_operator(basis: FockBasis, pot: RadialPotential,
                       params: GPParameters) -> LinearOperator:
    """Quartic interaction, restricted to mode-closed index quadruples.

    (1/2) sum over p, q, r with r != -p, -q of Vhat(r/e^N)
    a*_{p+r} a*_q a_{q+r} a_p, keeping terms whose four indices all lie in
    the mode set.
    """
    return build_operator(basis, _potential_terms(basis, pot, params),
                          "V_N", hermitian=True)


def hamiltonian_pieces(basis: FockBasis, pot: RadialPotential,
                       params: GPParameters) -> dict:
    """The kinetic/potential pair and the four conjugated-Hamiltonian parts."""
    N = params.N
    K = kinetic_operator(basis)
    VN = potential_operator(basis, pot, params)
    v0 = fourier_transform_radial(pot, 0.0)

    L0 = diagonal_in_total(
        basis,
        lambda n: 0.5 * v0 * ((N - 1) * (N - n) + n * (N - n)),
        "L0")

    vhat = _vhat(pot, params, basis.modes)
    terms2 = []
    for i, vm in enumerate(vhat):
        terms2.append((N * vm, [("bd", i), ("b", i)]))
        terms2.append((-vm, [("ad", i), ("a", i)]))
    L2 = build_operator(
        basis, terms2 + _pair_terms(basis, [N * vm for vm in vhat], 1.0),
        "L2", hermitian=True, diagonal=_kinetic(basis))

    L3 = build_operator(basis, _cubic_terms(basis, vhat, math.sqrt(N)), "L3",
                        hermitian=True)
    return {"K": K, "V_N": VN, "L0": L0, "L2": L2, "L3": L3, "L4": VN}


def _pair_terms(basis: FockBasis, weights, sign: float) -> list:
    """(1/2) sum over i of weights[i] (b*_i b*_{-i} + sign b_i b_{-i}).

    Hermitian for sign +1, antihermitian for sign -1.
    """
    terms = []
    for i, w in enumerate(weights):
        ineg = int(basis.neg_mode[i])
        terms.append((0.5 * w, [("bd", i), ("bd", ineg)]))
        terms.append((sign * 0.5 * w, [("b", i), ("b", ineg)]))
    return terms


def _cubic_terms(basis: FockBasis, weights, prefactor: float,
                 sign: float = 1.0) -> list:
    """prefactor * sum over p, q of w_p [b*_{p+q} a*_{-p} a_q
    + sign (b*_{p+q} a*_{-p} a_q)^*], w_p = weights[index of p],

    with p, q and p+q all in the mode set and p + q != 0.  Hermitian for
    sign +1, antihermitian for sign -1.
    """
    modes = basis.modes
    mode_set = {m: i for i, m in enumerate(modes)}
    terms = []
    for ip, p in enumerate(modes):
        wp = weights[ip]
        ineg = int(basis.neg_mode[ip])
        for iq, q in enumerate(modes):
            s = (p[0] + q[0], p[1] + q[1])
            if s == (0, 0):
                continue
            isum = mode_set.get(s)
            if isum is None:
                continue
            terms.append((prefactor * wp,
                          [("bd", isum), ("ad", ineg), ("a", iq)]))
            terms.append((sign * (prefactor * wp),
                          [("ad", iq), ("a", ineg), ("b", isum)]))
    return terms


def generators(basis: FockBasis, table: KernelTable,
               params: GPParameters) -> dict:
    """Quadratic generator B and cubic generator A from the eta kernel."""
    eta = [table.eta_at(*m) for m in basis.modes]
    B = build_operator(basis, _pair_terms(basis, eta, -1.0), "B")
    A = build_operator(
        basis, _cubic_terms(basis, eta, 1.0 / math.sqrt(params.N), -1.0), "A")
    for gen in (B, A):
        r = gen.residual(-1.0)
        if r > HERMITIAN_TOL:
            raise ConsistencyError(f"{gen.tag} not antihermitian ({r:.3e})")
    return {"B": B, "A": A}


def expm(g: np.ndarray) -> np.ndarray:
    """exp(g) of a stack of antihermitian matrices: with 1j g = V diag(w)
    V^H Hermitian, exp(g) = V diag(exp(-1j w)) V^H; real when g is."""
    w, v = eigh(1j * g)
    u = (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()
    return u.real if np.isrealobj(g) else u


def conjugate(op: LinearOperator, gen: LinearOperator) -> LinearOperator:
    """e^{-gen} op e^{gen} with certified unitarity of e^{gen}, block by
    block on the common partition of op and gen."""
    op, gen = common(op, gen)
    r = gen.residual(-1.0)
    if r > HERMITIAN_TOL:
        raise ConsistencyError(f"generator not antihermitian ({r:.3e})")
    blocks, unit = [], 0.0
    for blk, g in zip(op.blocks, gen.blocks):
        U = expm(g)
        Uh = np.swapaxes(U, -1, -2).conj()
        unit = max(unit, float(np.max(np.abs(Uh @ U - np.eye(U.shape[-1])))))
        blocks.append(Uh @ blk @ U)
    if unit > 1e-10:
        raise ConsistencyError(f"exponential not unitary ({unit:.3e})")
    return LinearOperator.from_blocks(op.part, blocks,
                                      f"conj({op.tag};{gen.tag})",
                                      hermitian=op.hermitian)


def _omega(basis: FockBasis, renorm: RenormPotential) -> list:
    """omega_hat at the modes: the weights of R_eff's pair and cubic
    terms."""
    return [float(renorm.omega_at(TWO_PI * math.hypot(*m)))
            for m in basis.modes]


def _r_eff(basis: FockBasis, renorm: RenormPotential, params: GPParameters,
           potential_terms: list, kinetic: np.ndarray) -> LinearOperator:
    """R_eff in one build: V_N's products plus the omega_hat pair and
    cubic products, with diagonal K + R_diag."""
    N = params.N
    w0 = renorm.omega0
    omega = _omega(basis, renorm)
    R_diag = _per_total(
        basis,
        lambda n: 0.5 * (N - 1) * w0 * (1 - n / N)
        + 0.5 * w0 * n * (1 - n / N) + w0 * n * (1 - n / N))
    terms = (potential_terms + _pair_terms(basis, omega, 1.0)
             + _cubic_terms(basis, omega, 1.0 / math.sqrt(N)))
    return build_operator(basis, terms, "R_eff", hermitian=True,
                          diagonal=kinetic + R_diag)


def effective_hamiltonians(basis: FockBasis, renorm: RenormPotential,
                           pot: RadialPotential,
                           params: GPParameters) -> dict:
    """The cubically renormalized R_eff and H_N = K + V_N, the two
    operators of lower-bound, one build each from V_N's products and the
    kinetic diagonal, both computed once.  ``r_effective_hamiltonian``
    builds R_eff alone.
    """
    terms, kinetic = _potential_terms(basis, pot, params), _kinetic(basis)
    return {"R_eff": _r_eff(basis, renorm, params, terms, kinetic),
            "H_N": build_operator(basis, terms, "H_N", hermitian=True,
                                  diagonal=kinetic)}


def r_effective_hamiltonian(basis: FockBasis, renorm: RenormPotential,
                            pot: RadialPotential,
                            params: GPParameters) -> LinearOperator:
    """R_eff as ``effective_hamiltonians`` builds it, without H_N: all
    that energy-sweep and fock-audit read."""
    return _r_eff(basis, renorm, params, _potential_terms(basis, pot, params),
                  _kinetic(basis))
