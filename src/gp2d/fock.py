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

Every coefficient of the excitation-space operators depends on |p| or
|p - q| alone, so they commute with the signed permutations of (x, y)
that map the mode set onto itself, and such a symmetry g maps the block
of sector P onto that of gP by a permutation of states.
``build_operator`` checks that an operator commutes with the group and
then walks and stores one sector per orbit (``FockBasis.orbits``); the
eigensolves, certificates and conjugations work on the stored blocks,
whose spectra are the operator's, and ``LinearOperator.mat`` and
``common`` rebuild the other sectors.  An operator that lacks the
symmetry is stored on every sector.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import chain, combinations, product
from typing import NamedTuple

import numpy as np
from numpy.linalg import eigh

from .errors import ConfigError, ConsistencyError, SizeError
from .kernels import GPParameters, KernelTable, RenormPotential
from .lattice import MomentumLattice, TWO_PI
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


class Partition:
    """A split of the basis indices 0..dim-1 into blocks.

    Blocks of equal size s form one size class, stacked into a (count, s)
    index array; inside a block the indices keep basis order.  An
    operator on a partition stores one (count, s, s) stack per class and
    is zero outside its blocks.

    An orbit partition stores one block per orbit of a group of state
    permutations that the operators on it commute with.  ``full`` is the
    partition of all blocks, and ``source`` maps every basis index to
    the stored index that stands for it, row and column alike: entry
    (x, y) of an operator is its stored entry (source[x], source[y]).
    """

    def __init__(self, dim: int, classes: tuple,
                 full: Partition | None = None,
                 source: np.ndarray | None = None):
        self.dim, self.classes = dim, classes
        self.full, self.source = full, source

    @cached_property
    def slots(self) -> tuple:
        """Where basis index x sits in the stacks laid end to end, flat:
        entry (row r, column c) of a block is at first[c] + pos[r] *
        size[c].  Also returns the total flat length.  Indices outside
        the stored blocks get slot 0."""
        first = np.zeros(self.dim, dtype=np.int64)
        pos = np.zeros(self.dim, dtype=np.int64)
        size = np.zeros(self.dim, dtype=np.int64)
        total = 0
        for idx in self.classes:
            count, s = idx.shape
            pos[idx] = np.arange(s)
            first[idx] = total + s * s * np.arange(count)[:, None] + pos[idx]
            size[idx] = s
            total += count * s * s
        return first, pos, size, total

    @cached_property
    def stored(self) -> np.ndarray:
        """The indices in the stored blocks, ascending."""
        return np.sort(np.concatenate([idx.ravel() for idx in self.classes]))

    def split(self, flat: np.ndarray) -> tuple:
        """The (count, s, s) stacks of a flat buffer laid out as ``slots``."""
        out, at = [], 0
        for count, s in (idx.shape for idx in self.classes):
            out.append(flat[at:at + count * s * s].reshape(count, s, s))
            at += count * s * s
        return tuple(out)

    def expand(self, blocks) -> tuple:
        """The stacks of ``full`` rebuilt from the stored stacks."""
        flat = np.concatenate([blk.reshape(-1) for blk in blocks])
        first, pos, size, _ = self.slots
        out = []
        for idx in self.full.classes:
            src = self.source[idx]
            out.append(flat[first[src][:, None, :]
                            + pos[src][:, :, None] * size[src][:, None, :]])
        return tuple(out)

    def invariant(self, diagonal: np.ndarray) -> bool:
        """Whether a per-state diagonal is the same, to within
        _SYMMETRY_ULPS, on every index as on the stored index that stands
        for it; always on a partition that stores all its blocks."""
        return self.full is None or _close(diagonal[self.source], diagonal)


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

# the signed permutations (x, y) -> (a x + b y, c x + d y) as (a, b, c, d),
# the identity first
_SIGNED_PERMUTATIONS = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1),
                        (0, 1, -1, 0), (1, 0, 0, -1), (-1, 0, 0, 1),
                        (0, 1, 1, 0), (0, -1, -1, 0))

# how far, in units of the larger magnitude's rounding, two coefficients
# or diagonal values an operator's symmetry maps onto each other may lie
# apart: np.bincount sums V_N's merged coefficients in term order, so
# some differ from their images by one ulp
_SYMMETRY_ULPS = 4


def _close(a, b) -> bool:
    """Whether a and b agree elementwise to _SYMMETRY_ULPS."""
    return np.array_equal(a, b) or bool(np.all(
        np.abs(a - b) <= _SYMMETRY_ULPS * np.finfo(float).eps
        * np.maximum(np.abs(a), np.abs(b))))


@lru_cache(maxsize=None)
def _symmetry(modes: tuple) -> np.ndarray:
    """The signed permutations of (x, y) that map the mode set onto
    itself, as permutations of the mode indices, the identity first."""
    index = {m: i for i, m in enumerate(modes)}
    group = [[index.get((a * x + b * y, c * x + d * y)) for x, y in modes]
             for a, b, c, d in _SIGNED_PERMUTATIONS]
    return np.array([g for g in group if None not in g])


class FockBasis:
    """Occupation basis over a negation-closed mode set, total <= cap.

    A state's key is its mixed-radix number sum_j n_j r^(m-1-j), radix r
    one above the largest occupation; a state is found by binary search
    of its key among the sorted keys of ``states``.
    """

    def __init__(self, modes: tuple, cap: int, states: np.ndarray,
                 neg_mode: np.ndarray, mode_p2: np.ndarray):
        self.modes, self.cap, self.states = modes, cap, states
        self.neg_mode, self.mode_p2 = neg_mode, mode_p2

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
    def _codes(self) -> np.ndarray:
        """Each state's total momentum P = sum p n_p as an integer code
        (Px - min Px) * span + (Py - min Py), span the range of Py, so
        that codes order the P lexicographically."""
        P = self.states @ np.array(self.modes, dtype=np.int64)
        low = P.min(axis=0)
        span = int(P[:, 1].max() - low[1]) + 1
        return (P[:, 0] - low[0]) * span + (P[:, 1] - low[1])

    @cached_property
    def sectors(self) -> Partition:
        """The basis states grouped by total momentum P, sectors in
        lexicographic order of P."""
        return partition_by(self._codes)

    @cached_property
    def orbits(self) -> Partition:
        """The sectors as an orbit partition of the mode set's symmetry
        group (``_symmetry``): one stored sector per orbit of P, the
        first in class order.

        A symmetry g maps mode i to mode g(i) and state n to the state
        with occupation n_i at g(i), whose key is sum_i n_i W[g(i)];
        every ladder a_i becomes a_g(i), so an operator that commutes with
        g has on sector gP the block of sector P with its states mapped by
        g.  The stored index of a state is its image under the first
        symmetry that maps its sector to the first one of the orbit.
        """
        weights = self._keys[0][_symmetry(self.modes)]
        full, codes = self.sectors, self._codes
        members = np.concatenate([idx.reshape(-1) for idx in full.classes])
        head = np.concatenate([idx[:, 0] for idx in full.classes])
        sizes = np.concatenate([np.full(len(idx), idx.shape[1])
                                for idx in full.classes])
        reached = codes[self.find(weights @ self.states[head].T)]
        g = np.empty(self.dim, dtype=np.int64)
        g[members] = np.repeat(np.argmin(reached, axis=0), sizes)
        source = self.find(np.einsum("ij,ij->i", self.states, weights[g]))
        return Partition(self.dim, tuple(idx[source[idx[:, 0]] == idx[:, 0]]
                                         for idx in full.classes),
                         full, source)

    @cached_property
    def orbit_starts(self) -> list:
        """Each ``ladder_table`` row's nonzero columns in the stored
        sectors of ``orbits``: where a walk of their blocks starts."""
        keep = self.orbits.source == np.arange(self.dim)
        return [cols[keep[cols]] for cols in self.ladder_table[2]]

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


def check_dim(n_modes: int, cap: int) -> None:
    """Refuse an excitation space of n_modes modes at particle cap whose
    dimension C(cap + n_modes, n_modes) exceeds DEFAULT_DIM_CAP."""
    dim = math.comb(cap + n_modes, n_modes)
    if dim > DEFAULT_DIM_CAP:
        raise SizeError(f"basis dimension {dim} exceeds cap "
                        f"{DEFAULT_DIM_CAP}")


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
    check_dim(m, cap)
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
        if self.part.full is not None:
            return self.expanded().mat
        if self.part is whole_partition(self.dim):
            return self.blocks[0][0]
        out = np.zeros((self.dim, self.dim),
                       dtype=np.result_type(*self.blocks))
        for idx, blk in zip(self.part.classes, self.blocks):
            out[idx[:, :, None], idx[:, None, :]] = blk
        return out

    def expanded(self) -> LinearOperator:
        """The operator with all its blocks stored: itself, or on an
        orbit partition its blocks rebuilt on the full partition."""
        if self.part.full is None:
            return self
        op = LinearOperator.from_blocks(self.part.full,
                                        self.part.expand(self.blocks), self.tag)
        op.hermitian = self.hermitian
        return op

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
    else on the full partition when that is one they all expand to (see
    ``LinearOperator.expanded``), else as dense matrices on the one-block
    partition."""
    if len({op.dim for op in ops}) > 1:
        raise ConfigError("operator dimensions differ")
    if all(op.part is ops[0].part for op in ops):
        return ops
    full = tuple(op.expanded() for op in ops)
    if all(op.part is full[0].part for op in full):
        return full
    return tuple(LinearOperator(op.mat, op.tag, op.hermitian) for op in ops)


def combine(terms, tag: str, hermitian: bool = False,
            diagonal: np.ndarray | None = None) -> LinearOperator:
    """diag(diagonal), when a per-state diagonal is given, plus the sum of
    coef * op over the (coef, op) pairs, added left to right, block by
    block on the operators' common partition; on its full partition when
    that is an orbit partition whose symmetries the diagonal lacks."""
    coefs, ops = zip(*terms)
    ops = common(*ops)
    if diagonal is not None and not ops[0].part.invariant(diagonal):
        ops = tuple(op.expanded() for op in ops)
    part = ops[0].part
    first, pos, size, total = part.slots
    flat = np.zeros(total, dtype=np.result_type(
        *coefs, *(op.blocks[0] for op in ops)))
    if diagonal is not None:
        at = part.stored
        flat[first[at] + pos[at] * size[at]] = diagonal[at]
    blocks = part.split(flat)
    for coef, op in zip(coefs, ops):
        for acc, b in zip(blocks, op.blocks):
            acc += coef * b
    return LinearOperator.from_blocks(part, blocks, tag, hermitian)


# entries a batch of the ladder walk starts from, at most (a product with
# more is walked alone)
_BATCH_ENTRIES = 4096


class _Terms(NamedTuple):
    """Coefficients and products, each product as the ``ladder_table``
    rows of its factors, leftmost first, and padded on the right to one
    length with the row number 4 m + 1, past the table; the empty product
    is the identity, the table's last row."""

    coefs: np.ndarray
    rows: np.ndarray
    lengths: np.ndarray


def _terms(basis: FockBasis, terms) -> _Terms:
    """The (coef, product) terms as ``_Terms``."""
    row_of, m = basis.ladder_rows, basis.n_modes
    lengths = np.array([len(ops) for _, ops in terms], dtype=np.int64)
    try:
        flat = np.fromiter((row_of[kind, i] for _, ops in terms
                            for kind, i in ops), dtype=np.int64,
                           count=int(lengths.sum()))
    except KeyError as exc:
        raise ConfigError(f"unknown ladder {exc.args[0]}") from None
    rows = np.full((len(terms), max(lengths.max(initial=1), 1)), 4 * m + 1,
                   dtype=np.int64)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = flat
    empty = lengths == 0
    rows[empty, 0], lengths[empty] = 4 * m, 1
    return _Terms(np.fromiter((coef for coef, _ in terms), dtype=float,
                              count=len(terms)), rows, lengths)


def _batches(starts, terms: _Terms):
    """Index ranges (lo, hi) of runs of consecutive products of equal
    length, cut where the entries they start from would pass
    _BATCH_ENTRIES."""
    lengths = terms.lengths.tolist()
    last = terms.rows[np.arange(len(lengths)), terms.lengths - 1].tolist()
    lo, size = 0, 0
    for t, (length, row) in enumerate(zip(lengths, last)):
        n = len(starts[row])
        if t > lo and (length != lengths[lo] or size + n > _BATCH_ENTRIES):
            yield lo, t
            lo, size = t, 0
        size += n
    if lengths:
        yield lo, len(lengths)


def _walk(basis: FockBasis, terms: _Terms, starts):
    """(term, rows, cols, coef * amp) of the nonzero entries of the
    products, term the index of each entry's product: one quadruple per
    batch (``_batches``), products in order, each in column order from
    the columns ``starts`` lists for its rightmost factor's row.  Every
    factor has at most one nonzero per column, so a product follows each
    column's single path, rightmost factor first."""
    dest, amp_of = (table.ravel() for table in basis.ladder_table[:2])
    for lo, hi in _batches(starts, terms):
        rows = terms.rows[lo:hi, :terms.lengths[lo]]
        start = [starts[r] for r in rows[:, -1].tolist()]
        term = np.repeat(np.arange(hi - lo), [len(c) for c in start])
        offsets = rows * basis.dim
        cols = to = np.concatenate(start)
        amp = 1.0
        for k in reversed(range(offsets.shape[1])):
            at = offsets[:, k][term] + to
            to, amp = dest[at], amp * amp_of[at]
            keep = to >= 0
            if not keep.all():
                term, cols, to, amp = (term[keep], cols[keep], to[keep],
                                       amp[keep])
        yield lo + term, to, cols, terms.coefs[lo:hi][term] * amp


def _entries(basis: FockBasis, operators):
    """(owner, rows, cols, coef * amp) of the nonzero entries of the
    operators, each given as (terms, diagonal or None), in any momentum,
    owner the index of each entry's operator: the products of all
    operators in one walk from every column (``_walk``), then each
    operator's diagonal."""
    terms = _terms(basis, [term for ts, _ in operators for term in ts])
    owner_of = np.repeat(np.arange(len(operators)),
                         [len(ts) for ts, _ in operators])
    for term, rows, cols, vals in _walk(basis, terms, basis.ladder_table[2]):
        yield owner_of[term], rows, cols, vals
    start = np.arange(basis.dim)
    for owner, (_, diagonal) in enumerate(operators):
        if diagonal is not None:
            yield np.full(basis.dim, owner), start, start, diagonal


@lru_cache(maxsize=None)
def _charge(modes: tuple) -> np.ndarray:
    """The momentum each ``_Terms`` row number adds: +p for a creator, -p
    for an annihilator, 0 for the identity and the padding."""
    p = np.array(modes)
    return np.vstack((-p, p, -p, p, np.zeros((2, 2), dtype=p.dtype)))


def _conserving(basis: FockBasis, terms, tag: str) -> _Terms:
    """The terms with a nonzero coefficient, refused unless every product
    conserves total momentum: a creator adds its mode's p, an annihilator
    takes it away."""
    terms = _terms(basis, [(coef, ops) for coef, ops in terms if coef != 0.0])
    if _charge(basis.modes)[terms.rows].sum(axis=1).any():
        raise ConfigError(f"{tag}: a product does not conserve momentum")
    return terms


@lru_cache(maxsize=64)
def _product_images(modes: tuple, shape: tuple, rows: bytes) -> tuple | None:
    """How the symmetries of the mode set (``_symmetry``) permute a list
    of products given as ``_Terms`` rows: the index of each product among
    the distinct products, and the index of its image under each
    symmetry but the identity in turn, or None when some image is not in
    the list.  A symmetry maps table row k m + i to k m + g(i) and keeps
    the identity and the padding.  Products are compared as integer keys
    with the factors of each run of one kind in order, since those
    commute, also at the cap.  It depends on the products alone, so it
    is kept per product list."""
    m, group = len(modes), _symmetry(modes)
    rows = np.frombuffer(rows, dtype=np.int64).reshape(shape)
    radix = 4 * m + 2
    if radix ** shape[1] > 2 ** 62:
        return None
    kind = rows // m
    run = np.zeros_like(rows)
    np.cumsum(kind[:, 1:] != kind[:, :-1], axis=1, out=run[:, 1:])
    images = np.hstack(((np.arange(4)[:, None] * m + group[:, None, :])
                        .reshape(len(group), 4 * m),
                        np.tile([4 * m, 4 * m + 1], (len(group), 1))))
    keys = np.sort(run * radix + images[:, rows], axis=-1) % radix @ (
        radix ** np.arange(shape[1], dtype=np.int64))
    uniq, inv = np.unique(keys[0], return_inverse=True)
    found = np.minimum(np.searchsorted(uniq, keys[1:].ravel()), len(uniq) - 1)
    if not np.array_equal(uniq[found], keys[1:].ravel()):
        return None
    return inv, found, np.tile(inv, len(group) - 1)


def _symmetric(basis: FockBasis, terms: _Terms, diagonal=None) -> bool:
    """Whether sum coef * product + diag(diagonal) commutes with each
    symmetry g of the mode set, to within _SYMMETRY_ULPS: the diagonal is
    ``Partition.invariant`` on ``orbits``, and every product's image (a_i
    to a_g(i) for every kind) is a product of the sum
    (``_product_images``) with an equal coefficient, the coefficients of
    equal products summed first."""
    if diagonal is not None and not basis.orbits.invariant(diagonal):
        return False
    images = _product_images(basis.modes, terms.rows.shape,
                             terms.rows.tobytes())
    if images is None:
        return False
    inv, found, every = images
    sums = np.bincount(inv, weights=terms.coefs)
    return _close(sums[found], sums[every])


def _fill(basis: FockBasis, part: Partition, terms: _Terms,
          diagonal=None) -> np.ndarray:
    """The entries of sum coef * product + diag(diagonal) in the blocks of
    part, as a flat buffer laid out as ``part.slots``: products in order,
    each from the columns of the stored blocks only, then the diagonal.
    ``np.add.at`` adds in order."""
    first, pos, size, total = part.slots
    flat = np.zeros(total)
    starts = (basis.ladder_table[2] if part.full is None
              else basis.orbit_starts)
    for _, r, c, vals in _walk(basis, terms, starts):
        np.add.at(flat, first[c] + pos[r] * size[c], vals)
    if diagonal is not None:
        at = part.stored
        flat[first[at] + pos[at] * size[at]] += diagonal[at]
    return flat


def build_operator(basis: FockBasis, terms, tag: str,
                   hermitian: bool = False,
                   diagonal: np.ndarray | None = None) -> LinearOperator:
    """Assemble sum of coefficient * product of ladder matrices, plus
    diag(diagonal) when a per-state diagonal is given.

    A product is a list of (kind, mode index) pairs, leftmost written
    first; kinds are 'a', 'ad', 'b' and 'bd'.  Every product conserves
    total momentum, and the operator is stored in the momentum sectors:
    on one sector per orbit of the basis' symmetry group
    (``FockBasis.orbits``) when it commutes with the group
    (``_symmetric``), else on every sector.  Entries are added in
    product order (``_fill``).
    """
    products = _conserving(basis, terms, tag)
    part = (basis.orbits if _symmetric(basis, products, diagonal)
            else basis.sectors)
    flat = _fill(basis, part, products, diagonal)
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
    """The ladder (kind, mode) as a dense matrix: its ``ladder_table``
    row, found as ``_terms`` finds a factor's."""
    row = _terms(basis, [(1.0, [(kind, basis.mode_index(mode))])]).rows[0, 0]
    dest, amp, nonzero = basis.ladder_table
    cols = nonzero[row]
    mat = np.zeros((basis.dim, basis.dim))
    mat[dest[row, cols], cols] = amp[row, cols]
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
            # p + q, never the zero mode, which no mode set holds
            isum = mode_set.get((p[0] + q[0], p[1] + q[1]))
            if isum is None:
                continue
            terms.append((prefactor * wp,
                          [("bd", isum), ("ad", ineg), ("a", iq)]))
            terms.append((sign * (prefactor * wp),
                          [("ad", iq), ("a", ineg), ("b", isum)]))
    return terms


def _on_modes(basis: FockBasis, lattice: MomentumLattice,
              values: np.ndarray) -> list:
    """A table on the lattice (eta or omega_hat) at the modes' lattice
    indices: the weights of the pair and cubic terms."""
    return values[[lattice.index_of(*m) for m in basis.modes]].tolist()


def generators(basis: FockBasis, table: KernelTable) -> dict:
    """Quadratic generator B and cubic generator A from the eta kernel at
    the table's N.  Their antihermiticity is fock-audit's to report;
    ``conjugate`` checks it again before it exponentiates."""
    eta = _on_modes(basis, table.lattice, table.eta)
    B = build_operator(basis, _pair_terms(basis, eta, -1.0), "B")
    A = build_operator(basis, _cubic_terms(
        basis, eta, 1.0 / math.sqrt(table.params.N), -1.0), "A")
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


def _r_eff_rest(basis: FockBasis, renorm: RenormPotential) -> tuple:
    """What R_eff adds to V_N and K: the omega_hat pair and cubic
    products, and the diagonal R_diag, at renorm's N."""
    N = renorm.params.N
    w0 = renorm.omega0
    omega = _on_modes(basis, renorm.lattice, renorm.omega)
    R_diag = _per_total(
        basis,
        lambda n: 0.5 * (N - 1) * w0 * (1 - n / N)
        + 0.5 * w0 * n * (1 - n / N) + w0 * n * (1 - n / N))
    return (_pair_terms(basis, omega, 1.0)
            + _cubic_terms(basis, omega, 1.0 / math.sqrt(N))), R_diag


def effective_hamiltonians(basis: FockBasis, renorm: RenormPotential,
                           pot: RadialPotential) -> dict:
    """The cubically renormalized R_eff (``r_effective_hamiltonian``) and
    H_N = K + V_N, the two operators of lower-bound: H_N is one build of
    V_N's products with the kinetic diagonal K.  N is renorm's."""
    return {"R_eff": r_effective_hamiltonian(basis, renorm, pot),
            "H_N": build_operator(
                basis, _potential_terms(basis, pot, renorm.params), "H_N",
                hermitian=True, diagonal=_kinetic(basis))}


def r_effective_hamiltonian(basis: FockBasis, renorm: RenormPotential,
                            pot: RadialPotential) -> LinearOperator:
    """R_eff, all that energy-sweep and fock-audit read: one build of V_N's
    products and the omega_hat pair and cubic products, with diagonal
    K + R_diag.  N is renorm's."""
    rest, R_diag = _r_eff_rest(basis, renorm)
    terms = _potential_terms(basis, pot, renorm.params) + rest
    return build_operator(basis, terms, "R_eff", hermitian=True,
                          diagonal=_kinetic(basis) + R_diag)
