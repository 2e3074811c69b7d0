"""Truncated excitation Fock space and its operator algebra at desk scale.

Operators act on the occupation-number states with total occupation at
most the particle cap N.  Each basis builds its ladder matrices once from
the lowering matrices a_i: a*_i is the transpose of a_i, and b*_i that of
b_i = diag(sqrt((N - number)/N)) a_i, the factor that makes the modified
operators endomorphisms of the truncated space.  The transpose drops any
element of a* that would push the total above N (the one deliberate
deviation from the untruncated algebra).  An operator is a sum of
coefficients times ladder products.

Every operator of the excitation-space argument conserves the total
momentum P = sum p n_p, so it is stored as dense blocks over the momentum
sectors of the basis (``FockBasis.sectors``); sectors of equal size are
stacked and handled by one batched call.  An operator that does not
conserve P, or a matrix given whole, lives on the one-block partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations

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


class _StateLookup:
    """Positions of occupation rows in a basis's ``states`` table.

    A row's key is its mixed-radix number sum_j n_j r^(parts-1-j), radix
    r one above the largest occupation; a row is found by binary search
    of its key among the sorted keys of the table.
    """

    @cached_property
    def _keys(self) -> tuple:
        parts = self.states.shape[1]
        radix = int(self.states.max()) + 1
        if radix ** parts > np.iinfo(np.int64).max:
            raise SizeError(f"occupation keys of {parts} modes in radix "
                            f"{radix} overflow int64")
        weights = radix ** np.arange(parts - 1, -1, -1, dtype=np.int64)
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

    def position(self, states) -> np.ndarray:
        """Basis index of each occupation row of states."""
        return self.find(np.asarray(states, dtype=np.int64) @ self._keys[0])


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
    """The partition of range(len(labels)) into blocks of equal label."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    _, first, sizes = np.unique(labels[order], return_index=True,
                                return_counts=True)
    blocks = np.split(order, first[1:])
    return Partition(len(labels), tuple(
        np.stack([b for b in blocks if len(b) == s])
        for s in sorted(set(sizes.tolist()))))


@dataclass(frozen=True)
class FockBasis(_StateLookup):
    """Occupation basis over a negation-closed mode set, total <= cap."""

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

    def totals(self) -> np.ndarray:
        return self.states.sum(axis=1)

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim)
        v[self.position(np.zeros((1, self.n_modes)))] = 1.0
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
    def ladders(self) -> dict:
        """Sparse ladder matrices, kind ('a', 'ad', 'b', 'bd') -> one
        (dest, amp) pair per mode.  Each has at most one nonzero per
        column: column c holds amp[c] in row dest[c], and is empty when
        dest[c] < 0.  All four kinds derive from the lowering matrix a_i."""
        damp = np.sqrt((self.cap - self.totals()) / self.cap)
        weights, keys = self._keys[:2]
        out = {"a": [], "ad": [], "b": [], "bd": []}
        for i in range(self.n_modes):
            cols = np.flatnonzero(self.states[:, i])
            # lowering n_i lowers the key by the weight of digit i
            rows = self.find(keys[cols] - weights[i])
            occ = np.sqrt(self.states[cols, i])
            # b_i = diag(damp) a_i; a*_i and b*_i are the transposes
            for kind, amp in (("a", occ), ("b", damp[rows] * occ)):
                out[kind].append(_column_map(self.dim, rows, cols, amp))
                out[kind + "d"].append(_column_map(self.dim, cols, rows, amp))
        return out


def _column_map(dim: int, rows, cols, amp) -> tuple:
    """(dest, amp) form of a matrix with amp at (rows, cols)."""
    dest, vals = np.full(dim, -1), np.zeros(dim)
    dest[cols], vals[cols] = rows, amp
    return dest, vals


def build_basis(modes, cap: int, dim_cap: int = DEFAULT_DIM_CAP) -> FockBasis:
    modes = tuple(tuple(int(c) for c in m) for m in modes)
    if cap < 1:
        raise ConfigError("particle cap must be at least 1")
    mode_set = set(modes)
    for m in modes:
        if m == (0, 0):
            raise ConfigError("the zero mode does not belong to the "
                              "excitation space")
        if (-m[0], -m[1]) not in mode_set:
            raise ConfigError(f"mode set not closed under negation: {m}")
    m = len(modes)
    dim = math.comb(cap + m, m)
    if dim > dim_cap:
        raise SizeError(f"basis dimension {dim} exceeds cap {dim_cap}")
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

    def lowest(self, eigh) -> tuple[float, np.ndarray]:
        """Smallest eigenvalue over all blocks and its eigenvector in
        basis order, from one call per size class of ``eigh``, a batched
        Hermitian eigensolver with ascending values (numpy's signature)."""
        best = None
        for idx, blk in zip(self.part.classes, self.blocks):
            vals, vecs = eigh(blk)
            k = int(np.argmin(vals[:, 0]))
            if best is None or vals[k, 0] < best[0]:
                best = float(vals[k, 0]), idx[k], vecs[k, :, 0]
        val, idx, v = best
        vec = np.zeros(self.dim, dtype=v.dtype)
        vec[idx] = v
        return val, vec

    def expectation(self, vec: np.ndarray) -> float:
        val = sum(np.einsum("ki,kij,kj->", vec[idx].conj(), blk, vec[idx])
                  for idx, blk in zip(self.part.classes, self.blocks))
        return float(np.real(val))


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


def combine(terms, tag: str, hermitian: bool = False) -> LinearOperator:
    """sum of coef * op over the (coef, op) pairs, added left to right,
    block by block on the operators' common partition."""
    coefs, ops = zip(*terms)
    ops = common(*ops)
    blocks = [coefs[0] * b for b in ops[0].blocks]
    for coef, op in zip(coefs[1:], ops[1:]):
        blocks = [acc + coef * b for acc, b in zip(blocks, op.blocks)]
    return LinearOperator.from_blocks(ops[0].part, blocks, tag, hermitian)


def _ladder_matrix(basis: FockBasis, kind: str, i: int):
    try:
        return basis.ladders[kind][i]
    except KeyError:
        raise ConfigError(f"unknown ladder kind {kind!r}") from None


# momentum a ladder adds to a state: +p for a creator, -p for an annihilator
_CHARGE = {"a": -1, "b": -1, "ad": 1, "bd": 1}


def _conserves_momentum(basis: FockBasis, ops) -> bool:
    px = py = 0
    for kind, i in ops:
        if kind not in _CHARGE:
            raise ConfigError(f"unknown ladder kind {kind!r}")
        px += _CHARGE[kind] * basis.modes[i][0]
        py += _CHARGE[kind] * basis.modes[i][1]
    return px == py == 0


def build_operator(basis: FockBasis, terms, tag: str,
                   hermitian: bool = False,
                   diagonal: np.ndarray | None = None) -> LinearOperator:
    """Assemble sum of coefficient * product of ladder matrices, plus
    diag(diagonal) when a per-state diagonal is given.

    A product is a list of (kind, mode index) pairs, leftmost written
    first; kinds are 'a', 'ad', 'b' and 'bd'.  When every product
    conserves total momentum the operator is stored in the momentum
    sectors of the basis, otherwise on the one-block partition.
    """
    terms = [(coef, ops) for coef, ops in terms if coef != 0.0]
    part = (basis.sectors
            if all(_conserves_momentum(basis, ops) for _, ops in terms)
            else whole_partition(basis.dim))
    first, pos, size, total = part.slots
    flat = np.zeros(total)
    start = np.arange(basis.dim)
    for coef, ops in terms:
        # every factor has at most one nonzero per column, so the product
        # follows each column's single path, rightmost factor first
        cols, rows, amp = start, start, np.ones(basis.dim)
        for kind, i in reversed(ops):
            dest, vals = _ladder_matrix(basis, kind, i)
            keep = dest[rows] >= 0
            cols, rows, amp = cols[keep], rows[keep], amp[keep]
            amp *= vals[rows]
            rows = dest[rows]
        flat[first[cols] + pos[rows] * size[cols]] += coef * amp
    if diagonal is not None:
        flat[first + pos * size] += diagonal
    return LinearOperator.from_blocks(part, part.split(flat), tag, hermitian)


def ladder(basis: FockBasis, mode, kind: str) -> LinearOperator:
    dest, vals = _ladder_matrix(basis, kind, basis.mode_index(mode))
    cols = np.flatnonzero(dest >= 0)
    mat = np.zeros((basis.dim, basis.dim))
    mat[dest[cols], cols] = vals[cols]
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


def _potential_terms(basis: FockBasis, pot: RadialPotential,
                     params: GPParameters) -> list:
    """The ladder products of V_N (see ``potential_operator``), merged.

    Creators commute with creators and annihilators with annihilators,
    also at the cap, where both orders drop at the same total.  So the
    products with one sorted creator pair and one sorted annihilator pair
    are one product, whose coefficient is their sum.
    """
    modes = basis.modes
    mode_set = {m: i for i, m in enumerate(modes)}
    shifts, products = [], []
    for ip, p in enumerate(modes):
        for iq, q in enumerate(modes):
            for ipr, pr in enumerate(modes):       # pr = p + r
                r = (pr[0] - p[0], pr[1] - p[1])
                qr = (q[0] + r[0], q[1] + r[1])    # q + r
                if qr == (0, 0):
                    continue
                iqr = mode_set.get(qr)
                if iqr is None:
                    continue
                shifts.append(r)
                products.append((min(ipr, iq), max(ipr, iq),
                                 min(iqr, ip), max(iqr, ip)))
    merged = {}
    for v, key in zip(_vhat(pot, params, shifts), products):
        merged[key] = merged.get(key, 0.0) + 0.5 * v
    return [(coef, [("ad", i), ("ad", j), ("a", k), ("a", l)])
            for (i, j, k, l), coef in merged.items()]


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

    L3 = _cubic_operator(basis, vhat, math.sqrt(N), "L3")
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


def _pair_operator(basis: FockBasis, weights, sign: float,
                   tag: str) -> LinearOperator:
    return build_operator(basis, _pair_terms(basis, weights, sign), tag,
                          hermitian=sign > 0)


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


def _cubic_operator(basis: FockBasis, weights, prefactor: float, tag: str,
                    sign: float = 1.0) -> LinearOperator:
    return build_operator(basis,
                          _cubic_terms(basis, weights, prefactor, sign), tag,
                          hermitian=sign > 0)


def generators(basis: FockBasis, table: KernelTable,
               params: GPParameters) -> dict:
    """Quadratic generator B and cubic generator A from the eta kernel."""
    eta = [table.eta_at(*m) for m in basis.modes]
    B = _pair_operator(basis, eta, -1.0, "B")
    A = _cubic_operator(basis, eta, 1.0 / math.sqrt(params.N), "A",
                        sign=-1.0)
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


def remainder_d(basis: FockBasis, mode, table: KernelTable,
                params: GPParameters, B: LinearOperator) -> LinearOperator:
    """d_p = e^{-B} b_p e^{B} - cosh(eta_p) b_p - sinh(eta_p) b*_{-p}."""
    i = basis.mode_index(mode)
    eta_p = table.eta_at(*basis.modes[i])
    bp = ladder(basis, mode, "b")
    bd_neg = ladder(basis, basis.modes[int(basis.neg_mode[i])], "bd")
    conj = conjugate(bp, B)
    mat = conj.mat - math.cosh(eta_p) * bp.mat - math.sinh(eta_p) * bd_neg.mat
    return LinearOperator(mat, f"d_{mode}")


def _omega(basis: FockBasis, renorm: RenormPotential) -> list:
    """omega_hat at the modes: the weights of the pair term of both
    G_eff and R_eff."""
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
    operators of lower-bound and fock-audit, one build each from V_N's
    products and the kinetic diagonal, both computed once.

    ``r_effective_hamiltonian`` builds R_eff alone; G_eff, which only the
    G_N statements read, has its own builder, ``gn_effective_hamiltonian``.
    """
    terms, kinetic = _potential_terms(basis, pot, params), _kinetic(basis)
    return {"R_eff": _r_eff(basis, renorm, params, terms, kinetic),
            "H_N": build_operator(basis, terms, "H_N", hermitian=True,
                                  diagonal=kinetic)}


def r_effective_hamiltonian(basis: FockBasis, renorm: RenormPotential,
                            pot: RadialPotential,
                            params: GPParameters) -> LinearOperator:
    """R_eff as ``effective_hamiltonians`` builds it, without H_N: the
    operator whose ground state energy-sweep reads."""
    return _r_eff(basis, renorm, params, _potential_terms(basis, pot, params),
                  _kinetic(basis))


def gn_effective_hamiltonian(basis: FockBasis, renorm: RenormPotential,
                             pot: RadialPotential,
                             params: GPParameters) -> LinearOperator:
    """The quadratically renormalized G_eff, whose cubic term carries
    sqrt(N) Vhat, in one build: the operator of ``gn_condensation_shape``
    and ``depletion_chain_check``."""
    N = params.N
    w0 = renorm.omega0
    vhat = _vhat(pot, params, basis.modes)
    v0 = fourier_transform_radial(pot, 0.0)
    G_diag = _per_total(
        basis,
        lambda n: 0.5 * w0 * (N - 1) * (1 - n / N)
        + (2 * N * v0 - 0.5 * w0) * n * (1 - n / N))
    terms = (_potential_terms(basis, pot, params)
             + _pair_terms(basis, _omega(basis, renorm), 1.0)
             + _cubic_terms(basis, vhat, math.sqrt(N)))
    return build_operator(basis, terms, "G_eff", hermitian=True,
                          diagonal=_kinetic(basis) + G_diag)


# ---------------------------------------------------------------------------
# full N-particle sector and the occupation bijection onto the truncated
# excitation space


@dataclass(frozen=True)
class SectorBasis(_StateLookup):
    """Symmetric N-particle occupation basis over modes plus the zero mode."""

    modes: tuple          # excitation modes only; slot 0 is the zero mode
    N: int
    states: np.ndarray = field(repr=False)   # columns: (n0, n_modes...)

    @property
    def dim(self) -> int:
        return len(self.states)


def build_sector(modes, N: int, dim_cap: int = 4000) -> SectorBasis:
    modes = tuple(tuple(m) for m in modes)
    dim = math.comb(N + len(modes), len(modes))
    if dim > dim_cap:
        raise SizeError(f"sector dimension {dim} exceeds cap")
    exc = _occupations(N, len(modes))
    n0 = N - exc.sum(axis=1, keepdims=True)
    return SectorBasis(modes, N, np.hstack((n0, exc)))


def sector_hop(sec: SectorBasis, i: int, j: int) -> np.ndarray:
    """Matrix of a*_i a_j on the fixed-N sector (slot 0 is the zero mode)."""
    cols = np.flatnonzero(sec.states[:, j])
    occ = sec.states[cols]
    coef = np.sqrt(occ[:, j].astype(float))
    occ[:, j] -= 1
    coef *= np.sqrt(occ[:, i] + 1.0)
    occ[:, i] += 1
    mat = np.zeros((sec.dim, sec.dim))
    mat[sec.position(occ), cols] = coef
    return mat


def unitary_excitation_map(modes, N: int) -> dict:
    """Build the occupation bijection U_N explicitly and audit its rules.

    U_N sends the sector state |n0, vec n> to the excitation state |vec n>
    (n0 = N - total is redundant).  Returns the residuals of the four
    conjugation rules and of unitarity.
    """
    if N > 3 or len(modes) > 4:
        raise SizeError("the explicit map is audited at N <= 3 with at "
                        "most 4 modes")
    sec = build_sector(modes, N)
    basis = build_basis(modes, N)
    if sec.dim != basis.dim:
        raise ConsistencyError("sector and excitation bases disagree")
    U = np.zeros((basis.dim, sec.dim))
    U[basis.position(sec.states[:, 1:]), np.arange(sec.dim)] = 1.0

    nplus = number_operator(basis).mat
    eye = np.eye(basis.dim)
    sqrt_fac = np.diag(np.sqrt(np.maximum(N - basis.totals(), 0)))

    report = {}
    report["unitary"] = float(np.max(np.abs(U @ U.conj().T - eye)))
    rule1 = U @ sector_hop(sec, 0, 0) @ U.conj().T
    report["rule_n0"] = float(np.max(np.abs(rule1 - (N * eye - nplus))))

    max2 = max3 = max4 = 0.0
    for ip, p in enumerate(basis.modes):
        ap = ladder(basis, p, "a").mat
        lhs2 = U @ sector_hop(sec, ip + 1, 0) @ U.conj().T
        rhs2 = ap.conj().T @ sqrt_fac
        max2 = max(max2, float(np.max(np.abs(lhs2 - rhs2))))
        lhs3 = U @ sector_hop(sec, 0, ip + 1) @ U.conj().T
        rhs3 = sqrt_fac @ ap
        max3 = max(max3, float(np.max(np.abs(lhs3 - rhs3))))
        for iq, q in enumerate(basis.modes):
            lhs4 = U @ sector_hop(sec, ip + 1, iq + 1) @ U.conj().T
            aq = ladder(basis, q, "a").mat
            rhs4 = ap.conj().T @ aq
            max4 = max(max4, float(np.max(np.abs(lhs4 - rhs4))))
    report["rule_create"] = max2
    report["rule_annihilate"] = max3
    report["rule_hop"] = max4
    report["pass"] = all(v <= 1e-12 for k, v in report.items()
                         if k != "pass")
    return report


def export_operator(op: LinearOperator, path, tol: float = 0.0) -> None:
    """Coordinate-triplet text dump (row col re im), one header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dim={op.dim} tag={op.tag} "
                 f"hermitian={int(op.hermitian)}\n")
        mat = op.mat
        rows, cols = np.nonzero(np.abs(mat) > tol)
        for r, c in zip(rows, cols):
            v = mat[r, c]
            fh.write(f"{r} {c} {v.real:.17g} {v.imag:.17g}\n")
