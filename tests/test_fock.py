import math
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gp2d import fock
from gp2d.audits import commutator_residual, unitary_excitation_map
from gp2d.config import FOCK_N_MIN, RunConfig
from gp2d.energy import Pipeline, ground_state
from gp2d.errors import ConfigError, SizeError
from gp2d.fock import (LinearOperator, build_basis, build_operator,
                       combine, conjugate, diagonal_in_total,
                       effective_hamiltonians, generators,
                       hamiltonian_pieces, hermiticity_residual,
                       kinetic_operator, ladder, largest_entries,
                       number_operator, partition_by, shell_modes,
                       whole_partition)
from gp2d.kernels import (GPParameters, eta_coefficients,
                          renormalized_potential)
from gp2d.lattice import TWO_PI, build_lattice
from gp2d.potentials import fourier_transform_radial, step
from gp2d.scattering import neumann_ground_state

N = 3


@pytest.fixture(scope="module")
def fock_setup(step_zero):
    params = GPParameters(N, 2.5)
    sol = neumann_ground_state(step_zero, params.R)
    lat = build_lattice(TWO_PI * 8)
    table = eta_coefficients(sol, params, lat)
    renorm = renormalized_potential(params, sol.lam_R2, lat)
    basis = build_basis(shell_modes(4), N)
    return params, sol, table, renorm, basis


def _apply_monomial(basis, ops, state):
    """Brute-force reference: apply an operator string (leftmost written
    first) to one occupation state, one ladder at a time.

    Returns (coefficient, resulting occupation tuple) or None when the
    string annihilates the state.
    """
    occ = list(state)
    total = sum(occ)
    cap = basis.cap
    coef = 1.0
    for kind, i in reversed(ops):
        if kind == "a":
            if occ[i] == 0:
                return None
            coef *= math.sqrt(occ[i])
            occ[i] -= 1
            total -= 1
        elif kind == "ad":
            if total + 1 > cap:
                return None
            coef *= math.sqrt(occ[i] + 1)
            occ[i] += 1
            total += 1
        elif kind == "b":
            if occ[i] == 0:
                return None
            coef *= math.sqrt(occ[i])
            occ[i] -= 1
            total -= 1
            coef *= math.sqrt((cap - total) / cap)
        elif kind == "bd":
            if total >= cap:
                return None
            coef *= math.sqrt((cap - total) / cap)
            coef *= math.sqrt(occ[i] + 1)
            occ[i] += 1
            total += 1
    return coef, tuple(occ)


def _reference_operator(basis, terms):
    index = {s: i for i, s in enumerate(map(tuple, basis.states.tolist()))}
    mat = np.zeros((basis.dim, basis.dim))
    for col in range(basis.dim):
        state = tuple(basis.states[col])
        for coef, ops in terms:
            hit = _apply_monomial(basis, ops, state)
            if hit is not None:
                amp, out = hit
                mat[index[out], col] += coef * amp
    return mat


ORACLE_BASES = {(4, 3): build_basis(shell_modes(4), 3),
                (8, 2): build_basis(shell_modes(8), 2)}


_ADJOINT = {"a": "ad", "ad": "a", "b": "bd", "bd": "b"}
PRODUCTS = st.lists(st.tuples(st.sampled_from(sorted(_ADJOINT)),
                              st.integers(0, 7)), min_size=1, max_size=4)
COEFS = st.floats(-10.0, 10.0).filter(lambda c: abs(c) > 1e-3)


def _moved_momentum(basis, ops):
    """The total momentum a product adds to a state: +p per creator,
    -p per annihilator."""
    return tuple(sum((1 if kind in ("ad", "bd") else -1) * basis.modes[i][c]
                     for kind, i in ops) for c in (0, 1))


@given(shape=st.sampled_from(sorted(ORACLE_BASES)), coef=COEFS,
       ops=PRODUCTS, balanced=st.booleans())
@settings(max_examples=150, deadline=None)
def test_build_operator_matches_per_state_reference(shape, coef, ops,
                                                    balanced):
    basis = ORACLE_BASES[shape]
    ops = [(kind, i % basis.n_modes) for kind, i in ops]
    if balanced:
        # X X^* conserves momentum whatever X is
        ops += [(_ADJOINT[kind], i) for kind, i in reversed(ops)]
    if _moved_momentum(basis, ops) != (0, 0):
        with pytest.raises(ConfigError, match="does not conserve momentum"):
            build_operator(basis, [(coef, ops)], "oracle")
        return
    got = build_operator(basis, [(coef, ops)], "oracle").mat
    want = _reference_operator(basis, [(coef, ops)])
    assert got.dtype == np.float64
    # entry for entry, zeros included: elements dropped at the cap stay 0
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def _walked(basis, terms, diagonal=None):
    """(rows, cols, coef * amp) of one operator's nonzero entries, as
    ``fock._entries`` walks them."""
    for _, rows, cols, vals in fock._entries(basis, [(terms, diagonal)]):
        yield rows, cols, vals


@given(shape=st.sampled_from(sorted(ORACLE_BASES)),
       terms=st.lists(st.tuples(COEFS, PRODUCTS), min_size=1, max_size=4),
       diag_scale=st.one_of(st.none(), st.floats(-5.0, 5.0)))
@settings(max_examples=150, deadline=None)
def test_largest_entry_matches_dense_reference(shape, terms, diag_scale):
    # products in any momentum, the ones of the commutator identities
    basis = ORACLE_BASES[shape]
    terms = [(coef, [(kind, i % basis.n_modes) for kind, i in ops])
             for coef, ops in terms]
    want = _reference_operator(basis, terms)
    diagonal = None
    if diag_scale is not None:
        diagonal = diag_scale * np.cos(np.arange(basis.dim))
        want += np.diag(diagonal)
    # terms can cancel to a rounding residue of their own size, at most
    # |coef| cap^2 each (one factor is at most sqrt(cap))
    atol = 1e-14 * (sum(abs(c) for c, _ in terms) * basis.cap ** 2
                    + abs(diag_scale or 0.0))
    # the shared walk puts every entry where the reference does ...
    walked = np.zeros((basis.dim, basis.dim))
    for rows, cols, vals in _walked(basis, terms, diagonal):
        np.add.at(walked, (rows, cols), vals)
    np.testing.assert_allclose(walked, want, rtol=1e-14, atol=atol)
    # ... and the keyed sum finds the largest of them
    assert largest_entries(basis, [(terms, diagonal)])[0] == pytest.approx(
        np.abs(want).max(), rel=1e-14, abs=atol)


class Weights:
    """Stands in for the eta table and the renormalized potential: smooth
    weights of the mode, drawn per example, tabulated on a lattice that
    holds the modes of every shell."""

    lattice = build_lattice(TWO_PI * 3)

    def __init__(self, c, d, w0, params):
        self.omega0, self.params = w0, params
        n1, n2 = self.lattice.ints.T
        self.eta = c * np.exp(-0.3 * (n1 * n1 + n2 * n2)) + d * n1
        self.omega = d + c * np.cos(self.lattice.norms / 7.0)


def _dense_reference(basis, terms, tag, hermitian=False, diagonal=None):
    mat = _reference_operator(basis, list(terms))
    if diagonal is not None:
        mat += np.diag(diagonal)
    return LinearOperator(mat, tag, hermitian)


def _dense_brute_force(monkeypatch):
    """Make every operator of gp2d.fock a dense matrix assembled state by
    state by the reference interpreter, on the one-block partition."""
    monkeypatch.setattr(fock, "build_operator", _dense_reference)


def _all_operators(basis, pot, params, weights):
    pieces = hamiltonian_pieces(basis, pot, params)
    eff = effective_hamiltonians(basis, weights, pot)
    gens = generators(basis, weights)
    return {"K": pieces["K"], "V_N": pieces["V_N"], "L2": pieces["L2"],
            "L3": pieces["L3"], "R_eff": eff["R_eff"], "B": gens["B"],
            "A": gens["A"]}


@given(shape=st.sampled_from(sorted(ORACLE_BASES)),
       v0=st.floats(0.5, 20.0), b=st.floats(0.3, 2.0),
       n_particles=st.integers(3, 9), alpha=st.floats(1.0, 3.0),
       c=st.floats(-2.0, 2.0), d=st.floats(-1.0, 1.0),
       w0=st.floats(0.0, 20.0))
@settings(max_examples=25, deadline=None)
def test_sector_blocks_match_dense_brute_force(shape, v0, b, n_particles,
                                               alpha, c, d, w0):
    basis = ORACLE_BASES[shape]
    pot, params = step(v0, b), GPParameters(n_particles, alpha)
    weights = Weights(c, d, w0, params)
    got = _all_operators(basis, pot, params, weights)
    with pytest.MonkeyPatch.context() as m:
        _dense_brute_force(m)
        want = _all_operators(basis, pot, params, weights)
    # every weight depends on |p| alone but eta's d * n1 part, so all
    # operators are stored on the orbit blocks except B and A at d != 0
    radial = {"K", "V_N", "L2", "L3", "R_eff"} | ({"B", "A"} if d == 0.0
                                                  else set())
    for key, op in got.items():
        assert op.part is basis.orbits or key not in radial, key
        assert want[key].part is whole_partition(basis.dim), key
        dense, ref = op.mat, want[key].mat
        # terms can cancel to an exact zero in one assembly and to a
        # rounding residue in the other
        scale = max(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(dense, ref, rtol=1e-13,
                                   atol=1e-14 * scale, err_msg=key)
        # the brute-force matrix has nothing outside the sectors
        np.testing.assert_array_equal(ref[dense == 0.0], 0.0)


def test_sectors_split_by_total_momentum():
    basis = build_basis(shell_modes(8), 4)
    momentum = basis.states @ np.array(basis.modes)
    seen = np.concatenate([idx.ravel() for idx in basis.sectors.classes])
    assert sorted(seen) == list(range(basis.dim))
    for idx in basis.sectors.classes:
        assert np.all(np.diff(idx, axis=1) > 0)     # basis order inside
        for block in idx:
            assert len({tuple(p) for p in momentum[block]}) == 1
    # one sector per distinct momentum: 81 at shell 8, N = 4
    assert sum(len(idx) for idx in basis.sectors.classes) == len(
        {tuple(p) for p in momentum}) == 81


def test_non_conserving_product_is_refused():
    basis = ORACLE_BASES[(8, 2)]
    kept = build_operator(basis, [(1.0, [("ad", 0), ("a", 0)])], "n_0")
    assert kept.part is basis.sectors
    with pytest.raises(ConfigError, match="hop: .* conserve momentum"):
        build_operator(basis, [(1.0, [("ad", 0), ("a", 1)])], "hop")
    # one non-conserving product refuses the whole sum
    with pytest.raises(ConfigError, match="mixed: .* conserve momentum"):
        build_operator(basis, [(1.0, [("ad", 0), ("a", 0)]),
                               (0.5, [("bd", 2)])], "mixed")


def test_mixed_partitions_meet_on_one_block(fock_setup):
    params, _, table, _, basis = fock_setup
    B = generators(basis, table)["B"]
    dense = LinearOperator(number_operator(basis).mat, "N+ dense",
                           hermitian=True)
    blocked = conjugate(number_operator(basis), B)
    met = conjugate(dense, B)
    assert blocked.part is basis.orbits
    assert met.part is whole_partition(basis.dim)
    np.testing.assert_allclose(met.mat, blocked.mat, rtol=0, atol=1e-13)
    # e^{-B} N e^{B}, with the exponential taken of the whole matrix
    want = expm(-B.mat) @ dense.mat @ expm(B.mat)
    np.testing.assert_allclose(blocked.mat, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("size", [1, 4, 17])
def test_expm_matches_scipy(complex_, size):
    rng = np.random.default_rng(size + 100 * complex_)
    g = rng.normal(size=(5, size, size))
    if complex_:
        g = g + 1j * rng.normal(size=g.shape)
    g = 0.7 * (g - np.swapaxes(g, -1, -2).conj())     # antihermitian
    got = fock.expm(g)
    assert np.iscomplexobj(got) == complex_
    np.testing.assert_allclose(got, expm(g), rtol=0, atol=1e-13)


def test_partition_by_groups_equal_labels():
    labels = np.array([2, 0, 2, 1, 0, 2, 3])
    part = partition_by(labels)
    assert [idx.tolist() for idx in part.classes] == [[[3], [6]],
                                                      [[1, 4]],
                                                      [[0, 2, 5]]]
    first, pos, size, total = part.slots
    assert total == 1 + 1 + 4 + 9
    assert pos.tolist() == [0, 0, 1, 0, 1, 2, 0]
    assert size.tolist() == [3, 2, 3, 1, 2, 3, 1]


def test_build_operator_rejects_unknown_kind():
    basis = ORACLE_BASES[(4, 3)]
    with pytest.raises(ConfigError):
        build_operator(basis, [(1.0, [("c", 0)])], "bad")
    with pytest.raises(ConfigError):
        ladder(basis, basis.modes[0], "c")


def test_operators_are_real(fock_setup, step_pot):
    params, _, table, renorm, basis = fock_setup
    gens = generators(basis, table)
    ops = [*hamiltonian_pieces(basis, step_pot, params).values(),
           *effective_hamiltonians(basis, renorm, step_pot).values(),
           *gens.values(), conjugate(number_operator(basis), gens["B"])]
    for op in ops:
        assert op.mat.dtype == np.float64, op.tag


def test_shell_modes_sizes():
    assert len(shell_modes(4)) == 4
    assert len(shell_modes(8)) == 8
    assert len(shell_modes(12)) == 12
    # shells close under negation
    for count in (4, 8, 12):
        modes = set(shell_modes(count))
        assert {(-a, -b) for a, b in modes} == modes
        assert (0, 0) not in modes


def test_basis_dimension_is_stars_and_bars():
    for m, cap in [(4, 2), (4, 3), (8, 2)]:
        basis = build_basis(shell_modes(m), cap)
        assert basis.dim == comb(cap + m, m)


def test_basis_dimension_cap():
    # C(22, 12) = 646,646 states, refused before any is made
    with pytest.raises(SizeError):
        build_basis(shell_modes(12), 10)


def test_basis_rejects_repeated_modes():
    # a repeated mode would pair with the wrong copy of its negative
    with pytest.raises(ConfigError, match="repeats"):
        build_basis([(1, 0), (-1, 0), (1, 0), (-1, 0)], 2)


def test_occupations_bounded_by_cap(fock_setup):
    *_, basis = fock_setup
    totals = basis.totals()
    assert totals.max() == N
    assert totals.min() == 0
    assert np.all(basis.states.sum(axis=1) == totals)


def test_creation_is_adjoint_of_annihilation(fock_setup):
    *_, basis = fock_setup
    for mode in basis.modes:
        a = ladder(basis, mode, "a").mat
        ad = ladder(basis, mode, "ad").mat
        np.testing.assert_array_equal(ad, a.conj().T)
        b = ladder(basis, mode, "b").mat
        bd = ladder(basis, mode, "bd").mat
        np.testing.assert_array_equal(bd, b.conj().T)


def test_canonical_commutators(fock_setup):
    *_, basis = fock_setup
    eye = np.eye(basis.dim)
    ntot = number_operator(basis).mat
    worst = 0.0
    for p in basis.modes:
        ap = ladder(basis, p, "a").mat
        bp = ladder(basis, p, "b").mat
        for q in basis.modes:
            aq = ladder(basis, q, "a").mat
            bq = ladder(basis, q, "b").mat
            delta = 1.0 if p == q else 0.0
            # modified operators: [b_p, b_q^*] = delta (1 - Ntot/N) - a_q^* a_p / N
            lhs = bp @ bq.conj().T - bq.conj().T @ bp
            rhs = delta * (eye - ntot / N) - aq.conj().T @ ap / N
            worst = max(worst, np.abs(lhs - rhs).max(),
                        np.abs(bp @ bq - bq @ bp).max())
    assert worst <= 1e-12


def test_number_operator_counts(fock_setup):
    *_, basis = fock_setup
    ntot = number_operator(basis).mat
    np.testing.assert_array_equal(np.diag(ntot).real, basis.totals())
    assert np.count_nonzero(ntot - np.diag(np.diag(ntot))) == 0


def test_truncation_annihilates_top_sector(fock_setup):
    *_, basis = fock_setup
    top = basis.totals() == N
    for mode in basis.modes:
        ad = ladder(basis, mode, "ad").mat
        bd = ladder(basis, mode, "bd").mat
        assert np.abs(ad[:, top]).max() == 0.0
        assert np.abs(bd[:, top]).max() == 0.0


def test_kinetic_eigenvalues(fock_setup):
    *_, basis = fock_setup
    k = kinetic_operator(basis)
    want = basis.states @ basis.mode_p2
    np.testing.assert_allclose(np.diag(k.mat).real, want, rtol=1e-13)


def test_hamiltonian_pieces_hermitian(fock_setup, step_pot):
    params, *_, basis = fock_setup
    pieces = hamiltonian_pieces(basis, step_pot, params)
    assert set(pieces) == {"K", "V_N", "L0", "L2", "L3", "L4"}
    for op in pieces.values():
        assert hermiticity_residual(op.mat) <= 1e-12


def test_constant_piece_vacuum_value(fock_setup, step_pot):
    params, *_, basis = fock_setup
    pieces = hamiltonian_pieces(basis, step_pot, params)
    vhat0 = fourier_transform_radial(step_pot, 0.0)
    vac = basis.vacuum()
    assert vac @ pieces["L0"].mat @ vac == pytest.approx(
        0.5 * vhat0 * N * (N - 1), rel=1e-12)
    assert vac @ pieces["K"].mat @ vac == 0.0
    assert vac @ pieces["V_N"].mat @ vac == 0.0


def test_quartic_piece_positive(fock_setup, step_pot):
    params, *_, basis = fock_setup
    pieces = hamiltonian_pieces(basis, step_pot, params)
    evals = np.linalg.eigvalsh(pieces["V_N"].mat)
    assert evals.min() >= -1e-12


def _scalar_potential_operator(basis, pot, params):
    """V_N with one scalar transform per distinct shift r, as a reference
    for the single array transform of ``potential_operator``."""
    mode_set = {m: i for i, m in enumerate(basis.modes)}
    vhat = {}
    terms = []
    for ip, p in enumerate(basis.modes):
        for iq, q in enumerate(basis.modes):
            for ipr, pr in enumerate(basis.modes):
                r = (pr[0] - p[0], pr[1] - p[1])
                qr = (q[0] + r[0], q[1] + r[1])
                if qr == (0, 0) or qr not in mode_set:
                    continue
                if r not in vhat:
                    vhat[r] = fourier_transform_radial(
                        pot, TWO_PI * math.hypot(*r) * math.exp(-params.N))
                terms.append((0.5 * vhat[r], [("ad", ipr), ("ad", iq),
                                              ("a", mode_set[qr]),
                                              ("a", ip)]))
    return build_operator(basis, terms, "V_N", hermitian=True)


@pytest.mark.parametrize("shell,n_particles,v0,b,alpha",
                         [(4, 3, 2.0, 1.0, 2.5), (8, 5, 2.0, 1.0, 2.5),
                          (8, 4, 20.0, 2.0, 1.0), (12, 4, 0.5, 0.3, 3.0)])
def test_potential_operator_matches_scalar_transforms(
        shell, n_particles, v0, b, alpha, monkeypatch):
    basis = build_basis(shell_modes(shell), n_particles)
    pot, params = step(v0, b), GPParameters(n_particles, alpha)
    want = _scalar_potential_operator(basis, pot, params).mat
    calls = []
    monkeypatch.setattr(fock, "fourier_transform_radial",
                        lambda *args: calls.append(args) or
                        fourier_transform_radial(*args))
    got = fock.potential_operator(basis, pot, params).mat
    assert len(calls) == 1
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_generators_antihermitian(fock_setup):
    params, _, table, _, basis = fock_setup
    gens = generators(basis, table)
    for op in gens.values():
        assert np.abs(op.mat + op.mat.conj().T).max() <= 1e-14


def test_conjugation_preserves_spectrum(fock_setup, step_pot):
    params, _, table, _, basis = fock_setup
    gens = generators(basis, table)
    pieces = hamiltonian_pieces(basis, step_pot, params)
    ham = LinearOperator(pieces["L0"].mat + pieces["L2"].mat
                         + pieces["L3"].mat + pieces["V_N"].mat,
                         "H", hermitian=True)
    rotated = conjugate(ham, gens["B"])
    ev1 = np.linalg.eigvalsh(ham.mat)
    ev2 = np.linalg.eigvalsh(rotated.mat)
    np.testing.assert_allclose(ev1, ev2, rtol=0, atol=1e-10)


def test_remainder_is_small(fock_setup):
    # d_p = e^{-B} b_p e^{B} - cosh(eta_p) b_p - sinh(eta_p) b*_{-p}
    params, _, table, _, basis = fock_setup
    gens = generators(basis, table)
    mode = basis.modes[0]
    eta_p = table.eta[table.lattice.index_of(*mode)]
    neg = basis.modes[int(basis.neg_mode[0])]
    bp = ladder(basis, mode, "b")
    d = (conjugate(bp, gens["B"]).mat - math.cosh(eta_p) * bp.mat
         - math.sinh(eta_p) * ladder(basis, neg, "bd").mat)
    # the non-Bogoliubov remainder carries at least one factor eta/N
    scale = np.abs(table.eta).max()
    assert np.linalg.norm(d, 2) <= 10 * scale


def test_effective_hamiltonians(fock_setup, step_pot):
    params, _, _, renorm, basis = fock_setup
    ops = effective_hamiltonians(basis, renorm, step_pot)
    vac = basis.vacuum()
    for key in ("R_eff", "H_N"):
        assert hermiticity_residual(ops[key].mat) <= 1e-12
    want = 0.5 * renorm.omega0 * (N - 1)
    assert vac @ ops["R_eff"].mat @ vac == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("shell", [4, 8])
def test_ladder_reads_the_ladder_table(shell):
    # every ladder, read from its table row, holds bit for bit the entries
    # the walk finds for the one-factor product, and nothing else
    basis = build_basis(shell_modes(shell), 3)
    for kind in ("a", "ad", "b", "bd"):
        for i, mode in enumerate(basis.modes):
            want = np.zeros((basis.dim, basis.dim))
            for rows, cols, vals in _walked(basis, [(1.0, [(kind, i)])]):
                want[rows, cols] = vals
            got = ladder(basis, mode, kind)
            assert got.mat.tobytes() == want.tobytes(), (kind, mode)
    with pytest.raises(ConfigError, match="unknown ladder"):
        ladder(basis, basis.modes[0], "c")


MAP_RULES = ("unitary", "rule_n0", "rule_create", "rule_annihilate",
             "rule_hop")


def test_unitary_excitation_map_rules():
    for shell in (4, 8, 12):
        rep = unitary_excitation_map(build_basis(shell_modes(shell), N))
        assert max(rep.values()) <= 1e-12
        assert set(rep) == set(MAP_RULES)
        for key in MAP_RULES:
            assert rep[key] <= 1e-12, (shell, key)


def _dense_excitation_map(basis):
    """The map audit with dense matrices: the N-particle sector enumerated
    on its own, U_N as an explicit permutation matrix, and each rule as
    U (a*_i a_j on the sector) U^T against the dense ladder form."""
    n, m = basis.cap, basis.n_modes
    sector = [(n - t,) + s for t in range(n + 1)
              for s in _compositions_reference(t, m)]
    index = {s: k for k, s in enumerate(sector)}
    excitation = {s: k for k, s in enumerate(map(tuple,
                                                 basis.states.tolist()))}
    U = np.zeros((basis.dim, len(sector)))
    for k, s in enumerate(sector):
        U[excitation[s[1:]], k] = 1.0

    def rule(i, j, want):
        hop = np.zeros((len(sector), len(sector)))
        for k, s in enumerate(sector):
            if s[j]:
                occ = list(s)
                coef = math.sqrt(occ[j])
                occ[j] -= 1
                coef *= math.sqrt(occ[i] + 1)
                occ[i] += 1
                hop[index[tuple(occ)], k] = coef
        return float(np.max(np.abs(U @ hop @ U.T - want)))

    dense = {kind: [ladder(basis, p, kind).mat for p in basis.modes]
             for kind in ("a", "ad", "b", "bd")}
    idx, root = range(m), math.sqrt(n)
    return {
        "unitary": float(np.max(np.abs(U @ U.T - np.eye(basis.dim)))),
        "rule_n0": rule(0, 0, np.diag(n - basis.totals().astype(float))),
        "rule_create": max(rule(i + 1, 0, root * dense["bd"][i])
                           for i in idx),
        "rule_annihilate": max(rule(0, i + 1, root * dense["b"][i])
                               for i in idx),
        "rule_hop": max(rule(i + 1, j + 1, dense["ad"][i] @ dense["a"][j])
                        for i, j in product(range(m), repeat=2)),
    }


@pytest.mark.parametrize("shell", [4, 8])
def test_unitary_excitation_map_matches_dense(shell):
    # the map audit agrees with the dense construction, and both see one
    # amplitude of any ladder kind off by a relative 1e-6 in the rule
    # that reads that kind
    def check(basis):
        got = unitary_excitation_map(basis)
        want = _dense_excitation_map(basis)
        for key in MAP_RULES:
            assert got[key] == pytest.approx(want[key], abs=1e-15), key
        return got

    assert max(check(build_basis(shell_modes(shell), N)).values()) <= 1e-12
    for kind, key in (("a", "rule_hop"), ("ad", "rule_hop"),
                      ("b", "rule_annihilate"), ("bd", "rule_create")):
        basis = build_basis(shell_modes(shell), N)
        dest, amp = basis.ladder_table[:2]
        row = fock._KIND[kind] * basis.n_modes + 1
        amp[row, np.flatnonzero(dest[row] >= 0)[0]] *= 1 + 1e-6
        got = check(basis)
        assert got[key] > 1e-10, kind


def test_diagonal_in_total(fock_setup):
    *_, basis = fock_setup
    calls = []
    op = diagonal_in_total(basis, lambda n: calls.append(n) or n * (n - 1),
                           "pairs")
    assert calls == list(range(basis.cap + 1))      # once per total
    totals = basis.totals()
    np.testing.assert_allclose(np.diag(op.mat).real,
                               totals * (totals - 1), rtol=1e-14)


def test_combine_diagonal_is_a_diagonal_term(fock_setup, step_pot):
    # combine's diagonal adds diag(diagonal) on the operators' common
    # partition: sectors when they share them, the one block otherwise
    params, _, _, renorm, basis = fock_setup
    R_eff = effective_hamiltonians(basis, renorm, step_pot)["R_eff"]
    diag = np.random.default_rng(3).normal(size=basis.dim)
    dense = 2.0 * R_eff.mat + np.diag(diag)
    op = combine([(2.0, R_eff)], "R+D", diagonal=diag)
    assert op.part is basis.sectors
    np.testing.assert_array_equal(op.mat, dense)
    whole = LinearOperator(np.eye(basis.dim), "1")
    op = combine([(2.0, R_eff), (-1.0, whole)], "R-1+D", diagonal=diag)
    assert op.part is whole_partition(basis.dim)
    np.testing.assert_array_equal(op.mat, dense - np.eye(basis.dim))


def _compositions_reference(total, parts):
    """Occupation tuples with the given total in lexicographic order, by
    the recursive generator the stars-and-bars enumeration replaced."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions_reference(total - head, parts - 1):
            yield (head,) + rest


@pytest.mark.parametrize("shell", [4, 8, 12])
def test_bases_enumerate_in_reference_order(shell):
    modes = shell_modes(shell)
    for cap in range(1, 6):
        want = [list(s) for t in range(cap + 1)
                for s in _compositions_reference(t, shell)]
        assert build_basis(modes, cap).states.tolist() == want


def _dict_lookup_ladders(basis):
    """The ladder tables with destinations found by dict lookup of the
    lowered occupation tuples."""
    index = {s: i for i, s in enumerate(map(tuple, basis.states.tolist()))}
    damp = np.sqrt((basis.cap - basis.totals()) / basis.cap)
    out = {"a": [], "ad": [], "b": [], "bd": []}
    for i in range(basis.n_modes):
        cols = np.flatnonzero(basis.states[:, i])
        lowered = basis.states[cols]
        lowered[:, i] -= 1
        rows = np.array([index[s] for s in map(tuple, lowered.tolist())],
                        dtype=np.int64)
        occ = np.sqrt(basis.states[cols, i])
        for kind, amp in (("a", occ), ("b", damp[rows] * occ)):
            for k, src, dst in ((kind, cols, rows), (kind + "d", rows, cols)):
                dest, vals = np.full(basis.dim, -1), np.zeros(basis.dim)
                dest[src], vals[src] = dst, amp
                out[k].append((dest, vals))
    return out


@pytest.mark.parametrize("shell,cap", [(4, 6), (8, 4), (12, 3)])
def test_key_search_and_momentum_codes_match_references(shell, cap):
    basis = build_basis(shell_modes(shell), cap)
    want = _dict_lookup_ladders(basis)
    dest, amp, nonzero = basis.ladder_table
    m = basis.n_modes
    assert dest.dtype == np.int32 and dest.shape == (4 * m + 1, basis.dim)
    for kind, k in fock._KIND.items():
        for i, (wdest, wvals) in enumerate(want[kind]):
            np.testing.assert_array_equal(dest[k * m + i], wdest)
            np.testing.assert_array_equal(amp[k * m + i], wvals)
    # the last row is the identity, the empty product
    np.testing.assert_array_equal(dest[-1], np.arange(basis.dim))
    np.testing.assert_array_equal(amp[-1], 1.0)
    for row, cols in zip(dest, nonzero, strict=True):
        np.testing.assert_array_equal(cols, np.flatnonzero(row >= 0))
    # sectors come in the lexicographic order of P, as np.unique sorts
    # its rows, so block order (and which of several degenerate sectors
    # LinearOperator.lowest picks) is that of the row labels
    P = basis.states @ np.array(basis.modes)
    _, label = np.unique(P, axis=0, return_inverse=True)
    ref = partition_by(label.reshape(-1))
    for got, idx in zip(basis.sectors.classes, ref.classes, strict=True):
        np.testing.assert_array_equal(got, idx)


def _combined_hamiltonians(basis, renorm, pot, params):
    """R_eff and H_N as separately built operators added by ``combine``,
    with V_N's products unmerged."""
    N, w0 = params.N, renorm.omega0
    HN = combine([(1.0, kinetic_operator(basis)),
                  (1.0, _scalar_potential_operator(basis, pot, params))],
                 "H_N", hermitian=True)
    omega = renorm.omega[[renorm.lattice.index_of(*m)
                          for m in basis.modes]].tolist()
    R_diag = diagonal_in_total(
        basis,
        lambda n: 0.5 * (N - 1) * w0 * (1 - n / N)
        + 0.5 * w0 * n * (1 - n / N) + w0 * n * (1 - n / N),
        "R-diag")
    R_eff = combine([
        (1.0, R_diag),
        (1.0, build_operator(basis, fock._pair_terms(basis, omega, 1.0),
                             "quad", hermitian=True)),
        (1.0, build_operator(
            basis, fock._cubic_terms(basis, omega, 1.0 / math.sqrt(N)),
            "R-cubic", hermitian=True)),
        (1.0, HN)], "R_eff", hermitian=True)
    return {"R_eff": R_eff, "H_N": HN}


@pytest.mark.parametrize("shell,cap", [(4, 5), (8, 4), (12, 3)])
def test_one_pass_hamiltonians_match_combined_pieces(shell, cap,
                                                     monkeypatch):
    basis = build_basis(shell_modes(shell), cap)
    pot, params = step(2.0, 1.0), GPParameters(cap, 2.5)
    weights = Weights(0.8, 0.3, 12.0, params)
    want = _combined_hamiltonians(basis, weights, pot, params)
    built = []
    build = fock.build_operator
    monkeypatch.setattr(fock, "build_operator", lambda *args, **kw:
                        built.append(args[2]) or build(*args, **kw))
    got = effective_hamiltonians(basis, weights, pot)
    assert set(got) == {"R_eff", "H_N"}
    assert len(built) == 2
    for key, op in got.items():
        assert op.part is basis.orbits, key
        np.testing.assert_allclose(op.mat, want[key].mat, rtol=1e-13,
                                   atol=0.0, err_msg=key)


# --- the batched ladder walk against the per-product walk it replaced -----

WALK_BASES = {**ORACLE_BASES, (8, 4): build_basis(shell_modes(8), 4)}


def _reference_products(basis, terms, diagonal=None):
    """The per-product walk: every product from all dim columns, one
    factor at a time, through per-mode (dest, amp) maps built by dict
    lookup; yields one (rows, cols, coef * amp) per product."""
    maps = _dict_lookup_ladders(basis)
    start = np.arange(basis.dim)
    for coef, ops in terms:
        cols, rows, amp = start, start, np.ones(basis.dim)
        for kind, i in reversed(ops):
            dest, vals = maps[kind][i]
            keep = dest[rows] >= 0
            cols, rows, amp = cols[keep], rows[keep], amp[keep]
            amp *= vals[rows]
            rows = dest[rows]
        yield rows, cols, coef * amp
    if diagonal is not None:
        yield start, start, diagonal


def _reference_flat(basis, terms, diagonal=None, part=None):
    """build_operator's flat buffer on part (the sectors by default),
    filled product by product with the entries in its stored blocks."""
    part = basis.sectors if part is None else part
    first, pos, size, total = part.slots
    kept = np.isin(np.arange(basis.dim), part.stored)
    flat = np.zeros(total)
    for rows, cols, vals in _reference_products(basis, terms, diagonal):
        at = kept[cols]
        flat[first[cols[at]] + pos[rows[at]] * size[cols[at]]] += vals[at]
    return flat


def _joined(triples):
    rows, cols, vals = (np.concatenate(x) for x in zip(*triples))
    return rows.astype(np.int64), cols.astype(np.int64), vals


def _assert_walks_equal(basis, terms, diagonal=None):
    got = _joined(_walked(basis, terms, diagonal))
    want = _joined(_reference_products(basis, terms, diagonal))
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()       # bit for bit, in order


BATCH_SIZES = [1, 7, fock._BATCH_ENTRIES]
MIXED_PRODUCTS = st.lists(st.tuples(st.sampled_from(sorted(_ADJOINT)),
                                    st.integers(0, 7)), max_size=3)


@given(shape=st.sampled_from(sorted(WALK_BASES)),
       terms=st.lists(st.tuples(COEFS, MIXED_PRODUCTS, st.booleans()),
                      min_size=1, max_size=12),
       batch=st.sampled_from(BATCH_SIZES), diagonal=st.booleans())
@settings(max_examples=120, deadline=None)
def test_batched_walk_bitwise_equals_per_product_walk(shape, terms, batch,
                                                     diagonal):
    basis = WALK_BASES[shape]
    terms = [(coef, [(kind, i % basis.n_modes) for kind, i in ops])
             for coef, ops, _ in terms] + [
        # X X^* conserves momentum whatever X is (empty X: the identity)
        (coef, [(kind, i % basis.n_modes) for kind, i in ops]
         + [(_ADJOINT[kind], i % basis.n_modes) for kind, i in reversed(ops)])
        for coef, ops, balanced in terms if balanced]
    diag = np.sin(np.arange(basis.dim)) if diagonal else None
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fock, "_BATCH_ENTRIES", batch)
        _assert_walks_equal(basis, terms, diag)
        kept = [(c, ops) for c, ops in terms
                if _moved_momentum(basis, ops) == (0, 0)]
        if kept:
            op = build_operator(basis, kept, "walk", diagonal=diag)
            got = np.concatenate([b.ravel() for b in op.blocks])
            assert got.tobytes() == _reference_flat(basis, kept, diag,
                                                    op.part).tobytes()


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("shell,cap", [(8, 5), (12, 3)])
def test_batched_walk_bitwise_on_r_eff_terms(shell, cap, batch,
                                             monkeypatch):
    # V_N's merged products, then the omega pair and cubic products: runs
    # of lengths 4, 2 and 3, as R_eff is built
    basis = build_basis(shell_modes(shell), cap)
    pot, params = step(2.0, 1.0), GPParameters(cap, 2.5)
    omega = [0.3 + 0.1 * k for k in range(basis.n_modes)]
    terms = (fock._potential_terms(basis, pot, params)
             + fock._pair_terms(basis, omega, 1.0)
             + fock._cubic_terms(basis, omega, 0.5))
    monkeypatch.setattr(fock, "_BATCH_ENTRIES", batch)
    _assert_walks_equal(basis, terms)
    diag = fock._kinetic(basis)
    op = build_operator(basis, terms, "R", hermitian=True, diagonal=diag)
    got = np.concatenate([b.ravel() for b in op.blocks])
    assert got.tobytes() == _reference_flat(basis, terms, diag).tobytes()


def _reference_potential_terms(basis, pot, params):
    """V_N's merged products by the (p, q, r) triple loop and a dict that
    adds each product's coefficients in term order."""
    modes = basis.modes
    mode_set = {m: i for i, m in enumerate(modes)}
    shifts, products = [], []
    for ip, p in enumerate(modes):
        for iq, q in enumerate(modes):
            for ipr, pr in enumerate(modes):
                r = (pr[0] - p[0], pr[1] - p[1])
                qr = (q[0] + r[0], q[1] + r[1])
                if qr == (0, 0) or qr not in mode_set:
                    continue
                iqr = mode_set[qr]
                shifts.append(r)
                products.append((min(ipr, iq), max(ipr, iq),
                                 min(iqr, ip), max(iqr, ip)))
    merged = {}
    for v, key in zip(fock._vhat(pot, params, shifts), products):
        merged[key] = merged.get(key, 0.0) + 0.5 * v
    return [(coef, [("ad", i), ("ad", j), ("a", k), ("a", l)])
            for (i, j, k, l), coef in merged.items()]


@pytest.mark.parametrize("shell", [4, 8, 12])
def test_potential_terms_bitwise_equal_triple_loop(shell):
    basis = build_basis(shell_modes(shell), 3)
    for pot, params in [(step(2.0, 1.0), GPParameters(3, 2.5)),
                        (step(20.0, 2.0), GPParameters(4, 1.0))]:
        got = fock._potential_terms(basis, pot, params)
        want = _reference_potential_terms(basis, pot, params)
        assert [ops for _, ops in got] == [ops for _, ops in want]
        assert (np.array([c for c, _ in got]).tobytes()
                == np.array([c for c, _ in want]).tobytes())


def _reference_partition(labels):
    """Size classes by the comprehension over every block per size."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    _, first, sizes = np.unique(labels[order], return_index=True,
                                return_counts=True)
    blocks = np.split(order, first[1:])
    return [np.stack([b for b in blocks if len(b) == s])
            for s in sorted(set(sizes.tolist()))]


@given(labels=st.lists(st.integers(-5, 30), max_size=120))
@settings(max_examples=200, deadline=None)
def test_partition_by_matches_comprehension(labels):
    part = partition_by(labels)
    want = _reference_partition(labels)
    assert part.dim == len(labels)
    assert len(part.classes) == len(want)
    for got, ref in zip(part.classes, want):
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got, ref)


# --- one keyed sum for many operators against one sum per operator -------

def _per_call_largest(dim, triples):
    """Largest |entry| of one matrix from its (rows, cols, vals) triples,
    summed by the int64 key row * dim + col in the order given."""
    rows, cols, vals = (np.concatenate(x) for x in zip(*triples))
    keys = rows.astype(np.int64) * dim + cols
    _, at = np.unique(keys, return_inverse=True)
    return float(np.abs(np.bincount(at, weights=vals)).max(initial=0.0))


def test_keyed_sum_keys_do_not_wrap():
    # int32 ladder indices: 61356 * 70000 + 47296 is 2^32, which wraps to
    # the key of (0, 0) in int32 arithmetic
    dim = 70_000
    rows = np.array([61356, 0], dtype=np.int32)
    cols = np.array([47296, 0], dtype=np.int32)
    assert (rows * np.int32(dim) + cols)[0] == 0          # the old key
    got = fock._largest_sums(dim, 1, [(np.zeros(2, dtype=np.int64), rows,
                                       cols, np.ones(2))])
    assert got.tolist() == [1.0]
    # owners count in the key too: the same entry in two matrices
    got = fock._largest_sums(dim, 3, [(np.array([0, 2]), rows[:1].repeat(2),
                                       cols[:1].repeat(2), np.ones(2))])
    assert got.tolist() == [1.0, 0.0, 1.0]
    with pytest.raises(SizeError):
        fock._largest_sums(2 ** 20, 2 ** 24, [])


def _commutator_identities(basis):
    """The 2 m^2 identities of ``commutator_residual`` as (terms,
    diagonal)."""
    N, n = basis.cap, basis.totals()
    out = []
    for p, q in product(range(basis.n_modes), repeat=2):
        out.append(([(1.0, [("b", p), ("bd", q)]),
                     (-1.0, [("bd", q), ("b", p)]),
                     (1.0 / N, [("ad", q), ("a", p)])],
                    n / N - 1.0 if p == q else None))
        out.append(([(1.0, [("b", p), ("b", q)]),
                     (-1.0, [("b", q), ("b", p)])], None))
    return out


def _mutated(basis):
    """b_1's first amplitude off by a relative 1e-6."""
    dest, amp = basis.ladder_table[:2]
    row = fock._KIND["b"] * basis.n_modes + 1
    amp[row, np.flatnonzero(dest[row] >= 0)[0]] *= 1 + 1e-6
    return basis


@pytest.mark.parametrize("shell", [4, 8])
@pytest.mark.parametrize("mutate", [False, True])
def test_commutator_sums_bitwise_per_identity(shell, mutate):
    basis = build_basis(shell_modes(shell), N)
    if mutate:
        basis = _mutated(basis)
    identities = _commutator_identities(basis)
    got = largest_entries(basis, identities)
    want = [_per_call_largest(basis.dim, _walked(basis, terms, diag))
            for terms, diag in identities]
    assert got.tolist() == want
    worst = commutator_residual(basis)
    assert worst == max(want)
    assert (worst > 1e-10) == mutate


def _per_rule_map(basis):
    """The map audit with one keyed sum per rule: the sector side, then
    its ladder form.  States are looked up by their occupation tuples, not
    by the basis' keys."""
    n = basis.cap
    sec = np.hstack((n - basis.totals()[:, None], basis.states))
    index = {s: k for k, s in enumerate(map(tuple, basis.states.tolist()))}

    def position(rows):
        return np.array([index[s] for s in map(tuple, rows.tolist())],
                        dtype=np.int64)

    found = position(sec[:, 1:])

    def rule(i, j, terms, diagonal=None):
        cols = np.flatnonzero(sec[:, j])
        occ = sec[cols]
        coef = np.sqrt(occ[:, j].astype(float))
        occ[:, j] -= 1
        coef *= np.sqrt(occ[:, i] + 1.0)
        occ[:, i] += 1
        side = (position(occ[:, 1:]), found[cols], coef)
        form = [(r, c, -v) for r, c, v in _walked(basis, terms, diagonal)]
        return _per_call_largest(basis.dim, [side] + form)

    idx, root = range(basis.n_modes), math.sqrt(n)
    return {
        "rule_n0": rule(0, 0, [], n - basis.totals().astype(float)),
        "rule_create": max(rule(i + 1, 0, [(root, [("bd", i)])])
                           for i in idx),
        "rule_annihilate": max(rule(0, i + 1, [(root, [("b", i)])])
                               for i in idx),
        "rule_hop": max(rule(i + 1, j + 1, [(1.0, [("ad", i), ("a", j)])])
                        for i, j in product(idx, repeat=2)),
    }


@pytest.mark.parametrize("shell", [4, 8, 12])
@pytest.mark.parametrize("mutate", [False, True])
def test_map_rules_bitwise_per_rule(shell, mutate):
    for n in (3, 5):
        basis = build_basis(shell_modes(shell), n)
        if mutate:
            basis = _mutated(basis)
        got = unitary_excitation_map(basis)
        want = _per_rule_map(basis)
        for key, value in want.items():
            assert got[key] == value, (n, key)
        assert (max(got.values()) <= 1e-12) != mutate
        if mutate:
            assert got["rule_annihilate"] > 1e-10


# --- LinearOperator.lowest: values first, one eigenvector ----------------

def lowest_eigh_every_block(op):
    """The lowest eigenpair as ``lowest`` found it by ``eigh`` on every
    block: the first smallest value in class order, and its vector."""
    best = None
    for idx, blk in zip(op.part.classes, op.blocks):
        vals, vecs = np.linalg.eigh(blk)
        k = int(np.argmin(vals[:, 0]))
        if best is None or vals[k, 0] < best[0]:
            best = float(vals[k, 0]), idx[k], vecs[k, :, 0]
    val, idx, v = best
    vec = np.zeros(op.dim, dtype=v.dtype)
    vec[idx] = v
    return val, vec


@given(shape=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 5)),
                      min_size=1, max_size=4,
                      unique_by=lambda size_count: size_count[0]),
       seed=st.integers(0, 2 ** 32 - 1), tie=st.booleans())
@settings(max_examples=60, deadline=None)
def test_lowest_values_first_matches_eigh_on_every_block(shape, seed, tie):
    # random symmetric blocks in size classes of random sectors; with
    # ``tie`` the last block of each class repeats its first
    rng = np.random.default_rng(seed)
    labels, label = [], 0
    for size, count in shape:
        for _ in range(count):
            labels += [label] * size
            label += 1
    part = partition_by(rng.permutation(labels))
    blocks = []
    for idx in part.classes:
        m = rng.normal(size=(len(idx), idx.shape[1], idx.shape[1]))
        blk = m + np.swapaxes(m, 1, 2)
        if tie:
            blk[-1] = blk[0]
        blocks.append(blk)
    op = LinearOperator.from_blocks(part, blocks, "rand", hermitian=True)
    val, vec = op.lowest(np.linalg.eigvalsh, np.linalg.eigh)
    want, want_vec = lowest_eigh_every_block(op)
    minima = np.sort(np.concatenate(
        [np.linalg.eigvalsh(b)[:, 0] for b in blocks]))
    if len(minima) == 1 or minima[1] - minima[0] > 1e-12:
        assert val == want
        sign = 1.0 if vec @ want_vec > 0 else -1.0
        np.testing.assert_allclose(sign * vec, want_vec, rtol=0, atol=1e-12)
    else:
        assert abs(val - want) <= 1e-12
    mat = op.mat
    assert np.abs(mat @ vec - val * vec).max() <= 1e-10
    assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("cap", [3, 4, 5])
def test_ground_state_values_first_on_r_eff(cap):
    # energy-sweep's eigensolve at shell 8: E0 to the bit, the depletion
    # to 1e-14, against eigh on every block
    cfg = RunConfig(shell=8)
    pipe = Pipeline(cfg)
    basis = pipe.basis(cap)
    op = fock.r_effective_hamiltonian(
        basis, pipe.renorm(cap, cfg.fock_alpha), pipe.pot)
    e0, _, depletion = ground_state(op, basis)
    want, want_vec = lowest_eigh_every_block(op)
    want_depletion = float(basis.totals() @ want_vec ** 2) / cap
    assert e0 == want
    assert abs(depletion - want_depletion) <= 1e-14 * want_depletion


# --- one momentum sector per orbit of the lattice symmetries --------------

# the eight signed permutations of (x, y); shells 4, 8 and 12 are closed
# under all of them
SIGNED = [np.array(g) for g in ([[1, 0], [0, 1]], [[0, -1], [1, 0]],
                                [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
                                [[1, 0], [0, -1]], [[-1, 0], [0, 1]],
                                [[0, 1], [1, 0]], [[0, -1], [-1, 0]])]


def _every_sector(monkeypatch):
    """Make build_operator store every momentum sector."""
    monkeypatch.setattr(fock, "_symmetric", lambda *args: False)


ORBIT_BASES = {(8, 3): build_basis(shell_modes(8), 3),
               (12, 2): build_basis(shell_modes(12), 2)}


@given(shape=st.sampled_from(sorted(ORBIT_BASES)),
       v0=st.floats(0.5, 20.0), b=st.floats(0.3, 2.0),
       alpha=st.floats(1.5, 3.0), c=st.floats(-2.0, 2.0),
       d=st.floats(-1.0, 1.0), w0=st.floats(0.0, 20.0))
@settings(max_examples=20, deadline=None)
def test_orbit_blocks_reproduce_every_sector_spectrum(shape, v0, b, alpha,
                                                       c, d, w0):
    basis = ORBIT_BASES[shape]
    pot, params = step(v0, b), GPParameters(basis.cap, alpha)
    weights = Weights(c, d, w0, params)  # omega depends on |p| alone
    got = effective_hamiltonians(basis, weights, pot)
    with pytest.MonkeyPatch.context() as m:
        _every_sector(m)
        want = effective_hamiltonians(basis, weights, pot)
    P = basis.states @ np.array(basis.modes)
    orbits = {frozenset(tuple(g @ p) for g in SIGNED) for p in P}
    for key, op in got.items():
        assert op.part is basis.orbits, key
        assert want[key].part is basis.sectors, key
        stored = {}
        for idx, blk in zip(op.part.classes, op.blocks):
            for i, vals in zip(idx, np.linalg.eigvalsh(blk)):
                stored[tuple(P[i[0]])] = vals
        # one stored sector per orbit of P
        assert len(stored) == len(orbits)
        scale = max(np.abs(blk).max() for blk in want[key].blocks)
        for idx, blk in zip(want[key].part.classes, want[key].blocks):
            for i, vals in zip(idx, np.linalg.eigvalsh(blk)):
                hit = {tuple(g @ P[i[0]]) for g in SIGNED} & set(stored)
                assert len(hit) == 1, key
                np.testing.assert_allclose(stored[hit.pop()], vals, rtol=0,
                                           atol=1e-12 * scale, err_msg=key)


def test_orbits_follow_the_symmetry_of_the_mode_set():
    # a rectangle's modes are closed under the two mirrors and the half
    # turn only
    basis = build_basis([(1, 0), (-1, 0), (0, 2), (0, -2)], 4)
    group = [g for g in SIGNED
             if {tuple(g @ m) for m in basis.modes} == set(basis.modes)]
    assert len(group) == 4
    P = basis.states @ np.array(basis.modes)
    orbits = {frozenset(tuple(g @ p) for g in group) for p in P}
    assert sum(len(idx) for idx in basis.orbits.classes) == len(orbits)
    pot, params = step(2.0, 1.0), GPParameters(4, 2.5)
    weights = Weights(0.8, 0.3, 12.0, params)
    got = effective_hamiltonians(basis, weights, pot)
    with pytest.MonkeyPatch.context() as m:
        _every_sector(m)
        want = effective_hamiltonians(basis, weights, pot)
    for key, op in got.items():
        assert op.part is basis.orbits, key
        ref = want[key].mat
        assert (np.abs(op.mat - ref).max()
                <= 4 * np.finfo(float).eps * np.abs(ref).max()), key


def _pipeline_operators(shell, cap):
    """R_eff, H_N, B, A, L2 and L3 of the default config at one shell and
    particle cap."""
    cfg = RunConfig(shell=shell)
    pipe = Pipeline(cfg)
    basis, alpha = pipe.basis(cap), cfg.fock_alpha
    params = pipe.params(cap, alpha)
    pieces = hamiltonian_pieces(basis, pipe.pot, params)
    return basis, {**effective_hamiltonians(basis, pipe.renorm(cap, alpha),
                                            pipe.pot),
                   **generators(basis, pipe.table(cap, alpha)),
                   "L2": pieces["L2"], "L3": pieces["L3"]}


@pytest.mark.parametrize("shell,cap", [(4, 5), (8, 4), (12, 3)])
def test_orbit_matrices_equal_every_sector_build(shell, cap):
    basis, got = _pipeline_operators(shell, cap)
    with pytest.MonkeyPatch.context() as m:
        _every_sector(m)
        every, want = _pipeline_operators(shell, cap)
    eps = np.finfo(float).eps
    for key, op in got.items():
        assert op.part is basis.orbits, key
        assert want[key].part is every.sectors, key
        dense, ref = op.mat, want[key].mat
        assert np.abs(dense - ref).max() <= 4 * eps * np.abs(ref).max(), key
        # the stored blocks are the every-sector build's, bit for bit
        for idx, blk in zip(op.part.classes, op.blocks):
            assert np.array_equal(blk, ref[idx[:, :, None],
                                           idx[:, None, :]]), key


@pytest.mark.parametrize("shell", [4, 8, 12])
def test_weights_are_the_lattice_tables_at_the_modes(shell, monkeypatch):
    # R_eff's omega_hat and the generators' eta are read from the run's
    # lattice tables, not evaluated again per mode
    pipe = Pipeline(RunConfig(shell=shell))
    n, alpha = FOCK_N_MIN, pipe.cfg.fock_alpha
    basis, table = pipe.basis(n), pipe.table(n, alpha)
    renorm = pipe.renorm(n, alpha)
    seen = []
    for name in ("_pair_terms", "_cubic_terms"):
        def spy(basis, weights, *args, build=getattr(fock, name)):
            seen.append(np.array(weights, float))
            return build(basis, weights, *args)
        monkeypatch.setattr(fock, name, spy)
    fock.r_effective_hamiltonian(basis, renorm, pipe.pot)
    fock.generators(basis, table)
    idx = [pipe.lattice.index_of(*m) for m in basis.modes]
    want = [renorm.omega[idx]] * 2 + [table.eta[idx]] * 2
    assert len(seen) == len(want)
    for got, ref in zip(seen, want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shell,cap", [(4, 5), (8, 4), (12, 3)])
def test_effective_hamiltonians_build_each_operator_once(shell, cap):
    # R_eff has one recipe, r_effective_hamiltonian's, and H_N is one
    # plain build of V_N's products with the kinetic diagonal
    cfg = RunConfig(shell=shell)
    pipe = Pipeline(cfg)
    basis, alpha = pipe.basis(cap), cfg.fock_alpha
    renorm, params = pipe.renorm(cap, alpha), pipe.params(cap, alpha)
    got = effective_hamiltonians(basis, renorm, pipe.pot)
    want = {"R_eff": fock.r_effective_hamiltonian(basis, renorm, pipe.pot),
            "H_N": build_operator(
                basis, fock._potential_terms(basis, pipe.pot, params), "H_N",
                hermitian=True, diagonal=fock._kinetic(basis))}
    for key, op in got.items():
        assert op.part is want[key].part, key
        assert len(op.blocks) == len(want[key].blocks), key
        for blk, ref in zip(op.blocks, want[key].blocks):
            assert np.array_equal(blk, ref), key


def _omega_mutated_terms(basis, weights, params, k):
    """R_eff's products and diagonal with omega_hat at mode k scaled by
    1 + 1e-6."""
    omega = fock._on_modes(basis, weights.lattice, weights.omega)
    omega[k] *= 1 + 1e-6
    R_diag = fock._r_eff_rest(basis, weights)[1]
    terms = (fock._potential_terms(basis, step(2.0, 1.0), params)
             + fock._pair_terms(basis, omega, 1.0)
             + fock._cubic_terms(basis, omega, 1.0 / math.sqrt(params.N)))
    return terms, fock._kinetic(basis) + R_diag


@pytest.mark.parametrize("case", ["n0", "omega", "diagonal"])
@pytest.mark.parametrize("shape", sorted(ORACLE_BASES))
def test_operators_without_the_symmetry_keep_every_sector(shape, case):
    basis = ORACLE_BASES[shape]
    params = GPParameters(basis.cap, 2.5)
    if case == "n0":
        # the occupation of one mode, as tests/test_bench_contract.py builds
        terms, diagonal = [(1.0, [("ad", 0), ("a", 0)])], None
    elif case == "omega":
        terms, diagonal = _omega_mutated_terms(
            basis, Weights(0.8, 0.3, 12.0, params), params,
            basis.n_modes - 1)
    else:
        # V_N, which has the symmetry, plus a diagonal that has not
        terms = fock._potential_terms(basis, step(2.0, 1.0), params)
        diagonal = np.cos(np.arange(basis.dim))
    op = build_operator(basis, terms, case, diagonal=diagonal)
    assert op.part is basis.sectors
    want = _reference_operator(basis, terms)
    if diagonal is not None:
        want += np.diag(diagonal)
    np.testing.assert_allclose(op.mat, want, rtol=1e-13,
                               atol=1e-14 * np.abs(want).max())
