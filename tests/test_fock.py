import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gp2d import fock
from gp2d.errors import ConfigError, SizeError
from gp2d.fock import (LinearOperator, build_basis, build_operator,
                       build_sector, combine, conjugate, diagonal_in_total,
                       effective_hamiltonians, export_operator, generators,
                       gn_effective_hamiltonian, hamiltonian_pieces,
                       hermiticity_residual, kinetic_operator, ladder,
                       number_operator, partition_by, remainder_d,
                       shell_modes, unitary_excitation_map, whole_partition)
from gp2d.kernels import (GPParameters, eta_coefficients,
                          renormalized_potential)
from gp2d.lattice import TWO_PI, build_lattice
from gp2d.potentials import fourier_transform_radial, step
from gp2d.scattering import neumann_ground_state

N = 3


@pytest.fixture(scope="module")
def fock_setup(step_pot):
    params = GPParameters(N, 2.5)
    sol = neumann_ground_state(step_pot, params.R)
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


@given(shape=st.sampled_from(sorted(ORACLE_BASES)),
       coef=st.floats(-10.0, 10.0).filter(lambda c: abs(c) > 1e-3),
       ops=st.lists(st.tuples(st.sampled_from(["a", "ad", "b", "bd"]),
                              st.integers(0, 7)), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_build_operator_matches_per_state_reference(shape, coef, ops):
    basis = ORACLE_BASES[shape]
    ops = [(kind, i % basis.n_modes) for kind, i in ops]
    got = build_operator(basis, [(coef, ops)], "oracle").mat
    want = _reference_operator(basis, [(coef, ops)])
    assert got.dtype == np.float64
    # entry for entry, zeros included: elements dropped at the cap stay 0
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class Weights:
    """Stands in for the eta table and the renormalized potential: smooth
    weights of the mode, drawn per example."""

    def __init__(self, c, d, w0):
        self.c, self.d, self.omega0 = c, d, w0

    def eta_at(self, n1, n2):
        return self.c * math.exp(-0.3 * (n1 * n1 + n2 * n2)) + self.d * n1

    def omega_at(self, p_norm):
        return self.d + self.c * math.cos(p_norm / 7.0)


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
    eff = effective_hamiltonians(basis, weights, pot, params)
    gens = generators(basis, weights, params)
    return {"K": pieces["K"], "V_N": pieces["V_N"], "L2": pieces["L2"],
            "L3": pieces["L3"],
            "G_eff": gn_effective_hamiltonian(basis, weights, pot, params),
            "R_eff": eff["R_eff"], "B": gens["B"], "A": gens["A"]}


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
    weights = Weights(c, d, w0)
    got = _all_operators(basis, pot, params, weights)
    with pytest.MonkeyPatch.context() as m:
        _dense_brute_force(m)
        want = _all_operators(basis, pot, params, weights)
    for key, op in got.items():
        assert op.part is basis.sectors, key
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


def test_non_conserving_string_is_one_block():
    basis = ORACLE_BASES[(8, 2)]
    kept = build_operator(basis, [(1.0, [("ad", 0), ("a", 0)])], "n_0")
    assert kept.part is basis.sectors
    moved = build_operator(basis, [(1.0, [("ad", 0), ("a", 1)])], "hop")
    assert moved.part is whole_partition(basis.dim)
    np.testing.assert_array_equal(
        moved.mat, _reference_operator(basis, [(1.0, [("ad", 0),
                                                      ("a", 1)])]))
    # a sum with one non-conserving string is stored whole as well
    mixed = build_operator(basis, [(1.0, [("ad", 0), ("a", 0)]),
                                   (0.5, [("bd", 2)])], "mixed")
    assert mixed.part is whole_partition(basis.dim)


def test_mixed_partitions_meet_on_one_block(fock_setup):
    params, _, table, _, basis = fock_setup
    B = generators(basis, table, params)["B"]
    dense = LinearOperator(number_operator(basis).mat, "N+ dense",
                           hermitian=True)
    blocked = conjugate(number_operator(basis), B)
    met = conjugate(dense, B)
    assert blocked.part is basis.sectors
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
    gens = generators(basis, table, params)
    ops = [*hamiltonian_pieces(basis, step_pot, params).values(),
           *effective_hamiltonians(basis, renorm, step_pot,
                                   params).values(),
           gn_effective_hamiltonian(basis, renorm, step_pot, params),
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
    with pytest.raises(SizeError):
        build_basis(shell_modes(12), 8, dim_cap=1000)


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
    assert pieces["L0"].expectation(vac) == pytest.approx(
        0.5 * vhat0 * N * (N - 1), rel=1e-12)
    assert pieces["K"].expectation(vac) == 0.0
    assert pieces["V_N"].expectation(vac) == 0.0


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
    gens = generators(basis, table, params)
    for op in gens.values():
        assert np.abs(op.mat + op.mat.conj().T).max() <= 1e-14


def test_conjugation_preserves_spectrum(fock_setup, step_pot):
    params, _, table, _, basis = fock_setup
    gens = generators(basis, table, params)
    pieces = hamiltonian_pieces(basis, step_pot, params)
    ham = LinearOperator(pieces["L0"].mat + pieces["L2"].mat
                         + pieces["L3"].mat + pieces["V_N"].mat,
                         "H", hermitian=True)
    rotated = conjugate(ham, gens["B"])
    ev1 = np.linalg.eigvalsh(ham.mat)
    ev2 = np.linalg.eigvalsh(rotated.mat)
    np.testing.assert_allclose(ev1, ev2, rtol=0, atol=1e-10)


def test_remainder_is_small(fock_setup):
    params, _, table, _, basis = fock_setup
    gens = generators(basis, table, params)
    mode = basis.modes[0]
    d = remainder_d(basis, mode, table, params, gens["B"])
    # the non-Bogoliubov remainder carries at least one factor eta/N
    scale = np.abs(table.eta).max()
    assert np.linalg.norm(d.mat, 2) <= 10 * scale


def test_effective_hamiltonians(fock_setup, step_pot):
    params, _, _, renorm, basis = fock_setup
    ops = effective_hamiltonians(basis, renorm, step_pot, params)
    ops["G_eff"] = gn_effective_hamiltonian(basis, renorm, step_pot, params)
    vac = basis.vacuum()
    for key in ("G_eff", "R_eff", "H_N"):
        assert hermiticity_residual(ops[key].mat) <= 1e-12
    want = 0.5 * renorm.omega0 * (N - 1)
    assert ops["G_eff"].expectation(vac) == pytest.approx(want, rel=1e-12)
    assert ops["R_eff"].expectation(vac) == pytest.approx(want, rel=1e-12)


def test_unitary_excitation_map_rules():
    rep = unitary_excitation_map(shell_modes(4), N)
    assert rep["pass"]
    for key in ("unitary", "rule_n0", "rule_create", "rule_annihilate",
                "rule_hop"):
        assert rep[key] <= 1e-12


def test_diagonal_in_total(fock_setup):
    *_, basis = fock_setup
    calls = []
    op = diagonal_in_total(basis, lambda n: calls.append(n) or n * (n - 1),
                           "pairs")
    assert calls == list(range(basis.cap + 1))      # once per total
    totals = basis.totals()
    np.testing.assert_allclose(np.diag(op.mat).real,
                               totals * (totals - 1), rtol=1e-14)


def test_sectored_export_is_its_dense_copy(fock_setup, step_pot, tmp_path,
                                           monkeypatch):
    params, _, _, renorm, basis = fock_setup
    op = effective_hamiltonians(basis, renorm, step_pot, params)["R_eff"]
    assert op.part is basis.sectors
    dense = LinearOperator(op.mat, op.tag, op.hermitian)
    export_operator(dense, tmp_path / "dense.txt")
    # the dense matrix of a sectored operator is assembled once
    assembled = []
    mat = LinearOperator.mat
    monkeypatch.setattr(LinearOperator, "mat", property(
        lambda self: assembled.append(1) or mat.fget(self)))
    export_operator(op, tmp_path / "sectored.txt")
    assert len(assembled) == 1
    assert (tmp_path / "sectored.txt").read_bytes() == \
        (tmp_path / "dense.txt").read_bytes()


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
        sec = build_sector(modes, cap, dim_cap=len(want))
        assert sec.states.tolist() == [[cap - sum(s)] + s for s in want]


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
    assert set(basis.ladders) == set(want)
    for kind, maps in basis.ladders.items():
        for (dest, vals), (wdest, wvals) in zip(maps, want[kind],
                                                strict=True):
            np.testing.assert_array_equal(dest, wdest)
            np.testing.assert_array_equal(vals, wvals)
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
    omega = [float(renorm.omega_at(TWO_PI * math.hypot(*m)))
             for m in basis.modes]
    R_diag = diagonal_in_total(
        basis,
        lambda n: 0.5 * (N - 1) * w0 * (1 - n / N)
        + 0.5 * w0 * n * (1 - n / N) + w0 * n * (1 - n / N),
        "R-diag")
    R_eff = combine([
        (1.0, R_diag), (1.0, fock._pair_operator(basis, omega, 1.0, "quad")),
        (1.0, fock._cubic_operator(basis, omega, 1.0 / math.sqrt(N),
                                   "R-cubic")),
        (1.0, HN)], "R_eff", hermitian=True)
    return {"R_eff": R_eff, "H_N": HN}


@pytest.mark.parametrize("shell,cap", [(4, 5), (8, 4), (12, 3)])
def test_one_pass_hamiltonians_match_combined_pieces(shell, cap,
                                                     monkeypatch):
    basis = build_basis(shell_modes(shell), cap)
    pot, params = step(2.0, 1.0), GPParameters(cap, 2.5)
    weights = Weights(0.8, 0.3, 12.0)
    want = _combined_hamiltonians(basis, weights, pot, params)
    built = []
    build = fock.build_operator
    monkeypatch.setattr(fock, "build_operator", lambda *args, **kw:
                        built.append(args[2]) or build(*args, **kw))
    got = effective_hamiltonians(basis, weights, pot, params)
    assert set(got) == {"R_eff", "H_N"}
    assert len(built) == 2
    for key, op in got.items():
        assert op.part is basis.sectors, key
        np.testing.assert_allclose(op.mat, want[key].mat, rtol=1e-13,
                                   atol=0.0, err_msg=key)


def test_export_operator(fock_setup, tmp_path):
    *_, basis = fock_setup
    op = number_operator(basis)
    path = tmp_path / "op.csv"
    export_operator(op, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and f"dim={basis.dim}" in lines[0]
    entries = lines[1:]
    # one (row col re im) entry per nonzero matrix element
    assert len(entries) == np.count_nonzero(op.mat)
    r, c, re, im = entries[0].split()
    assert op.mat[int(r), int(c)] == complex(float(re), float(im))
