import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gp2d import audits
from gp2d.audits import (InequalityReport, condensation_lower_bound,
                         localization_check, min_constant, smooth_partition,
                         square_completion_check)
from gp2d.config import RunConfig
from gp2d.energy import Pipeline
from gp2d.errors import ConfigError
from gp2d.fock import (LinearOperator, build_basis, combine,
                       diagonal_in_total, effective_hamiltonians,
                       number_operator, partition_by, shell_modes)
from gp2d.kernels import GPParameters, chi_hat, renormalized_potential
from gp2d.lattice import TWO_PI, build_lattice
from gp2d.scattering import neumann_ground_state


def diag_op(values, tag="D"):
    return LinearOperator(np.diag(np.asarray(values, complex)), tag,
                          hermitian=True)


@pytest.fixture(scope="module")
def audit_setup(step_pot, step_zero):
    params = GPParameters(3, 2.5)
    sol = neumann_ground_state(step_zero, params.R)
    lat = build_lattice(TWO_PI * 8)
    renorm = renormalized_potential(params, sol.lam_R2, lat)
    basis = build_basis(shell_modes(4), 3)
    ops = effective_hamiltonians(basis, renorm, step_pot)
    return params, renorm, basis, ops


def test_min_constant_exact_diagonal_case():
    # diag(2, 0) <= c * I first holds at c = 2
    rep = min_constant(diag_op([2.0, 0.0]), [diag_op([1.0, 1.0])], "toy")
    assert rep.passed
    assert rep.constant == pytest.approx(2.0, rel=1e-12)


def test_min_constant_already_negative(monkeypatch):
    # C = 0 and its eigenpair come from one lowest eigenpair of -lhs; no
    # pencil is whitened before it
    calls = []
    original = audits.cholesky

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(audits, "cholesky", counted)
    rep = min_constant(diag_op([-1.0, -3.0]), [diag_op([1.0, 1.0])], "neg")
    assert rep.passed
    assert rep.constant == 0.0
    assert rep.min_eigenvalue == pytest.approx(1.0)
    assert calls == []


def test_min_constant_unbounded():
    # no multiple of diag(1, 0) dominates diag(0, 1)
    rep = min_constant(diag_op([0.0, 1.0]), [diag_op([1.0, 0.0])], "bad")
    assert not rep.passed
    assert not math.isfinite(rep.constant) or rep.constant >= 1e6


def test_min_constant_singular_rhs_lhs_nonpositive():
    # rhs = diag(1, 0) is singular, but lhs <= 0 needs no multiple of it
    rep = min_constant(diag_op([-1.0, 0.0]), [diag_op([1.0, 0.0])], "sing")
    assert rep.passed
    assert rep.constant == 0.0


def test_min_constant_singular_rhs_lhs_positive_on_kernel():
    # lhs is positive on ker(rhs) = span(e_1): no finite constant
    lhs = LinearOperator(np.array([[1.0, 0.5], [0.5, 1.0]]), "lhs",
                         hermitian=True)
    rep = min_constant(lhs, [diag_op([1.0, 0.0])], "kernel")
    assert not rep.passed
    assert rep.constant == math.inf
    assert "not positive definite" in rep.notes


def test_min_constant_multiple_rhs_terms():
    # terms are summed: rhs = diag(2, 2), so the constant is 2
    lhs = diag_op([4.0, 4.0])
    rep = min_constant(lhs, [diag_op([1.0, 0.0]), diag_op([1.0, 2.0])],
                       "multi")
    assert rep.passed
    assert rep.constant == pytest.approx(2.0, rel=1e-12)


def test_min_constant_dimension_mismatch():
    with pytest.raises(ConfigError):
        min_constant(diag_op([1.0]), [diag_op([1.0, 1.0])], "shape")


@given(t=st.floats(1.0, 100.0))
@settings(max_examples=20, deadline=None)
def test_min_constant_scales_with_lhs(t):
    base = diag_op([3.0, 1.0])
    rhs = [diag_op([1.0, 1.0])]
    c1 = min_constant(base, rhs, "scale-1").constant
    c2 = min_constant(diag_op([3.0 * t, t]), rhs, "scale-t").constant
    assert c2 == pytest.approx(t * c1, rel=1e-12)


def test_min_constant_same_for_real_and_complex_cast(audit_setup):
    # the certifier takes operators as they come: a real operator and its
    # complex128 cast give the same constant and verdict.  The identity
    # term makes the rhs positive definite, as in condensation_lower_bound,
    # so the constant is finite
    _, _, basis, ops = audit_setup
    lhs = ops["R_eff"]
    rhs = [ops["H_N"], number_operator(basis),
           diagonal_in_total(basis, lambda n: 1.0, "1")]
    assert lhs.mat.dtype == np.float64
    real = min_constant(lhs, rhs, "real")
    cast = min_constant(
        LinearOperator(lhs.mat.astype(complex), "cast", hermitian=True),
        [LinearOperator(t.mat.astype(complex), t.tag, hermitian=True)
         for t in rhs], "cast")
    assert math.isfinite(real.constant) and real.constant > 0
    assert cast.constant == pytest.approx(real.constant, rel=1e-12)
    assert cast.passed == real.passed


def _random_blocks(rng, part, shift):
    """Symmetric random blocks over part, each shifted by shift * 1."""
    blocks = []
    for idx in part.classes:
        m = rng.normal(size=idx.shape + (idx.shape[1],))
        blocks.append(m + np.swapaxes(m, 1, 2)
                      + shift * np.eye(idx.shape[1]))
    return blocks


def _gram_blocks(rng, part, gap):
    """Random blocks m m^T + gap * 1 over part: positive definite for
    gap > 0."""
    blocks = []
    for idx in part.classes:
        m = rng.normal(size=idx.shape + (idx.shape[1],))
        blocks.append(m @ np.swapaxes(m, 1, 2)
                      + gap * np.eye(idx.shape[1]))
    return blocks


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_min_constant_blockwise_equals_one_block(seed):
    # a block-diagonal operator whose blocks sit on a random permutation
    # of the indices: stored blockwise or as one dense block, it gets the
    # same constant, verdict and extremal eigenvalue
    rng = np.random.default_rng(seed)
    part = partition_by(rng.integers(0, 9, size=40))
    lhs = LinearOperator.from_blocks(part, _random_blocks(rng, part, 0.0),
                                     "lhs", hermitian=True)
    rhs = LinearOperator.from_blocks(part, _gram_blocks(rng, part, 12.0),
                                     "rhs", hermitian=True)
    blocked = min_constant(lhs, [rhs], "blocked")
    whole = min_constant(LinearOperator(lhs.mat, "lhs", hermitian=True),
                         [LinearOperator(rhs.mat, "rhs", hermitian=True)],
                         "whole")
    assert 0 < blocked.constant < math.inf
    # an exact eigenvalue agrees across storage layouts to rounding only
    assert blocked.constant == pytest.approx(whole.constant, rel=1e-12)
    assert blocked.passed == whole.passed
    assert blocked.min_eigenvalue == pytest.approx(whole.min_eigenvalue,
                                                   rel=1e-9, abs=1e-12)
    assert blocked.tolerance == whole.tolerance


def bisection_constant(lhs, rhs, rel_tol=1e-3):
    """The certifier before the pencil eigensolve, kept as a reference:
    the upper end hi of a bracket [lo, hi] with hi - lo <= rel_tol * hi
    around the smallest c >= 0 with c * rhs - lhs >= -slack."""
    slack = audits.PSD_SLACK * audits._scale(lhs)

    def holds(c):
        op = combine([(c, rhs), (-1.0, lhs)], "shifted")
        return min(np.linalg.eigvalsh(b)[:, 0].min()
                   for b in op.blocks) >= -slack

    if holds(0.0):
        return 0.0
    hi = 1.0
    while not holds(hi):
        hi *= 2.0
        assert hi <= 1e6, "no certificate below 1e6"
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


@given(seed=st.integers(0, 2 ** 32 - 1), gap=st.floats(0.05, 5.0))
@settings(max_examples=60, deadline=None)
def test_min_constant_within_bisection_bracket(seed, gap):
    # on random positive-definite block pencils the exact constant lies in
    # the old bisection bracket, up to the slack the bisection allowed
    rng = np.random.default_rng(seed)
    part = partition_by(rng.integers(0, 7, size=30))
    lhs = LinearOperator.from_blocks(part, _random_blocks(rng, part, 0.0),
                                     "lhs", hermitian=True)
    rhs = LinearOperator.from_blocks(part, _gram_blocks(rng, part, gap),
                                     "rhs", hermitian=True)
    rep = min_constant(lhs, [rhs], "pencil")
    hi = bisection_constant(lhs, rhs)
    rhs_min = min(np.linalg.eigvalsh(b)[:, 0].min() for b in rhs.blocks)
    assert rep.passed
    assert hi * (1 - 1e-3) <= rep.constant <= hi + rep.tolerance / rhs_min


@pytest.fixture(scope="module", params=[8, 12])
def shell_lower_bound(request):
    """condensation_lower_bound as ``gp2d lower-bound`` runs it at N = 4
    on a larger shell: its report, the pencil it certified and the
    batched eigvalsh and cholesky calls it made."""
    cfg = RunConfig(shell=request.param)
    pipe = Pipeline(cfg)
    basis = pipe.basis(4)
    ops = effective_hamiltonians(basis, pipe.renorm(4, cfg.fock_alpha),
                                 pipe.pot)
    seen, calls = {}, {"eigvalsh": [], "cholesky": []}
    certify = audits.min_constant
    solvers = {name: getattr(audits, name) for name in calls}

    def spy(lhs, rhs_terms, *args, **kwargs):
        seen.update(lhs=lhs, rhs=rhs_terms)
        return certify(lhs, rhs_terms, *args, **kwargs)

    def counted(name):
        def solver(stack):
            calls[name].append(stack.shape)
            return solvers[name](stack)
        return solver

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audits, "min_constant", spy)
        for name in calls:
            mp.setattr(audits, name, counted(name))
        rep = condensation_lower_bound(ops["R_eff"], ops["H_N"], basis,
                                       pipe.renorm(4, cfg.fock_alpha),
                                       c=cfg.c_lower)
    return request.param, basis, rep, seen["lhs"], seen["rhs"], calls


def test_lower_bound_constant_is_pencil_top(shell_lower_bound):
    _, _, rep, lhs, (rhs,), _ = shell_lower_bound
    want = scipy.linalg.eigh(lhs.mat, rhs.mat, eigvals_only=True)[-1]
    assert rep.passed
    assert rep.constant == pytest.approx(want, rel=1e-10)


def test_lower_bound_pencil_equals_operator_sums(shell_lower_bound):
    # the diagonals written into the pencil give, entry for entry, the
    # sums of the diagonal operators 1, Nplus and Nplus^2 they replace
    shell, _, _, lhs, (rhs,), _ = shell_lower_bound
    cfg = RunConfig(shell=shell)
    pipe = Pipeline(cfg)
    basis = pipe.basis(4)
    ops = effective_hamiltonians(basis, pipe.renorm(4, cfg.fock_alpha),
                                 pipe.pot)
    N, logN = 4, math.log(4)
    one = diagonal_in_total(basis, lambda n: 1.0, "1")
    sums = (
        combine([(2.0 * np.pi * N, one),
                 (0.5 * pipe.renorm(4, cfg.fock_alpha).omega0,
                  number_operator(basis)),
                 (cfg.c_lower / logN, ops["H_N"]), (-1.0, ops["R_eff"])],
                "LB-deficit"),
        combine([(logN ** 2 / N, diagonal_in_total(basis, lambda n: n * n,
                                                   "N+^2")),
                 (1.0, one)], "penalty"))
    for got, want in zip((lhs, rhs), sums):
        for pair in (zip(got.part.classes, want.part.classes),
                     zip(got.blocks, want.blocks)):
            assert all(np.array_equal(a, b) for a, b in pair)


def test_lower_bound_one_eigvalsh_per_size_class(shell_lower_bound):
    # one whitened eigensolve per size class of momentum sectors, and
    # one values-first pass over the classes for each of the two lowest
    # eigenpairs (of -lhs, then of C rhs - lhs)
    shell, basis, _, _, _, calls = shell_lower_bound
    classes = len(basis.sectors.classes)
    assert classes == {8: 12, 12: 17}[shell]
    assert len(calls["cholesky"]) == classes
    assert len(calls["eigvalsh"]) == 3 * classes


def test_report_serializes():
    rep = min_constant(diag_op([2.0, 0.0]), [diag_op([1.0, 1.0])], "toy")
    assert isinstance(rep, InequalityReport)
    assert '"toy"' in rep.to_json()


def test_smooth_partition_identity():
    x = np.linspace(-1.0, 3.0, 2001)
    f, g = smooth_partition(x)
    np.testing.assert_allclose(f ** 2 + g ** 2, 1.0, rtol=0, atol=1e-15)
    # f carries the low-occupation half, g the high one
    assert np.all(f[x <= 0.5] == 1.0)
    assert np.all(g[x >= 1.0] == 1.0)
    assert np.all(np.diff(f) <= 1e-15)
    assert np.all(np.diff(g) >= -1e-15)


def test_localization_identity_exact(audit_setup):
    params, _, basis, ops = audit_setup
    rep = localization_check(ops["R_eff"], basis, 2.0, ops["H_N"], params)
    assert rep.identity_residual <= 1e-10
    assert rep.theta_pass
    assert rep.theta_constant >= 0


def test_localization_identity_random_hermitian(audit_setup):
    # the three-term reconstruction is an algebraic identity for any
    # hermitian matrix, not a property of the physical generator
    params, _, basis, ops = audit_setup
    rng = np.random.default_rng(7)
    m = rng.normal(size=(basis.dim, basis.dim))
    op = LinearOperator((m + m.T).astype(complex), "rand", hermitian=True)
    rep = localization_check(op, basis, 1.7, ops["H_N"], params)
    assert rep.identity_residual <= 1e-10


def test_condensation_lower_bound_certifies(audit_setup):
    params, renorm, basis, ops = audit_setup
    rep = condensation_lower_bound(ops["R_eff"], ops["H_N"], basis, renorm)
    assert rep.passed
    assert math.isfinite(rep.constant)


def test_square_completion_refuses_mu_at_least_one(audit_setup):
    # mu = c / log N >= 1 flips the sign of 1 - mu in the margin
    params, renorm, _, _ = audit_setup
    with pytest.raises(ConfigError, match="must be below 1"):
        square_completion_check(renorm, c=math.log(params.N))


def test_square_completion_scalars(audit_setup):
    params, renorm, _, _ = audit_setup
    out = square_completion_check(renorm)
    assert out["scalar_pass"]
    assert 0 < out["mu"] < 1
    assert out["lattice_sum"] > 0
    assert out["lattice_sum_minus_log"] == pytest.approx(
        out["lattice_sum"] - 2.0 * math.pi * params.alpha
        * math.log(params.N), rel=1e-15, abs=1e-15)
    # the margin, mode by mode from the disk transform
    mu = 0.1 / math.log(params.N)
    margins = []
    for p in TWO_PI * renorm.lattice.ints:
        p2 = float(p @ p)
        omega = renorm.g_N * chi_hat(math.sqrt(p2)
                                     * params.N ** -params.alpha)
        margins.append(omega ** 2 / (4.0 * (1.0 - mu) * p2)
                       - 0.5 * renorm.omega0)
    assert out["scalar_margin"] == pytest.approx(max(margins), rel=1e-12)
