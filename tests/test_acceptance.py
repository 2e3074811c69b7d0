"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL summary line and enforces its own
runtime budget.
"""
import math
import time

import numpy as np
import pytest
from scipy.special import i0, i1

from gp2d.audits import (condensation_lower_bound, localization_check,
                         min_constant)
from gp2d.cli import main as cli_main
from gp2d.config import RunConfig
from gp2d.energy import (depletion_products, ground_state, sweep,
                         vacuum_slope_fit)
from gp2d.fock import (LinearOperator, build_basis, conjugate,
                       effective_hamiltonians, generators, ladder,
                       number_operator, shell_modes, unitary_excitation_map)
from gp2d.kernels import (GPParameters, eta_coefficients, kernel_sup_product,
                          omega_lattice_sum, renormalized_potential,
                          scattering_residual)
from gp2d.lattice import TWO_PI, build_lattice
from gp2d.potentials import step
from gp2d.scattering import (neumann_ground_state, scattering_length,
                             validate_neumann_asymptotics)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def radius_sweep(step_pot):
    t0 = time.perf_counter()
    sols = {R: neumann_ground_state(step_pot, R)
            for R in (1.0e3, 1.0e4, 1.0e5, 1.0e6)}
    reports = {R: validate_neumann_asymptotics(s) for R, s in sols.items()}
    return reports, time.perf_counter() - t0


def test_acceptance_1_eigenvalue_asymptotics(radius_sweep):
    reports, elapsed = radius_sweep
    e1 = [rep.e1 for rep in reports.values()]
    band = max(e1) / min(e1)
    ok = band < 3.0 and elapsed < 30.0
    report(1, ok, f"e1 band ratio {band:.2f} (<3) over R=1e3..1e6, "
                  f"{elapsed:.2f}s (<30s)")


def test_acceptance_2_potential_integral_asymptotics(radius_sweep):
    reports, elapsed = radius_sweep
    e2 = [rep.e2 for rep in reports.values()]
    band = max(e2) / min(e2)
    ok = band < 3.0 and elapsed < 30.0
    report(2, ok, f"e2 band ratio {band:.2f} (<3) over R=1e3..1e6, "
                  f"{elapsed:.2f}s (shared budget)")


def test_acceptance_3_scattering_length_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for v0, b in ((0.5, 1.0), (2.0, 1.0), (50.0, 0.3)):
        kappa = math.sqrt(v0 / 2.0)
        want = b * math.exp(-i0(kappa * b) / (kappa * b * i1(kappa * b)))
        got = scattering_length(step(v0, b)).a
        worst = max(worst, abs(got / want - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(3, ok, f"worst closed-form mismatch {worst:.2e} (<=1e-6), "
                  f"{elapsed:.2f}s (<5s)")


def test_acceptance_4_kernel_bounds(step_pot):
    t0 = time.perf_counter()
    lat = build_lattice(TWO_PI * 12)
    sups, norms, resid = [], [], []
    for n in (8, 10, 12, 14):
        params = GPParameters(n, 3.0)
        sol = neumann_ground_state(step_pot, params.R)
        table = eta_coefficients(sol, params, lat, per_efold=12)
        rep = scattering_residual(table, step_pot, params, sol)
        sups.append(kernel_sup_product(sol, params,
                                       3 * TWO_PI * n ** 3, n_grid=800))
        norms.append(table.norm2 * n ** 3.0)
        resid.append(rep.max_rel)
    elapsed = time.perf_counter() - t0
    sup_band = max(sups) / min(sups)
    norm_band = max(norms) / min(norms)
    worst_resid = max(resid)
    ok = (sup_band < 2.0 and norm_band < 2.0 and worst_resid <= 1e-3
          and elapsed < 120.0)
    report(4, ok,
           f"sup|eta|p^2 band {sup_band:.2f} (<2), "
           f"l2-norm*N^alpha band {norm_band:.2f} (<2), "
           f"momentum-identity residual {worst_resid:.1e} (<=1e-3), "
           f"{elapsed:.1f}s (<120s)")


def test_acceptance_5_renormalized_potential(step_pot):
    t0 = time.perf_counter()
    alpha = 1.5
    lat = build_lattice(TWO_PI * 4)
    devs, gaps = [], []
    for n in range(10, 41):
        params = GPParameters(n, alpha)
        sol = neumann_ground_state(step_pot, params.R)
        renorm = renormalized_potential(params, sol.lam_R2, lat)
        target = 4.0 * math.pi * (1.0 + alpha * math.log(n) / n)
        devs.append(abs(renorm.omega0 - target) * n)
        gaps.append(omega_lattice_sum(renorm)
                    - 2.0 * math.pi * alpha * math.log(n))
    elapsed = time.perf_counter() - t0
    dev_band = max(devs) / min(devs)
    gap_lo, gap_hi = min(gaps), max(gaps)
    ok = (dev_band < 3.0 and gap_lo > -5.0 and gap_hi < 5.0
          and elapsed < 120.0)
    report(5, ok,
           f"zero-mode deviation*N band {dev_band:.2f} (<3), "
           f"lattice-sum gap in [{gap_lo:.2f},{gap_hi:.2f}] (within +-5), "
           f"N=10..40, {elapsed:.1f}s (<120s)")


def test_acceptance_6_exact_algebra(step_pot):
    t0 = time.perf_counter()
    n_particles = 3
    params = GPParameters(n_particles, 2.5)
    sol = neumann_ground_state(step_pot, params.R)
    lat = build_lattice(TWO_PI * 8)
    table = eta_coefficients(sol, params, lat)
    renorm = renormalized_potential(params, sol.lam_R2, lat)
    basis = build_basis(shell_modes(4), n_particles)
    worst = 0.0

    # commutation relations of the truncated pair operators
    eye = np.eye(basis.dim)
    ntot = number_operator(basis).mat
    for p in basis.modes:
        ap = ladder(basis, p, "a").mat
        bp = ladder(basis, p, "b").mat
        for q in basis.modes:
            aq = ladder(basis, q, "a").mat
            bq = ladder(basis, q, "b").mat
            delta = 1.0 if p == q else 0.0
            lhs = bp @ bq.conj().T - bq.conj().T @ bp
            rhs = delta * (eye - ntot / n_particles) \
                - aq.conj().T @ ap / n_particles
            worst = max(worst, np.abs(lhs - rhs).max(),
                        np.abs(bp @ bq - bq @ bp).max())

    # excitation-map rules and unitarity
    umap = unitary_excitation_map(basis.modes, n_particles)
    worst = max(worst, umap["unitary"], umap["rule_n0"],
                umap["rule_create"], umap["rule_annihilate"],
                umap["rule_hop"])

    # antisymmetry of both generators and unitarity of their exponentials
    gens = generators(basis, table, params)
    for gen in gens.values():
        worst = max(worst, np.abs(gen.mat + gen.mat.conj().T).max())
        from scipy.linalg import expm
        u = expm(gen.mat)
        worst = max(worst,
                    np.abs(u.conj().T @ u - eye).max())

    # three-term occupation localization identity
    ops = effective_hamiltonians(basis, renorm, step_pot, params)
    loc = localization_check(ops["R_eff"], basis, 2.0, ops["H_N"], params)
    worst = max(worst, loc.identity_residual)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    report(6, ok, f"max algebra residual {worst:.1e} (<=1e-10) on the "
                  f"4-mode shell at N=3, {elapsed:.1f}s (<60s)")


def _audit_constants(step_pot, n_particles, cap, lat):
    params = GPParameters(n_particles, 2.5)
    sol = neumann_ground_state(step_pot, params.R)
    table = eta_coefficients(sol, params, lat)
    renorm = renormalized_potential(params, sol.lam_R2, lat)
    basis = build_basis(shell_modes(4), cap)
    gens = generators(basis, table, params)
    ops = effective_hamiltonians(basis, renorm, step_pot, params)
    eye = np.eye(basis.dim, dtype=complex)
    np1 = number_operator(basis).mat + eye
    out = []
    # growth of powers of (occupation + 1) under the quadratic rotation
    for n in (1, 2, 3):
        op = LinearOperator(np.linalg.matrix_power(np1, n),
                            f"(n+1)^{n}", hermitian=True)
        rep = min_constant(conjugate(op, gens["B"]), [op],
                           f"pair-rotation-growth-{n}", cap)
        out.append(rep)
    # growth under the cubic rotation
    for k in (1, 2):
        op = LinearOperator(np.linalg.matrix_power(np1, k),
                            f"(n+1)^{k}", hermitian=True)
        rep = min_constant(conjugate(op, gens["A"]), [op],
                           f"cubic-rotation-growth-{k}", cap)
        out.append(rep)
    # rotated kinetic-potential budget
    h_n = ops["H_N"]
    rep = min_constant(
        conjugate(h_n, gens["A"]),
        [h_n, LinearOperator(n_particles * eye, "n-scale", hermitian=True)],
        "rotated-energy-budget", cap)
    out.append(rep)
    # certified condensation lower bound
    out.append(condensation_lower_bound(ops["R_eff"], h_n, basis, renorm,
                                        params))
    return out


def test_acceptance_7_inequality_audits(step_pot, step_a):
    t0 = time.perf_counter()
    lat = build_lattice(TWO_PI * 8)
    ok = True
    details = []
    for n_particles in (3, 4, 5):
        base = _audit_constants(step_pot, n_particles,
                                n_particles, lat)
        grown = _audit_constants(step_pot, n_particles,
                                 n_particles + 1, lat)
        for rep_b, rep_g in zip(base, grown):
            ok = ok and rep_b.passed and rep_g.passed
            ok = ok and math.isfinite(rep_b.constant)
            if rep_b.constant > 1e-6:
                ratio = rep_g.constant / rep_b.constant
                ok = ok and 0.5 < ratio < 2.0
            else:
                ok = ok and rep_g.constant < 1.0
        details.append(f"N={n_particles}:"
                       + ",".join(f"{r.constant:.3g}" for r in base))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(7, ok, "certified constants stable under cap+1 "
                  f"({'; '.join(details)}), {elapsed:.1f}s (<300s)")


def test_acceptance_8_energy_trajectory(step_pot, tmp_path):
    t0 = time.perf_counter()
    alpha = 1.5
    cfg = RunConfig(alpha=alpha, n_min=10, n_max=60, n_step=2,
                    fock_n_max=6)
    ds = sweep(cfg, tmp_path / "sweep.csv")
    slope = vacuum_slope_fit(ds)
    target = 2.0 * math.pi * alpha
    slope_ok = abs(slope - target) <= 0.15 * target

    # certified sandwich: spectral lower bound <= E0 <= vacuum energy
    lat = build_lattice(cfg.cutoff)
    sandwich_ok = True
    for n_particles in range(3, cfg.fock_n_max + 1):
        params = GPParameters(n_particles, cfg.fock_alpha)
        sol = neumann_ground_state(step_pot, params.R)
        renorm = renormalized_potential(params, sol.lam_R2, lat)
        basis = build_basis(shell_modes(4), n_particles)
        ops = effective_hamiltonians(basis, renorm, step_pot, params)
        e0, _, _ = ground_state(ops["R_eff"], basis)
        e_vac = 0.5 * renorm.omega0 * (n_particles - 1)
        rep = condensation_lower_bound(ops["R_eff"], ops["H_N"], basis,
                                       renorm, params)
        npl = number_operator(basis).mat
        eye = np.eye(basis.dim, dtype=complex)
        lb_op = (2.0 * math.pi * n_particles * eye
                 + 0.5 * renorm.omega0 * npl
                 + (0.1 / math.log(n_particles)) * ops["H_N"].mat
                 - rep.constant * ((math.log(n_particles) ** 2
                                    / n_particles) * (npl @ npl) + eye))
        lower = float(np.linalg.eigvalsh(lb_op)[0])
        sandwich_ok = sandwich_ok and rep.passed \
            and lower <= e0 + 1e-8 and e0 <= e_vac + 1e-10

    prods = depletion_products(ds)
    depletion_ok = all(0.0 <= p <= 10.0 for p in prods)
    elapsed = time.perf_counter() - t0
    ok = slope_ok and sandwich_ok and depletion_ok and elapsed < 300.0
    report(8, ok,
           f"slope {slope:.3f} vs 2*pi*alpha={target:.3f} "
           f"(within 15%), sandwich {'holds' if sandwich_ok else 'broken'}"
           f", depletion*N in [{min(prods):.3g},{max(prods):.3g}] "
           f"(bounded), {elapsed:.1f}s (<300s)")


def test_acceptance_9_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("N_min = 10\nN_max = 30\nN_step = 4\n"
                        "fock_n_max = 4\n")

    def run(out, threads):
        cli_main(["all", "--config", str(cfg_path), "--out", str(out),
                  "--threads", str(threads)])
        rows = []
        for name in ("sweep.csv", "kernels.csv", "neumann.csv"):
            text = (out / name).read_text()
            if name == "sweep.csv":
                # drop the trailing wall-clock column (the timestamp field)
                text = "\n".join(
                    ln if ln.startswith("#") or ln.startswith("N")
                    else ln.rsplit(",", 1)[0]
                    for ln in text.splitlines())
            rows.append(text)
        return "\n".join(rows)

    first = run(tmp_path / "o1", 1)
    second = run(tmp_path / "o2", 4)
    third = run(tmp_path / "o3", 2)
    ok = first == second == third
    report(9, ok, "CSV artifacts byte-identical across thread counts "
                  "1, 2 and 4 (wall-clock column excluded)")
