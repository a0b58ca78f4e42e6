"""End-to-end acceptance gate: one test per numbered criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible under
``pytest -s`` or in the captured output) and then asserts.  All measured
margins are quoted in the printed lines.  Two closed forms deserve a note:

* criterion 02: the echoed four-body coefficient is
  -(2/5) phi^3 (1 - 2 phi^2) + O(phi^7), a quadratic correction of weight
  2; ``test_sequences.py::test_echoed_zzzz_power_series`` derives the
  phi^3 and phi^5 coefficients from the pulse product without a matrix
  logarithm.
* criterion 07: creation and annihilation rates stand in the ratio
  p/(1-p) (criterion 08) and a pair costs delta, so detailed balance
  fixes the fixed point at the Gibbs state of T = delta / ln((1-p)/p),
  infinite at p = 1/2.  The test computes that temperature from p and
  delta itself rather than reading it from the model.
"""

import math

import numpy as np
import pytest

import dense_oracles as oracles
from toricsim import harness as hn
from toricsim import lattice as lt
from toricsim import lindblad as lb
from toricsim import sequences as sq
from toricsim import spectra as sp
from toricsim.pauli import PauliString, PauliSum, commutator

DELTA = 4.0                       # pair-creation energy cost at j = 1
PHI_GRID = (0.05, 0.0707, 0.1, 0.1414, 0.2)


def _criterion(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    return ok


def test_criterion_01_nested_commutator_closes_on_four_body():
    s1, s2, s3 = sq.DEFAULT_VERTEX_GENERATORS
    inner = commutator(s1, s2)
    outer = PauliSum.zero(4)
    for string, coeff in inner.items():
        outer = outer + coeff * commutator(string, s3)
    target = PauliSum.from_labels(4, {"ZZZZ": -4.0})
    defect = (outer - target).l2_norm()
    d1, d2, d3 = (s.to_dense() for s in (s1, s2, s3))
    dense = (d1 @ d2 - d2 @ d1) @ d3 - d3 @ (d1 @ d2 - d2 @ d1)
    dense_exact = np.array_equal(dense, target.to_dense())
    ok = defect == 0.0 and dense_exact
    assert _criterion(1, ok, f"double commutator = -4 ZZZZ; symplectic "
                             f"defect {defect:.1e}, dense oracle "
                             f"{'bitwise equal' if dense_exact else 'DIFFERS'}")


def test_criterion_02_echoed_coefficient_closed_forms():
    details = []
    ok = True
    for phi in (0.05, 0.1):
        targets = {
            "ZZZZ": -sq.four_body_strength(phi),
            "IXYI": sq.residual_scale(phi),
        }
        rep = sq.effective_hamiltonian(sq.echoed_u123(phi, phi, phi),
                                       targets=targets)
        m_z, p_z = rep.target_coefficients["ZZZZ"]
        m_x, p_x = rep.target_coefficients["IXYI"]
        rel_z = abs(m_z - p_z) / abs(p_z)
        rel_x = abs(m_x - p_x) / abs(p_x)
        ok = ok and rel_z < phi ** 2 and rel_x < phi
        details.append(f"phi={phi}: ZZZZ rel {rel_z:.3e} vs < {phi ** 2:.1e},"
                       f" IXYI rel {rel_x:.3e} vs < {phi:.1e}")
    assert _criterion(2, ok, "; ".join(details))


def test_criterion_03_echo_cancellation_orders():
    single = sq.order_scan(oracles.scan_reports(
        lambda p: sq.u123(p, p, p), PHI_GRID, ("ZZZZ", "IXYI", "IIXZ")))
    echoed = sq.order_scan(oracles.scan_reports(
        lambda p: sq.echoed_u123(p, p, p), PHI_GRID, ("ZZZZ", "IXYI")))
    s_ixzz = single.term_slopes["IXZZ"]
    s_zzyi = single.term_slopes["ZZYI"]
    s_echo = echoed.residual_slope
    ok = (abs(s_ixzz - 4.0) <= 0.3 and abs(s_zzyi - 4.0) <= 0.3
          and s_echo >= 5.5)
    assert _criterion(3, ok, f"single-sequence residual slopes "
                             f"IXZZ {s_ixzz:.3f}, ZZYI {s_zzyi:.3f} "
                             f"(4.0 +- 0.3); echoed residual slope "
                             f"{s_echo:.3f} (>= 5.5)")


def test_criterion_04_serial_composition_error_order():
    errors = []
    for phi in PHI_GRID:
        vertex = sq.echoed_u123(phi, phi, phi)
        plaquette = sq.echoed_u123(phi, phi, phi,
                                   generators=sq.plaquette_generators())
        errors.append(oracles.trotter_error(vertex, plaquette))
    slope = float(np.polyfit(np.log(PHI_GRID), np.log(errors), 1)[0])
    ok = slope >= 6.0
    assert _criterion(4, ok, f"shared-support composition error slope "
                             f"{slope:.3f} (>= 6.5 with 0.5 tolerance)")


def test_criterion_05_cycle_time_estimate():
    # every vertex and plaquette runs one echoed sequence, serially, and
    # each pulse costs 4 elementary gates of 500 ns
    lat = lt.build(3)
    pulses = len(sq.echoed_u123(0.1, 0.1, 0.1).gates)
    estimate = (lat.n_vertices + lat.n_plaquettes) * pulses * 4 * 500e-9
    ok = estimate == pytest.approx(720e-6, rel=1e-12)
    assert _criterion(5, ok, f"full-lattice cycle estimate "
                             f"{estimate * 1e6:.3f} us vs 720 us "
                             f"(L=3, 500 ns pulses, 4 gates per pulse)")


def test_criterion_06_l3_quasi_degeneracy_and_fidelity_window():
    lat = lt.build(3)
    details = []
    ok = True
    scan = sp.fidelity_scan(lat, (0.2, 0.4, 0.6), h_z=0.05, k=6, seed=7)
    ok = ok and all(pt.error is None for pt in scan)
    # the scan's chi = 0.2 solve has the same solver, seed and k
    h = sp.build_hamiltonian(lat, h_z=0.05, chi=0.0)
    levels = {0.0: sp.lowest_eigenpairs(h, k=6, seed=7).eigenvalues,
              0.2: scan[0].eigenvalues}
    for chi, evals in levels.items():
        spread = float(evals[3] - evals[0])
        gap = float(evals[4] - evals[3])
        ok = ok and gap > 0.0 and spread < gap / 5.0
        details.append(f"chi={chi}: spread {spread:.2e} vs gap/5 "
                       f"{gap / 5.0:.3f}")
    fid = {pt.chi: pt.subspace_fidelity for pt in scan}
    ok = ok and fid[0.2] >= 0.8 and fid[0.4] >= 0.8
    ok = ok and fid[0.6] < fid[0.4] - 0.02
    details.append(f"fidelity {fid[0.2]:.4f} (0.2), {fid[0.4]:.4f} (0.4) "
                   f">= 0.8; {fid[0.6]:.4f} (0.6) visibly lower")
    assert _criterion(6, ok, "; ".join(details))


def test_criterion_07_gibbs_fixed_point_at_target_temperature():
    lat = lt.build(2)
    details = []
    ok = True
    for p in (0.1, 0.5):
        model = lb.thermal_jump_set(lat, p=p, lambda_star=1.0,
                                    gamma_star=0.5)
        stat = lb.stationary_state(model)
        # creation/annihilation = p/(1-p) (criterion 08) and a pair costs
        # DELTA, so detailed balance fixes exp(-DELTA/T) = p/(1-p)
        t_target = (math.inf if p == 0.5
                    else DELTA / math.log((1.0 - p) / p))
        distance = lb.trace_distance(
            oracles.stationary_rho(stat),
            lb.gibbs_state(sp.build_hamiltonian(lat), t_target))
        ok = ok and distance < 1e-6
        details.append(
            f"p={p}: distance {distance:.3e} vs < 1e-6 at T = "
            f"delta/ln((1-p)/p) = {t_target:.3f}")
    assert _criterion(7, ok, "; ".join(details))


def test_criterion_08_rate_ratios_bitwise():
    lat = lt.build(2)
    checked = []
    ok = True
    for p in (0.1, 0.25, 0.37, 0.49):
        model = lb.thermal_jump_set(lat, p=p, lambda_star=1.3,
                                    gamma_star=0.7)
        ok = ok and model.pair_rate_ratio() == p / (1.0 - p)
        checked.append(p)
    assert _criterion(8, ok, f"creation/annihilation rate ratio equals "
                             f"p/(1-p) bitwise at p in {checked}")


def test_criterion_09_dark_state_cooling():
    lat = lt.build(2)
    model = lb.thermal_jump_set(lat, p=0.0, lambda_star=1.0, gamma_star=0.5)
    ground = oracles.reference_states(lat)
    worst = max(np.linalg.norm(
                    oracles.channel_operator(lat, term).apply(ground[:, s]))
                for term in model.jumps for s in range(4))
    psi = oracles.excitation_ops(lat, 0, "e").create.apply(ground[:, 0])
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    frame = lb.StabilizerFrame(lat)
    result = lb.evolve(model, oracles.start_populations(frame, rho0),
                       (0.0, 7.5, 15.0))
    density = hn.excitation_density(oracles.evolution_states(result)[-1], lat)
    ok = worst < 1e-12 and density < 1e-6
    assert _criterion(9, ok, f"every jump annihilates the ground space "
                             f"(worst norm {worst:.1e}); two-excitation "
                             f"state cools to density {density:.2e} "
                             f"vs < 1e-6 at t = 15/lambda*")


def test_criterion_10_pump_populations_and_temperature():
    details = []
    ok = True
    for theta in (0.0, math.pi / 6, math.pi / 4, math.pi / 2):
        res = lb.pump_ancilla(lb.PumpProtocol(theta=theta, gamma20=50.0))
        pops = np.real(np.diag(res.rho_pseudospin))
        err = max(abs(pops[0] - math.sin(theta) ** 2),
                  abs(pops[1] - math.cos(theta) ** 2))
        expected_t = lb.pump_temperature(theta)
        t_ok = (res.effective_temperature == expected_t
                if math.isinf(expected_t)
                else abs(res.effective_temperature - expected_t) < 1e-10)
        ok = ok and err < 1e-4 and t_ok
        details.append(f"theta={theta:.3f}: err {err:.1e}, "
                       f"T_eff {res.effective_temperature:.3g}")
    assert _criterion(10, ok, "; ".join(details))


def test_criterion_11_elimination_probe_exponent_and_model():
    report = lb.adiabatic_elimination_probe((0.02, 0.03, 0.045),
                                            (0.6, 1.0, 1.6))
    inverse = report.model_residuals["coupling^2 / relaxation"]
    direct = report.model_residuals["coupling^2 * relaxation"]
    ok = (abs(report.coupling_exponent - 2.0) <= 0.1
          and report.favored_model == "coupling^2 / relaxation"
          and inverse < direct)
    assert _criterion(11, ok, f"coupling exponent "
                              f"{report.coupling_exponent:.3f} (2.0 +- 0.1); "
                              f"relaxation model residuals: inverse "
                              f"{inverse:.4f} vs direct {direct:.4f}")


def test_criterion_12_noise_limited_cooling_sweep():
    sweep = hn.cool_with_noise(
        hn.ScenarioConfig(kind="cool-with-noise",
                          ratio_grid=(10.0, 30.0, 100.0, 300.0)))
    temps = [pt.fitted_temperature for pt in sweep.points]
    monotone = all(a > b for a, b in zip(temps, temps[1:]))
    ok = monotone and sweep.rank_correlation == 1.0
    assert _criterion(12, ok, f"fitted temperatures "
                              f"{[round(t, 4) for t in temps]} decrease "
                              f"monotonically; rank correlation "
                              f"{sweep.rank_correlation}; log-form fit "
                              f"residual {sweep.fit_residual:.3f} (reported)")


def test_criterion_13_pauli_oracle_equivalence():
    rng = np.random.default_rng(2026)
    failures = 0
    for case in range(1000):
        n = int(rng.integers(1, 5))
        label_a = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        label_b = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        a = PauliString.from_label(label_a)
        b = PauliString.from_label(label_b)
        da, db = a.to_dense(), b.to_dense()
        mode = case % 3
        if mode == 0:
            agree = np.array_equal((a * b).to_dense(), da @ db)
        elif mode == 1:
            agree = np.array_equal(commutator(a, b).to_dense(),
                                   da @ db - db @ da)
        else:
            state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            agree = np.array_equal(a.apply(state), da @ state)
        failures += not agree
    ok = failures == 0
    assert _criterion(13, ok, f"1000 random multiply/commutator/apply "
                              f"cases (n <= 4) vs dense oracle: "
                              f"{failures} disagreements")


def _noisy_cycle_entropy(cycle: sq.GateSequence, epg: float) -> float:
    """Entropy of ``cycle`` run on |0...0> with a depolarizing event of
    probability ``epg`` on each gate's support after the gate:
    (1 - epg) rho plus epg times the Pauli twirl over the support, which is
    the product of the single-qubit twirls."""
    n = cycle.n_qubits
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in cycle.gates:
        u = gate.unitary()
        rho = u @ rho @ u.conj().T
        twirl = rho
        for q, letter in enumerate(gate.generator.label(with_phase=False)):
            if letter != "I":
                paulis = [PauliString.single(n, q, c).to_dense() for c in "IXYZ"]
                twirl = sum(p @ twirl @ p for p in paulis) / 4
        rho = (1.0 - epg) * rho + epg * twirl
    return hn.von_neumann_entropy(rho)


def test_criterion_14_entropy_scaling_exponent():
    # one cycle: a vertex and a plaquette echoed sequence on 4 qubits
    phi = 0.05
    cycle = sq.echoed_u123(phi, phi, phi).then(
        sq.echoed_u123(phi, phi, phi, generators=sq.plaquette_generators()))
    epgs = (1e-4, 3e-4, 1e-3)
    entropies = [_noisy_cycle_entropy(cycle, epg) for epg in epgs]
    exponent = float(np.polyfit(np.log(epgs), np.log(entropies), 1)[0])
    ok = abs(exponent - 1.0) <= 0.15
    assert _criterion(14, ok, f"entropy-vs-EPG log-log exponent "
                              f"{exponent:.3f} (1.0 +- 0.15) over "
                              f"one {len(cycle.gates)}-gate cycle")
