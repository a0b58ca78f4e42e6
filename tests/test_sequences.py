"""Sequence engine: composition, matrix-log extraction, scaling fits."""

import math

import numpy as np
import pytest
import scipy.linalg

import dense_oracles as oracles
from toricsim import sequences as sq
from toricsim.pauli import PauliString
from toricsim.sequences import (BranchCutError, Gate, GateSequence,
                                bch_second_order, cycled, echoed_u123,
                                effective_hamiltonian, eq3_targets,
                                order_scan, plaquette_generators, u123)

PHIS = (0.05, 0.08, 0.12, 0.2)


def test_gate_validation():
    z = PauliString.from_label("Z")
    with pytest.raises(ValueError):
        Gate(PauliString.from_label("+i·Z"), 0.1)  # non-Hermitian phase
    with pytest.raises(ValueError):
        Gate(z, float("nan"))
    with pytest.raises(ValueError):
        Gate(z, 0.1, duration=0.0)


def test_gate_unitary_matches_expm():
    g = Gate(PauliString.from_label("XY"), 0.37)
    expect = scipy.linalg.expm(-0.37j * PauliString.from_label("XY").to_dense())
    np.testing.assert_allclose(g.unitary(), expect, atol=1e-14)


def test_u123_shape_and_identity_limit():
    seq = u123(0.0, 0.0, 0.0)
    assert len(seq.gates) == 10
    assert seq.total_duration == pytest.approx(10.0)
    np.testing.assert_allclose(seq.unitary(), np.eye(16), atol=1e-15)
    seq = u123(0.1, 0.1, 0.1, tau=0.5)
    assert seq.total_duration == pytest.approx(5.0)


def test_composed_unitary_is_unitary():
    for phi in (0.1, 0.3):
        u = echoed_u123(phi, 0.2, phi).unitary()
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-13)


def test_echoed_is_sequence_then_sign_reversed_twin():
    a, b, g = 0.11, 0.07, 0.19
    ech = echoed_u123(a, b, g)
    assert len(ech.gates) == 20
    assert ech.total_duration == pytest.approx(20.0)
    manual = u123(a, b, g).then(u123(-a, b, -g))
    np.testing.assert_allclose(ech.unitary(), manual.unitary(), atol=1e-14)


def test_effective_hamiltonian_single_gate():
    seq = GateSequence((Gate(PauliString.from_label("Z"), 0.3, duration=2.0),))
    rep = effective_hamiltonian(seq)
    assert rep.h_eff.coefficient("Z") == pytest.approx(0.15)
    assert len(rep.h_eff) == 1


def test_effective_hamiltonian_identity_sequence():
    seq = GateSequence((Gate(PauliString.from_label("ZZ"), 0.0),))
    rep = effective_hamiltonian(seq)
    assert len(rep.h_eff) == 0


def test_branch_cut_raises():
    seq = GateSequence((Gate(PauliString.from_label("Z"), np.pi - 1e-9),))
    with pytest.raises(BranchCutError):
        effective_hamiltonian(seq)


def test_reexponentiation_invariant():
    seq = echoed_u123(0.2, 0.2, 0.2)
    rep = effective_hamiltonian(seq)
    back = scipy.linalg.expm(-1j * rep.h_eff.to_dense() * rep.total_time)
    assert np.max(np.abs(back - seq.unitary())) < 1e-10
    assert rep.hermiticity_defect < 1e-12
    assert rep.unitarity_defect < 1e-12


@pytest.mark.parametrize("phi", [0.05, 0.1])
def test_echoed_coefficients_match_predictions(phi):
    targets = eq3_targets(phi)
    rep = effective_hamiltonian(echoed_u123(phi, phi, phi), targets=targets)
    meas_z, pred_z = rep.target_coefficients["ZZZZ"]
    # measured quadratic correction is (1 - 2 phi^2); next order is ~phi^4
    assert abs(meas_z - pred_z) / abs(pred_z) < 3.0 * phi ** 4
    meas_x, pred_x = rep.target_coefficients["IXYI"]
    assert abs(meas_x - pred_x) / abs(pred_x) < phi


def _series_product(a, b, order):
    """Product of two matrix power series in phi, truncated at ``order``."""
    return np.array([sum(a[k] @ b[n - k] for k in range(n + 1))
                     for n in range(order + 1)])


def test_echoed_zzzz_power_series():
    # Expand the 20-pulse product in powers of phi, with no matrix log:
    # each pulse exp(-i s phi G) = cos(phi) I - i s sin(phi) G (G^2 = I),
    # and log(I + X) = X - X^2/2 + ... with X = O(phi).  The ZZZZ
    # coefficient of i log(U)/T is -(2/5) phi^3 + (4/5) phi^5 + O(phi^7),
    # i.e. -(2/5) phi^3 (1 - 2 phi^2): a quadratic correction of weight 2.
    order = 5
    seq = echoed_u123(1.0, 1.0, 1.0)
    dim = 2 ** seq.n_qubits
    eye = np.eye(dim, dtype=complex)
    u = np.zeros((order + 1, dim, dim), dtype=complex)
    u[0] = eye
    for gate in seq.gates:
        sign, g = gate.angle, gate.generator.to_dense()
        pulse = np.array([
            (-1) ** (n // 2) / math.factorial(n)
            * (eye if n % 2 == 0 else -1j * sign * g)
            for n in range(order + 1)])
        u = _series_product(pulse, u, order)
    x = u.copy()
    x[0] = 0.0
    log_u = np.zeros_like(u)
    power = x
    for m in range(1, order + 1):
        log_u += (-1) ** (m + 1) / m * power
        power = _series_product(power, x, order)
    zzzz = PauliString.from_label("ZZZZ").to_dense()
    coeffs = [np.trace(zzzz @ (1j * term)) / dim / seq.total_duration
              for term in log_u]
    np.testing.assert_allclose(coeffs, [0.0, 0.0, 0.0, -0.4, 0.0, 0.8],
                               atol=1e-12)
    # the closed form used by eq3_targets carries the same two terms
    phi = 1e-2
    series = -0.4 * phi ** 3 + 0.8 * phi ** 5
    assert sq.four_body_strength(phi) == pytest.approx(-series, rel=1e-12)


@pytest.mark.parametrize("phi", [0.05, 0.1])
def test_single_sequence_residual_table(phi):
    targets = eq3_targets(phi, echoed=False)
    rep = effective_hamiltonian(u123(phi, phi, phi), targets=targets)
    for label in ("IXZZ", "ZZYI", "IIXZ"):
        meas, pred = rep.target_coefficients[label]
        assert abs(meas - pred) / abs(pred) < 4.5 * phi ** 2, label
        assert np.sign(meas.real) == np.sign(pred.real), label


def test_quadratic_correction_weight():
    # fitted correction is -(2/3)(a^2+b^2+g^2) on the 4-body coefficient
    rows, rhs = [], []
    for a, b, g in [(0.04, 0.02, 0.02), (0.02, 0.04, 0.02),
                    (0.02, 0.02, 0.04), (0.03, 0.03, 0.03)]:
        h = effective_hamiltonian(echoed_u123(a, b, g)).h_eff
        lead = -(2.0 / 5.0) * a * b * g
        rows.append([a * a, b * b, g * g])
        rhs.append(-(h.coefficient("ZZZZ").real / lead - 1.0))
    coeffs, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    np.testing.assert_allclose(coeffs, 2.0 / 3.0, rtol=0.02)


def test_echo_cancels_fourth_order_terms():
    phi = 0.1
    h = effective_hamiltonian(echoed_u123(phi, phi, phi)).h_eff
    for label in ("IXZZ", "ZZYI"):
        assert abs(h.coefficient(label)) < 1e-3 * phi ** 4


def test_sign_reversal_flips_only_fourth_order():
    phi = 0.1
    h_fwd = effective_hamiltonian(u123(phi, phi, phi)).h_eff
    h_rev = effective_hamiltonian(u123(-phi, phi, -phi)).h_eff
    for label in ("IXZZ", "ZZYI"):
        assert h_rev.coefficient(label) == pytest.approx(
            -h_fwd.coefficient(label), rel=1e-9)
    assert abs(h_rev.coefficient("ZZZZ") - h_fwd.coefficient("ZZZZ")) < phi ** 6


def test_order_scan_single_sequence():
    scan = order_scan(lambda p: u123(p, p, p), PHIS, target_terms=("ZZZZ",))
    assert abs(scan.term_slopes["IXZZ"] - 4.0) <= 0.3
    assert abs(scan.term_slopes["ZZYI"] - 4.0) <= 0.3
    assert abs(scan.term_slopes["IXYI"] - 5.0) <= 0.3


def test_order_scan_echoed_residual():
    scan = order_scan(lambda p: echoed_u123(p, p, p), PHIS,
                      target_terms=("ZZZZ", "IXYI"))
    assert scan.residual_slope >= 5.5
    full = order_scan(lambda p: echoed_u123(p, p, p), PHIS)
    assert abs(full.term_slopes["ZZZZ"] - 3.0) <= 0.15


def test_order_scan_needs_four_points():
    with pytest.raises(ValueError):
        order_scan(lambda p: u123(p, p, p), (0.05, 0.1, 0.2))


def test_cycled_permutation():
    assert cycled(PauliString.from_label("ZYII")).label(False) == "XZII"
    gens = plaquette_generators()
    assert [g.label(False) for g in gens] == ["XZII", "IYZI", "IIYX"]
    back = gens
    for _ in range(2):
        back = tuple(cycled(g) for g in back)
    assert [g.label(False) for g in back] == ["ZYII", "IXYI", "IIXZ"]


def test_plaquette_sequence_mirrors_vertex():
    phi = 0.1
    hz = effective_hamiltonian(echoed_u123(phi, phi, phi)).h_eff
    hx = effective_hamiltonian(
        echoed_u123(phi, phi, phi, generators=plaquette_generators())).h_eff
    assert hx.coefficient("XXXX") == pytest.approx(
        hz.coefficient("ZZZZ"), abs=1e-15)
    assert hx.coefficient("IYZI") == pytest.approx(
        hz.coefficient("IXYI"), abs=1e-15)


def test_bch_commuting_gates_exact():
    z0 = PauliString.from_label("ZI")
    z1 = PauliString.from_label("IZ")
    seq = GateSequence((Gate(z0, 0.3), Gate(z1, 0.5)))
    h2 = bch_second_order(seq)
    assert h2.coefficient("ZI") == pytest.approx(0.15)
    assert h2.coefficient("IZ") == pytest.approx(0.25)
    assert len(h2) == 2


def test_bch_convention_matches_matrix_log():
    seq = GateSequence((Gate(PauliString.from_label("ZYII"), 0.1),
                        Gate(PauliString.from_label("IXYI"), 0.2)))
    h2 = bch_second_order(seq)
    exact = effective_hamiltonian(seq).h_eff
    assert h2.coefficient("ZZYI") == pytest.approx(0.01)
    assert exact.coefficient("ZZYI") == pytest.approx(0.01, rel=1e-3)


def test_bch_error_is_third_order():
    epsilons = (0.02, 0.04, 0.08)
    diffs = []
    for eps in epsilons:
        seq = GateSequence((Gate(PauliString.from_label("ZYII"), eps),
                            Gate(PauliString.from_label("IXYI"), eps)))
        diffs.append((effective_hamiltonian(seq).h_eff
                      - bch_second_order(seq)).l2_norm())
    slope = np.polyfit(np.log(epsilons), np.log(diffs), 1)[0]
    assert slope >= 2.7


def test_serial_compose_disjoint_supports():
    # the vertex set on qubits 0-3 and the plaquette set on qubits 4-7
    v = echoed_u123(0.15, 0.15, 0.15, generators=[
        PauliString.from_label(g.label(with_phase=False) + "IIII")
        for g in sq.DEFAULT_VERTEX_GENERATORS])
    x = echoed_u123(0.15, 0.15, 0.15, generators=[
        PauliString.from_label("IIII" + g.label(with_phase=False))
        for g in plaquette_generators()])
    assert oracles.trotter_error(v, x) == pytest.approx(0.0, abs=1e-13)


def test_serial_compose_shared_support_slope():
    errs = []
    for p in PHIS:
        v = echoed_u123(p, p, p)
        x = echoed_u123(p, p, p, generators=plaquette_generators())
        errs.append(oracles.trotter_error(v, x))
    slope = np.polyfit(np.log(PHIS), np.log(errs), 1)[0]
    assert slope >= 6.5

