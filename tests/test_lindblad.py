"""Engineered-dissipation checks against dense oracles (L=2, 256 dimensions)."""

import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsim import lattice as lt
from toricsim import lindblad as lb
from toricsim.pauli import PauliString, PauliSum
from toricsim.spectra import SparseHamiltonian, build_hamiltonian

LAT = lt.build(2)
DIM = 2 ** LAT.n_links
H_DENSE = build_hamiltonian(LAT).to_dense()
ENERGIES, VECTORS = scipy.linalg.eigh(H_DENSE)
GROUND = VECTORS[:, :4]
# pair gap oracle: one flipped vertex (or plaquette) pair costs 2 + 2
GAP = 4.0
THERMAL = lb.thermal_jump_set(LAT, p=0.2, lambda_star=1.0, gamma_star=0.8)
FRAME = lb.StabilizerFrame(LAT)


def _single_qubit_damped_rabi(rate: float = 0.15):
    h = SparseHamiltonian(n_qubits=1, terms=((1.0, PauliString.single(1, 0, "X")),))
    lower = PauliSum.from_terms(((0.5, PauliString.single(1, 0, "X")),
                                 (0.5j, PauliString.single(1, 0, "Y"))))
    return lb.LindbladModel(n_qubits=1, hamiltonian=h,
                            jumps=(lb.JumpTerm("damp", rate, lower),))


# -- excitation / translation operators ---------------------------------


def test_excitation_ops_match_projector_oracle():
    eye = np.eye(DIM)
    for link, kind in [(0, "e"), (3, "e"), (5, "m"), (6, "m")]:
        ops = lb.excitation_ops(LAT, link, kind)
        if kind == "e":
            flip = PauliString.single(LAT.n_links, link, "X").to_dense()
            a, b = LAT.link_vertices(link)
            h_a = lt.vertex_stabilizer(LAT, a).to_dense()
            h_b = lt.vertex_stabilizer(LAT, b).to_dense()
        else:
            flip = PauliString.single(LAT.n_links, link, "Z").to_dense()
            a, b = LAT.link_plaquettes(link)
            h_a = lt.plaquette_stabilizer(LAT, a).to_dense()
            h_b = lt.plaquette_stabilizer(LAT, b).to_dense()
        create = 0.25 * flip @ (eye + h_a) @ (eye + h_b)
        translate = 0.25 * flip @ (eye - h_a) @ (eye + h_b)
        np.testing.assert_allclose(ops.create.to_dense(), create, atol=1e-14)
        np.testing.assert_allclose(ops.annihilate.to_dense(), create.conj().T,
                                   atol=1e-14)
        np.testing.assert_allclose(ops.translate.to_dense(), translate,
                                   atol=1e-14)
        np.testing.assert_allclose(ops.translate_adjoint.to_dense(),
                                   translate.conj().T, atol=1e-14)
        assert len(ops.create) == 4 and len(ops.translate) == 4
    with pytest.raises(ValueError):
        lb.excitation_ops(LAT, LAT.n_links, "e")
    with pytest.raises(ValueError):
        lb.excitation_ops(LAT, 0, "q")


def test_pair_creation_squares_to_zero():
    for link, kind in [(0, "e"), (5, "m")]:
        create = lb.excitation_ops(LAT, link, kind).create
        assert create.product(create).l2_norm() < 1e-14


def test_pair_creation_lifts_ground_states_by_gap():
    cd = lb.excitation_ops(LAT, 0, "e").create.to_dense()
    for k in range(4):
        v = cd @ GROUND[:, k]
        norm = np.linalg.norm(v)
        assert norm == pytest.approx(1.0, abs=1e-12)
        v /= norm
        energy = float(np.real(v.conj() @ H_DENSE @ v))
        assert energy == pytest.approx(ENERGIES[0] + GAP, abs=1e-10)
        # exact eigenstate: a single pair straddles the flipped link
        assert np.linalg.norm(H_DENSE @ v - energy * v) < 1e-12


def test_translation_idles_on_ground_and_moves_excitations():
    ops0 = lb.excitation_ops(LAT, 0, "e")
    for k in range(4):
        gs = GROUND[:, k]
        assert np.linalg.norm(ops0.translate.to_dense() @ gs) < 1e-13
        assert np.linalg.norm(ops0.translate_adjoint.to_dense() @ gs) < 1e-13
    # link 0 excites vertices (0, 1); the vertical link at (0, 0) starts at
    # vertex 0, so its translation moves that excitation to vertex 2
    assert LAT.link_vertices(0) == (0, 1)
    mover = LAT.v_index(0, 0)
    assert LAT.link_vertices(mover)[0] == 0
    excited = ops0.create.to_dense() @ GROUND[:, 0]
    moved = lb.excitation_ops(LAT, mover, "e").translate.to_dense() @ excited
    assert np.linalg.norm(moved) == pytest.approx(1.0, abs=1e-12)
    energy = float(np.real(moved.conj() @ H_DENSE @ moved))
    assert energy == pytest.approx(ENERGIES[0] + GAP, abs=1e-10)
    assert np.linalg.norm(H_DENSE @ moved - energy * moved) < 1e-12


def test_wilson_loop_commutation_pairing():
    # vertex-flavor operators commute with both direct X-loops exactly;
    # crossing Z-loops anticommute with the link flip, and dually for the
    # plaquette flavor
    def comm(a, b):
        return (a.product(b) - b.product(a)).l2_norm()

    x_loops = [PauliSum.from_string(s) for s in lt.x_loops(LAT)]
    z_loops = [PauliSum.from_string(s) for s in lt.z_loops(LAT)]
    ops_e = lb.excitation_ops(LAT, 0, "e")
    ops_m = lb.excitation_ops(LAT, 0, "m")
    for loop in x_loops:
        assert comm(ops_e.create, loop) < 1e-14
        assert comm(ops_e.translate, loop) < 1e-14
    for loop in z_loops:
        assert comm(ops_m.create, loop) < 1e-14
        assert comm(ops_m.translate, loop) < 1e-14
    # link 0 lies on z_loops[0] and x_loops[0]
    assert comm(ops_e.create, z_loops[0]) > 0.5
    assert comm(ops_m.create, x_loops[0]) > 0.5


# -- jump sets -----------------------------------------------------------


def test_thermal_jump_set_counts_rates_and_temperature():
    assert len(THERMAL.jumps) == 4 * 2 * LAT.n_links
    assert THERMAL.delta == 4.0
    assert THERMAL.temperature_target == pytest.approx(-4.0 / math.log(0.2))
    half = lb.thermal_jump_set(LAT, p=0.5, lambda_star=1.0, gamma_star=1.0)
    assert half.temperature_target == pytest.approx(4.0 / math.log(2.0))
    # zero-rate channels are dropped
    cold = lb.thermal_jump_set(LAT, p=0.0, lambda_star=1.0, gamma_star=0.8)
    assert len(cold.jumps) == 3 * 2 * LAT.n_links
    assert cold.temperature_target == 0.0
    still = lb.thermal_jump_set(LAT, p=0.2, lambda_star=1.0, gamma_star=0.0)
    assert len(still.jumps) == 2 * 2 * LAT.n_links
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            lb.thermal_jump_set(LAT, p=bad, lambda_star=1.0, gamma_star=1.0)
    with pytest.raises(ValueError):
        lb.thermal_jump_set(LAT, p=0.2, lambda_star=-1.0, gamma_star=1.0)


def test_pair_rate_ratio_is_exact():
    for p in (0.1, 0.2, 0.3, 0.45):
        model = lb.thermal_jump_set(LAT, p=p, lambda_star=0.3, gamma_star=0.1)
        assert model.pair_rate_ratio() == p / (1.0 - p)
        rates = {jt.label: jt.rate for jt in model.jumps}
        stored = rates["create[e,0]"] / rates["annihilate[e,0]"]
        # stored-rate division reintroduces one rounding each way
        assert stored == pytest.approx(p / (1.0 - p), rel=1e-15)
    with pytest.raises(ValueError):
        lb.LindbladModel(n_qubits=1,
                         hamiltonian=SparseHamiltonian(n_qubits=1, terms=()),
                         jumps=()).pair_rate_ratio()


def test_detailed_balance_temperature():
    model = lb.thermal_jump_set(LAT, p=0.2, lambda_star=1.0, gamma_star=0.1)
    assert model.detailed_balance_temperature() == pytest.approx(
        4.0 / math.log(4.0))
    assert lb.thermal_jump_set(LAT, p=0.5, lambda_star=1.0, gamma_star=0.1
                               ).detailed_balance_temperature() == math.inf
    assert lb.thermal_jump_set(LAT, p=0.0, lambda_star=1.0, gamma_star=0.1
                               ).detailed_balance_temperature() == 0.0


def test_model_json_round_trip_acts_identically():
    clone = lb.LindbladModel.from_json(THERMAL.to_json())
    assert clone.n_qubits == THERMAL.n_qubits
    assert clone.p == THERMAL.p
    assert clone.delta == THERMAL.delta
    assert clone.temperature_target == THERMAL.temperature_target
    assert len(clone.jumps) == len(THERMAL.jumps)
    assert json.loads(clone.to_json()) == json.loads(THERMAL.to_json())
    rng = np.random.default_rng(4)
    w = rng.normal(size=(DIM, 2)) + 1j * rng.normal(size=(DIM, 2))
    sigma = w @ w.conj().T
    sigma /= np.trace(sigma).real
    a = lb._compile_generator(THERMAL)
    b = lb._compile_generator(clone)
    lhs = a.out_of(a.apply(a.into(sigma)))
    rhs = b.out_of(b.apply(b.into(sigma)))
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_cooling_set_is_dark_on_ground_states():
    model = lb.cooling_jump_set(LAT, lambda_star=1.0)
    assert len(model.jumps) == 2 * 2 * LAT.n_links
    for jt in model.jumps:
        assert len(jt.operator) == 2  # half-weight flip times one projector
        dense = jt.operator.to_dense()
        for k in range(4):
            assert np.linalg.norm(dense @ GROUND[:, k]) < 1e-13
    with pytest.raises(ValueError):
        lb.cooling_jump_set(LAT, lambda_star=0.0)


def test_cooling_matches_thermal_ground_pump_limit():
    cool = lb.stationary_state(lb.cooling_jump_set(LAT, lambda_star=1.0))
    cold = lb.stationary_state(
        lb.thermal_jump_set(LAT, p=0.0, lambda_star=1.0, gamma_star=0.8))
    assert cool.null_dim == 4 and cold.null_dim == 4
    assert lb.trace_distance(cool.rho, cold.rho) < 1e-12
    mixture = lb.gibbs_state(H_DENSE, 0.0)
    assert lb.trace_distance(cool.rho, mixture) < 1e-10


def test_depolarizing_bloch_decay():
    jumps = lb.depolarizing_jumps(1, gamma=0.7)
    assert len(jumps) == 3
    model = lb.LindbladModel(
        n_qubits=1, hamiltonian=SparseHamiltonian(n_qubits=1, terms=()),
        jumps=jumps)
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = lb.evolve(model, plus, 1.3)
    x_val = np.real(np.trace(PauliString.single(1, 0, "X").to_dense()
                             @ out.final))
    assert x_val == pytest.approx(math.exp(-0.7 * 1.3), abs=1e-8)
    with pytest.raises(ValueError):
        lb.depolarizing_jumps(1, gamma=-0.2)


# -- stabilizer frame ----------------------------------------------------


def test_frame_basis_is_orthogonal_and_complete():
    frame = lb.StabilizerFrame(LAT)
    assert frame.n_orbits * frame.n_char == DIM
    basis = frame.basis
    np.testing.assert_allclose(basis.T @ basis, np.eye(DIM), atol=1e-12)


def test_frame_operator_matches_dense_conjugation():
    frame = lb.StabilizerFrame(LAT)
    basis = frame.basis
    rng_sum = PauliSum.from_labels(8, {"XYIZIIXZ": 0.3 + 0.2j,
                                       "ZZIIYYII": -1.1,
                                       "IIIIIIIX": 0.5j})
    candidates = [build_hamiltonian(LAT).to_pauli_sum(),
                  lb.excitation_ops(LAT, 2, "e").create,
                  lb.excitation_ops(LAT, 7, "m").translate,
                  rng_sum]
    for op in candidates:
        target = basis.T @ op.to_dense() @ basis
        got = frame.operator(op).toarray()
        np.testing.assert_allclose(got, target, atol=1e-12)


@st.composite
def pauli_sums(draw):
    """Pauli sums on the L = 2 register: 1-4 strings with random phases and
    complex coefficients."""
    n = LAT.n_links
    masks = st.integers(0, 2 ** n - 1)
    parts = st.floats(-2.0, 2.0)
    return PauliSum.from_terms(
        ((complex(draw(parts), draw(parts)),
          PauliString(n, draw(masks), draw(masks), draw(st.integers(0, 3))))
         for _ in range(draw(st.integers(1, 4)))), n_qubits=n)


@settings(max_examples=60, deadline=None)
@given(pauli_sums())
def test_frame_operator_is_dense_conjugation(op):
    basis = FRAME.basis
    np.testing.assert_allclose(FRAME.operator(op).toarray(),
                               basis.T @ op.to_dense() @ basis,
                               rtol=0, atol=1e-12)


def test_frame_diagonalizes_hamiltonian():
    frame = lb.StabilizerFrame(LAT)
    h_frame = frame.operator(build_hamiltonian(LAT).to_pauli_sum()).toarray()
    off = h_frame - np.diag(np.diag(h_frame))
    assert np.abs(off).max() < 1e-12
    np.testing.assert_allclose(np.sort(np.real(np.diag(h_frame))), ENERGIES,
                               atol=1e-10)


# -- stationary states ---------------------------------------------------


def test_stationary_thermal_obeys_detailed_balance():
    res = lb.stationary_state(THERMAL)
    assert res.method == "classical-rate-matrix"
    assert res.null_dim == 1
    assert res.residual < 1e-10
    # the fixed point is Gibbs at delta/ln((1-p)/p), far from -delta/ln p
    assert res.detailed_balance_temperature == pytest.approx(4.0 / math.log(4.0))
    assert res.trace_distance_to_detailed_balance < 1e-6
    assert res.trace_distance_to_gibbs > 1e-3
    for value in res.loop_expectations.values():
        assert abs(value) < 1e-10
    half = lb.stationary_state(
        lb.thermal_jump_set(LAT, p=0.5, lambda_star=1.0, gamma_star=0.8))
    assert half.null_dim == 1
    assert half.trace_distance_to_detailed_balance < 1e-6
    assert lb.trace_distance(half.rho, np.eye(DIM) / DIM) < 1e-6


def test_stationary_ground_pump_has_four_sectors():
    res = lb.stationary_state(
        lb.thermal_jump_set(LAT, p=0.0, lambda_star=1.0, gamma_star=0.8))
    assert res.null_dim == 4
    assert res.residual < 1e-10
    assert lb.trace_distance(res.rho, lb.gibbs_state(H_DENSE, 0.0)) < 1e-6


def test_gibbs_state_stationary_without_translations():
    model = lb.thermal_jump_set(LAT, p=0.2, lambda_star=1.0, gamma_star=0.0)
    gibbs = lb.gibbs_state(model.hamiltonian,
                           model.detailed_balance_temperature())
    assert lb.generator_residual(model, gibbs) < 1e-8


def test_stationary_requires_lattice():
    with pytest.raises(ValueError):
        lb.stationary_state(_single_qubit_damped_rabi())


# -- master-equation integration -----------------------------------------


def test_evolve_unitary_conserves_energy_and_purity():
    model = lb.LindbladModel(n_qubits=8, hamiltonian=build_hamiltonian(LAT),
                             jumps=(), lattice=LAT)
    rng = np.random.default_rng(3)
    v = rng.normal(size=(DIM, 3)) + 1j * rng.normal(size=(DIM, 3))
    rho = v @ v.conj().T
    rho /= np.trace(rho).real
    out = lb.evolve(model, rho, 2.0)
    e0 = np.real(np.trace(H_DENSE @ rho))
    e1 = np.real(np.trace(H_DENSE @ out.final))
    assert abs(e1 - e0) < 1e-10
    assert abs(np.trace(out.final @ out.final).real
               - np.trace(rho @ rho).real) < 1e-7


def test_evolve_relaxes_toward_stationary_state():
    stat = lb.stationary_state(THERMAL).rho
    out = lb.evolve(THERMAL, np.eye(DIM) / DIM, 12.0,
                    sample_times=[0.0, 3.0, 6.0, 12.0])
    distances = [lb.trace_distance(s, stat) for s in out.states]
    assert all(a > b for a, b in zip(distances, distances[1:]))
    assert distances[-1] < 1e-6
    assert out.trace_defects.max() < 1e-8
    assert out.min_eigenvalues.min() > -1e-7


def _random_density(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    sigma = w @ w.conj().T
    return sigma / np.trace(sigma).real


def test_frame_generator_matches_dense_oracle():
    cool = lb.cooling_jump_set(LAT, lambda_star=1.0)
    noisy = lb.LindbladModel(
        n_qubits=LAT.n_links, hamiltonian=cool.hamiltonian,
        jumps=cool.jumps + lb.depolarizing_jumps(LAT.n_links, gamma=0.1),
        lattice=LAT)
    sigma = _random_density(DIM, seed=12)
    for model in (THERMAL, cool, noisy):
        frame = lb._compile_generator(model)
        dense = lb._DenseGenerator(model)
        assert frame.path == "frame"
        np.testing.assert_allclose(frame.out_of(frame.apply(frame.into(sigma))),
                                   dense.apply(dense.into(sigma)),
                                   rtol=0, atol=1e-12)


def test_superoperator_matches_dense_generator_on_probe():
    dense = lb._DenseGenerator(lb.probe_model(0.03, 1.0))
    sigma = _random_density(dense.h.shape[0], seed=13)
    vec = lb._superoperator(dense.h, dense.channels) @ sigma.ravel()
    np.testing.assert_allclose(vec.reshape(sigma.shape), dense.apply(sigma),
                               rtol=0, atol=1e-14)


def test_evolve_validation_and_errors(monkeypatch):
    rho0 = np.eye(DIM) / DIM
    with pytest.raises(ValueError):
        lb.evolve(THERMAL, rho0, 1.0, sample_times=[0.5, 0.2])
    with pytest.raises(ValueError):
        lb.evolve(THERMAL, rho0, 1.0, sample_times=[0.0, 2.0])
    with pytest.raises(lb.PositivityError):
        lb.evolve(THERMAL, np.eye(DIM) / 128, 0.5)
    with pytest.raises(lb.PositivityError):
        bad = np.eye(DIM, dtype=complex) / DIM
        bad[0, 1] = 0.5  # non-Hermitian
        lb.evolve(THERMAL, bad, 0.5)
    monkeypatch.setattr(lb.scipy.integrate, "solve_ivp",
                        lambda *args, **kwargs: SimpleNamespace(
                            success=False, message="step size underflow"))
    with pytest.raises(lb.StepSizeUnderflowError, match="underflow"):
        lb.evolve(THERMAL, rho0, 0.5)


# -- stochastic trajectories ----------------------------------------------


def test_trajectories_unitary_limit_is_deterministic():
    h = SparseHamiltonian(n_qubits=1,
                          terms=((1.0, PauliString.single(1, 0, "X")),))
    model = lb.LindbladModel(n_qubits=1, hamiltonian=h, jumps=())
    psi0 = np.array([1.0, 0.0], dtype=complex)
    times = [0.0, 1.0, 2.5, 4.0]
    obs = {"z": PauliSum.from_string(PauliString.single(1, 0, "Z"))}
    res = lb.trajectories(model, psi0, times, n_samples=5, seed=2,
                          observables=obs)
    assert res.stderrs["z"].max() < 1e-12
    for k, t in enumerate(times):
        assert res.means["z"][k] == pytest.approx(math.cos(2 * t), abs=1e-12)


def test_trajectories_deterministic_per_seed():
    model = _single_qubit_damped_rabi()
    psi0 = np.array([1.0, 0.0], dtype=complex)
    obs = {"z": PauliSum.from_string(PauliString.single(1, 0, "Z"))}
    a = lb.trajectories(model, psi0, [1.0, 2.0], 50, seed=7, observables=obs)
    b = lb.trajectories(model, psi0, [1.0, 2.0], 50, seed=7, observables=obs)
    c = lb.trajectories(model, psi0, [1.0, 2.0], 50, seed=8, observables=obs)
    np.testing.assert_array_equal(a.means["z"], b.means["z"])
    assert not np.array_equal(a.means["z"], c.means["z"])


def test_trajectories_match_master_equation():
    psi0 = GROUND[:, 0]
    times = [0.0, 0.5, 1.0]
    ref = lb.evolve(THERMAL, np.outer(psi0, psi0.conj()), 1.0,
                    sample_times=times)
    e_ref = [float(np.real(np.trace(H_DENSE @ s))) for s in ref.states]
    res = lb.trajectories(THERMAL, psi0, times, n_samples=300, seed=11)
    assert res.n_samples == 300
    for k in range(1, len(times)):
        pull = abs(res.means["energy"][k] - e_ref[k]) / res.stderrs["energy"][k]
        assert pull < 3.0


def test_trajectories_sparse_path_matches_dense():
    model = _single_qubit_damped_rabi()
    psi0 = np.array([1.0, 0.0], dtype=complex)
    times = [0.0, 1.0, 2.5, 4.0]
    obs = {"z": PauliSum.from_string(PauliString.single(1, 0, "Z"))}
    dense = lb.trajectories(model, psi0, times, 200, seed=5, observables=obs)
    sparse = lb._trajectories_sparse(model, psi0, np.asarray(times), 200, 5,
                                     obs, dense.dt)
    # same per-sample streams; only the no-jump integrator differs
    np.testing.assert_allclose(dense.means["z"], sparse.means["z"], atol=5e-3)
    ref = lb.evolve(model, np.outer(psi0, psi0.conj()), 4.0, sample_times=times)
    zd = PauliString.single(1, 0, "Z").to_dense()
    for k in range(1, len(times)):
        z_ref = float(np.real(np.trace(zd @ ref.states[k])))
        pull = abs(sparse.means["z"][k] - z_ref) / sparse.stderrs["z"][k]
        assert pull < 3.0


def test_trajectory_stderr_scales_with_samples():
    model = _single_qubit_damped_rabi()
    psi0 = np.array([1.0, 0.0], dtype=complex)
    obs = {"z": PauliSum.from_string(PauliString.single(1, 0, "Z"))}
    small = lb.trajectories(model, psi0, [2.5], 100, seed=9, observables=obs)
    large = lb.trajectories(model, psi0, [2.5], 400, seed=9, observables=obs)
    ratio = small.stderrs["z"][0] / large.stderrs["z"][0]
    assert 1.5 < ratio < 2.7
    rows = large.rows()
    assert rows[0][:2] == (2.5, "z") and len(rows) == 1


# -- ancilla pumping -------------------------------------------------------


def test_pump_prepares_biased_pseudospin():
    cases = [(0.0, (0.0, 1.0), 0.0),
             (math.pi / 2, (1.0, 0.0), 0.0),
             (math.pi / 4, (0.5, 0.5), math.inf),
             (math.pi / 6, (0.25, 0.75), 4.0 / math.log(3.0))]
    for theta, diag, temperature in cases:
        res = lb.pump_ancilla(lb.PumpProtocol(theta=theta, gamma20=50.0))
        got = np.real(np.diag(res.rho_pseudospin))
        assert got[0] == pytest.approx(diag[0], abs=1e-4)
        assert got[1] == pytest.approx(diag[1], abs=1e-4)
        if math.isinf(temperature):
            assert math.isinf(res.effective_temperature)
        else:
            assert res.effective_temperature == pytest.approx(temperature,
                                                              abs=1e-10)
        assert res.residual_level2 < 1e-8
        assert len(res.steps_executed) == 5
        assert res.rho_pseudospin[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_pump_output_ignores_input_populations():
    protocol = lb.PumpProtocol(theta=math.pi / 6, gamma20=40.0)
    rho0 = np.array([[0.3, 0.1, 0.0], [0.1, 0.7, 0.0], [0.0, 0.0, 0.0]],
                    dtype=complex)
    res = lb.pump_ancilla(protocol, rho0=rho0)
    np.testing.assert_allclose(np.real(np.diag(res.rho_pseudospin)),
                               [0.25, 0.75], atol=1e-8)


def test_pump_ground_state_shortcut():
    res = lb.pump_ancilla(lb.PumpProtocol(theta=math.pi / 3, gamma20=50.0,
                                          ground_state_only=True))
    assert len(res.steps_executed) == 2
    np.testing.assert_allclose(np.real(np.diag(res.rho_pseudospin)),
                               [1.0, 0.0], atol=1e-8)
    assert res.effective_temperature == 0.0


def test_pump_warns_when_pulses_are_not_fast():
    slow = lb.PumpProtocol(theta=math.pi / 6, gamma20=50.0, rabi_rate=200.0)
    with pytest.warns(UserWarning, match="instantaneous"):
        lb.pump_ancilla(slow)
    fast = lb.PumpProtocol(theta=math.pi / 6, gamma20=1.0, rabi_rate=200.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lb.pump_ancilla(fast)


def test_pump_protocol_validation():
    with pytest.raises(ValueError):
        lb.PumpProtocol(theta=-0.1, gamma20=1.0)
    with pytest.raises(ValueError):
        lb.PumpProtocol(theta=2.0, gamma20=1.0)
    with pytest.raises(ValueError):
        lb.PumpProtocol(theta=0.5, gamma20=0.0)
    with pytest.raises(ValueError):
        lb.PumpProtocol(theta=0.5, gamma20=1.0, wait_factor=5.0)
    with pytest.raises(ValueError):
        lb.pump_ancilla(lb.PumpProtocol(theta=0.5, gamma20=1.0),
                        rho0=np.eye(2, dtype=complex))


# -- adiabatic-elimination probe ------------------------------------------


def test_probe_recovers_inverse_relaxation_rate_law():
    report = lb.adiabatic_elimination_probe([0.02, 0.03, 0.045],
                                            [0.6, 1.0, 1.6])
    assert abs(report.coupling_exponent - 2.0) < 0.1
    assert abs(report.relaxation_exponent + 1.0) < 0.1
    assert report.favored_model == "coupling^2 / relaxation"
    assert report.model_residuals["coupling^2 / relaxation"] < 0.05
    assert report.model_residuals["coupling^2 * relaxation"] > 0.5
    assert report.prefactor == pytest.approx(4.0, rel=0.05)
    for point in report.points:
        assert point.rate == pytest.approx(
            4.0 * point.coupling ** 2 / point.relaxation, rel=0.05)


def test_probe_zero_coupling_and_errors():
    report = lb.adiabatic_elimination_probe([0.0, 0.02, 0.03], [0.6, 1.0])
    zero_points = [p for p in report.points if p.coupling == 0.0]
    assert len(zero_points) == 2
    assert all(p.rate == 0.0 for p in zero_points)
    with pytest.raises(ValueError):
        lb.adiabatic_elimination_probe([0.2], [1.0])
    with pytest.raises(lb.FitRejectedError):
        lb.adiabatic_elimination_probe([0.03], [0.6], fit_residual_tol=1e-12)
    with pytest.raises(ValueError):
        lb.adiabatic_elimination_probe([0.02], [0.6])  # no 2x2 grid
    with pytest.raises(ValueError):
        lb.probe_model(0.1, -1.0)


# -- shared helpers --------------------------------------------------------


def test_gibbs_and_trace_distance_helpers():
    gibbs = lb.gibbs_state(build_hamiltonian(LAT), 2.0)
    assert np.trace(gibbs).real == pytest.approx(1.0, abs=1e-12)
    boltzmann = np.exp(-(ENERGIES - ENERGIES[0]) / 2.0)
    np.testing.assert_allclose(np.sort(scipy.linalg.eigvalsh(gibbs)),
                               np.sort(boltzmann / boltzmann.sum()),
                               atol=1e-12)
    ground = lb.gibbs_state(H_DENSE, 0.0)
    np.testing.assert_allclose(ground, GROUND @ GROUND.conj().T / 4.0,
                               atol=1e-12)
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.25, 0.75]).astype(complex)
    assert lb.trace_distance(a, b) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        lb.gibbs_state(H_DENSE, -1.0)


def test_validate_density_matrix():
    lb.validate_density_matrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        lb.validate_density_matrix(np.ones((2, 3)))
    with pytest.raises(lb.PositivityError):
        lb.validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))
