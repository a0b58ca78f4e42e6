"""Engineered-dissipation checks against dense oracles (L=2, 256 dimensions)."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles as oracles
from toricsim import harness as hn
from toricsim import lattice as lt
from toricsim import lindblad as lb
from toricsim.pauli import PauliString, PauliSum
from toricsim.spectra import SparseHamiltonian, build_hamiltonian

LAT = lt.build(2)
DIM = 2 ** LAT.n_links
H_SUM = PauliSum.from_terms(build_hamiltonian(LAT).terms)
H_DENSE = build_hamiltonian(LAT).to_dense()
ENERGIES, VECTORS = scipy.linalg.eigh(H_DENSE)
GROUND = VECTORS[:, :4]
# pair gap oracle: one flipped vertex (or plaquette) pair costs 2 + 2
GAP = 4.0
THERMAL = lb.thermal_jump_set(LAT, p=0.2, lambda_star=1.0, gamma_star=0.8)
COOL = lb.cooling_jump_set(LAT, lambda_star=1.0)
NOISY = lb.LindbladModel(
    jumps=COOL.jumps + lb.depolarizing_jumps(LAT.n_links, gamma=0.1),
    lattice=LAT)
# a thermal, a cooling and a noisy cooling jump set
CHAIN_MODELS = {"thermal": THERMAL, "cooling": COOL, "noisy-cooling": NOISY}
# the jump sets whose every channel moves one frame label
KRONECKER_MODELS = {
    **{f"thermal-p{p}": lb.thermal_jump_set(LAT, p=p, lambda_star=1.0,
                                            gamma_star=0.8)
       for p in (0.0, 0.2, 0.5)},
    "cooling": COOL}
FRAME = lb.StabilizerFrame(LAT)
N_ORB, N_CHAR = FRAME.n_orbits, FRAME.n_char
# the marginals of joint frame populations, index o * n_char + t
LUMP_E = np.kron(np.eye(N_ORB), np.ones((1, N_CHAR)))
LUMP_M = np.kron(np.ones((1, N_ORB)), np.eye(N_CHAR))


def _uniform(frame: lb.StabilizerFrame) -> tuple[np.ndarray, np.ndarray]:
    """The label marginals of I/D."""
    return (np.full(frame.n_orbits, 1.0 / frame.n_orbits),
            np.full(frame.n_char, 1.0 / frame.n_char))


UNIFORM = _uniform(FRAME)


class _DenseGenerator:
    """The oracle: the generator -i[H, rho] - {A, rho} + sum 2r c rho c†
    with A = sum r c†c, of a dense H and dense ``(rate, c)`` channels, or
    of a model's (:meth:`of`)."""

    def __init__(self, h: np.ndarray, channels):
        self.h, self.channels = h, channels
        self.absorber = sum((r * (c.conj().T @ c) for r, c in self.channels),
                            np.zeros_like(self.h))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = -1j * (self.h @ rho - rho @ self.h)
        out -= self.absorber @ rho + rho @ self.absorber
        for rate, c in self.channels:
            out += 2.0 * rate * (c @ rho @ c.conj().T)
        return out

    @classmethod
    def of(cls, model: lb.LindbladModel) -> "_DenseGenerator":
        return cls(H_DENSE,
                   [(jt.rate, oracles.channel_operator(LAT, jt).to_dense())
                    for jt in model.jumps])


def _joint_chain(model: lb.LindbladModel) -> np.ndarray:
    """The oracle: the 256-state population chain, m[r, c] the rate c -> r,
    from H and every channel's Pauli sum carried into the frame with
    ``StabilizerFrame.operator``.  H is frame-diagonal and every channel a
    partial permutation there, so the frame populations close."""
    h = FRAME.operator(H_SUM)
    assert np.abs((h - scipy.sparse.diags(h.diagonal())).toarray()).max() < 1e-12
    m = np.zeros((DIM, DIM))
    for jt in model.jumps:
        c = FRAME.operator(oracles.channel_operator(LAT, jt)).tocoo()
        assert np.unique(c.row).size == np.unique(c.col).size == c.nnz
        flows = 2.0 * jt.rate * np.abs(c.data) ** 2
        np.add.at(m, (c.row, c.col), flows)
        np.add.at(m, (c.col, c.col), -flows)
    return m


def _kronecker_sum(gen) -> np.ndarray:
    return (np.kron(gen.orbit_chain, np.eye(N_CHAR))
            + np.kron(np.eye(N_ORB), gen.char_chain))


def _null_vector(m: np.ndarray) -> np.ndarray:
    """The stationary distribution of a chain with one recurrent class,
    from its last right-singular vector."""
    _, _, vh = np.linalg.svd(m)
    return vh[-1] / vh[-1].sum()


# -- excitation / translation operators ---------------------------------


def test_excitation_ops_match_projector_oracle():
    eye = np.eye(DIM)
    for link, kind in [(0, "e"), (3, "e"), (5, "m"), (6, "m")]:
        ops = oracles.excitation_ops(LAT, link, kind)
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
        oracles.excitation_ops(LAT, LAT.n_links, "e")
    with pytest.raises(ValueError):
        oracles.excitation_ops(LAT, 0, "q")


def test_pair_creation_squares_to_zero():
    for link, kind in [(0, "e"), (5, "m")]:
        create = oracles.excitation_ops(LAT, link, kind).create
        assert create.product(create).l2_norm() < 1e-14


def test_pair_creation_lifts_ground_states_by_gap():
    cd = oracles.excitation_ops(LAT, 0, "e").create.to_dense()
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
    ops0 = oracles.excitation_ops(LAT, 0, "e")
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
    translate = oracles.excitation_ops(LAT, mover, "e").translate
    moved = translate.to_dense() @ excited
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

    x_loops = [PauliSum({s: 1.0}) for s in lt.x_loops(LAT)]
    z_loops = [PauliSum({s: 1.0}) for s in lt.z_loops(LAT)]
    ops_e = oracles.excitation_ops(LAT, 0, "e")
    ops_m = oracles.excitation_ops(LAT, 0, "m")
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
    assert lb.PAIR_GAP == GAP
    # creation over annihilation is the Boltzmann factor of a pair
    rates = {jt.label: jt.rate for jt in THERMAL.jumps}
    assert rates["create[e,0]"] / rates["annihilate[e,0]"] == pytest.approx(
        math.exp(-GAP / THERMAL.detailed_balance_temperature()))
    # zero-rate channels are dropped
    cold = lb.thermal_jump_set(LAT, p=0.0, lambda_star=1.0, gamma_star=0.8)
    assert len(cold.jumps) == 3 * 2 * LAT.n_links
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
        dataclasses.replace(THERMAL, p=None).pair_rate_ratio()


def test_detailed_balance_temperature():
    model = lb.thermal_jump_set(LAT, p=0.2, lambda_star=1.0, gamma_star=0.1)
    assert model.detailed_balance_temperature() == pytest.approx(
        4.0 / math.log(4.0))
    assert lb.thermal_jump_set(LAT, p=0.5, lambda_star=1.0, gamma_star=0.1
                               ).detailed_balance_temperature() == math.inf
    assert lb.thermal_jump_set(LAT, p=0.0, lambda_star=1.0, gamma_star=0.1
                               ).detailed_balance_temperature() == 0.0


def test_cooling_set_is_dark_on_ground_states():
    model = lb.cooling_jump_set(LAT, lambda_star=1.0)
    assert len(model.jumps) == 2 * 2 * LAT.n_links
    for jt in model.jumps:
        op = oracles.channel_operator(LAT, jt)
        assert len(op) == 2  # half-weight flip times one projector
        dense = op.to_dense()
        for k in range(4):
            assert np.linalg.norm(dense @ GROUND[:, k]) < 1e-13
    with pytest.raises(ValueError):
        lb.cooling_jump_set(LAT, lambda_star=0.0)


def test_cooling_matches_thermal_ground_pump_limit():
    cool = lb.stationary_state(lb.cooling_jump_set(LAT, lambda_star=1.0))
    cold = lb.stationary_state(
        lb.thermal_jump_set(LAT, p=0.0, lambda_star=1.0, gamma_star=0.8))
    assert cool.null_dim == 4 and cold.null_dim == 4
    cool_rho = oracles.stationary_rho(cool)
    assert lb.trace_distance(cool_rho, oracles.stationary_rho(cold)) < 1e-12
    mixture = lb.gibbs_state(H_DENSE, 0.0)
    assert lb.trace_distance(cool_rho, mixture) < 1e-10


def test_depolarizing_bloch_decay():
    jumps = lb.depolarizing_jumps(1, gamma=0.7)
    assert [(jt.link, jt.action, jt.flavor) for jt in jumps] == [
        (0, "X", None), (0, "Y", None), (0, "Z", None)]
    # the generator fixes I/2, the Gibbs state of H = 0, and relaxes every
    # Bloch component at exactly gamma
    dense = _DenseGenerator(np.zeros((2, 2), dtype=complex), [
        (jt.rate, PauliString.single(1, jt.link, jt.action).to_dense())
        for jt in jumps])
    np.testing.assert_allclose(dense.apply(np.eye(2) / 2.0), 0.0,
                               rtol=0, atol=1e-15)
    for letter in "XYZ":
        sigma = PauliString.single(1, 0, letter).to_dense()
        np.testing.assert_allclose(dense.apply(sigma), -0.7 * sigma,
                                   rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        lb.depolarizing_jumps(1, gamma=-0.2)


# -- stabilizer frame ----------------------------------------------------


def test_frame_basis_is_orthogonal_and_complete():
    frame = lb.StabilizerFrame(LAT)
    assert frame.n_orbits * frame.n_char == DIM
    basis = oracles.basis(frame)
    np.testing.assert_allclose(basis.T @ basis, np.eye(DIM), atol=1e-12)


def test_frame_operator_matches_dense_conjugation():
    frame = lb.StabilizerFrame(LAT)
    basis = oracles.basis(frame)
    rng_sum = PauliSum.from_labels(8, {"XYIZIIXZ": 0.3 + 0.2j,
                                       "ZZIIYYII": -1.1,
                                       "IIIIIIIX": 0.5j})
    candidates = [PauliSum.from_terms(build_hamiltonian(LAT).terms),
                  oracles.excitation_ops(LAT, 2, "e").create,
                  oracles.excitation_ops(LAT, 7, "m").translate,
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
    basis = oracles.basis(FRAME)
    np.testing.assert_allclose(FRAME.operator(op).toarray(),
                               basis.T @ op.to_dense() @ basis,
                               rtol=0, atol=1e-12)


def test_frame_diagonalizes_hamiltonian():
    frame = lb.StabilizerFrame(LAT)
    h_frame = frame.operator(
        PauliSum.from_terms(build_hamiltonian(LAT).terms)).toarray()
    off = h_frame - np.diag(np.diag(h_frame))
    assert np.abs(off).max() < 1e-12
    np.testing.assert_allclose(np.sort(np.real(np.diag(h_frame))), ENERGIES,
                               atol=1e-10)


@pytest.mark.parametrize("h_z", [0.0, 0.05])
@pytest.mark.parametrize("size, shape", [(2, (32, 8)), (3, (1024, 256))],
                         ids=["l2", "l3"])
def test_unperturbed_sectors_are_the_frame_orbits(size, shape, h_z):
    # at chi = 0 the X-masks of H span the plaquette-flip group, and the
    # reduced echelon form of a span is unique
    lat = lt.build(size)
    sectors = build_hamiltonian(lat, h_z=h_z).compile().cosets
    orbits = lb.StabilizerFrame(lat).cosets
    assert sectors.rows == orbits.rows
    np.testing.assert_array_equal(sectors.reps, orbits.reps)
    np.testing.assert_array_equal(sectors.elements, orbits.elements)
    assert (orbits.reps.size, orbits.elements.size) == shape


def test_frame_build_holds_no_table_over_the_states():
    lat = lt.build(3)
    for build in (lb.StabilizerFrame, lb.FrameLabels):
        tracemalloc.start()
        try:
            frame = build(lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two label tables over the 2^18 states took 4 MiB
        assert peak < 2 ** 20
        assert not hasattr(frame, "orbit_of")
        assert not hasattr(frame, "element_of")


def test_frame_cap_refuses_l4():
    # L = 3 has 18 qubits; the dense label chains of L = 4 (32 qubits)
    # would be 2^17 x 2^17
    for build in (lb.StabilizerFrame, lb.FrameLabels):
        with pytest.raises(ValueError, match="frame cap of 18"):
            build(lt.build(4))
    with pytest.raises(ValueError, match="frame cap of 18"):
        lb.stationary_state(lb.cooling_jump_set(lt.build(4), lambda_star=1.0))


def test_label_diagonal_matches_frame_operator():
    stabs = [PauliSum({s: 1.0}) for s in lt.stabilizers(LAT)]
    loops = [PauliSum({s: 1.0}) for s in lt.z_loops(LAT) + lt.x_loops(LAT)]
    for op in [PauliSum.from_terms(build_hamiltonian(LAT).terms), *stabs,
               *loops, oracles.excitation_ops(LAT, 3, "e").create]:
        d_e, d_m = oracles.label_diagonal(FRAME, op)
        assert d_e.shape == (N_ORB,) and d_m.shape == (N_CHAR,)
        np.testing.assert_allclose((d_e[:, None] + d_m[None, :]).ravel(),
                                   FRAME.operator(op).diagonal().real,
                                   rtol=0, atol=1e-15)
    w_e, w_m = oracles.excitation_weights(FRAME)
    want = sum((1.0 - FRAME.operator(op).diagonal().real) / 2.0
               for op in stabs) / len(stabs)
    np.testing.assert_allclose((w_e[:, None] + w_m[None, :]).ravel(), want,
                               rtol=0, atol=1e-15)
    # a vertex times a plaquette stabilizer reads both labels at once
    both = lt.vertex_stabilizer(LAT, 0) * lt.plaquette_stabilizer(LAT, 0)
    with pytest.raises(ValueError, match="both frame labels"):
        oracles.label_diagonal(FRAME, PauliSum({both: 1.0}))


@pytest.mark.parametrize("size", [2, 3])
def test_broadcast_phases_match_the_per_string_rule(size):
    # FrameStrings.turns comes from one broadcast call of the phase rule;
    # the reference is one PauliString.quarter_turns call per string and,
    # at L = 2, the rule in Python integers
    lat = lt.build(size)
    frame = lb.StabilizerFrame(lat)
    reps = frame.cosets.reps
    ops = [oracles.channel_operator(lat, jt) for model in (
               lb.thermal_jump_set(lat, p=0.2, lambda_star=1.0, gamma_star=0.8),
               lb.cooling_jump_set(lat, lambda_star=1.0))
           for jt in model.jumps]
    ops += [oracles.channel_operator(lat, jt)
            for jt in lb.depolarizing_jumps(lat.n_links, gamma=0.1)]
    turns = frame.strings(ops).turns
    strings = [string for op in ops for string in op]
    assert turns.shape == (len(strings), frame.n_orbits)
    for string, row in zip(strings, turns):
        assert np.array_equal(row, string.quarter_turns(reps) & 3)
        if size == 2:
            assert row.tolist() == [
                ((string.x_mask & string.z_mask).bit_count()
                 + 2 * (int(r) & string.z_mask).bit_count()) % 4 for r in reps]


def _oracle_models(lat: lt.TorusLattice) -> dict[str, lb.LindbladModel]:
    cool = lb.cooling_jump_set(lat, lambda_star=1.0)
    return {
        **{f"thermal-p{p}": lb.thermal_jump_set(lat, p=p, lambda_star=1.0,
                                                gamma_star=0.5)
           for p in (0.0, 0.2)},
        "cooling": cool,
        "noisy-cooling": lb.LindbladModel(
            lattice=lat,
            jumps=cool.jumps + lb.depolarizing_jumps(lat.n_links, gamma=0.1))}


@pytest.mark.parametrize("size", [2, 3])
def test_incidence_chains_match_the_string_oracle(size):
    # the label chains read the link incidence, and the energies, weights
    # and loops the syndrome bits; the oracle carries every Pauli string of
    # each channel, of H and of each observable into the frame.  Shifts,
    # flips, flows, energies and loops agree bit for bit
    lat = lt.build(size)
    for name, model in _oracle_models(lat).items():
        got, want = lb._compile_generator(model), oracles.model_chains(model)
        for key in ("orbit_shifts", "orbit_flows", "char_flips", "char_flows"):
            a, b = getattr(got, key), getattr(want, key)
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, key)
        for a, b in zip(got.labels.energies, want.energies):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    labels = lb.FrameLabels(lat)
    frame = lb.StabilizerFrame(lat)
    loops = labels.wilson_diagonals
    assert labels.wilson_diagonals is loops
    want_loops = oracles.wilson_diagonals(frame)
    assert list(loops) == list(want_loops)
    for key in loops:
        for a, b in zip(loops[key], want_loops[key]):
            assert a.dtype == b.dtype and np.array_equal(a, b), key
    # the weights: multiples of 1/16 at L = 2, each exact; multiples of
    # 1/36 at L = 3, which the oracle sums term by term
    for a, b in zip(labels.excitation_weights,
                    oracles.excitation_weights(frame)):
        if size == 2:
            assert np.array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-15, atol=0)


def test_jump_terms_name_a_known_action():
    for flavor, action in (("e", "X"), ("m", "flip"), (None, "create"),
                           ("q", "create"), (None, "XY"), (None, "")):
        with pytest.raises(ValueError, match="no action"):
            lb.JumpTerm("bad", 0.1, 0, action, flavor)
    with pytest.raises(ValueError, match="outside the register"):
        lb.LindbladModel(lattice=LAT, jumps=(
            lb.JumpTerm("far", 0.1, LAT.n_links, "create", "e"),))


@pytest.mark.parametrize("name", sorted(KRONECKER_MODELS))
def test_label_chains_are_the_joint_chain(name):
    # every channel moves one label at a rate the other label does not
    # change, so M = M_e (x) 1 + 1 (x) M_m
    gen = lb._compile_generator(KRONECKER_MODELS[name])
    assert gen.kronecker_sum
    assert gen.orbit_chain.shape == (N_ORB, N_ORB)
    assert gen.char_chain.shape == (N_CHAR, N_CHAR)
    np.testing.assert_allclose(_kronecker_sum(gen),
                               _joint_chain(KRONECKER_MODELS[name]),
                               rtol=0, atol=1e-14)


def test_noisy_label_chains_are_the_lumped_joint_chain():
    # Y moves both labels, so the joint chain is no Kronecker sum, but
    # each marginal of M p is the label chain on that marginal of p
    gen = lb._compile_generator(NOISY)
    joint = _joint_chain(NOISY)
    assert not gen.kronecker_sum
    assert np.abs(_kronecker_sum(gen) - joint).max() > 0.1
    # each lumped entry sums 8 or 32 rates of the joint chain
    np.testing.assert_allclose(LUMP_E @ joint, gen.orbit_chain @ LUMP_E,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(LUMP_M @ joint, gen.char_chain @ LUMP_M,
                               rtol=0, atol=1e-12)


def test_label_chains_at_l3():
    # the label chains at L = 3 (18 qubits); no scenario runs there yet
    lat = lt.build(3)
    for thermal, model, null_dims in (
            (True, lb.thermal_jump_set(lat, p=0.2, lambda_star=1.0,
                                       gamma_star=0.5), (1, 1)),
            (False, lb.cooling_jump_set(lat, lambda_star=1.0), (4, 1))):
        gen = lb._compile_generator(model)
        assert gen.kronecker_sum
        assert gen.orbit_chain.shape == (1024, 1024)
        assert gen.char_chain.shape == (256, 256)
        for m in (gen.orbit_chain, gen.char_chain):
            np.testing.assert_allclose(m.sum(axis=0), 0.0, rtol=0, atol=1e-13)
        if thermal:
            # each state moves along each of the 18 links
            assert np.count_nonzero(gen.orbit_chain) == 19456
            assert np.count_nonzero(gen.char_chain) == 4864
        # no path builds a dense state: the frame basis alone would be
        # 2^18 x 2^18 floats (512 GiB)
        size = model.labels.n_orbits * model.labels.n_char
        tracemalloc.start()
        try:
            res = lb.stationary_state(model)
            out = lb.evolve(model, _uniform(model.labels),
                            np.linspace(0.0, 10.0, 11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2 ** 20
        assert (res.counters["orbit_null_dim"],
                res.counters["char_null_dim"]) == null_dims
        assert res.residual < 1e-12
        assert out.populations.shape == (11, size)
        assert out.trace_defects.max() < 1e-9


# -- stationary states ---------------------------------------------------


def test_stationary_thermal_obeys_detailed_balance():
    res = lb.stationary_state(THERMAL)
    assert res.null_dim == 1
    assert res.residual < 1e-10
    # the fixed point is Gibbs at delta/ln((1-p)/p)
    assert res.detailed_balance_temperature == pytest.approx(4.0 / math.log(4.0))
    assert res.trace_distance_to_detailed_balance < 1e-6
    for value in res.loop_expectations.values():
        assert abs(value) < 1e-10
    half = lb.stationary_state(
        lb.thermal_jump_set(LAT, p=0.5, lambda_star=1.0, gamma_star=0.8))
    assert half.null_dim == 1
    assert half.trace_distance_to_detailed_balance < 1e-6
    assert lb.trace_distance(oracles.stationary_rho(half),
                             np.eye(DIM) / DIM) < 1e-6


def test_recurrent_distributions_skip_leaking_classes():
    # m[r, c] is the rate c -> r: the class {0, 1} leaks into {2, 3}, and
    # {2, 3} and {4} are closed, so only the last two hold a distribution
    m = np.zeros((5, 5))
    for src, dst, rate in ((0, 1, 1.0), (1, 0, 2.0), (1, 2, 0.5),
                           (2, 3, 1.0), (3, 2, 3.0)):
        m[dst, src] += rate
        m[src, src] -= rate
    dists = lb._recurrent_distributions(m)
    assert sorted(tuple(np.flatnonzero(pi)) for pi in dists) == [(2, 3), (4,)]
    for pi in dists:
        assert pi.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(m @ pi, 0.0, atol=1e-14)


def test_stationary_ground_pump_has_four_sectors():
    res = lb.stationary_state(
        lb.thermal_jump_set(LAT, p=0.0, lambda_star=1.0, gamma_star=0.8))
    assert res.null_dim == 4
    assert res.residual < 1e-10
    assert lb.trace_distance(oracles.stationary_rho(res),
                             lb.gibbs_state(H_DENSE, 0.0)) < 1e-6


def test_gibbs_state_stationary_without_translations():
    model = lb.thermal_jump_set(LAT, p=0.2, lambda_star=1.0, gamma_star=0.0)
    gibbs = lb.gibbs_state(H_DENSE,
                           model.detailed_balance_temperature())
    gen = lb._compile_generator(model)
    # H is frame-diagonal, so the Gibbs state is too: its frame diagonal
    # holds all of it
    gibbs_f = oracles.to_frame(gen.labels, gibbs)
    populations = np.diag(gibbs_f).real
    assert np.linalg.norm(gibbs_f - np.diag(populations)) < 1e-12
    # the Kronecker-sum chain on P = populations as (n_orbits, n_char)
    p = populations.reshape(N_ORB, N_CHAR)
    assert gen.kronecker_sum
    assert np.linalg.norm(gen.orbit_chain @ p + p @ gen.char_chain.T) < 1e-8
    assert np.linalg.norm(_DenseGenerator.of(model).apply(gibbs)) < 1e-8


@pytest.mark.parametrize("name, classes", [
    ("thermal", 1), ("ground-pump", 4), ("cooling", 4), ("noisy-cooling", 1)])
def test_null_dim_counts_recurrent_classes(name, classes):
    # the oracles: the numerical rank deficiency of a rate matrix, from
    # its singular values, and the last right-singular vector of each
    # closed class block, normalized to unit sum
    def rank_deficiency(m):
        singulars = np.linalg.svd(m, compute_uv=False)
        return np.sum(singulars < 1e-9 * max(singulars[0], 1.0))

    model = {**CHAIN_MODELS, "ground-pump": lb.thermal_jump_set(
        LAT, p=0.0, lambda_star=1.0, gamma_star=0.8)}[name]
    assert rank_deficiency(_joint_chain(model)) == classes
    res = lb.stationary_state(model)
    assert res.null_dim == classes
    gen = lb._compile_generator(model)
    label_classes = []
    for m in (gen.orbit_chain, gen.char_chain):
        dists = lb._recurrent_distributions(m)
        assert rank_deficiency(m) == len(dists)
        label_classes.append(len(dists))
        supports = [np.flatnonzero(pi) for pi in dists]
        assert (len(np.unique(np.concatenate(supports)))
                == sum(map(len, supports)))
        for pi, idx in zip(dists, supports):
            _, _, vh = np.linalg.svd(m[np.ix_(idx, idx)])
            want = np.abs(vh[-1]) / np.abs(vh[-1]).sum()
            np.testing.assert_allclose(pi[idx], want, rtol=0, atol=1e-13)
    assert label_classes[0] * label_classes[1] == classes
    assert (res.counters["orbit_null_dim"],
            res.counters["char_null_dim"]) == tuple(label_classes)


# -- master-equation integration -----------------------------------------


def test_evolve_relaxes_toward_stationary_state():
    stat = oracles.stationary_rho(lb.stationary_state(THERMAL))
    out = lb.evolve(THERMAL, oracles.start_populations(FRAME, np.eye(DIM) / DIM),
                    [0.0, 3.0, 6.0, 12.0])
    distances = [lb.trace_distance(s, stat)
                 for s in oracles.evolution_states(out)]
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
    # the dense generator on random frame-diagonal states creates no frame
    # coherence, and its frame diagonal is the joint chain on p
    rng = np.random.default_rng(12)
    basis = oracles.basis(FRAME)
    for model in CHAIN_MODELS.values():
        m = _joint_chain(model)
        dense = _DenseGenerator.of(model)
        for _ in range(2):
            p = rng.random(DIM)
            p /= p.sum()
            np.testing.assert_allclose(
                oracles.to_frame(FRAME, dense.apply((basis * p) @ basis.T)),
                np.diag(m @ p), rtol=0, atol=1e-12)


def test_frame_matrices_need_permutation_channels():
    # the string-built oracle chains refuse a channel that is no partial
    # permutation in the frame, or whose rate reads both labels
    h = H_SUM
    cooling = [(jt.label, oracles.channel_operator(LAT, jt))
               for jt in COOL.jumps[:2]]
    mixed = PauliSum.from_terms(((1.0, PauliString.single(8, 0, "X")),
                                 (1.0, PauliString.single(8, 1, "X"))))
    with pytest.raises(ValueError, match=r"'x0\+x1' is not a partial"):
        oracles.string_chains(FRAME, h, cooling + [("x0+x1", mixed)])
    # Z_0 and Z_1 keep the orbit but flip different characters
    flips = PauliSum.from_terms(((1.0, PauliString.single(8, 0, "Z")),
                                 (1.0, PauliString.single(8, 1, "Z"))))
    with pytest.raises(ValueError, match=r"'z0\+z1' is not a partial"):
        oracles.string_chains(FRAME, h, [("z0+z1", flips)])
    # X_0 (1 + B_0) / 2 moves the orbit at a rate set by the plaquette
    # B_0, which the character reads: its label chains would not lump
    flip = PauliString.single(8, 0, "X")
    lopsided = PauliSum.from_terms(
        ((0.5, flip), (0.5, flip * lt.plaquette_stabilizer(LAT, 0))))
    with pytest.raises(ValueError, match="'lopsided' has a rate that depends"):
        oracles.string_chains(FRAME, h, [("lopsided", lopsided)])


# the label null dimensions of each chain model
NULL_DIMS = {"thermal": (1, 1), "cooling": (4, 1), "noisy-cooling": (1, 1)}


@pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
def test_chain_stationary_state_is_dense_fixed_point(name):
    model = CHAIN_MODELS[name]
    res = lb.stationary_state(model)
    null_e, null_m = NULL_DIMS[name]
    assert res.counters == {"engine": "label-chains", "orbit_states": N_ORB,
                            "char_states": N_CHAR,
                            "kronecker_sum": name != "noisy-cooling",
                            "orbit_null_dim": null_e, "char_null_dim": null_m,
                            "null_dim": null_e * null_m}
    if res.kronecker_sum:
        state = oracles.stationary_rho(res)
    else:
        # only the marginals are known: they must be the lumped frame
        # populations of the oracle chain's fixed point
        with pytest.raises(ValueError, match="not a Kronecker sum"):
            oracles.stationary_rho(res)
        pi = _null_vector(_joint_chain(model))
        np.testing.assert_allclose(res.orbit_populations, LUMP_E @ pi,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.char_populations, LUMP_M @ pi,
                                   rtol=0, atol=1e-12)
        basis = oracles.basis(FRAME)
        state = (basis * pi) @ basis.T
    assert np.linalg.norm(_DenseGenerator.of(model).apply(state)) < 1e-10


@pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
def test_chain_evolution_matches_superoperator_propagator(name):
    model = CHAIN_MODELS[name]
    kron = name != "noisy-cooling"
    rng = np.random.default_rng(21)
    p_e, p_m = (p / p.sum() for p in (rng.random(N_ORB), rng.random(N_CHAR)))
    rho0_f = np.diag(np.kron(p_e, p_m)).astype(complex)
    times = [0.0, 1.0, 3.0, 10.0]
    out = lb.evolve(model, oracles.start_populations(
        FRAME, oracles.from_frame(FRAME, rho0_f)), times)
    assert out.counters == {"engine": "label-chains", "orbit_states": N_ORB,
                            "char_states": N_CHAR,
                            "kronecker_sum": kron,
                            "propagator_evaluations": 3}
    # independent propagator: the vectorized frame generator, exp(S t), on
    # the entries the start reaches, exactly the frame diagonal
    h = FRAME.operator(H_SUM)
    channels = [(jt.rate, FRAME.operator(oracles.channel_operator(LAT, jt)))
                for jt in model.jumps]
    gen = oracles.superoperator(h, channels)
    idx = oracles.reachable(gen, np.flatnonzero(rho0_f))
    np.testing.assert_array_equal(idx, np.arange(DIM) * (DIM + 1))
    block = gen[idx][:, idx].toarray()
    for k, t in enumerate(times):
        want = np.zeros(DIM * DIM, dtype=complex)
        want[idx] = scipy.linalg.expm(block * t) @ rho0_f.ravel()[idx]
        want = want.reshape(DIM, DIM)
        diag = np.diag(want).real
        # the oracle stays frame-diagonal, and its lumped diagonal is what
        # the marginal chains carry; a Kronecker chain keeps the product
        assert np.abs(want - np.diag(diag)).max() < 1e-10
        np.testing.assert_allclose(out.orbit_populations[k],
                                   LUMP_E @ diag, rtol=0, atol=1e-10)
        np.testing.assert_allclose(out.char_populations[k],
                                   LUMP_M @ diag, rtol=0, atol=1e-10)
        if kron:
            np.testing.assert_allclose(
                oracles.to_frame(FRAME, oracles.evolution_states(out)[k]),
                want, rtol=0, atol=1e-10)
        low = min((LUMP_E @ diag).min(), (LUMP_M @ diag).min())
        assert out.trace_defects[k] < 1e-12
        assert out.min_eigenvalues[k] == pytest.approx(low, abs=1e-10)
    if not kron:
        with pytest.raises(ValueError, match="not a Kronecker sum"):
            oracles.evolution_states(out)


@pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
def test_population_observables_match_dense_oracle(name):
    # every chain result is B diag(p) Bᵀ; the label formulas must give what
    # the dense functions give on that matrix.  A noisy chain carries only
    # the marginals: there p comes from the oracle joint chain, the
    # marginals must be its lumped populations, and only the label-additive
    # observables (energy, density, loops) are read
    model = CHAIN_MODELS[name]
    h = H_DENSE
    basis = oracles.basis(FRAME)
    res = lb.stationary_state(model)
    # a random frame-diagonal product start breaks the logical symmetry of
    # I/D, so the Z loops read nonzero values along the way
    rng = np.random.default_rng(3)
    start = [p / p.sum() for p in (rng.random(N_ORB), rng.random(N_CHAR))]
    p0 = np.kron(*start)
    out = lb.evolve(model, start, [0.0, 1.0, 3.0])
    if res.kronecker_sum:
        np.testing.assert_allclose(oracles.stationary_rho(res),
                                   (basis * res.populations) @ basis.T,
                                   rtol=0, atol=1e-14)
        joint = [res.populations, *out.populations]
    else:
        m = _joint_chain(model)
        joint = [_null_vector(m),
                 *(scipy.linalg.expm(m * t) @ p0 for t in out.times)]
        for view in (lambda: res.populations, lambda: out.populations):
            with pytest.raises(ValueError, match="not a Kronecker sum"):
                view()
        assert res.trace_distance_to_detailed_balance is None
    w_e, w_m = res.labels.excitation_weights
    loops = lt.z_loops(LAT) + lt.x_loops(LAT)
    diagonals = res.labels.wilson_diagonals.values()
    gibbs = {t: (lb._gibbs_weights(res.energies, t), lb.gibbs_state(h, t))
             for t in (0.0, 2.0, math.inf)}
    marginals = [(res.orbit_populations, res.char_populations),
                 *zip(out.orbit_populations, out.char_populations)]
    for (p_e, p_m), pops in zip(marginals, joint):
        np.testing.assert_allclose(p_e, LUMP_E @ pops, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p_m, LUMP_M @ pops, rtol=0, atol=1e-12)
        rho = (basis * pops) @ basis.T
        assert abs(p_e @ res.orbit_energies + p_m @ res.char_energies
                   - np.trace(h @ rho).real) < 1e-12
        assert abs(p_e @ w_e + p_m @ w_m
                   - hn.excitation_density(rho, LAT)) < 1e-12
        for loop, (d_e, d_m) in zip(loops, diagonals):
            assert abs(p_e @ d_e + p_m @ d_m
                       - loop.expectation(rho).real) < 1e-12
        if res.kronecker_sum:
            assert abs(hn.population_entropy(pops)
                       - hn.von_neumann_entropy(rho)) < 1e-12
            for populations_t, state_t in gibbs.values():
                assert abs(0.5 * np.abs(pops - populations_t).sum()
                           - lb.trace_distance(rho, state_t)) < 1e-12
    # what stationary_state reports
    rho = (basis * joint[0]) @ basis.T
    if res.trace_distance_to_detailed_balance is not None:
        assert abs(res.trace_distance_to_detailed_balance - lb.trace_distance(
            rho, lb.gibbs_state(h, res.detailed_balance_temperature))) < 1e-12
    for label, loop in zip(("wilson_z_0", "wilson_z_1", "wilson_x_0",
                            "wilson_x_1"), loops):
        assert abs(res.loop_expectations[label]
                   - loop.expectation(rho).real) < 1e-12


def test_chain_without_kronecker_sum_keeps_marginals_only():
    # a thermal bath with depolarizing noise: both marginals are solved,
    # but no joint state and no Gibbs distance can be read
    model = lb.LindbladModel(
        jumps=THERMAL.jumps + lb.depolarizing_jumps(LAT.n_links, gamma=0.1),
        p=THERMAL.p, lattice=LAT)
    res = lb.stationary_state(model)
    assert not res.kronecker_sum and res.null_dim == 1
    assert res.trace_distance_to_detailed_balance is None
    assert res.detailed_balance_temperature == THERMAL.detailed_balance_temperature()
    assert res.orbit_populations.sum() == pytest.approx(1.0, abs=1e-14)
    assert res.char_populations.sum() == pytest.approx(1.0, abs=1e-14)
    out = lb.evolve(model, UNIFORM, [0.0, 1.0])
    assert not out.kronecker_sum and out.counters["kronecker_sum"] is False
    for view in (lambda: res.populations, lambda: out.populations):
        with pytest.raises(ValueError, match="only the two label marginals"):
            view()


def test_stationary_loops_read_the_logical_sector(monkeypatch):
    # keep one recurrent class of the cooling chain: a single logical
    # sector, where each Z loop reads +-1 and each X loop 0
    recurrent = lb._recurrent_distributions
    monkeypatch.setattr(lb, "_recurrent_distributions",
                        lambda m: recurrent(m)[:1])
    res = lb.stationary_state(COOL)
    loops = {f"wilson_{name}_{k}": loop
             for name, group in (("z", lt.z_loops(LAT)), ("x", lt.x_loops(LAT)))
             for k, loop in enumerate(group)}
    assert set(res.loop_expectations) == set(loops)
    rho = oracles.stationary_rho(res)
    for label, loop in loops.items():
        assert abs(res.loop_expectations[label]
                   - loop.expectation(rho).real) < 1e-12
        assert abs(abs(res.loop_expectations[label])
                   - label.startswith("wilson_z")) < 1e-12


def test_rate_sweep_reweights_and_matches_fresh_models():
    def jumps(gamma):
        return COOL.jumps + lb.depolarizing_jumps(LAT.n_links, gamma=gamma)

    sweep = lb.LindbladModel(jumps=jumps(0.1), lattice=LAT)
    built = lb._compile_generator(sweep)
    for gamma in (0.3, 0.0):
        point = jumps(gamma)
        shared = sweep.with_rates([jt.rate for jt in point])
        fresh = lb.LindbladModel(jumps=tuple(jt for jt in point if jt.rate > 0),
                                 lattice=LAT)
        assert ([(jt.label, jt.rate) for jt in shared.jumps]
                == [(jt.label, jt.rate) for jt in fresh.jumps])
        assert shared.labels is sweep.labels
        a, b = lb._compile_generator(shared), lb._compile_generator(fresh)
        assert a.kronecker_sum == b.kronecker_sum == (gamma == 0.0)
        np.testing.assert_array_equal(a.orbit_chain, b.orbit_chain)
        np.testing.assert_array_equal(a.char_chain, b.char_chain)
        x, y = lb.stationary_state(shared), lb.stationary_state(fresh)
        np.testing.assert_array_equal(x.orbit_populations, y.orbit_populations)
        np.testing.assert_array_equal(x.char_populations, y.char_populations)
        assert x.null_dim == y.null_dim and x.residual == y.residual
    assert lb._compile_generator(sweep) is built


def test_with_rates_validation():
    model = dataclasses.replace(COOL, jumps=COOL.jumps[:1])
    with pytest.raises(ValueError, match="2 rates for 1 jumps"):
        model.with_rates([0.1, 0.2])
    with pytest.raises(ValueError):
        model.with_rates([-0.1])
    assert model.with_rates([0.0]).jumps == ()
    faster = model.with_rates([0.3])
    assert faster.jumps[0].rate == 0.3


def test_superoperator_matches_dense_generator_on_probe():
    dense = _DenseGenerator(*lb.probe_model(0.03, 1.0))
    sigma = _random_density(dense.h.shape[0], seed=13)
    vec = oracles.superoperator(dense.h, dense.channels) @ sigma.ravel()
    np.testing.assert_allclose(vec.reshape(sigma.shape), dense.apply(sigma),
                               rtol=0, atol=1e-14)


def test_evolve_validation_and_errors():
    # the grid is sampled as given, and must be non-empty and ascend from
    # t >= 0
    out = lb.evolve(THERMAL, UNIFORM, [0.0, 1.0, 3.0])
    np.testing.assert_array_equal(out.times, [0.0, 1.0, 3.0])
    for times in ([], [0.5, 0.2], [-1.0, 0.0]):
        with pytest.raises(ValueError, match="ascend"):
            lb.evolve(THERMAL, UNIFORM, times)
    # evolve takes the two label marginals only: frame populations and a
    # dense state are refused
    for start in (np.full(DIM, 1.0 / DIM), np.eye(DIM) / DIM):
        with pytest.raises(ValueError, match=r"two label marginals \(p_e, p_m\)"):
            lb.evolve(THERMAL, start, [0.0, 0.5])
    # the dense oracle carries a dense start into the frame once
    with pytest.raises(lb.PositivityError):
        oracles.start_populations(FRAME, np.eye(DIM) / 128)
    with pytest.raises(lb.PositivityError):
        bad = np.eye(DIM, dtype=complex) / DIM
        bad[0, 1] = 0.5  # non-Hermitian
        oracles.start_populations(FRAME, bad)
    # a computational basis state is coherent in the frame; the
    # frame-diagonal I/D runs on the chain
    coherent = np.zeros((DIM, DIM))
    coherent[0, 0] = 1.0
    with pytest.raises(ValueError, match="coherences"):
        oracles.start_populations(FRAME, coherent)
    assert lb.evolve(THERMAL, oracles.start_populations(
        FRAME, np.eye(DIM) / DIM), [0.0, 0.5]).counters["engine"] \
        == "label-chains"
    # a dense product start carries in as its two marginals, and a
    # correlated one is refused
    correlated = np.zeros(DIM)
    correlated[[0, N_CHAR + 1]] = 0.5
    with pytest.raises(ValueError, match="no product"):
        oracles.start_populations(
            FRAME, oracles.from_frame(FRAME, np.diag(correlated)))
    # each marginal is checked like the spectrum of a density matrix
    with pytest.raises(ValueError, match="p_m must hold 8 populations"):
        lb.evolve(THERMAL, (UNIFORM[0], UNIFORM[0]), [0.0, 0.5])
    with pytest.raises(lb.PositivityError, match="trace defect .* in p_e"):
        lb.evolve(THERMAL, (2.0 * UNIFORM[0], UNIFORM[1]), [0.0, 0.5])
    # below the floor of a dense start, though within the budget of the
    # monitor at t = 0
    uneven = UNIFORM[1].copy()
    uneven[:2] += (-1.0 / N_CHAR - 5e-9, 1.0 / N_CHAR + 5e-9)
    with pytest.raises(lb.PositivityError, match="below floor"):
        lb.evolve(THERMAL, (UNIFORM[0], uneven), [0.0, 0.5])


def test_nan_never_passes_a_population_monitor(monkeypatch):
    for defect, low in ((np.nan, 0.0), (0.0, np.nan)):
        with pytest.raises(lb.PositivityError):
            lb._check_trace_and_floor(defect, low, 1e-9, lb.EIGENVALUE_FLOOR)
    with pytest.raises(lb.PositivityError, match="trace defect nan"):
        lb.evolve(THERMAL, (np.full(N_ORB, np.nan), UNIFORM[1]), [0.0, 1.0])
    rho0 = np.eye(DIM) / DIM
    rho0[3, 3] = np.nan
    with pytest.raises(lb.PositivityError):
        oracles.start_populations(FRAME, rho0)
    # a propagation that loses the populations fails its sample monitor
    monkeypatch.setattr(lb, "_propagate_chain", lambda chain, p0, times: (
        np.full((times.size, *p0.shape), np.nan), 1))
    with pytest.raises(lb.PositivityError, match="trace defect nan"):
        lb.evolve(THERMAL, UNIFORM, [0.0, 1.0])


def test_complex_populations_are_rejected():
    p_e = UNIFORM[0].astype(complex)
    p_e[5] += 1e-3j
    with pytest.raises(ValueError, match="must be real"):
        lb.evolve(THERMAL, (p_e, UNIFORM[1]), [0.0, 1.0])
    # a complex vector with no imaginary part is a real start
    real = lb.evolve(THERMAL, UNIFORM, [0.0, 1.0])
    np.testing.assert_array_equal(
        lb.evolve(THERMAL, (p_e.real.astype(complex), UNIFORM[1]),
                  [0.0, 1.0]).populations,
        real.populations)


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


def test_pump_protocol_validation():
    with pytest.raises(ValueError):
        lb.PumpProtocol(theta=-0.1, gamma20=1.0)
    with pytest.raises(ValueError):
        lb.PumpProtocol(theta=2.0, gamma20=1.0)
    with pytest.raises(ValueError):
        lb.PumpProtocol(theta=0.5, gamma20=0.0)
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


def test_probe_zero_coupling_and_errors(monkeypatch):
    report = lb.adiabatic_elimination_probe([0.0, 0.02, 0.03], [0.6, 1.0])
    zero_points = [p for p in report.points if p.coupling == 0.0]
    assert len(zero_points) == 2
    assert all(p.rate == 0.0 for p in zero_points)
    with pytest.raises(ValueError):
        lb.adiabatic_elimination_probe([0.2], [1.0])
    with monkeypatch.context() as m, pytest.raises(lb.FitRejectedError):
        m.setattr(lb, "FIT_RESIDUAL_TOL", 1e-12)
        lb.adiabatic_elimination_probe([0.03], [0.6])
    with pytest.raises(ValueError):
        lb.adiabatic_elimination_probe([0.02], [0.6])  # no 2x2 grid
    with pytest.raises(ValueError):
        lb.probe_model(0.1, -1.0)


def _full_pair_populations(h: np.ndarray, channels,
                           times: np.ndarray) -> np.ndarray:
    """The oracle: the excited-pair population from the eigendecomposition
    of the whole 256-dim vectorized generator."""
    dim = h.shape[0]
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0b0011, 0b0011] = rho0[0b1011, 0b1011] = 0.5
    projector = np.zeros(dim)
    projector[[0b0011, 0b1011, 0b0111, 0b1111]] = 1.0
    vals, vecs = np.linalg.eig(oracles.superoperator(h, channels).toarray())
    coeffs = np.linalg.solve(vecs, rho0.ravel())
    diag_idx = np.arange(dim) * (dim + 1)
    weights = (projector[:, None] * vecs[diag_idx, :]).sum(axis=0) * coeffs
    return np.real(weights[None, :] * np.exp(np.outer(times, vals))).sum(axis=1)


@pytest.mark.parametrize("coupling, relaxation",
                         [(0.02, 1.6), (0.03, 1.0), (0.045, 0.6)])
def test_restricted_probe_solve_matches_full_eigendecomposition(
        coupling, relaxation):
    h, channels = lb.probe_model(coupling, relaxation)
    # burn-in and fit window of the probe, from t = 0
    horizon = 8.0 / relaxation + 2.0 * relaxation / (4.0 * coupling ** 2)
    times = np.linspace(0.0, horizon, 41)
    want = _full_pair_populations(h, channels, times)
    got = lb._pair_populations(h, channels, times)
    assert got[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_probe_start_reaches_a_closed_set_of_ten_entries():
    gen = oracles.superoperator(*lb.probe_model(0.03, 1.0))
    dim = 16
    idx = oracles.reachable(gen, np.array(lb._PROBE_START) * (dim + 1))
    assert idx.size == 10
    # populations and coherences of |11,0_t> and |00,1_t>, populations of
    # |00,0_t>, each with the translation ancilla (bit 3) in 0 or 1
    want = {(i | m, j | m) for m in (0, 8)
            for i in (0b0011, 0b0100) for j in (0b0011, 0b0100)}
    want |= {(0, 0), (8, 8)}
    assert {divmod(int(k), dim) for k in idx} == want
    outside = np.setdiff1d(np.arange(dim * dim), idx)
    assert gen[outside][:, idx].nnz == 0


def _probe_per_point(coupling: float, relaxation: float):
    """The oracle: the probe's dense H and channels from its Pauli algebra
    built afresh at one grid point, the interaction scaled as a Pauli sum
    before it is made dense."""
    create, translate = lb._pair_ops(
        PauliString.from_label("XXII"), PauliString.from_label("ZIII"),
        PauliString.from_label("IZII"))
    lower_t, lower_m = lb._lowering(4, 2), lb._lowering(4, 3)
    interaction = (create.product(lower_t)
                   + create.adjoint().product(lower_t.adjoint())
                   + translate.product(lower_m)
                   + translate.adjoint().product(lower_m.adjoint())) * coupling
    h = SparseHamiltonian(4, tuple((c, s) for s, c in interaction.items()))
    return h.to_dense(), [(r, op.to_dense()) for r, op in (
        (relaxation / 2.0, lower_t), (relaxation / 4.0, lower_m.adjoint()),
        (relaxation / 4.0, lower_m))]


def test_reached_columns_give_the_whole_generators_block():
    # at the nine default grid points the shared unit-coupling operators
    # give the per-point build bit for bit (scaling the dense unit matrix in
    # place of the Pauli sum does not), and the probe builds only the
    # generator columns its start reaches: its entries and its block are
    # those of the whole sparse generator, bit for bit
    assert lb._probe_operators() is lb._probe_operators()
    for coupling in (0.02, 0.03, 0.045):
        for relaxation in (0.6, 1.0, 1.6):
            h, channels = lb.probe_model(coupling, relaxation)
            want_h, want_channels = _probe_per_point(coupling, relaxation)
            assert np.array_equal(h, want_h)
            for (r, c), (want_r, want) in zip(channels, want_channels):
                assert r == want_r and np.array_equal(c, want)
            start = np.array(lb._PROBE_START) * 17
            idx, block = lb._reachable_block(h, channels, start)
            gen = oracles.superoperator(h, channels)
            want = oracles.reachable(gen, start)
            np.testing.assert_array_equal(idx, want)
            np.testing.assert_array_equal(block, gen[want][:, want].toarray())


# -- shared helpers --------------------------------------------------------


def test_gibbs_and_trace_distance_helpers():
    gibbs = lb.gibbs_state(build_hamiltonian(LAT), 2.0)
    assert np.trace(gibbs).real == pytest.approx(1.0, abs=1e-12)
    boltzmann = np.exp(-(ENERGIES - ENERGIES[0]) / 2.0)
    np.testing.assert_allclose(np.sort(scipy.linalg.eigvalsh(gibbs)),
                               np.sort(boltzmann / boltzmann.sum()),
                               atol=1e-12)
    # the weights follow the energies in any order (frame order is not
    # sorted)
    for temperature in (0.0, 2.0):
        np.testing.assert_allclose(
            lb._gibbs_weights(ENERGIES[::-1], temperature),
            lb._gibbs_weights(ENERGIES, temperature)[::-1],
            rtol=1e-14, atol=0)
    ground = lb.gibbs_state(H_DENSE, 0.0)
    np.testing.assert_allclose(ground, GROUND @ GROUND.conj().T / 4.0,
                               atol=1e-12)
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.25, 0.75]).astype(complex)
    assert lb.trace_distance(a, b) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        lb.gibbs_state(H_DENSE, -1.0)


def test_validate_density_matrix():
    oracles.validate_density_matrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        oracles.validate_density_matrix(np.ones((2, 3)))
    with pytest.raises(lb.PositivityError):
        oracles.validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))
