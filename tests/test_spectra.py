"""Exact diagonalization against dense oracles (L=2, 256 dimensions)."""

import dataclasses
import functools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_oracles as oracles
from toricsim import lattice as lt
from toricsim import lindblad as lb
from toricsim import spectra as sp
from toricsim.pauli import PauliString

LAT = lt.build(2)
RNG = np.random.default_rng(11)


def _neighbor_pairs(lat: lt.TorusLattice) -> list[tuple[int, int]]:
    """Every nearest-neighbour link pair once, ascending within the pair:
    consecutive links of each vertex and plaquette order, first seen first."""
    pairs = {}
    for links in lat.vertex_links + lat.plaquette_links:
        for a, b in zip(links, links[1:]):
            pairs.setdefault((min(a, b), max(a, b)), None)
    return list(pairs)


def hamiltonian(lat, chi, mode, h_z=0.05) -> sp.SparseHamiltonian:
    """H with the chi X.Y term on the pulse sequences' pairs, or ("all") on
    every nearest-neighbour pair: a second chi != 0 structure for the
    solver, 2 sectors of 128 states at L = 2, each its own orbit."""
    h = sp.build_hamiltonian(lat, chi=chi, h_z=h_z)
    if mode == "sequence" or not chi:
        return h
    n, kept = lat.n_links, h.terms[:-len(sp.chi_pair_terms(lat))]
    return sp.SparseHamiltonian(n, kept + tuple(
        (chi, PauliString.single(n, a, "X") * PauliString.single(n, b, "Y"))
        for a, b in _neighbor_pairs(lat)), symmetries=h.symmetries)


def dense_lowest(h: sp.SparseHamiltonian, k: int):
    """The oracle: the k lowest pairs of dense ``eigh`` of the whole H."""
    evals, evecs = scipy.linalg.eigh(h.to_dense())
    return evals[:k], evecs[:, :k]


def test_term_counts_and_pair_modes():
    h0 = sp.build_hamiltonian(LAT)
    assert len(h0.terms) == 8
    h = hamiltonian(LAT, 0.3, "sequence", h_z=0.1)
    assert len(h.terms) == 8 + 8 + 8
    assert len(hamiltonian(LAT, 0.3, "all", h_z=0.1).terms) == 8 + 8 + 12
    assert sp.chi_pair_terms(LAT) == [
        (links[1], links[2]) for links in LAT.vertex_links + LAT.plaquette_links]


def test_every_plaquette_chi_pair_is_a_vertex_chi_pair():
    # plaquette (r, c)'s (links[1], links[2]), its east and south links,
    # are vertex (r + 1, c + 1)'s north and west links: the stand-in puts
    # 2 chi X_a Y_b on L^2 pairs, not chi on 2 L^2 pairs
    for size in (2, 3, 4):
        lat, n = lt.build(size), size * size
        pairs = sp.chi_pair_terms(lat)
        vertex, plaquette = pairs[:n], pairs[n:]
        assert len(plaquette) == n and len(set(pairs)) == n
        for p, pair in enumerate(plaquette):
            r, c = divmod(p, size)
            assert pair == vertex[((r + 1) % size) * size + (c + 1) % size]
    h = sp.build_hamiltonian(LAT, chi=0.3, h_z=0.05)
    doubled = sp.SparseHamiltonian(LAT.n_links, h.terms[:-8] + tuple(
        (0.6, t) for _, t in h.terms[-8:-4]))
    np.testing.assert_array_equal(h.to_dense(), doubled.to_dense())


def test_rejects_non_hermitian_terms():
    z = PauliString.single(8, 0, "Z")
    with pytest.raises(ValueError):
        sp.SparseHamiltonian(8, ((1.0j, z),))
    with pytest.raises(ValueError):
        sp.SparseHamiltonian(8, ((1.0, PauliString.from_label("+i·" + "Z" * 8)),))
    # complex-typed but real coefficients are stored as floats
    h = sp.SparseHamiltonian(8, ((1.0 + 0j, z),))
    assert h.terms == ((1.0, z),) and isinstance(h.terms[0][0], float)
    np.testing.assert_array_equal(h.matvec(np.ones(256)), h.to_dense().sum(axis=1))


def test_unperturbed_ground_sector():
    evals = np.linalg.eigvalsh(sp.build_hamiltonian(LAT).to_dense())
    np.testing.assert_allclose(evals[:4], -8.0, atol=1e-12)
    # pair-creation gap: one flipped vertex and one flipped plaquette
    # stabilizer each cost 2, nearest excited level sits 4 above
    np.testing.assert_allclose(evals[4], -4.0, atol=1e-12)


def test_matvec_matches_dense():
    for chi, h_z, mode in ((0.0, 0.0, "sequence"), (0.3, 0.07, "sequence"),
                           (-0.2, 0.05, "all")):
        h = hamiltonian(LAT, chi, mode, h_z)
        dense = h.to_dense()
        assert np.max(np.abs(dense - dense.conj().T)) == 0.0
        for _ in range(3):
            v = RNG.normal(size=256) + 1j * RNG.normal(size=256)
            np.testing.assert_allclose(h.matvec(v), dense @ v, atol=1e-12)
    assert not sp.SparseHamiltonian(8, ()).matvec(v).any()


def _order(op):
    """Every state in sector order: local row l of sector s at s * |W| + l,
    the order of ``op.diagonal``."""
    return (op.cosets.reps[:, None] ^ op.cosets.elements).reshape(-1)


@pytest.mark.parametrize("mode", ["sequence", "all"])
@pytest.mark.parametrize("chi", [0.0, 0.25])
def test_compiled_operator_is_the_real_gauge(mode, chi):
    h = hamiltonian(LAT, chi, mode)
    op = h.compile()
    order, n = _order(op), op.cosets.elements.size
    gauge = op.phases(order)
    np.testing.assert_array_equal(np.sort(order), np.arange(256))
    np.testing.assert_array_equal(np.abs(gauge), 1.0)
    dense = h.to_dense()
    gauged = gauge.conj()[:, None] * dense[np.ix_(order, order)] * gauge[None, :]
    for s in range(len(op.floors)):
        a, part = op.block(s), slice(s * n, (s + 1) * n)
        assert a.dtype == np.float64
        assert np.max(np.abs(a.toarray() - gauged[part, part])) <= 1e-14
        gauged[part, part] = 0.0
    assert not gauged.any()  # every entry of H lies in some block
    rng = np.random.default_rng(2)
    psi = rng.normal(size=256) + 1j * rng.normal(size=256)
    np.testing.assert_allclose(h.matvec(psi), dense @ psi, atol=1e-12)


def _loop_block(h, op, s):
    """(data, indices) of block s, summed term by term in Python from the
    phase rule i**(q(j ^ x) + popcount((j ^ x) & s) - popcount(j & s))."""
    links = sp.real_gauge(h.terms)
    position = {int(j): p for p, j in enumerate(_order(op))}
    lo = s * op.cosets.elements.size
    data, indices = [], []
    for j in op.cosets.members(s).tolist():
        for x in sorted({t.x_mask for _, t in h.terms}):
            entry = 0.0
            for coeff, t in h.terms:
                if t.x_mask == x:
                    turns = (int(t.quarter_turns(np.uint64(j ^ x)))
                             + ((j ^ x) & links).bit_count()
                             - (j & links).bit_count()) % 4
                    assert turns % 2 == 0
                    entry += coeff * (1 - turns)
            data.append(entry)
            indices.append(position[j ^ x] - lo)
    return np.array(data), np.array(indices)


@pytest.mark.parametrize("mode", ["sequence", "all"])
@pytest.mark.parametrize("chi", [0.0, 0.25])
def test_blocks_and_floors_match_term_loop_bitwise(mode, chi):
    h = hamiltonian(LAT, chi, mode)
    op = h.compile()
    n = op.cosets.elements.size
    floors = []
    for s in range(len(op.floors)):
        a = op.block(s)
        data, indices = _loop_block(h, op, s)
        np.testing.assert_array_equal(a.data, data)
        np.testing.assert_array_equal(a.indices, indices)
        np.testing.assert_array_equal(
            a.indptr, np.arange(n + 1) * op.x_masks.size)
        # the floor subtracts every off-diagonal |entry| of a row in turn
        rows = data.reshape(n, -1)
        radius = np.zeros(n)
        for g in range(1, rows.shape[1]):
            radius += np.abs(rows[:, g])
        floors.append(np.min(rows[:, 0] - radius))
    np.testing.assert_array_equal(op.floors, floors)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permute_bits_matches_loop(data):
    n = data.draw(st.integers(1, 20))
    perm = data.draw(st.permutations(range(n)))
    masks = data.draw(st.lists(st.integers(0, 2 ** n - 1), max_size=5))
    moved = sp._permute_bits(np.array(masks, dtype=np.uint64), perm)
    assert moved.tolist() == [sum(1 << perm[q] for q in range(n) if m >> q & 1)
                              for m in masks]


def test_gauge_check_covers_every_term(monkeypatch):
    def pair(a, a_letter, b, b_letter):
        return (PauliString.single(4, a, a_letter)
                * PauliString.single(4, b, b_letter))

    h = sp.SparseHamiltonian(4, ((-1.0, pair(0, "Z", 1, "Z")),
                                 (0.5, pair(0, "X", 1, "X")),
                                 (0.3, pair(2, "X", 3, "Y"))))
    assert sp.real_gauge(h.terms) is not None
    op = sp.build_hamiltonian(LAT, chi=0.25, h_z=0.05).compile()
    # no S gate leaves X2.Y3, and only it, imaginary; compile builds no
    # block, so its own per-term check must catch it
    monkeypatch.setattr(sp, "real_gauge", lambda terms: 0)
    with pytest.raises(RuntimeError, match="X-mask 0xc complex"):
        h.compile()
    # a built block checks every entry of its own
    odd = dataclasses.replace(op, turns0=op.turns0 ^ np.uint8(1))
    with pytest.raises(RuntimeError, match="complex"):
        odd.block(0)


@pytest.mark.parametrize("size", [3, 4])
def test_real_gauge_from_terms_alone(size):
    lat = lt.build(size)
    vertical = sum(1 << link for link in range(lat.n_links)
                   if lat.link_kind(link) == "v")
    for mode in ("sequence", "all"):
        h = hamiltonian(lat, 0.2, mode)
        mask = sp.real_gauge(h.terms)
        assert mask == vertical
        for _, t in h.terms:
            quarter = t.phase_quarter + (t.x_mask & t.z_mask).bit_count()
            assert ((t.x_mask & mask).bit_count() - quarter) % 2 == 0


def test_no_real_gauge_refuses_lanczos():
    # X and Y on one qubit have no real gauge, whatever their coefficients
    x0, y0 = PauliString.single(3, 0, "X"), PauliString.single(3, 0, "Y")
    h = sp.SparseHamiltonian(3, ((1.0, x0), (0.5, y0)))
    assert sp.real_gauge(h.terms) is None
    with pytest.raises(ValueError, match="real gauge"):
        h.compile()
    with pytest.raises(ValueError, match="real gauge"):
        h.matvec(np.arange(8) + 1j)
    with pytest.raises(ValueError, match="real gauge"):
        sp.lowest_eigenpairs(h, k=1)


def test_vertex_terms_commute_with_everything():
    h = sp.build_hamiltonian(LAT)
    for v in range(LAT.n_vertices):
        a = lt.vertex_stabilizer(LAT, v)
        for _, s in h.terms:
            assert a.commutes_with(s)


def test_h_z_only_free_spins():
    h = sp.build_hamiltonian(LAT, j_e=0.0, j_m=0.0, h_z=0.1)
    evals = np.linalg.eigvalsh(h.to_dense())
    assert evals[0] == pytest.approx(-0.8)
    # spectrum is -h_z (n - 2k) with binomial multiplicities
    import math
    uniq, counts = np.unique(np.round(evals, 10), return_counts=True)
    np.testing.assert_allclose(uniq, [-0.1 * (8 - 2 * k) for k in range(9)])
    np.testing.assert_allclose(counts, [math.comb(8, k) for k in range(9)])


def test_ground_space_reference_exact():
    support, amp, sectors = sp.ground_space_reference(LAT)
    assert support.shape == (4, 8) and amp == 1 / np.sqrt(8)
    assert sectors == [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    states = oracles.reference_states(LAT)
    np.testing.assert_allclose(states.conj().T @ states, np.eye(4), atol=1e-12)
    h = sp.build_hamiltonian(LAT)
    zl = lt.z_loops(LAT)
    for s in range(4):
        v = states[:, s]
        assert np.linalg.norm(h.matvec(v) + 8.0 * v) < 1e-12
        assert np.vdot(v, zl[0].apply(v)).real == pytest.approx(sectors[s][0])
        assert np.vdot(v, zl[1].apply(v)).real == pytest.approx(sectors[s][1])


def test_lowest_eigenpairs_dense_path():
    h = sp.build_hamiltonian(LAT, j_e=0.0, j_m=0.0, h_z=0.05)
    res = sp.lowest_eigenpairs(h, k=1)
    assert res.eigenvalues[0] == pytest.approx(-8 * 0.05)
    h = sp.build_hamiltonian(LAT, h_z=0.05)
    res = sp.lowest_eigenpairs(h, k=6)
    evals = res.eigenvalues
    np.testing.assert_allclose(evals, dense_lowest(h, 6)[0], rtol=0, atol=1e-12)
    # every 8-state block is solved by dense eigh
    assert (res.sectors, res.sector_dim, res.lanczos_blocks) == (32, 8, 0)
    assert np.all(np.diff(evals) >= -1e-12)
    assert evals[3] - evals[0] < 4 * 0.05  # splitting is O(h_z)
    assert evals[4] - evals[3] > 3.5       # below a gap of about 4
    assert np.all(res.residuals <= 1e-8)
    # every block dense: backward-stable bound dim * eps * sum|coeff|,
    # verified per pair
    assert res.residual_bound == pytest.approx(
        256 * np.finfo(float).eps * (8 + 8 * 0.05), rel=1e-12)
    assert np.all(res.residuals <= res.residual_bound)


@pytest.mark.parametrize("mode", ["sequence", "all"])
@pytest.mark.parametrize("chi", [0.0, 0.25, -0.5])
def test_lanczos_path_matches_dense(monkeypatch, mode, chi):
    h = hamiltonian(LAT, chi, mode)
    dense_evals, _ = dense_lowest(h, 6)
    np.testing.assert_allclose(sp.lowest_eigenpairs(h, k=6).eigenvalues,
                               dense_evals, rtol=0, atol=1e-12)
    # every L = 2 block holds at most 128 states; at cap 16 the 8-state
    # blocks (chi = 0) go dense and the 64- and 128-state ones to Lanczos
    monkeypatch.setattr(sp, "DENSE_DIM_CAP", 16)
    sparse_res = sp.lowest_eigenpairs(h, k=6, seed=3)
    np.testing.assert_allclose(sparse_res.eigenvalues, dense_evals,
                               atol=1e-8)
    assert (sparse_res.lanczos_blocks > 0) == (chi != 0.0)
    assert np.all(sparse_res.residuals <= 1e-8)
    assert sparse_res.residual_bound == sp.RESIDUAL_BOUND
    again = sp.lowest_eigenpairs(h, k=6, seed=3)
    np.testing.assert_allclose(again.eigenvalues, sparse_res.eigenvalues,
                               atol=1e-12)


def test_gershgorin_stop_is_exact():
    h = sp.build_hamiltonian(LAT, chi=0.0, h_z=0.05)
    op = h.compile()
    every_block = np.sort(np.concatenate([
        np.linalg.eigvalsh(op.block(s).toarray())[:6]
        for s in range(len(op.floors))]))
    res = sp.lowest_eigenpairs(h, k=6)
    np.testing.assert_allclose(res.eigenvalues, every_block[:6],
                               rtol=0, atol=1e-12)
    assert (res.sectors, res.sector_dim) == (32, 8)
    assert res.lanczos_blocks == 0
    assert 0 < res.dense_blocks < res.sectors  # some blocks were skipped


def _count_blocks(monkeypatch) -> Counter:
    """Count the block builds of every sector from now on."""
    built = Counter()
    block = sp.SectorOperator.block

    def counted(op, s):
        built[int(s)] += 1
        return block(op, s)

    monkeypatch.setattr(sp.SectorOperator, "block", counted)
    return built


def test_solver_builds_only_the_blocks_it_uses(monkeypatch):
    # each dense-solved representative's block is built once; the kept
    # vectors of the other members of its orbit are checked on row chunks,
    # so no member block is built.  At L = 2, chi = 0.2 and k = 20 levels
    # are kept from members
    for size, chi, k, seed, dense in ((3, 0.0, 6, 7, 20), (2, 0.2, 20, 3, 3)):
        h = sp.build_hamiltonian(lt.build(size), chi=chi, h_z=0.05)
        op = h.compile()
        built = _count_blocks(monkeypatch)
        res = sp.lowest_eigenpairs(h, k=k, seed=seed)
        assert (res.dense_blocks, res.lanczos_blocks) == (dense, 0)
        assert len(built) == dense and set(built.values()) == {1}
        assert all(op.orbit[s] == s for s in built)
    assert any(op.orbit[s] != s for s in res.level_sectors)


# (pairs, chi, k, Lanczos solves, momentum blocks the probe rules out) at
# L = 2 with the 64- and 128-state sectors split by momentum and their
# blocks on Lanczos; where two blocks are solved a later block holds a
# kept level, so a probe that rules out all fails there
PROBED_AT_L2 = [("sequence", 0.25, 1, 1, 7), ("sequence", 0.25, 2, 2, 6),
                ("all", -0.5, 4, 1, 7), ("all", -0.5, 6, 2, 6)]


@pytest.mark.parametrize("mode, chi, k, lanczos, probed", PROBED_AT_L2)
def test_probed_orbits_hold_no_kept_level(monkeypatch, mode, chi, k,
                                          lanczos, probed):
    h = hamiltonian(LAT, chi, mode)
    dense_evals, _ = dense_lowest(h, k)
    monkeypatch.setattr(sp, "DENSE_DIM_CAP", 16)
    res = sp.lowest_eigenpairs(h, k=k, seed=3)
    np.testing.assert_allclose(res.eigenvalues, dense_evals,
                               rtol=0, atol=res.residual_bound)
    assert (res.lanczos_blocks, res.probed_blocks) == (lanczos, probed)


def _probes(monkeypatch) -> list:
    """(block, floor) of every probe from now on."""
    calls = []
    probe = sp._probe_floor

    def recorded(a, seed):
        calls.append((a, probe(a, seed)))
        return calls[-1][1]

    monkeypatch.setattr(sp, "_probe_floor", recorded)
    return calls


@pytest.mark.parametrize("mode, chi, k, lanczos, probed", PROBED_AT_L2)
def test_probe_floor_lies_just_below_each_blocks_bottom(monkeypatch, mode,
                                                        chi, k, lanczos,
                                                        probed):
    # the oracle: dense eigvalsh of every block the probe visits; its floor
    # is a lower bound, loose by about the probe's tolerance
    monkeypatch.setattr(sp, "DENSE_DIM_CAP", 16)
    probes = _probes(monkeypatch)
    sp.lowest_eigenpairs(hamiltonian(LAT, chi, mode), k=k, seed=3)
    assert len(probes) >= probed
    for a, floor in probes:
        bottom = scipy.linalg.eigvalsh(a.toarray())[0]
        assert bottom - 2 * sp.PROBE_TOL * abs(bottom) <= floor <= bottom


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("diagonal", [[3.0, -1.0, 2.0] * 3,
                                      [0.5, -2.0, 1.0, 4.0]])
def test_probe_stops_where_the_krylov_space_closes(dtype, diagonal):
    # three distinct levels close the Krylov space after 3 steps (beta_3 =
    # 0), four levels in 4 states at m = dim, both before the 5-step test
    a = scipy.sparse.csr_matrix(np.diag(diagonal).astype(dtype))
    floor = sp._probe_floor(a, seed=7)
    assert np.isfinite(floor)
    assert min(diagonal) - 1e-6 <= floor <= min(diagonal)


def test_probe_at_its_step_cap_leaves_the_block_to_a_full_solve(
        monkeypatch):
    h = hamiltonian(LAT, 0.25, "sequence")
    monkeypatch.setattr(sp, "DENSE_DIM_CAP", 16)
    free = sp.lowest_eigenpairs(h, k=1, seed=3)
    monkeypatch.setattr(sp, "PROBE_STEPS", 2)
    probes = _probes(monkeypatch)
    capped = sp.lowest_eigenpairs(h, k=1, seed=3)
    # no probe converges in 2 steps, so each block it would have ruled out
    # is solved for k levels instead, and the levels kept stay the same
    assert len(probes) == free.probed_blocks
    assert all(floor == -np.inf for _, floor in probes)
    assert (capped.probed_blocks, capped.lanczos_blocks) == (
        0, free.lanczos_blocks + free.probed_blocks)
    np.testing.assert_array_equal(capped.eigenvalues, free.eigenvalues)


@pytest.fixture
def eigsh_calls(monkeypatch) -> list[tuple[int, int]]:
    """(k, ncv) of every ARPACK ``eigsh`` call from now on."""
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def recorded(a, k=6, **kwargs):
        calls.append((k, kwargs.get("ncv")))
        return eigsh(a, k=k, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorded)
    return calls


def test_probe_rules_out_the_size_3_orbits_at_l3(monkeypatch, eigsh_calls):
    h = sp.build_hamiltonian(lt.build(3), chi=0.2, h_z=0.05)
    built = _count_blocks(monkeypatch)
    tracemalloc.start()
    try:
        res = sp.lowest_eigenpairs(h, k=6, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    op = h.compile()
    # the size-1 orbits (sectors 0 and 7) are fixed by all 9 translations:
    # 5 blocks each, the real k = 0 one and one per conjugate pair; each
    # size-3 orbit by an order-3 subgroup: 2 blocks.  The k = 0 blocks of
    # sectors 0 and 7, visited first, hold all six levels: those 2 blocks
    # are solved and the probe rules out the other 12, every block of the
    # size-3 orbits among them
    assert (res.orbits, res.lanczos_blocks, res.probed_blocks,
            res.momentum_blocks, res.dense_blocks) == (4, 2, 12, 14, 0)
    assert res.max_block_dim == 10928
    reps = set(np.unique(op.orbit).tolist())
    probed = reps - set(op.orbit[res.level_sectors].tolist())
    assert sorted(reps - probed) == [0, 7]
    # the kept vectors are verified on row chunks: no whole block is built
    assert not built
    # the two solves run ARPACK at its default width, max(2k + 1, 20); the
    # 13 probes, 1 of which (sector 7's k = 0 block) ends in a solve, run
    # their own recurrence and make no ARPACK call
    assert Counter(eigsh_calls) == {(6, 20): 2}
    # a whole-sector solve peaks at 24.3 MiB traced, compile included:
    # ARPACK's basis and scipy's Ritz-vector buffer, each 32768 x 20 x 8 B,
    # and a check of the kept vectors on a sector's whole 7.25 MiB block at
    # 18.8 MiB.  On row chunks the peak is 14.2 MiB, level with the
    # momentum solves before the check; the probes peak at 13.5 MiB
    assert peak < 16 * 2 ** 20
    # the oracle: a tight Lanczos solve of each ruled-out whole sector block
    # from a seeded random start, whose Krylov space holds every momentum;
    # the bottoms lie 0.42 above the 6th level, -14.69798
    for s in probed:
        assert np.sum(op.orbit == s) == 3
        a = op.block(s)
        v0 = np.random.default_rng(s).normal(size=a.shape[0])
        tight = scipy.sparse.linalg.eigsh(a, k=1, which="SA", tol=1e-6,
                                          v0=v0)[0][0]
        assert tight == pytest.approx(-14.2778, abs=2e-4)
        assert tight > res.eigenvalues[-1] + res.residual_bound


@pytest.mark.parametrize("size, k, block_rows", [(2, 20, 16), (3, 6, None)])
def test_row_chunk_residuals_are_the_whole_blocks(monkeypatch, size, k,
                                                  block_rows):
    # each kept vector not solved on its own sector's block is verified on
    # that sector's rows a chunk at a time; its residual is the one the
    # whole CSR block gives.  At L = 2, chi = 0.2 and k = 20 levels are
    # kept from orbit members, whose 64-state sectors take 4 chunks of 16
    # rows; at L = 3 every kept vector is a momentum block's, and each
    # 32768-state sector takes 16 chunks
    if block_rows:
        monkeypatch.setattr(sp, "BLOCK_ROWS", block_rows)
    h = sp.build_hamiltonian(lt.build(size), chi=0.2, h_z=0.05)
    res = sp.lowest_eigenpairs(h, k=k, seed=7)
    op = h.compile()
    assert size == 3 or any(op.orbit[s] != s for s in res.level_sectors)
    whole = []
    for c, s in enumerate(res.level_sectors):
        u = op.phases(op.cosets.members(s)).conj() * res.local_vectors[:, c]
        whole.append(np.linalg.norm(op.block(s) @ u - res.eigenvalues[c] * u))
    np.testing.assert_allclose(res.residuals, whole, rtol=1e-12, atol=0)


def test_a_wrong_kept_vector_fails_the_row_chunk_check(monkeypatch):
    # no level rests on the momentum construction alone: one kept vector
    # perturbed in its sector's last row on its way back from its momentum
    # block fails the check on row chunks
    expand = sp._Momenta.expand
    calls = []

    def perturbed(m, c, phi):
        out = expand(m, c, phi)
        calls.append(c)
        if len(calls) == 3:
            out[-1] += 1e-6
        return out

    monkeypatch.setattr(sp._Momenta, "expand", perturbed)
    h = sp.build_hamiltonian(lt.build(3), chi=0.2, h_z=0.05)
    with pytest.raises(sp.ConvergenceError, match="exceed the bound"):
        sp.lowest_eigenpairs(h, k=6, seed=7)
    assert len(calls) >= 3


@pytest.mark.parametrize("size, chi, mode", [
    (2, 0.25, "sequence"), (2, -0.5, "all"), (3, 0.0, "sequence")])
def test_momentum_blocks_split_every_sector_block(size, chi, mode):
    # the oracle is dense eigh of each whole sector block: the character
    # blocks hold its spectrum once, and their vectors, mapped back to the
    # sector, are its eigenvectors.  At L = 3 the 9 translations give
    # complex characters; the first 8 sectors are checked
    op = hamiltonian(lt.build(size), chi, mode).compile()
    for s in range(min(op.floors.size, 8)):
        m = op._momenta(s)
        size_g = m.table.shape[1]
        np.testing.assert_allclose(m.table @ m.table.conj().T,
                                   size_g * np.eye(size_g), atol=1e-12)
        gather, whole = m.gather(op.rows(s, m.reps)), op.block(s).toarray()
        levels, vectors = [], []
        for c in range(size_g):
            a = m.block(c, *gather).toarray()
            np.testing.assert_allclose(a, a.conj().T, rtol=0, atol=1e-14)
            np.testing.assert_allclose(m.block(m.pairs[c], *gather).toarray(),
                                       a.conj(), rtol=0, atol=1e-14)
            e, phi = np.linalg.eigh(a)
            levels += e.tolist()
            vectors += [m.expand(c, phi[:, j]) for j in range(e.size)]
        v = np.stack(vectors, axis=1)
        np.testing.assert_allclose(np.sort(levels), np.linalg.eigvalsh(whole),
                                   rtol=0, atol=1e-12)
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-12
        np.testing.assert_allclose(whole @ v, v * levels, rtol=0, atol=1e-12)


def test_momenta_need_symmetries_that_keep_the_gauge():
    # the translations keep the real gauge's links (the vertical ones) in
    # place, so V commutes with them; a swap that moves them is refused
    for size in (2, 3):
        op = sp.build_hamiltonian(lt.build(size), chi=0.2, h_z=0.05).compile()
        assert len(op.symmetries) == size ** 2
        assert all(sp._permute_bits(op.gauge, p) == op.gauge
                   for p in op.symmetries)
    one = functools.partial(PauliString.single, 2)
    h = sp.SparseHamiltonian(2, ((1.0, one(0, "X") * one(1, "Y")),
                                 (1.0, one(0, "Y") * one(1, "X"))),
                             symmetries=((1, 0),))
    op = h.compile()
    assert op.symmetries == ((1, 0),) and op.gauge == 0b10
    with pytest.raises(RuntimeError, match="gauge"):
        op._momenta(0)


def test_both_copies_of_each_exactly_degenerate_pair_at_l3():
    # above the six levels of the default k, sector 7 holds two exactly
    # degenerate momentum +-k pairs, -14.68546 and -14.68162.  A whole-sector
    # Lanczos solve can return one copy of such a pair (at k = 8 and width
    # 40 it does); each momentum block's levels come twice, the -k vectors
    # the conjugates of the k ones.  The oracle: wide Lanczos solves of the
    # whole blocks of sectors 0 and 7, which hold every kept level, from a
    # random start; sector 0's next pair, -14.67729, lies above them
    h = sp.build_hamiltonian(lt.build(3), chi=0.2, h_z=0.05)
    op = h.compile()
    v0 = np.random.default_rng(1).normal(size=op.cosets.elements.size)
    wide = np.sort(np.concatenate([scipy.sparse.linalg.eigsh(
        op.block(s), k=k, which="SA", ncv=40, tol=1e-10, v0=v0)[0]
        for s, k in ((0, 6), (7, 10))]))
    np.testing.assert_allclose(wide[6:10], [-14.68546, -14.68546, -14.68162,
                                            -14.68162], rtol=0, atol=1e-5)
    res = sp.lowest_eigenpairs(h, k=10, seed=7)
    np.testing.assert_allclose(res.eigenvalues, wide[:10], rtol=0,
                               atol=res.residual_bound)
    assert res.level_sectors[6:].tolist() == [7] * 4
    gauged = (op.phases(op.cosets.members(7)).conj()[:, None]
              * res.local_vectors[:, 6:])
    assert np.max(np.abs(gauged.conj().T @ gauged - np.eye(4))) < 1e-10
    for c in (0, 2):
        np.testing.assert_allclose(gauged[:, c + 1], gauged[:, c].conj(),
                                   rtol=0, atol=1e-12)
    # their residuals, checked on row chunks, are the whole block's
    whole = op.block(7) @ gauged - gauged * res.eigenvalues[6:]
    np.testing.assert_allclose(res.residuals[6:],
                               np.linalg.norm(whole, axis=0), rtol=1e-12)


@pytest.mark.parametrize("size, block_rows", [(2, None), (2, 4), (3, None)])
@pytest.mark.parametrize("chi", [0.0, 0.2])
def test_compile_in_passes_matches_one_pass(monkeypatch, size, block_rows,
                                            chi):
    # the default passes take all of L = 2, 80 of the 256-state sectors at
    # L = 3, chi = 0 and one at chi = 0.2; with 4 block rows an L = 2
    # compile takes 2 sectors per pass at chi = 0 and 1 at chi = 0.2
    if block_rows:
        monkeypatch.setattr(sp, "BLOCK_ROWS", block_rows)
    h = sp.build_hamiltonian(lt.build(size), chi=chi, h_z=0.05)
    op = h.compile()
    want = oracles.one_pass_at(h._structure(), [c for c, _ in h.terms])
    for name in ("diagonal", "floors", "orbit", "coeffs"):
        got, ref = getattr(op, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    assert op.carry == want.carry


@pytest.mark.parametrize("size", [2, 3])
def test_a_duplicated_string_compiles_as_one_at_the_summed_coefficient(size):
    # every plaquette chi pair is a vertex chi pair, so H holds each of the
    # L^2 chi strings twice; the compile keeps one entry per distinct
    # string, and H with each string once at chi + chi compiles to the
    # same bits
    lat = lt.build(size)
    h = sp.build_hamiltonian(lat, chi=0.2, h_z=0.05)
    n_chi = len(sp.chi_pair_terms(lat))
    twice = h.terms[-n_chi:]
    once = sp.SparseHamiltonian(h.n_qubits, h.terms[:-n_chi] + tuple(
        (0.2 + 0.2, t) for _, t in twice[:n_chi // 2]),
        symmetries=h.symmetries)
    assert {t for _, t in twice} == {t for _, t in once.terms[-n_chi // 2:]}
    got, want = h.compile(), once.compile()
    chi_masks = {t.x_mask for _, t in twice}
    for x, entries in zip(got.x_masks.tolist(), got.by_mask):
        assert len(entries) == 1 or x not in chi_masks
        if x in chi_masks:
            assert len(entries[0][0]) == 2
    assert got.masks.size == want.masks.size == size ** 2 + n_chi // 2
    for name in ("diagonal", "floors", "coeffs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for s in range(got.floors.size):
        a, b = got.block(s), want.block(s)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_compile_never_holds_the_whole_matrix():
    h = sp.build_hamiltonian(lt.build(3), chi=0.2, h_z=0.05)
    tracemalloc.start()
    try:
        op = h.compile()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2^18 x 19 CSR matrix alone took 58 MiB, and a compile over all
    # 2^18 states at once 10.8 MiB; one 32768-state sector per pass 3.4
    assert peak < 6 * 2 ** 20
    assert not hasattr(op, "matrix")


def test_compile_holds_no_other_full_space_array():
    h = sp.build_hamiltonian(lt.build(3), chi=0.2, h_z=0.05)
    op = h.compile()
    full = [name for obj in (op, op.cosets) for name, v in vars(obj).items()
            if isinstance(v, np.ndarray) and v.size >= h.dim]
    assert full == ["diagonal"]


def test_lanczos_vectors_orthonormal_at_exact_degeneracy(monkeypatch,
                                                        eigsh_calls):
    # at chi = 0 the 2nd and 3rd levels are exactly degenerate, and so are
    # levels inside the 8-state blocks; with the cap below the block size
    # and no symmetry to split a block by momentum, every block goes whole
    # to Lanczos, whose vectors must still be orthonormal and span the
    # dense solve's manifold.  k = 5 is the largest k that ARPACK runs on
    # an 8-state block (dim > k + 2)
    h = sp.build_hamiltonian(LAT, chi=0.0, h_z=0.05)
    h = sp.SparseHamiltonian(h.n_qubits, h.terms)
    reference = oracles.reference_states(LAT)
    _, dense_vecs = dense_lowest(h, 5)
    monkeypatch.setattr(sp, "DENSE_DIM_CAP", 4)
    res = sp.lowest_eigenpairs(h, k=5, seed=7)
    assert res.lanczos_blocks > 0 and res.max_block_dim == 8
    # the width of every ARPACK solve is capped at dim
    assert (5, 8) in eigsh_calls and {c[1] for c in eigsh_calls} == {8}
    vecs = oracles.eigenvectors(h, res)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(5))) <= 1e-10
    np.testing.assert_allclose(
        sp.ground_fidelity(sp.ground_space_reference(LAT), h,
                           res).sector_weights,
        sp.FidelityResult.from_overlap(
            reference.conj().T @ dense_vecs[:, :4]).sector_weights,
        rtol=0, atol=1e-9)


def test_blocks_too_small_for_a_krylov_space_go_dense(monkeypatch):
    # at chi = 0 every L = 2 block holds 8 states; Lanczos with k = 6 would
    # get ncv = 7 = k + 1 there and ARPACK stops with error 3
    h = sp.build_hamiltonian(LAT, chi=0.0, h_z=0.05)
    dense_evals, _ = dense_lowest(h, 6)
    monkeypatch.setattr(sp, "DENSE_DIM_CAP", 4)
    res = sp.lowest_eigenpairs(h, k=6, seed=7)
    assert (res.dense_blocks, res.lanczos_blocks) == (8, 0)
    np.testing.assert_allclose(res.eigenvalues, dense_evals,
                               rtol=0, atol=1e-12)


def test_arpack_failure_is_a_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackError(3)

    # at chi = 0.2 a k-level Lanczos solve runs ARPACK; the probes run none
    h = sp.build_hamiltonian(LAT, chi=0.2, h_z=0.05)
    monkeypatch.setattr(sp, "DENSE_DIM_CAP", 4)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    with pytest.raises(sp.ConvergenceError, match="ARPACK error 3"):
        sp.lowest_eigenpairs(h, k=5, seed=7)


def test_eigenvalues_invariant_under_relabeling():
    # translate the lattice one row down: a link permutation that maps the
    # term list onto itself up to relabeling
    def shift(link):
        r, c = LAT.link_rc(link)
        base = LAT.L * LAT.L if LAT.link_kind(link) == "v" else 0
        return base + ((r + 1) % LAT.L) * LAT.L + c

    def relabel(s: PauliString) -> PauliString:
        x = z = 0
        for q in range(s.n_qubits):
            if s.x_mask >> q & 1:
                x |= 1 << shift(q)
            if s.z_mask >> q & 1:
                z |= 1 << shift(q)
        return PauliString(s.n_qubits, x, z, s.phase_quarter)

    h = sp.build_hamiltonian(LAT, chi=0.3, h_z=0.07)
    h2 = sp.SparseHamiltonian(8, tuple((c, relabel(s)) for c, s in h.terms))
    e1 = np.linalg.eigvalsh(h.to_dense())
    e2 = np.linalg.eigvalsh(h2.to_dense())
    np.testing.assert_allclose(e1, e2, atol=1e-10)


def test_ground_fidelity_aggregates():
    states = oracles.reference_states(LAT)

    def fidelity(perturbed):
        return sp.FidelityResult.from_overlap(states.conj().T @ perturbed)

    fid = fidelity(states)
    assert fid.subspace == pytest.approx(1.0)
    q, _ = np.linalg.qr(RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)))
    fid2 = fidelity(states @ q)
    assert fid2.subspace == pytest.approx(1.0, abs=1e-10)
    # sector weights do not see a basis change inside the manifold
    np.testing.assert_allclose(fid2.sector_weights, 1.0, atol=1e-12)
    # global phases never matter
    fid3 = fidelity(states * np.exp(0.7j))
    assert fid3.subspace == pytest.approx(1.0, abs=1e-12)
    # the perturbed manifold needs four levels
    h = sp.build_hamiltonian(LAT, h_z=0.05)
    with pytest.raises(ValueError, match="4 levels"):
        sp.ground_fidelity(sp.ground_space_reference(LAT), h,
                           sp.lowest_eigenpairs(h, k=3))


def test_fidelity_scan_structure():
    scan = sp.fidelity_scan(LAT, [0.0, 0.2], h_z=0.05)
    assert [p.chi for p in scan] == [0.0, 0.2]
    for p in scan:
        assert p.error is None
        assert 0.0 <= p.subspace_fidelity <= 1.0
        assert p.manifold_spread < p.gap / 5
        assert p.sector_weights.shape == (4,)
        # the bound the solve verified every pair against
        res = sp.lowest_eigenpairs(
            sp.build_hamiltonian(LAT, chi=p.chi, h_z=0.05), k=6)
        assert p.residual_bound == res.residual_bound
        np.testing.assert_array_equal(p.eigenvalues, res.eigenvalues)


def test_scan_builds_each_sectors_momenta_once(monkeypatch):
    # the momenta depend on the term strings only: a chi scan builds each
    # split sector's once, on first use, and its later points reuse them
    built = Counter()
    of = sp._Momenta.of.__func__

    def counted(cls, op, s):
        built[int(s)] += 1
        return of(cls, op, s)

    monkeypatch.setattr(sp._Momenta, "of", classmethod(counted))
    monkeypatch.setattr(sp, "DENSE_DIM_CAP", 16)  # the 64-state sectors split
    scan = sp.fidelity_scan(LAT, [0.2, 0.3, -0.4], h_z=0.05)
    assert all(p.error is None and p.counters["momentum_blocks"] > 0
               for p in scan)
    assert built and set(built.values()) == {1}


def test_each_sector_visit_builds_one_gather(monkeypatch):
    # a warm L = 3, chi = 0.2 solve: every visit of a split sector builds
    # its representatives' rows and its gather once, and no character's
    # block builds either; 4 orbits, each visited in both passes
    h = sp.build_hamiltonian(lt.build(3), chi=0.2, h_z=0.05)
    sp.lowest_eigenpairs(h, k=6, seed=7)
    counts, inside = Counter(), []
    rows, gather, block = (sp.SectorOperator.rows, sp._Momenta.gather,
                           sp._Momenta.block)
    levels = sp._momentum_levels

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name, bool(inside)] += 1
            return f(*args, **kwargs)
        return wrapper

    def visiting(op, s, part, *args):
        counts["visits"] += bool(op._momenta(s).visits[part])
        inside.append("levels")
        try:
            return levels(op, s, part, *args)
        finally:
            inside.pop()

    def building(*args):
        before = counts.copy()
        a = block(*args)
        assert counts == before  # no rows and no gather inside a block
        counts["blocks"] += 1
        return a

    monkeypatch.setattr(sp.SectorOperator, "rows", counted("rows", rows))
    monkeypatch.setattr(sp._Momenta, "gather", counted("gather", gather))
    monkeypatch.setattr(sp._Momenta, "block", building)
    monkeypatch.setattr(sp, "_momentum_levels", visiting)
    res = sp.lowest_eigenpairs(h, k=6, seed=7)
    assert counts["visits"] == 8 and counts["blocks"] == res.momentum_blocks
    assert counts["gather", True] == counts["rows", True] == 8
    assert counts["gather", False] == 0


def _assert_same_operator(got: sp.SectorOperator, want: sp.SectorOperator):
    """Field for field equal, arrays by value and dtype."""
    for f in dataclasses.fields(want):
        pairs = [(getattr(got, f.name), getattr(want, f.name))]
        if isinstance(pairs[0][1], sp.Cosets):
            pairs = [(getattr(pairs[0][0], g.name), getattr(pairs[0][1], g.name))
                     for g in dataclasses.fields(sp.Cosets)]
        for a, b in pairs:
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name


@pytest.mark.parametrize("size, grid", [
    (2, tuple(round(-0.5 + 0.1 * k, 10) for k in range(11))),
    (3, (0.2, 0.4, 0.6))])
def test_scan_points_compile_what_a_fresh_compile_does(monkeypatch, size,
                                                       grid):
    # a scan builds one structure per term-string set and sets only each
    # point's coefficients on it; every point's operator is still a fresh
    # compile's, floors, orbits and carries included
    lat = lt.build(size)
    seen = []

    def capture(h, **kw):
        seen.append(h)
        raise sp.ConvergenceError("not solved")

    monkeypatch.setattr(sp, "lowest_eigenpairs", capture)
    scan = sp.fidelity_scan(lat, grid, h_z=0.05)
    assert [p.chi for p in scan] == list(grid)
    assert scan.structures == len({chi != 0 for chi in grid})
    structures = [h._structure() for h in seen]
    assert len({id(op) for op in structures}) == scan.structures
    for chi, h in zip(grid, seen):
        want = sp.build_hamiltonian(lat, chi=chi, h_z=0.05)
        assert h == want
        _assert_same_operator(h.compile(), want.compile())


def test_fidelity_scan_survives_solver_failure(monkeypatch):
    real = sp.lowest_eigenpairs

    def flaky(h, **kw):
        if any(abs(c - 0.2) < 1e-12 for c, _ in h.terms):
            raise sp.ConvergenceError("forced failure")
        return real(h, **kw)

    monkeypatch.setattr(sp, "lowest_eigenpairs", flaky)
    scan = sp.fidelity_scan(LAT, [0.0, 0.2], h_z=0.05)
    assert scan[0].error is None
    failed = scan[1]
    assert failed.error == "forced failure"
    assert failed.eigenvalues is None and failed.residual_bound is None


@st.composite
def gauged_term_sets(draw):
    """Random Hermitian Pauli term sets on at most 8 qubits with a real gauge."""
    n = draw(st.integers(1, 8))
    masks = st.integers(0, 2 ** n - 1)
    terms = tuple(
        (draw(st.floats(-2.0, 2.0)),
         PauliString(n, draw(masks), draw(masks), draw(st.sampled_from([0, 2]))))
        for _ in range(draw(st.integers(0, 6))))
    assume(sp.real_gauge(terms) is not None)
    return sp.SparseHamiltonian(n, terms)


@settings(max_examples=60, deadline=None)
@given(gauged_term_sets(), st.integers(0, 2 ** 32 - 1))
def test_sector_order_is_block_diagonal(h, seed):
    op = h.compile()
    # the matvec applies only the blocks, so it misses any entry of H that
    # crosses a sector
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    np.testing.assert_allclose(h.matvec(psi), h.to_dense() @ psi,
                               rtol=0, atol=1e-12)
    # each floor bounds its block's spectrum from below
    for s, floor in enumerate(op.floors):
        block = op.block(s).toarray()
        assert np.linalg.eigvalsh(block)[0] >= floor - 1e-12


def _source_blocks(op, vectors):
    """The sector holding the support of each column."""
    order = _order(op)
    position = np.empty(order.size, dtype=np.int64)
    position[order] = np.arange(order.size)
    return [int(position[np.flatnonzero(np.abs(v) > 1e-12)[0]])
            // op.cosets.elements.size for v in vectors.T]


# (sectors, translation orbits) of the L = 2 Hamiltonian
ORBITS_AT_L2 = {(0.0, "sequence"): (32, 14), (0.0, "all"): (32, 14),
                (0.2, "sequence"): (4, 3), (0.2, "all"): (2, 2)}


@pytest.mark.parametrize("mode", ["sequence", "all"])
@pytest.mark.parametrize("chi, k, from_member", [
    (0.0, 4, False), (0.0, 15, True), (0.2, 4, False), (0.2, 20, True)])
def test_orbit_solve_matches_every_block(monkeypatch, mode, chi, k, from_member):
    h = hamiltonian(LAT, chi, mode)
    levels = np.linalg.eigvalsh(h.to_dense())
    assert levels[k] - levels[k - 1] > 1e-3  # the k lowest span a clean space
    every = sp.SparseHamiltonian(h.n_qubits, h.terms)  # no symmetries
    # at cap 16 the 8-state blocks (chi = 0) go dense, the others are split
    # by momentum
    monkeypatch.setattr(sp, "DENSE_DIM_CAP", 16)
    res = sp.lowest_eigenpairs(h, k=k, seed=3)
    ref = sp.lowest_eigenpairs(every, k=k, seed=3)
    op = h.compile()
    assert ref.orbits == ref.sectors
    assert (res.sectors, res.orbits) == ORBITS_AT_L2[chi, mode]
    assert (res.lanczos_blocks > 0) == (chi != 0.0)
    if chi:
        # with no symmetry a sector is one block, of the trivial character
        assert res.max_block_dim < ref.max_block_dim == res.sector_dim
    else:
        # one dense solve per orbit at most
        assert res.dense_blocks <= min(res.orbits, ref.dense_blocks)
    np.testing.assert_allclose(res.eigenvalues, ref.eigenvalues,
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(res.eigenvalues, levels[:k], rtol=0, atol=1e-8)
    assert np.all(res.residuals <= res.residual_bound)
    v, w = oracles.eigenvectors(h, res), oracles.eigenvectors(every, ref)
    assert np.max(np.abs(v.conj().T @ v - np.eye(k))) <= 1e-10
    np.testing.assert_allclose(v @ v.conj().T, w @ w.conj().T,
                               rtol=0, atol=1e-8)
    assert _source_blocks(op, v) == res.level_sectors.tolist()
    # a kept level from a non-representative member runs the vector mapping
    members = [b for b in _source_blocks(op, v) if op.orbit[b] != b]
    assert bool(members) == (from_member and res.orbits < res.sectors)


def _sectors(size, chi, mode="sequence"):
    return hamiltonian(lt.build(size), chi, mode).compile().cosets


def _frame_orbits(size):
    return lb.StabilizerFrame(lt.build(size)).cosets


# the two users of Cosets: the sectors of H and the stabilizer frame
COSET_USERS = [
    *(pytest.param(functools.partial(_sectors, 2, chi, mode),
                   id=f"sectors-l2-{chi}-{mode}")
      for chi, mode in sorted(ORBITS_AT_L2)),
    *(pytest.param(functools.partial(_sectors, 3, chi), id=f"sectors-l3-{chi}")
      for chi in (0.0, 0.2)),
    *(pytest.param(functools.partial(_frame_orbits, size), id=f"frame-l{size}")
      for size in (2, 3)),
]


def _coset_table(cosets):
    """The oracle: the coset minima, and the coset and local index of every
    state, from a scan in ascending order that opens a coset at each state
    not yet labeled and labels all of it, ``elements`` in order."""
    dim = cosets.reps.size * cosets.elements.size
    coset_of = np.full(dim, -1, dtype=np.int64)
    local_of = np.full(dim, -1, dtype=np.int64)
    reps = []
    for b in range(dim):
        if coset_of[b] < 0:
            members = np.uint64(b) ^ cosets.elements
            coset_of[members] = len(reps)
            local_of[members] = np.arange(cosets.elements.size)
            reps.append(b)
    return np.array(reps, dtype=np.uint64), coset_of, local_of


@pytest.mark.parametrize("build", COSET_USERS)
def test_cosets_locate_matches_the_coset_table(build):
    cosets = build()
    every = np.arange(2 ** cosets.n_bits, dtype=np.uint64)
    seeded = np.random.default_rng(5).integers(0, every.size, 4096,
                                               dtype=np.uint64)
    for states in (seeded, every):  # the labels of every state are kept
        coset, local = cosets.locate(states)
        assert coset.dtype == local.dtype == np.int64
        assert np.all((0 <= local) & (local < cosets.elements.size))
        np.testing.assert_array_equal(
            cosets.reps[coset] ^ cosets.elements[local], states)
    reps, coset_of, local_of = _coset_table(cosets)
    # the representatives are the coset minima, ascending
    np.testing.assert_array_equal(cosets.reps, reps)
    np.testing.assert_array_equal(
        cosets.reps, (cosets.reps[:, None] ^ cosets.elements).min(axis=1))
    np.testing.assert_array_equal(coset, coset_of)
    np.testing.assert_array_equal(local, local_of)
    # the labels are linear: a mask moves every coset by one XOR and
    # reaches the same element from each
    x = np.random.default_rng(cosets.n_bits).integers(0, every.size, 64,
                                                      dtype=np.uint64)
    shift, reached = cosets.locate(x)
    moved, elements = cosets.locate(cosets.reps ^ x[:, None])
    np.testing.assert_array_equal(
        moved, np.arange(cosets.reps.size) ^ shift[:, None])
    np.testing.assert_array_equal(
        elements, np.broadcast_to(reached[:, None], elements.shape))


# the chi grid of the benchmark's L = 2 spectrum and fidelity scans
DEFAULT_CHI_GRID = tuple(round(-0.5 + 0.1 * k, 10) for k in range(11))


@pytest.mark.parametrize("mode", ["sequence", "all"])
def test_sector_local_overlap_is_the_dense_product(mode):
    reference = sp.ground_space_reference(LAT)
    dense_reference = oracles.reference_states(LAT)
    for chi in DEFAULT_CHI_GRID:
        h = hamiltonian(LAT, chi, mode)
        res = sp.lowest_eigenpairs(h, k=6, seed=7)
        assert all(v.shape[0] < h.dim for v in vars(res).values()
                   if isinstance(v, np.ndarray))
        np.testing.assert_allclose(
            sp.ground_fidelity(reference, h, res).overlap,
            dense_reference.conj().T @ oracles.eigenvectors(h, res)[:, :4],
            rtol=0, atol=1e-12)


def test_overlap_of_levels_carried_from_a_member():
    h = sp.build_hamiltonian(LAT, chi=0.2, h_z=0.05)
    op = h.compile()
    res = sp.lowest_eigenpairs(h, k=20, seed=3)
    members = [c for c, s in enumerate(res.level_sectors)
               if op.orbit[s] != s]
    assert len(members) >= 2
    # two carried levels and two solved ones lead; four supports of 32
    # states drawn from every sector stand in for the reference
    cols = members[:2] + [0, 1] + [c for c in range(20)
                                   if c not in members[:2] + [0, 1]]
    moved = dataclasses.replace(res, eigenvalues=res.eigenvalues[cols],
                                level_sectors=res.level_sectors[cols],
                                local_vectors=res.local_vectors[:, cols])
    support = np.random.default_rng(9).permutation(256).astype(
        np.uint64)[:128].reshape(4, 32)
    reference = (support, 1 / np.sqrt(32), None)
    overlap = sp.ground_fidelity(reference, h, moved).overlap
    dense = (oracles.reference_states(LAT, reference).conj().T
             @ oracles.eigenvectors(h, res)[:, cols[:4]])
    assert np.abs(dense[:, :2]).max() > 0.05
    np.testing.assert_allclose(overlap, dense, rtol=0, atol=1e-12)


def test_fidelity_scan_at_l3_holds_no_full_space_array():
    lat = lt.build(3)
    tracemalloc.start()
    try:
        scan = sp.fidelity_scan(lat, (0.0,), h_z=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2^18 x 6 complex eigenvectors alone took 24 MiB
    assert peak < 24 * 2 ** 20
    assert scan[0].subspace_fidelity > 0.99


@st.composite
def symmetric_term_sets(draw):
    """A random link permutation and a term set it leaves invariant: every
    drawn term together with its images under the permutation."""
    n = draw(st.integers(2, 8))
    perm = tuple(draw(st.permutations(range(n))))
    masks = st.integers(0, 2 ** n - 1)
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.floats(-2.0, 2.0))
        t = PauliString(n, draw(masks), draw(masks), draw(st.sampled_from([0, 2])))
        while (t.x_mask, t.z_mask, t.phase_quarter) not in terms:
            terms[t.x_mask, t.z_mask, t.phase_quarter] = (coeff, t)
            t = _relabel(t, perm)
    assume(sp.real_gauge(tuple(terms.values())) is not None)
    return sp.SparseHamiltonian(n, tuple(terms.values()), symmetries=(perm,))


def _relabel(s: PauliString, perm) -> PauliString:
    x = sum(1 << perm[q] for q in range(s.n_qubits) if s.x_mask >> q & 1)
    z = sum(1 << perm[q] for q in range(s.n_qubits) if s.z_mask >> q & 1)
    return PauliString(s.n_qubits, x, z, s.phase_quarter)


def _term_keys(terms):
    return sorted((c, s.x_mask, s.z_mask, s.phase_quarter) for c, s in terms)


@settings(max_examples=60, deadline=None)
@given(symmetric_term_sets())
def test_symmetry_maps_blocks_to_isospectral_blocks(h):
    perm = h.symmetries[0]
    op = h.compile()
    assert op.symmetries == (perm,)
    n = op.cosets.elements.size
    position = {int(j): p for p, j in enumerate(_order(op))}
    for s in range(len(op.floors)):
        j = int(op.cosets.reps[s])
        image = sum(1 << perm[q] for q in range(h.n_qubits) if j >> q & 1)
        t = position[image] // n
        assert op.orbit[t] == op.orbit[s]
        np.testing.assert_allclose(
            np.linalg.eigvalsh(op.block(t).toarray()),
            np.linalg.eigvalsh(op.block(s).toarray()), rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compile_keeps_only_term_symmetries(data):
    n = data.draw(st.integers(2, 8))
    masks = st.integers(0, 2 ** n - 1)
    terms = tuple(
        (data.draw(st.sampled_from([-1.0, 0.5, 1.0])),
         PauliString(n, data.draw(masks), data.draw(masks), 0))
        for _ in range(data.draw(st.integers(1, 5))))
    assume(sp.real_gauge(terms) is not None)
    perm = tuple(data.draw(st.permutations(range(n))))
    h = sp.SparseHamiltonian(n, terms, symmetries=(perm,))
    invariant = (_term_keys((c, _relabel(s, perm)) for c, s in terms)
                 == _term_keys(terms))
    assert (h.compile().symmetries == (perm,)) == invariant
    if not invariant:
        assert np.unique(h.compile().orbit).size == len(h.compile().floors)


def test_candidate_symmetries_must_be_permutations():
    z = PauliString.single(3, 0, "Z")
    with pytest.raises(ValueError, match="permutation"):
        sp.SparseHamiltonian(3, ((1.0, z),), symmetries=((0, 0, 1),))
