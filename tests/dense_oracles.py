"""Dense L = 2 views, kept as test oracles.

Lattice dissipation in ``toricsim.lindblad`` takes and returns label
populations only.  This module holds the dense forms the tests check it
against: the frame basis B, whose columns are the frame states, the change
of frame and back, a density-matrix check, the carry-in of a dense
frame-diagonal product start to its label marginals, and the dense states
B diag(p) Bᵀ of a result's populations.  Each is a 2^n x 2^n array, so it
is meant for the 256 states of L = 2 only.

``toricsim.spectra`` keeps eigenvectors sector-local and the reference
ground states as their support states.  Their 2^n-row Z-basis forms,
``eigenvectors`` and ``reference_states``, are built here from those
compact forms.  ``one_pass_at`` compiles a sector operator's coefficients
over all 2^n states at once, where ``SectorOperator.at`` takes a few
sectors per pass.

``trotter_error`` measures the serial composition of two pulse sequences
with three matrix logarithms of their dense unitaries.

The Pauli-level bath is the oracle of the label chains, which
``toricsim.lindblad`` builds from the link incidence.  ``excitation_ops``
gives each link's pair operators as ±¼-weighted sums of Pauli strings,
``channel_operator`` the Pauli sum of a bath channel, and ``string_chains``
the label chains built from those strings, each carried into the frame
with ``StabilizerFrame.strings``; ``label_diagonal``,
``wilson_diagonals`` and ``excitation_weights`` read label diagonals the
same way.

``superoperator`` assembles a whole vectorized Lindblad generator as a
sparse matrix, and ``reachable`` finds the entries a start reaches under
it: the oracle of the adiabatic-elimination probe, which builds only the
reached columns.  ``decompose`` is the recursive Pauli expansion that
``toricsim.pauli.decompose`` vectorizes.
"""

import dataclasses
import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse

from toricsim import lattice as lt
from toricsim import lindblad as lb
from toricsim import sequences as sq
from toricsim import spectra as sp
from toricsim.pauli import PRUNE_TOL, PauliString, PauliSum

FRAME_DIAGONAL_TOL = 1e-12   # largest off-diagonal frame norm of a dense start


@functools.cache
def basis(frame: lb.FrameLabels) -> np.ndarray:
    """Real orthogonal matrix whose columns are the frame states, |o, t>
    = sum_e (-1)**|t & e| |reps[o] ^ elements[e]> / sqrt(n_char), of the
    labels of a result or of a ``StabilizerFrame``."""
    norm = 1.0 / math.sqrt(frame.n_char)
    chars = np.arange(frame.n_char)
    rows = frame.cosets.reps[:, None, None] ^ frame.cosets.elements[:, None]
    size = frame.n_orbits * frame.n_char
    cols = np.arange(size).reshape(frame.n_orbits, 1, frame.n_char)
    out = np.zeros((1 << frame.cosets.n_bits, size))
    out[rows, cols] = norm * lb._char_sign(chars[:, None], chars)
    return out


def to_frame(frame: lb.FrameLabels, rho: np.ndarray) -> np.ndarray:
    b = basis(frame)
    return b.T @ rho @ b


def from_frame(frame: lb.FrameLabels, rho_f: np.ndarray) -> np.ndarray:
    b = basis(frame)
    return b @ rho_f @ b.T


def validate_density_matrix(rho: np.ndarray, trace_tol: float = 1e-9,
                            eig_floor: float = lb.EIGENVALUE_FLOOR) -> None:
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if not np.linalg.norm(rho - rho.conj().T) <= trace_tol * rho.shape[0]:
        raise lb.PositivityError("density matrix is not Hermitian")
    lb._check_trace_and_floor(abs(np.trace(rho).real - 1.0),
                              float(scipy.linalg.eigvalsh(rho)[0]),
                              trace_tol, eig_floor)


def start_populations(frame: lb.FrameLabels,
                      rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label marginals (p_e, p_m) of a dense start.  Its frame diagonal is
    that of a validated density matrix, which must have no frame
    coherences and must factor as p_e ⊗ p_m."""
    rho0 = np.asarray(rho0)
    validate_density_matrix(rho0)
    y0 = to_frame(frame, rho0.astype(complex))
    p0 = np.diag(y0).real
    if np.linalg.norm(y0 - np.diag(p0)) >= FRAME_DIAGONAL_TOL:
        raise ValueError("rho0 has coherences in the stabilizer frame")
    joint = p0.reshape(frame.n_orbits, frame.n_char)
    p_e, p_m = joint.sum(axis=1), joint.sum(axis=0)
    if np.abs(joint - np.outer(p_e, p_m)).max() >= FRAME_DIAGONAL_TOL:
        raise ValueError("rho0 is no product of its label marginals")
    return p_e, p_m


def stationary_rho(res: lb.StationaryResult) -> np.ndarray:
    """Dense stationary density matrix, Hermitian with unit trace."""
    rho = from_frame(res.labels, np.diag(res.populations.astype(complex)))
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return rho


def evolution_states(out: lb.EvolutionResult) -> np.ndarray:
    """Dense states, shape (n_times, dim, dim)."""
    b = basis(out.labels)
    return np.stack([(b * p) @ b.T for p in out.populations])


# ---------------------------------------------------------------------------
# the Pauli-level bath
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ExcitationOps:
    """Pair-creation and translation operators for one link and flavor.

    ``create`` flips the two stabilizers adjacent to the link when both are
    unexcited; ``translate`` moves an excitation from the first adjacent
    neighborhood to the second.  All four operators are quarter-weight
    products of the link flip with stabilizer projectors.
    """

    link: int
    kind: str                      # "e" (vertex flavor) or "m" (plaquette)
    create: PauliSum               # flip * (1 + h_a)(1 + h_b) / 4
    annihilate: PauliSum           # adjoint of create
    translate: PauliSum            # flip * (1 - h_a)(1 + h_b) / 4
    translate_adjoint: PauliSum


def excitation_ops(lat, link: int, kind: str) -> ExcitationOps:
    """The four excitation operators for ``link`` and flavor ``kind``.

    For the vertex flavor the flip is X on the link and the projectors use
    the two vertex stabilizers sharing it; for the plaquette flavor the flip
    is Z and the projectors use the two adjacent plaquettes.
    """
    n = lat.n_links
    if not 0 <= link < n:
        raise ValueError(f"link {link} outside 0..{n - 1}")
    if kind == "e":
        letter, ends, stabilizer = "X", lat.link_vertices(link), lt.vertex_stabilizer
    elif kind == "m":
        letter, ends, stabilizer = "Z", lat.link_plaquettes(link), lt.plaquette_stabilizer
    else:
        raise ValueError(f"flavor must be 'e' or 'm', got {kind!r}")
    create, translate = lb._pair_ops(PauliString.single(n, link, letter),
                                     *(stabilizer(lat, end) for end in ends))
    return ExcitationOps(
        link=link, kind=kind,
        create=create, annihilate=create.adjoint(),
        translate=translate, translate_adjoint=translate.adjoint())


def channel_operator(lat, jt: lb.JumpTerm) -> PauliSum:
    """The Pauli sum of a bath channel: its Pauli on its link, or its
    flavor's excitation operator, absorb_a and absorb_b being annihilate
    plus translate and plus its adjoint."""
    if jt.flavor is None:
        return PauliSum({PauliString.single(lat.n_links, jt.link,
                                            jt.action): 1.0})
    ops = excitation_ops(lat, jt.link, jt.flavor)
    return {"annihilate": ops.annihilate, "create": ops.create,
            "translate": ops.translate,
            "translate_adj": ops.translate_adjoint,
            "absorb_a": ops.annihilate + ops.translate,
            "absorb_b": ops.annihilate + ops.translate_adjoint}[jt.action]


def label_diagonal(frame: lb.StabilizerFrame,
                   op: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Real frame diagonal of a Hermitian Pauli sum as an orbit part and a
    character part, d(o, t) = d_e(o) + d_m(t).

    A string that moves either label has a zero diagonal.  One that keeps
    both is diagonal with the value c i**q(reps[o]) (-1)**|t & e|: with
    e = 0 it depends on the orbit alone, and with q the same on every
    orbit representative on the character alone.  A diagonal string that
    depends on both labels (the product of a vertex and a plaquette
    stabilizer, say) raises ``ValueError``.
    """
    s = frame.strings([op])
    still = (s.shift == 0) & (s.flips == 0)
    on_char = still & (s.element != 0)
    if np.any(on_char & np.any(s.turns != s.turns[:, :1], axis=1)):
        raise ValueError("a diagonal string depends on both frame labels")
    chars = np.arange(frame.n_char)
    on_orbit = s.amplitudes(slice(None), chars[:1])[:, :, 0]
    on_t = s.amplitudes(slice(0, 1), chars)[:, 0]
    return (on_orbit[still & (s.element == 0)].sum(axis=0).real,
            on_t[on_char].sum(axis=0).real)


def wilson_diagonals(frame: lb.StabilizerFrame) -> dict:
    """:func:`label_diagonal` of each Z and X Wilson loop, keyed
    ``wilson_z_<i>`` and ``wilson_x_<i>``."""
    loops = {"z": lt.z_loops(frame.lattice), "x": lt.x_loops(frame.lattice)}
    return {f"wilson_{name}_{idx}": label_diagonal(frame, PauliSum({s: 1.0}))
            for name, strings in loops.items() for idx, s in enumerate(strings)}


def excitation_weights(frame: lb.StabilizerFrame) -> tuple[np.ndarray, np.ndarray]:
    """:func:`label_diagonal` of the mean of (1 - h)/2 over the
    stabilizers."""
    stabs = lt.stabilizers(frame.lattice)
    weight = 0.5 / len(stabs)
    return label_diagonal(frame, PauliSum.from_terms(
        [(0.5, PauliString.identity(frame.n_qubits))]
        + [(-weight, stab) for stab in stabs], n_qubits=frame.n_qubits))


@dataclasses.dataclass(frozen=True)
class StringChains:
    """Unit-rate label chains built from Pauli strings: the fields of the
    same name on ``lindblad._LabelChains``."""

    energies: tuple[np.ndarray, np.ndarray]
    orbit_shifts: np.ndarray
    orbit_flows: np.ndarray
    char_flips: np.ndarray
    char_flows: np.ndarray


def string_chains(frame: lb.StabilizerFrame, h: PauliSum,
                  channels) -> StringChains:
    """The label chains of ``h`` and ``(label, Pauli sum)`` channels, each
    string carried into the frame (:meth:`StabilizerFrame.strings`).

    The strings of a channel must share one map of the labels (the same
    character flip u, and X-masks in one coset of the plaquette-flip
    group), so that the channel is a partial permutation in the frame, or
    ``ValueError`` names it.  Its rate on one label must not depend on the
    other: for an orbit move its strings share X, and for a character move
    their relative phases are the same on every orbit; a channel that
    breaks this raises ``ValueError``.  Each label's flow is read on one
    slice of the other, t = 0 and o = 0.  H must keep both labels.
    """
    hs = frame.strings([h])
    if not np.all((hs.shift == 0) & (hs.flips == 0)):
        raise ValueError("H is not diagonal in the stabilizer frame, so "
                         "the population sector does not close")
    labels = [label for label, _ in channels]
    s = frame.strings([op for _, op in channels])
    owner = np.array([k for k, (_, op) in enumerate(channels) for _ in op],
                     dtype=np.int64)
    x = np.array([string.x_mask for _, op in channels for string in op],
                 dtype=np.uint64)
    lead = np.searchsorted(owner, owner)   # first string per channel
    moves_orbit, moves_char = s.shift != 0, s.flips != 0
    relative = (s.turns - s.turns[lead]) & 3
    checks = (
        ((s.shift == s.shift[lead]) & (s.flips == s.flips[lead]),
         "is not a partial permutation in the stabilizer frame"),
        ((~moves_orbit | (x == x[lead]))
         & (~moves_char | np.all(relative == relative[:, :1], axis=1)),
         "has a rate that depends on both frame labels"))
    for ok, why in checks:
        if not ok.all():
            raise ValueError(f"channel {labels[owner[np.argmin(ok)]]!r} {why}")
    chars = np.arange(frame.n_char)
    slices = ((moves_orbit, s.amplitudes(slice(None), chars[:1])[:, :, 0]),
              (moves_char, s.amplitudes(slice(0, 1), chars)[:, 0]))
    n = len(channels)
    flows = []
    for moves, amplitudes in slices:
        v = np.zeros((n, amplitudes.shape[1]), dtype=complex)
        np.add.at(v, owner[moves], amplitudes[moves])
        v[np.abs(v) < 1e-15] = 0.0
        flows.append(2.0 * np.abs(v) ** 2)
    orbit_shifts = np.zeros(n, dtype=np.int64)
    orbit_shifts[owner] = s.shift
    char_flips = np.zeros(n, dtype=np.int64)
    char_flips[owner] = s.flips
    return StringChains(energies=label_diagonal(frame, h),
                        orbit_shifts=orbit_shifts, orbit_flows=flows[0],
                        char_flips=char_flips, char_flows=flows[1])


def model_chains(model: lb.LindbladModel) -> StringChains:
    """:func:`string_chains` of a model's H and channel operators."""
    return string_chains(
        lb.StabilizerFrame(model.lattice),
        PauliSum.from_terms(model.hamiltonian.terms),
        [(jt.label, channel_operator(model.lattice, jt)) for jt in model.jumps])


def eigenvectors(h: sp.SparseHamiltonian, res: sp.SpectrumResult) -> np.ndarray:
    """Z-basis eigenvectors, shape (2^n, k): each level's sector-local
    vector placed at its sector's states."""
    cosets = h.compile().cosets
    out = np.zeros((h.dim, len(res.eigenvalues)), dtype=complex)
    for col, s in enumerate(res.level_sectors):
        out[cosets.members(s), col] = res.local_vectors[:, col]
    return out


def one_pass_at(op: sp.SectorOperator, coeffs) -> sp.SectorOperator:
    """``op.at(coeffs)`` with the diagonal, the Gershgorin radius and the
    phase temporaries built over all 2^n states at once, then the floors
    and the orbits exactly as ``SectorOperator.at`` takes them."""
    states = (op.cosets.reps[:, None] ^ op.cosets.elements).reshape(-1)
    diagonal, radius = np.zeros(states.size), np.zeros(states.size)
    for x, terms in zip(op.x_masks.tolist(), op.by_mask):
        if x and len(terms) == 1:
            radius += abs(coeffs[terms[0][0]])
            continue
        w = np.zeros(states.size)
        for i, m, turns0 in terms:
            turns = sp._entry_turns(states, np.uint64(m), turns0)
            w += coeffs[i] * (1.0 - (turns & 2))
        if x:
            radius += np.abs(w)
        else:
            diagonal = w
    floors = (diagonal - radius).reshape(
        -1, op.cosets.elements.size).min(axis=1)
    orbit = np.full(floors.size, -1, dtype=np.int64)
    carry: list = [None] * floors.size
    for first in np.argsort(floors, kind="stable"):
        if orbit[first] >= 0:
            continue
        orbit[first], carry[first] = first, tuple(range(op.cosets.n_bits))
        reached = [first]
        for s in reached:
            for perm, image in zip(op.symmetries, op.images):
                t = image[s]
                if orbit[t] < 0:
                    orbit[t] = first
                    carry[t] = tuple(perm[q] for q in carry[s])
                    reached.append(t)
    return dataclasses.replace(
        op, diagonal=diagonal, floors=floors, orbit=orbit, carry=tuple(carry),
        coeffs=np.array(coeffs, dtype=float)[op.off])


def reference_states(lat, reference=None) -> np.ndarray:
    """Z-basis reference states, shape (2^n, 4): ``amp`` on each column's
    support states, from ``reference`` = (support, amp, sectors), the
    lattice's :func:`~toricsim.spectra.ground_space_reference` by default."""
    support, amp, _ = reference or sp.ground_space_reference(lat)
    states = np.zeros((2 ** lat.n_links, len(support)), dtype=complex)
    for col, rows in enumerate(support):
        states[rows, col] = amp
    return states


def trotter_error(first: sq.GateSequence, second: sq.GateSequence) -> float:
    """l2 norm of H_eff of ``first`` then ``second`` minus the
    duration-weighted sum of their own H_eff."""
    both = first.then(second)
    total = both.total_duration
    parts = ((first.total_duration / total)
             * sq.effective_hamiltonian(first).h_eff
             + (second.total_duration / total)
             * sq.effective_hamiltonian(second).h_eff)
    return (sq.effective_hamiltonian(both).h_eff - parts).l2_norm()


def superoperator(h, channels) -> scipy.sparse.csr_matrix:
    """Vectorized generator of ``h`` and ``(rate, operator)`` channels.

    With A = sum r c†c and row-major vec(rho), it is
    -i(H⊗1 - 1⊗Hᵀ) - (A⊗1 + 1⊗Aᵀ) + sum 2r c⊗c̄.  The triplets of every
    Kronecker term are concatenated, stably sorted by entry and summed in
    one conversion, so duplicates add in term order; exact zeros are
    dropped.  Dense or sparse inputs are accepted.
    """
    h = scipy.sparse.csr_matrix(h)
    n = h.shape[0]
    channels = [(r, scipy.sparse.csr_matrix(c)) for r, c in channels]
    absorber = scipy.sparse.csr_matrix((n, n), dtype=complex)
    for r, c in channels:
        absorber = absorber + r * (c.conj().T @ c)
    eye = scipy.sparse.identity(n, dtype=complex, format="csr")
    terms = [(-1j, h, eye), (1j, eye, h.T), (-1.0, absorber, eye),
             (-1.0, eye, absorber.T)]
    terms += [(2.0 * r, c, c.conj()) for r, c in channels]
    rows, cols, vals = [], [], []
    for s, a, b in terms:
        term = scipy.sparse.kron(a, b, format="coo")
        rows.append(term.row)
        cols.append(term.col)
        vals.append(s * term.data)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.argsort(rows.astype(np.int64) * (n * n) + cols, kind="stable")
    out = scipy.sparse.coo_matrix(
        (np.concatenate(vals)[order], (rows[order], cols[order])),
        shape=(n * n, n * n)).tocsr()
    out.eliminate_zeros()
    return out


def reachable(gen: scipy.sparse.csr_matrix, seeds: np.ndarray) -> np.ndarray:
    """Sorted indices that ``seeds`` reach under ``gen``: the smallest set
    of coordinates holding the seeds whose span ``gen`` maps into itself.

    Entry j feeds entry i when gen[i, j] is stored, so the set grows by the
    stored pattern of ``gen``, as real ones, until it stops changing.
    """
    pattern = scipy.sparse.csr_matrix(
        (np.ones(gen.nnz), gen.indices, gen.indptr), shape=gen.shape)
    reached = np.isin(np.arange(gen.shape[0]), seeds)
    while True:
        grown = reached | (pattern @ reached > 0)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def decompose(matrix: np.ndarray) -> PauliSum:
    """Pauli expansion of a 2**n x 2**n matrix by recursive 2x2 block
    reduction over the most-significant qubit, terms in recursion order."""
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0].bit_length() - 1
    terms: dict[PauliString, complex] = {}

    def recurse(block: np.ndarray, qubits_left: int, x: int, z: int):
        if qubits_left == 0:
            coeff = complex(block[0, 0])
            if abs(coeff) > PRUNE_TOL:
                terms[PauliString(n, x, z, 0)] = coeff
            return
        half = block.shape[0] // 2
        q = qubits_left - 1  # most-significant remaining qubit
        a = block[:half, :half]
        b = block[:half, half:]
        c = block[half:, :half]
        d = block[half:, half:]
        recurse((a + d) / 2, q, x, z)                       # I
        recurse((b + c) / 2, q, x | (1 << q), z)            # X
        recurse(1j * (b - c) / 2, q, x | (1 << q), z | (1 << q))  # Y
        recurse((a - d) / 2, q, x, z | (1 << q))            # Z

    recurse(matrix, n, 0, 0)
    return PauliSum(terms, n_qubits=n)


def scan_reports(factory, phis, targets=()) -> dict:
    """{phi: report} for ``sq.order_scan``: the extraction of each
    ``factory(phi)`` with ``targets`` as its target labels."""
    return {phi: sq.effective_hamiltonian(
        factory(phi), targets=dict.fromkeys(targets, 0.0)) for phi in phis}
