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

from toricsim import lindblad as lb
from toricsim import sequences as sq
from toricsim import spectra as sp
from toricsim.pauli import PRUNE_TOL, PauliString, PauliSum

FRAME_DIAGONAL_TOL = 1e-12   # largest off-diagonal frame norm of a dense start


@functools.cache
def basis(frame: lb.StabilizerFrame) -> np.ndarray:
    """Real orthogonal matrix whose columns are the frame states, |o, t>
    = sum_e (-1)**|t & e| |reps[o] ^ elements[e]> / sqrt(n_char)."""
    norm = 1.0 / math.sqrt(frame.n_char)
    chars = np.arange(frame.n_char)
    rows = frame.cosets.reps[:, None, None] ^ frame.cosets.elements[:, None]
    cols = np.arange(frame.size).reshape(frame.n_orbits, 1, frame.n_char)
    out = np.zeros((frame.dim, frame.size))
    out[rows, cols] = norm * lb._char_sign(chars[:, None], chars)
    return out


def to_frame(frame: lb.StabilizerFrame, rho: np.ndarray) -> np.ndarray:
    b = basis(frame)
    return b.T @ rho @ b


def from_frame(frame: lb.StabilizerFrame, rho_f: np.ndarray) -> np.ndarray:
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


def start_populations(frame: lb.StabilizerFrame,
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
    rho = from_frame(res.frame, np.diag(res.populations.astype(complex)))
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return rho


def evolution_states(out: lb.EvolutionResult) -> np.ndarray:
    """Dense states, shape (n_times, dim, dim)."""
    b = basis(out.frame)
    return np.stack([(b * p) @ b.T for p in out.populations])


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
