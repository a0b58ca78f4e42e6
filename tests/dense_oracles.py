"""Dense L = 2 views, kept as test oracles.

Lattice dissipation in ``toricsim.lindblad`` takes and returns frame
populations only.  This module holds the dense forms the tests check it
against: the frame basis B, whose columns are the frame states, the change
of frame and back, a density-matrix check, the carry-in of a dense
frame-diagonal start to its populations, and the dense states
B diag(p) Bᵀ of a result's populations.  Each is a 2^n x 2^n array, so it
is meant for the 256 states of L = 2 only.

``toricsim.spectra`` keeps eigenvectors sector-local and the reference
ground states as their support states.  Their 2^n-row Z-basis forms,
``eigenvectors`` and ``reference_states``, are built here from those
compact forms.

``trotter_error`` measures the serial composition of two pulse sequences
with three matrix logarithms of their dense unitaries.
"""

import functools
import math

import numpy as np
import scipy.linalg

from toricsim import lindblad as lb
from toricsim import sequences as sq
from toricsim import spectra as sp

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
                      rho0: np.ndarray) -> np.ndarray:
    """Frame populations of a dense start, the frame diagonal of a
    validated density matrix, which must have no frame coherences."""
    rho0 = np.asarray(rho0)
    validate_density_matrix(rho0)
    y0 = to_frame(frame, rho0.astype(complex))
    p0 = np.diag(y0).real
    if np.linalg.norm(y0 - np.diag(p0)) >= FRAME_DIAGONAL_TOL:
        raise ValueError("rho0 has coherences in the stabilizer frame")
    return p0


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
