"""Reference computations made apart from toricsim.

Nothing here imports the program.  The lattice geometry is restated from
the link-indexing convention documented in ``toricsim.lattice``:

    h(r, c) = r*L + c,  v(r, c) = L*L + r*L + c
    vertex (r, c):    east h(r, c), north v(r-1, c), west h(r, c-1), south v(r, c)
    plaquette (r, c): north h(r, c), east v(r, c+1), south h(r+1, c), west v(r, c)

and the chi pairs of ``chi_pairs = "sequence"`` are the 2nd and 3rd links
of every vertex and plaquette neighbourhood in that order.  Dense
Hamiltonians are built from 2x2 Kronecker products; the L = 3 spectrum at
chi = 0 comes from the vertex-syndrome blocks, built by bit arithmetic.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
import scipy.linalg

EPS = np.finfo(float).eps
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def neighbourhoods(L: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(vertex links, plaquette links) of the L x L torus, four links each."""

    def h(r, c):
        return (r % L) * L + (c % L)

    def v(r, c):
        return L * L + (r % L) * L + (c % L)

    vertices = [(h(r, c), v(r - 1, c), h(r, c - 1), v(r, c))
                for r in range(L) for c in range(L)]
    plaquettes = [(h(r, c), v(r, c + 1), h(r + 1, c), v(r, c))
                  for r in range(L) for c in range(L)]
    return vertices, plaquettes


def chi_pairs(L: int) -> list[tuple[int, int]]:
    vertices, plaquettes = neighbourhoods(L)
    return [(links[1], links[2]) for links in vertices + plaquettes]


def coefficient_norm(L: int, chi: float = 0.0, h_z: float = 0.0,
                     j_e: float = 1.0, j_m: float = 1.0) -> float:
    """Sum of |coefficient| over the Pauli terms, a bound on ||H||."""
    n_v = L * L
    return (n_v * abs(j_e) + n_v * abs(j_m) + 2 * L * L * abs(h_z)
            + len(chi_pairs(L)) * abs(chi))


def _kron_term(n: int, letters: dict[int, str]) -> np.ndarray:
    return reduce(np.kron, [PAULI[letters.get(q, "I")] for q in range(n)])


def dense_hamiltonian(L: int, chi: float = 0.0, h_z: float = 0.0,
                      j_e: float = 1.0, j_m: float = 1.0) -> np.ndarray:
    """-j_e sum ZZZZ - j_m sum XXXX - h_z sum Z + chi sum X_a Y_b, densely."""
    n = 2 * L * L
    if n > 12:
        raise ValueError("dense reference limited to 12 qubits")
    vertices, plaquettes = neighbourhoods(L)
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for links in vertices:
        h -= j_e * _kron_term(n, {q: "Z" for q in links})
    for links in plaquettes:
        h -= j_m * _kron_term(n, {q: "X" for q in links})
    for q in range(n):
        h -= h_z * _kron_term(n, {q: "Z"})
    if chi:
        for a, b in chi_pairs(L):
            h += chi * _kron_term(n, {a: "X", b: "Y"})
    return h


def dense_levels(L: int, chi: float, h_z: float) -> tuple[np.ndarray, float]:
    """All eigenvalues of the dense H and a bound on their own error."""
    h = dense_hamiltonian(L, chi=chi, h_z=h_z)
    error = h.shape[0] * EPS * coefficient_norm(L, chi, h_z)
    return np.linalg.eigvalsh(h), error


def vertex_block_levels(L: int, h_z: float, k: int, j_e: float = 1.0,
                        j_m: float = 1.0) -> tuple[np.ndarray, float]:
    """The k lowest levels at chi = 0 from the vertex-syndrome blocks.

    Every vertex term commutes with H at chi = 0, so H is block diagonal in
    the vertex syndrome, and each block is real: Z-field and vertex terms
    on the diagonal, one -j_m per plaquette flip off it.  A block with d
    defects lies above -j_e (n_v - 2d) - n_p j_m - n h_z, so once the k-th
    level found in the blocks with at most two defects sits below the
    bound for d = 4, no other block can hold one of the k lowest levels.
    Returns the levels and a bound on their own error.
    """
    n = 2 * L * L
    n_v = L * L
    vertices, plaquettes = neighbourhoods(L)
    states = np.arange(2 ** n, dtype=np.int64)
    bits = ((states[:, None] >> np.arange(n)) & 1).astype(np.int8)
    parity = np.stack([bits[:, list(links)].sum(axis=1) & 1
                       for links in vertices], axis=1)
    syndrome = parity.astype(np.int64) @ (1 << np.arange(n_v))
    defects = parity.sum(axis=1)
    diagonal = -j_e * (n_v - 2 * defects) - h_z * (n - 2 * bits.sum(axis=1))
    flips = [sum(1 << q for q in links) for links in plaquettes]
    norm = n_v * j_e + n_v * j_m + n * h_z
    levels = []
    error = 0.0
    for code in np.unique(syndrome[defects <= 2]):
        members = np.flatnonzero(syndrome == code)
        m = members.size
        block = np.diag(diagonal[members].astype(float))
        cols = np.arange(m)
        for mask in flips:
            block[np.searchsorted(members, members ^ mask), cols] -= j_m
        levels.extend(scipy.linalg.eigh(block, eigvals_only=True,
                                        subset_by_index=[0, min(k, m) - 1]))
        error = max(error, m * EPS * norm)
    levels = np.sort(np.array(levels))[:k]
    floor = -j_e * (n_v - 8) - n_v * j_m - n * h_z
    if len(levels) < k or not levels[-1] < floor:
        raise ValueError(
            f"blocks with <= 2 defects do not certify the {k} lowest levels "
            f"(k-th {levels[-1]:.6f} vs floor {floor:.6f})")
    return levels, error


def gibbs_energy(h: np.ndarray, temperature: float) -> float:
    """Tr(H exp(-H/T)) / Z from the eigenvalues of the dense H."""
    energies = np.linalg.eigvalsh(h)
    weights = np.exp(-(energies - energies[0]) / temperature)
    return float(energies @ weights / weights.sum())


def spectral_norm(h: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(h)).max())


def detailed_balance_temperature(p: float, delta: float) -> float:
    """exp(-delta/T) = p/(1-p): the temperature the thermal rates reach."""
    return delta / math.log((1.0 - p) / p)


def fitted_temperature(density: float, gap: float = 2.0) -> float:
    """Boltzmann inversion of a per-stabilizer excitation weight d."""
    return gap / math.log((1.0 - density) / density)
