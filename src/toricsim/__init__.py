"""Numerical toolkit for stroboscopic synthesis and dissipative preparation
of the toric code on a periodic square lattice.

Subpackages
-----------
pauli      symplectic Pauli-string algebra and Pauli-basis decompositions
lattice    torus link lattice, stabilizers, Wilson loops, translations
sequences  gate sequences, effective Hamiltonians, perturbative order scans
spectra    sparse stabilizer Hamiltonians, orbit-by-orbit eigensolver, ground-space fidelity
lindblad   engineered jump operators, label-chain dissipation, ancilla pump
harness    scenario configs, deterministic run records, figure data
cli        command-line entry point (``toricsim <subcommand>``)
"""

from .pauli import PauliString, PauliSum, commutator, decompose

__version__ = "0.1.0"

__all__ = [
    "PauliString",
    "PauliSum",
    "commutator",
    "decompose",
    "__version__",
]
