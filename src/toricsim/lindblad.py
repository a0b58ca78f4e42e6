"""Engineered dissipation for the stabilizer code.

Pair-creation / translation operators built from adjacent stabilizer
neighborhoods, thermal and cooling jump-operator sets, master-equation
integration, stationary-state extraction, stochastic-trajectory unraveling,
three-level ancilla pumping, and a small adiabatic-elimination rate probe.

Generator convention throughout: with jump entries c = sqrt(rate) * op,

    d rho / dt = -i [H, rho] + sum_c (2 c rho c† - c†c rho - rho c†c)

so a jump of rate r relaxes the target population at rate 2r.

The dense-density integrators cap the register at 2**n <= 256 (the L = 2
torus).  For lattice-backed models the work happens in an orthonormal
eigenbasis of the stabilizer group (``StabilizerFrame``) where every Pauli
string acts as a signed permutation and all engineered jump operators become
sparse; the diagonal of the density matrix then closes under the generator
and the stationary state reduces to the null space of an explicit classical
rate matrix, cross-checked against the full generator's residual.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from . import lattice as lt
from .pauli import PauliString, PauliSum
from .spectra import SparseHamiltonian, build_hamiltonian

DENSITY_DIM_CAP = 256        # dense density-matrix evolution cap (L = 2)
FRAME_QUBIT_CAP = 12
TRACE_TOL_PER_TIME = 1e-9    # trace / positivity drift budget per unit time
EIGENVALUE_FLOOR = -1e-10    # smallest admissible density eigenvalue at t = 0
DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12


class StepSizeUnderflowError(RuntimeError):
    """The adaptive integrator could not meet tolerances with a finite step."""


class PositivityError(RuntimeError):
    """A density matrix drifted outside the trace/positivity budget."""


class FitRejectedError(RuntimeError):
    """Reduced dynamics deviated from a single-exponential beyond tolerance."""


# ---------------------------------------------------------------------------
# excitation / translation operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


def excitation_ops(lat: lt.TorusLattice, link: int, kind: str) -> ExcitationOps:
    """Build the four excitation operators for ``link`` and flavor ``kind``.

    For the vertex flavor the flip is X on the link and the projectors use
    the two vertex stabilizers sharing it; for the plaquette flavor the flip
    is Z and the projectors use the two adjacent plaquettes.
    """
    n = lat.n_links
    if not 0 <= link < n:
        raise ValueError(f"link {link} outside 0..{n - 1}")
    if kind == "e":
        flip = PauliString.single(n, link, "X")
        a, b = lat.link_vertices(link)
        h_a = lt.vertex_stabilizer(lat, a)
        h_b = lt.vertex_stabilizer(lat, b)
    elif kind == "m":
        flip = PauliString.single(n, link, "Z")
        a, b = lat.link_plaquettes(link)
        h_a = lt.plaquette_stabilizer(lat, a)
        h_b = lt.plaquette_stabilizer(lat, b)
    else:
        raise ValueError(f"flavor must be 'e' or 'm', got {kind!r}")

    one = PauliSum.from_string(PauliString.identity(n))
    plus_a = one + PauliSum.from_string(h_a)
    plus_b = one + PauliSum.from_string(h_b)
    minus_a = one - PauliSum.from_string(h_a)
    flip_sum = PauliSum.from_string(flip)

    create = flip_sum.product(plus_a).product(plus_b) * 0.25
    translate = flip_sum.product(minus_a).product(plus_b) * 0.25
    return ExcitationOps(
        link=link, kind=kind,
        create=create, annihilate=create.adjoint(),
        translate=translate, translate_adjoint=translate.adjoint())


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpTerm:
    """One dissipative channel: generator term 2r O rho O† - r {O†O, rho}."""

    label: str
    rate: float
    operator: PauliSum

    def __post_init__(self):
        if not (self.rate >= 0.0) or not math.isfinite(self.rate):
            raise ValueError(f"jump rate must be finite and >= 0, got {self.rate}")


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus a list of rate-weighted jump operators."""

    n_qubits: int
    hamiltonian: SparseHamiltonian
    jumps: tuple[JumpTerm, ...]
    temperature_target: float | None = None
    delta: float | None = None       # pair-creation energy cost 4J
    p: float | None = None           # excitation weight of the bath
    lattice: lt.TorusLattice | None = None
    label: str = ""

    def __post_init__(self):
        if self.hamiltonian.n_qubits != self.n_qubits:
            raise ValueError("hamiltonian register size mismatch")
        for jt in self.jumps:
            if jt.operator.n_qubits != self.n_qubits:
                raise ValueError(f"jump {jt.label!r} acts outside the register")

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def pair_rate_ratio(self) -> float:
        """Exact ratio of pair-creation to pair-annihilation rates.

        Both rates carry the same lambda*/2 factor, which cancels
        algebraically, so the ratio is p / (1 - p) evaluated directly on the
        stored bath parameter.
        """
        if self.p is None:
            raise ValueError("model has no bath parameter p")
        return self.p / (1.0 - self.p)

    def detailed_balance_temperature(self) -> float:
        """Temperature whose Gibbs weights satisfy the up/down rate ratio.

        Creation and annihilation rates differ by p/(1 - p) while a pair
        costs energy delta, so exp(-delta/T) = p/(1 - p), that is
        T = delta / ln((1 - p)/p); zero at p = 0 and infinite at p = 1/2.
        """
        if self.p is None or self.delta is None:
            raise ValueError("model has no bath parameters (p, delta)")
        if self.p == 0.0:
            return 0.0
        if self.p == 0.5:
            return math.inf
        return self.delta / math.log((1.0 - self.p) / self.p)

    def to_json(self) -> str:
        rows = []
        for jt in self.jumps:
            terms = sorted(
                (s.label(with_phase=False), float(c.real), float(c.imag))
                for s, c in jt.operator.items())
            rows.append({"label": jt.label, "rate": jt.rate, "terms": terms})
        payload = {
            "n_qubits": self.n_qubits,
            "hamiltonian": sorted(
                (s.label(with_phase=False), float(c)) for c, s
                in self.hamiltonian.terms),
            "jumps": rows,
            "temperature_target": self.temperature_target,
            "delta": self.delta,
            "p": self.p,
            "lattice_size": self.lattice.L if self.lattice is not None else None,
            "label": self.label,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "LindbladModel":
        data = json.loads(text)
        n = data["n_qubits"]
        ham = SparseHamiltonian(n_qubits=n, terms=tuple(
            (coeff, PauliString.from_label(label))
            for label, coeff in data["hamiltonian"]))
        jumps = []
        for row in data["jumps"]:
            op = PauliSum.from_terms(
                ((complex(re, im), PauliString.from_label(label))
                 for label, re, im in row["terms"]), n_qubits=n)
            jumps.append(JumpTerm(row["label"], row["rate"], op))
        lat = lt.build(data["lattice_size"]) if data.get("lattice_size") else None
        return cls(n_qubits=n, hamiltonian=ham, jumps=tuple(jumps),
                   temperature_target=data.get("temperature_target"),
                   delta=data.get("delta"), p=data.get("p"),
                   lattice=lat, label=data.get("label", ""))


def _pair_sites(lat: lt.TorusLattice) -> list[tuple[int, str]]:
    return [(link, kind) for kind in ("e", "m") for link in range(lat.n_links)]


def thermal_jump_set(lat: lt.TorusLattice, p: float, lambda_star: float,
                     gamma_star: float, j: float = 1.0) -> LindbladModel:
    """Jump set driving the code toward a thermal bath of weight ``p``.

    Per link and flavor: annihilation at rate (1-p) lambda*/2, creation at
    rate p lambda*/2, translation and its adjoint at rate gamma*/4 each.
    Zero-rate channels are dropped.  Creation and annihilation stand in the
    ratio p/(1-p) and a pair costs delta, so the rates drive the code to the
    Gibbs state at T = delta/ln((1-p)/p) (see
    :meth:`LindbladModel.detailed_balance_temperature`).
    ``temperature_target`` records the Boltzmann-weight reading -delta/ln p
    of the bath parameter (0 when p = 0), which agrees with that
    temperature only as p -> 0.  Both stabilizer couplings share the
    strength ``j`` so the pair gap delta = 4j is uniform.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    if lambda_star < 0.0 or gamma_star < 0.0:
        raise ValueError("rates must be >= 0")
    delta = 4.0 * j
    temperature = -delta / math.log(p) if p > 0.0 else 0.0
    jumps: list[JumpTerm] = []
    for link, kind in _pair_sites(lat):
        ops = excitation_ops(lat, link, kind)
        channels = (
            (f"annihilate[{kind},{link}]", (1.0 - p) * lambda_star / 2.0, ops.annihilate),
            (f"create[{kind},{link}]", p * lambda_star / 2.0, ops.create),
            (f"translate[{kind},{link}]", gamma_star / 4.0, ops.translate),
            (f"translate_adj[{kind},{link}]", gamma_star / 4.0, ops.translate_adjoint),
        )
        jumps.extend(JumpTerm(label, rate, op)
                     for label, rate, op in channels if rate > 0.0)
    return LindbladModel(
        n_qubits=lat.n_links,
        hamiltonian=build_hamiltonian(lat, j_e=j, j_m=j),
        jumps=tuple(jumps), temperature_target=temperature,
        delta=delta, p=p, lattice=lat, label="thermal")


def cooling_jump_set(lat: lt.TorusLattice, lambda_star: float,
                     j: float = 1.0) -> LindbladModel:
    """Zero-temperature reduction: two channels per link and flavor.

    The combinations annihilate + translate and annihilate +
    translate_adjoint collapse to (flip)(1 - h)/2 on each adjacent
    neighborhood; they contain no creation component, so every ground state
    is dark.
    """
    if not lambda_star > 0.0:
        raise ValueError("lambda_star must be > 0")
    jumps: list[JumpTerm] = []
    for link, kind in _pair_sites(lat):
        ops = excitation_ops(lat, link, kind)
        jumps.append(JumpTerm(f"absorb_a[{kind},{link}]", lambda_star,
                              ops.annihilate + ops.translate))
        jumps.append(JumpTerm(f"absorb_b[{kind},{link}]", lambda_star,
                              ops.annihilate + ops.translate_adjoint))
    return LindbladModel(
        n_qubits=lat.n_links,
        hamiltonian=build_hamiltonian(lat, j_e=j, j_m=j),
        jumps=tuple(jumps), temperature_target=0.0,
        delta=4.0 * j, p=0.0, lattice=lat, label="cooling")


def depolarizing_jumps(n_qubits: int, gamma: float,
                       qubits: Iterable[int] | None = None) -> tuple[JumpTerm, ...]:
    """Single-qubit depolarizing channels: Bloch vector decays at rate gamma.

    Each listed qubit gets X, Y and Z jumps at rate gamma/8; under the
    2 c rho c† convention this relaxes every Bloch component at exactly
    gamma.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    targets = range(n_qubits) if qubits is None else qubits
    jumps = []
    for q in targets:
        for letter in "XYZ":
            jumps.append(JumpTerm(
                f"depolarize[{letter},{q}]", gamma / 8.0,
                PauliSum.from_string(PauliString.single(n_qubits, q, letter))))
    return tuple(jumps)


# ---------------------------------------------------------------------------
# stabilizer frame
# ---------------------------------------------------------------------------


class StabilizerFrame:
    """Orthonormal eigenbasis of the vertex and plaquette stabilizer group.

    Basis states are labeled by an orbit of the plaquette-flip group acting
    on computational bitstrings and by a group character; every Pauli string
    maps one basis state to exactly one basis state times a scalar, so
    operators built from few strings are sparse signed permutations here.
    """

    def __init__(self, lat: lt.TorusLattice):
        n = lat.n_links
        if n > FRAME_QUBIT_CAP:
            raise ValueError(f"{n} qubits exceeds the frame cap of {FRAME_QUBIT_CAP}")
        self.lattice = lat
        self.n_qubits = n
        self.dim = 1 << n
        # independent generators of the plaquette-flip group (all but one)
        self.generator_masks = tuple(
            lt.plaquette_stabilizer(lat, k).x_mask
            for k in range(lat.n_plaquettes - 1))
        n_gen = len(self.generator_masks)
        self.n_char = 1 << n_gen
        group = np.zeros(self.n_char, dtype=np.uint64)
        for j in range(1, self.n_char):
            low = j & -j
            group[j] = group[j ^ low] ^ np.uint64(
                self.generator_masks[low.bit_length() - 1])
        self.group_masks = group
        self._mask_to_index = {int(g): j for j, g in enumerate(group)}
        if len(self._mask_to_index) != self.n_char:
            raise ValueError("stabilizer generators are not independent")

        orbit_of = np.full(self.dim, -1, dtype=np.int64)
        reps = []
        for b in range(self.dim):
            if orbit_of[b] < 0:
                orbit_of[np.uint64(b) ^ group] = len(reps)
                reps.append(b)
        self.orbit_of = orbit_of
        self.reps = np.array(reps, dtype=np.uint64)
        self.n_orbits = len(reps)
        self.size = self.n_orbits * self.n_char
        if self.size != self.dim:
            raise ValueError("frame dimension mismatch")
        self._basis: np.ndarray | None = None

    # -- basis ---------------------------------------------------------

    @property
    def basis(self) -> np.ndarray:
        """Real orthogonal matrix whose columns are the frame states."""
        if self._basis is None:
            b = np.zeros((self.dim, self.size))
            t_arr = np.arange(self.n_char, dtype=np.uint64)
            norm = 1.0 / math.sqrt(self.n_char)
            for o, rep in enumerate(self.reps):
                cols = o * self.n_char + np.arange(self.n_char)
                for j, g in enumerate(self.group_masks):
                    signs = 1.0 - 2.0 * (
                        np.bitwise_count(t_arr & np.uint64(j)) & np.uint64(1)
                    ).astype(np.float64)
                    b[int(rep ^ g), cols] = norm * signs
            self._basis = b
        return self._basis

    def to_frame(self, rho: np.ndarray) -> np.ndarray:
        b = self.basis
        return b.T @ rho @ b

    def from_frame(self, rho_f: np.ndarray) -> np.ndarray:
        b = self.basis
        return b @ rho_f @ b.T

    # -- operator transport ---------------------------------------------

    def operator(self, op: PauliSum) -> scipy.sparse.csr_matrix:
        """Frame matrix of a Pauli sum (signed permutation per string)."""
        if op.n_qubits != self.n_qubits:
            raise ValueError("operator register size mismatch")
        t_arr = np.arange(self.n_char, dtype=np.uint64)
        cols = (np.arange(self.n_orbits, dtype=np.int64)[:, None] * self.n_char
                + t_arr[None, :].astype(np.int64))
        rows_all, cols_all, vals_all = [], [], []
        for string, coeff in op.items():
            x, z = string.x_mask, string.z_mask
            scalar = complex(coeff) * 1j ** (
                (string.phase_quarter + bin(x & z).count("1")) % 4)
            u = 0
            for k, m in enumerate(self.generator_masks):
                u |= (bin(m & z).count("1") & 1) << k
            dest = np.empty(self.n_orbits, dtype=np.int64)
            j0 = np.empty(self.n_orbits, dtype=np.uint64)
            for o in range(self.n_orbits):
                b2 = int(self.reps[o]) ^ x
                oo = int(self.orbit_of[b2])
                dest[o] = oo
                j0[o] = self._mask_to_index[b2 ^ int(self.reps[oo])]
            sign_rep = 1.0 - 2.0 * (
                np.bitwise_count(self.reps & np.uint64(z)) & np.uint64(1)
            ).astype(np.float64)
            t2 = t_arr ^ np.uint64(u)
            sign_t = 1.0 - 2.0 * (
                np.bitwise_count(t2[None, :] & j0[:, None]) & np.uint64(1)
            ).astype(np.float64)
            rows = dest[:, None] * self.n_char + t2[None, :].astype(np.int64)
            vals = scalar * sign_rep[:, None] * sign_t
            rows_all.append(rows.ravel())
            cols_all.append(np.broadcast_to(cols, rows.shape).ravel())
            vals_all.append(vals.ravel())
        mat = scipy.sparse.coo_matrix(
            (np.concatenate(vals_all),
             (np.concatenate(rows_all), np.concatenate(cols_all))),
            shape=(self.size, self.size)).tocsr()
        mat.data[np.abs(mat.data) < 1e-15] = 0.0
        mat.eliminate_zeros()
        return mat


# ---------------------------------------------------------------------------
# compiled generators
# ---------------------------------------------------------------------------


class _DenseGenerator:
    """Dense matrices for the generator; used off-lattice and as an oracle."""

    path = "dense"

    def __init__(self, model: LindbladModel):
        if model.dim > DENSITY_DIM_CAP:
            raise ValueError(
                f"dimension {model.dim} exceeds the dense cap of {DENSITY_DIM_CAP}")
        self.model = model
        self.h = model.hamiltonian.to_dense()
        self.channels = [(jt.rate, jt.operator.to_dense()) for jt in model.jumps]
        self.absorber = sum(
            (r * (o.conj().T @ o) for r, o in self.channels),
            np.zeros_like(self.h))
        if self.channels:
            # stacked channel tensors so one batched matmul covers all jumps
            self._rates = np.array([2.0 * r for r, _ in self.channels])
            self._ops = np.stack([o for _, o in self.channels])
            self._ops_dag = np.stack([o.conj().T for _, o in self.channels])
        else:
            self._rates = None

    def into(self, rho: np.ndarray) -> np.ndarray:
        return np.array(rho, dtype=complex)

    def out_of(self, rho: np.ndarray) -> np.ndarray:
        return rho

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = -1j * (self.h @ rho - rho @ self.h)
        out -= self.absorber @ rho + rho @ self.absorber
        if self._rates is not None:
            gains = np.matmul(np.matmul(self._ops, rho[None]), self._ops_dag)
            out += np.einsum("k,kij->ij", self._rates, gains)
        return out

    def scale(self) -> float:
        h_norm = scipy.linalg.eigvalsh(self.h)
        a_norm = scipy.linalg.eigvalsh(self.absorber)
        return float(max(abs(h_norm[0]), abs(h_norm[-1]))
                     + 2.0 * max(abs(a_norm[0]), abs(a_norm[-1])) + 1e-30)


class _FrameGenerator:
    """Sparse frame-coordinate generator for lattice-backed models.

    Every Pauli string is a signed permutation in the frame, so each jump
    channel contributes at most size**2 entries to the vectorized generator;
    the whole superoperator fits comfortably in memory and one sparse
    matrix-vector product evaluates the right-hand side.
    """

    path = "frame"

    def __init__(self, model: LindbladModel, frame: StabilizerFrame):
        if model.dim > DENSITY_DIM_CAP:
            raise ValueError(
                f"dimension {model.dim} exceeds the dense cap of {DENSITY_DIM_CAP}")
        self.model = model
        self.frame = frame
        self.h = frame.operator(model.hamiltonian.to_pauli_sum())
        self.channels = [(jt.rate, frame.operator(jt.operator))
                         for jt in model.jumps]
        absorber = scipy.sparse.csr_matrix((frame.size, frame.size), dtype=complex)
        for r, c in self.channels:
            absorber = absorber + r * (c.conj().T.tocsr() @ c)
        self.absorber = absorber.tocsr()
        eye = scipy.sparse.identity(frame.size, format="csr", dtype=complex)
        super_op = (-1j) * (scipy.sparse.kron(self.h, eye, format="csr")
                            - scipy.sparse.kron(eye, self.h.T, format="csr"))
        super_op = super_op \
            - scipy.sparse.kron(self.absorber, eye, format="csr") \
            - scipy.sparse.kron(eye, self.absorber.T, format="csr")
        for r, c in self.channels:
            super_op = super_op + (2.0 * r) * scipy.sparse.kron(
                c, c.conj(), format="csr")
        self.super_op = super_op.tocsr()

    def into(self, rho: np.ndarray) -> np.ndarray:
        return self.frame.to_frame(np.asarray(rho, dtype=complex))

    def out_of(self, rho_f: np.ndarray) -> np.ndarray:
        return self.frame.from_frame(rho_f)

    def apply(self, rho_f: np.ndarray) -> np.ndarray:
        n = self.frame.size
        return (self.super_op @ rho_f.reshape(n * n)).reshape(n, n)

    def scale(self) -> float:
        h_diag = self.h.diagonal()
        off = self.h - scipy.sparse.diags(h_diag)
        h_norm = float(np.abs(h_diag).max()) if self.h.nnz else 0.0
        if off.nnz:
            h_norm = float(np.abs(scipy.sparse.linalg.eigsh(
                self.h, k=1, which="LM", return_eigenvectors=False))[0])
        a_norm = float(scipy.sparse.linalg.eigsh(
            self.absorber, k=1, which="LM",
            return_eigenvectors=False)[0].real) if self.absorber.nnz else 0.0
        return h_norm + 2.0 * abs(a_norm) + 1e-30


def _compile_generator(model: LindbladModel, path: str | None = None):
    if path not in (None, "dense", "frame"):
        raise ValueError(f"unknown generator path {path!r}")
    if path == "frame" or (path is None and model.lattice is not None
                           and model.n_qubits <= FRAME_QUBIT_CAP):
        if model.lattice is None:
            raise ValueError("frame path requires a lattice-backed model")
        return _FrameGenerator(model, StabilizerFrame(model.lattice))
    return _DenseGenerator(model)


def validate_density_matrix(rho: np.ndarray, trace_tol: float = 1e-9,
                            eig_floor: float = EIGENVALUE_FLOOR) -> None:
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.linalg.norm(rho - rho.conj().T) > trace_tol * rho.shape[0]:
        raise PositivityError("density matrix is not Hermitian")
    defect = abs(np.trace(rho).real - 1.0)
    if defect > trace_tol:
        raise PositivityError(f"trace defect {defect:.3e} exceeds {trace_tol:.1e}")
    low = float(scipy.linalg.eigvalsh(rho)[0])
    if low < eig_floor:
        raise PositivityError(f"eigenvalue {low:.3e} below floor {eig_floor:.1e}")


# ---------------------------------------------------------------------------
# master-equation integration
# ---------------------------------------------------------------------------


@dataclass
class EvolutionResult:
    """Density-matrix trajectory with per-sample conservation monitors."""

    times: np.ndarray
    states: np.ndarray              # (n_times, dim, dim)
    trace_defects: np.ndarray
    min_eigenvalues: np.ndarray
    path: str
    policy: str

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def evolve(model: LindbladModel, rho0: np.ndarray, t_final: float,
           policy: str = "adaptive", dt: float | None = None,
           rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
           sample_times: Sequence[float] | None = None,
           validate: bool = True, path: str | None = None) -> EvolutionResult:
    """Integrate the master equation up to ``t_final``.

    ``policy`` selects the step controller:

    * ``"adaptive"`` delegates to the embedded Dormand-Prince 4(5) pair with
      proportional-integral step control (scipy ``RK45``) at ``rtol`` /
      ``atol``;
    * ``"rk4"`` takes fixed classical Runge-Kutta steps of size ``dt``
      (default 0.02 / generator-scale, which keeps the global error near
      1e-8 per unit time and makes step-halving checks meaningful).

    Trace and positivity are monitored at every sample time against a budget
    of 1e-9 per unit time; violations raise ``PositivityError`` when
    ``validate`` is set.
    """
    if t_final < 0.0:
        raise ValueError("t_final must be >= 0")
    gen = _compile_generator(model, path)
    if validate:
        validate_density_matrix(rho0)
    if sample_times is None:
        times = np.array([0.0, t_final]) if t_final > 0 else np.array([0.0])
    else:
        times = np.asarray(sample_times, dtype=float)
        if times.size == 0 or times[0] < 0 or np.any(np.diff(times) < 0) \
                or times[-1] > t_final + 1e-12:
            raise ValueError("sample times must ascend within [0, t_final]")
    y0 = gen.into(np.asarray(rho0, dtype=complex))
    dim = y0.shape[0]

    def rhs(_t, y):
        return gen.apply(y.reshape(dim, dim)).ravel()

    frames: list[np.ndarray]
    if t_final == 0.0 or (times.size == 1 and times[0] == 0.0):
        frames = [y0]
        times = np.array([0.0])
    elif policy == "adaptive":
        sol = scipy.integrate.solve_ivp(
            rhs, (0.0, t_final), y0.ravel(), method="RK45",
            t_eval=times, rtol=rtol, atol=atol)
        if not sol.success:
            raise StepSizeUnderflowError(sol.message)
        frames = [sol.y[:, k].reshape(dim, dim) for k in range(sol.y.shape[1])]
    elif policy == "rk4":
        if dt is None:
            dt = 0.02 / gen.scale()
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        frames = []
        y = y0.copy()
        t = 0.0
        for target in times:
            span = target - t
            if span > 1e-15:
                n_steps = max(1, int(math.ceil(span / dt)))
                h = span / n_steps
                if h < 1e-14:
                    raise StepSizeUnderflowError(f"step {h:.3e} underflows")
                for _ in range(n_steps):
                    k1 = gen.apply(y)
                    k2 = gen.apply(y + 0.5 * h * k1)
                    k3 = gen.apply(y + 0.5 * h * k2)
                    k4 = gen.apply(y + h * k3)
                    y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t = target
            frames.append(y.copy())
    else:
        raise ValueError(f"unknown policy {policy!r}")

    states = np.stack([gen.out_of(f) for f in frames])
    trace_defects = np.abs(np.einsum("kii->k", states).real - 1.0)
    min_eigs = np.array([scipy.linalg.eigvalsh(s)[0].real for s in states])
    if validate:
        for t, defect, low in zip(times, trace_defects, min_eigs):
            budget = TRACE_TOL_PER_TIME * max(t, 1.0)
            if defect > budget:
                raise PositivityError(
                    f"trace defect {defect:.3e} beyond budget {budget:.1e} at t={t}")
            # eigenvalue drift tracks the full-state integration error, an
            # order of magnitude above the trace drift for rank-deficient rho
            if low < EIGENVALUE_FLOOR - 10.0 * TRACE_TOL_PER_TIME * max(t, 1.0):
                raise PositivityError(
                    f"eigenvalue {low:.3e} beyond budget at t={t}")
    return EvolutionResult(times=times, states=states,
                           trace_defects=trace_defects,
                           min_eigenvalues=min_eigs,
                           path=gen.path, policy=policy)


def generator_residual(model: LindbladModel, rho: np.ndarray,
                       path: str | None = None) -> float:
    """Frobenius norm of the generator applied to ``rho``."""
    gen = _compile_generator(model, path)
    return float(np.linalg.norm(gen.apply(gen.into(np.asarray(rho, dtype=complex)))))


def gibbs_state(hamiltonian: SparseHamiltonian | np.ndarray,
                temperature: float) -> np.ndarray:
    """exp(-H/T)/Z; at T = 0 the uniform mixture over the ground multiplet."""
    h = hamiltonian.to_dense() if isinstance(hamiltonian, SparseHamiltonian) \
        else np.asarray(hamiltonian)
    energies, vectors = scipy.linalg.eigh(h)
    if temperature < 0.0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0.0:
        weights = (energies - energies[0] < 1e-10).astype(float)
    else:
        weights = np.exp(-(energies - energies[0]) / temperature)
    weights /= weights.sum()
    return (vectors * weights) @ vectors.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(scipy.linalg.eigvalsh(a - b)).sum())


# ---------------------------------------------------------------------------
# stationary states
# ---------------------------------------------------------------------------


@dataclass
class StationaryResult:
    """Stationary state with uniqueness and fixed-point diagnostics.

    Two Gibbs comparisons are reported.  ``detailed_balance_temperature``
    is delta/ln((1-p)/p), implied by the stored creation/annihilation
    rates; a thermal jump set converges to that Gibbs state, so
    ``trace_distance_to_detailed_balance`` sits at round-off.
    ``gibbs_temperature`` is the model's ``temperature_target`` (for a
    thermal set the Boltzmann-weight reading -delta/ln p, equal to the
    former only as p -> 0), and ``trace_distance_to_gibbs`` stays finite
    whenever the two temperatures differ.
    """

    rho: np.ndarray
    null_dim: int
    residual: float
    trace_distance_to_gibbs: float | None
    gibbs_temperature: float | None
    trace_distance_to_detailed_balance: float | None
    detailed_balance_temperature: float | None
    loop_expectations: dict[str, float]
    method: str


def _classical_rate_matrix(gen: _FrameGenerator) -> tuple[np.ndarray, bool]:
    """Population-sector generator; flag is False if any channel leaks
    coherence (some column holding two entries) or H is not frame-diagonal."""
    n = gen.frame.size
    m = np.zeros((n, n))
    closed = True
    h_off = gen.h - scipy.sparse.diags(gen.h.diagonal())
    if h_off.nnz and np.abs(h_off.data).max() > 1e-12:
        closed = False
    for rate, c in gen.channels:
        coo = c.tocoo()
        if np.bincount(coo.col, minlength=n).max(initial=0) > 1:
            closed = False
        flows = 2.0 * rate * np.abs(coo.data) ** 2
        np.add.at(m, (coo.row, coo.col), flows)
        np.add.at(m, (coo.col, coo.col), -flows)
    return m, closed


def _recurrent_distributions(m: np.ndarray) -> list[np.ndarray]:
    """One stationary distribution per recurrent communicating class."""
    n = m.shape[0]
    graph = scipy.sparse.csr_matrix((m - np.diag(np.diag(m))) > 1e-300)
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        graph, directed=True, connection="strong")
    leaks = np.zeros(n_comp, dtype=bool)
    rows, cols = graph.nonzero()
    for r, c in zip(rows, cols):
        if labels[r] != labels[c]:
            leaks[labels[c]] = True          # class of c flows elsewhere
    dists = []
    for comp in range(n_comp):
        if leaks[comp]:
            continue
        idx = np.flatnonzero(labels == comp)
        sub = m[np.ix_(idx, idx)]
        if idx.size == 1:
            pi_local = np.ones(1)
        else:
            _, _, vh = np.linalg.svd(sub)
            pi_local = np.abs(vh[-1])
        pi = np.zeros(n)
        pi[idx] = pi_local / pi_local.sum()
        dists.append(pi)
    return dists


def stationary_state(model: LindbladModel, tol: float = 1e-9) -> StationaryResult:
    """Stationary density matrix of a lattice-backed model.

    In the stabilizer frame every engineered jump is a partial signed
    permutation, so the population sector closes under the generator and the
    stationary state is the null space of an explicit classical rate matrix;
    the candidate is verified against the full generator afterwards.  When
    several recurrent classes exist (for example at p = 0) their stationary
    distributions are averaged with equal weights and the null-space
    dimension is reported.  Falls back to a shift-inverted sparse null-vector
    solve of the vectorized generator if the population sector does not
    close.
    """
    if model.lattice is None:
        raise ValueError("stationary_state requires a lattice-backed model")
    gen = _FrameGenerator(model, StabilizerFrame(model.lattice))
    m, closed = _classical_rate_matrix(gen)
    if closed:
        singulars = np.linalg.svd(m, compute_uv=False)
        null_dim = int(np.sum(singulars < tol * max(singulars[0], 1.0)))
        dists = _recurrent_distributions(m)
        if not dists:
            raise RuntimeError("no recurrent class found")
        pi = np.mean(dists, axis=0)
        rho_f = np.diag(pi.astype(complex))
        method = "classical-rate-matrix"
    else:
        rho_f, null_dim = _vectorized_null_state(gen, tol)
        method = "vectorized-null-space"
    residual = float(np.linalg.norm(gen.apply(rho_f)))
    rho = gen.out_of(rho_f)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real

    distance = None
    temperature = model.temperature_target
    if temperature is not None and temperature > 0.0:
        distance = trace_distance(rho, gibbs_state(model.hamiltonian, temperature))
    distance_db = None
    temperature_db = None
    if model.p is not None and model.delta is not None:
        temperature_db = model.detailed_balance_temperature()
        distance_db = trace_distance(
            rho, gibbs_state(model.hamiltonian, temperature_db))
    loops = {}
    for idx, string in enumerate(lt.z_loops(model.lattice)):
        loops[f"wilson_z_{idx}"] = string.expectation(rho).real
    for idx, string in enumerate(lt.x_loops(model.lattice)):
        loops[f"wilson_x_{idx}"] = string.expectation(rho).real
    return StationaryResult(rho=rho, null_dim=null_dim, residual=residual,
                            trace_distance_to_gibbs=distance,
                            gibbs_temperature=temperature,
                            trace_distance_to_detailed_balance=distance_db,
                            detailed_balance_temperature=temperature_db,
                            loop_expectations=loops, method=method)


def _vectorized_null_state(gen: _FrameGenerator, tol: float) -> tuple[np.ndarray, int]:
    """Null vector of the sparse vectorized generator by shift-inversion."""
    n = gen.frame.size
    super_op = gen.super_op.tocsc()
    vals, vecs = scipy.sparse.linalg.eigs(super_op, k=4, sigma=1e-9, which="LM")
    order = np.argsort(np.abs(vals))
    null_dim = int(np.sum(np.abs(vals) < tol))
    vec = vecs[:, order[0]].reshape(n, n)
    rho = 0.5 * (vec + vec.conj().T)
    rho /= np.trace(rho)
    return rho, max(null_dim, 1)


# ---------------------------------------------------------------------------
# stochastic trajectories
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryResult:
    """Sample statistics of unraveled trajectories."""

    times: np.ndarray
    means: dict[str, np.ndarray]
    stderrs: dict[str, np.ndarray]
    n_samples: int
    seed: int
    dt: float

    def rows(self) -> list[tuple[float, str, float, float]]:
        out = []
        for name in sorted(self.means):
            for t, mu, se in zip(self.times, self.means[name], self.stderrs[name]):
                out.append((float(t), name, float(mu), float(se)))
        return out


def trajectories(model: LindbladModel, psi0: np.ndarray,
                 times: Sequence[float], n_samples: int, seed: int,
                 observables: Mapping[str, PauliSum] | None = None,
                 dt: float | None = None,
                 method: str = "auto") -> TrajectoryResult:
    """Stochastic wave-function unraveling of the master equation.

    Between jumps the state follows the exact non-Hermitian propagator
    expm(-i dt (H - i A)) with A the summed absorber, so the only
    discretization error is the location of jumps on the dt grid (first
    order).  Each sample owns the random stream ``default_rng((seed, k))``,
    which makes results independent of batching and deterministic per seed.
    Beyond the dense cap the same scheme runs matrix-free per sample with
    RK4 no-jump steps.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] < 0 or np.any(np.diff(times) <= 0) and times.size > 1:
        raise ValueError("times must be ascending and non-negative")
    if n_samples <= 0:
        raise ValueError("n_samples must be > 0")
    if observables is None:
        observables = {"energy": model.hamiltonian.to_pauli_sum()}
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.shape[0] != model.dim:
        raise ValueError("state dimension mismatch")
    psi0 = psi0 / np.linalg.norm(psi0)
    t_max = float(times[-1])

    if method not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown trajectory method {method!r}")
    dense = model.dim <= DENSITY_DIM_CAP if method == "auto" else method == "dense"
    if dense and model.dim > DENSITY_DIM_CAP:
        raise ValueError("dense trajectories exceed the density dimension cap")
    if dense:
        h = model.hamiltonian.to_dense()
        ops = [(jt.rate, jt.operator.to_dense()) for jt in model.jumps]
        absorber = sum((r * (o.conj().T @ o) for r, o in ops),
                       np.zeros_like(h))
        rate_scale = float(scipy.linalg.eigvalsh(2.0 * absorber)[-1]) if ops else 0.0
        if dt is None:
            dt = 0.05 / rate_scale if rate_scale > 0 else (t_max / 100 or 1.0)
        obs_dense = {name: op.to_dense() for name, op in observables.items()}
        return _trajectories_dense(psi0, times, n_samples, seed,
                                   obs_dense, ops, h - 1j * absorber, dt)
    return _trajectories_sparse(model, psi0, times, n_samples, seed,
                                observables, dt)


def _expectations(obs: Mapping[str, np.ndarray], psi_block: np.ndarray
                  ) -> dict[str, np.ndarray]:
    norms = np.sum(np.abs(psi_block) ** 2, axis=0)
    out = {}
    for name, mat in obs.items():
        vals = np.einsum("ik,ij,jk->k", psi_block.conj(), mat, psi_block)
        out[name] = np.real(vals) / norms
    return out


def _segment_steps(times: np.ndarray, dt: float) -> list[tuple[int, float]]:
    """(substep count, substep size) per interval between sample times."""
    plan = []
    t_prev = 0.0
    for t in times:
        span = float(t) - t_prev
        if span > 1e-15:
            n_sub = max(1, int(math.ceil(span / dt - 1e-12)))
            plan.append((n_sub, span / n_sub))
        else:
            plan.append((0, 0.0))
        t_prev = float(t)
    return plan


def _trajectories_dense(psi0, times, n_samples, seed, obs, ops,
                        h_eff, dt) -> TrajectoryResult:
    psi = np.tile(psi0[:, None], (1, n_samples))
    rngs = [np.random.default_rng((seed, k)) for k in range(n_samples)]
    thresholds = np.array([rng.uniform() for rng in rngs])
    acc = {name: np.zeros((len(times), n_samples)) for name in obs}
    propagators: dict[float, np.ndarray] = {}
    for t_i, (n_sub, h) in enumerate(_segment_steps(np.asarray(times), dt)):
        if n_sub:
            if h not in propagators:
                propagators[h] = scipy.linalg.expm(-1j * h * h_eff)
            prop = propagators[h]
            for _ in range(n_sub):
                psi = prop @ psi
                norms2 = np.sum(np.abs(psi) ** 2, axis=0)
                for k in np.flatnonzero(norms2 < thresholds):
                    rng = rngs[k]
                    vec = psi[:, k]
                    weights = np.array([2.0 * r * np.linalg.norm(o @ vec) ** 2
                                        for r, o in ops])
                    total = weights.sum()
                    if total <= 0.0:
                        continue
                    pick = int(np.searchsorted(np.cumsum(weights) / total,
                                               rng.uniform()))
                    vec = ops[pick][1] @ vec
                    psi[:, k] = vec / np.linalg.norm(vec)
                    thresholds[k] = rng.uniform()
        vals = _expectations(obs, psi)
        for name in obs:
            acc[name][t_i] = vals[name]
    return _trajectory_stats(times, acc, n_samples, seed, dt)


def _trajectories_sparse(model, psi0, times, n_samples, seed, observables,
                         dt) -> TrajectoryResult:
    ham = model.hamiltonian
    ops = [(jt.rate, jt.operator) for jt in model.jumps]
    absorber = PauliSum.zero(model.n_qubits)
    for r, op in ops:
        absorber = absorber + r * op.adjoint().product(op)
    rate_scale = 2.0 * sum(abs(c) for _, c in absorber.items()) + 1e-30
    if dt is None:
        dt = 0.02 / rate_scale
    plan = _segment_steps(np.asarray(times, dtype=float), dt)
    acc = {name: np.zeros((len(times), n_samples)) for name in observables}

    def nd_apply(vec):
        return -1j * (ham.matvec(vec) - 1j * absorber.apply(vec))

    for k in range(n_samples):
        rng = np.random.default_rng((seed, k))
        psi = psi0.copy()
        threshold = rng.uniform()
        for t_i, (n_sub, h) in enumerate(plan):
            for _ in range(n_sub):
                k1 = nd_apply(psi)
                k2 = nd_apply(psi + 0.5 * h * k1)
                k3 = nd_apply(psi + 0.5 * h * k2)
                k4 = nd_apply(psi + h * k3)
                psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                if np.vdot(psi, psi).real < threshold:
                    weights = np.array(
                        [2.0 * r * np.linalg.norm(op.apply(psi)) ** 2
                         for r, op in ops])
                    total = weights.sum()
                    if total > 0.0:
                        pick = int(np.searchsorted(
                            np.cumsum(weights) / total, rng.uniform()))
                        psi = ops[pick][1].apply(psi)
                        psi = psi / np.linalg.norm(psi)
                        threshold = rng.uniform()
            for name, op in observables.items():
                acc[name][t_i, k] = np.real(
                    np.vdot(psi, op.apply(psi))) / np.vdot(psi, psi).real
    return _trajectory_stats(times, acc, n_samples, seed, dt)


def _trajectory_stats(times, acc, n_samples, seed, dt) -> TrajectoryResult:
    means, stderrs = {}, {}
    for name, table in acc.items():
        means[name] = table.mean(axis=1)
        if n_samples > 1:
            stderrs[name] = table.std(axis=1, ddof=1) / math.sqrt(n_samples)
        else:
            stderrs[name] = np.zeros(table.shape[0])
    return TrajectoryResult(times=np.asarray(times, dtype=float), means=means,
                            stderrs=stderrs, n_samples=n_samples, seed=seed,
                            dt=float(dt))


# ---------------------------------------------------------------------------
# three-level ancilla pumping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PumpProtocol:
    """Pulse schedule preparing an ancilla pseudospin in a biased mixture.

    ``theta`` parameterizes the partial transfer: the final pseudospin state
    is diag{sin^2 theta, cos^2 theta}.  Pulses are treated as instantaneous
    rotations (transfer probability sin^2 of the listed angle; the full
    swaps correspond to pulse area pi), and each wait evolves the
    spontaneous-decay channel from level 2 to level 0 for
    ``wait_factor / gamma20`` time units, leaving a residual level-2
    population of about exp(-wait_factor).
    """

    theta: float
    gamma20: float
    delta: float = 4.0
    rabi_rate: float | None = None
    wait_factor: float = 20.0
    ground_state_only: bool = False

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError("theta must lie in [0, pi/2]")
        if self.gamma20 <= 0.0:
            raise ValueError("gamma20 must be > 0")
        if self.wait_factor < 18.0:
            raise ValueError("wait_factor below 18 leaves residual > 1e-8")

    @property
    def steps(self) -> tuple[tuple, ...]:
        wait = ("wait", self.wait_factor / self.gamma20)
        schedule = [("pulse", 1, 2, math.pi / 2), wait]
        if not self.ground_state_only:
            schedule += [("pulse", 0, 1, math.pi / 2),
                         ("pulse", 1, 2, self.theta), wait]
        return tuple(schedule)


@dataclass
class PumpResult:
    rho_pseudospin: np.ndarray       # 2x2, levels {0, 1}
    effective_temperature: float
    residual_level2: float
    steps_executed: tuple[tuple, ...]
    total_wait_time: float


def _pulse_matrix(lo: int, hi: int, angle: float) -> np.ndarray:
    u = np.eye(3, dtype=complex)
    u[lo, lo] = u[hi, hi] = math.cos(angle)
    u[lo, hi] = u[hi, lo] = -1j * math.sin(angle)
    return u


def _decay_wait(rho: np.ndarray, gamma: float, duration: float) -> np.ndarray:
    """Exact amplitude-damping map for the 2 -> 0 spontaneous decay."""
    out = rho.copy()
    g1 = math.exp(-gamma * duration)
    g2 = math.exp(-0.5 * gamma * duration)
    out[0, 0] += rho[2, 2] * (1.0 - g1)
    out[2, 2] *= g1
    out[0, 2] *= g2
    out[2, 0] *= g2
    out[1, 2] *= g2
    out[2, 1] *= g2
    return out


def pump_temperature(theta: float, delta: float) -> float:
    """delta / (2 ln cot theta); 0 at either transfer extreme, inf at pi/4."""
    if abs(math.sin(theta)) < 1e-12:
        return 0.0
    cot = math.cos(theta) / math.sin(theta)
    if cot < 1e-12:
        return 0.0
    log = math.log(cot)
    if abs(log) < 1e-15:
        return math.inf
    return delta / (2.0 * log)


def pump_ancilla(protocol: PumpProtocol,
                 rho0: np.ndarray | None = None) -> PumpResult:
    """Run the pulse schedule on the three-level ancilla.

    Pulses are instantaneous unitaries, which assumes the pulse Rabi rate is
    fast compared with the level-2 decay; when a ``rabi_rate`` below
    100 * gamma20 is supplied a warning reports the idealization together
    with the residual level-2 population.  The default start is the
    maximally mixed pseudospin (the schedule's output is independent of the
    {0, 1} input populations).
    """
    if rho0 is None:
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    else:
        rho = np.array(rho0, dtype=complex)
        if rho.shape != (3, 3):
            raise ValueError("ancilla state must be 3x3")
    total_wait = 0.0
    for step in protocol.steps:
        if step[0] == "pulse":
            _, lo, hi, angle = step
            u = _pulse_matrix(lo, hi, angle)
            rho = u @ rho @ u.conj().T
        else:
            _, duration = step
            rho = _decay_wait(rho, protocol.gamma20, duration)
            total_wait += duration
    residual = float(rho[2, 2].real)
    if protocol.rabi_rate is not None and protocol.rabi_rate < 100.0 * protocol.gamma20:
        warnings.warn(
            "pulse Rabi rate is not well separated from the level-2 decay; "
            "pulses were treated as instantaneous unitaries "
            f"(residual level-2 population {residual:.3e})",
            stacklevel=2)
    if protocol.ground_state_only:
        temperature = 0.0
    else:
        temperature = pump_temperature(protocol.theta, protocol.delta)
    return PumpResult(
        rho_pseudospin=rho[:2, :2].copy(),
        effective_temperature=temperature,
        residual_level2=residual,
        steps_executed=protocol.steps,
        total_wait_time=total_wait)


# ---------------------------------------------------------------------------
# adiabatic-elimination probe
# ---------------------------------------------------------------------------


@dataclass
class EliminationPoint:
    coupling: float
    relaxation: float
    rate: float
    fit_residual: float


@dataclass
class EliminationReport:
    points: list[EliminationPoint]
    coupling_exponent: float
    relaxation_exponent: float
    model_residuals: dict[str, float]
    favored_model: str
    prefactor: float


def _lowering(n: int, qubit: int) -> PauliSum:
    return PauliSum.from_terms(
        ((0.5, PauliString.single(n, qubit, "X")),
         (0.5j, PauliString.single(n, qubit, "Y"))), n_qubits=n)


def probe_model(coupling: float, relaxation: float,
                mixing: float | None = None) -> LindbladModel:
    """Four-qubit toy: one stabilizer pair exchanging excitations with a
    damped ancilla (qubit 2) and a translation ancilla (qubit 3).

    The stabilizer pair lives on qubits 0 and 1 with single-qubit Z
    "stabilizers" and the joint flip X0 X1, so the pair operators act
    exactly like one adjacent vertex pair of the code.  The interaction
    swaps a system pair with one ancilla excitation at strength
    ``coupling``; the ancilla damps at total rate ``relaxation`` and the
    translation ancilla is held maximally mixed at rate ``mixing``
    (default: equal to ``relaxation``).
    """
    if coupling < 0.0 or relaxation <= 0.0:
        raise ValueError("coupling must be >= 0 and relaxation > 0")
    if mixing is None:
        mixing = relaxation
    n = 4
    z0 = PauliSum.from_string(PauliString.single(n, 0, "Z"))
    z1 = PauliSum.from_string(PauliString.single(n, 1, "Z"))
    one = PauliSum.from_string(PauliString.identity(n))
    flip = PauliSum.from_string(
        PauliString.single(n, 0, "X") * PauliString.single(n, 1, "X"))
    create = flip.product(one + z0).product(one + z1) * 0.25
    translate = flip.product(one - z0).product(one + z1) * 0.25
    lower_t = _lowering(n, 2)
    lower_m = _lowering(n, 3)
    raise_t = lower_t.adjoint()
    raise_m = lower_m.adjoint()

    interaction = (create.product(lower_t)
                   + create.adjoint().product(raise_t)
                   + translate.product(lower_m)
                   + translate.adjoint().product(raise_m)) * coupling
    terms = []
    for string, coeff in interaction.items():
        if abs(coeff.imag) > 1e-12:
            raise ValueError("interaction failed to be Hermitian")
        terms.append((float(coeff.real), string))
    ham = SparseHamiltonian(n_qubits=n, terms=tuple(terms))
    jumps = (
        JumpTerm("ancilla-damp", relaxation / 2.0, lower_t),
        JumpTerm("mix-up", mixing / 4.0, raise_m),
        JumpTerm("mix-down", mixing / 4.0, lower_m),
    )
    return LindbladModel(n_qubits=n, hamiltonian=ham, jumps=jumps,
                         p=0.0, label="elimination-probe")


def _dense_superoperator(model: LindbladModel) -> np.ndarray:
    h = model.hamiltonian.to_dense()
    dim = h.shape[0]
    eye = np.eye(dim)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for jt in model.jumps:
        o = jt.operator.to_dense()
        occ = o.conj().T @ o
        gen += jt.rate * (2.0 * np.kron(o, o.conj())
                          - np.kron(occ, eye) - np.kron(eye, occ.T))
    return gen


def adiabatic_elimination_probe(coupling_values: Sequence[float],
                                relaxation_values: Sequence[float],
                                fit_residual_tol: float = 0.02,
                                burn_in_factor: float = 8.0,
                                decay_window: float = 2.0) -> EliminationReport:
    """Measure the effective pair-relaxation rate of the reduced dynamics.

    For each grid point the full 16-dimensional master equation starting
    from the excited pair is solved exactly through the eigendecomposition
    of the vectorized generator; after a burn-in of ``burn_in_factor``
    ancilla lifetimes the pair population is fit to a single exponential.
    A fit whose log-residual exceeds ``fit_residual_tol`` marks the reduced
    dynamics as insufficiently Markovian and raises ``FitRejectedError``.
    The log-log exponents of the rate in coupling and relaxation are
    reported together with a comparison of the rate ∝ g²/λ and rate ∝ g²λ
    hypotheses.
    """
    points: list[EliminationPoint] = []
    for g in coupling_values:
        for lam in relaxation_values:
            if g > 0.1 * lam:
                raise ValueError(
                    f"coupling {g} exceeds a tenth of relaxation {lam}")
            model = probe_model(g, lam)
            dim = model.dim
            rho0 = np.zeros((dim, dim), dtype=complex)
            # excited pair (qubits 0,1 set), damped ancilla empty,
            # translation ancilla maximally mixed
            rho0[0b0011, 0b0011] = 0.5
            rho0[0b1011, 0b1011] = 0.5
            projector = np.zeros(dim)
            projector[[0b0011, 0b1011, 0b0111, 0b1111]] = 1.0

            if g == 0.0:
                points.append(EliminationPoint(g, lam, 0.0, 0.0))
                continue
            predicted = 4.0 * g * g / lam
            burn = burn_in_factor / lam
            horizon = burn + decay_window / predicted
            t_grid = np.linspace(burn, horizon, 40)
            gen = _dense_superoperator(model)
            vals, vecs = np.linalg.eig(gen)
            coeffs = np.linalg.solve(vecs, rho0.ravel())
            diag_idx = np.arange(dim) * dim + np.arange(dim)
            weights = (projector[:, None] * vecs[diag_idx, :]).sum(axis=0) * coeffs
            pops = np.real(weights[None, :] * np.exp(
                np.outer(t_grid, vals))).sum(axis=1)
            if np.any(pops <= 0.0):
                raise FitRejectedError("pair population lost positivity")
            design = np.column_stack([t_grid, np.ones_like(t_grid)])
            sol, *_ = np.linalg.lstsq(design, np.log(pops), rcond=None)
            fit_residual = float(np.max(np.abs(
                np.log(pops) - design @ sol)))
            if fit_residual > fit_residual_tol:
                raise FitRejectedError(
                    f"log-linear fit residual {fit_residual:.3e} exceeds "
                    f"{fit_residual_tol:.1e} at g={g}, relaxation={lam}")
            points.append(EliminationPoint(g, lam, float(-sol[0]), fit_residual))

    fitted = [pt for pt in points if pt.coupling > 0.0 and pt.rate > 0.0]
    if len(fitted) < 3 or len({pt.coupling for pt in fitted}) < 2 \
            or len({pt.relaxation for pt in fitted}) < 2:
        raise ValueError("need at least a 2x2 grid of positive couplings")
    logs = np.array([[math.log(pt.coupling), math.log(pt.relaxation), 1.0]
                     for pt in fitted])
    log_rates = np.array([math.log(pt.rate) for pt in fitted])
    exponents, *_ = np.linalg.lstsq(logs, log_rates, rcond=None)
    offsets_inverse = log_rates - 2.0 * logs[:, 0] + logs[:, 1]
    offsets_direct = log_rates - 2.0 * logs[:, 0] - logs[:, 1]
    residuals = {
        "coupling^2 / relaxation": float(np.std(offsets_inverse)),
        "coupling^2 * relaxation": float(np.std(offsets_direct)),
    }
    favored = min(residuals, key=residuals.get)
    prefactor = float(np.exp(np.mean(
        offsets_inverse if favored == "coupling^2 / relaxation"
        else offsets_direct)))
    return EliminationReport(points=points,
                             coupling_exponent=float(exponents[0]),
                             relaxation_exponent=float(exponents[1]),
                             model_residuals=residuals,
                             favored_model=favored,
                             prefactor=prefactor)
