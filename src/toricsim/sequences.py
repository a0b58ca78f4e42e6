"""Pulse sequences whose effective Hamiltonian contains engineered 4-body
terms, plus the tooling that verifies them.

A :class:`Gate` is ``exp(-i * angle * generator)`` with a Hermitian Pauli
string as generator; a :class:`GateSequence` lists gates in the order they
are applied, so the composed unitary is ``U = g_last ... g_2 g_1``.

The core sequence :func:`u123` nests two echo loops,

    U123 = U12 U3(c) U12' U3(-c),   U12 = U2(b) U1(a) U2(-b) U1(-a),

written time-ordered (first pulse first) as the 10-gate list

    U3(-c), U2(-b), U1(-a), U2(b), U1(a), U3(c), U1(-a), U2(-b), U1(a), U2(b).

With the default generators ZYII, IXYI, IIXZ the double commutator closes
onto ZZZZ, so the leading effective term is a 4-body stabilizer coupling
with strength (2/5) a b c / tau.  :func:`echoed_u123` repeats the sequence
with the signs of a and c reversed, cancelling the 4th-order residuals.

Effective Hamiltonians are extracted with the principal matrix logarithm of
the composed unitary (exact to machine precision, all orders), which is the
oracle for every scaling claim here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg

from .pauli import PRUNE_TOL, PauliString, PauliSum, decompose

DEFAULT_VERTEX_GENERATORS = (
    PauliString.from_label("ZYII"),
    PauliString.from_label("IXYI"),
    PauliString.from_label("IIXZ"),
)

BRANCH_TOL = 1e-6


class BranchCutError(ValueError):
    """Composed unitary has an eigenphase too close to the log branch cut."""


@dataclass(frozen=True)
class Gate:
    """One pulse ``exp(-i * angle * generator)`` lasting ``duration``."""

    generator: PauliString
    angle: float
    duration: float = 1.0

    def __post_init__(self):
        if not self.generator.is_hermitian:
            raise ValueError("gate generator must be Hermitian")
        if not math.isfinite(self.angle):
            raise ValueError("gate angle must be finite")
        if self.duration <= 0:
            raise ValueError("gate duration must be positive")

    def unitary(self) -> np.ndarray:
        # Hermitian Pauli strings are involutions, so the exponential is
        # cos(angle) I - i sin(angle) G exactly.
        dim = 2 ** self.generator.n_qubits
        g = self.generator.to_dense()
        return math.cos(self.angle) * np.eye(dim) - 1j * math.sin(self.angle) * g


@dataclass(frozen=True)
class GateSequence:
    """Time-ordered pulses on a common register."""

    gates: tuple[Gate, ...]
    label: str = ""

    def __post_init__(self):
        if not self.gates:
            raise ValueError("empty sequence")
        sizes = {g.generator.n_qubits for g in self.gates}
        if len(sizes) != 1:
            raise ValueError(f"gates span different registers: {sorted(sizes)}")

    @property
    def n_qubits(self) -> int:
        return self.gates[0].generator.n_qubits

    @property
    def total_duration(self) -> float:
        return sum(g.duration for g in self.gates)

    def unitary(self) -> np.ndarray:
        u = np.eye(2 ** self.n_qubits, dtype=complex)
        for gate in self.gates:
            u = gate.unitary() @ u
        return u

    def then(self, other: "GateSequence", label: str = "") -> "GateSequence":
        """This sequence followed by ``other``."""
        return GateSequence(self.gates + other.gates,
                            label or f"{self.label}+{other.label}")


def u123(alpha: float, beta: float, gamma: float,
         generators: Sequence[PauliString] = DEFAULT_VERTEX_GENERATORS,
         tau: float = 1.0) -> GateSequence:
    """Ten-pulse nested-echo sequence over total time ``10 tau``."""
    g1, g2, g3 = generators
    if not (g1.n_qubits == g2.n_qubits == g3.n_qubits):
        raise ValueError("generators must share one register")
    order = [(g3, -gamma), (g2, -beta), (g1, -alpha), (g2, beta), (g1, alpha),
             (g3, gamma), (g1, -alpha), (g2, -beta), (g1, alpha), (g2, beta)]
    gates = tuple(Gate(g, a, tau) for g, a in order)
    return GateSequence(gates, label="u123")


def echoed_u123(alpha: float, beta: float, gamma: float,
                generators: Sequence[PauliString] = DEFAULT_VERTEX_GENERATORS,
                tau: float = 1.0) -> GateSequence:
    """``u123`` followed by its (alpha, gamma) sign-reversed twin; 20 pulses
    over ``20 tau``.  The reversal cancels the 4th-order residual terms."""
    first = u123(alpha, beta, gamma, generators, tau)
    second = u123(-alpha, beta, -gamma, generators, tau)
    return first.then(second, label="echoed_u123")


@dataclass
class EffectiveHamiltonianReport:
    """Matrix-log extraction result.

    ``residual`` removes the target labels from ``h_eff`` wholesale, so its
    norm measures everything the target model does not account for.
    ``target_coefficients`` maps each target label to (measured, predicted).
    """

    h_eff: PauliSum
    total_time: float
    hermiticity_defect: float
    unitarity_defect: float
    residual: PauliSum
    target_coefficients: dict[str, tuple[complex, complex]] = field(default_factory=dict)


def effective_hamiltonian(seq: GateSequence,
                          targets: Mapping[str, complex] | None = None
                          ) -> EffectiveHamiltonianReport:
    """Extract ``H_eff = (i/T) log U`` from the composed unitary.

    The principal logarithm is taken on the unitary eigenbasis (Schur form
    of a normal matrix), so every eigenphase lies in (-pi, pi].  Phases
    within ``BRANCH_TOL`` of the cut raise :class:`BranchCutError` instead
    of silently wrapping.
    """
    u = seq.unitary()
    dim = u.shape[0]
    unitarity = float(np.linalg.norm(u.conj().T @ u - np.eye(dim), ord=np.inf))
    t, q = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    margin = float(np.pi - np.max(np.abs(phases))) if dim else np.pi
    if margin < BRANCH_TOL:
        raise BranchCutError(
            f"eigenphase within {margin:.2e} of the principal branch cut; "
            "reduce angles or total time")
    total_time = seq.total_duration
    h = q @ np.diag(-phases / total_time) @ q.conj().T
    defect = float(np.max(np.abs(h - h.conj().T)))
    h = 0.5 * (h + h.conj().T)
    h_eff = decompose(h)
    targets = dict(targets or {})
    measured = {label: h_eff.coefficient(label) for label in targets}
    keep = {s: c for s, c in h_eff.items()
            if s.label(with_phase=False) not in targets}
    residual = PauliSum(keep, n_qubits=seq.n_qubits)
    return EffectiveHamiltonianReport(
        h_eff=h_eff, total_time=total_time, hermiticity_defect=defect,
        unitarity_defect=unitarity, residual=residual,
        target_coefficients={l: (measured[l], complex(p)) for l, p in targets.items()})


@dataclass
class OrderScanReport:
    """Log-log scaling fits of effective-Hamiltonian coefficients."""

    term_slopes: dict[str, float]
    residual_slope: float


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    slope, _ = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)


def order_scan(reports: Mapping[float, EffectiveHamiltonianReport]
               ) -> OrderScanReport:
    """Fit the power-law order in phi of every non-target coefficient, and
    of the l2 norm of all of them together, from one extracted report per
    angle, ``{phi: report}``; each report's targets are the labels of its
    ``target_coefficients``.  Nothing is solved here.

    Points whose coefficient sits below ``10 * PRUNE_TOL`` are dropped from
    that term's fit (they are pruning-floor noise); a term left with fewer
    than two usable points gets no slope.
    """
    phis = sorted(reports)
    if len(phis) < 4:
        raise ValueError("order scan needs at least 4 phi values")
    tables: dict[str, dict[float, float]] = {}
    residual_norms = []
    for phi in phis:
        rep = reports[phi]
        residual_norms.append(rep.residual.l2_norm())
        for s, c in rep.h_eff.items():
            label = s.label(with_phase=False)
            if label not in rep.target_coefficients:
                tables.setdefault(label, {})[phi] = abs(c)

    floor = 10.0 * PRUNE_TOL
    slopes: dict[str, float] = {}
    for label, by_phi in tables.items():
        xs = np.array([p for p in phis if by_phi.get(p, 0.0) >= floor])
        if len(xs) >= 2:
            slopes[label] = _loglog_slope(xs, np.array([by_phi[p] for p in xs]))

    res = np.array(residual_norms)
    usable = res >= floor
    residual_slope = (_loglog_slope(np.array(phis)[usable], res[usable])
                      if usable.sum() >= 2 else float("nan"))
    return OrderScanReport(term_slopes=slopes, residual_slope=residual_slope)


def cycled(p: PauliString) -> PauliString:
    """Cyclic letter permutation x -> y -> z -> x on every qubit.

    In mask form that is (x, z) -> (x xor z, x).
    """
    return PauliString(p.n_qubits, p.x_mask ^ p.z_mask, p.x_mask, p.phase_quarter)


def plaquette_generators() -> tuple[PauliString, ...]:
    """Generators for the X-type 4-body term: one cyclic permutation applied
    to the default Z-type set, e.g. ZYII -> XZII."""
    return tuple(cycled(g) for g in DEFAULT_VERTEX_GENERATORS)


def residual_scale(phi: float, tau: float = 1.0) -> float:
    """chi = (2/(5 tau)) phi^5, the 5th-order residual coefficient scale
    for the common-angle sequence (alpha = beta = gamma = phi)."""
    return (2.0 / (5.0 * tau)) * phi ** 5


def four_body_strength(phi: float, tau: float = 1.0) -> float:
    """Magnitude of the synthesized 4-body coefficient at common angle phi.

    The matrix-log extraction measures
    (2/(5 tau)) a b c (1 - (2/3)(a^2 + b^2 + c^2)), i.e. a quadratic
    correction of weight 2 at common angle.  The power-series expansion
    of the echoed pulse product in
    ``tests/test_sequences.py::test_echoed_zzzz_power_series`` gives the
    same -(2/5) phi^3 + (4/5) phi^5 without a matrix logarithm; any other
    quadratic weight w misses it by (w - 2) phi^2 relative.
    """
    return residual_scale(phi, tau) * (1.0 - 2.0 * phi ** 2) / phi ** 2


def eq3_targets(phi: float, tau: float = 1.0, echoed: bool = True,
                ) -> dict[str, float]:
    """Analytic coefficient predictions for the common-angle sequence
    (alpha = beta = gamma = phi) with the default Z-type generators.

    Signs follow the operator-product convention used by :func:`u123`
    (rightmost pulse applied first), as measured by the matrix log: the
    4-body ZZZZ term enters with a negative coefficient, so the sequence
    synthesizes a stabilizer coupling whose ground space is the +1 joint
    eigenspace.  The echoed sequence keeps one residual term on IXYI; the
    unechoed one adds the two 4th-order terms on IXZZ (negative) and ZZYI
    (positive) plus a second 5th-order term on IIXZ.
    """
    chi = residual_scale(phi, tau)
    targets = {"ZZZZ": -four_body_strength(phi, tau), "IXYI": chi}
    if not echoed:
        targets["IXZZ"] = -chi / phi
        targets["ZZYI"] = chi / phi
        targets["IIXZ"] = -2.0 * chi
    return targets
