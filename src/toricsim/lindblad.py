"""Engineered dissipation for the stabilizer code.

Pair-creation / translation operators built from adjacent stabilizer
neighborhoods, thermal and cooling jump-operator sets, stationary states
and time evolution of the master equation, three-level ancilla pumping,
and a small adiabatic-elimination rate probe.

Generator convention throughout: with jump entries c = sqrt(rate) * op,

    d rho / dt = -i [H, rho] + sum_c (2 c rho c† - c†c rho - rho c†c)

so a jump of rate r relaxes the target population at rate 2r.

Lattice dissipation runs in an orthonormal eigenbasis of the stabilizer
group (``StabilizerFrame``).  Its states carry two labels: an orbit o of
the plaquette-flip group, which holds the vertex stabilizers and the
logical Z sector, and a group character t, which holds the plaquette
stabilizers.  The labels of a bitstring come from one GF(2) elimination of
the plaquette generators (``StabilizerFrame.labels``) and are linear, so
every Pauli string acts as a signed permutation there by an XOR on each
label, o -> o ^ a and t -> t ^ u, which ``StabilizerFrame.strings`` reads
off the masks.  Each engineered channel moves one label at a rate the
other label does not change, so the population chain splits into an orbit
chain M_e and a character chain M_m (``_LabelChains``), built with no
channel carried into the frame: the joint chain is M_e ⊗ 1 + 1 ⊗ M_m.
Depolarizing Y moves both labels; the joint chain is then no Kronecker
sum, but each label's marginal is still an autonomous chain (strong
lumpability).  The stationary marginals are the null spaces of M_e and
M_m, and a frame-diagonal start evolves exactly as P(t) = exp(M_e t) P0
exp(M_m t)ᵀ, or by marginals when M is no Kronecker sum.  H, the
excitation weights and the Z loops are label-additive in the frame,
d(o, t) = d_e(o) + d_m(t), so they are read off the marginals; a chain
that is no Kronecker sum carries nothing else.

Lattice dissipation takes and returns frame populations only, and builds
no 2^n x 2^n state.  A model without a lattice, a start that is not a
population vector, or a model whose population sector does not close (for
example with a transverse field) raises ``ValueError``.  ``gibbs_state``,
``trace_distance`` and ``StabilizerFrame.operator`` are dense L = 2 test
oracles that no scenario calls.  The vectorized superoperator
(``_superoperator``) serves only the adiabatic-elimination probe, which
eigendecomposes it on the entries of vec(rho) that its start reaches.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from . import lattice as lt
from .pauli import QUARTER_TURNS, PauliString, PauliSum
from .spectra import SparseHamiltonian, _echelon, _span, build_hamiltonian

# the dense label chains: 1024 x 1024 at L = 3 (18 qubits), but 2^17 x 2^17
# (128 GiB) at L = 4
FRAME_QUBIT_CAP = 18
TRACE_TOL_PER_TIME = 1e-9    # trace / positivity drift budget per unit time
EIGENVALUE_FLOOR = -1e-10    # smallest admissible density eigenvalue at t = 0


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
    """Hamiltonian plus a list of rate-weighted jump operators.

    The label chains (:func:`_compile_generator`) are built on first use
    and cached on the model.
    """

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
        object.__setattr__(self, "_generator", None)

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

    @property
    def frame(self) -> StabilizerFrame:
        """Stabilizer frame of the compiled generator (lattice-backed
        models only)."""
        return _compile_generator(self).frame

    def with_rates(self, rates: Sequence[float]) -> "LindbladModel":
        """This model with jump ``k`` at ``rates[k]``; zero-rate jumps are
        dropped.

        A lattice-backed copy reweights the label chains of this model
        (:meth:`_LabelChains.reweighted`), which are linear in the rates,
        so a rate sweep shares one frame and one pass over the strings.
        """
        if len(rates) != len(self.jumps):
            raise ValueError(f"{len(rates)} rates for {len(self.jumps)} jumps")
        terms = [JumpTerm(jt.label, float(r), jt.operator)
                 for jt, r in zip(self.jumps, rates)]
        keep = [k for k, jt in enumerate(terms) if jt.rate > 0.0]
        model = dataclasses.replace(self, jumps=tuple(terms[k] for k in keep))
        if self.lattice is not None:
            object.__setattr__(model, "_generator", _compile_generator(
                self).reweighted(keep, [jt.rate for jt in model.jumps]))
        return model


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


def _char_sign(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """(-1)**|t & e|, the value of character t on group element e."""
    return 1.0 - 2.0 * (np.bitwise_count(t & e) & 1)


@dataclass(frozen=True, eq=False)
class FrameStrings:
    """The frame action of a list of Pauli strings, one entry per string.

    String s maps the frame state |o, t> to

        amplitude(s, o, t) |o ^ shift[s], t ^ flips[s]>,
        amplitude(s, o, t) = c i**turns[s, o] (-1)**|(t ^ flips[s]) & element[s]|,

    where x = reps[shift[s]] ^ group_masks[element[s]] labels the X-mask
    (:meth:`StabilizerFrame.labels`).  The labels are GF(2)-linear, so
    reps[o] ^ x carries the labels (o ^ shift[s], element[s]) on every
    orbit: both label maps are XORs, and no array spans both labels.
    """

    owner: np.ndarray       # (n_strings,) index of the Pauli sum of each string
    coeffs: np.ndarray      # (n_strings,) complex coefficients
    x: np.ndarray           # (n_strings,) X-masks
    turns: np.ndarray       # (n_strings, n_orbits) q(reps[o]) mod 4
    shift: np.ndarray       # (n_strings,) orbit map o -> o ^ shift
    element: np.ndarray     # (n_strings,) group element reached
    flips: np.ndarray       # (n_strings,) character map t -> t ^ u

    @property
    def keeps_labels(self) -> np.ndarray:
        """Strings that keep both labels: X in the plaquette-flip group and
        u = 0."""
        return (self.shift == 0) & (self.flips == 0)

    def amplitudes(self, orbits: slice, chars: np.ndarray) -> np.ndarray:
        """amplitude(s, o, t) of every string on the orbits ``orbits`` and
        the characters ``chars``, shape (n_strings, n_o, n_t)."""
        values = self.coeffs[:, None] * QUARTER_TURNS[self.turns[:, orbits]]
        signs = _char_sign(chars[None, :] ^ self.flips[:, None],
                           self.element[:, None])
        return values[:, :, None] * signs[:, None, :]


class StabilizerFrame:
    """Orthonormal eigenbasis of the vertex and plaquette stabilizer group.

    Basis states are labeled by an orbit of the plaquette-flip group acting
    on computational bitstrings and by a group character.  The plaquette
    generators are reduced once to GF(2) echelon form, each row carrying
    the generators it combines: clearing the pivot bits of a bitstring
    leaves its orbit representative, the coset minimum, and sums the group
    element between them (:meth:`labels`).  Every Pauli string maps one
    basis state to exactly one basis state times a scalar, by an XOR on
    each label (:meth:`strings`), so operators built from few strings are
    sparse signed permutations here; :meth:`operator` assembles the frame
    matrix of a Pauli sum.  No table here spans the 2^n bitstrings.
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
        # a dependent generator reduces to zero with a nonzero right side
        pivots = _echelon((m, 1 << k) for k, m in enumerate(self.generator_masks))
        if pivots is None:
            raise ValueError("stabilizer generators are not independent")
        self._rows = [(np.uint64(lead), np.uint64(row), np.uint64(rhs))
                      for lead, (row, rhs) in sorted(pivots.items())]
        self.group_masks = _span(self.generator_masks)
        self.n_char = self.group_masks.size
        # the states zero at every pivot: the coset minima, ascending
        self.reps = _span(1 << b for b in range(n) if b not in pivots)
        self.n_orbits = self.reps.size
        self.size = self.n_orbits * self.n_char

    def labels(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(orbit, element) of each bitstring b, b = reps[orbit] ^
        group_masks[element]: each pivot bit of b is cleared by its row,
        which adds the generators it combines to the element."""
        rest = np.array(states, dtype=np.uint64)
        element = np.zeros_like(rest)
        for lead, row, rhs in self._rows:
            hit = rest >> lead & np.uint64(1)
            rest ^= hit * row
            element ^= hit * rhs
        return np.searchsorted(self.reps, rest), element

    # -- Pauli strings on the two labels ----------------------------------

    def strings(self, ops: Sequence[PauliSum]) -> FrameStrings:
        """The action of every string of ``ops`` on the orbit and character
        labels: each X-mask is labeled once, and the phases are read on the
        orbit representatives in one vectorized pass (see
        :class:`FrameStrings`)."""
        if any(op.n_qubits != self.n_qubits for op in ops):
            raise ValueError("operator register size mismatch")
        terms = [(k, coeff, s) for k, op in enumerate(ops)
                 for s, coeff in op.items()]
        x = np.array([s.x_mask for *_, s in terms], dtype=np.uint64)
        z = np.array([s.z_mask for *_, s in terms], dtype=np.uint64)
        # bit k of u: the string anticommutes with plaquette generator k
        gens = np.array(self.generator_masks, dtype=np.uint64)
        anti = (np.bitwise_count(z[:, None] & gens[None, :]) & 1).astype(np.uint64)
        shift, element = self.labels(x)
        return FrameStrings(
            owner=np.array([k for k, *_ in terms], dtype=np.int64),
            coeffs=np.array([coeff for _, coeff, _ in terms], dtype=complex),
            x=x,
            turns=np.array([s.quarter_turns(self.reps) for *_, s in terms],
                           dtype=np.int64).reshape(-1, self.n_orbits) & 3,
            shift=shift, element=element,
            flips=(anti << np.arange(gens.size, dtype=np.uint64)).sum(
                axis=1, dtype=np.uint64))

    def label_diagonal(self, op: PauliSum) -> tuple[np.ndarray, np.ndarray]:
        """Real frame diagonal of a Hermitian Pauli sum as an orbit part and
        a character part, d(o, t) = d_e(o) + d_m(t).

        A string that moves either label has a zero diagonal.  One that
        keeps both is diagonal with the value c i**q(reps[o]) (-1)**|t & e|:
        with e = 0 it depends on the orbit alone, and with q the same on
        every orbit representative on the character alone.  A diagonal
        string that depends on both labels (the product of a vertex and a
        plaquette stabilizer, say) raises ``ValueError``.
        """
        s = self.strings([op])
        still = s.keeps_labels
        on_char = still & (s.element != 0)
        if np.any(on_char & np.any(s.turns != s.turns[:, :1], axis=1)):
            raise ValueError("a diagonal string depends on both frame labels")
        chars = np.arange(self.n_char, dtype=np.uint64)
        on_orbit = s.amplitudes(slice(None), chars[:1])[:, :, 0]
        on_t = s.amplitudes(slice(0, 1), chars)[:, 0]
        return (on_orbit[still & (s.element == 0)].sum(axis=0).real,
                on_t[on_char].sum(axis=0).real)

    # a test oracle, kept here because perfbench/spans.py wraps it by name
    def operator(self, op: PauliSum) -> scipy.sparse.csr_matrix:
        """Frame matrix of a Pauli sum, assembled from :meth:`strings`:
        string s puts amplitude(s, o, t) at (o ^ shift, t ^ u), (o, t)."""
        s = self.strings([op])
        orbits = np.arange(self.n_orbits)
        chars = np.arange(self.n_char, dtype=np.uint64)
        rows = (((orbits ^ s.shift[:, None]) * self.n_char)[:, :, None]
                + (chars ^ s.flips[:, None]).astype(np.int64)[:, None, :])
        cols = np.arange(self.size).reshape(self.n_orbits, self.n_char)
        mat = scipy.sparse.coo_matrix(
            (s.amplitudes(slice(None), chars).ravel(),
             (rows.ravel(), np.broadcast_to(cols, rows.shape).ravel())),
            shape=(self.size, self.size)).tocsr()
        mat.data[np.abs(mat.data) < 1e-15] = 0.0
        mat.eliminate_zeros()
        return mat


# ---------------------------------------------------------------------------
# compiled generators
# ---------------------------------------------------------------------------


def _superoperator(h, channels) -> scipy.sparse.csr_matrix:
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


def _rate_matrix(shifts: np.ndarray, flows: np.ndarray) -> np.ndarray:
    """Rate matrix of a chain whose channel c moves state i to i ^ shifts[c]
    at rate flows[c, i]: m[r, i] is the rate i -> r, and every column sums
    to zero."""
    n = flows.shape[1]
    states = np.arange(n)
    dest = states ^ shifts.astype(np.int64)[:, None]
    m = np.bincount((dest * n + states).ravel(), flows.ravel(),
                    minlength=n * n).reshape(n, n)
    m[np.diag_indices(n)] -= flows.sum(axis=0)
    return m


@dataclass(frozen=True, eq=False)
class _LabelChains:
    """The population chain of a lattice-backed model as two label chains:
    the orbit chain M_e on ``n_orbits`` states and the character chain M_m
    on ``n_char`` states, built by index arithmetic on the jump strings
    (:meth:`StabilizerFrame.strings`).

    The strings of a channel must share one map of the labels (the same
    character flip u, and X-masks in one coset of the plaquette-flip
    group), so that the channel is a partial permutation in the frame, or
    ``ValueError`` names it.  A channel moves the orbit (X outside the
    group), the character (u != 0), both, or neither.  Its rate on one
    label must not depend on the other: for an orbit move its strings share
    X, so |v(o, t)|^2 depends on o alone, and for a character move their
    relative phases are the same on every orbit, so it depends on t alone;
    a channel that breaks this raises ``ValueError``.  Each label's flow is
    therefore read on one slice of the other, t = 0 and o = 0, and each
    label's marginal is an autonomous chain (strong lumpability; Kemeny &
    Snell, *Finite Markov Chains*, 1960).  When no channel moves both
    labels the joint chain is the Kronecker sum M = M_e ⊗ 1 + 1 ⊗ M_m
    (``kronecker_sum``); a depolarizing Y moves both.  H must keep both
    labels, or the population sector does not close, and its frame
    diagonal is E_e(o) + E_m(t).  The chains are linear in the rates, so a
    rate sweep reweights the same unit flows (:meth:`reweighted`).
    """

    frame: StabilizerFrame
    energies: tuple[np.ndarray, np.ndarray]   # H's frame diagonal: E_e, E_m
    rates: np.ndarray           # (n_channels,)
    orbit_shifts: np.ndarray    # (n_channels,) orbit map o -> o ^ a
    orbit_flows: np.ndarray     # (n_channels, n_orbits) 2|v(o, 0)|^2, unit rate
    char_flips: np.ndarray      # (n_channels,) character map t -> t ^ u
    char_flows: np.ndarray      # (n_channels, n_char) 2|v(0, t)|^2, unit rate

    @classmethod
    def build(cls, model: LindbladModel,
              frame: StabilizerFrame) -> "_LabelChains":
        h = model.hamiltonian.to_pauli_sum()
        if not frame.strings([h]).keeps_labels.all():
            raise ValueError("H is not diagonal in the stabilizer frame, so "
                             "the population sector does not close")
        s = frame.strings([jt.operator for jt in model.jumps])
        lead = np.searchsorted(s.owner, s.owner)   # first string per channel
        moves_orbit, moves_char = s.shift != 0, s.flips != 0
        relative = (s.turns - s.turns[lead]) & 3
        checks = (
            ((s.shift == s.shift[lead]) & (s.flips == s.flips[lead]),
             "is not a partial permutation in the stabilizer frame"),
            ((~moves_orbit | (s.x == s.x[lead]))
             & (~moves_char | np.all(relative == relative[:, :1], axis=1)),
             "has a rate that depends on both frame labels"))
        for ok, why in checks:
            if not ok.all():
                bad = model.jumps[s.owner[np.argmin(ok)]].label
                raise ValueError(f"channel {bad!r} {why}")
        # an orbit move is read on the slice t = 0, a character move on o = 0
        chars = np.arange(frame.n_char, dtype=np.uint64)
        slices = ((moves_orbit, s.amplitudes(slice(None), chars[:1])[:, :, 0]),
                  (moves_char, s.amplitudes(slice(0, 1), chars)[:, 0]))
        n = len(model.jumps)
        flows = []
        for moves, amplitudes in slices:
            v = np.zeros((n, amplitudes.shape[1]), dtype=complex)
            np.add.at(v, s.owner[moves], amplitudes[moves])
            v[np.abs(v) < 1e-15] = 0.0
            flows.append(2.0 * np.abs(v) ** 2)
        orbit_shifts = np.zeros(n, dtype=np.int64)
        orbit_shifts[s.owner] = s.shift
        char_flips = np.zeros(n, dtype=np.uint64)
        char_flips[s.owner] = s.flips
        return cls(frame=frame, energies=frame.label_diagonal(h),
                   rates=np.array([jt.rate for jt in model.jumps], dtype=float),
                   orbit_shifts=orbit_shifts, orbit_flows=flows[0],
                   char_flips=char_flips, char_flows=flows[1])

    def reweighted(self, keep: Sequence[int],
                   rates: Sequence[float]) -> "_LabelChains":
        """The chains of channels ``keep`` at ``rates``."""
        return dataclasses.replace(
            self, rates=np.array(rates, dtype=float),
            orbit_shifts=self.orbit_shifts[keep], orbit_flows=self.orbit_flows[keep],
            char_flips=self.char_flips[keep], char_flows=self.char_flows[keep])

    @property
    def kronecker_sum(self) -> bool:
        """No channel moves both labels."""
        return not np.any((self.orbit_shifts != 0) & (self.char_flips != 0))

    @functools.cached_property
    def orbit_chain(self) -> np.ndarray:
        """M_e, built on first use."""
        return _rate_matrix(self.orbit_shifts, self.rates[:, None] * self.orbit_flows)

    @functools.cached_property
    def char_chain(self) -> np.ndarray:
        """M_m, built on first use."""
        return _rate_matrix(self.char_flips, self.rates[:, None] * self.char_flows)

    @property
    def counters(self) -> dict:
        return {"orbit_states": self.frame.n_orbits,
                "char_states": self.frame.n_char,
                "kronecker_sum": self.kronecker_sum}


def _compile_generator(model: LindbladModel) -> _LabelChains:
    """Label chains of a lattice-backed model, built once per model and
    cached on it."""
    if model._generator is None:
        if model.lattice is None:
            raise ValueError(f"model {model.label!r} has no lattice, so it "
                             "has no stabilizer frame to be solved in")
        object.__setattr__(model, "_generator", _LabelChains.build(
            model, StabilizerFrame(model.lattice)))
    return model._generator


# what the results of a chain that is not a Kronecker sum cannot give
_MARGINALS_ONLY = (
    "a channel moves both frame labels (a depolarizing Y does), so the chain "
    "is not a Kronecker sum and carries only the two label marginals; read "
    "label-additive observables (energy, excitation density, Z loops) off "
    "them")


def _check_trace_and_floor(defect: float, low: float, trace_tol: float,
                           eig_floor: float, where: str = "") -> None:
    """Raise ``PositivityError`` unless defect <= trace_tol and low >=
    eig_floor; a NaN meets neither bound."""
    if not defect <= trace_tol:
        raise PositivityError(
            f"trace defect {defect:.3e} exceeds {trace_tol:.1e}{where}")
    if not low >= eig_floor:
        raise PositivityError(
            f"eigenvalue {low:.3e} below floor {eig_floor:.1e}{where}")


def _start_populations(frame: StabilizerFrame, p0: np.ndarray) -> np.ndarray:
    """The frame populations ``p0``, a real vector checked like a density
    matrix's spectrum."""
    p0 = np.asarray(p0)
    if p0.ndim != 1:
        raise ValueError(f"the start must be the {frame.size} frame "
                         f"populations, not an array of shape {p0.shape}")
    if p0.shape != (frame.size,):
        raise ValueError(f"{p0.size} populations for {frame.size} "
                         "frame states")
    if np.any(np.imag(p0) != 0.0):
        raise ValueError("frame populations must be real")
    p0 = np.real(p0).astype(float)
    _check_trace_and_floor(abs(p0.sum() - 1.0), p0.min(), 1e-9,
                           EIGENVALUE_FLOOR)
    return p0


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------


@dataclass
class EvolutionResult:
    """Label-chain trajectory with per-sample conservation monitors.

    ``orbit_populations`` and ``char_populations`` hold the two label
    marginals at each sample.  When the chain is a Kronecker sum, ``joint``
    holds the frame populations as (n_times, n_orbits, n_char) and
    ``populations`` is its (n_times, n_orbits * n_char) view, index
    o * n_char + t; otherwise ``joint`` is None and ``populations`` raises
    ``ValueError``.
    """

    times: np.ndarray
    orbit_populations: np.ndarray       # (n_times, n_orbits)
    char_populations: np.ndarray        # (n_times, n_char)
    joint: np.ndarray | None = field(repr=False)
    trace_defects: np.ndarray
    min_eigenvalues: np.ndarray
    frame: StabilizerFrame = field(repr=False, compare=False)
    counters: dict = field(default_factory=dict)  # sizes and evaluations
    path: str = "label-chains"          # the engine: two label chains

    @property
    def populations(self) -> np.ndarray:
        if self.joint is None:
            raise ValueError(_MARGINALS_ONLY)
        return self.joint.reshape(self.times.size, -1)


def evolve(model: LindbladModel, p0: np.ndarray, t_final: float,
           sample_times: Sequence[float] | None = None) -> EvolutionResult:
    """Evolve a frame-diagonal start under the master equation up to
    ``t_final``.

    ``p0`` is the frame populations, a real vector of ``frame.size``
    entries indexed o * n_char + t; any other shape, a dense density
    matrix included, raises ``ValueError``.  The run is on the label chains
    of the model (:class:`_LabelChains`), with one ``scipy.linalg.expm`` of
    each per distinct increment between samples.  When every channel moves one
    label, M = M_e ⊗ 1 + 1 ⊗ M_m, and the populations P, reshaped to
    (n_orbits, n_char), evolve exactly as P(t) = exp(M_e t) P0
    exp(M_m t)ᵀ.  Otherwise each label's marginal evolves exactly by its
    own chain, and only the marginals are kept.  A model without a
    lattice, or whose population sector does not close, raises
    ``ValueError``.  No dense state is built.

    Trace and positivity are monitored at every sample time against a
    budget of 1e-9 per unit time; violations, NaN included, raise
    ``PositivityError``.
    The frame basis is orthonormal, so the monitors read the populations:
    the trace defect is |sum p - 1| and the smallest eigenvalue is min p
    (over both marginals when only those are kept).
    """
    if t_final < 0.0:
        raise ValueError("t_final must be >= 0")
    gen = _compile_generator(model)
    p0 = _start_populations(gen.frame, p0)
    if sample_times is None:
        times = np.array([0.0, t_final]) if t_final > 0 else np.array([0.0])
    else:
        times = np.asarray(sample_times, dtype=float)
        if times.size == 0 or times[0] < 0 or np.any(np.diff(times) < 0) \
                or times[-1] > t_final + 1e-12:
            raise ValueError("sample times must ascend within [0, t_final]")
    if t_final == 0.0 or (times.size == 1 and times[0] == 0.0):
        times = np.array([0.0])
    start = p0.reshape(gen.frame.n_orbits, gen.frame.n_char)
    if gen.kronecker_sum:
        joint, n_props = _propagate_chain(
            (gen.orbit_chain, gen.char_chain), start, times)
        orbit, char = joint.sum(axis=2), joint.sum(axis=1)
        trace_defects = np.abs(joint.sum(axis=(1, 2)) - 1.0)
        min_eigs = joint.min(axis=(1, 2))
    else:
        joint = None
        orbit, n_props = _propagate_chain((gen.orbit_chain,),
                                          start.sum(axis=1), times)
        char, _ = _propagate_chain((gen.char_chain,), start.sum(axis=0), times)
        trace_defects = np.maximum(np.abs(orbit.sum(axis=1) - 1.0),
                                   np.abs(char.sum(axis=1) - 1.0))
        min_eigs = np.minimum(orbit.min(axis=1), char.min(axis=1))
    for t, defect, low in zip(times, trace_defects, min_eigs):
        budget = TRACE_TOL_PER_TIME * max(t, 1.0)
        _check_trace_and_floor(defect, low, budget,
                               EIGENVALUE_FLOOR - 10.0 * budget, f" at t={t}")
    return EvolutionResult(times=times, orbit_populations=orbit,
                           char_populations=char, joint=joint,
                           trace_defects=trace_defects,
                           min_eigenvalues=min_eigs, frame=gen.frame,
                           counters={**gen.counters,
                                     "propagator_evaluations": n_props})


def _propagate_chain(chains: Sequence[np.ndarray], p0: np.ndarray,
                     times: np.ndarray) -> tuple[np.ndarray, int]:
    """Populations of ``p0`` at ``times``, and the number of distinct
    increments between samples, each of which builds exp(M dt) once per
    chain.  ``p0`` has one axis per chain in ``chains``, and each
    propagator acts on its own axis: with two chains a step is
    P -> exp(M_e dt) P exp(M_m dt)ᵀ."""
    propagators: dict[float, list[np.ndarray]] = {}
    p, pops, t_prev = p0, [], 0.0
    for t in times:
        dt = float(t) - t_prev
        if dt > 0.0:
            if dt not in propagators:
                propagators[dt] = [scipy.linalg.expm(m * dt) for m in chains]
            for axis, u in enumerate(propagators[dt]):
                p = np.moveaxis(np.tensordot(u, p, axes=(1, axis)), 0, axis)
        pops.append(p)
        t_prev = float(t)
    return np.array(pops), len(propagators)


# a test oracle, kept here because perfbench/spans.py wraps it by name
def gibbs_state(hamiltonian: SparseHamiltonian | np.ndarray,
                temperature: float) -> np.ndarray:
    """exp(-H/T)/Z; at T = 0 the uniform mixture over the ground multiplet."""
    h = hamiltonian.to_dense() if isinstance(hamiltonian, SparseHamiltonian) \
        else np.asarray(hamiltonian)
    energies, vectors = scipy.linalg.eigh(h)
    weights = _gibbs_weights(energies, temperature)
    return (vectors * weights) @ vectors.conj().T


def _gibbs_weights(energies: np.ndarray, temperature: float) -> np.ndarray:
    """Normalized exp(-(E - E0)/T) over ``energies`` (E0 the lowest); at
    T = 0 uniform over the levels within 1e-10 of E0."""
    if temperature < 0.0:
        raise ValueError("temperature must be >= 0")
    shifted = energies - energies.min()
    if temperature == 0.0:
        weights = (shifted < 1e-10).astype(float)
    else:
        weights = np.exp(-shifted / temperature)
    return weights / weights.sum()


# a test oracle, kept here because perfbench/spans.py wraps it by name
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
    whenever the two temperatures differ.  ``orbit_populations`` and
    ``char_populations`` hold the stationary marginals π_e and π_m, and
    ``orbit_energies`` and ``char_energies`` split the frame diagonal of H
    as E_e(o) + E_m(t).  When the chain is a Kronecker sum the joint
    stationary populations are π_e ⊗ π_m (``populations``); otherwise
    ``populations`` raises ``ValueError``, and both Gibbs distances are
    None.
    """

    null_dim: int
    residual: float
    trace_distance_to_gibbs: float | None
    gibbs_temperature: float | None
    trace_distance_to_detailed_balance: float | None
    detailed_balance_temperature: float | None
    loop_expectations: dict[str, float]
    method: str
    orbit_populations: np.ndarray
    char_populations: np.ndarray
    orbit_energies: np.ndarray
    char_energies: np.ndarray
    kronecker_sum: bool
    frame: StabilizerFrame = field(repr=False, compare=False)
    counters: dict = field(default_factory=dict)  # engine and sizes

    @property
    def populations(self) -> np.ndarray:
        """Joint stationary frame populations, index o * n_char + t."""
        if not self.kronecker_sum:
            raise ValueError(_MARGINALS_ONLY)
        return np.kron(self.orbit_populations, self.char_populations)

    @property
    def energies(self) -> np.ndarray:
        """Frame diagonal of H, index o * n_char + t."""
        return (self.orbit_energies[:, None]
                + self.char_energies[None, :]).ravel()


def _recurrent_distributions(m: np.ndarray) -> list[np.ndarray]:
    """One stationary distribution per recurrent communicating class.

    A closed class is irreducible, so its block has a one-dimensional null
    space, and 1ᵀM = 0 makes its last row a combination of the others:
    with that row replaced by ones the block is nonsingular, and the
    solve against the last unit vector is the normalized distribution
    (Kemeny & Snell, *Finite Markov Chains*, 1960)."""
    n = m.shape[0]
    graph = scipy.sparse.csr_matrix((m - np.diag(np.diag(m))) > 1e-300)
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        graph, directed=True, connection="strong")
    leaks = np.zeros(n_comp, dtype=bool)
    rows, cols = graph.nonzero()
    # an edge c -> r between two classes: the class of c flows elsewhere
    leaks[labels[cols][labels[cols] != labels[rows]]] = True
    dists = []
    for comp in range(n_comp):
        if leaks[comp]:
            continue
        idx = np.flatnonzero(labels == comp)
        block = m[np.ix_(idx, idx)]
        block[-1] = 1.0
        rhs = np.zeros(idx.size)
        rhs[-1] = 1.0
        pi = np.zeros(n)
        pi[idx] = np.linalg.solve(block, rhs)
        dists.append(pi)
    return dists


def stationary_state(model: LindbladModel) -> StationaryResult:
    """Stationary state of a lattice-backed model, on its label chains.

    Every engineered jump moves the orbit label, the character label or
    both by index arithmetic, at a rate that each label sees independently
    of the other (:class:`_LabelChains`), so the stationary marginals are
    the null spaces of the orbit chain M_e and the character chain M_m; no
    channel is transported into the frame and no superoperator is built.
    A model without a lattice, or one whose population sector does not
    close, raises ``ValueError``.  Each closed recurrent class of a chain
    holds one stationary distribution, found with one linear solve
    (:func:`_recurrent_distributions`), and when there are several (for
    example at p = 0) they are averaged with equal weights.  The joint
    recurrent classes are the pairs of label classes, so ``null_dim`` is
    null_e × null_m, and for a Kronecker sum the joint fixed point is
    π_e ⊗ π_m.  ``residual`` is the 2-norm of (M_e π_e, M_m π_m).  H is
    frame-diagonal, and so is every Gibbs state: for a Kronecker sum each
    Gibbs distance is ½‖π_e ⊗ π_m − w‖₁ with w the Gibbs weights of the
    frame energies.  Each Wilson loop is label-additive, π_e @ d_e +
    π_m @ d_m (:meth:`StabilizerFrame.label_diagonal`).  No dense state is
    built.  ``counters`` names the engine (``label-chains``) with both
    chain sizes and null dimensions.
    """
    gen = _compile_generator(model)
    chains = (gen.orbit_chain, gen.char_chain)
    dists = [_recurrent_distributions(m) for m in chains]
    pi_e, pi_m = (np.mean(d, axis=0) for d in dists)
    null_e, null_m = (len(d) for d in dists)
    loops = {}
    for name, strings in (("z", lt.z_loops(model.lattice)),
                          ("x", lt.x_loops(model.lattice))):
        for idx, string in enumerate(strings):
            d_e, d_m = gen.frame.label_diagonal(PauliSum.from_string(string))
            loops[f"wilson_{name}_{idx}"] = float(pi_e @ d_e + pi_m @ d_m)
    temperature_db = None
    if model.p is not None and model.delta is not None:
        temperature_db = model.detailed_balance_temperature()
    res = StationaryResult(
        null_dim=null_e * null_m,
        residual=float(np.hypot(np.linalg.norm(chains[0] @ pi_e),
                                np.linalg.norm(chains[1] @ pi_m))),
        trace_distance_to_gibbs=None,
        gibbs_temperature=model.temperature_target,
        trace_distance_to_detailed_balance=None,
        detailed_balance_temperature=temperature_db,
        loop_expectations=loops, method="classical-rate-matrix",
        orbit_populations=pi_e, char_populations=pi_m,
        orbit_energies=gen.energies[0], char_energies=gen.energies[1],
        kronecker_sum=gen.kronecker_sum, frame=gen.frame,
        counters={"engine": "label-chains", **gen.counters,
                  "orbit_null_dim": null_e, "char_null_dim": null_m,
                  "null_dim": null_e * null_m})
    if res.kronecker_sum:
        def gibbs_distance(temperature: float) -> float:
            return float(0.5 * np.abs(res.populations - _gibbs_weights(
                res.energies, temperature)).sum())

        if res.gibbs_temperature is not None and res.gibbs_temperature > 0.0:
            res.trace_distance_to_gibbs = gibbs_distance(res.gibbs_temperature)
        if temperature_db is not None:
            res.trace_distance_to_detailed_balance = gibbs_distance(
                temperature_db)
    return res


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


# the probe starts with the pair excited (qubits 0 and 1 set), the damped
# ancilla empty and the translation ancilla maximally mixed; the pair is
# still excited while qubits 0 and 1 are set
_PROBE_START = (0b0011, 0b1011)
_PROBE_PAIR = (0b0011, 0b1011, 0b0111, 0b1111)


def _reachable(gen: scipy.sparse.csr_matrix, seeds: np.ndarray) -> np.ndarray:
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


def _pair_populations(model: LindbladModel, times: np.ndarray) -> np.ndarray:
    """Excited-pair population of the probe at ``times``, exact.

    The vectorized generator is eigendecomposed on the entries of vec(rho)
    that the start reaches (:func:`_reachable`), an invariant subspace that
    holds every nonzero entry of rho(t).
    """
    dim = model.dim
    gen = _superoperator(
        model.hamiltonian.to_dense(),
        [(jt.rate, jt.operator.to_dense()) for jt in model.jumps])
    start = np.array(_PROBE_START) * (dim + 1)     # vec index of |s><s|
    idx = _reachable(gen, start)
    vals, vecs = np.linalg.eig(gen[idx][:, idx].toarray())
    coeffs = np.linalg.solve(vecs, 0.5 * np.isin(idx, start))
    pair = np.isin(idx, np.array(_PROBE_PAIR) * (dim + 1))
    weights = vecs[pair, :].sum(axis=0) * coeffs
    return np.real(weights[None, :] * np.exp(np.outer(times, vals))).sum(axis=1)


def adiabatic_elimination_probe(coupling_values: Sequence[float],
                                relaxation_values: Sequence[float],
                                fit_residual_tol: float = 0.02,
                                burn_in_factor: float = 8.0,
                                decay_window: float = 2.0) -> EliminationReport:
    """Measure the effective pair-relaxation rate of the reduced dynamics.

    For each grid point the four-qubit master equation of
    :func:`probe_model`, started from the excited pair, is solved exactly
    (:func:`_pair_populations`): the start reaches 10 of the 256 entries of
    the vectorized density matrix, and the generator is eigendecomposed on
    those alone.  After a burn-in of ``burn_in_factor`` ancilla lifetimes
    the pair population is fit to a single exponential.  A fit whose
    log-residual exceeds ``fit_residual_tol`` marks the reduced dynamics as
    insufficiently Markovian and raises ``FitRejectedError``.  The log-log
    exponents of the rate in coupling and relaxation are reported together
    with a comparison of the rate ∝ g²/λ and rate ∝ g²λ hypotheses.
    """
    points: list[EliminationPoint] = []
    for g in coupling_values:
        for lam in relaxation_values:
            if g > 0.1 * lam:
                raise ValueError(
                    f"coupling {g} exceeds a tenth of relaxation {lam}")
            model = probe_model(g, lam)
            if g == 0.0:
                points.append(EliminationPoint(g, lam, 0.0, 0.0))
                continue
            predicted = 4.0 * g * g / lam
            burn = burn_in_factor / lam
            horizon = burn + decay_window / predicted
            t_grid = np.linspace(burn, horizon, 40)
            pops = _pair_populations(model, t_grid)
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
