"""Engineered dissipation for the stabilizer code.

Thermal and cooling jump sets of pair-creation / translation channels,
depolarizing noise, stationary states and time evolution of the master
equation, three-level ancilla pumping, and a small adiabatic-elimination
rate probe.

Generator convention throughout: with jump entries c = sqrt(rate) * op,

    d rho / dt = -i [H, rho] + sum_c (2 c rho c† - c†c rho - rho c†c)

so a jump of rate r relaxes the target population at rate 2r.

Lattice dissipation runs in an orthonormal eigenbasis of the stabilizer
group.  Its states carry two labels: an orbit o of the plaquette-flip
group, which holds the vertex syndrome and the logical Z sector, and a
group character t, which holds the plaquette syndrome (``FrameLabels``,
from the same ``spectra.Cosets`` that labels the sectors of H).  The
labels are linear, so a link flip moves each by an XOR, o -> o ^ a and
t -> t ^ u.  Every engineered channel is a link flip times projectors on
the stabilizers at the link's two ends (``JumpTerm``): it moves one label
at a rate set by two syndrome bits of that label, so the population chain
splits into an orbit chain M_e and a character chain M_m
(``_LabelChains``), built from the link incidence alone, and the joint
chain is M_e ⊗ 1 + 1 ⊗ M_m.  Depolarizing Y moves both labels; the joint
chain is then no Kronecker sum, but each label's marginal is still an
autonomous chain (strong lumpability).  The stationary marginals are the
null spaces of M_e and M_m, and the marginals of a frame-diagonal start
evolve exactly by exp(M_e t) and exp(M_m t); for a Kronecker sum a
product start stays a product, p_e(t) ⊗ p_m(t).  The bath's Hamiltonian
is the stabilizer Hamiltonian at J = 1, whose energy counts the flipped
stabilizers.  It, the excitation weights and the Z loops are
label-additive, d(o, t) = d_e(o) + d_m(t), read off the same syndrome bits
and so off the marginals; a chain that is no Kronecker sum carries nothing
else.

Lattice dissipation takes and returns label populations only, and builds
no 2^n x 2^n state, no Hamiltonian and no Pauli sum.  A start that is not
the two label marginals raises ``ValueError``.  ``StabilizerFrame``, the
Pauli-level view that carries each string into the frame, ``gibbs_state``
and ``trace_distance`` are test oracles that no scenario calls; the tests
check the label chains against chains built from the Pauli strings of
each channel (``tests/dense_oracles.py``).  The adiabatic-elimination
probe builds the columns of its vectorized generator that its start
reaches, and only those, and eigendecomposes it on those entries of
vec(rho).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from . import lattice as lt
from .pauli import QUARTER_TURNS, PauliString, PauliSum, quarter_turns
from .spectra import SparseHamiltonian, plaquette_cosets

# the dense label chains: 1024 x 1024 at L = 3 (18 qubits), but 2^17 x 2^17
# (128 GiB) at L = 4
FRAME_QUBIT_CAP = 18
TRACE_TOL_PER_TIME = 1e-9    # trace / positivity drift budget per unit time
EIGENVALUE_FLOOR = -1e-10    # smallest admissible density eigenvalue at t = 0
PAIR_GAP = 4.0               # a pair flips two stabilizers of J = 1: 4J


class PositivityError(RuntimeError):
    """A density matrix drifted outside the trace/positivity budget."""


class FitRejectedError(RuntimeError):
    """Reduced dynamics deviated from a single-exponential beyond tolerance."""


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

# the end bits (a, b) each engineered action needs set (1), unset (0) or
# either (-1): flip (1 -+ h_a)(1 -+ h_b) / 4 for the thermal four, and
# flip (1 - h) / 2 on one end for the two cooling channels
_END_BITS = {"annihilate": (1, 1), "create": (0, 0), "translate": (1, 0),
             "translate_adj": (0, 1), "absorb_a": (1, -1), "absorb_b": (-1, 1)}
# the labels (orbit, character) that the flip of each flavor, or each
# depolarizing Pauli, moves: an X moves the orbit, a Z the character
_MOVES = {"e": (True, False), "m": (False, True),
          "X": (True, False), "Y": (True, True), "Z": (False, True)}


@dataclass(frozen=True)
class JumpTerm:
    """One dissipative channel O on link ``link``: generator term
    2r O rho O† - r {O†O, rho}.

    A channel of flavor ``"e"`` (vertex) or ``"m"`` (plaquette) is the link
    flip, X or Z, times projectors on the stabilizers h_a and h_b at the
    link's ends (``link_vertices`` or ``link_plaquettes``); ``action``
    names them by the ends it needs excited: ``annihilate`` both, flip
    (1 - h_a)(1 - h_b) / 4, ``create`` neither, ``translate`` a and not b,
    ``translate_adj`` b and not a, ``absorb_a`` a, flip (1 - h_a) / 2, and
    ``absorb_b`` b.  A depolarizing channel has no flavor, and its
    ``action`` is the Pauli letter on the link.
    """

    label: str
    rate: float
    link: int
    action: str
    flavor: str | None = None

    def __post_init__(self):
        if not (self.rate >= 0.0) or not math.isfinite(self.rate):
            raise ValueError(f"jump rate must be finite and >= 0, got {self.rate}")
        actions = {None: ("X", "Y", "Z"), "e": _END_BITS, "m": _END_BITS}
        if self.action not in actions.get(self.flavor, ()):
            raise ValueError(f"no action {self.action!r} for flavor {self.flavor!r}")


@dataclass(frozen=True)
class LindbladModel:
    """A list of rate-weighted jump channels on the links of a lattice,
    under the stabilizer Hamiltonian at J = 1, whose frame diagonal is
    :attr:`FrameLabels.energies`.

    The label chains (:func:`_compile_generator`) are built on first use
    and cached on the model.
    """

    jumps: tuple[JumpTerm, ...]
    lattice: lt.TorusLattice
    p: float | None = None           # excitation weight of the bath

    def __post_init__(self):
        for jt in self.jumps:
            if not 0 <= jt.link < self.lattice.n_links:
                raise ValueError(f"jump {jt.label!r} acts outside the register")
        object.__setattr__(self, "_generator", None)

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
        costs energy delta = ``PAIR_GAP``, so exp(-delta/T) = p/(1 - p), that
        is T = delta / ln((1 - p)/p); zero at p = 0 and infinite at p = 1/2.
        """
        if self.p is None:
            raise ValueError("model has no bath parameter p")
        if self.p == 0.0:
            return 0.0
        if self.p == 0.5:
            return math.inf
        return PAIR_GAP / math.log((1.0 - self.p) / self.p)

    @property
    def labels(self) -> FrameLabels:
        """Frame labels of the compiled generator."""
        return _compile_generator(self).labels

    def with_rates(self, rates: Sequence[float]) -> "LindbladModel":
        """This model with jump ``k`` at ``rates[k]``; zero-rate jumps are
        dropped.

        The copy reweights the label chains of this model
        (:meth:`_LabelChains.reweighted`), which are linear in the rates,
        so a rate sweep shares one set of labels and one build of the flows.
        """
        if len(rates) != len(self.jumps):
            raise ValueError(f"{len(rates)} rates for {len(self.jumps)} jumps")
        terms = [JumpTerm(jt.label, float(r), jt.link, jt.action, jt.flavor)
                 for jt, r in zip(self.jumps, rates)]
        keep = [k for k, jt in enumerate(terms) if jt.rate > 0.0]
        model = dataclasses.replace(self, jumps=tuple(terms[k] for k in keep))
        object.__setattr__(model, "_generator", _compile_generator(
            self).reweighted(keep, [jt.rate for jt in model.jumps]))
        return model


def _pair_sites(lat: lt.TorusLattice) -> list[tuple[int, str]]:
    return [(link, kind) for kind in ("e", "m") for link in range(lat.n_links)]


def thermal_jump_set(lat: lt.TorusLattice, p: float, lambda_star: float,
                     gamma_star: float) -> LindbladModel:
    """Jump set driving the code toward a thermal bath of weight ``p``.

    Per link and flavor: annihilation at rate (1-p) lambda*/2, creation at
    rate p lambda*/2, translation and its adjoint at rate gamma*/4 each.
    Zero-rate channels are dropped.  Creation and annihilation stand in the
    ratio p/(1-p) and a pair costs delta = ``PAIR_GAP``, so the rates
    drive the code to the Gibbs state at T = delta/ln((1-p)/p) (see
    :meth:`LindbladModel.detailed_balance_temperature`).  Both stabilizer
    couplings are J = 1, so the pair gap is uniform.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    if lambda_star < 0.0 or gamma_star < 0.0:
        raise ValueError("rates must be >= 0")
    jumps: list[JumpTerm] = []
    for link, kind in _pair_sites(lat):
        channels = (("annihilate", (1.0 - p) * lambda_star / 2.0),
                    ("create", p * lambda_star / 2.0),
                    ("translate", gamma_star / 4.0),
                    ("translate_adj", gamma_star / 4.0))
        jumps.extend(JumpTerm(f"{action}[{kind},{link}]", rate, link, action, kind)
                     for action, rate in channels if rate > 0.0)
    return LindbladModel(jumps=tuple(jumps), lattice=lat, p=p)


def cooling_jump_set(lat: lt.TorusLattice, lambda_star: float) -> LindbladModel:
    """Zero-temperature reduction: two channels per link and flavor.

    The combinations annihilate + translate and annihilate +
    translate_adjoint collapse to (flip)(1 - h)/2 on each adjacent
    neighborhood (``absorb_a`` and ``absorb_b``); they contain no creation
    component, so every ground state is dark.  The couplings are J = 1, so
    a pair costs ``PAIR_GAP``.
    """
    if not lambda_star > 0.0:
        raise ValueError("lambda_star must be > 0")
    jumps = [JumpTerm(f"{action}[{kind},{link}]", lambda_star, link, action, kind)
             for link, kind in _pair_sites(lat)
             for action in ("absorb_a", "absorb_b")]
    return LindbladModel(jumps=tuple(jumps), lattice=lat, p=0.0)


def depolarizing_jumps(n_qubits: int, gamma: float) -> tuple[JumpTerm, ...]:
    """Single-qubit depolarizing channels: Bloch vector decays at rate gamma.

    Every qubit gets X, Y and Z jumps at rate gamma/8; under the
    2 c rho c† convention this relaxes every Bloch component at exactly
    gamma.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    return tuple(JumpTerm(f"depolarize[{letter},{q}]", gamma / 8.0, q, letter)
                 for q in range(n_qubits) for letter in "XYZ")


# ---------------------------------------------------------------------------
# frame labels
# ---------------------------------------------------------------------------


def _parity(masks: np.ndarray) -> np.ndarray:
    """|m| mod 2 of each mask, as int64."""
    return (np.bitwise_count(masks) & 1).astype(np.int64)


def _masks(links: Sequence[Sequence[int]]) -> np.ndarray:
    """The link mask of each group of links."""
    return np.array([sum(1 << link for link in group) for group in links],
                    dtype=np.uint64)


class FrameLabels:
    """The orbit and character labels of the stabilizer frame, read as the
    syndrome bits of the lattice.

    A frame state |o, t> (:class:`StabilizerFrame`) carries an orbit o, a
    coset of the plaquette-flip group, and a character t, an index into the
    group's elements, from the group's ``cosets``
    (:func:`~toricsim.spectra.plaquette_cosets`).  Vertex v is excited on
    orbit o when reps[o] meets its star an odd number of times
    (``vertex_bits[v, o]``), and plaquette p on character t when t meets
    e_p, the element that ``cosets.locate`` gives p's X-mask
    (``plaquette_bits[p, t]``).  The labels are GF(2)-linear, so an X or Y
    on link l moves every orbit o to o ^ ``link_shifts[l]``, the coset of
    1 << l, and a Z or Y moves every character t to t ^ ``link_flips[l]``,
    whose bit i is set when Z_l anticommutes with the group's row i.  No
    table here spans the 2^n bitstrings, but the label chains are dense, so
    more than ``FRAME_QUBIT_CAP`` qubits raise ``ValueError``.
    """

    def __init__(self, lat: lt.TorusLattice):
        n = lat.n_links
        if n > FRAME_QUBIT_CAP:
            raise ValueError(f"{n} qubits exceeds the frame cap of {FRAME_QUBIT_CAP}")
        self.lattice = lat
        self.cosets = cosets = plaquette_cosets(lat)
        self.n_orbits, self.n_char = cosets.reps.size, cosets.elements.size
        self._rows = np.array(cosets.rows, dtype=np.uint64)
        links = np.uint64(1) << np.arange(n, dtype=np.uint64)
        self.link_shifts, self.link_flips = cosets.locate(links)[0], self._flips(links)
        self.link_vertices = np.array([lat.link_vertices(link) for link in range(n)])
        self.link_plaquettes = np.array([lat.link_plaquettes(link)
                                         for link in range(n)])
        plaquettes = cosets.locate(_masks(lat.plaquette_links))[1]
        self.vertex_bits = _parity(_masks(lat.vertex_links)[:, None] & cosets.reps)
        self.plaquette_bits = _parity(plaquettes[:, None] & np.arange(self.n_char))

    def _flips(self, z: np.ndarray) -> np.ndarray:
        """The character flip u of each Z-mask: bit i is set when the mask
        anticommutes with the group's row i."""
        return (_parity(z[:, None] & self._rows)
                << np.arange(self._rows.size)).sum(axis=1)

    @functools.cached_property
    def energies(self) -> tuple[np.ndarray, np.ndarray]:
        """Frame diagonal of the stabilizer Hamiltonian at J = 1, H = -sum_v
        A_v - sum_p B_p, as an orbit part and a character part, E(o, t) =
        E_e(o) + E_m(t): a stabilizer reads -1 where its syndrome bit is
        set, so E_e(o) = -sum_v (1 - 2 ``vertex_bits[v, o]``) and E_m(t) =
        -sum_p (1 - 2 ``plaquette_bits[p, t]``)."""
        return tuple((2 * bits - 1).sum(axis=0).astype(float)
                     for bits in (self.vertex_bits, self.plaquette_bits))

    @functools.cached_property
    def excitation_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean flipped-stabilizer weight of each frame state as an orbit
        part and a character part, w(o, t) = w_e(o) + w_m(t): the mean of
        (1 - h)/2 over the stabilizers, 1/2 + E(o, t) / (2 n_stabilizers)
        (:attr:`energies`), with the 1/2 in the orbit part.  A
        frame-diagonal state with label marginals p_e and p_m has
        excitation density p_e @ w_e + p_m @ w_m."""
        weight = 0.5 / (self.lattice.n_vertices + self.lattice.n_plaquettes)
        e_e, e_m = self.energies
        return 0.5 + weight * e_e, weight * e_m

    @functools.cached_property
    def wilson_diagonals(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """The frame diagonal of each Wilson loop as an orbit part and a
        character part, keyed ``wilson_z_<i>`` and ``wilson_x_<i>``.  A Z
        loop reads the orbit, 1 - 2 |reps[o] & loop| mod 2; an X loop's
        X-mask lies outside the plaquette-flip group, so it moves the orbit
        and its diagonal is zero."""
        zero = np.zeros(self.n_char)
        z_loops = 1.0 - 2.0 * _parity(
            _masks(lt.z_loop_links(self.lattice))[:, None] & self.cosets.reps)
        return {**{f"wilson_z_{i}": (loop, zero)
                   for i, loop in enumerate(z_loops)},
                **{f"wilson_x_{i}": (np.zeros(self.n_orbits), zero)
                   for i in range(2)}}


# ---------------------------------------------------------------------------
# stabilizer frame: the Pauli-level view, a test oracle kept here because
# perfbench/spans.py wraps StabilizerFrame.operator by name
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

    where x = reps[shift[s]] ^ elements[element[s]] labels the X-mask
    (``cosets.locate``), and bit i of ``flips[s]`` is set when the string
    anticommutes with the group's row i.  The labels are GF(2)-linear, so
    reps[o] ^ x carries the labels (o ^ shift[s], element[s]) on every
    orbit: both label maps are int64 XORs, and no array spans both labels.
    """

    coeffs: np.ndarray      # (n_strings,) complex coefficients
    turns: np.ndarray       # (n_strings, n_orbits) q(reps[o]) mod 4
    shift: np.ndarray       # (n_strings,) orbit map o -> o ^ shift
    element: np.ndarray     # (n_strings,) group element reached
    flips: np.ndarray       # (n_strings,) character map t -> t ^ u

    def amplitudes(self, orbits: slice, chars: np.ndarray) -> np.ndarray:
        """amplitude(s, o, t) of every string on the orbits ``orbits`` and
        the characters ``chars``, shape (n_strings, n_o, n_t)."""
        values = self.coeffs[:, None] * QUARTER_TURNS[self.turns[:, orbits]]
        signs = _char_sign(chars[None, :] ^ self.flips[:, None],
                           self.element[:, None])
        return values[:, :, None] * signs[:, None, :]


class StabilizerFrame(FrameLabels):
    """Orthonormal eigenbasis of the vertex and plaquette stabilizer group,
    the Pauli-level view of :class:`FrameLabels`.

    Basis states are labeled by an orbit o and a group character t, |o, t>
    = sum_e (-1)**|t & e| |reps[o] ^ elements[e]> / sqrt(n_char): bit i of
    t is its sign on the group's reduced row i.  Every Pauli string maps
    one basis state to exactly one basis state times a scalar, by an XOR
    on each label (:meth:`strings`), so operators built from few strings
    are sparse signed permutations here; :meth:`operator` assembles the
    frame matrix of a Pauli sum.  No table here spans the 2^n bitstrings.
    """

    def __init__(self, lat: lt.TorusLattice):
        super().__init__(lat)
        self.n_qubits = lat.n_links
        self.size = self.n_orbits * self.n_char

    def strings(self, ops: Sequence[PauliSum]) -> FrameStrings:
        """The action of every string of ``ops`` on the orbit and character
        labels: each X-mask is labeled once, and the phases of all strings
        on all orbit representatives are read in one broadcast call of
        :func:`~toricsim.pauli.quarter_turns` (see :class:`FrameStrings`)."""
        if any(op.n_qubits != self.n_qubits for op in ops):
            raise ValueError("operator register size mismatch")
        terms = [(coeff, s) for op in ops for s, coeff in op.items()]
        x = np.array([s.x_mask for _, s in terms], dtype=np.uint64)
        z = np.array([s.z_mask for _, s in terms], dtype=np.uint64)
        shift, element = self.cosets.locate(x)
        return FrameStrings(
            coeffs=np.array([coeff for coeff, _ in terms], dtype=complex),
            # the keys of a PauliSum carry no phase
            turns=quarter_turns(0, x[:, None], z[:, None], self.cosets.reps) & 3,
            shift=shift, element=element, flips=self._flips(z))

    def operator(self, op: PauliSum) -> scipy.sparse.csr_matrix:
        """Frame matrix of a Pauli sum, assembled from :meth:`strings`:
        string s puts amplitude(s, o, t) at (o ^ shift, t ^ u), (o, t)."""
        s = self.strings([op])
        orbits = np.arange(self.n_orbits)
        chars = np.arange(self.n_char)
        rows = (((orbits ^ s.shift[:, None]) * self.n_char)[:, :, None]
                + (chars ^ s.flips[:, None])[:, None, :])
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


def _rate_matrix(shifts: np.ndarray, flows: np.ndarray) -> np.ndarray:
    """Rate matrix of a chain whose channel c moves state i to i ^ shifts[c]
    at rate flows[c, i]: m[r, i] is the rate i -> r, and every column sums
    to zero."""
    n = flows.shape[1]
    states = np.arange(n)
    dest = states ^ shifts[:, None]
    m = np.bincount((dest * n + states).ravel(), flows.ravel(),
                    minlength=n * n).reshape(n, n)
    m[np.diag_indices(n)] -= flows.sum(axis=0)
    return m


def _flows(moved: np.ndarray, needs: np.ndarray,
           end_bits: np.ndarray) -> np.ndarray:
    """Unit-rate flows on one label, shape (n_channels, n_states): 2 where
    the channel moves this label and the state's ``end_bits`` (n_channels,
    2, n_states) meet its ``needs`` (a bit of -1 meets both), 0 elsewhere."""
    met = ((needs[:, :, None] < 0) | (end_bits == needs[:, :, None])).all(axis=1)
    return 2.0 * (met & moved[:, None])


@dataclass(frozen=True, eq=False)
class _LabelChains:
    """The population chain of a model as two label chains: the orbit
    chain M_e on ``n_orbits`` states and the character chain M_m on
    ``n_char`` states, built from the link incidence (:class:`FrameLabels`).

    A channel's flip on link l moves the orbit by ``link_shifts[l]`` (X),
    the character by ``link_flips[l]`` (Z), or both (Y), with amplitude of
    modulus 1 on the states its end projectors pass and 0 elsewhere.  Its
    unit-rate flow 2|v|^2 is therefore twice the indicator that the end
    bits of the label it moves meet its action (:class:`JumpTerm`): the
    vertex bits at the link's ends for the orbit, the plaquette bits for
    the character; a depolarizing Pauli flows from every state.  The rate
    on one label does not depend on the other, so each label's marginal is
    an autonomous chain (strong lumpability; Kemeny & Snell, *Finite
    Markov Chains*, 1960).  When no channel moves both labels the joint
    chain is the Kronecker sum M = M_e ⊗ 1 + 1 ⊗ M_m (``kronecker_sum``); a
    depolarizing Y moves both.  The chains are linear in the rates, so a
    rate sweep reweights the same unit flows (:meth:`reweighted`).
    """

    labels: FrameLabels
    rates: np.ndarray           # (n_channels,)
    orbit_shifts: np.ndarray    # (n_channels,) orbit map o -> o ^ a
    orbit_flows: np.ndarray     # (n_channels, n_orbits) 2|v(o, t)|^2, unit rate
    char_flips: np.ndarray      # (n_channels,) character map t -> t ^ u
    char_flows: np.ndarray      # (n_channels, n_char) 2|v(o, t)|^2, unit rate

    @classmethod
    def build(cls, model: LindbladModel) -> "_LabelChains":
        labels = FrameLabels(model.lattice)
        links = np.array([jt.link for jt in model.jumps], dtype=np.int64)
        moves = np.array([_MOVES[jt.flavor or jt.action] for jt in model.jumps],
                         dtype=bool).reshape(-1, 2)
        needs = np.array([_END_BITS.get(jt.action, (-1, -1))
                          for jt in model.jumps], dtype=np.int64).reshape(-1, 2)
        return cls(
            labels=labels,
            rates=np.array([jt.rate for jt in model.jumps], dtype=float),
            orbit_shifts=np.where(moves[:, 0], labels.link_shifts[links], 0),
            orbit_flows=_flows(moves[:, 0], needs, labels.vertex_bits[
                labels.link_vertices[links]]),
            char_flips=np.where(moves[:, 1], labels.link_flips[links], 0),
            char_flows=_flows(moves[:, 1], needs, labels.plaquette_bits[
                labels.link_plaquettes[links]]))

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
        return {"engine": "label-chains", "orbit_states": self.labels.n_orbits,
                "char_states": self.labels.n_char,
                "kronecker_sum": self.kronecker_sum}


def _compile_generator(model: LindbladModel) -> _LabelChains:
    """Label chains of a model, built once per model and cached on it."""
    if model._generator is None:
        object.__setattr__(model, "_generator", _LabelChains.build(model))
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


def _start_marginals(labels: FrameLabels, start) -> list[np.ndarray]:
    """The label marginals ``start`` = (p_e, p_m), two real vectors each
    checked like a density matrix's spectrum."""
    if isinstance(start, np.ndarray) or len(start) != 2:
        raise ValueError(
            f"the start must be the two label marginals (p_e, p_m), of "
            f"{labels.n_orbits} orbit and {labels.n_char} character populations")
    out = []
    for name, p, n in zip(("p_e", "p_m"), start,
                          (labels.n_orbits, labels.n_char)):
        p = np.asarray(p)
        if p.shape != (n,):
            raise ValueError(f"{name} must hold {n} populations, not an "
                             f"array of shape {p.shape}")
        if np.any(np.imag(p) != 0.0):
            raise ValueError("label populations must be real")
        p = np.real(p).astype(float)
        _check_trace_and_floor(abs(p.sum() - 1.0), p.min(), 1e-9,
                               EIGENVALUE_FLOOR, f" in {name}")
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------


@dataclass
class EvolutionResult:
    """Label-chain trajectory with per-sample conservation monitors.

    ``orbit_populations`` and ``char_populations`` hold the two label
    marginals at each sample.  When the chain is a Kronecker sum the frame
    populations are p_e(t) ⊗ p_m(t) (``populations``, shape (n_times,
    n_orbits * n_char), index o * n_char + t); otherwise ``populations``
    raises ``ValueError``.
    """

    times: np.ndarray
    orbit_populations: np.ndarray       # (n_times, n_orbits)
    char_populations: np.ndarray        # (n_times, n_char)
    trace_defects: np.ndarray
    min_eigenvalues: np.ndarray
    kronecker_sum: bool
    labels: FrameLabels = field(repr=False, compare=False)
    counters: dict = field(default_factory=dict)  # engine, sizes, evaluations

    @property
    def populations(self) -> np.ndarray:
        if not self.kronecker_sum:
            raise ValueError(_MARGINALS_ONLY)
        return np.array([np.kron(p_e, p_m) for p_e, p_m
                         in zip(self.orbit_populations, self.char_populations)])


def evolve(model: LindbladModel, start: Sequence[np.ndarray],
           times: Sequence[float]) -> EvolutionResult:
    """Evolve a frame-diagonal start under the master equation and sample
    it at ``times``, a non-empty ascending grid from t >= 0.

    ``start`` is the two label marginals (p_e, p_m), real vectors of
    ``labels.n_orbits`` and ``labels.n_char`` entries; any other input, frame
    populations or a dense density matrix included, raises ``ValueError``.
    Each marginal evolves exactly by its own label chain
    (:class:`_LabelChains`, strong lumpability), with one
    ``scipy.linalg.expm`` of each per distinct increment between samples.
    When every channel moves one label, M = M_e ⊗ 1 + 1 ⊗ M_m, so the
    product start p_e ⊗ p_m evolves to p_e(t) ⊗ p_m(t).  Any other grid
    raises ``ValueError``.  No dense state is built.

    Trace and positivity are monitored at every sample time against a
    budget of 1e-9 per unit time; violations, NaN included, raise
    ``PositivityError``.  The frame basis is orthonormal, so the monitors
    read the marginals: the trace defect is the larger |sum p - 1| and the
    smallest eigenvalue is the smallest marginal population.
    """
    gen = _compile_generator(model)
    p_e, p_m = _start_marginals(gen.labels, start)
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("sample times must ascend from t >= 0")
    orbit, n_props = _propagate_chain(gen.orbit_chain, p_e, times)
    char, _ = _propagate_chain(gen.char_chain, p_m, times)
    trace_defects = np.maximum(np.abs(orbit.sum(axis=1) - 1.0),
                               np.abs(char.sum(axis=1) - 1.0))
    min_eigs = np.minimum(orbit.min(axis=1), char.min(axis=1))
    for t, defect, low in zip(times, trace_defects, min_eigs):
        budget = TRACE_TOL_PER_TIME * max(t, 1.0)
        _check_trace_and_floor(defect, low, budget,
                               EIGENVALUE_FLOOR - 10.0 * budget, f" at t={t}")
    return EvolutionResult(times=times, orbit_populations=orbit,
                           char_populations=char,
                           trace_defects=trace_defects,
                           min_eigenvalues=min_eigs,
                           kronecker_sum=gen.kronecker_sum, labels=gen.labels,
                           counters={**gen.counters,
                                     "propagator_evaluations": n_props})


def _propagate_chain(chain: np.ndarray, p0: np.ndarray,
                     times: np.ndarray) -> tuple[np.ndarray, int]:
    """Populations of ``p0`` under the rate matrix ``chain`` at ``times``,
    and the number of distinct increments between samples, each of which
    builds exp(M dt) once."""
    propagators: dict[float, np.ndarray] = {}
    p, pops, t_prev = p0, [], 0.0
    for t in times:
        dt = float(t) - t_prev
        if dt > 0.0:
            if dt not in propagators:
                propagators[dt] = scipy.linalg.expm(chain * dt)
            p = propagators[dt] @ p
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

    ``detailed_balance_temperature`` is delta/ln((1-p)/p), implied by the
    stored creation/annihilation rates; a thermal jump set converges to
    that Gibbs state, so ``trace_distance_to_detailed_balance`` sits at
    round-off.  ``orbit_populations`` and ``char_populations`` hold the
    stationary marginals π_e and π_m, and ``orbit_energies`` and
    ``char_energies`` split the frame diagonal of H as E_e(o) + E_m(t).
    When the chain is a Kronecker sum the joint stationary populations are
    π_e ⊗ π_m (``populations``); otherwise ``populations`` raises
    ``ValueError``, and the Gibbs distance is None.
    """

    null_dim: int
    residual: float
    trace_distance_to_detailed_balance: float | None
    detailed_balance_temperature: float | None
    loop_expectations: dict[str, float]
    orbit_populations: np.ndarray
    char_populations: np.ndarray
    orbit_energies: np.ndarray
    char_energies: np.ndarray
    kronecker_sum: bool
    labels: FrameLabels = field(repr=False, compare=False)
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
    """Stationary state of a model, on its label chains.

    Every engineered jump moves the orbit label, the character label or
    both by index arithmetic, at a rate that each label sees independently
    of the other (:class:`_LabelChains`), so the stationary marginals are
    the null spaces of the orbit chain M_e and the character chain M_m; no
    channel is transported into the frame and no superoperator is built.
    Each closed recurrent class of a chain holds one stationary
    distribution, found with one linear solve
    (:func:`_recurrent_distributions`), and when there are several (for
    example at p = 0) they are averaged with equal weights.  The joint
    recurrent classes are the pairs of label classes, so ``null_dim`` is
    null_e × null_m, and for a Kronecker sum the joint fixed point is
    π_e ⊗ π_m.  ``residual`` is the 2-norm of (M_e π_e, M_m π_m).  H is
    frame-diagonal, and so is every Gibbs state: for a Kronecker sum the
    Gibbs distance is ½‖π_e ⊗ π_m − w‖₁ with w the Gibbs weights of the
    frame energies (:attr:`FrameLabels.energies`).  Each Wilson loop is
    label-additive, π_e @ d_e + π_m @ d_m
    (:attr:`FrameLabels.wilson_diagonals`).  No dense state is built.
    ``counters`` names the engine (``label-chains``) with both chain sizes
    and null dimensions.
    """
    gen = _compile_generator(model)
    chains = (gen.orbit_chain, gen.char_chain)
    dists = [_recurrent_distributions(m) for m in chains]
    pi_e, pi_m = (np.mean(d, axis=0) for d in dists)
    null_e, null_m = (len(d) for d in dists)
    loops = {name: float(pi_e @ d_e + pi_m @ d_m)
             for name, (d_e, d_m) in gen.labels.wilson_diagonals.items()}
    temperature_db = (None if model.p is None
                      else model.detailed_balance_temperature())
    res = StationaryResult(
        null_dim=null_e * null_m,
        residual=float(np.hypot(np.linalg.norm(chains[0] @ pi_e),
                                np.linalg.norm(chains[1] @ pi_m))),
        trace_distance_to_detailed_balance=None,
        detailed_balance_temperature=temperature_db,
        loop_expectations=loops,
        orbit_populations=pi_e, char_populations=pi_m,
        orbit_energies=gen.labels.energies[0],
        char_energies=gen.labels.energies[1],
        kronecker_sum=gen.kronecker_sum, labels=gen.labels,
        counters={**gen.counters,
                  "orbit_null_dim": null_e, "char_null_dim": null_m,
                  "null_dim": null_e * null_m})
    if res.kronecker_sum and temperature_db is not None:
        res.trace_distance_to_detailed_balance = float(0.5 * np.abs(
            res.populations - _gibbs_weights(res.energies, temperature_db)
        ).sum())
    return res


# ---------------------------------------------------------------------------
# three-level ancilla pumping
# ---------------------------------------------------------------------------

WAIT_FACTOR = 20.0     # level-2 lifetimes per wait: residual 2e-9 < 1e-8


@dataclass(frozen=True)
class PumpProtocol:
    """Pulse schedule preparing an ancilla pseudospin in a biased mixture.

    ``theta`` parameterizes the partial transfer: the final pseudospin state
    is diag{sin^2 theta, cos^2 theta}.  Pulses are treated as instantaneous
    rotations (transfer probability sin^2 of the listed angle; the full
    swaps correspond to pulse area pi), and each wait evolves the
    spontaneous-decay channel from level 2 to level 0 for
    ``WAIT_FACTOR / gamma20`` time units, leaving a residual level-2
    population of about exp(-WAIT_FACTOR).  The effective temperature is
    read at the pair gap ``PAIR_GAP``.
    """

    theta: float
    gamma20: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError("theta must lie in [0, pi/2]")
        if self.gamma20 <= 0.0:
            raise ValueError("gamma20 must be > 0")

    @property
    def steps(self) -> tuple[tuple, ...]:
        wait = ("wait", WAIT_FACTOR / self.gamma20)
        return (("pulse", 1, 2, math.pi / 2), wait,
                ("pulse", 0, 1, math.pi / 2), ("pulse", 1, 2, self.theta),
                wait)


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


def pump_temperature(theta: float) -> float:
    """``PAIR_GAP`` / (2 ln cot theta); 0 at either transfer extreme, inf at
    pi/4."""
    if abs(math.sin(theta)) < 1e-12:
        return 0.0
    cot = math.cos(theta) / math.sin(theta)
    if cot < 1e-12:
        return 0.0
    log = math.log(cot)
    if abs(log) < 1e-15:
        return math.inf
    return PAIR_GAP / (2.0 * log)


def pump_ancilla(protocol: PumpProtocol,
                 rho0: np.ndarray | None = None) -> PumpResult:
    """Run the pulse schedule on the three-level ancilla.

    Pulses are instantaneous unitaries, which assumes the pulse Rabi rate is
    fast compared with the level-2 decay.  The default start is the
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
    return PumpResult(
        rho_pseudospin=rho[:2, :2].copy(),
        effective_temperature=pump_temperature(protocol.theta),
        residual_level2=float(rho[2, 2].real),
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


def _pair_ops(flip: PauliString, h_a: PauliString,
              h_b: PauliString) -> tuple[PauliSum, PauliSum]:
    """flip (1 + h_a)(1 + h_b) / 4 and flip (1 - h_a)(1 + h_b) / 4, each a
    ±1/4-weighted sum of the four strings flip, flip h_b, flip h_a and
    flip h_a h_b: the pair-creation and translation operators of a link
    whose flip and end stabilizers are given."""
    flip_a = flip * h_a
    strings = (flip, flip * h_b, flip_a, flip_a * h_b)
    return (PauliSum.from_terms(zip((0.25, 0.25, 0.25, 0.25), strings)),
            PauliSum.from_terms(zip((0.25, 0.25, -0.25, -0.25), strings)))


def _lowering(n: int, qubit: int) -> PauliSum:
    return PauliSum.from_terms(
        ((0.5, PauliString.single(n, qubit, "X")),
         (0.5j, PauliString.single(n, qubit, "Y"))), n_qubits=n)


@functools.cache
def _probe_operators() -> tuple[PauliSum, tuple[PauliSum, ...]]:
    """The probe's interaction at unit coupling and its three jump
    operators (ancilla lowering, translation-ancilla raising and lowering),
    built once: a grid point changes only their scales."""
    n = 4
    create, translate = _pair_ops(
        PauliString.single(n, 0, "X") * PauliString.single(n, 1, "X"),
        PauliString.single(n, 0, "Z"), PauliString.single(n, 1, "Z"))
    lower_t, lower_m = _lowering(n, 2), _lowering(n, 3)
    raise_m = lower_m.adjoint()
    unit = (create.product(lower_t)
            + create.adjoint().product(lower_t.adjoint())
            + translate.product(lower_m)
            + translate.adjoint().product(raise_m))
    return unit, (lower_t, raise_m, lower_m)


def probe_model(coupling: float, relaxation: float
                ) -> tuple[np.ndarray, list[tuple[float, np.ndarray]]]:
    """Four-qubit toy: one stabilizer pair exchanging excitations with a
    damped ancilla (qubit 2) and a translation ancilla (qubit 3), as its
    dense H and its dense ``(rate, operator)`` channels.

    The stabilizer pair lives on qubits 0 and 1 with single-qubit Z
    "stabilizers" and the joint flip X0 X1, so the pair operators act
    exactly like one adjacent vertex pair of the code.  The interaction
    swaps a system pair with one ancilla excitation at strength
    ``coupling``; the ancilla damps at total rate ``relaxation``, and the
    translation ancilla is held maximally mixed at that same rate.
    """
    if coupling < 0.0 or relaxation <= 0.0:
        raise ValueError("coupling must be >= 0 and relaxation > 0")
    unit, (lower_t, raise_m, lower_m) = _probe_operators()
    # SparseHamiltonian refuses a coefficient that is not real
    h = SparseHamiltonian(4, tuple(
        (c, s) for s, c in (unit * coupling).items())).to_dense()
    channels = [(relaxation / 2.0, lower_t), (relaxation / 4.0, raise_m),
                (relaxation / 4.0, lower_m)]
    return h, [(rate, op.to_dense()) for rate, op in channels]


BURN_IN = 8.0               # ancilla lifetimes before the rate fit
DECAY_WINDOW = 2.0          # predicted pair lifetimes the fit spans
FIT_RESIDUAL_TOL = 0.02     # largest log-residual of a Markovian fit

# the probe starts with the pair excited (qubits 0 and 1 set), the damped
# ancilla empty and the translation ancilla maximally mixed; the pair is
# still excited while qubits 0 and 1 are set
_PROBE_START = (0b0011, 0b1011)
_PROBE_PAIR = (0b0011, 0b1011, 0b0111, 0b1111)


def _reachable_block(h: np.ndarray, channels, seeds: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(idx, block): the sorted entries of row-major vec(rho) that
    ``seeds`` reach under the vectorized generator of a dense ``h`` and
    dense ``(rate, operator)`` channels, and the generator on them.

    With A = sum r c†c the generator is -i(H⊗1 - 1⊗Hᵀ) - (A⊗1 + 1⊗Aᵀ)
    + sum 2r c⊗c̄; column a n + b of a term s (P ⊗ Q) is s P[:, a] ⊗ Q[:, b].
    Only reached columns are built, each summing the terms in that order,
    and their nonzero rows are the next entries reached."""
    n = h.shape[0]
    absorber = sum((r * (c.conj().T @ c) for r, c in channels),
                   np.zeros((n, n), dtype=complex))
    eye = np.eye(n, dtype=complex)
    terms = [(-1j, h, eye), (1j, eye, h.T), (-1.0, absorber, eye),
             (-1.0, eye, absorber.T)]
    terms += [(2.0 * r, c, c.conj()) for r, c in channels]
    columns: dict[int, np.ndarray] = {}
    new = np.unique(seeds)
    while new.size:
        a, b = np.divmod(new, n)
        cols = np.zeros((n, n, new.size), dtype=complex)
        for s, p, q in terms:
            cols += s * (p[:, None, a] * q[None, :, b])
        cols = cols.reshape(n * n, -1)
        columns.update(zip(new.tolist(), cols.T))
        new = np.setdiff1d(np.flatnonzero(cols.any(axis=1)), list(columns))
    idx = np.array(sorted(columns))
    return idx, np.stack([columns[j] for j in idx.tolist()], axis=1)[idx]


def _pair_populations(h: np.ndarray, channels, times: np.ndarray
                      ) -> np.ndarray:
    """Excited-pair population at ``times`` of the probe with dense ``h``
    and ``channels`` (:func:`probe_model`), exact.

    The vectorized generator is eigendecomposed on the entries of vec(rho)
    that the start reaches (:func:`_reachable_block`), an invariant
    subspace that holds every nonzero entry of rho(t).
    """
    dim = h.shape[0]
    start = np.array(_PROBE_START) * (dim + 1)     # vec index of |s><s|
    idx, block = _reachable_block(h, channels, start)
    vals, vecs = np.linalg.eig(block)
    coeffs = np.linalg.solve(vecs, 0.5 * np.isin(idx, start))
    pair = np.isin(idx, np.array(_PROBE_PAIR) * (dim + 1))
    weights = vecs[pair, :].sum(axis=0) * coeffs
    return np.real(weights[None, :] * np.exp(np.outer(times, vals))).sum(axis=1)


def adiabatic_elimination_probe(coupling_values: Sequence[float],
                                relaxation_values: Sequence[float]
                                ) -> EliminationReport:
    """Measure the effective pair-relaxation rate of the reduced dynamics.

    For each grid point the four-qubit master equation of
    :func:`probe_model`, started from the excited pair, is solved exactly
    (:func:`_pair_populations`): the start reaches 10 of the 256 entries of
    the vectorized density matrix, and the generator is eigendecomposed on
    those alone.  After a burn-in of ``BURN_IN`` ancilla lifetimes the pair
    population is fit to a single exponential over ``DECAY_WINDOW``
    predicted pair lifetimes.  A fit whose log-residual exceeds
    ``FIT_RESIDUAL_TOL`` marks the reduced dynamics as
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
            h, channels = probe_model(g, lam)
            if g == 0.0:
                points.append(EliminationPoint(g, lam, 0.0, 0.0))
                continue
            predicted = 4.0 * g * g / lam
            burn = BURN_IN / lam
            horizon = burn + DECAY_WINDOW / predicted
            t_grid = np.linspace(burn, horizon, 40)
            pops = _pair_populations(h, channels, t_grid)
            if np.any(pops <= 0.0):
                raise FitRejectedError("pair population lost positivity")
            design = np.column_stack([t_grid, np.ones_like(t_grid)])
            sol, *_ = np.linalg.lstsq(design, np.log(pops), rcond=None)
            fit_residual = float(np.max(np.abs(
                np.log(pops) - design @ sol)))
            if fit_residual > FIT_RESIDUAL_TOL:
                raise FitRejectedError(
                    f"log-linear fit residual {fit_residual:.3e} exceeds "
                    f"{FIT_RESIDUAL_TOL:.1e} at g={g}, relaxation={lam}")
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
