"""Exact diagonalization of the stabilizer Hamiltonian with its synthesis
perturbations.

The model is

    H = -J_e sum_v (vertex ZZZZ) - J_m sum_p (plaquette XXXX)
        - h_z sum_i Z_i + chi sum_pairs X_i Y_j

on the ``2 L^2`` link qubits.  The chi pairs are where the pulse sequences
leave their residual: the 2nd and 3rd links, (links[1], links[2]), of every
vertex and plaquette neighborhood in its canonical order.  The letters do
not follow the pulses on plaquettes: the vertex sequence leaves X_a Y_b,
but the plaquette sequence, whose generators are cycled X -> Y -> Z,
leaves Y_a Z_b (IXYI becomes IYZI).  X.Y on every pair is a stand-in
until H is derived from the composed pulses.

Every such H is real up to a diagonal phase gauge: S gates on the links
of a mask found by a GF(2) solve over the terms (:func:`real_gauge`; the
vertical links) turn each X.Y pair into a real product and leave every
plaquette with an even number of Y letters.  All arithmetic below is real
in that gauge, except in the momentum blocks of a complex character, and
terms that have none are refused.  Every term maps a
Z-basis state j only to j ^ x with x in the GF(2) span W of the X-masks,
so H is block diagonal over the cosets of W: 1024 sectors of 256 states
at L = 3 and chi = 0, 8 of 32768 at chi != 0, each its minimum XOR all
of W (:class:`Cosets`, which also labels the stabilizer frame's orbits in
``toricsim.lindblad``: at chi = 0, W is the plaquette-flip group).  H is
compiled in that gauge in two steps: its term strings fix W's cosets, the
gauge links, the terms of each X-mask and the symmetries below, once per
chi scan for chi = 0 and once for chi != 0; its coefficients fix the
diagonal and every sector's Gershgorin floor at each chi point.  The
compiled operator builds the CSR block of a sector, one entry per row for
each distinct X-mask, only when asked.  The eigensolver builds the blocks
it visits, skipping every block whose floor proves it holds none of the
lowest levels, and rules out a Lanczos-sized block whose lowest level a
loose probe, a plain Lanczos recurrence with no ARPACK, places above the
k-th level found; the Z-basis matvec applies H block by block.  No code
path assembles all 2^n rows at once.

The lattice translations permute the links, and those that leave the term
multiset exactly invariant commute with H and permute the cosets of W.
Blocks in one translation orbit are permutation-similar, so the solver
diagonalizes one block per orbit and reuses its levels for the others:
128 orbits of the 1024 sectors at L = 3 and chi = 0, 4 of the 8 at
chi != 0.  A kept vector stays in its sector: a member's is the
representative's, carried over by the qubit permutation and verified on
the member's rows.  A representative's block too large for dense
``eigh`` is split by translation momentum: the translations that fix its
sector form an abelian group, and each character of it has a block built
from the sector's translation-orbit representatives (Sandvik,
arXiv:1101.3281; Lin, PRB 42, 6561, 1990).  At L = 3 and chi != 0 all 9
translations fix sectors 0 and 7, 5 blocks of about 3650 states each
once a character and its conjugate share one, and an order-3 subgroup
fixes each of the other six, 2 blocks of about 10920.  This is the one
solver path at every lattice size; the dense construction, and dense
``eigh`` of the whole H, are the oracle it is tested against.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import lattice as lt
from .pauli import QUARTER_TURNS, PauliString

DENSE_DIM_CAP = 4096
# rows per vectorized pass of a block build: a pass's rows x terms
# temporaries stay in cache and add no transient memory at any block size
BLOCK_ROWS = 2048


class ConvergenceError(RuntimeError):
    """Eigensolver finished without meeting the residual bound."""


def _gather_bits(states: np.ndarray, bits: Iterable[int]) -> np.ndarray:
    """Bit i of each result is bit ``bits[i]`` of the state."""
    out = np.zeros(states.shape, dtype=np.int64)
    for i, b in enumerate(bits):
        out |= (states >> np.uint64(b) & np.uint64(1)).astype(np.int64) << i
    return out


def _echelon(rows: Iterable[tuple[int, int]]) -> dict[int, tuple[int, int]] | None:
    """Reduced GF(2) echelon form of (mask, rhs) rows, or None if inconsistent.

    Maps each pivot, the leading bit of its row, to (row, rhs); every row
    is zero at every other pivot.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for row, rhs in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (row, rhs)
                break
            prow, prhs = pivots[lead]
            row, rhs = row ^ prow, rhs ^ prhs
        else:
            if rhs:
                return None
    for lead in sorted(pivots):  # clear each pivot from the rows above it
        prow, prhs = pivots[lead]
        for other, (row, rhs) in pivots.items():
            if other != lead and row >> lead & 1:
                pivots[other] = (row ^ prow, rhs ^ prhs)
    return pivots


def _span(vectors: Iterable[int]) -> np.ndarray:
    """Every XOR combination of ``vectors``; bit i of the index picks vector i."""
    out = np.zeros(1, dtype=np.uint64)
    for v in vectors:
        out = np.concatenate([out, out ^ np.uint64(v)])
    return out


@dataclass(frozen=True, eq=False)
class Cosets:
    """The cosets of the GF(2) span W of some ``n_bits``-bit masks.

    ``rows`` are W's reduced echelon rows in ascending leading bit, the
    pivot, where every other row is zero; bit i of an index into
    ``elements`` picks row i.  ``reps`` are the coset minima, the states
    zero at every pivot, ascending, and coset c is ``reps[c] ^ elements``
    (:meth:`members`).  The reduced form of a span is unique: masks with
    one span give the same rows, ``reps`` and ``elements``.
    """

    n_bits: int
    rows: tuple[int, ...]
    reps: np.ndarray
    elements: np.ndarray

    @classmethod
    def of(cls, masks: Iterable[int], n_bits: int) -> Cosets:
        pivots = _echelon((m, 0) for m in masks)
        rows = tuple(pivots[b][0] for b in sorted(pivots))
        return cls(n_bits=n_bits, rows=rows, elements=_span(rows),
                   reps=_span(1 << b for b in range(n_bits)
                              if b not in pivots))

    def members(self, c: int) -> np.ndarray:
        return self.reps[c] ^ self.elements

    def locate(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(coset, local) of each state, with ``reps[coset] ^
        elements[local]`` the state: ``local`` is its bits at the pivots,
        ``coset`` its other bits once XOR with ``elements[local]`` clears
        the pivots.  Both are int64, and both maps are linear."""
        states = np.asarray(states, dtype=np.uint64)
        leads = [row.bit_length() - 1 for row in self.rows]
        local = _gather_bits(states, leads)
        free = [b for b in range(self.n_bits) if b not in leads]
        return _gather_bits(states ^ self.elements[local], free), local


def plaquette_cosets(lat: lt.TorusLattice) -> Cosets:
    """The cosets of the plaquette-flip group, the span of the plaquette
    X-masks; the last plaquette is the product of the others."""
    return Cosets.of((sum(1 << link for link in links)
                      for links in lat.plaquette_links), lat.n_links)


def real_gauge(terms: Sequence[tuple[float, PauliString]]) -> int | None:
    """Link mask ``s`` of an S-gate gauge that makes every term real, or None.

    With V = diag(v), v_j = i**popcount(j & s), the weight of a term at
    (j, j ^ x) in V^H H V is its real coefficient times a sign times
    i**(q + popcount(x & s)), where q is the term's
    :meth:`~toricsim.pauli.PauliString.quarter_turns`, whose parity is the
    same at every j.  It is real iff popcount(x & s) = q (mod 2): one GF(2)
    equation per term, solved by elimination on the X-masks with every free
    link left out of ``s``.
    """
    pivots = _echelon((t.x_mask, int(t.quarter_turns(np.uint64(0))) & 1)
                      for _, t in terms)
    if pivots is None:
        return None
    # a reduced row meets s only at its own pivot
    return sum(1 << lead for lead, (_, rhs) in pivots.items() if rhs)


def _permute_bits(masks: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Every mask with bit q moved to bit ``perm[q]``."""
    masks = np.asarray(masks, dtype=np.uint64)[..., None]
    bits = masks >> np.arange(len(perm), dtype=np.uint64) & np.uint64(1)
    return np.bitwise_or.reduce(bits << np.array(perm, dtype=np.uint64),
                                axis=-1)


def _term_symmetries(terms: Sequence[tuple[float, PauliString]],
                     candidates: Iterable[Sequence[int]]
                     ) -> tuple[tuple[int, ...], ...]:
    """The candidate link permutations that map the multiset of terms
    (coefficient, X-mask, Z-mask, phase) exactly onto itself."""
    coeffs = [c for c, _ in terms]
    phases = [t.phase_quarter for _, t in terms]
    xs = np.array([t.x_mask for _, t in terms], dtype=np.uint64)
    zs = np.array([t.z_mask for _, t in terms], dtype=np.uint64)

    def multiset(x, z):
        return Counter(zip(coeffs, x.tolist(), z.tolist(), phases))

    own = multiset(xs, zs)
    return tuple(tuple(p) for p in candidates
                 if multiset(_permute_bits(xs, p), _permute_bits(zs, p)) == own)


def _entry_turns(rows: np.ndarray, masks: np.ndarray,
                 turns0: np.ndarray) -> np.ndarray:
    """k mod 4 at every row j, with i**k the phase of a term's entry at
    (j, j ^ x) of V^H H V: k(j) = k(0) + 2 popcount(j & m).

    The entry's phase is q(j ^ x) + popcount((j ^ x) & s) - popcount(j & s)
    for the term's :meth:`~toricsim.pauli.PauliString.quarter_turns` q and
    the gauge links s; expanding each popcount of an XOR leaves k(0)
    (``turns0``) plus twice popcount(j & m) with m = z ^ (x & s)
    (``masks``).  ``masks`` and ``turns0`` broadcast against ``rows``.
    """
    return (turns0 + 2 * np.bitwise_count(rows & masks)) & 3


def _characters(perms: Sequence[tuple[int, ...]], n_bits: int
                ) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """(group, table) of the abelian group that commuting link permutations
    generate: its elements, the identity first, and its character table,
    one row per character, the trivial one first, with unit-modulus
    entries.  Each generator g not yet in the group H built so far extends
    it to the union of the cosets g^j H, j < m, with g^m the first power of
    g in H, and each character of H in m ways: chi(g^j h) = z^j chi(h) for
    the m roots z of z^m = chi(g^m)."""
    group = [tuple(range(n_bits))]
    table = np.ones((1, 1), dtype=complex)
    for g in perms:
        if g in group:
            continue
        cosets = [group]
        while (power := tuple(g[q] for q in cosets[-1][0])) not in group:
            cosets.append([tuple(g[q] for q in h) for h in cosets[-1]])
        m = len(cosets)
        z = (table[:, group.index(power), None] ** (1 / m)
             * np.exp(2j * np.pi * np.arange(m) / m))
        table = (z[:, :, None, None] ** np.arange(m)[:, None]
                 * table[:, None, None, :]).reshape(z.size, -1)
        group = [h for coset in cosets for h in coset]
    return group, table


@dataclass(frozen=True)
class _Momenta:
    """The translation momenta of one sector: the abelian group G of the
    symmetries that fix it (:func:`_characters`) and the orbits of its
    states under G, which depend on the term strings only.

    ``reps`` are the local indices of the orbit representatives, each its
    orbit's minimum, ascending; ``rep_of`` indexes into them the
    representative r' of every local state, and ``code`` is g |reps| + r'
    for the element g of G that carries the state to r'.  ``fixes[g, r]``
    says whether element g fixes representative r, ``stab`` counts those
    elements, and row c of ``table`` is character c of G.  ``shifts`` are
    the sector operator's: X-mask w takes local row l to column ``l ^
    shifts[w]``.  ``pairs[c]`` is the conjugate character of c;
    ``visits`` holds one character of each conjugate pair, the trivial
    one first.
    """

    reps: np.ndarray
    rep_of: np.ndarray
    code: np.ndarray
    fixes: np.ndarray
    stab: np.ndarray
    table: np.ndarray
    shifts: np.ndarray
    pairs: np.ndarray
    visits: tuple[int, ...]

    @classmethod
    def of(cls, op: SectorOperator, s: int) -> _Momenta:
        """The momenta of sector s of ``op``, whose real gauge every
        symmetry that fixes the sector must leave in place: V commutes
        with the permutations only then."""
        fixing = [p for p, image in zip(op.symmetries, op.images)
                  if image[s] == s]
        if any(int(_permute_bits(op.gauge, p)) != op.gauge for p in fixing):
            raise RuntimeError("a symmetry moves the real gauge's links")
        group, table = _characters(fixing, op.cosets.n_bits)
        # a state's place is linear in it: the image of rep ^ elements[l]
        # is the image of rep XOR the images of the rows that l picks
        images = np.empty((len(group), op.cosets.elements.size), np.int32)
        for image, g in zip(images, group):
            base, *rows = op.cosets.locate(_permute_bits(
                [op.cosets.reps[s], *op.cosets.rows], g))[1]
            image[:] = _span(rows) ^ np.uint64(base)
        rep = images.min(axis=0)
        reps = np.flatnonzero(rep == np.arange(rep.size))
        rep_of = np.searchsorted(reps, rep).astype(np.int32)
        fixes = images[:, reps] == reps
        # a character and its conjugate: each entry's inverse
        pairs = np.argmin(np.abs(table[:, None, :] - table.conj()).max(
            axis=2), axis=0)
        code = images.argmin(axis=0).astype(np.int32) * reps.size + rep_of
        return cls(reps=reps, rep_of=rep_of, code=code, fixes=fixes,
                   stab=fixes.sum(axis=0), table=table,
                   shifts=op.shifts, pairs=pairs, visits=tuple(
                       c for c in range(len(group)) if c <= pairs[c]))

    def _character(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """(chi, at) of character c by ``code``: chi at the element, real
        where it is real, and the representative's place in the block, -1
        where chi is not trivial on its stabilizer; the first |reps| codes
        are the identity's."""
        chi = self.table[c]
        if c == self.pairs[c]:
            chi = chi.real
        keep = np.all(~self.fixes | (np.abs(chi - 1) < 1e-9)[:, None],
                      axis=0)
        at = np.where(keep, np.cumsum(keep) - 1, -1).astype(np.int32)
        return np.repeat(chi, keep.size), np.tile(at, chi.size)

    def gather(self, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(entries, code) that every character's block takes from the
        representatives' rows of the sector block (``entries``, one column
        per X-mask): the entry of row r at a state j, scaled in place by
        sqrt(|stab r'| / |stab r|) for j's representative r', and j's
        ``code``.  The rows are taken ``BLOCK_ROWS`` at a time."""
        code = np.empty(entries.shape, dtype=np.int32)
        stab = self.stab[self.rep_of]  # |stab r'| at every local state
        for lo in range(0, self.reps.size, BLOCK_ROWS):
            r = slice(lo, lo + BLOCK_ROWS)
            targets = self.reps[r, None] ^ self.shifts
            code[r] = self.code[targets]
            entries[r] *= np.sqrt(stab[targets] / self.stab[r, None])
        return entries, code

    def block(self, c: int, entries: np.ndarray,
              code: np.ndarray) -> scipy.sparse.csr_matrix:
        """The CSR block of character c from the sector's :meth:`gather`,
        real when chi is real: each scaled entry times chi at its element,
        in the column of its representative r' in this block.  Row r keeps
        one entry per X-mask, as the sector block does; entries that meet
        in one column add up in every product, and an entry at an r' on
        whose stabilizer chi is not trivial is zero, since r' has no state
        of this character.  The rows are taken ``BLOCK_ROWS`` at a time."""
        chi, at = self._character(c)
        rows = np.flatnonzero(at[:self.reps.size] >= 0)
        data = np.empty((rows.size, self.shifts.size), dtype=chi.dtype)
        indices = np.empty(data.shape, dtype=np.int32)
        for lo in range(0, rows.size, BLOCK_ROWS):
            r = rows[lo:lo + BLOCK_ROWS]
            codes = code[r]
            data[lo:lo + BLOCK_ROWS] = entries[r] * chi.take(codes)
            indices[lo:lo + BLOCK_ROWS] = at.take(codes)
        data[indices < 0] = 0.0
        np.maximum(indices, 0, out=indices)
        indptr = np.arange(rows.size + 1, dtype=np.int32) * self.shifts.size
        return scipy.sparse.csr_matrix(
            (data.reshape(-1), indices.reshape(-1), indptr),
            shape=(rows.size, rows.size))

    def expand(self, c: int, phi: np.ndarray) -> np.ndarray:
        """The sector's local amplitudes of vector ``phi`` of character c's
        block: phi at the state's representative r, times chi at the
        element that carries the state to r, times sqrt(|stab r| / |G|)."""
        chi, at = self._character(c)
        place = at[self.code]
        return np.where(place >= 0, phi[place] * chi[self.code] * np.sqrt(
            self.stab[self.rep_of] / self.table.shape[1]), 0.0)


@dataclass(frozen=True)
class SectorOperator:
    """H in sector order, V A V^H, kept as what builds each diagonal block
    of A on request.

    Every term maps a state j only to j ^ x with x in the GF(2) span W of
    the X-masks, so A is block diagonal over W's ``cosets``: local row l
    of sector s is ``cosets.reps[s] ^ cosets.elements[l]``.  ``gauge`` is
    the :func:`real_gauge` link mask, v at the states asked for is
    :meth:`phases`, and A is real symmetric.

    Every row of A holds one entry per distinct X-mask, ``x_masks`` in
    ascending order: X-mask g puts the entry of local row l of a sector at
    local column ``l ^ shifts[g]``.  ``diagonal``, A's diagonal sector by
    sector, is the only array here with an entry per state.  The other
    terms make one entry per distinct Pauli string, the sum of the
    string's terms; ordered by X-mask and by first term within one, the
    entries are ``groups`` (the index of their X-mask) and the ``masks``,
    ``turns0`` and ``coeffs`` of their phases (:func:`_entry_turns`).
    ``floors[s]`` is the Gershgorin floor of block s, min_i(a_ii -
    sum_{j != i} |a_ij|), a lower bound on its spectrum.

    ``symmetries`` are the candidate link permutations that leave the terms
    exactly invariant; they commute with H and permute the sectors, sector
    s onto ``images[i, s]`` under symmetry i.  ``orbit[s]`` is the
    representative of sector s's orbit, its first sector in ascending
    floor (stable sort), and ``carry[s]`` a link permutation, a product of
    symmetries, that maps the representative's coset onto sector s's.
    :meth:`at` sets ``diagonal``, ``coeffs``, ``floors``, ``orbit`` and
    ``carry`` from the terms' coefficients, X-mask g's entries in
    ``by_mask[g]`` as (term-index tuple, mask, turns0); an entry's
    coefficient is its terms' sum, in term order.
    ``momenta`` holds each split sector's :class:`_Momenta`, which depend
    on the strings only: built on first use, and shared by the operator at
    every set of coefficients.
    """

    cosets: Cosets
    gauge: int
    x_masks: np.ndarray
    shifts: np.ndarray
    diagonal: np.ndarray
    groups: np.ndarray
    masks: np.ndarray
    turns0: np.ndarray
    coeffs: np.ndarray
    floors: np.ndarray
    symmetries: tuple[tuple[int, ...], ...]
    orbit: np.ndarray
    carry: tuple[tuple[int, ...], ...]
    images: np.ndarray
    by_mask: tuple[tuple[tuple[tuple[int, ...], int, int], ...], ...]
    momenta: dict = field(default_factory=dict, repr=False)

    def at(self, coeffs: Sequence[float]) -> SectorOperator:
        """The operator at the given coefficients, in term order.

        The Gershgorin floors take the diagonal, summed in real arithmetic,
        and a radius: |coefficient| for an X-mask with one entry, which
        may sum several terms of one string, and the row-wise |entry|
        only where strings share an X-mask, on the states in
        sector order, which are not kept.  Each pass takes the whole
        sectors that fit in ``BLOCK_ROWS`` x (X-masks) rows, as many values
        as a pass of :meth:`block` holds, or one sector if it is larger.
        The first sector of an orbit in ascending floor represents it.
        """
        sums = [[sum(coeffs[i] for i in t) for t, _, _ in e]
                for e in self.by_mask]
        n, reps = self.cosets.elements.size, self.cosets.reps
        per_pass = max(1, BLOCK_ROWS * self.x_masks.size // n)
        diagonal, floors = np.zeros(reps.size * n), np.empty(reps.size)
        for lo in range(0, reps.size, per_pass):
            states = (reps[lo:lo + per_pass, None]
                      ^ self.cosets.elements).reshape(-1)
            rows = slice(lo * n, lo * n + states.size)
            radius = np.zeros(states.size)
            for x, e, cs in zip(self.x_masks.tolist(), self.by_mask, sums):
                if x and len(cs) == 1:
                    radius += abs(cs[0])
                    continue
                w = np.zeros(states.size)
                for c, (_, m, turns0) in zip(cs, e):
                    turns = _entry_turns(states, np.uint64(m), turns0)
                    w += c * (1.0 - (turns & 2))
                if x:
                    radius += np.abs(w)
                else:
                    diagonal[rows] = w
            floors[lo:lo + per_pass] = (diagonal[rows] - radius).reshape(
                -1, n).min(axis=1)
        orbit = np.full(floors.size, -1, dtype=np.int64)
        carry: list = [None] * floors.size
        for first in np.argsort(floors, kind="stable"):
            if orbit[first] >= 0:
                continue
            orbit[first], carry[first] = first, tuple(range(self.cosets.n_bits))
            reached = [first]
            for s in reached:
                for perm, image in zip(self.symmetries, self.images):
                    t = image[s]
                    if orbit[t] < 0:
                        orbit[t] = first
                        carry[t] = tuple(perm[q] for q in carry[s])
                        reached.append(t)
        return replace(self, diagonal=diagonal, floors=floors, orbit=orbit,
                       carry=tuple(carry),
                       coeffs=np.array([c for x, cs in zip(self.x_masks, sums)
                                        if x for c in cs], dtype=float))

    def phases(self, states: np.ndarray) -> np.ndarray:
        """The real gauge v_j = i**popcount(j & s) at the given states."""
        return QUARTER_TURNS[np.bitwise_count(states & np.uint64(self.gauge)) % 4]

    def block(self, s: int) -> scipy.sparse.csr_matrix:
        """The CSR block of sector s, all of its rows (:meth:`_row_csr`)."""
        return self._row_csr(s, np.arange(self.cosets.elements.size))

    def _row_csr(self, s: int, local: np.ndarray) -> scipy.sparse.csr_matrix:
        """The given local rows of sector s as CSR rows over all of its
        columns: row i lists the entries of row ``local[i]`` (:meth:`rows`)
        in ascending X-mask, at columns ``local[i] ^ shifts``."""
        width = self.x_masks.size
        indices = local.astype(np.int32)[:, None] ^ self.shifts
        indptr = np.arange(local.size + 1, dtype=np.int32) * width
        return scipy.sparse.csr_matrix(
            (self.rows(s, local).reshape(-1), indices.reshape(-1), indptr),
            shape=(local.size, self.cosets.elements.size))

    def rows(self, s: int, local: np.ndarray) -> np.ndarray:
        """The entries of the given local rows of sector s, one column per
        X-mask, the diagonal in X-mask 0's.  Each sums its X-mask's
        strings in order from zero.  The rows are taken ``BLOCK_ROWS`` at a
        time.
        """
        states = self.cosets.members(s)[local]
        data = np.empty((local.size, self.x_masks.size))
        for lo in range(0, local.size, BLOCK_ROWS):
            data[lo:lo + BLOCK_ROWS] = self._entries(
                states[lo:lo + BLOCK_ROWS])
        if self.x_masks.size and not self.x_masks[0]:
            data[:, 0] = self.diagonal[s * self.cosets.elements.size + local]
        return data

    def _momenta(self, s: int) -> _Momenta:
        """Sector s's :class:`_Momenta`, built once per term-string
        structure."""
        if s not in self.momenta:
            self.momenta[s] = _Momenta.of(self, s)
        return self.momenta[s]

    def _entries(self, rows: np.ndarray) -> np.ndarray:
        """The off-diagonal entries of the given rows, one column per
        X-mask (X-mask 0's is zero), each checked real."""
        n, width = rows.size, self.x_masks.size
        turns = _entry_turns(rows[:, None], self.masks, self.turns0)
        if np.bitwise_or.reduce(turns, None) & 1:
            x = self.x_masks[self.groups[np.any(turns & 1, axis=0)][0]]
            raise RuntimeError(f"the gauge leaves X-mask {x:#x} complex")
        values = self.coeffs * (1.0 - (turns & 2))
        slots = (np.arange(n)[:, None] * width + self.groups).reshape(-1)
        # summed in index order; bincount is integer if there are no terms
        return np.bincount(slots, values.reshape(-1), n * width).astype(
            float, copy=False).reshape(n, width)


@dataclass
class SparseHamiltonian:
    """Hermitian Pauli-term Hamiltonian, compiled once to a sector operator
    that builds CSR blocks on request.

    ``symmetries`` are candidate link permutations (entry q is the link
    qubit q moves to); :meth:`compile` keeps those that leave the terms
    invariant.
    """

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]
    symmetries: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        for coeff, string in self.terms:
            if abs(complex(coeff).imag) > 1e-14 or not string.is_hermitian:
                raise ValueError(
                    f"non-Hermitian term {coeff!r} * {string.label()}")
            if string.n_qubits != self.n_qubits:
                raise ValueError("term register size mismatch")
        self.terms = tuple((float(np.real(coeff)), string)
                           for coeff, string in self.terms)
        for perm in self.symmetries:
            if sorted(perm) != list(range(self.n_qubits)):
                raise ValueError(f"{perm} is not a permutation of the links")
        self._sectors = None
        self._compiled = None

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def compile(self) -> SectorOperator:
        """The sector-ordered operator, built once and cached: the
        structure of the term strings (:meth:`_structure`) at H's
        coefficients (:meth:`SectorOperator.at`).  No block is built here.
        """
        if self._compiled is None:
            self._compiled = self._structure().at(
                [coeff for coeff, _ in self.terms])
        return self._compiled

    def _structure(self) -> SectorOperator:
        """The string-only step of :meth:`compile`, built once: a sector
        operator without the fields that its coefficients set.  Terms with
        no :func:`real_gauge` raise ``ValueError``.

        A state's place in its sector is its bits at the pivots of W's
        reduced echelon basis (:class:`Cosets`), so the place of j ^ x is
        the place of j XOR the pivot bits of x.  The phase parity of a
        term's entries is the same in every row (:func:`_entry_turns`), so
        one check per term proves the gauge real.  A coset's image under a
        symmetry is located from its permuted minimum.
        """
        if self._sectors is not None:
            return self._sectors
        links = real_gauge(self.terms)
        if links is None:
            raise ValueError("no real gauge exists for these terms; "
                             "the sector operator needs one")
        # X-mask -> (mask, turns0) of each distinct string -> its terms
        by_mask: dict[int, dict[tuple[int, int], list[int]]] = {}
        for i, (_, t) in enumerate(self.terms):
            x = t.x_mask
            # k(0) = q(x) + popcount(x & s), the entry phase at row 0
            turns0 = (int(t.quarter_turns(np.uint64(x)))
                      + (x & links).bit_count())
            if turns0 & 1:
                raise RuntimeError(
                    f"gauge {links:#x} leaves X-mask {x:#x} complex")
            by_mask.setdefault(x, {}).setdefault(
                (t.z_mask ^ (x & links), turns0 % 4), []).append(i)
        xs = sorted(by_mask)
        entries = tuple(tuple((tuple(terms), *key)
                              for key, terms in by_mask[x].items()) for x in xs)
        cosets = Cosets.of(xs, self.n_qubits)
        off = [(g, m, turns0) for g, x in enumerate(xs) if x
               for _, m, turns0 in entries[g]]
        x_masks = np.array(xs, dtype=np.uint64)
        symmetries = _term_symmetries(self.terms, self.symmetries)
        moved = [_permute_bits(cosets.reps, p) for p in symmetries]
        self._sectors = SectorOperator(
            cosets=cosets, gauge=links, x_masks=x_masks,
            shifts=cosets.locate(x_masks)[1].astype(np.int32),
            by_mask=entries,
            groups=np.array([o[0] for o in off], dtype=np.intp),
            masks=np.array([o[1] for o in off], dtype=np.uint64),
            turns0=np.array([o[2] for o in off], dtype=np.uint8),
            symmetries=symmetries, images=cosets.locate(np.reshape(
                moved, (len(moved), cosets.reps.size)))[0],
            diagonal=None, coeffs=None, floors=None, orbit=None, carry=None)
        return self._sectors

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        """H psi in the Z basis, applied block by block in sector order."""
        op = self.compile()
        psi = np.asarray(psi, dtype=complex).reshape(self.dim)
        out = np.empty_like(psi)
        for s in range(op.floors.size):
            a, rows = op.block(s), op.cosets.members(s)
            u = op.phases(rows).conj() * psi[rows]
            out[rows] = op.phases(rows) * (a @ u.real + 1j * (a @ u.imag))
        return out

    def to_dense(self) -> np.ndarray:
        if self.dim > DENSE_DIM_CAP:
            raise ValueError(f"dimension {self.dim} exceeds the dense cap")
        h = np.zeros((self.dim, self.dim), dtype=complex)
        for coeff, s in self.terms:
            h += coeff * s.to_dense()
        return h


def chi_pair_terms(lat: lt.TorusLattice) -> list[tuple[int, int]]:
    """(x_link, y_link) pairs receiving the chi X.Y coupling: the 2nd and
    3rd links of every neighborhood in its canonical order, where the
    surviving residual acts, the L^2 vertex pairs first.  Every plaquette
    pair is a vertex pair: plaquette (r, c)'s east and south links are
    vertex (r + 1, c + 1)'s north and west links, so the 2 L^2 pairs are
    L^2 distinct ones, each listed twice."""
    return [(links[1], links[2])
            for links in lat.vertex_links + lat.plaquette_links]


def build_hamiltonian(lat: lt.TorusLattice, j_e: float = 1.0, j_m: float = 1.0,
                      chi: float = 0.0, h_z: float = 0.0
                      ) -> SparseHamiltonian:
    """Assemble the perturbed stabilizer Hamiltonian on the lattice links,
    with the lattice translations as candidate symmetries.

    Every chi pair (:func:`chi_pair_terms`) gets chi X_a Y_b.  That is the
    residual the pulses leave on a vertex's (links[1], links[2]); on a
    plaquette's they leave Y_a Z_b, so X.Y there is a stand-in.  Each
    plaquette pair is also a vertex pair, so H carries 2 chi X_a Y_b on L^2
    pairs, not chi on 2 L^2; with the pulses' letters those links would
    carry chi (X_a Y_b + Y_a Z_b).
    """
    n = lat.n_links
    terms: list[tuple[float, PauliString]] = []
    for v in range(lat.n_vertices):
        terms.append((-j_e, lt.vertex_stabilizer(lat, v)))
    for p in range(lat.n_plaquettes):
        terms.append((-j_m, lt.plaquette_stabilizer(lat, p)))
    if h_z:
        for link in range(n):
            terms.append((-h_z, PauliString.single(n, link, "Z")))
    if chi:
        for a, b in chi_pair_terms(lat):
            x = PauliString.single(n, a, "X")
            y = PauliString.single(n, b, "Y")
            terms.append((chi, x * y))
    return SparseHamiltonian(n_qubits=n, terms=tuple(terms),
                             symmetries=lt.translations(lat))


@dataclass
class SpectrumResult:
    """Lowest eigenpairs with verified residuals, ascending.

    ``residuals`` are the measured ||H v - e v||, round-off that changes
    with the BLAS build; ``residual_bound`` is the bound every one of them
    was verified against, fixed by the Hamiltonian and the solver path.
    The counters say what the solver did: the number and dimension of the
    sectors it split the space into, the number of translation orbits they
    fall into, how many blocks it solved with dense ``eigh`` and with
    Lanczos, how many momentum blocks the probe ruled out
    (``probed_blocks``), how many momentum blocks were solved or probed
    (``momentum_blocks``), and the size of the largest block any solve or
    probe ran on (``max_block_dim``).  A sector above ``DENSE_DIM_CAP`` is
    split into momentum blocks; a smaller one is one block.  The other
    members of a solved orbit reuse its levels, and the remaining orbits
    were skipped by their Gershgorin floors.

    Level c lies in sector ``level_sectors[c]``; column c of
    ``local_vectors`` holds its Z-basis amplitudes there, in local order,
    and it is zero on every other sector.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    residual_bound: float
    sectors: int
    sector_dim: int
    orbits: int
    dense_blocks: int
    lanczos_blocks: int
    probed_blocks: int
    momentum_blocks: int
    max_block_dim: int
    level_sectors: np.ndarray
    local_vectors: np.ndarray

    @property
    def counters(self) -> dict[str, int]:
        """The int fields, ``sectors`` to ``max_block_dim``, in order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.type == "int"}


RESIDUAL_BOUND = 1e-8
ORTHONORMALITY_BOUND = 1e-10
# the probe's measured residual covers its looseness: at L = 3 the blocks
# it rules out bottom out about 0.4 above the k-th level
PROBE_TOL = 1e-4
# the probe's step cap, which bounds the memory of its single-precision
# basis: the L = 3 probes converge in 20 to 65 steps at chi <= 0.6
PROBE_STEPS = 200


def _verify(residuals: np.ndarray, residual_bound: float) -> None:
    if np.any(residuals > residual_bound):
        raise ConvergenceError(
            f"residuals {residuals} exceed the bound {residual_bound}")


def _start(a: scipy.sparse.csr_matrix, seed: int) -> np.ndarray:
    """The seeded unit start vector of a block's Lanczos solve and probe,
    normal deviates in the block's dtype."""
    v0 = np.random.default_rng(seed).normal(size=a.shape[0])
    return (v0 / np.linalg.norm(v0)).astype(a.dtype)


def _lanczos(a: scipy.sparse.csr_matrix, k: int, seed: int):
    """ARPACK ``eigsh`` of the k lowest pairs of a block from the seeded
    start vector (:func:`_start`), at ARPACK's default Krylov width capped
    at the block's size: a block of at most 20 states gets the whole space,
    where dim - 1 vectors can break down on a degenerate level (ARPACK
    error 3).  A complex block runs through ``eigs``, which ``eigsh`` calls
    for it."""
    return scipy.sparse.linalg.eigsh(
        a, k=k, which="SA", v0=_start(a, seed), tol=1e-10,
        maxiter=max(2000, 40 * k), ncv=min(a.shape[0], max(2 * k + 1, 20)))


def _probe_floor(a: scipy.sparse.csr_matrix, seed: int) -> float:
    """theta - ||a y - theta y|| of a loose Lanczos estimate (theta, y) of
    the lowest level of a Hermitian block, from the start vector of its
    k-level solve (:func:`_start`).  Some eigenvalue of the block lies
    within the measured residual of theta, and Lanczos converges to the
    lowest.

    The plain three-term recurrence, beta_j q_{j+1} = a q_j - alpha_j q_j
    - beta_{j-1} q_{j-1}, runs in the block's dtype with no
    reorthogonalization, which the extreme level does not need (Paige,
    Linear Algebra Appl. 34, 235, 1980).  Every 5 steps, and at a
    breakdown (beta_m at rounding level) or m = dim, the lowest pair
    (theta, s) of the tridiagonal T_m is taken; it is accepted once
    beta_m |s_m| <= ``PROBE_TOL`` |theta|, ARPACK's test at that
    tolerance, and always at a breakdown or m = dim.  Each q_j is kept in
    single precision; y = sum s_j q_j is formed in double, and its own
    Rayleigh quotient and residual, measured in double, are the floor, so
    the single-precision basis only widens ||r||.  -inf if the recurrence
    reaches ``PROBE_STEPS`` unconverged, so the caller solves the block in
    full."""
    dim = a.shape[0]
    single = np.complex64 if np.iscomplexobj(a.data) else np.float32
    q, prev, beta, scale = _start(a, seed), 0.0, 0.0, 0.0
    basis, alphas, betas = [], [], []
    for m in range(1, min(dim, PROBE_STEPS) + 1):
        basis.append(q.astype(single))
        w = a @ q
        alphas.append(np.vdot(q, w).real)
        w -= alphas[-1] * q
        w -= beta * prev
        beta = np.linalg.norm(w)
        betas.append(beta)
        scale = max(scale, abs(alphas[-1]), beta)
        last = m == dim or beta <= dim * np.finfo(float).eps * scale
        if last or m % 5 == 0:
            theta, s = scipy.linalg.eigh_tridiagonal(
                alphas, betas[:-1], select="i", select_range=(0, 0))
            if last or beta * abs(s[-1, 0]) <= PROBE_TOL * abs(theta[0]):
                y = np.zeros(dim, dtype=a.dtype)
                for coeff, v in zip(s[:, 0], basis):
                    y += coeff * v
                y /= np.linalg.norm(y)
                ay = a @ y
                theta = np.vdot(y, ay).real
                return float(theta - np.linalg.norm(ay - theta * y))
        # a product, since numpy divides a complex array by a real one
        # several times slower
        prev, q = q, w * (1 / beta)
    return -np.inf


def _solve_block(a: scipy.sparse.csr_matrix, k: int, seed: int,
                 residual_bound: float, lanczos: bool
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, vectors, residuals) of the k lowest pairs of a
    Hermitian block, by Lanczos or dense ``eigh``, every pair verified."""
    dim = a.shape[0]
    if not lanczos:
        evals, vecs = scipy.linalg.eigh(
            a.toarray(), subset_by_index=[0, min(k, dim) - 1])
    else:
        try:
            evals, vecs = _lanczos(a, k, seed)
        except scipy.sparse.linalg.ArpackError as exc:
            raise ConvergenceError(f"Lanczos did not converge: {exc}") from exc
        order = np.argsort(evals)
        evals, vecs = evals[order], vecs[:, order]
    drift = np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(evals))))
    if drift > ORTHONORMALITY_BOUND:
        raise ConvergenceError(f"Ritz vectors off orthonormal by {drift:.1e}")
    # V is unitary, so the gauged residual is the Z-basis one
    residuals = np.linalg.norm(a @ vecs - vecs * evals, axis=0)
    _verify(residuals, residual_bound)
    return evals, vecs, residuals


def _kth(levels: Iterable[float], k: int) -> float:
    """The k-th lowest of the levels, inf if there are fewer."""
    levels = sorted(levels)
    return levels[k - 1] if len(levels) >= k else np.inf


def _sector_residuals(op: SectorOperator, s: int, vectors: np.ndarray,
                      levels: np.ndarray) -> np.ndarray:
    """||A u - e u|| of each of sector s's kept vectors, u = V^H v, on the
    sector's CSR rows ``BLOCK_ROWS`` at a time
    (:meth:`SectorOperator._row_csr`): each chunk multiplies all the
    vectors at once, their real and imaginary parts apart, so no whole
    block is built."""
    u = op.phases(op.cosets.members(s)).conj()[:, None] * vectors
    re, im = np.ascontiguousarray(u.real), np.ascontiguousarray(u.imag)
    squares = np.zeros(levels.size)
    for lo in range(0, u.shape[0], BLOCK_ROWS):
        local = np.arange(lo, min(lo + BLOCK_ROWS, u.shape[0]))
        a = op._row_csr(s, local)
        r = a @ re + 1j * (a @ im) - u[local] * levels
        squares += np.sum(r.real ** 2 + r.imag ** 2, axis=0)
    return np.sqrt(squares)


def _momentum_levels(op: SectorOperator, s: int, part: slice, k: int,
                     seed: int, residual_bound: float, found: list,
                     counts: Counter) -> list:
    """The verified (level, residual, vector) of the momentum blocks of
    sector s that ``part`` picks from its characters, one per conjugate
    pair, the trivial one first (``_Momenta.visits``), each vector a
    function that returns the sector's local amplitudes.  Every block
    takes the visit's one :meth:`_Momenta.gather`, which is let go before
    the last block is probed or solved.  A block whose probe places it
    above the k-th level of ``found`` and the levels so far is ruled out.
    A complex block's levels are kept twice: the conjugate block's vectors
    are the conjugates."""
    m = op._momenta(s)
    visits = m.visits[part]
    gather = m.gather(op.rows(s, m.reps)) if visits else None
    levels: list = []
    for c in visits:
        a = m.block(c, *gather)
        if c == visits[-1]:
            gather = None  # not held while the last block is solved
        dim = a.shape[0]
        if not dim:
            continue
        top = _kth([f[0] for f in found + levels], k) + residual_bound
        lanczos = dim > k + 2  # ARPACK's need; smaller blocks go dense
        counts["momentum_blocks"] += 1
        counts["max_block_dim"] = max(counts["max_block_dim"], dim)
        if top < np.inf and lanczos and _probe_floor(a, seed) > top:
            counts["probed_blocks"] += 1
            continue
        evals, phi, residuals = _solve_block(a, k, seed, residual_bound,
                                             lanczos)
        counts["lanczos_blocks" if lanczos else "dense_blocks"] += 1
        copies = [(c, phi)]
        if m.pairs[c] != c:
            copies.append((m.pairs[c], phi.conj()))
        for pair, vecs in copies:
            levels += [(e, r, functools.partial(m.expand, pair, vecs[:, j]))
                       for j, (e, r) in enumerate(zip(evals, residuals))]
    return levels


def lowest_eigenpairs(h: SparseHamiltonian, k: int = 6,
                      seed: int = 7) -> SpectrumResult:
    """k smallest eigenpairs, solved block by block at every size.

    The blocks of the real-gauge A = V^H H V
    (:meth:`SparseHamiltonian.compile`) are visited in ascending Gershgorin
    floor.  The first block reached in a translation orbit is solved; the
    other blocks of the orbit are permutation-similar to it and reuse its
    levels.  The visit stops once the next floor lies above the k-th lowest
    level found plus the residual bound: no skipped block can hold a lower
    level.

    A block at or below ``DENSE_DIM_CAP`` (every block at L = 2, every
    chi = 0 block at L = 3) is built, at most once per call, and solved by
    dense ``eigh`` in that one visit.  A larger one is never solved whole:
    it is split by the characters of the translations that fix its sector
    (:class:`_Momenta`; a sector that none fixes is one block, of the
    trivial character), and the sectors are visited twice, both times in
    ascending floor and with the same stop, since the sector's floor bounds
    all its blocks.  The first pass takes each representative's trivial
    (k = 0) block only, the second its other characters, one of each
    conjugate pair; a member takes its representative's new levels in each
    pass.  A visit gathers the representatives' rows once for all its
    characters (:meth:`_Momenta.gather`); holding the first pass's through
    the second would raise the L = 3 peak by about 4 MiB.  The order
    changes which blocks are solved and which are ruled out, never the
    levels kept: at L = 3 and chi = 0.2, 0.4 and 0.6 the
    k = 0 blocks of sectors 0 and 7 hold all six levels and are the only
    k-level solves.  A momentum block is never held against
    ``DENSE_DIM_CAP``, since a dense solve of a few thousand states takes
    seconds: it goes to Lanczos whenever ARPACK can run on it (dim > k + 2),
    and to dense ``eigh`` only below that, which no sector large enough to
    split yields outside a test that lowers the cap.  Lanczos is ARPACK
    ``eigsh`` (:func:`_lanczos`), in real arithmetic on a real character's
    block.  Once k levels are found, such a block is first probed
    (:func:`_probe_floor`), and ruled out if the probe's floor lies above
    the k-th level plus the residual bound; otherwise it is solved for k
    levels.  A borderline decision can go either way with the BLAS build,
    and that changes the counters only, never a level: a block whose
    bottom lies that close to the k-th level holds none below
    it.  A complex character's block stands for its conjugate's too, whose
    levels are the same and whose vectors are the conjugates, so each of
    its levels is kept twice: both copies of an exactly degenerate momentum
    +-k pair.  At L = 3 the 4-fold quasi-degenerate manifold splits 2 + 2
    over sectors 0 and 7, and at chi = 0.2, 0.4 and 0.6 the levels equal
    those of whole-sector solves within 5e-13.

    In every solved block the vectors are checked orthonormal to
    ``ORTHONORMALITY_BOUND`` under the conjugate transpose, also across
    exactly degenerate levels, and every pair is verified against the
    residual bound, ``RESIDUAL_BOUND``, or :class:`ConvergenceError` is
    raised.  The k lowest levels are merged and their vectors mapped back
    to Z-basis amplitudes, each in its sector's local order: a momentum
    block's through its sector's orbit representatives
    (:meth:`_Momenta.expand`), then V.  A level kept from another member of
    an orbit takes the representative's amplitudes through the qubit
    permutation that carries one coset onto the other, which commutes with
    H.  Every kept vector not solved on its own sector's block, a member's
    or a momentum block's, is verified against the residual bound on that
    sector's CSR rows, ``BLOCK_ROWS`` at a time, each chunk multiplying all
    of the sector's kept vectors (:func:`_sector_residuals`), so no level
    rests on the momentum construction alone and no whole block is built
    for the check.

    When the whole space fits under ``DENSE_DIM_CAP`` every block is
    solved by the backward-stable dense path, so the bound tightens to
    ``dim * eps * ||H||``, with ||H|| <= sum |coefficient| since every
    Pauli string has norm 1.  Terms without a real gauge raise
    ``ValueError`` in :meth:`SparseHamiltonian.compile`.
    """
    if k < 1:
        raise ValueError("k must be positive")
    op = h.compile()
    n = op.cosets.elements.size
    residual_bound = RESIDUAL_BOUND
    if h.dim <= DENSE_DIM_CAP:
        norm = sum(abs(coeff) for coeff, _ in h.terms)
        residual_bound = min(residual_bound,
                             h.dim * np.finfo(float).eps * norm)
    # sectors above the cap, large enough for ARPACK (dim > k + 2), split
    by_momentum = n > max(DENSE_DIM_CAP, k + 2)
    # the k lowest (level, residual, sector, function that returns the
    # representative's vector)
    found: list = []
    solved = {}  # orbit representative -> its verified levels
    counts = Counter(dense_blocks=0, lanczos_blocks=0, probed_blocks=0,
                     momentum_blocks=0, max_block_dim=0)
    # split sectors are visited twice: the trivial characters first, then
    # the others; a representative's levels of each pass are its orbit's
    for part in (slice(0, 1), slice(1, None)) if by_momentum else (None,):
        for s in np.argsort(op.floors, kind="stable"):
            top = _kth([f[0] for f in found], k) + residual_bound
            if op.floors[s] > top:
                break
            if op.orbit[s] == s and by_momentum:
                solved[s] = _momentum_levels(op, s, part, k, seed,
                                             residual_bound, found, counts)
            elif op.orbit[s] == s:
                evals, vecs, residuals = _solve_block(
                    op.block(s), k, seed, residual_bound, False)
                counts["dense_blocks"] += 1
                counts["max_block_dim"] = n
                # a vector made on request, as the momentum blocks' are
                solved[s] = [(e, r, vecs[:, j].copy) for j, (e, r)
                             in enumerate(zip(evals, residuals))]
            found = sorted(found + [(e, r, s, v) for e, r, v
                                    in solved[op.orbit[s]]],
                           key=lambda f: f[0])[:k]
    levels, residuals, sectors = (np.array([f[i] for f in found])
                                  for i in range(3))
    vectors = np.zeros((n, len(found)), dtype=complex)
    for s in np.unique(sectors):
        cols = np.flatnonzero(sectors == s)
        rep = op.cosets.members(op.orbit[s])
        vectors[:, cols] = op.phases(rep)[:, None] * np.stack(
            [found[c][3]() for c in cols], axis=1)
        if op.orbit[s] != s:
            _, local = op.cosets.locate(_permute_bits(rep, op.carry[s]))
            vectors[local[:, None], cols] = vectors[:, cols]
        if op.orbit[s] != s or by_momentum:
            residuals[cols] = _sector_residuals(op, s, vectors[:, cols],
                                                levels[cols])
            _verify(residuals[cols], residual_bound)
    return SpectrumResult(
        eigenvalues=levels, residuals=residuals, level_sectors=sectors,
        residual_bound=float(residual_bound), local_vectors=vectors,
        sectors=len(op.floors), sector_dim=n,
        orbits=int(np.unique(op.orbit).size), **counts)


def ground_space_reference(lat: lt.TorusLattice
                           ) -> tuple[np.ndarray, float, list[tuple[int, int]]]:
    """(support, amp, sectors) of the four exact unperturbed ground states.

    State c is ``amp`` = 1/sqrt(|G|) on each ``support[c]`` state, one
    homology class of closed Z-basis loop configurations: a representative
    XORed with every element of the plaquette-flip group G.  ``sectors[c]``
    holds its Z-loop eigenvalues, (+1, +1), (-1, +1), (+1, -1), (-1, -1).
    """
    group = plaquette_cosets(lat).elements
    x1, x2 = (loop.x_mask for loop in lt.x_loops(lat))
    reps = [0, x1, x2, x1 ^ x2]
    z1, z2 = (loop.z_mask for loop in lt.z_loops(lat))
    sectors = [(1 - 2 * ((rep & z1).bit_count() & 1),
                1 - 2 * ((rep & z2).bit_count() & 1)) for rep in reps]
    support = np.array([np.uint64(rep) ^ group for rep in reps])
    return support, 1.0 / np.sqrt(len(group)), sectors


@dataclass
class FidelityResult:
    """Overlap of a perturbed 4-state manifold with the reference one.

    ``subspace`` (mean singular value of the overlap matrix) ignores any
    unitary mixing inside either manifold.  ``sector_weights[k]`` is the
    norm of reference state k projected onto the perturbed manifold,
    sqrt(sum_j |overlap[k, j]|^2); it ignores mixing inside the perturbed
    manifold, so it is as well conditioned as the manifold itself.
    """

    overlap: np.ndarray
    sector_weights: np.ndarray
    subspace: float

    @classmethod
    def from_overlap(cls, m: np.ndarray) -> FidelityResult:
        svals = np.linalg.svd(m, compute_uv=False)
        return cls(overlap=m, sector_weights=np.linalg.norm(m, axis=1),
                   subspace=float(np.mean(np.clip(svals, 0.0, 1.0))))


def ground_fidelity(reference: tuple, h: SparseHamiltonian,
                    res: SpectrumResult) -> FidelityResult:
    """Fidelity of the four lowest levels of ``res`` to
    :func:`ground_space_reference`: overlap[c, l] is amp times the sum of
    level l's amplitudes over ``support[c]``, zero in any other sector."""
    support, amp, _ = reference
    if len(res.eigenvalues) < 4:
        raise ValueError("the perturbed manifold needs 4 levels")
    sector, local = h.compile().cosets.locate(support)
    amps = np.where(sector[..., None] == res.level_sectors[:4],
                    res.local_vectors[local, :4], 0.0)
    return FidelityResult.from_overlap(amp * amps.sum(axis=1))


@dataclass
class FidelityScanPoint:
    """One chi point of a scan; a failed solve leaves every field but
    ``chi`` and ``error`` None."""

    chi: float
    eigenvalues: np.ndarray | None = None
    residual_bound: float | None = None
    subspace_fidelity: float | None = None
    sector_weights: np.ndarray | None = None
    manifold_spread: float | None = None
    gap: float | None = None
    error: str | None = None
    counters: dict[str, int] | None = None


class FidelityScan(list):
    """The points of a chi scan in grid order; ``structures`` counts the
    term-string structures it compiled (:meth:`SparseHamiltonian.compile`)."""

    structures = 0


def fidelity_scan(lat: lt.TorusLattice, chi_values: Sequence[float],
                  h_z: float = 0.05, k: int = 6, seed: int = 7
                  ) -> FidelityScan:
    """Ground-manifold fidelity and low-lying spectrum at each chi point.

    H is built, and the structure of its strings compiled, once per set
    of term strings: at the first chi = 0 point and the first chi != 0
    point.  A later chi != 0 point sets the chi terms of that H, which come
    last, and compiles only its coefficients.  Solver failures are
    recorded per grid point instead of aborting the scan.
    """
    reference = ground_space_reference(lat)
    n_chi = len(chi_pair_terms(lat))
    first: dict[bool, SparseHamiltonian] = {}  # by chi != 0
    points = FidelityScan()
    for chi in chi_values:
        h = first.get(chi != 0)
        if h is None:
            h = first[chi != 0] = build_hamiltonian(lat, chi=chi, h_z=h_z)
        elif chi:
            # every chi term has coefficient chi, and no link permutation
            # maps an X.Y term onto a term of another kind: the symmetries,
            # which match terms by coefficient, and so the whole structure
            # are the same at every chi != 0
            shared = h._structure()
            h = replace(h, terms=h.terms[:-n_chi]
                        + tuple((chi, t) for _, t in h.terms[-n_chi:]))
            h._sectors = shared
        try:
            res = lowest_eigenpairs(h, k=k, seed=seed)
        except ConvergenceError as exc:
            points.append(FidelityScanPoint(chi=chi, error=str(exc)))
            continue
        fid = ground_fidelity(reference, h, res)
        evals = res.eigenvalues
        points.append(FidelityScanPoint(
            chi=chi, eigenvalues=evals, residual_bound=res.residual_bound,
            subspace_fidelity=fid.subspace,
            sector_weights=fid.sector_weights,
            manifold_spread=float(evals[3] - evals[0]),
            gap=float(evals[4] - evals[3]) if len(evals) > 4 else None,
            counters=res.counters))
    points.structures = len(first)
    return points
