"""Symplectic bit-mask algebra for n-qubit Pauli strings and real-linear
combinations of them.

Encoding
--------
A Pauli string on ``n`` qubits is stored as a pair of bit masks plus a
quarter-phase exponent:

    P = i**phase * L_{n-1} (x) ... (x) L_1 (x) L_0

where the letter on qubit ``j`` is read from bit ``j`` of the masks:

    (x_j, z_j) = (0, 0) -> I      (1, 0) -> X
                 (1, 1) -> Y      (0, 1) -> Z

Qubit 0 is the least-significant bit of a computational basis-state index,
and the *leftmost* letter of a text label such as ``"ZYII"`` is qubit 0
(ascending local indices left to right).  ``phase`` is defined modulo 4, so
the represented operator is one of ``+P, +iP, -P, -iP`` with ``P`` the
Hermitian tensor product of letters.

Products follow from the single-qubit table via Y = i X Z; the accumulated
quarter-phase of a product is

    phase(ab) = phase(a) + phase(b) + s(a) + s(b) - s(ab) + 2*|z_a & x_b|

with ``s(p) = |x_p & z_p|`` (number of Y letters) and ``|.|`` a popcount.
Two strings commute iff the symplectic form ``|x_a & z_b| + |z_a & x_b|``
is even; anticommuting strings satisfy [a, b] = 2ab.

On a basis state a string acts as a signed permutation,

    P|j> = i**q(j) |j ^ x>,    q(j) = phase + |x & z| + 2*|j & z|

(Aaronson & Gottesman, PRA 70, 052328 (2004)).
:func:`quarter_turns` is the one place that rule is written, on arrays;
every dense, state, trace, sparse and stabilizer-frame action reduces its q
mod 4 in ``QUARTER_TURNS``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

# Hard ceiling for dense conversions: 2**12 x 2**12 complex entries.
DENSE_QUBIT_CAP = 12

# Coefficients with magnitude below this floor are dropped from sums.
PRUNE_TOL = 1e-12

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_MASKS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PHASE_PREFIX = {0: "+", 1: "+i·", 2: "-", 3: "-i·"}

# i**q for the quarter turns q = 0..3
QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])


def quarter_turns(phase, x, z, index) -> np.ndarray:
    """q(j) = phase + |x & z| + 2 |j & z| of the strings (phase, x, z) at the
    basis indices j, broadcast as NumPy arrays: the Z-letters sign the source
    state, each Y adds a quarter turn (Y = i X Z), the X-letters flip bits."""
    z = np.asarray(z, dtype=np.uint64)
    y_count = np.bitwise_count(np.asarray(x, dtype=np.uint64) & z)
    z_hits = np.bitwise_count(np.asarray(index, dtype=np.uint64) & z)
    return np.asarray(phase, dtype=np.int64) + y_count + 2 * z_hits.astype(np.int64)


class PauliString:
    """One n-qubit Pauli string ``i**phase * (letter tensor product)``."""

    __slots__ = ("n_qubits", "x_mask", "z_mask", "phase_quarter")

    def __init__(self, n_qubits: int, x_mask: int, z_mask: int, phase_quarter: int = 0):
        if n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {n_qubits}")
        full = (1 << n_qubits) - 1
        if x_mask & ~full or z_mask & ~full:
            raise ValueError("mask has bits beyond n_qubits")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "x_mask", x_mask)
        object.__setattr__(self, "z_mask", z_mask)
        object.__setattr__(self, "phase_quarter", phase_quarter % 4)

    def __setattr__(self, name, value):  # immutable: safe as a dict key
        raise AttributeError("PauliString is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str, phase_quarter: int = 0) -> "PauliString":
        """Parse ``"ZYII"`` or ``"+i·ZYII"`` (leftmost letter = qubit 0)."""
        text = label.strip()
        if text.startswith("+i·") or text.startswith("+i"):
            phase_quarter += 1
            text = text[3:] if text.startswith("+i·") else text[2:]
        elif text.startswith("-i·") or text.startswith("-i"):
            phase_quarter += 3
            text = text[3:] if text.startswith("-i·") else text[2:]
        elif text.startswith("+"):
            text = text[1:]
        elif text.startswith("-"):
            phase_quarter += 2
            text = text[1:]
        x = z = 0
        for j, letter in enumerate(text):
            try:
                xj, zj = _MASKS[letter]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r} in {label!r}") from None
            x |= xj << j
            z |= zj << j
        return cls(len(text), x, z, phase_quarter)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, letter: str) -> "PauliString":
        """One non-identity letter on ``qubit``, identity elsewhere."""
        if not 0 <= qubit < n_qubits:
            raise ValueError(f"qubit {qubit} outside register of {n_qubits}")
        xj, zj = _MASKS[letter]
        return cls(n_qubits, xj << qubit, zj << qubit)

    # -- inspection ---------------------------------------------------

    @property
    def is_hermitian(self) -> bool:
        return self.phase_quarter % 2 == 0

    def letter(self, qubit: int) -> str:
        return _LETTERS[((self.x_mask >> qubit) & 1, (self.z_mask >> qubit) & 1)]

    def label(self, with_phase: bool = True) -> str:
        letters = "".join(self.letter(j) for j in range(self.n_qubits))
        if not with_phase:
            return letters
        return _PHASE_PREFIX[self.phase_quarter] + letters

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (self.n_qubits, self.x_mask, self.z_mask, self.phase_quarter) == (
            other.n_qubits, other.x_mask, other.z_mask, other.phase_quarter)

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.x_mask, self.z_mask, self.phase_quarter))

    # -- algebra ------------------------------------------------------

    def canonical(self) -> tuple["PauliString", complex]:
        """Split into a phase-free string and the scalar ``i**phase``."""
        return (PauliString(self.n_qubits, self.x_mask, self.z_mask, 0),
                1j ** self.phase_quarter)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit counts differ")
        x = self.x_mask ^ other.x_mask
        z = self.z_mask ^ other.z_mask
        phase = (self.phase_quarter + other.phase_quarter
                 + (self.x_mask & self.z_mask).bit_count()
                 + (other.x_mask & other.z_mask).bit_count()
                 - (x & z).bit_count()
                 + 2 * (self.z_mask & other.x_mask).bit_count())
        return PauliString(self.n_qubits, x, z, phase)

    def commutes_with(self, other: "PauliString") -> bool:
        """Symplectic predicate; ignores the scalar phases."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit counts differ")
        form = ((self.x_mask & other.z_mask).bit_count()
                + (self.z_mask & other.x_mask).bit_count())
        return form % 2 == 0

    # -- dense / state action -----------------------------------------

    def quarter_turns(self, index: np.ndarray) -> np.ndarray:
        """q(j) at every basis index j, so that P|j> = i**q(j) |j ^ x>
        (:func:`quarter_turns`)."""
        return quarter_turns(self.phase_quarter, self.x_mask, self.z_mask, index)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Apply to a state vector of length 2**n (qubit 0 = LSB of the index)."""
        dim = 1 << self.n_qubits
        state = np.asarray(state)
        if state.shape[0] != dim:
            raise ValueError(f"state length {state.shape[0]} != {dim}")
        src = np.arange(dim, dtype=np.uint64) ^ np.uint64(self.x_mask)
        return QUARTER_TURNS[self.quarter_turns(src) % 4] * state[src]

    def expectation(self, rho: np.ndarray) -> complex:
        """Tr(P rho) = sum_j i**q(j) rho[j, j ^ x], the 2**n entries P reaches.

        The real and imaginary parts are real dots, so a real ``rho`` stays
        in real arithmetic.
        """
        dim = 1 << self.n_qubits
        rho = np.asarray(rho)
        if rho.shape != (dim, dim):
            raise ValueError(f"matrix shape {rho.shape} != ({dim}, {dim})")
        idx = np.arange(dim, dtype=np.uint64)
        q = self.quarter_turns(idx) % 4
        reached = rho[idx, idx ^ np.uint64(self.x_mask)]
        return complex(np.dot(QUARTER_TURNS.real[q], reached)
                       + 1j * np.dot(QUARTER_TURNS.imag[q], reached))

    def to_dense(self) -> np.ndarray:
        if self.n_qubits > DENSE_QUBIT_CAP:
            raise ValueError(f"{self.n_qubits} qubits exceeds the dense cap "
                             f"of {DENSE_QUBIT_CAP}")
        dim = 1 << self.n_qubits
        idx = np.arange(dim, dtype=np.uint64)
        out = np.zeros((dim, dim), dtype=complex)
        out[idx ^ np.uint64(self.x_mask), idx] = (
            QUARTER_TURNS[self.quarter_turns(idx) % 4])
        return out


def commutator(a: PauliString, b: PauliString) -> "PauliSum":
    """[a, b] as a PauliSum: zero if they commute, else 2ab."""
    if a.commutes_with(b):
        return PauliSum.zero(a.n_qubits)
    prod = a * b
    string, scalar = prod.canonical()
    return PauliSum({string: 2.0 * scalar})


class PauliSum:
    """Complex-linear combination of phase-free Pauli strings.

    Keys are canonical (phase 0, Hermitian) strings; all quarter-phases are
    folded into the complex coefficients.  Terms of magnitude at most
    ``PRUNE_TOL`` are dropped on construction, so after all arithmetic.
    """

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, terms: Mapping[PauliString, complex], n_qubits: int | None = None):
        folded: dict[PauliString, complex] = {}
        for string, coeff in terms.items():
            base, scalar = string.canonical()
            value = folded.get(base, 0.0) + complex(coeff) * scalar
            folded[base] = value
            if n_qubits is None:
                n_qubits = string.n_qubits
            elif n_qubits != string.n_qubits:
                raise ValueError("mixed qubit counts in one sum")
        if n_qubits is None:
            raise ValueError("empty sum needs an explicit n_qubits")
        self._terms = {s: c for s, c in folded.items() if abs(c) > PRUNE_TOL}
        self.n_qubits = n_qubits

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls({}, n_qubits=n_qubits)

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[complex, PauliString]],
                   n_qubits: int | None = None) -> "PauliSum":
        acc: dict[PauliString, complex] = {}
        for coeff, string in pairs:
            acc[string] = acc.get(string, 0.0) + coeff
            if n_qubits is None:
                n_qubits = string.n_qubits
        return cls(acc, n_qubits=n_qubits)

    @classmethod
    def from_labels(cls, n_qubits: int, labels: Mapping[str, complex]) -> "PauliSum":
        return cls({PauliString.from_label(l): c for l, c in labels.items()},
                   n_qubits=n_qubits)

    # -- container protocol -------------------------------------------

    def items(self) -> Iterator[tuple[PauliString, complex]]:
        return iter(self._terms.items())

    def coefficient(self, string: PauliString | str) -> complex:
        if isinstance(string, str):
            string = PauliString.from_label(string)
        base, scalar = string.canonical()
        return self._terms.get(base, 0.0) * scalar

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return f"PauliSum(0 on {self.n_qubits} qubits)"
        parts = [f"({c:.6g})*{s.label(with_phase=False)}" for s, c in sorted(
            self._terms.items(), key=lambda kv: kv[0].label(with_phase=False))]
        return "PauliSum(" + " + ".join(parts) + ")"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit counts differ")
        acc = dict(self._terms)
        for s, c in other._terms.items():
            acc[s] = acc.get(s, 0.0) + c
        return PauliSum(acc, n_qubits=self.n_qubits)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PauliSum":
        if isinstance(scalar, PauliSum):
            return self.product(scalar)
        return PauliSum({s: c * scalar for s, c in self._terms.items()},
                        n_qubits=self.n_qubits)

    __rmul__ = __mul__

    def product(self, other: "PauliSum") -> "PauliSum":
        """Operator product, fully distributed."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit counts differ")
        acc: dict[PauliString, complex] = {}
        for sa, ca in self._terms.items():
            for sb, cb in other._terms.items():
                prod = sa * sb
                base, scalar = prod.canonical()
                acc[base] = acc.get(base, 0.0) + ca * cb * scalar
        return PauliSum(acc, n_qubits=self.n_qubits)

    def adjoint(self) -> "PauliSum":
        return PauliSum({s: np.conj(c) for s, c in self._terms.items()},
                        n_qubits=self.n_qubits)

    def l2_norm(self) -> float:
        """Normalized Frobenius norm sqrt(tr(A†A)/2^n) = sqrt(sum |c|^2)."""
        return float(np.sqrt(sum(abs(c) ** 2 for c in self._terms.values())))

    # -- dense / state action -----------------------------------------

    def apply(self, state: np.ndarray) -> np.ndarray:
        out = np.zeros(np.asarray(state).shape, dtype=complex)
        for string, coeff in self._terms.items():
            out += coeff * string.apply(state)
        return out

    def to_dense(self) -> np.ndarray:
        if self.n_qubits > DENSE_QUBIT_CAP:
            raise ValueError(f"{self.n_qubits} qubits exceeds the dense cap "
                             f"of {DENSE_QUBIT_CAP}")
        dim = 1 << self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for string, coeff in self._terms.items():
            out += coeff * string.to_dense()
        return out


def decompose(matrix: np.ndarray) -> PauliSum:
    """Expand a 2**n x 2**n matrix in the Pauli basis.

    Coefficients are c_P = tr(P† M) / 2**n, computed by 2x2 block reduction
    over the most-significant qubit first, O(n 4**n) total: each pass
    splits every block into (a+d)/2, (b+c)/2, i(b-c)/2 and (a-d)/2, the
    parts of I, X, Y and Z on that qubit, all blocks at once.
    """
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim & (dim - 1):
        raise ValueError("matrix must be square with power-of-two size")
    n = dim.bit_length() - 1
    if n > DENSE_QUBIT_CAP:
        raise ValueError(f"{n} qubits exceeds the dense cap of {DENSE_QUBIT_CAP}")
    blocks = matrix[None]
    xs = zs = np.zeros(1, dtype=np.int64)
    for q in reversed(range(n)):
        half = blocks.shape[1] // 2
        a, b = blocks[:, :half, :half], blocks[:, :half, half:]
        c, d = blocks[:, half:, :half], blocks[:, half:, half:]
        blocks = np.stack([(a + d) / 2, (b + c) / 2, 1j * (b - c) / 2,
                           (a - d) / 2], axis=1).reshape(-1, half, half)
        xs = (xs[:, None] | np.array([0, 1, 1, 0]) << q).reshape(-1)
        zs = (zs[:, None] | np.array([0, 0, 1, 1]) << q).reshape(-1)
    return PauliSum({PauliString(n, x, z, 0): coeff for x, z, coeff
                     in zip(xs.tolist(), zs.tolist(), blocks[:, 0, 0].tolist())
                     if abs(coeff) > PRUNE_TOL}, n_qubits=n)
