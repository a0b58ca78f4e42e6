"""Pauli algebra against an independent dense Kronecker oracle."""

import numpy as np
import pytest

import dense_oracles as oracles
from toricsim import harness as hn
from toricsim import sequences as sq
from toricsim.pauli import (QUARTER_TURNS, PauliString, PauliSum, commutator,
                            decompose)

RNG = np.random.default_rng(20260814)
LETTERS = "IXYZ"
SINGLE_DENSE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_dense(labels: str) -> np.ndarray:
    """Dense matrix for a letter string via an explicit Kronecker chain.

    Qubit 0 is the leftmost letter and the least-significant index bit, so
    the chain runs right to left: kron(L_{n-1}, ..., L_0).
    """
    out = np.array([[1.0 + 0j]])
    for letter in labels:  # qubit 0 first: each new letter lands in higher bits
        out = np.kron(SINGLE_DENSE[letter], out)
    return out


def random_label(n):
    return "".join(RNG.choice(list(LETTERS)) for _ in range(n))


def test_label_round_trip():
    for label in ("IIII", "XYZI", "ZZZZ", "YIXZ"):
        p = PauliString.from_label(label)
        assert p.label(with_phase=False) == label
        assert p.label() == "+" + label
    p = PauliString.from_label("-i·XZ")
    assert p.phase_quarter == 3
    assert p.label() == "-i·XZ"
    assert PauliString.from_label(p.label()) == p


def test_single_and_embedded():
    p = PauliString.single(4, 2, "Y")
    assert p.label(with_phase=False) == "IIYI"
    big = PauliString.single(5, 3, "X") * PauliString.single(5, 1, "Z")
    assert big.label() == "+IZIXI"


def test_dense_matches_kron_oracle():
    # to_dense, apply, expectation and the quarter turns of one string, in
    # all four phases, against one oracle; integer-valued inputs make every
    # oracle sum exact, so the comparisons are exact too
    for case in range(100):
        n = int(RNG.integers(1, 6))
        dim = 2 ** n
        label = random_label(n)
        p = PauliString.from_label(label, case % 4)
        oracle = 1j ** (case % 4) * kron_dense(label)
        assert np.array_equal(p.to_dense(), oracle)
        state = RNG.integers(-9, 10, dim) + 1j * RNG.integers(-9, 10, dim)
        assert np.array_equal(p.apply(state), oracle @ state)
        rho = RNG.integers(-9, 10, (dim, dim)).astype(float)
        for r in (rho, rho + 1j * RNG.integers(-9, 10, (dim, dim))):
            assert p.expectation(r) == np.trace(oracle @ r)
        # q on a permuted subset of the indices, as the compiled operators
        # and the stabilizer frame evaluate it
        idx = RNG.permutation(dim)[:max(1, dim // 2)].astype(np.uint64)
        assert np.array_equal(QUARTER_TURNS[p.quarter_turns(idx) % 4],
                              oracle[idx ^ np.uint64(p.x_mask), idx])


def test_products_match_dense_oracle():
    for _ in range(100):
        n = int(RNG.integers(1, 5))
        a = PauliString.from_label(random_label(n), int(RNG.integers(0, 4)))
        b = PauliString.from_label(random_label(n), int(RNG.integers(0, 4)))
        np.testing.assert_allclose(
            (a * b).to_dense(), a.to_dense() @ b.to_dense(), atol=1e-13)


def test_commutators_match_dense_oracle():
    for _ in range(100):
        n = int(RNG.integers(1, 5))
        a = PauliString.from_label(random_label(n))
        b = PauliString.from_label(random_label(n))
        da, db = a.to_dense(), b.to_dense()
        np.testing.assert_allclose(
            commutator(a, b).to_dense(), da @ db - db @ da, atol=1e-13)
        assert a.commutes_with(b) == np.allclose(da @ db, db @ da)


def test_apply_matches_dense():
    for _ in range(50):
        n = int(RNG.integers(1, 7))
        p = PauliString.from_label(random_label(n), int(RNG.integers(0, 4)))
        state = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
        np.testing.assert_allclose(p.apply(state), p.to_dense() @ state, atol=1e-12)


def test_expectation_matches_dense_trace():
    # L = 2 register: the lattice stabilizers and loops, plus random strings
    from toricsim import lattice as lt
    lat = lt.build(2)
    rng = np.random.default_rng(5)
    strings = [lt.vertex_stabilizer(lat, v) for v in range(lat.n_vertices)]
    strings += [lt.plaquette_stabilizer(lat, q) for q in range(lat.n_plaquettes)]
    strings += lt.z_loops(lat) + lt.x_loops(lat)
    strings += [PauliString.from_label("".join(rng.choice(list(LETTERS), 8)),
                                       int(rng.integers(0, 4)))
                for _ in range(20)]
    real = rng.normal(size=(256, 256))
    rho = real + 1j * rng.normal(size=(256, 256))
    for p in strings:
        oracle = 1j ** p.phase_quarter * kron_dense(p.label(with_phase=False))
        for r in (real, rho):
            assert p.expectation(r) == pytest.approx(np.trace(oracle @ r),
                                                     abs=1e-11)
    with pytest.raises(ValueError):
        strings[0].expectation(rho[:16, :16])


def test_generator_commutators_frozen():
    # the two-body generators close onto the four-body stabilizer:
    # [ZYII, IXYI] = -2i ZZYI and [[ZYII, IXYI], IIXZ] = -4 ZZZZ
    s1 = PauliString.from_label("ZYII")
    s2 = PauliString.from_label("IXYI")
    s3 = PauliString.from_label("IIXZ")
    c12 = commutator(s1, s2)
    assert len(c12) == 1
    assert c12.coefficient("ZZYI") == pytest.approx(-2j)
    c123 = commutator_sum(c12, s3)
    assert len(c123) == 1
    assert c123.coefficient("ZZZZ") == pytest.approx(-4.0)


def commutator_sum(s: PauliSum, p: PauliString) -> PauliSum:
    out = PauliSum.zero(s.n_qubits)
    for term, coeff in s.items():
        out = out + coeff * commutator(term, p)
    return out


def test_sum_arithmetic_and_hermiticity():
    a = PauliSum.from_labels(4, {"XYII": 1.5, "ZZZZ": -0.25})
    b = PauliSum.from_labels(4, {"XYII": -1.5, "IXIZ": 2.0})
    s = a + b
    assert s.coefficient("XYII") == 0
    assert s.coefficient("IXIZ") == pytest.approx(2.0)
    # real coefficients on phase-free strings: the sum is its own adjoint
    assert len(a - a.adjoint()) == 0
    assert len(1j * a - (1j * a).adjoint()) == 2
    np.testing.assert_allclose((2.0 * a).to_dense(), 2.0 * a.to_dense())


def test_sum_apply_and_norm():
    n = 5
    terms = {random_label(n): float(RNG.normal()) for _ in range(6)}
    h = PauliSum.from_labels(n, terms)
    state = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    np.testing.assert_allclose(h.apply(state), h.to_dense() @ state, atol=1e-12)
    dense_rows = np.array([c * kron_dense(s.label(with_phase=False)).reshape(-1)
                           for s, c in h.items()])
    # Pauli strings are orthogonal under the normalized trace inner product
    expect = np.sqrt(sum(abs(c)**2 for _, c in h.items()))
    assert h.l2_norm() == pytest.approx(expect)
    assert len(dense_rows) == len(h)


def test_decompose_round_trip():
    for _ in range(20):
        n = int(RNG.integers(1, 5))
        terms = {random_label(n): complex(RNG.normal(), RNG.normal())
                 for _ in range(4)}
        h = PauliSum.from_labels(n, terms)
        back = decompose(h.to_dense())
        assert all(abs(c) < 1e-12 for _, c in (h - back).items())


def test_decompose_random_dense():
    for _ in range(10):
        n = int(RNG.integers(1, 4))
        m = RNG.normal(size=(2**n, 2**n)) + 1j * RNG.normal(size=(2**n, 2**n))
        np.testing.assert_allclose(decompose(m).to_dense(), m, atol=1e-12)


def test_decompose_is_the_recursion_bit_for_bit(tmp_path, monkeypatch):
    # the block reduction runs over all blocks at once with the recursion's
    # operations and order: equal coefficients, terms in the same order
    seen = []

    def record(m):
        seen.append(m)
        return decompose(m)

    monkeypatch.setattr(sq, "decompose", record)
    assert hn.run(hn.ScenarioConfig(kind="sequence-order-scan",
                                    outdir=str(tmp_path))).ok
    assert len(seen) == 10
    seen += [RNG.normal(size=(2**n, 2**n)) + 1j * RNG.normal(size=(2**n, 2**n))
             for n in range(1, 6) for _ in range(3)]
    for m in seen:
        assert (list(decompose(m).items())
                == list(oracles.decompose(m).items()))


def test_dense_cap_guard():
    p = PauliString(20, 0, 0)
    with pytest.raises(ValueError):
        p.to_dense()


def test_phase_canonicalization():
    p = PauliString.from_label("XY", 3)  # -i XY
    base, scalar = p.canonical()
    assert base.phase_quarter == 0
    np.testing.assert_allclose(scalar * base.to_dense(), p.to_dense())
