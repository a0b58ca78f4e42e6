"""Torus geometry, stabilizers and loop operators."""

import itertools
from collections import Counter

import pytest

from toricsim import lattice as lt
from toricsim.pauli import PauliString


@pytest.fixture(scope="module", params=[2, 3, 4])
def lat(request):
    return lt.build(request.param)


def test_counts(lat):
    assert lat.n_links == 2 * lat.L**2
    assert lat.n_vertices == lat.L**2
    assert lat.n_plaquettes == lat.L**2


def test_rejects_tiny_lattice():
    with pytest.raises(ValueError):
        lt.build(1)


def test_every_link_in_two_neighborhoods(lat):
    cv = Counter(l for links in lat.vertex_links for l in links)
    cp = Counter(l for links in lat.plaquette_links for l in links)
    assert all(cv[l] == 2 for l in range(lat.n_links))
    assert all(cp[l] == 2 for l in range(lat.n_links))


def test_link_endpoint_tables_consistent(lat):
    for link in range(lat.n_links):
        va, vb = lat.link_vertices(link)
        assert va != vb
        assert link in lat.vertex_links[va]
        assert link in lat.vertex_links[vb]
        pa, pb = lat.link_plaquettes(link)
        assert pa != pb
        assert link in lat.plaquette_links[pa]
        assert link in lat.plaquette_links[pb]


def test_stabilizers_commute_and_multiply_to_identity(lat):
    vs = [lt.vertex_stabilizer(lat, i) for i in range(lat.n_vertices)]
    ps = [lt.plaquette_stabilizer(lat, i) for i in range(lat.n_plaquettes)]
    for a, b in itertools.combinations(vs + ps, 2):
        assert a.commutes_with(b)
    for group in (vs, ps):
        acc = PauliString(lat.n_links, 0, 0)
        for s in group:
            acc = acc * s
        assert acc == PauliString(lat.n_links, 0, 0)


def test_stabilizer_weights_and_flavors(lat):
    for i in range(lat.n_vertices):
        s = lt.vertex_stabilizer(lat, i)
        assert (s.x_mask | s.z_mask).bit_count() == 4
        assert all(s.letter(q) in "IZ" for q in range(lat.n_links))
    for i in range(lat.n_plaquettes):
        s = lt.plaquette_stabilizer(lat, i)
        assert (s.x_mask | s.z_mask).bit_count() == 4
        assert all(s.letter(q) in "IX" for q in range(lat.n_links))


def test_loops_commute_with_stabilizers(lat):
    stabs = [lt.vertex_stabilizer(lat, i) for i in range(lat.n_vertices)]
    stabs += [lt.plaquette_stabilizer(lat, i) for i in range(lat.n_plaquettes)]
    for loop in lt.z_loops(lat) + lt.x_loops(lat):
        assert (loop.x_mask | loop.z_mask).bit_count() == lat.L
        for s in stabs:
            assert loop.commutes_with(s)


def test_loop_anticommutation_pairing(lat):
    zl, xl = lt.z_loops(lat), lt.x_loops(lat)
    # conjugate pairs anticommute, everything else commutes
    assert not zl[0].commutes_with(xl[0])
    assert not zl[1].commutes_with(xl[1])
    assert zl[0].commutes_with(xl[1])
    assert zl[1].commutes_with(xl[0])
    assert zl[0].commutes_with(zl[1])
    assert xl[0].commutes_with(xl[1])
