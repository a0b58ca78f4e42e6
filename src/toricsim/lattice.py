"""L x L periodic square lattice with spins on links.

Link indexing (frozen; every exported artifact relies on it)
------------------------------------------------------------
Horizontal links come first, row-major, then vertical links row-major:

    h(r, c) = r*L + c          link from vertex (r, c) to (r, c+1 mod L)
    v(r, c) = L*L + r*L + c    link from vertex (r, c) to (r+1 mod L, c)

so a lattice carries ``2 L^2`` link qubits.  Vertex ``(r, c)`` touches its
east/north/west/south links in that cyclic order; plaquette ``(r, c)`` (the
face with corners (r,c) and (r+1,c+1)) lists north/east/south/west.
Consecutive entries of either ordering are geometric nearest neighbours
(diagonal partners on the doubled grid of link midpoints).

Stabilizers are Z-strings on the four links of a vertex and X-strings on the
four links of a plaquette.  Non-contractible loop operators come in two
flavours: Z-loops on dual cycles (all horizontal links of one column, or all
vertical links of one row) and X-loops on direct cycles (all horizontal links
of one row, or all vertical links of one column).
"""

from __future__ import annotations

from dataclasses import dataclass

from .pauli import PauliString


@dataclass(frozen=True)
class TorusLattice:
    """Geometry tables for the L x L torus; build with :func:`build`."""

    L: int
    n_links: int
    vertex_links: tuple[tuple[int, int, int, int], ...]
    plaquette_links: tuple[tuple[int, int, int, int], ...]

    @property
    def n_vertices(self) -> int:
        return self.L * self.L

    @property
    def n_plaquettes(self) -> int:
        return self.L * self.L

    def h_index(self, r: int, c: int) -> int:
        return (r % self.L) * self.L + (c % self.L)

    def v_index(self, r: int, c: int) -> int:
        return self.L * self.L + (r % self.L) * self.L + (c % self.L)

    def link_kind(self, link: int) -> str:
        return "h" if link < self.L * self.L else "v"

    def link_rc(self, link: int) -> tuple[int, int]:
        base = link if link < self.L * self.L else link - self.L * self.L
        return divmod(base, self.L)

    def link_vertices(self, link: int) -> tuple[int, int]:
        """The two vertices (row-major indices) at the ends of ``link``."""
        r, c = self.link_rc(link)
        if self.link_kind(link) == "h":
            return r * self.L + c, r * self.L + (c + 1) % self.L
        return r * self.L + c, ((r + 1) % self.L) * self.L + c

    def link_plaquettes(self, link: int) -> tuple[int, int]:
        """The two plaquettes (row-major indices) bordering ``link``."""
        r, c = self.link_rc(link)
        if self.link_kind(link) == "h":
            return r * self.L + c, ((r - 1) % self.L) * self.L + c
        return r * self.L + c, r * self.L + (c - 1) % self.L


def build(L: int) -> TorusLattice:
    """Construct the lattice tables for linear size ``L >= 2``."""
    if L < 2:
        raise ValueError(f"torus needs L >= 2, got {L}")
    n = 2 * L * L

    def h(r, c):
        return (r % L) * L + (c % L)

    def v(r, c):
        return L * L + (r % L) * L + (c % L)

    vertex_links = tuple(
        (h(r, c), v(r - 1, c), h(r, c - 1), v(r, c))  # east, north, west, south
        for r in range(L) for c in range(L))
    plaquette_links = tuple(
        (h(r, c), v(r, c + 1), h(r + 1, c), v(r, c))  # north, east, south, west
        for r in range(L) for c in range(L))
    return TorusLattice(L=L, n_links=n, vertex_links=vertex_links,
                        plaquette_links=plaquette_links)


def vertex_stabilizer(lat: TorusLattice, vertex: int) -> PauliString:
    """Z on the four links meeting the vertex."""
    x = 0
    z = 0
    for link in lat.vertex_links[vertex]:
        z |= 1 << link
    return PauliString(lat.n_links, x, z, 0)


def plaquette_stabilizer(lat: TorusLattice, plaquette: int) -> PauliString:
    """X on the four links bounding the plaquette."""
    x = 0
    for link in lat.plaquette_links[plaquette]:
        x |= 1 << link
    return PauliString(lat.n_links, x, 0, 0)


def stabilizers(lat: TorusLattice) -> list[PauliString]:
    """Every vertex stabilizer, then every plaquette stabilizer."""
    return ([vertex_stabilizer(lat, v) for v in range(lat.n_vertices)]
            + [plaquette_stabilizer(lat, p) for p in range(lat.n_plaquettes)])


def z_loop_links(lat: TorusLattice) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The links of the two dual cycles: (horizontal links of column 0,
    vertical links of row 0)."""
    return (tuple(lat.h_index(r, 0) for r in range(lat.L)),
            tuple(lat.v_index(0, c) for c in range(lat.L)))


def z_loops(lat: TorusLattice) -> tuple[PauliString, PauliString]:
    """Dual-cycle Z-loops on the links of :func:`z_loop_links`.

    They commute with every stabilizer and with every plaquette-flip product;
    their joint eigenvalues label the four ground sectors.
    """
    return tuple(PauliString(lat.n_links, 0, sum(1 << link for link in group), 0)
                 for group in z_loop_links(lat))


def x_loops(lat: TorusLattice) -> tuple[PauliString, PauliString]:
    """Direct-cycle X-loops: (horizontal links of row 0, vertical links of column 0).

    x_loops()[k] anticommutes with z_loops()[k] and commutes with the other.
    """
    x1 = 0
    for c in range(lat.L):
        x1 |= 1 << lat.h_index(0, c)
    x2 = 0
    for r in range(lat.L):
        x2 |= 1 << lat.v_index(r, 0)
    return (PauliString(lat.n_links, x1, 0, 0), PauliString(lat.n_links, x2, 0, 0))


def translations(lat: TorusLattice) -> tuple[tuple[int, ...], ...]:
    """The ``L^2`` lattice translations as link permutations.

    Entry ``link`` of the (dr, dc) translation is the link it moves to:
    h(r, c) -> h(r + dr, c + dc) and v(r, c) -> v(r + dr, c + dc).  The
    identity (0, 0) comes first.
    """
    out = []
    for dr in range(lat.L):
        for dc in range(lat.L):
            perm = []
            for link in range(lat.n_links):
                r, c = lat.link_rc(link)
                index = lat.h_index if lat.link_kind(link) == "h" else lat.v_index
                perm.append(index(r + dr, c + dc))
            out.append(tuple(perm))
    return tuple(out)
