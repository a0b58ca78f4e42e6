"""L x L periodic square lattice with spins on links, plus a planner that
embeds the link register into a cubic (3D) array with SWAP shuttling for the
wrap-around couplings.

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

import json
from dataclasses import dataclass, field
from typing import Sequence

from .pauli import PauliString

Coord = tuple[int, int, int]


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


def z_loops(lat: TorusLattice) -> tuple[PauliString, PauliString]:
    """Dual-cycle Z-loops: (horizontal links of column 0, vertical links of row 0).

    They commute with every stabilizer and with every plaquette-flip product;
    their joint eigenvalues label the four ground sectors.
    """
    z1 = 0
    for r in range(lat.L):
        z1 |= 1 << lat.h_index(r, 0)
    z2 = 0
    for c in range(lat.L):
        z2 |= 1 << lat.v_index(0, c)
    return (PauliString(lat.n_links, 0, z1, 0), PauliString(lat.n_links, 0, z2, 0))


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


def neighbor_pairs(lat: TorusLattice) -> list[tuple[int, int]]:
    """Unordered pairs of links that must interact: consecutive entries of
    each vertex and plaquette ordering.  Deduplicated, deterministic order."""
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for group in (lat.vertex_links, lat.plaquette_links):
        for links in group:
            for a, b in zip(links, links[1:]):
                key = (min(a, b), max(a, b))
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    return out


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


# ---------------------------------------------------------------------------
# Cubic embedding
# ---------------------------------------------------------------------------

def link_plane_coord(lat: TorusLattice, link: int) -> Coord:
    """Home coordinate of a link qubit in the z=0 plane.

    The midpoint lattice of links is rotated 45 degrees so that diagonal
    nearest-neighbour link pairs land on unit-adjacent integer sites:
    h(r,c) -> (r+c, r-c+L-1, 0) and v(r,c) -> (r+c, r-c+L, 0).
    """
    r, c = lat.link_rc(link)
    if lat.link_kind(link) == "h":
        return (r + c, r - c + lat.L - 1, 0)
    return (r + c, r - c + lat.L, 0)


@dataclass(frozen=True)
class CubicEmbedding:
    """Static placement plus SWAP shuttle paths for wrap-around pairs.

    ``swap_paths[(a, b)]`` lists the coordinates visited by qubit ``a`` on
    its way to a site adjacent to ``b``'s home; the empty tuple means the
    pair is already adjacent.  All intermediate sites live in the z=1
    shuttle layer: column-wrap pairs ride the shuttle row w=-1, row-wrap
    pairs the row w=2L (one auxiliary row per wrapped direction).
    """

    L: int
    logical_to_physical: dict[int, Coord]
    swap_paths: dict[tuple[int, int], tuple[Coord, ...]]

    @property
    def swap_count(self) -> int:
        return sum(max(len(p) - 1, 0) for p in self.swap_paths.values())

    def to_json(self) -> str:
        data = {
            "L": self.L,
            "sites": {str(k): list(v) for k, v in sorted(self.logical_to_physical.items())},
            "paths": [
                {"pair": list(pair), "steps": [list(c) for c in path]}
                for pair, path in sorted(self.swap_paths.items())
            ],
        }
        return json.dumps(data, indent=1)

    def schedule_rows(self) -> list[tuple[int, int, int, int, int, int]]:
        """CSV rows (link_a, link_b, step, x, y, z), one per path coordinate."""
        rows = []
        for (a, b), path in sorted(self.swap_paths.items()):
            for step, coord in enumerate(path):
                rows.append((a, b, step, *coord))
        return rows


def _manhattan(a: Coord, b: Coord) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2])


def _walk(start: Coord, goal_u: int, goal_w: int) -> list[Coord]:
    """Unit steps in the z=1 layer, u first then w."""
    u, w, zc = start
    out = []
    while u != goal_u:
        u += 1 if goal_u > u else -1
        out.append((u, w, zc))
    while w != goal_w:
        w += 1 if goal_w > w else -1
        out.append((u, w, zc))
    return out


def plan_cubic_embedding(lat: TorusLattice) -> CubicEmbedding:
    """Place all link qubits in a plane and route wrap pairs through the
    shuttle layer above it."""
    placement = {link: link_plane_coord(lat, link) for link in range(lat.n_links)}

    # classify wrapped pairs by direction: column wraps (c crossed the seam)
    # go to shuttle row w=-1, row wraps to w=2L
    wrap_row = {"col": -1, "row": 2 * lat.L}
    directions: dict[tuple[int, int], str] = {}
    L = lat.L
    for links in lat.vertex_links + lat.plaquette_links:
        for a, b in zip(links, links[1:]):
            key = (min(a, b), max(a, b))
            if key in directions:
                continue
            (ra, ca), (rb, cb) = lat.link_rc(a), lat.link_rc(b)
            if abs(ra - rb) > 1:
                directions[key] = "row"
            elif abs(ca - cb) > 1:
                directions[key] = "col"

    paths: dict[tuple[int, int], tuple[Coord, ...]] = {}
    for a, b in neighbor_pairs(lat):
        home_a, home_b = placement[a], placement[b]
        if _manhattan(home_a, home_b) == 1:
            paths[(a, b)] = ()
            continue
        shuttle_w = wrap_row[directions.get((a, b), "col")]
        ua, wa, _ = home_a
        ub, wb, _ = home_b
        route: list[Coord] = [home_a, (ua, wa, 1)]
        cursor = route[-1]
        for target_u, target_w in ((ua, shuttle_w), (ub, shuttle_w), (ub, wb)):
            route.extend(_walk(cursor, target_u, target_w))
            cursor = route[-1]
        paths[(a, b)] = tuple(route)
    return CubicEmbedding(L=lat.L, logical_to_physical=placement, swap_paths=paths)


@dataclass
class EmbeddingReport:
    """Itemized validation outcome; ``ok`` is True when nothing is violated."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_embedding(emb: CubicEmbedding, lat: TorusLattice) -> EmbeddingReport:
    """Check injectivity, step adjacency, shuttle cleanliness, and coverage.

    Never raises: every problem becomes one line in the report so a broken
    plan can be inspected wholesale.
    """
    report = EmbeddingReport()
    homes = emb.logical_to_physical

    if len(homes) != lat.n_links:
        report.violations.append(
            f"placement covers {len(homes)} of {lat.n_links} links")
    occupied: dict[Coord, int] = {}
    for link, coord in homes.items():
        if coord in occupied:
            report.violations.append(
                f"links {occupied[coord]} and {link} share site {coord}")
        occupied[coord] = link

    required = set(neighbor_pairs(lat))
    for pair in required:
        if pair not in emb.swap_paths:
            report.violations.append(f"pair {pair} has no shuttle entry")
    for pair, path in emb.swap_paths.items():
        a, b = pair
        if pair not in required:
            report.violations.append(f"pair {pair} is not a required interaction")
            continue
        if not path:
            if _manhattan(homes[a], homes[b]) != 1:
                report.violations.append(
                    f"pair {pair} marked adjacent but homes are "
                    f"{homes[a]} and {homes[b]}")
            continue
        if path[0] != homes[a]:
            report.violations.append(
                f"pair {pair}: path starts at {path[0]}, home is {homes[a]}")
        for i in range(len(path) - 1):
            if _manhattan(path[i], path[i + 1]) != 1:
                report.violations.append(
                    f"pair {pair}: step {i} jumps {path[i]} -> {path[i + 1]}")
        for coord in path[1:]:
            if coord in occupied:
                report.violations.append(
                    f"pair {pair}: path crosses occupied site {coord} "
                    f"(link {occupied[coord]})")
        if _manhattan(path[-1], homes[b]) != 1:
            report.violations.append(
                f"pair {pair}: path ends at {path[-1]}, not adjacent to {homes[b]}")
    return report


def lattice_to_json(lat: TorusLattice) -> str:
    """Geometry dump: link table plus neighborhood orderings."""
    links = []
    for link in range(lat.n_links):
        r, c = lat.link_rc(link)
        links.append({"index": link, "kind": lat.link_kind(link), "r": r, "c": c})
    data = {
        "L": lat.L,
        "n_links": lat.n_links,
        "links": links,
        "vertex_links": [list(t) for t in lat.vertex_links],
        "plaquette_links": [list(t) for t in lat.plaquette_links],
    }
    return json.dumps(data, indent=1)
