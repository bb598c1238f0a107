"""Lattice polytopes with a circle direction: verification of toric candidates.

A polytope is given by its inward facet normals and offsets, and derives its
vertices and edges, which checks it Delzant, and its interior point, which
checks it reflexive: the toric manifold is monotone with [omega] = c1.  Given
a primitive direction, the module checks semifreeness, extracts the fixed
faces with their balanced levels, read from the interior point, assembles the
data into a fixed-point-data shape and matches it against the classified
rows, and reads the anticanonical degree off the facet areas.
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import NoMatchingTFD, NotDelzant, NotReflexive
from .classify6 import TFD, classify_all
from .localization import chern_number
from .record import record


def _strict(x, kind=int):
    if type(x) is not kind:  # a JSON 0.5 or true is an error, not a coercion
        import json
        raise ValueError(f"{json.dumps(x)} is not a JSON {kind.__name__}")
    return x


def _read_json(path):
    import json
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as err:
            raise ValueError(f"{path}: JSON nested too deeply to read") from err


def _ivec(v):
    return tuple(map(_strict, _strict(v, list)))


def _normal(v):
    n = _ivec(v)
    if len(n) != 3:
        raise ValueError(f"facet normal {list(n)} is not three integers")
    return n


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _primitive(v):
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v), g


@record
class CircleDirection:
    """Primitive integer generator of a circle subgroup of the torus."""

    xi: tuple[int, int, int]

    def __post_init__(self):
        if len(self.xi) != 3 or not all(type(x) is int for x in self.xi):
            raise ValueError(f"direction {self.xi} is not three integers")
        g = gcd(gcd(abs(self.xi[0]), abs(self.xi[1])), abs(self.xi[2]))
        if g != 1:
            raise ValueError(f"{self.xi} is not primitive")


def _meet(f, g, h):
    """(d, q): by Cramer's rule the planes n.p = o of three facets meet at q / d,
    d > 0, or d = 0 when their normals are dependent."""
    (a, o), (b, s), (c, t) = f, g, h
    bc, ca, ab = _cross(b, c), _cross(c, a), _cross(a, b)
    d = a[0] * bc[0] + a[1] * bc[1] + a[2] * bc[2]
    if d < 0:
        d, o, s, t = -d, -o, -s, -t
    return d, (o * bc[0] + s * ca[0] + t * ab[0], o * bc[1] + s * ca[1] + t * ab[1],
               o * bc[2] + s * ca[2] + t * ab[2])


def _combinatorics(name, facets):
    """(vertices, edges) of {p : n.p >= o on every facet (n, o)}, checked Delzant:
    the sorted points where three facets meet and that satisfy every facet, and
    the vertex pairs i < j on two common facets."""
    for n, _ in facets:
        if gcd(*n) != 1:  # 0 for the zero normal
            raise NotDelzant(f"{name}: facet normal {n} not primitive")
    on = {}  # vertex -> indices of the facets through it
    for i, j, k in itertools.combinations(range(len(facets)), 3):
        d, q = _meet(facets[i], facets[j], facets[k])
        if d == 0:
            continue
        x, y, z = q
        for (a, b, c), o in facets:
            if a * x + b * y + c * z < o * d:
                break
        else:
            if d != 1:
                from fractions import Fraction
                point = ", ".join(str(Fraction(w, d)) for w in q)
                raise NotDelzant(f"{name}: facet normals at ({point}) not unimodular")
            on.setdefault(q, set()).update((i, j, k))
    if not on:
        raise NotDelzant(f"{name}: the facets meet at no vertex")
    vertices = tuple(sorted(on))
    at = [on[v] for v in vertices]
    pairs = itertools.combinations(range(len(vertices)), 2)
    edges = tuple((i, j) for i, j in pairs if len(at[i] & at[j]) > 1)
    for i, v in enumerate(vertices):
        if (m := sum(i in e for e in edges)) != 3:  # else a ray leaves v
            raise NotDelzant(f"{name}: vertex {v} meets {m} edges")
    for f, (n, _) in enumerate(facets):
        if sum(f in s for s in at) < 3:  # no three vertices lie on one line
            raise NotDelzant(f"{name}: facet {n} is not a 2-face")
    for v, s in zip(vertices, at):
        if len(s) != 3:
            raise NotDelzant(f"{name}: {len(s)} facets meet at vertex {v}")
    return vertices, edges


@record
class Polytope:
    """Reflexive Delzant lattice 3-polytope, given by its facets.

    When it is built it derives its `vertices` and `edges`, which checks it
    Delzant, then its `interior_point` c, the point at lattice distance 1
    from the facets at vertex 0 (a lattice basis), and checks that every
    facet lies at lattice distance 1 from c; then its `degree`, six times
    its volume.  It is the union of the pyramids from c over its facets, each
    of height 1 in the lattice, so the degree is the sum of twice the facet
    areas.
    """

    name: str
    facets: tuple[tuple[tuple[int, int, int], int], ...]  # (inward normal, offset)

    def __post_init__(self):
        # derived, not fields, so `==` and hash ignore them
        vertices, edges = _combinatorics(self.name, self.facets)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        v = vertices[0]
        c = _meet(*((n, o + 1) for n, o in self.facets if _dot(n, v) == o))[1]
        for n, o in self.facets:
            if (distance := _dot(n, c) - o) != 1:
                raise NotReflexive(f"{self.name}: facet {n} at lattice distance {distance}")
        object.__setattr__(self, "interior_point", c)
        degree = sum(twice_facet_area(self, self.facet_cycle(f)) for f in range(len(self.facets)))
        object.__setattr__(self, "degree", degree)

    @staticmethod
    def from_dict(d) -> Polytope:
        try:
            return Polytope(
                name=_strict(d["name"], str),
                facets=tuple((_normal(f["normal"]), _strict(f["offset"])) for f in d["facets"]),
            )
        except (KeyError, TypeError, IndexError) as err:
            raise ValueError(f"not a polytope record (name/facets): {err}") from err

    @staticmethod
    def load(path) -> Polytope:
        return Polytope.from_dict(_read_json(path))

    def vertex_edges(self, i: int) -> list[tuple[int, int]]:
        return [e for e in self.edges if i in e]

    def edge_direction(self, e, base: int) -> tuple[int, int, int]:
        """Primitive direction of edge e pointing away from the vertex base."""
        i, j = e
        other = j if i == base else i
        d, _ = _primitive(_sub(self.vertices[other], self.vertices[base]))
        return d

    def edge_length(self, e) -> int:
        _, g = _primitive(_sub(self.vertices[e[1]], self.vertices[e[0]]))
        return g

    def facet_vertices(self, f: int) -> list[int]:
        n, o = self.facets[f]
        return [i for i, v in enumerate(self.vertices) if _dot(n, v) == o]

    def facet_cycle(self, f: int) -> list[int]:
        """Vertex indices of facet f in boundary-walk order."""
        members = set(self.facet_vertices(f))
        adj = {i: [] for i in members}
        for a, b in self.edges:
            if a in members and b in members:
                adj[a].append(b)
                adj[b].append(a)
        start = min(members)
        cycle = [start, adj[start][0]]
        while len(cycle) < len(members):
            nxt = [v for v in adj[cycle[-1]] if v != cycle[-2]]
            cycle.append(nxt[0])
        return cycle


def is_semifree(p: Polytope, d: CircleDirection) -> bool:
    """Every primitive edge direction pairs with the direction in {-1,0,1}."""
    for e in p.edges:
        dirn, _ = _primitive(_sub(p.vertices[e[1]], p.vertices[e[0]]))
        if abs(_dot(dirn, d.xi)) > 1:
            return False
    return True


@record
class FixedFace:
    kind: str  # "vertex" | "edge" | "facet"
    vertices: tuple[int, ...]
    level: int


def fixed_faces(p: Polytope, d: CircleDirection) -> list[FixedFace]:
    """Fixed faces with balanced levels, read from the interior point c.

    A face through the vertex v sits at <xi, v - c>.  That is the balanced
    level -sum_j <xi, w_j>, w_j the primitive edge directions at v: they are
    the basis dual to the three facet normals n_i at v, and <n_i, v - c> = -1
    for each, as the polytope is reflexive, so v - c = -sum_j w_j.
    """
    xi = d.xi
    base = _dot(p.interior_point, xi)
    # vertex -> [(neighbour, pairing of the primitive edge direction toward it)]
    at: list[list[tuple[int, int]]] = [[] for _ in p.vertices]
    for a, b in p.edges:
        s = _dot(_primitive(_sub(p.vertices[b], p.vertices[a]))[0], xi)
        at[a].append((b, s))
        at[b].append((a, -s))
    zeros = [[j for j, s in nbrs if s == 0] for nbrs in at]
    # (kind, vertices, a vertex whose level places the face)
    found = [("vertex", (i,), i) for i in range(len(at)) if not zeros[i]]
    # an edge of a fixed facet has a second fixed edge at each end, so it
    # fails this test and only isolated fixed spheres are listed
    found += [
        ("edge", (a, b), a)  # a < b, as in `edges`
        for a, b in p.edges
        if zeros[a] == [b] and zeros[b] == [a]
    ]
    # the tangent edges of a 2-face span the plane normal to its primitive
    # normal n, so they all pair to zero with the primitive xi iff xi = +-n
    minus_xi = tuple(-x for x in xi)
    for fi, (n, _) in enumerate(p.facets):
        if n != xi and n != minus_xi:
            continue
        members = set(p.facet_vertices(fi))
        tangent = [s for i in members for j, s in at[i] if j in members]
        if tangent and not any(tangent):
            found.append(("facet", tuple(sorted(members)), min(members)))
    faces = [FixedFace(kind, verts, _dot(p.vertices[v], xi) - base) for kind, verts, v in found]
    faces.sort(key=lambda f: (f.level, f.kind, f.vertices))
    return faces


def _facet_cycle_of(p: Polytope, verts: tuple[int, ...]) -> list[int]:
    """The boundary walk of the facet whose vertex set is `verts`, found by
    scanning every facet, as a polytope stores no facet vertex sets yet
    (ROADMAP item 15 says why)."""
    fi = next(
        i for i in range(len(p.facets))
        if tuple(sorted(p.facet_vertices(i))) == tuple(sorted(verts))
    )
    return p.facet_cycle(fi)


def twice_facet_area(p: Polytope, cycle: list[int]) -> int:
    """Twice the lattice-normalized area of the 2-face walked by `cycle`, an int.

    The cross products v_i x v_{i+1} of consecutive vertices, around the
    closed walk, sum to those of a fan triangulation from any vertex: m n
    for the face's primitive normal n, and m is twice the area in units of
    the fundamental parallelogram, as a unimodular triangle has area 1/2.
    """
    vs = [p.vertices[i] for i in cycle]
    x = y = z = 0
    for (ax, ay, az), (bx, by, bz) in zip(vs, vs[1:] + vs[:1]):
        x += ay * bz - az * by
        y += az * bx - ax * bz
        z += ax * by - ay * bx
    return gcd(x, y, z)


def _facet_shape(p: Polytope, cycle: list[int]):
    """(lattice kind, blow-up count) of the 4-manifold over the 2-face walked by `cycle`.

    A smooth toric surface with m boundary edges has b2 = m - 2.  With the
    walk's primitive edge vectors a_i, the self-intersection of edge i reads
    off a_{i-1} + a_{i+1} = -(D_i^2) a_i.  The form is even, and the surface
    is S^2 x S^2 (a Hirzebruch surface F_2k), exactly when m = 4 and every
    D_i^2 is even; otherwise it is P^2 blown up m - 3 times.
    """
    m = len(cycle)  # at least 3, as `_combinatorics` makes every facet a 2-face
    if m == 4:
        a = [
            _primitive(_sub(p.vertices[cycle[(i + 1) % 4]], p.vertices[cycle[i]]))[0]
            for i in range(4)
        ]
        squares = []
        for i in range(4):
            k = next(k for k in range(3) if a[i][k])  # read D_i^2 in this coordinate
            squares.append(-(a[i - 1][k] + a[(i + 1) % 4][k]) // a[i][k])
        if all(s % 2 == 0 for s in squares):
            return ("product", 0)
    return ("blowup", m - 3)


def observed_profile(p: Polytope, d: CircleDirection):
    """Per-level component summary extracted from the fixed faces."""
    faces = fixed_faces(p, d)
    levels: dict[int, list] = {}
    for f in faces:
        if f.kind == "vertex":
            i = f.vertices[0]
            weights = tuple(
                sorted(_dot(p.edge_direction(e, i), d.xi) for e in p.vertex_edges(i))
            )
            desc = ("pt", weights)
        elif f.kind == "edge":
            desc = ("sphere", p.edge_length(f.vertices))
        else:
            cycle = _facet_cycle_of(p, f.vertices)
            kind, blowups = _facet_shape(p, cycle)
            desc = ("fourmanifold", kind, blowups, twice_facet_area(p, cycle))
        levels.setdefault(f.level, []).append(desc)
    return {lvl: tuple(sorted(ds)) for lvl, ds in sorted(levels.items())}


def _tfd_profile(tfd: TFD):
    """The same summary computed from a classified row."""
    levels: dict[int, list] = {}
    for fc in tfd.components:
        desc = fc.toric_descriptor()
        if desc is None:
            return None
        levels.setdefault(fc.level, []).append(desc)
    return {lvl: tuple(sorted(ds)) for lvl, ds in sorted(levels.items())}


def _profile_text(desc) -> str:
    """A descriptor as words; a 4-manifold's twice-area prints as its area, 4 or 7/2."""
    if desc[0] == "fourmanifold":
        *desc, twice = desc
        desc.append(twice // 2 if twice % 2 == 0 else f"{twice}/2")
    return " ".join(map(str, desc))


def tfd_from_polytope(p: Polytope, d: CircleDirection, rows: list[TFD] | None = None) -> TFD:
    """Match the polytope's fixed-point data against classified rows.

    Without `rows` it classifies, after the semifree check.
    """
    if not is_semifree(p, d):
        raise NoMatchingTFD(f"{p.name}: direction {d.xi} is not semifree")
    if rows is None:
        rows = classify_all(strict=False)
    observed = observed_profile(p, d)
    # equal profiles have one descriptor per component at the same levels, so
    # a row whose sorted component levels differ cannot match
    levels = sorted(lvl for lvl, descs in observed.items() for _ in descs)
    matches = [
        tfd
        for tfd in rows
        if sorted(fc.level for fc in tfd.components) == levels
        and _tfd_profile(tfd) == observed
    ]
    if len(matches) != 1:
        text = "; ".join(
            f"{lvl}: " + ", ".join(map(_profile_text, descs)) for lvl, descs in observed.items()
        )
        raise NoMatchingTFD(f"{p.name}: {len(matches)} classified rows match profile {text}")
    return matches[0]


def chern_number_from_volume(p: Polytope) -> int:
    """Anticanonical degree of the toric 3-fold: six times the volume."""
    return p.degree


def matched_degree(p: Polytope, match: TFD) -> int:
    """The volume degree of the polytope, checked against c1^3 of its row."""
    degree, c1_cubed = chern_number_from_volume(p), chern_number(match)
    if degree != c1_cubed:
        raise NoMatchingTFD(f"{p.name}: volume degree {degree} != {match.label} c1^3 {c1_cubed}")
    return degree


# ---------------------------------------------------------------------------
# corpus handling

def corpus_dir():
    """The packaged corpus directory, a `pathlib.Path`."""
    from pathlib import Path
    return Path(__file__).resolve().parent / "corpus"


def load_corpus(directory=None):
    """[(polytope, direction, expected row label)] from an index file.

    The index is a list of objects with a string "file" and "row" and an
    integer list "xi"; anything else raises ValueError.
    """
    import json
    from pathlib import Path
    directory = Path(directory) if directory else corpus_dir()
    index = _read_json(directory / "index.json")
    out = []
    for entry in _strict(index, list):
        try:
            file, row, xi = _strict(entry, dict)["file"], entry["row"], _ivec(entry["xi"])
        except KeyError as err:
            raise ValueError(f"corpus index entry {json.dumps(entry)} has no {err}") from err
        poly = Polytope.load(directory / _strict(file, str))
        out.append((poly, CircleDirection(xi), _strict(row, str)))
    return out


def verify_corpus(directory=None):
    """Run the full verification on every corpus polytope.

    Returns a list of (name, row label, normalized volume) on success; raises
    the first failure otherwise.
    """
    rows = classify_all(strict=False)
    results = []
    for poly, direction, expected in load_corpus(directory):
        match = tfd_from_polytope(poly, direction, rows)
        if match.label != expected:
            raise NoMatchingTFD(
                f"{poly.name}: matched {match.label}, expected {expected}"
            )
        results.append((poly.name, match.label, matched_degree(poly, match)))
    return results
