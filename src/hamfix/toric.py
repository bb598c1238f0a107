"""Lattice polytopes with a circle direction: verification of toric candidates.

A polytope is given by its inward facet normals and offsets, and derives its
vertices and edges.  Given a primitive direction, the module checks
semifreeness, extracts the fixed faces with their balanced levels, assembles
the data into a fixed-point-data shape and matches it against the classified
rows, and computes the anticanonical degree from the normalized volume.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .errors import InternalArithmeticError, NoMatchingTFD, NotBalanced, NotDelzant, NotReflexive
from .classify6 import TFD, classify_all
from .localization import chern_number
from .record import record


def _strict(x, kind=int):
    if type(x) is not kind:  # a JSON 0.5 or true is an error, not a coercion
        import json
        raise ValueError(f"{json.dumps(x)} is not a JSON {kind.__name__}")
    return x


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
        if _primitive(n)[1] != 1:
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
    """Delzant lattice 3-polytope, given by its facets.

    Its `vertices` and `edges` are derived, which checks it Delzant, when it is
    built; then it is checked reflexive if flagged and its `degree` computed.
    """

    name: str
    facets: tuple[tuple[tuple[int, int, int], int], ...]  # (inward normal, offset)
    reflexive: bool = True

    def __post_init__(self):
        # derived, not fields, so `==` and hash ignore them
        vertices, edges = _combinatorics(self.name, self.facets)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        if self.reflexive:
            self.check_reflexive()
        object.__setattr__(self, "degree", self.normalized_volume())

    @staticmethod
    def from_dict(d) -> Polytope:
        try:
            return Polytope(
                name=d["name"],
                facets=tuple((_normal(f["normal"]), _strict(f["offset"])) for f in d["facets"]),
                reflexive=_strict(d.get("reflexive", True), bool),
            )
        except (KeyError, TypeError, IndexError) as err:
            raise ValueError(f"not a polytope record (name/facets): {err}") from err

    @staticmethod
    def load(path) -> Polytope:
        import json
        with open(path, encoding="utf-8") as fh:
            return Polytope.from_dict(json.load(fh))

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

    def interior_point(self) -> tuple[int, int, int]:
        """The point at lattice distance 1 from the facets at vertex 0 (a lattice basis)."""
        v = self.vertices[0]
        return _meet(*((n, o + 1) for n, o in self.facets if _dot(n, v) == o))[1]

    def check_reflexive(self) -> None:
        center = self.interior_point()
        for n, o in self.facets:
            distance = _dot(n, center) - o
            if distance != 1:
                raise NotReflexive(f"{self.name}: facet {n} at lattice distance {distance}")

    def normalized_volume(self) -> int:
        """Six times the Euclidean volume, by localization at the vertices.

        For a covector c that pairs to zero with no edge direction, 6 vol is
        the sum over the vertices v of <c, v>^3 / prod(-<c, w>), w running
        over the primitive edge directions at v (Brion 1988, Lawrence 1991),
        as every vertex cone is unimodular (`_combinatorics`).
        """
        dirs = [_primitive(_sub(self.vertices[b], self.vertices[a]))[0] for a, b in self.edges]
        m = 2 * max(abs(x) for d in dirs for x in d) + 1
        c = (1, m, m * m)  # <c, d> = 0 needs a coordinate of d of size m / 2
        den = [1] * len(self.vertices)
        for (a, b), d in zip(self.edges, dirs):
            den[a] *= -_dot(c, d)
            den[b] *= _dot(c, d)
        common = lcm(*den)  # the sum is over this denominator, and must be whole
        total = sum(_dot(c, v) ** 3 * (common // q) for v, q in zip(self.vertices, den))
        volume, rest = divmod(total, common)
        if rest:
            raise InternalArithmeticError(f"{self.name}: volume sum {total}/{common} not whole")
        return volume


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
    """Fixed faces with balanced levels.

    The balancing shift is the unique constant making every fixed face sit at
    minus the sum of its transverse edge pairings; inconsistent shifts mean
    the direction does not act with the balanced normalization.
    """
    xi = d.xi
    # vertex -> [(neighbour, pairing of the primitive edge direction toward it)]
    at: list[list[tuple[int, int]]] = [[] for _ in p.vertices]
    for a, b in p.edges:
        s = _dot(_primitive(_sub(p.vertices[b], p.vertices[a]))[0], xi)
        at[a].append((b, s))
        at[b].append((a, -s))
    zeros = [[j for j, s in nbrs if s == 0] for nbrs in at]
    # (kind, vertices, vertex whose level and transverse weights place the face)
    found = [("vertex", (i,), i) for i in range(len(at)) if not zeros[i]]
    # an edge of a fixed facet has a second fixed edge at each end, so it
    # fails this test and only isolated fixed spheres are listed
    found += [
        ("edge", tuple(sorted((a, b))), a)
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
    raw = [  # kind, verts, raw level, transverse weight sum
        (kind, verts, _dot(p.vertices[v], xi), sum(s for _, s in at[v]))
        for kind, verts, v in found
    ]
    shifts = {-w - r for _, _, r, w in raw}
    if len(shifts) != 1:
        raise NotBalanced(f"{p.name}: inconsistent balancing shifts {sorted(shifts)}")
    shift = shifts.pop()
    faces = [FixedFace(kind, verts, r + shift) for kind, verts, r, _ in raw]
    faces.sort(key=lambda f: (f.level, f.kind, f.vertices))
    return faces


def _facet_cycle_of(p: Polytope, verts: tuple[int, ...]) -> list[int]:
    fi = next(
        i for i in range(len(p.facets))
        if tuple(sorted(p.facet_vertices(i))) == tuple(sorted(verts))
    )
    return p.facet_cycle(fi)


def facet_lattice_area(p: Polytope, verts: tuple[int, ...]):
    """Lattice-normalized area of a fixed 2-face (a half-integer `Fraction`)."""
    from fractions import Fraction
    cycle = _facet_cycle_of(p, verts)
    v0 = p.vertices[cycle[0]]
    acc = (0, 0, 0)
    for a, b in zip(cycle[1:], cycle[2:]):
        c = _cross(_sub(p.vertices[a], v0), _sub(p.vertices[b], v0))
        acc = tuple(x + y for x, y in zip(acc, c))
    _, m = _primitive(acc)
    return Fraction(m, 2)


def _facet_shape(p: Polytope, verts: tuple[int, ...]):
    """(lattice kind, blow-up count) of the 4-manifold over a fixed 2-face.

    A smooth toric surface with m boundary edges has b2 = m - 2.  With the
    walk's primitive edge vectors a_i, the self-intersection of edge i reads
    off a_{i-1} + a_{i+1} = -(D_i^2) a_i.  The form is even, and the surface
    is S^2 x S^2 (a Hirzebruch surface F_2k), exactly when m = 4 and every
    D_i^2 is even; otherwise it is P^2 blown up m - 3 times.
    """
    cycle = _facet_cycle_of(p, verts)
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
            e = next(e for e in p.edges if tuple(sorted(e)) == f.vertices)
            desc = ("sphere", p.edge_length(e))
        else:
            kind, blowups = _facet_shape(p, f.vertices)
            desc = ("fourmanifold", kind, blowups, facet_lattice_area(p, f.vertices))
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
            f"{lvl}: " + ", ".join(" ".join(map(str, desc)) for desc in descs)
            for lvl, descs in observed.items()
        )
        raise NoMatchingTFD(f"{p.name}: {len(matches)} classified rows match profile {text}")
    return matches[0]


def chern_number_from_volume(p: Polytope) -> int:
    """Anticanonical degree of the toric 3-fold: six times the volume."""
    if not p.reflexive:
        raise NotReflexive(f"{p.name}: not flagged reflexive")
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
    with open(directory / "index.json", encoding="utf-8") as fh:
        index = json.load(fh)
    out = []
    for entry in _strict(index, list):
        try:
            file, row, xi = _strict(entry, dict)["file"], entry["row"], _ivec(entry["xi"])
        except KeyError as err:
            raise ValueError(f"corpus index entry {json.dumps(entry)} has no {err}") from err
        poly = Polytope.load(directory / _strict(file, str))
        out.append((poly, CircleDirection(xi), _strict(row, str)))
    return out


def verify_corpus(directory=None, rows=None):
    """Run the full verification on every corpus polytope.

    Returns a list of (name, row label, normalized volume) on success; raises
    the first failure otherwise.
    """
    if rows is None:
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
