"""Generate the corpus polytope JSONs from vertex lists (exact arithmetic).

Run from the repository root: python tools/gen_corpus.py
Facets are derived by exhaustive plane enumeration and edges by facet
incidence; every generated polytope is then pushed through the package's own
Delzant/reflexivity/fixed-face checks before being frozen.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hamfix.toric import (  # noqa: E402
    CircleDirection,
    Polytope,
    _cross,
    _dot,
    _primitive,
    _sub,
    fixed_faces,
    is_semifree,
)


def facets_from_vertices(verts):
    facets = {}
    for i, j, k in itertools.combinations(range(len(verts)), 3):
        n = _cross(_sub(verts[j], verts[i]), _sub(verts[k], verts[i]))
        if n == (0, 0, 0):
            continue
        n, _ = _primitive(n)
        c = _dot(n, verts[i])
        values = [_dot(n, v) for v in verts]
        if min(values) == c:
            facets[(n, c)] = True
        if max(values) == c:
            facets[(tuple(-x for x in n), -c)] = True
    return sorted(facets)


def edges_from_facets(verts, facets):
    on_facet = [
        {fi for fi, (n, o) in enumerate(facets) if _dot(n, v) == o}
        for v in verts
    ]
    edges = []
    for i, j in itertools.combinations(range(len(verts)), 2):
        if len(on_facet[i] & on_facet[j]) == 2:
            edges.append((i, j))
    return edges


def build(name, verts, xi, row):
    verts = sorted(set(tuple(v) for v in verts))
    facets = facets_from_vertices(verts)
    edges = edges_from_facets(verts, facets)
    poly = Polytope(
        name=name,
        vertices=tuple(verts),
        edges=tuple(edges),
        facets=tuple(facets),
        reflexive=True,
    )
    direction = CircleDirection(xi)
    assert is_semifree(poly, direction), name
    faces = fixed_faces(poly, direction)
    print(f"{name}: volume degree {poly.normalized_volume()}")
    for f in faces:
        pts = [poly.vertices[i] for i in f.vertices]
        print(f"  level {f.level}: {f.kind} {pts}")
    return poly, {"file": f"{name}.json", "xi": list(xi), "row": row}


SPECS = [
    ("p3", [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)], (1, 1, 1), "III-1"),
    ("v7", [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 2), (2, 0, 2), (0, 2, 2)],
     (0, -1, 0), "III-2"),
    ("cube2", list(itertools.product((0, 2), repeat=3)), (1, 1, 1), "I-2"),
    ("p1xp2", [(0, 0, 0), (-3, 0, 0), (0, 0, -3), (0, 2, 0), (-3, 2, 0), (0, 2, -3)],
     (0, -1, 1), "II-3.2"),
    ("p_oo2", [(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 2), (1, 0, 2), (0, 1, 2)],
     (1, 1, 1), "II-3.1"),
    ("p_oo11", [(0, 0, 0), (0, 0, 2), (1, 1, 2), (3, 3, 0), (0, 1, 2), (0, 3, 0),
                (1, 0, 2), (3, 0, 0)], (1, 1, 1), "I-3"),
    ("p1xs7", [(0, 2, 0), (2, 2, 0), (0, 2, 2), (0, 0, 0), (2, 2, 1), (1, 2, 2),
               (0, 0, 2), (2, 0, 0), (1, 0, 2), (2, 0, 1)], (1, -1, 1), "II-4.2"),
    ("bl_p1xs8", [(3, 0, 0), (3, 2, 0), (1, 0, 2), (1, 1, 2), (2, 2, 1), (0, 0, 0),
                  (0, 0, 2), (0, 1, 2), (0, 2, 0), (0, 2, 1)], (-1, 1, 0), "II-4.1"),
    # pentagon vertex (0,1,1) reconstructed: the distance-one cut planes of the
    # two sphere blow-ups are x+y+z >= 2 and z <= 2
    ("bl_y2", [(4, 0, 0), (2, 0, 2), (2, 0, 0), (1, 0, 1), (1, 0, 2), (0, 4, 0),
               (0, 2, 0), (0, 1, 1), (0, 1, 2), (0, 2, 2)], (-1, 0, 0), "III-4.5"),
    ("v7_bl_e1", [(0, 0, 0), (0, 0, 2), (0, 1, 2), (1, 0, 2), (3, 0, 1), (0, 3, 1),
                  (0, 4, 0), (4, 0, 0)], (1, 1, 1), "III-4.1"),
    ("v7_bl_e2", [(4, 0, 0), (0, 4, 0), (2, 0, 2), (0, 2, 2), (1, 0, 0), (0, 1, 0),
                  (1, 0, 2), (0, 1, 2)], (-1, 0, 0), "III-4.2"),
    ("v7_bl_e3", [(0, 0, 0), (0, 0, 2), (2, 0, 2), (0, 2, 2), (3, 0, 0), (0, 3, 0),
                  (3, 0, 1), (0, 3, 1)], (1, 1, 1), "III-4.3"),
    ("p3_bl_line", [(0, 0, 0), (0, 0, 4), (3, 0, 0), (0, 3, 0), (3, 0, 1), (0, 3, 1)],
     (1, 1, 1), "III-3.1"),
    # direction negated so the isolated point is the minimum
    ("p1xf1", [(0, -1, -1), (0, 1, -1), (0, 1, 0), (0, -1, 2), (2, -1, -1),
               (2, 1, -1), (2, 1, 0), (2, -1, 2)], (-1, 0, -1), "II-4.1b"),
]


def main():
    out_dir = Path(__file__).resolve().parent.parent / "src" / "hamfix" / "corpus"
    out_dir.mkdir(parents=True, exist_ok=True)
    index = []
    for name, verts, xi, row in SPECS:
        poly, entry = build(name, verts, xi, row)
        with open(out_dir / entry["file"], "w", encoding="utf-8") as fh:
            json.dump(poly.to_dict(), fh, indent=1)
            fh.write("\n")
        index.append(entry)
    with open(out_dir / "index.json", "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(index)} polytopes to {out_dir}")


if __name__ == "__main__":
    main()
