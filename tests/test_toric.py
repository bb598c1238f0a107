"""Polytope verification: Delzant/reflexive checks, fixed faces, row matching."""

import itertools
import json
import math

import pytest

from hamfix.classify6 import classify_all, flip
from hamfix.errors import HamfixError, NoMatchingTFD, NotDelzant, NotReflexive
from hamfix.lattice import pair
from hamfix.localization import (
    ExtremalFourManifold,
    ExtremalSurface,
    InteriorSurface,
    betti,
    chern_number,
)
from hamfix.toric import (
    CircleDirection,
    Polytope,
    chern_number_from_volume,
    corpus_dir,
    fixed_faces,
    is_semifree,
    _facet_shape,
    _tfd_profile,
    load_corpus,
    matched_degree,
    observed_profile,
    tfd_from_polytope,
    twice_facet_area,
    verify_corpus,
)


@pytest.fixture(scope="module")
def corpus():
    return {p.name: (p, d, row) for p, d, row in load_corpus()}


@pytest.fixture(scope="module")
def rows():
    return classify_all(strict=False)


def test_simplex_semifree(corpus):
    p3 = corpus["p3"][0]
    assert is_semifree(p3, CircleDirection((1, 1, 1)))
    assert not is_semifree(p3, CircleDirection((2, 1, 1)))


def test_v7_semifree(corpus):
    v7 = corpus["v7"][0]
    assert is_semifree(v7, CircleDirection((0, -1, 0)))


def test_simplex_fixed_faces(corpus):
    p3 = corpus["p3"][0]
    faces = fixed_faces(p3, CircleDirection((1, 1, 1)))
    assert [(f.kind, f.level) for f in faces] == [("vertex", -3), ("facet", 1)]
    origin = faces[0].vertices[0]
    assert p3.vertices[origin] == (0, 0, 0)


def test_v7_fixed_faces(corpus):
    v7 = corpus["v7"][0]
    faces = fixed_faces(v7, CircleDirection((0, -1, 0)))
    assert [(f.kind, f.level) for f in faces] == [
        ("vertex", -3), ("vertex", -1), ("facet", 1),
    ]


def test_cube_fixed_point_counts(corpus):
    cube = corpus["cube2"][0]
    faces = fixed_faces(cube, CircleDirection((1, 1, 1)))
    counts = {}
    for f in faces:
        assert f.kind == "vertex"
        counts[f.level] = counts.get(f.level, 0) + 1
    assert counts == {-3: 1, -1: 3, 1: 3, 3: 1}


def test_balanced_levels_by_dimension(corpus):
    for p, d, _row in corpus.values():
        for f in fixed_faces(p, d):
            if f.kind == "vertex":
                assert f.level in (-3, -1, 1, 3)
            elif f.kind == "edge":
                assert f.level in (-2, 0, 2)
            else:
                assert f.level in (-1, 1)


def test_volume_degrees(corpus):
    expected = {
        "p3": 64, "v7": 56, "cube2": 48, "p1xp2": 54, "p_oo2": 62,
        "p_oo11": 52, "p1xs7": 42, "bl_p1xs8": 44, "bl_y2": 46,
        "v7_bl_e1": 50, "v7_bl_e2": 50, "v7_bl_e3": 46, "p3_bl_line": 54,
        "p1xf1": 48,
    }
    for name, (p, _d, _row) in corpus.items():
        assert chern_number_from_volume(p) == expected[name], name


def test_degree_is_twice_the_facet_areas(corpus):
    # a reflexive polytope is the union of the cones from its interior point
    # over its facets, each at lattice distance 1, so 6 vol = sum 2 area
    for name, (p, _d, _row) in corpus.items():
        twice_areas = [twice_facet_area(p, p.facet_cycle(fi)) for fi in range(len(p.facets))]
        assert all(type(a) is int for a in twice_areas), name
        assert p.degree == sum(twice_areas), name


def test_fourmanifold_descriptors_hold_twice_the_area():
    # the toric key of an extremal 4-manifold is the int w.w, w its reduced
    # class, on every row and its flip; a Fraction area would equal it
    # only if halved
    seen = 0
    for row in classify_all(strict=False):
        for tfd in (row, flip(row)):
            for fc in tfd.components:
                if isinstance(fc, ExtremalFourManifold):
                    w, lat = fc.reduced_class, fc.lattice
                    desc = fc.toric_descriptor()
                    assert desc == ("fourmanifold", lat.kind, lat.blowups, pair(w, w)), tfd.label
                    assert type(desc[3]) is int, tfd.label
                    seen += 1
    assert seen == 20  # over the 19 rows and their flips


def test_degree_of_the_hexagonal_prism():
    # the hexagon of lattice area 3 times [-1, 1]: 6 vol = 6 * 3 * 2
    assert _hexagonal_prism().degree == 36


def test_degree_is_not_a_record_field(corpus):
    p = corpus["p3"][0]
    stored = json.loads((corpus_dir() / "p3.json").read_text(encoding="utf-8"))
    again = Polytope.from_dict(stored)
    assert again == p and hash(again) == hash(p) and again.degree == p.degree == 64
    assert Polytope.__record_fields__ == ("name", "facets")
    # a file's other keys are ignored, stale vertex lists and flags included
    assert Polytope.from_dict(dict(stored, vertices=[[9, 9, 9]], degree=1, reflexive=False)) == p


# the hand-written vertex lists the corpus was made from, in no order
HAND_VERTICES = {
    "p3": [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)],
    "v7": [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 2), (2, 0, 2), (0, 2, 2)],
    "cube2": list(itertools.product((0, 2), repeat=3)),
    "p1xp2": [(0, 0, 0), (-3, 0, 0), (0, 0, -3), (0, 2, 0), (-3, 2, 0), (0, 2, -3)],
    "p_oo2": [(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 2), (1, 0, 2), (0, 1, 2)],
    "p_oo11": [(0, 0, 0), (0, 0, 2), (1, 1, 2), (3, 3, 0), (0, 1, 2), (0, 3, 0),
               (1, 0, 2), (3, 0, 0)],
    "p1xs7": [(0, 2, 0), (2, 2, 0), (0, 2, 2), (0, 0, 0), (2, 2, 1), (1, 2, 2),
              (0, 0, 2), (2, 0, 0), (1, 0, 2), (2, 0, 1)],
    "bl_p1xs8": [(3, 0, 0), (3, 2, 0), (1, 0, 2), (1, 1, 2), (2, 2, 1), (0, 0, 0),
                 (0, 0, 2), (0, 1, 2), (0, 2, 0), (0, 2, 1)],
    "bl_y2": [(4, 0, 0), (2, 0, 2), (2, 0, 0), (1, 0, 1), (1, 0, 2), (0, 4, 0),
              (0, 2, 0), (0, 1, 1), (0, 1, 2), (0, 2, 2)],
    "v7_bl_e1": [(0, 0, 0), (0, 0, 2), (0, 1, 2), (1, 0, 2), (3, 0, 1), (0, 3, 1),
                 (0, 4, 0), (4, 0, 0)],
    "v7_bl_e2": [(4, 0, 0), (0, 4, 0), (2, 0, 2), (0, 2, 2), (1, 0, 0), (0, 1, 0),
                 (1, 0, 2), (0, 1, 2)],
    "v7_bl_e3": [(0, 0, 0), (0, 0, 2), (2, 0, 2), (0, 2, 2), (3, 0, 0), (0, 3, 0),
                 (3, 0, 1), (0, 3, 1)],
    "p3_bl_line": [(0, 0, 0), (0, 0, 4), (3, 0, 0), (0, 3, 0), (3, 0, 1), (0, 3, 1)],
    "p1xf1": [(0, -1, -1), (0, 1, -1), (0, 1, 0), (0, -1, 2), (2, -1, -1),
              (2, 1, -1), (2, 1, 0), (2, -1, 2)],
}


def test_vertices_are_derived_from_the_facets(corpus):
    assert corpus.keys() == HAND_VERTICES.keys()
    for name, (p, _d, _row) in corpus.items():
        assert p.vertices == tuple(sorted(set(HAND_VERTICES[name]))), name


OCTANT = (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0))


@pytest.mark.parametrize(
    "facets,message",
    [
        (OCTANT, r"vertex \(0, 0, 0\) meets 0 edges"),
        (OCTANT + (((-1, 0, 0), 1), ((1, 1, 1), 2)), "meet at no vertex"),
        ((), "meet at no vertex"),
        (OCTANT[1:] + (((2, 0, 0), 0), ((-1, -1, -1), -4)), r"normal \(2, 0, 0\) not primitive"),
        (OCTANT + (((0, 0, 0), 0),), r"^bad: facet normal \(0, 0, 0\) not primitive$"),
    ],
    ids=["octant", "infeasible", "empty", "non-primitive", "zero"],
)
def test_facets_that_bound_no_delzant_polytope(facets, message):
    with pytest.raises(NotDelzant, match=message):
        Polytope("bad", facets)


def test_built_polytopes_read_their_degree_without_a_walk(corpus, rows, monkeypatch):
    matches = {name: tfd_from_polytope(p, d, rows) for name, (p, d, _row) in corpus.items()}

    def refuse(self, f):
        raise AssertionError(f"{self.name}: walked facet {f} after it was built")

    monkeypatch.setattr(Polytope, "facet_cycle", refuse)
    for name, (p, _d, _row) in corpus.items():
        assert chern_number_from_volume(p) == matched_degree(p, matches[name]) == p.degree


def test_row_matching(corpus, rows):
    for name, (p, d, expected) in corpus.items():
        match = tfd_from_polytope(p, d, rows)
        assert match.label == expected, name
        assert chern_number(match) == chern_number_from_volume(p), name


def test_verify_corpus_end_to_end():
    results = verify_corpus()
    assert len(results) == 14
    assert ("p3", "III-1", 64) in results
    assert ("p1xf1", "II-4.1b", 48) in results


def test_verify_corpus_non_semifree_direction(tmp_path):
    # the corpus path leaves the semifree check to tfd_from_polytope
    import json
    import shutil
    from hamfix.toric import corpus_dir

    shutil.copy(corpus_dir() / "p3.json", tmp_path)
    index = [{"file": "p3.json", "xi": [2, 1, 1], "row": "III-1"}]
    (tmp_path / "index.json").write_text(json.dumps(index), encoding="utf-8")
    with pytest.raises(NoMatchingTFD, match=r"^p3: direction \(2, 1, 1\) is not semifree$"):
        verify_corpus(tmp_path)


def test_semifreeness_invariant_under_lattice_automorphisms(corpus):
    # shear the simplex and the direction together
    shears = [
        ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
        ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
    ]
    p3, d, _ = corpus["p3"]

    def apply(mat, v):
        return tuple(sum(mat[i][j] * v[j] for j in range(3)) for i in range(3))

    for mat in shears:
        # normals move contragradiently, so offsets and edge pairings with the
        # moved direction are preserved, and the vertices move with the matrix
        moved = Polytope(
            name="moved",
            facets=tuple((_solve_normal(mat, n), o) for (n, o) in p3.facets),
        )
        assert moved.vertices == tuple(sorted(apply(mat, v) for v in p3.vertices))
        xi = _solve_normal(mat, d.xi)
        assert is_semifree(moved, CircleDirection(xi)) == is_semifree(p3, d)


def _solve_normal(mat, n):
    """Inverse-transpose action on covectors for a unimodular matrix."""
    det = (
        mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
        - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
        + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
    )
    assert det in (1, -1)
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            minor = [
                [mat[a][b] for b in range(3) if b != j]
                for a in range(3) if a != i
            ]
            sign = -1 if (i + j) % 2 else 1
            cof[i][j] = sign * (minor[0][0] * minor[1][1] - minor[0][1] * minor[1][0])
    inv = [[cof[j][i] * det for j in range(3)] for i in range(3)]
    # covectors use the inverse transpose, i.e. the cofactor matrix over det
    return tuple(sum(inv[j][i] * n[j] for j in range(3)) for i in range(3))


def test_euler_characteristic_consistency(corpus, rows):
    for name, (p, d, expected) in corpus.items():
        match = tfd_from_polytope(p, d, rows)
        b = betti(match)
        alternating = b[0] - b[2] + b[4] - b[6]
        signed_vertices = 0
        for f in fixed_faces(p, d):
            if f.kind != "vertex":
                continue
            i = f.vertices[0]
            prod = 1
            for e in p.vertex_edges(i):
                prod *= sum(
                    a * b_ for a, b_ in zip(p.edge_direction(e, i), d.xi)
                )
            signed_vertices += 1 if prod > 0 else -1
        corrections = 0
        for fc in match.components:
            if isinstance(fc, InteriorSurface) or isinstance(fc, ExtremalSurface):
                continue  # spheres contribute zero to the alternating sum
            if isinstance(fc, ExtremalFourManifold):
                sign = -1 if fc.index == 2 else 1
                corrections += sign * (2 - fc.lattice.rank)
        assert signed_vertices + corrections == alternating, name


def test_interior_point_is_the_only_interior_lattice_point(corpus):
    # reference: scan the bounding box for points strictly inside every facet
    for name, (p, _d, _row) in corpus.items():
        box = [range(min(v[i] for v in p.vertices), max(v[i] for v in p.vertices) + 1)
               for i in range(3)]
        inside = [
            q for q in itertools.product(*box)
            if all(sum(a * b for a, b in zip(n, q)) > o for n, o in p.facets)
        ]
        assert inside == [p.interior_point], name


def test_reflexive_check_needs_a_basis_of_facet_normals():
    # a repeated facet puts four facets through vertex 0
    unit = (((1, 0, 0), -1), ((0, 1, 0), -1), ((0, 0, 1), -1), ((-1, -1, -1), -1))
    assert Polytope("twice", unit).interior_point == (0, 0, 0)
    with pytest.raises(NotDelzant, match=r"4 facets meet at vertex \(-1, -1, -1\)"):
        Polytope("twice", unit + unit[:1])


def test_not_delzant_detected():
    # vertex (2,0,0) has edge directions (-1,0,0), (-1,1,0), (-1,0,1): fine,
    # but the size-2 simplex is not reflexive (no interior lattice point lies
    # at distance one from all facets), which is checked when it is built
    with pytest.raises(NotReflexive):
        Polytope(
            name="bad",
            facets=(
                ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -2),
            ),
        )
    # the tetrahedron on (0,0,0), (2,0,0), (0,2,0), (1,1,2) has vertex cones
    # of index 4
    with pytest.raises(NotDelzant, match=r"at \(0, 0, 0\) not unimodular"):
        Polytope(
            name="squashed",
            facets=(
                ((0, 0, 1), 0), ((2, 0, -1), 0), ((0, 2, -1), 0), ((-2, -2, -1), -4),
            ),
        )


@pytest.mark.parametrize(
    "plane",
    [((1, 1, 1), 0), ((0, 1, 1), 0)],
    ids=["touches-one-vertex", "touches-one-edge"],
)
def test_facet_must_be_a_two_face(corpus, plane):
    # fixed facets are read from the normals +-xi, which is exact only when
    # every listed facet is a real 2-face; a supporting plane through fewer
    # than three vertices off one line is rejected when the polytope is built
    p3 = corpus["p3"][0]
    with pytest.raises(NotDelzant, match="not a 2-face"):
        Polytope(p3.name, p3.facets + (plane,))


def test_size3_simplex_is_not_reflexive():
    # the size-3 simplex is not monotone: the point at distance 1 from the
    # facets at the origin is (1, 1, 1), at distance 0 from the far facet
    facets = (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -3))
    with pytest.raises(NotReflexive) as err:
        Polytope("simplex3", facets)
    assert str(err.value) == "simplex3: facet (-1, -1, -1) at lattice distance 0"


def test_unnormalized_orientation_matches_no_row(corpus, rows):
    # the vertical direction on the simplex puts the 4-manifold at the
    # bottom; classified rows are normalized with an isolated minimum
    from hamfix.errors import NoMatchingTFD

    p3 = corpus["p3"][0]
    d = CircleDirection((0, 0, 1))
    assert is_semifree(p3, d)
    with pytest.raises(NoMatchingTFD):
        tfd_from_polytope(p3, d, rows)


SWEEP = [xi for xi in itertools.product((-1, 0, 1), repeat=3) if any(xi)]


def _facet_index(p, normal):
    return next(i for i, (n, _) in enumerate(p.facets) if n == normal)


def _hexagonal_prism():
    """P^1 x (P^2#3): the reflexive hexagon times [-1, 1]."""
    sides = [(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)]
    facets = tuple(((nx, ny, 0), -1) for nx, ny in sides) + (
        ((0, 0, 1), -1), ((0, 0, -1), -1),
    )
    return Polytope("hexprism", facets)


def test_facet_shape_from_edge_count_and_parity(corpus):
    p_oo2, p1xf1 = corpus["p_oo2"][0], corpus["p1xf1"][0]
    prism = _hexagonal_prism()
    hexagon = {(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)}
    assert set(prism.vertices) == {(x, y, z) for x, y in hexagon for z in (-1, 1)}

    def shape(p, fi):
        return _facet_shape(p, p.facet_cycle(fi))

    # the trapezoid of p_oo2 is F_2 (self-intersections 2, 0, -2, 0): even form
    assert shape(p_oo2, 0) == ("product", 0)
    # the trapezoid of p1xf1 is F_1 (self-intersections 1, 0, -1, 0)
    assert shape(p1xf1, _facet_index(p1xf1, (1, 0, 0))) == ("blowup", 1)
    assert shape(prism, _facet_index(prism, (0, 0, 1))) == ("blowup", 3)


def _outcome(call):
    # the profile is rendered for a reader, so the match count stands for it
    try:
        return ("row", id(call()))
    except HamfixError as err:
        return (type(err).__name__, str(err).split(" match profile ")[0])


def _brute_force_match(p, d, rows):
    if not is_semifree(p, d):
        raise NoMatchingTFD(f"{p.name}: direction {d.xi} is not semifree")
    observed = observed_profile(p, d)
    matches = [t for t in rows if _tfd_profile(t) == observed]
    if len(matches) != 1:
        raise NoMatchingTFD(
            f"{p.name}: {len(matches)} classified rows match profile {observed}"
        )
    return matches[0]


def test_row_prune_matches_brute_force(corpus, rows):
    for table in (rows, [flip(t) for t in rows]):
        matched = 0
        for p, _d, _row in corpus.values():
            for xi in SWEEP:
                d = CircleDirection(xi)
                got = _outcome(lambda: tfd_from_polytope(p, d, table))
                assert got == _outcome(lambda: _brute_force_match(p, d, table)), (p.name, xi)
                matched += got[0] == "row"
        # flipping every row matches the sweep's negated directions
        assert matched == 44


def test_facet_walks_of_one_sweep(corpus, rows, monkeypatch):
    # the corpus is built before the count, so only the sweep's walks count
    fixed = sum(
        f.kind == "facet"
        for p, _d, _row in corpus.values()
        for xi in SWEEP
        if is_semifree(p, d := CircleDirection(xi))
        for f in fixed_faces(p, d)
    )
    walks = []
    walk = Polytope.facet_cycle

    def counted(self, f):
        walks.append((self.name, f))
        return walk(self, f)

    monkeypatch.setattr(Polytope, "facet_cycle", counted)
    for p, _d, _row in corpus.values():
        for xi in SWEEP:
            try:
                tfd_from_polytope(p, CircleDirection(xi), rows)
            except NoMatchingTFD:
                pass
    assert len(walks) == fixed == 150


def test_fixed_faces_are_the_maximal_level_faces(corpus):
    checked = 0
    for p, _d, _row in corpus.values():
        faces = [{i} for i in range(len(p.vertices))]
        faces += [set(e) for e in p.edges]
        faces += [
            {i for i, v in enumerate(p.vertices) if sum(a * b for a, b in zip(n, v)) == o}
            for n, o in p.facets
        ]
        for xi in SWEEP:
            d = CircleDirection(xi)
            if not is_semifree(p, d):
                continue
            listed = fixed_faces(p, d)
            checked += 1

            def height(i):
                return sum(a * b for a, b in zip(p.vertices[i], xi))

            def pairings(i):
                # xi against the primitive edge directions at vertex i
                for e in p.edges:
                    if i in e:
                        w = [b - a for a, b in zip(p.vertices[i], p.vertices[sum(e) - i])]
                        yield sum(a * b for a, b in zip(w, xi)) // math.gcd(*w)

            level_faces = [f for f in faces if len({height(i) for i in f}) == 1]
            maximal = [f for f in level_faces if not any(f < g for g in level_faces)]
            assert sorted(sorted(f.vertices) for f in listed) == sorted(sorted(f) for f in maximal)
            shifts = set()
            for f in listed:
                members = set(f.vertices)
                for a, b in p.edges:
                    for end, other in ((a, b), (b, a)):
                        if end in members and other not in members:
                            assert height(other) != height(end), (p.name, xi, f)
                shifts |= {f.level - height(i) for i in members}
                # the balanced level, read without the interior point
                for i in members:
                    assert f.level == -sum(pairings(i)), (p.name, xi, f, i)
            assert len(shifts) == 1, (p.name, xi)
    assert checked == 214


@pytest.mark.parametrize("xi", [(True, 0, 0), (1, 0, 0.0), (1, 0)])
def test_circle_direction_needs_three_integers(xi):
    # a boolean is an int subclass, but not a direction coordinate
    with pytest.raises(ValueError, match="not three integers"):
        CircleDirection(xi)
