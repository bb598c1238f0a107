"""Polytope verification: Delzant/reflexive checks, fixed faces, row matching."""

import itertools

import pytest

from hamfix.classify6 import classify_all, flip
from hamfix.errors import HamfixError, NoMatchingTFD, NotBalanced, NotDelzant, NotReflexive
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
    fixed_faces,
    is_semifree,
    _facet_shape,
    _tfd_profile,
    load_corpus,
    observed_profile,
    tfd_from_polytope,
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


def test_verify_corpus_non_semifree_direction(tmp_path, rows):
    # the corpus path leaves the semifree check to tfd_from_polytope
    import json
    import shutil
    from hamfix.toric import corpus_dir

    shutil.copy(corpus_dir() / "p3.json", tmp_path)
    index = [{"file": "p3.json", "xi": [2, 1, 1], "row": "III-1"}]
    (tmp_path / "index.json").write_text(json.dumps(index), encoding="utf-8")
    with pytest.raises(NoMatchingTFD, match=r"^p3: direction \(2, 1, 1\) is not semifree$"):
        verify_corpus(tmp_path, rows)


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
        verts = tuple(apply(mat, v) for v in p3.vertices)
        # transform the direction contragradiently: edge pairings are preserved
        # when both the polytope and the dual vector transform consistently;
        # here we transform edges directly so pair values are unchanged.
        moved = Polytope(
            name="moved",
            vertices=verts,
            edges=p3.edges,
            facets=tuple(
                (_solve_normal(mat, n), o) for (n, o) in p3.facets
            ),
            reflexive=True,
        )
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
            if isinstance(fc.spec, InteriorSurface) or isinstance(fc.spec, ExtremalSurface):
                continue  # spheres contribute zero to the alternating sum
            if isinstance(fc.spec, ExtremalFourManifold):
                sign = -1 if fc.index == 2 else 1
                corrections += sign * (2 - fc.spec.lattice.rank)
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
        assert inside == [p.interior_point()], name


def test_reflexive_check_needs_a_basis_of_facet_normals():
    # a repeated facet puts four facets through vertex 0
    unit = (((1, 0, 0), -1), ((0, 1, 0), -1), ((0, 0, 1), -1), ((-1, -1, -1), -1))
    record = dict(
        name="twice",
        vertices=((-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)),
        edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    )
    assert Polytope(facets=unit, **record).interior_point() == (0, 0, 0)
    with pytest.raises(NotDelzant):
        Polytope(facets=unit + unit[:1], **record)


def test_not_delzant_detected():
    # vertex (2,0,0) has edge directions (-1,0,0), (-1,1,0), (-1,0,1): fine,
    # but the size-2 simplex is not reflexive (no interior lattice point lies
    # at distance one from all facets), and a polytope flagged reflexive is
    # checked for it when it is built
    with pytest.raises(NotReflexive):
        Polytope(
            name="bad",
            vertices=((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)),
            edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
            facets=(
                ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -2),
            ),
            reflexive=True,
        )
    # shrink instead to break the vertex cone
    with pytest.raises(NotDelzant):
        Polytope(
            name="squashed",
            vertices=((0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 1, 2)),
            edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
            facets=(
                ((0, 0, 1), 0), ((2, 0, -1), 0), ((0, 2, -1), 0), ((-2, -2, -1), -4),
            ),
            reflexive=False,
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
    record = corpus["p3"][0].to_dict()
    normal, offset = plane
    record["facets"].append({"normal": list(normal), "offset": offset})
    with pytest.raises(NotDelzant, match="not a 2-face"):
        Polytope.from_dict(record)


def test_unbalanced_direction_detected():
    # the size-3 simplex is not monotone: its fixed faces need different shifts
    simplex3 = Polytope(
        name="simplex3",
        vertices=((0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)),
        edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
        facets=(
            ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -3),
        ),
        reflexive=False,
    )
    with pytest.raises(NotBalanced):
        fixed_faces(simplex3, CircleDirection((1, 1, 1)))


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
    """P^2#3 x interval: the reflexive hexagon times [0, 1]."""
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    vertices = tuple((x, y, z) for z in (0, 1) for x, y in hexagon)
    edges = tuple(
        (i + 6 * z, (i + 1) % 6 + 6 * z) for z in (0, 1) for i in range(6)
    ) + tuple((i, i + 6) for i in range(6))
    sides = [(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)]
    facets = tuple(((nx, ny, 0), -1) for nx, ny in sides) + (
        ((0, 0, 1), 0), ((0, 0, -1), -1),
    )
    return Polytope("hexprism", vertices, edges, facets, reflexive=False)


def test_facet_shape_from_edge_count_and_parity(corpus):
    p_oo2, p1xf1 = corpus["p_oo2"][0], corpus["p1xf1"][0]
    prism = _hexagonal_prism()
    prism.check_delzant()

    def shape(p, fi):
        return _facet_shape(p, tuple(p.facet_vertices(fi)))

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
            try:
                listed = fixed_faces(p, d)
            except NotBalanced:
                continue
            checked += 1

            def height(i):
                return sum(a * b for a, b in zip(p.vertices[i], xi))

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
            assert len(shifts) == 1, (p.name, xi)
    assert checked > 0


@pytest.mark.parametrize("xi", [(True, 0, 0), (1, 0, 0.0), (1, 0)])
def test_circle_direction_needs_three_integers(xi):
    # a boolean is an int subclass, but not a direction coordinate
    with pytest.raises(ValueError, match="not three integers"):
        CircleDirection(xi)
