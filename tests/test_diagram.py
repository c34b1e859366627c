import heapq
import json

import pytest
from conftest import max_norm_vertex, mirror, rebase_on_boundary
from hypothesis import given, settings
from hypothesis import strategies as st

from vkpush.abelianization import AbelianizationMap
from vkpush.diagram import (
    Diagram,
    DiagramBuilder,
    canonical_signature,
    norm_key,
)
from vkpush.oracle import FillingCertificate, certificate_to_diagram, tower_diagram
from vkpush.presentation import Presentation, ValidationError, invert
from vkpush.store import DartStore, Template


@pytest.fixture
def zp() -> Presentation:
    return Presentation.from_texts(["a", "b"], ["a b a^-1 b^-1"])


@pytest.fixture
def zm(zp) -> AbelianizationMap:
    return AbelianizationMap.from_json_dict({"rank": 2, "columns": {"a": [1, 0], "b": [0, 1]}}, zp)


def build_square(p, m) -> Diagram:
    bld = DiagramBuilder(p, m)
    cell = bld.path((1, 2, -1, -2))
    bld.add_cell(cell)
    return bld.build(cell, (0, 0))


def build_grid(p, m) -> Diagram:
    """Four commutator squares tiling a 2x2 grid; one interior vertex."""
    bld = DiagramBuilder(p, m)
    h = {(x, y): bld.new_edge(1)[0] for x in range(2) for y in range(3)}
    v = {(x, y): bld.new_edge(2)[0] for x in range(3) for y in range(2)}
    tw = bld.twin
    for i in range(2):
        for j in range(2):
            bld.add_cell([h[i, j], v[i + 1, j], tw[h[i, j + 1]], tw[v[i, j]]])
    walk = [
        h[0, 0], h[1, 0], v[2, 0], v[2, 1],
        tw[h[1, 2]], tw[h[0, 2]], tw[v[0, 1]], tw[v[0, 0]],
    ]
    return bld.build(walk, (0, 0))


@pytest.fixture
def square(zp, zm) -> Diagram:
    return build_square(zp, zm)


@pytest.fixture
def grid(zp, zm) -> Diagram:
    return build_grid(zp, zm)


# -- construction and queries -------------------------------------------


def test_square_cell(square):
    assert square.area == 1
    assert square.boundary_word == (1, 2, -1, -2)
    assert len(square.vertices) == 4
    assert len(square.darts) == 8
    assert sorted(square.labels.values()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert square.labels[square.base] == (0, 0)


def test_square_walk_starts_at_base(square):
    walk = square.boundary_walk
    assert square.origin[walk[0]] == square.base
    for i, d in enumerate(walk):
        assert square.head(d) == square.origin[walk[(i + 1) % len(walk)]]


def test_grid_counts(grid):
    assert grid.area == 4
    assert len(grid.vertices) == 9
    assert len(grid.darts) == 24
    assert grid.boundary_word == (1, 1, 2, 2, -1, -1, -2, -2)
    assert sorted(grid.labels.values()) == sorted(
        (x, y) for x in range(3) for y in range(3)
    )


def test_grid_interior_vertex(grid):
    inner = [v for v in grid.vertices if v not in grid.boundary_vertices]
    assert len(inner) == 1
    assert grid.labels[inner[0]] == (1, 1)
    assert grid.degree(inner[0]) == 4


def test_grid_metrics(grid):
    out = grid.metrics()
    assert out["area"] == 4
    assert out["radius"] == 1
    assert out["norm"] == pytest.approx(8 ** 0.5)
    assert grid.labels[max_norm_vertex(grid)] == (2, 2)


def test_store_heap_skips_its_dead_entries(grid):
    # vertices a run has dropped stay in the heap until they reach the top;
    # the ones above every live label must be skipped
    store = DartStore(grid)
    live = len(store.labels)
    # the first query makes the heap
    assert store.max_norm_vertex() == max_norm_vertex(grid)
    assert len(store._heap) == live
    dead = range(max(store.labels) + 1, max(store.labels) + 4)
    for v in dead:
        heapq.heappush(store._heap, norm_key(v, (9, 9)))
    assert store.max_norm_vertex() == max_norm_vertex(grid)
    assert len(store._heap) == live


def test_trivial_diagram(zp, zm):
    bld = DiagramBuilder(zp, zm)
    d = bld.build((), (3, -1))
    assert d.area == 0
    assert d.boundary_word == ()
    assert d.boundary_vertices == {d.base}
    assert d.labels == {d.base: (3, -1)}
    assert d.metrics()["radius"] == 0


def test_spur_tree(zp, zm):
    bld = DiagramBuilder(zp, zm)
    d1, t1 = bld.new_edge(1)
    d = bld.build([d1, t1], (0, 0))
    assert d.area == 0
    assert d.boundary_word == (1, -1)
    assert len(d.vertices) == 2


# -- validation ----------------------------------------------------------


def test_torus_rotation_rejected(zp, zm):
    with pytest.raises(ValidationError, match="sphere"):
        Diagram.build(
            zp,
            zm,
            origin=[0, 0, 0, 0, 0],
            letter=[0, 1, -1, 2, -2],
            twin=[0, 2, 1, 4, 3],
            rotations={0: (1, 3, 2, 4)},
            base=0,
            base_label=(0, 0),
            boundary_face_dart=1,
        )


def test_non_relator_cell_rejected(zp, zm):
    bld = DiagramBuilder(zp, zm)
    cell = bld.path((1, 1, 2, 2))
    bld.add_cell(cell)
    with pytest.raises(ValidationError, match="relator variant"):
        bld.build(cell, (0, 0))


def test_inconsistent_labels_rejected():
    # a 2-gon over <a | a a>: the map a -> (1) is no homomorphism, so the
    # walk around the one cell returns with label 2 where it started at 0
    p = Presentation.from_texts(["a"], ["a a"])
    m = AbelianizationMap.from_json_dict({"rank": 1, "columns": {"a": [1]}}, p)
    bld = DiagramBuilder(p, m)
    cell = bld.path((1, 1))
    bld.add_cell(cell)
    with pytest.raises(ValidationError, match="inconsistent labels"):
        bld.build(cell, (0,))


def test_disconnected_diagram_rejected(z2_bundle):
    # a z2 tower plus a one-vertex torus whose one face is a relator variant:
    # the Euler count of the union is 2 + 0, so only connectivity fails
    p, m, s = z2_bundle
    tower = tower_diagram(s.entries[0], (1, 2, -1, -2), 2, (0,))
    a, ai, b, bi = (len(tower.origin) + i for i in range(4))
    v = max(tower.rotations) + 1
    with pytest.raises(ValidationError, match="diagram is not connected"):
        Diagram.build(
            p,
            m,
            origin=tower.origin + [v] * 4,
            letter=tower.letter + [1, -1, 2, -2],
            twin=tower.twin + [ai, a, bi, b],
            rotations={**tower.rotations, v: (a, b, ai, bi)},
            base=tower.base,
            base_label=tower.base_label,
            boundary_face_dart=tower.boundary_face_dart,
        )


def test_twin_letter_mismatch_rejected(zp, zm):
    with pytest.raises(ValidationError, match="inversely labelled"):
        Diagram.build(
            zp,
            zm,
            origin=[0, 0, 1],
            letter=[0, 1, 1],
            twin=[0, 2, 1],
            rotations={0: (1,), 1: (2,)},
            base=0,
            base_label=(0, 0),
            boundary_face_dart=1,
        )


def test_boundary_dart_must_start_at_base(square):
    other = next(v for v in square.vertices if v != square.base)
    with pytest.raises(ValidationError, match="base vertex"):
        Diagram.build(
            square.presentation,
            square.amap,
            origin=square.origin,
            letter=square.letter,
            twin=square.twin,
            rotations=square.rotations,
            base=other,
            base_label=(0, 0),
            boundary_face_dart=square.boundary_face_dart,
        )


def square_arrays(square) -> dict:
    """The square's Diagram.build arguments, as copies a case may change."""
    return dict(
        origin=list(square.origin),
        letter=list(square.letter),
        twin=list(square.twin),
        rotations=dict(square.rotations),
        base=square.base,
        base_label=square.base_label,
        boundary_face_dart=square.boundary_face_dart,
    )


def no_darts(**changes) -> dict:
    a = dict(origin=[0], letter=[0], twin=[0], rotations={0: ()}, base=0, base_label=(0, 0), boundary_face_dart=None)
    return {**a, **changes}


@pytest.mark.parametrize(
    "case, message",
    [
        (lambda a: {"letter": a["letter"][:-1]}, "origin, letter and twin must cover the same darts"),
        (lambda a: {"letter": [1] + a["letter"][1:]}, "dart id 0 must be a positive integer"),
        (lambda a: no_darts(boundary_face_dart=1), "a diagram without darts cannot name a boundary face dart"),
        (lambda a: no_darts(rotations={0: (), 1: ()}), "a diagram without darts must consist of the base vertex alone"),
    ],
    ids=["short letter list", "slot 0", "no darts, a boundary dart", "no darts, two vertices"],
)
def test_build_refuses_malformed_arrays(square, case, message):
    a = square_arrays(square)
    with pytest.raises(ValidationError) as info:
        Diagram.build(square.presentation, square.amap, **{**a, **case(a)})
    assert str(info.value) == message


def test_build_refuses_a_map_with_a_column_too_many(square, zp):
    m3 = AbelianizationMap(2, ((1, 0), (0, 1), (1, 1)))
    with pytest.raises(ValidationError) as info:
        Diagram.build(zp, m3, **square_arrays(square))
    assert str(info.value) == "abelianization map does not match the presentation"


def test_builder_refuses_an_empty_cell(zp, zm):
    with pytest.raises(ValidationError) as info:
        DiagramBuilder(zp, zm).add_cell([])
    assert str(info.value) == "cells must have at least one side"


def test_alias_refuses_a_dart_and_its_twin(zp, zm):
    bld = DiagramBuilder(zp, zm)
    d1, t1 = bld.new_edge(1)
    with pytest.raises(ValidationError) as info:
        bld.alias(d1, t1)
    assert str(info.value) == f"cannot identify dart {d1} with its own twin"


def test_builder_rejects_open_walk(zp, zm):
    bld = DiagramBuilder(zp, zm)
    d1, _ = bld.new_edge(1)
    with pytest.raises(ValidationError, match="twin outside"):
        bld.build([d1], (0, 0))


def test_builder_rejects_reused_dart(zp, zm):
    bld = DiagramBuilder(zp, zm)
    d1, t1 = bld.new_edge(1)
    bld.add_cell([d1])
    bld.add_cell([d1])
    with pytest.raises(ValidationError, match="used 3 times"):
        bld.build([t1], (0, 0))


def test_builder_gives_a_fold_product_a_fresh_id(zp, zm):
    # an alias that folds two hinted vertices makes a new vertex, numbered
    # past every hint, as DartStore.glue numbers a fold
    bld = DiagramBuilder(zp, zm)
    cell = bld.path((1, 2, -1, -2))
    bld.add_cell(cell)
    spare = bld.new_edge(1)[0]
    bld.alias(cell[0], spare)
    hints = {cell[0]: 5, spare: 7, cell[1]: 1, cell[2]: 2, cell[3]: 3}
    d = bld.build(cell, (0, 0), vertex_hints=hints)
    assert [d.origin[x] for x in cell] == [8, 1, 2, 3]
    assert d.labels[8] == (0, 0)


def test_builder_gives_a_claimed_hint_a_fresh_id(zp, zm):
    # two vertices hinted with one id: the first in dart order keeps it, and
    # the other is numbered past every hint, as DartStore.glue does
    bld = DiagramBuilder(zp, zm)
    cell = bld.path((1, 2, -1, -2))
    bld.add_cell(cell)
    d = bld.build(cell, (0, 0), vertex_hints={cell[0]: 0, cell[1]: 0, cell[2]: 2, cell[3]: 3})
    assert [d.origin[x] for x in cell] == [0, 4, 2, 3]
    assert d.labels[4] == (1, 0)


def test_alias_letter_mismatch(zp, zm):
    bld = DiagramBuilder(zp, zm)
    d1, _ = bld.new_edge(1)
    d2, _ = bld.new_edge(2)
    with pytest.raises(ValidationError, match="different letters"):
        bld.alias(d1, d2)


def test_detached_sphere(zp, zm):
    def assemble():
        bld = DiagramBuilder(zp, zm)
        cell = bld.path((1, 2, -1, -2))
        bld.add_cell(cell)
        bubble = bld.path((1, 2, -1, -2))
        bld.add_cell(bubble)
        bld.add_cell([bld.twin[x] for x in reversed(bubble)])
        return bld, cell

    bld, cell = assemble()
    with pytest.raises(ValidationError, match="detached sphere"):
        bld.build(cell, (0, 0))
    bld, cell = assemble()
    d = bld.build(cell, (0, 0), allow_bubbles=True)
    assert d.area == 1
    assert len(d.darts) == 8


# -- serialization ---------------------------------------------------------


def test_json_round_trip_is_byte_stable(grid):
    s1 = json.dumps(grid.to_json_dict(), sort_keys=True)
    d2 = Diagram.from_json_dict(json.loads(s1), grid.presentation, grid.amap)
    s2 = json.dumps(d2.to_json_dict(), sort_keys=True)
    assert s1 == s2
    assert canonical_signature(d2) == canonical_signature(grid)


def test_json_shape_errors(square, zp, zm):
    obj = square.to_json_dict()
    broken = dict(obj)
    del broken["rotations"]
    with pytest.raises(ValidationError, match="rotations"):
        Diagram.from_json_dict(broken, zp, zm)
    broken = json.loads(json.dumps(obj))
    broken["darts"][0]["letter"] = "q"
    with pytest.raises(ValidationError):
        Diagram.from_json_dict(broken, zp, zm)
    with pytest.raises(ValidationError, match="object"):
        Diagram.from_json_dict([1, 2], zp, zm)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("id", -3, "dart id -3 must be a positive integer"),
        ("base_label", "0 0", "'base_label' must be a list"),
    ],
)
def test_json_reader_refuses_a_bad_id_or_base_label(square, zp, zm, field, value, message):
    obj = json.loads(json.dumps(square.to_json_dict()))
    if field == "id":
        obj["darts"][0]["id"] = value
    else:
        obj[field] = value
    with pytest.raises(ValidationError) as info:
        Diagram.from_json_dict(obj, zp, zm)
    assert str(info.value) == message


# -- mirror and rebase -------------------------------------------------------


def test_mirror_inverts_boundary(square):
    m = mirror(square)
    assert m.boundary_word == invert(square.boundary_word)
    assert m.area == square.area
    assert m.base == square.base
    assert canonical_signature(mirror(m)) == canonical_signature(square)
    assert canonical_signature(m) != canonical_signature(square)


def test_mirror_trivial(zp, zm):
    d = DiagramBuilder(zp, zm).build((), (0, 0))
    assert mirror(d) is d


def test_rebase_rotates_boundary(grid):
    w = grid.boundary_word
    r = rebase_on_boundary(grid, 2)
    assert r.boundary_word == w[2:] + w[:2]
    assert r.base_label == (2, 0)
    assert sorted(r.labels.values()) == sorted(grid.labels.values())
    back = rebase_on_boundary(r, len(w) - 2)
    assert canonical_signature(back) == canonical_signature(grid)


def test_rebase_with_explicit_label(grid):
    r = rebase_on_boundary(grid, 2, (0, 0))
    assert r.base_label == (0, 0)
    assert min(r.labels.values()) == (-2, 0)


@given(st.integers(min_value=-8, max_value=16))
def test_rebase_matches_rotation(j):
    p = Presentation.from_texts(["a", "b"], ["a b a^-1 b^-1"])
    m = AbelianizationMap.from_json_dict({"rank": 2, "columns": {"a": [1, 0], "b": [0, 1]}}, p)
    g = build_grid(p, m)
    w = g.boundary_word
    k = j % len(w)
    assert rebase_on_boundary(g, j).boundary_word == w[k:] + w[:k]


# -- DartStore.star, DartStore.glue and Template.compile -------------------


def test_store_star_at_grid_center(grid):
    center = next(v for v in grid.vertices if v not in grid.boundary_vertices)
    star = DartStore(grid).star(center)
    assert len(star.darts) == 4
    assert len(star.words) == 4
    for word in star.words:
        assert word in grid.presentation.variant_set
        assert len(word) == 4
    assert len(star.link_darts) == 8
    # the link closes up around the center
    for i, dart in enumerate(star.link_darts):
        nxt = star.link_darts[(i + 1) % len(star.link_darts)]
        assert grid.head(dart) == grid.origin[nxt]
    assert center not in {grid.origin[x] for x in star.link_darts}


def test_store_star_rejects_boundary_vertex(grid):
    store = DartStore(grid)
    for v in grid.boundary_vertices:
        with pytest.raises(ValidationError, match=f"vertex {v} lies on the boundary"):
            store.star(v)


def test_store_star_refuses_an_id_that_is_no_vertex(z2_bundle):
    p, m, s = z2_bundle
    up = next(e for e in s.entries if e.t == 1)
    store = DartStore(tower_diagram(up, (1, 2, -1, -2), 2, m.zero))
    assert 8 not in store.rotations
    with pytest.raises(ValidationError) as info:
        store.star(8)
    assert str(info.value) == "no vertex 8 in the diagram"


def grid_with_a_c_corner(relators, corner) -> Diagram:
    """The 2x2 grid over <a, b, c | [a, b], relators> with c -> 0, one corner of the centre widened.

    ``corner(bld)`` gives the darts of c-edges that the lower left cell
    runs through at the centre, and the cells that fill the room they
    enclose.
    """
    p = Presentation.from_texts(["a", "b", "c"], ["a b a^-1 b^-1", *relators])
    m = AbelianizationMap.from_json_dict({"rank": 2, "columns": {"a": [1, 0], "b": [0, 1], "c": [0, 0]}}, p)
    bld = DiagramBuilder(p, m)
    h = {(x, y): bld.new_edge(1)[0] for x in range(2) for y in range(3)}
    v = {(x, y): bld.new_edge(2)[0] for x in range(3) for y in range(2)}
    tw = bld.twin
    through, cells = corner(bld)
    for i in range(2):
        for j in range(2):
            at_centre = through if (i, j) == (0, 0) else []
            bld.add_cell([h[i, j], v[i + 1, j], *at_centre, tw[h[i, j + 1]], tw[v[i, j]]])
    for cell in cells:
        bld.add_cell(cell)
    walk = [
        h[0, 0], h[1, 0], v[2, 0], v[2, 1],
        tw[h[1, 2]], tw[h[0, 2]], tw[v[0, 1]], tw[v[0, 0]],
    ]
    return bld.build(walk, (0, 0))


def grid_centre(d: Diagram) -> int:
    return max((v for v in d.vertices if v not in d.boundary_vertices), key=d.degree)


def test_store_star_rejects_a_loop_edge():
    # a c-loop at the centre, holding a one-cell disc of the relator c
    def loop(bld):
        c, ct = bld.new_edge(3)
        return [c], [[ct]]

    d = grid_with_a_c_corner(["c", "a b c a^-1 b^-1"], loop)
    v = grid_centre(d)
    assert v not in d.boundary_vertices
    with pytest.raises(ValidationError, match=f"^vertex {v} carries a loop edge; star is not regular$"):
        DartStore(d).star(v)


def test_store_star_rejects_a_repeated_corner():
    # the lower left cell runs out of the centre along c to a vertex inside
    # it and back along another c, so it opens two corners at the centre
    def pinch(bld):
        c1, t1 = bld.new_edge(3)
        c2, t2 = bld.new_edge(3)
        return [c1, c2], [[t2, t1]]

    d = grid_with_a_c_corner(["c c", "a b c c a^-1 b^-1"], pinch)
    v = grid_centre(d)
    assert v not in d.boundary_vertices
    face_of = {x: i for i, face in enumerate(d.faces) for x in face}
    spokes = d.rotations[v]
    out = next(x for i, x in enumerate(spokes) if face_of[x] in {face_of[y] for y in spokes[:i]})
    with pytest.raises(ValidationError, match=f"^face of dart {out} has a repeated corner at vertex {v}$"):
        DartStore(d).star(v)


def test_store_star_rejects_a_link_without_edges(zp, zm):
    # no valid diagram reaches this check: every corner face of a vertex
    # whose link has no edges is a 2-gon, so the diagram is that vertex's
    # star alone and one of those faces is the boundary face.  A store
    # whose boundary face dart names no dart shows it on a spur.
    bld = DiagramBuilder(zp, zm)
    d1, t1 = bld.new_edge(1)
    d = bld.build([d1, t1], (0, 0))
    store = DartStore(d)
    store.boundary_face_dart = 0
    for v in d.vertices:
        with pytest.raises(ValidationError, match=f"^the link of vertex {v} has no edges$"):
            store.star(v)


def center_star(grid):
    """The grid is the closed star of its centre: re-based where the link starts."""
    center = next(v for v in grid.vertices if v not in grid.boundary_vertices)
    start = grid.head(DartStore(grid).star(center).darts[0])
    corners = [grid.origin[x] for x in grid.boundary_walk]
    return center, rebase_on_boundary(grid, corners.index(start))


def as_builder(d):
    """A validated diagram as a replacement is assembled: a builder and its outer walk."""
    bld = DiagramBuilder(d.presentation, d.amap)
    return bld, bld.import_diagram(d)


def test_glue_star_back_is_identity(grid):
    center, piece = center_star(grid)
    store = DartStore(grid)
    star = store.star(center)
    assert piece.boundary_word == star.link_word
    store.apply(store.glue(star, Template.compile(*as_builder(piece))))
    assert canonical_signature(store.diagram()) == canonical_signature(grid)


def test_glue_rejects_wrong_boundary(grid, square):
    center, piece = center_star(grid)
    store = DartStore(grid)
    star = store.star(center)
    with pytest.raises(ValidationError, match="does not match the link"):
        store.glue(star, Template.compile(*as_builder(square)))
    bld, walk = as_builder(piece)
    with pytest.raises(ValidationError, match="does not match the link"):
        store.glue(star, Template.compile(bld, walk[1:] + walk[:1]))


def test_template_rejects_a_dart_used_twice(grid):
    center, piece = center_star(grid)
    bld, walk = as_builder(piece)
    bld.add_cell(bld.cells[0])
    with pytest.raises(ValidationError, match="used 2 times across faces"):
        Template.compile(bld, walk)


def test_template_rejects_a_cell_that_is_not_a_relator_variant(grid):
    center, piece = center_star(grid)
    bld, walk = as_builder(piece)
    bld.add_cell(bld.path((1, 1)))
    with pytest.raises(ValidationError, match="'a a' is not a relator variant"):
        Template.compile(bld, walk)


def test_template_rejects_a_vertex_the_link_does_not_reach(grid):
    # a sphere of two squares beside the replacement shares no vertex with it
    center, piece = center_star(grid)
    bld, walk = as_builder(piece)
    cell = bld.path((1, 2, -1, -2))
    bld.add_cell(cell)
    bld.add_cell([bld.twin[x] for x in reversed(cell)])
    with pytest.raises(ValidationError, match="detached sphere component"):
        Template.compile(bld, walk)


# -- certificate_to_diagram(boundary=) ----------------------------------------
#
# A certificate's diagram built with a boundary word that freely reduces to
# its product: the cancelled pairs become spur edges.

SQUARE = FillingCertificate((((), (1, 2, -1, -2)),))


def test_certificate_to_diagram_boundary_inserts_spur(square, zp, zm):
    target = (1, 2, -2, 2, -1, -2)
    out = certificate_to_diagram(zp, zm, SQUARE, (0, 0), target)
    assert out.boundary_word == target
    assert out.area == 1
    assert len(out.vertices) == 5
    assert out.base == square.base


def test_certificate_to_diagram_boundary_identity(square, zp, zm):
    out = certificate_to_diagram(zp, zm, SQUARE, (0, 0), square.boundary_word)
    assert canonical_signature(out) == canonical_signature(square)


def test_certificate_to_diagram_boundary_rejects_mismatch(zp, zm):
    with pytest.raises(ValidationError, match="does not reduce"):
        certificate_to_diagram(zp, zm, SQUARE, (0, 0), (1, 2, -2, -1))


def test_certificate_to_diagram_boundary_on_trivial(zp, zm):
    out = certificate_to_diagram(zp, zm, FillingCertificate(()), (0, 0), (1, -1, 2, -2))
    assert out.boundary_word == (1, -1, 2, -2)
    assert out.area == 0
    assert len(out.vertices) == 3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.sampled_from([1, -1, 2, -2])), max_size=5))
def test_certificate_to_diagram_boundary_random_insertions(inserts):
    p = Presentation.from_texts(["a", "b"], ["a b a^-1 b^-1"])
    m = AbelianizationMap.from_json_dict({"rank": 2, "columns": {"a": [1, 0], "b": [0, 1]}}, p)
    d = build_square(p, m)
    target = list(d.boundary_word)
    for pos, x in inserts:
        pos %= len(target) + 1
        target[pos:pos] = [x, -x]
    out = certificate_to_diagram(p, m, SQUARE, (0, 0), tuple(target))
    assert out.boundary_word == tuple(target)
    assert out.area == d.area


# -- signatures ------------------------------------------------------------


def test_signature_ignores_dart_ids(square, zp, zm):
    bld = DiagramBuilder(zp, zm)
    bld.new_edge(1)  # shift the id space
    moved = bld.build(bld.import_diagram(square), square.base_label)
    assert moved.darts != square.darts
    assert canonical_signature(moved) == canonical_signature(square)


def test_signature_separates_rebases(grid):
    sigs = {canonical_signature(rebase_on_boundary(grid, j, (0, 0))) for j in range(4)}
    assert len(sigs) == 4
