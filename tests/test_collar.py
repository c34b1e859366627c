"""Collars and corner fillings built in place against the two-pass reference.

``reference_collar`` and ``reference_pushed_star`` keep the construction in
which a collar maps one validated Diagram to another: the inner disc is
built and validated first, and the collar adopts its darts and builds the
whole disc again.  ``reference_tower`` stacks such collars one build per
level, and each corner filling is a validated diagram of its own, mirrored
and re-based (``conftest.corner_instance``).  The one-builder path must give
the same towers and corner fillings, ids included, and the same surgery at
every push step.
"""

import pytest
from conftest import _load_bundle, adopt, corner_instance, dart_dicts

from vkpush.abelianization import Character, norm, vec_add, vec_sub
from vkpush.diagram import DiagramBuilder
from vkpush.oracle import sample_corridor_certificates, tower_diagram, wasteful_diagram
from vkpush.presentation import ValidationError
from vkpush.pusher import _import_corner, _push_max
from vkpush.scheme import certify_coverage, choose_entry, hat_word
from vkpush.store import DartStore, Template

R = (1, 2, -1, -2)


def reference_collar(inner, e, outer_word):
    if inner.boundary_word != hat_word(e, outer_word):
        raise ValidationError("collar outer word does not hat onto the inner boundary")
    p, m = e.presentation, e.amap
    bld = DiagramBuilder(p, m)
    adopt(bld, inner)
    for face in inner.faces[1:]:
        bld.add_cell(list(face))
    k = len(outer_word)
    top = bld.path(outer_word)
    verticals = [bld.new_edge(e.t)[0] for _ in range(k)]
    iw = inner.boundary_walk
    pos = 0
    for i, x in enumerate(outer_word):
        vi, vj = verticals[i], verticals[(i + 1) % k]
        if x == e.t:
            bld.alias(vi, top[i])
            bld.alias(vj, iw[pos])
            pos += 1
        elif x == -e.t:
            bld.alias(vj, bld.twin[top[i]])
            bld.alias(vi, bld.twin[iw[pos]])
            pos += 1
        else:
            block = iw[pos : pos + len(e.conj[x])]
            pos += len(block)
            cell = [bld.twin[vi], top[i], vj]
            cell.extend(bld.twin[bk] for bk in reversed(block))
            bld.add_cell(cell)
    label = vec_sub(inner.base_label, m.column(e.t))
    return bld.build(top, label, vertex_hints=dart_dicts(inner)[0])


def reference_tower(e, word, depth, base_label):
    col = e.amap.column(e.t)
    bld = DiagramBuilder(e.presentation, e.amap)
    cell = bld.path(word)
    bld.add_cell(cell)
    d = bld.build(cell, tuple(b + depth * c for b, c in zip(base_label, col)))
    for _ in range(depth):
        d = reference_collar(d, e, word)
    return d


def reference_pushed_star(d, star, e):
    p, m = d.presentation, d.amap
    bld = DiagramBuilder(p, m)
    spoke_words = [hat_word(e, (d.letter[s],)) for s in star.darts]
    spoke_paths = [bld.path(w) for w in spoke_words]
    k = len(star.words)
    walk = []
    for i, word in enumerate(star.words):
        bwalk = bld.import_diagram(corner_instance(e, word))
        nxt = (i + 1) % k
        no, nc = len(spoke_words[i]), len(spoke_words[nxt])
        for dd, ss in zip(bwalk[:no], spoke_paths[i]):
            bld.alias(dd, ss)
        tail = bwalk[len(bwalk) - nc :]
        for dd, ss in zip([bld.twin[x] for x in reversed(tail)], spoke_paths[nxt]):
            bld.alias(dd, ss)
        walk.extend(bwalk[no : len(bwalk) - nc])
    v0 = d.origin[d.twin[star.darts[0]]]
    inner = bld.build(walk, vec_add(d.labels[v0], m.column(e.t)))
    return reference_collar(inner, e, star.link_word)


def push_against_reference(d, s, k, q):
    """Push d in one store; each step's surgery must equal the reference's."""
    store = DartStore(d)
    choices = {}
    steps = 0
    while norm(store.labels[store.max_norm_vertex()]) > q:
        g = store.max_norm_vertex()
        star = store.star(g)
        entry, _ = choose_entry(s, Character.from_vector([-x for x in store.labels[g]]))
        ref = reference_pushed_star(store, star, entry)
        bld = DiagramBuilder(ref.presentation, ref.amap)
        want = store.glue(star, Template.compile(bld, bld.import_diagram(ref)))
        _, got = _push_max(store, s, k, choices)
        assert got == want
        steps += 1
    return steps


@pytest.fixture(scope="module")
def z2(z2_bundle):
    p, m, s = z2_bundle
    k = certify_coverage(s, 0.05)
    return p, m, s, k, k.q_min + 1.0


@pytest.fixture(scope="module")
def heis(heisenberg_bundle):
    p, m, s = heisenberg_bundle
    k = certify_coverage(s, 0.01)
    return p, m, s, k, k.q_min + 1.0


def rotated_cells(cells):
    """The cells as a sorted list, each rotated to start at its smallest dart."""
    out = []
    for cell in cells:
        i = cell.index(min(cell))
        out.append(tuple(cell[i:] + cell[:i]))
    return sorted(out)


@pytest.mark.parametrize("name", ["z2", "heisenberg"])
def test_corner_import_matches_rebased_mirror(name):
    # every relator variant, imported one after another into one builder, as
    # the corners of a star are: the same darts, walk and cells up to rotation
    p, m, s = _load_bundle(name)
    variants = sorted(p.variant_set)
    assert any(p.variant_origin[w][1] == -1 for w in variants)
    for e in s.entries:
        got, want = DiagramBuilder(p, m), DiagramBuilder(p, m)
        for word in variants:
            first = len(got.cells)
            walk = _import_corner(got, e, word)
            assert walk == want.import_diagram(corner_instance(e, word))
            assert tuple(got.letter[x] for x in walk) == hat_word(e, word)
            assert rotated_cells(got.cells[first:]) == rotated_cells(want.cells[first:])
        assert (got.letter, got.twin) == (want.letter, want.twin)
        assert rotated_cells(got.cells) == rotated_cells(want.cells)


@pytest.mark.parametrize("t", [1, -1])
def test_z2_towers_match_reference(z2, t):
    p, m, s, k, q = z2
    entry = next(e for e in s.entries if e.t == t)
    for depth in range(13):
        got, want = tower_diagram(entry, R, depth, m.zero), reference_tower(entry, R, depth, m.zero)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.labels == want.labels


def test_heisenberg_central_towers_match_reference(heis):
    p, m, s, k, q = heis
    towers = 0
    for e in s.entries:
        for word in sorted(p.variant_set):
            if hat_word(e, word) != word:
                continue
            for depth in range(5):
                got = tower_diagram(e, word, depth, (1, -2))
                want = reference_tower(e, word, depth, (1, -2))
                assert got.to_json_dict() == want.to_json_dict()
                assert got.labels == want.labels
                towers += 1
    # the rotations of [x, z] and [y, z] and their inverses, four entries
    assert towers == 4 * 8 * 5


@pytest.mark.parametrize("t", [1, -1])
def test_pushed_star_matches_reference_on_z2_towers(z2, t):
    p, m, s, k, q = z2
    entry = next(e for e in s.entries if e.t == t)
    steps = sum(
        push_against_reference(tower_diagram(entry, R, depth, m.zero), s, k, q)
        for depth in range(1, 13)
    )
    assert steps == (395 if t == 1 else 200)


def test_pushed_star_matches_reference_on_w1_loops(heis):
    # ROADMAP workload W1: 20 wasteful loops sampled with seed 6; the first
    # five that need pushing
    p, m, s, k, q = heis
    diagrams = [wasteful_diagram(s, c, q) for c in sample_corridor_certificates(p, m, q, 12, 20, 6)]
    tall = [d for d in diagrams if d.metrics()["norm"] > q][:5]
    assert [push_against_reference(d, s, k, q) for d in tall] == [25, 25, 75, 25, 102]
