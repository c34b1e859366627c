"""The in-place splice of DartStore against the whole-diagram reference.

``reference_splice`` re-adds every face to a DiagramBuilder, glues the
replacement along the link and rebuilds the whole diagram through
Diagram.build.  ``reference_step`` is one push step on top of it, audited
over whole label multisets.  The differential tests push the same diagrams
both ways and ask for the same diagram, ids included, and the same PushStep
after every step.
"""

import json
from collections import Counter

import pytest
from conftest import adopt, dart_dicts, max_norm_vertex

from vkpush.abelianization import Character, norm
from vkpush.diagram import Diagram, DiagramBuilder, canonical_signature
from vkpush.oracle import sample_corridor_certificates, tower_diagram, wasteful_diagram
from vkpush.presentation import ValidationError
from vkpush.pusher import PushStep, _push_max, _pushed_star, push_to_corridor
from vkpush.scheme import certify_coverage, choose_entry
from vkpush.store import DartStore, StarView

R = (1, 2, -1, -2)


def reference_star(d, v):
    """DartStore.star read off Diagram.faces, with the face index of each corner."""
    if v in d.boundary_vertices:
        raise ValidationError(f"vertex {v} lies on the boundary")
    spokes = d.rotations[v]
    face_of = {x: j for j, face in enumerate(d.faces) for x in face}
    words, link, faces = [], [], []
    for i, out in enumerate(spokes):
        fi = face_of[out]
        assert fi not in faces
        faces.append(fi)
        face = d.faces[fi]
        shift = face.index(out)
        rotated = face[shift:] + face[:shift]
        assert rotated[-1] == d.twin[spokes[(i + 1) % len(spokes)]]
        words.append(tuple(d.letter[x] for x in rotated))
        link.extend(rotated[1:-1])
    link = tuple(link)
    star = StarView(v, tuple(spokes), tuple(words), link, tuple(d.letter[x] for x in link))
    return star, set(faces)


def reference_splice(d, v, replacement):
    """Replace the closed star of v, rebuilding the whole diagram."""
    star, removed = reference_star(d, v)
    assert replacement.boundary_word == star.link_word
    assert replacement.labels[replacement.base] == d.labels[d.head(star.darts[0])]
    bld = DiagramBuilder(d.presentation, d.amap)
    adopt(bld, d)
    for i, face in enumerate(d.faces):
        if i != 0 and i not in removed:
            bld.add_cell(face)
    walk = bld.import_diagram(replacement)
    # a replacement whose boundary walk is pinched (one edge used twice)
    # folds the two host edges it glues onto; the induced merge of
    # same-label link vertices is a fold product and gets a fresh id
    for rep_dart, link_dart in zip(walk, star.link_darts):
        bld.alias(rep_dart, link_dart)
    return bld.build(d.boundary_walk, d.base_label, vertex_hints=dart_dicts(d)[0])


def reference_step(d, s, k):
    """One push step through reference_splice; returns the new diagram and its PushStep."""
    g = max_norm_vertex(d)
    label_g = d.labels[g]
    star, _ = reference_star(d, g)
    entry, _ = choose_entry(s, Character.from_vector([-x for x in label_g]))
    bld, walk = _pushed_star(entry, star.words)
    replacement = bld.build(walk, d.labels[d.head(star.darts[0])])
    nd = reference_splice(d, g, replacement)
    added = Counter(nd.labels.values()) - Counter(d.labels.values())
    glued = {replacement.origin[x] for x in replacement.boundary_walk}
    new_max = max(
        [norm(lbl) for v, lbl in replacement.labels.items() if v not in glued]
        + [norm(lbl) for lbl in added.elements()],
        default=0.0,
    )
    step = PushStep(
        pushed_vertex_label=label_g,
        c=d.metrics()["norm"],
        entry_used=next(i for i, x in enumerate(s.entries) if x is entry),
        degree=len(star.darts),
        area_before=d.area,
        area_after=nd.area,
        new_vertex_max_norm=new_max,
    )
    assert DartStore(d).star(g) == star
    return nd, step


def assert_same(a: Diagram, b: Diagram):
    assert dart_dicts(a) == dart_dicts(b)
    assert a.rotations == b.rotations
    assert a.labels == b.labels
    assert a.boundary_walk == b.boundary_walk
    assert (a.base, a.boundary_face_dart) == (b.base, b.boundary_face_dart)
    assert canonical_signature(a) == canonical_signature(b)


def push_both_ways(d, s, k, q):
    """Push d with one DartStore and with the reference, comparing every step."""
    store = DartStore(d)
    choices = {}
    ref = d
    steps = []
    while ref.metrics()["norm"] > q:
        nxt, want = reference_step(ref, s, k)
        # the store a run keeps
        got, _ = _push_max(store, s, k, choices)
        assert got == want
        assert_same(store.diagram(), nxt)
        steps.append(want)
        ref = nxt
    final, trace = push_to_corridor(d, s, k, q)
    assert trace.steps == steps
    if steps:
        assert_same(final, ref)
    return len(steps)


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


@pytest.mark.parametrize("t", [1, -1])
def test_local_splice_matches_reference_on_z2_towers(z2, t):
    p, m, s, k, q = z2
    entry = next(e for e in s.entries if e.t == t)
    steps = 0
    for depth in range(1, 10):
        steps += push_both_ways(tower_diagram(entry, R, depth, m.zero), s, k, q)
    assert steps == (48 if t == 1 else 22)


def test_local_splice_matches_reference_on_w1_loops(heis):
    # ROADMAP workload W1: 20 wasteful loops sampled with seed 6; the first
    # five that need pushing, whose links pinch and fold at nearly every step
    p, m, s, k, q = heis
    diagrams = [wasteful_diagram(s, c, q) for c in sample_corridor_certificates(p, m, q, 12, 20, 6)]
    tall = [d for d in diagrams if d.metrics()["norm"] > q][:5]
    assert [push_both_ways(d, s, k, q) for d in tall] == [25, 25, 75, 25, 102]


def test_local_splice_matches_reference_on_a_rank_3_loop(z3_bundle):
    # three corridor directions: loop 0 of the twenty seed-6 rank-3 loops
    p, m, s = z3_bundle
    k = certify_coverage(s, 0.05)
    q = k.q_min + 1.0
    cert = sample_corridor_certificates(p, m, q, 12, 20, 6)[0]
    assert push_both_ways(wasteful_diagram(s, cert, q), s, k, q) == 45


def test_local_splice_matches_reference_from_unsorted_rotations(z2):
    p, m, s, k, q = z2
    entry = next(e for e in s.entries if e.t == 1)
    obj = tower_diagram(entry, R, 7, m.zero).to_json_dict()
    for v, rot in obj["rotations"].items():
        obj["rotations"][v] = rot[1:] + rot[:1]
    assert any(rot[0] != min(rot) for rot in obj["rotations"].values())
    d = Diagram.from_json_dict(json.loads(json.dumps(obj)), p, m)
    assert all(rot[0] == min(rot) for rot in d.rotations.values())
    assert push_both_ways(d, s, k, q) == 6


def test_store_apply_touches_only_the_star(z2):
    p, m, s, k, q = z2
    entry = next(e for e in s.entries if e.t == 1)
    store = DartStore(tower_diagram(entry, R, 11, m.zero))
    choices = {}
    for _ in range(30):
        _push_max(store, s, k, choices)
    before = dict(store.rotations)
    _, cut = _push_max(store, s, k, choices)
    changed = {v for v, rot in store.rotations.items() if before.get(v) != rot}
    assert changed == set(cut.rotations)
    assert set(before) - set(store.rotations) == set(cut.dropped_vertices)
    assert len(cut.rotations) < len(store.rotations) / 10
