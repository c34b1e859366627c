"""Compiled replacement templates against the per-step builder glue.

``reference_glue`` is ``DartStore.glue`` as it was before templates: it
takes the DiagramBuilder that ``_pushed_star`` assembled and resolves,
numbers, threads and labels the whole replacement on every step.  The
differential tests push the same diagrams with templates and compare, at
every step, each field of the Surgery, the canonical signatures of the two
stores and the PushStep; the reference's final diagram goes through the
full validator and must be the run's.
"""

import dataclasses
import json
from collections import Counter

import pytest
from conftest import _load_bundle, build_z3_bundle

from vkpush import pusher
from vkpush.abelianization import AbelianizationMap, Character, Vector, norm, vec_add
from vkpush.diagram import Diagram, DiagramBuilder, canonical_signature
from vkpush.oracle import sample_corridor_certificates, tower_diagram, wasteful_diagram
from vkpush.presentation import Presentation, ValidationError, word_to_text
from vkpush.pusher import PushError, PushStep, _push_max, _pushed_star, push_to_corridor
from vkpush.scheme import certify_coverage, choose_entry
from vkpush.store import DartStore, Surgery, Template

R = (1, 2, -1, -2)


def reference_glue(store, star, bld, walk):
    """The builder-based DartStore.glue: resolves and checks the whole replacement per step."""
    p = store.presentation
    walk_word = tuple(bld.letter[x] for x in walk)
    if walk_word != star.link_word:
        raise ValidationError(
            "replacement boundary "
            f"{word_to_text(walk_word, p)!r} does not match the link "
            f"{word_to_text(star.link_word, p)!r}"
        )
    origin, twin, letter = store.origin, store.twin, store.letter
    v = star.center
    gone = set(star.darts)
    gone.update(twin[x] for x in star.darts)
    gone.update(star.link_darts)

    # the builder's classes under fresh ids, numbered before the link joins
    rep = bld.rep
    classes = {rep(x) for cell in bld.cells for x in cell}
    classes.update(rep(x) for x in walk)
    classes.update([rep(bld.twin[x]) for x in classes])
    # the store's dart fields are lists with dead slots: read the live darts
    # off its rotations
    live = [x for rot in store.rotations.values() for x in rot]
    start = max(live) + 1
    number = {r: start + i for i, r in enumerate(sorted(classes))}
    # a host dart x joins the builder as -x, clear of the builder's ids
    hosts = {y for x in star.link_darts for y in (x, twin[x])}
    for x in hosts:
        bld.add_dart(-x, letter[x], -twin[x])
    for a, x in zip(walk, star.link_darts):
        bld.alias(a, -x)
    glued = {x: number[rep(-x)] for x in hosts}

    # each surviving class: the face predecessor of its one use
    variant_set = p.variant_set
    pred: dict[int, int] = {}
    uses = Counter()
    for cell in bld.cells:
        w = tuple(bld.letter[x] for x in cell)
        if w not in variant_set:
            raise ValidationError(
                f"interior face {word_to_text(w, p)!r} is not a relator variant"
            )
        ids = [number[rep(x)] for x in cell]
        for j, r in enumerate(ids):
            pred[r] = ids[j - 1]
        uses.update(ids)

    def host_pred(x: int) -> int:
        rot = store.rotations[origin[x]]
        y = twin[rot[(rot.index(x) + 1) % len(rot)]]
        return glued.get(y, y)

    for x in hosts - gone:
        pred[glued[x]] = host_pred(x)
        uses[glued[x]] += 1
    for r, count in uses.items():
        if count > 1:
            raise ValidationError(f"dart {r} is used {count} times across faces")
    root_of = {number[r]: r for r in classes}
    tw = {r: number[rep(bld.twin[root_of[r]])] for r in pred}

    def twin_of(x: int) -> int:
        return tw[x] if x in tw else twin[x]

    for r in pred:
        if tw[r] not in pred:
            raise ValidationError(f"dart {r} has a twin outside every face")

    def sigma(e: int) -> int:
        # the next dart around the vertex: the twin of the face predecessor
        return twin_of(pred[e] if e in pred else host_pred(e))

    touched = {origin[x] for x in gone} | {origin[x] for x in hosts}
    touched.discard(v)
    threaded = set(pred)
    for w in touched:
        threaded.update(x for x in store.rotations[w] if x not in gone and x not in hosts)

    cycles: list[list[int]] = []
    placed: set[int] = set()
    for e0 in sorted(threaded):
        if e0 in placed:
            continue
        cyc = [e0]
        placed.add(e0)
        e = sigma(e0)
        while e != e0:
            if e not in threaded or e in placed:
                raise ValidationError("rotation system does not define a permutation of faces")
            placed.add(e)
            cyc.append(e)
            e = sigma(e)
        cycles.append(cyc)

    # vertex ids as DiagramBuilder.build gives them from host-origin hints
    hints: dict[int, set[int]] = {}
    for x in hosts:
        hints.setdefault(glued[x], set()).add(origin[x])
    fresh_id = max(max(store.rotations) + 1, 0)
    rotations: dict[int, tuple[int, ...]] = {}
    new_origin: dict[int, int] = {}
    fresh: dict[int, tuple[int, ...]] = {}
    labels: dict[int, Vector] = {}
    for cyc in cycles:
        wanted: set[int] = set()
        for e in cyc:
            wanted.update(hints.get(e, ()) if e in pred else (origin[e],))
        if len(wanted) == 1 and not wanted & rotations.keys():
            (vid,) = wanted
        else:
            vid = fresh_id
            fresh_id += 1
            fresh[vid] = tuple(sorted(wanted))
            if wanted:
                labels[vid] = store.labels[min(wanted)]
        rotations[vid] = tuple(cyc)
        for e in cyc:
            new_origin[e] = vid

    def label_at(x: int) -> Vector:
        vid = new_origin.get(x)
        if vid is None:
            return store.labels[origin[x]]
        return labels[vid] if vid in labels else store.labels[vid]

    def letter_of(x: int) -> int:
        return bld.letter[root_of[x]] if x in root_of else letter[x]

    # the interior vertices, labelled outward from the link
    column = store.amap.column
    unlabelled = {vid for vid, parts in fresh.items() if not parts}
    queue = [vid for vid in rotations if vid not in unlabelled]
    while queue and unlabelled:
        w = queue.pop()
        for e in rotations[w]:
            u = new_origin.get(twin_of(e))
            if u in unlabelled:
                unlabelled.discard(u)
                labels[u] = vec_add(label_at(e), column(letter_of(e)))
                queue.append(u)
    if unlabelled:
        raise ValidationError(
            f"replacement vertex {min(unlabelled)} cannot be reached from the link"
        )

    for e in threaded:
        if label_at(twin_of(e)) != vec_add(label_at(e), column(letter_of(e))):
            raise ValidationError(f"edge {e} violates label consistency")

    live_darts = len(live) - len(gone | hosts) + len(pred)
    nv = len(store.rotations) - len(touched) - 1 + len(rotations)
    ne = live_darts // 2
    area = store.area + len(bld.cells) - len(star.darts)
    if nv - ne + area + 1 != 2:
        raise ValidationError(f"Euler count V-E+F = {nv}-{ne}+{area + 1} != 2; not a sphere map")

    return Surgery(
        darts={r: (letter_of(r), tw[r]) for r in sorted(pred)},
        rotations=rotations,
        dropped_vertices=(v, *sorted(touched - rotations.keys())),
        fresh=fresh,
        labels=labels,
        renamed={x: glued[x] for x in hosts - gone},
        dropped_darts=frozenset(gone | hosts),
        area=area,
    )


def step_kind(store, star):
    """Whether the link folds an edge (walks it both ways) and whether it is pinched."""
    link = set(star.link_darts)
    fold = any(store.twin[x] in link for x in link)
    origins = [store.origin[x] for x in star.link_darts]
    return fold, len(set(origins)) < len(origins)


def push_against_reference(d, s, k, q, seen: Counter) -> int:
    """Push d with templates and, beside it, with reference_glue; compare every step.

    Both stores hold every array canonical_signature reads.  The reference's
    final diagram goes through the full validator and must be the run's.
    """
    store, ref = DartStore(d), DartStore(d)
    choices = {}
    steps = []
    while norm(store.labels[store.max_norm_vertex()]) > q:
        g = ref.max_norm_vertex()
        star = ref.star(g)
        label = ref.labels[g]
        entry, _ = choose_entry(s, Character.from_vector([-x for x in label]))
        words = star.words
        seen["hit" if words in entry.templates else "miss"] += 1
        fold, pinch = step_kind(ref, star)
        seen["fold"] += fold
        seen["pinch"] += pinch
        want = reference_glue(ref, star, *_pushed_star(entry, words))

        step, got = _push_max(store, s, k, choices)
        for f in dataclasses.fields(Surgery):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        c, area, labels = max(map(norm, ref.labels.values())), ref.area, Counter(ref.labels.values())
        ref.apply(want)
        assert canonical_signature(store) == canonical_signature(ref)
        added = Counter(ref.labels.values()) - labels
        assert step == PushStep(
            pushed_vertex_label=label,
            c=c,
            entry_used=s.entries.index(entry),
            degree=len(star.darts),
            area_before=area,
            area_after=ref.area,
            new_vertex_max_norm=max(
                [norm(want.labels[v]) for v, parts in want.fresh.items() if not parts]
                + [norm(lbl) for lbl in added.elements()],
                default=0.0,
            ),
        )
        steps.append(step)
    final, trace = push_to_corridor(d, s, k, q)
    assert trace.steps == steps
    assert final.to_json_dict() == ref.diagram().to_json_dict()
    return len(steps)


@pytest.fixture(scope="module")
def z2():
    # bundles of their own, so the first steps miss the template cache
    p, m, s = _load_bundle("z2")
    k = certify_coverage(s, 0.05)
    return p, m, s, k, k.q_min + 1.0


@pytest.fixture(scope="module")
def heis():
    p, m, s = _load_bundle("heisenberg")
    k = certify_coverage(s, 0.01)
    return p, m, s, k, k.q_min + 1.0


def test_templates_match_reference_on_w1_loops(heis):
    # ROADMAP workload W1: 20 wasteful loops sampled with seed 6
    p, m, s, k, q = heis
    seen = Counter()
    diagrams = [wasteful_diagram(s, c, q) for c in sample_corridor_certificates(p, m, q, 12, 20, 6)]
    steps = sum(push_against_reference(d, s, k, q, seen) for d in diagrams)
    assert steps == 854
    assert seen["miss"] == 56 and seen["hit"] == steps - 56
    assert seen["fold"] > 0 and seen["pinch"] > 0
    # one gluing per template and link shape
    assert sum(len(t.gluings) for e in s.entries for t in e.templates.values()) == 75


@pytest.mark.parametrize("t", [1, -1])
def test_templates_match_reference_on_z2_towers(z2, t):
    p, m, s, k, q = z2
    entry = next(e for e in s.entries if e.t == t)
    seen = Counter()
    steps = sum(
        push_against_reference(tower_diagram(entry, R, depth, m.zero), s, k, q, seen)
        for depth in range(1, 13)
    )
    assert steps == (395 if t == 1 else 200)
    assert seen["miss"] > 0 and seen["hit"] > 0


def test_templates_match_reference_on_rank_3_loops():
    # a bundle of its own, so the first steps miss the template cache; the
    # rank-3 loops 0 and 2 of the twenty seed-6 loops at grid 0.05
    p, m, s = build_z3_bundle()
    k = certify_coverage(s, 0.05)
    q = k.q_min + 1.0
    certs = sample_corridor_certificates(p, m, q, 12, 20, 6)
    seen = Counter()
    steps = [push_against_reference(wasteful_diagram(s, certs[i], q), s, k, q, seen) for i in (0, 2)]
    assert steps == [45, 85]
    assert seen["miss"] == 44 and seen["hit"] == 86
    assert seen["fold"] > 0 and seen["pinch"] > 0


def test_templates_match_reference_from_unsorted_rotations(z2):
    p, m, s, k, q = z2
    entry = next(e for e in s.entries if e.t == 1)
    obj = tower_diagram(entry, R, 7, m.zero).to_json_dict()
    for v, rot in obj["rotations"].items():
        obj["rotations"][v] = rot[1:] + rot[:1]
    assert any(rot[0] != min(rot) for rot in obj["rotations"].values())
    d = Diagram.from_json_dict(json.loads(json.dumps(obj)), p, m)
    assert all(rot[0] == min(rot) for rot in d.rotations.values())
    assert push_against_reference(d, s, k, q, Counter()) == 6


# -- checks made once per template -------------------------------------------


def test_compile_rejects_a_cell_that_is_not_a_relator_variant(z2):
    p, m, s, k, q = z2
    entry = s.entries[0]
    store = DartStore(tower_diagram(entry, R, 6, m.zero))
    star = store.star(store.max_norm_vertex())
    bld, walk = _pushed_star(entry, star.words)
    bld.add_cell(bld.path((1, 1)))
    with pytest.raises(ValidationError, match="'a a' is not a relator variant"):
        Template.compile(bld, walk)


def test_compile_rejects_interior_labels_that_disagree():
    # four triangles a a a around one vertex: the map does not kill a^3, so
    # the centre is 1 below the first corner one way and 2 above the next
    p = Presentation.from_texts(["a"], ["a a a"])
    m = AbelianizationMap.from_json_dict({"rank": 1, "columns": {"a": [1]}}, p)
    bld = DiagramBuilder(p, m)
    spokes = [bld.new_edge(x)[0] for x in (1, -1, 1, -1)]
    rim = [bld.new_edge(x)[0] for x in (1, -1, 1, -1)]
    for i in range(4):
        bld.add_cell([spokes[i], rim[i], bld.twin[spokes[(i + 1) % 4]]])
    with pytest.raises(ValidationError, match="inconsistent labels"):
        Template.compile(bld, rim)


def test_a_template_that_fails_raises_in_the_run_and_is_never_cached(monkeypatch):
    p, m, s = _load_bundle("z2")
    k = certify_coverage(s, 0.05)
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, R, 6, m.zero)
    built = []
    pushed_star = pusher._pushed_star

    def with_a_stray_cell(e, words):
        bld, walk = pushed_star(e, words)
        bld.add_cell(bld.path((1, 1)))
        built.append(words)
        return bld, walk

    monkeypatch.setattr(pusher, "_pushed_star", with_a_stray_cell)
    for attempt in (1, 2):
        with pytest.raises(PushError, match="star replacement failed: .*'a a' is not a relator variant") as info:
            push_to_corridor(d, s, k, 5.0)
        assert info.value.trace is not None and info.value.trace.steps == []
        assert len(built) == attempt
        assert all(not e.templates for e in s.entries)
