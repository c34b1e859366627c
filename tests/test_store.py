"""The push store's flat dart lists, and the validator against its old forms.

``DartStore`` keeps origin, letter and twin as lists indexed by dart id,
the lists the final diagram takes over, and nothing else per dart; a dropped
dart leaves a dead slot whose letter is 0, the mark of no dart that
``Diagram.build`` reads.  The poisoned runs check that letter and
overwrite the rest of every dead slot with None after each step, so a read
of one fails loudly, and must push exactly as an unpoisoned run does.

``Diagram.build`` validates lists.  ``dict_build`` is the validator as it
was on dicts keyed by dart id, keeping the dicts it is handed; it walks the
darts in dict order and sorts them for the faces.  ``reference_build`` is
the validator as it was before that: it copies the dicts, and holds a set
of darts, a map from dart to rotation, each dart's rotation position and
each dart's face.  The differential tests hand the three validators the
same diagrams, valid and mutated, and ask for the same verdict, the same
fields and the same message.
"""

import re
import tracemalloc
from itertools import chain, repeat

import pytest
from conftest import concatenated_loops, dart_dicts, max_norm_vertex
from hypothesis import event, given, note, settings, strategies as st

from vkpush import pusher
from vkpush.abelianization import Character, norm
from vkpush.diagram import Diagram, canonical_signature, check_relator_faces, walk_labels
from vkpush.oracle import sample_corridor_certificates, tower_diagram, wasteful_diagram
from vkpush.presentation import ValidationError
from vkpush.pusher import _push_max, push_to_corridor
from vkpush.scheme import certify_coverage, choose_entry
from vkpush.store import DartStore, Surgery

R = (1, 2, -1, -2)


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


def live_darts(store: DartStore) -> set[int]:
    return {x for rot in store.rotations.values() for x in rot}


def push_poisoned(d: Diagram, s, k, q) -> int:
    """Push d, poisoning every dead slot after each step; compare with a plain run.

    After each step the store must hold V + F - 2 edges, as a sphere map
    does, and the labels a walk from the base vertex gives, which glue does
    not check at the link.  A dead slot's letter must be 0; its origin
    and twin are set to None.
    """
    store, choices, steps = DartStore(d), {}, []
    while norm(store.labels[store.max_norm_vertex()]) > q:
        step, _ = _push_max(store, s, k, choices, len(steps))
        steps.append(step)
        live = live_darts(store)
        assert 2 * (len(store.rotations) + store.area - 1) == len(live)
        base = store.origin[store.boundary_face_dart]
        args = store.amap, store.origin, store.letter, store.twin, store.rotations, base, store.base_label
        assert store.labels == walk_labels(*args)
        for field in (store.origin, store.letter, store.twin):
            assert len(field) == max(live) + 1
        for x in range(len(store.letter)):
            if x not in live:
                assert store.letter[x] == 0
                store.origin[x] = store.twin[x] = None
    final, trace = push_to_corridor(d, s, k, q)
    assert trace.steps == steps
    assert canonical_signature(store) == canonical_signature(final)
    assert store.diagram().to_json_dict() == final.to_json_dict()
    return len(steps)


def test_dead_slots_are_never_read(z2, heis, z3_bundle):
    p, m, s, k, q = heis
    # ROADMAP workload W1: 20 wasteful loops sampled with seed 6
    certs = sample_corridor_certificates(p, m, q, 12, 20, 6)
    assert sum(push_poisoned(wasteful_diagram(s, c, q), s, k, q) for c in certs) == 854
    p, m, s, k, q = z2
    towers = [tower_diagram(e, R, 9, m.zero) for e in s.entries]
    assert sorted(push_poisoned(d, s, k, q) for d in towers) == [12, 25]
    p, m, s = z3_bundle
    k = certify_coverage(s, 0.05)
    q = k.q_min + 1.0
    cert = sample_corridor_certificates(p, m, q, 12, 20, 6)[0]
    assert push_poisoned(wasteful_diagram(s, cert, q), s, k, q) == 45


def test_a_step_that_drops_the_top_vertex_and_makes_none_keeps_the_top_exact(z2):
    # no pushed run has made such a step: every step made a new vertex
    p, m, s, k, q = z2
    store = DartStore(tower_diagram(s.entries[0], R, 3, m.zero))
    top = store._top_vertex
    assert top == max(store.rotations)
    x = store.rotations[min(store.rotations)][0]
    cut = Surgery(
        letter=(),
        twin=(),
        rotations={},
        dropped_vertices=(top,),
        fresh={},
        labels={},
        renamed={},
        dropped_darts=frozenset({x}),
        area=store.area,
    )
    store.apply(cut)
    assert top not in store.rotations
    assert store._top_vertex == max(store.rotations) < top


def test_final_build_stays_under_100_bytes_a_dart(z2):
    # tracemalloc peak of the final store.diagram() alone, per live dart,
    # Python 3.11.7: 371 B/dart (11.38 MB for 30,640 darts) when the
    # validator copied the store's dicts and held a dart set, a seen map,
    # rotation positions and a face index; 225 B/dart with flat store lists
    # and a validator that kept the fresh dicts it was handed and walked
    # faces on one predecessor map; 217 B/dart (6.66 MB) with the label walk
    # read from a step table; 131 B/dart (4.00 MB) with a Diagram on lists,
    # handed copies of the store's lists of 73,839 slots; 62 B/dart (1.91 MB)
    # with the store's own lists handed over
    p, m, s, k, q = z2
    store, choices = DartStore(wasteful_diagram(s, concatenated_loops(p, m, q, 40), q)), {}
    while norm(store.labels[store.max_norm_vertex()]) > q:
        _push_max(store, s, k, choices)
    tracemalloc.start()
    try:
        final = store.diagram()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(final.darts) == 30640
    assert peak / len(final.darts) < 100


def test_the_final_diagram_takes_over_the_store(z2):
    p, m, s, k, q = z2
    store = DartStore(tower_diagram(s.entries[0], R, 6, m.zero))
    while norm(store.labels[store.max_norm_vertex()]) > q:
        _push_max(store, s, k, {})
    fields = store.origin, store.letter, store.twin, store.rotations
    final = store.diagram()
    assert all(a is b for a, b in zip((final.origin, final.letter, final.twin, final.rotations), fields))


def test_the_final_build_drops_the_heap_and_a_later_query_makes_it_again(z2):
    p, m, s, k, q = z2
    store = DartStore(tower_diagram(s.entries[0], R, 6, m.zero))
    _push_max(store, s, k, {})
    for _ in range(3):
        final = store.diagram()
        assert store._heap == []
        # a step glued without a query between: apply leaves the heap empty
        g = max_norm_vertex(final)
        entry, _ = choose_entry(s, Character.from_vector([-x for x in store.labels[g]]))
        star = store.star(g)
        store.apply(store.glue(star, pusher._template(entry, star.words)))
        assert store._heap == []
        got = store.max_norm_vertex()
        assert len(store._heap) == len(store.labels)
        assert got == max_norm_vertex(store.diagram())


def test_the_store_keeps_per_dart_only_the_lists_the_final_diagram_takes_over(z2):
    # a dart's place in its rotation is read off the rotation, not kept
    p, m, s, k, q = z2
    store = DartStore(tower_diagram(s.entries[0], R, 6, m.zero))
    for step in range(3):
        slots = len(store.letter)
        per_dart = sorted(name for name, value in vars(store).items() if isinstance(value, list) and len(value) == slots)
        assert per_dart == ["letter", "origin", "twin"]
        _push_max(store, s, k, {}, step)


# -- the validator against its old forms ---------------------------------------


def dict_build(
    presentation, amap, *, origin, letter, twin, rotations, base, base_label, boundary_face_dart
):
    """Diagram.build on dicts keyed by dart id: the same checks, keeping the dicts it is handed."""
    if len(amap.columns) != len(presentation.generators):
        raise ValidationError("abelianization map does not match the presentation")
    base_label = tuple(base_label)
    if len(base_label) != amap.rank or not all(isinstance(c, int) for c in base_label):
        raise ValidationError(f"base label {base_label!r} is not an integer vector of rank {amap.rank}")

    darts = origin.keys()
    if letter.keys() != darts or twin.keys() != darts:
        raise ValidationError("origin, letter and twin must cover the same darts")
    for d in darts:
        if not isinstance(d, int) or d <= 0:
            raise ValidationError(f"dart id {d!r} must be a positive integer")
    k = len(presentation.generators)
    for d in darts:
        t = twin[d]
        if t not in darts or t == d or twin[t] != d:
            raise ValidationError(f"twin map is not a fixed-point-free involution at dart {d}")
        x = letter[d]
        if not isinstance(x, int) or x == 0 or abs(x) > k:
            raise ValidationError(f"dart {d} carries letter {x!r} outside the alphabet")
        if letter[t] != -x:
            raise ValidationError(f"darts {d} and {t} are twins but not inversely labelled")

    if base not in rotations:
        raise ValidationError(f"base vertex {base} is not a vertex of the diagram")
    prev: dict[int, int] = {}
    for v, rot in rotations.items():
        for d in rot:
            if origin.get(d) != v:
                if d not in darts:
                    raise ValidationError(f"rotation of vertex {v} lists unknown dart {d}")
                raise ValidationError(f"dart {d} has origin {origin[d]} but sits in the rotation of {v}")
        size = len(prev)
        prev.update(zip(rot, rot[-1:] + rot[:-1]))
        if len(prev) - size < len(rot):
            d = next(d for i, d in enumerate(rot) if d in rot[:i])
            raise ValidationError(f"dart {d} appears in two rotations")
        rot = tuple(rot)
        if rot and rot[0] != min(rot):
            i = rot.index(min(rot))
            rot = rot[i:] + rot[:i]
        rotations[v] = rot
    if len(prev) != len(darts):
        missing = next(d for d in darts if d not in prev)
        raise ValidationError(f"dart {missing} appears in no rotation")

    if not darts:
        if boundary_face_dart is not None:
            raise ValidationError("a diagram without darts cannot name a boundary face dart")
        if set(rotations) != {base}:
            raise ValidationError("a diagram without darts must consist of the base vertex alone")
        faces: list[tuple[int, ...]] = [()]
    elif boundary_face_dart is None or boundary_face_dart not in darts:
        raise ValidationError("boundary_face_dart must name an existing dart")
    else:
        faces = []
        for d0 in chain((boundary_face_dart,), sorted(darts)):
            d = prev.pop(twin[d0], 0)
            if not d:
                continue
            orbit = [d0]
            while d != d0:
                orbit.append(d)
                d = prev.pop(twin[d], 0)
                if not d:
                    raise ValidationError("rotation system does not define a permutation of faces")
            faces.append(tuple(orbit))

    nv, ne, nf = len(rotations), len(darts) // 2, len(faces)
    if nv - ne + nf != 2:
        raise ValidationError(f"Euler count V-E+F = {nv}-{ne}+{nf} != 2; not a sphere map")
    if origin.get(boundary_face_dart, base) != base:
        raise ValidationError("the boundary face dart must start at the base vertex")

    check_relator_faces(presentation, map(tuple, map(map, repeat(letter.__getitem__), faces[1:])))
    labels = walk_labels(amap, origin, letter, twin, rotations, base, base_label)
    return Diagram(
        presentation=presentation, amap=amap, origin=origin, letter=letter, twin=twin,
        rotations=rotations, base=base, base_label=base_label, boundary_face_dart=boundary_face_dart,
        faces=tuple(faces), labels=labels,
    )


def reference_build(
    presentation, amap, *, origin, letter, twin, rotations, base, base_label, boundary_face_dart
):
    """Diagram.build before it kept its input: the same checks, over copies and dart-sized maps."""
    if len(amap.columns) != len(presentation.generators):
        raise ValidationError("abelianization map does not match the presentation")
    base_label = tuple(base_label)
    if len(base_label) != amap.rank or not all(isinstance(c, int) for c in base_label):
        raise ValidationError(f"base label {base_label!r} is not an integer vector of rank {amap.rank}")

    darts = set(origin)
    if set(letter) != darts or set(twin) != darts:
        raise ValidationError("origin, letter and twin must cover the same darts")
    for d in darts:
        if not isinstance(d, int) or d <= 0:
            raise ValidationError(f"dart id {d!r} must be a positive integer")
    k = len(presentation.generators)
    for d in darts:
        t = twin[d]
        if t not in darts or t == d or twin[t] != d:
            raise ValidationError(f"twin map is not a fixed-point-free involution at dart {d}")
        x = letter[d]
        if not isinstance(x, int) or x == 0 or abs(x) > k:
            raise ValidationError(f"dart {d} carries letter {x!r} outside the alphabet")
        if letter[t] != -x:
            raise ValidationError(f"darts {d} and {t} are twins but not inversely labelled")

    if base not in rotations:
        raise ValidationError(f"base vertex {base} is not a vertex of the diagram")
    seen: dict[int, int] = {}
    for v, rot in rotations.items():
        for d in rot:
            if d not in darts:
                raise ValidationError(f"rotation of vertex {v} lists unknown dart {d}")
            if d in seen:
                raise ValidationError(f"dart {d} appears in two rotations")
            seen[d] = v
            if origin[d] != v:
                raise ValidationError(f"dart {d} has origin {origin[d]} but sits in the rotation of {v}")
    if len(seen) != len(darts):
        missing = next(iter(darts - set(seen)))
        raise ValidationError(f"dart {missing} appears in no rotation")

    if not darts:
        if boundary_face_dart is not None:
            raise ValidationError("a diagram without darts cannot name a boundary face dart")
        if set(rotations) != {base}:
            raise ValidationError("a diagram without darts must consist of the base vertex alone")
        return Diagram(
            presentation=presentation, amap=amap, origin={}, letter={}, twin={}, rotations={base: ()},
            base=base, base_label=base_label, boundary_face_dart=None, faces=((),),
            labels={base: base_label},
        )

    if boundary_face_dart is None or boundary_face_dart not in darts:
        raise ValidationError("boundary_face_dart must name an existing dart")

    rot_lists = {v: tuple(rot) for v, rot in rotations.items()}
    for v, rot in rot_lists.items():
        if rot and rot[0] != min(rot):
            i = rot.index(min(rot))
            rot_lists[v] = rot[i:] + rot[:i]
    pos = {d: i for v, rot in rot_lists.items() for i, d in enumerate(rot)}

    def phi(d: int) -> int:
        t = twin[d]
        rot = rot_lists[origin[t]]
        return rot[(pos[t] - 1) % len(rot)]

    face_of: dict[int, int] = {}
    faces: list[tuple[int, ...]] = []
    # the boundary face first, from its dart
    for d0 in (boundary_face_dart, *sorted(darts)):
        if d0 in face_of:
            continue
        orbit = [d0]
        face_of[d0] = len(faces)
        d = phi(d0)
        while d != d0:
            if d in face_of:
                raise ValidationError("rotation system does not define a permutation of faces")
            face_of[d] = len(faces)
            orbit.append(d)
            d = phi(d)
        faces.append(tuple(orbit))

    nv, ne, nf = len(rotations), len(darts) // 2, len(faces)
    if nv - ne + nf != 2:
        raise ValidationError(f"Euler count V-E+F = {nv}-{ne}+{nf} != 2; not a sphere map")

    if origin[boundary_face_dart] != base:
        raise ValidationError("the boundary face dart must start at the base vertex")

    check_relator_faces(presentation, (tuple(letter[d] for d in face) for face in faces[1:]))
    labels = walk_labels(amap, origin, letter, twin, rot_lists, base, base_label)
    return Diagram(
        presentation=presentation, amap=amap, origin=dict(origin), letter=dict(letter), twin=dict(twin),
        rotations=rot_lists, base=base, base_label=base_label, boundary_face_dart=boundary_face_dart,
        faces=tuple(faces), labels=labels,
    )


@pytest.fixture(scope="module")
def valid_diagrams(z2, heis, w1_runs):
    """Fixture fillings, a z2 tower and a pushed W1 final."""
    out = []
    for p, m, s, k, q in (z2, heis):
        out += [f for e in s.entries for f in e.fillings.values()]
    p, m, s, k, q = z2
    out.append(tower_diagram(s.entries[0], R, 4, m.zero))
    loops, finals = w1_runs
    out.append(finals[loops.index(max(loops, key=lambda d: d.metrics()["norm"]))])
    return out


def arrays(d: Diagram) -> dict:
    """Fresh copies of d's arrays, the dart fields as dicts in id order, and no deleted darts."""
    origin, letter, twin = dart_dicts(d)
    return dict(
        origin=origin,
        letter=letter,
        twin=twin,
        rotations={v: list(rot) for v, rot in d.rotations.items()},
        base=d.base,
        base_label=d.base_label,
        boundary_face_dart=d.boundary_face_dart,
        stale={},
    )


def lists(a: dict) -> dict:
    """The arrays with the dart fields as lists indexed by dart id, as Diagram.build takes them.

    A deleted dart keeps its origin and twin in its dead slot, as a store's
    dropped dart does.
    """
    stale = a.get("stale", {})
    size = max([*a["origin"], *stale], default=-1) + 1
    out = {**a, "rotations": dict(a["rotations"])}
    del out["stale"]
    for key in ("origin", "letter", "twin"):
        field = out[key] = [0] * size
        for x, value in a[key].items():
            field[x] = value
    for x, (o, t) in stale.items():
        out["origin"][x], out["twin"][x] = o, t
    return out


def mutate(a: dict, data, rank: int) -> str:
    """Break the arrays one way, drawn by hypothesis; returns the kind of mutation.

    A list marks a slot without a dart by letter 0, so a dart keeps a
    nonzero letter here, and "delete" takes a dart out of the dart fields,
    which is what letter 0 says; ``lists`` keeps its origin and twin.
    """
    origin, letter, twin, rotations = a["origin"], a["letter"], a["twin"], a["rotations"]
    darts, vertices = sorted(origin), sorted(rotations)
    dart = st.sampled_from(darts)
    kind = data.draw(st.sampled_from([
        "swap twins", "pair twins across", "drop", "duplicate", "move",
        "letter", "delete", "origin", "boundary face dart", "base",
    ]))
    if kind == "swap twins":
        x, y = data.draw(dart), data.draw(dart)
        twin[x], twin[y] = twin[y], twin[x]
    elif kind == "pair twins across":
        # x-tx and y-ty become x-ty and y-tx: still an involution, and still
        # inversely labelled, as y carries x's letter
        x = data.draw(dart)
        y = data.draw(st.sampled_from([y for y in darts if letter[y] == letter[x]]))
        tx, ty = twin[x], twin[y]
        twin[x], twin[ty], twin[y], twin[tx] = ty, x, tx, y
    elif kind in ("drop", "duplicate", "move"):
        x = data.draw(dart)
        if kind != "duplicate":
            rotations[origin[x]].remove(x)
        if kind != "drop":
            rot = rotations[data.draw(st.just(origin[x]) | st.sampled_from(vertices))]
            rot.insert(data.draw(st.integers(0, len(rot))), x)
    elif kind == "letter":
        letter[data.draw(dart)] = data.draw(st.sampled_from([x for x in range(-rank - 1, rank + 2) if x]))
    elif kind == "delete":
        x = data.draw(dart)
        a["stale"][x] = origin.pop(x), twin.pop(x)
        del letter[x]
    elif kind == "origin":
        origin[data.draw(dart)] = data.draw(st.sampled_from(vertices + [vertices[-1] + 1]))
    elif kind == "boundary face dart":
        a["boundary_face_dart"] = data.draw(st.sampled_from([None, 0, darts[-1] + 1] + darts))
    else:
        a["base"] = data.draw(st.sampled_from(vertices + [vertices[-1] + 1]))
    return kind


def twin_or_letter_fault(message: str, a: dict, rank: int) -> bool:
    """Whether a message of the validator's twin and letter loop names a real fault of a."""
    twin, letter = a["twin"], a["letter"]
    if m := re.fullmatch(r"twin map is not a fixed-point-free involution at dart (\d+)", message):
        d = int(m[1])
        return twin[d] == d or twin.get(twin[d]) != d
    if m := re.fullmatch(r"dart (\d+) carries letter (-?\d+) outside the alphabet", message):
        d, x = int(m[1]), int(m[2])
        return letter[d] == x and not 0 < abs(x) <= rank
    if m := re.fullmatch(r"darts (\d+) and (\d+) are twins but not inversely labelled", message):
        d, t = int(m[1]), int(m[2])
        return twin[d] == t and letter[t] != -letter[d]
    return False


def fresh(a: dict) -> dict:
    """The arrays with dicts of their own, as dict_build keeps what it is handed."""
    out = {**a, **{key: dict(a[key]) for key in ("origin", "letter", "twin", "rotations")}}
    del out["stale"]
    return out


def verdict(build, d: Diagram, a: dict):
    try:
        return build(d.presentation, d.amap, **a)
    except ValidationError as exc:
        return str(exc)


def assert_same(got: Diagram, was: Diagram) -> None:
    """A Diagram on lists against one on dicts: the same live darts and derived fields."""
    assert dart_dicts(got) == (was.origin, was.letter, was.twin)
    for key in ("rotations", "faces", "labels", "boundary_walk", "base", "base_label", "boundary_face_dart"):
        assert getattr(got, key) == getattr(was, key), key
    assert list(got.rotations.items()) == list(was.rotations.items())
    assert list(got.labels.items()) == list(was.labels.items())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validator_matches_reference_on_mutations(valid_diagrams, data):
    d = valid_diagrams[data.draw(st.integers(0, len(valid_diagrams) - 1))]
    a = arrays(d)
    rank = len(d.presentation.generators)
    kind = mutate(a, data, rank)
    note(kind)
    got = verdict(Diagram.build, d, lists(a))
    was = verdict(dict_build, d, fresh(a))
    want = verdict(reference_build, d, fresh(a))
    event(f"{kind}: " + (re.sub(r"-?\d+", "#", want) if isinstance(want, str) else "accepted"))
    # the list validator says what the dict validator says, word for word
    if isinstance(was, str):
        assert got == was
    else:
        assert isinstance(got, Diagram), got
        assert_same(got, was)
    if isinstance(want, str):
        if was != want and kind == "duplicate" and want.endswith("appears in two rotations"):
            # a dart listed again after its own rotation is caught by its
            # origin, no longer by a map of the darts seen so far
            assert re.fullmatch(r"dart \d+ has origin \d+ but sits in the rotation of \d+", was), was
        elif was != want:
            # the twin and letter checks walk the dict, no longer a set of
            # darts: where several darts fail them, another may come first
            assert twin_or_letter_fault(want, a, rank) and twin_or_letter_fault(was, a, rank), (was, want)
        return
    assert isinstance(was, Diagram), was
    assert vars(was) == vars(want)


def test_validator_matches_reference_on_valid_diagrams(z2, z2_bundle, heisenberg_bundle, w1_runs):
    # both fixtures' fillings, the W1 loops and their finals, and the z2
    # towers at depths 9 to 12 and their finals
    p, m, s, k, q = z2
    towers = [tower_diagram(e, R, depth, m.zero) for depth in range(9, 13) for e in s.entries]
    towers += [push_to_corridor(d, s, k, q)[0] for d in towers]
    loops, finals = w1_runs
    fillings = [f for _, _, s in (z2_bundle, heisenberg_bundle) for e in s.entries for f in e.fillings.values()]
    for d in fillings + loops + finals + towers:
        got = Diagram.build(d.presentation, d.amap, **lists(arrays(d)))
        was = dict_build(d.presentation, d.amap, **fresh(arrays(d)))
        want = reference_build(d.presentation, d.amap, **fresh(arrays(d)))
        assert_same(got, was)
        assert vars(was) == vars(want)
