"""The label walk against its per-dart form.

``walk_labels`` reads each dart's far label from a step table built once
per label; ``reference_walk_labels`` is the walk as it was before, adding
the dart's column to the near label for every dart.  Both must give the
same labels, in the same order, and the same first error; the table walk
must also hand out one tuple per distinct label.
"""

from collections import deque

import pytest
from hypothesis import event, given, note, settings, strategies as st

from vkpush.abelianization import AbelianizationMap, vec_add
from vkpush.diagram import Diagram, DiagramBuilder, live, walk_labels
from vkpush.presentation import Presentation, ValidationError


def reference_walk_labels(amap, origin, letter, twin, rotations, base, base_label):
    """walk_labels as it was: one vec_add and one column call per dart."""
    column = amap.column
    labels = {base: base_label}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        lv = labels[v]
        for d in rotations[v]:
            w = origin[twin[d]]
            lw = vec_add(lv, column(letter[d]))
            if w in labels:
                if labels[w] != lw:
                    raise ValidationError(f"inconsistent labels at vertex {w}")
            else:
                labels[w] = lw
                queue.append(w)
    if len(labels) != len(rotations):
        raise ValidationError("diagram is not connected")
    return labels


def walk_arrays(d: Diagram) -> dict:
    return dict(
        amap=d.amap,
        origin=d.origin.copy(),
        letter=d.letter.copy(),
        twin=d.twin.copy(),
        rotations=dict(d.rotations),
        base=d.base,
        base_label=d.base_label,
    )


def outcome(walk, a: dict):
    try:
        return list(walk(**a).items())
    except ValidationError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def diagrams(z2_bundle, heisenberg_bundle, w1_runs):
    """Both fixtures' fillings, the W1 loops and their pushed finals."""
    out = [f for _, _, s in (z2_bundle, heisenberg_bundle) for e in s.entries for f in e.fillings.values()]
    loops, finals = w1_runs
    return out + loops + finals


def test_walk_matches_reference_on_fixtures_w1_and_pushed_finals(diagrams):
    assert len(diagrams) > 40
    for d in diagrams:
        a = walk_arrays(d)
        got = walk_labels(**a)
        assert list(got.items()) == list(reference_walk_labels(**a).items())
        assert got == d.labels
        # equal labels are one tuple
        assert len(set(map(id, got.values()))) == len(set(got.values()))


def test_equal_labels_share_the_base_label_tuple(diagrams):
    repeats = 0
    for d in diagrams:
        at_base = [lbl for lbl in walk_labels(**walk_arrays(d)).values() if lbl == d.base_label]
        assert all(lbl is d.base_label for lbl in at_base)
        repeats += len(at_base) > 1
    assert repeats > 10


@pytest.fixture
def zp_square():
    p = Presentation.from_texts(["a", "b"], ["a b a^-1 b^-1"])
    m = AbelianizationMap.from_json_dict({"rank": 1, "columns": {"a": [1], "b": [0]}}, p)
    bld = DiagramBuilder(p, m)
    cell = bld.path((1, 2, -1, -2))
    bld.add_cell(cell)
    d = bld.build(cell, (0,))
    assert sorted(d.rotations) == [0, 1, 2, 3]
    assert [d.origin[x] for x in d.boundary_walk] == [0, 1, 2, 3]
    return walk_arrays(d)


def test_inconsistent_labels_name_the_first_vertex_reached_twice(zp_square):
    # the square over <a, b | [a, b]> with a -> 1 and b -> 0 in rank 1 is
    # consistent; relettering the dart from vertex 1 to 2 as a^-1 (its
    # twin as a) makes the walk reach vertex 2 with label 0 from vertex 1
    # and label 1 from vertex 3, whichever it pops first
    a = zp_square
    x = next(x for x in a["rotations"][1] if a["origin"][a["twin"][x]] == 2)
    a["letter"][x], a["letter"][a["twin"][x]] = -1, 1
    for walk in (walk_labels, reference_walk_labels):
        with pytest.raises(ValidationError, match="^inconsistent labels at vertex 2$"):
            walk(**a)


def detach(a: dict, data) -> None:
    """Add a copy of a drawn part of the diagram under fresh ids, joined to nothing."""
    vertices = sorted(a["rotations"])
    shift_d, shift_v = len(a["origin"]), vertices[-1] + 1
    for field in ("origin", "letter", "twin"):
        a[field] += [0] * shift_d
    kept = data.draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=4, unique=True))
    for v in kept:
        rot = a["rotations"][v]
        a["rotations"][v + shift_v] = tuple(x + shift_d for x in rot)
        for x in rot:
            a["origin"][x + shift_d] = v + shift_v
            a["letter"][x + shift_d] = a["letter"][x]
            a["twin"][x + shift_d] = a["twin"][x] + shift_d


def reletter(a: dict, data) -> None:
    """Give a drawn dart another letter of the alphabet, and its twin the inverse."""
    x = data.draw(st.sampled_from(live(a["letter"])))
    k = len(a["amap"].columns)
    y = data.draw(st.sampled_from([y for y in range(-k, k + 1) if y not in (0, a["letter"][x])]))
    a["letter"][x], a["letter"][a["twin"][x]] = y, -y


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_walk_matches_reference_on_mutations(diagrams, data):
    d = diagrams[data.draw(st.integers(0, len(diagrams) - 1))]
    if not d.darts:
        return
    a = walk_arrays(d)
    kinds = data.draw(st.lists(st.sampled_from(["reletter", "detach"]), min_size=1, max_size=3))
    note(kinds)
    for kind in kinds:
        (reletter if kind == "reletter" else detach)(a, data)
    got, want = outcome(walk_labels, a), outcome(reference_walk_labels, a)
    event("accepted" if isinstance(want, list) else want.split(" at ")[0])
    assert got == want
    if isinstance(got, list):
        labels = [lbl for _, lbl in got]
        assert len(set(map(id, labels))) == len(set(labels))
