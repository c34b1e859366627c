"""What DartStore.glue checks, its gluing cache, and its rim runs against the rebuild reference.

A glue copies each run of untouched host darts around a link vertex as one
slice and checks no label: the walk word and the host's labels fix them
(``tests/test_store.py`` checks every label after each step of its pushed
runs).  The differential test pushes towers whose rotations start at
random darts, so the runs wrap around the ends of the host rotations.  The
cache tests ask that a template keeps one gluing per link shape, whatever
dart a host rotation lists first, and none from a glue that raises.  The
refusal tests hand ``Gluing.compile`` a broken link shape for each check
it makes once per gluing, and every shape one role away from a real one.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st
from test_splice import push_both_ways

from vkpush import pusher
from vkpush.abelianization import Character
from vkpush.diagram import Diagram
from vkpush.oracle import tower_diagram
from vkpush.presentation import Presentation, ValidationError
from vkpush.pusher import _push_max, _pushed_star
from vkpush.scheme import certify_coverage, choose_entry
from vkpush.store import DartStore, Gluing, Template

R = (1, 2, -1, -2)


@pytest.fixture(scope="module")
def z2(z2_bundle):
    p, m, s = z2_bundle
    k = certify_coverage(s, 0.05)
    return p, m, s, k, k.q_min + 1.0


def first_step(z2, depth=6, steps=0):
    """A store holding a tower pushed ``steps`` steps, the star it pushes next, and that star's template."""
    p, m, s, k, q = z2
    up = next(e for e in s.entries if e.t == 1)
    store, choices = DartStore(tower_diagram(up, R, depth, m.zero)), {}
    for i in range(steps):
        _push_max(store, s, k, choices, i)
    g = store.max_norm_vertex()
    entry, _ = choose_entry(s, Character.from_vector([-x for x in store.labels[g]]))
    star = store.star(g)
    return store, star, pusher._template(entry, star.words)


# -- the gluing cache -------------------------------------------------------------


def uncached_first_step(z2):
    """first_step, with the star's template compiled afresh, so it holds no gluing."""
    p, m, s, k, q = z2
    store, star, t = first_step(z2)
    entry, _ = choose_entry(s, Character.from_vector([-x for x in store.labels[star.center]]))
    return store, star, Template.compile(*_pushed_star(entry, star.words))


def test_a_template_rebuilt_by_replace_starts_with_no_gluings(z2):
    store, star, t = uncached_first_step(z2)
    store.glue(star, t)
    assert len(t.gluings) == 1
    again = dataclasses.replace(t, walk=t.walk)
    assert again.gluings == {} and again.gluings is not t.gluings
    assert store.glue(star, again) == store.glue(star, t)
    assert len(again.gluings) == len(t.gluings) == 1


def test_a_glue_that_raises_keeps_no_gluing(z2):
    store, star, t = uncached_first_step(z2)
    # the gluing compiles, then the Euler count fails
    bad = dataclasses.replace(t, area=t.area + 1)
    with pytest.raises(ValidationError, match="Euler count"):
        store.glue(star, bad)
    assert bad.gluings == {} and t.gluings == {}
    # a walk rotated by one, as conftest.unglued_replacements offers it
    turned = dataclasses.replace(t, walk=t.walk[1:] + t.walk[:1])
    with pytest.raises(ValidationError, match="does not match the link"):
        store.glue(star, turned)
    assert t.gluings == {} and turned.gluings == {}
    store.glue(star, t)
    assert len(t.gluings) == 1


@pytest.mark.parametrize("turn", [1, 2, 5])
def test_a_host_whose_rotations_start_elsewhere_hits_the_same_gluing(z2, turn):
    store, star, t = uncached_first_step(z2)
    want = store.glue(star, t)
    (key,) = t.gluings
    plan = t.gluings[key]
    for v, rot in store.rotations.items():
        i = turn % len(rot)
        store.rotations[v] = rot[i:] + rot[:i]
    assert any(rot[0] != min(rot) for rot in store.rotations.values())
    assert store.glue(star, t) == want
    assert t.gluings == {key: plan}


# -- the block of new darts -------------------------------------------------------


def test_a_seam_root_with_no_use_leaves_a_dead_rank(z2):
    # the first step of a depth-5 tower: walk ranks 12 and 13 are twins, a
    # spur glued to link darts 22 and 21, which are twins too; the fold
    # removes the spur, and neither root has a use
    store, star, t = first_step(z2, depth=5)
    cut = store.glue(star, t)
    assert len(cut.letter) == len(cut.twin) == 20
    assert [r for r, x in enumerate(cut.letter) if not x] == [12, 13]
    darts = sum(map(len, store.rotations.values()))
    start = len(store.letter)
    store.apply(cut)
    # the new-dart count, which the Euler count reads, leaves them out
    assert sum(map(len, store.rotations.values())) == darts - len(cut.dropped_darts) + 18
    assert store.letter[start + 12] == store.letter[start + 13] == 0
    assert {start + 12, start + 13}.isdisjoint(x for rot in store.rotations.values() for x in rot)
    assert len(store.letter) == start + 20
    store.diagram()


# -- what Gluing.compile refuses ---------------------------------------------------

# A push never hands compile these shapes: each is the link shape of a tower
# step with one to three roles changed, which breaks the sewing.  A fold
# entry -1 - j says the twin of that link dart is link dart j; 2s + 1 says
# role s follows after a rim run.  The first step of a depth-6 tower has the
# shape (16, 6, 18, 12, -4, 5, 3, -1, 0, 10) on a link of 4 darts, and the
# step after 5 steps of a depth-7 tower a shape on a link of 8.
REFUSALS = [
    # link dart 0 named as its own twin, in place of link dart 3
    (7, 5, {8: -1}, "cannot identify link dart 147 with its own twin"),
    # link dart 0 named as the twin of itself and of link dart 2, and link
    # dart 1 as the twin of link dart 3
    (6, 0, {4: -1, 6: -1, 7: -2}, "dart 115 is used 2 times across faces"),
    # the twin of link dart 0 leaves the link, but link dart 3 still names
    # link dart 0 as its twin
    (6, 0, {4: 3}, "dart 118 has a twin outside every face"),
    # the twin of link dart 1 followed by the twin of spoke 0
    (6, 0, {5: 17}, "rotation system does not define a permutation of faces"),
    # the twin of link dart 2 followed by the twin of link dart 0, a role
    # that the fold of link darts 0 and 3 leaves empty
    (6, 0, {6: 9}, "rotation system does not define a permutation of faces"),
    # a rim run after link dart 2 that no thread takes
    (6, 0, {2: 1}, "rotation system does not define a permutation of faces"),
    # the twin of link dart 0 is link dart 3, but the twin of link dart 3
    # leaves the link: a one-sided fold
    (6, 0, {7: 17}, "twin map is not a fixed-point-free involution at dart 21"),
    # link dart 0 named as the twin of link dart 8, one past the link
    (7, 5, {8: -9}, "twin map is not a fixed-point-free involution at dart 152"),
    # link dart 0 followed by role 10, one past the key
    (6, 0, {0: 21}, "rotation system does not define a permutation of faces"),
    # link dart 0 followed by itself, and by the twin of spoke 0 as well
    (6, 0, {0: 0}, "rotation system does not define a permutation of faces"),
    # the twin of link dart 1, kept under a new id, followed by the twin of
    # spoke 0, and link dart 0 by link dart 2 in its place: a thread that
    # leaves a kept twin for a spoke's twin
    (6, 0, {0: 4, 5: 16}, "rotation system does not define a permutation of faces"),
    # the successors of link dart 1 and of its twin swapped, with no rim
    # run: a thread that comes back to a class it has placed
    (6, 0, {1: 4, 5: 6}, "rotation system does not define a permutation of faces"),
]


@pytest.mark.parametrize("depth, steps, edits, message", REFUSALS)
def test_gluing_compile_refuses_a_broken_link_shape(z2, depth, steps, edits, message):
    store, star, t = first_step(z2, depth, steps)
    key = list(store._link_shape(star)[0])
    Gluing.compile(t, tuple(key), star.link_darts, len(store.origin))
    for r, value in edits.items():
        key[r] = value
    with pytest.raises(ValidationError) as info:
        Gluing.compile(t, tuple(key), star.link_darts, len(store.origin))
    assert str(info.value) == message


@pytest.mark.parametrize("depth, steps", [(7, 5), (6, 0)])
def test_gluing_compile_refuses_one_role_edits_with_a_validation_error(z2, depth, steps):
    """Each role of a link shape set to each value from -n - 1 to 2 len + 1 (n the link length).

    No edit raises anything but a ValidationError, and the only edits that
    still compile drop a rim run: the shape of a host with no rim dart there.
    """
    store, star, t = first_step(z2, depth, steps)
    base = store._link_shape(star)[0]
    compiled = []
    for r in range(len(base)):
        for value in range(-len(star.link_darts) - 1, 2 * len(base) + 2):
            key = base[:r] + (value,) + base[r + 1 :]
            try:
                Gluing.compile(t, key, star.link_darts, len(store.origin))
            except ValidationError:
                continue
            compiled.append((r, value))
    rim_dropped = [(r, x - 1) for r, x in enumerate(base) if x > 0 and x & 1]
    assert compiled == sorted([*enumerate(base), *rim_dropped])


# the cyclic variants of [a, b] and of its inverse
VARIANTS = sorted(Presentation(("a", "b"), (R,)).variant_set)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from([1, -1]),
    st.sampled_from(VARIANTS),
    st.integers(2, 7),
    st.randoms(use_true_random=False),
)
def test_rim_runs_match_reference_from_random_rotation_starts(z2, t, word, depth, rng):
    p, m, s, k, _ = z2
    # a narrow corridor, so a depth-7 tower takes 6 to 13 steps
    q = k.q_min + 0.25
    entry = next(e for e in s.entries if e.t == t)
    obj = tower_diagram(entry, word, depth, m.zero).to_json_dict()
    for v, rot in obj["rotations"].items():
        i = rng.randrange(len(rot))
        obj["rotations"][v] = rot[i:] + rot[:i]
    d = Diagram.from_json_dict(json.loads(json.dumps(obj)), p, m)
    push_both_ways(d, s, k, q)
