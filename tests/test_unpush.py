"""Un-pushed diagrams pushed back into the corridor (ROADMAP item 7).

``conftest.unpush`` runs push steps outward, so a valid diagram grows a
spike of interior vertices far outside the corridor, an input that no
sampled loop or tower gives.  Pushing it back must pass every check of the
run audit and keep the boundary word.  On the free-by-cyclic bundles it
does not yet: a surviving vertex more than doubles its degree, or the
replacement pinches off a sphere, which glue refuses by its Euler count.
The hyperbolic bundle F3 x| Z (ROADMAP item 11) shows the second failure
at step 1, from a filling of four cells.
"""

import pytest
from conftest import concatenated_loops, unpush

from vkpush.oracle import certificate_to_diagram, sample_corridor_certificates, search_filling, wasteful_diagram
from vkpush.presentation import parse_word
from vkpush.pusher import PushError, push_to_corridor
from vkpush.scheme import certify_coverage


@pytest.fixture(scope="module")
def starts(z2_bundle, heisenberg_bundle, w1_runs, z3_bundle, f2_bundle):
    """Per bundle, the diagram to un-push, with its scheme, constants and q."""
    out = {}
    for name, (p, m, s) in (("z2", z2_bundle), ("f2", f2_bundle)):
        k = certify_coverage(s, 0.05)
        q = k.q_min + 1.0
        # the certificate diagram of 40 concatenated seed-7 loops
        out[name] = certificate_to_diagram(p, m, concatenated_loops(p, m, q, 40), m.zero), s, k, q
    s = heisenberg_bundle[2]
    k = certify_coverage(s, 0.01)
    out["heisenberg"] = max(w1_runs[1], key=lambda d: d.area), s, k, k.q_min + 1.0
    p, m, s = z3_bundle
    k = certify_coverage(s, 0.05)
    q = k.q_min + 1.0
    cert = sample_corridor_certificates(p, m, q, 12, 20, 6)[0]
    out["z3"] = push_to_corridor(wasteful_diagram(s, cert, q), s, k, q)[0], s, k, q
    return out


def xfail(levels: int, reason: str):
    return pytest.param("f2", levels, None, marks=pytest.mark.xfail(strict=True, raises=PushError, reason=reason))


@pytest.mark.parametrize(
    "name, levels, steps",
    [
        ("z2", 4, 0),
        ("z2", 8, 11),
        ("z2", 12, 197),
        ("heisenberg", 6, 50),
        ("heisenberg", 10, 816),
        ("z3", 4, 26),
        ("z3", 8, 502),
        xfail(6, "ROADMAP item 7: after 2 steps a surviving vertex of degree 4 has degree 10"),
        xfail(7, "ROADMAP item 7: step 4 pinches off a sphere, and glue's Euler count refuses it"),
    ],
)
def test_unpushed_diagrams_push_back(starts, name, levels, steps):
    d, s, k, q = starts[name]
    final, trace = push_to_corridor(unpush(d, s, levels), s, k, q)
    assert [check for check, ok in trace.checks.items() if ok is False] == []
    assert final.boundary_word == d.boundary_word
    assert len(trace.steps) == steps


@pytest.mark.xfail(
    strict=True,
    raises=PushError,
    reason="ROADMAP item 7: with t^-1 at label zero the spike grows downward, and step 1 fails glue's Euler count",
)
def test_a_downward_spike_pushes_back(starts):
    d, s, k, q = starts["f2"]
    final, trace = push_to_corridor(unpush(d, s, 5, zero_entry=s.entries[1]), s, k, q)
    assert [check for check, ok in trace.checks.items() if ok is False] == []
    assert final.boundary_word == d.boundary_word


def test_free_by_cyclic_constants(f2_bundle):
    p, m, s = f2_bundle
    k = certify_coverage(s, 0.05)
    assert (k.a, k.b, k.A, k.B, k.q_min) == (1.0, 2.0, 7.0, 5, 4.0)


@pytest.fixture(scope="module")
def f3_start(f3_bundle):
    """The F3 x| Z filling of t t a b t^-1 t^-1 b^-1 a^-1 c^-1, with its scheme, constants and q."""
    p, m, s = f3_bundle
    k = certify_coverage(s, 0.05)
    cert = search_filling(p, parse_word("t t a b t^-1 t^-1 b^-1 a^-1 c^-1", p), 4)
    return certificate_to_diagram(p, m, cert, m.zero), s, k, k.q_min + 1.0


def test_hyperbolic_constants(f3_bundle):
    p, m, s = f3_bundle
    k = certify_coverage(s, 0.05)
    assert (k.a, k.b, k.A, k.B, k.q_min) == (1.0, 2.0, 7.0, 5, 4.0)


def test_a_short_hyperbolic_spike_is_inside_the_corridor(f3_start):
    d, s, k, q = f3_start
    boundary = set(d.boundary_vertices)
    assert d.area == 4
    assert [d.labels[v] for v in d.rotations if v not in boundary] == [(1,)]
    up = unpush(d, s, 2)
    final, trace = push_to_corridor(up, s, k, q)
    assert (q, up.area, len(trace.steps)) == (5.0, 15, 0)
    assert final.boundary_word == d.boundary_word


@pytest.mark.xfail(
    strict=True,
    raises=PushError,
    reason="ROADMAP item 7: step 1 pinches off a sphere, and glue's Euler count refuses it",
)
@pytest.mark.parametrize("zero", [0, 1])
def test_a_hyperbolic_spike_pushes_back(f3_start, zero):
    d, s, k, q = f3_start
    final, trace = push_to_corridor(unpush(d, s, 4, zero_entry=s.entries[zero]), s, k, q)
    assert [check for check, ok in trace.checks.items() if ok is False] == []
    assert final.boundary_word == d.boundary_word


@pytest.mark.parametrize("zero", [0, 1])
def test_a_hyperbolic_spike_fails_the_euler_count_at_step_1(f3_start, zero):
    # the message item 7's mend must account for, whichever entry un-push
    # takes at label zero
    d, s, k, q = f3_start
    with pytest.raises(PushError) as err:
        push_to_corridor(unpush(d, s, 4, zero_entry=s.entries[zero]), s, k, q)
    assert str(err.value) == (
        "star replacement failed: Euler count V-E+F = 47-77+34 != 2; not a sphere map"
        " (step 1, vertex 36, label (6,), entry 1)"
    )
