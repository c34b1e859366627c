"""Un-pushed diagrams pushed back into the corridor (ROADMAP item 7).

``conftest.unpush`` runs push steps outward, so a valid diagram grows a
spike of interior vertices far outside the corridor, an input that no
sampled loop or tower gives.  Pushing it back must pass every check of the
run audit and keep the boundary word.  On the free-by-cyclic bundle it does
not yet: a surviving vertex more than doubles its degree, or the
replacement pinches off a sphere, which glue refuses by its Euler count.
"""

import pytest
from conftest import concatenated_loops, unpush

from vkpush.oracle import certificate_to_diagram, sample_corridor_certificates, wasteful_diagram
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
