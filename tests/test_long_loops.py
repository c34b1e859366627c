"""Byte stability of long push runs, beside ``test_report_bytes``.

Each case pushes 40 concatenated seed-7 corridor loops (wasteful filling,
q = q_min + 1) and compares the sha256 of the final diagram's
``canonical_signature`` and of the step trace with recorded values, so a
change to the push store shows on a long loop.  A change that alters them
must say so and record new values.  The same runs, on bundles of their own,
pin how many gluings (one per template and link shape) they compile.
"""

import dataclasses

import pytest
from conftest import _load_bundle, concatenated_loops
from test_report_bytes import sha

from vkpush.diagram import canonical_signature
from vkpush.oracle import wasteful_diagram
from vkpush.pusher import push_to_corridor
from vkpush.scheme import certify_coverage

# bundle -> (boundary length, steps, sha of the final signature, sha of the steps)
GOLDEN = {
    "z2": (
        328,
        1367,
        "e39e9212ab47da9ee82a07143c1b67b47a61962cc6dc4d66aeda809e49d51c9c",
        "2b73b6ede434b41bb880355fb07c38829b62585957035e78df28471f5751897d",
    ),
    "heisenberg": (
        355,
        1002,
        "7602347228e30522b2f67aedf5d427090a916dc73fc1d0f351ec9b7249482cb8",
        "379f243d33a461a0e1919d579bedea307782d95a0baaefc10ec2fac43c3e4864",
    ),
}


@pytest.mark.parametrize("name, grid", [("z2", 0.05), ("heisenberg", 0.01)])
def test_long_loop_push(request, name, grid):
    p, m, s = request.getfixturevalue(f"{name}_bundle")
    k = certify_coverage(s, grid)
    q = k.q_min + 1.0
    d = wasteful_diagram(s, concatenated_loops(p, m, q, 40), q)
    final, trace = push_to_corridor(d, s, k, q)
    got = (
        len(d.boundary_walk),
        len(trace.steps),
        sha(canonical_signature(final)),
        sha([dataclasses.asdict(step) for step in trace.steps]),
    )
    assert got == GOLDEN[name]


@pytest.mark.parametrize(
    "name, grid, templates, gluings", [("z2", 0.05, 38, 47), ("heisenberg", 0.01, 75, 90)]
)
def test_long_loop_gluings(name, grid, templates, gluings):
    # bundles of their own, so the run starts with no template cached
    p, m, s = _load_bundle(name)
    k = certify_coverage(s, grid)
    q = k.q_min + 1.0
    push_to_corridor(wasteful_diagram(s, concatenated_loops(p, m, q, 40), q), s, k, q)
    compiled = [t for e in s.entries for t in e.templates.values()]
    assert (len(compiled), sum(len(t.gluings) for t in compiled)) == (templates, gluings)
