import dataclasses
import json
import math
from collections import Counter

import pytest
from conftest import FIXTURES, _load_bundle, concatenated_loops, max_norm_vertex

from vkpush import cli, pusher
from vkpush.abelianization import Character, norm
from vkpush.diagram import Diagram, DiagramBuilder
from vkpush.oracle import (
    annular_collar,
    brute_area,
    sample_corridor_certificates,
    tower_diagram,
    wasteful_diagram,
)
from vkpush.presentation import ValidationError
from vkpush.pusher import (
    ARPair,
    PushError,
    _audit,
    _carry_budgets,
    _compile_growth,
    predicted_area_bound,
    push_to_corridor,
)
from vkpush.scheme import CertificationError, PushingScheme, certify_coverage, choose_entry
from vkpush.store import DartStore, Surgery

R = (1, 2, -1, -2)


@pytest.fixture(scope="module")
def z2(z2_bundle):
    p, m, s = z2_bundle
    return p, m, s, certify_coverage(s, 0.05)


@pytest.fixture(scope="module")
def heis(heisenberg_bundle):
    p, m, s = heisenberg_bundle
    return p, m, s, certify_coverage(s, 0.01)


def test_single_step_reduces_top_level(z2):
    p, m, s, k = z2
    d = tower_diagram(s.entries[0], R, 5, (0,))
    assert d.metrics()["norm"] == 6.0
    store = DartStore(d)
    step, _ = pusher._push_max(store, s, k, {})
    nd = store.diagram()
    assert step.pushed_vertex_label == (6,)
    assert step.c == 6.0
    assert step.degree == 2
    assert step.area_before == 11
    assert step.area_after == nd.area
    assert step.new_vertex_max_norm <= 6.0 - k.a / 2 + 1e-9
    # the apex and the ridge vertex it engulfs both leave the top level
    assert all(norm(lbl) <= 5.5 for lbl in nd.labels.values())
    assert nd.boundary_word == d.boundary_word


def test_step_rejects_radius_at_or_below_minimum(z2):
    p, m, s, k = z2
    d = tower_diagram(s.entries[0], R, 5, (0,))
    with pytest.raises(PushError, match="must exceed q_min") as info:
        push_to_corridor(d, s, k, k.q_min)
    assert info.value.trace is None


def test_step_rejects_boundary_outside_corridor(z2):
    p, m, s, k = z2
    d = tower_diagram(s.entries[0], R, 2, (8,))
    with pytest.raises(PushError, match="boundary exceeds corridor") as info:
        push_to_corridor(d, s, k, 5.0)
    assert info.value.trace is None


def test_missing_entry_error_propagates(z2):
    p, m, s, k = z2
    one_sided = PushingScheme(p, m, (s.entries[0],))
    d = tower_diagram(s.entries[0], R, 5, (0,))
    # the tower's top label 6 asks for the entry that was left out
    with pytest.raises(PushError, match="no scheme entry for the pushed vertex: .*not covered") as info:
        push_to_corridor(d, one_sided, k, 5.0)
    assert isinstance(info.value.__cause__, CertificationError)
    assert info.value.trace.steps == []


def test_run_returns_same_diagram_when_inside(z2):
    p, m, s, k = z2
    d = tower_diagram(s.entries[0], R, 2, (0,))
    final, trace = push_to_corridor(d, s, k, 5.0)
    assert final is d
    assert trace.steps == []
    assert trace.sweeps == 0
    # the run's one audit still runs, and passes with no sweep to spend
    assert trace.checks == _audit(trace, k, 5.0)[0]
    assert trace.checks["sweep_cap"] == 0
    assert all(v for key, v in trace.checks.items() if key != "sweep_cap")


def test_full_descent_on_tower(z2):
    p, m, s, k = z2
    d = tower_diagram(s.entries[0], R, 5, (0,))
    q = 4.5
    final, trace = push_to_corridor(d, s, k, q)
    assert final.metrics()["norm"] <= q
    assert final.boundary_word == d.boundary_word
    levels = math.ceil(2 * (6.0 - q) / k.a)
    assert trace.sweeps <= levels
    assert final.area <= (1 + 4 * k.A * k.B) ** trace.sweeps * d.area
    assert trace.original_degrees == {v: d.degree(v) for v in d.vertices}
    # per-step records repeat the audited invariants
    for st in trace.steps:
        assert st.new_vertex_max_norm <= st.c - k.a / 2 + 1e-9
        assert st.area_after - st.area_before <= k.A * st.degree + 1e-9
    # the running maximum never increases
    cs = [st.c for st in trace.steps]
    assert all(x >= y for x, y in zip(cs, cs[1:]))
    # still a genuine filling, so at least the minimal area
    assert final.area >= brute_area(p, R, max_area=2)


def test_run_audit_failure_raises_with_trace(z2):
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, R, 6, (0,))
    # B = 0 certifies no area growth at all, which the run cannot keep
    broken = dataclasses.replace(k, B=0)
    with pytest.raises(PushError) as info:
        push_to_corridor(d, s, broken, 5.0)
    trace = info.value.trace
    assert len(trace.steps) == 3
    assert "final area 21 exceeds (1+4AB)^sweeps * initial = 13.0" in str(info.value)
    assert trace.checks == _audit(trace, broken, 5.0)[0]
    assert trace.checks["area_within_bound"] is False
    assert all(v for key, v in trace.checks.items() if key != "area_within_bound")
    assert _audit(trace, k, 5.0)[0]["area_within_bound"] is True


def test_step_without_enough_descent_fails_the_step_audit(z2):
    # with a = 4 a step from the top label 7 must land at norm 5 or below;
    # the tower's first step creates norm 6, so the audit refuses it
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, R, 6, (0,))
    with pytest.raises(PushError, match=r"a new vertex has norm 6\.000000 > c - a/2 = 5\.000000") as info:
        push_to_corridor(d, s, dataclasses.replace(k, a=4.0), 5.0)
    assert info.value.trace.steps == []


def test_a_step_below_a_threshold_above_its_own_norm_fails_the_count_check(z2):
    # with a = 1e-12 the threshold c - a/2 + tol lies above the top label
    # 7, so no lost vertex counts and the count of vertices above it cannot
    # drop; the new vertices, at norm 6, keep every other bound
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, R, 6, (0,))
    with pytest.raises(PushError) as info:
        push_to_corridor(d, s, dataclasses.replace(k, a=1e-12), 5.0)
    g = max(d.vertices, key=lambda v: norm(d.labels[v]))
    assert str(info.value) == (
        "push step invariant violation (broken scheme?): the count of vertices above"
        f" the c - a/2 threshold did not decrease (step 0, vertex {g}, label (7,), entry 1)"
    )
    assert info.value.trace.steps == []


def test_a_step_that_outgrows_a_times_degree_fails_both_audits(z2):
    # each tower step grows the area by its degree; with A = 0.5 the first
    # step breaks the per-step bound, in the step audit and in the run audit
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, R, 6, (0,))
    _, trace = push_to_corridor(d, s, k, 5.0)
    tight = dataclasses.replace(k, A=0.5)
    with pytest.raises(PushError, match=r"area grew by 2 > A\*degree = 1\.0 \(step 0,") as info:
        push_to_corridor(d, s, tight, 5.0)
    # the trace a failed step raises carries the run's audit of it
    failed = info.value.trace
    assert failed.steps == []
    assert failed.checks == _audit(failed, tight, 5.0)[0]
    assert all(v for key, v in failed.checks.items() if key != "sweep_cap")
    checks, problems = _audit(trace, tight, 5.0)
    assert checks["step_area_growth"] is False and checks["step_norm_drop"] is True
    assert problems[0] == "step 0: area grew by 2 > A*degree = 1.0"


def test_a_vertex_past_twice_its_budget_fails_degree_doubling(z2):
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    _, trace = push_to_corridor(tower_diagram(up, R, 6, (0,)), s, k, 5.0)
    assert trace.checks["degree_doubling"] is True
    v = min(trace.budgets)
    degree = trace.final.degree(v)
    low = (degree - 1) // 2
    lowered = dataclasses.replace(trace, budgets={**trace.budgets, v: low})
    checks, problems = _audit(lowered, k, 5.0)
    assert checks["degree_doubling"] is False
    assert problems == [f"surviving vertex {v} with degree baseline {low} now has degree {degree}"]


def test_a_fold_of_budgeted_vertices_gets_the_sum_of_their_budgets():
    # vertex 9 folds 1 and 2 together; 10 folds 5 with vertex 8, made during
    # the run, so it has no baseline; 11 is interior to the replacement
    budgets = {1: 3, 2: 4, 5: 2, 6: 1, 7: 6}
    cut = Surgery(
        darts={},
        rotations={},
        dropped_vertices=(7, 1, 2, 5, 8),
        fresh={9: (1, 2), 10: (5, 8), 11: ()},
        labels={},
        renamed={},
        dropped_darts=frozenset(),
        area=0,
    )
    _carry_budgets(budgets, cut)
    assert budgets == {6: 1, 9: 7}


def test_every_exit_of_a_run_audits_it_once(z2, monkeypatch):
    # the trace a run returns or raises is the one trace it audits; a failed
    # precondition raises before any run, with no trace to audit
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, R, 6, (0,))
    audited = []
    audit = pusher._audit

    def count(trace, k_, q):
        audited.append(trace)
        return audit(trace, k_, q)

    monkeypatch.setattr(pusher, "_audit", count)
    runs = [
        (tower_diagram(up, R, 2, (0,)), s, k),  # already inside
        (d, s, k),
        (d, s, dataclasses.replace(k, a=4.0)),  # the first step fails its audit
        (d, PushingScheme(p, m, (up,)), k),  # the first step finds no entry
        (d, s, dataclasses.replace(k, B=0)),  # the run fails its audit
    ]
    for diagram, scheme, constants in runs:
        audited.clear()
        try:
            _, trace = push_to_corridor(diagram, scheme, constants, 5.0)
        except PushError as exc:
            trace = exc.trace
        assert len(audited) == 1 and audited[0] is trace
    audited.clear()
    with pytest.raises(PushError, match="must exceed q_min"):
        push_to_corridor(d, s, k, k.q_min)
    assert audited == []


def reference_label_problems(store, star, cut, label_g):
    """The step audit's label checks as Counters compute them."""
    lost = [store.labels[w] for w in cut.dropped_vertices]
    removed = Counter(lost) - Counter(cut.labels.values())
    link_labels = Counter(store.labels[v] for v in {store.origin[x] for x in star.link_darts})
    extra = removed - Counter({label_g: 1})
    if removed[label_g] < 1:
        return ["the pushed vertex label did not leave the multiset"]
    if any(extra[lbl] > link_labels[lbl] for lbl in extra):
        return [f"labels lost beyond the pushed vertex and its link: {dict(extra)}"]
    return []


def test_step_audit_reports_label_losses_as_counters_do(z2, monkeypatch):
    # surgeries doctored after glue: as they are, giving back every copy of
    # the pushed label they lose, and dropping a vertex of the least norm too
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, R, 6, (0,))
    far = min(d.vertices, key=lambda v: norm(d.labels[v]))
    glue = DartStore.glue

    def give_back(store, cut, label_g):
        lost = [store.labels[w] for w in cut.dropped_vertices]
        back = {max(d.vertices) + 99 + i: label_g for i in range(lost.count(label_g))}
        return dataclasses.replace(cut, labels={**cut.labels, **back})

    def drop_far(store, cut, label_g):
        return dataclasses.replace(cut, dropped_vertices=cut.dropped_vertices + (far,))

    seen = []
    for change in (lambda store, cut, label_g: cut, give_back, drop_far):

        def doctored(store, star, t):
            label_g = store.labels[star.center]
            cut = change(store, glue(store, star, t), label_g)
            seen.append(reference_label_problems(store, star, cut, label_g))
            return cut

        monkeypatch.setattr(DartStore, "glue", doctored)
        try:
            pusher._push_max(DartStore(d), s, k, {})
            message = ""
        except PushError as exc:
            message = str(exc)
        assert all(problem in message for problem in seen[-1])
        assert bool(message) == bool(seen[-1])
    assert [len(problems) for problems in seen] == [0, 1, 1]
    assert seen[2] == [f"labels lost beyond the pushed vertex and its link: {{(7,): 1, {d.labels[far]}: 1}}"]


def test_step_audit_refuses_a_renamed_boundary_dart_with_another_letter(z2, monkeypatch):
    # the first step on the depth-1 tower keeps boundary dart 12 under a new
    # id; a glue that gives its edge another letter changes the boundary word
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, R, 1, (0,))
    assert 12 in d.faces[0] and d.letter[12] == -2
    glue = DartStore.glue

    def relettered(store, star, t):
        cut = glue(store, star, t)
        n = cut.renamed[12]
        tw = cut.darts[n][1]
        return dataclasses.replace(cut, darts={**cut.darts, n: (1, tw), tw: (-1, n)})

    pusher._push_max(DartStore(d), s, k, {})
    monkeypatch.setattr(DartStore, "glue", relettered)
    with pytest.raises(PushError, match="the boundary word changed"):
        pusher._push_max(DartStore(d), s, k, {})


def boundary_face_word(store):
    """The boundary word read off the store's boundary face orbit, as Diagram.build reads it."""
    origin, twin, rotations = store.origin, store.twin, store.rotations
    d0 = d = store.boundary_face_dart
    face = []
    while not face or d != d0:
        face.append(d)
        t = twin[d]
        rot = rotations[origin[t]]
        d = rot[rot.index(t) - 1]
    return tuple(store.letter[store.twin[x]] for x in reversed(face))


def test_every_step_keeps_the_boundary_face_word(z2, heis):
    # the store keeps only the boundary face dart; after every step of the
    # z2 towers, one long z2 loop and W1, its face orbit spells the initial
    # boundary word
    runs = []
    p, m, s, k = z2
    q = k.q_min + 1.0
    runs += [(tower_diagram(e, R, depth, m.zero), s, k, q) for e in s.entries for depth in range(9, 13)]
    runs.append((wasteful_diagram(s, concatenated_loops(p, m, q, 40), q), s, k, q))
    p, m, s, k = heis
    q = k.q_min + 1.0
    runs += [(wasteful_diagram(s, cert, q), s, k, q) for cert in sample_corridor_certificates(p, m, q, 12, 20, 6)]
    steps = []
    for d, s, k, q in runs:
        store, choices = DartStore(d), {}
        assert boundary_face_word(store) == d.boundary_word
        n = 0
        while norm(store.labels[store.max_norm_vertex()]) > q:
            pusher._push_max(store, s, k, choices, n)
            n += 1
            assert boundary_face_word(store) == d.boundary_word
        steps.append(n)
    # the long loop has 328 letters; W1 is ROADMAP workload W1
    assert len(runs[8][0].boundary_walk) == 328
    assert (steps[8], sum(steps[9:])) == (1367, 854)


def test_rank_3_loops_push_to_the_corridor(z3_bundle):
    # three corridor directions, entry choice with three-way ties
    p, m, s = z3_bundle
    k = certify_coverage(s, 0.05)
    q = k.q_min + 1.0
    steps = 0
    for cert in sample_corridor_certificates(p, m, q, 12, 20, 6):
        _, trace = push_to_corridor(wasteful_diagram(s, cert, q), s, k, q)
        assert all(v for v in trace.checks.values() if isinstance(v, bool))
        steps += len(trace.steps)
    assert steps == 2875


def test_deep_tower_runs_to_the_corridor(z2):
    # the steps grow as 2^depth, while the tower has 38 vertices; the run
    # ends because every step passes its audit, however many steps it takes
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    q = k.q_min + 1.0
    final, trace = push_to_corridor(tower_diagram(up, R, 17, (0,)), s, k, q)
    assert (len(trace.steps), trace.sweeps, final.area) == (6623, 13, 2**15 + 5)
    assert all(v for key, v in trace.checks.items() if key != "sweep_cap")


def test_replacement_that_does_not_glue_raises_with_trace(z2, unglued_replacements):
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, R, 6, (0,))
    with pytest.raises(PushError, match="star replacement failed: .*does not match the link") as info:
        push_to_corridor(d, s, k, 5.0)
    trace = info.value.trace
    assert trace is not None and trace.steps == []
    assert trace.final.to_json_dict() == d.to_json_dict()
    # the failing step names its index, vertex, label and entry
    g = max_norm_vertex(d)
    entry, _ = choose_entry(s, Character.from_vector([-x for x in d.labels[g]]))
    where = f" (step 0, vertex {g}, label {d.labels[g]}, entry {s.entries.index(entry)})"
    assert str(info.value).endswith(where) and d.labels[g] == (7,)


def test_a_failed_step_audit_names_the_step(z2):
    # a = 4 refuses the tower's first step (see above); after two steps at
    # the certified a, a run whose audit refuses the third names step 2
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, R, 6, (0,))
    store, choices = DartStore(d), {}
    for i in range(2):
        pusher._push_max(store, s, k, choices, i)
    g = store.max_norm_vertex()
    entry, _ = choose_entry(s, Character.from_vector([-x for x in store.labels[g]]))
    with pytest.raises(PushError, match="push step invariant violation") as info:
        pusher._push_max(store, s, dataclasses.replace(k, a=4.0), choices, 2)
    where = f" (step 2, vertex {g}, label {store.labels[g]}, entry {s.entries.index(entry)})"
    assert str(info.value).endswith(where)


def test_a_step_at_a_vertex_without_a_regular_star_names_the_step(z2):
    # every vertex of one cell lies on the boundary, so no entry is chosen
    # and the message names the step, vertex and label alone
    p, m, s, k = z2
    d = tower_diagram(s.entries[0], R, 0, (0,))
    with pytest.raises(PushError) as info:
        pusher._push_max(DartStore(d), s, k, {})
    assert str(info.value) == (
        "max-norm vertex has no regular star: vertex 1 lies on the boundary (step 0, vertex 1, label (1,))"
    )


def test_uncovered_character_mid_run_raises_with_trace(z2, monkeypatch):
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, R, 6, (0,))
    calls = []

    def covers_one(s_, u):
        calls.append(u)
        if len(calls) > 1:
            raise CertificationError(f"character {u.direction} not covered by scheme")
        return choose_entry(s_, u)

    # the run pushes labels 7, 6, 6 and asks for an entry once per label, so
    # the second label fails
    monkeypatch.setattr(pusher, "choose_entry", covers_one)
    with pytest.raises(PushError, match="no scheme entry for the pushed vertex: .*not covered") as info:
        push_to_corridor(d, s, k, 5.0)
    trace = info.value.trace
    assert len(trace.steps) == 1
    assert trace.final.area == trace.steps[-1].area_after
    assert trace.final.boundary_word == d.boundary_word


@pytest.mark.parametrize("t", [1, -1])
def test_rotated_rotation_lists_push_to_the_same_report(z2, tmp_path, capsys, t):
    # a diagram file may list a rotation from any of its darts; loading lists
    # each from its smallest, so the push report is the sorted file's
    p, m, s, k = z2
    entry = next(e for e in s.entries if e.t == t)
    obj = tower_diagram(entry, R, 7, m.zero).to_json_dict()
    rotated = {**obj, "rotations": {v: rot[1:] + rot[:1] for v, rot in obj["rotations"].items()}}
    assert rotated["rotations"] != obj["rotations"]
    reports = []
    for name, diagram in (("sorted", obj), ("rotated", rotated)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(diagram))
        assert cli.main(["push", str(FIXTURES / "z2.json"), str(path), "--q", "5"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["steps"]


def test_warm_run_validates_one_diagram(z2, monkeypatch):
    # a step glues its replacement from the builder: no diagram is built per
    # step, and the final diagram is the one full validation
    p, m, s, k = z2
    calls = Counter()
    builder_build = DiagramBuilder.build
    diagram_build = Diagram.build.__func__

    def count_builder(self, *args, **kwargs):
        calls["DiagramBuilder.build"] += 1
        return builder_build(self, *args, **kwargs)

    def count_diagram(cls, *args, **kwargs):
        calls["Diagram.build"] += 1
        return diagram_build(cls, *args, **kwargs)

    for e in s.entries:
        d = tower_diagram(e, R, 9, (0,))
        push_to_corridor(d, s, k, 5.0)  # builds the corner instances it uses
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(DiagramBuilder, "build", count_builder)
            mp.setattr(Diagram, "build", classmethod(count_diagram))
            _, trace = push_to_corridor(d, s, k, 5.0)
        assert trace.steps
        assert calls == {"Diagram.build": 1}


def test_cold_run_validates_one_diagram(monkeypatch):
    # on a fresh bundle, with no template compiled yet, a run reads the corner
    # fillings straight off the stored ones: the final diagram is still the
    # one full validation
    diagram_build = Diagram.build.__func__
    runs = []

    def cold_runs(d, s, k, q):
        calls = Counter()

        def count_diagram(cls, *args, **kwargs):
            calls["Diagram.build"] += 1
            return diagram_build(cls, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(Diagram, "build", classmethod(count_diagram))
            _, trace = push_to_corridor(d, s, k, q)
        assert trace.steps
        runs.append(calls)

    p, m, s = _load_bundle("z2")
    k = certify_coverage(s, 0.05)
    for e in s.entries:
        cold_runs(tower_diagram(e, R, 9, (0,)), s, k, 5.0)
    p, m, s = _load_bundle("heisenberg")
    k = certify_coverage(s, 0.01)
    q = k.q_min + 1.0
    for cert in sample_corridor_certificates(p, m, q, 12, 20, 6):
        d = wasteful_diagram(s, cert, q)
        if d.metrics()["norm"] > q:
            cold_runs(d, s, k, q)
    # two z2 towers and the ten W1 loops that need pushing
    assert len(runs) == 12
    assert runs == [{"Diagram.build": 1}] * 12


def test_w1_fill_validates_one_diagram(heis, monkeypatch):
    # each tower goes into the fill's own builder, so a fill builds one
    # diagram, the whole fill
    p, m, s, k = heis
    q = k.q_min + 1.0
    diagram_build = Diagram.build.__func__
    calls = []

    def count_diagram(cls, *args, **kwargs):
        calls[-1] += 1
        return diagram_build(cls, *args, **kwargs)

    monkeypatch.setattr(Diagram, "build", classmethod(count_diagram))
    for cert in sample_corridor_certificates(p, m, q, 12, 20, 6):
        calls.append(0)
        wasteful_diagram(s, cert, q)
    assert calls == [1] * 20


def test_warm_run_builds_no_replacement(z2, monkeypatch):
    # with every template cached, a run assembles no builder and no collar
    p, m, s, k = z2
    calls = Counter()
    builder_init = DiagramBuilder.__init__

    def count_builder(self, *args, **kwargs):
        calls["DiagramBuilder"] += 1
        builder_init(self, *args, **kwargs)

    def count_collar(*args, **kwargs):
        calls["annular_collar"] += 1
        return annular_collar(*args, **kwargs)

    for e in s.entries:
        d = tower_diagram(e, R, 9, (0,))
        push_to_corridor(d, s, k, 5.0)  # compiles the templates it uses
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(DiagramBuilder, "__init__", count_builder)
            mp.setattr(pusher, "annular_collar", count_collar)
            _, trace = push_to_corridor(d, s, k, 5.0)
        assert trace.steps
        assert calls == {}


def test_entry_choice_runs_once_per_pushed_label(z2, heis, monkeypatch):
    # a run asks for an entry once per distinct pushed label
    calls = Counter()
    choose = pusher.choose_entry

    def count_choice(s, u):
        calls["choose_entry"] += 1
        return choose(s, u)

    monkeypatch.setattr(pusher, "choose_entry", count_choice)
    p, m, s, k = z2
    labels = 0
    for e in s.entries:
        for depth in range(9, 13):
            _, trace = push_to_corridor(tower_diagram(e, R, depth, m.zero), s, k, k.q_min + 1.0)
            labels += len({st.pushed_vertex_label for st in trace.steps})
    assert labels == 48
    assert calls == {"choose_entry": 48}
    p, m, s, k = heis
    q = k.q_min + 1.0
    calls.clear()
    labels = steps = 0
    for cert in sample_corridor_certificates(p, m, q, 12, 20, 6):
        _, trace = push_to_corridor(wasteful_diagram(s, cert, q), s, k, q)
        labels += len({st.pushed_vertex_label for st in trace.steps})
        steps += len(trace.steps)
    # ROADMAP workload W1: 854 steps, which asked for 3,416 gaps before
    # entry choice ran once per label
    assert (steps, labels) == (854, 67)
    assert calls == {"choose_entry": 67}


def test_audit_area_bound_survives_float_overflow(z2):
    p, m, s, k = z2
    up = next(e for e in s.entries if e.t == 1)
    _, trace = push_to_corridor(tower_diagram(up, R, 6, (0,)), s, k, 5.0)
    # 81^170 passes the float range (1.8e308 at 162 sweeps)
    checks, _ = _audit(dataclasses.replace(trace, sweeps=170), k, 5.0)
    assert checks["area_within_bound"] is True
    assert checks["sweeps_within_cap"] is False


def _assert_survivors_budgeted(trace):
    fin = trace.final
    survivors = [v for v in fin.vertices if v in trace.original_degrees]
    assert survivors
    assert all(v in trace.budgets for v in survivors)
    # a survivor keeps its original degree as its budget
    assert all(trace.budgets[v] == trace.original_degrees[v] for v in survivors)


def test_every_surviving_original_vertex_keeps_a_budget(z2, heis):
    p, m, s, k = z2
    for e in s.entries:
        for depth in (6, 9, 11):
            _, trace = push_to_corridor(tower_diagram(e, R, depth, (0,)), s, k, 5.0)
            _assert_survivors_budgeted(trace)
    p, m, s, k = heis
    q = k.q_min + 1.0
    pushed = 0
    for cert in sample_corridor_certificates(p, m, q, 12, 20, 6):
        _, trace = push_to_corridor(wasteful_diagram(s, cert, q), s, k, q)
        if trace.steps:
            _assert_survivors_budgeted(trace)
            pushed += 1
    assert pushed == 10


def test_validated_darts_per_pushed_degree_do_not_grow_with_depth(z2, monkeypatch):
    """A step validates O(star) darts, not the whole diagram."""
    p, m, s, k = z2
    raw = Diagram.__dict__["build"].__func__
    counted = [0]

    def counting(cls, *args, **kw):
        counted[0] += len(kw["origin"])
        return raw(cls, *args, **kw)

    def darts_per_degree(entry, depth):
        d = tower_diagram(entry, R, depth, (0,))
        counted[0] = 0
        monkeypatch.setattr(Diagram, "build", classmethod(counting))
        _, trace = push_to_corridor(d, s, k, 5.0)
        monkeypatch.setattr(Diagram, "build", classmethod(raw))
        return counted[0] / sum(st.degree for st in trace.steps)

    for e in s.entries:
        darts_per_degree(e, 9)  # fills the entry's corner instances
        # the area, and the darts a whole-diagram rebuild validates, grow 4x
        assert darts_per_degree(e, 11) <= darts_per_degree(e, 9)


def test_descent_direction_matches_vertex_sign(z2):
    p, m, s, k = z2
    down = next(i for i, e in enumerate(s.entries) if e.t == -1)
    up = next(i for i, e in enumerate(s.entries) if e.t == 1)
    d = tower_diagram(s.entries[down], R, 7, (0,))
    assert d.metrics()["norm"] == 7.0
    final, trace = push_to_corridor(d, s, k, 4.5)
    assert final.metrics()["norm"] <= 4.5
    assert final.boundary_word == d.boundary_word
    # towers below zero are pushed with the positive entry and vice versa
    assert {st.entry_used for st in trace.steps} == {up}


def test_heisenberg_descent(heis):
    p, m, s, k = heis
    q = k.q_min + 1.0
    certs = sample_corridor_certificates(p, m, q, target_len=12, count=20, rng_seed=7)
    pushed = 0
    steps = 0
    for cert in certs:
        d = wasteful_diagram(s, cert, q)
        if d.metrics()["norm"] <= q:
            continue
        final, trace = push_to_corridor(d, s, k, q)
        assert final.metrics()["norm"] <= q
        assert final.boundary_word == d.boundary_word
        assert final.area >= d.metrics()["area"] - 0  # sanity: area is defined
        pushed += 1
        steps += len(trace.steps)
    assert pushed >= 3
    assert steps >= 20


def test_a_run_that_ends_mid_sweep_counts_the_partial_sweep(heis):
    # this loop crosses five sweep thresholds, the last at sqrt(65), and then
    # reaches the corridor at norm 8.0 before the next one
    p, m, s, k = heis
    q = k.q_min + 0.5
    cert = sample_corridor_certificates(p, m, q, 12, 20, 2)[2]
    final, trace = push_to_corridor(wasteful_diagram(s, cert, q), s, k, q)
    assert len(trace.steps) == 59 and final.metrics()["norm"] == 8.0
    # recount: the top norm after each step is the next step's c, and after
    # the last step the final diagram's
    full, since, threshold, last_crossing = 0, 0, trace.steps[0].c - k.a / 2, None
    for c in [st.c for st in trace.steps[1:]] + [final.metrics()["norm"]]:
        since += 1
        if c < threshold + 1e-9:
            full, since, threshold = full + 1, 0, c - k.a / 2
            last_crossing = c
    assert full == 5 and last_crossing == pytest.approx(math.sqrt(65))
    assert since == 23
    assert trace.sweeps == full + 1 == 6
    assert trace.checks["sweep_cap"] == 16 and trace.checks["sweeps_within_cap"]


def test_growth_expressions_reject_unsafe_input():
    for bad in ("__import__('os')", "n + m", "lambda n: n", "open('x')", "n!"):
        with pytest.raises(ValidationError):
            _compile_growth(bad)


def test_growth_expressions_accept_growth_laws():
    f = _compile_growth("3*n*log(n)")
    assert f(math.e) == pytest.approx(3 * math.e)


def test_predicted_bound_matches_hand_computation(z2):
    p, m, s, k = z2
    ar = ARPair.from_strings("n**2", "n")
    assert predicted_area_bound(ar, k, 10) == 81**20 * 100


def test_predicted_bound_polynomial_versus_exponential(z2):
    p, m, s, k = z2
    log_style = ARPair.from_strings("3*n*log(n)", "2*log(n)")
    linear_style = ARPair.from_strings("5*n**2", "4*n")
    # 81^(4 log n) = n^(4 log 81), so the log-style pair is polynomial in n,
    # with one factor 81 for the ceiling and 3n^2 covering f
    alpha = 4 * math.log(81) + 2
    for n in (10, 100, 1000):
        poly = predicted_area_bound(log_style, k, n)
        expo = predicted_area_bound(linear_style, k, n)
        assert poly <= 243 * n**alpha
        assert expo >= 81 ** (8 * n) * 5 * n**2
        assert expo > poly


def test_predicted_bound_overflows_to_infinity(z2):
    p, m, s, k = z2
    ar = ARPair.from_strings("n**2/3", "n")
    assert predicted_area_bound(ar, k, 10**4) == math.inf
    # an exact power of 81 ** (2 * 10**9) is never built; f(n) keeps its sign
    for f, bound in (("n", math.inf), ("2**(2*n)", math.inf), ("-n", -math.inf), ("0", 0)):
        assert predicted_area_bound(ARPair.from_strings(f, "n**3"), k, 1000) == bound
