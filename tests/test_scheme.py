import json
import math
import random

import pytest
from conftest import mirror, rebase_on_boundary, table_gap
from hypothesis import given, settings, strategies as st

from vkpush import scheme
from vkpush.abelianization import AbelianizationMap, Character, dot, norm, prefix_labels
from vkpush.diagram import DiagramBuilder
from vkpush.oracle import build_scheme_entry
from vkpush.presentation import Presentation, ValidationError, invert
from vkpush.scheme import (
    MAX_GRID_POINTS,
    CertificationError,
    PushingScheme,
    SchemeEntry,
    certify_coverage,
    choose_entry,
    hat_word,
    verify_entry,
    _grid_steps,
    _sphere_grid,
)

ZP = Presentation.from_texts(("a", "b"), ("a b a^-1 b^-1",))
ZM = AbelianizationMap(rank=1, columns=((1,), (0,)))
# a map other than ZM, for entries and fillings built against the wrong one
OTHER_M = AbelianizationMap(rank=1, columns=((2,), (0,)))
COMMUTATOR = (1, 2, -1, -2)


def one_cell(word, base_label):
    bld = DiagramBuilder(ZP, ZM)
    cell = bld.path(word)
    bld.add_cell(cell)
    return bld.build(cell, base_label)


def entry_a():
    return SchemeEntry(ZP, ZM, 1, {2: (2,), -2: (-2,)}, {0: one_cell(COMMUTATOR, (1,))})


def entry_a_inv():
    return SchemeEntry(ZP, ZM, -1, {2: (2,), -2: (-2,)}, {0: one_cell(COMMUTATOR, (-1,))})


def z2_scheme():
    return PushingScheme(ZP, ZM, (entry_a(), entry_a_inv()))


def test_verify_entry_accepts_fixture():
    assert verify_entry(entry_a(), ZP, ZM) == []
    assert verify_entry(entry_a_inv(), ZP, ZM) == []
    z2_scheme().verify()


def test_verify_rejects_empty_scheme():
    with pytest.raises(CertificationError, match="no entries"):
        PushingScheme(ZP, ZM, ()).verify()


def test_verify_entry_zero_direction():
    e = SchemeEntry(ZP, ZM, 2, {1: (1,), -1: (-1,)}, {0: one_cell(COMMUTATOR, (0,))})
    assert any("maps to zero" in msg for msg in verify_entry(e, ZP, ZM))


def test_verify_entry_conj_table_mismatch():
    e = entry_a()
    del e.conj[-2]
    msgs = verify_entry(e, ZP, ZM)
    assert any("conjugation table mismatch" in m for m in msgs)


def test_verify_entry_bad_conjugation_relation():
    e = entry_a()
    e.conj[2] = (1,)
    e.conj[-2] = (-1,)
    msgs = verify_entry(e, ZP, ZM)
    assert any("not a relator variant" in m for m in msgs)


def test_verify_entry_non_inverse_pair():
    e = entry_a()
    e.conj[-2] = (2,)
    msgs = verify_entry(e, ZP, ZM)
    assert any("not inverse words" in m for m in msgs)


def test_verify_entry_wrong_filling_base():
    e = entry_a()
    e.fillings[0] = one_cell(COMMUTATOR, (-1,))
    msgs = verify_entry(e, ZP, ZM)
    assert any("base label" in m for m in msgs)


def test_verify_entry_wrong_filling_boundary():
    e = entry_a()
    e.fillings[0] = one_cell((2, 1, -2, -1), (1,))
    msgs = verify_entry(e, ZP, ZM)
    assert any("differs from the hat word" in m for m in msgs)


def test_verify_names_each_failing_entry():
    bad = entry_a()
    bad.conj[2] = ()
    with pytest.raises(CertificationError) as info:
        PushingScheme(ZP, ZM, (entry_a_inv(), bad)).verify()
    assert str(info.value) == (
        "entry 1: conjugate of 'b' is empty or uses unknown letters; "
        "entry 1: filling 0 boundary 'a b a^-1 b^-1' differs from the hat word 'a a^-1 b^-1'"
    )


def test_verify_entry_built_against_another_map():
    e = SchemeEntry(ZP, OTHER_M, 1, {2: (2,), -2: (-2,)}, {0: one_cell(COMMUTATOR, (1,))})
    assert verify_entry(e, ZP, ZM) == ["entry was built against a different presentation or map"]


def test_verify_entry_direction_outside_the_alphabet():
    e = entry_a()
    e.t = 3
    assert verify_entry(e, ZP, ZM) == ["direction 3 is not a letter of the presentation"]


def test_verify_entry_fillings_off_the_relator_indices():
    e = entry_a()
    e.fillings[1] = e.fillings.pop(0)
    assert verify_entry(e, ZP, ZM) == ["fillings must cover exactly the relator indices"]


def test_verify_entry_filling_built_against_another_map():
    e = entry_a()
    bld = DiagramBuilder(ZP, OTHER_M)
    cell = bld.path(COMMUTATOR)
    bld.add_cell(cell)
    e.fillings[0] = bld.build(cell, (1,))
    assert verify_entry(e, ZP, ZM) == ["filling 0 was built against a different presentation or map"]


def test_hat_word_identity_on_fixture():
    e = entry_a()
    assert hat_word(e, COMMUTATOR) == COMMUTATOR
    assert hat_word(e, (1, 1, -2)) == (1, 1, -2)
    assert hat_word(e, ()) == ()


def test_hat_word_missing_letter():
    e = SchemeEntry(ZP, ZM, 1, {-2: (-2,)}, {})
    with pytest.raises(ValidationError, match="no conjugation word"):
        hat_word(e, (2,))


def test_gap_values_on_fixture():
    up = Character.from_vector((1.0,))
    down = Character.from_vector((-1.0,))
    ea, ei = entry_a(), entry_a_inv()
    assert table_gap(up, ea) == 1.0
    assert table_gap(down, ea) == -math.inf
    assert table_gap(down, ei) == 1.0
    assert table_gap(up, ei) == -math.inf


def test_gap_matches_rotated_rebased_instances():
    # The closed form must agree with measuring every rotation's re-based
    # instance directly.
    for e, direction in ((entry_a(), 1.0), (entry_a_inv(), -1.0)):
        u = Character.from_vector((direction,))
        col = ZM.column(e.t)
        observed = math.inf
        for i, r in enumerate(ZP.relators):
            for sign in (1, -1):
                s = r if sign == 1 else invert(r)
                f = e.fillings[i] if sign == 1 else mirror(e.fillings[i])
                blocks = [(x,) if x in (e.t, -e.t) else e.conj[x] for x in s]
                starts = [0]
                for blk in blocks[:-1]:
                    starts.append(starts[-1] + len(blk))
                for j in range(len(s)):
                    inst = rebase_on_boundary(f, starts[j], base_label=col)
                    rotated = s[j:] + s[:j]
                    val = min(dot(u.direction, lbl) for lbl in inst.labels.values())
                    low = min(dot(u.direction, lbl) for lbl in prefix_labels(ZM, rotated, ZM.zero))
                    observed = min(observed, val - low)
        assert math.isclose(observed, table_gap(u, e), abs_tol=1e-12)


def reference_gap(u, e):
    """The valuation gap from scratch: label lists rebuilt and a generator dot per call."""

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    m = e.amap
    if dot(u.direction, m.column(e.t)) <= 0.0:
        return float("-inf")
    worst = math.inf
    for i, r in enumerate(e.presentation.relators):
        fill_min = min(dot(u.direction, lbl) for lbl in e.fillings[i].labels.values())
        path_min = min(dot(u.direction, lbl) for lbl in prefix_labels(m, r, m.zero))
        worst = min(worst, fill_min - path_min)
    return worst


@pytest.fixture(scope="module")
def rebuilt_heisenberg(heisenberg_bundle):
    """The Heisenberg scheme built again from its conjugation tables, as the fixture script does."""
    p, m, s = heisenberg_bundle
    entries = tuple(
        build_scheme_entry(p, m, e.t, dict(e.conj), max_area=4, max_len=12) for e in s.entries
    )
    return p, m, PushingScheme(p, m, entries)


@pytest.mark.parametrize("bundle", ["z2_bundle", "heisenberg_bundle"])
def test_gap_equals_reference_gap_exactly(bundle, request):
    p, m, s = request.getfixturevalue(bundle)
    rng = random.Random(2024)
    grid = [(1.0,), (-1.0,)] if m.rank == 1 else list(_sphere_grid(m.rank, 0.05))
    randoms = [tuple(rng.gauss(0.0, 1.0) for _ in range(m.rank)) for _ in range(200)]
    for direction in grid + randoms:
        u = Character.from_vector(direction)
        for e in s.entries:
            assert table_gap(u, e) == reference_gap(u, e)


def reference_certified_a(s, grid, lipschitz_bound):
    """Certification from scratch: the minimum over the grid of the best reference gap."""
    points = [(1.0,), (-1.0,)] if s.amap.rank == 1 else _sphere_grid(s.amap.rank, grid)
    a = min(
        max(reference_gap(Character.from_vector(x), e) for e in s.entries) for x in points
    )
    return a if s.amap.rank == 1 else a - lipschitz_bound * grid


@pytest.mark.parametrize("bundle", ["z2_bundle", "heisenberg_bundle", "rebuilt_heisenberg", "z3_bundle"])
def test_certified_constants_equal_the_reference_gap_ones(bundle, request):
    p, m, s = request.getfixturevalue(bundle)
    # the rank-3 reference takes seconds at grid 0.05 and far longer below it
    for grid in (0.05,) if m.rank == 3 else (0.05, 0.01, 0.005, 0.002):
        k = certify_coverage(s, grid)
        assert k.a == reference_certified_a(s, grid, k.lipschitz_bound)
        assert k.grid_spacing == (None if m.rank == 1 else grid)


def exact_rank2_coverage_minimum(s) -> float:
    """The least best-entry gap over the whole circle, in closed form, for a rank-2 scheme.

    Each gap is a min over relators of (least u.L over a filling's labels)
    less (least u.L over the relator's path), and the best gap the max over
    the entries whose direction image u advances along.  Between angles
    where two of those forms tie, u orthogonal to (L1 - L2) - (L3 - L4),
    and where an entry starts or stops advancing, u orthogonal to its
    image, the best gap is one form u.w, whose least value on an arc lies
    at an end or at u = -w/|w|.  So the minimum is the least value of the
    best gap over those angles, each end read with the entries that
    advance on its side.
    """
    m = s.amap
    paths = [prefix_labels(m, r, m.zero) for r in s.presentation.relators]
    fills = [[list(e.fillings[i].labels.values()) for i in range(len(paths))] for e in s.entries]
    images = [m.column(e.t) for e in s.entries]
    labels = {lbl for path in paths for lbl in path} | {lbl for f in fills for ls in f for lbl in ls}
    diffs = {(x[0] - y[0], x[1] - y[1]) for x in labels for y in labels}
    ties = {(x[0] - y[0], x[1] - y[1]) for x in diffs for y in diffs} - {(0, 0)}

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    def gap(u, k):
        return min(
            min(dot(u, lbl) for lbl in fill) - min(dot(u, lbl) for lbl in path)
            for fill, path in zip(fills[k], paths)
        )

    angles = [(-w[1], w[0]) for w in ties | set(images)] + [(-w[0], -w[1]) for w in diffs - {(0, 0)}]
    best = math.inf
    for w in angles:
        r = math.hypot(*w)
        for u in ((w[0] / r, w[1] / r), (-w[0] / r, -w[1] / r)):
            for side in (1, -1):
                tangent = (-side * u[1], side * u[0])
                on = [
                    k for k, t in enumerate(images)
                    if dot(u, t) > 1e-12 or (abs(dot(u, t)) <= 1e-12 and dot(tangent, t) > 0)
                ]
                best = min(best, max((gap(u, k) for k in on), default=-math.inf))
    return best


@pytest.mark.parametrize("bundle", ["heisenberg_bundle", "rebuilt_heisenberg"])
def test_certified_a_lies_within_the_slack_below_the_exact_minimum(bundle, request):
    # the grid minimum less lipschitz_bound * spacing may not pass the true
    # minimum over the circle, and the grid minimum itself may not lie below it
    p, m, s = request.getfixturevalue(bundle)
    exact = exact_rank2_coverage_minimum(s)
    assert abs(exact - 1 / math.sqrt(2)) < 1e-9
    assert round(exact, 8) == 0.70710678
    for grid in (0.05, 0.01, 0.005):
        k = certify_coverage(s, grid)
        assert k.a <= exact <= k.a + k.lipschitz_bound * grid


def directions(rank):
    """Axes, diagonals and integer directions, where entry gaps tie, and random ones."""
    lattice = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    floats = st.tuples(*[st.floats(-1.0, 1.0)] * rank).filter(lambda v: norm(v) > 1e-6)
    return st.one_of(lattice, floats)


def reference_choice(s, u):
    """The first entry with the strictly largest reference gap."""
    best = None
    for e in s.entries:
        g = reference_gap(u, e)
        if best is None or g > best[1]:
            best = (e, g)
    return best


@pytest.mark.parametrize("bundle", ["z2_bundle", "heisenberg_bundle", "rebuilt_heisenberg", "z3_bundle"])
def test_gap_and_choice_match_the_references_at_any_direction(bundle, request):
    p, m, s = request.getfixturevalue(bundle)

    @settings(max_examples=150, deadline=None)
    @given(directions(m.rank))
    def check(direction):
        u = Character.from_vector(direction)
        for e in s.entries:
            assert table_gap(u, e) == reference_gap(u, e)
        want = reference_choice(s, u)
        if want[1] <= 0.0:
            with pytest.raises(CertificationError, match="not covered"):
                choose_entry(s, u)
        else:
            e, g = choose_entry(s, u)
            assert e is want[0] and g == want[1]

    check()


def test_choose_entry_picks_covering_direction():
    s = z2_scheme()
    e, g = choose_entry(s, Character.from_vector((1.0,)))
    assert e.t == 1 and g == 1.0
    e, g = choose_entry(s, Character.from_vector((-1.0,)))
    assert e.t == -1 and g == 1.0


def test_choose_entry_uncovered():
    s = PushingScheme(ZP, ZM, (entry_a(),))
    with pytest.raises(CertificationError, match="not covered by scheme"):
        choose_entry(s, Character.from_vector((-1.0,)))


def test_certify_z2_constants_exact():
    k = certify_coverage(z2_scheme(), 0.01)
    assert k.a == 1.0
    assert k.b == 2.0
    assert k.A == 5.0
    assert k.B == 4
    assert k.q_min == 4.0
    assert k.lipschitz == 1.0
    assert k.grid_spacing is None
    assert k.lipschitz_bound == 4.0


def test_certify_report_shape():
    k = certify_coverage(z2_scheme(), 0.25)
    obj = k.to_json_dict()
    assert set(obj) == {"a", "b", "A", "B", "q_min", "grid_spacing", "lipschitz_bound"}


def test_certify_uncovered_direction_fails():
    s = PushingScheme(ZP, ZM, (entry_a(),))
    with pytest.raises(CertificationError, match="coverage not certified"):
        certify_coverage(s, 0.01)


def test_certify_rejects_bad_spacing():
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf, True):
        with pytest.raises(ValidationError, match="positive finite"):
            certify_coverage(z2_scheme(), bad)


class NoPoints:
    @staticmethod
    def from_vector(v):
        raise AssertionError("a grid point was made")


@pytest.mark.parametrize("grid", [1e-300, 5e-324, 1e-6])
def test_certify_refuses_oversized_grids_before_making_a_point(heisenberg_bundle, monkeypatch, grid):
    p, m, s = heisenberg_bundle
    monkeypatch.setattr(scheme, "Character", NoPoints)
    with pytest.raises(ValidationError, match="250,000 sphere points"):
        certify_coverage(s, grid)


def test_rank_3_certifies_at_grid_0_05_and_refuses_0_002(z3_bundle):
    p, m, s = z3_bundle
    assert certify_coverage(s, 0.05).a == 0.35374347143964674
    with pytest.raises(ValidationError, match="needs more than 250,000 sphere points in rank 3"):
        certify_coverage(s, 0.002)


def test_grid_point_count_cap():
    # 2n (steps+1)^(n-1) points; rank 2 takes steps = ceil(1/delta)
    assert _grid_steps(2, 1 / 62_490) == 62_490
    assert 4 * (_grid_steps(2, 1 / 62_490) + 1) == 249_964 <= MAX_GRID_POINTS
    with pytest.raises(ValidationError):
        _grid_steps(2, 1 / 62_510)
    # 1/62,499 rounds up to 62,500 steps, 250,004 points
    with pytest.raises(ValidationError):
        _grid_steps(2, 1 / 62_499)
    assert 6 * (_grid_steps(3, 0.01) + 1) ** 2 == 122_694 <= MAX_GRID_POINTS
    with pytest.raises(ValidationError):
        _grid_steps(3, 0.005)
    with pytest.raises(ValidationError):
        _grid_steps(40, 0.5)


def test_sphere_grid_is_a_net():
    for n, delta in ((2, 0.2), (3, 0.5)):
        grid = list(_sphere_grid(n, delta))
        assert len(grid) == 2 * n * (_grid_steps(n, delta) + 1) ** (n - 1)
        assert all(abs(norm(g) - 1.0) <= 1e-12 for g in grid)
        rng = random.Random(7)
        for _ in range(60):
            v = [rng.gauss(0.0, 1.0) for _ in range(n)]
            scale = norm(v) or 1.0
            u = tuple(c / scale for c in v)
            nearest = min(norm(tuple(a - b for a, b in zip(u, g))) for g in grid)
            assert nearest <= delta + 1e-9


def test_scheme_json_roundtrip():
    s = z2_scheme()
    blob = json.dumps(s.to_json_dict(), sort_keys=True)
    back = PushingScheme.from_json_dict(json.loads(blob), ZP, ZM)
    assert json.dumps(back.to_json_dict(), sort_keys=True) == blob
    back.verify()


def test_scheme_json_shape_errors():
    with pytest.raises(ValidationError, match="entries"):
        PushingScheme.from_json_dict({"no": []}, ZP, ZM)
    with pytest.raises(ValidationError, match="malformed scheme entry"):
        PushingScheme.from_json_dict({"entries": [{"t": "a"}]}, ZP, ZM)
    good = z2_scheme().to_json_dict()
    good["entries"][0]["fillings"] = {"zero": good["entries"][0]["fillings"]["0"]}
    with pytest.raises(ValidationError, match="relator index"):
        PushingScheme.from_json_dict(good, ZP, ZM)


# Bieri-Stallings: F2 x F2 -> Z, every generator to 1.  The kernel is finitely
# generated but not finitely presented, so no direction has a scheme entry.
F2F2 = Presentation.from_texts(
    ("a", "b", "c", "d"), ("a c a^-1 c^-1", "a d a^-1 d^-1", "b c b^-1 c^-1", "b d b^-1 d^-1")
)
F2F2_MAP = AbelianizationMap(rank=1, columns=((1,),) * 4)


@pytest.mark.parametrize("t", [1, -1, 2, -2, 3, -3, 4, -4])
def test_bieri_stallings_map_has_no_scheme_entry(t):
    p = F2F2
    identity = {x: (x,) for x in p.letters() if abs(x) != abs(t)}
    with pytest.raises(CertificationError, match="is not a relator variant") as info:
        build_scheme_entry(p, F2F2_MAP, t, identity, max_area=2)
    if t == 1:
        assert str(info.value) == "conjugation relation 'a^-1 b a b^-1' is not a relator variant"
    # no other table either: every relator has length 4, so a conjugation
    # cell t^-1 x t conj(x)^-1 makes conj(x) one letter y, and none fits the
    # generator that t does not commute with
    assert {len(r) for r in p.relators} == {4}
    partner = {1: 2, 2: 1, 3: 4, 4: 3}[abs(t)]
    assert not any((-t, partner, t, -y) in p.variant_set for y in p.letters())
