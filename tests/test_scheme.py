import json
import math
import random

import pytest
from conftest import mirror, rebase_on_boundary

from vkpush import scheme
from vkpush.abelianization import AbelianizationMap, Character, norm, prefix_labels
from vkpush.diagram import DiagramBuilder
from vkpush.presentation import Presentation, ValidationError, invert
from vkpush.scheme import (
    CertificationError,
    PushingScheme,
    SchemeEntry,
    certify_coverage,
    choose_entry,
    gap,
    hat_word,
    verify_entry,
    _sphere_grid,
)

ZP = Presentation.from_texts(("a", "b"), ("a b a^-1 b^-1",))
ZM = AbelianizationMap(rank=1, columns=((1,), (0,)))
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
    assert gap(up, ea) == 1.0
    assert gap(down, ea) == -math.inf
    assert gap(down, ei) == 1.0
    assert gap(up, ei) == -math.inf


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
                    val = min(u.value(lbl) for lbl in inst.labels.values())
                    low = min(u.value(lbl) for lbl in prefix_labels(ZM, rotated, ZM.zero))
                    observed = min(observed, val - low)
        assert math.isclose(observed, gap(u, e), abs_tol=1e-12)


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


@pytest.mark.parametrize("bundle", ["z2_bundle", "heisenberg_bundle"])
def test_gap_equals_reference_gap_exactly(bundle, request):
    p, m, s = request.getfixturevalue(bundle)
    rng = random.Random(2024)
    grid = [(1.0,), (-1.0,)] if m.rank == 1 else _sphere_grid(m.rank, 0.05)
    randoms = [tuple(rng.gauss(0.0, 1.0) for _ in range(m.rank)) for _ in range(200)]
    for direction in grid + randoms:
        u = Character.from_vector(direction)
        for e in s.entries:
            assert gap(u, e) == reference_gap(u, e)


@pytest.mark.parametrize("bundle", ["z2_bundle", "heisenberg_bundle"])
def test_certified_constants_equal_the_reference_gap_ones(bundle, request, monkeypatch):
    p, m, s = request.getfixturevalue(bundle)
    grids = (0.05, 0.01, 0.005)
    got = [certify_coverage(s, grid) for grid in grids]
    monkeypatch.setattr(scheme, "gap", reference_gap)
    assert got == [certify_coverage(s, grid) for grid in grids]


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
    with pytest.raises(ValidationError, match="positive"):
        certify_coverage(z2_scheme(), 0.0)
    with pytest.raises(ValidationError, match="positive"):
        certify_coverage(z2_scheme(), -1.0)


def test_sphere_grid_is_a_net():
    for n, delta in ((2, 0.2), (3, 0.5)):
        grid = _sphere_grid(n, delta)
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
