import math
import random

import pytest
from conftest import _load_bundle, table_gap

from vkpush.abelianization import AbelianizationMap, norm, prefix_labels, project
from vkpush.diagram import Diagram, DiagramBuilder, canonical_signature
from vkpush.oracle import (
    MAX_RANK,
    FillingCertificate,
    FillingSearchError,
    SearchBudgetError,
    annular_collar,
    brute_area,
    build_scheme_entry,
    certificate_to_diagram,
    sample_corridor_certificates,
    search_filling,
    tower_diagram,
    wasteful_diagram,
)
from vkpush.presentation import Presentation, ValidationError, free_reduce, invert
from vkpush.scheme import CertificationError, PushingScheme, SchemeEntry, certify_coverage

ZP = Presentation.from_texts(("a", "b"), ("a b a^-1 b^-1",))
ZM = AbelianizationMap(rank=1, columns=((1,), (0,)))
COMMUTATOR = (1, 2, -1, -2)

HP = Presentation.from_texts(
    ("x", "y", "z"),
    (
        "x y x^-1 y^-1 z^-1",
        "x z x^-1 z^-1",
        "y z y^-1 z^-1",
        "x^-1 y x y^-1 z",
        "y^-1 x y x^-1 z^-1",
    ),
)
HM = AbelianizationMap(rank=2, columns=((1, 0), (0, 1), (0, 0)))
HEIS_CONJ = {
    1: {2: (-3, 2), -2: (-2, 3), 3: (3,), -3: (-3,)},
    -1: {2: (3, 2), -2: (-2, -3), 3: (3,), -3: (-3,)},
    2: {1: (3, 1), -1: (-1, -3), 3: (3,), -3: (-3,)},
    -2: {1: (1, -3), -1: (3, -1), 3: (3,), -3: (-3,)},
}


def one_cell(word, base_label):
    bld = DiagramBuilder(ZP, ZM)
    cell = bld.path(word)
    bld.add_cell(cell)
    return bld.build(cell, base_label)


def z2_entry(t):
    label = ZM.column(t)
    return SchemeEntry(ZP, ZM, t, {2: (2,), -2: (-2,)}, {0: one_cell(COMMUTATOR, label)})


def z2_scheme():
    return PushingScheme(ZP, ZM, (z2_entry(1), z2_entry(-1)))


@pytest.fixture(scope="module")
def heis_scheme():
    entries = tuple(
        build_scheme_entry(HP, HM, t, HEIS_CONJ[t], max_area=4, max_len=12)
        for t in (1, -1, 2, -2)
    )
    s = PushingScheme(HP, HM, entries)
    s.verify()
    return s


def rect(p, q):
    return (1,) * p + (2,) * q + (-1,) * p + (-2,) * q


def test_brute_area_basics():
    assert brute_area(ZP, (), 3) == 0
    assert brute_area(ZP, COMMUTATOR, 3) == 1
    assert brute_area(ZP, (2, -1, -2, 1), 3) == 1
    assert brute_area(ZP, (1,), 3) is None
    assert brute_area(ZP, (1, 2), 2) is None


def test_brute_area_sees_through_cancelling_conjugator():
    # a r a^-1 is one cell on a stem; the stem letters cancel into the
    # relator, which a search assembling words from scratch would miss
    w = (1,) + COMMUTATOR + (-1,)
    assert brute_area(ZP, w, 4) == 1
    cert = search_filling(ZP, w, 4)
    assert len(cert.factors) == 1
    assert cert.reduced_word() == w


def test_brute_area_rectangles():
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert brute_area(ZP, rect(p, q), 5, max_len=12) == p * q


def test_brute_area_input_invariances():
    w = rect(1, 2)
    spurred = (2, -2) + w
    assert brute_area(ZP, spurred, 4) == brute_area(ZP, w, 4) == 2
    assert brute_area(ZP, invert(w), 4) == 2


def test_brute_area_rejects_foreign_letters():
    with pytest.raises(ValidationError, match="outside the presentation"):
        brute_area(ZP, (5,), 2)


def test_searches_reject_more_generators_than_a_byte_holds():
    # search words spend one byte per letter, two codes per generator
    gens = tuple(f"g{i}" for i in range(1, MAX_RANK + 2))
    widest = Presentation(gens[:MAX_RANK], ((MAX_RANK,),))
    assert brute_area(widest, (MAX_RANK,), 1) == 1
    assert search_filling(widest, (MAX_RANK,), 1) is not None
    p = Presentation(gens, ((MAX_RANK + 1,),))
    m = AbelianizationMap(1, ((0,),) * (MAX_RANK + 1))
    for search in (
        lambda: brute_area(p, (MAX_RANK + 1,), 1),
        lambda: search_filling(p, (MAX_RANK + 1,), 1),
        lambda: build_scheme_entry(p, m, 1, {}, max_area=1),
    ):
        with pytest.raises(ValidationError, match=f"at most {MAX_RANK} generators"):
            search()


def test_search_filling_certificates_reduce_to_target():
    plain_relators = set(ZP.relators) | {invert(r) for r in ZP.relators}
    for w in (COMMUTATOR, rect(2, 1), rect(2, 2), (1,) + COMMUTATOR + (-1,)):
        cert = search_filling(ZP, w, 5, max_len=12)
        assert cert is not None
        assert cert.reduced_word() == free_reduce(w)
        assert all(r in plain_relators for _, r in cert.factors)


def test_search_filling_unreachable():
    assert search_filling(ZP, (1, 2), 2) is None


def test_search_filling_pins_certificates():
    # a rotation-0 insertion is conjugated by its bare prefix ((b) in [a, b^2]),
    # a rotated one also by the relator letters from the rotation on
    expected = {
        COMMUTATOR: ((),),
        (1, 2, 2, -1, -2, -2): ((), (2,)),
        rect(2, 2): ((), (2,), (2, 2, 1, 1, -2, -1), (2, 2, 1, 1, -2, -2, -1)),
        rect(2, 1): ((), (2, 1, 1, -2, -1)),
    }
    for w, conjugators in expected.items():
        cert = search_filling(ZP, w, 4)
        assert cert.factors == tuple((u, COMMUTATOR) for u in conjugators)
    # area 6: [a^2, b^3] at its default bounds
    w = rect(2, 3)
    conjugators = (
        (),
        (2,),
        (2, 2),
        (2, 2, 2, 1, 1, -2, -1),
        (2, 2, 2, 1, 1, -2, -2, -1),
        (2, 2, 2, 1, 1, -2, -2, -2, -1),
    )
    assert search_filling(ZP, w, 6).factors == tuple((u, COMMUTATOR) for u in conjugators)
    assert brute_area(ZP, w, 6) == 6


def test_search_ends_at_once_on_words_with_nonzero_exponent_sum():
    # both exponent sums vanish on [a, b], so these words are not
    # null-homotopic; a search through 50 levels would never end
    for w in ((1, 2), (1,), (2, 2, -1, 2)):
        assert brute_area(ZP, w, 50) is None
        assert search_filling(ZP, w, 50) is None
    # no exponent sum rules out [x, y] in the Heisenberg group, but e_z plus
    # the signed (x, y)-area vanishes on every relator and is 1 on [x, y]
    assert brute_area(HP, (1, 2, -1, -2), 3) is None
    assert brute_area(HP, (1, 2, -1, -2, -3), 3) == 1


def test_certificate_to_diagram_single_cell():
    cert = FillingCertificate((((), COMMUTATOR),))
    d = certificate_to_diagram(ZP, ZM, cert, (0,))
    assert d.boundary_word == COMMUTATOR
    assert d.area == 1
    assert d.base_label == (0,)


def test_certificate_to_diagram_empty():
    d = certificate_to_diagram(ZP, ZM, FillingCertificate(()), (2,))
    assert d.area == 0
    assert d.boundary_word == ()
    assert d.base_label == (2,)


def test_certificate_to_diagram_lollipop():
    cert = FillingCertificate((((1,), COMMUTATOR),))
    d = certificate_to_diagram(ZP, ZM, cert, (0,))
    assert d.boundary_word == (1,) + COMMUTATOR + (-1,)
    assert d.area == 1


def test_certificate_to_diagram_shared_stem():
    cert = FillingCertificate((((1,), COMMUTATOR), ((1,), COMMUTATOR)))
    d = certificate_to_diagram(ZP, ZM, cert, (0,))
    assert d.boundary_word == (1,) + COMMUTATOR + COMMUTATOR + (-1,)
    assert d.area == 2


def test_certificate_to_diagram_cancelling_petals_leave_nothing():
    cert = FillingCertificate((((), COMMUTATOR), ((), invert(COMMUTATOR))))
    d = certificate_to_diagram(ZP, ZM, cert, (0,))
    assert d.area == 0
    assert d.boundary_word == ()


def test_certificate_to_diagram_area_bound_on_searched():
    for w in (rect(2, 2), rect(1, 2)):
        cert = search_filling(ZP, w, 5, max_len=12)
        assert cert.reduced_word() == free_reduce(w)
        d = certificate_to_diagram(ZP, ZM, cert, (0,))
        assert d.boundary_word == w
        assert d.area <= len(cert.factors)


def sample_words(q, target_len, count, rng_seed):
    certs = sample_corridor_certificates(ZP, ZM, q, target_len, count, rng_seed)
    return [c.reduced_word() for c in certs]


def test_sampler_is_deterministic_and_confined():
    words = sample_words(q=3.0, target_len=12, count=8, rng_seed=11)
    again = sample_words(q=3.0, target_len=12, count=8, rng_seed=11)
    assert words == again
    for w in words:
        assert w
        assert len(w) <= 12
        assert project(ZM, w) == (0,)
        assert all(norm(l) <= 3.0 + 1e-9 for l in prefix_labels(ZM, w))
    other = sample_words(q=3.0, target_len=12, count=8, rng_seed=12)
    assert other != words


def test_sampler_validates_radius():
    with pytest.raises(ValidationError, match="below the largest letter step"):
        sample_words(q=0.5, target_len=8, count=1, rng_seed=0)


def test_sampler_budget_exhaustion():
    with pytest.raises(SearchBudgetError, match="budget exhausted"):
        sample_words(q=1.0, target_len=2, count=1, rng_seed=0)


def test_build_scheme_entry_matches_handmade():
    built = build_scheme_entry(ZP, ZM, 1, {2: (2,), -2: (-2,)}, max_area=2)
    hand = z2_entry(1)
    assert built.conj == hand.conj
    assert built.fillings[0].boundary_word == COMMUTATOR
    assert canonical_signature(built.fillings[0]) == canonical_signature(hand.fillings[0])


@pytest.mark.parametrize(
    "name, bounds", [("z2", {"max_area": 2}), ("heisenberg", {"max_area": 4, "max_len": 12})]
)
def test_build_scheme_entry_builds_each_filling_once(monkeypatch, name, bounds):
    # the fixture builds: each hat word's filling, spurs included, is one
    # Diagram.build
    p, m, s = _load_bundle(name)
    calls = []
    diagram_build = Diagram.build.__func__

    def count(cls, *args, **kwargs):
        calls.append(cls)
        return diagram_build(cls, *args, **kwargs)

    monkeypatch.setattr(Diagram, "build", classmethod(count))
    for e in s.entries:
        calls.clear()
        built = build_scheme_entry(p, m, e.t, {x: tuple(w) for x, w in e.conj.items()}, **bounds)
        assert len(calls) == len(p.relators)
        assert [f.boundary_word for f in built.fillings.values()] == [
            f.boundary_word for f in e.fillings.values()
        ]


def test_build_scheme_entry_unfilled():
    with pytest.raises(FillingSearchError) as err:
        build_scheme_entry(ZP, ZM, 1, {2: (2,), -2: (-2,)}, max_area=0)
    assert err.value.unfilled == [0]


def test_build_scheme_entry_rejects_unwitnessed_table():
    with pytest.raises(CertificationError, match="not a relator variant"):
        build_scheme_entry(ZP, ZM, 1, {2: (1,), -2: (-1,)}, max_area=2)


def test_tower_diagram_z2():
    e = z2_entry(1)
    d = tower_diagram(e, COMMUTATOR, 3, (0,))
    assert d.boundary_word == COMMUTATOR
    assert d.base_label == (0,)
    assert d.area == 7
    assert len(d.vertices) == 10
    assert d.metrics()["norm"] == 4.0
    flat = tower_diagram(e, COMMUTATOR, 0, (0,))
    assert flat.area == 1


def test_tower_diagram_validation():
    e = z2_entry(1)
    with pytest.raises(ValidationError, match="nonnegative"):
        tower_diagram(e, COMMUTATOR, -1, (0,))
    with pytest.raises(ValidationError, match="relator variant"):
        tower_diagram(e, (1, 2, -1), 1, (0,))


def test_annular_collar_word_mismatch():
    e = z2_entry(1)
    bld = DiagramBuilder(ZP, ZM)
    cell = bld.path(COMMUTATOR)
    bld.add_cell(cell)
    with pytest.raises(ValidationError, match="does not hat onto"):
        annular_collar(bld, cell, e, (2, -1, -2, 1))


def test_wasteful_diagram_z2():
    s = z2_scheme()
    cert = FillingCertificate((((), COMMUTATOR), ((1,), (2, -1, -2, 1))))
    d = wasteful_diagram(s, cert, q=5.0)
    assert d.boundary_word == cert.reduced_word()
    assert d.metrics()["norm"] > 7.0
    assert all(norm(d.labels[v]) <= 1.0 for v in d.boundary_vertices)
    assert d.area == (2 * 8 + 1) + (2 * 9 + 1)


def test_heisenberg_entries_verify_and_certify(heis_scheme):
    k = certify_coverage(heis_scheme, 0.05)
    assert k.a > 0.0
    assert k.b > 0.0
    assert k.q_min == max(k.b * k.b / k.a, k.a)
    assert k.B == 5
    assert k.grid_spacing == 0.05


def test_heisenberg_hat_fillings_are_tight(heis_scheme):
    for e in heis_scheme.entries:
        for i, r in enumerate(HP.relators):
            f = e.fillings[i]
            assert f.base_label == HM.column(e.t)
            assert f.area <= 4


def test_heisenberg_gap_lipschitz_property(heis_scheme):
    import random

    from vkpush.abelianization import Character

    k = certify_coverage(heis_scheme, 0.05)
    rng = random.Random(3)
    for _ in range(40):
        v1 = [rng.gauss(0, 1) for _ in range(2)]
        v2 = [rng.gauss(0, 1) for _ in range(2)]
        if norm(v1) < 1e-6 or norm(v2) < 1e-6:
            continue
        u1, u2 = Character.from_vector(v1), Character.from_vector(v2)
        step = norm(tuple(a - b for a, b in zip(u1.direction, u2.direction)))
        for e in heis_scheme.entries:
            g1, g2 = table_gap(u1, e), table_gap(u2, e)
            if math.isinf(g1) or math.isinf(g2):
                continue
            assert abs(g1 - g2) <= k.lipschitz_bound * step + 1e-9


def test_heisenberg_sphere_coverage_property(heis_scheme):
    import random

    from vkpush.abelianization import Character

    k = certify_coverage(heis_scheme, 0.05)
    rng = random.Random(5)
    for _ in range(60):
        v = [rng.gauss(0, 1) for _ in range(2)]
        if norm(v) < 1e-6:
            continue
        u = Character.from_vector(v)
        assert max(table_gap(u, e) for e in heis_scheme.entries) >= k.a - 1e-9


def test_heisenberg_tower_central_words(heis_scheme):
    ex = heis_scheme.entries[0]
    r2 = HP.relators[1]
    d = tower_diagram(ex, r2, 2, (0, 0))
    assert d.boundary_word == r2
    assert d.metrics()["norm"] == 3.0
    with pytest.raises(ValidationError, match="not fixed"):
        tower_diagram(ex, HP.relators[0], 1, (0, 0))


def test_heisenberg_wasteful_from_sampled(heis_scheme):
    # five seeded certificates over central variants only: rotations of
    # [x,z] and [y,z] and their inverses, on conjugators of at most 2 letters
    pool = sorted(v for v in HP.variant_set if set(map(abs, v)) in ({1, 3}, {2, 3}))
    letters = sorted(HP.letters())
    rng = random.Random(9)
    certs = []
    while len(certs) < 5:
        cert = FillingCertificate(
            tuple(
                (free_reduce(tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))), rng.choice(pool))
                for _ in range(rng.randint(1, 4))
            )
        )
        if cert.reduced_word():
            certs.append(cert)
    for cert in certs:
        d = wasteful_diagram(heis_scheme, cert, q=4.0)
        assert d.boundary_word == cert.reduced_word()
        assert d.metrics()["norm"] > 5.5
