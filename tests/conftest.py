import dataclasses
import itertools
import json
import pathlib
from typing import Sequence

import pytest

from vkpush import pusher
from vkpush.abelianization import AbelianizationMap, Character
from vkpush.diagram import Diagram, DiagramBuilder, norm_key
from vkpush.oracle import FillingCertificate, build_scheme_entry, sample_corridor_certificates, wasteful_diagram
from vkpush.presentation import Presentation, ValidationError, Word, invert
from vkpush.scheme import PushingScheme, SchemeEntry, certify_coverage, choose_entry, hat_word
from vkpush.store import DartStore

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _load_bundle(name: str) -> tuple[Presentation, AbelianizationMap, PushingScheme]:
    obj = json.loads((FIXTURES / f"{name}.json").read_text())
    p = Presentation.from_json_dict(obj["presentation"])
    m = AbelianizationMap.from_json_dict(obj["map"], p)
    s = PushingScheme.from_json_dict(obj["scheme"], p, m)
    return p, m, s


@pytest.fixture(scope="session")
def z2_bundle():
    return _load_bundle("z2")


@pytest.fixture(scope="session")
def heisenberg_bundle():
    return _load_bundle("heisenberg")


@pytest.fixture(scope="session")
def w1_runs(heisenberg_bundle):
    """ROADMAP workload W1, 20 wasteful loops sampled with seed 6, and their pushed finals."""
    p, m, s = heisenberg_bundle
    k = certify_coverage(s, 0.01)
    q = k.q_min + 1.0
    loops = [wasteful_diagram(s, c, q) for c in sample_corridor_certificates(p, m, q, 12, 20, 6)]
    return loops, [pusher.push_to_corridor(d, s, k, q)[0] for d in loops]


def build_z3_bundle() -> tuple[Presentation, AbelianizationMap, PushingScheme]:
    """A rank-3 bundle built here: Z^4 = <a, b, c, d | the six commutators> onto Z^3, d to 0.

    The kernel is Z, generated by d.  Each entry t = ±a, ±b, ±c conjugates
    every other letter to itself.  Every call builds fresh entries, whose
    template caches are empty.
    """
    names = ("a", "b", "c", "d")
    commutators = tuple(f"{x} {y} {x}^-1 {y}^-1" for x, y in itertools.combinations(names, 2))
    p = Presentation.from_texts(names, commutators)
    m = AbelianizationMap(rank=3, columns=((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)))
    entries = tuple(
        build_scheme_entry(p, m, t, {x: (x,) for x in p.letters() if abs(x) != abs(t)}, max_area=2)
        for t in (1, -1, 2, -2, 3, -3)
    )
    return p, m, PushingScheme(p, m, entries)


@pytest.fixture(scope="session")
def z3_bundle():
    return build_z3_bundle()


def build_f2_bundle() -> tuple[Presentation, AbelianizationMap, PushingScheme]:
    """A free-by-cyclic bundle built here: F2 x|_phi Z onto Z, with phi(a) = ab, phi(b) = a.

    The map sends t to 1 and a, b to 0, so the kernel is F2 = <a, b>.  The
    four relators give both entries their conjugation cells: t a t^-1 = ab
    and t b t^-1 = a for t^-1, t^-1 a t = b and t^-1 b t = b^-1 a for t.
    Every call builds fresh entries, whose template caches are empty.
    """
    p = Presentation.from_texts(
        ("a", "b", "t"), ("t a t^-1 b^-1 a^-1", "t b t^-1 a^-1", "t^-1 a t b^-1", "t^-1 b t a^-1 b")
    )
    m = AbelianizationMap(rank=1, columns=((0,), (0,), (1,)))
    conj = {3: {1: (2,), 2: (-2, 1)}, -3: {1: (1, 2), 2: (1,)}}
    entries = tuple(
        build_scheme_entry(p, m, t, {**c, **{-x: invert(w) for x, w in c.items()}}, max_area=3)
        for t, c in conj.items()
    )
    return p, m, PushingScheme(p, m, entries)


@pytest.fixture(scope="session")
def f2_bundle():
    return build_f2_bundle()


def build_f3_bundle() -> tuple[Presentation, AbelianizationMap, PushingScheme]:
    """A hyperbolic bundle built here: F3 x|_phi Z onto Z, with phi(a) = b, phi(b) = c, phi(c) = ab.

    The map sends t to 1 and a, b, c to 0, so the kernel is F3 = <a, b, c>.
    The six relators give both entries their conjugation cells: t x t^-1 =
    phi(x) for t^-1, and t^-1 a t = c a^-1, t^-1 b t = a, t^-1 c t = b, which
    is phi^-1, for t.  Every call builds fresh entries, whose template caches
    are empty.

    By Brinkmann's theorem the group is hyperbolic, as phi is atoroidal:

    - phi acts on H1(F3) = Z^3 with characteristic polynomial x^3 - x - 1.
      It is irreducible over Q, and so is the polynomial of every power of
      phi, as its real root is a Pisot unit of degree 3.  So phi is fully
      irreducible.
    - By Bestvina and Handel, a fully irreducible automorphism is atoroidal
      unless it is induced by a pseudo-Anosov map of a surface with one
      boundary component.
    - A surface with one boundary component and free fundamental group of
      rank 3 is non-orientable, and its boundary class in H1 is twice the sum
      of the crosscap generators, which is not zero.  phi would fix that
      class up to sign, but x^3 - x - 1 has no root 1 or -1.
    """
    p = Presentation.from_texts(
        ("a", "b", "c", "t"),
        (
            "t a t^-1 b^-1",
            "t b t^-1 c^-1",
            "t c t^-1 b^-1 a^-1",
            "t^-1 a t a c^-1",
            "t^-1 b t a^-1",
            "t^-1 c t b^-1",
        ),
    )
    m = AbelianizationMap(rank=1, columns=((0,), (0,), (0,), (1,)))
    conj = {4: {1: (3, -1), 2: (1,), 3: (2,)}, -4: {1: (2,), 2: (3,), 3: (1, 2)}}
    entries = tuple(
        build_scheme_entry(p, m, t, {**c, **{-x: invert(w) for x, w in c.items()}}, max_area=3)
        for t, c in conj.items()
    )
    return p, m, PushingScheme(p, m, entries)


@pytest.fixture(scope="session")
def f3_bundle():
    return build_f3_bundle()


def table_gap(u, e) -> float:
    """Entry e's valuation gap at the character u, read off a table of e alone."""
    table = PushingScheme(e.presentation, e.amap, (e,)).table
    return table.entry_gap(0, *table.evaluate(u.direction))


def concatenated_loops(
    p: Presentation, m: AbelianizationMap, q: float, count: int, rng_seed: int = 7
) -> FillingCertificate:
    """One long corridor loop: the factors of ``count`` sampled loops, end to end.

    Each sampled loop starts and ends at label zero with every prefix inside
    the corridor, so their product stays inside it too.
    """
    certs = sample_corridor_certificates(p, m, q, 12, count, rng_seed)
    return FillingCertificate(tuple(f for cert in certs for f in cert.factors))


def unpush(d: Diagram, s: PushingScheme, levels: int, zero_entry: SchemeEntry | None = None) -> Diagram:
    """Run ``levels`` push steps outward, away from the corridor, with no step audit.

    Each step takes the interior vertex of largest norm (by ``norm_key``)
    whose star ``DartStore.star`` accepts, and glues the template of the
    entry that ``choose_entry`` picks for the character +label; a vertex at
    label zero, which points nowhere, takes ``zero_entry``, by default the
    first entry.  The result goes through the full validator.
    """
    store = DartStore(d)
    labels = store.labels
    for _ in range(levels):
        for *_, v in sorted(map(norm_key, labels, labels.values())):
            try:
                star = store.star(v)
            except ValidationError:
                continue
            break
        else:
            raise ValidationError("no interior vertex has a regular star")
        lbl = labels[v]
        entry = choose_entry(s, Character.from_vector(lbl))[0] if any(lbl) else zero_entry or s.entries[0]
        store.apply(store.glue(star, pusher._template(entry, star.words)))
    return store.diagram()


@pytest.fixture
def unglued_replacements(monkeypatch):
    """Every star replacement offers its outer walk rotated by one, so none glues.

    The rotation is applied to what the template lookup hands out, so a
    template cached on a session-scoped bundle's entries is rotated too.
    """
    template = pusher._template

    def rotated(e, words):
        t = template(e, words)
        return dataclasses.replace(t, walk=t.walk[1:] + t.walk[:1])

    monkeypatch.setattr(pusher, "_template", rotated)


# -- reference orientation and base moves ---------------------------------
#
# A push step reads each corner's filling straight off the stored one
# (pusher._import_corner).  These build that filling as a validated diagram
# of its own, mirrored and re-based, as the tests' reference.


def mirror(d: Diagram) -> Diagram:
    """Reverse the orientation; the boundary word becomes its inverse."""
    if not d.darts:
        return d
    orbit = d.faces[0]
    return Diagram.build(
        d.presentation,
        d.amap,
        origin=d.origin,
        letter=d.letter,
        twin=d.twin,
        rotations={v: tuple(reversed(rot)) for v, rot in d.rotations.items()},
        base=d.base,
        base_label=d.base_label,
        boundary_face_dart=d.twin[orbit[-1]],
    )


def rebase_on_boundary(d: Diagram, position: int, base_label: Sequence[int] | None = None) -> Diagram:
    """Move the base to the boundary-walk vertex at ``position``.

    Labels shift so the new base carries ``base_label`` (default: its current
    label, leaving all labels unchanged).
    """
    walk = d.boundary_walk
    if not walk:
        if position != 0:
            raise ValidationError("the trivial diagram has only boundary position 0")
        label = d.base_label if base_label is None else tuple(base_label)
        return Diagram.build(
            d.presentation,
            d.amap,
            origin=[],
            letter=[],
            twin=[],
            rotations={d.base: ()},
            base=d.base,
            base_label=label,
            boundary_face_dart=None,
        )
    position %= len(walk)
    new_base = d.origin[walk[position]]
    new_bfd = d.boundary_face_dart if position == 0 else d.twin[walk[position - 1]]
    label = d.labels[new_base] if base_label is None else tuple(base_label)
    return Diagram.build(
        d.presentation,
        d.amap,
        origin=d.origin,
        letter=d.letter,
        twin=d.twin,
        rotations=d.rotations,
        base=new_base,
        base_label=label,
        boundary_face_dart=new_bfd,
    )


def adopt(bld: DiagramBuilder, d: Diagram) -> None:
    """Copy a diagram's darts into a fresh builder under their own ids."""
    for x in d.darts:
        bld.add_dart(x, d.letter[x], d.twin[x])
    bld._next = max(d.darts, default=0) + 1


def corner_instance(e: SchemeEntry, word: Word) -> Diagram:
    """The entry's filling of a relator variant as a diagram, re-based to bound one star corner."""
    p = e.presentation
    idx, sign, shift = p.variant_origin[word]
    f = e.fillings[idx]
    bw = p.relators[idx]
    if sign == -1:
        f = mirror(f)
        bw = invert(bw)
    return rebase_on_boundary(f, len(hat_word(e, bw[:shift])))


def dart_dicts(d: Diagram) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """A diagram's origin, letter and twin as dicts over its live darts, in id order."""
    darts = d.darts
    return tuple({x: field[x] for x in darts} for field in (d.origin, d.letter, d.twin))


def max_norm_vertex(d: Diagram) -> int:
    """The vertex a push step takes, by a scan: the reference for DartStore.max_norm_vertex.

    Deterministic argmax of the label norm.  Ties break toward the
    lexicographically smallest label, then the smallest vertex id; the
    comparison uses exact squared integers.
    """
    return min(d.vertices, key=lambda v: norm_key(v, d.labels[v]))
