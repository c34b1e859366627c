import dataclasses
import json
import pathlib
from typing import Sequence

import pytest

from vkpush import pusher
from vkpush.abelianization import AbelianizationMap
from vkpush.diagram import Diagram, DiagramBuilder
from vkpush.oracle import FillingCertificate, sample_corridor_certificates
from vkpush.presentation import Presentation, ValidationError, Word, invert
from vkpush.scheme import PushingScheme, SchemeEntry, hat_word

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
    if not d.origin:
        return d
    orbit = d.faces[d.boundary_face_index]
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
            origin={},
            letter={},
            twin={},
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
    for x in d.origin:
        bld.add_dart(x, d.letter[x], d.twin[x])
    bld._next = max(d.origin, default=0) + 1


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
