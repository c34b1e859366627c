"""Pushing schemes: finite corridor data plus machine certification.

A scheme entry fixes a corridor direction t and, for every other letter x, a
conjugation word conj(x) that equals t^-1 x t in the group, witnessed by a
single relator cell.  It also stores one based filling diagram per relator r
whose boundary spells the hat word of r (the letterwise conjugate, not
reduced).  Certification measures the uniform valuation gap these fillings
provide over the whole character sphere and derives the corridor constants.

Every valuation the gap needs is a character value of a vertex label: of a
filling, of a relator's path from the origin, or of a direction image.  A
scheme holds one ValuationTable, built once: the distinct labels of all of
these, with each label set stored as index tuples into that list.
choose_entry and certify_coverage read it through one scan,
ValuationTable.best_entry, so at one direction each distinct label's value
is one dot product and each relator's path minimum is taken once for all
entries.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from vkpush.abelianization import (
    AbelianizationMap,
    Character,
    Vector,
    dot,
    norm,
    prefix_labels,
    vec_sub,
)
from vkpush.diagram import Diagram
from vkpush.presentation import (
    Presentation,
    ValidationError,
    Word,
    invert,
    letter_token,
    parse_key,
    parse_letter,
    parse_word,
    word_to_text,
)

if TYPE_CHECKING:
    from vkpush.store import Template


class CertificationError(Exception):
    """A scheme failed verification or coverage certification."""


@dataclass
class SchemeEntry:
    presentation: Presentation
    amap: AbelianizationMap
    t: int
    conj: dict[int, Word]
    fillings: dict[int, Diagram]
    # a star's corner words -> its compiled replacement; the pusher fills it
    # on first use
    templates: dict[tuple[Word, ...], Template] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


@dataclass
class PushingScheme:
    presentation: Presentation
    amap: AbelianizationMap
    entries: tuple[SchemeEntry, ...]

    @cached_property
    def table(self) -> ValuationTable:
        """The scheme's valuation table, built on first use."""
        return _build_table(self.presentation, self.amap, self.entries)

    def verify(self) -> None:
        """Raise CertificationError unless every entry checks out."""
        if not self.entries:
            raise CertificationError("scheme has no entries")
        problems: list[str] = []
        for i, e in enumerate(self.entries):
            for msg in verify_entry(e, self.presentation, self.amap):
                problems.append(f"entry {i}: {msg}")
        if problems:
            raise CertificationError("; ".join(problems))

    def to_json_dict(self) -> dict:
        p = self.presentation
        return {
            "entries": [
                {
                    "t": letter_token(e.t, p),
                    "conj": {
                        letter_token(x, p): word_to_text(w, p)
                        for x, w in sorted(e.conj.items())
                    },
                    "fillings": {str(i): e.fillings[i].to_json_dict() for i in sorted(e.fillings)},
                }
                for e in self.entries
            ]
        }

    @classmethod
    def from_json_dict(cls, obj: object, p: Presentation, m: AbelianizationMap) -> "PushingScheme":
        if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
            raise ValidationError("scheme JSON must be an object with an 'entries' list")
        entries = []
        for raw in obj["entries"]:
            if not isinstance(raw, dict) or not {"t", "conj", "fillings"} <= set(raw):
                raise ValidationError(f"malformed scheme entry {raw!r}")
            t = parse_letter(raw["t"], p)
            if not isinstance(raw["conj"], dict) or not isinstance(raw["fillings"], dict):
                raise ValidationError("entry 'conj' and 'fillings' must be objects")
            conj = {
                parse_letter(tok, p): parse_word(text, p)
                for tok, text in raw["conj"].items()
            }
            fillings = {}
            for key, dia in raw["fillings"].items():
                idx = parse_key(key, "filling key", "a relator index")
                fillings[idx] = Diagram.from_json_dict(dia, p, m)
            entries.append(SchemeEntry(p, m, t, conj, fillings))
        return cls(p, m, tuple(entries))


@dataclass(frozen=True)
class SchemeConstants:
    a: float
    b: float
    A: float
    B: int
    q_min: float
    lipschitz: float
    grid_spacing: float | None
    lipschitz_bound: float

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "A": self.A,
            "B": self.B,
            "q_min": self.q_min,
            "grid_spacing": self.grid_spacing,
            "lipschitz_bound": self.lipschitz_bound,
        }


def hat_word(e: SchemeEntry, w: Word) -> Word:
    """Letterwise conjugate of w; t itself passes through.  Not reduced."""
    out: list[int] = []
    for x in w:
        if x == e.t or x == -e.t:
            out.append(x)
        elif x in e.conj:
            out.extend(e.conj[x])
        else:
            raise ValidationError(
                f"letter {letter_token(x, e.presentation)!r} has no conjugation word"
            )
    return tuple(out)


def conjugation_problems(p: Presentation, t: int, conj: dict[int, Word]) -> list[str]:
    """Violations of the conjugation table alone, independent of fillings."""
    letters = set(p.letters())
    if t not in letters:
        return [f"direction {t!r} is not a letter of the presentation"]
    problems: list[str] = []
    expected = letters - {t, -t}
    if set(conj) != expected:
        missing = sorted(expected - set(conj))
        extra = sorted(set(conj) - expected)
        return problems + [f"conjugation table mismatch (missing {missing}, extra {extra})"]
    for x in sorted(x for x in expected if x > 0):
        wx = conj[x]
        if not wx or any(y not in letters for y in wx):
            problems.append(f"conjugate of {letter_token(x, p)!r} is empty or uses unknown letters")
            continue
        if conj[-x] != invert(wx):
            problems.append(
                f"conjugates of {letter_token(x, p)!r} and its inverse are not inverse words"
            )
        cell = (-t, x, t) + invert(wx)
        if cell not in p.variant_set:
            problems.append(
                f"conjugation relation {word_to_text(cell, p)!r} is not a relator variant"
            )
    return problems


def verify_entry(e: SchemeEntry, p: Presentation, m: AbelianizationMap) -> list[str]:
    """All invariant violations of the entry; empty means the entry is valid."""
    problems: list[str] = []
    if e.presentation != p or e.amap != m:
        return ["entry was built against a different presentation or map"]
    letters = set(p.letters())
    if e.t not in letters:
        return [f"direction {e.t!r} is not a letter of the presentation"]
    if m.column(e.t) == m.zero:
        problems.append(f"direction {letter_token(e.t, p)!r} maps to zero; corridors cannot move")
    problems.extend(conjugation_problems(p, e.t, e.conj))
    if set(e.conj) != letters - {e.t, -e.t}:
        return problems  # hat words are undefined without a full table
    if set(e.fillings) != set(range(len(p.relators))):
        problems.append("fillings must cover exactly the relator indices")
        return problems
    col = m.column(e.t)
    for i, r in enumerate(p.relators):
        f = e.fillings[i]
        if f.presentation != p or f.amap != m:
            problems.append(f"filling {i} was built against a different presentation or map")
            continue
        want = hat_word(e, r)
        if f.boundary_word != want:
            problems.append(
                f"filling {i} boundary {word_to_text(f.boundary_word, p)!r}"
                f" differs from the hat word {word_to_text(want, p)!r}"
            )
        if f.base_label != col:
            problems.append(f"filling {i} base label {f.base_label} is not the direction image {col}")
    return problems


@dataclass(frozen=True)
class ValuationTable:
    """The distinct vertex labels that entry gaps are measured on.

    paths[i] indexes the labels of relator i's path from the origin; for
    entry k, advance[k] indexes the image of its direction t and fills[k][i]
    the labels of its filling of relator i.  Each index tuple lists its
    labels in first-appearance order, without repeats.
    """

    labels: tuple[Vector, ...]
    paths: tuple[tuple[int, ...], ...]
    advance: tuple[int, ...]
    fills: tuple[tuple[tuple[int, ...], ...], ...]

    def evaluate(self, direction: Sequence[float]) -> tuple[list[float], list[float]]:
        """Every label's value at the direction, and each relator's path minimum."""
        values = [dot(direction, lbl) for lbl in self.labels]
        lows = [min([values[j] for j in path]) for path in self.paths]
        return values, lows

    def entry_gap(
        self, k: int, values: list[float], lows: list[float], floor: float = -math.inf
    ) -> float:
        """Entry k's gap from evaluate's output; -inf when t does not advance.

        The worst valuation surplus of the entry's fillings over bare relator
        paths, over relators, inverses and rotations: mirrors keep labels and
        rotations shift the whole prefix set, so that is one difference per
        relator.  Stops at the first relator that brings the running minimum
        to floor or below, so a result <= floor only says the gap does not
        exceed it.
        """
        if values[self.advance[k]] <= 0.0:
            return -math.inf
        worst = math.inf
        for fill, low in zip(self.fills[k], lows):
            worst = min(worst, min([values[j] for j in fill]) - low)
            if worst <= floor:
                break
        return worst

    def best_entry(self, direction: Sequence[float], stop: float = math.inf) -> tuple[int, float]:
        """The first entry of strictly largest gap at the direction, and that gap.

        An entry stops at the first relator that brings its running minimum
        to the best gap so far, since it can no longer be the first strict
        maximum; the scan stops once the best gap reaches stop.  Returns
        (-1, -inf) when no entry advances along the direction.
        """
        values, lows = self.evaluate(direction)
        best_k, best = -1, -math.inf
        for k in range(len(self.advance)):
            g = self.entry_gap(k, values, lows, best)
            if g > best:
                best_k, best = k, g
                if best >= stop:
                    break
        return best_k, best


def _build_table(
    p: Presentation, m: AbelianizationMap, entries: Sequence[SchemeEntry]
) -> ValuationTable:
    index: dict[Vector, int] = {}

    def indices(labels) -> tuple[int, ...]:
        return tuple(index.setdefault(lbl, len(index)) for lbl in dict.fromkeys(labels))

    paths = tuple(indices(prefix_labels(m, r, m.zero)) for r in p.relators)
    advance = tuple(indices((m.column(e.t),))[0] for e in entries)
    fills = tuple(
        tuple(indices(e.fillings[i].labels.values()) for i in range(len(p.relators)))
        for e in entries
    )
    return ValuationTable(tuple(index), paths, advance, fills)


def choose_entry(s: PushingScheme, u: Character) -> tuple[SchemeEntry, float]:
    """The first entry of strictly largest gap at u; raises unless that gap is positive."""
    k, g = s.table.best_entry(u.direction)
    if g <= 0.0:
        raise CertificationError(f"character {u.direction} not covered by scheme")
    return s.entries[k], g


# Grids with more points are refused before any point is made.  At about 18
# microseconds a point on the Heisenberg fixture and 24 on a rank-3 bundle
# (2-core machine), the largest grid certifies in 4.5-6 s; the finest grid
# the tests or perfbench certify has 5,400 points.
MAX_GRID_POINTS = 250_000


def _grid_steps(n: int, delta: float) -> int:
    """Lattice steps along each cube-face axis for spacing delta in rank n > 1.

    Raises ValidationError when the grid would exceed MAX_GRID_POINTS; its
    2n (steps+1)^(n-1) points are counted in integers before any is made.
    """
    h = 2.0 * delta / math.sqrt(n - 1)
    ratio = 2.0 / h if h > 0.0 else math.inf
    if math.isfinite(ratio):
        steps = max(1, math.ceil(ratio))
        if 2 * n * (steps + 1) ** (n - 1) <= MAX_GRID_POINTS:
            return steps
    raise ValidationError(
        f"grid spacing {delta:g} needs more than {MAX_GRID_POINTS:,} sphere points in rank {n}"
    )


def _sphere_grid(n: int, delta: float) -> Iterator[Vector]:
    """A delta-net of the unit sphere: cube-face lattices projected radially.

    The radial projection is 1-Lipschitz outside the unit ball and every face
    point has norm at least 1, so face spacing delta gives sphere spacing
    delta.  Points are yielded one at a time.
    """
    steps = _grid_steps(n, delta)
    coords = [-1.0 + 2.0 * k / steps for k in range(steps + 1)]
    for axis in range(n):
        for sign in (1.0, -1.0):
            for combo in itertools.product(coords, repeat=n - 1):
                x = list(combo)
                x.insert(axis, sign)
                scale = math.hypot(*x)
                yield tuple(c / scale for c in x)


def certify_coverage(s: PushingScheme, grid_spacing: float) -> SchemeConstants:
    """Certify sphere coverage and derive the corridor constants.

    Rank 1 is handled exactly over the two unit characters; higher rank takes
    the minimum over a grid_spacing-net and subtracts the certified Lipschitz
    slack.  The spacing must be a positive finite number whose grid has at
    most MAX_GRID_POINTS points.

    Each direction is scanned once by ValuationTable.best_entry, the scan
    choose_entry makes, and two early exits skip work that cannot change
    the result.  An entry stops at the first relator that brings its running
    minimum to the best gap already found at this direction: it can no
    longer be the first strict maximum.  A direction stops once its best gap
    reaches the minimum over the directions before it, since it can no
    longer lower that minimum.  Every value that reaches a
    min or a max is the same dot product of the same label with the same
    Character.from_vector direction as in entry_gap without early exits, so
    the certified constants are the same floats as a minimum over the
    directions of the largest entry gap.
    """
    if (
        isinstance(grid_spacing, bool)
        or not isinstance(grid_spacing, (int, float))
        or not (math.isfinite(grid_spacing) and grid_spacing > 0)
    ):
        raise ValidationError("grid spacing must be a positive finite number")
    s.verify()
    p, m = s.presentation, s.amap
    if not p.relators:
        raise CertificationError("presentation has no relators to certify against")
    n = m.rank
    table = s.table
    labels = table.labels

    b = 0.0
    cap_A = 0.0
    for e, fills in zip(s.entries, table.fills):
        for i, (fill, path) in enumerate(zip(fills, table.paths)):
            cap_A = max(cap_A, float(len(p.relators[i]) + e.fillings[i].area))
            for j in fill:
                for l in path:
                    b = max(b, norm(vec_sub(labels[j], labels[l])))
    rotation_reach = max(
        norm(vec_sub(labels[l2], labels[l1]))
        for path in table.paths
        for l1 in path
        for l2 in path
    )
    lip_bound = 2.0 * max(b, rotation_reach)

    if n == 1:
        points: Iterable[Vector] = ((1.0,), (-1.0,))
        spacing: float | None = None
    else:
        points = _sphere_grid(n, grid_spacing)
        spacing = grid_spacing
    a = math.inf
    for x in points:
        a = min(a, table.best_entry(Character.from_vector(x).direction, a)[1])
    if spacing is not None:
        a -= lip_bound * spacing
    if not (math.isfinite(a) and a > 0.0):
        raise CertificationError("coverage not certified; refine grid or fix scheme")
    q_min = max(b * b / a, a)
    cap_B = p.max_relator_length
    return SchemeConstants(
        a=a,
        b=b,
        A=cap_A,
        B=cap_B,
        q_min=q_min,
        lipschitz=m.lipschitz,
        grid_spacing=spacing,
        lipschitz_bound=lip_bound,
    )
