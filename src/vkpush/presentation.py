"""Words over a finite generating set, and finite presentations.

A word is a tuple of nonzero ints: generator i (zero-based) appears as
+(i + 1), its inverse as -(i + 1).  Tuples keep words hashable, so they can
key caches and sets directly.  All text parsing and serialization of words
lives here as well; the grammar is whitespace-separated tokens of the form
``name`` or ``name^-1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]


class ValidationError(ValueError):
    """Raised for malformed input data: words, presentations, maps, diagrams."""


def invert(w: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(w))


def free_reduce(w: Iterable[int]) -> Word:
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def is_freely_reduced(w: Sequence[int]) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def cyclic_reduce(w: Sequence[int]) -> Word:
    v = free_reduce(w)
    while len(v) >= 2 and v[0] == -v[-1]:
        v = v[1:-1]
    return v


def is_cyclically_reduced(w: Sequence[int]) -> bool:
    if not is_freely_reduced(w):
        return False
    return len(w) < 2 or w[0] != -w[-1]


def rotations(w: Word) -> Iterator[Word]:
    if not w:
        yield w
        return
    for j in range(len(w)):
        yield w[j:] + w[:j]


def _parse_tokens(text: str, generators: Sequence[str]) -> Word:
    if not isinstance(text, str):
        raise ValidationError(f"expected a word or letter as text, not {text!r}")
    index = {name: i + 1 for i, name in enumerate(generators)}
    letters: list[int] = []
    for token in text.split():
        if token.endswith("^-1"):
            name, sign = token[: -len("^-1")], -1
        else:
            name, sign = token, 1
        if "^" in name:
            raise ValidationError(f"malformed token {token!r}: only ^-1 is allowed")
        if name not in index:
            raise ValidationError(f"unknown generator {name!r} in token {token!r}")
        letters.append(sign * index[name])
    return tuple(letters)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator names plus cyclically reduced relators."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValidationError("a presentation needs at least one generator")
        seen = set()
        for name in self.generators:
            if not isinstance(name, str) or not name:
                raise ValidationError("generator names must be nonempty strings")
            if any(c.isspace() for c in name) or "^" in name:
                raise ValidationError(f"generator name {name!r} contains reserved characters")
            if name in seen:
                raise ValidationError(f"duplicate generator name {name!r}")
            seen.add(name)
        k = len(self.generators)
        for r in self.relators:
            if not r:
                raise ValidationError("relators must be nonempty")
            for x in r:
                if not isinstance(x, int) or x == 0 or abs(x) > k:
                    raise ValidationError(f"letter {x!r} outside the generator alphabet")
            if not is_cyclically_reduced(r):
                raise ValidationError(f"relator {r!r} is not cyclically reduced")

    @classmethod
    def from_texts(cls, generators: Sequence[str], relator_texts: Sequence[str]) -> "Presentation":
        gens = tuple(generators)
        relators = []
        for text in relator_texts:
            r = cyclic_reduce(_parse_tokens(text, gens))
            if not r:
                raise ValidationError(f"relator {text!r} reduces to the empty word")
            relators.append(r)
        return cls(gens, tuple(relators))

    @classmethod
    def from_json_dict(cls, obj: object) -> "Presentation":
        if not isinstance(obj, dict):
            raise ValidationError("presentation JSON must be an object")
        gens = obj.get("generators")
        rels = obj.get("relators")
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise ValidationError("presentation JSON needs a 'generators' list of strings")
        if not isinstance(rels, list) or not all(isinstance(r, str) for r in rels):
            raise ValidationError("presentation JSON needs a 'relators' list of strings")
        return cls.from_texts(gens, rels)

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [word_to_text(r, self) for r in self.relators],
        }

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def max_relator_length(self) -> int:
        return max(len(r) for r in self.relators) if self.relators else 0

    def letters(self) -> tuple[int, ...]:
        k = len(self.generators)
        return tuple(range(1, k + 1)) + tuple(range(-1, -k - 1, -1))

    @cached_property
    def variant_origin(self) -> dict[Word, tuple[int, int, int]]:
        """Map each relator cyclic variant to (relator index, sign, rotation).

        First occurrence wins, so lookups are deterministic when variants
        coincide across relators or signs.
        """
        table: dict[Word, tuple[int, int, int]] = {}
        for i, r in enumerate(self.relators):
            for sign, base in ((1, r), (-1, invert(r))):
                for j, v in enumerate(rotations(base)):
                    table.setdefault(v, (i, sign, j))
        return table

    @cached_property
    def variant_set(self) -> frozenset[Word]:
        return frozenset(self.variant_origin)

    @cached_property
    def area_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs i < j of generators whose exponent sums vanish on every relator."""
        flat = [g for g in range(1, self.rank + 1) if all(r.count(g) == r.count(-g) for r in self.relators)]
        return tuple((i, j) for i in flat for j in flat if i < j)

    def phi(self, w: Sequence[int]) -> tuple[int, ...]:
        """Exponent sums of w, then its signed (i, j)-area for each area pair: the
        running sum of i, added at each letter j and subtracted at each j^-1.
        Free reduction keeps phi, and inserting a relator variant v adds phi(v).
        """
        sums = [0] * (self.rank + 1)
        areas = [0] * len(self.area_pairs)
        for x in w:
            s = 1 if x > 0 else -1
            areas = [a + s * sums[i] * (j == abs(x)) for a, (i, j) in zip(areas, self.area_pairs)]
            sums[abs(x)] += s
        return tuple(sums[1:]) + tuple(areas)

    @cached_property
    def relator_lattice(self) -> dict[int, list[int]]:
        """Echelon basis, pivot -> row, of the integer lattice the relators' phi span."""
        basis: dict[int, list[int]] = {}
        for r in self.relators:
            row = list(self.phi(r))
            for c in range(len(row)):
                b = basis.get(c)
                if row[c] and b is None:
                    basis[c] = row
                    break
                # Euclid on column c by unimodular row moves: b keeps the gcd
                while row[c]:
                    b, row = row, [x - b[c] // row[c] * y for x, y in zip(b, row)]
                if b is not None:
                    basis[c] = b
        return basis

    def spans(self, w: Sequence[int]) -> bool:
        """Whether phi(w) is in the relators' integer lattice; a word outside is not null-homotopic."""
        row = self.phi(w)
        for c, b in sorted(self.relator_lattice.items()):
            if row[c] % b[c]:
                return False
            row = [x - row[c] // b[c] * y for x, y in zip(row, b)]
        return not any(row)


def parse_word(text: str, p: Presentation) -> Word:
    """Parse a whitespace-separated word; no free reduction is performed."""
    return _parse_tokens(text, p.generators)


def letter_token(x: int, p: Presentation) -> str:
    if x == 0 or abs(x) > len(p.generators):
        raise ValidationError(f"letter {x!r} outside the generator alphabet")
    name = p.generators[abs(x) - 1]
    return name if x > 0 else name + "^-1"


def parse_letter(token: str, p: Presentation) -> int:
    w = _parse_tokens(token, p.generators)
    if len(w) != 1:
        raise ValidationError(f"expected a single letter, got {token!r}")
    return w[0]


def parse_key(key: str, what: str, kind: str) -> int:
    """The integer a JSON object key spells, read only in canonical decimal form.

    ``int`` also reads signs, leading zeros, spaces, underscores and
    non-ASCII digits, so "1" and "01" would name one integer.
    """
    try:
        n = int(key)
    except ValueError:
        n = None
    if n is None or str(n) != key:
        raise ValidationError(f"{what} {key!r} is not {kind} in canonical decimal form")
    return n


def word_to_text(w: Sequence[int], p: Presentation) -> str:
    return " ".join(letter_token(x, p) for x in w)
