"""Homomorphisms to Z^n, vertex labels, characters, and path valuations.

Labels and columns are exact integer tuples; floats only appear in norms and
character directions.  All float comparisons elsewhere in the package use a
1e-9 tolerance, characters are normalized to unit length within 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, mul, sub
from typing import Sequence

from vkpush.presentation import Presentation, ValidationError, Word

Vector = tuple[int, ...]

FLOAT_TOL = 1e-9
UNIT_TOL = 1e-12


def norm(v: Sequence[float]) -> float:
    return math.hypot(*v)


def vec_add(v: Vector, w: Vector) -> Vector:
    return tuple(map(add, v, w))


def vec_sub(v: Vector, w: Vector) -> Vector:
    return tuple(map(sub, v, w))


def dot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(map(mul, u, v))


@dataclass(frozen=True)
class AbelianizationMap:
    """Map to Z^n given by one integer column per generator, in order."""

    rank: int
    columns: tuple[Vector, ...]
    # letter -> its signed column; derived from columns, so it takes no part
    # in equality or hashing
    signed_columns: dict[int, Vector] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValidationError("rank must be a positive integer")
        for col in self.columns:
            if len(col) != self.rank:
                raise ValidationError(f"column {col!r} does not have rank {self.rank} entries")
            if not all(type(c) is int for c in col):
                raise ValidationError(f"column {col!r} has non-integer entries")
        signed: dict[int, Vector] = {}
        for g, col in enumerate(self.columns, 1):
            signed[g] = col
            signed[-g] = tuple(-c for c in col)
        object.__setattr__(self, "signed_columns", signed)

    @classmethod
    def from_json_dict(cls, obj: object, p: Presentation) -> "AbelianizationMap":
        if not isinstance(obj, dict):
            raise ValidationError("map JSON must be an object")
        rank = obj.get("rank")
        cols = obj.get("columns")
        if type(rank) is not int:
            raise ValidationError("map JSON needs an integer 'rank'")
        if not isinstance(cols, dict):
            raise ValidationError("map JSON needs a 'columns' object")
        missing = [g for g in p.generators if g not in cols]
        if missing:
            raise ValidationError(f"columns missing for generators {missing}")
        unknown = [name for name in cols if name not in p.generators]
        if unknown:
            raise ValidationError(f"columns given for unknown generators {unknown}")
        ordered = []
        for g in p.generators:
            col = cols[g]
            if not isinstance(col, list):
                raise ValidationError(f"column for {g!r} must be a list")
            ordered.append(tuple(col))
        return cls(rank, tuple(ordered))

    def to_json_dict(self, p: Presentation) -> dict:
        return {
            "rank": self.rank,
            "columns": {g: list(col) for g, col in zip(p.generators, self.columns)},
        }

    def column(self, letter: int) -> Vector:
        return self.signed_columns[letter]

    @property
    def zero(self) -> Vector:
        return (0,) * self.rank

    @property
    def lipschitz(self) -> float:
        return max((norm(col) for col in self.columns), default=0.0)


def check_compatible(m: AbelianizationMap, p: Presentation) -> list[str]:
    """Return one message per violated constraint; empty means compatible."""
    problems = []
    if len(m.columns) != len(p.generators):
        problems.append(
            f"map has {len(m.columns)} columns for {len(p.generators)} generators"
        )
        return problems
    for i, r in enumerate(p.relators):
        image = project(m, r)
        if any(image):
            problems.append(f"relator {i} maps to {list(image)}, not zero")
    return problems


def project(m: AbelianizationMap, w: Word, base: Vector | None = None) -> Vector:
    acc = list(base) if base is not None else [0] * m.rank
    for x in w:
        col = m.column(x)
        for d in range(m.rank):
            acc[d] += col[d]
    return tuple(acc)


def prefix_labels(m: AbelianizationMap, w: Word, base: Vector | None = None) -> list[Vector]:
    """Labels of all |w|+1 path vertices, the empty prefix included."""
    cur = tuple(base) if base is not None else m.zero
    out = [cur]
    for x in w:
        cur = vec_add(cur, m.column(x))
        out.append(cur)
    return out


@dataclass(frozen=True)
class Character:
    """A unit direction on the sphere; pairs with labels via the dot product."""

    direction: tuple[float, ...]

    def __post_init__(self) -> None:
        length = norm(self.direction)
        if abs(length - 1.0) > UNIT_TOL:
            raise ValidationError(f"character direction has norm {length}, expected 1")

    @classmethod
    def from_vector(cls, v: Sequence[float]) -> "Character":
        length = norm(v)
        if length <= 0:
            raise ValidationError("cannot normalize the zero vector to a character")
        return cls(tuple(c / length for c in v))

    def value(self, label: Sequence[float]) -> float:
        return dot(self.direction, label)
