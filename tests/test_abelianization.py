from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from vkpush.abelianization import (
    AbelianizationMap,
    Character,
    check_compatible,
    norm,
    prefix_labels,
    project,
)
from vkpush.presentation import Presentation, ValidationError


@pytest.fixture
def z2():
    return Presentation.from_texts(["a", "b"], ["a b a^-1 b^-1"])


@pytest.fixture
def z2_map(z2):
    return AbelianizationMap.from_json_dict(
        {"rank": 1, "columns": {"a": [1], "b": [0]}}, z2
    )


@pytest.fixture
def heis():
    return Presentation.from_texts(
        ["x", "y", "z"],
        [
            "x y x^-1 y^-1 z^-1",
            "x z x^-1 z^-1",
            "y z y^-1 z^-1",
            "x^-1 y x y^-1 z",
            "y^-1 x y x^-1 z^-1",
        ],
    )


@pytest.fixture
def heis_map(heis):
    return AbelianizationMap.from_json_dict(
        {"rank": 2, "columns": {"x": [1, 0], "y": [0, 1], "z": [0, 0]}}, heis
    )


def test_compatible_maps_have_no_violations(z2, z2_map, heis, heis_map):
    assert check_compatible(z2_map, z2) == []
    assert check_compatible(heis_map, heis) == []


def test_incompatible_map_reports_first_offender(z2):
    m = AbelianizationMap.from_json_dict(
        {"rank": 1, "columns": {"a": [1], "b": [1]}}, z2
    )
    problems = check_compatible(m, z2)
    assert problems == []  # commutator still dies in an abelian target

    heis_like = Presentation.from_texts(["a", "b"], ["a a b"])
    m2 = AbelianizationMap.from_json_dict(
        {"rank": 1, "columns": {"a": [1], "b": [0]}}, heis_like
    )
    problems = check_compatible(m2, heis_like)
    assert len(problems) == 1 and "relator 0" in problems[0]


def test_map_json_requires_every_generator(z2):
    with pytest.raises(ValidationError, match="missing"):
        AbelianizationMap.from_json_dict({"rank": 1, "columns": {"a": [1]}}, z2)
    with pytest.raises(ValidationError, match="unknown"):
        AbelianizationMap.from_json_dict(
            {"rank": 1, "columns": {"a": [1], "b": [0], "c": [2]}}, z2
        )


def test_map_json_round_trip(heis, heis_map):
    again = AbelianizationMap.from_json_dict(heis_map.to_json_dict(heis), heis)
    assert again == heis_map


def test_project_walks_columns(heis, heis_map):
    w = (1, 2, -1, -2, -3)  # x y x^-1 y^-1 z^-1
    assert project(heis_map, w) == (0, 0)
    assert project(heis_map, (1, 2), base=(3, 4)) == (4, 5)


def test_prefix_labels_include_both_ends(z2, z2_map):
    labels = prefix_labels(z2_map, (1, 2, -1, -2), base=(1,))
    assert labels == [(1,), (2,), (2,), (1,), (1,)]


def test_norm_is_euclidean():
    assert norm((3, 4)) == pytest.approx(5.0)
    assert norm((0,)) == 0.0


def test_character_requires_unit_length():
    with pytest.raises(ValidationError):
        Character((1.0, 1.0))
    u = Character.from_vector((3, 4))
    assert u.direction == pytest.approx((0.6, 0.8))
    with pytest.raises(ValidationError):
        Character.from_vector((0, 0))


def test_lipschitz_is_max_column_norm(heis_map):
    assert heis_map.lipschitz == pytest.approx(1.0)
    m = AbelianizationMap(2, ((3, 4), (0, 1)))
    assert m.lipschitz == pytest.approx(5.0)


unit_words = st.lists(
    st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=20
).map(tuple)


@given(unit_words)
def test_projection_is_lipschitz_in_word_length(w):
    m = AbelianizationMap(1, ((1,), (0,)))
    assert norm(project(m, w)) <= m.lipschitz * len(w) + 1e-9


@given(unit_words, st.floats(min_value=0.01, max_value=math.tau - 0.01))
def test_negating_character_flips_prefix_extrema(w, angle):
    m = AbelianizationMap(2, ((1, 0), (0, 1)))
    u = Character.from_vector((math.cos(angle), math.sin(angle)))
    neg = Character.from_vector((-math.cos(angle), -math.sin(angle)))
    labels = prefix_labels(m, w, (0, 0))
    lo = min(u.value(lbl) for lbl in labels)
    hi = max(u.value(lbl) for lbl in labels)
    assert min(neg.value(lbl) for lbl in labels) == pytest.approx(-hi, abs=1e-9)
    assert lo <= hi + 1e-9
