from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from vkpush.presentation import (
    Presentation,
    ValidationError,
    cyclic_reduce,
    free_reduce,
    invert,
    letter_token,
    parse_letter,
    parse_word,
    word_to_text,
)


@pytest.fixture
def z2():
    return Presentation.from_texts(["a", "b"], ["a b a^-1 b^-1"])


def test_parse_commutator_gives_signed_letters(z2):
    assert parse_word("a b a^-1 b^-1", z2) == (1, 2, -1, -2)


def test_parse_keeps_unreduced_pairs(z2):
    assert parse_word("a a^-1", z2) == (1, -1)


def test_parse_rejects_unknown_generator(z2):
    with pytest.raises(ValidationError, match="unknown generator"):
        parse_word("c", z2)


def test_parse_rejects_other_exponents(z2):
    with pytest.raises(ValidationError, match="only \\^-1"):
        parse_word("a^2", z2)


def test_parse_empty_text_is_empty_word(z2):
    assert parse_word("", z2) == ()


def test_free_reduce_examples():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -2, 1)) == (1, 1)
    assert free_reduce(()) == ()


def test_cyclic_reduce_strips_conjugating_ends():
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((1, -1)) == ()


def test_commutator_has_eight_variants(z2):
    variants = z2.variant_set
    assert len(variants) == 8
    assert (-1, 2, 1, -2) in variants  # a^-1 b a b^-1
    assert invert(z2.relators[0]) in variants


def test_square_word_has_two_variants():
    assert Presentation(("a",), ((1, 1),)).variant_set == frozenset({(1, 1), (-1, -1)})


def test_presentation_rejects_empty_relator_tuple():
    with pytest.raises(ValidationError, match="nonempty"):
        Presentation(("a",), ((),))


def test_letters_outside_the_alphabet_are_refused(z2):
    with pytest.raises(ValidationError) as info:
        Presentation(("a",), ((2,),))
    assert str(info.value) == "letter 2 outside the generator alphabet"
    with pytest.raises(ValidationError) as info:
        letter_token(0, z2)
    assert str(info.value) == "letter 0 outside the generator alphabet"


def test_word_text_round_trip(z2):
    w = (1, 2, -1, -2, 2, 2)
    assert parse_word(word_to_text(w, z2), z2) == w


def test_letter_token_and_parse_letter(z2):
    assert letter_token(-2, z2) == "b^-1"
    assert parse_letter("b^-1", z2) == -2
    with pytest.raises(ValidationError):
        parse_letter("a b", z2)


def test_presentation_stores_relators_cyclically_reduced(z2):
    p = Presentation.from_texts(["a", "b"], ["b a b a^-1 b^-1 b^-1"])
    assert p.relators[0] in z2.variant_set


def test_presentation_rejects_trivial_relator():
    with pytest.raises(ValidationError, match="empty word"):
        Presentation.from_texts(["a"], ["a a^-1"])


def test_presentation_rejects_duplicate_generator():
    with pytest.raises(ValidationError, match="duplicate"):
        Presentation(("a", "a"), ())


def test_presentation_rejects_unreduced_relator_tuple():
    with pytest.raises(ValidationError, match="cyclically reduced"):
        Presentation(("a", "b"), ((1, -1, 2),))


def test_presentation_json_round_trip(z2):
    again = Presentation.from_json_dict(z2.to_json_dict())
    assert again == z2


def test_variant_origin_tags_rotation_and_sign(z2):
    r = z2.relators[0]
    assert z2.variant_origin[r] == (0, 1, 0)
    idx, sign, rot = z2.variant_origin[invert(r)]
    assert (idx, sign) == (0, -1) and rot == 0
    assert z2.variant_origin[(2, -1, -2, 1)] == (0, 1, 1)


letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
words = st.lists(letters, max_size=30).map(tuple)


@given(words)
def test_free_reduce_is_idempotent_and_shorter(w):
    red = free_reduce(w)
    assert len(red) <= len(w)
    assert free_reduce(red) == red


@given(words)
def test_word_times_inverse_reduces_to_identity(w):
    assert free_reduce(w + invert(w)) == ()


@given(words.filter(lambda w: len(free_reduce(w)) > 0))
def test_variant_count_divides_twice_length(w):
    r = cyclic_reduce(w)
    if not r:
        return
    gens = ("a", "b", "c")
    variants = Presentation(gens, (r,)).variant_set
    assert (2 * len(r)) % len(variants) == 0
    for v in variants:
        assert Presentation(gens, (v,)).variant_set == variants
