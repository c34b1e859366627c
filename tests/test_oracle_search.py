"""The oracle's insertion search against a plain reference search.

``reference_insertion_search`` runs on decoded words: it reduces every
candidate as a whole word and records every level, the last one included.  The differential tests run each search both ways, through the
same move lists, and ask for the same chain.  The reference ignores the
area lower bound the peel search prunes with, so the tests also show that
pruning never changes a chain.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from vkpush import oracle
from vkpush.oracle import MAX_RANK, _decode, _encode, brute_area, build_scheme_entry, search_filling
from vkpush.abelianization import prefix_labels
from vkpush.presentation import Presentation, free_reduce, invert, is_freely_reduced

ZP = Presentation.from_texts(("a", "b"), ("a b a^-1 b^-1",))
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
# [a^2, b^3]: a b a^-1 b^-1 is not null-homotopic, yet every exponent sum vanishes
P23 = Presentation.from_texts(("a", "b"), ("a a b b b a^-1 a^-1 b^-1 b^-1 b^-1",))


def reference_insertion_search(p, start, goal, moves, max_area, max_len):
    # searches decoded words, encoding each only to ask for its moves and
    # to hand the parent links to the chain extraction
    start, goal = _decode(start), _decode(goal)
    if start == goal:
        return []
    parent = {start: None}
    frontier = [start]
    for _ in range(max_area):
        nxt = []
        for u in frontier:
            for v, pos in moves(_encode(u), False):
                cand = free_reduce(u[:pos] + _decode(v) + u[pos:])
                if len(cand) > max_len or cand in parent:
                    continue
                parent[cand] = (u, v, pos)
                if cand == goal:
                    links, w = {}, goal
                    while parent[w] is not None:
                        prev, v, pos = parent[w]
                        links[_encode(w)] = (_encode(prev), v, pos)
                        w = prev
                    links[_encode(w)] = None
                    return oracle._insertion_chain(p, links, _encode(goal))
                nxt.append(cand)
        if not nxt:
            break
        frontier = nxt
    return None


@pytest.fixture
def chains(monkeypatch):
    """Runs every insertion search both ways and records the agreed chains."""
    fast = oracle._insertion_search
    seen = []

    def both(p, start, goal, moves, max_area, max_len, max_words, bound=None):
        got = fast(p, start, goal, moves, max_area, max_len, max_words, bound)
        assert got == reference_insertion_search(p, start, goal, moves, max_area, max_len)
        seen.append(got)
        return got

    monkeypatch.setattr(oracle, "_insertion_search", both)
    return seen


def commutator_power(p, q):
    return (1,) * p + (2,) * q + (-1,) * p + (-2,) * q


def random_null_words(pres, seed, count, factors):
    rng = random.Random(seed)
    variants = sorted(pres.variant_set)
    letters = pres.letters()
    out = []
    while len(out) < count:
        raw = []
        for _ in range(rng.randint(1, factors)):
            u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            raw += u + rng.choice(variants) + invert(u)
        w = free_reduce(raw)
        if w:
            out.append(w)
    return out


def test_peel_matches_reference_on_commutator_powers(chains):
    # [a, b^6] is left out: the reference search takes about 17 s on it
    pairs = [(p, q) for p in range(1, 6) for q in range(1, 6) if p * q <= 6]
    for p, q in pairs:
        assert brute_area(ZP, commutator_power(p, q), p * q) == p * q
    assert len(chains) == len(pairs)


# up to three petals in Z^2, where area-3 words are cheap; up to two in the
# Heisenberg group, where one area-3 word costs seconds
@pytest.mark.parametrize(
    "pres, seed, factors",
    [(ZP, 1, 3), (ZP, 3, 3), (HP, 2, 2), (HP, 5, 2)],
    ids=["z2-seed1", "z2-seed3", "heis-seed2", "heis-seed5"],
)
def test_peel_matches_reference_on_random_words(chains, pres, seed, factors):
    for w in random_null_words(pres, seed, 8, factors):
        for max_area in range(5):
            for max_len in (None, len(w), len(w) + 4):
                search_filling(pres, w, max_area, max_len)
    assert None in chains and any(c for c in chains)


def test_peel_matches_reference_on_non_null_words(chains):
    for pres, w, max_area in (
        (HP, (3,), 3),
        (HP, (1, 2, -1, -2), 3),
        (P23, (1, 1, 1, 2, 2, -1, -1, -1, -2, -2), 3),
        (P23, (1,) * 6 + (2, -1, -1, -1, -1, -1, -1, -2), 3),
        (ZP, (1, 2), 4),
    ):
        assert brute_area(pres, w, max_area) is None
    # phi(w) leaves the relators' lattice for z and [x, y] in the Heisenberg
    # group and for a b in Z^2; [a^3, b^2] and [a^6, b] have A_ab = 6, on the
    # lattice 6Z of [a^2, b^3], so they are the two words searched
    assert len(chains) == 2


def test_words_off_the_integer_lattice_are_rejected_without_a_search():
    # [a, b] and [a^2, b] have A_ab = 1 and 2: in the rational span of the
    # relator's 6 but not in 6Z.  A search would store a word and overrun
    # max_words=1 at once.
    assert P23.relator_lattice == {2: [0, 0, 6]}
    for w in ((1, 2, -1, -2), (1, 1, 2, -1, -1, -2)):
        assert not P23.spans(w)
        assert brute_area(P23, w, 5, max_words=1) is None
    assert P23.spans((1, 1, 1, 2, 2, -1, -1, -1, -2, -2))


def test_box_searches_match_reference(chains, z2_bundle, heisenberg_bundle):
    for (p, m, s), bounds in ((z2_bundle, {"max_area": 2}), (heisenberg_bundle, {"max_area": 4, "max_len": 12})):
        for e in s.entries:
            build_scheme_entry(p, m, e.t, {x: tuple(w) for x, w in e.conj.items()}, **bounds)
    assert len(chains) == 2 * 1 + 4 * 5


def reference_box_moves(p, m, target, base_label):
    """The box search's moves, testing each variant's window at each prefix label."""
    bounds = prefix_labels(m, target, base_label)
    lo = tuple(min(lbl[i] for lbl in bounds) for i in range(m.rank))
    hi = tuple(max(lbl[i] for lbl in bounds) for i in range(m.rank))
    windows = []
    for v in sorted(p.variant_set):
        offsets = prefix_labels(m, v)
        wlo = tuple(lo[i] - min(o[i] for o in offsets) for i in range(m.rank))
        whi = tuple(hi[i] - max(o[i] for o in offsets) for i in range(m.rank))
        windows.append((_encode(v), wlo, whi))

    def moves(u):
        labels = prefix_labels(m, _decode(u), base_label)
        return [
            (v, pos)
            for v, wlo, whi in windows
            for pos, lbl in enumerate(labels)
            if all(a <= x <= b for a, x, b in zip(wlo, lbl, whi))
        ]

    return moves


def test_box_moves_match_reference(monkeypatch, z2_bundle, heisenberg_bundle):
    boxed, search = oracle._boxed_filling, oracle._insertion_search
    checked = []

    def boxed_against_reference(p, m, target, base_label, max_area, max_len):
        want = reference_box_moves(p, m, target, base_label)

        def search_checking_moves(p, start, goal, moves, *bounds):
            def both(u, last):
                got = moves(u, last)
                assert got == want(u)
                checked.append(u)
                return got

            return search(p, start, goal, both, *bounds)

        monkeypatch.setattr(oracle, "_insertion_search", search_checking_moves)
        try:
            return boxed(p, m, target, base_label, max_area, max_len)
        finally:
            monkeypatch.setattr(oracle, "_insertion_search", search)

    monkeypatch.setattr(oracle, "_boxed_filling", boxed_against_reference)
    for (p, m, s), bounds in ((z2_bundle, {"max_area": 2}), (heisenberg_bundle, {"max_area": 4, "max_len": 12})):
        for e in s.entries:
            build_scheme_entry(p, m, e.t, {x: tuple(w) for x, w in e.conj.items()}, **bounds)
    assert len(checked) >= 2 * 1 + 4 * 5  # one move list or more per box search


VARIANTS = sorted(ZP.variant_set | HP.variant_set)
letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
words = st.lists(letters, max_size=12).map(tuple)


@st.composite
def insertions(draw):
    v = draw(st.sampled_from(VARIANTS))
    if draw(st.booleans()):
        u = free_reduce(draw(words))
        return u, v, draw(st.integers(0, len(u)))
    # u carries v^-1 split at the insertion point, so v is used up and the
    # two halves of u meet
    head = draw(words)
    tail = draw(st.one_of(words, st.just(invert(head))))
    s = draw(st.integers(0, len(v)))
    u = head + invert(v[:s]) + invert(v[s:]) + tail
    assume(is_freely_reduced(u))
    return u, v, len(head) + s


@given(insertions())
def test_seam_reduction_equals_whole_word_reduction(case):
    # a one-level search reaches its goal iff its one insertion, reduced at
    # the seams, gives exactly the goal
    u, v, pos = case
    goal = _encode(free_reduce(u[:pos] + v + u[pos:]))
    p = ZP if v in ZP.variant_set else HP
    move = [(_encode(v), pos)]
    chain = oracle._insertion_search(p, _encode(u), goal, lambda w, last: move, 1, len(goal), 1)
    assert chain is not None and len(chain) == 1


def test_encoding_round_trips_every_letter():
    letters = [x for g in range(1, MAX_RANK + 1) for x in (g, -g)]
    codes = _encode(tuple(letters))
    assert sorted(codes) == list(range(2 * MAX_RANK))
    assert _decode(codes) == tuple(letters)
    for x in letters:
        assert _encode((-x,))[0] == _encode((x,))[0] ^ 1


def test_peel_stores_few_words_under_the_area_bound():
    # A_ab is 6 on [a^2, b^3] in Z^2 and no insertion moves it by more than
    # 1, so every word the search keeps is on its way down; unpruned, the
    # peel stores 56,439 words here
    assert brute_area(ZP, commutator_power(2, 3), 6, max_words=3000) == 6


PRESENTATIONS = {"z2": ZP, "heis": HP, "p23": P23}


def area_lower_bound(p, w):
    """max over coordinates c of ceil(|phi_c(w)| / M_c), M_c the largest |phi_c| of a relator."""
    caps = [max(abs(f[c]) for f in map(p.phi, p.relators)) for c in range(len(p.phi(())))]
    return max((math.ceil(abs(x) / m) for x, m in zip(p.phi(w), caps) if m), default=0)


@given(st.sampled_from(sorted(PRESENTATIONS)), words)
def test_phi_is_invariant_under_free_reduction(name, w):
    p = PRESENTATIONS[name]
    w = tuple(x for x in w if abs(x) <= p.rank)
    assert p.phi(w) == p.phi(free_reduce(w))


@given(st.sampled_from(sorted(PRESENTATIONS)), words, st.data())
def test_phi_adds_up_over_insertions(name, u, data):
    p = PRESENTATIONS[name]
    u = free_reduce(x for x in u if abs(x) <= p.rank)
    v = data.draw(st.sampled_from(sorted(p.variant_set)))
    pos = data.draw(st.integers(0, len(u)))
    cand = free_reduce(u[:pos] + v + u[pos:])
    assert p.phi(cand) == tuple(a + b for a, b in zip(p.phi(u), p.phi(v)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PRESENTATIONS)), st.integers(0, 10**6))
def test_area_lower_bound_never_exceeds_the_reference_area(name, seed):
    p = PRESENTATIONS[name]
    factors = 3 if p is ZP else 2
    w = random_null_words(p, seed, 1, factors)[0]

    def unpruned(p, start, goal, moves, max_area, max_len, max_words, bound):
        return reference_insertion_search(p, start, goal, moves, max_area, max_len)

    with mock.patch.object(oracle, "_insertion_search", unpruned):
        chain = oracle._peel_chain(p, w, factors, None, oracle.MAX_WORDS)
    assert chain is not None
    assert area_lower_bound(p, w) <= len(chain)
