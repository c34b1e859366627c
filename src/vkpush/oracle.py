"""Ground-truth search tools: brute areas, certificates, samplers, towers.

The searches know nothing about corridors or pushing, so their answers can
be trusted as independent oracles in tests.  One level-synchronous insertion search
serves both word searches; each run supplies its own ordered moves.  The area
search runs from the queried word down to the empty word; its moves insert a
cyclic relator variant whose last letter cancels the letter at the insertion
point, which is how deleting a boundary cell rewrites the boundary word, so
the first level that reaches the empty word is the area.  Gersten's class-2
invariants (Presentation.phi) bound it below: a word whose phi leaves the
relators' span is not null-homotopic, and a word whose phi needs more cells
than the levels left is dropped.  Its last level is a goal test that stores no
word and skips words whose cyclic core is not as long as some relator.  The
scheme-filling search runs from the empty word up to the target, because its
box constraint speaks about the labels swept while building.  The builders
serve the push as well: ``annular_collar`` builds the collar that
``pusher._pushed_star`` puts around each corner filling, and the tower
builders and ``wasteful_diagram`` produce deliberately wasteful fillings
for the pushing loop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate
from operator import add, gt
from typing import Callable

from vkpush.abelianization import (
    AbelianizationMap,
    Vector,
    dot,
    norm,
    prefix_labels,
    project,
    vec_add,
)
from vkpush.diagram import Diagram, DiagramBuilder
from vkpush.presentation import (
    Presentation,
    ValidationError,
    Word,
    free_reduce,
    invert,
    word_to_text,
)
from vkpush.scheme import (
    CertificationError,
    PushingScheme,
    SchemeEntry,
    conjugation_problems,
    hat_word,
    verify_entry,
)


class SearchBudgetError(RuntimeError):
    """A randomized search ran out of attempts before filling its quota."""


class FillingSearchError(RuntimeError):
    """The exhaustive filling search came up empty for some relators."""

    def __init__(self, message: str, unfilled: list[int]):
        super().__init__(message)
        self.unfilled = unfilled


@dataclass(frozen=True)
class FillingCertificate:
    """Factorization of a null-homotopic word as a product of conjugated relators.

    Each factor (u, r) stands for u r u^-1 with r a relator or inverse
    relator; the full product freely reduces to the certified word.
    """

    factors: tuple[tuple[Word, Word], ...]

    def product_word(self) -> Word:
        out: list[int] = []
        for u, r in self.factors:
            out.extend(u)
            out.extend(r)
            out.extend(invert(u))
        return tuple(out)

    def reduced_word(self) -> Word:
        return free_reduce(self.product_word())


def _check_letters(p: Presentation, w: Word) -> None:
    letters = set(p.letters())
    for x in w:
        if x not in letters:
            raise ValidationError(f"word uses letter {x!r} outside the presentation")


# Search words are bytes: letter x is the code 2(|x| - 1) + (x < 0), so the
# inverse of code c is c ^ 1, and one byte holds the letters of at most
# MAX_RANK generators.  Words are decoded back to tuples only for the chain.
MAX_RANK = 128
_LETTER = tuple(-(c // 2 + 1) if c & 1 else c // 2 + 1 for c in range(2 * MAX_RANK))

# Stored words at which a search gives up.  The largest search of the tests,
# the fixture builds and the benchmark, a Heisenberg box search, stores 5,159
# words, the largest peel there ([a^2, b^3]) 1,678; the area-9 peel of
# [a^3, b^3] stores 241,597 (about 80 MB).
MAX_WORDS = 4_000_000

Move = tuple[bytes, int]


def _check_rank(p: Presentation) -> None:
    if p.rank > MAX_RANK:
        raise ValidationError(
            f"the oracle's searches take at most {MAX_RANK} generators, not {p.rank}"
        )


def _encode(w: Word) -> bytes:
    return bytes(2 * abs(x) - 2 + (x < 0) for x in w)


def _decode(u: bytes) -> Word:
    return tuple(map(_LETTER.__getitem__, u))


def _insertion_search(
    p: Presentation,
    start: bytes,
    goal: bytes,
    moves: Callable[[bytes, bool], list[Move]],
    max_area: int,
    max_len: int,
    max_words: int,
    bound: tuple | None = None,
) -> list[tuple[Word, Word, int]] | None:
    """Chain of insertions from start to goal, found level by level.

    moves(u, last) lists, in search order, the (variant, position)
    insertions tried on the encoded word u; last marks the final level,
    which only tests for goal and records no word.  The first insertion that
    reaches a freely reduced word is kept, and the search stops at the first
    discovery of goal, so the chain depends only on the move order.  None
    when goal is not reached within max_area insertions and max_len letters;
    SearchBudgetError once more than max_words words are stored.

    A bound (phi(start) - phi(goal), each variant's phi, M) drops each word
    u with level + h(u) > max_area, h(u) = max_c ceil(|phi_c(u)| / M_c); no
    insertion moves h by more than 1, so the chain stays the same.
    """
    if start == goal:
        return []
    phi, table, weights = bound or ((), {}, ())
    parent: dict[bytes, tuple[bytes, bytes, int] | None] = {start: None}
    frontier = [(start, phi)]
    for level in range(max_area):
        last = level == max_area - 1
        limits = [(max_area - level - 1) * m for m in weights]
        nxt: list[tuple[bytes, tuple[int, ...]]] = []
        for u, fu in frontier:
            if bound is not None:
                # phi of every candidate that can still reach goal, by variant
                sums = {v: tuple(map(add, fu, fv)) for v, fv in table.items()}
                ahead = {v: f for v, f in sums.items() if not any(map(gt, map(abs, f), limits))}
                if not ahead:
                    continue
            n = len(u)
            for v, pos in moves(u, last):
                f = fu if bound is None else ahead.get(v)
                if f is None:
                    continue
                # free_reduce(u[:pos] + v + u[pos:]) for freely reduced u and v:
                # letters cancel only at the two seams where v meets u, and,
                # once v is used up, between the two halves of u
                i, j, k, m = pos, 0, pos, len(v)
                while j < m and i and u[i - 1] == v[j] ^ 1:
                    i -= 1
                    j += 1
                while m > j and k < n and v[m - 1] == u[k] ^ 1:
                    m -= 1
                    k += 1
                if j == m:
                    while i and k < n and u[i - 1] == u[k] ^ 1:
                        i -= 1
                        k += 1
                cand = u[:i] + v[j:m] + u[k:]
                if cand == goal:
                    parent[cand] = (u, v, pos)
                    return _insertion_chain(p, parent, goal)
                if last or len(cand) > max_len or cand in parent:
                    continue
                parent[cand] = (u, v, pos)
                nxt.append((cand, f))
            if len(parent) > max_words:
                raise SearchBudgetError(
                    f"search budget of {max_words} stored words exhausted at area {level + 1}"
                )
        if not nxt:
            break
        frontier = nxt
    return None


def _insertion_chain(
    p: Presentation, parent: dict[bytes, tuple[bytes, bytes, int] | None], goal: bytes
) -> list[tuple[Word, Word, int]]:
    """(prefix, relator, rotation) per insertion, the last insertion first.

    The inserted variant is the relator rotated left by rotation letters,
    placed right after prefix.
    """
    chain: list[tuple[Word, Word, int]] = []
    step = parent[goal]
    while step is not None:
        prev, v, pos = step
        i, sign, j = p.variant_origin[_decode(v)]
        s = p.relators[i] if sign == 1 else invert(p.relators[i])
        chain.append((_decode(prev[:pos]), s, j))
        step = parent[prev]
    return chain


def _peel_chain(
    p: Presentation, w: Word, max_area: int, max_len: int | None, max_words: int
) -> list[tuple[Word, Word, int]] | None:
    """Insertion chain from w down to the empty word, one cell deletion per step.

    Deleting a cell that meets the boundary in the letter at position pos
    replaces that letter by the rest of the cell's relator; as a word move
    this is the insertion of the variant ending in the cancelling inverse
    letter.  Every filling of w can be consumed this way cell by cell, so the
    chain's length is the exact filling area whenever max_len admits the
    rewritten boundaries.
    """
    _check_rank(p)
    word = free_reduce(w)
    _check_letters(p, word)
    if max_area < 0:
        raise ValidationError("max_area must be nonnegative")
    if max_len is None:
        max_len = len(word) + max_area * p.max_relator_length
    if not word:
        return []
    if len(word) > max_len or not p.spans(word):
        return None
    table = {_encode(v): p.phi(v) for v in sorted(p.variant_set)}
    # phi(word) is now 0 where no variant moves phi; elsewhere the area is
    # at least ceil(|phi_c(word)| / M_c), with M_c the largest |phi_c(v)|
    live = [c for c, col in enumerate(zip(*table.values())) if any(col)]
    weights = tuple(max(abs(f[c]) for f in table.values()) for c in live)
    table = {v: tuple(f[c] for c in live) for v, f in table.items()}
    bound = (tuple(p.phi(word)[c] for c in live), table, weights)
    # per code: the variants whose last letter cancels it
    by_code = [[v for v in table if v[-1] == c ^ 1] for c in range(2 * p.rank)]
    lengths = {len(r) for r in p.relators}

    def moves(u: bytes, last: bool) -> list[Move]:
        if last:
            # one insertion empties u only if u is a conjugate of an inverse
            # variant, so its cyclic core must be as long as a relator
            i, j = 0, len(u) - 1
            while i < j and u[i] == u[j] ^ 1:
                i += 1
                j -= 1
            if j - i + 1 not in lengths:
                return []
        return [(v, pos) for pos, c in enumerate(u) for v in by_code[c]]

    return _insertion_search(p, _encode(word), b"", moves, max_area, max_len, max_words, bound)


def brute_area(
    p: Presentation,
    w: Word,
    max_area: int,
    max_len: int | None = None,
    max_words: int = MAX_WORDS,
) -> int | None:
    """Minimal filling area of w, or None if not found within bounds.

    With the default max_len = |w| + max_area * B every cell-by-cell
    consumption of a minimal filling stays within bounds, so the returned
    count is the true minimum.  A tighter cap can lose fillings and report a
    larger count or None, but never undercounts.
    """
    chain = _peel_chain(p, w, max_area, max_len, max_words)
    return None if chain is None else len(chain)


def search_filling(
    p: Presentation,
    w: Word,
    max_area: int,
    max_len: int | None = None,
    max_words: int = MAX_WORDS,
) -> FillingCertificate | None:
    """Certificate for free_reduce(w), or None if not found within bounds."""
    chain = _peel_chain(p, w, max_area, max_len, max_words)
    if chain is None:
        return None
    # a peeled cell is the inverse relator conjugated by the prefix and, for a
    # rotated variant, by the relator letters from the rotation on
    return FillingCertificate(
        tuple(
            (free_reduce(prefix + s[j:]) if j else prefix, invert(s))
            for prefix, s, j in reversed(chain)
        )
    )


def _boxed_filling(
    p: Presentation,
    m: AbelianizationMap,
    target: Word,
    base_label: Vector,
    max_area: int,
    max_len: int,
) -> FillingCertificate | None:
    """Certificate whose construction never leaves the target's label box.

    Every vertex of the resulting diagram is a prefix label of some
    intermediate insertion word, so vetoing insertions that step outside the
    coordinate-wise bounding box of the target boundary labels keeps the
    whole filling inside that box.  Such fillings never undercut the boundary
    in any linear direction, which is what a useful scheme filling must do;
    the unconstrained search happily returns smaller fillings that dip below
    the corridor and ruin the direction gap.
    """
    bounds = prefix_labels(m, target, base_label)
    lo = tuple(min(lbl[i] for lbl in bounds) for i in range(m.rank))
    hi = tuple(max(lbl[i] for lbl in bounds) for i in range(m.rank))
    word = free_reduce(target)
    _check_letters(p, word)
    if len(word) > max_len or max_area < 0:
        return None
    # a variant stays in the box iff its start label lies in its window: the
    # box shrunk by the variant's own label excursion from its start
    variants, windows = [], []
    for v in sorted(p.variant_set):
        offsets = prefix_labels(m, v)
        wlo = tuple(lo[i] - min(o[i] for o in offsets) for i in range(m.rank))
        whi = tuple(hi[i] - max(o[i] for o in offsets) for i in range(m.rank))
        variants.append(_encode(v))
        windows.append((wlo, whi))
    columns = [m.column(x) for x in _LETTER[: 2 * p.rank]]
    admitted: dict[Vector, list[int]] = {}  # label -> variants whose window holds it

    def moves(u: bytes, last: bool) -> list[Move]:
        hits = []
        for pos, lbl in enumerate(accumulate((columns[c] for c in u), vec_add, initial=base_label)):
            ids = admitted.get(lbl)
            if ids is None:
                ids = admitted[lbl] = [
                    i
                    for i, (wlo, whi) in enumerate(windows)
                    if all(a <= x <= b for a, x, b in zip(wlo, lbl, whi))
                ]
            hits.extend((i, pos) for i in ids)
        hits.sort()
        return [(variants[i], pos) for i, pos in hits]

    chain = _insertion_search(p, b"", _encode(word), moves, max_area, max_len, MAX_WORDS)
    if chain is None:
        return None
    return FillingCertificate(
        tuple((free_reduce(prefix + invert(s[:j])), s) for prefix, s, j in chain)
    )


def _check_factor(p: Presentation, u: Word, r: Word) -> None:
    _check_letters(p, u)
    if r not in p.variant_set:
        raise ValidationError(f"certificate factor {word_to_text(r, p)!r} is not a relator variant")


def _fold_walk(bld: DiagramBuilder, walk: list[int]) -> list[int]:
    """Stack-fold a walk until its word is freely reduced.

    An inverse-letter pair over one edge is a backtrack and simply drops out;
    over two edges the second folds onto the first and then drops out.
    """
    out: list[int] = []
    for d in walk:
        if out and bld.letter[out[-1]] == -bld.letter[d]:
            bld.alias(d, bld.twin[out[-1]])
            out.pop()
            continue
        out.append(d)
    return out


def certificate_to_diagram(
    p: Presentation,
    m: AbelianizationMap,
    cert: FillingCertificate,
    base_label: Vector,
    boundary: Word | None = None,
) -> Diagram:
    """Realize a certificate as a based diagram with boundary word ``boundary``.

    Builds the wedge of lollipops the factors describe, then folds the walk
    until its word is reduced.  Cancelling petals that pinch off as spheres
    are discarded.  ``boundary`` (default: the reduced product) must freely
    reduce to the product; each pair it cancels becomes a spur edge.
    """
    return _lollipops(p, m, cert, base_label, lambda bld, u, r: _cell(bld, r), boundary)


def _cell(bld: DiagramBuilder, r: Word) -> list[int]:
    petal = bld.path(r)
    bld.add_cell(petal)
    return petal


def _spurs(bld: DiagramBuilder, walk: list[int], boundary: Word) -> list[int]:
    """The reduced walk with a spur edge woven in for each pair boundary cancels."""
    closes: dict[int, int] = {}  # closing position -> opening position
    stack: list[int] = []
    for i, x in enumerate(boundary):
        if stack and boundary[stack[-1]] == -x:
            closes[i] = stack.pop()
        else:
            stack.append(i)
    if [boundary[i] for i in stack] != [bld.letter[d] for d in walk]:
        raise ValidationError(f"boundary {word_to_text(boundary, bld.p)!r} does not reduce to the product")
    out = dict(zip(stack, walk))
    for i, x in enumerate(boundary):
        if i in closes:
            out[i] = bld.twin[out[closes[i]]]
        elif i not in out:
            out[i] = bld.new_edge(x)[0]
    return [out[i] for i in range(len(boundary))]


def _lollipops(
    p: Presentation,
    m: AbelianizationMap,
    cert: FillingCertificate,
    base_label: Vector,
    petal: Callable[[DiagramBuilder, Word, Word], list[int]],
    boundary: Word | None = None,
) -> Diagram:
    """certificate_to_diagram with the petal of each factor (u, r) built by petal(bld, u, r)."""
    bld = DiagramBuilder(p, m)
    walk: list[int] = []
    for u, r in cert.factors:
        _check_factor(p, u, r)
        stem = bld.path(u)
        walk.extend(stem)
        walk.extend(petal(bld, u, r))
        walk.extend(bld.twin[s] for s in reversed(stem))
    walk = _fold_walk(bld, walk)
    if boundary is not None:
        walk = _spurs(bld, walk, boundary)
    return bld.build(walk, base_label, allow_bubbles=True)


def sample_corridor_certificates(
    p: Presentation,
    m: AbelianizationMap,
    q: float,
    target_len: int,
    count: int,
    rng_seed: int,
) -> list[FillingCertificate]:
    """Seeded certificates whose reduced products stay in the norm-q corridor.

    Every prefix of each reduced product has label norm at most q.  Petals
    draw from every relator variant; conjugators stay short so the
    attachment labels remain deep inside the corridor.
    """
    if q < m.lipschitz:
        raise ValidationError("corridor radius is below the largest letter step")
    if count < 0:
        raise ValidationError("count must be nonnegative")
    pool = sorted(p.variant_set)
    if not pool:
        raise ValidationError("the presentation has no relators to sample")
    letters = sorted(p.letters())
    rng = random.Random(rng_seed)
    results: list[FillingCertificate] = []
    attempts = 0
    budget = 400 * max(count, 1)

    def fits(word: Word) -> bool:
        if len(word) > target_len:
            return False
        return all(norm(lbl) <= q + 1e-9 for lbl in prefix_labels(m, word, m.zero))

    while len(results) < count:
        attempts += 1
        if attempts > budget:
            raise SearchBudgetError(
                f"sampling budget exhausted after {budget} attempts"
                f" (no loop of at most {target_len} letters inside corridor {q})"
            )
        factors: list[tuple[Word, Word]] = []
        wanted = rng.randint(1, 4)
        for _ in range(wanted):
            v = rng.choice(pool)
            u = free_reduce(tuple(rng.choice(letters) for _ in range(rng.randint(0, 2))))
            trial = FillingCertificate(tuple(factors + [(u, v)]))
            if fits(trial.reduced_word()):
                factors.append((u, v))
        cert = FillingCertificate(tuple(factors))
        if factors and cert.reduced_word():
            results.append(cert)
    return results


def build_scheme_entry(
    p: Presentation,
    m: AbelianizationMap,
    t: int,
    conj: dict[int, Word],
    max_area: int,
    max_len: int | None = None,
) -> SchemeEntry:
    """Assemble a verified scheme entry by searching fillings for every hat word.

    Fillings are searched box-first: a filling confined to the bounding box
    of its own boundary labels cannot dip below the corridor, so it keeps the
    direction gap positive.  Only when no boxed filling exists within the
    bounds does the unconstrained search get a say.  Each filling is built
    once, with the hat word itself as boundary, spurs included.

    A conjugation table that is not witnessed by the relators is rejected
    outright; missing fillings within the search bounds raise
    FillingSearchError listing the relators left unfilled.
    """
    _check_rank(p)
    problems = conjugation_problems(p, t, conj)
    if problems:
        raise CertificationError("; ".join(problems))
    probe = SchemeEntry(p, m, t, dict(conj), {})
    col = m.column(t)
    fillings: dict[int, Diagram] = {}
    unfilled: list[int] = []
    for i, r in enumerate(p.relators):
        target = hat_word(probe, r)
        cap = max_len if max_len is not None else len(free_reduce(target)) + max_area * p.max_relator_length
        cert = _boxed_filling(p, m, target, col, max_area, cap)
        if cert is None:
            cert = search_filling(p, target, max_area, max_len)
        if cert is None:
            unfilled.append(i)
            continue
        fillings[i] = certificate_to_diagram(p, m, cert, col, target)
    if unfilled:
        raise FillingSearchError(
            f"no filling found within bounds for relators {unfilled}", unfilled
        )
    entry = SchemeEntry(p, m, t, dict(conj), fillings)
    leftover = verify_entry(entry, p, m)
    if leftover:
        raise CertificationError("; ".join(leftover))
    return entry


def annular_collar(
    bld: DiagramBuilder, walk: list[int], e: SchemeEntry, outer_word: Word
) -> list[int]:
    """Add one ring of conjugation cells outside a closed walk; returns the outer path.

    The walk is the boundary of what bld holds so far, and the outer path
    spells outer_word, whose hat word must equal the walk's word letter for
    letter.  Letters equal to the direction degenerate to shared edges
    exactly as in the open corridor.  Each outer vertex is labelled with the
    inner one's label minus the direction's image.
    """
    if tuple(bld.letter[x] for x in walk) != hat_word(e, outer_word):
        raise ValidationError("collar outer word does not hat onto the inner boundary")
    k = len(outer_word)
    top = bld.path(outer_word)
    verticals = [bld.new_edge(e.t)[0] for _ in range(k)]
    pos = 0
    for i, x in enumerate(outer_word):
        vi, vj = verticals[i], verticals[(i + 1) % k]
        if x == e.t:
            bld.alias(vi, top[i])
            bld.alias(vj, walk[pos])
            pos += 1
        elif x == -e.t:
            bld.alias(vj, bld.twin[top[i]])
            bld.alias(vi, bld.twin[walk[pos]])
            pos += 1
        else:
            block = walk[pos : pos + len(e.conj[x])]
            pos += len(block)
            cell = [bld.twin[vi], top[i], vj]
            cell.extend(bld.twin[bk] for bk in reversed(block))
            bld.add_cell(cell)
    return top


def tower_diagram(e: SchemeEntry, word: Word, depth: int, base_label: Vector) -> Diagram:
    """A maximally redundant filling of word: depth collars over one core cell.

    Requires the word to be a relator variant fixed by the entry's hat map,
    so each collar repeats the boundary while shifting labels by the
    direction image.  Area grows linearly in depth; so does the label norm.
    The core's vertices keep the ids 0 to len(word) - 1.
    """
    bld = DiagramBuilder(e.presentation, e.amap)
    cell, walk = _tower(bld, e, word, depth)
    return bld.build(walk, base_label, vertex_hints={x: i for i, x in enumerate(cell)})


def _tower(bld: DiagramBuilder, e: SchemeEntry, word: Word, depth: int) -> tuple[list[int], list[int]]:
    """Add a tower's core cell and collars to bld; returns the core's darts and the outer walk."""
    if depth < 0:
        raise ValidationError("tower depth must be nonnegative")
    if word not in e.presentation.variant_set:
        raise ValidationError("tower core must be a relator variant")
    if hat_word(e, word) != word:
        raise ValidationError("tower word is not fixed by the entry's conjugations")
    cell = walk = _cell(bld, word)
    for _ in range(depth):
        walk = annular_collar(bld, walk, e, word)
    return cell, walk


# how far above q the core of a wasteful filling's tower reaches, at least
_TOWER_SLACK = 2.0


def _tower_choice(s: PushingScheme, v: Word, attach: Vector, q: float):
    """Entry and depth making a tower over v at attach poke above norm q."""
    candidates = [e for e in s.entries if v in e.presentation.variant_set and hat_word(e, v) == v]
    if not candidates:
        return None
    best = max(candidates, key=lambda e: dot(e.amap.column(e.t), attach))
    step = norm(best.amap.column(best.t))
    if step == 0.0:
        return None
    # core norm >= depth*step - |attach| > q + _TOWER_SLACK
    depth = max(1, math.ceil((q + _TOWER_SLACK + norm(attach)) / step) + 1)
    return best, depth


def wasteful_diagram(s: PushingScheme, cert: FillingCertificate, q: float) -> Diagram:
    """Certificate diagram whose petals are replaced by towers breaching norm q.

    Petals whose variant no entry fixes stay single cells.  The boundary is
    the certificate's reduced product, as for certificate_to_diagram, but the
    interior carries vertices far outside the corridor for pushes to work on.
    """
    p, m = s.presentation, s.amap

    def petal(bld: DiagramBuilder, u: Word, r: Word) -> list[int]:
        choice = _tower_choice(s, r, project(m, u, m.zero), q)
        if choice is None:
            return _cell(bld, r)
        entry, depth = choice
        return _tower(bld, entry, r, depth)[1]

    return _lollipops(p, m, cert, m.zero, petal)
