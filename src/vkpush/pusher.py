"""The pushing engine: replace worst-vertex stars until the corridor holds.

One step swaps the closed star of the maximum-norm vertex for a conjugation
ring plus one scheme filling per corner: the entry's stored filling of the
corner's relator, read from the corner's boundary point and mirrored for an
inverse relator.  That replacement depends only on the scheme entry and the
star's corner words, so it is assembled in one DiagramBuilder and compiled
into a ``store.Template`` once per such key, cached on the entry; a template
that fails its checks is never cached.  A run keeps one DartStore, which
glues the template along the link: a step costs O(star) and not O(diagram)
and builds no diagram, and the full validator runs once, on the final
diagram, which takes over the store's own lists.  What a template holds for
any host (relator words, one use per dart, interior rotations and labels)
is checked when it is compiled; the identifications and rotations at the
link, once per template and link shape; the walk word and the Euler
count, on every step.  The walk word and the labels the host holds along
its edges fix the labels at the link, so they need no check.  Every
quantitative promise the certified constants make is audited at runtime;
a violation is reported as a broken scheme, never glossed over.  Each
bound has one place.  ``_push_max``, the step audit, checks the per-step
bounds (new norms at most c - a/2, area growth at most A*degree) from what
the step removed and created, before it is applied, so a recorded step
has passed them.  ``push_to_corridor`` is the one entry point, and
``_audit`` the one place the run bounds (degree doubling, sweep cap,
(1+4AB)^sweeps area bound, boundary preservation) are computed: once per
run, on every trace the run returns or raises, which carries the checks
for the command line to report.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from vkpush.abelianization import FLOAT_TOL, Character, Vector, norm
from vkpush.diagram import Diagram, DiagramBuilder
from vkpush.oracle import annular_collar
from vkpush.presentation import ValidationError, Word, invert
from vkpush.scheme import (
    CertificationError,
    PushingScheme,
    SchemeConstants,
    SchemeEntry,
    choose_entry,
    hat_word,
)

if TYPE_CHECKING:
    from vkpush.store import DartStore, Surgery, Template


class PushError(RuntimeError):
    """A push precondition or an audited invariant failed.

    Carries the trace collected so far when raised mid-run.
    """

    def __init__(self, message: str, trace: "PushTrace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class PushStep:
    pushed_vertex_label: Vector
    c: float
    entry_used: int
    degree: int
    area_before: int
    area_after: int
    new_vertex_max_norm: float


@dataclass
class PushTrace:
    steps: list[PushStep]
    sweeps: int
    initial: Diagram
    final: Diagram
    original_degrees: dict[int, int]
    # final vertex id -> degree baseline: the original degree, or for a vertex
    # created by folding several originals together, the sum of theirs
    budgets: dict[int, int]
    # _audit's checks of the run, set when the run hands the trace out
    checks: dict


def _import_corner(bld: DiagramBuilder, e: SchemeEntry, word: Word) -> list[int]:
    """Copy the entry's filling of a relator variant into bld; returns its walk.

    The filling of the variant's relator, mirrored for an inverse variant
    (each cell and the walk reversed through the twins), with the walk
    starting at the hat block of the variant's first letter.
    """
    p = e.presentation
    idx, sign, shift = p.variant_origin[word]
    first = len(bld.cells)
    walk = bld.import_diagram(e.fillings[idx])
    bw = p.relators[idx]
    if sign == -1:
        twin = bld.twin
        bld.cells[first:] = [[twin[x] for x in reversed(cell)] for cell in bld.cells[first:]]
        walk = [twin[x] for x in reversed(walk)]
        bw = invert(bw)
    start = len(hat_word(e, bw[:shift]))
    return walk[start:] + walk[:start]


def _pushed_star(e: SchemeEntry, words: tuple[Word, ...]) -> tuple[DiagramBuilder, list[int]]:
    """Replacement for a star with these corner words: fillings around a hub, collared.

    Each corner gets the entry's filling of its word, read from the hat
    block of the word's first letter.  Adjacent fillings share one copy of
    each hatted spoke, so the complex comes out already cancelled.  The
    collar then joins the hatted link back to the link word.  Returns the
    builder holding the fillings and the collar, and the collar's outer
    path, whose word is the link word.
    """
    bld = DiagramBuilder(e.presentation, e.amap)
    spoke_words = [hat_word(e, w[:1]) for w in words]
    spoke_paths = [bld.path(w) for w in spoke_words]
    k = len(words)
    walk: list[int] = []
    for i, word in enumerate(words):
        bwalk = _import_corner(bld, e, word)
        nxt = (i + 1) % k
        no, nc = len(spoke_words[i]), len(spoke_words[nxt])
        for dd, ss in zip(bwalk[:no], spoke_paths[i]):
            bld.alias(dd, ss)
        tail = bwalk[len(bwalk) - nc :]
        for dd, ss in zip([bld.twin[x] for x in reversed(tail)], spoke_paths[nxt]):
            bld.alias(dd, ss)
        walk.extend(bwalk[no : len(bwalk) - nc])
    link_word = tuple(x for w in words for x in w[1:-1])
    return bld, annular_collar(bld, walk, e, link_word)


def _template(e: SchemeEntry, words: tuple[Word, ...]) -> Template:
    """The entry's compiled replacement for a star with these corner words.

    Built on the first use of a key and cached on the entry; a build that
    raises leaves nothing cached.
    """
    t = e.templates.get(words)
    if t is None:
        from vkpush.store import Template  # loaded on the first push

        t = e.templates[words] = Template.compile(*_pushed_star(e, words))
    return t


def _check_boundary_inside(d: Diagram, q: float) -> None:
    over = sorted(
        v for v in d.boundary_vertices if norm(d.labels[v]) > q + FLOAT_TOL
    )
    if over:
        worst = max(norm(d.labels[v]) for v in over)
        raise PushError(
            f"boundary exceeds corridor: {len(over)} boundary vertices reach norm {worst:.4f} > {q}"
        )


def _where(index: int, vertex: int, label: Vector, entry: int | None = None) -> str:
    """How a failed step names itself, after its message; an entry only once chosen."""
    chosen = "" if entry is None else f", entry {entry}"
    return f" (step {index}, vertex {vertex}, label {label}{chosen})"


def _push_max(
    store: DartStore,
    s: PushingScheme,
    k: SchemeConstants,
    choices: dict[Vector, tuple[SchemeEntry, int]],
    index: int = 0,
) -> tuple[PushStep, Surgery]:
    """Replace the star of the store's maximum-norm vertex, audited from the delta.

    The surgery is applied only once its checks pass: the label multiset
    loses the pushed label, every vertex the step creates has norm at most
    c - a/2, the count of vertices at norm >= c - a/2 strictly drops, and
    the area grows by at most A per unit of degree.  This is the one place
    the two per-step bounds are checked: a step that breaks one is neither
    applied nor recorded, so ``_audit`` has no step to check again.
    ``choices`` holds the run's entry and entry index per pushed label, so
    entry choice runs once per label.  A failed step names itself by
    ``index``, the step's place in the run, and by its vertex, label and
    entry; a star refused before any entry is chosen names no entry.

    Two facts need no check here, as glue makes them true:

    - No label is lost beyond the pushed vertex and its link.  ``glue``
      lists ``dropped_vertices`` as the center, then the link vertices that
      no new rotation keeps, one per slot; ``_link_shape`` chains each link
      vertex's dropped darts into one cycle, so no two slots name the same
      vertex; and ``star`` refuses a loop edge and a repeated corner, so no
      link vertex is the center.  So each label lost beyond the center's is
      the label of a distinct link vertex (a fold may absorb some, when the
      link walk traverses an edge twice).
    - No step changes a boundary letter.  The step drops no boundary dart
      (``star`` refuses a boundary vertex), and each host dart x it keeps
      under a new id (``Surgery.renamed``) is the outer twin of a link dart
      l_i that is no fold, which ``Gluing.compile`` puts in the twin class
      of the walk class w_i.  Classes merge only darts of one letter: the
      builder's ``alias`` checks letters, and the walk-word check makes
      letter(w_i) = letter(l_i).  So the class's root rank r gets the
      letter ``t.letter[r]`` = -letter(l_i) = letter(x).  ``_audit`` still
      compares the run's initial and final boundary words.
    """
    g = store.max_norm_vertex()
    label_g = store.labels[g]
    c = norm(label_g)
    try:
        star = store.star(g)
    except ValidationError as exc:
        raise PushError(f"max-norm vertex has no regular star: {exc}" + _where(index, g, label_g)) from exc
    choice = choices.get(label_g)
    if choice is None:
        entry, _ = choose_entry(s, Character.from_vector([-x for x in label_g]))
        choice = choices[label_g] = entry, next(i for i, x in enumerate(s.entries) if x is entry)
    entry, entry_idx = choice
    where = (index, g, label_g, entry_idx)
    try:
        cut = store.glue(star, _template(entry, star.words))
    except ValidationError as exc:
        raise PushError(f"star replacement failed: {exc}" + _where(*where)) from exc

    problems: list[str] = []
    labels = store.labels
    tau = c - k.a / 2 + FLOAT_TOL
    # the signed change of each label's count, new labels less lost ones;
    # the step audit reads the label multiset here alone
    delta: dict[Vector, int] = {}
    for w in cut.dropped_vertices:
        lbl = labels[w]
        delta[lbl] = delta.get(lbl, 0) - 1
    for lbl in cut.labels.values():
        delta[lbl] = delta.get(lbl, 0) + 1
    if delta.get(label_g, 0) >= 0:
        problems.append("the pushed vertex label did not leave the multiset")
    norms = {lbl: norm(lbl) for lbl in delta}
    # how many more lost labels than new ones have norm >= tau
    high = -sum(d for lbl, d in delta.items() if norms[lbl] >= tau)
    # a new vertex without host parts lies inside the replacement
    new_max = max(
        [norms[cut.labels[v]] for v, parts in cut.fresh.items() if not parts]
        + [norms[lbl] for lbl, d in delta.items() if d > 0],
        default=0.0,
    )
    step = PushStep(
        pushed_vertex_label=label_g,
        c=c,
        entry_used=entry_idx,
        degree=len(star.darts),
        area_before=store.area,
        area_after=cut.area,
        new_vertex_max_norm=new_max,
    )
    if new_max > tau:
        problems.append(f"a new vertex has norm {new_max:.6f} > c - a/2 = {c - k.a / 2:.6f}")
    grown = cut.area - store.area
    if grown > k.A * step.degree + FLOAT_TOL:
        problems.append(f"area grew by {grown} > A*degree = {k.A * step.degree:.1f}")
    if high <= 0:
        problems.append("the count of vertices above the c - a/2 threshold did not decrease")
    if problems:
        raise PushError(
            "push step invariant violation (broken scheme?): " + "; ".join(problems) + _where(*where)
        )
    store.apply(cut)
    return step, cut


def _carry_budgets(budgets: dict[int, int], cut: Surgery) -> None:
    """Move degree budgets across a surgery.

    A surviving vertex keeps its id and its budget.  A vertex folded from
    budgeted vertices only gets the sum of their budgets; one that absorbs a
    vertex created during the run has no baseline, like that vertex.
    """
    for vid, parts in cut.fresh.items():
        if parts and all(w in budgets for w in parts):
            budgets[vid] = sum(budgets[w] for w in parts)
    for w in cut.dropped_vertices:
        budgets.pop(w, None)


def _sweep_cap(c0: float, q: float, k: SchemeConstants) -> int:
    """ceil(2(c0-q)/a): the sweeps a run from norm c0 down to q may take."""
    return math.ceil(2 * (c0 - q) / k.a) if c0 > q else 0


def _growth_factor(k: SchemeConstants) -> float:
    """1 + 4AB: the factor by which one sweep may multiply the area."""
    return 1 + 4 * k.A * k.B


def _area_bound(k: SchemeConstants, sweeps: int, initial_area: int) -> float:
    """(1+4AB)^sweeps * initial area; inf once that passes the float range."""
    if initial_area == 0:
        return 0.0
    try:
        return float(_growth_factor(k)) ** sweeps * initial_area
    except OverflowError:
        return math.inf


def push_to_corridor(
    d: Diagram, s: PushingScheme, k: SchemeConstants, q: float
) -> tuple[Diagram, PushTrace]:
    """Iterate push steps until every vertex lies in the corridor of radius q.

    The steps replace stars in place in one DartStore; the boundary labels,
    which no step changes, are checked once.  The trace records each step,
    the completed sweeps, and the original degrees; at the end the final
    diagram goes through the full validator.  Every trace the run returns or
    raises carries the checks of one _audit of it; a failed check, or a
    pushed vertex whose character no scheme entry covers, raises PushError
    carrying the trace.

    The loop needs no step cap.  A step that passes _push_max's checks
    removes a vertex of the top norm c, and each vertex it creates has norm
    at most c - a/2 + tol, below c; for an a so small that this bound reaches
    c, the count of vertices at or above it must still drop.  So the multiset
    of labels strictly descends in the multiset order, which is well-founded
    here: the labels are integer vectors of norm at most c0, finitely many.
    """
    if not q > k.q_min:
        raise PushError(f"corridor radius {q} must exceed q_min = {k.q_min}")
    _check_boundary_inside(d, q)
    original_degrees = {v: d.degree(v) for v in d.vertices}
    # degree budget per surviving vertex; a fold merging two link vertices adds theirs
    budgets = dict(original_degrees)
    steps: list[PushStep] = []
    sweeps = 0

    def audited(final: Diagram) -> tuple[PushTrace, list[str]]:
        trace = PushTrace(steps, sweeps, d, final, original_degrees, budgets, {})
        trace.checks, problems = _audit(trace, k, q)
        return trace, problems

    c0 = max(norm(lbl) for lbl in d.labels.values())
    if c0 <= q:
        return d, audited(d)[0]
    from vkpush.store import DartStore  # loaded on the first push

    store = DartStore(d)
    choices: dict[Vector, tuple[SchemeEntry, int]] = {}
    steps_since_crossing = 0
    threshold = c0 - k.a / 2
    cur_norm = c0
    while cur_norm > q:
        try:
            step, cut = _push_max(store, s, k, choices, len(steps))
        except (PushError, CertificationError) as exc:
            trace, _ = audited(store.diagram())
            if isinstance(exc, CertificationError):
                raise PushError(f"no scheme entry for the pushed vertex: {exc}", trace) from exc
            exc.trace = trace
            raise
        steps.append(step)
        _carry_budgets(budgets, cut)
        cur_norm = norm(store.labels[store.max_norm_vertex()])
        steps_since_crossing += 1
        if cur_norm < threshold + FLOAT_TOL:
            sweeps += 1
            threshold = cur_norm - k.a / 2
            steps_since_crossing = 0
    if steps_since_crossing:
        sweeps += 1
    trace, problems = audited(store.diagram())
    if problems:
        raise PushError(
            "push run invariant violation (broken scheme?): " + "; ".join(problems), trace
        )
    return trace.final, trace


def _audit(trace: PushTrace, k: SchemeConstants, q: float) -> tuple[dict, list[str]]:
    """The paper's run bounds, recomputed from a trace: checks, and a message per failed one.

    Degree doubling, the sweep cap ceil(2(c0-q)/a) with c0 the largest
    initial label norm, the (1+4AB)^sweeps area bound and boundary
    preservation, each computed once.  The per-step bounds are
    ``_push_max``'s alone.
    """
    init, fin = trace.initial, trace.final
    sweep_cap = _sweep_cap(max(norm(lbl) for lbl in init.labels.values()), q, k)
    area_bound = _area_bound(k, trace.sweeps, init.area)
    doubled = [v for v, b in trace.budgets.items() if fin.degree(v) > 2 * b]
    checks = {
        # _push_max refuses a step that breaks the norm drop or the area
        # growth before it is applied, so every recorded step passed both
        "step_norm_drop": True,
        "step_area_growth": True,
        "degree_doubling": not doubled,
        "sweeps_within_cap": trace.sweeps <= sweep_cap,
        "sweep_cap": sweep_cap,
        "area_within_bound": fin.area <= area_bound + FLOAT_TOL,
        "boundary_preserved": fin.boundary_word == init.boundary_word,
    }
    problems: list[str] = []
    if doubled:
        v = doubled[0]
        problems.append(
            f"surviving vertex {v} with degree baseline {trace.budgets[v]}"
            f" now has degree {fin.degree(v)}"
        )
    if not checks["sweeps_within_cap"]:
        problems.append(f"{trace.sweeps} sweeps exceed the bound ceil(2(c0-q)/a) = {sweep_cap}")
    if not checks["area_within_bound"]:
        problems.append(f"final area {fin.area} exceeds (1+4AB)^sweeps * initial = {area_bound:.1f}")
    if not checks["boundary_preserved"]:
        problems.append("the boundary word changed across the run")
    return checks, problems


# -- growth predictions --------------------------------------------------------


_GROWTH_CALLS: dict[str, Callable[[float], float]] = {
    "log": math.log,
    "log2": math.log2,
    "sqrt": math.sqrt,
    "exp": math.exp,
}


def _compile_growth(expr: str) -> Callable[[float], float]:
    """A safe evaluator for growth laws in the single variable n.

    Permits numbers, n, + - * / ** with unary minus, and calls to log, log2,
    sqrt, exp.  Anything else is rejected up front.  Division by zero, a
    math domain error, a non-real power, a float overflow while evaluating
    or a NaN value (inf - inf, say) raises ValidationError, and so does a
    law nested too deeply to parse or evaluate.  An integer power of more
    than _EXACT_BITS bits is taken in floats, where it overflows, instead
    of being built.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"cannot parse growth expression {expr!r}: {exc}") from exc
    except (RecursionError, MemoryError) as exc:
        # the parser's own limit on nesting
        raise ValidationError(f"growth expression {expr!r} is nested too deeply") from exc

    def ev(node: ast.AST, n: float):
        if isinstance(node, ast.Expression):
            return ev(node.body, n)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name) and node.id == "n":
            return n
        if isinstance(node, ast.BinOp):
            a, b = ev(node.left, n), ev(node.right, n)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                return a / b
            if isinstance(node.op, ast.Pow):
                if isinstance(a, int) and isinstance(b, int) and abs(a) > 1:
                    if b * math.log2(abs(a)) > _EXACT_BITS:
                        a = float(a)
                val = a**b
                if isinstance(val, complex):
                    raise ValueError(f"{a!r} ** {b!r} is not real")
                return val
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            val = ev(node.operand, n)
            return -val if isinstance(node.op, ast.USub) else val
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _GROWTH_CALLS
            and len(node.args) == 1
            and not node.keywords
        ):
            return _GROWTH_CALLS[node.func.id](ev(node.args[0], n))
        raise ValidationError(f"unsupported element in growth expression {expr!r}")

    def fn(n: float) -> float:
        try:
            val = ev(tree, n)
            if val != val:
                raise ValueError("the value is NaN")
            return val
        except ValidationError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise ValidationError(
                f"growth expression {expr!r} is undefined at n = {n}: {exc}"
            ) from exc
        except (RecursionError, MemoryError) as exc:
            raise ValidationError(f"growth expression {expr!r} is nested too deeply") from exc

    fn(2)
    return fn


@dataclass(frozen=True)
class ARPair:
    """An area growth law f and a radius growth law g, both functions of n."""

    f: Callable[[float], float]
    g: Callable[[float], float]

    @classmethod
    def from_strings(cls, f_expr: str, g_expr: str) -> "ARPair":
        return cls(_compile_growth(f_expr), _compile_growth(g_expr))


# Far past the float range, and past 81^(8n) at n = 1000 (50,700 bits), yet
# cheap to build; a radius law like n**3 would ask for billions of bits.
_EXACT_BITS = 2**16


def predicted_area_bound(ar: ARPair, k: SchemeConstants, n: int):
    """(1 + 4AB) ** ceil(2 * lipschitz * g(n) / a) * f(n).

    Computed exactly over the integers whenever every ingredient is integral,
    so polynomial-versus-exponential comparisons at large n stay meaningful.
    A power of more than _EXACT_BITS bits is not built: the bound is then
    infinite with the sign of f(n), or 0 when f(n) is 0.  An infinite f(n)
    times a power that underflows to 0 has no value and raises
    ValidationError.
    """
    gn = ar.g(n)
    fn = ar.f(n)
    if isinstance(gn, float) and not math.isfinite(gn):
        raise ValidationError(f"radius growth is {gn} at n = {n}")
    expo = math.ceil(Fraction(2) * Fraction(k.lipschitz) * Fraction(gn) / Fraction(k.a))
    base = _growth_factor(k)
    if float(base).is_integer() and (isinstance(fn, int) or float(fn).is_integer()):
        if base > 1 and expo > _EXACT_BITS / math.log2(base):
            return 0 if fn == 0 else math.inf if fn > 0 else -math.inf
        return int(base) ** expo * int(fn)
    try:
        val = float(base) ** expo * fn
    except OverflowError:
        return math.inf
    if val != val:
        raise ValidationError(
            f"the area bound is undefined at n = {n}: f(n) is {fn} and (1+4AB)^{expo} is 0"
        )
    return val
