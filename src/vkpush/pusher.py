"""The pushing engine: replace worst-vertex stars until the corridor holds.

One step swaps the closed star of the maximum-norm vertex for a conjugation
ring plus re-based scheme fillings, built directly in its glued, cancelled
form.  Every quantitative promise the certified constants make is audited at
runtime; a violation is reported as a broken scheme, never glossed over.
push_step checks its own step as it goes, and ``audit`` is the one place the
run bounds (sweep cap, (1+4AB)^sweeps area bound, degree doubling) are
computed, for the engine and the command line alike.
"""

from __future__ import annotations

import ast
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from vkpush.abelianization import FLOAT_TOL, Character, Vector, norm, vec_add
from vkpush.diagram import (
    Diagram,
    DiagramBuilder,
    StarView,
    mirror,
    rebase_on_boundary,
    splice,
    vertex_star,
)
from vkpush.oracle import annular_collar
from vkpush.presentation import ValidationError, Word, invert
from vkpush.scheme import (
    PushingScheme,
    SchemeConstants,
    SchemeEntry,
    choose_entry,
    hat_word,
)


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


def _corner_instance(e: SchemeEntry, word: Word, hub_label: Vector) -> Diagram:
    """The entry's filling re-based to bound the hat of one star corner."""
    p = e.presentation
    idx, sign, shift = p.variant_origin[word]
    f = e.fillings[idx]
    bw = p.relators[idx]
    if sign == -1:
        f = mirror(f)
        bw = invert(bw)
    start = sum(len(hat_word(e, (x,))) for x in bw[:shift])
    return rebase_on_boundary(f, start, base_label=hub_label)


def _pushed_star(d: Diagram, star: StarView, e: SchemeEntry, hub_label: Vector) -> Diagram:
    """Replacement for the closed star: corner fillings around a hub, collared.

    Adjacent fillings share one copy of each hatted spoke, so the complex
    comes out already cancelled.  The collar then joins the hatted link back
    to the original link labels, leaving the outer boundary word equal to the
    link word.
    """
    p, m = d.presentation, d.amap
    bld = DiagramBuilder(p, m)
    spoke_words = [hat_word(e, (d.letter[s],)) for s in star.darts]
    spoke_paths = [bld.path(w) for w in spoke_words]
    k = len(star.corners)
    walk: list[int] = []
    for i, corner in enumerate(star.corners):
        inst = _corner_instance(e, corner.word, hub_label)
        mp = bld.import_shifted(inst)
        for fi, face in enumerate(inst.faces):
            if fi != inst.boundary_face_index:
                bld.add_cell([mp[x] for x in face])
        bwalk = [mp[x] for x in inst.boundary_walk]
        nxt = (i + 1) % k
        no, nc = len(spoke_words[i]), len(spoke_words[nxt])
        for dd, ss in zip(bwalk[:no], spoke_paths[i]):
            bld.alias(dd, ss)
        tail = bwalk[len(bwalk) - nc :]
        for dd, ss in zip([bld.twin[x] for x in reversed(tail)], spoke_paths[nxt]):
            bld.alias(dd, ss)
        walk.extend(bwalk[no : len(bwalk) - nc])
    v0 = d.head(star.darts[0])
    inner = bld.build(walk, vec_add(d.labels[v0], m.column(e.t)))
    return annular_collar(inner, e, star.link_word)


def _check_boundary_inside(d: Diagram, q: float) -> None:
    over = sorted(
        v for v in d.boundary_vertices if norm(d.labels[v]) > q + FLOAT_TOL
    )
    if over:
        worst = max(norm(d.labels[v]) for v in over)
        raise PushError(
            f"boundary exceeds corridor: {len(over)} boundary vertices reach norm {worst:.4f} > {q}"
        )


def push_step(
    d: Diagram,
    s: PushingScheme,
    k: SchemeConstants,
    q: float,
    _star: "tuple[int, StarView] | None" = None,
) -> tuple[Diagram, PushStep]:
    """Remove the maximum-norm vertex, dropping its norm level by at least a/2.

    Preconditions: q above the certified minimum, the diagram norm above q,
    and the whole boundary inside the corridor.  Postconditions are audited
    on the spliced result: every vertex the step creates has norm at most
    c - a/2, the count of vertices at norm >= c - a/2 strictly drops, the
    area grows by at most A per unit of degree, and the boundary word is
    untouched.  The label multiset loses the pushed label; when the link
    walk traverses an edge twice the splice may also absorb link vertices
    whose whole neighbourhood lay in the closed star (their edges fold into
    the ring), so extra losses are accepted exactly on link labels.
    """
    if not q > k.q_min:
        raise PushError(f"corridor radius {q} must exceed q_min = {k.q_min}")
    c = d.metrics()["norm"]
    if not c > q:
        raise PushError(f"diagram norm {c} already lies within the corridor {q}")
    _check_boundary_inside(d, q)
    if _star is None:
        g = d.max_norm_vertex()
        try:
            star = vertex_star(d, g)
        except ValidationError as exc:
            raise PushError(f"max-norm vertex has no regular star: {exc}") from exc
    else:
        g, star = _star
    label_g = d.labels[g]
    u = Character.from_vector([-x for x in label_g])
    entry, _ = choose_entry(s, u)
    entry_idx = next(i for i, x in enumerate(s.entries) if x is entry)
    hub_label = vec_add(label_g, d.amap.column(entry.t))
    replacement = _pushed_star(d, star, entry, hub_label)
    nd = splice(d, g, replacement)

    problems: list[str] = []
    before = Counter(d.labels.values())
    after = Counter(nd.labels.values())
    removed = before - after
    added = after - before
    link_labels = Counter(
        d.labels[v] for v in {d.origin[x] for x in star.link_darts}
    )
    extra = removed - Counter({label_g: 1})
    if removed[label_g] < 1:
        problems.append("the pushed vertex label did not leave the multiset")
    elif any(extra[lbl] > link_labels[lbl] for lbl in extra):
        problems.append(
            f"labels lost beyond the pushed vertex and its link: {dict(extra)}"
        )
    glued = {replacement.origin[x] for x in replacement.boundary_walk}
    new_max = max(
        (norm(lbl) for v, lbl in replacement.labels.items() if v not in glued),
        default=0.0,
    )
    new_max = max(new_max, max((norm(lbl) for lbl in added.elements()), default=0.0))
    if new_max > c - k.a / 2 + FLOAT_TOL:
        problems.append(f"a new vertex has norm {new_max:.6f} > c - a/2 = {c - k.a / 2:.6f}")
    if nd.area - d.area > k.A * star.degree + FLOAT_TOL:
        problems.append(
            f"area grew by {nd.area - d.area} > A*degree = {k.A * star.degree:.1f}"
        )
    tau = c - k.a / 2 + FLOAT_TOL
    high_before = sum(1 for lbl in d.labels.values() if norm(lbl) >= tau)
    high_after = sum(1 for lbl in nd.labels.values() if norm(lbl) >= tau)
    if not high_after < high_before:
        problems.append("the count of vertices above the c - a/2 threshold did not decrease")
    if nd.boundary_word != d.boundary_word:
        problems.append("the boundary word changed")
    if problems:
        raise PushError("push step invariant violation (broken scheme?): " + "; ".join(problems))
    step = PushStep(
        pushed_vertex_label=label_g,
        c=c,
        entry_used=entry_idx,
        degree=star.degree,
        area_before=d.area,
        area_after=nd.area,
        new_vertex_max_norm=new_max,
    )
    return nd, step


def _anchor_darts(d: Diagram, g: int, star: StarView) -> dict[int, int]:
    """One dart per vertex that survives replacing the star of g.

    A dart whose face is outside the star is re-added verbatim by the splice,
    so it keeps its id and its tail.  Vertices with no such dart sit entirely
    inside the closed star and may be absorbed; they go untracked.
    """
    corner_faces = {corner.face_index for corner in star.corners}
    anchors: dict[int, int] = {}
    for v in d.vertices:
        if v == g:
            continue
        for dart in d.rotations[v]:
            if d.face_of(dart) not in corner_faces:
                anchors[v] = dart
                break
    return anchors


def _sweep_cap(c0: float, q: float, k: SchemeConstants) -> int:
    """ceil(2(c0-q)/a): the sweeps a run from norm c0 down to q may take."""
    return math.ceil(2 * (c0 - q) / k.a) if c0 > q else 0


def _growth_factor(k: SchemeConstants) -> float:
    """1 + 4AB: the factor by which one sweep may multiply the area."""
    return 1 + 4 * k.A * k.B


def push_to_corridor(
    d: Diagram, s: PushingScheme, k: SchemeConstants, q: float
) -> tuple[Diagram, PushTrace]:
    """Iterate push_step until every vertex lies in the corridor of radius q.

    The trace records each step, the completed sweeps, and the original
    degrees; at the end the run is checked by audit, and any failed check
    raises PushError carrying the trace.  A step budget of
    |V| * ceil(2(c0-q)/a) * 4 guards against a scheme that spins without
    descending.
    """
    if not q > k.q_min:
        raise PushError(f"corridor radius {q} must exceed q_min = {k.q_min}")
    _check_boundary_inside(d, q)
    original_degrees = {v: d.degree(v) for v in d.vertices}
    c0 = d.metrics()["norm"]
    trace = PushTrace([], 0, d, d, original_degrees, dict(original_degrees))
    if c0 <= q:
        return d, trace
    cap = max(1, len(d.vertices)) * _sweep_cap(c0, q, k) * 4
    # degree budget per surviving vertex; a fold merging two link vertices adds theirs
    budgets = dict(original_degrees)
    steps: list[PushStep] = []
    sweeps = 0
    steps_since_crossing = 0
    threshold = c0 - k.a / 2
    cur = d
    cur_norm = c0
    while cur_norm > q:
        if len(steps) >= cap:
            trace = PushTrace(steps, sweeps, d, cur, original_degrees, budgets)
            raise PushError(
                f"no corridor after {len(steps)} steps (cap {cap}); norm stuck at {cur_norm:.4f},"
                f" last steps: {[s_.pushed_vertex_label for s_ in steps[-3:]]}",
                trace,
            )
        g = cur.max_norm_vertex()
        try:
            star = vertex_star(cur, g)
        except ValidationError as exc:
            trace = PushTrace(steps, sweeps, d, cur, original_degrees, budgets)
            raise PushError(
                f"max-norm vertex has no regular star: {exc}", trace
            ) from exc
        anchors = _anchor_darts(cur, g, star)
        try:
            nxt, step = push_step(cur, s, k, q, _star=(g, star))
        except PushError as exc:
            if exc.trace is None:
                exc.trace = PushTrace(steps, sweeps, d, cur, original_degrees, budgets)
            raise
        steps.append(step)
        new_budgets: dict[int, int] = {}
        for v, dart in anchors.items():
            if v not in budgets or dart not in nxt.origin:
                continue
            nv = nxt.origin[dart]
            new_budgets[nv] = new_budgets.get(nv, 0) + budgets[v]
        budgets = new_budgets
        cur = nxt
        cur_norm = cur.metrics()["norm"]
        steps_since_crossing += 1
        if cur_norm < threshold + FLOAT_TOL:
            sweeps += 1
            threshold = cur_norm - k.a / 2
            steps_since_crossing = 0
    if steps_since_crossing:
        sweeps += 1
    trace = PushTrace(steps, sweeps, d, cur, original_degrees, budgets)
    _, problems = _audit(trace, k, q)
    if problems:
        raise PushError(
            "push run invariant violation (broken scheme?): " + "; ".join(problems), trace
        )
    return cur, trace


def audit(trace: PushTrace, k: SchemeConstants, q: float) -> dict:
    """Recompute the paper's run bounds from a trace.

    The per-step norm drop and area growth, degree doubling, the sweep cap
    ceil(2(c0-q)/a) with c0 the largest initial label norm, the
    (1+4AB)^sweeps area bound and boundary preservation.
    """
    return _audit(trace, k, q)[0]


def _audit(trace: PushTrace, k: SchemeConstants, q: float) -> tuple[dict, list[str]]:
    """The checks of audit, plus a message with figures for each failed one."""
    init, fin = trace.initial, trace.final
    sweep_cap = _sweep_cap(max(norm(lbl) for lbl in init.labels.values()), q, k)
    area_bound = float(_growth_factor(k)) ** trace.sweeps * init.area
    problems: list[str] = []
    steps = list(enumerate(trace.steps))
    shallow = [i for i, st in steps if st.new_vertex_max_norm > st.c - k.a / 2 + FLOAT_TOL]
    if shallow:
        st = trace.steps[shallow[0]]
        problems.append(
            f"step {shallow[0]}: a new vertex has norm {st.new_vertex_max_norm:.6f}"
            f" > c - a/2 = {st.c - k.a / 2:.6f}"
        )
    grown = [i for i, st in steps if st.area_after - st.area_before > k.A * st.degree + FLOAT_TOL]
    if grown:
        st = trace.steps[grown[0]]
        problems.append(
            f"step {grown[0]}: area grew by {st.area_after - st.area_before}"
            f" > A*degree = {k.A * st.degree:.1f}"
        )
    doubled = [v for v, b in trace.budgets.items() if fin.degree(v) > 2 * b]
    if doubled:
        v = doubled[0]
        problems.append(
            f"surviving vertex {v} with degree baseline {trace.budgets[v]}"
            f" now has degree {fin.degree(v)}"
        )
    if trace.sweeps > sweep_cap:
        problems.append(f"{trace.sweeps} sweeps exceed the bound ceil(2(c0-q)/a) = {sweep_cap}")
    if fin.area > area_bound + FLOAT_TOL:
        problems.append(
            f"final area {fin.area} exceeds (1+4AB)^sweeps * initial = {area_bound:.1f}"
        )
    if fin.boundary_word != init.boundary_word:
        problems.append("the boundary word changed across the run")
    checks = {
        "step_norm_drop": not shallow,
        "step_area_growth": not grown,
        "degree_doubling": not doubled,
        "sweeps_within_cap": trace.sweeps <= sweep_cap,
        "sweep_cap": sweep_cap,
        "area_within_bound": fin.area <= area_bound + FLOAT_TOL,
        "boundary_preserved": fin.boundary_word == init.boundary_word,
    }
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
    math domain error, a non-real power or a float overflow while evaluating
    raises ValidationError.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"cannot parse growth expression {expr!r}: {exc}") from exc

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
            return ev(tree, n)
        except ValidationError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise ValidationError(
                f"growth expression {expr!r} is undefined at n = {n}: {exc}"
            ) from exc

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


def predicted_area_bound(ar: ARPair, k: SchemeConstants, n: int):
    """(1 + 4AB) ** ceil(2 * lipschitz * g(n) / a) * f(n).

    Computed exactly over the integers whenever every ingredient is integral,
    so polynomial-versus-exponential comparisons at large n stay meaningful.
    """
    gn = ar.g(n)
    fn = ar.f(n)
    if isinstance(gn, float) and not math.isfinite(gn):
        raise ValidationError(f"radius growth is {gn} at n = {n}")
    expo = math.ceil(Fraction(2) * Fraction(k.lipschitz) * Fraction(gn) / Fraction(k.a))
    base = _growth_factor(k)
    if float(base).is_integer() and (isinstance(fn, int) or float(fn).is_integer()):
        return int(base) ** expo * int(fn)
    try:
        return float(base) ** expo * fn
    except OverflowError:
        return math.inf
