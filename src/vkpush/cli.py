"""Command line front end: validation, certification, pushing, oracles, reports.

Inputs are JSON files.  A problem bundle carries a presentation, an
abelianization map, and usually a pushing scheme under the keys
"presentation", "map", and "scheme"; diagrams travel in separate files using
the diagram JSON layout.  Every subcommand writes its result to stdout as
JSON and failures to stderr as {"error": {"type": ..., "message": ...}}.

Exit codes: 0 success, 1 unreadable input, 2 validation failure (also an
exhausted search budget or memory), 3 certification failure, 4 runtime
invariant violation, 64 usage.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import re
import sys
import time
from pathlib import Path

from vkpush.abelianization import AbelianizationMap, check_compatible, norm
from vkpush.diagram import Diagram
from vkpush.oracle import (
    MAX_WORDS,
    SearchBudgetError,
    brute_area,
    certificate_to_diagram,
    sample_corridor_certificates,
    search_filling,
    wasteful_diagram,
)
from vkpush.presentation import (
    Presentation,
    ValidationError,
    letter_token,
    parse_word,
    word_to_text,
)
from vkpush.pusher import ARPair, PushError, predicted_area_bound, push_to_corridor
from vkpush.scheme import MAX_GRID_POINTS, CertificationError, PushingScheme, certify_coverage

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_CERTIFICATION = 3
EXIT_INVARIANT = 4
EXIT_USAGE = 64

BOUND_SAMPLE_POINTS = (10, 100, 1000)
GRID_HELP = (
    "sphere grid spacing: a positive finite number (exit 64 otherwise) whose grid"
    f" has at most {MAX_GRID_POINTS:,} points (exit 2 otherwise); default %(default)s"
)
Q_HELP = "corridor radius: finite, > q_min (push, bench), >= the largest letter step (sample); else exit 64"


class UsageError(Exception):
    """A flag value that parses but makes no sense."""


class InputError(Exception):
    """A file that is missing, unreadable, or not JSON."""


_NEGATIVE_FLOAT = re.compile(r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)\Z", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1.0" as a value but "-inf", "-nan" and "-1e-5" as
        # options, so a flag given one would lack its value; every negative
        # float spelling is a value here, and the range checks refuse it
        self._negative_number_matcher = _NEGATIVE_FLOAT

    # argparse exits with 2 on bad flags; 2 is taken by validation failures,
    # so usage problems are rerouted through 64
    def error(self, message):
        _emit_error("UsageError", message)
        raise SystemExit(EXIT_USAGE)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": {"type": kind, "message": message, **extra}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


# -- input plumbing --------------------------------------------------------


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _load_bundle(path):
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: bundle must be a JSON object")
    for key in ("presentation", "map"):
        if key not in obj:
            raise ValidationError(f"{path}: bundle lacks {key!r}")
    p = Presentation.from_json_dict(obj["presentation"])
    m = AbelianizationMap.from_json_dict(obj["map"], p)
    problems = check_compatible(m, p)
    if problems:
        raise ValidationError(f"{path}: " + "; ".join(problems))
    s = None
    if obj.get("scheme") is not None:
        s = PushingScheme.from_json_dict(obj["scheme"], p, m)
    return p, m, s


def _require_scheme(s, path):
    if s is None:
        raise ValidationError(f"{path}: bundle has no pushing scheme")
    return s


def _load_diagram(path, p, m):
    try:
        return Diagram.from_json_dict(_read_json(path), p, m)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _sha256(path):
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    return h.hexdigest()


def _grid(args) -> float:
    if not (math.isfinite(args.grid) and args.grid > 0):
        raise UsageError("grid spacing must be a positive finite number")
    return args.grid


def _require_finite_q(args) -> None:
    if not math.isfinite(args.q):
        raise UsageError("q must be a finite number")


# the least value of each integer flag; argparse checks only that it parses
_FLAG_FLOORS = {"count": 0, "target_len": 1, "max_area": 0, "max_len": 0, "max_words": 1}


def _check_flag_floors(args) -> None:
    for name, floor in _FLAG_FLOORS.items():
        value = getattr(args, name, None)
        if value is not None and value < floor:
            raise UsageError(f"--{name.replace('_', '-')} must be at least {floor}")


def _push_inputs(args):
    """The bundle, scheme and constants push and bench run on; flags checked first."""
    grid = _grid(args)
    _require_finite_q(args)
    p, m, s = _load_bundle(args.bundle)
    k = certify_coverage(_require_scheme(s, args.bundle), grid)
    if not args.q > k.q_min:
        raise UsageError(
            f"q must exceed q_min = max(b^2/a, a); this scheme certifies q_min = {k.q_min:g}"
        )
    return p, m, s, k


# -- report pieces ---------------------------------------------------------


def _diagram_summary(d):
    met = d.metrics()
    return {
        "area": met["area"],
        "radius": met["radius"],
        "norm": met["norm"],
        "vertices": len(d.rotations),
        "boundary_length": len(d.boundary_walk),
    }


def _step_dict(st):
    return {
        "vertex_label": list(st.pushed_vertex_label),
        "norm": st.c,
        "entry": st.entry_used,
        "degree": st.degree,
        "area_before": st.area_before,
        "area_after": st.area_after,
        "new_vertex_max_norm": st.new_vertex_max_norm,
    }


def _json_number(val):
    # predicted bounds can dwarf the float range; degrade gracefully
    if isinstance(val, int):
        if abs(val) < 2**53:
            return val
        try:
            return float(val)
        except OverflowError:
            return "overflow"
    if isinstance(val, float) and math.isinf(val):
        return "overflow"
    return val


# -- rendering ---------------------------------------------------------------


def _layout(d):
    """Straight-line layout: boundary pinned to a circle, interior harmonic.

    Each interior vertex sits at the average of its neighbours (loops pull
    nothing): Tutte's barycentric system, one sparse row per vertex, solved
    exactly by elimination in minimum-degree order.  Positions are complex
    numbers x + iy.
    """
    pos = {}
    ring = []
    for dart in d.boundary_walk:
        v = d.origin[dart]
        if v not in pos:
            pos[v] = None
            ring.append(v)
    for i, v in enumerate(ring):
        ang = math.pi / 2 + 2.0 * math.pi * i / len(ring)
        pos[v] = complex(math.cos(ang), math.sin(ang))
    if not pos:
        pos[d.base] = 0j
    # one row per interior vertex: the diagonal and its interior neighbours
    rows = {v: {v: 0.0} for v in d.vertices if v not in pos}
    rhs = dict.fromkeys(rows, 0j)
    for v, row in rows.items():
        for dart in d.rotations[v]:
            w = d.head(dart)
            if w != v:
                row[v] += 1.0
                if w in rows:
                    row[w] = row.get(w, 0.0) - 1.0
                else:
                    rhs[v] += pos[w]
    # lazy (unknowns left, vertex) entries: ties go to the smaller id, and an
    # entry for an eliminated vertex or an outdated count is skipped
    heap = [(len(row), v) for v, row in rows.items()]
    heapq.heapify(heap)
    eliminated = []
    while heap:
        n, v = heapq.heappop(heap)
        if v not in rows or n != len(rows[v]):
            continue
        row = rows.pop(v)
        pivot = row.pop(v)
        eliminated.append((v, pivot, row))
        for w in row:
            other = rows[w]
            f = other.pop(v) / pivot
            for u, a in row.items():
                other[u] = other.get(u, 0.0) - f * a
            rhs[w] -= f * rhs[v]
            heapq.heappush(heap, (len(other), w))
    for v, pivot, row in reversed(eliminated):
        pos[v] = (rhs[v] - sum(a * pos[u] for u, a in row.items())) / pivot
    return pos


def _edge_list(d):
    edges = []
    for dart in d.darts:
        t = d.twin[dart]
        if dart > t:
            continue
        a, b, x = d.origin[dart], d.origin[t], d.letter[dart]
        if x < 0:
            a, b, x = b, a, -x
        edges.append((a, b, x, dart, t))
    return edges


def _diagram_dot(d, p):
    lines = ["graph diagram {", "  node [shape=circle fontsize=10];"]
    for v in sorted(d.vertices):
        lbl = ",".join(f"{x:g}" for x in d.labels[v])
        lines.append(f'  v{v} [label="({lbl})"];')
    for a, b, x, _, _ in _edge_list(d):
        lines.append(f'  v{a} -- v{b} [label="{letter_token(x, p)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _diagram_svg(d, p):
    pos = _layout(d)
    half = 320.0
    pad = 0.90

    def xy(v):
        return half + pad * half * pos[v].real, half - pad * half * pos[v].imag

    top = max((norm(lbl) for lbl in d.labels.values()), default=0.0) or 1.0
    boundary = {min(x, d.twin[x]) for x in d.boundary_walk}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(2 * half)}"'
        f' height="{int(2 * half)}" viewBox="0 0 {int(2 * half)} {int(2 * half)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for a, b, x, dart, t in _edge_list(d):
        ax, ay = xy(a)
        bx, by = xy(b)
        width = 2.2 if min(dart, t) in boundary else 1.0
        if a == b:
            parts.append(
                f'<circle cx="{ax + 14:.1f}" cy="{ay:.1f}" r="14" fill="none"'
                f' stroke="#888" stroke-width="{width}"/>'
            )
            mx, my = ax + 28, ay
        else:
            parts.append(
                f'<line x1="{ax:.1f}" y1="{ay:.1f}" x2="{bx:.1f}" y2="{by:.1f}"'
                f' stroke="#888" stroke-width="{width}"/>'
            )
            mx, my = (ax + bx) / 2, (ay + by) / 2
        parts.append(
            f'<text x="{mx:.1f}" y="{my:.1f}" font-size="11" fill="#444"'
            f' text-anchor="middle">{letter_token(x, p)}</text>'
        )
    for v in sorted(d.vertices):
        cx, cy = xy(v)
        frac = norm(d.labels[v]) / top
        hue = int(240 - 240 * frac)
        lbl = ",".join(f"{c:g}" for c in d.labels[v])
        parts.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="4.5"'
            f' fill="hsl({hue},70%,45%)"><title>({lbl})</title></circle>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_into(d, p, outdir, name):
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        dot = out / f"{name}.dot"
        svg = out / f"{name}.svg"
        dot.write_text(_diagram_dot(d, p), encoding="utf-8")
        svg.write_text(_diagram_svg(d, p), encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{outdir}: {exc.strerror or exc}") from exc
    return {"dot": str(dot), "svg": str(svg)}


# -- subcommands -------------------------------------------------------------


def cmd_validate(args) -> int:
    p, m, s = _load_bundle(args.bundle)
    report = {
        "ok": True,
        "bundle": {
            "path": args.bundle,
            "generators": list(p.generators),
            "relators": len(p.relators),
            "rank": m.rank,
            "scheme_entries": None,
        },
        "diagrams": [],
    }
    if s is not None:
        s.verify()
        report["bundle"]["scheme_entries"] = len(s.entries)
    for dpath in args.diagrams:
        d = _load_diagram(dpath, p, m)
        report["diagrams"].append(
            {
                "path": dpath,
                "area": d.area,
                "vertices": len(d.rotations),
                "boundary": word_to_text(d.boundary_word, p),
            }
        )
    _emit(report)
    return EXIT_OK


def cmd_certify(args) -> int:
    grid = _grid(args)
    p, m, s = _load_bundle(args.bundle)
    k = certify_coverage(_require_scheme(s, args.bundle), grid)
    _emit(k.to_json_dict())
    return EXIT_OK


def cmd_push(args) -> int:
    p, m, s, k = _push_inputs(args)
    d = _load_diagram(args.diagram, p, m)
    final, trace = push_to_corridor(d, s, k, args.q)
    report = {
        "q": args.q,
        "constants": k.to_json_dict(),
        "initial": _diagram_summary(d),
        "final": _diagram_summary(final),
        "boundary": word_to_text(final.boundary_word, p),
        "sweeps": trace.sweeps,
        "steps": [_step_dict(st) for st in trace.steps],
        "bound_checks": trace.checks,
    }
    if args.render:
        report["render"] = {
            "initial": _render_into(d, p, args.render, "initial"),
            "final": _render_into(final, p, args.render, "final"),
        }
    _emit(report)
    return EXIT_OK


def cmd_area_oracle(args) -> int:
    p, m, s = _load_bundle(args.bundle)
    w = parse_word(args.word, p)
    out = {"word": word_to_text(w, p), "max_area": args.max_area}
    if args.max_len is not None:
        out["max_len"] = args.max_len
    if args.certificate:
        cert = search_filling(p, w, args.max_area, args.max_len, args.max_words)
        out["area"] = len(cert.factors) if cert is not None else "unknown"
        if cert is not None:
            out["certificate"] = [
                {"conjugator": word_to_text(u, p), "relator": word_to_text(r, p)}
                for u, r in cert.factors
            ]
    else:
        area = brute_area(p, w, args.max_area, args.max_len, args.max_words)
        out["area"] = area if area is not None else "unknown"
    _emit(out)
    return EXIT_OK


def cmd_sample(args) -> int:
    _require_finite_q(args)
    p, m, s = _load_bundle(args.bundle)
    if args.q < m.lipschitz:
        raise UsageError(f"q must be at least the largest letter step, {m.lipschitz:g}")
    certs = sample_corridor_certificates(p, m, args.q, args.target_len, args.count, args.seed)
    words = [c.reduced_word() for c in certs]
    _emit(
        {
            "q": args.q,
            "seed": args.seed,
            "target_len": args.target_len,
            "count": len(words),
            "words": [word_to_text(w, p) for w in words],
        }
    )
    return EXIT_OK


def _predicted_bounds(ar: str, k) -> dict:
    """The report's predicted area bounds for an --ar pair, or UsageError."""
    parts = ar.split(",")
    if len(parts) != 2:
        raise UsageError("--ar takes two comma separated growth expressions, e.g. '3*n**2,2*n'")
    area_growth, radius_growth = parts[0].strip(), parts[1].strip()
    try:
        pair = ARPair.from_strings(area_growth, radius_growth)
        at_n = {
            str(nn): _json_number(predicted_area_bound(pair, k, nn)) for nn in BOUND_SAMPLE_POINTS
        }
    except ValidationError as exc:
        raise UsageError(str(exc)) from exc
    return {"area_growth": area_growth, "radius_growth": radius_growth, "at_n": at_n}


def cmd_bench(args) -> int:
    started = time.perf_counter()
    p, m, s, k = _push_inputs(args)
    # a malformed or undefined --ar ends the bench before any loop is sampled
    predicted = _predicted_bounds(args.ar, k) if args.ar is not None else None
    certs = sample_corridor_certificates(
        p, m, args.q, args.target_len, args.count, args.seed
    )

    def run_one(cert):
        if args.wasteful:
            d = wasteful_diagram(s, cert, args.q)
        else:
            d = certificate_to_diagram(p, m, cert, m.zero)
        word = cert.reduced_word()
        try:
            final, trace = push_to_corridor(d, s, k, args.q)
            error = None
        except PushError as exc:
            # a failed run check ends this word, not the bench; a failed
            # precondition (no trace) still ends the bench
            if exc.trace is None:
                raise
            final, trace, error = exc.trace.final, exc.trace, str(exc)
        entry = {
            "word": word_to_text(word, p),
            "length": len(word),
            "initial_area": d.area,
            "final_area": final.area,
            "steps": len(trace.steps),
            "sweeps": trace.sweeps,
            "bound_checks": trace.checks,
            "passed": error is None,
        }
        if error is not None:
            entry["error"] = error
        if args.oracle_check:
            found = brute_area(p, word, args.max_area)
            entry["oracle"] = {
                "brute_area": found if found is not None else "unknown",
                "pushed_at_least_brute": None if found is None else final.area >= found,
            }
        return entry

    results = [run_one(c) for c in certs]

    failed = sum(not r["passed"] for r in results)
    report = {
        "inputs": {"bundle": {"path": args.bundle, "sha256": _sha256(args.bundle)}},
        "constants": k.to_json_dict(),
        "q": args.q,
        "seed": args.seed,
        "count": args.count,
        "target_len": args.target_len,
        "wasteful": bool(args.wasteful),
        "results": results,
        "audit_summary": {
            "words": len(results),
            "steps": sum(r["steps"] for r in results),
            "passed": len(results) - failed,
            "failed": failed,
            "all_passed": failed == 0,
        },
        "timing": {"seconds": round(time.perf_counter() - started, 3)},
    }
    if predicted is not None:
        report["predicted_area_bounds"] = predicted
    _emit(report)
    if failed:
        _emit_error(
            "InvariantViolation",
            f"{failed} of {len(results)} words failed recomputed bound checks",
        )
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_render(args) -> int:
    p, m, s = _load_bundle(args.bundle)
    d = _load_diagram(args.diagram, p, m)
    name = args.name or Path(args.diagram).stem
    paths = _render_into(d, p, args.out, name)
    _emit(
        {
            "dot": paths["dot"],
            "svg": paths["svg"],
            "area": d.area,
            "vertices": len(d.rotations),
            "edges": len(d.darts) // 2,
        }
    )
    return EXIT_OK


#-- wiring --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vkpush", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=fn)
        sp.add_argument("bundle", help="problem bundle JSON (presentation, map, scheme)")
        return sp

    sp = add("validate", cmd_validate, "validate a bundle and optional diagram files")
    sp.add_argument("diagrams", nargs="*", help="diagram JSON files to validate")

    sp = add("certify", cmd_certify, "certify scheme coverage and print its constants")
    sp.add_argument("--grid", type=float, default=0.05, help=GRID_HELP)

    sp = add("push", cmd_push, "push a diagram into the corridor of radius q")
    sp.add_argument("diagram", help="diagram JSON file")
    sp.add_argument("--q", type=float, required=True, help=Q_HELP)
    sp.add_argument("--grid", type=float, default=0.05, help=GRID_HELP)
    sp.add_argument("--render", metavar="DIR", help="write DOT and SVG before/after")

    sp = add("area-oracle", cmd_area_oracle, "brute force minimal filling area")
    sp.add_argument("--word", required=True, help="word in the generators, e.g. 'a b a^-1 b^-1'")
    sp.add_argument("--max-area", type=int, required=True)
    sp.add_argument("--max-len", type=int, default=None)
    sp.add_argument(
        "--max-words",
        type=int,
        default=MAX_WORDS,
        help=f"stored search words before giving up with exit 2 (default {MAX_WORDS:,})",
    )
    sp.add_argument("--certificate", action="store_true", help="also emit a filling certificate")

    sp = add("sample", cmd_sample, "sample null-homotopic corridor loops")
    sp.add_argument("--q", type=float, required=True, help=Q_HELP)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--target-len", type=int, default=12)

    sp = add("bench", cmd_bench, "sample, fill, push, and report bound checks")
    sp.add_argument("--q", type=float, required=True, help=Q_HELP)
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--target-len", type=int, default=12)
    sp.add_argument("--grid", type=float, default=0.05, help=GRID_HELP)
    sp.add_argument("--ar", help="area,radius growth expressions in n for bound prediction")
    sp.add_argument("--oracle-check", action="store_true", help="cross-check with brute_area")
    sp.add_argument("--max-area", type=int, default=6, help="oracle cross-check budget")
    sp.add_argument(
        "--wasteful",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="tower the fillings outward so pushes have work to do",
    )

    sp = add("render", cmd_render, "write DOT and SVG for a diagram")
    sp.add_argument("diagram", help="diagram JSON file")
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--name", default=None, help="basename for the output files")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_flag_floors(args)
        return args.func(args)
    except InputError as exc:
        _emit_error("InputError", str(exc))
        return EXIT_IO
    except UsageError as exc:
        _emit_error("UsageError", str(exc))
        return EXIT_USAGE
    except CertificationError as exc:
        _emit_error("CertificationError", str(exc))
        return EXIT_CERTIFICATION
    except PushError as exc:
        extra = {}
        if exc.trace is not None:
            extra["steps_completed"] = len(exc.trace.steps)
            extra["sweeps"] = exc.trace.sweeps
        _emit_error("PushError", str(exc), **extra)
        return EXIT_INVARIANT
    except (ValidationError, SearchBudgetError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_VALIDATION
    except MemoryError:
        _emit_error("MemoryError", "ran out of memory; lower the search bounds")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
