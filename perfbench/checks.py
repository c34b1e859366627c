"""Output checks, recomputed from the diagrams and traces, and per-operation digests.

The push checks follow tests/test_acceptance.py: they trust no verdict of
the engine's own audit.  Every failed check is reported by name; an
operation with any failed check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math

TOL = 1e-9


def sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def check_push(out: dict, k, q: float) -> list[str]:
    from vkpush.abelianization import norm
    from vkpush.diagram import Diagram

    d, fin, trace = out["initial"], out["final"], out["trace"]
    bad = []
    if max(norm(lbl) for lbl in fin.labels.values()) > q + TOL:
        bad.append("final norm above q")
    if fin.boundary_word != d.boundary_word:
        bad.append("boundary word changed")
    area = d.area
    for st in trace.steps:
        if st.area_before != area:
            bad.append("step areas do not chain")
        if st.new_vertex_max_norm > st.c - k.a / 2 + TOL:
            bad.append("step norm drop")
        if st.area_after - st.area_before > k.A * st.degree + TOL:
            bad.append("step area growth")
        area = st.area_after
    if area != fin.area:
        bad.append("last step area is not the final area")
    for v, baseline in trace.budgets.items():
        if fin.degree(v) > 2 * baseline:
            bad.append("degree budget")
    for v in fin.vertices:
        if v in trace.original_degrees and fin.degree(v) > 2 * trace.original_degrees[v]:
            bad.append("surviving degree doubled")
    c0 = max(norm(lbl) for lbl in d.labels.values())
    cap = math.ceil(2 * (c0 - q) / k.a) if c0 > q else 0
    if trace.sweeps > cap:
        bad.append("sweep cap")
    if fin.area > (1.0 + 4.0 * k.A * k.B) ** trace.sweeps * d.area + TOL:
        bad.append("(1+4AB)^sweeps area bound")
    # the full structural validator, from scratch
    again = Diagram.from_json_dict(fin.to_json_dict(), fin.presentation, fin.amap)
    if again.boundary_word != fin.boundary_word or again.area != fin.area:
        bad.append("final diagram does not revalidate")
    return sorted(set(bad))


def push_digest(out: dict):
    from vkpush.diagram import canonical_signature

    trace = out["trace"]
    return [
        len(trace.steps),
        trace.sweeps,
        out["initial"].area,
        out["final"].area,
        sha(canonical_signature(out["final"])),
    ]


def check_oracle(name: str, out: dict, fixtures) -> list[str]:
    from vkpush.presentation import free_reduce

    if name.startswith("rebuild_"):
        want = (fixtures / f"{out['name']}.json").read_text(encoding="utf-8")
        return [] if out["bytes"] == want else [f"rebuilt {out['name']} scheme differs from the fixture"]
    if name.startswith("certify"):
        k = out["constants"]
        return [] if k.a > 0 and k.q_min >= k.a else ["certified constants out of range"]
    pq = out["p"] * out["q"]
    if "area" in out:
        return [] if out["area"] == pq else [f"brute area {out['area']} != p*q = {pq}"]
    cert = out["certificate"]
    if cert is None:
        return ["no certificate found"]
    bad = []
    if len(cert.factors) != pq:
        bad.append(f"certificate has {len(cert.factors)} cells, not p*q = {pq}")
    if cert.reduced_word() != free_reduce(out["word"]):
        bad.append("certificate does not reduce to the word")
    return bad


def oracle_digest(name: str, out: dict):
    if name.startswith("rebuild_"):
        return sha(out["bytes"])
    if name.startswith("certify"):
        return json.dumps(out["constants"].to_json_dict(), sort_keys=True)
    if "area" in out:
        return out["area"]
    return sha(out["certificate"].factors)
