"""End to end acceptance runs, one printed verdict line per criterion.

Each test drives the full pipeline at its stated scale, recomputes every
quantitative guarantee from diagrams or trace records rather than trusting
the engine's own audit, and prints a single PASS/FAIL line.
"""

import math
import time

import pytest
from conftest import max_norm_vertex

from vkpush.abelianization import norm
from vkpush.oracle import (
    FillingCertificate,
    brute_area,
    certificate_to_diagram,
    sample_corridor_certificates,
    tower_diagram,
    wasteful_diagram,
)
from vkpush.presentation import free_reduce
from vkpush.pusher import ARPair, _push_max, predicted_area_bound, push_to_corridor
from vkpush.scheme import certify_coverage
from vkpush.store import DartStore

TOL = 1e-9
R = (1, 2, -1, -2)


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"acceptance {num} failed: {detail}"


@pytest.fixture(scope="module")
def z2_constants(z2_bundle):
    return certify_coverage(z2_bundle[2], 0.05)


@pytest.fixture(scope="module")
def heis_constants(heisenberg_bundle):
    return certify_coverage(heisenberg_bundle[2], 0.01)


@pytest.fixture(scope="module")
def completed_runs(z2_bundle, heisenberg_bundle, z2_constants, heis_constants):
    """Traces of full descents over towers and sampled loop fillings."""
    pz, mz, sz = z2_bundle
    ph, mh, sh = heisenberg_bundle
    kz, kh = z2_constants, heis_constants
    qz, qh = kz.q_min + 1.0, kh.q_min + 1.0
    runs = []
    up = next(e for e in sz.entries if e.t == 1)
    down = next(e for e in sz.entries if e.t == -1)
    for entry, depth in ((up, 5), (up, 7), (down, 6), (down, 8)):
        d = tower_diagram(entry, R, depth, mz.zero)
        _, trace = push_to_corridor(d, sz, kz, qz)
        runs.append((kz, qz, trace))
    for cert in sample_corridor_certificates(pz, mz, qz, 12, 8, 31):
        _, trace = push_to_corridor(wasteful_diagram(sz, cert, qz), sz, kz, qz)
        runs.append((kz, qz, trace))
    for cert in sample_corridor_certificates(ph, mh, qh, 12, 15, 32):
        _, trace = push_to_corridor(wasteful_diagram(sh, cert, qh), sh, kh, qh)
        runs.append((kh, qh, trace))
    return runs


def test_acceptance_1_exact_constants(capsys, z2_bundle):
    started = time.perf_counter()
    k = certify_coverage(z2_bundle[2], 0.05)
    elapsed = time.perf_counter() - started
    ok = (
        k.a == 1.0
        and k.b == 2.0
        and k.A == 5.0
        and k.B == 4
        and k.q_min == 4.0
        and k.grid_spacing is None
        and elapsed < 1.0
    )
    _report(
        capsys,
        1,
        ok,
        f"a={k.a} b={k.b} A={k.A} B={k.B} q_min={k.q_min}, {elapsed:.3f}s",
    )


def test_acceptance_2_step_invariants(
    capsys, z2_bundle, heisenberg_bundle, z2_constants, heis_constants
):
    started = time.perf_counter()
    groups = (
        (z2_bundle, z2_constants, 21, 10),
        (heisenberg_bundle, heis_constants, 22, 30),
    )
    steps = 0
    violations = []
    for (p, m, s), k, seed, count in groups:
        q = k.q_min + 1.0
        for cert in sample_corridor_certificates(p, m, q, 12, count, seed):
            cur = wasteful_diagram(s, cert, q)
            # one store pushes the whole run; its diagram is validated after
            # every step.  That diagram shares the store's lists, so all it
            # is read for is read before the next step changes them.
            store, choices = DartStore(cur), {}
            while cur.metrics()["norm"] > q:
                cur_ids = set(cur.vertices)
                g = max_norm_vertex(cur)
                c = norm(cur.labels[g])
                degree = cur.degree(g)
                area, word = cur.area, cur.boundary_word
                tau = c - k.a / 2 + TOL
                high_before = sum(1 for lbl in cur.labels.values() if norm(lbl) >= tau)
                _push_max(store, s, k, choices)
                nxt = store.diagram()
                steps += 1
                fresh_norms = [
                    norm(nxt.labels[v]) for v in nxt.vertices if v not in cur_ids
                ]
                if any(x > c - k.a / 2 + TOL for x in fresh_norms):
                    violations.append("new vertex norm")
                if nxt.area - area > k.A * degree + TOL:
                    violations.append("area delta")
                high_after = sum(1 for lbl in nxt.labels.values() if norm(lbl) >= tau)
                if high_after >= high_before:
                    violations.append("high vertex count")
                if nxt.boundary_word != word:
                    violations.append("boundary word")
                cur = nxt
    elapsed = time.perf_counter() - started
    ok = steps >= 500 and not violations and elapsed < 60.0
    _report(
        capsys,
        2,
        ok,
        f"{steps} steps, {len(violations)} violations, {elapsed:.1f}s",
    )


def test_acceptance_3_degree_doubling(capsys, completed_runs):
    checked = 0
    bad = 0
    for _, _, trace in completed_runs:
        fin = trace.final
        for v in fin.vertices:
            if v in trace.original_degrees:
                checked += 1
                if fin.degree(v) > 2 * trace.original_degrees[v]:
                    bad += 1
        # folded vertices carry summed baselines instead of a survivor's id
        for v, baseline in trace.budgets.items():
            if fin.degree(v) > 2 * baseline:
                bad += 1
    ok = checked > 0 and bad == 0
    _report(
        capsys,
        3,
        ok,
        f"{checked} surviving vertices over {len(completed_runs)} runs, {bad} over budget",
    )


def test_acceptance_4_area_growth_and_sweeps(capsys, completed_runs):
    bad = []
    total_sweeps = 0
    for k, q, trace in completed_runs:
        init, fin = trace.initial, trace.final
        c0 = init.metrics()["norm"]
        cap = math.ceil(2 * (c0 - q) / k.a) if c0 > q else 0
        total_sweeps += trace.sweeps
        if trace.sweeps > cap:
            bad.append(f"sweeps {trace.sweeps} > cap {cap}")
        if fin.area > (1.0 + 4.0 * k.A * k.B) ** trace.sweeps * init.area + TOL:
            bad.append(f"area {fin.area} over growth bound")
    ok = not bad
    _report(
        capsys,
        4,
        ok,
        f"{len(completed_runs)} runs, {total_sweeps} sweeps, violations: {bad or 'none'}",
    )


def _commutator_factors_tall(q):
    # [x, y z] = [x, y] * y [x, z] y^-1 with x = a, y = b, z = b^(q-1)
    if q == 0:
        return []
    return [((), R)] + [((2,) + u, s) for u, s in _commutator_factors_tall(q - 1)]


def _commutator_factors(p, q):
    # [x y, v] = x [y, v] x^-1 * [x, v] with x = a, y = a^(p-1), v = b^q
    if p == 0:
        return []
    return [((1,) + u, s) for u, s in _commutator_factors(p - 1, q)] + (
        _commutator_factors_tall(q)
    )


def test_acceptance_5_oracle_equivalence(capsys, z2_bundle, z2_constants):
    started = time.perf_counter()
    p, m, s = z2_bundle
    k = z2_constants
    q = k.q_min + 1.0
    corpus = []
    closed_form_ok = True
    for pp in (1, 2, 3):
        for qq in (1, 2, 3):
            w = (1,) * pp + (2,) * qq + (-1,) * pp + (-2,) * qq
            found = brute_area(p, w, 9, 14)
            if found != pp * qq:
                closed_form_ok = False
            cert = FillingCertificate(tuple(_commutator_factors(pp, qq)))
            corpus.append((w, cert, found))
    for cert in sample_corridor_certificates(p, m, q, 12, 41, 5):
        w = cert.reduced_word()
        corpus.append((w, cert, brute_area(p, w, 6)))
    resolved = 0
    push_ok = True
    for w, cert, found in corpus:
        assert cert.reduced_word() == free_reduce(w)
        d = certificate_to_diagram(p, m, cert, m.zero)
        fin, _ = push_to_corridor(d, s, k, q)
        if found is not None:
            resolved += 1
            if fin.area < found:
                push_ok = False
    elapsed = time.perf_counter() - started
    ok = (
        len(corpus) == 50
        and all(len(w) <= 12 for w, _, _ in corpus)
        and closed_form_ok
        and push_ok
        and elapsed < 120.0
    )
    _report(
        capsys,
        5,
        ok,
        f"50 words, closed form {'ok' if closed_form_ok else 'broken'},"
        f" {resolved} resolved, pushed>=brute {'ok' if push_ok else 'broken'}, {elapsed:.1f}s",
    )


def test_acceptance_6_heisenberg_certification(
    capsys, heisenberg_bundle, heis_constants
):
    started = time.perf_counter()
    p, m, s = heisenberg_bundle
    k = heis_constants
    entries_ok = {e.t for e in s.entries} == {1, -1, 2, -2}
    gap_ok = k.a > 0 and k.grid_spacing == 0.01
    q = k.q_min + 1.0
    loops = 0
    violations = []
    for cert in sample_corridor_certificates(p, m, q, 12, 100, 6):
        d = wasteful_diagram(s, cert, q)
        _, trace = push_to_corridor(d, s, k, q)
        loops += 1
        for st in trace.steps:
            if st.new_vertex_max_norm > st.c - k.a / 2 + TOL:
                violations.append("step norm")
            if st.area_after - st.area_before > k.A * st.degree + TOL:
                violations.append("step area")
        fin = trace.final
        if fin.boundary_word != trace.initial.boundary_word:
            violations.append("boundary")
        for v, baseline in trace.budgets.items():
            if fin.degree(v) > 2 * baseline:
                violations.append("degree")
        for v in fin.vertices:
            if v in trace.original_degrees:
                if fin.degree(v) > 2 * trace.original_degrees[v]:
                    violations.append("degree id")
        c0 = trace.initial.metrics()["norm"]
        cap = math.ceil(2 * (c0 - q) / k.a) if c0 > q else 0
        if trace.sweeps > cap:
            violations.append("sweeps")
        if fin.area > (1.0 + 4.0 * k.A * k.B) ** trace.sweeps * trace.initial.area + TOL:
            violations.append("area growth")
    elapsed = time.perf_counter() - started
    ok = entries_ok and gap_ok and loops == 100 and not violations and elapsed < 300.0
    _report(
        capsys,
        6,
        ok,
        f"a={k.a:.4f} at grid 0.01, {loops} loops pushed clean,"
        f" {len(violations)} violations, {elapsed:.1f}s",
    )


def test_acceptance_7_bound_shapes(capsys, z2_constants):
    k = z2_constants
    poly_pair = ARPair.from_strings("3*n*log(n)", "2*log(n)")
    expo_pair = ARPair.from_strings("5*n**2", "4*n")
    # with a=1 and unit letter norms the sweep exponent is ceil(2*g(n)), so the
    # log-radius pair stays under 243 * n^(4*ln(81)+2) while the linear-radius
    # pair equals 81^(8n) * 5n^2 exactly
    alpha = 4.0 * math.log(81.0) + 2.0
    ok = True
    details = []
    for n in (10, 100, 1000):
        poly_val = predicted_area_bound(poly_pair, k, n)
        expo_val = predicted_area_bound(expo_pair, k, n)
        envelope = 243.0 * float(n) ** alpha
        if not poly_val <= envelope:
            ok = False
        if expo_val != 81 ** (8 * n) * 5 * n * n:
            ok = False
        if n >= 100 and not expo_val > envelope:
            ok = False
        details.append(f"n={n}: poly {poly_val:.3g}")
    _report(capsys, 7, ok, "; ".join(details) + f", envelope degree {alpha:.2f}")
