"""Regenerate the committed example fixtures.

Run from the repository root, with the library in ``src/`` on the path
(an installed vkpush needs no PYTHONPATH):

    PYTHONPATH=src python3 fixtures/make_fixtures.py

Each fixture file bundles a presentation, an abelianization map, and a
verified pushing scheme whose fillings were found by the search oracle.
The script is deterministic, so a clean checkout reproduces the committed
bytes exactly.
"""

import json
import pathlib

from vkpush.abelianization import AbelianizationMap
from vkpush.oracle import build_scheme_entry
from vkpush.presentation import Presentation
from vkpush.scheme import PushingScheme, certify_coverage

HERE = pathlib.Path(__file__).resolve().parent


def z2_bundle() -> dict:
    p = Presentation(("a", "b"), ((1, 2, -1, -2),))
    m = AbelianizationMap(1, ((1,), (0,)))
    conj = {2: (2,), -2: (-2,)}
    entries = tuple(build_scheme_entry(p, m, t, conj, max_area=2) for t in (1, -1))
    s = PushingScheme(p, m, entries)
    k = certify_coverage(s, 0.05)
    assert k.a == 1.0 and k.q_min == 4.0, k
    return {
        "presentation": p.to_json_dict(),
        "map": m.to_json_dict(p),
        "scheme": s.to_json_dict(),
    }


def heisenberg_bundle() -> dict:
    # [x,y]=z with z central; the two extra relators witness the x and y
    # conjugation cells directly, leaving the group unchanged.
    p = Presentation(
        ("x", "y", "z"),
        (
            (1, 2, -1, -2, -3),
            (1, 3, -1, -3),
            (2, 3, -2, -3),
            (-1, 2, 1, -2, 3),
            (-2, 1, 2, -1, -3),
        ),
    )
    m = AbelianizationMap(2, ((1, 0), (0, 1), (0, 0)))
    conj = {
        1: {2: (-3, 2), -2: (-2, 3), 3: (3,), -3: (-3,)},
        -1: {2: (3, 2), -2: (-2, -3), 3: (3,), -3: (-3,)},
        2: {1: (3, 1), -1: (-1, -3), 3: (3,), -3: (-3,)},
        -2: {1: (1, -3), -1: (3, -1), 3: (3,), -3: (-3,)},
    }
    entries = tuple(
        build_scheme_entry(p, m, t, conj[t], max_area=4, max_len=12)
        for t in (1, -1, 2, -2)
    )
    s = PushingScheme(p, m, entries)
    k = certify_coverage(s, 0.01)
    assert k.a > 0.0, k
    return {
        "presentation": p.to_json_dict(),
        "map": m.to_json_dict(p),
        "scheme": s.to_json_dict(),
    }


def main() -> None:
    for name, bundle in (("z2", z2_bundle()), ("heisenberg", heisenberg_bundle())):
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(bundle, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
