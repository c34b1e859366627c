import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import event, given, note, settings, strategies as st

from vkpush import cli, pusher
from vkpush.cli import main
from vkpush.abelianization import AbelianizationMap
from vkpush.diagram import DiagramBuilder
from vkpush.oracle import sample_corridor_certificates, tower_diagram, wasteful_diagram
from vkpush.presentation import Presentation, ValidationError
from vkpush.scheme import CertificationError, certify_coverage
from vkpush.store import DartStore

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

Z2 = str(FIXTURES / "z2.json")
HEIS = str(FIXTURES / "heisenberg.json")
# subprocesses import vkpush from this checkout's src/, installed or not
SRC = str(FIXTURES.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


@pytest.fixture(scope="module")
def tower_file(tmp_path_factory, z2_bundle):
    p, m, s = z2_bundle
    up = next(e for e in s.entries if e.t == 1)
    d = tower_diagram(up, (1, 2, -1, -2), 6, m.zero)
    path = tmp_path_factory.mktemp("cli") / "tower6.json"
    path.write_text(json.dumps(d.to_json_dict()))
    return str(path)


# -- certify -----------------------------------------------------------------


def test_certify_exact_rank_one_constants(capsys):
    code, out, err = run(capsys, "certify", Z2)
    assert code == 0 and err is None
    assert out["a"] == 1.0
    assert out["b"] == 2.0
    assert out["A"] == 5.0
    assert out["B"] == 4
    assert out["q_min"] == 4.0
    assert out["grid_spacing"] is None


def test_certify_rejects_nonpositive_grid(capsys):
    code, out, err = run(capsys, "certify", Z2, "--grid", "0")
    assert code == 64
    assert err["error"]["type"] == "UsageError"


def _range_case(flag, value, code, kind, command):
    prefix = "" if flag == "--grid" else "q="
    return pytest.param(flag, value, code, kind, command, id=f"{prefix}{value}-{code}-{kind}-{command}")


@pytest.mark.parametrize(
    "flag, value, code, kind, command",
    [
        _range_case("--grid", value, code, kind, command)
        for value, code, kind in [
            ("nan", 64, "UsageError"),
            ("inf", 64, "UsageError"),
            ("1e-300", 2, "ValidationError"),
            ("1e-5", 2, "ValidationError"),
        ]
        for command in ("certify", "push", "bench")
    ]
    + [
        _range_case("--q", value, 64, "UsageError", command)
        for value in ("nan", "inf", "-inf")
        for command in ("push", "sample", "bench")
    ]
    # below the largest letter step no corridor loop exists
    + [_range_case("--q", "0.5", 64, "UsageError", "sample")],
)
def test_grid_outside_its_range_is_a_json_error(capsys, tmp_path, flag, value, code, kind, command):
    # a grid spacing or a corridor radius out of range; 1e-300 asks for about
    # 10^300 sphere points and 1e-5 for 400,004, and the count is refused
    # before any is made
    args = {"--q": "20", "--grid": "0.05", flag: value}
    argv = {
        "certify": ["certify", HEIS],
        "push": ["push", HEIS, str(tmp_path / "unused.json"), f"--q={args['--q']}"],
        "sample": ["sample", HEIS, f"--q={args['--q']}", "--count", "1"],
        "bench": ["bench", HEIS, f"--q={args['--q']}", "--count", "1"],
    }[command]
    if command != "sample":
        argv.append(f"--grid={args['--grid']}")
    got = main(argv)
    captured = capsys.readouterr()
    assert got == code
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert json.loads(captured.err)["error"]["type"] == kind


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", Z2, "--q", "5", "--count", "-1"],
        ["bench", Z2, "--q", "5", "--count", "-1"],
        ["area-oracle", Z2, "--word", "a", "--max-area", "-1"],
        ["bench", Z2, "--q", "5", "--count", "1", "--oracle-check", "--max-area", "-1"],
        ["sample", Z2, "--q", "5", "--count", "1", "--target-len", "0"],
        ["bench", Z2, "--q", "5", "--count", "1", "--target-len", "-3"],
        ["area-oracle", Z2, "--word", "a", "--max-area", "2", "--max-len", "-1"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[2:]),
)
def test_integer_flag_below_its_floor_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out is None
    assert err["error"]["type"] == "UsageError"
    assert err["error"]["message"].startswith("--")


def test_certify_uncovered_scheme_exits_three(capsys, tmp_path):
    obj = json.loads((FIXTURES / "z2.json").read_text())
    obj["scheme"]["entries"] = [e for e in obj["scheme"]["entries"] if e["t"] == "a"]
    path = tmp_path / "one_sided.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "certify", str(path))
    assert code == 3
    assert err["error"]["type"] == "CertificationError"


def test_certify_refuses_a_presentation_without_relators(capsys, tmp_path):
    # validate accepts the bundle; certify has no relator to bound
    bundle = {
        "presentation": {"generators": ["a"], "relators": []},
        "map": {"rank": 1, "columns": {"a": [1]}},
        "scheme": {"entries": [{"t": "a", "conj": {}, "fillings": {}}]},
    }
    path = tmp_path / "no_relators.json"
    path.write_text(json.dumps(bundle))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0 and out["ok"] is True
    code, out, err = run(capsys, "certify", str(path))
    assert code == 3 and out is None
    assert err["error"] == {
        "type": "CertificationError",
        "message": "presentation has no relators to certify against",
    }


def test_certify_requires_a_scheme(capsys, tmp_path):
    obj = json.loads((FIXTURES / "z2.json").read_text())
    del obj["scheme"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "certify", str(path))
    assert code == 2
    assert err["error"]["type"] == "ValidationError"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["push", Z2, "unused.json", "--q", "-inf"], "q must be a finite number"),
        (["push", Z2, "unused.json", "--q", "-NaN"], "q must be a finite number"),
        (["bench", Z2, "--q", "-Infinity"], "q must be a finite number"),
        (["certify", Z2, "--grid", "-1.5e-285"], "grid spacing must be a positive finite number"),
        (["certify", Z2, "--grid", "-.5E+3"], "grid spacing must be a positive finite number"),
    ],
    ids=["q=-inf-push", "q=-NaN-push", "q=-Infinity-bench", "-1.5e-285-certify", "-.5E+3-certify"],
)
def test_a_negative_float_spelling_is_a_flag_value(capsys, argv, message):
    # argparse alone would read these as options and say the flag lacks a value
    code, out, err = run(capsys, *argv)
    assert code == 64 and out is None
    assert err["error"] == {"type": "UsageError", "message": message}


# -- validate ----------------------------------------------------------------


def test_validate_refuses_a_scheme_that_fails_verification(capsys, tmp_path):
    obj = json.loads((FIXTURES / "z2.json").read_text())
    obj["scheme"]["entries"][0]["conj"]["b"] = "b b"
    path = tmp_path / "bad_conj.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3 and out is None
    assert err["error"]["type"] == "CertificationError"
    assert err["error"]["message"].startswith("entry 0: conjugates of 'b' and its inverse are not inverse words")


def test_validate_bundle_and_diagram(capsys, tower_file):
    code, out, err = run(capsys, "validate", Z2, tower_file)
    assert code == 0
    assert out["ok"] is True
    assert out["bundle"]["scheme_entries"] == 2
    assert out["diagrams"][0]["area"] == 13
    assert out["diagrams"][0]["boundary"] == "a b a^-1 b^-1"


def test_validate_rejects_corrupt_diagram(capsys, tower_file, tmp_path):
    obj = json.loads(open(tower_file).read())
    obj["darts"][0]["twin"] = obj["darts"][0]["id"]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", Z2, str(bad))
    assert code == 2
    assert str(bad) in err["error"]["message"]


def _list_at_base(obj):
    obj["base"] = [obj["base"]]


def _list_at_boundary_face_dart(obj):
    obj["boundary_face_dart"] = [obj["boundary_face_dart"]]


def _list_in_a_rotation(obj):
    rot = next(iter(obj["rotations"].values()))
    rot[0] = [rot[0]]


def _list_at_a_twin(obj):
    obj["darts"][0]["twin"] = [obj["darts"][0]["twin"]]


def _list_at_an_origin(obj):
    obj["darts"][0]["origin"] = [obj["darts"][0]["origin"]]


@pytest.mark.parametrize(
    "corrupt",
    [_list_at_base, _list_at_boundary_face_dart, _list_in_a_rotation, _list_at_a_twin, _list_at_an_origin],
)
def test_a_list_where_an_id_goes_is_a_validation_error(capsys, tower_file, tmp_path, corrupt):
    # a list is unhashable: it must be refused as JSON, never reach a dict lookup
    obj = json.loads(open(tower_file).read())
    corrupt(obj)
    bad = tmp_path / "listed.json"
    bad.write_text(json.dumps(obj))
    for argv in (
        ["validate", Z2, str(bad)],
        ["push", Z2, str(bad), "--q", "4.5"],
        ["render", Z2, str(bad), "--out", str(tmp_path)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out is None, argv
        assert err["error"]["type"] == "ValidationError"
        assert err["error"]["message"].startswith(f"{bad}: ")
        assert "integer" in err["error"]["message"]


@pytest.mark.parametrize(
    "where", ["id", "origin", "twin", "base", "base_label", "boundary_face_dart", "rotation"]
)
def test_a_boolean_where_an_integer_goes_in_a_diagram_is_a_validation_error(
    capsys, tower_file, tmp_path, where
):
    # JSON true parses to a Python bool, which is an int: it must be refused
    obj = json.loads(open(tower_file).read())
    if where in ("id", "origin", "twin"):
        obj["darts"][0][where] = True
    elif where == "rotation":
        next(iter(obj["rotations"].values()))[0] = True
    else:
        obj[where] = [True] if where == "base_label" else True
    bad = tmp_path / "boolean.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", Z2, str(bad))
    assert code == 2 and out is None
    assert err["error"]["type"] == "ValidationError"
    assert err["error"]["message"].startswith(f"{bad}: ")


@pytest.mark.parametrize("where", ["rank", "column"])
def test_a_boolean_where_an_integer_goes_in_a_map_is_a_validation_error(capsys, tmp_path, where):
    bundle = json.loads(pathlib.Path(Z2).read_text())
    if where == "rank":
        bundle["map"]["rank"] = True
    else:
        next(iter(bundle["map"]["columns"].values()))[0] = True
    path = tmp_path / "boolean-map.json"
    path.write_text(json.dumps(bundle))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out is None
    assert err["error"]["type"] == "ValidationError"


def _presentation(generators, relators):
    return lambda b: b.update(presentation={"generators": generators, "relators": relators})


# each edit of fixtures/z2.json, in place or returning the new bundle, and the
# message it draws; {path} is the bundle's
BUNDLE_REFUSALS = {
    "a-list": (lambda b: [b], "{path}: bundle must be a JSON object"),
    "no-map": (lambda b: {k: v for k, v in b.items() if k != "map"}, "{path}: bundle lacks 'map'"),
    "no-generators": (_presentation([], []), "a presentation needs at least one generator"),
    "empty-generator-name": (_presentation(["", "b"], ["b"]), "generator names must be nonempty strings"),
    "generator-a^": (_presentation(["a^", "b"], ["b"]), "generator name 'a^' contains reserved characters"),
    "non-string-relators": (_presentation(["a", "b"], [1]), "presentation JSON needs a 'relators' list of strings"),
    "map-a-list": (lambda b: b.update(map=[]), "map JSON must be an object"),
    "rank-0": (lambda b: b["map"].update(rank=0), "rank must be a positive integer"),
    "columns-a-list": (lambda b: b["map"].update(columns=[]), "map JSON needs a 'columns' object"),
    "column-not-a-list": (lambda b: b["map"]["columns"].update(a=1), "column for 'a' must be a list"),
    "column-of-rank-2": (lambda b: b["map"]["columns"].update(a=[1, 0]), "column (1, 0) does not have rank 1 entries"),
    "conj-a-list": (
        lambda b: b["scheme"]["entries"][0].update(conj=[]),
        "entry 'conj' and 'fillings' must be objects",
    ),
}


@pytest.mark.parametrize("edit, message", BUNDLE_REFUSALS.values(), ids=BUNDLE_REFUSALS)
def test_validate_refuses_a_malformed_bundle_by_name(capsys, tmp_path, edit, message):
    bundle = json.loads(pathlib.Path(Z2).read_text())
    edited = edit(bundle)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle if edited is None else edited))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out is None
    assert err["error"] == {"type": "ValidationError", "message": message.format(path=path)}


def test_validate_refuses_a_map_that_sends_a_relator_off_zero(capsys, tmp_path):
    # each relator must map to zero under the bundle's map
    bundle = json.loads(pathlib.Path(HEIS).read_text())
    bundle["map"]["columns"]["z"] = [1, 0]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out is None
    assert err["error"] == {
        "type": "ValidationError",
        "message": f"{path}: relator 0 maps to [-1, 0], not zero; relator 3 maps to [1, 0], not zero;"
        " relator 4 maps to [-1, 0], not zero",
    }


@pytest.mark.parametrize(
    "key, value, message",
    [("darts", {}, "'darts' must be a list"), ("rotations", [], "'rotations' must be an object")],
)
def test_validate_refuses_a_diagram_field_of_the_wrong_kind(capsys, tower_file, tmp_path, key, value, message):
    obj = json.loads(open(tower_file).read())
    obj[key] = value
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", Z2, str(path))
    assert code == 2 and out is None
    assert err["error"] == {"type": "ValidationError", "message": f"{path}: {message}"}


# JSON values a mutation may put anywhere in a diagram file
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 60)
    | st.sampled_from([0, -1, 2**63, 10**30, -(10**30)])
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def json_slots(obj, out):
    """Every (container, key) of a parsed JSON tree, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        out.append((obj, key))
        json_slots(value, out)
    return out


# values far above any dart id, or no integer at all, where a dart id goes
FAR = [10**12, 2**63, True]


def id_slots(obj):
    """The (container, key) of every dart id, twin and rotation entry a diagram file still has."""
    darts, rotations = obj.get("darts"), obj.get("rotations")
    slots = []
    if isinstance(darts, list):
        entries = [entry for entry in darts if isinstance(entry, dict)]
        slots += [(entry, key) for entry in entries for key in ("id", "twin") if key in entry]
    if isinstance(rotations, dict):
        slots += [(rot, i) for rot in rotations.values() if isinstance(rot, list) for i in range(len(rot))]
    return slots


# spellings of an integer key that int() reads as that integer; the loader
# takes only the canonical one, str(int(key)) == key
SPELLINGS = {
    "leading zero": lambda key: "0" + key,
    "space and underscore": lambda key: f" 0_{key}",
    "arabic-indic": lambda key: key.translate(str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))),
}


def int_keys(obj) -> list[tuple[dict, str]]:
    """The (object, key) of every canonical integer key the loader reads in a file.

    Those are the keys of each diagram's rotations and of each scheme
    entry's fillings, wherever a mutation has left them in place.
    """
    scheme = obj.get("scheme") if isinstance(obj, dict) else None
    entries = scheme.get("entries") if isinstance(scheme, dict) else None
    if isinstance(entries, list):
        keyed = [e["fillings"] for e in entries if isinstance(e, dict) and isinstance(e.get("fillings"), dict)]
        diagrams = [f for fillings in keyed for f in fillings.values()]
    else:
        keyed, diagrams = [], [obj]
    keyed += [d["rotations"] for d in diagrams if isinstance(d, dict) and isinstance(d.get("rotations"), dict)]
    return [(o, key) for o in keyed for key in o if re.fullmatch("-?(0|[1-9][0-9]*)", key)]


def mutate_json(obj, data) -> str:
    """Break a parsed diagram or bundle file one way, drawn by hypothesis; returns the kind."""
    slots = json_slots(obj, [])
    container, key = data.draw(st.sampled_from(slots))
    kind = data.draw(st.sampled_from(["replace", "delete", "copy", "nudge"]))
    if kind == "replace":
        container[key] = data.draw(JSON_VALUES)
    elif kind == "delete":
        del container[key]
    elif kind == "copy":
        other, okey = data.draw(st.sampled_from(slots))
        container[key] = copy.deepcopy(other[okey])
    else:
        value = container[key]
        if isinstance(value, int) and not isinstance(value, bool):
            container[key] = value + data.draw(st.sampled_from([-2, -1, 1, 2]))
    return kind


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, z2_bundle, heisenberg_bundle):
    """Per fixture: its bundle file, a valid diagram of it as JSON, and a file to write cases to."""
    p, m, s = z2_bundle
    tower = tower_diagram(next(e for e in s.entries if e.t == 1), (1, 2, -1, -2), 3, m.zero)
    p, m, s = heisenberg_bundle
    filling = max((f for e in s.entries for f in e.fillings.values()), key=lambda f: len(f.darts))
    folder = tmp_path_factory.mktemp("fuzz")
    return [(bundle, d.to_json_dict(), folder / f"{name}.json") for name, bundle, d in (
        ("z2", Z2, tower), ("heisenberg", HEIS, filling),
    )]


def run_in_process(*argv, codes=(0, 1, 2, 3, 64)) -> tuple[int, str, object]:
    """Run the command line in-process, as the console script does.

    The run must end in time with one of ``codes``.  A success prints
    one JSON object on stdout and nothing on stderr; an error, one JSON
    object on stderr and nothing on stdout.  Returns the code, what it says
    and the output object.
    """
    out, err = io.StringIO(), io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert time.monotonic() - started < 10.0
    assert code in codes, code
    if code == 0:
        assert err.getvalue() == ""
        return code, "accepted", json.loads(out.getvalue())
    assert out.getvalue() == ""
    error = json.loads(err.getvalue())["error"]
    assert {"type", "message"} <= set(error) and "Traceback" not in error["message"]
    return code, f"exit {code}: {error['type']}", error


def validate_in_process(bundle, path, obj) -> tuple[int, str]:
    """Write obj to path and run validate on it in-process; returns the code and what it says."""
    path.write_text(json.dumps(obj))
    code, said, output = run_in_process("validate", bundle, str(path))
    assert code in (0, 1, 2, 64), code
    if code == 0:
        assert output["ok"] is True
    else:
        assert set(output) == {"type", "message"}
    return code, said


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_is_total_on_mutated_diagram_json(fuzz_inputs, data):
    bundle, valid, path = fuzz_inputs[data.draw(st.integers(0, len(fuzz_inputs) - 1))]
    obj = copy.deepcopy(valid)
    kinds = [mutate_json(obj, data) for _ in range(data.draw(st.integers(1, 3)))]
    # last, perhaps, a dart id, twin or rotation entry far above the ids
    far = data.draw(st.booleans()) and id_slots(obj)
    if far:
        container, key = data.draw(st.sampled_from(far))
        container[key] = data.draw(st.sampled_from(FAR))
        kinds.append(f"far {key}")
    spelled = respell_a_key(obj, data)
    kinds += spelled
    note(kinds)
    code, said = validate_in_process(bundle, path, obj)
    event(said)
    if far or spelled:
        assert code == 2


def respell_a_key(obj, data) -> list[str]:
    """Perhaps move one integer key the loader reads to a spelling int reads as it too."""
    keys = data.draw(st.booleans()) and int_keys(obj)
    if not keys:
        return []
    container, key = data.draw(st.sampled_from(keys))
    form = data.draw(st.sampled_from(sorted(SPELLINGS)))
    container[SPELLINGS[form](key)] = container.pop(key)
    return [f"{form} {key!r}"]


@pytest.mark.parametrize("value", FAR, ids=["1e12", "2^63", "true"])
@pytest.mark.parametrize("slot", ["id", "twin", "rotation"])
def test_validate_refuses_a_dart_id_far_above_the_dart_count(fuzz_inputs, slot, value):
    # the dart lists run to the largest id, so an id like these must be
    # refused before a list that long is made, and a twin or rotation entry
    # like them is an unknown dart
    for bundle, valid, path in fuzz_inputs:
        obj = copy.deepcopy(valid)
        if slot == "rotation":
            obj["rotations"][max(obj["rotations"])][-1] = value
        else:
            obj["darts"][-1][slot] = value
        assert validate_in_process(bundle, path, obj)[0] == 2


@pytest.mark.parametrize("form", sorted(SPELLINGS))
@pytest.mark.parametrize("how", ["renamed", "listed twice"])
@pytest.mark.parametrize("where", ["rotation", "filling"])
def test_an_integer_key_in_another_spelling_is_a_validation_error(fuzz_inputs, where, how, form):
    # int() reads "01", " 0_1" and Arabic-Indic digits as 1: a vertex listed
    # under "1" and "01" was folded into one, and "01" replaced filling "1"
    bundle, valid, path = fuzz_inputs[0]
    obj = copy.deepcopy(valid) if where == "rotation" else json.loads(pathlib.Path(bundle).read_text())
    keyed = obj["rotations"] if where == "rotation" else obj["scheme"]["entries"][0]["fillings"]
    key = str(obj["base"]) if where == "rotation" else next(iter(keyed))
    keyed[SPELLINGS[form](key)] = keyed[key] if how == "listed twice" else keyed.pop(key)
    path.write_text(json.dumps(obj))
    argv = ["validate", bundle, str(path)] if where == "rotation" else ["validate", str(path)]
    code, said, error = run_in_process(*argv)
    assert code == 2 and error["type"] == "ValidationError"
    assert "canonical decimal form" in error["message"]


@pytest.fixture(scope="module")
def fuzz_bundles(tmp_path_factory):
    """Per fixture bundle: its parsed JSON, and a file to write cases to."""
    folder = tmp_path_factory.mktemp("fuzz-bundles")
    return [(json.loads(pathlib.Path(b).read_text()), folder / pathlib.Path(b).name) for b in (Z2, HEIS)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_validate_and_certify_are_total_on_mutated_bundle_json(fuzz_bundles, data):
    valid, path = fuzz_bundles[data.draw(st.integers(0, len(fuzz_bundles) - 1))]
    obj = copy.deepcopy(valid)
    kinds = [mutate_json(obj, data) for _ in range(data.draw(st.integers(1, 3)))]
    spelled = respell_a_key(obj, data)
    note(kinds + spelled)
    path.write_text(json.dumps(obj))
    for argv in (["validate", str(path)], ["certify", str(path), "--grid", "0.05"]):
        code, said, _ = run_in_process(*argv)
        event(f"{argv[0]} {said}")
        if spelled:
            assert code == 2


def flag(data, values) -> str:
    """A drawn flag value: mostly one of values, else text that may not parse as one."""
    if data.draw(st.integers(0, 4)):
        return str(data.draw(values))
    return data.draw(st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "1.5", "-1", "0x10", "\u0663"]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sample_and_area_oracle_are_total_on_drawn_flags(data):
    bundle = data.draw(st.sampled_from([Z2, HEIS]))
    if data.draw(st.booleans()):
        argv = ["sample", bundle, "--q", flag(data, st.floats(0, 12) | st.floats()), "--count", flag(data, st.integers(-1, 5))]
        argv += ["--seed", flag(data, st.integers(-(2**70), 2**70))] * data.draw(st.booleans())
        argv += ["--target-len", flag(data, st.integers(-1, 24))] * data.draw(st.booleans())
    else:
        letters = ["a", "b", "x", "y", "z", "a^-1", "b^-1", "x^-1", "y^-1", "z^-1", "t", "^-1"]
        word = data.draw(st.lists(st.sampled_from(letters), max_size=8).map(" ".join) | st.text(max_size=6))
        argv = ["area-oracle", bundle, "--word", word, "--max-area", flag(data, st.integers(-1, 3))]
        argv += ["--max-len", flag(data, st.integers(-1, 30))] * data.draw(st.booleans())
        argv += ["--max-words", flag(data, st.integers(0, 10**5))] * data.draw(st.booleans())
        argv += ["--certificate"] * data.draw(st.booleans())
    note(argv)
    code, said, _ = run_in_process(*argv)
    event(f"{argv[0]} {said}")


@pytest.fixture(scope="module")
def drawn_towers(tmp_path_factory, z2_bundle):
    """z2 towers of both entries at depths 0 to 8, as diagram files, and a folder for renders."""
    p, m, s = z2_bundle
    folder = tmp_path_factory.mktemp("drawn")
    paths = []
    for e in s.entries:
        for depth in range(9):
            path = folder / f"tower{e.t:+d}-{depth}.json"
            path.write_text(json.dumps(tower_diagram(e, (1, 2, -1, -2), depth, m.zero).to_json_dict()))
            paths.append(str(path))
    return paths, folder


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_push_bench_and_render_are_total_on_drawn_flags(drawn_towers, data):
    # finite --q stays at most 20: a huge one makes bench build towers
    # without bound (ROADMAP item 9)
    paths, folder = drawn_towers
    # half the cases draw every flag from its valid range, so that runs push;
    # the other half from a wider one, through flag
    fuzzy = data.draw(st.booleans())

    def drawn(valid, wide):
        return flag(data, valid | wide) if fuzzy else str(data.draw(valid))

    bundle = data.draw(st.sampled_from([Z2, HEIS]))
    q = ["--q", drawn(st.floats(4.01, 20), st.floats(-1, 20) | st.sampled_from([math.nan, math.inf, -math.inf]))]
    grid = ["--grid", drawn(st.floats(0.01, 0.5), st.floats(-1, 1))] * data.draw(st.booleans())
    command = data.draw(st.sampled_from(["push", "bench", "render"]))
    if command == "push":
        argv = ["push", bundle, data.draw(st.sampled_from(paths)), *q, *grid]
        argv += ["--render", str(folder / "push")] * data.draw(st.booleans())
    elif command == "bench":
        argv = ["bench", bundle, *q, *grid, "--count", drawn(st.integers(0, 3), st.integers(-1, 3))]
        argv += ["--seed", drawn(st.integers(0, 99), st.integers(-(2**70), 2**70))] * data.draw(st.booleans())
        argv += ["--target-len", drawn(st.integers(1, 24), st.integers(-1, 24))] * data.draw(st.booleans())
        argv += ["--ar", data.draw(st.sampled_from(["n^2,n", "2^n,n", "n,", "x", "n^n^n,1"]))] * data.draw(st.booleans())
        argv += ["--oracle-check", "--max-area", drawn(st.integers(0, 2), st.integers(-1, 2))] * data.draw(st.booleans())
        argv += [data.draw(st.sampled_from(["--wasteful", "--no-wasteful"]))] * data.draw(st.booleans())
    else:
        argv = ["render", bundle, data.draw(st.sampled_from(paths)), "--out", str(folder / "render")]
        argv += ["--name", data.draw(st.text("ab-_.", max_size=6))] * data.draw(st.booleans())
    note(argv)
    # a push that breaks its own checks exits 4 with only the error; bench
    # would print its report too, so 4 fails there
    code, said, _ = run_in_process(*argv, codes=(0, 2, 3, 4, 64) if command == "push" else (0, 2, 3, 64))
    event(f"{command} {said}")


def test_missing_file_is_io_error(capsys):
    code, out, err = run(capsys, "certify", "/nonexistent/bundle.json")
    assert code == 1
    assert err["error"]["type"] == "InputError"


def test_unparseable_json_is_io_error(capsys, tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "invalid JSON" in err["error"]["message"]


@pytest.mark.parametrize("role", ["bundle", "diagram"])
@pytest.mark.parametrize(
    "content", [b"\xff", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "nested-100000-deep"]
)
def test_undecodable_json_is_io_error(capsys, tmp_path, tower_file, role, content):
    # a UnicodeDecodeError or a RecursionError inside json, not a traceback
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    bundle, diagram = (str(path), tower_file) if role == "bundle" else (Z2, str(path))
    for argv in (
        ["validate", bundle] + [diagram] * (role == "diagram"),
        ["push", bundle, diagram, "--q", "4.5"],
        ["render", bundle, diagram, "--out", str(tmp_path)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out is None, argv
        assert err["error"]["type"] == "InputError"
        assert err["error"]["message"].startswith(f"{path}: invalid JSON")


# -- push --------------------------------------------------------------------


def test_push_tower_reports_trace_and_checks(capsys, tower_file, tmp_path):
    render_dir = tmp_path / "pics"
    code, out, err = run(
        capsys, "push", Z2, tower_file, "--q", "4.5", "--render", str(render_dir)
    )
    assert code == 0
    assert out["boundary"] == "a b a^-1 b^-1"
    assert out["initial"]["norm"] == 7.0
    assert out["final"]["norm"] <= 4.5
    assert out["steps"] and out["sweeps"] <= out["bound_checks"]["sweep_cap"]
    checks = out["bound_checks"]
    assert all(v for v in checks.values() if isinstance(v, bool))
    for name in ("initial", "final"):
        assert (render_dir / f"{name}.dot").exists()
        svg = (render_dir / f"{name}.svg").read_text()
        assert svg.startswith("<svg") and "<circle" in svg


def test_push_radius_at_q_min_is_usage_error(capsys, tower_file):
    code, out, err = run(capsys, "push", Z2, tower_file, "--q", "4.0")
    assert code == 64
    assert "q_min" in err["error"]["message"]


def test_push_boundary_outside_corridor_is_invariant_error(capsys, z2_bundle, tmp_path):
    p, m, s = z2_bundle
    up = next(e for e in s.entries if e.t == 1)
    far = tower_diagram(up, (1, 2, -1, -2), 3, (8,))
    path = tmp_path / "far.json"
    path.write_text(json.dumps(far.to_json_dict()))
    code, out, err = run(capsys, "push", Z2, str(path), "--q", "4.5")
    assert code == 4
    assert err["error"]["type"] == "PushError"
    assert "boundary exceeds corridor" in err["error"]["message"]


def test_push_failing_mid_run_reports_its_progress(capsys, monkeypatch, tower_file):
    glue = DartStore.glue
    calls = []

    def fourth_fails(self, star, t):
        calls.append(star.center)
        if len(calls) == 4:
            raise ValidationError("doctored glue")
        return glue(self, star, t)

    push = cli.push_to_corridor
    raised = []

    def recorded(*args):
        try:
            return push(*args)
        except pusher.PushError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(DartStore, "glue", fourth_fails)
    monkeypatch.setattr(cli, "push_to_corridor", recorded)
    code, out, err = run(capsys, "push", Z2, tower_file, "--q", "4.5")
    assert code == 4 and out is None
    error = err["error"]
    assert error["type"] == "PushError"
    assert "star replacement failed: doctored glue" in error["message"]
    (exc,) = raised
    assert error["steps_completed"] == len(exc.trace.steps) == 3
    assert error["sweeps"] == exc.trace.sweeps == 2


# -- oracles -----------------------------------------------------------------


def test_area_oracle_with_certificate(capsys):
    code, out, err = run(
        capsys,
        "area-oracle",
        Z2,
        "--word",
        "a a b a^-1 a^-1 b^-1",
        "--max-area",
        "4",
        "--certificate",
    )
    assert code == 0
    assert out["area"] == 2
    assert len(out["certificate"]) == 2
    assert all(c["relator"] for c in out["certificate"])


def test_area_oracle_unknown_within_bounds(capsys):
    code, out, err = run(capsys, "area-oracle", Z2, "--word", "b", "--max-area", "3")
    assert code == 0
    assert out["area"] == "unknown"


@pytest.mark.parametrize("max_len, area", [(8, 1), (3, "unknown")])
def test_area_oracle_echoes_its_length_cap(capsys, max_len, area):
    # a cap shorter than the four-letter word leaves the search nothing to try
    argv = ["area-oracle", Z2, "--word", "a b a^-1 b^-1", "--max-area", "2", "--max-len", str(max_len)]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err is None
    assert out == {"word": "a b a^-1 b^-1", "max_area": 2, "max_len": max_len, "area": area}


def test_area_oracle_non_null_word_ends_in_bounded_time():
    # a b has exponent sum 1 in a, which vanishes on [a, b], so it is not
    # null-homotopic and no search level needs to run
    for extra in ([], ["--certificate"]):
        proc = subprocess.run(
            [sys.executable, "-m", "vkpush", "area-oracle", Z2, "--word", "a b", "--max-area", "1000000"]
            + extra,
            capture_output=True,
            text=True,
            env=ENV,
            timeout=20,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["area"] == "unknown"


def test_area_oracle_rejects_a_non_null_word_before_any_search(capsys):
    # e_z + A_xy vanishes on every Heisenberg relator and is 4 on this word,
    # so no word is stored: a one-word budget is never spent
    word = "x x y y x^-1 x^-1 y^-1 y^-1"
    for max_area in ("5", "6"):
        code, out, err = run(capsys, "area-oracle", HEIS, "--word", word, "--max-area", max_area, "--max-words", "1")
        assert code == 0 and out["area"] == "unknown"


def test_area_oracle_spent_budget_is_a_json_error(capsys):
    # [a^2, b^2] has area 4; its peel stores more than 10 words before that
    word = "a a b b a^-1 a^-1 b^-1 b^-1"
    code, out, err = run(capsys, "area-oracle", Z2, "--word", word, "--max-area", "4")
    assert code == 0 and out["area"] == 4
    for extra in ([], ["--certificate"]):
        code = main(["area-oracle", Z2, "--word", word, "--max-area", "4", "--max-words", "10"] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        error = json.loads(captured.err)["error"]
        assert error["type"] == "SearchBudgetError"
        assert "10 stored words" in error["message"]
    code, out, err = run(capsys, "area-oracle", Z2, "--word", word, "--max-area", "4", "--max-words", "0")
    assert code == 64 and err["error"]["type"] == "UsageError"


def test_area_oracle_rejects_more_generators_than_a_byte_holds(capsys, tmp_path):
    gens = [f"g{i}" for i in range(1, 130)]
    obj = {
        "presentation": {"generators": gens, "relators": ["g129"]},
        "map": {"rank": 1, "columns": {g: [0] for g in gens}},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(obj))
    code = main(["area-oracle", str(path), "--word", "g129", "--max-area", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert json.loads(captured.err)["error"]["type"] == "ValidationError"


def test_sample_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "sample", Z2, "--q", "5", "--count", "4", "--seed", "9")
    code2, out2, _ = run(capsys, "sample", Z2, "--q", "5", "--count", "4", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1["words"]) == 4


def test_sample_budget_exhaustion(capsys):
    code, out, err = run(
        capsys, "sample", Z2, "--q", "5", "--count", "2", "--target-len", "2"
    )
    assert code == 2
    assert err["error"]["type"] == "SearchBudgetError"


def test_sample_budget_message_blames_neither_limit(capsys):
    # no nonempty loop has one letter, whatever the corridor: the message
    # names both limits and blames neither
    code, out, err = run(capsys, "sample", HEIS, "--q", "5", "--count", "4", "--target-len", "1")
    assert (code, out) == (2, None)
    assert err["error"]["type"] == "SearchBudgetError"
    assert err["error"]["message"] == (
        "sampling budget exhausted after 1600 attempts (no loop of at most 1 letters inside corridor 5.0)"
    )


# -- bench -------------------------------------------------------------------


def test_bench_report_shape_and_hashes(capsys):
    code, out, err = run(
        capsys,
        "bench",
        Z2,
        "--q",
        "5",
        "--count",
        "3",
        "--seed",
        "3",
        "--oracle-check",
        "--ar",
        "n*log(n),log(n)",
    )
    assert code == 0 and err is None
    digest = hashlib.sha256(open(Z2, "rb").read()).hexdigest()
    assert out["inputs"]["bundle"]["sha256"] == digest
    assert out["constants"]["q_min"] == 4.0
    assert out["audit_summary"]["words"] == 3
    assert out["audit_summary"]["all_passed"] is True
    assert out["audit_summary"]["steps"] > 0
    assert set(out["predicted_area_bounds"]["at_n"]) == {"10", "100", "1000"}
    for r in out["results"]:
        assert r["passed"] is True
        assert r["final_area"] >= r["initial_area"]
        ob = r["oracle"]
        if ob["brute_area"] != "unknown":
            assert ob["pushed_at_least_brute"] is True
    assert "seconds" in out["timing"]


def test_bench_hashes_the_bundle_bytes_it_read(capsys, monkeypatch, tmp_path):
    # the bundle is deleted after the first push; the report still carries
    # the digest of the bytes the run read, which the bench read once
    bundle = tmp_path / "z2.json"
    data = pathlib.Path(Z2).read_bytes()
    bundle.write_bytes(data)
    push, pushes = cli.push_to_corridor, []

    def push_then_delete(*args):
        pushes.append(push(*args))
        bundle.unlink(missing_ok=True)
        return pushes[-1]

    monkeypatch.setattr(cli, "push_to_corridor", push_then_delete)
    code, out, err = run(capsys, "bench", str(bundle), "--q", "5", "--count", "3", "--seed", "3")
    assert code == 0 and err is None
    assert len(pushes) == 3 and not bundle.exists()
    assert out["inputs"]["bundle"]["sha256"] == hashlib.sha256(data).hexdigest()


def test_bench_without_wasteful_fillings_pushes_nothing(capsys):
    # the plain certificate fillings of z2 corridor loops already lie inside
    code, out, err = run(capsys, "bench", Z2, "--q", "5", "--count", "3", "--seed", "3", "--no-wasteful")
    assert code == 0 and err is None
    assert out["wasteful"] is False
    assert out["audit_summary"]["steps"] == 0
    for r in out["results"]:
        assert r["steps"] == 0 and r["final_area"] == r["initial_area"]


@pytest.mark.parametrize(
    "ar, at_n",
    [
        ("n,0", [10, 100, 1000]),
        ("n,n", [1.478088294143459e39, "overflow", "overflow"]),
        ("n*log(n),n", [3.4034240722237283e39, "overflow", "overflow"]),
        # 81^20 * 101, exact over the integers before it is reported as a float
        ("n**2+1,n", [float(81**20 * 101), "overflow", "overflow"]),
    ],
)
def test_bench_predicted_bounds_keep_integers_and_name_overflow(capsys, ar, at_n):
    code, out, err = run(capsys, "bench", Z2, "--q", "5", "--count", "1", "--seed", "3", "--ar", ar)
    assert code == 0 and err is None
    got = out["predicted_area_bounds"]["at_n"]
    assert [got[n] for n in ("10", "100", "1000")] == at_n
    assert [type(v) for v in got.values()] == [type(v) for v in at_n]


def test_bench_refuses_a_growth_expression_too_large_for_a_float(capsys):
    # an integer power past the float range is taken in floats and fails;
    # the text after the prefix is the platform's errno message
    code, out, err = run(capsys, "bench", Z2, "--q", "5", "--count", "1", "--ar", "2**100000,n")
    assert code == 64 and out is None
    assert err["error"]["type"] == "UsageError"
    assert err["error"]["message"].startswith("growth expression '2**100000' is undefined at n = 2:")


def test_bench_deterministic_modulo_timing(capsys):
    def grab():
        code, out, err = run(
            capsys, "bench", HEIS, "--q", "8.6", "--count", "5", "--seed", "17",
            "--grid", "0.01",
        )
        assert code == 0
        out.pop("timing")
        return json.dumps(out, sort_keys=True)

    assert grab() == grab()


def test_bench_reports_failed_words_and_exits_four(capsys, monkeypatch):
    certify = cli.certify_coverage
    # B = 0 certifies no area growth at all, which no pushed word can keep
    monkeypatch.setattr(cli, "certify_coverage", lambda s, g: dataclasses.replace(certify(s, g), B=0))
    code, out, err = run(capsys, "bench", Z2, "--q", "5", "--count", "3", "--seed", "3")
    assert code == 4
    assert err["error"]["type"] == "InvariantViolation"
    summary = out["audit_summary"]
    assert summary["words"] == 3 and summary["failed"] >= 1
    assert summary["passed"] + summary["failed"] == 3 and summary["all_passed"] is False
    failed = [r for r in out["results"] if not r["passed"]]
    assert len(failed) == summary["failed"]
    for r in failed:
        assert "exceeds (1+4AB)^sweeps" in r["error"]
        assert r["bound_checks"]["area_within_bound"] is False
        assert r["steps"] > 0 and r["final_area"] > r["initial_area"]


def test_bench_reports_replacement_failures_and_exits_four(capsys, unglued_replacements):
    code, out, err = run(capsys, "bench", Z2, "--q", "5", "--count", "3", "--seed", "3")
    assert code == 4
    assert err["error"]["type"] == "InvariantViolation"
    assert out["audit_summary"]["failed"] >= 1
    for r in out["results"]:
        if not r["passed"]:
            assert r["error"].startswith("star replacement failed")
            assert r["steps"] == 0 and r["final_area"] == r["initial_area"]


def test_bench_records_an_uncovered_step_as_failed_and_exits_four(capsys, monkeypatch):
    def uncovered(s, u):
        raise CertificationError(f"character {u.direction} not covered by scheme")

    monkeypatch.setattr(pusher, "choose_entry", uncovered)
    code, out, err = run(capsys, "bench", Z2, "--q", "5", "--count", "3", "--seed", "3")
    assert code == 4
    assert err["error"]["type"] == "InvariantViolation"
    assert out["audit_summary"]["failed"] >= 1
    for r in out["results"]:
        if not r["passed"]:
            assert r["error"].startswith("no scheme entry for the pushed vertex")
            assert r["steps"] == 0 and r["final_area"] == r["initial_area"]


def test_bench_audits_each_run_once(capsys, monkeypatch):
    # each word's bound checks come off its trace, audited once by its run
    audit = pusher._audit
    calls = []

    def count(*args):
        calls.append(args)
        return audit(*args)

    monkeypatch.setattr(pusher, "_audit", count)
    code, out, err = run(capsys, "bench", Z2, "--q", "5", "--count", "3", "--seed", "3")
    assert code == 0 and out["audit_summary"]["words"] == 3
    assert len(calls) == 3


def test_bench_rejects_malformed_ar(capsys):
    for ar in (
        "n**2",
        "__import__('os'),n",
        "n,1/(n-10)",
        "n,log(n-10)",
        "n,(n-20)**0.5",
        "n,1e308*n",
        # NaN at every n, and an infinite f(n) times a power that underflows
        "1e308*n-1e308*n,n",
        "1e308*n,-n**3",
    ):
        code, out, err = run(capsys, "bench", Z2, "--q", "5", "--count", "0", "--ar", ar)
        assert code == 64, ar
        assert err["error"]["type"] == "UsageError"


def test_bench_refuses_an_empty_ar(capsys):
    # an empty law is a malformed --ar, not an absent one
    code, out, err = run(capsys, "bench", Z2, "--q", "5", "--count", "1", "--seed", "3", "--ar", "")
    assert code == 64 and out is None
    assert err["error"] == {
        "type": "UsageError",
        "message": "--ar takes two comma separated growth expressions, e.g. '3*n**2,2*n'",
    }


def test_bench_rejects_a_malformed_ar_before_pushing(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "push_to_corridor", lambda *args: calls.append(args))
    for ar in ("n**2", "1e308*n-1e308*n,n"):
        code, out, err = run(capsys, "bench", Z2, "--q", "5", "--count", "3", "--ar", ar)
        assert code == 64 and err["error"]["type"] == "UsageError", ar
    assert calls == []


@pytest.mark.parametrize(
    "law",
    ["+".join(["n"] * 1200), "n+" + "-" * 3000 + "n", "n+" + "-" * 20000 + "n"],
    ids=["sum-of-1200-terms", "3000-deep", "20000-deep"],
)
def test_bench_rejects_a_law_nested_too_deeply(capsys, law):
    # a RecursionError in the evaluator or the parser, and the parser's
    # MemoryError, are an unusable law, not a traceback or a spent search
    with pytest.raises(ValidationError, match="nested too deeply"):
        pusher._compile_growth(law)
    code, out, err = run(capsys, "bench", Z2, "--q", "5", "--count", "0", "--ar", f"{law},n")
    assert code == 64 and out is None
    assert err["error"]["type"] == "UsageError"
    assert err["error"]["message"].endswith("is nested too deeply")


@pytest.mark.parametrize(
    "count, ar", [("1", "10**10**7,n"), ("0", "n**n**n,n")], ids=["10**10**7", "n**n**n"]
)
def test_bench_towering_integer_power_is_a_usage_error_in_bounded_time(count, ar):
    # built in full, 10**10**7 took over 30 s and n**n**n at n = 10 would
    # never end; an integer power past _EXACT_BITS bits overflows as a float
    proc = subprocess.run(
        [sys.executable, "-m", "vkpush", "bench", Z2, "--q", "5", "--count", count, "--ar", ar],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=20,
    )
    assert proc.returncode == 64
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "UsageError" and "undefined" in error["message"]


def test_bench_fast_radius_law_overflows_in_bounded_time():
    # g(n) = n**3 asks for 81 ** (2 * 10**9) at n = 1000; the bound must be
    # reported as overflowing, not built
    proc = subprocess.run(
        [sys.executable, "-m", "vkpush", "bench", Z2, "--q", "5", "--count", "0", "--ar", "n,n**3"],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=20,
    )
    assert proc.returncode == 0
    at_n = json.loads(proc.stdout)["predicted_area_bounds"]["at_n"]
    assert at_n["100"] == "overflow" and at_n["1000"] == "overflow"


# -- render and wiring ---------------------------------------------------------


def test_render_writes_dot_and_svg(capsys, tower_file, tmp_path):
    code, out, err = run(
        capsys, "render", Z2, tower_file, "--out", str(tmp_path), "--name", "pic"
    )
    assert code == 0
    assert out["edges"] == 28
    dot = (tmp_path / "pic.dot").read_text()
    assert dot.startswith("graph") and '[label="a"]' in dot
    assert (tmp_path / "pic.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("command", ["render", "push"])
def test_render_into_an_existing_file_is_an_input_error(capsys, tower_file, tmp_path, command):
    # the text after the prefix is the platform's errno message
    taken = tmp_path / "taken"
    taken.write_text("")
    if command == "render":
        argv = ["render", Z2, tower_file, "--out", str(taken)]
    else:
        argv = ["push", Z2, tower_file, "--q", "4.5", "--render", str(taken)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out is None
    assert err["error"]["type"] == "InputError"
    assert err["error"]["message"].startswith(f"{taken}: ")


def test_render_draws_a_loop_edge_and_the_trivial_diagram(capsys, tmp_path):
    # <a, b | a, b a b^-1 a^-1> with a -> 0 and b -> 1: the one cell of `a`
    # is a loop edge, and the trivial diagram has no dart to pin
    bundle = {
        "presentation": {"generators": ["a", "b"], "relators": ["a", "b a b^-1 a^-1"]},
        "map": {"rank": 1, "columns": {"a": [0], "b": [1]}},
    }
    bundle_path = tmp_path / "loop_bundle.json"
    bundle_path.write_text(json.dumps(bundle))
    p = Presentation.from_json_dict(bundle["presentation"])
    m = AbelianizationMap.from_json_dict(bundle["map"], p)
    bld = DiagramBuilder(p, m)
    cell = bld.path((1,))
    bld.add_cell(cell)
    loop = bld.build(cell, (0,))
    trivial = DiagramBuilder(p, m).build((), (0,))
    for name, d, edges in (("loop", loop, 1), ("trivial", trivial, 0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d.to_json_dict()))
        code, out, err = run(capsys, "render", str(bundle_path), str(path), "--out", str(tmp_path))
        assert code == 0 and out["vertices"] == 1 and out["edges"] == edges
    (v,) = loop.vertices
    loop_svg = (tmp_path / "loop.svg").read_text()
    assert '<circle cx="334.0" cy="32.0" r="14" fill="none"' in loop_svg
    assert f'  v{v} -- v{v} [label="a"];' in (tmp_path / "loop.dot").read_text()
    trivial_svg = (tmp_path / "trivial.svg").read_text()
    assert '<circle cx="320.0" cy="320.0" r="4.5"' in trivial_svg
    assert "--" not in (tmp_path / "trivial.dot").read_text()


# one unit of layout is this many SVG pixels (half the canvas, less the pad)
PX = 0.9 * 320.0


def dense_layout(np, d, pos):
    """The layout's Laplacian system over its pinned vertices, dense, solved by numpy."""
    pinned = {d.origin[x] for x in d.boundary_walk} or {d.base}
    interior = [v for v in d.vertices if v not in pinned]
    idx = {v: i for i, v in enumerate(interior)}
    lap = np.zeros((len(interior), len(interior)))
    rhs = np.zeros(len(interior), dtype=complex)
    for v, i in idx.items():
        for dart in d.rotations[v]:
            w = d.head(dart)
            if w == v:
                continue
            lap[i, i] += 1.0
            if w in idx:
                lap[i, idx[w]] -= 1.0
            else:
                rhs[i] += pos[w]
    sol = np.linalg.solve(lap, rhs)
    return {v: complex(sol[i]) for v, i in idx.items()}


def layout_error_px(np, d):
    pos = cli._layout(d)
    assert set(pos) == set(d.vertices)
    ref = dense_layout(np, d, pos)
    return max((abs(pos[v] - z) * PX for v, z in ref.items()), default=0.0)


def test_layout_matches_a_dense_solve_on_towers(z2_bundle):
    np = pytest.importorskip("numpy")
    p, m, s = z2_bundle
    k = certify_coverage(s, 0.05)
    q = k.q_min + 1.0
    worst = 0.0
    for e in s.entries:
        for depth in range(1, 13):
            d = tower_diagram(e, (1, 2, -1, -2), depth, m.zero)
            final, _ = pusher.push_to_corridor(d, s, k, q)
            worst = max(worst, layout_error_px(np, d), layout_error_px(np, final))
    assert worst < 0.05


def test_layout_matches_a_dense_solve_on_w1_loops(heisenberg_bundle):
    # ROADMAP workload W1: 20 wasteful loops sampled with seed 6
    np = pytest.importorskip("numpy")
    p, m, s = heisenberg_bundle
    k = certify_coverage(s, 0.01)
    q = k.q_min + 1.0
    worst = 0.0
    for cert in sample_corridor_certificates(p, m, q, 12, 20, 6):
        d = wasteful_diagram(s, cert, q)
        final, _ = pusher.push_to_corridor(d, s, k, q)
        worst = max(worst, layout_error_px(np, d), layout_error_px(np, final))
    assert worst < 0.05


def render_in_child(diagram_path, outdir, timeout=None):
    """Run ``render`` in a fresh interpreter: its exit code, whether numpy loaded, its peak RSS in kB.

    The peak is the child's VmHWM, its own high-water mark since exec (-1
    where there is no /proc).  Its getrusage ru_maxrss would not do: Linux
    carries the forking parent's peak across exec, so it would read the
    size of this test process.
    """
    script = (
        "import pathlib, sys\n"
        "from vkpush import cli\n"
        "code = cli.main(['render', sys.argv[1], sys.argv[2], '--out', sys.argv[3]])\n"
        "status = pathlib.Path('/proc/self/status')\n"
        "hwm = status.read_text().split('VmHWM:')[1].split()[0] if status.exists() else -1\n"
        "print(code, 'numpy' in sys.modules, hwm)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, Z2, diagram_path, str(outdir)],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded, rss_kb = proc.stdout.splitlines()[-1].split()
    return int(code), numpy_loaded == "True", int(rss_kb)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_render_of_a_depth_15_tower_is_bounded(z2_bundle, tmp_path):
    # 8,200 vertices: a dense V x V solve of them took 8.1 s and 1.1 GB
    p, m, s = z2_bundle
    k = certify_coverage(s, 0.05)
    up = next(e for e in s.entries if e.t == 1)
    tower = tower_diagram(up, (1, 2, -1, -2), 15, m.zero)
    final, _ = pusher.push_to_corridor(tower, s, k, k.q_min + 1.0)
    path = tmp_path / "tower15.json"
    path.write_text(json.dumps(final.to_json_dict()))
    code, _, rss_kb = render_in_child(str(path), tmp_path / "out", timeout=60)
    assert code == 0
    assert rss_kb < 200 * 1024


def test_out_of_memory_is_a_json_error(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "brute_area", exhausted)
    code = main(["area-oracle", Z2, "--word", "a b a^-1 b^-1", "--max-area", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert json.loads(captured.err)["error"]["type"] == "MemoryError"


def test_unknown_subcommand_is_usage(capsys):
    code, out, err = run(capsys, "frobnicate", Z2)
    assert code == 64


def test_every_exported_name_resolves():
    import vkpush

    assert [name for name in vkpush.__all__ if not hasattr(vkpush, name)] == []


def test_import_leaves_numpy_out(tower_file, tmp_path):
    # not even rendering loads numpy
    code, numpy_loaded, _ = render_in_child(tower_file, tmp_path)
    assert code == 0
    assert numpy_loaded is False


def test_every_vkpush_module_imports_only_the_standard_library():
    # the package declares no runtime dependency; CI installs the test
    # extra, which brings numpy, so a stray import would pass there
    script = (
        "import importlib, json, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import vkpush\n"
        "for mod in pkgutil.iter_modules(vkpush.__path__):\n"
        "    importlib.import_module(f'vkpush.{mod.name}')\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(new - set(sys.stdlib_module_names) - {'vkpush'})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vkpush", "certify", Z2],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q_min"] == 4.0
