"""Byte stability of the reports and tower files, outside the `timing` subtree.

Each case runs `cli.main` in-process from the repository root, or serializes
a tower, and compares the sha256 of the JSON text with a recorded value.  A
change that alters any of these bytes must say so and record new values.
"""

import hashlib
import json
import pathlib

import pytest

from vkpush.cli import main
from vkpush.oracle import tower_diagram

ROOT = pathlib.Path(__file__).resolve().parent.parent
R = (1, 2, -1, -2)

BENCH_GOLDEN = {
    "heis": "2e013637d1359d9b1c14ac874e865dab49d63bd6d320b60a92a1fc1aebc286b4",
    "z2_oracle": "af2448b21c37a6137b0c951dd55d790d85951400aef78d15d662575a7ca0ea1d",
}
# (entry direction t, tower depth)
PUSH_GOLDEN = {
    (1, 6): "5b6dfcbbd865704a8ca8b3020d7c1d7c62501a1d75ae3e454481c95873c50c6a",
    (1, 9): "da4f544c48a735b3eb5c04cc7df26113da1d717caf9459c1e1ce159a45d398e6",
    (-1, 6): "9326807c4a4a2606cb6adb365918139db688b39c0bf56395a269986bf9a869b8",
    (-1, 9): "38862c2d49c534e1f6348021155b7ab53592989fb42cf0a8e89fc7c89c40e109",
}
TOWER_GOLDEN = {
    (1, 0): "a39005829993af3551d8288edd81321a9ad16d1ae1060bbef9c440b918e20a13",
    (1, 1): "516f2e98155d35565bf55a7c8e195ec40ef4c963808008b413c55ca437cb2dd8",
    (1, 6): "678573adfc105d50c18fc607ad5adc9f99701ab35ff692dcfb174416b2934c65",
    (1, 12): "f2d2cfd6cfe5c63d6b547ba01da7252dbc74b19dd625398db9cf09c4149e154b",
    (-1, 0): "a39005829993af3551d8288edd81321a9ad16d1ae1060bbef9c440b918e20a13",
    (-1, 1): "96ca9ca010f82ada36b22351ee4177fc32188430391276ae6416809a80d2e957",
    (-1, 6): "5c81329de7328a93d6cf2c034f5cdd92ba8b50bcdd3eb2c7eebacda9a4218741",
    (-1, 12): "27a703dbb1f70a42501a40225baa2062767ccad42bf138e01c6cbac6575e763c",
}


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, indent=2, sort_keys=True).encode()).hexdigest()


def report_sha(capsys, monkeypatch, *argv) -> str:
    monkeypatch.chdir(ROOT)
    code = main(list(argv))
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    out.pop("timing", None)
    return sha(out)


def entry(s, t):
    return next(e for e in s.entries if e.t == t)


def test_bench_reports(capsys, monkeypatch):
    got = {
        "heis": report_sha(
            capsys, monkeypatch, "bench", "fixtures/heisenberg.json", "--q", "8.6",
            "--count", "5", "--seed", "17", "--grid", "0.01",
        ),
        "z2_oracle": report_sha(
            capsys, monkeypatch, "bench", "fixtures/z2.json", "--q", "5", "--count", "3",
            "--seed", "3", "--oracle-check", "--ar", "n*log(n),log(n)",
        ),
    }
    assert got == BENCH_GOLDEN


@pytest.mark.parametrize("t", [1, -1])
def test_push_reports_on_towers(capsys, monkeypatch, tmp_path, z2_bundle, t):
    p, m, s = z2_bundle
    for depth in (6, 9):
        path = tmp_path / f"tower{depth}.json"
        path.write_text(json.dumps(tower_diagram(entry(s, t), R, depth, m.zero).to_json_dict()))
        got = report_sha(capsys, monkeypatch, "push", "fixtures/z2.json", str(path), "--q", "5")
        assert got == PUSH_GOLDEN[t, depth], depth


@pytest.mark.parametrize("t", [1, -1])
def test_tower_json(z2_bundle, t):
    p, m, s = z2_bundle
    for depth in (0, 1, 6, 12):
        got = sha(tower_diagram(entry(s, t), R, depth, m.zero).to_json_dict())
        assert got == TOWER_GOLDEN[t, depth], depth
