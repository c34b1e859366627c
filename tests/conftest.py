import json
import pathlib

import pytest

from vkpush import pusher
from vkpush.abelianization import AbelianizationMap
from vkpush.presentation import Presentation
from vkpush.scheme import PushingScheme

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _load_bundle(name: str) -> tuple[Presentation, AbelianizationMap, PushingScheme]:
    obj = json.loads((FIXTURES / f"{name}.json").read_text())
    p = Presentation.from_json_dict(obj["presentation"])
    m = AbelianizationMap.from_json_dict(obj["map"], p)
    s = PushingScheme.from_json_dict(obj["scheme"], p, m)
    return p, m, s


@pytest.fixture(scope="session")
def z2_bundle():
    return _load_bundle("z2")


@pytest.fixture(scope="session")
def heisenberg_bundle():
    return _load_bundle("heisenberg")


@pytest.fixture
def unglued_replacements(monkeypatch):
    """Every star replacement offers its outer walk rotated by one, so none glues."""
    pushed_star = pusher._pushed_star

    def rotated(d, star, e):
        bld, walk = pushed_star(d, star, e)
        return bld, walk[1:] + walk[:1]

    monkeypatch.setattr(pusher, "_pushed_star", rotated)
