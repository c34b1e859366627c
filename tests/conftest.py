import dataclasses
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
    """Every star replacement offers its outer walk rotated by one, so none glues.

    The rotation is applied to what the template lookup hands out, so a
    template cached on a session-scoped bundle's entries is rotated too.
    """
    template = pusher._template

    def rotated(e, words):
        t = template(e, words)
        return dataclasses.replace(t, walk=t.walk[1:] + t.walk[:1])

    monkeypatch.setattr(pusher, "_template", rotated)
