"""bench/launch.py times layers by replacing each hooked function where its
callers look it up. A name that moved or was removed from one of those
modules would break `bench/run.py --trace 1` and the first-map mark of plain
mode, so every entry of its tables must resolve to the function itself."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parent.parent / "bench" / "launch.py"


def load_launch():
    spec = importlib.util.spec_from_file_location("bench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


launch = load_launch()
HOOKS = [(home, attr, users)
         for _, home, attr, users in (*launch.MAPS, *launch.LAYERS)]


@pytest.mark.parametrize("home, attr, users", HOOKS,
                         ids=[f"{home}.{attr}" for home, attr, _ in HOOKS])
def test_hooked_name_is_its_home_modules(home, attr, users):
    original = getattr(importlib.import_module(home), attr)
    for user in users:
        assert getattr(importlib.import_module(user), attr) is original
