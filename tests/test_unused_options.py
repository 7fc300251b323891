"""No setting in ``src/`` is there only for the tests."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def unused_options():
    spec = importlib.util.spec_from_file_location(
        "unused_options", ROOT / "tools" / "unused_options.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_setting_has_a_caller_outside_the_tests(unused_options):
    assert unused_options.unused_options() == []


def test_every_allowance_names_a_setting_and_a_reason(unused_options):
    for key, reason in unused_options.ALLOWED.items():
        owner, _, name = key.partition(".")
        assert owner and name and reason.strip(), key


def test_the_scan_finds_what_only_tests_set(unused_options, tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "def keyword(a, limit=1, *, mode='x', depth=2): pass\n"
        "def placed(a, b=1, c=2): pass\n"
        "def unpacked(a, *, flag=False): pass\n"
        "class Store:\n"
        "    def __init__(self, every=8): pass\n"
        "    def put(self, key, checkpoint=False): pass\n"
        "@dataclass\n"
        "class Config:\n"
        "    name: str\n"
        "    size: int = 1\n"
        "    ttl: float = 2.0\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(
        "from pkg.mod import Config, Store, keyword, placed, unpacked\n"
        "keyword(0, mode='y')\n"
        "placed(0, 1)\n"
        "unpacked(0, **({'flag': True} if True else {}))\n"
        "Store().put('k')\n"
        "Config('n', 3)\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Config, Store, keyword\n"
        "keyword(0, limit=2, depth=3)\n"
        "Store(every=2).put('k', checkpoint=True)\n"
        "Config('n', ttl=1.0)\n"
    )
    assert unused_options.unused_options(tmp_path) == [
        ("src/pkg/mod.py", 2, "keyword.depth"),
        ("src/pkg/mod.py", 2, "keyword.limit"),
        ("src/pkg/mod.py", 3, "placed.c"),
        ("src/pkg/mod.py", 6, "Store.every"),
        ("src/pkg/mod.py", 7, "put.checkpoint"),
        ("src/pkg/mod.py", 12, "Config.ttl"),
    ]
