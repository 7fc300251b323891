"""No definition in ``src/`` is there only for the tests."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def unused_defs():
    spec = importlib.util.spec_from_file_location(
        "unused_defs", ROOT / "tools" / "unused_defs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_definition_has_a_caller_outside_the_tests(unused_defs):
    assert unused_defs.unused_definitions() == []


def test_the_scan_finds_what_only_tests_call(unused_defs, tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from html.parser import HTMLParser\n"
        "__all__ = ['public', 'exported']\n"
        "def public(): pass\n"
        "def called(): pass\n"
        "def only_tests(): pass\n"
        "class Shape:\n"
        "    def area(self): pass\n"
        "    def __repr__(self): return called()\n"
        "class Square(Shape):\n"
        "    def area(self): pass\n"
        "class Reader(HTMLParser):\n"
        "    def handle_data(self, data): pass\n"
        "    def _stack(self): pass\n"
        "def exported(): pass\n"
        "class Circle:\n"
        "    def perimeter(self): pass\n"
        "class Ring(Circle):\n"
        "    def perimeter(self): pass\n"
    )
    (package / "__init__.py").write_text(
        "from repro._lazy import lazy_exports\n"
        "__getattr__, __dir__ = lazy_exports(__name__, "
        "{'mod': ('exported',)})\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(
        "from pkg.mod import Reader, Ring, Square, public\n"
        "Square().area()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import _stack, exported, only_tests\n"
        "Ring().perimeter()\n"
    )
    # Named only by the tests: a function, a method, a name that an
    # __all__ and a lazy_exports table list, and a method two classes
    # define.
    assert unused_defs.unused_definitions(tmp_path) == [
        ("src/pkg/mod.py", 5, "only_tests"),
        ("src/pkg/mod.py", 13, "_stack"),
        ("src/pkg/mod.py", 14, "exported"),
        ("src/pkg/mod.py", 16, "perimeter"),
        ("src/pkg/mod.py", 18, "perimeter"),
    ]
