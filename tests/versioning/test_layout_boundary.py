"""One owner of the store layout.

:mod:`repro.versioning.layout` is the only module under ``src/repro``
that names a stored key or a key pattern; every other module asks it.
And no module outside :mod:`repro.versioning.repository` reaches into
a repository's ``_``-prefixed members.  Both rules are checked on the
syntax trees of the sources, so a change that breaks them fails here
before it ships a second copy of the layout.
"""

import ast
import pathlib
import re

import pytest

from repro.versioning import layout

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
LAYOUT = SRC / "versioning" / "layout.py"
REPOSITORY = SRC / "versioning" / "repository.py"

#: The fixed stored names, asked of the layout itself.
FIXED_NAMES = [
    layout.name(kind) for kind in ("current", "meta", "manifest", "journal")
]
#: How a numbered name (or its format string, or its pattern) begins.
NUMBERED = re.compile(r"^\^?(delta|snapshot)-")


def _docstrings(tree) -> set[int]:
    """ids of the constant nodes that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
            ):
                found.add(id(body[0].value))
    return found


def layout_names(tree) -> list[str]:
    """String constants (docstrings aside) that name a stored key, end
    in one, or begin a numbered name's format or pattern."""
    skip = _docstrings(tree)
    hits = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
        ):
            text = node.value
            if (
                layout.classify(text)[0] != "other"
                or any(text.endswith("/" + fixed) for fixed in FIXED_NAMES)
                or NUMBERED.match(text)
            ):
                hits.append(text)
    return hits


def private_layout_uses(tree) -> list[str]:
    """``_``-prefixed names imported from the layout or the repository
    module, or read off the layout."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
            ("versioning.layout", "versioning.repository")
        ):
            hits.extend(a.name for a in node.names if a.name.startswith("_"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id == "layout"
        ):
            hits.append(node.attr)
    return hits


def repository_privates() -> set[str]:
    """The ``_``-prefixed members of :class:`BackendRepository`."""
    tree = ast.parse(REPOSITORY.read_text(encoding="utf-8"))
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "BackendRepository"
    ]
    members = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            members.add(node.name)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and isinstance(node.ctx, ast.Store)
        ):
            members.add(node.attr)
    return {
        name for name in members
        if name.startswith("_") and not name.startswith("__")
    }


def private_repository_uses(tree, privates) -> list[str]:
    """Reads of a repository's private members off anything but
    ``self``/``cls`` (a class of its own may share a member name)."""
    return [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in privates
        and not (
            isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        )
    ]


def _sources(exclude):
    for path in sorted(SRC.rglob("*.py")):
        if path != exclude:
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_layout_names_store_keys():
    offenders = {
        str(path.relative_to(SRC)): hits
        for path, tree in _sources(LAYOUT)
        if (hits := layout_names(tree) + private_layout_uses(tree))
    }
    assert offenders == {}


def test_no_module_reaches_into_a_repository():
    privates = repository_privates()
    assert {"_load_meta", "_head", "_pinned"} <= privates
    offenders = {
        str(path.relative_to(SRC)): hits
        for path, tree in _sources(REPOSITORY)
        if (hits := private_repository_uses(tree, privates))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "source",
    [
        'META_NAME = "meta.json"',
        'key = prefix + "/journal.json"',
        'name = f"delta-{base:04d}-{base + 1:04d}.xml"',
        'PATTERN = re.compile(r"^snapshot-(\\d+)\\.xml$")',
        "from repro.versioning.layout import _NAMES",
        "from repro.versioning.repository import _DELTA_FILE_RE",
        "names = layout._NAMES",
    ],
)
def test_the_layout_scan_catches_a_second_copy(source):
    tree = ast.parse(source)
    assert layout_names(tree) + private_layout_uses(tree)


@pytest.mark.parametrize(
    "source",
    [
        "repo._read_json(key, 'metadata')",
        "for prefix in repository._doc_prefixes(): pass",
        "store.repository._load_meta(doc_id)",
    ],
)
def test_the_repository_scan_catches_a_reach_in(source):
    privates = repository_privates() | {"_read_json", "_doc_prefixes"}
    assert private_repository_uses(ast.parse(source), privates)


def test_the_scans_skip_docstrings_and_self():
    source = (
        '"""Every document has a meta.json."""\n'
        "class Other:\n"
        "    def read(self):\n"
        "        return self._load_meta()\n"
    )
    tree = ast.parse(source)
    assert layout_names(tree) == []
    assert private_repository_uses(tree, {"_load_meta"}) == []
