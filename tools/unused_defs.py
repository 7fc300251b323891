#!/usr/bin/env python3
"""List the definitions in ``src/`` that only their own ``def`` names.

Every ``def`` and ``class`` in ``src/`` (methods and nested definitions
included) must be named somewhere in ``src/``, ``benchmarks/``,
``examples/`` or ``tools/`` besides its definition.  A definition that
only tests reach is code the program carries for nothing: delete it, or
give it a caller in one of those trees.

A name counts as used when it occurs as a whole word more than once in
those trees' ``.py`` files (code, strings and comments alike): a name
defined in several classes is an interface its definitions share.
Exempt are names listed in a module's ``__all__`` (public API), dunder
methods, and ``handle_*`` methods of an ``HTMLParser`` subclass (the
parser calls them by name).

Usage: ``python tools/unused_defs.py`` (from anywhere; prints one
``path:line: name`` per unused definition and exits 1 if there is any).
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The trees whose mentions count as callers.
CALLER_TREES = ("src", "benchmarks", "examples", "tools")
WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files(root: pathlib.Path, tree: str) -> list[pathlib.Path]:
    return sorted((root / tree).rglob("*.py"))


def _exported(module: ast.Module) -> set[str]:
    """The string names of a module's ``__all__``."""
    names: set[str] = set()
    for statement in module.body:
        if isinstance(statement, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(statement, "targets", None) or [statement.target]
            if any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets
            ) and isinstance(statement.value, (ast.List, ast.Tuple)):
                names.update(
                    element.value
                    for element in statement.value.elts
                    if isinstance(element, ast.Constant)
                )
    return names


def _definitions(module: ast.Module):
    """``(name, line)`` of every def and class, handler overrides skipped."""
    stack: list[tuple[ast.AST, bool]] = [(module, False)]
    while stack:
        node, in_html_parser = stack.pop()
        for child in ast.iter_child_nodes(node):
            html_parser = in_html_parser
            if isinstance(child, ast.ClassDef):
                yield child.name, child.lineno
                html_parser = any(
                    (isinstance(base, ast.Name) and base.id == "HTMLParser")
                    or (isinstance(base, ast.Attribute)
                        and base.attr == "HTMLParser")
                    for base in child.bases
                )
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (
                    in_html_parser and child.name.startswith("handle_")
                ):
                    yield child.name, child.lineno
                html_parser = False
            stack.append((child, html_parser))


def unused_definitions(root: pathlib.Path = ROOT) -> list[tuple[str, int, str]]:
    """``(path, line, name)`` of every unused definition, sorted."""
    words: Counter[str] = Counter()
    for tree in CALLER_TREES:
        for path in _python_files(root, tree):
            words.update(WORD_RE.findall(path.read_text(encoding="utf-8")))
    exported: set[str] = set()
    found: list[tuple[str, int, str]] = []
    for path in _python_files(root, "src"):
        module = ast.parse(path.read_text(encoding="utf-8"), str(path))
        exported |= _exported(module)
        for name, line in _definitions(module):
            found.append((str(path.relative_to(root)), line, name))
    return sorted(
        (path, line, name)
        for path, line, name in found
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exported
        and words[name] <= 1
    )


def main() -> int:
    unused = unused_definitions()
    for path, line, name in unused:
        print(f"{path}:{line}: {name}")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
