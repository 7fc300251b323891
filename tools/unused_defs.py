#!/usr/bin/env python3
"""List the definitions in ``src/`` that only their own ``def`` names.

Every ``def`` and ``class`` in ``src/`` (methods and nested definitions
included) must be named somewhere in ``src/``, ``benchmarks/``,
``examples/`` or ``tools/`` besides its definition.  A definition that
only tests reach is code the program carries for nothing: delete it, or
give it a caller in one of those trees.

A name counts as used when it occurs as a whole word in those trees'
``.py`` files (code, strings and comments alike) more often than it is
defined or exported there.  So a name defined in several classes is
used only when something besides those definitions names it, and a
mention in a module's ``__all__`` or in a :func:`repro._lazy
.lazy_exports` table is no use: a public name needs a caller too.
Exempt are dunder methods, and ``handle_*`` methods of an
``HTMLParser`` subclass (the parser calls them by name).

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


def _not_uses(module: ast.Module) -> Counter[str]:
    """Mentions of names that are no use of them: their ``def`` and
    ``class`` statements, and the strings of an ``__all__`` or of a
    ``lazy_exports`` call."""
    found: Counter[str] = Counter()
    for node in ast.walk(module):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            found[node.name] += 1
            continue
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if not any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets
            ):
                continue
            table = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            table = node
        else:
            continue
        found.update(
            inner.value
            for inner in ast.walk(table)
            if isinstance(inner, ast.Constant) and isinstance(inner.value, str)
        )
    return found


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
    uses: Counter[str] = Counter()
    for tree in CALLER_TREES:
        for path in _python_files(root, tree):
            text = path.read_text(encoding="utf-8")
            uses.update(WORD_RE.findall(text))
            uses.subtract(_not_uses(ast.parse(text, str(path))))
    found: list[tuple[str, int, str]] = []
    for path in _python_files(root, "src"):
        module = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name, line in _definitions(module):
            found.append((str(path.relative_to(root)), line, name))
    return sorted(
        (path, line, name)
        for path, line, name in found
        if not (name.startswith("__") and name.endswith("__"))
        and uses[name] <= 0
    )


def main() -> int:
    unused = unused_definitions()
    for path, line, name in unused:
        print(f"{path}:{line}: {name}")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
