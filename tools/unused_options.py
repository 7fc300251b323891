#!/usr/bin/env python3
"""List the settable values in ``src/`` that no caller outside the tests sets.

A keyword default (``def f(x, limit=10)``, ``def f(*, limit=10)``) or
a dataclass field default (``limit: int = 10``) in ``src/`` is a knob.
Some call in ``src/``, ``benchmarks/``, ``examples/`` or ``tools/``
must set it: a call to that function or class (a method matches by its
name, ``__init__`` and dataclass fields by the class's name) that
passes it as a ``limit=`` keyword, as a ``"limit"`` key of a dict
literal it unpacks with ``**``, or in its place among the positional
arguments.  A value only tests set is a constant with extra code around
it: fold it in.

What stays settable on purpose although no such call sets it is listed
in :data:`ALLOWED`, one reason each.

Usage: ``python tools/unused_options.py`` (from anywhere; prints one
``path:line: owner.name`` per unset value and exits 1 if there is any).
"""

from __future__ import annotations

import ast
import pathlib
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The trees whose calls count as setters.
CALLER_TREES = ("src", "benchmarks", "examples", "tools")
#: Stands for "every position": a call that unpacks ``*args``.
EVERY = 1 << 30

_RECORD = "a record its producer fills as it runs, not a setting"
_CLOCK = "a time source: tests pass a fake, the default is the real one"
_FORWARDED = "set through a variable callee that the scan cannot name"

#: ``owner.name`` (``owner`` the function, method or dataclass name,
#: ``name`` a parameter or field, ``*`` all of them) -> why it stays
#: settable although no call sets it.
ALLOWED = {
    "DiffMkResult.*": _RECORD,
    "DiffStats.*": _RECORD,
    "DiffContext.*": "per-run state: diff_with_stats fills its config and "
    "allocator from its own arguments",
    "Dtd.*": _RECORD,
    "FsckReport.*": _RECORD,
    "ProvenanceReport.*": _RECORD,
    "RequestContext.*": _RECORD,
    "RequestObs.*": _RECORD,
    "Response.*": _RECORD,
    "SiteDelta.*": _RECORD,
    "SiteSnapshot.*": _RECORD,
    "Span.*": _RECORD,
    "CircuitBreaker.clock": _CLOCK,
    "Deadline.clock": _CLOCK,
    "DiffClient.sleep": _CLOCK,
    "EventLogger.clock": _CLOCK,
    "FaultInjector.sleep": _CLOCK,
    "IdempotencyCache.clock": _CLOCK,
    "from_header.clock": _CLOCK,
    "_Instrument.*": "MetricsRegistry passes them to " + _FORWARDED,
    "Counter.*": "MetricsRegistry.counter passes them to " + _FORWARDED,
    "Gauge.*": "MetricsRegistry.gauge passes them to " + _FORWARDED,
    "Histogram.*": "MetricsRegistry.histogram passes them to " + _FORWARDED,
    "StorageBackend.*": "open_backend passes them to " + _FORWARDED,
    "SQLiteBackend.*": "open_backend passes them to " + _FORWARDED,
    "apply_backward.in_place": "materialize passes it to " + _FORWARDED,
    "DiffConfig.*": "the paper's tuning parameters; ABL sets them by "
    "DiffConfig(**overrides) from a table",
    "diff.keep_whitespace": "mirrors the /diff request field of that name",
    "parse_file.*": "mirrors parse's options for the public file reader",
    # No call outside the tests sets these yet; each is a candidate
    # for folding into a constant.
    "DiffClient.breaker": "public client API: an embedder's own breaker",
    "DiffClient.metrics": "public client API: an embedder's own registry",
    "aggregate.verify": "public API: check each step while composing",
    "diff.allocator": "public API: continue a stored document's XIDs",
    "moves_to_edits.allocator": "public API: continue a document's XIDs",
    "diff_sites.config": "public API: the diff configuration of each page",
    "EventLogger.stream": "public API: mirror events to an open stream",
    "open_repository.tracer": "public API: trace repository reads",
    "process.old_document": "public API: the alerter's old-side matches",
    "infer_dtd.root_name": "public API: name the inferred root",
    "parse_dtd.root_name": "public API: name the DTD's root",
    "GeneratorConfig.attribute_probability": "a generator parameter",
    "evolve_site.profile": "a simulator parameter",
    "default_scenarios.seed": "the chaos suite's seed",
    "to_json.indent": "the JSON exporter's layout",
    "put_head.label": "the fault injector's label for a head write",
    "store_stats.name": "the /statz?store= filter",
    "url.path": "the test harness's URL builder",
}


def _python_files(root: pathlib.Path, tree: str) -> list[pathlib.Path]:
    return sorted((root / tree).rglob("*.py"))


def _terminal(func: ast.expr) -> str | None:
    """The name a callee ends in: ``f`` for ``f(...)`` and ``a.b.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _terminal(getattr(decorator, "func", decorator)) == "dataclass"
        for decorator in node.decorator_list
    )


def _fields(node: ast.ClassDef):
    """``(name, line, position)`` of a dataclass's defaulted fields."""
    fields = [
        statement
        for statement in node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
        and "ClassVar" not in ast.unparse(statement.annotation)
    ]
    for position, statement in enumerate(fields):
        if statement.value is not None:
            yield statement.target.id, statement.lineno, position


def _parameters(node, method: bool):
    """``(name, line, position)`` of a def's defaulted parameters; the
    position counts the call's arguments (``self`` excluded), and is
    ``None`` for a keyword-only one."""
    arguments = node.args
    positional = arguments.posonlyargs + arguments.args
    skip = 1 if method and positional else 0
    first = len(positional) - len(arguments.defaults)
    for position, arg in enumerate(positional):
        if position >= first and arg not in arguments.posonlyargs:
            yield arg.arg, arg.lineno, position - skip
    for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield arg.arg, arg.lineno, None


def _knobs(module: ast.Module):
    """``(owner, name, line, position)`` of every keyword default and
    dataclass field default; ``owner`` is the name a setting call uses."""
    stack: list[tuple[ast.AST, str | None]] = [(module, None)]
    while stack:
        node, cls = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    for name, line, position in _fields(child):
                        yield child.name, name, line, position
                stack.append((child, child.name))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(
                    _terminal(decorator) == "staticmethod"
                    for decorator in child.decorator_list
                )
                owner = cls if child.name == "__init__" and cls else child.name
                for name, line, position in _parameters(
                    child, cls is not None and not static
                ):
                    yield owner, name, line, position
                stack.append((child, None))
            else:
                stack.append((child, cls))


def _settings(module: ast.Module, named: defaultdict, placed: dict) -> None:
    """Record, per callee name, the names its calls set and the most
    arguments any of them passes by position."""
    for node in ast.walk(module):
        if not isinstance(node, ast.Call):
            continue
        callee = _terminal(node.func)
        if callee is None:
            continue
        count = len(node.args)
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            count = EVERY
        placed[callee] = max(placed.get(callee, 0), count)
        for keyword in node.keywords:
            if keyword.arg is not None:
                named[callee].add(keyword.arg)
                continue
            for inner in ast.walk(keyword.value):
                if isinstance(inner, ast.Dict):
                    named[callee].update(
                        key.value
                        for key in inner.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    )


def unused_options(root: pathlib.Path = ROOT) -> list[tuple[str, int, str]]:
    """``(path, line, "owner.name")`` of every value no call sets, sorted."""
    named: defaultdict[str, set[str]] = defaultdict(set)
    placed: dict[str, int] = {}
    for tree in CALLER_TREES:
        for path in _python_files(root, tree):
            module = ast.parse(path.read_text(encoding="utf-8"))
            _settings(module, named, placed)
    found = []
    for path in _python_files(root, "src"):
        module = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for owner, name, line, position in _knobs(module):
            if (
                name in named[owner]
                or (position is not None and position < placed.get(owner, 0))
                or f"{owner}.{name}" in ALLOWED
                or f"{owner}.*" in ALLOWED
            ):
                continue
            found.append(
                (str(path.relative_to(root)), line, f"{owner}.{name}")
            )
    return sorted(found)


def main() -> int:
    unused = unused_options()
    for path, line, name in unused:
        print(f"{path}:{line}: {name}")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
