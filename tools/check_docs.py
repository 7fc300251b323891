#!/usr/bin/env python3
"""Documentation consistency checker (run by the CI docs job).

Three classes of drift, all fatal:

1. **Dead links** — every relative markdown link in README.md,
   EXPERIMENTS.md and docs/*.md must point at an existing file.
2. **Phantom code references** — every dotted ``repro.*`` name in the
   docs and README must resolve: the longest module prefix must import,
   and any remaining parts must exist as attributes.  Every name a
   ``from repro... import a, b`` line imports (parenthesised lists
   included) must exist in that module, as an attribute or a submodule.
3. **Phantom CLI flags and subcommands** — every ``--flag`` mentioned
   in docs/*.md (except the benchmark scripts' page) must exist
   somewhere in the real argparse tree.  docs/cli.md's sections must
   equal the real subcommands in both directions: every subcommand —
   including nested ones such as ``obs render`` — has a section, and
   every section headed like a command (lower case; prose sections are
   capitalised) names one.  Every ``xydiff WORD`` or ``python -m repro
   WORD`` in README.md, EXPERIMENTS.md, DESIGN.md and docs/*.md must
   name a real subcommand (``WORD SUB`` when WORD is a group such as
   ``store``).
4. **Phantom store schemes** — every ``scheme://`` store-URL example in
   the docs and README must use a scheme the storage layer actually
   registers (``file``, ``sqlite``); web schemes
   (``http(s)``, ``mailto``) are exempt.
5. **Endpoint-table drift** — the endpoint reference table in
   docs/server.md must list exactly the routes ``repro.server``
   registers (``route_table()``), in both directions: no documented
   endpoint the server lacks, no served endpoint the docs omit.
6. **Header and status-code drift** — docs/server.md must mention every
   header in ``repro.server.API_HEADERS`` and must not name an API
   header the code does not declare; its status-code table must equal
   ``repro.server.status_reasons()`` in both directions.
7. **Event-catalogue drift** — the "Event catalogue" table in
   docs/observability.md must list exactly the event names in
   ``repro.obs.log.EVENT_CATALOG``, in both directions: no documented
   event the logger would reject, no emittable event the docs omit.
8. **Phantom inventory entries** — every ``- `name.py` `` bullet under a
   DESIGN.md ``### 3.x `repro.pkg` `` heading must name an existing
   file ``src/repro/pkg/name.py``.

Usage: ``python tools/check_docs.py`` (from anywhere; exits 1 on drift).
"""

from __future__ import annotations

import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# The trailing lookahead skips versioned identifier strings such as the
# bench schema id `repro.bench/1`, which are not import paths.
MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+(?![\w/])")
#: ``from repro.x import a, b as c`` up to the line end or a closing
#: backtick, or a parenthesised name list over several lines.
IMPORT_RE = re.compile(
    r"\bfrom[ \t]+(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)*)[ \t]+import[ \t]+"
    r"(\([^)]*\)|[^\n`#]+)"
)
FLAG_RE = re.compile(r"--[A-Za-z][A-Za-z0-9-]*")
HEADING_RE = re.compile(r"^##+\s+(.+?)\s*$", re.MULTILINE)
#: A docs/cli.md heading spelled like a command; prose headings are
#: capitalised.
COMMAND_HEADING_RE = re.compile(r"[a-z][a-z0-9-]*(?: [a-z][a-z0-9-]*)*")
#: A command mention and the word after it (a subcommand under a group).
COMMAND_RE = re.compile(
    r"(?:\bxydiff|\bpython -m repro)[ \t]+([a-z][a-z0-9-]*)"
    r"(?:[ \t]+([a-z][a-z0-9-]*))?"
)
SCHEME_RE = re.compile(r"\b([a-z][a-z0-9+.-]*)://")
#: A docs/server.md endpoint-table row: first cell is `METHOD /path`.
ENDPOINT_ROW_RE = re.compile(
    r"^\|\s*`(GET|POST|PUT|PATCH|DELETE)\s+(/[^`]*)`", re.MULTILINE
)
#: Backticked API-header mentions in docs/server.md: the `X-Repro-*`
#: namespace plus the two standard headers the API gives meaning to.
HEADER_TOKEN_RE = re.compile(
    r"`(X-Repro-[A-Za-z-]+|Idempotency-Key|Retry-After)(?::[^`]*)?`"
)
#: A status-table row: first cell is one or more backticked codes
#: (`200` / `201`).
STATUS_ROW_RE = re.compile(r"^\|\s*((?:`\d{3}`(?:\s*/\s*)?)+)\s*\|",
                           re.MULTILINE)
#: An event-catalogue table row: first cell is the `component.event`
#: name (dots and dashes, the EVENT_CATALOG naming shape).
EVENT_ROW_RE = re.compile(
    r"^\|\s*`([a-z]+(?:\.[a-z][a-z-]*)+)`\s*\|", re.MULTILINE
)
#: A DESIGN.md inventory heading: ``### 3.x `repro.pkg` — ...``.
INVENTORY_HEADING_RE = re.compile(
    r"^###\s+3\.\d+\s+`repro\.([a-z_]+(?:\.[a-z_]+)*)`", re.MULTILINE
)
#: An inventory entry: a bullet that opens with a backticked file name.
INVENTORY_ENTRY_RE = re.compile(r"^- `([A-Za-z_][A-Za-z0-9_]*\.py)`",
                                re.MULTILINE)
#: URL schemes that are links, not store addresses.
WEB_SCHEMES = {"http", "https", "mailto"}

LINK_FILES = ["README.md", "EXPERIMENTS.md"]
REFERENCE_FILES = ["README.md"]  # + docs/*.md, added in main()
COMMAND_FILES = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]  # + docs/*.md
#: Pages about the benchmark scripts: their flags are not repro.cli's.
SCRIPT_PAGES = {"benchmarks.md"}


def _rel(path: pathlib.Path) -> str:
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)


def check_links(path: pathlib.Path, text: str, problems: list[str]) -> None:
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(f"{_rel(path)}: dead link {target!r}")


def check_module_refs(path: pathlib.Path, text: str, problems: list[str]) -> None:
    for token in sorted(set(MODULE_RE.findall(text))):
        parts = token.split(".")
        module = None
        index = len(parts)
        while index > 0:
            try:
                module = importlib.import_module(".".join(parts[:index]))
                break
            except ImportError:
                index -= 1
        if module is None:
            problems.append(
                f"{_rel(path)}: unimportable reference {token!r}"
            )
            continue
        obj = module
        for attribute in parts[index:]:
            try:
                obj = getattr(obj, attribute)
            except AttributeError:
                problems.append(
                    f"{_rel(path)}: {token!r} — "
                    f"{'.'.join(parts[:index])} has no attribute "
                    f"{attribute!r}"
                )
                break


def check_imported_names(
    path: pathlib.Path, text: str, problems: list[str]
) -> None:
    """Every name a ``from repro... import`` line imports must exist."""
    for module_name, names in sorted(set(IMPORT_RE.findall(text))):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            problems.append(
                f"{_rel(path)}: unimportable module {module_name!r}"
            )
            continue
        for item in names.strip("()").split(","):
            words = item.split()
            if not words or words[0] == "*":
                continue
            name = words[0]
            if hasattr(module, name):
                continue
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                problems.append(
                    f"{_rel(path)}: 'from {module_name} import {name}' — "
                    f"{module_name} has no attribute {name!r}"
                )


def real_cli_surface():
    """(all option strings, all subcommand names) from the parser.

    Nested subcommands are reported with their full path (``"obs
    render"``), so docs/cli.md must carry a heading for each leaf, not
    just for the top-level group.
    """
    import argparse

    from repro.cli import build_parser

    flags: set[str] = set()
    commands: set[str] = set()

    def walk(parser, prefix):
        for action in parser._actions:
            flags.update(
                option
                for option in action.option_strings
                if option.startswith("--")
            )
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    full = f"{prefix} {name}".strip()
                    commands.add(full)
                    walk(child, full)

    walk(build_parser(), "")
    return flags, commands


def check_cli_docs(docs_dir: pathlib.Path, problems: list[str]) -> None:
    flags, commands = real_cli_surface()
    for path in sorted(docs_dir.glob("*.md")):
        if path.name in SCRIPT_PAGES:
            continue
        for flag in sorted(set(FLAG_RE.findall(path.read_text()))):
            if flag not in flags:
                problems.append(
                    f"{_rel(path)}: flag {flag!r} does not "
                    "exist in repro.cli"
                )
    cli_page = docs_dir / "cli.md"
    documented = set(HEADING_RE.findall(cli_page.read_text()))
    for command in sorted(commands):
        # A group like "obs" counts as documented when any of its leaves
        # ("obs render") has a heading; leaves need their own heading.
        if command in documented or any(
            heading.startswith(command + " ") for heading in documented
        ):
            continue
        problems.append(f"docs/cli.md: subcommand {command!r} undocumented")
    for heading in sorted(documented):
        if COMMAND_HEADING_RE.fullmatch(heading) and heading not in commands:
            problems.append(
                f"docs/cli.md: section {heading!r} names no subcommand"
            )


def check_command_mentions(
    path: pathlib.Path, text: str, commands: set[str], problems: list[str]
) -> None:
    """Every ``xydiff WORD`` must name a subcommand of the real parser."""
    for first, second in COMMAND_RE.findall(text):
        command = first
        if second and any(name.startswith(first + " ") for name in commands):
            command = f"{first} {second}"
        if command not in commands:
            problems.append(
                f"{_rel(path)}: 'xydiff {command}' names no subcommand"
            )


def check_store_schemes(path: pathlib.Path, text: str, problems: list[str]) -> None:
    """Every ``scheme://`` example must name a registered store scheme."""
    from repro.storage import STORE_SCHEMES

    for scheme in sorted(set(SCHEME_RE.findall(text))):
        if scheme in WEB_SCHEMES or scheme in STORE_SCHEMES:
            continue
        problems.append(
            f"{_rel(path)}: store URL scheme {scheme!r} is not "
            f"registered (expected one of {sorted(STORE_SCHEMES)})"
        )


def check_server_docs(docs_dir: pathlib.Path, problems: list[str]) -> None:
    """docs/server.md's endpoint table must equal the registered routes."""
    from repro.server import route_table

    page = docs_dir / "server.md"
    if not page.exists():
        problems.append("docs/server.md: missing (the HTTP API reference)")
        return
    documented = {
        (method, pattern.strip())
        for method, pattern in ENDPOINT_ROW_RE.findall(page.read_text())
    }
    registered = set(route_table())
    for method, pattern in sorted(documented - registered):
        problems.append(
            f"docs/server.md: endpoint `{method} {pattern}` is "
            "documented but not registered by repro.server"
        )
    for method, pattern in sorted(registered - documented):
        problems.append(
            f"docs/server.md: endpoint `{method} {pattern}` is "
            "served but missing from the endpoint table"
        )

    from repro.server import API_HEADERS, status_reasons

    text = page.read_text()
    mentioned = set(HEADER_TOKEN_RE.findall(text))
    declared = set(API_HEADERS)
    for header in sorted(declared - mentioned):
        problems.append(
            f"docs/server.md: API header {header!r} is declared in "
            "repro.server.API_HEADERS but never documented"
        )
    for header in sorted(mentioned - declared):
        problems.append(
            f"docs/server.md: header {header!r} is documented but not "
            "declared in repro.server.API_HEADERS"
        )

    documented_codes = {
        int(code)
        for row in STATUS_ROW_RE.findall(text)
        for code in re.findall(r"\d{3}", row)
    }
    real_codes = set(status_reasons())
    for code in sorted(real_codes - documented_codes):
        problems.append(
            f"docs/server.md: status {code} can be emitted but is "
            "missing from the status-code table"
        )
    for code in sorted(documented_codes - real_codes):
        problems.append(
            f"docs/server.md: status {code} is documented but "
            "repro.server.status_reasons() does not declare it"
        )


def check_event_catalog(docs_dir: pathlib.Path, problems: list[str]) -> None:
    """The docs event catalogue must equal the emitter registry."""
    from repro.obs.log import EVENT_CATALOG

    page = docs_dir / "observability.md"
    if not page.exists():
        problems.append(
            "docs/observability.md: missing (the telemetry reference)"
        )
        return
    text = page.read_text()
    heading = re.search(
        r"^##+\s+Event catalogue\s*$", text, re.MULTILINE
    )
    if heading is None:
        problems.append(
            "docs/observability.md: no 'Event catalogue' section "
            "(repro.obs.log.EVENT_CATALOG must be documented there)"
        )
        return
    section = text[heading.end():]
    following = re.search(r"^##\s", section, re.MULTILINE)
    if following is not None:
        section = section[: following.start()]
    documented = set(EVENT_ROW_RE.findall(section))
    registered = set(EVENT_CATALOG)
    for event in sorted(documented - registered):
        problems.append(
            f"docs/observability.md: event {event!r} is documented but "
            "not in repro.obs.log.EVENT_CATALOG (the logger would "
            "reject it)"
        )
    for event in sorted(registered - documented):
        problems.append(
            f"docs/observability.md: event {event!r} can be emitted "
            "but is missing from the event-catalogue table"
        )


def check_design_inventory(
    path: pathlib.Path, text: str, problems: list[str]
) -> None:
    """Every file a DESIGN.md §3 package section lists must exist."""
    for heading in INVENTORY_HEADING_RE.finditer(text):
        section = text[heading.end():]
        following = re.search(r"^#", section, re.MULTILINE)
        if following is not None:
            section = section[: following.start()]
        package = ROOT / "src" / "repro" / heading.group(1).replace(".", "/")
        for name in INVENTORY_ENTRY_RE.findall(section):
            if not (package / name).is_file():
                problems.append(
                    f"{_rel(path)}: `{name}` is listed under "
                    f"repro.{heading.group(1)} but "
                    f"{_rel(package / name)} does not exist"
                )


def main() -> int:
    problems: list[str] = []
    docs_dir = ROOT / "docs"
    if not docs_dir.is_dir():
        print("FAIL: docs/ directory is missing", file=sys.stderr)
        return 1

    link_files = [ROOT / name for name in LINK_FILES]
    link_files += sorted(docs_dir.glob("*.md"))
    for path in link_files:
        check_links(path, path.read_text(), problems)

    reference_files = [ROOT / name for name in REFERENCE_FILES]
    reference_files += sorted(docs_dir.glob("*.md"))
    for path in reference_files:
        text = path.read_text()
        check_module_refs(path, text, problems)
        check_imported_names(path, text, problems)
        check_store_schemes(path, text, problems)

    _, commands = real_cli_surface()
    for path in [ROOT / name for name in COMMAND_FILES] + sorted(
        docs_dir.glob("*.md")
    ):
        check_command_mentions(path, path.read_text(), commands, problems)

    check_cli_docs(docs_dir, problems)
    check_server_docs(docs_dir, problems)
    check_event_catalog(docs_dir, problems)
    design = ROOT / "DESIGN.md"
    check_design_inventory(design, design.read_text(), problems)

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print(f"docs OK ({len(link_files)} pages checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
