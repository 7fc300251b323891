"""The docs checker passes on the repo and actually detects drift."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _in_sync_server_page(skip_header=None, skip_status=None) -> str:
    """A minimal server.md that satisfies every drift check.

    ``skip_header``/``skip_status`` punch one hole for the
    drift-detection tests.
    """
    from repro.server import API_HEADERS, route_table, status_reasons

    lines = [
        f"| `{method} {pattern}` | req | resp |"
        for method, pattern in route_table()
    ]
    lines += [
        f"| `{header}` | — |"
        for header in API_HEADERS
        if header != skip_header
    ]
    lines += [
        f"| `{code}` | {reason} |"
        for code, reason in status_reasons().items()
        if code != skip_status
    ]
    return "\n".join(lines) + "\n"


class TestRepoDocs:
    def test_the_repo_documentation_is_clean(self, check_docs, capsys):
        assert check_docs.main() == 0
        assert "docs OK" in capsys.readouterr().out


class TestDriftDetection:
    def test_dead_relative_link_flagged(self, check_docs):
        problems = []
        check_docs.check_links(
            ROOT / "docs" / "cli.md",
            "[missing](no-such-page.md) [ok](architecture.md) "
            "[ext](https://example.com) [anchor](#section)",
            problems,
        )
        assert len(problems) == 1
        assert "no-such-page.md" in problems[0]

    def test_anchor_suffix_ignored_when_file_exists(self, check_docs):
        problems = []
        check_docs.check_links(
            ROOT / "docs" / "cli.md",
            "[section link](observability.md#metrics)",
            problems,
        )
        assert problems == []

    def test_phantom_module_flagged(self, check_docs):
        problems = []
        check_docs.check_module_refs(
            ROOT / "README.md", "see `repro.no_such_subsystem`", problems
        )
        assert len(problems) == 1

    def test_phantom_attribute_flagged(self, check_docs):
        problems = []
        check_docs.check_module_refs(
            ROOT / "README.md", "`repro.obs.trace.NoSuchClass`", problems
        )
        assert problems and "NoSuchClass" in problems[0]

    def test_valid_deep_reference_accepted(self, check_docs):
        problems = []
        check_docs.check_module_refs(
            ROOT / "README.md",
            "`repro.engine.base.DiffEngine` and "
            "`repro.obs.metrics.STAGE_BUCKETS`",
            problems,
        )
        assert problems == []

    def test_phantom_imported_name_flagged(self, check_docs):
        # A dotted-name scan sees only `repro`, which imports; each name
        # after `import` has to be resolved on its own.
        problems = []
        check_docs.check_imported_names(
            ROOT / "README.md",
            "```python\n"
            "from repro import register_matcher, diff\n"
            "from repro.core import (\n"
            "    apply_delta,\n"
            "    no_such_helper as helper,\n"
            ")\n"
            "```\n",
            problems,
        )
        assert len(problems) == 2
        assert "register_matcher" in problems[0] + problems[1]
        assert "no_such_helper" in problems[0] + problems[1]

    def test_real_imported_names_accepted(self, check_docs):
        problems = []
        check_docs.check_imported_names(
            ROOT / "README.md",
            "`from repro.engine import MatcherEngine, diff` and\n"
            "from repro import cli as command_line  # a submodule\n",
            problems,
        )
        assert problems == []

    def test_phantom_cli_flag_flagged(self, check_docs, tmp_path):
        flags, commands = check_docs.real_cli_surface()
        docs = tmp_path / "docs"
        docs.mkdir()
        headings = "\n".join(f"## {name}" for name in sorted(commands))
        (docs / "cli.md").write_text(
            f"{headings}\n\nuse `--definitely-not-a-flag` here\n"
        )
        problems = []
        check_docs.check_cli_docs(docs, problems)
        assert any("--definitely-not-a-flag" in p for p in problems)

    def test_undocumented_subcommand_flagged(self, check_docs, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "cli.md").write_text("## diff\n")  # everything else missing
        problems = []
        check_docs.check_cli_docs(docs, problems)
        assert any("'stats' undocumented" in p for p in problems)

    def test_phantom_cli_section_flagged(self, check_docs, tmp_path):
        _, commands = check_docs.real_cli_surface()
        docs = tmp_path / "docs"
        docs.mkdir()
        headings = "\n".join(f"## {name}" for name in sorted(commands))
        (docs / "cli.md").write_text(
            f"## Shared option groups\n{headings}\n## bench\n"
        )
        problems = []
        check_docs.check_cli_docs(docs, problems)
        assert problems == ["docs/cli.md: section 'bench' names no subcommand"]

    @pytest.mark.parametrize(
        "mention",
        ["run `xydiff bench --fast`", "python -m repro bench FIG4",
         "see `xydiff store fsck`"],
    )
    def test_phantom_command_mention_flagged(self, check_docs, mention):
        _, commands = check_docs.real_cli_surface()
        problems = []
        check_docs.check_command_mentions(
            ROOT / "README.md", mention, commands, problems
        )
        assert len(problems) == 1
        assert "names no subcommand" in problems[0]

    def test_real_command_mentions_accepted(self, check_docs):
        _, commands = check_docs.real_cli_surface()
        problems = []
        check_docs.check_command_mentions(
            ROOT / "README.md",
            "`xydiff diff a b`, `xydiff store ls URL`, `xydiff obs`, "
            "PYTHONPATH=src python -m repro fsck STORE --repair",
            commands,
            problems,
        )
        assert problems == []

    def test_real_surface_contains_new_obs_flags(self, check_docs):
        flags, commands = check_docs.real_cli_surface()
        assert {"--trace", "--trace-memory", "--metrics-out",
                "--metrics-format"} <= flags
        assert "obs" in commands
        assert "serve" in commands
        assert {"--queue-limit", "--retry-after", "--trace-sample"} <= flags

    def test_missing_server_page_flagged(self, check_docs, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        problems = []
        check_docs.check_server_docs(docs, problems)
        assert any("docs/server.md: missing" in p for p in problems)

    def test_endpoint_drift_flagged_both_directions(
        self, check_docs, tmp_path
    ):
        from repro.server import route_table

        docs = tmp_path / "docs"
        docs.mkdir()
        rows = [
            f"| `{method} {pattern}` | — | — |"
            for method, pattern in route_table()
        ]
        # Drop a real endpoint and invent a phantom one.
        dropped = rows.pop()
        rows.append("| `DELETE /phantom` | — | — |")
        (docs / "server.md").write_text("\n".join(rows) + "\n")
        problems = []
        check_docs.check_server_docs(docs, problems)
        assert any("DELETE /phantom" in p and "not registered" in p
                   for p in problems)
        assert any("missing from the endpoint table" in p
                   for p in problems)

    def test_endpoint_table_in_sync_passes(self, check_docs, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "server.md").write_text(_in_sync_server_page())
        problems = []
        check_docs.check_server_docs(docs, problems)
        assert problems == []

    def test_header_drift_flagged_both_directions(
        self, check_docs, tmp_path
    ):
        from repro.server import API_HEADERS

        docs = tmp_path / "docs"
        docs.mkdir()
        # Drop a declared header, invent an undeclared one.
        dropped = sorted(API_HEADERS)[0]
        page = _in_sync_server_page(skip_header=dropped)
        page += "\nAlso consider `X-Repro-Phantom`.\n"
        (docs / "server.md").write_text(page)
        problems = []
        check_docs.check_server_docs(docs, problems)
        assert any(dropped in p and "never documented" in p
                   for p in problems)
        assert any("X-Repro-Phantom" in p and "not" in p for p in problems)

    def test_status_code_drift_flagged_both_directions(
        self, check_docs, tmp_path
    ):
        from repro.server import status_reasons

        docs = tmp_path / "docs"
        docs.mkdir()
        dropped = sorted(status_reasons())[-1]
        page = _in_sync_server_page(skip_status=dropped)
        page += "\n| `999` | never happens |\n"
        (docs / "server.md").write_text(page)
        problems = []
        check_docs.check_server_docs(docs, problems)
        assert any(str(dropped) in p and "missing from the status-code"
                   in p for p in problems)
        assert any("999" in p and "does not declare" in p
                   for p in problems)

    def test_phantom_design_inventory_entry_flagged(self, check_docs):
        problems = []
        check_docs.check_design_inventory(
            ROOT / "DESIGN.md",
            "### 3.4 `repro.versioning` — change control\n"
            "- `repository.py` — the store.\n"
            "- `loader.py` — a second commit path.\n"
            "### 3.5 Not a package section\n"
            "- `elsewhere.py` — out of scope.\n",
            problems,
        )
        assert problems == [
            "DESIGN.md: `loader.py` is listed under repro.versioning but "
            "src/repro/versioning/loader.py does not exist"
        ]
