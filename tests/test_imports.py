"""What each entry point loads, and the lazy package surfaces behind it.

Every check runs in a fresh interpreter: the test process itself has
long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

PACKAGES = [
    "repro",
    "repro.xmlkit",
    "repro.core",
    "repro.engine",
    "repro.obs",
    "repro.storage",
    "repro.versioning",
    "repro.server",
    "repro.client",
    "repro.simulator",
    "repro.baselines",
]

#: Modules a loader or a one-shot CLI run must not pay for: the event
#: loop, network and SAX stacks, and the layers only some commands use.
NOT_LOADED = [
    "asyncio",
    "ssl",
    "http.client",
    "urllib.request",
    "xml.sax",
    "html.parser",
    "tracemalloc",
    "repro.server.app",
    "repro.obs.provenance",
    "repro.obs.slo",
    "repro.versioning.alerter",
    "repro.versioning.merge",
    "repro.versioning.sitediff",
]


def run_fresh(code: str):
    """Run *code* in a new interpreter; return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def loaded_after(statement: str, candidates) -> list:
    code = (
        "import json, sys\n"
        f"{statement}\n"
        f"print(json.dumps([m for m in {list(candidates)!r} "
        "if m in sys.modules]))\n"
    )
    return run_fresh(code)


class TestImportBudget:
    @pytest.mark.parametrize(
        "statement",
        [
            "from repro.versioning.version_control import VersionStore",
            "import repro.cli",
        ],
    )
    def test_entry_point_loads_no_extras(self, statement):
        assert loaded_after(statement, NOT_LOADED) == []

    def test_server_loads_no_simulator_or_baselines(self):
        loaded = loaded_after(
            "import repro.server.app", ["repro.simulator", "repro.baselines"]
        )
        assert loaded == []

    def test_engine_base_does_not_load_core_diff(self):
        # The engine layer owns DiffStats and the diff entry point;
        # repro.core.diff only re-exports them, never the other way round.
        assert loaded_after(
            "import repro.engine.base", ["repro.core.diff"]
        ) == []

    def test_bare_package_loads_no_submodule(self):
        code = (
            "import json, sys\n"
            "import repro\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('repro.'))))\n"
        )
        assert run_fresh(code) == ["repro._lazy"]


class TestLazySurfaces:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        # Each name in __all__ is listed by dir(), resolves through
        # getattr, and is the very object a submodule defines; dir()
        # lists no lazy name that __all__ leaves out.
        code = f"""
import importlib, json, sys, types
package = importlib.import_module({package!r})
eager = set(vars(package))
listed = set(dir(package))
problems = [
    name + ": lazy but not in __all__"
    for name in sorted(listed - eager - set(package.__all__))
]
for name in package.__all__:
    if name not in listed:
        problems.append(name + ": missing from dir()")
    try:
        value = getattr(package, name)
    except AttributeError as error:
        problems.append(name + ": " + str(error))
        continue
    if name in eager:
        continue
    homes = [
        module_name for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.")
        and isinstance(module, types.ModuleType)
        and not hasattr(module, "__path__")
        and vars(module).get(name, None) is value
    ]
    if not homes:
        problems.append(name + ": no submodule defines this object")
print(json.dumps(problems))
"""
        assert run_fresh(code) == []

    def test_unknown_name_is_attribute_error(self):
        import repro.core

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.core.no_such_name  # noqa: B018

    @pytest.mark.parametrize(
        "package, name",
        [
            ("repro.core", "diff"),
            ("repro.versioning", "merge"),
            ("repro.baselines", "diffmk"),
        ],
    )
    def test_export_survives_same_named_submodule(self, package, name):
        # Importing the submodule first must not rebind the exported
        # function to the module object on the package.
        code = f"""
import json, sys, types
import {package}.{name}
from {package} import {name} as value
print(json.dumps([
    isinstance(value, types.ModuleType),
    value is vars(sys.modules["{package}.{name}"])["{name}"],
]))
"""
        assert run_fresh(code) == [False, True]


class TestSchemeRegistry:
    # The backends register their schemes on import, and nothing imports
    # them before a store is opened; every reader must still see both.
    def test_package_lists_builtin_schemes(self):
        code = (
            "import json\n"
            "from repro.storage import STORE_SCHEMES\n"
            "print(json.dumps(sorted(STORE_SCHEMES)))\n"
        )
        assert run_fresh(code) == ["file", "sqlite"]

    def test_store_url_opens_any_builtin_backend(self, tmp_path):
        code = (
            "import json\n"
            "from repro.versioning.repository import open_repository\n"
            f"store = open_repository('sqlite://' + {str(tmp_path / 's.db')!r})\n"
            "print(json.dumps(store.backend.scheme))\n"
            "store.close()\n"
        )
        assert run_fresh(code) == "sqlite"
