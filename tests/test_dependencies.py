"""The package imports what ``setup.py`` declares, and serving needs numpy alone.

An install built from ``install_requires`` must be able to import every
module, so the third-party names the source imports are that list.  A
serving process (``import repro`` and every subpackage except
:mod:`repro.analysis`, scipy's one user) loads numpy and the standard
library only; the benchmark's peak resident memory rests on it.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _declared() -> set[str]:
    """The distribution names in ``setup()``'s ``install_requires``,
    read from the syntax tree (setup.py is not run)."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return {
                re.match(r"[A-Za-z0-9_.-]+", requirement).group()
                for requirement in ast.literal_eval(node.value)
            }
    raise AssertionError("setup.py declares no install_requires")


def _third_party_users() -> dict[str, set[str]]:
    """Each top-level name the package imports absolutely from outside
    itself and the standard library, module-level and in-function
    imports alike, mapped to the files that import it."""
    users: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "repro":
                    users.setdefault(top, set()).add(path.relative_to(PACKAGE).as_posix())
    return users


def test_imported_third_party_packages_are_the_declared_dependencies():
    users = _third_party_users()
    assert set(users) == _declared()
    # A serving process leaves repro.analysis out, so scipy stays inside it.
    assert all(path.startswith("analysis/") for path in users.get("scipy", ()))


#: Run in a fresh interpreter: the top-level names of the modules that
#: importing the serving stack adds to ``sys.modules``.
SERVING_IMPORT = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro
for module in pkgutil.iter_modules(repro.__path__):
    if module.ispkg and module.name != "analysis":
        importlib.import_module("repro." + module.name)
added = set(sys.modules) - before
print(json.dumps(sorted({name.partition(".")[0] for name in added})))
"""


def test_serving_import_loads_numpy_and_the_standard_library_alone():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SERVING_IMPORT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    added = json.loads(result.stdout)
    assert "repro" in added
    foreign = [
        name for name in added
        if name not in sys.stdlib_module_names and name not in ("numpy", "repro")
    ]
    assert foreign == []
