"""``setup.py`` requires exactly the third-party packages ``src/`` imports."""

import ast
import importlib.util
import os
import re
import sys
import sysconfig

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")


def install_requires():
    """Distribution names in ``setup()``'s ``install_requires``, read with ast."""
    with open(os.path.join(REPO, "setup.py")) as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup":
            for keyword in node.keywords:
                if keyword.arg == "install_requires":
                    return {
                        re.split(r"[<>=!~;\[ ]", requirement, maxsplit=1)[0].lower().replace("-", "_")
                        for requirement in ast.literal_eval(keyword.value)
                    }
    return set()


def is_stdlib(name):
    if hasattr(sys, "stdlib_module_names"):  # Python >= 3.10
        return name in sys.stdlib_module_names
    spec = importlib.util.find_spec(name)
    origin = (spec.origin if spec is not None else None) or ""
    return origin in ("built-in", "frozen") or (
        origin.startswith(sysconfig.get_paths()["stdlib"]) and "site-packages" not in origin
    )


def third_party_imports():
    """Top-level names of every absolute import under ``src/`` that is
    neither the standard library nor one of ``src/``'s own packages."""
    first_party = set(os.listdir(SRC))
    names = set()
    for root, _, files in os.walk(SRC):
        for file_name in files:
            if not file_name.endswith(".py"):
                continue
            with open(os.path.join(root, file_name)) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                    names.add(node.module.split(".")[0])
    return {name for name in names if name not in first_party and not is_stdlib(name)}


def test_install_requires_matches_third_party_imports():
    assert install_requires() == third_party_imports()
