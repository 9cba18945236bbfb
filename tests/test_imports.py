"""Every name a package module imports is used there or re-exported, and
the verifiers leave out the heavy scipy modules."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import femchp

PACKAGE = Path(femchp.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that it neither uses nor lists
    in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used | exported)


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom x import (a, b as c, d)\n"
              "__all__ = ['d']\nnp.zeros(a)\n")
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_verifiers_do_not_import_scipy_spatial():
    # importing scipy.spatial (Qhull) pulls in scipy.special and adds about
    # 6 MB of resident memory; the m = 2 and m = 3 hull reductions are numpy
    # and Python floats only
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from femchp.convex import finite_hull",
        "from femchp.field import NodalField",
        "from femchp.mesh import build_structured_mesh",
        "from femchp.verify import verify_chp, verify_hull_with_zero, verify_lemma_pos",
        "mesh = build_structured_mesh('right2d', 8)",
        "rng = np.random.default_rng(0)",
        "field = NodalField(mesh, rng.uniform(-1.0, 1.0, (mesh.num_vertices, 2)))",
        "verify_chp(mesh, field)",
        "verify_chp(mesh, NodalField(mesh, rng.uniform(-1.0, 1.0, (mesh.num_vertices, 3))))",
        "verify_hull_with_zero(mesh, field)",
        "verify_lemma_pos(mesh, field, finite_hull(rng.normal(size=(24, 2))))",
        "assert 'scipy.spatial' not in sys.modules, 'scipy.spatial was imported'",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=PACKAGE.parent, timeout=120)
    assert run.returncode == 0, run.stderr
