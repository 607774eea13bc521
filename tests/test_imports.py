import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diracbag"


def _unused_imports(source: str):
    """Names a module imports but never reads (names in ``__all__`` count as
    read, since they are re-exported)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _exported(tree):
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _dead_names(sources):
    """Module-level functions, classes and assigned names of ``sources``
    (module name -> source) that no module reads, as a name or an attribute,
    and that their module does not list in ``__all__``; dunders are exempt."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    dead = []
    for mod, tree in trees.items():
        kept = read | _exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            dead += [(mod, node.lineno, name) for name in targets if name not in kept
                     and not (name.startswith("__") and name.endswith("__"))]
    return sorted(dead)


def test_unused_import_check_finds_one():
    source = "from typing import List, Tuple\nimport numpy as np\nx: List[int] = []\n"
    assert _unused_imports(source) == [(1, "Tuple"), (2, "np")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_dead_name_check_finds_one():
    sources = {
        "a": "__all__ = ['f']\n__version__ = '1'\nLIMIT = 3\ndef f():\n    return b.g()\n"
             "def nu1():\n    return LIMIT\n",
        "b": "def g():\n    return 1\nclass Unused:\n    pass\n",
    }
    assert _dead_names(sources) == [("a", 6, "nu1"), ("b", 3, "Unused")]


def test_no_dead_names():
    assert _dead_names({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_exports_exist_once(path):
    # a stale entry breaks "from module import *"; test_no_dead_names counts
    # every __all__ entry as used, so it cannot catch one
    module = importlib.import_module(f"diracbag.{path.stem}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []


def _run(probe: str) -> str:
    """stdout of ``python -c probe`` in a fresh process that imports this package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=env).stdout


# numpy subpackages that the array API layer of every scipy package loads
_NUMPY_EXTRAS = ("numpy.f2py", "numpy.testing", "numpy.ma", "numpy.random")


def test_no_sparse_import():
    # the CLI imports every module; none needs a scipy package (sparse, linalg,
    # special, integrate, fft or optimize would each add to a fresh process's
    # start-up time), only the LAPACK extension module
    probe = ("import sys, diracbag.cli; print(sorted(name for name, mod in sys.modules.items() "
             "if (name.partition('.')[0] == 'scipy' and hasattr(mod, '__path__')) "
             f"or name in {_NUMPY_EXTRAS!r}))")
    assert _run(probe) == "[]\n"


def test_solves_import_nothing_more():
    # every import is made when the CLI is: the first C_k, Galerkin solve and
    # disk spectrum (hermgauss, fft, the LAPACK routines) add no module
    probe = ("import sys, diracbag.cli\n"
             "from diracbag import constants, disk, effective\n"
             "before = set(sys.modules)\n"
             "constants.ck_constant(3, constants.BargmannWeight.isotropic(1.0), "
             "constants.BoundaryCurve.circle(1.0))\n"
             "effective.qeff_general(effective.EffSpec(6.0, 0.3, [1.0, 2.0, 1.0]), 3)\n"
             "disk.dirac_spectrum(disk.DiskSpec.make(disk.RadialField(1.0, 1.0), 0.2, n=201), 2)\n"
             "print(sorted(set(sys.modules) - before))")
    assert _run(probe) == "[]\n"


@pytest.mark.parametrize("first", ["diracbag.numerics", "scipy.linalg.lapack"])
def test_lapack_is_scipys_module_in_either_import_order(first):
    # numerics loads scipy's LAPACK extension itself; a scipy.linalg imported
    # before or after it must use that same module
    second = "scipy.linalg.lapack" if first == "diracbag.numerics" else "diracbag.numerics"
    probe = (f"import {first}, {second}, sys\n"
             "from diracbag import numerics\n"
             "import scipy.linalg.lapack as lapack\n"
             "print(lapack.dstebz is numerics._lapack.dstebz, "
             "numerics._lapack is sys.modules['scipy.linalg._flapack'])")
    assert _run(probe) == "True True\n"


def test_lapack_falls_back_to_the_package(tmp_path):
    # where scipy's directory holds no LAPACK extension file, numerics imports
    # the module through scipy.linalg, and it is the one scipy uses
    probe = ("import importlib.machinery, importlib.util, sys\n"
             "real = importlib.util.find_spec\n"
             "empty = importlib.machinery.ModuleSpec('scipy', None, is_package=True)\n"
             f"empty.submodule_search_locations = [{str(tmp_path)!r}]\n"
             "importlib.util.find_spec = lambda name, package=None: (\n"
             "    empty if name == 'scipy' else real(name, package))\n"
             "from diracbag import numerics\n"
             "print('scipy.linalg' in sys.modules)\n"
             "import scipy.linalg.lapack as lapack\n"
             "print(lapack.dstebz is numerics._lapack.dstebz, "
             "numerics._lapack is sys.modules['scipy.linalg._flapack'])")
    assert _run(probe) == "True\nTrue True\n"
