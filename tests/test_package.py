"""The package's public names, what a fresh interpreter loads to answer a call, and rules kept in one place."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import thermocone

MODULES = ("core", "embedding", "cones", "catalysis", "volume", "entanglement", "cooling")


def test_public_names_are_the_union_of_the_modules_all():
    union = []
    for name in MODULES:
        module = importlib.import_module(f"thermocone.{name}")
        for attr in module.__all__:
            assert getattr(thermocone, attr) is getattr(module, attr), attr
        union += module.__all__
    assert len(set(union)) == len(union)  # no name is exported by two modules
    assert sorted(thermocone.__all__) == sorted(union)
    public = {
        name
        for name, value in vars(thermocone).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(union)


def fresh_interpreter(code: str) -> str:
    src = str(Path(thermocone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


def test_import_loads_neither_the_thread_pool_nor_logging():
    # concurrent.futures imports logging (3-4 ms); only a threaded Monte-Carlo call needs it
    code = "import sys, thermocone\nprint(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
    assert fresh_interpreter(code).strip() == "[]"


def test_dim_bound_and_oracle_report_leave_numpy_ma_unimported():
    # np.union1d goes through np.unique, whose first call imports numpy.ma (about 12 ms)
    code = (
        "import sys\n"
        "from thermocone import EnergySpectrum, dim_bound, oracle_report\n"
        "spec = EnergySpectrum((0.0, 1.0, 2.0), 1.0)\n"
        "p, q = (0.5, 0.1, 0.4), (0.3, 0.6, 0.1)\n"
        "dim_bound(p, q, spec)\n"
        "oracle_report(p, q, spec, 1000)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert fresh_interpreter(code).strip() == "False"


def test_import_builds_no_per_d_table():
    # the level orders, their prefix tree and the C+ classes of a d are built on its first call
    code = (
        "import json, sys, thermocone\n"
        "sizes = {f'{m.__name__}.{name}': f.cache_info().currsize\n"
        "         for m in list(sys.modules.values()) if m.__name__.startswith('thermocone')\n"
        "         for name, f in vars(m).items() if hasattr(f, 'cache_info')}\n"
        "print(json.dumps(sizes))\n"
    )
    sizes = json.loads(fresh_interpreter(code))
    assert {"thermocone._batch.perm_matrix", "thermocone._batch._prefix_tree", "thermocone.catalysis._classes"} <= set(sizes)
    assert set(sizes.values()) == {0}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ROUNDS = {"np.round", "np.around", "numpy.round", "numpy.around"}


def round_sites(node: ast.AST, scope: str) -> list[str]:
    # the enclosing function, as module.outer.inner, of every np.round call below `node`
    sites = []
    for child in ast.iter_child_nodes(node):
        inner = f"{scope}.{child.name}" if isinstance(child, SCOPES) else scope
        if isinstance(child, ast.Call) and ast.unparse(child.func) in ROUNDS:
            sites.append(inner)
        sites += round_sites(child, inner)
    return sites


def test_vertex_equality_is_rounded_in_vertex_keys_only():
    # one rule decides when two vertices are equal, so that changing it changes every vertex set at once
    sites = []
    for path in sorted(Path(thermocone.__file__).parent.rglob("*.py")):
        sites += round_sites(ast.parse(path.read_text()), path.stem)
    assert sites == ["_batch.vertex_keys"]
