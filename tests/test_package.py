"""The package's public names, and what a fresh interpreter loads to answer a call."""

import importlib
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
    src = str(Path(thermocone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.strip() == "False"
