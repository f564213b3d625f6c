"""Process start-up: what importing dualgp and running an episode loads, and its public names."""

import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(script):
    """Run a script in a new interpreter that imports dualgp from this checkout."""
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_episode_runs_without_scipy_linalg():
    # scipy.linalg's package import costs most of a cold start; dualgp needs
    # only its compiled LAPACK wrappers
    run_fresh(
        "import sys\n"
        "import dualgp\n"
        "from dualgp.config import resolve_config\n"
        "from dualgp.harness import run_scenario\n"
        "result = run_scenario(resolve_config({'scenario': 'logistic_linear', 'steps': 5}))\n"
        "assert result.aborted is None and len(result.records) == 5\n"
        "assert 'scipy.linalg' not in sys.modules\n"
    )


@pytest.mark.parametrize("scenario,loaded", [("logistic_linear", False), ("cart_dual", True)])
def test_numpy_random_loads_only_for_noise(scenario, loaded):
    # numpy imports numpy.random on first use; a noise-free channel holds no
    # generator, so a noise-free episode never pays for that import
    run_fresh(
        "import sys\n"
        "from dualgp.config import resolve_config\n"
        "from dualgp.harness import run_scenario\n"
        f"result = run_scenario(resolve_config({{'scenario': {scenario!r}, 'steps': 5}}))\n"
        "assert result.aborted is None and len(result.records) == 5\n"
        f"assert ('numpy.random' in sys.modules) is {loaded}\n"
    )


@pytest.mark.parametrize("first", ["dualgp", "scipy.linalg"])
def test_scipy_linalg_shares_the_loaded_extension(first):
    second = "scipy.linalg" if first == "dualgp" else "dualgp"
    run_fresh(
        f"import {first}\n"
        f"import {second}\n"
        "import numpy as np\n"
        "trtrs = scipy.linalg.get_lapack_funcs('trtrs', (np.zeros((1, 1)),))\n"
        "assert trtrs is dualgp.gp._TRTRS\n"
    )


SUBMODULES = [
    "dualgp.config", "dualgp.harness", "dualgp.control",
    "dualgp.plants", "dualgp.gp", "dualgp.info",
]


@pytest.mark.parametrize("module", ["dualgp", *SUBMODULES])
def test_every_public_name_resolves(module):
    # tools that wrap the public API look each __all__ entry up by name
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
    if module == "dualgp":
        # each package name is one submodule's public name, as the same object
        subs = [importlib.import_module(sub) for sub in SUBMODULES]
        homes = {name: [sub for sub in subs if name in sub.__all__] for name in mod.__all__}
        stray = {name: [sub.__name__ for sub in found] for name, found in homes.items()
                 if len(found) != 1 or getattr(found[0], name) is not getattr(mod, name)}
        assert not stray, stray
