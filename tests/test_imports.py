"""Import hygiene, each case in a fresh interpreter: no module of the
package imports numpy, which only the tests' oracles use, and
``import qisograph.cli`` loads every module of the package, which
``perfbench/tracer.py`` relies on before it rebinds the traced
boundaries."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qisograph"
GRAPHS = ROOT / "graphs"


def _run(code: str) -> str:
    """The last stdout line of *code* run by a fresh interpreter that
    imports the package from ``src/``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def _main_loads_numpy(argv: list[str], exit_code: int = 0) -> bool:
    rc, loaded = _run("import sys\nfrom qisograph.cli import main\n"
                      f"rc = main({argv!r})\nprint(rc, 'numpy' in sys.modules)").split()
    assert rc == str(exit_code)
    return loaded == "True"


@pytest.mark.parametrize("argv, exit_code", [
    (["spectral", "--graph", str(GRAPHS / "k3.g")], 0),
    (["validate", "--graph", str(GRAPHS / "asym4.g")], 0),
    (["reduce", "--graph", str(GRAPHS / "k3.g"), "sum(k, q[1,k]) - 1"], 0),
    (["reduce", "--graph", str(GRAPHS / "cuntz2.g"), "--flavor", "free-unitary",
      "sum(k, u*[k,l1]*u[k,l1]) - 1"], 0),
    # the negative control of well-definedness fails, by design
    (["verify", "--graph", str(GRAPHS / "asym4.g"), "--convention", "range-prepend"], 1),
    # the Dirac check certifies the automorphism providers exactly
    (["verify", "--graph", str(GRAPHS / "three_cycle.g")], 0),
    (["verify", "--graph", str(GRAPHS / "k3.g")], 0),
    # the point providers evaluate in plain Python
    (["cuntz", "--graph", "loops4.g"], 0),
], ids=["spectral", "validate", "reduce-qaut", "reduce-free-unitary", "range-prepend",
        "verify-three-cycle", "verify-k3", "cuntz-loops4"])
def test_commands_without_float_linear_algebra_leave_numpy_unloaded(argv, exit_code, tmp_path):
    loops4 = tmp_path / "loops4.g"
    loops4.write_text("graph cuntz4\nv w\n" + "".join(f"e l{i} w w\n" for i in range(1, 5)))
    argv = [str(loops4) if arg == "loops4.g" else arg for arg in argv]
    assert not _main_loads_numpy(argv, exit_code)


def test_no_package_module_imports_numpy():
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        assert "import numpy" not in text and "from numpy" not in text, path.name


def test_building_and_registering_providers_leaves_numpy_unloaded():
    loaded = _run(f"""
import sys
from qisograph.graphs import parse_graph
from qisograph.perron import perron
from qisograph.providers import classical_rep, loop_permutation_rep, unitary_provider_portfolio
from qisograph.relations import free_unitary_relations, magic_relations, qaut_relations
g = parse_graph(open({str(GRAPHS / "k3.g")!r}).read())
assert classical_rep(g, qaut_relations(g, perron(g))).dim == 6
ids = ("l1", "l2", "l3", "l4")
assert loop_permutation_rep(ids, magic_relations(ids)).dim == 24
assert len(unitary_provider_portfolio(ids, free_unitary_relations(ids))) == 2
print('numpy' in sys.modules)
""")
    assert loaded == "False"


def test_importing_the_cli_loads_every_package_module():
    modules = sorted(f"qisograph.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    loaded = _run("import sys\nimport qisograph.cli\n"
                  "print(','.join(sorted(m for m in sys.modules if m.startswith('qisograph.'))))")
    assert loaded.split(",") == modules
