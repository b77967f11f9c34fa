import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_convention_experiment_runs(capsys):
    spec = importlib.util.spec_from_file_location(
        "convention_experiment", SCRIPTS / "convention_experiment.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("asym4 ") for line in lines)
    forced = [line for line in lines if "forced prepend ->" in line]
    assert len(forced) == 2
    assert all("forced prepend -> Unknown" in line for line in forced)
