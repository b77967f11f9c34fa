import importlib.util
import sys
from pathlib import Path

from qisograph.cli import _config_from_args, build_parser

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_convention_experiment_runs(capsys):
    module = _load(SCRIPTS / "convention_experiment.py")
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("asym4 ") for line in lines)
    forced = [line for line in lines if "forced prepend ->" in line]
    assert len(forced) == 2
    assert all("forced prepend -> Unknown" in line for line in forced)


def test_script_and_benchmark_argvs_parse():
    """Every command line that run_verification.py and the benchmark
    workloads pass is accepted by the parser, and its run config by
    ``RunConfig.validate``, so no bound refuses one of them."""
    parser = build_parser()
    argvs = [argv + [graph_file, "--out", "report.json"]
             for _, argv, graph_files in _load(SCRIPTS / "run_verification.py").PIPELINES
             for graph_file in graph_files]
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    for workload in list(workloads.WORKLOADS.values()) + [workloads.SMOKE]:
        argvs += [[inv.command, "--graph", f"{inv.graph}.g", *inv.extra, "--out", "report.json"]
                  for inv in workload.invocations]
    assert len(argvs) == 23
    for argv in argvs:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
        _config_from_args(args).validate()


def test_traced_boundaries_exist():
    """Every layer boundary the benchmark's tracer wraps is a callable
    of the package, so a rename or a deletion fails here too."""
    import importlib
    tracer = _load(ROOT / "perfbench" / "tracer.py")
    sites = [site for sites in tracer.SPANS.values() for site in sites]
    sites += [site for site, _ in tracer.COUNTERS.values()]
    assert len(sites) > 30
    for module_name, attr in sites:
        target = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"{module_name}.{attr}"
        assert target.__module__ == f"{tracer.PACKAGE}.{module_name}", f"{module_name}.{attr}"


def test_benchmark_traced_smoke_run_covers_every_layer(monkeypatch, capsys):
    """A traced benchmark run on the smoke workload meets its known
    answers and its coverage map, so a refactor that silences a traced
    layer boundary fails here as well as in perfbench/selftest.py."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))   # run.py imports its siblings
    run = _load(ROOT / "perfbench" / "run.py")
    from workloads import SMOKE
    result = run.measure(SMOKE, 7, 0.0, 1)
    printed = capsys.readouterr().out
    assert result["correct"], printed
    assert result["failed"] == 0, printed


def test_benchmark_traced_spectral_run_covers_its_layers(monkeypatch, capsys):
    """A traced benchmark run of one small spectral invocation meets its
    known answer and the coverage map of the spectral command, so a
    change that stops calling hilbert.represent or ratmat.rat_matmul
    there fails here too."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))   # run.py imports its siblings
    run = _load(ROOT / "perfbench" / "run.py")
    from workloads import Invocation, Workload
    workload = Workload("spectral-smoke", (Invocation("spectral", "k3", ("--level", "5")),))
    result = run.measure(workload, 7, 0.0, 1)
    printed = capsys.readouterr().out
    assert result["correct"], printed
    assert result["failed"] == 0, printed
