import importlib.util
import sys
from pathlib import Path

from qisograph.cli import _check_level_searches, _check_spectrum, _config_from_args, build_parser
from qisograph.graphs import parse_graph
from qisograph.hilbert import path_counts
from qisograph.perron import perron

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


def _scripted_runs() -> list[tuple[list[str], str]]:
    """(argv, graph text) of every run that run_verification.py, the
    benchmark workloads and the golden cases make."""
    from test_golden import GRAPHS, REPORTS, WRITTEN
    runs = [(argv + [graph_file], (GRAPHS / graph_file).read_text())
            for _, argv, graph_files in _load(SCRIPTS / "run_verification.py").PIPELINES
            for graph_file in graph_files]
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    runs += [([inv.command, *inv.extra, "--graph", inv.graph],
              workloads.graph_text(ROOT, inv.graph, 0))
             for workload in list(workloads.WORKLOADS.values()) + [workloads.SMOKE]
             for inv in workload.invocations]
    for case in REPORTS.values():
        command, graph, *rest = case["argv"]
        text = WRITTEN[graph] if graph in WRITTEN else (GRAPHS / graph).read_text()
        runs.append(([command, *rest, "--graph", graph], text))
    return runs


def test_script_and_benchmark_argvs_parse():
    """Every command line that run_verification.py, the benchmark
    workloads and the golden cases pass is accepted by the parser, its
    run config by ``RunConfig.validate`` and, on the graph it names, by
    the up-front bound of its command that needs the graph: the spectrum
    bound and verify's level-search bound.  So no bound refuses one of
    them."""
    parser = build_parser()
    runs = _scripted_runs()
    assert len(runs) == 15 + 8 + 25
    guarded = 0
    for argv, text in runs:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
        config = _config_from_args(args)
        config.validate()
        if argv[0] == "spectral":
            _check_spectrum(perron(parse_graph(text)), config)
        elif argv[0] == "verify":
            _check_level_searches(path_counts(parse_graph(text), config.n_cap), config.k_max)
        else:
            continue
        guarded += 1
    assert guarded == 8 + 6 + 14


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
