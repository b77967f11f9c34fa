import argparse
import json
import math
import re
import time
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from qisograph.cli import (
    _FLAGS, COMMANDS, DIRAC_STACK_MAX, RunConfig, UsageError, _check_dirac_stack,
    _check_level_searches, _check_measure_table, _check_spectrum, main,
)
from qisograph.report import strip_wall_times

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
K5_TEXT = "graph k5\n" + "".join(f"v {v}\n" for v in "12345") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "12345" for r in "12345" if r != s)
K4_TEXT = "graph k4\n" + "".join(f"v {v}\n" for v in "1234") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "1234" for r in "1234" if r != s)
K8_TEXT = "graph k8\n" + "".join(f"v {v}\n" for v in "12345678") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "12345678" for r in "12345678" if r != s)
K7_TEXT = "graph k7\n" + "".join(f"v {v}\n" for v in "1234567") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "1234567" for r in "1234567" if r != s)


def _star(n: int) -> str:
    """A hub h with *n* spokes, an edge each way between h and each spoke:
    rho = sqrt(n) and Aut(G) is the symmetric group on the spokes."""
    return f"graph star{n}\nv h\n" + "".join(f"v {i}\n" for i in range(1, n + 1)) + "".join(
        f"e a{i} {i} h\ne b{i} h {i}\n" for i in range(1, n + 1))


def _loops(n: int) -> str:
    return f"graph cuntz{n}\nv w\n" + "".join(f"e l{i} w w\n" for i in range(1, n + 1))


def _graph(name: str) -> str:
    return str(GRAPHS / name)


def test_validate_pass_and_fail(tmp_path):
    assert main(["validate", "--graph", _graph("k3.g")]) == 0
    assert main(["validate", "--graph", _graph("cuntz2.g")]) == 1
    assert main(["validate", "--graph", _graph("cuntz2.g"),
                 "--profile", "spectral-triple"]) == 0


def test_malformed_graph_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("graph bad\nv 1\ne x 1 4\n")
    assert main(["validate", "--graph", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "4" in err
    assert main(["validate", "--graph", str(tmp_path / "missing.g")]) == 2


@pytest.mark.parametrize("command", ["validate", "spectral", "verify", "cuntz", "reduce"])
def test_graph_without_vertices_exits_2(command, tmp_path, capsys):
    """A graph file with no ``v`` line is refused by the parser, so every
    command exits 2 with one message instead of failing in perron."""
    empty = tmp_path / "empty.g"
    empty.write_text("graph empty\n")
    extra = ["q[1,1]"] if command == "reduce" else []
    assert main([command, "--graph", str(empty), *extra]) == 2
    err = capsys.readouterr().err
    assert "no vertices" in err and "Traceback" not in err
    assert err.count("\n") == 1


def test_usage_errors():
    assert main(["validate"]) == 2                       # missing --graph
    assert main(["spectral", "--graph", _graph("k3.g"), "--level", "1"]) == 2
    assert main(["spectral", "--graph", _graph("k3.g"), "--epsilon", "0.9"]) == 2
    assert main(["spectral", "--graph", _graph("k3.g"), "--t", "-1"]) == 2
    assert main(["cuntz", "--graph", _graph("cuntz2.g"), "--flavor", "bogus"]) == 2


def test_vacuous_ranges_exit_2(capsys):
    # each of these ran fewer checks than the suite has and still passed
    for argv in (["verify", "--graph", _graph("three_cycle.g"), "--k", "-1"],
                 ["cuntz", "--graph", _graph("cuntz2.g"), "--k", "-1"],
                 ["spectral", "--graph", _graph("k3.g"), "--measure-depth", "-1"],
                 ["spectral", "--graph", _graph("k3.g"), "--q-max", "-1"]):
        assert main(argv) == 2, argv
        assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("command, graph", [("verify", "k3.g"), ("cuntz", "cuntz2.g")])
def test_k_above_the_truncation_level_exits_2(command, graph, capsys):
    """The suite builds level tables up to --k, and no size guard counts
    them, so --k above --level is refused before any check runs."""
    started = time.monotonic()
    assert main([command, "--graph", _graph(graph), "--level", "3", "--k", "4"]) == 2
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err
    assert "--k must not exceed the truncation level --level" in err
    assert err.count("\n") == 1


def test_convention_residuals_computed_once_per_run(monkeypatch):
    from qisograph import cli, perron
    calls = []

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    residuals = counting(perron.convention_residuals, "residuals")
    monkeypatch.setattr(perron, "convention_residuals", residuals)
    monkeypatch.setattr(cli, "convention_residuals", residuals)
    monkeypatch.setattr(cli, "select_convention", counting(perron.select_convention, "select"))
    # an auto run selects; a forced run skips the selection
    for argv, expected in ((["verify", "--graph", _graph("three_cycle.g"), "--k", "1"],
                            ["select", "residuals"]),
                           (["verify", "--graph", _graph("asym4.g"), "--k", "1",
                             "--convention", "range-prepend"], ["residuals"])):
        calls.clear()
        main(argv)
        assert calls == expected, argv


def test_graph_without_consistent_convention_is_a_usage_error(tmp_path, capsys):
    # one vertex and no edges: rho = 0 and no refinement side is additive
    gfile = tmp_path / "lone.g"
    gfile.write_text("graph lone\nv a\n")
    for command in ("spectral", "verify"):
        assert main([command, "--graph", str(gfile)]) == 2, command
        assert "no measure-consistent refinement convention" in capsys.readouterr().err


def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    # exit 1 would claim that a check failed
    missing = tmp_path / "no-such-dir"
    for flag, command in (("--out", "validate"), ("--theta-csv", "spectral")):
        target = missing / "output"
        assert main([command, "--graph", _graph("k3.g"), flag, str(target)]) == 2, flag
        assert f"error: cannot write {target}: " in capsys.readouterr().err


def test_unwritable_output_path_fails_before_the_run(tmp_path, capsys, monkeypatch):
    from qisograph import rewrite

    def no_reduction(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    monkeypatch.setattr(rewrite, "normal_form", no_reduction)
    for target in (tmp_path / "no-such-dir" / "r.json", tmp_path):
        assert main(["verify", "--graph", _graph("k3.g"), "--out", str(target)]) == 2
        assert f"error: cannot write {target}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_commands_reject_flags_they_do_not_read(tmp_path):
    assert main(["verify", "--graph", _graph("k3.g"),
                 "--theta-csv", str(tmp_path / "theta.csv")]) == 2
    assert main(["spectral", "--graph", _graph("k3.g"), "--flavor", "magic"]) == 2
    # the measures do not depend on a convention: spectral always selects one
    assert main(["spectral", "--graph", _graph("k3.g"),
                 "--convention", "source-append"]) == 2
    assert main(["validate", "--graph", _graph("k3.g"), "--level", "3"]) == 2
    assert main(["reduce", "--graph", _graph("k3.g"), "--k", "2", "q[1,2]"]) == 2


def test_flags_are_spelled_in_full(capsys):
    # a deleted flag or a prefix of a flag is refused, never read as another flag
    for argv in (["verify", "--l", "2"], ["verify", "--lev", "3"],
                 ["spectral", "--alpha", "linear"], ["spectral", "--q", "3"]):
        assert main([argv[0], "--graph", _graph("k3.g"), *argv[1:]]) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def _dest(flag: str) -> str:
    return argparse.ArgumentParser().add_argument(f"--{flag}", **_FLAGS[flag]).dest


def test_flag_destinations_are_the_run_config_fields():
    assert sorted(map(_dest, _FLAGS)) == sorted(f.name for f in fields(RunConfig))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_prints_each_run_config_default(command, capsys):
    assert main([command, "--help"]) == 0
    options = " ".join(capsys.readouterr().out.split("options:")[1].split())
    entries = {entry.split()[0]: entry for entry in re.split(r" (?=--)", options)[1:]}
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for flag in COMMANDS[command][1]:
        default = defaults[_dest(flag)]
        if default in (None, MISSING):
            assert "(default" not in entries[f"--{flag}"], flag
        else:
            shown = " ".join(map(str, default)) if isinstance(default, tuple) else default
            assert entries[f"--{flag}"].endswith(f"(default {shown})"), flag


def test_spectral_theta_enclosure_on_k5(tmp_path):
    # rho = 4: the last partial-sum increment at Q = 20 and t = 0.5 is
    # about 1.6e-7, yet the heat trace converges
    gfile = tmp_path / "k5.g"
    gfile.write_text(K5_TEXT)
    out = tmp_path / "k5.json"
    assert main(["spectral", "--graph", str(gfile), "--level", "2", "--out", str(out)]) == 0
    theta = json.loads(out.read_text())["checks"][-1]
    assert theta["name"] == "theta-summability" and theta["passed"]
    assert 0 < theta["residuals"]["tail_bound"] < 1e-6


def test_non_finite_t_is_rejected():
    # a NaN t would never end the tail-bound loop; an infinite one gives NaN rows
    with pytest.raises(UsageError):
        RunConfig(_graph("k3.g"), t_values=(math.nan,)).validate()
    assert main(["spectral", "--graph", _graph("k3.g"), "--t", "inf"]) == 2


def test_spectral_q_max_beyond_float_range(tmp_path):
    # from q = 1024 on, k3's multiplicities exceed float range; their
    # heat-trace terms underflowed long before and are skipped
    rows = {}
    for name, extra in (("default", []), ("long", ["--q-max", "1100"])):
        csv = tmp_path / f"{name}.csv"
        assert main(["spectral", "--graph", _graph("k3.g"), "--theta-csv", str(csv),
                     *extra]) == 0
        rows[name] = csv.read_text().splitlines()[1:22]
    assert len(rows["long"]) == 21 and rows["long"] == rows["default"]


def test_spectral_heat_trace_beyond_float_range(tmp_path, capsys):
    # at t = 0.01 the terms from q = 1024 on have not underflowed, and
    # their multiplicities exceed float range while the partial sum,
    # about 4.1e173, does not; at t = 0.001 the partial sum itself does
    csv = tmp_path / "theta.csv"
    assert main(["spectral", "--graph", _graph("k3.g"), "--t", "0.01", "--q-max", "1100",
                 "--theta-csv", str(csv)]) == 0
    assert 4e173 < float(csv.read_text().splitlines()[-1].split(",")[2]) < 5e173
    capsys.readouterr()
    assert main(["spectral", "--graph", _graph("k3.g"), "--t", "0.001",
                 "--q-max", "1100"]) == 2
    assert "t=0.001" in capsys.readouterr().err


def test_spectral_report(tmp_path):
    out = tmp_path / "spectral.json"
    csv = tmp_path / "theta.csv"
    rc = main(["spectral", "--graph", _graph("k3.g"), "--level", "4",
               "--out", str(out), "--theta-csv", str(csv)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["overall"] == "pass"
    assert report["convention"] == "source-append"
    perron_check = report["checks"][0]
    assert perron_check["detail"]["rho"] == "2"
    measures = report["checks"][1]["detail"]["measures"]
    assert measures["e12.e21"] == "1/12"
    spectrum = report["checks"][3]["detail"]["spectrum"]
    assert [row["multiplicity"] for row in spectrum[:4]] == [2, 3, 6, 12]
    header, first = csv.read_text().splitlines()[:2]
    assert header == "t,Q,value"


def test_spectral_golden_stability(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["spectral", "--graph", _graph("asym4.g"), "--level", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a = strip_wall_times(json.loads(out1.read_text()))
    b = strip_wall_times(json.loads(out2.read_text()))
    assert a == b


def test_verify_three_cycle(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--graph", _graph("three_cycle.g"), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["overall"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert {"welldefined", "isometry", "comultiplicative", "density",
            "implementation", "kms-invariance", "dirac-commutation"} <= names
    assert any("relation_events" in note for note in report["notes"])


def test_verify_forced_wrong_convention(tmp_path):
    out = tmp_path / "neg.json"
    rc = main(["verify", "--graph", _graph("asym4.g"),
               "--convention", "range-prepend", "--out", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["overall"] == "fail"
    assert all(c["name"] == "welldefined" for c in report["checks"])
    assert any(float(c["residuals"]["numeric"]) > 0 for c in report["checks"])


def test_cuntz_command(tmp_path):
    out = tmp_path / "cuntz.json"
    rc = main(["cuntz", "--graph", _graph("cuntz2.g"), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    kinds = {c["name"]: c for c in report["checks"]}
    assert kinds["non-isometry"]["verdict"] == "NotIsometric"
    assert kinds["derivation-collapses"]["verdict"] == "ProvedZero"
    assert main(["cuntz", "--graph", _graph("k3.g")]) == 2


def test_cuntz_reads_the_graph_file(tmp_path):
    # the loop ids of the input file, not a rebuilt l1..ln, key the report
    graph = tmp_path / "loops.g"
    graph.write_text("graph loops\nv x\ne p7 x x\ne b2 x x\n")
    out = tmp_path / "cuntz.json"
    assert main(["cuntz", "--graph", str(graph), "--level", "2", "--k", "1",
                 "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    witnesses = next(c for c in checks if c["name"] == "non-isometry")["detail"]["witnesses"]
    assert sorted(witnesses) == ["b2", "p7"]
    labels = {c["inputs"]["lam"] for c in checks if c["name"] == "implementation"}
    assert labels == {"b2", "p7"}


def test_cuntz_builds_the_magic_setup_once(monkeypatch):
    # the derivation and the identity suite share one magic setup
    from qisograph import cuntz, relations
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return relations.magic_relations(*args, **kwargs)

    monkeypatch.setattr(cuntz, "magic_relations", counting)
    assert main(["cuntz", "--graph", _graph("cuntz2.g"), "--flavor", "magic",
                 "--level", "2", "--k", "1"]) == 0
    assert len(calls) == 1


def test_reduce_command(tmp_path):
    out = tmp_path / "reduce.json"
    rc = main(["reduce", "--graph", _graph("k3.g"), "--out", str(out),
               "sum(k, q[1,k]) - 1"])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["verdict"] == "ProvedZero"
    assert report["checks"][0]["detail"]["normal_form"] == "0"
    assert main(["reduce", "--graph", _graph("k3.g"), "q[1,9]"]) == 2
    rc = main(["reduce", "--graph", _graph("cuntz2.g"), "--flavor", "free-unitary",
               "sum(k, u*[k,l1]*u[k,l1]) - 1"])
    assert rc == 0


def test_reduce_magic_flavor_needs_a_loop_graph(tmp_path, capsys):
    assert main(["reduce", "--graph", _graph("k3.g"), "--flavor", "magic", "q[1,2]"]) == 2
    assert "magic flavor needs a one-vertex graph with loops" in capsys.readouterr().err
    reports = []
    for extra in ([], ["--flavor", "magic"]):
        out = tmp_path / "reduce.json"
        assert main(["reduce", "--graph", _graph("cuntz2.g"), "--out", str(out), *extra,
                     "sum(k, q[l1,k]) - 1"]) == 0
        reports.append(strip_wall_times(json.loads(out.read_text())))
    assert reports[0] == reports[1]
    assert reports[0]["checks"][0]["detail"]["relations"] == "magic"


def test_reduce_free_unitary_flavor_needs_a_loop_graph(tmp_path, capsys):
    # U_n^+ is indexed by the loops of a one-vertex graph, never by k3's edges
    for graph, edge in (("k3.g", "e12"), ("asym4.g", "g12")):
        out = tmp_path / "reduce.json"
        assert main(["reduce", "--graph", _graph(graph), "--flavor", "free-unitary",
                     "--out", str(out), f"sum(k, u*[k,{edge}]*u[k,{edge}]) - 1"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "free-unitary flavor needs a one-vertex graph with loops" in err
    out = tmp_path / "reduce.json"
    assert main(["reduce", "--graph", _graph("cuntz2.g"), "--flavor", "free-unitary",
                 "--out", str(out), "sum(k, u*[k,l1]*u[k,l1]) - 1"]) == 0
    assert json.loads(out.read_text())["checks"][0]["detail"]["relations"] == "free-unitary"


@pytest.mark.parametrize("expression", [
    "1/0", "(" * 1200 + "1" + ")" * 1200, "-" * 1500 + "1"],
    ids=["zero-denominator", "nested-parentheses", "chained-unary-minus"])
def test_reduce_rejects_bad_expression(expression, capsys):
    assert main(["reduce", "--graph", _graph("k3.g"), "--", expression]) == 2
    assert capsys.readouterr().err.startswith("error: bad expression: ")


def test_reduce_searches_unprovable_input_once(tmp_path, monkeypatch):
    from qisograph import rewrite
    calls = []
    search = rewrite._search_zero

    def counting_search(*args, **kwargs):
        calls.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(rewrite, "_search_zero", counting_search)
    out = tmp_path / "reduce.json"
    assert main(["reduce", "--graph", _graph("k3.g"), "--out", str(out),
                 "q[1,2]*q[2,3] - q[1,3]"]) == 0
    assert json.loads(out.read_text())["checks"][0]["verdict"] == "Unknown"
    assert len(calls) == 1


def test_spectral_float_mode_irrational_radius(tmp_path):
    # valid graph whose spectral radius is the plastic number
    gfile = tmp_path / "plastic.g"
    gfile.write_text("graph plastic\nv 1\nv 2\nv 3\n"
                     "e p12 2 1\ne p21 1 2\ne p23 3 2\ne p31 1 3\n")
    out = tmp_path / "plastic.json"
    assert main(["spectral", "--graph", str(gfile), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    names = [c["name"] for c in report["checks"]]
    assert "cuntz-krieger" not in names      # exact matrix checks unavailable
    assert any("inexact_perron" in note for note in report["notes"])
    # the symbolic suite refuses inexact data instead of rounding
    assert main(["verify", "--graph", str(gfile)]) == 2


def test_verify_refuses_inexact_perron_data_before_building_aut(tmp_path, capsys):
    # rho = 2 sqrt(2): Aut(G) has 8! = 40,320 maps, which the run
    # must neither enumerate nor register before it refuses
    graph = tmp_path / "star8.g"
    graph.write_text(_star(8))
    started = time.monotonic()
    assert main(["verify", "--graph", str(graph)]) == 2
    assert time.monotonic() - started < 1.0
    assert "error: the symbolic identity suite requires exact Perron data" in \
        capsys.readouterr().err


def test_report_digest_tracks_graph_file(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["validate", "--graph", _graph("k3.g"), "--out", str(out1)])
    main(["validate", "--graph", _graph("asym4.g"), "--out", str(out2)])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["graph"]["digest"] != b["graph"]["digest"]


@pytest.mark.parametrize("command, text, extra, size", [
    ("cuntz", _loops(6), [],
     "(720 summands + 5 projections) x 216^2 paths = 33,825,600 entries"),
    ("cuntz", _loops(7), [],
     "(5040 summands + 5 projections) x 343^2 paths = 593,539,205 entries"),
    # Aut(K4) is enumerated only up to the 10 summands the check admits
    ("verify", K4_TEXT, ["--level", "5"],
     "at least (11 summands + 7 projections) x 972^2 paths = 17,006,112 entries"),
    ("verify", (GRAPHS / "asym4.g").read_text(), ["--level", "9"],
     "at least (1 summands + 11 projections) x 2048^2 paths = 50,331,648 entries"),
    # refused on the identity summand alone, before Aut(K8) (40,320 summands) is built
    ("verify", K8_TEXT, [],
     "at least (1 summands + 5 projections) x 2744^2 paths = 45,177,216 entries"),
    ("cuntz", (GRAPHS / "cuntz2.g").read_text(), ["--level", "11"],
     "(2 summands + 13 projections) x 2048^2 paths = 62,914,560 entries"),
    ("spectral", K5_TEXT, ["--level", "6"], "20480 x 5120 paths = 104,857,600 entries"),
    # rho = 3: refused at the 635th automorphism, before 9! = 362,880 are built
    ("verify", _star(9), [],
     "at least (635 summands + 5 projections) x 162^2 paths = 16,796,160 entries"),
])
def test_oversized_dirac_stack_exits_2_up_front(command, text, extra, size, tmp_path, capsys):
    graph = tmp_path / "big.g"
    graph.write_text(text)
    started = time.monotonic()
    assert main([command, "--graph", str(graph), *extra]) == 2
    assert time.monotonic() - started < 1.0
    check = "Cuntz-Krieger check" if command == "spectral" else "Dirac check"
    assert f"the {check} would hold {size}" in capsys.readouterr().err


@pytest.mark.parametrize("text, size", [
    # refused at its third automorphism: Aut(K7) has 5,040
    (K7_TEXT, "at least (3 summands + 5 projections) x 1512^2 paths = 18,289,152 entries"),
    (K8_TEXT, "at least (1 summands + 5 projections) x 2744^2 paths = 45,177,216 entries"),
])
def test_range_prepend_control_is_refused_where_the_default_run_is(text, size, tmp_path,
                                                                  capsys):
    """The control runs no Dirac check, yet it is admitted only where
    the default run, which does, would be: K7 and K8 exit 2 at once."""
    graph = tmp_path / "big.g"
    graph.write_text(text)
    started = time.monotonic()
    assert main(["verify", "--graph", str(graph), "--convention", "range-prepend"]) == 2
    assert time.monotonic() - started < 1.0
    assert (f"the Dirac check would hold {size}, above the limit of 16,777,216; the "
            "range-prepend control is admitted only where the default run is") in \
        capsys.readouterr().err


def test_dirac_stack_limit_admits_k5_verify_and_five_loops():
    from qisograph.graphs import graph_automorphisms, parse_graph
    from qisograph.hilbert import path_counts
    k5 = parse_graph(K5_TEXT)
    assert (len(graph_automorphisms(k5)), path_counts(k5, 3)[-1]) == (120, 320)
    # verify's bound on Aut(G) at level 3 keeps every map of K4 and K5
    for text, autos, allowance in ((K4_TEXT, 24, 1433), (K5_TEXT, 120, 158)):
        g = parse_graph(text)
        paths = path_counts(g, 3)[-1]
        assert DIRAC_STACK_MAX // paths ** 2 - 5 == allowance
        assert len(graph_automorphisms(g, allowance)) == autos
    for summands, paths, n_cap in ((120, 320, 3), (math.factorial(5), 5 ** 3, 3),
                                   (1, 1024, 8)):        # asym4 --level 8
        _check_dirac_stack(summands, paths, n_cap)
        assert (summands + n_cap + 2) * paths ** 2 <= DIRAC_STACK_MAX
    assert path_counts(k5, 5)[-2:] == [1280, 5120]
    assert 5120 * 1280 <= DIRAC_STACK_MAX        # K5 spectral --level 5


PLASTIC = "graph plastic\nv 1\nv 2\nv 3\ne a 2 1\ne b 1 2\ne c 3 2\ne d 1 3\n"


@pytest.mark.parametrize("name, depth", [
    ("k3", "40"), ("k3", "1000000000"), ("three_cycle", "1000000000"),
    ("plastic", "60"),                          # float Perron data
])
def test_oversized_measure_table_exits_2_up_front(name, depth, tmp_path, capsys):
    graph = tmp_path / f"{name}.g"
    graph.write_text(PLASTIC if name == "plastic" else (GRAPHS / f"{name}.g").read_text())
    started = time.monotonic()
    assert main(["spectral", "--graph", str(graph), "--measure-depth", depth]) == 2
    assert time.monotonic() - started < 1.0
    assert "the cylinder-measure table would hold the paths of degree <= " in \
        capsys.readouterr().err


def test_measure_table_limit_admits_k3_to_depth_15_and_the_default(tmp_path):
    from qisograph.graphs import parse_graph
    k3 = parse_graph((GRAPHS / "k3.g").read_text())
    _check_measure_table(k3, 15)
    with pytest.raises(UsageError, match=r"degree <= 16 = 6,291,459 path vertices"):
        _check_measure_table(k3, 16)
    for text in ((GRAPHS / "k3.g").read_text(), PLASTIC):
        graph = tmp_path / "g.g"
        graph.write_text(text)
        out = tmp_path / "spectral.json"
        assert main(["spectral", "--graph", str(graph), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["checks"][1]["inputs"] == {"depth": 3}


@pytest.mark.parametrize("argv, message", [
    # k3's multiplicity 3 * 2^14999 has 4,516 digits, which json cannot write
    (["spectral", "--graph", _graph("k3.g"), "--q-max", "15000"],
     "the spectrum would hold a multiplicity of up to rho^15000 / min x = 4,516 digits, "
     "above the limit of 4,300"),
    (["spectral", "--graph", _graph("three_cycle.g"), "--q-max", "1000000"],
     "the spectrum and heat-trace tables would hold 4,000,004 rows of 3 fields = "
     "12,000,012 entries, above the limit of 4,194,304"),
    (["verify", "--graph", _graph("three_cycle.g"), "--level", "2000"],
     "the Dirac check would hold the level tables and well-definedness searches up to "
     "level 2000 = 192,180,042,009 letters, above the limit of 16,777,216"),
    (["verify", "--graph", _graph("three_cycle.g"), "--level", "89",
      "--convention", "range-prepend"],
     "level 89 = 17,277,579 letters, above the limit of 16,777,216; the range-prepend "
     "control is admitted only where the default run is"),
])
def test_unbounded_spectrum_and_cycle_level_exit_2_up_front(argv, message, tmp_path, capsys):
    out = tmp_path / "r.json"
    started = time.monotonic()
    assert main([*argv, "--out", str(out)]) == 2
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_new_bounds_admit_up_to_their_limits():
    from qisograph.graphs import parse_graph
    from qisograph.hilbert import path_counts
    from qisograph.perron import perron
    k3, cycle = (parse_graph((GRAPHS / name).read_text()) for name in ("k3.g", "three_cycle.g"))
    _check_level_searches(path_counts(cycle, 88))
    with pytest.raises(UsageError, match="up to level 89 = "):
        _check_level_searches(path_counts(cycle, 89))
    for g, q_max, limit in ((k3, 14282, "digits"), (cycle, 349524, "entries")):
        _check_spectrum(perron(g), RunConfig("g", q_max=q_max))
        with pytest.raises(UsageError, match=limit):
            _check_spectrum(perron(g), RunConfig("g", q_max=q_max + 1))

