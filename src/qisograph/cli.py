"""Command-line front end: validation, spectral data, the identity
suite, the loop-graph contrast, and ad-hoc expression reduction.

Every command writes one JSON report (schema 1) and prints a short
human summary; exit code 0 means every mandatory check passed, 1 means
some check failed, 2 means the invocation or an input file was bad.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path as FsPath

from . import __version__
from .corep import (
    VERTEX_PAIR, VerificationContext, check_welldefined, level_pairs, require_exact,
    run_identity_suite,
)
from .cuntz import (
    FREE_UNITARY, MAGIC, cuntz_setup, derive_contradiction, non_isometry_verdict, sn_plus_context,
)
from .exprlang import ExpressionError, parse_expression
from .graphs import (
    CONVENTIONS, PROFILES, SOURCE_APPEND, DirectedGraph, GraphFormatError, enumerate_paths,
    graph_automorphisms, hypothesis_witnesses, parse_graph,
)
from .hilbert import (
    alpha_sequence, cuntz_krieger_check, multiplicities, path_counts, theta_partial_sums,
    theta_tail_bound,
)
from .perron import (
    PERRON_TOL, PerronError, convention_residuals, cylinder_measure, perron, select_convention,
)
from .providers import classical_rep
from .relations import free_unitary_relations, magic_relations, qaut_relations
from .report import CheckResult, SuiteReport, text_digest
from .rewrite import ReductionTrace, normal_form, normal_form_verdict
from .verdict import PROVED_ZERO, UNKNOWN

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: the most entries a run's dense matrices may hold.  The Dirac check
#: holds n_cap + 2 exact eigenprojections of paths(n_cap)^2 entries each
#: and reads paths(n_cap)^2 summand bitmasks, one bit per summand, each
#: bit counted as an entry, so K5 verify counts (120 + 5) x 320^2;
#: spectral's Cuntz-Krieger check holds a paths(n_cap) x paths(n_cap - 1) map
DIRAC_STACK_MAX = 2 ** 24

#: the most path vertices (d + 1 per degree-d cylinder) in the measure table: k3 depth 16 is 264 MB
MEASURE_TABLE_MAX = 2 ** 22


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    graph_path: str
    n_cap: int = 3
    k_max: int = 2
    epsilon: float = 0.25
    t_values: tuple[float, ...] = (0.5, 1.0, 2.0)
    convention: str = "auto"
    flavor: str = "both"
    out_path: str | None = None
    theta_csv: str | None = None
    measure_depth: int = 3
    profile: str = "aut-plus"
    q_max: int = 20

    def validate(self):
        if self.n_cap < 2:
            raise UsageError("truncation level must be at least 2")
        if self.k_max < 1:
            raise UsageError("max corepresentation level --k must be at least 1")
        if self.measure_depth < 0:
            raise UsageError("--measure-depth must be at least 0")
        if self.q_max < 0:
            raise UsageError("--q-max must be at least 0")
        if not 0 < self.epsilon < 0.5:
            raise UsageError("epsilon must lie in (0, 1/2)")
        if not all(0 < t < math.inf for t in self.t_values):
            raise UsageError("t values must be positive and finite")


def _load_graph(config: RunConfig) -> tuple[DirectedGraph, str]:
    path = FsPath(config.graph_path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read graph file {path}: {exc}") from None
    try:
        g = parse_graph(text)
    except (GraphFormatError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None
    return g, text_digest(text)


def _check_size(check: str, shape: str, size: int, limit: int, unit: str, note: str = ""):
    """Reject a run whose *check* would hold more than *limit* *unit*,
    before any check runs; *note* ends the message."""
    if size > limit:
        raise UsageError(f"the {check} would hold {shape} = {size:,} {unit}, "
                         f"above the limit of {limit:,}{note}")


def _check_dirac_stack(summands: int, paths: int, n_cap: int, at_least: bool = False,
                       note: str = ""):
    """The Dirac check's n_cap + 2 eigenprojections and the summand
    bitmasks of the level-n_cap entries, paths^2 masks of one bit per
    summand, from which it reads each summand's permutation.  With
    *at_least*, *summands* is a lower bound on the provider's dimension."""
    _check_size("Dirac check", f"{'at least ' if at_least else ''}({summands} summands + "
                f"{n_cap + 2} projections) x {paths}^2 paths",
                (summands + n_cap + 2) * paths ** 2, DIRAC_STACK_MAX, "entries", note)


def _check_measure_table(g: DirectedGraph, depth: int):
    """Sum the measure table's path counts up to doubling degrees, so that
    a huge *depth* is refused once a prefix of the table is too large."""
    reach = 0
    while True:
        reach = min(2 * reach + 1, depth)
        size = sum((d + 1) * count for d, count in enumerate(path_counts(g, reach)))
        if size > MEASURE_TABLE_MAX or reach == depth:
            break
    _check_size("cylinder-measure table", f"the paths of degree <= {reach}", size,
                MEASURE_TABLE_MAX, "path vertices")


def _check_writable(path: str):
    """Reject an output path before any work runs, creating nothing:
    it must not be a directory, and its parent must be a writable
    directory."""
    target = FsPath(path)
    if target.is_dir():
        problem = errno.EISDIR
    elif not target.parent.is_dir():
        problem = errno.ENOENT
    elif not os.access(target if target.exists() else target.parent, os.W_OK):
        problem = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path}: {os.strerror(problem)}")


def _write(path: str, text: str):
    try:
        FsPath(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_validate(config: RunConfig) -> SuiteReport:
    g, digest = _load_graph(config)
    started = time.monotonic()
    required = PROFILES[config.profile]
    checks = []
    for name, witness in hypothesis_witnesses(g).items():
        checks.append(CheckResult(
            f"hypothesis:{name}",
            {"profile": config.profile, "required": name in required},
            witness is None or name not in required,
            "pass" if witness is None else "fail",
            {}, 0, "", (time.monotonic() - started) * 1000.0,
            detail={"witness": witness, "holds": witness is None}))
    return SuiteReport("validate", __version__, g.name, digest, None,
                       {"profile": config.profile}, checks)


def cmd_spectral(config: RunConfig) -> SuiteReport:
    g, digest = _load_graph(config)
    started = time.monotonic()
    try:
        pf = perron(g)
        convention, conv_residuals = select_convention(pf, g)
    except PerronError as exc:
        raise UsageError(str(exc)) from None
    if pf.exact:
        below, top = path_counts(g, config.n_cap)[-2:]
        _check_size("Cuntz-Krieger check", f"{top} x {below} paths", top * below,
                    DIRAC_STACK_MAX, "entries")
    _check_measure_table(g, config.measure_depth)
    checks = []
    checks.append(CheckResult(
        "perron", {}, True, "pass",
        {"eigen_residual": 0.0 if pf.exact else PERRON_TOL},
        0, "", (time.monotonic() - started) * 1000.0,
        detail={"rho": str(pf.rho), "x": {v: str(c) for v, c in pf.x.items()},
                "exact": pf.exact}))

    t0 = time.monotonic()
    measures = {}
    mass_ok = True
    for d in range(config.measure_depth + 1):
        total = 0
        for lam in enumerate_paths(g, d):
            m = cylinder_measure(pf, lam)
            measures[lam.label] = str(m)
            total += m
        mass_ok = mass_ok and (total == 1 if pf.exact else abs(total - 1) < 1e-9)
    checks.append(CheckResult(
        "cylinder-measures", {"depth": config.measure_depth}, mass_ok,
        "pass" if mass_ok else "fail", {"convention": conv_residuals},
        0, "", (time.monotonic() - t0) * 1000.0,
        detail={"measures": measures, "exact": pf.exact}))

    if pf.exact:
        t0 = time.monotonic()
        ck = cuntz_krieger_check(g, pf, config.n_cap)
        checks.append(CheckResult(
            "cuntz-krieger", {"n_cap": config.n_cap}, ck.exact,
            "pass" if ck.exact else "fail",
            {"annihilation": ck.residual_annihilation,
             "completeness": ck.residual_completeness},
            0, "", (time.monotonic() - t0) * 1000.0))

    t0 = time.monotonic()
    alpha = alpha_sequence(config.q_max, config.epsilon)
    mults = multiplicities(g, config.q_max)
    spectrum = [{"q": q, "alpha_q": alpha[q], "multiplicity": mults[q]}
                for q in range(config.q_max + 1)]
    theta_rows = []
    theta_ok = True
    tail_bound = 0.0
    for t in config.t_values:
        values = theta_partial_sums(mults, t, config.epsilon, config.q_max)
        if not math.isfinite(values[-1]):
            raise UsageError(f"the heat-trace partial sum at t={t} exceeds float range")
        monotone = all(b >= a for a, b in zip(values, values[1:]))
        # the trace lies in [values[-1], values[-1] + tail]
        tail = theta_tail_bound(pf.rho, min(pf.x.values()), t, config.epsilon, config.q_max)
        tail_bound = max(tail_bound, tail)
        theta_ok = theta_ok and monotone and math.isfinite(tail)
        for q, v in enumerate(values):
            theta_rows.append({"t": t, "Q": q, "value": v})
    checks.append(CheckResult(
        "theta-summability",
        {"epsilon": config.epsilon, "t": list(config.t_values), "Q": config.q_max},
        theta_ok, "pass" if theta_ok else "fail", {"tail_bound": tail_bound},
        0, "", (time.monotonic() - t0) * 1000.0,
        detail={"spectrum": spectrum}))

    notes = []
    if not pf.exact:
        notes.append({"inexact_perron": "irrational spectral radius; measures are "
                                        "floating point and the exact matrix checks "
                                        "are unavailable"})
    report = SuiteReport("spectral", __version__, g.name, digest, convention,
                         {"n_cap": config.n_cap, "epsilon": config.epsilon,
                          "t": list(config.t_values), "q_max": config.q_max},
                         checks, notes)
    if config.theta_csv:
        lines = ["t,Q,value"] + [f"{r['t']},{r['Q']},{r['value']!r}" for r in theta_rows]
        _write(config.theta_csv, "\n".join(lines) + "\n")
    return report


def cmd_verify(config: RunConfig) -> SuiteReport:
    g, digest = _load_graph(config)
    paths = path_counts(g, config.n_cap)[-1]
    # a forced convention runs only the well-definedness control, but is
    # refused wherever the default run, with its Dirac check, would be
    note = ("" if config.convention in ("auto", SOURCE_APPEND) else
            f"; the {config.convention} control is admitted only where the default run is")
    # the identity automorphism is a summand of every Aut(G) provider,
    # so this refuses a run too large for any Aut(G) before building it
    _check_dirac_stack(1, paths, config.n_cap, at_least=True, note=note)
    try:
        pf = perron(g)
        require_exact(pf)
        if paths:
            # Aut(G) is the provider's summands: enumerate no more of it
            # than the Dirac check admits
            allowance = DIRAC_STACK_MAX // paths ** 2 - (config.n_cap + 2)
            _check_dirac_stack(len(graph_automorphisms(g, allowance)), paths, config.n_cap,
                               at_least=True, note=note)
        if config.convention == "auto":
            convention, conv_residuals = select_convention(pf, g)
        else:
            convention, conv_residuals = config.convention, convention_residuals(pf, g)
        rels = qaut_relations(g, pf)
        ctx = VerificationContext(g, pf, rels, VERTEX_PAIR, [classical_rep(g, rels)],
                                  config.n_cap)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if convention == SOURCE_APPEND:
        report_checks = run_identity_suite(ctx, k_max=config.k_max)
    else:
        # forced rejected convention: run the negative control only
        report_checks = [check_welldefined(ctx, l, k, convention=convention)
                         for l, k in level_pairs(config.k_max)]
    notes = [{"relation_events": list(ctx.rels.events)},
             {"convention_residuals": {k: str(v) for k, v in conv_residuals.items()}}]
    return SuiteReport("verify", __version__, g.name, digest, convention,
                       {"k_max": config.k_max, "n_cap": config.n_cap},
                       report_checks, notes)


def cmd_cuntz(config: RunConfig) -> SuiteReport:
    g, digest = _load_graph(config)
    n = len(g.edges)
    checks = []
    notes = []
    flavors = [config.flavor] if config.flavor in (FREE_UNITARY, MAGIC) else [FREE_UNITARY, MAGIC]
    if MAGIC in flavors and len(g.vertices) == 1:
        # the S_n provider over the n^n_cap loop words of the top level
        _check_dirac_stack(math.factorial(n), n ** config.n_cap, config.n_cap)
    for flavor in flavors:
        started = time.monotonic()
        try:
            setup = cuntz_setup(g, flavor)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        derivation = derive_contradiction(setup)
        if flavor == FREE_UNITARY:
            verdict = non_isometry_verdict(setup, derivation)
            ok = verdict.not_isometric and derivation.contradiction_pending
            checks.append(CheckResult(
                "non-isometry", {"n": n, "flavor": flavor}, ok,
                verdict.verdict, {}, 0, "",
                (time.monotonic() - started) * 1000.0,
                detail=verdict.to_dict()))
        else:
            ok = not derivation.contradiction_pending
            checks.append(CheckResult(
                "derivation-collapses", {"n": n, "flavor": flavor}, ok,
                PROVED_ZERO if ok else UNKNOWN, {}, 0, "",
                (time.monotonic() - started) * 1000.0,
                detail=derivation.to_dict()))
            checks.extend(run_identity_suite(sn_plus_context(setup, config.n_cap),
                                             k_max=config.k_max))
        notes.append({"flavor": flavor, "steps": [s.label for s in derivation.steps]})
    return SuiteReport("cuntz", __version__, g.name, digest, SOURCE_APPEND,
                       {"n": n, "flavor": config.flavor,
                        "k_max": config.k_max, "n_cap": config.n_cap},
                       checks, notes)


def cmd_reduce(config: RunConfig, expression: str) -> SuiteReport:
    g, digest = _load_graph(config)
    loop_graph = len(g.vertices) == 1 and any(e.range == e.source for e in g.edges)
    started = time.monotonic()
    if config.flavor in (FREE_UNITARY, MAGIC) and not loop_graph:
        raise UsageError(f"the {config.flavor} flavor needs a one-vertex graph with loops")
    if config.flavor == FREE_UNITARY:
        rels = free_unitary_relations(tuple(e.id for e in g.sorted_edges))
    elif loop_graph:
        rels = magic_relations(tuple(e.id for e in g.sorted_edges))
    else:
        try:
            pf = perron(g)
            rels = qaut_relations(g, pf)
        except (PerronError, ValueError) as exc:
            raise UsageError(str(exc)) from None
    try:
        poly = parse_expression(expression, rels)
    except ExpressionError as exc:
        raise UsageError(f"bad expression: {exc}") from None
    trace = ReductionTrace()
    nf = normal_form(poly, rels, trace)
    verdict = normal_form_verdict(nf).kind
    checks = [CheckResult(
        "reduce", {"expression": expression}, True, verdict,
        {}, trace.count, trace.digest(),
        (time.monotonic() - started) * 1000.0,
        detail={"input": rels.alphabet.text(poly), "normal_form": rels.alphabet.text(nf),
                "relations": rels.name})]
    return SuiteReport("reduce", __version__, g.name, digest, None,
                       {"expression": expression}, checks)


def _print_summary(report: SuiteReport):
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        inputs = " ".join(f"{k}={v}" for k, v in c.inputs.items())
        print(f"[{status}] {c.name} {inputs} ({c.verdict})")
    print(f"overall: {'pass' if report.passed else 'fail'}")


#: flag -> add_argument keywords; build_parser adds RunConfig's defaults to the help
_FLAGS = {
    "graph": dict(required=True, dest="graph_path", help="graph file path"),
    "level": dict(type=int, dest="n_cap", help="truncation level N"),
    "k": dict(type=int, dest="k_max", help="max corepresentation level"),
    "epsilon": dict(type=float, help="Dirac exponent epsilon in (0, 1/2)"),
    "t": dict(type=float, action="append", dest="t_values",
              help="heat-trace t value (repeatable)"),
    "convention": dict(choices=("auto",) + CONVENTIONS, help="refinement convention"),
    "flavor": dict(choices=("both", FREE_UNITARY, MAGIC), help="loop-graph relation flavor"),
    "out": dict(dest="out_path", help="report JSON path"),
    "theta-csv": dict(help="heat-trace partial sums CSV path"),
    "measure-depth": dict(type=int, help="cylinder-measure table depth"),
    "q-max": dict(type=int, help="heat-trace partial sums up to Q"),
    "profile": dict(choices=tuple(PROFILES), help="graph hypothesis profile"),
}

#: command -> (help, the flags it reads)
COMMANDS = {
    "validate": ("check graph hypotheses", ("graph", "profile", "out")),
    "spectral": ("Perron data, measures, Dirac spectrum, heat traces",
                 ("graph", "level", "epsilon", "t", "out", "theta-csv", "measure-depth", "q-max")),
    "verify": ("the full identity suite", ("graph", "level", "k", "convention", "out")),
    "cuntz": ("loop-graph derivation and contrast", ("graph", "level", "k", "flavor", "out")),
    "reduce": ("reduce an expression to normal form", ("graph", "flavor", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qisograph",
        description="finite-truncation verification of quantum isometric actions "
                    "on graph algebra spectral triples", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {f.name: " ".join(map(str, f.default)) if isinstance(f.default, tuple) else f.default
                for f in fields(RunConfig) if f.default not in (None, MISSING)}
    for command, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag in flags:
            action = p.add_argument(f"--{flag}", **_FLAGS[flag])
            if action.dest in defaults:
                action.help += f" (default {defaults[action.dest]})"
    sub.choices["reduce"].add_argument("expression", help="expression in the mini-language")
    return parser


def _config_from_args(args) -> RunConfig:
    """The flags given on the command line over RunConfig's defaults."""
    given = {k: v for k, v in vars(args).items()
             if k in RunConfig.__dataclass_fields__ and v is not None}
    if "t_values" in given:
        given["t_values"] = tuple(given["t_values"])
    return RunConfig(**given)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    config = _config_from_args(args)
    try:
        config.validate()
        for path in (config.out_path, config.theta_csv):
            if path:
                _check_writable(path)
        if args.command == "validate":
            report = cmd_validate(config)
        elif args.command == "spectral":
            report = cmd_spectral(config)
        elif args.command == "verify":
            report = cmd_verify(config)
        elif args.command == "cuntz":
            report = cmd_cuntz(config)
        else:
            report = cmd_reduce(config, args.expression)
        if config.out_path:
            _write(config.out_path, report.to_json())
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _print_summary(report)
    return EXIT_PASS if report.passed else EXIT_FAIL


def entry():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
