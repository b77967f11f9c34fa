"""Spectral radius, normalized Perron-Frobenius vector, cylinder-set
measure, and the values of the distinguished state on vertex
projections.

The measure of a cylinder set is M([lambda]) = rho^{-d} x_{s(lambda)}.
The Perron pair (rho, x) has one representation whose number type
carries its exactness: Fractions, verified by the exact eigen equation,
whenever the spectral radius is rational (hence an integer), and the
power-iteration floats otherwise.  Everything computed from the pair,
measures and residuals included, has the same type, and downstream
exactness claims are disabled rather than silently rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    DirectedGraph, Path, SOURCE_APPEND, RANGE_PREPEND,
    adjacency_matrix, enumerate_paths, extends, is_strongly_connected, refine,
)
from .ratmat import rat_matrix, rat_nullspace


#: power-iteration convergence threshold and iteration cap
PERRON_TOL = 1e-12
PERRON_MAX_ITER = 10**6
#: convention_residuals tests every cylinder of degree at most
#: ADDITIVITY_MAX_DEGREE at every refinement depth up to ADDITIVITY_MAX_DEPTH
ADDITIVITY_MAX_DEGREE = 2
ADDITIVITY_MAX_DEPTH = 2


class PerronError(ValueError):
    pass


@dataclass(frozen=True)
class PerronData:
    """The spectral radius *rho* and the mass-one Perron vector *x*, a
    map from each vertex, in vertex order, to its weight: Fractions when
    rho is an integer, floats otherwise."""

    rho: Fraction | float
    x: dict[str, Fraction | float]

    @property
    def exact(self) -> bool:
        return isinstance(self.rho, Fraction)


def _try_exact(a, rho_float: float) -> tuple[Fraction, list[Fraction]] | None:
    """Exact radius and Perron vector when the radius is rational.

    The radius is a root of the monic integer characteristic polynomial,
    so by the rational-root theorem it is rational only if it is an
    integer: the nearest integer is the only candidate, and the exact
    eigen equation below accepts or rejects it.
    """
    rho = Fraction(round(rho_float))
    n = len(a)
    m = rat_matrix(a)
    for i in range(n):
        m[i][i] -= rho
    basis = rat_nullspace(m)
    if len(basis) != 1:
        return None
    vec = basis[0]
    if all(c <= 0 for c in vec):
        vec = [-c for c in vec]
    if any(c <= 0 for c in vec):
        return None
    total = sum(vec)
    vec = [c / total for c in vec]
    # re-check the eigen equation exactly
    for row, c in zip(a, vec):
        if sum(aij * xj for aij, xj in zip(row, vec)) != rho * c:
            return None
    return rho, vec


def perron(g: DirectedGraph) -> PerronData:
    """Spectral radius and total-mass-one Perron vector of the vertex matrix.

    Power iteration with 1-norm renormalization runs on A + I so that
    periodic strongly connected graphs (cycles) still converge; the
    shift changes the eigenvalue by exactly one and nothing else.
    """
    ok, witness = is_strongly_connected(g)
    if not ok:
        raise PerronError(f"graph {g.name} is not strongly connected: {witness}")
    a = adjacency_matrix(g)
    n = len(g.vertices)
    x = [1.0 / n] * n
    rho_shifted = None
    for _ in range(PERRON_MAX_ITER):
        y = [sum(a[i][j] * x[j] for j in range(n)) + x[i] for i in range(n)]
        norm = sum(y)
        y = [v / norm for v in y]
        if max(abs(u - v) for u, v in zip(x, y)) < PERRON_TOL:
            x = y
            rho_shifted = norm
            break
        x = y
    if rho_shifted is None:
        raise PerronError(f"power iteration did not converge within {PERRON_MAX_ITER} "
                          "iterations")
    rho = rho_shifted - 1.0
    rho, x = _try_exact(a, rho) or (rho, x)
    return PerronData(rho, dict(zip(g.vertices, x)))


def cylinder_measure(pf: PerronData, lam: Path):
    """M([lambda]) = rho^{-d(lambda)} x_{s(lambda)}; Fraction when exact."""
    return pf.rho ** (-lam.degree) * pf.x[lam.source]


def additivity_residual(pf: PerronData, g: DirectedGraph, lam: Path, n: int, side: str):
    """|M([lam]) - sum of M over the degree-(d+n) refinements on *side*|.

    Exactly zero (in rationals) for the measure-consistent side.
    """
    if n < 1:
        raise ValueError("refinement depth must be at least 1")
    total = cylinder_measure(pf, lam) - sum(
        cylinder_measure(pf, mu) for mu in refine(g, lam, n, side))
    return abs(total)


def cylinder_intersection_measure(pf: PerronData, lam: Path, eta: Path):
    """M([lam] ∩ [eta]) from the cylinder semantics (initial segments).

    This is the definitional inner product <chi_lam, chi_eta>; it does
    not depend on any refinement convention.
    """
    lo, hi = (lam, eta) if lam.degree <= eta.degree else (eta, lam)
    if extends(hi, lo):
        return cylinder_measure(pf, hi)
    return type(pf.rho)(0)


def convention_residuals(pf: PerronData, g: DirectedGraph) -> dict[str, object]:
    """Worst additivity residual per side over small cylinders."""
    return {side: max(additivity_residual(pf, g, lam, n, side)
                      for d in range(ADDITIVITY_MAX_DEGREE + 1)
                      for lam in enumerate_paths(g, d)
                      for n in range(1, ADDITIVITY_MAX_DEPTH + 1))
            for side in (SOURCE_APPEND, RANGE_PREPEND)}


def select_convention(pf: PerronData, g: DirectedGraph) -> tuple[str, dict[str, object]]:
    """source-append, with the additivity residuals of both sides.

    Source-append additivity is the Perron eigen-equation: the sum of
    x_{s(mu)} over the degree-n paths mu with r(mu) = v is
    (A^n x)_v = rho^n x_v.  It holds whenever rho > 0: exactly with
    exact Perron data, and within 1e-9 with float data, whose residuals
    are returned rather than hidden.  With rho = 0 no refinement side
    is additive, and a PerronError is raised.
    """
    residuals = convention_residuals(pf, g)
    if residuals[SOURCE_APPEND] > (0 if pf.exact else 1e-9):
        raise PerronError(f"no measure-consistent refinement convention on {g.name}")
    return SOURCE_APPEND, residuals
