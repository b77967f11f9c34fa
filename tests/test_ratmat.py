"""The exact kernels that visit only nonzero entries, each against the
dense computation it replaced: ``rat_matmul`` against the triple loop
of ``oracles.dense_matmul``, and ``LevelMap.residual`` against the max
entry of the full difference."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qisograph.graphs import edge_path
from qisograph.hilbert import LevelMap, represent
from qisograph.ratmat import rat_matmul, rat_max_abs
from oracles import dense_matmul, rat_sub

#: int and Fraction spellings of 0, 1, 2, -1, and 1/3
ENTRIES = st.sampled_from([0, 1, 2, -1, Fraction(0), Fraction(1), Fraction(2), Fraction(-1),
                           Fraction(1, 3)])
SIZES = st.integers(1, 6)


def matrices(rows: int, cols: int):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def factor_pairs(draw):
    n, k, m = draw(SIZES), draw(SIZES), draw(SIZES)
    return draw(matrices(n, k)), draw(matrices(k, m))


@st.composite
def nearby_pairs(draw):
    """Two matrices of one shape, the second the first with about a
    quarter of its entries redrawn, so that most rows agree."""
    a = draw(matrices(draw(SIZES), draw(SIZES)))
    b = [[draw(ENTRIES) if draw(st.integers(0, 3)) == 0 else x for x in row] for row in a]
    return a, b


def assert_matches_oracle(a, b):
    got, want = rat_matmul(a, b), dense_matmul(a, b)
    assert got == want
    assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]


@settings(max_examples=300, deadline=None)
@given(factor_pairs())
def test_matmul_matches_dense_oracle(pair):
    assert_matches_oracle(*pair)


def test_matmul_zero_rows_and_columns():
    a = [[0, 0, 0], [1, 0, Fraction(1, 3)], [Fraction(0), 0, 0]]
    b = [[0, 2, 0], [0, 0, 0], [0, Fraction(-1), 0]]
    assert_matches_oracle(a, b)
    assert rat_matmul(a, b) == [[0, 0, 0], [0, Fraction(5, 3), 0], [0, 0, 0]]
    assert all(type(x) is int for row in rat_matmul(a, b) for x in row[::2])
    assert_matches_oracle([[0] * 4] * 3, [[1] * 2] * 4)


def test_matmul_outer_product():
    # the constants projection u (Gu)^T of the Dirac check
    ones = [[Fraction(1)] for _ in range(5)]
    gram = [[Fraction(1, 3), 0, Fraction(2), 1, Fraction(0)]]
    assert_matches_oracle(ones, gram)
    assert rat_matmul(ones, gram) == [gram[0]] * 5


def test_matmul_of_path_maps(graphs, perron_data):
    g, pf = graphs["k3"], perron_data["k3"]
    for eid in ("e12", "e31"):
        e = edge_path(g, eid)
        s = represent(g, pf, [("s", e)], 2, 4).mat                   # level 2 -> 3
        range_proj = represent(g, pf, [("s", e), ("s*", e)], 3, 4).mat
        source_proj = represent(g, pf, [("p", e.source)], 2, 4).mat
        assert all(x in (0, 1) for m in (s, range_proj, source_proj) for row in m for x in row)
        assert_matches_oracle(range_proj, s)
        assert_matches_oracle(s, source_proj)


def assert_residual_is_dense(a, b):
    got = LevelMap(2, 2, 0, a).residual(LevelMap(2, 2, 0, b))
    assert type(got) is Fraction
    assert got == rat_max_abs(rat_sub(a, b))


@settings(max_examples=300, deadline=None)
@given(nearby_pairs())
def test_residual_matches_dense_difference(pair):
    assert_residual_is_dense(*pair)


def test_residual_cases():
    a = [[0, 1, 0], [1, 0, Fraction(1, 3)], [0, 0, 1]]
    assert_residual_is_dense(a, [row[:] for row in a])
    last = [row[:] for row in a]
    last[-1][-1] = -1
    assert_residual_is_dense(a, last)
    assert LevelMap(1, 1, 0, a).residual(LevelMap(1, 1, 0, last)) == 2
    assert_residual_is_dense([[1, 0]], [[Fraction(1), 0]])
    # unequal powers of rho: the maps cannot agree unless both vanish
    odd, even = LevelMap(1, 1, 1, [[1, 0]]), LevelMap(1, 1, 0, [[Fraction(1), 0]])
    assert odd.residual(even) == 2
