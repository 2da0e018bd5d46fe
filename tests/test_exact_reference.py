"""The search vector against its exact values.

From the uniform vector, r steps of the search of the M targets 0..M-1 of
N = 2^n strings leave a_r on the targets and c_r on the other strings, with
a_r = A_r / (N^r sqrt(N)) and c_r = C_r / (N^r sqrt(N)) for integers A_r and
C_r (A_0 = C_0 = 1).  One step is s = 2 (-M A + (N - M) C), A <- s + N A,
C <- s - N C.  Taken in Python integers and divided once in 60-digit
decimals, the values are exact to the float they round to.
"""

import decimal
import math

import numpy as np
import pytest

from mvgrover import search

STEPS = (0, 1, 2, 3, 7, 40, 2000)


def exact_row(n: int, m: int, r: int) -> np.ndarray:
    """The search vector of the targets 0..m-1 after r steps, each entry the
    float nearest its exact value."""
    big_n = 2**n
    a, c = 1, 1
    for _ in range(r):
        s = 2 * (-m * a + (big_n - m) * c)
        a, c = s + big_n * a, s - big_n * c
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        scale = decimal.Decimal(big_n) ** r * decimal.Decimal(big_n).sqrt()
        a, c = (float(decimal.Decimal(x) / scale) for x in (a, c))
    return np.array([a] * m + [c] * (big_n - m))


def _bound(r: int) -> float:
    """Rounding of r float steps, which walks like sqrt(r) ulps."""
    return 2.0**-52 * (1.0 + math.sqrt(r))


def test_exact_row_is_a_unit_vector_and_the_textbook_search():
    # The integers keep |v| = 1 exactly: M A^2 + (N - M) C^2 = N^(2r+1).
    for n, m, r in [(2, 1, 1), (3, 2, 5), (4, 16, 3)]:
        v = exact_row(n, m, r)
        assert float(v @ v) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(exact_row(2, 1, 1), [1.0, 0.0, 0.0, 0.0])  # N = 4 finds its target in one step


@pytest.mark.parametrize("r", STEPS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recurrence_and_dense_reference_match_the_exact_values(n, r):
    # The run's check reads the two-value recurrence, per_cell_max_error
    # the dense reference: both within sqrt(r) ulps of the exact values,
    # for every M including M = N, where c has no string.
    for m in range(1, 2**n + 1):
        want = exact_row(n, m, r)
        recurrence = search._recurrence_row(n, m, r)
        dense = search._reference_rows(n, np.arange(m)[None], r)[0]
        assert recurrence.shape == dense.shape == want.shape
        assert np.max(np.abs(recurrence - want)) <= _bound(r)
        assert np.max(np.abs(dense - want)) <= _bound(r)
