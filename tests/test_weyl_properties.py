"""Weyl arithmetic on random generalized Cartan matrices, by Hypothesis.

Each datum is realized in 2n coordinates: the simple roots are the columns
of A stacked on the identity, and alpha_i^vee reads the i-th coordinate.  The
identity block keeps the roots independent when A is singular.  The models
below never look at the pairing vector q that identifies an element.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kmcrystals.rootdata import validate_root_datum  # noqa: E402

# off-diagonal pairs (a_ij, a_ji): zero together, or both negative
_BOND = st.one_of(st.just((0, 0)),
                  st.tuples(st.integers(-4, -1), st.integers(-4, -1)))


def _datum(n, bonds):
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), (a, b) in bonds.items():
        cartan[i][j], cartan[j][i] = a, b
    roots = [tuple(cartan[k][j] for k in range(n)) + tuple(int(k == j) for k in range(n))
             for j in range(n)]
    pairing = [tuple(int(k == i) for k in range(2 * n)) for i in range(n)]
    return validate_root_datum(f"random rank {n}", n, 2 * n, cartan, roots, pairing)


# rank 2, or rank 3 on a tree (a path with a random middle node), so every
# matrix is symmetrizable
_DATA = st.one_of(
    st.builds(lambda b: _datum(2, {(0, 1): b}), _BOND),
    st.builds(lambda mid, b1, b2: _datum(3, {tuple(sorted((mid, (mid + 1) % 3))): b1,
                                             tuple(sorted((mid, (mid + 2) % 3))): b2}),
              st.integers(0, 2), _BOND, _BOND),
)


@st.composite
def _cases(draw):
    datum = draw(_DATA)
    letters = st.integers(1, datum.n)
    a = tuple(draw(st.lists(letters, max_size=7)))
    b = tuple(draw(st.lists(letters, max_size=7)))
    # regular: a pairing of 0 with some coroot would let s_i fix mu
    mu = tuple(draw(st.integers(1, 3)) for _ in range(datum.n)) + tuple(
        draw(st.integers(-2, 2)) for _ in range(datum.n))
    return datum, a, b, mu


def _fold(datum, word, mu):
    """s_{i_1} ... s_{i_k} mu, one simple reflection at a time."""
    for i in reversed(word):
        mu = datum.reflect_weight(i, mu)
    return mu


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_weyl_arithmetic_on_random_gcms(case):
    datum, a, b, mu = case
    wa, wb = datum.weyl(a), datum.weyl(b)
    # the reduced word acts as the input word does
    assert wa.act_weight(mu) == _fold(datum, a, mu)
    assert wa.length <= len(a) and wa.length % 2 == len(a) % 2
    # mu is regular dominant, so its stabiliser is trivial and its images
    # tell elements apart
    assert (wa == wb) == (_fold(datum, a, mu) == _fold(datum, b, mu))
    assert datum.weyl(a + b) == wa * wb
    assert (wa * wa.inverse()).is_identity
    assert wa.inverse().act_weight(wa.act_weight(mu)) == mu
