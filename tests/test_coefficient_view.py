"""Callers of MPoly.coefficients against the grouping and fold code it replaced.

The reference functions below are the per-caller term-grouping loops and
gcd folds that the library used before it had one coefficient view; they
are kept here only as oracles.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from schinzel.factorlab import (
    exact_div,
    gcd_q,
    is_irreducible_q,
    is_primitive_wrt,
)
from schinzel.fixdiv import BudgetExceeded
from schinzel.hilbert import _irred_over_param_field
from schinzel.polyring import MPoly, PolyError, VarSplit
from schinzel.schinzelcore import bezout_constant
from test_factorlab import _dense_wrt

REG = ("T", "U", "Y")
SPLITS = (VarSplit(("T", "U"), ("Y",)), VarSplit(("T",), ("U", "Y")))


def _reference_coefficients(P, split):
    """Variable-monomial coefficients in the order their first term appears."""
    vidx = [P.registry.index(n) for n in split.variables]
    groups = {}
    for expo, coeff in P.terms.items():
        key = tuple(expo[i] for i in vidx)
        rest = tuple(0 if i in vidx else e for i, e in enumerate(expo))
        bucket = groups.setdefault(key, {})
        bucket[rest] = bucket.get(rest, 0) + coeff
    coeffs = [MPoly(P.registry, t) for t in groups.values()]
    return [c for c in coeffs if not c.is_zero()]


def _reference_fold(coeffs):
    g = None
    for c in coeffs:
        g = c if g is None else gcd_q(g, c)
        if g.is_constant():
            break
    return g


def _reference_is_primitive_wrt(P, split):
    return _reference_fold(_reference_coefficients(P, split)).is_constant()


def _reference_irred_over_param_field(P, split):
    if P.total_degree(split.variables) < 1:
        return False, "degree 0 in the variables"
    g = _reference_fold(_reference_coefficients(P, split))
    core = P if g.is_constant() else exact_div(P, g)
    if core is None or core.is_constant():
        return False, "degenerate after removing the parameter content"
    cert = is_irreducible_q(core)
    return cert.irreducible, cert


def _reference_t1_coefficients(P, split):
    """Coefficients of P in Z[T1], viewing P in the remaining names."""
    t1 = split.params[0]
    i = P.registry.index(t1)
    groups = {}
    for expo, coeff in P.terms.items():
        key = tuple(0 if j == i else e for j, e in enumerate(expo))
        only_t1 = tuple(expo[i] if j == i else 0 for j in range(len(expo)))
        bucket = groups.setdefault(key, {})
        bucket[only_t1] = bucket.get(only_t1, 0) + coeff
    return [MPoly(P.registry, terms) for _, terms in sorted(groups.items())]


def _reference_dense_wrt(P, name):
    i = P.registry.index(name)
    out = [MPoly.zero(P.registry) for _ in range(P.degree_in(name) + 1)]
    for expo, coeff in P.terms.items():
        rest = tuple(0 if j == i else e for j, e in enumerate(expo))
        out[expo[i]] = out[expo[i]] + MPoly(P.registry, {rest: coeff})
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BudgetExceeded, PolyError) as exc:
        return type(exc).__name__, str(exc)


def _poly(pairs):
    return MPoly(REG, dict(pairs))


def _terms(max_exp, max_size):
    expos = st.tuples(*[st.integers(0, max_exp) for _ in REG])
    return st.lists(st.tuples(expos, st.integers(-5, 5)), min_size=1, max_size=max_size)


def _products(max_exp):
    """A times a factor free of Y, so that contents are often nontrivial."""
    free_of_y = st.tuples(st.integers(0, 1), st.integers(0, 1), st.just(0))
    return st.builds(
        lambda a, b: _poly(a) * _poly(b),
        _terms(max_exp, 4),
        st.lists(st.tuples(free_of_y, st.integers(-3, 3)), min_size=1, max_size=3),
    ).filter(lambda P: not P.is_zero())


polys = _products(2)


@given(polys, st.sampled_from(SPLITS))
@settings(max_examples=150, deadline=None)
def test_primitivity_matches_reference(P, split):
    assert is_primitive_wrt(P, split) == _reference_is_primitive_wrt(P, split)


@given(_products(1), st.sampled_from(SPLITS))
@settings(max_examples=60, deadline=None)
def test_irred_over_param_field_matches_reference(P, split):
    got = _outcome(_irred_over_param_field, P, split)
    assert got == _outcome(_reference_irred_over_param_field, P, split)


@given(polys, st.sampled_from(SPLITS))
@settings(max_examples=150, deadline=None)
def test_bezout_input_matches_reference(P, split):
    others = [n for n in REG if n != split.params[0]]
    got = list(P.coefficients(others).values())
    want = _reference_t1_coefficients(P, split)
    # same coefficients, same order, same term order inside each
    assert [list(c.terms.items()) for c in got] == [list(c.terms.items()) for c in want]
    assert _outcome(bezout_constant, got) == _outcome(bezout_constant, want)


@given(polys, st.sampled_from(REG))
@settings(max_examples=100, deadline=None)
def test_dense_wrt_matches_reference(P, name):
    assert _dense_wrt(P, name) == _reference_dense_wrt(P, name)
