import ast
import itertools
import pathlib
import time

import pytest

from schinzel import fixdiv, numutil
from schinzel.fixdiv import (
    BudgetExceeded,
    candidate_fixed_primes,
    fixed_prime_divisors,
    gamma_b_witness,
    is_fixed_prime,
    least_witness,
    removal_scalar,
    residue_scan,
)
from schinzel.numutil import primes_upto
from schinzel.polyring import MPoly, PolyError, VarSplit, parse_poly, reduce_mod
from schinzel.schinzelcore import bad_prime_set

REG = ("T", "Y")
SPLIT = VarSplit(("T",), ("Y",))


def P(expr):
    return parse_poly(expr, REG)


def test_introductory_example():
    # (T^2-T)Y + T^2-T-2 vanishes mod 2 at every integer T
    q = P("(T^2-T)*Y + T^2 - T - 2")
    report = fixed_prime_divisors(q, SPLIT)
    assert report.candidates == (2,)
    assert report.confirmed == (2,)
    assert report.has_fixed_divisor
    for t in range(-50, 51):
        assert q.substitute({"T": t}).content() % 2 == 0


def test_no_fixed_divisor():
    # deg_T = 1 and content 1: no candidate primes at all
    report = fixed_prime_divisors(P("T*Y + 2"), SPLIT)
    assert report.candidates == ()
    assert report.confirmed == ()
    assert not report.has_fixed_divisor
    # a quadratic with a refuted candidate records its witness
    report = fixed_prime_divisors(P("T^2*Y + T + 1"), SPLIT)
    assert report.confirmed == ()
    assert report.witnesses[2] == (0,)


def test_candidates_include_content_primes():
    q = P("7*T*Y + 7")
    cands = candidate_fixed_primes(q, SPLIT)
    assert 7 in cands
    report = fixed_prime_divisors(q, SPLIT)
    assert report.confirmed == (7,)


def test_is_fixed_prime_witness_is_lex_least():
    fixed, witness = is_fixed_prime(P("T*Y + 2"), SPLIT, 2)
    assert not fixed and witness == (1,)
    fixed, witness = is_fixed_prime(P("(T^2-T)*Y + T^2 - T - 2"), SPLIT, 2)
    assert fixed and witness is None


def test_bare_parameter_tuple_api():
    q = parse_poly("Y^2 + Y + 2", ("Y",))
    report = fixed_prime_divisors(q, ("Y",))
    assert report.confirmed == (2,)


def test_removal_scalar():
    assert removal_scalar(P("(T^2-T)*Y + T^2 - T - 2"), SPLIT) == 2
    assert removal_scalar(P("T*Y + 2"), SPLIT) == 1


def test_zero_poly_rejected():
    with pytest.raises(PolyError):
        fixed_prime_divisors(MPoly.zero(REG), SPLIT)


def _lex_least(q, names, p):
    """Brute force: the first residue tuple at which q is nonzero mod p."""
    for t in itertools.product(range(p), repeat=len(names)):
        if not reduce_mod(q.substitute(dict(zip(names, t))), p).is_zero():
            return t
    return None


def test_two_parameter_prime_is_decided():
    # decided exactly, against brute force over all 49 residue tuples
    names = ("A", "B")
    q = parse_poly("A*B + 1", names)
    assert is_fixed_prime(q, names, 7) == (False, _lex_least(q, names, 7)) == (False, (0, 0))
    # (A*B)^3 - A*B vanishes mod 2 and 3 everywhere, not mod 7
    q = parse_poly("A*B*(A*B - 1)*(A*B + 1)", names)
    for p in (2, 3, 5, 7):
        want = _lex_least(q, names, p)
        assert is_fixed_prime(q, names, p) == (want is None, want)
    assert _lex_least(q, names, 7) == (1, 2)


def test_large_prime_content_is_decided():
    # p = 1000003 is decided from the Fermat-reduced table, with no walk over t
    q = P("1000003*T*Y + 1000003")
    assert fixed_prime_divisors(q, SPLIT).confirmed == (1000003,)
    assert is_fixed_prime(q + P("T^1000003 - T"), SPLIT, 1000003) == (True, None)
    assert least_witness([q, q + P("T^1000004 - T^2")], ("T",), 1000003) is None
    assert least_witness([q, P("T^1000003 + 1")], ("T",), 1000003) == ((0,), 1)


def test_gamma_b_witness():
    assert gamma_b_witness(1) == 1
    assert gamma_b_witness(3) == 12  # (2^2-2)(2^3-2)
    assert gamma_b_witness(5) == 2 * 6 * 14 * 30  # prime powers 2,3,4,5
    for B in (2, 3, 5, 7, 11):
        a = gamma_b_witness(B)
        for p in (2, 3, 5, 7, 11):
            if p <= B:
                assert a % p == 0


def test_unproved_prime_content_is_a_budget_exit():
    # the content is a prime above the exact Miller-Rabin bound
    q = P("3317044064679887385962123*T*Y + 3317044064679887385962123")
    with pytest.raises(BudgetExceeded, match="exact-primality bound"):
        fixed_prime_divisors(q, SPLIT)
    with pytest.raises(BudgetExceeded, match="exact-primality bound"):
        bad_prime_set(P("T*Y + 2"), SPLIT, 3317044064679887385962123)


def test_unsplit_content_is_a_budget_exit(monkeypatch):
    # Pollard rho gives up on the content's cofactor, a product of two primes near 10^9
    monkeypatch.setattr(numutil, "RHO_STEPS", 64)
    c = 999999937 * 1000000007
    with pytest.raises(BudgetExceeded, match="Pollard rho found no factor"):
        fixed_prime_divisors(P(f"{c}*T*Y + {c}"), SPLIT)


def test_large_candidate_primes_cost_their_first_tuple_only():
    # 9,592 candidate primes up to 10^5; t = 0 refutes every odd one, so no
    # residue tuple list of length p may be built
    q = P("T^100000*Y + T*Y + 2")
    start = time.monotonic()
    report = fixed_prime_divisors(q, SPLIT)
    elapsed = time.monotonic() - start
    assert report.candidates == tuple(primes_upto(100000))
    assert report.confirmed == (2,)
    assert report.witnesses == {p: (0,) for p in report.candidates[1:]}
    assert elapsed < 2.0, elapsed


def test_report_proves_no_candidate_prime_again(monkeypatch):
    # the candidates come from primes_upto and proved_prime_factors, so the report's
    # 9,592 descents run without require_prime; the public entry points keep it
    calls = []
    require_prime = fixdiv.require_prime
    monkeypatch.setattr(fixdiv, "require_prime", lambda p: calls.append(p) or require_prime(p))
    report = fixed_prime_divisors(P("T^100000*Y + T*Y + 2"), SPLIT)
    assert len(report.candidates) == 9592 and report.confirmed == (2,)
    assert calls == []
    assert is_fixed_prime(P("T*Y + 2"), SPLIT, 2) == (False, (1,))
    assert residue_scan([P("T*Y + 2")], ("T",), 3) == (((0,), 0), False)
    assert calls == [2, 3]


def test_modulus_must_be_proved_prime():
    # at a composite modulus the Fermat reduction changes values: T = 2 gives
    # T^4 - T = 14, nonzero mod 4, and T^4 - T + 2 = 16, zero mod 4
    T = ("T",)
    for call, p in [
        (lambda p: is_fixed_prime(parse_poly("T^4 - T", T), T, p), 4),
        (lambda p: residue_scan([parse_poly("T^4 - T + 2", T)], T, p), 4),
        (lambda p: is_fixed_prime(parse_poly("T^4 - T", T), T, p), 1),
        (lambda p: least_witness([parse_poly("T + 1", T)], T, p), 0),
    ]:
        with pytest.raises(PolyError, match=f"^modulus {p} is not prime$"):
            call(p)
    q = 3317044064679887385962123  # above the exact Miller-Rabin bound
    with pytest.raises(PolyError, match=f"modulus {q} is not proved prime"):
        is_fixed_prime(parse_poly("T^4 - T", T), T, q)


def test_no_module_imports_private_fixdiv_names():
    # the residue walk stays behind fixdiv's public functions
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "schinzel"
    files = sorted(src.glob("*.py"))
    assert files
    leaks = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if module == "fixdiv" and node.level == 1 or module == "schinzel.fixdiv":
                leaks += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert leaks == []
