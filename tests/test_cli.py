import json
import math
import pathlib
import re

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from schinzel import cli, factorlab, fixdiv
from schinzel.cli import run
from schinzel.hilbert import density_report
from schinzel.numutil import primes_upto
from schinzel.polyring import VarSplit, identifiers, parse_poly


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def mask(text):
    return re.sub(r"elapsed_ms = \d+", "elapsed_ms = X", text)


def kv(out):
    d = {}
    for line in out.splitlines():
        key, _, value = line.partition(" = ")
        d[key] = value
    return d


def test_fixdiv_confirms_prime(capsys):
    code, out = invoke(capsys, "fixdiv", "--poly", "(T^2-T)*Y + T^2 - T - 2",
                       "--params", "T", "--vars", "Y")
    assert code == 1
    d = kv(out)
    assert d["confirmed"] == "[2]"
    assert d["verdict"] == "false"


def test_fixdiv_large_content_prime_is_decided(capsys):
    # a content prime far above the degree is decided exactly
    code, out = invoke(capsys, "fixdiv", "--poly", "1000003*T*Y + 1000003",
                       "--params", "T", "--vars", "Y")
    assert code == 1
    assert kv(out)["confirmed"] == "[1000003]"


def test_fixdiv_clean_exit_zero(capsys):
    code, out = invoke(capsys, "fixdiv", "--poly", "T*Y + 2",
                       "--params", "T", "--vars", "Y")
    assert code == 0
    assert kv(out)["verdict"] == "true"


def test_irred(capsys):
    code, out = invoke(capsys, "irred", "--poly", "Y^2 - Y - 1")
    assert code == 0
    code, out = invoke(capsys, "irred", "--poly", "Y^2 - 1")
    assert code == 1


def test_hilbert_first_member(capsys):
    code, out = invoke(capsys, "hilbert", "--polys", "Y^2 - T",
                       "--params", "T", "--vars", "Y", "--limit", "1")
    assert code == 0
    assert kv(out)["member1.t"] == "[-1]"


def test_strong_negative_input(capsys):
    code, out = invoke(capsys, "strong", "--poly", "T^2 - T + 2",
                       "--params", "T", "--vars", "Y", "--d", "1")
    assert code == 1
    d = kv(out)
    assert "2" in d["detail"]
    assert d["condition"] == "NoFixDiv"


def test_strong_desk_run(capsys):
    code, out = invoke(capsys, "strong", "--poly", "T^2+1",
                       "--poly", "T^2+T+1",
                       "--params", "T", "--vars", "Y", "--d", "1")
    assert code == 0
    d = kv(out)
    assert d["bad_primes"] == "[2, 3]"
    assert d["omega"] == "6"
    assert d["M"] == "6*Y"


def test_schinzel_refusal(capsys):
    code, out = invoke(capsys, "schinzel", "--polys", "T^2 - T + 2",
                       "--params", "T", "--vars", "Y", "--d", "0")
    assert code == 1
    d = kv(out)
    assert d["condition"] == "(b)"
    assert d["generic_fixed_primes"] == "[2]"
    # the diagnosis sits between the detail and the verdict of the one refusal report
    assert mask(out).splitlines()[-8:] == [
        "refused = true", "condition = (b)",
        "detail = degree conditions (*), (a), (b), (c) fail; generic family has fixed prime 2",
        "failed_conditions = [(*), (a), (b), (c)]", "generic_fixed_primes = [2]",
        "verdict = false", "elapsed_ms = X", "exit = 1",
    ]


def test_schinzel_success(capsys):
    code, out = invoke(capsys, "schinzel", "--polys", "Y^2 - T",
                       "--params", "T", "--vars", "Y", "--d", "1")
    assert code == 0
    assert kv(out)["verdict"] == "true"


def test_counterexample(capsys):
    code, out = invoke(capsys, "counterexample", "--d", "0")
    assert code == 0
    d = kv(out)
    assert d["P"] == "T^2 - T + 2"
    assert d["deg_T"] == "2"
    assert d["all_even"] == "true"


def test_coprime(capsys):
    code, out = invoke(capsys, "coprime", "--polys", "T1", "--polys", "T1+2",
                       "--params", "T1")
    assert code == 0
    assert kv(out)["gcd"] == "1"


def test_progression(capsys):
    code, out = invoke(capsys, "progression", "--polys", "T*Y+2",
                       "--params", "T", "--vars", "Y")
    assert code == 0


def test_density(capsys):
    code, out = invoke(capsys, "density", "--polys", "Y^2 - T",
                       "--params", "T", "--vars", "Y", "--N", "10")
    assert code == 0
    d = kv(out)
    assert d["non_members"] == "4"


def test_compose(capsys):
    code, out = invoke(capsys, "compose", "--poly", "T^2+1", "--d", "1,1")
    assert code == 0
    assert kv(out)["stages"] == "2"


# -- exit codes -------------------------------------------------------


def test_usage_error_unknown_command(capsys):
    assert run(["frobnicate"]) == 2


def test_usage_error_no_command(capsys):
    assert run([]) == 2


def test_usage_error_bad_expression(capsys):
    code = run(["irred", "--poly", "Y +* 2"])
    assert code == 2
    capsys.readouterr()
    # nesting past the recursion limit is a parse error too, not a traceback
    assert run(["irred", "--poly", "(" * 3000 + "x" + ")" * 3000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error = expression nested too deeply (at position ")


def test_non_ascii_digits_are_usage_errors(capsys):
    for expr in ["x^²+1", "x^2+1٣"]:
        assert run(["irred", "--poly", expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error = ")


def test_repeated_names_are_usage_errors(capsys):
    for argv in (
        ["hilbert", "--polys", "Y^2 - T", "--params", "T,T", "--vars", "Y", "--limit", "3"],
        ["coprime", "--polys", "T", "--polys", "T+1", "--params", "T,T"],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error = repeated name 'T'\n"


def test_density_negative_half_width_is_a_usage_error(capsys):
    code = run(["density", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y",
                "--N", "-2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error = box half-width N = -2 is negative\n"


def test_budget_exit_code(capsys):
    code, out = invoke(capsys, "hilbert", "--polys", "(T^2+T)*Y + 2",
                       "--params", "T", "--vars", "Y", "--budget", "1")
    assert code == 3
    assert kv(out)["budget_exceeded"] == "true"


def test_negative_search_budget_is_a_budget_exit(capsys):
    code, out = invoke(capsys, "hilbert", "--polys", "Y^2 - T",
                       "--params", "T", "--vars", "Y", "--budget", "-1")
    assert code == 3
    assert kv(out)["detail"] == "no member within 0 points (enlarge the budget)"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_counterexample_samples_below_one_is_a_usage_error(n, capsys):
    # no sample is no evidence: the verdict must not read true
    assert run(["counterexample", "--d", "1", "--N", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --N: {n} is below 1" in captured.err


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_limit_below_one_is_a_usage_error(limit, capsys):
    argv = ["hilbert", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y", "--limit", limit]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --limit: {limit} is below 1" in captured.err


@pytest.mark.parametrize("argv, detail", [
    (["hilbert", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y"],
     "no member within 0 points (enlarge the budget)"),
    (["density", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y", "--N", "5"],
     "11 points exceed the budget 0"),
    (["schinzel", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y", "--d", "1"],
     "no plan within 0 coefficient tuples"),
    (["strong", "--poly", "T^2+1", "--params", "T", "--vars", "Y", "--d", "1"],
     "no plan within 0 shape tuples"),
    (["compose", "--poly", "T^2+1", "--d", "1,1"], "no plan within 0 shape tuples"),
    (["counterexample", "--d", "1"], "no irreducible shift with m <= 0"),
    (["coprime", "--polys", "T1", "--polys", "T1+2", "--params", "T1"],
     "no coprime point within 0 candidates"),
])
def test_budget_zero_is_not_the_default(argv, detail, capsys):
    code, out = invoke(capsys, *argv, "--budget", "0")
    assert code == 3
    assert kv(out)["detail"] == detail
    # a negative budget is used up before the first point; density and
    # counterexample name the budget in their detail
    code, out = invoke(capsys, *argv, "--budget", "-1")
    assert code == 3
    assert kv(out)["detail"] == detail.replace("budget 0", "budget -1").replace("<= 0", "<= -1")


@pytest.mark.parametrize("argv, error", [
    (["strong", "--poly", "T^2+1", "--d", ""],
     "error = degree row () does not match 1 variable(s)"),
    (["strong", "--poly", "T^2+1", "--d", "x"], "argument --d: 'x' is not a list of integers"),
    (["schinzel", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y", "--d", "x"],
     "argument --d: 'x' is not a list of integers"),
    (["compose", "--poly", "T^2+1", "--d", "1,x"],
     "argument --d: '1,x' is not a list of integers"),
    (["strong", "--poly", "T^2+1", "--d", "-1"], "error = negative degree bound"),
    (["compose", "--poly", "T^2+1", "--d", "1,-1"], "error = negative degree bound"),
    # strong and compose take one degree row: a second ';' block is not dropped
    (["strong", "--poly", "T^2+1", "--params", "T", "--vars", "Y", "--d", "1;5"],
     "argument --d: '1;5' has more than one ';' block"),
    (["compose", "--poly", "T^2+1", "--d", "1,1;3"],
     "argument --d: '1,1;3' has more than one ';' block"),
])
def test_malformed_or_negative_d_is_a_usage_error(argv, error, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err and "Traceback" not in captured.err


def test_unproved_prime_budget_exit(capsys):
    code, out = invoke(capsys, "irred", "--poly", "x^2 + 3317044064679887385962123",
                       "--factor")
    assert code == 3
    d = kv(out)
    assert d["budget_exceeded"] == "true"
    assert "exact-primality bound" in d["detail"]
    # the same cofactor as the content of a fixdiv input
    code, out = invoke(capsys, "fixdiv", "--poly",
                       "3317044064679887385962123*T*Y + 3317044064679887385962123",
                       "--params", "T", "--vars", "Y")
    assert code == 3
    assert "exact-primality bound" in kv(out)["detail"]


def test_one_budget_exception():
    assert factorlab.BudgetError is fixdiv.BudgetExceeded


def test_compose_stage_hypothesis_failure_is_a_refusal(capsys):
    # strong refuses T^2 - 1 with exit 1; compose refuses it at its first stage
    code, out = invoke(capsys, "compose", "--poly", "T^2-1", "--d", "1")
    assert code == 1
    d = kv(out)
    assert d["refused"] == "true"
    assert d["condition"] == "Irred"
    assert d["detail"] == "stage 1: polynomial #1 is reducible over the rationals"


@pytest.mark.parametrize("argv, detail", [
    (["compose", "--poly", "T^2-1", "--d", "1"],
     "stage 1: polynomial #1 is reducible over the rationals"),
    (["strong", "--poly", "T^2-1", "--params", "T", "--vars", "Y", "--d", "1"],
     "polynomial #1 is reducible over the rationals"),
    (["schinzel", "--polys", "T^2-1", "--params", "T", "--vars", "Y", "--d", "1"],
     "polynomial #1 is reducible over the rationals"),
])
def test_refusal_reports_have_one_shape(argv, detail, capsys):
    code, out = invoke(capsys, *argv)
    assert code == 1
    assert mask(out).splitlines()[-6:] == [
        "refused = true", "condition = Irred", f"detail = {detail}",
        "verdict = false", "elapsed_ms = X", "exit = 1",
    ]


def test_compose_stage_without_plan_is_budget_exit(capsys):
    # the one monic shape within the budget, M = Y^2, composes T into Y^2: reducible
    code, out = invoke(capsys, "compose", "--poly", "T", "--d", "2", "--monic",
                       "--budget", "1")
    assert code == 3
    d = kv(out)
    assert d["budget_exceeded"] == "true"
    assert d["detail"] == "no monic plan within 1 coefficient tuples"


# -- registry inference -----------------------------------------------


def _reference_identifiers(expr):
    out, cur = [], ""
    for ch in expr:
        if ch.isalnum() and not (not cur and ch.isdigit()):
            cur += ch
        else:
            if cur and not cur.isdigit():
                out.append(cur)
            cur = ""
    if cur and not cur.isdigit():
        out.append(cur)
    return out


# letters, digits, the operators and any other text; numerals that are
# neither letters nor digits (categories Nl, No: "½", "Ⅷ") are not
# names in the grammar, and the old scanner took them for name starts
exprs = st.text(st.one_of(
    st.sampled_from("TYx1T20 \t+-*^()"),
    st.characters(exclude_categories=("Nl", "No", "Cs")),
), max_size=20)


@given(st.lists(exprs, min_size=1, max_size=3), st.sampled_from(["", "T", "T,U"]))
@settings(max_examples=300, deadline=None)
def test_registry_inference_matches_reference(texts, params):
    for text in texts:
        assert identifiers(text) == _reference_identifiers(text)
    names = tuple(sorted({n for e in texts for n in _reference_identifiers(e)}))
    assert cli._inferred_registry(texts) == names
    given_params = cli._split_csv(params)
    assert cli._inferred_registry(texts, given_params) == (given_params or names)


# -- determinism and artifacts ---------------------------------------


def test_determinism_masked_golden(capsys):
    args = ["strong", "--poly", "T^2+1", "--params", "T", "--vars", "Y", "--d", "1"]
    code1, out1 = invoke(capsys, *args)
    code2, out2 = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert mask(out1) == mask(out2)


def test_counterexample_echoes_its_seed(capsys):
    code, out = invoke(capsys, "counterexample", "--d", "1", "--seed", "7")
    assert code == 0
    assert kv(out)["seed"] == "7"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code, out = invoke(capsys, "irred", "--poly", "Y^2+1", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


def test_unwritable_out_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.txt"
    code = run(["irred", "--poly", "x^2+1", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert kv(captured.out)["verdict"] == "true"  # the report is printed first
    assert captured.err.startswith("error = ") and "report.txt" in captured.err


def test_unreadable_job_file_is_usage_error(tmp_path, capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"command = irred\npoly = x\xff\n")
    for path, detail in [(tmp_path / "nonexistent", "nonexistent"), (tmp_path, "directory"),
                         (binary, "utf-8")]:
        code = run(["--job", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error = ") and detail in captured.err


_FAMILY = ["--params", "T", "--vars", "Y"]
# (flag, command, the rest of a valid command line): --budget is absent where no
# budget is read, and --seed everywhere but counterexample
_UNREAD_FLAGS = [
    ("--budget", "irred", ["--poly", "x^2+1"]),
    ("--budget", "fixdiv", ["--poly", "T*Y + 2", *_FAMILY]),
    ("--budget", "progression", ["--poly", "T*Y + 2", *_FAMILY]),
    ("--seed", "fixdiv", ["--poly", "T*Y + 2", *_FAMILY]),
    ("--seed", "irred", ["--poly", "x^2+1"]),
    ("--seed", "hilbert", ["--polys", "Y^2 - T", *_FAMILY]),
    ("--seed", "progression", ["--poly", "T*Y + 2", *_FAMILY]),
    ("--seed", "schinzel", ["--polys", "Y^2 - T", *_FAMILY, "--d", "1"]),
    ("--seed", "strong", ["--poly", "T^2+1", *_FAMILY, "--d", "1"]),
    ("--seed", "compose", ["--poly", "T^2+1", "--d", "1,1"]),
    ("--seed", "coprime", ["--polys", "T1", "--polys", "T1+2", "--params", "T1"]),
    ("--seed", "density", ["--polys", "Y^2 - T", *_FAMILY, "--N", "3"]),
]


@pytest.mark.parametrize("flag, command, rest", _UNREAD_FLAGS,
                         ids=[f"{c}-rest{i}" for i, (_, c, _) in enumerate(_UNREAD_FLAGS)])
def test_budget_only_where_it_is_read(flag, command, rest, capsys):
    assert run([command, *rest, flag, "5"]) == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert run([command, *rest]) in (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize("argv, names", [
    (["compose", "--poly", "T^2+1", "--d", "1,1"], ["--params", "U,V"]),
    (["compose", "--poly", "T^2+1", "--d", "1,1"], ["--vars", "Q"]),
    (["coprime", "--polys", "T1", "--polys", "T1+2"], ["--vars", "Y"]),
])
def test_name_lists_only_where_they_are_read(argv, names, capsys):
    assert run([*argv, *names]) == 2
    assert f"unrecognized arguments: {' '.join(names)}" in capsys.readouterr().err
    assert run(argv) == 0
    capsys.readouterr()


JOBS = [
    ["fixdiv", "--poly", "(T^2-T)*Y + T^2 - T - 2", "--params", "T", "--vars", "Y"],
    ["irred", "--poly", "Y^2 - Y - 1", "--factor"],
    ["hilbert", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y", "--limit", "3"],
    ["progression", "--polys", "T*Y + 2", "--params", "T", "--vars", "Y"],
    ["schinzel", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y", "--d", "1"],
    ["strong", "--poly", "T^2+1", "--poly", "T^2+T+1", "--params", "T", "--vars", "Y",
     "--d", "1"],
    ["compose", "--poly", "T^2+1", "--d", "1,1"],
    ["counterexample", "--d", "1"],
    ["coprime", "--polys", "T1", "--polys", "T1+2", "--params", "T1"],
    ["density", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y", "--N", "10"],
    ["frobnicate"],
    ["irred"],
    ["irred", "--poly", "Y +* 2"],
    [],
]


def test_repeated_runs_match_first_runs(capsys):
    def job(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, mask(captured.out), captured.err

    first = []
    for argv in JOBS:
        cli._build_parser.cache_clear()  # as in a fresh process
        first.append(job(argv))
    for order in (JOBS, JOBS[::-1]):
        again = {tuple(argv): job(argv) for argv in order}
        assert [again[tuple(argv)] for argv in JOBS] == first


def test_job_file_roundtrip(tmp_path, capsys):
    job = tmp_path / "job.txt"
    job.write_text(
        "command = fixdiv\n"
        "poly = (T^2-T)*Y + T^2 - T - 2\n"
        "params = T\n"
        "vars = Y\n"
    )
    code, out = invoke(capsys, "--job", str(job))
    direct_code, direct_out = invoke(
        capsys, "fixdiv", "--poly", "(T^2-T)*Y + T^2 - T - 2",
        "--params", "T", "--vars", "Y")
    assert code == direct_code == 1
    assert mask(out) == mask(direct_out)


GOLDEN = json.loads((pathlib.Path(__file__).resolve().parents[1]
                     / "perfbench" / "expected" / "cli_reports.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name, capsys):
    # the benchmark's expected reports, byte for byte with elapsed_ms masked
    job = GOLDEN[name]
    code, out = invoke(capsys, *job["argv"])
    assert code == job["exit"]
    assert mask(out) == job["report"]


# A ledger of outcomes outside the golden corpus: a job whose verdict, exit
# code or budget detail changes shows here.  Each row is (argv, exit code,
# report key, leading words of its value).
_PROGRESSION_POLY = (
    "(-20*T^16 + 18*T^15 + 7*T^14 + 4*T^13 - 19*T^12 + 11*T^11 - 14*T^10 - 7*T^9"
    " + 4*T^8 + 10*T^7 + 8*T^6 + 11*T^5 - 13*T^4 - 4*T^3 - 16*T^2 + 16*T - 12)*Y"
    " + -6*T^16 + 13*T^15 - 19*T^14 + 7*T^13 - 7*T^12 + 4*T^11 - 20*T^10 + 14*T^9"
    " - 19*T^8 - 19*T^7 - 19*T^6 - 14*T^4 + 17*T^3 - 6*T^2 - 3*T + 8"
)
_PRIMORIAL = math.prod(primes_upto(255))  # the product of the primes below 256
OUTCOMES = [
    (["compose", "--poly", "T^3+2", "--d", "2,2"], 3,
     "detail", "kronecker oracle cannot list the divisors of"),
    (["compose", "--poly", "T^4+T+1", "--d", "2,2"], 3,
     "detail", "total degree 16 exceeds the degree-12 budget"),
    (["compose", "--poly", "T^2+1", "--d", "2,3"], 0, "verdict", "true"),
    (["irred", "--poly", "x^200+x+1"], 3, "detail", "total degree 200 exceeds"),
    (["irred", "--poly", "x^16+1"], 3, "detail", "total degree 16 exceeds"),
    (["hilbert", "--polys", "Y^16 - T", "--params", "T", "--vars", "Y"], 3,
     "detail", "total degree 16 exceeds"),
    (["progression", "--params", "T", "--vars", "Y", "--polys", _PROGRESSION_POLY], 3,
     "detail", "cofactor 70303981698445634336783083886897029410799267 passes Miller-Rabin"),
    (["irred", "--poly", f"(x+2)*({_PRIMORIAL}*x+1)"], 3,
     "detail", "kronecker oracle cannot list the divisors of"),
]


@pytest.mark.parametrize("argv, code, key, lead", OUTCOMES)
def test_outcome_ledger(argv, code, key, lead, capsys):
    got, out = invoke(capsys, *argv)
    assert (got, kv(out)[key][: len(lead)]) == (code, lead)


def test_binomials_up_to_the_degree_cap_never_reach_the_oracle(monkeypatch, capsys):
    # Capelli's theorem decides every binomial of degree <= MAX_TOTAL_DEGREE; past
    # the cap the oracle still runs, and its degree guard still refuses x^16 + 1
    oracle = factorlab.kronecker_factor

    def guarded(P, **opts):
        if P.total_degree() <= factorlab.MAX_TOTAL_DEGREE:
            pytest.fail(f"the Kronecker oracle was called on {P}")
        return oracle(P, **opts)

    monkeypatch.setattr(factorlab, "kronecker_factor", guarded)
    code, out = invoke(capsys, "compose", "--poly", "T^2+1", "--d", "2,3")
    assert (code, kv(out)["verdict"]) == (0, "true")
    split = VarSplit(("T",), ("Y",))
    for family, members, reducible in [("Y^4 + T^2", 186, 15), ("Y^4 - T", 188, 13)]:
        report = density_report([parse_poly(family, ("T", "Y"))], split, 100)
        assert (report.members, report.reasons) == (members, {"reducible": reducible})
    code, out = invoke(capsys, "irred", "--poly", "x^16+1")
    assert code == 3 and kv(out)["detail"].startswith("total degree 16 exceeds")
