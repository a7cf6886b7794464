import re

from schinzel.cli import run


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


def test_budget_exit_code(capsys):
    code, out = invoke(capsys, "hilbert", "--polys", "(T^2+T)*Y + 2",
                       "--params", "T", "--vars", "Y", "--budget", "1")
    assert code == 3
    assert kv(out)["budget_exceeded"] == "true"


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


# -- determinism and artifacts ---------------------------------------


def test_determinism_masked_golden(capsys):
    args = ["strong", "--poly", "T^2+1", "--params", "T", "--vars", "Y",
            "--d", "1", "--seed", "5"]
    _, out1 = invoke(capsys, *args)
    _, out2 = invoke(capsys, *args)
    assert mask(out1) == mask(out2)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code, out = invoke(capsys, "irred", "--poly", "Y^2+1", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


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

