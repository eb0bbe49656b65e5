"""Exit codes and output formats of the cab tool."""

import json

from cab import cli
from cab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mul_circle(capsys):
    code, out, _ = run(capsys, "mul", "--op", "circle", "(a)", "(b)")
    assert code == 0
    assert out == "1 (b(a))\n"


def test_mul_star_coefficients(capsys):
    code, out, _ = run(capsys, "mul", "--op", "star:-1,1", "(a)", "(b)")
    assert code == 0
    assert out.splitlines() == ["-1 (a,b)", "1 (b(a))"]


def test_mul_json(capsys):
    code, out, _ = run(capsys, "mul", "--op", "dot", "(a)", "(b)", "--json")
    assert code == 0
    assert json.loads(out) == [{"coeff": "1", "key": "(a,b)"}]


def test_trees_enum(capsys):
    code, out, _ = run(capsys, "trees", "enum", "--degree", "2", "--colors", "a,b")
    assert code == 0
    lines = out.splitlines()
    assert len([l for l in lines if not l.startswith("#")]) == 8
    code, out, _ = run(capsys, "trees", "enum", "--degree", "3", "--colors", "1", "--json")
    data = json.loads(out)
    assert data["count"] == 5


def test_coproduct_both_forms(capsys):
    code, out, _ = run(capsys, "coproduct", "(a,b,c)")
    assert code == 0
    assert out.splitlines() == ["1 (a) ⊗ (b,c)", "1 (a,b) ⊗ (c)"]
    code, closed_out, _ = run(capsys, "coproduct", "--closed", "(a,b,c)")
    assert code == 0
    assert closed_out == out


def test_prim_basis(capsys):
    code, out, _ = run(capsys, "prim-basis", "--degree", "2", "--colors", "1")
    assert code == 0
    assert "(a(a))" in out and "(a,a)" in out


def test_nop(capsys):
    code, out, _ = run(capsys, "nop", "--n", "2", "(a)", "(b)")
    assert code == 0
    assert out.splitlines() == ["-1 (a,b)", "1 (b(a))"]
    code, _, err = run(capsys, "nop", "--n", "3", "(a)", "(b)")
    assert code == 1
    assert "3" in err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "(d(c(a,b)))")
    assert code == 0
    assert out.strip() == "a|b.c.d"


def test_word_mul(capsys):
    code, out, _ = run(capsys, "word-mul", "--op", "circ", "a|b", "c|d")
    assert code == 0
    assert out.strip() == "a|b.c|d"


def test_path_commands(capsys):
    code, out, _ = run(capsys, "path", "mul", "--points", "a,b,x", "p[a,x]", "p[x,b]")
    assert code == 0
    assert out.strip() == "1 p[a,b]"
    code, out, _ = run(capsys, "path", "circ", "--points", "a,b,x", "p[a,x]", "p[x,b]")
    assert out.strip() == "1 p[a,x,b]"
    code, out, _ = run(capsys, "path", "R", "--points", "a,b", "p[a,b]")
    assert out.strip() == "1 p[a,a,b]"
    code, out, _ = run(capsys, "path", "coproduct", "--points", "a,b,x", "p[a,x,b]")
    assert out.splitlines() == ["1 p[a,b] ⊗ p[a,x,b]", "1 p[a,x,b] ⊗ p[a,b]"]
    code, out, _ = run(capsys, "path", "mul", "--points", "a,b", "p[a,b]", "p[x,b]")
    assert code == 1


def test_mismatched_product_is_zero(capsys):
    code, out, _ = run(capsys, "path", "mul", "--points", "a,b,c", "p[a,b]", "p[c,b]")
    assert code == 0
    assert out.strip() == "0"


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "--max", "6", "--colors", "1")
    assert code == 0
    assert "2^(n-1)" in out
    code, out, _ = run(capsys, "dims", "--max", "4", "--colors", "2", "--json")
    data = json.loads(out)
    assert data["ok"] is True
    assert data["rows"][2]["tree_dim"] == 40


def test_verify_small_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "coalgebra", "--max-degree", "4",
                       "--seed", "7")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "nalgebra", "--max-degree", "3",
                       "--json")
    assert code == 0
    checks = json.loads(out)
    assert checks and all(c["ok"] for c in checks)


def test_verify_refuses_max_degree_below_three(capsys):
    # below 3 some exhaustive checks would pass on zero inputs
    for degree in ("2", "1", "0", "-1"):
        for suite in ("coalgebra", "axioms"):
            code, out, err = run(capsys, "verify", "--suite", suite, "--max-degree", degree)
            assert (code, out) == (1, "")
            assert f"max degree must be at least 3, got {degree}" in err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "mul", "--op", "bogus", "(a)", "(b)")[0] == 1
    assert run(capsys, "mul", "--op", "dot", "(a", "(b)")[0] == 1
    assert run(capsys, "bogus-command")[0] == 1
    assert run(capsys, "trees", "enum", "--degree", "2", "--colors", "99")[0] == 1


def test_bad_colors_and_letters_exit_one(capsys):
    for colors in ("p(q,r", "a b", "a,(b)"):
        code, out, err = run(capsys, "trees", "enum", "--degree", "2", "--colors", colors)
        assert (code, out) == (1, "")
        assert "bad color" in err
    code, out, _ = run(capsys, "prim-basis", "--degree", "2", "--colors", "a b")
    assert (code, out) == (1, "")
    code, out, _ = run(capsys, "word-mul", "--op", "dot", "a\n|c", "b")
    assert (code, out) == (1, "")


def test_repeated_colors_exit_one(capsys):
    for argv in (("trees", "enum", "--degree", "1"), ("prim-basis", "--degree", "2")):
        code, out, err = run(capsys, *argv, "--colors", "a,a")
        assert (code, out) == (1, "")
        assert "repeated color 'a'" in err


def test_zero_denominator_and_deep_nesting_exit_one(capsys):
    code, out, err = run(capsys, "mul", "--op", "star:1/0,1", "(a)", "(b)")
    assert (code, out) == (1, "")
    assert err == "error: bad star coefficients '1/0,1': zero denominator\n"
    deep = "(" + "a(" * 1999 + "a" + ")" * 1999 + ")"
    code, out, err = run(capsys, "normalize", deep)
    assert (code, out) == (1, "")
    assert err == "error: input nested too deeply\n"


def test_byte_stable_output(capsys):
    first = run(capsys, "verify", "--suite", "coalgebra", "--max-degree", "3", "--seed", "11")
    second = run(capsys, "verify", "--suite", "coalgebra", "--max-degree", "3", "--seed", "11")
    assert first == second


def test_verify_refuses_max_degree_no_suite_takes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "path", "--max-degree", "3")
    assert (code, out) == (1, "")
    assert "max degree does not apply to suite path" in err


def test_oversized_bases_are_refused_before_enumerating(capsys, monkeypatch):
    def refuse(n, colors):
        raise AssertionError("enumerated an oversized basis")

    monkeypatch.setattr(cli, "enumerate_trees", refuse)
    monkeypatch.setattr(cli, "primitive_basis", refuse)
    monkeypatch.setattr(cli, "dimension_report", refuse)
    for argv, err in [
        (("trees", "enum", "--degree", "8", "--colors", "2"),
         "degree 8 gives 366080 trees, over the limit 100000"),
        (("trees", "enum", "--degree", "9", "--colors", "a,b"),
         "degree 9 gives 2489344 trees, over the limit 100000"),
        (("prim-basis", "--degree", "8", "--colors", "2"),
         "degree 8 gives 109824 primitives, over the limit 100000"),
        (("prim-basis", "--degree", "1000000000", "--colors", "1", "--json"),
         "degree 1000000000 gives more than 100000 primitives, over the limit 100000"),
        (("dims", "--max", "1001", "--colors", "2"), "--max 1001 is over the limit 1000"),
        (("dims", "--max", "100000"), "--max 100000 is over the limit 1000"),
        (("dims", "--max", "600", "--colors", "1000000"), "a color count must be between 1 and 26"),
        (("dims", "--max", "6", "--colors", "0", "--json"), "a color count must be between 1 and 26"),
        (("dims", "--max", "6", "--colors", "27"), "a color count must be between 1 and 26"),
    ]:
        assert run(capsys, *argv) == (1, "", f"error: {err}\n")


def test_largest_bases_under_the_limit_are_enumerated(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "enumerate_trees", lambda n, colors: built.append(n) or [])
    monkeypatch.setattr(cli, "primitive_basis", lambda n, colors: built.append(n) or [])
    monkeypatch.setattr(cli, "dimension_report", lambda n, d: built.append(n) or [])
    for argv in (("trees", "enum", "--degree", "7", "--colors", "2"),
                 ("trees", "enum", "--degree", "6", "--colors", "3"),  # 96,228 trees
                 ("prim-basis", "--degree", "7", "--colors", "2"),
                 ("dims", "--max", "1000", "--colors", "26")):
        assert run(capsys, *argv)[0] == 0
    assert built == [7, 6, 7, 1000]
