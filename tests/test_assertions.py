import pytest
from hypothesis import given, strategies as st

from emu import assertions as asr
from emu import formulas as fm
from emu.errors import AssertionSyntaxError, FormulaSyntaxError
from oracles import eval_bool


def test_atoms_and_constants():
    assert asr.parse_assertion("true") == asr.TRUE
    assert asr.parse_assertion("false") == asr.FALSE
    assert asr.parse_assertion("x") == asr.Var("x")
    assert asr.parse_assertion("x'") == asr.Var("x", primed=True)


def test_precedence():
    # ! > & > | > -> > <->
    a = asr.parse_assertion("!x & y | z -> w <-> v")
    assert isinstance(a, asr.Iff)
    assert isinstance(a.left, asr.Implies)
    assert a.left.right == asr.Var("w")
    assert isinstance(a.left.left, asr.Or)
    assert a.left.left.right == asr.Var("z")
    assert a.left.left.left == asr.And(asr.Not(asr.Var("x")), asr.Var("y"))


def test_right_associative_arrows():
    a = asr.parse_assertion("x -> y -> z")
    assert a == asr.Implies(asr.Var("x"), asr.Implies(asr.Var("y"), asr.Var("z")))
    b = asr.parse_assertion("x <-> y <-> z")
    assert b == asr.Iff(asr.Var("x"), asr.Iff(asr.Var("y"), asr.Var("z")))


def test_parens_override():
    a = asr.parse_assertion("(x | y) & z")
    assert isinstance(a, asr.And)
    assert isinstance(a.left, asr.Or)


def test_syntax_errors_report_position():
    with pytest.raises(AssertionSyntaxError) as e:
        asr.parse_assertion("x & ")
    assert e.value.position == 4
    with pytest.raises(AssertionSyntaxError):
        asr.parse_assertion("x y")
    with pytest.raises(AssertionSyntaxError):
        asr.parse_assertion("(x")
    with pytest.raises(AssertionSyntaxError):
        asr.parse_assertion("x ? y")


_PARSE = {"assertion": asr.parse_assertion, "formula": fm.parse_formula}


# Both languages share one tokenizer.  A position is the index of the
# offending character in the whole text, also inside an @"..." escape.
@pytest.mark.parametrize("text, language, error, position", [
    ("x & ", "assertion", AssertionSyntaxError, 4),
    ("", "assertion", AssertionSyntaxError, 0),
    (")", "assertion", AssertionSyntaxError, 0),
    ("x y", "assertion", AssertionSyntaxError, 2),
    ("(x", "assertion", AssertionSyntaxError, 2),
    ("!(x | y", "assertion", AssertionSyntaxError, 7),
    ("x -> ", "assertion", AssertionSyntaxError, 5),
    ("x''", "assertion", AssertionSyntaxError, 2),
    ("?x", "assertion", AssertionSyntaxError, 0),
    ("x ? y", "assertion", AssertionSyntaxError, 2),
    ("x &   ? y", "assertion", AssertionSyntaxError, 6),
    ("x <> y", "assertion", AssertionSyntaxError, 2),
    ('@"x"', "assertion", AssertionSyntaxError, 0),
    ("mu x . x", "formula", FormulaSyntaxError, 3),
    ("mu", "formula", FormulaSyntaxError, 2),
    ("nu X  <>X", "formula", FormulaSyntaxError, 6),
    ("<> & X", "formula", FormulaSyntaxError, 3),
    ("nu X . <>X & ", "formula", FormulaSyntaxError, 13),
    ("nu X . <>X )", "formula", FormulaSyntaxError, 11),
    ("(nu X . <>X", "formula", FormulaSyntaxError, 11),
    ("mu X . (y' | <>X)", "formula", FormulaSyntaxError, 8),
    ("X'", "formula", FormulaSyntaxError, 0),
    ('@"x', "formula", FormulaSyntaxError, 0),
    ("nu X . ? X", "formula", FormulaSyntaxError, 7),
    ("x -> y", "formula", FormulaSyntaxError, 2),
    (' @"y\' & x"', "formula", FormulaSyntaxError, 1),
    ('mu X . (@"x &" | <>X)', "formula", AssertionSyntaxError, 13),
    ('mu X . (@"x ? y" | <>X)', "formula", AssertionSyntaxError, 12),
    ('mu X . (@  "(x" | <>X)', "formula", AssertionSyntaxError, 14),
])
def test_syntax_error_positions(text, language, error, position):
    with pytest.raises(error) as e:
        _PARSE[language](text)
    assert type(e.value) is error
    assert e.value.position == position


M = asr.MAX_NESTING
# (language, text with n units, the most units within MAX_NESTING).  Both
# languages charge 1 frame per operator and 4 per parenthesis or binder.
_DEEP = {
    "a-and-chain": ("assertion", lambda n: " & ".join(["x"] * (n + 1)), M),
    "a-dnf": ("assertion", lambda n: " | ".join(["x & y"] * n), M),
    "a-parens": ("assertion", lambda n: "(" * n + "x" + ")" * n, M // 4),
    "a-implications": ("assertion", lambda n: "x -> " * n + "x", M),
    "a-implied-chain": ("assertion", lambda n: " & ".join(["x"] * (n + 1)) + " -> x",
                        M - 1),
    "a-equivalences": ("assertion", lambda n: "x <-> " * n + "x", M),
    "a-negations": ("assertion", lambda n: "!" * n + "x", M),
    "f-diamonds": ("formula", lambda n: "nu X . " + "<>" * n + "X", M - 4),
    "f-and-chain": ("formula", lambda n: "nu X . " + " & ".join(["<>X"] * (n + 1)),
                    M - 5),
    "f-parens": ("formula", lambda n: "nu X . " + "(" * n + "<><>X" + ")" * n,
                 (M - 8) // 4),
    "f-binders": ("formula", lambda n: "nu X . "
                  + "".join(f"nu Y{i} . " for i in range(n)) + "<><>X", (M - 8) // 4),
    "f-escaped-parens": ("formula", lambda n: 'mu X . (@"' + "(" * n + "y" + ")" * n
                         + '" | <>X)', (M - 10) // 4),
    "f-escaped-and-chain": ("formula", lambda n: 'mu X . (@"'
                            + " & ".join(["y"] * (n + 1)) + '" | <>X)', M - 9),
}


@pytest.mark.parametrize("language, text, n", _DEEP.values(), ids=list(_DEEP))
def test_nesting_limit(language, text, n, stack_room):
    # Within the limit, reading, printing and rewriting take at most
    # MAX_NESTING frames and a few dozen more.
    with stack_room(M + 32):
        if language == "assertion":
            tree = asr.parse_assertion(text(n))
            printed = asr.assertion_to_str(tree)
            assert asr.assertion_to_str(asr.parse_assertion(printed)) == printed
            asr.assertion_vars(tree)
        else:
            tree = fm.parse_formula(text(n))
            printed = fm.formula_to_str(tree)
            assert fm.formula_to_str(fm.parse_formula(printed)) == printed
            assert (fm.formula_to_str(fm.negate(fm.negate(tree)))
                    == fm.formula_to_str(fm.push_negations(tree)))
            fm.check_monotone(tree)
            fm.classify_fragment(tree)
    # Too deep inside an @"..." escape is an error of the escaped assertion.
    errors = AssertionSyntaxError
    if language == "formula":
        errors = (AssertionSyntaxError, FormulaSyntaxError)
    with pytest.raises(errors, match="nested deeper than"):
        _PARSE[language](text(n + 1))


def _env(values):
    return lambda name, primed: values[(name, primed)]


def test_eval_bool():
    a = asr.parse_assertion("x & !y -> z'")
    env = _env({("x", False): True, ("y", False): True, ("z", True): False})
    assert eval_bool(a, env) is True
    env = _env({("x", False): True, ("y", False): False, ("z", True): False})
    assert eval_bool(a, env) is False


def test_assertion_vars():
    a = asr.parse_assertion("x & y' | !x")
    assert asr.assertion_vars(a) == {("x", False), ("y", True)}


_literals = st.sampled_from(["x", "y", "z", "x'", "true", "false"])


@st.composite
def _assertion_strings(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(_literals)
    op = draw(st.sampled_from(["&", "|", "->", "<->"]))
    left = draw(_assertion_strings(depth=depth - 1))
    right = draw(_assertion_strings(depth=depth - 1))
    if draw(st.booleans()):
        return f"!({left}) {op} {right}"
    return f"({left}) {op} ({right})"


@given(_assertion_strings())
def test_print_parse_round_trip(text):
    tree = asr.parse_assertion(text)
    assert asr.parse_assertion(asr.assertion_to_str(tree)) == tree
