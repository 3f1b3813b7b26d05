import pytest
from hypothesis import given, strategies as st

from emu import assertions as asr
from emu.errors import AssertionSyntaxError
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
