import pytest
from hypothesis import given, strategies as st

from emu import assertions as asr
from emu import formulas as fm
from emu.errors import EmuError, FormulaSyntaxError, MalformedAssertionError


def test_parse_buchi_matches_builtin():
    f = fm.parse_formula('nu Z . (mu Y . ((J & <>Z) | <>Y))')
    want = fm.Nu("Z", fm.Mu("Y", fm.Or(
        fm.And(fm.Atom(asr.Var("J")), fm.Diamond(fm.RelVar("Z"))),
        fm.Diamond(fm.RelVar("Y")),
    )))
    # J parses as a relational variable (uppercase); with a lowercase target
    # the tree matches the builtin instead
    assert f != want  # J is a RelVar here, so the formula is open
    g = fm.parse_formula('nu Z . (mu Y . ((y & <>Z) | <>Y))')
    assert g == fm.builtin("buchi", J="y")


def test_parse_safety_and_reach():
    assert fm.parse_formula("nu X . <>X") == fm.builtin("safety")
    assert fm.parse_formula("mu X . (x | <>X)") == fm.builtin("reach", p="x")


def test_binders_extend_right():
    f = fm.parse_formula("nu X . <>X & y")
    assert f == fm.Nu("X", fm.And(fm.Diamond(fm.RelVar("X")), fm.Atom(asr.Var("y"))))


def test_escape_atoms():
    f = fm.parse_formula('mu X . (@"x & !y" | <>X)')
    atom = f.sub.left
    assert isinstance(atom, fm.Atom)
    assert atom.assertion == asr.parse_assertion("x & !y")


def test_primed_atoms_rejected():
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("mu X . (y' | <>X)")
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula('mu X . (@"y\' & x" | <>X)')


def test_syntax_errors():
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("mu x . x")  # lowercase binder
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("nu X  <>X")  # missing dot
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("<> & X")


def test_rename_apart():
    f = fm.parse_formula("nu X . (mu X . <>X) & <>X")
    assert isinstance(f, fm.Nu)
    inner = f.sub.left
    assert isinstance(inner, fm.Mu)
    assert inner.name != "X"
    assert inner.sub == fm.Diamond(fm.RelVar(inner.name))
    assert f.sub.right == fm.Diamond(fm.RelVar("X"))


def test_rename_apart_avoids_free_names():
    f = fm.parse_formula("Y & mu Y . <>Y")
    assert isinstance(f.right, fm.Mu)
    assert f.right.name != "Y"
    assert f.left == fm.RelVar("Y")


def test_metrics_examples():
    buchi = fm.builtin("buchi", J="y")
    m = fm.metrics(buchi)
    assert m.alternation_depth == 2
    assert m.length == 9
    assert m.closed and m.fragment == "sys"

    safety = fm.metrics(fm.builtin("safety"))
    assert (safety.length, safety.alternation_depth) == (3, 1)

    reach = fm.metrics(fm.parse_formula("mu X . (p | <>X)"))
    assert (reach.length, reach.alternation_depth) == (5, 1)


def test_alternation_depth_independent_nesting():
    # inner fixpoint ignores the outer variable: no genuine alternation
    f = fm.parse_formula("nu X . (<>X & mu Y . (p | <>Y))")
    assert fm.alternation_depth(f) == 1
    # three interdependent blocks
    g = fm.Mu("A", fm.Nu("B", fm.Mu("C", fm.Or(
        fm.RelVar("C"), fm.Or(fm.RelVar("B"), fm.RelVar("A"))))))
    assert fm.alternation_depth(g) == 3
    assert fm.alternation_depth(fm.Atom(asr.Var("p"))) == 0
    # co-buchi alternates too
    assert fm.metrics(fm.builtin("cobuchi", J="y")).alternation_depth == 2


@pytest.mark.parametrize("text, depth", [
    ("p & <>q", 0),
    ("nu X . <>X", 1),
    ("nu Z . mu Y . ((J & <>Z) | <>Y)", 2),
    ("nu X . (<>X & mu Y . (p | <>Y))", 1),
    ("mu A . nu B . mu C . (<>A | <>B | <>C)", 3),
])
def test_alternation_depth_worked_examples(text, depth):
    assert fm.alternation_depth(fm.parse_formula(text)) == depth


def test_classify_fragment():
    assert fm.classify_fragment(fm.builtin("buchi", J="y")) == "sys"
    assert fm.classify_fragment(fm.parse_formula("nu X . []X")) == "env"
    assert fm.classify_fragment(fm.parse_formula("mu X . (p | X)")) == "both"
    assert fm.classify_fragment(fm.parse_formula("mu X . (<>X | []X)")) == "mixed"


def test_check_monotone():
    ok = fm.check_monotone(fm.parse_formula("nu X . !!X"))
    assert ok.ok
    bad = fm.check_monotone(fm.parse_formula("mu X . !X"))
    assert not bad.ok and bad.variable == "X"
    assert fm.check_monotone(fm.builtin("buchi", J="y")).ok


def test_builtins_closed_monotone():
    for name, params in [
        ("safety", {}),
        ("reach", {"p": "x"}),
        ("buchi", {"J": "y"}),
        ("cobuchi", {"J": "y"}),
        ("dual-buchi", {"J": "y"}),
    ]:
        f = fm.builtin(name, **params)
        assert fm.is_closed(f)
        assert fm.check_monotone(f).ok


def test_builtin_rejects_primed_param():
    with pytest.raises(MalformedAssertionError):
        fm.builtin("reach", p="x'")


def test_builtin_rejects_parameters_it_does_not_take():
    with pytest.raises(EmuError, match="J"):
        fm.builtin("safety", J="y")
    with pytest.raises(EmuError, match="q"):
        fm.builtin("reach", p="x", q="y")
    with pytest.raises(EmuError, match="p"):
        fm.builtin("buchi", J="y", p="x")


def test_keyword_atoms_print_as_escapes():
    for text in ('mu X . (@"nu" | <>X)', 'nu X . (!@"mu" & <>X)'):
        f = fm.parse_formula(text)
        assert fm.parse_formula(fm.formula_to_str(f)) == f


def test_negate_buchi_shape():
    dual = fm.negate(fm.builtin("buchi", J="y"))
    want = fm.Mu("Z", fm.Nu("Y", fm.And(
        fm.Or(fm.NegAtom(asr.Var("y")), fm.Box(fm.RelVar("Z"))),
        fm.Box(fm.RelVar("Y")),
    )))
    assert dual == want
    assert fm.builtin("dual-buchi", J="y") == want


def test_push_negations_removes_not():
    f = fm.Not(fm.builtin("buchi", J="y"))
    pushed = fm.push_negations(f)

    def has_not(node):
        if isinstance(node, fm.Not):
            return True
        return any(has_not(c) for c in fm._children(node))

    assert not has_not(pushed)
    assert fm.classify_fragment(pushed) == "env"


def test_push_negations_involution():
    for f in (fm.builtin("buchi", J="y"), fm.builtin("cobuchi", J="x"),
              fm.builtin("safety")):
        assert fm.negate(fm.negate(f)) == fm.push_negations(f)


def test_negate_dualizes_fragment():
    dual_of = {"sys": "env", "env": "sys", "both": "both"}
    for f in (fm.builtin("buchi", J="y"), fm.builtin("cobuchi", J="x"),
              fm.builtin("safety"), fm.builtin("reach", p="x"),
              fm.builtin("dual-buchi", J="y"),
              fm.parse_formula("mu X . (p | X)")):
        frag = fm.classify_fragment(f)
        assert fm.classify_fragment(fm.negate(f)) == dual_of[frag]


def test_is_buchi_shape():
    assert fm.is_buchi_shape(fm.builtin("buchi", J="y")) == asr.Var("y")
    assert fm.is_buchi_shape(fm.builtin("safety")) is None
    assert fm.is_buchi_shape(fm.builtin("cobuchi", J="y")) is None


def test_parity_formula_degenerate_cases():
    from emu import PriorityRule

    all_even = fm.parity_formula((PriorityRule(asr.TRUE, 0),))
    assert all_even == fm.Nu("Z0", fm.And(fm.Atom(asr.TRUE),
                                          fm.Diamond(fm.RelVar("Z0"))))
    all_odd = fm.parity_formula((PriorityRule(asr.TRUE, 1),))
    assert isinstance(all_odd, fm.Mu)
    two = fm.parity_formula((
        PriorityRule(asr.Var("y"), 0),
        PriorityRule(asr.Not(asr.Var("y")), 1),
    ))
    assert isinstance(two, fm.Nu) and isinstance(two.sub, fm.Mu)
    assert fm.alternation_depth(two) == 2


_texts = st.sampled_from([
    "nu Z . mu Y . ((y & <>Z) | <>Y)",
    "mu X . (x | <>X)",
    "nu X . <>X",
    "mu Z . nu Y . ((!y | []Z) & []Y)",
    'mu X . (@"x & !y" | (<>X & []X))',
    "nu A . mu B . (A | !B | <>B)",
])


@given(_texts)
def test_print_parse_round_trip(text):
    f = fm.parse_formula(text)
    assert fm.parse_formula(fm.formula_to_str(f)) == f


def test_metrics_invariant_under_renaming():
    a = fm.parse_formula("nu Z . mu Y . ((y & <>Z) | <>Y)")
    b = fm.parse_formula("nu Q . mu R . ((y & <>Q) | <>R)")
    ma, mb = fm.metrics(a), fm.metrics(b)
    assert (ma.length, ma.alternation_depth, ma.fragment) == (
        mb.length, mb.alternation_depth, mb.fragment)
