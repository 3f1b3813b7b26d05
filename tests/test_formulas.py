import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from emu import PriorityRule
from emu import assertions as asr
from emu import formulas as fm
from emu.errors import EmuError, FormulaSyntaxError, MalformedAssertionError
from oracles import random_nested_formula, rename_apart


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


def test_binders_keep_their_names():
    # the inner X hides the outer one in its body only
    f = fm.parse_formula("nu X . (mu X . <>X) & <>X")
    assert f == fm.Nu("X", fm.And(fm.Mu("X", fm.Diamond(fm.RelVar("X"))),
                                  fm.Diamond(fm.RelVar("X"))))
    assert fm.parse_formula("Y & mu Y . <>Y") == fm.And(
        fm.RelVar("Y"), fm.Mu("Y", fm.Diamond(fm.RelVar("Y"))))


def test_printing_then_parsing_gives_back_nested_trees():
    # random_nested_formula names binders from X, Y and Z, so many of its
    # trees hide a binder behind an inner one of the same name
    hiding = 0
    for seed in range(500):
        f = random_nested_formula(random.Random(seed))
        assert fm.parse_formula(fm.formula_to_str(f)) == f, seed
        hiding += rename_apart(f) != f
    assert hiding >= 200


def test_metrics_examples():
    buchi = fm.builtin("buchi", J="y")
    m = fm.metrics(buchi)
    assert m.alternation_depth == 2
    assert m.length == 9
    assert not m.free and fm.classify_fragment(buchi) == "sys"

    safety = fm.metrics(fm.builtin("safety"))
    assert (safety.length, safety.alternation_depth) == (3, 1)

    reach = fm.metrics(fm.parse_formula("mu X . (p | <>X)"))
    assert (reach.length, reach.alternation_depth) == (5, 1)


def test_alternation_depth_independent_nesting():
    # inner fixpoint ignores the outer variable: no genuine alternation
    f = fm.parse_formula("nu X . (<>X & mu Y . (p | <>Y))")
    assert fm.metrics(f).alternation_depth == 1
    # three interdependent blocks
    g = fm.Mu("A", fm.Nu("B", fm.Mu("C", fm.Or(
        fm.RelVar("C"), fm.Or(fm.RelVar("B"), fm.RelVar("A"))))))
    assert fm.metrics(g).alternation_depth == 3
    assert fm.metrics(fm.Atom(asr.Var("p"))).alternation_depth == 0
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
    assert fm.metrics(fm.parse_formula(text)).alternation_depth == depth


def _negated_twice_at(f, position):
    """f with the binder at preorder ``position`` written as the negation of
    its negation, ``Not(negate(s))``: the same formula with the binder's
    class flipped under a ``!``."""
    count = -1

    def walk(node):
        nonlocal count
        count += 1
        if count == position:
            return fm.Not(fm.negate(node))
        if isinstance(node, (fm.And, fm.Or)):
            return type(node)(walk(node.left), walk(node.right))
        if isinstance(node, (fm.Mu, fm.Nu)):
            return type(node)(node.name, walk(node.sub))
        if isinstance(node, (fm.Diamond, fm.Box, fm.Not)):
            return type(node)(walk(node.sub))
        return node
    return walk(f)


def test_alternation_depth_reads_through_negations():
    # nu Z . !(nu Y . ...) is nu Z . mu Y . <>Z | y & []Y without its !s
    f = fm.parse_formula("nu Z . !(nu Y . !(<>Z) & (!y | <>Y))")
    assert fm.formula_to_str(fm.push_negations(f)) == "nu Z . mu Y . <>Z | y & []Y"
    assert fm.metrics(f).alternation_depth == 2
    # the depth of a formula is that of its negation-free form, whatever
    # binder is written as the negation of its negation
    cases = 0
    for seed in range(150):
        f = random_nested_formula(random.Random(seed))
        depth = fm.metrics(f).alternation_depth
        for i, node in enumerate(fm._subformulas(f)):
            if isinstance(node, (fm.Mu, fm.Nu)):
                g = _negated_twice_at(f, i)
                assert fm.push_negations(g) == fm.push_negations(f)
                assert fm.metrics(g).alternation_depth == depth, (seed, i)
                cases += 1
    assert cases >= 300


def test_metrics_record_what_a_formula_reads():
    f = fm.parse_formula('nu X . (<>X & Y) | mu Y . (@"a -> b" | !c | []Y) | Z')
    m = fm.metrics(f)
    assert (m.free, m.atoms, fm.is_closed(f)) == ({"Y", "Z"}, {"a", "b", "c"}, False)
    assert fm.metrics(fm.builtin("buchi", J="y")).free == frozenset()
    # a binder name the parser would not read back is refused, the first
    # in preorder; a free one is only reported
    bad = fm.Nu("#0", fm.Mu("x", fm.Diamond(fm.RelVar("#0"))))
    with pytest.raises(EmuError, match="'#0'"):
        fm.metrics(bad)
    assert fm.metrics(fm.Diamond(fm.RelVar("#0"))).free == {"#0"}


def test_classify_fragment():
    assert fm.classify_fragment(fm.builtin("buchi", J="y")) == "sys"
    assert fm.classify_fragment(fm.parse_formula("nu X . []X")) == "env"
    assert fm.classify_fragment(fm.parse_formula("mu X . (p | X)")) == "both"
    assert fm.classify_fragment(fm.parse_formula("mu X . (<>X | []X)")) == "mixed"


def test_check_monotone():
    assert fm.check_monotone(fm.parse_formula("nu X . !!X")) is None
    bad = fm.check_monotone(fm.parse_formula("mu X . !X"))
    assert bad == ("X", ("Mu", "Not"))
    assert fm.check_monotone(fm.builtin("buchi", J="y")) is None


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
        assert fm.check_monotone(f) is None


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
        fm.Or(fm.Atom(asr.Not(asr.Var("y"))), fm.Box(fm.RelVar("Z"))),
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
    # negating the atom of a guard written !!y twice gives !!y back, not y
    parity = fm.parity_formula((PriorityRule(asr.parse_assertion("!!y"), 0),
                                PriorityRule(asr.parse_assertion("!y"), 1)))
    for f in (fm.builtin("buchi", J="y"), fm.builtin("cobuchi", J="x"),
              fm.builtin("safety"), parity):
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


def test_safety_reads():
    for text in ["nu X . <>X", "nu X . (p & <>X)", "nu X . ((p & <>X) | !q)",
                 "nu X . (<>X & (p | <>X))", "nu X . p", "mu X . ([]X | p)"]:
        f = fm.parse_formula(text)
        assert fm.safety_reads(f) == set() == fm.safety_reads(fm.negate(f))
    for text in ["mu X . <>X", "nu X . []X", "nu X . (X & <>X)",
                 "nu X . <>(p & X)", "nu X . <>(p & <>X)", "nu X . (<>X & []X)",
                 "nu X . nu Y . <>X", "nu X . !<>!X",
                 "nu X . (<>X & mu Y . <>Y)", "p & <>p"]:
        assert fm.safety_reads(fm.parse_formula(text)) is None, text
    for name, params in [("reach", {"p": "y"}), ("buchi", {"J": "y"}),
                         ("cobuchi", {"J": "y"}), ("dual-buchi", {"J": "y"})]:
        assert fm.safety_reads(fm.builtin(name, **params)) is None
    assert fm.safety_reads(fm.builtin("safety")) == set()
    # the other variables a fixpoint reads, which are its free variables
    for text, reads in [("nu X . (<>X & Y)", {"Y"}),
                        ("nu X . ((Y | <>X) & (p | Z))", {"Y", "Z"}),
                        ("mu X . (Y & []X) | Y", {"Y"}),
                        ("nu X . (<>X & !Y)", None),
                        ("nu X . (<>X & <>Y)", None)]:
        f = fm.parse_formula(text)
        assert fm.safety_reads(f) == reads, text
        if reads is not None:
            assert reads == fm.metrics(f).free


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
    assert fm.metrics(two).alternation_depth == 2


_texts = st.sampled_from([
    "nu Z . mu Y . ((y & <>Z) | <>Y)",
    "mu X . (x | <>X)",
    "nu X . <>X",
    "mu Z . nu Y . ((!y | []Z) & []Y)",
    'mu X . (@"x & !y" | (<>X & []X))',
    "nu A . mu B . (A | !B | <>B)",
    "!y",
    '@"!y"',
    '!@"!y"',
    '@"!!y"',
    '!@"!!y"',
    '@"!(a & b)"',
])


@given(_texts)
def test_print_parse_round_trip(text):
    f = fm.parse_formula(text)
    assert fm.parse_formula(fm.formula_to_str(f)) == f


def test_metrics_invariant_under_renaming():
    a = fm.parse_formula("nu Z . mu Y . ((y & <>Z) | <>Y)")
    b = fm.parse_formula("nu Q . mu R . ((y & <>Q) | <>R)")
    ma, mb = fm.metrics(a), fm.metrics(b)
    assert ma == mb
    assert fm.classify_fragment(a) == fm.classify_fragment(b)


def _printed_corpus():
    """The printed forms of a seeded corpus: assertions over every operator,
    nested formulas with their negations and their ``Not`` wrappings, the
    builtins and parity formulas, whose guards print as ``@"..."`` atoms."""
    rng = random.Random(25)

    def assertion(depth, primed=True):
        if depth == 0 or rng.random() < 0.2:
            if rng.random() < 0.15:
                return rng.choice((asr.TRUE, asr.FALSE))
            name = rng.choice(("a", "b", "c", "X", "mu"))
            return asr.Var(name, primed=primed and rng.random() < 0.3)
        kind = rng.choice((asr.Not, asr.And, asr.Or, asr.Implies, asr.Iff))
        if kind is asr.Not:
            return asr.Not(assertion(depth - 1, primed))
        return kind(assertion(depth - 1, primed), assertion(depth - 1, primed))

    lines = [asr.assertion_to_str(assertion(6)) for _ in range(3000)]
    for _ in range(1000):
        f = random_nested_formula(rng, size=rng.randint(2, 30))
        lines += map(fm.formula_to_str, (f, fm.negate(f), fm.Not(f)))
    for name, params in (("safety", {}), ("reach", {"p": "a -> b"}),
                         ("buchi", {"J": "a <-> !b"}), ("cobuchi", {"J": "c"}),
                         ("dual-buchi", {"J": "(a -> b) -> c"})):
        f = fm.builtin(name, **params)
        lines += map(fm.formula_to_str, (f, fm.negate(f)))
    for _ in range(300):
        rules = [PriorityRule(assertion(3, primed=False), rng.randint(0, 5))
                 for _ in range(rng.randint(1, 4))]
        f = fm.parity_formula(rules)
        lines += map(fm.formula_to_str, (f, fm.negate(f)))
    return lines


def test_printed_bytes_are_pinned():
    # every byte both printers write for the corpus: any change of spacing,
    # parenthesization or escaping shows here
    lines = _printed_corpus()
    assert len(lines) == 6610
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "69b27478b757a36f280f1e39eaf6488f26d1a71655cced258217fddea3d4a4aa"
