"""Degree-propagation deduction engine: each rule's applier on hand-checked
values, forward chaining, replay verification, and the two scenario
templates."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodica import connectivity as C
from periodica.connectivity import (
    Derivation,
    Fact,
    Saturated,
    Scenario,
    Step,
    codimension,
    connected,
    derive,
    dimension,
    h1_vanishes,
    periodic,
    subsumes,
    verify_derivation,
)
from periodica.periodicity import HypothesisNotMet

import connectivity_reference as R


# hand-checked rule values, fed through the appliers; a refused hypothesis
# is a failed condition and no output

def _refused(result, label):
    outputs, conditions = result
    assert outputs == ()
    assert [c.label for c in conditions if not c.holds] == [label]


def test_fixed_point_connectedness_rule():
    def apply(n, k):
        return C._apply_fixed_point_connectedness(
            (Fact("FixedPointComponent", ("F", "M")), dimension("M", n), codimension("F", "M", k)))

    assert apply(14, 4)[0] == (connected("F", "M", 7),)
    assert apply(8, 2)[0] == (connected("F", "M", 5),)
    assert apply(6, 3)[0] == (connected("F", "M", 1),)
    _refused(apply(10, 0), "positive codimension")


def test_intersection_connectedness_rule():
    def apply(n, ks, kb):
        return C._apply_intersection_connectedness(
            (Fact("TransverseIntersection", ("A", "B", "W")), codimension("A", "M", ks),
             codimension("B", "M", kb), dimension("M", n)))

    assert apply(14, 4, 4)[0][0] == connected("W", "B", 5)
    assert apply(8, 2, 4)[0][0] == connected("W", "B", 1)
    _refused(apply(10, 6, 2), "ordered codimensions")


def test_periodicity_window_rule():
    def apply(d, k, l):
        return C._apply_ambient_periodicity(
            (connected("F", "M", d - k - l), dimension("M", d), codimension("F", "M", k)))

    assert apply(12, 4, 1)[0] == (periodic("M", 4, 1, 11),)
    assert apply(9, 4, 2)[0] == (periodic("M", 4, 2, 7),)
    _refused(apply(8, 4, 2), "n - k - 2l positive")
    # A codimension of 0 would give a window of period 0: refused first, alone.
    assert apply(12, 0, 1) == ((), (C.Condition("positive codimension", "0", False),))


def test_transfer_rule():
    def apply(c, k, hi, direction):
        space = "F" if direction == "up" else "M"
        return C._apply_transfer(direction, (connected("F", "M", c), periodic(space, k, 1, hi)))

    assert apply(10, 4, 30, "up")[0] == (periodic("M", 4, 1, 11),)
    assert apply(10, 4, 30, "down")[0] == (periodic("F", 4, 1, 10),)
    assert apply(10, 4, 8, "up")[0] == (periodic("M", 4, 1, 8),)
    _refused(apply(5, 4, 30, "up"), "0 < k < c - 1")
    _refused(apply(6, 4, 4, "down"), "window longer than period")  # collapses to the period


def _extension_inputs(n, k, hi):
    return (Fact("FixedPointComponent", ("F", "M")), codimension("F", "M", k),
            dimension("M", n), periodic("M", 4, 1, hi))


def test_extension_rule():
    apply = C._apply_extension
    assert apply(_extension_inputs(40, 10, 13))[0] == (periodic("M", 4, 1, 39),)
    assert apply(_extension_inputs(40, 12, 15))[0] == (periodic("M", 4, 1, 18),)
    _refused(apply(_extension_inputs(40, 4, 10)), "codimension at least 6")
    _refused(apply(_extension_inputs(40, 10, 12)), "window reaches k + 3")


def test_rational_upgrade_rule():
    def apply(n, k):
        return C._apply_rational_upgrade(
            (periodic("M", k, 1, n - 1), dimension("M", n),
             h1_vanishes("M", 2), h1_vanishes("M", 3)))

    assert apply(20, 6)[0] == (periodic("M", 2, 1, 19, "rational"),)
    assert apply(32, 4)[0] == (periodic("M", 4, 1, 31, "rational"),)
    _refused(apply(19, 6), "3k <= n - 2")


def test_fact_validation():
    with pytest.raises(ValueError, match=r"^unknown fact kind 'Blob'$"):
        Fact("Blob", ("M",))
    with pytest.raises(ValueError, match=r"^Dim takes 2 arguments$"):
        Fact("Dim", ("M",))
    with pytest.raises(ValueError):
        periodic("M", 4, 1, 10, coefficients="complex")
    with pytest.raises(ValueError):
        periodic("M", 4, 5, 3)
    with pytest.raises(ValueError):
        periodic("M", 4, 4, 3)
    assert periodic("M", 4, 3, 3).args == ("M", 4, 3, 3, "integral")
    with pytest.raises(ValueError, match=r"nonnegative in Codim\(W, M, -5\)"):
        codimension("W", "M", -5)
    assert codimension("W", "M", 0).args == ("W", "M", 0)


def test_fact_from_dict_checks_argument_types():
    assert Fact.from_dict({"kind": "Dim", "args": ["M", 12]}) == dimension("M", 12)
    assert Fact.from_dict(periodic("M", 4, 1, 9).to_dict()) == periodic("M", 4, 1, 9)
    bad = [
        [],
        {"kind": "Dim"},
        {"kind": "Blob", "args": ["M"]},
        {"kind": ["Dim"], "args": ["M", 12]},
        {"kind": "Dim", "args": ["M", "12"]},
        {"kind": "Dim", "args": ["M", [12]]},
        {"kind": "Dim", "args": ["M", True]},
        {"kind": "Dim", "args": ["M", 12.0]},
        {"kind": "Dim", "args": [3, 12]},
        {"kind": "Dim", "args": ["M"]},
        {"kind": "Periodic", "args": ["M", 4, 1, 9, "weird"]},
        {"kind": "Periodic", "args": ["M", 4, 9, 1, "integral"]},
        {"kind": "Codim", "args": ["W", "M", -5]},
    ]
    for d in bad:
        with pytest.raises(ValueError):
            Fact.from_dict(d)
    good = C.four_weight_scenario(40, (2, 2, 4, 4))[0].to_dict()
    assert Scenario.from_dict(good).to_dict() == good
    for broken in ([good], {"goal": good["goal"]}, {**good, "description": 7},
                   {**good, "goal": None}):
        with pytest.raises(ValueError):
            Scenario.from_dict(broken)


def test_fact_constructors_refuse_what_they_would_have_to_coerce():
    for make in (lambda: periodic("M", 4.7, 1, 9), lambda: dimension("M", "12"),
                 lambda: connected("F", "M", True), lambda: codimension("F", "M", 4.0),
                 lambda: h1_vanishes("M", False), lambda: periodic(7, 4, 1, 9),
                 lambda: periodic("M", 4, 1, 9, None)):
        with pytest.raises(ValueError, match="takes"):
            make()
    assert dimension("M", 12).args == ("M", 12)


def test_templates_refuse_what_they_would_have_to_coerce():
    for make in (lambda: C.four_weight_scenario(40, (2, 4.9, 6, 8)),
                 lambda: C.four_weight_scenario(40, (True, 4, 6, 8)),
                 lambda: C.codim_cascade_scenario(80.0)):
        with pytest.raises(ValueError, match="expected ints"):
            make()


def test_fact_rendering():
    assert str(periodic("M", 4, 1, 79, "rational")) == "Periodic(M, 4, 1, 79; rational)"
    assert str(dimension("M", 32)) == "Dim(M, 32)"
    assert repr(dimension("M", 32)) == "Fact(kind='Dim', args=('M', 32))"
    assert (repr(periodic("M", 4, 1, 79, "rational"))
            == "Fact(kind='Periodic', args=('M', 4, 1, 79, 'rational'))")


def test_facts_are_tuples_hashed_and_compared_by_tuple():
    """derive's speed rests on Fact hashing and comparing in C: a Python
    __hash__ or __eq__ on Fact would undo it without failing anything else."""
    assert Fact.__hash__ is tuple.__hash__ and Fact.__eq__ is tuple.__eq__
    fact = periodic("M", 4, 1, 79, "rational")
    assert fact == ("Periodic", ("M", 4, 1, 79, "rational"))
    assert hash(fact) == hash(("Periodic", ("M", 4, 1, 79, "rational")))
    assert fact.to_dict() == {"kind": "Periodic", "args": ["M", 4, 1, 79, "rational"]}
    back = Fact.from_dict(fact.to_dict())
    assert back == fact and type(back) is Fact
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(fact, protocol))
        assert loaded == fact and type(loaded) is Fact
    with pytest.raises(AttributeError):
        fact.kind = "Dim"
    with pytest.raises(AttributeError):
        fact.note = "extra"


def test_subsumption():
    wide = periodic("M", 4, 1, 20)
    narrow = periodic("M", 4, 2, 10)
    assert subsumes(wide, narrow)
    assert not subsumes(narrow, wide)
    assert not subsumes(wide, periodic("N", 4, 2, 10))
    assert not subsumes(wide, periodic("M", 4, 2, 10, "rational"))
    assert subsumes(connected("F", "M", 9), connected("F", "M", 3))
    assert not subsumes(connected("F", "M", 3), connected("F", "M", 9))


def test_empty_facts_saturate():
    with pytest.raises(Saturated):
        derive(periodic("M", 4, 1, 31, "rational"), ())


# the expected codimension triple for each cascade size
CASCADE_GRID = {
    32: (8, 6, 4),
    36: (8, 8, 4),
    40: (10, 8, 6),
    44: (10, 8, 6),
    48: (12, 10, 6),
    52: (12, 10, 8),
    56: (14, 12, 8),
    60: (14, 12, 10),
    64: (16, 12, 10),
    68: (16, 14, 10),
    72: (18, 14, 12),
    76: (18, 16, 12),
    80: (20, 16, 12),
}


def test_codimension_cascade_grid():
    for n, triple in CASCADE_GRID.items():
        scenario, params = C.codim_cascade_scenario(n)
        assert (params["k1"], params["k2"], params["k3"]) == triple, n
        assert params["f3"] == n - sum(triple)
        assert params["f3_lower_bound"] == math.ceil(Fraction(3 * n, 8))
        assert params["f3"] >= params["f3_lower_bound"]
        der = derive(scenario.goal, scenario.facts)
        assert params["derivation"] == der, n
        assert der.final == periodic("M", 4, 1, n - 1, "rational")
        assert verify_derivation(der, scenario.facts), n


def test_cascade_trace_shape():
    scenario, _ = C.codim_cascade_scenario(80)
    der = derive(scenario.goal, scenario.facts)
    rules = [s.rule for s in der.steps]
    assert rules.count("dimension-from-codimension") == 3
    assert rules.count("fixed-point-connectedness") == 3
    assert "torus-fixed-periodicity" in rules
    assert rules.count("window-extension") == 2
    assert rules[-1] == "window-extension"
    # every non-axiom input is produced by an earlier step
    produced = set()
    axioms = set(scenario.facts)
    for step in der.steps:
        for f in step.inputs:
            assert f in axioms or f in produced
        produced.add(step.output)


def test_cascade_template_refusals():
    for n in (30, 25, 20):
        with pytest.raises(HypothesisNotMet):
            C.codim_cascade_scenario(n)


FOUR_WEIGHT_GRID = [
    (40, (2, 2, 4, 4)),
    (48, (4, 4, 4, 4)),
    (48, (2, 4, 6, 8)),
    (56, (2, 2, 6, 6)),
    (64, (4, 6, 6, 8)),
    (64, (2, 4, 4, 6)),
    (72, (4, 4, 8, 8)),
    (80, (2, 6, 8, 8)),
    (20, (4, 4, 4, 4)),
]


def test_four_weight_grid():
    for n, weights in FOUR_WEIGHT_GRID:
        scenario, params = C.four_weight_scenario(n, weights)
        assert params["f"] == n - sum(weights)
        assert params["f"] % 4 == 0
        der = derive(scenario.goal, scenario.facts)
        assert der.final == Fact("OddBettiVanish", ("F",))
        assert verify_derivation(der, scenario.facts), (n, weights)


def test_four_weight_refusals():
    cases = [
        (41, (2, 2, 4, 4)),   # odd ambient dimension
        (40, (2, 3, 4, 4)),   # odd weight
        (40, (4, 2, 4, 4)),   # not ascending
        (12, (2, 2, 4, 4)),   # component dimension 0
        (42, (2, 2, 4, 4)),   # component dimension 30, not divisible by 4
        (40, (2, 2, 4)),      # wrong count
    ]
    for n, weights in cases:
        with pytest.raises(HypothesisNotMet):
            C.four_weight_scenario(n, weights)


def test_replay_rejects_forged_output():
    scenario, _ = C.codim_cascade_scenario(32)
    der = derive(scenario.goal, scenario.facts)
    last = der.steps[-1]
    forged_fact = periodic("M", 4, 1, 32, "rational")
    forged_step = Step(last.rule, last.inputs, forged_fact, last.conditions)
    forged = Derivation(der.goal, der.steps[:-1] + (forged_step,), forged_fact)
    assert not verify_derivation(forged, scenario.facts)


def test_replay_rejects_dropped_step():
    scenario, _ = C.codim_cascade_scenario(32)
    der = derive(scenario.goal, scenario.facts)
    missing_head = Derivation(der.goal, der.steps[1:], der.final)
    assert not verify_derivation(missing_head, scenario.facts)
    missing_tail = Derivation(der.goal, der.steps[:-1], der.final)
    assert not verify_derivation(missing_tail, scenario.facts)


def test_replay_rejects_missing_axiom():
    scenario, _ = C.codim_cascade_scenario(32)
    der = derive(scenario.goal, scenario.facts)
    pruned = tuple(f for f in scenario.facts if f != dimension("M", 32))
    assert not verify_derivation(der, pruned)


def test_replay_rejects_unknown_rule():
    scenario, _ = C.codim_cascade_scenario(32)
    der = derive(scenario.goal, scenario.facts)
    first = der.steps[0]
    renamed = Step("no-such-rule", first.inputs, first.output, first.conditions)
    broken = Derivation(der.goal, (renamed,) + der.steps[1:], der.final)
    assert not verify_derivation(broken, scenario.facts)


def test_replay_rejects_a_step_its_join_does_not_admit():
    """window-transfer-up moves a window on F, not one on the unrelated X."""
    window, conn = periodic("X", 4, 1, 20, "rational"), connected("F", "M", 30)
    axioms = (window, conn, dimension("M", 40))
    moved = periodic("M", 4, 1, 20, "rational")
    outputs, conditions = C.RULES["window-transfer-up"][2]((conn, window))
    assert outputs == (moved,) and all(c.holds for c in conditions)
    forged = Step("window-transfer-up", (conn, window), moved, conditions)
    assert not verify_derivation(Derivation(moved, (forged,), moved), axioms)
    with pytest.raises(Saturated):
        derive(moved, axioms)


def test_replay_rejects_inputs_of_the_wrong_kind_or_type():
    """Swapped inputs made the applier raise; plain tuples equal to the
    facts passed the availability test."""
    scenario, params = C.codim_cascade_scenario(40)
    der = params["derivation"]
    first = der.steps[0]
    for inputs in (first.inputs[::-1], tuple(tuple(f) for f in first.inputs)):
        step = Step(first.rule, inputs, first.output, first.conditions)
        broken = Derivation(der.goal, (step,) + der.steps[1:], der.final)
        assert not verify_derivation(broken, scenario.facts)
    assert verify_derivation(der, scenario.facts)


def test_extra_facts_do_not_block_derivation():
    scenario, _ = C.codim_cascade_scenario(36)
    noise = (
        dimension("Q", 7),
        connected("Q", "M", 2),
        h1_vanishes("Q", 2),
        codimension("Q", "M", 29),
    )
    der = derive(scenario.goal, scenario.facts + noise)
    assert der.final == periodic("M", 4, 1, 35, "rational")
    assert verify_derivation(der, scenario.facts + noise)


def test_scenario_json_round_trip(tmp_path):
    scenario, _ = C.four_weight_scenario(40, (2, 2, 4, 4))
    path = tmp_path / "scenario.json"
    scenario.save(path)
    loaded = Scenario.load(path)
    assert loaded.description == scenario.description
    assert loaded.facts == scenario.facts
    assert loaded.goal == scenario.goal
    der = derive(loaded.goal, loaded.facts)
    assert verify_derivation(der, loaded.facts)


# differential tests: semi-naive derive against the naive loop it replaced

def naive_derive(goal, facts, bound=C.SATURATION_BOUND):
    """The forward-chaining loop before semi-naive evaluation, verbatim but
    for its rule order and candidate enumeration, which it takes from the
    reference, and its appliers, which are the live ones: every round
    re-applies every rule to every input tuple and scans every known fact
    for subsumption."""
    known = list(facts)
    seen = set(known)
    steps = []
    produced_by = {}

    def satisfied():
        for f in known:
            if subsumes(f, goal):
                return f
        return None

    final = satisfied()
    while final is None:
        by_kind = C._by_kind(known)
        new_steps = []
        for rule in R.RULE_ORDER:
            for inputs in R._candidates(rule, by_kind):
                outputs, conditions = C.RULES[rule][2](inputs)
                for out in outputs:
                    if out in seen or any(subsumes(f, out) for f in known):
                        continue
                    new_steps.append(Step(rule, tuple(inputs), out, conditions))
                    known.append(out)
                    seen.add(out)
                    produced_by[out] = new_steps[-1]
                    if len(known) > bound:
                        raise Saturated(f"fact bound {bound} exceeded")
        if not new_steps:
            raise Saturated(f"saturated at {len(known)} facts without the goal")
        steps.extend(new_steps)
        final = satisfied()

    keep = []
    needed = {final}
    for step in reversed(steps):
        if step.output in needed:
            keep.append(step)
            needed.update(step.inputs)
    keep.reverse()
    return Derivation(goal, tuple(keep), final)


def _outcome(run, goal, facts, bound=C.SATURATION_BOUND):
    try:
        return run(goal, facts, bound).to_dict()
    except Saturated as e:
        return f"Saturated: {e}"


def assert_same_as_naive(goal, facts, bound=C.SATURATION_BOUND):
    fast = _outcome(derive, goal, facts, bound)
    assert fast == _outcome(naive_derive, goal, facts, bound), (goal, facts, bound)
    return fast


def test_semi_naive_matches_naive_on_every_cascade_attempt(monkeypatch):
    # The template calls derive by its global name, so wrapping it sees every
    # (k2, k3) candidate tried, the saturating ones included.
    attempts = []

    def checked(goal, facts, bound=C.SATURATION_BOUND):
        outcome = assert_same_as_naive(goal, facts, bound)
        attempts.append(isinstance(outcome, str))
        return derive(goal, facts, bound)

    monkeypatch.setattr(C, "derive", checked)
    for n in range(24, 301, 4):
        try:
            C.codim_cascade_scenario(n)
        except Saturated:
            assert n in (24, 28), n
    assert len(attempts) > 70 and any(attempts) and not all(attempts)


def test_semi_naive_matches_naive_on_four_weight_grid():
    weights = [(a, b, c, d) for a in range(2, 13, 2) for b in range(a, 13, 2)
               for c in range(b, 13, 2) for d in range(c, 13, 2)]
    cases = 0
    for n in range(20, 81, 4):
        for ws in weights:
            if n - sum(ws) <= 0 or (n - sum(ws)) % 4:
                continue
            scenario, _ = C.four_weight_scenario(n, ws)
            assert_same_as_naive(scenario.goal, scenario.facts)
            cases += 1
    for n, ws in FOUR_WEIGHT_GRID:
        scenario, _ = C.four_weight_scenario(n, ws)
        assert isinstance(assert_same_as_naive(scenario.goal, scenario.facts), dict)
    assert cases > 500


def test_semi_naive_matches_naive_with_noise():
    scenario, _ = C.codim_cascade_scenario(36)
    noise = (
        dimension("Q", 7),
        connected("Q", "M", 2),
        h1_vanishes("Q", 2),
        codimension("Q", "M", 29),
    )
    for facts in (scenario.facts + noise, noise + scenario.facts,
                  noise + scenario.facts + noise):
        assert isinstance(assert_same_as_naive(scenario.goal, facts), dict)
    # Axioms that subsume derived facts with another lower end or bound:
    # F2 (dimension 20) sits in F1 with codimension 8 and holds F3 with
    # codimension 4.
    stronger = (periodic("F2", 4, 1, 19), periodic("F1", 4, 1, 27, "rational"),
                connected("F3", "F2", 15))
    for extra in stronger:
        for facts in (scenario.facts + (extra,), (extra,) + scenario.facts):
            assert_same_as_naive(scenario.goal, facts)
            assert_same_as_naive(Fact("OddBettiVanish", ("M",)), facts)


_NAMES = st.sampled_from(("M", "N", "F", "W"))
_NUMBERS = {"H1Vanishes": st.sampled_from((0, 2, 3)), "TorusSymmetry": st.integers(0, 5)}


def _random_fact(draw):
    kind = draw(st.sampled_from(sorted(C.FACT_KINDS)))
    if kind == "Periodic":
        lo = draw(st.integers(1, 4))
        return periodic(draw(_NAMES), draw(st.sampled_from((2, 4, 6))), lo,
                        draw(st.integers(lo, 40)),
                        draw(st.sampled_from(("integral", "rational"))))
    numbers = _NUMBERS.get(kind, st.integers(0, 40))
    return Fact(kind, tuple(draw(_NAMES if t is str else numbers)
                            for t in C.FACT_KINDS[kind]))


@st.composite
def _fact_sets(draw, random_fact=_random_fact):
    """A template scenario with facts dropped and random facts mixed in, or
    random facts alone; a goal from the template or drawn; a bound 1..30."""
    base = draw(st.sampled_from(("none", "cascade", "four-weight")))
    if base == "cascade":
        scenario, _ = C.codim_cascade_scenario(draw(st.sampled_from((32, 40, 56))))
    elif base == "four-weight":
        scenario, _ = C.four_weight_scenario(*draw(st.sampled_from(FOUR_WEIGHT_GRID)))
    facts = [] if base == "none" else list(scenario.facts)
    facts = [f for f in facts if draw(st.integers(0, 9))]
    for _ in range(draw(st.integers(0, 8 if facts else 16))):
        facts.insert(draw(st.integers(0, len(facts))), random_fact(draw))
    goal = scenario.goal if base != "none" and draw(st.booleans()) else random_fact(draw)
    return goal, tuple(facts), draw(st.integers(1, 30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fact_sets())
def test_semi_naive_matches_naive_on_random_fact_sets(case):
    goal, facts, bound = case
    assert_same_as_naive(goal, facts, bound)
    assert_same_as_naive(goal, facts)


# differential tests: each rule's RULES join against the candidate
# enumeration it replaced (connectivity_reference._candidates)

_UNREACHABLE = Fact("OddBettiVanish", ("nowhere",))


def test_rules_keep_the_reference_order_and_kinds():
    assert list(C.RULES) == list(R.RULE_ORDER)
    assert {rule: kinds for rule, (kinds, _, _) in C.RULES.items()} == R.RULE_INPUTS


def assert_joins_match_the_reference(by_kind):
    """Each rule's join, handed the lists of by_kind as derive hands them,
    yields exactly the reference's tuples in the reference's order.  Returns
    the tuples per rule."""
    tuples = {}
    for rule, (kinds, join, _) in C.RULES.items():
        tuples[rule] = list(join(*(by_kind.get(k, ()) for k in kinds)))
        assert tuples[rule] == list(R._candidates(rule, by_kind)), (rule, by_kind)
    return tuples


def _join_inputs(goal, facts):
    """The fact lists derive hands each join, round by round, on the way to
    goal and on to saturation (a goal no rule reaches), as by_kind dicts."""
    seen = []

    def recording(kinds, join):
        def run(*lists):
            seen.append(dict(zip(kinds, map(list, lists))))
            return join(*lists)
        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "RULES", {rule: (kinds, recording(kinds, join), apply)
                                for rule, (kinds, join, apply) in C.RULES.items()})
        for target in (goal, _UNREACHABLE):
            try:
                derive(target, facts)
            except Saturated:
                pass
    return seen


def test_joins_match_the_reference_on_the_grids():
    weights = [(a, b, c, d) for a in range(2, 13, 2) for b in range(a, 13, 2)
               for c in range(b, 13, 2) for d in range(c, 13, 2)]
    scenarios = [C.codim_cascade_scenario(n)[0] for n in range(32, 301, 4)]
    scenarios += [C.four_weight_scenario(n, ws)[0] for n in range(20, 81, 4) for ws in weights
                  if n - sum(ws) > 0 and (n - sum(ws)) % 4 == 0]
    fired = set()
    for scenario in scenarios:
        for by_kind in _join_inputs(scenario.goal, scenario.facts):
            tuples = assert_joins_match_the_reference(by_kind)
            fired.update(rule for rule, found in tuples.items() if found)
    assert len(scenarios) > 500 and fired == set(C.RULES)


@st.composite
def _join_cases(draw):
    """_fact_sets' facts with a core mixed in: two transverse intersections
    of one pair of submanifolds, one in each order, with distinct
    codimensions in one ambient, and a torus-fixed component of an ambient
    with vanishing odd Betti numbers."""
    _, facts, _ = draw(_fact_sets())
    a, b, amb = draw(st.permutations(("M", "N", "F", "W")))[:3]
    ka, kb = draw(st.lists(st.integers(0, 40), min_size=2, max_size=2, unique=True))
    core = (Fact("TransverseIntersection", (a, b, "X")),
            Fact("TransverseIntersection", (b, a, "Y")),
            codimension(a, amb, ka), codimension(b, amb, kb),
            dimension(amb, draw(st.integers(0, 40))),
            Fact("OddBettiVanish", (amb,)), Fact("TorusFixedComponent", (draw(_NAMES), amb)))
    facts = list(facts)
    for fact in core:
        facts.insert(draw(st.integers(0, len(facts))), fact)
    return tuple(facts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_join_cases())
def test_joins_match_the_reference_on_random_fact_sets(facts):
    tuples = assert_joins_match_the_reference(C._by_kind(facts))
    # The smaller codimension comes first, so one of the core's two
    # intersections is yielded with its codimensions swapped.
    swapped = [t[1].args[0] != t[0].args[0] for t in tuples["intersection-connectedness"]]
    assert any(swapped) and not all(swapped)
    assert any(t[1].kind == "TorusFixedComponent" for t in tuples["betti-descent"])
    for by_kind in _join_inputs(_UNREACHABLE, facts):
        assert_joins_match_the_reference(by_kind)


# differential test: replay of forged single steps against a brute-force
# oracle

def replay_oracle(step, axioms):
    """A single step replays when its rule's reference enumeration over all
    the axioms yields its inputs and the applier reproduces its output and
    conditions."""
    if (step.rule not in C.RULES
            or step.inputs not in R._candidates(step.rule, C._by_kind(axioms))):
        return False
    outputs, conditions = C.RULES[step.rule][2](step.inputs)
    return step.output in outputs and conditions == step.conditions


@st.composite
def _forged_steps(draw):
    """_join_cases' facts and one step, mostly of a rule whose join yields
    some tuple: on such a tuple, maybe with one input replaced by another
    fact of its kind and then maybe permuted, or on any facts; with the
    applier's output and conditions on that tuple before the permutation,
    one condition flipped, or a random output."""
    facts = draw(_join_cases())
    by_kind = C._by_kind(facts)
    live = [rule for rule in C.RULES if any(R._candidates(rule, by_kind))]
    rule = draw(st.sampled_from(live if live and draw(st.integers(0, 4))
                                else list(C.RULES) + ["no-such-rule"]))
    genuine = list(R._candidates(rule, by_kind)) if rule in C.RULES else []
    outputs, conditions = (), ()
    if genuine and draw(st.integers(0, 9)):
        inputs = list(draw(st.sampled_from(genuine)))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(inputs) - 1))
            inputs[i] = draw(st.sampled_from(by_kind[inputs[i].kind]))
        outputs, conditions = C.RULES[rule][2](tuple(inputs))
        if not draw(st.integers(0, 3)):
            inputs = draw(st.permutations(inputs))
    else:
        inputs = draw(st.lists(st.sampled_from(facts), min_size=1, max_size=5))
    output = draw(st.sampled_from(outputs)) if outputs and draw(st.integers(0, 3)) \
        else _random_fact(draw)
    if conditions and not draw(st.integers(0, 4)):
        i = draw(st.integers(0, len(conditions) - 1))
        label, value, holds = conditions[i]
        conditions = conditions[:i] + (C.Condition(label, value, not holds),) + conditions[i + 1:]
    return facts, Step(rule, tuple(inputs), output, conditions)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_forged_steps())
def test_replay_of_forged_steps_matches_the_oracle(case):
    facts, step = case
    derivation = Derivation(step.output, (step,), step.output)
    assert verify_derivation(derivation, facts) == replay_oracle(step, facts), step


# byte identity: derive against the records, appliers and cascade template
# as they stood with Fraction arithmetic (connectivity_reference.py)

def _attempt(run, goal, facts, bound):
    try:
        return run(goal, facts, bound)
    except Saturated as e:
        return e


def _as_data(outcome):
    return f"Saturated: {outcome}" if isinstance(outcome, Saturated) else outcome.to_dict()


def _recast(derivation, step, condition):
    """derivation with its steps and conditions rebuilt as the given records."""
    steps = tuple(step(s.rule, s.inputs, s.output,
                       tuple(condition(c.label, c.value, c.holds) for c in s.conditions))
                  for s in derivation.steps)
    return Derivation(derivation.goal, steps, derivation.final)


def assert_same_as_reference(goal, facts, bound=C.SATURATION_BOUND):
    """derive and the reference agree under to_dict (or in the Saturated
    message), and each side's verify_derivation replays both derivations.
    Returns derive's derivation or its Saturated."""
    mine = _attempt(derive, goal, facts, bound)
    theirs = _attempt(R.derive, goal, facts, bound)
    assert _as_data(mine) == _as_data(theirs), (goal, facts, bound)
    if not isinstance(mine, Saturated):
        for der in (mine, _recast(theirs, Step, C.Condition)):
            assert verify_derivation(der, facts)
        for der in (theirs, _recast(mine, R.Step, R.Condition)):
            assert R.verify_derivation(der, facts)
    return mine


def _template_data(run, n):
    try:
        scenario, params = run(n)
    except Saturated as e:
        return f"Saturated: {e}"
    return scenario.to_dict(), {**params, "derivation": params["derivation"].to_dict()}


def test_derivations_match_the_reference_on_every_cascade_attempt(monkeypatch):
    # Every (k2, k3) candidate the template tries, the saturating ones
    # included, goes through derive by its global name.
    attempts = []

    def checked(goal, facts, bound=C.SATURATION_BOUND):
        outcome = assert_same_as_reference(goal, facts, bound)
        attempts.append(isinstance(outcome, Saturated))
        if isinstance(outcome, Saturated):
            raise outcome
        return outcome

    monkeypatch.setattr(C, "derive", checked)
    for n in range(24, 1997, 4):
        before = len(attempts)
        assert (_template_data(C.codim_cascade_scenario, n)
                == _template_data(R.codim_cascade_scenario, n)), n
        assert len(attempts) > before or n in (24, 28)
    assert len(attempts) > 500 and any(attempts) and not all(attempts)


def test_derivations_match_the_reference_on_the_four_weight_grid():
    weights = [(a, b, c, d) for a in range(2, 13, 2) for b in range(a, 13, 2)
               for c in range(b, 13, 2) for d in range(c, 13, 2)]
    derived = 0
    for n in range(20, 81, 4):
        for ws in weights:
            if n - sum(ws) <= 0 or (n - sum(ws)) % 4:
                continue
            scenario, _ = C.four_weight_scenario(n, ws)
            derived += not isinstance(
                assert_same_as_reference(scenario.goal, scenario.facts), Saturated)
    for n, ws in FOUR_WEIGHT_GRID:
        scenario, _ = C.four_weight_scenario(n, ws)
        assert not isinstance(assert_same_as_reference(scenario.goal, scenario.facts),
                              Saturated)
    assert derived > 500


def test_derivations_match_the_reference_with_noise():
    scenario, _ = C.codim_cascade_scenario(36)
    noise = (
        dimension("Q", 7),
        connected("Q", "M", 2),
        h1_vanishes("Q", 2),
        codimension("Q", "M", 29),
    )
    stronger = (periodic("F2", 4, 1, 19), periodic("F1", 4, 1, 27, "rational"),
                connected("F3", "F2", 15))
    cases = [scenario.facts + noise, noise + scenario.facts, noise + scenario.facts + noise]
    cases += [facts for extra in stronger
              for facts in (scenario.facts + (extra,), (extra,) + scenario.facts)]
    for facts in cases:
        for goal in (scenario.goal, Fact("OddBettiVanish", ("M",))):
            assert_same_as_reference(goal, facts)


def test_derivations_match_the_reference_at_the_fractional_bounds():
    """Both sides of 4k <= n + 3 (window-extension) and 3f >= n + 1
    (torus-fixed-periodicity), which no template reaches with n = 4k - 3."""
    derived = 0
    for n in range(20, 61):
        for k in range(6, 17):
            facts = (Fact("FixedPointComponent", ("F", "M")), codimension("F", "M", k),
                     dimension("M", n), periodic("M", 4, 1, k + 3))
            outcome = assert_same_as_reference(periodic("M", 4, 1, k + 4), facts)
            derived += 4 * k == n + 3 and not isinstance(outcome, Saturated)
        for f in range(n // 3 - 2, n // 3 + 3):
            facts = (Fact("RicciPositive", ("M",)), Fact("TorusSymmetry", ("M", 3)),
                     Fact("TorusFixedComponent", ("F", "M")), dimension("M", n),
                     dimension("F", f))
            outcome = assert_same_as_reference(periodic("F", 4, 1, 1, "rational"), facts)
            derived += 3 * f == n + 1 and not isinstance(outcome, Saturated)
    assert derived == 10 + 14


def test_integer_rule_values_print_as_fractions_did():
    for num in range(-40, 41):
        for den in (1, 2, 3, 4, 7, 8, 10):
            assert C._ratio(num, den) == str(Fraction(num, den)), (num, den)
            assert C._even_floor(num, den) == (math.floor(Fraction(num, den)) // 2) * 2
    for n in range(-10, 60):
        for k in range(6, 20):
            end = R.rule_extend(n, k, k + 3)
            outputs, conditions = C._apply_extension(_extension_inputs(n, k, k + 3))
            assert conditions[-1] == ("extension strictly grows", f"{end} > {k + 3}",
                                      end > k + 3), (n, k)
            assert outputs == ((periodic("M", 4, 1, end),) if end > k + 3 else ()), (n, k)


# well-formed axioms derive well-formed facts; malformed ones are refused

def _well_formed_fact(draw, kind=None, names=_NAMES, top=40):
    """Any well-formed fact, of the given kind or any, with numbers up to
    top: they may be negative except periods and codimensions."""
    kind = kind or draw(st.sampled_from(sorted(C.FACT_KINDS)))
    if kind == "Periodic":
        lo = draw(st.integers(-2, 4))
        return periodic(draw(names), draw(st.integers(1, 8)), lo, draw(st.integers(lo, top)),
                        draw(st.sampled_from(("integral", "rational"))))
    numbers = st.integers(0, top) if kind == "Codim" else st.integers(-8, top)
    return Fact.from_dict({"kind": kind, "args": [draw(names if t is str else numbers)
                                                  for t in C.FACT_KINDS[kind]]})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fact_sets(_well_formed_fact))
def test_well_formed_axioms_derive_well_formed_facts(case):
    goal, facts, bound = case
    produced = []

    def recording(apply):
        def run(inputs):
            outputs, conditions = apply(inputs)
            produced.extend(outputs)
            return outputs, conditions
        return run

    # derive raises nothing but Saturated, matches the reference and replays.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "RULES", {rule: (kinds, join, recording(apply))
                                for rule, (kinds, join, apply) in C.RULES.items()})
        assert_same_as_reference(goal, facts, bound)
    for fact in produced:
        assert Fact.from_dict(fact.to_dict()) == fact, fact


@st.composite
def _rule_facts(draw):
    """Up to three well-formed facts of every kind but H1Vanishes, over two
    names and small numbers so that the joins meet and windows fit
    dimensions; and some of the six H1Vanishes facts the joins read."""
    names = st.sampled_from(("M", "F"))
    facts = [h1_vanishes(space, prime) for space in ("M", "F") for prime in (0, 2, 3)
             if draw(st.booleans())]
    for kind in C.FACT_KINDS:
        if kind != "H1Vanishes":
            facts += [_well_formed_fact(draw, kind, names, top=24)
                      for _ in range(draw(st.integers(0, 3)))]
    return facts


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_rule_facts())
@example(list(C.codim_cascade_scenario(40)[0].facts))
@example(list(C.four_weight_scenario(40, (2, 4, 6, 8))[0].facts))
def test_every_rule_builds_only_facts_typed_accepts(facts):
    """The appliers build their outputs unchecked (_fact); every output of
    every join's tuples must still be a Fact that _typed accepts as is.
    Outputs join the facts for up to nine more rounds, so that the rules
    reading derived windows see some."""
    for _ in range(10):
        by_kind = C._by_kind(facts)
        outputs = []
        for rule, (kinds, join, apply) in C.RULES.items():
            for inputs in join(*(by_kind.get(k, ()) for k in kinds)):
                for out in apply(inputs)[0]:
                    assert type(out) is Fact, (rule, inputs, out)
                    assert C._typed(out.kind, out.args) == out, (rule, inputs, out)
                    outputs.append(out)
        grown = list(dict.fromkeys(facts + outputs))
        if len(grown) == len(facts):
            break
        facts = grown


def test_every_bound_to_40_matches_the_reference():
    """The bound is checked as each output is recorded: at every bound from
    1 to 40, derive and the reference give the same derivation or the same
    Saturated message."""
    outcomes = []
    for scenario in (C.codim_cascade_scenario(80)[0],
                     C.four_weight_scenario(40, (2, 4, 6, 8))[0]):
        for bound in range(1, 41):
            outcomes.append(isinstance(
                assert_same_as_reference(scenario.goal, scenario.facts, bound), Saturated))
    assert any(outcomes) and not all(outcomes)
    assert not outcomes[39] and not outcomes[79]


def test_a_codimension_of_zero_derives_no_window():
    """From Codim(F, M, 0), ambient-periodicity built Periodic(M, 0, 1, 11);
    rational-upgrade read its period as gcd(4, 0) = 4, so derive reached
    OddBettiVanish(M), and verify_derivation replayed that chain True."""
    axioms = (connected("F", "M", 11), dimension("M", 12), codimension("F", "M", 0),
              h1_vanishes("M", 2), h1_vanishes("M", 3), h1_vanishes("M", 0))
    conn, dim, cod, h2, h3, h0 = axioms
    goal = Fact("OddBettiVanish", ("M",))
    # Only Dim(F, 12) is derived.
    with pytest.raises(Saturated, match="saturated at 7 facts"):
        derive(goal, axioms)
    assert isinstance(assert_same_as_reference(goal, axioms), Saturated)
    # The chain as it was derived, with its period-0 window forged in.
    zero = Fact("Periodic", ("M", 0, 1, 11, "integral"))
    rational, upgrade = C._apply_rational_upgrade((zero, dim, h2, h3))
    vanish, parity = C._apply_odd_betti((rational[0], dim, h0))
    steps = (Step("ambient-periodicity", (conn, dim, cod), zero,
                  (C.Condition("window offset at least 1", "1", True),
                   C.Condition("n - k - 2l positive", "10", True))),
             Step("rational-upgrade", (zero, dim, h2, h3), rational[0], upgrade),
             Step("odd-betti-vanishing", (rational[0], dim, h0), goal, parity))
    assert rational == (periodic("M", 4, 1, 11, "rational"),) and vanish == (goal,)
    forged = Derivation(goal, steps, goal)
    assert not verify_derivation(forged, axioms)
    assert not R.verify_derivation(forged, axioms)


MALFORMED_AXIOMS = {
    "negative-codimension": (Fact("Codim", ("W", "M", -5)), "codimension must be nonnegative"),
    "zero-period": (Fact("Periodic", ("M", 0, 1, 3, "integral")), "period must be at least 1"),
    "reversed-window": (Fact("Periodic", ("M", 4, 4, 3, "integral")), "lo <= hi"),
    "unknown-coefficients": (Fact("Periodic", ("M", 4, 1, 3, "complex")), "coefficients"),
    "bool-dimension": (Fact("Dim", ("W", True)), "takes"),
}


@pytest.mark.parametrize("name", MALFORMED_AXIOMS)
def test_malformed_axioms_are_refused_before_any_rule_fires(monkeypatch, name):
    bad, message = MALFORMED_AXIOMS[name]
    # With Codim(W, M, -5), ambient-periodicity here would build the window
    # 3..1 of Periodic(M, -5, 3, 1; integral).
    facts = (dimension("M", 4), connected("W", "M", 6), bad)
    goal = periodic("M", 4, 1, 3)
    with pytest.raises(ValueError, match=message):
        Fact.from_dict(bad.to_dict())
    with pytest.raises(ValueError, match=message):
        Scenario.from_dict(Scenario("bad axiom", facts, goal).to_dict())
    scenario, _ = C.codim_cascade_scenario(32)
    der = derive(scenario.goal, scenario.facts)

    def fires(inputs):
        raise AssertionError("a rule fired on a malformed axiom")

    monkeypatch.setattr(C, "RULES", {rule: (kinds, join, fires)
                                     for rule, (kinds, join, apply) in C.RULES.items()})
    for axioms in (facts, (bad,) + facts, scenario.facts + (bad,)):
        with pytest.raises(ValueError, match=message):
            derive(goal, axioms)
        with pytest.raises(ValueError, match=message):
            verify_derivation(der, axioms)


MALFORMED_GOALS = {
    "reversed-window": (Fact("Periodic", ("M", 4, 40, 2, "rational")), "lo <= hi"),
    "float-bound": (Fact("Periodic", ("M", 4, 1, 2.5, "rational")), "takes"),
}


@pytest.mark.parametrize("name", MALFORMED_GOALS)
def test_malformed_goals_are_refused(name):
    """Without the check, derive reached the reversed window through
    Periodic(M, 4, 1, 12; rational), and verify_derivation accepted it."""
    bad, message = MALFORMED_GOALS[name]
    scenario, _ = C.codim_cascade_scenario(32)
    with pytest.raises(ValueError, match=message):
        derive(bad, scenario.facts)
    der = derive(scenario.goal, scenario.facts)
    with pytest.raises(ValueError, match=message):
        verify_derivation(Derivation(bad, der.steps, der.final), scenario.facts)


@pytest.mark.parametrize("bad", [("OddBettiVanish", ("F",)), ("Dim", ("M", 40)), None,
                                 "Dim(M, 40)"])
def test_a_goal_or_axiom_that_is_not_a_fact_is_refused(bad):
    """derive and verify_derivation raised AttributeError for a plain tuple
    or None as the goal or an axiom."""
    scenario, _ = C.codim_cascade_scenario(32)
    der = derive(scenario.goal, scenario.facts)
    for call in (lambda: derive(bad, scenario.facts),
                 lambda: derive(scenario.goal, scenario.facts + (bad,)),
                 lambda: verify_derivation(Derivation(bad, der.steps, der.final), scenario.facts),
                 lambda: verify_derivation(der, scenario.facts + (bad,))):
        with pytest.raises(ValueError, match="expected a Fact"):
            call()


def test_a_final_that_is_not_a_fact_replays_false():
    """A plain tuple equal to the final fact replayed True, as step inputs
    spelled as tuples no longer do."""
    scenario, params = C.codim_cascade_scenario(40)
    der = params["derivation"]
    assert verify_derivation(der, scenario.facts)
    for final in (tuple(der.final), None):
        assert not verify_derivation(Derivation(der.goal, der.steps, final), scenario.facts)


def test_list_arguments_are_refused():
    """A Fact built with a list of arguments: derive answered Saturated for a
    goal that is an axiom and raised TypeError (unhashable) for such an axiom,
    and verify_derivation answered False or raised TypeError."""
    listed = Fact("Dim", ["M", 4])
    for goal, axioms in ((listed, [dimension("M", 4)]), (dimension("M", 4), [listed])):
        with pytest.raises(ValueError, match="must be a tuple"):
            derive(goal, axioms)
        with pytest.raises(ValueError, match="must be a tuple"):
            verify_derivation(Derivation(goal, (), dimension("M", 4)), axioms)
