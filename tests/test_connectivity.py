"""Degree-propagation deduction engine: rule arithmetic, forward chaining,
replay verification, and the two scenario templates."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
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


# hand-checked rule values

def test_fixed_point_connectedness_rule():
    assert C.rule_connectedness_fixed_point(14, 4) == 7
    assert C.rule_connectedness_fixed_point(8, 2) == 5
    assert C.rule_connectedness_fixed_point(6, 3) == 1
    with pytest.raises(HypothesisNotMet):
        C.rule_connectedness_fixed_point(10, 0)


def test_intersection_connectedness_rule():
    assert C.rule_connectedness_intersection(14, 4, 4) == 5
    assert C.rule_connectedness_intersection(8, 2, 4) == 1
    with pytest.raises(C.OrderViolation):
        C.rule_connectedness_intersection(10, 6, 2)


def test_periodicity_window_rule():
    assert C.rule_periodicity_window(12, 4, 1) == (1, 11)
    assert C.rule_periodicity_window(9, 4, 2) == (2, 7)
    with pytest.raises(HypothesisNotMet):
        C.rule_periodicity_window(8, 4, 2)


def test_transfer_rule():
    assert C.rule_transfer(10, 4, 30, "up") == 11
    assert C.rule_transfer(10, 4, 30, "down") == 10
    assert C.rule_transfer(10, 4, 8, "up") == 8
    with pytest.raises(HypothesisNotMet):
        C.rule_transfer(5, 4, 30, "up")  # needs k < c - 1
    with pytest.raises(HypothesisNotMet):
        C.rule_transfer(6, 4, 4, "down")  # window collapses to the period
    with pytest.raises(ValueError):
        C.rule_transfer(10, 4, 30, "sideways")


def test_extension_rule():
    assert C.rule_extend(40, 10, 13) == 39
    assert C.rule_extend(40, 12, 15) == 18
    with pytest.raises(HypothesisNotMet):
        C.rule_extend(40, 4, 10)
    with pytest.raises(HypothesisNotMet):
        C.rule_extend(40, 10, 12)


def test_rational_upgrade_rule():
    assert C.rule_rational_upgrade(20, 6) == 2
    assert C.rule_rational_upgrade(32, 4) == 4
    with pytest.raises(HypothesisNotMet):
        C.rule_rational_upgrade(19, 6)


def test_borel_counting_rule():
    good = C.rule_borel([2, 4, 2], 8)
    assert good.sum_matches and good.residue_ok
    bad_sum = C.rule_borel([4, 4], 6)
    assert not bad_sum.sum_matches
    bad_residue = C.rule_borel([3, 3, 4], 10)
    assert bad_residue.sum_matches and not bad_residue.residue_ok


def test_fact_validation():
    with pytest.raises(ValueError):
        Fact("Blob", ("M",))
    with pytest.raises(ValueError):
        Fact("Dim", ("M",))
    with pytest.raises(ValueError):
        periodic("M", 4, 1, 10, coefficients="complex")
    with pytest.raises(ValueError):
        periodic("M", 4, 5, 3)


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


def test_fact_rendering():
    assert str(periodic("M", 4, 1, 79, "rational")) == "Periodic(M, 4, 1, 79; rational)"
    assert str(dimension("M", 32)) == "Dim(M, 32)"


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
    """The forward-chaining loop before semi-naive evaluation, verbatim: every
    round re-applies every rule to every input tuple and scans every known
    fact for subsumption."""
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
        for rule in C.RULE_ORDER:
            for inputs in C._candidates(rule, by_kind):
                outputs, conditions = C._APPLIERS[rule](inputs)
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
def _fact_sets(draw):
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
        facts.insert(draw(st.integers(0, len(facts))), _random_fact(draw))
    goal = scenario.goal if base != "none" and draw(st.booleans()) else _random_fact(draw)
    return goal, tuple(facts), draw(st.integers(1, 30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fact_sets())
def test_semi_naive_matches_naive_on_random_fact_sets(case):
    goal, facts, bound = case
    assert_same_as_naive(goal, facts, bound)
    assert_same_as_naive(goal, facts)
