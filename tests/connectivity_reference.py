"""The derivation records, rule appliers, forward chaining and cascade
template of periodica.connectivity as they stood before the rules moved to
integer arithmetic, tuple records and unchecked Fact construction, verbatim:
the reference that every derivation must match byte for byte.  The candidate
enumeration `_candidates`, `RULE_ORDER` and `RULE_INPUTS` are copied, verbatim
too, as they stood before each rule became one `RULES` entry with its own
join: the reference the joins must match tuple for tuple.

The rule arithmetic these appliers call is copied verbatim as well:
`rule_extend` as it stood before the move to integer arithmetic, and the
other four rules with `OrderViolation` as they stood before the live
appliers took their arithmetic inline.  Everything else those rewrites left
alone (facts, subsumption) is imported from the live module.

One edit since: `_apply_ambient_periodicity` refuses a codimension below 1
first, as the live applier does, because a window of period 0 is no fact.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from periodica.connectivity import (
    SATURATION_BOUND,
    Derivation,
    Fact,
    Saturated,
    Scenario,
    _by_kind,
    _check_ints,
    _subsumption_key,
    codimension,
    connected,
    dimension,
    periodic,
    subsumes,
)
from periodica.periodicity import HypothesisNotMet


class OrderViolation(ValueError):
    """Codimension arguments supplied in the wrong order."""


def rule_connectedness_fixed_point(n: int, k: int) -> int:
    """Connectivity of a circle-action fixed-point component inclusion."""
    if k <= 0:
        raise HypothesisNotMet("codimension must be positive")
    return n - 2 * k + 1


def rule_connectedness_intersection(n: int, k1: int, k2: int) -> int:
    """Connectivity of a transverse intersection inside the larger-codimension side."""
    if k1 > k2:
        raise OrderViolation("codimensions must satisfy k1 <= k2")
    return n - k1 - k2 - 1


def rule_periodicity_window(n: int, k: int, l: int) -> tuple:
    """Window produced by a (n-k-l)-connected codimension-k inclusion."""
    if n - k - 2 * l <= 0:
        raise HypothesisNotMet(f"need n - k - 2l > 0, got {n - k - 2 * l}")
    return (l, n - l)


def rule_rational_upgrade(n: int, k: int) -> int:
    """Rational period after combining the mod-2 and mod-3 lifts."""
    if 3 * k > n - 2:
        raise HypothesisNotMet(f"need 3k <= n - 2, got 3*{k} > {n} - 2")
    return math.gcd(4, k)


def rule_extend(n: int, k: int, hi: int) -> int:
    """Extend a 4-periodic window 1..k+3 past a codimension-k fixed component."""
    if k < 6:
        raise HypothesisNotMet("extension needs codimension at least 6")
    if hi < k + 3:
        raise HypothesisNotMet(f"need the window to reach k + 3 = {k + 3}")
    if Fraction(k) <= Fraction(n + 3, 4):
        return n - 1
    return n - 2 * k + 2



@dataclass(frozen=True)
class Condition:
    label: str
    value: str
    holds: bool


@dataclass(frozen=True)
class Step:
    rule: str
    inputs: tuple
    output: Fact
    conditions: tuple

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "inputs": [f.to_dict() for f in self.inputs],
            "output": self.output.to_dict(),
            "conditions": [{"label": c.label, "value": c.value, "holds": c.holds}
                           for c in self.conditions],
        }



def _cond(label, value, holds):
    return Condition(label, str(value), bool(holds))


# Appliers: (inputs) -> (outputs, conditions).  Outputs are empty whenever a
# condition fails, so the same code drives both search and replay.

def _apply_dim_from_codim(inputs):
    cod, dim = inputs
    sub, amb, k = cod.args
    n = dim.args[1]
    conds = (_cond("codimension below dimension", f"{k} < {n}", k < n),)
    if not conds[0].holds:
        return (), conds
    return (dimension(sub, n - k),), conds


def _apply_fixed_point_connectedness(inputs):
    fpc, dim, cod = inputs
    sub, amb = fpc.args
    n = dim.args[1]
    k = cod.args[2]
    ok = k > 0
    conds = (_cond("positive codimension", k, ok),)
    if not ok:
        return (), conds
    c = rule_connectedness_fixed_point(n, k)
    conds += (_cond("connectivity nonnegative", c, c >= 0),)
    if c < 0:
        return (), conds
    return (connected(sub, amb, c),), conds


def _apply_intersection_connectedness(inputs):
    trans, cod_small, cod_big, dim = inputs
    w = trans.args[2]
    small, amb, ks = cod_small.args
    big, amb2, kb = cod_big.args
    n = dim.args[1]
    conds = (_cond("ordered codimensions", f"{ks} <= {kb}", ks <= kb),
             _cond("intersection nonempty", f"{ks + kb} < {n}", ks + kb < n))
    if not all(c.holds for c in conds):
        return (), conds
    c = rule_connectedness_intersection(n, ks, kb)
    return (connected(w, big, c),
            dimension(w, n - ks - kb),
            codimension(w, big, ks),
            codimension(w, small, kb)), conds


def _apply_ambient_periodicity(inputs):
    conn, dim, cod = inputs
    sub, amb, c = conn.args
    d = dim.args[1]
    k = cod.args[2]
    if k < 1:
        return (), (_cond("positive codimension", k, False),)
    l = d - k - c
    conds = (_cond("window offset at least 1", l, l >= 1),
             _cond("n - k - 2l positive", d - k - 2 * l, d - k - 2 * l > 0))
    if not all(x.holds for x in conds):
        return (), conds
    lo, hi = rule_periodicity_window(d, k, l)
    return (periodic(amb, k, lo, hi, "integral"),), conds


def _apply_torus_fixed_periodicity(inputs):
    ricci, torus, tfc, dim_m, dim_f = inputs
    space = ricci.args[0]
    rank = torus.args[1]
    sub = tfc.args[0]
    n = dim_m.args[1]
    f = dim_f.args[1]
    bound = Fraction(n + 1, 3)
    conds = (_cond("torus rank at least 3", rank, rank >= 3),
             _cond("fixed component large", f"{f} >= {bound}", Fraction(f) >= bound),
             _cond("window nontrivial", f, f >= 2))
    if not all(c.holds for c in conds):
        return (), conds
    return (periodic(sub, 4, 1, f - 1, "rational"),), conds


def _apply_rational_upgrade(inputs):
    per, dim, h2, h3 = inputs
    space, k, lo, hi, tag = per.args
    n = dim.args[1]
    conds = (_cond("full integral window", f"1..{hi} vs 1..{n - 1}",
                   lo == 1 and hi == n - 1 and tag == "integral"),
             _cond("3k <= n - 2", f"3*{k} <= {n - 2}", 3 * k <= n - 2))
    if not all(c.holds for c in conds):
        return (), conds
    kq = rule_rational_upgrade(n, k)
    return (periodic(space, kq, 1, n - 1, "rational"),), conds


def _apply_transfer(direction, inputs):
    conn, per = inputs
    sub, amb, c = conn.args
    space, k, lo, hi, tag = per.args
    conds = (_cond("0 < k < c - 1", f"k = {k}, c = {c}", 0 < k < c - 1),
             _cond("window starts at 1", lo, lo == 1))
    if not all(x.holds for x in conds):
        return (), conds
    out = min(hi, c + 1 if direction == "up" else c)
    conds += (_cond("window longer than period", f"{out} > {k}", out > k),)
    if out <= k:
        return (), conds
    return (periodic(amb if direction == "up" else sub, k, 1, out, tag),), conds


def _apply_extension(inputs):
    fpc, cod, dim, per = inputs
    sub, amb = fpc.args
    k = cod.args[2]
    n = dim.args[1]
    space, period, lo, hi, tag = per.args
    conds = (_cond("period is 4", period, period == 4),
             _cond("window starts at 1", lo, lo == 1),
             _cond("codimension at least 6", k, k >= 6),
             _cond("window reaches k + 3", f"{hi} >= {k + 3}", hi >= k + 3))
    if not all(c.holds for c in conds):
        return (), conds
    part2 = Fraction(k) <= Fraction(n + 3, 4)
    conds += (_cond("k <= (n+3)/4", f"{k} vs {Fraction(n + 3, 4)}", part2),)
    out = rule_extend(n, k, hi)
    conds += (_cond("extension strictly grows", f"{out} > {hi}", out > hi),)
    if out <= hi:
        return (), conds
    return (periodic(amb, 4, 1, out, tag),), conds


def _apply_odd_betti(inputs):
    per, dim, h1 = inputs
    space, k, lo, hi, tag = per.args
    n = dim.args[1]
    parity = (k == 4 and n % 4 == 0) or (k == 2 and n % 2 == 0)
    conds = (_cond("full rational window", f"1..{hi} vs 1..{n - 1}",
                   lo == 1 and hi == n - 1 and tag == "rational"),
             _cond("period-dimension parity", f"k = {k}, n = {n}", parity))
    if not all(c.holds for c in conds):
        return (), conds
    return (Fact("OddBettiVanish", (space,)),), conds


def _apply_betti_descent(inputs):
    betti, comp = inputs
    sub = comp.args[0]
    return (Fact("OddBettiVanish", (sub,)),), ()


_APPLIERS = {
    "dimension-from-codimension": _apply_dim_from_codim,
    "fixed-point-connectedness": _apply_fixed_point_connectedness,
    "intersection-connectedness": _apply_intersection_connectedness,
    "ambient-periodicity": _apply_ambient_periodicity,
    "torus-fixed-periodicity": _apply_torus_fixed_periodicity,
    "rational-upgrade": _apply_rational_upgrade,
    "window-transfer-up": partial(_apply_transfer, "up"),
    "window-transfer-down": partial(_apply_transfer, "down"),
    "window-extension": _apply_extension,
    "odd-betti-vanishing": _apply_odd_betti,
    "betti-descent": _apply_betti_descent,
}


def _candidates(rule, by_kind):
    """Input tuples a rule may consume, in deterministic order."""
    def facts(kind):
        return by_kind.get(kind, [])

    if rule == "dimension-from-codimension":
        for cod in facts("Codim"):
            for dim in facts("Dim"):
                if dim.args[0] == cod.args[1]:
                    yield (cod, dim)
    elif rule == "fixed-point-connectedness":
        for fpc in facts("FixedPointComponent"):
            for dim in facts("Dim"):
                if dim.args[0] != fpc.args[1]:
                    continue
                for cod in facts("Codim"):
                    if cod.args[:2] == fpc.args:
                        yield (fpc, dim, cod)
    elif rule == "intersection-connectedness":
        for trans in facts("TransverseIntersection"):
            a, b, w = trans.args
            for ca in facts("Codim"):
                if ca.args[0] != a:
                    continue
                for cb in facts("Codim"):
                    if cb.args[0] != b or cb.args[1] != ca.args[1]:
                        continue
                    for dim in facts("Dim"):
                        if dim.args[0] != ca.args[1]:
                            continue
                        if ca.args[2] <= cb.args[2]:
                            yield (trans, ca, cb, dim)
                        else:
                            yield (trans, cb, ca, dim)
    elif rule == "ambient-periodicity":
        for conn in facts("Connected"):
            for dim in facts("Dim"):
                if dim.args[0] != conn.args[1]:
                    continue
                for cod in facts("Codim"):
                    if cod.args[:2] == conn.args[:2]:
                        yield (conn, dim, cod)
    elif rule == "torus-fixed-periodicity":
        for ricci in facts("RicciPositive"):
            for torus in facts("TorusSymmetry"):
                if torus.args[0] != ricci.args[0]:
                    continue
                for tfc in facts("TorusFixedComponent"):
                    if tfc.args[1] != ricci.args[0]:
                        continue
                    for dim_m in facts("Dim"):
                        if dim_m.args[0] != ricci.args[0]:
                            continue
                        for dim_f in facts("Dim"):
                            if dim_f.args[0] == tfc.args[0]:
                                yield (ricci, torus, tfc, dim_m, dim_f)
    elif rule == "rational-upgrade":
        for per in facts("Periodic"):
            if per.args[4] != "integral":
                continue
            for dim in facts("Dim"):
                if dim.args[0] != per.args[0]:
                    continue
                for h2 in facts("H1Vanishes"):
                    if h2.args != (per.args[0], 2):
                        continue
                    for h3 in facts("H1Vanishes"):
                        if h3.args == (per.args[0], 3):
                            yield (per, dim, h2, h3)
    elif rule == "window-transfer-up":
        for conn in facts("Connected"):
            for per in facts("Periodic"):
                if per.args[0] == conn.args[0]:
                    yield (conn, per)
    elif rule == "window-transfer-down":
        for conn in facts("Connected"):
            for per in facts("Periodic"):
                if per.args[0] == conn.args[1]:
                    yield (conn, per)
    elif rule == "window-extension":
        for fpc in facts("FixedPointComponent"):
            for cod in facts("Codim"):
                if cod.args[:2] != fpc.args:
                    continue
                for dim in facts("Dim"):
                    if dim.args[0] != fpc.args[1]:
                        continue
                    for per in facts("Periodic"):
                        if per.args[0] == fpc.args[1]:
                            yield (fpc, cod, dim, per)
    elif rule == "odd-betti-vanishing":
        for per in facts("Periodic"):
            if per.args[4] != "rational":
                continue
            for dim in facts("Dim"):
                if dim.args[0] != per.args[0]:
                    continue
                for h1 in facts("H1Vanishes"):
                    if h1.args == (per.args[0], 0):
                        yield (per, dim, h1)
    elif rule == "betti-descent":
        for betti in facts("OddBettiVanish"):
            for kind in ("FixedPointComponent", "TorusFixedComponent"):
                for comp in facts(kind):
                    if comp.args[1] == betti.args[0]:
                        yield (betti, comp)


RULE_ORDER = (
    "dimension-from-codimension",
    "fixed-point-connectedness",
    "intersection-connectedness",
    "ambient-periodicity",
    "torus-fixed-periodicity",
    "rational-upgrade",
    "window-transfer-up",
    "window-transfer-down",
    "window-extension",
    "odd-betti-vanishing",
    "betti-descent",
)

# The fact kinds each rule reads: a rule none of whose kinds gained a fact in
# the last round has no new input tuple.
RULE_INPUTS = {
    "dimension-from-codimension": ("Codim", "Dim"),
    "fixed-point-connectedness": ("FixedPointComponent", "Dim", "Codim"),
    "intersection-connectedness": ("TransverseIntersection", "Codim", "Dim"),
    "ambient-periodicity": ("Connected", "Dim", "Codim"),
    "torus-fixed-periodicity": ("RicciPositive", "TorusSymmetry", "TorusFixedComponent",
                                "Dim"),
    "rational-upgrade": ("Periodic", "Dim", "H1Vanishes"),
    "window-transfer-up": ("Connected", "Periodic"),
    "window-transfer-down": ("Connected", "Periodic"),
    "window-extension": ("FixedPointComponent", "Codim", "Dim", "Periodic"),
    "odd-betti-vanishing": ("Periodic", "Dim", "H1Vanishes"),
    "betti-descent": ("OddBettiVanish", "FixedPointComponent", "TorusFixedComponent"),
}


def derive(goal: Fact, facts, bound: int = SATURATION_BOUND) -> Derivation:
    """Forward-chain the rule set until the goal is subsumed.

    Evaluation is semi-naive: a fact derived in one round becomes visible in
    the next, and a rule fires only on input tuples holding at least one fact
    new in the previous round (the axioms, in the first).  A tuple of older
    facts was applied a round earlier and its outputs are known or subsumed
    since, so the steps are exactly those of re-applying every tuple.

    Returns the pruned derivation whose steps lead to the goal; raises
    Saturated when the fact set stops growing (or hits the bound) first.
    """
    known = []
    seen = set()
    stronger = {}  # subsumption key -> the known facts with that key

    def learn(fact):
        known.append(fact)
        seen.add(fact)
        key = _subsumption_key(fact)
        if key is not None:
            stronger.setdefault(key, []).append(fact)

    for f in facts:
        learn(f)
    by_kind = _by_kind(known)
    steps = []
    start = 0
    final = next((f for f in known if subsumes(f, goal)), None)
    while final is None:
        delta = set(known[start:])
        grown = {f.kind for f in delta}
        start = len(known)
        for rule in RULE_ORDER:
            if grown.isdisjoint(RULE_INPUTS[rule]):
                continue
            for inputs in _candidates(rule, by_kind):
                if delta.isdisjoint(inputs):
                    continue
                outputs, conditions = _APPLIERS[rule](inputs)
                for out in outputs:
                    if out in seen or any(subsumes(f, out) for f in
                                          stronger.get(_subsumption_key(out), ())):
                        continue
                    steps.append(Step(rule, tuple(inputs), out, conditions))
                    learn(out)
                    if len(known) > bound:
                        raise Saturated(f"fact bound {bound} exceeded")
        if len(known) == start:
            raise Saturated(f"saturated at {len(known)} facts without the goal")
        for f in known[start:]:
            by_kind.setdefault(f.kind, []).append(f)
        final = next((f for f in known[start:] if subsumes(f, goal)), None)

    keep = []
    needed = {final}
    for step in reversed(steps):
        if step.output in needed:
            keep.append(step)
            needed.update(step.inputs)
    keep.reverse()
    return Derivation(goal, tuple(keep), final)


def verify_derivation(derivation: Derivation, facts) -> bool:
    """Replay a derivation against its axioms: every step's inputs must be
    available, its rule must reproduce the recorded output, and every
    recorded side condition must re-evaluate identically."""
    known = set(facts)
    for step in derivation.steps:
        if step.rule not in _APPLIERS:
            return False
        if any(f not in known for f in step.inputs):
            return False
        outputs, conditions = _APPLIERS[step.rule](step.inputs)
        if step.output not in outputs or conditions != step.conditions:
            return False
        known.update(outputs)
    if derivation.final not in known:
        return False
    return subsumes(derivation.final, derivation.goal)


def _even_floor(x: Fraction) -> int:
    return (math.floor(x) // 2) * 2


def codim_cascade_scenario(n: int) -> tuple:
    """Nested fixed-point scenario with the worst-case codimension cascade.

    The top codimension is 2*floor(n/8); the lower two are searched
    downward under their fractional bounds (3/10 and 2/7 of the current
    dimension) until the full chain derives.  Returns (scenario, params)
    where params records the chosen codimensions, the exact lower bound
    ceil(3n/8) on the smallest fixed component and the goal's derivation.
    """
    _check_ints(n)
    if n < 24 or n % 4:
        raise HypothesisNotMet("the cascade template needs n >= 24 divisible by 4")
    k1 = 2 * (n // 8)
    f1 = n - k1
    floor_f3 = math.ceil(Fraction(3 * n, 8))
    goal = periodic("M", 4, 1, n - 1, "rational")
    for k2 in range(_even_floor(Fraction(2, 7) * f1), 5, -2):
        f2 = f1 - k2
        for k3 in range(_even_floor(Fraction(3, 10) * f2), 1, -2):
            f3 = f2 - k3
            if f3 < floor_f3:
                continue
            facts = (
                dimension("M", n),
                Fact("RicciPositive", ("M",)),
                Fact("TorusSymmetry", ("M", 3)),
                Fact("ConnectedIsotropy", ("M",)),
                codimension("F1", "M", k1),
                Fact("FixedPointComponent", ("F1", "M")),
                codimension("F2", "F1", k2),
                Fact("FixedPointComponent", ("F2", "F1")),
                codimension("F3", "F2", k3),
                Fact("FixedPointComponent", ("F3", "F2")),
                Fact("TorusFixedComponent", ("F3", "M")),
            )
            scenario = Scenario(
                f"codimension cascade, n = {n}, codims {k1}/{k2}/{k3}",
                facts, goal)
            try:
                derivation = derive(goal, facts)
            except Saturated:
                continue
            params = {"n": n, "k1": k1, "k2": k2, "k3": k3,
                      "f3": f3, "f3_lower_bound": floor_f3, "derivation": derivation}
            return scenario, params
    raise Saturated(f"no codimension cascade derives the goal for n = {n}")

