"""Forward-chaining deduction over integer facts about closed manifolds.

Facts record dimensions, codimensions, connectivity of inclusions,
periodicity windows and vanishing statements.  Rules turn connectivity into
periodicity, move windows across highly connected inclusions, extend
windows past fixed-point components, upgrade integral windows to rational
ones, and conclude odd-Betti vanishing.  Every derivation carries its side
conditions with evaluated values and can be replayed independently.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .periodicity import HypothesisNotMet

SATURATION_BOUND = 10_000

# The argument types of each fact kind; a name is a str, a number an int.
FACT_KINDS = {
    "Connected": (str, str, int),             # (sub, ambient, c)
    "Periodic": (str, int, int, int, str),    # (space, k, lo, hi, coefficients)
    "Dim": (str, int),                        # (space, n)
    "Codim": (str, str, int),                 # (sub, ambient, k)
    "H1Vanishes": (str, int),                 # (space, prime; 0 means rational)
    "FixedPointComponent": (str, str),        # (sub, ambient): circle-action fixed component
    "TorusFixedComponent": (str, str),        # (sub, ambient): fixed component of the full torus
    "TorusSymmetry": (str, int),              # (space, rank)
    "RicciPositive": (str,),                  # (space,): intermediate Ricci positivity tag
    "ConnectedIsotropy": (str,),              # (space,): inert hypothesis tag
    "TransverseIntersection": (str, str, str),  # (sub1, sub2, intersection)
    "OddBettiVanish": (str,),                 # (space,)
}


class OrderViolation(ValueError):
    """Codimension arguments supplied in the wrong order."""


class Saturated(RuntimeError):
    """The fact set saturated without reaching the goal; not a refutation."""


@dataclass(frozen=True)
class Fact:
    kind: str
    args: tuple

    def __post_init__(self):
        if self.kind not in FACT_KINDS:
            raise ValueError(f"unknown fact kind {self.kind!r}")
        if len(self.args) != len(FACT_KINDS[self.kind]):
            raise ValueError(f"{self.kind} takes {len(FACT_KINDS[self.kind])} arguments")

    def __str__(self) -> str:
        if self.kind == "Periodic":
            s, k, lo, hi, t = self.args
            return f"Periodic({s}, {k}, {lo}, {hi}; {t})"
        return f"{self.kind}({', '.join(str(a) for a in self.args)})"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "args": list(self.args)}

    @staticmethod
    def from_dict(d: dict) -> "Fact":
        """Read a fact from JSON, checking the type of every argument (bool
        is no int here).  The constructor leaves this to the file boundary:
        derive builds many facts from facts already checked."""
        if not isinstance(d, dict) or not isinstance(d.get("args"), list):
            raise ValueError(f"a fact must be an object with a kind and an args list, got {d!r}")
        kind, args = d.get("kind"), tuple(d["args"])
        if not isinstance(kind, str) or kind not in FACT_KINDS:
            raise ValueError(f"unknown fact kind {kind!r}")
        types = FACT_KINDS[kind]
        if len(args) != len(types) or any(type(a) is not t for a, t in zip(args, types)):
            raise ValueError(f"{kind} takes ({', '.join(t.__name__ for t in types)}), "
                             f"got {list(args)!r}")
        if kind == "Periodic":
            return periodic(*args)
        return Fact(kind, args)


def connected(sub, amb, c):
    return Fact("Connected", (sub, amb, int(c)))


def periodic(space, k, lo, hi, coefficients="integral"):
    if coefficients not in ("integral", "rational"):
        raise ValueError("coefficients must be 'integral' or 'rational'")
    if lo > hi:
        raise ValueError("window must satisfy lo <= hi")
    return Fact("Periodic", (space, int(k), int(lo), int(hi), coefficients))


def dimension(space, n):
    return Fact("Dim", (space, int(n)))


def codimension(sub, amb, k):
    return Fact("Codim", (sub, amb, int(k)))


def h1_vanishes(space, prime):
    return Fact("H1Vanishes", (space, int(prime)))


def subsumes(fact: Fact, other: Fact) -> bool:
    """fact is at least as strong as other."""
    if fact == other:
        return True
    if fact.kind != other.kind:
        return False
    if fact.kind == "Periodic":
        s, k, lo, hi, t = fact.args
        s2, k2, lo2, hi2, t2 = other.args
        return (s, k, t) == (s2, k2, t2) and lo <= lo2 and hi >= hi2
    if fact.kind == "Connected":
        return fact.args[:2] == other.args[:2] and fact.args[2] >= other.args[2]
    return False


# Pure rule arithmetic.  Each returns the computed value and raises when a
# hypothesis fails; the engine wrappers below turn these into fact steps.

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


def rule_transfer(c: int, k: int, hi: int, direction: str) -> int:
    """Move a window 1..hi across a c-connected inclusion.

    Both directions reach up to c; submanifold to ambient reaches c + 1.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if not 0 < k < c - 1:
        raise HypothesisNotMet(f"need 0 < k < c - 1 with c = {c}, k = {k}")
    limit = c + 1 if direction == "up" else c
    out = min(hi, limit)
    if out <= k:
        raise HypothesisNotMet("transferred window is shorter than the period")
    return out


def rule_extend(n: int, k: int, hi: int) -> int:
    """Extend a 4-periodic window 1..k+3 past a codimension-k fixed component."""
    if k < 6:
        raise HypothesisNotMet("extension needs codimension at least 6")
    if hi < k + 3:
        raise HypothesisNotMet(f"need the window to reach k + 3 = {k + 3}")
    if Fraction(k) <= Fraction(n + 3, 4):
        return n - 1
    return n - 2 * k + 2


def rule_rational_upgrade(n: int, k: int) -> int:
    """Rational period after combining the mod-2 and mod-3 lifts."""
    if 3 * k > n - 2:
        raise HypothesisNotMet(f"need 3k <= n - 2, got 3*{k} > {n} - 2")
    return math.gcd(4, k)


@dataclass(frozen=True)
class BorelVerdict:
    sum_matches: bool
    residue_ok: bool


def rule_borel(codims, total: int) -> BorelVerdict:
    """Codimension bookkeeping: parts must sum to the total, and a total
    congruent to 2 mod 4 forces some part congruent to 2 mod 4."""
    sum_matches = sum(codims) == total
    residue_ok = not (total % 4 == 2 and not any(c % 4 == 2 for c in codims))
    return BorelVerdict(sum_matches, residue_ok)


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


@dataclass(frozen=True)
class Derivation:
    goal: Fact
    steps: tuple
    final: Fact

    def to_dict(self) -> dict:
        return {
            "goal": self.goal.to_dict(),
            "final": self.final.to_dict(),
            "steps": [s.to_dict() for s in self.steps],
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


def _by_kind(facts):
    out = {}
    for f in facts:
        out.setdefault(f.kind, []).append(f)
    return out


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


def _subsumption_key(fact: Fact):
    """The facts that can subsume `fact` other than itself share this key;
    kinds without one are subsumed only by an equal fact."""
    if fact.kind == "Periodic":
        space, k, lo, hi, tag = fact.args
        return fact.kind, space, k, tag
    if fact.kind == "Connected":
        return fact.kind, fact.args[0], fact.args[1]
    return None


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


@dataclass(frozen=True)
class Scenario:
    description: str
    facts: tuple
    goal: Fact

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "facts": [f.to_dict() for f in self.facts],
            "goal": self.goal.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "Scenario":
        if not isinstance(d, dict) or not isinstance(d.get("facts"), list):
            raise ValueError("a scenario must be an object with a facts list and a goal")
        description = d.get("description", "")
        if not isinstance(description, str):
            raise ValueError("the scenario description must be a string")
        return Scenario(description,
                        tuple(Fact.from_dict(f) for f in d["facts"]),
                        Fact.from_dict(d.get("goal")))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "Scenario":
        with open(path, encoding="utf-8") as fh:
            return Scenario.from_dict(json.load(fh))


def _even_floor(x: Fraction) -> int:
    return (math.floor(x) // 2) * 2


def codim_cascade_scenario(n: int) -> tuple:
    """Nested fixed-point scenario with the worst-case codimension cascade.

    The top codimension is 2*floor(n/8); the lower two are searched
    downward under their fractional bounds (3/10 and 2/7 of the current
    dimension) until the full chain derives.  Returns (scenario, params)
    where params records the chosen codimensions and the exact lower bound
    ceil(3n/8) on the smallest fixed component.
    """
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
                derive(goal, facts)
            except Saturated:
                continue
            params = {"n": n, "k1": k1, "k2": k2, "k3": k3,
                      "f3": f3, "f3_lower_bound": floor_f3}
            return scenario, params
    raise Saturated(f"no codimension cascade derives the goal for n = {n}")


def four_weight_scenario(n: int, weights) -> tuple:
    """Fixed-point component of a rank-4 torus with exactly four even
    codimension weights; derives odd-Betti vanishing for the component.

    Picks two of the last three weights whose sum is divisible by 4 (two of
    three even numbers always share a residue), intersects the remaining
    one with the smallest, and returns (scenario, params).
    """
    ws = tuple(int(w) for w in weights)
    if len(ws) != 4 or any(w <= 0 or w % 2 for w in ws) or sorted(ws) != list(ws):
        raise HypothesisNotMet("need four positive even weights in ascending order")
    if n % 2:
        raise HypothesisNotMet("the ambient dimension must be even")
    f = n - sum(ws)
    if f <= 0 or f % 4:
        raise HypothesisNotMet("the component dimension must be positive, divisible by 4")
    verdict = rule_borel(ws, n - f)
    if not verdict.sum_matches:
        raise HypothesisNotMet("weights must sum to the total codimension")
    pair = None
    for i in range(1, 4):
        for j in range(i + 1, 4):
            if (ws[i] + ws[j]) % 4 == 0:
                pair = (i, j)
                break
        if pair:
            break
    h = next(t for t in (1, 2, 3) if t not in pair)
    k1, kh = ws[0], ws[h]
    facts = (
        dimension("M", n),
        Fact("RicciPositive", ("M",)),
        Fact("TorusSymmetry", ("M", 4)),
        codimension("N1", "M", k1),
        Fact("FixedPointComponent", ("N1", "M")),
        codimension("N2", "M", kh),
        Fact("FixedPointComponent", ("N2", "M")),
        Fact("TransverseIntersection", ("N1", "N2", "W")),
        h1_vanishes("N2", 2),
        h1_vanishes("N2", 3),
        h1_vanishes("W", 0),
        Fact("FixedPointComponent", ("F", "W")),
        dimension("F", f),
    )
    goal = Fact("OddBettiVanish", ("F",))
    scenario = Scenario(
        f"four-weight fixed component, n = {n}, weights {ws}", facts, goal)
    params = {"n": n, "weights": ws, "f": f, "pair": pair, "kept_weight": kh,
              "intersection_dim": n - k1 - kh}
    return scenario, params
