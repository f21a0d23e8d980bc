"""Forward-chaining deduction over integer facts about closed manifolds.

Facts record dimensions, codimensions, connectivity of inclusions,
periodicity windows and vanishing statements.  Rules turn connectivity into
periodicity, move windows across highly connected inclusions, extend
windows past fixed-point components, upgrade integral windows to rational
ones, and conclude odd-Betti vanishing.  Each rule is one entry of RULES, in
firing order: the fact kinds it reads, its join (the input tuples it may
consume) and its applier.  The applier is the one place where a rule's
hypotheses and arithmetic are stated: it records each hypothesis as a
condition with its evaluated value and computes the output inline.  Every
derivation carries its side conditions and can be replayed independently.
"""

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

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


class Saturated(RuntimeError):
    """The fact set saturated without reaching the goal; not a refutation."""


# A tuple, so that the set operations of derive and verify_derivation hash
# and compare facts in C; a Fact equals the plain tuple (kind, args).
class Fact(NamedTuple("Fact", [("kind", str), ("args", tuple)])):
    __slots__ = ()

    def __new__(cls, kind, args):
        if kind not in FACT_KINDS:
            raise ValueError(f"unknown fact kind {kind!r}")
        if len(args) != len(FACT_KINDS[kind]):
            raise ValueError(f"{kind} takes {len(FACT_KINDS[kind])} arguments")
        return tuple.__new__(cls, (kind, args))

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
        is no int here)."""
        if not isinstance(d, dict) or not isinstance(d.get("args"), list):
            raise ValueError(f"a fact must be an object with a kind and an args list, got {d!r}")
        kind, args = d.get("kind"), tuple(d["args"])
        if not isinstance(kind, str) or kind not in FACT_KINDS:
            raise ValueError(f"unknown fact kind {kind!r}")
        return _typed(kind, args)


def _fact(kind: str, args: tuple) -> Fact:
    """Fact(kind, args) without the constructor's checks, for a kind and
    arguments the caller has already checked, as _cond builds a Condition."""
    return tuple.__new__(Fact, (kind, args))


def _typed(kind: str, args: tuple) -> Fact:
    """Fact(kind, args) once every argument has exactly its FACT_KINDS type
    and the fact is well formed: a window has a period of at least 1,
    lo <= hi and a known coefficient tag, and a dimension, a codimension
    and a connectivity are nonnegative.  ValueError otherwise.

    The Fact constructor itself checks only the kind and the arity, and the
    appliers build their outputs with _fact, which checks nothing: from
    well-formed inputs they derive only well-formed facts (a test fuzzes
    every rule for it).  derive and verify_derivation check their axioms.
    """
    types = FACT_KINDS[kind]
    if type(args) is not tuple:
        raise ValueError(f"{kind} arguments must be a tuple, got {args!r}")
    if tuple(map(type, args)) != types:
        raise ValueError(f"{kind} takes ({', '.join(t.__name__ for t in types)}), "
                         f"got {list(args)!r}")
    fact = _fact(kind, args)
    if kind == "Periodic":
        if args[4] not in ("integral", "rational"):
            raise ValueError(f"coefficients must be 'integral' or 'rational' in {fact}")
        if args[1] < 1:
            raise ValueError(f"period must be at least 1 in {fact}")
        if args[2] > args[3]:
            raise ValueError(f"window must satisfy lo <= hi in {fact}")
    elif kind == "Codim" and args[2] < 0:
        raise ValueError(f"codimension must be nonnegative in {fact}")
    elif kind == "Dim" and args[1] < 0:
        raise ValueError(f"dimension must be nonnegative in {fact}")
    elif kind == "Connected" and args[2] < 0:
        raise ValueError(f"connectivity must be nonnegative in {fact}")
    return fact


def _axiom(fact) -> Fact:
    """A goal or axiom of derive and verify_derivation, checked: ValueError
    unless it is a Fact that _typed accepts (a plain tuple is not one)."""
    if type(fact) is not Fact:
        raise ValueError(f"expected a Fact, got {fact!r}")
    return _typed(fact.kind, fact.args)


def _check_ints(*values) -> None:
    """ValueError unless every value is an int, by the rule of _typed."""
    if any(type(v) is not int for v in values):
        raise ValueError(f"expected ints, got {list(values)!r}")


def connected(sub, amb, c):
    return _typed("Connected", (sub, amb, c))


def periodic(space, k, lo, hi, coefficients="integral"):
    return _typed("Periodic", (space, k, lo, hi, coefficients))


def dimension(space, n):
    return _typed("Dim", (space, n))


def codimension(sub, amb, k):
    return _typed("Codim", (sub, amb, k))


def h1_vanishes(space, prime):
    return _typed("H1Vanishes", (space, prime))


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


# Condition and Step are tuples: a derive records about a hundred of them.
class Condition(NamedTuple):
    label: str
    value: str
    holds: bool


class Step(NamedTuple):
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
    return tuple.__new__(Condition, (label, str(value), bool(holds)))


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms, as str(Fraction(num, den)) prints it (den > 0)."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


# Joins yield, in deterministic order, the input tuples a rule may consume,
# from the facts of each kind its RULES entry names, in that order.  Appliers:
# (inputs) -> (outputs, conditions).  Outputs are empty whenever a condition
# fails, so the same code drives both search and replay.  They build outputs
# with _fact, unchecked: their conditions keep every output in the ranges
# _typed checks, so from well-formed inputs every rule derives well-formed
# facts.  test_connectivity fuzzes every join and applier for exactly that.

def _join_dim_from_codim(codims, dims):
    for cod in codims:
        for dim in dims:
            if dim.args[0] == cod.args[1]:
                yield (cod, dim)


def _apply_dim_from_codim(inputs):
    cod, dim = inputs
    sub, amb, k = cod.args
    n = dim.args[1]
    ok = k < n
    conds = (_cond("codimension below dimension", f"{k} < {n}", ok),)
    if not ok:
        return (), conds
    return (_fact("Dim", (sub, n - k)),), conds


def _join_inclusion(inclusions, dims, codims):
    """A fact about an inclusion (sub, ambient, ...), the ambient's dimension
    and the inclusion's codimension."""
    for inc in inclusions:
        for dim in dims:
            if dim.args[0] != inc.args[1]:
                continue
            for cod in codims:
                if cod.args[:2] == inc.args[:2]:
                    yield (inc, dim, cod)


def _apply_fixed_point_connectedness(inputs):
    fpc, dim, cod = inputs
    sub, amb = fpc.args
    n = dim.args[1]
    k = cod.args[2]
    ok = k > 0
    conds = (_cond("positive codimension", k, ok),)
    if not ok:
        return (), conds
    c = n - 2 * k + 1
    conds += (_cond("connectivity nonnegative", c, c >= 0),)
    if c < 0:
        return (), conds
    return (_fact("Connected", (sub, amb, c)),), conds


def _join_intersection_connectedness(transversals, codims, dims):
    for trans in transversals:
        a, b, w = trans.args
        for ca in codims:
            if ca.args[0] != a:
                continue
            for cb in codims:
                if cb.args[0] != b or cb.args[1] != ca.args[1]:
                    continue
                for dim in dims:
                    if dim.args[0] != ca.args[1]:
                        continue
                    if ca.args[2] <= cb.args[2]:
                        yield (trans, ca, cb, dim)
                    else:
                        yield (trans, cb, ca, dim)


def _apply_intersection_connectedness(inputs):
    trans, cod_small, cod_big, dim = inputs
    w = trans.args[2]
    small, amb, ks = cod_small.args
    big, amb2, kb = cod_big.args
    n = dim.args[1]
    ordered, nonempty = ks <= kb, ks + kb < n
    conds = (_cond("ordered codimensions", f"{ks} <= {kb}", ordered),
             _cond("intersection nonempty", f"{ks + kb} < {n}", nonempty))
    if not (ordered and nonempty):
        return (), conds
    return (_fact("Connected", (w, big, n - ks - kb - 1)),
            _fact("Dim", (w, n - ks - kb)),
            _fact("Codim", (w, big, ks)),
            _fact("Codim", (w, small, kb))), conds


def _apply_ambient_periodicity(inputs):
    conn, dim, cod = inputs
    sub, amb, c = conn.args
    d = dim.args[1]
    k = cod.args[2]
    if k < 1:
        return (), (_cond("positive codimension", k, False),)
    l = d - k - c
    gap = d - k - 2 * l
    conds = (_cond("window offset at least 1", l, l >= 1),
             _cond("n - k - 2l positive", gap, gap > 0))
    if l < 1 or gap <= 0:
        return (), conds
    return (_fact("Periodic", (amb, k, l, d - l, "integral")),), conds


def _join_torus_fixed_periodicity(riccis, tori, tfcs, dims):
    for ricci in riccis:
        for torus in tori:
            if torus.args[0] != ricci.args[0]:
                continue
            for tfc in tfcs:
                if tfc.args[1] != ricci.args[0]:
                    continue
                for dim_m in dims:
                    if dim_m.args[0] != ricci.args[0]:
                        continue
                    for dim_f in dims:
                        if dim_f.args[0] == tfc.args[0]:
                            yield (ricci, torus, tfc, dim_m, dim_f)


def _apply_torus_fixed_periodicity(inputs):
    ricci, torus, tfc, dim_m, dim_f = inputs
    space = ricci.args[0]
    rank = torus.args[1]
    sub = tfc.args[0]
    n = dim_m.args[1]
    f = dim_f.args[1]
    ranked, large, nontrivial = rank >= 3, 3 * f >= n + 1, f >= 2
    conds = (_cond("torus rank at least 3", rank, ranked),
             _cond("fixed component large", f"{f} >= {_ratio(n + 1, 3)}", large),
             _cond("window nontrivial", f, nontrivial))
    if not (ranked and large and nontrivial):
        return (), conds
    return (_fact("Periodic", (sub, 4, 1, f - 1, "rational")),), conds


def _join_rational_upgrade(pers, dims, h1s):
    for per in pers:
        if per.args[4] != "integral":
            continue
        for dim in dims:
            if dim.args[0] != per.args[0]:
                continue
            for h2 in h1s:
                if h2.args != (per.args[0], 2):
                    continue
                for h3 in h1s:
                    if h3.args == (per.args[0], 3):
                        yield (per, dim, h2, h3)


def _apply_rational_upgrade(inputs):
    per, dim, h2, h3 = inputs
    space, k, lo, hi, tag = per.args
    n = dim.args[1]
    full, short = lo == 1 and hi == n - 1 and tag == "integral", 3 * k <= n - 2
    conds = (_cond("full integral window", f"1..{hi} vs 1..{n - 1}", full),
             _cond("3k <= n - 2", f"3*{k} <= {n - 2}", short))
    if not (full and short):
        return (), conds
    return (_fact("Periodic", (space, math.gcd(4, k), 1, n - 1, "rational")),), conds


def _join_transfer(end, conns, pers):
    """Windows on the submanifold (end 0, up) or the ambient (end 1, down)."""
    for conn in conns:
        for per in pers:
            if per.args[0] == conn.args[end]:
                yield (conn, per)


def _apply_transfer(direction, inputs):
    conn, per = inputs
    sub, amb, c = conn.args
    space, k, lo, hi, tag = per.args
    fits, starts = 0 < k < c - 1, lo == 1
    conds = (_cond("0 < k < c - 1", f"k = {k}, c = {c}", fits),
             _cond("window starts at 1", lo, starts))
    if not (fits and starts):
        return (), conds
    out = min(hi, c + 1 if direction == "up" else c)
    conds += (_cond("window longer than period", f"{out} > {k}", out > k),)
    if out <= k:
        return (), conds
    return (_fact("Periodic", (amb if direction == "up" else sub, k, 1, out, tag)),), conds


def _join_extension(fpcs, codims, dims, pers):
    for fpc in fpcs:
        for cod in codims:
            if cod.args[:2] != fpc.args:
                continue
            for dim in dims:
                if dim.args[0] != fpc.args[1]:
                    continue
                for per in pers:
                    if per.args[0] == fpc.args[1]:
                        yield (fpc, cod, dim, per)


def _apply_extension(inputs):
    fpc, cod, dim, per = inputs
    sub, amb = fpc.args
    k = cod.args[2]
    n = dim.args[1]
    space, period, lo, hi, tag = per.args
    four, starts, deep, reaches = period == 4, lo == 1, k >= 6, hi >= k + 3
    conds = (_cond("period is 4", period, four),
             _cond("window starts at 1", lo, starts),
             _cond("codimension at least 6", k, deep),
             _cond("window reaches k + 3", f"{hi} >= {k + 3}", reaches))
    if not (four and starts and deep and reaches):
        return (), conds
    shallow = 4 * k <= n + 3
    conds += (_cond("k <= (n+3)/4", f"{k} vs {_ratio(n + 3, 4)}", shallow),)
    out = n - 1 if shallow else n - 2 * k + 2
    conds += (_cond("extension strictly grows", f"{out} > {hi}", out > hi),)
    if out <= hi:
        return (), conds
    return (_fact("Periodic", (amb, 4, 1, out, tag)),), conds


def _join_odd_betti(pers, dims, h1s):
    for per in pers:
        if per.args[4] != "rational":
            continue
        for dim in dims:
            if dim.args[0] != per.args[0]:
                continue
            for h1 in h1s:
                if h1.args == (per.args[0], 0):
                    yield (per, dim, h1)


def _apply_odd_betti(inputs):
    per, dim, h1 = inputs
    space, k, lo, hi, tag = per.args
    n = dim.args[1]
    full = lo == 1 and hi == n - 1 and tag == "rational"
    parity = (k == 4 and n % 4 == 0) or (k == 2 and n % 2 == 0)
    conds = (_cond("full rational window", f"1..{hi} vs 1..{n - 1}", full),
             _cond("period-dimension parity", f"k = {k}, n = {n}", parity))
    if not (full and parity):
        return (), conds
    return (_fact("OddBettiVanish", (space,)),), conds


def _join_betti_descent(bettis, fpcs, tfcs):
    for betti in bettis:
        for comps in (fpcs, tfcs):
            for comp in comps:
                if comp.args[1] == betti.args[0]:
                    yield (betti, comp)


def _apply_betti_descent(inputs):
    betti, comp = inputs
    sub = comp.args[0]
    return (_fact("OddBettiVanish", (sub,)),), ()


# Every rule in firing order: name -> (the fact kinds it reads, join, applier).
# A rule none of whose kinds gained a fact last round has no new input tuple.
RULES = {
    "dimension-from-codimension":
        (("Codim", "Dim"), _join_dim_from_codim, _apply_dim_from_codim),
    "fixed-point-connectedness":
        (("FixedPointComponent", "Dim", "Codim"),
         _join_inclusion, _apply_fixed_point_connectedness),
    "intersection-connectedness":
        (("TransverseIntersection", "Codim", "Dim"),
         _join_intersection_connectedness, _apply_intersection_connectedness),
    "ambient-periodicity":
        (("Connected", "Dim", "Codim"), _join_inclusion, _apply_ambient_periodicity),
    "torus-fixed-periodicity":
        (("RicciPositive", "TorusSymmetry", "TorusFixedComponent", "Dim"),
         _join_torus_fixed_periodicity, _apply_torus_fixed_periodicity),
    "rational-upgrade":
        (("Periodic", "Dim", "H1Vanishes"), _join_rational_upgrade, _apply_rational_upgrade),
    "window-transfer-up":
        (("Connected", "Periodic"), partial(_join_transfer, 0), partial(_apply_transfer, "up")),
    "window-transfer-down":
        (("Connected", "Periodic"), partial(_join_transfer, 1), partial(_apply_transfer, "down")),
    "window-extension":
        (("FixedPointComponent", "Codim", "Dim", "Periodic"), _join_extension, _apply_extension),
    "odd-betti-vanishing":
        (("Periodic", "Dim", "H1Vanishes"), _join_odd_betti, _apply_odd_betti),
    "betti-descent":
        (("OddBettiVanish", "FixedPointComponent", "TorusFixedComponent"),
         _join_betti_descent, _apply_betti_descent),
}


def _by_kind(facts):
    out = {}
    for f in facts:
        out.setdefault(f.kind, []).append(f)
    return out


def _subsumption_key(fact: Fact):
    """The facts that can subsume `fact` other than itself share this key;
    kinds without one are subsumed only by an equal fact."""
    kind, args = fact
    if kind == "Periodic":
        space, k, lo, hi, tag = args
        return kind, space, k, tag
    if kind == "Connected":
        return kind, args[0], args[1]
    return None


def derive(goal: Fact, facts, bound: int = SATURATION_BOUND) -> Derivation:
    """Forward-chain the rule set until the goal is subsumed.

    Evaluation is semi-naive: a fact derived in one round becomes visible in
    the next, and a rule fires only on input tuples holding at least one fact
    new in the previous round (the axioms, in the first).  A tuple of older
    facts was applied a round earlier and its outputs are known or subsumed
    since, so the steps are exactly those of re-applying every tuple.  An
    output counts towards the bound as it is recorded, so the bound may fire
    later in the round that reaches the goal.

    Each output is recorded as a plain (rule, inputs, output, conditions)
    tuple, and only the records that pruning keeps are built into Steps.

    Returns the pruned derivation whose steps lead to the goal; raises
    Saturated when the fact set stops growing (or hits the bound) first, and
    ValueError before any rule fires when the goal or an axiom is malformed
    (_axiom).
    """
    _axiom(goal)
    known = [_axiom(f) for f in facts]
    seen = set(known)
    stronger = {}  # subsumption key -> the known facts with that key
    # Every kind has its list from the start, so each rule's argument lists
    # are bound once; a round's new facts are appended to them after it.
    by_kind = {kind: [] for kind in FACT_KINDS}
    for f in known:
        by_kind[f.kind].append(f)
        key = _subsumption_key(f)
        if key is not None:
            stronger.setdefault(key, []).append(f)
    rules = [(rule, kinds, [by_kind[k] for k in kinds], join, apply)
             for rule, (kinds, join, apply) in RULES.items()]
    records = []  # (rule, inputs, output, conditions) per recorded output
    start = 0
    final = next((f for f in known if subsumes(f, goal)), None)
    while final is None:
        delta = set(known[start:])
        grown = {f.kind for f in delta}
        start = len(known)
        for rule, kinds, lists, join, apply in rules:
            if grown.isdisjoint(kinds):
                continue
            for inputs in join(*lists):
                if delta.isdisjoint(inputs):
                    continue
                outputs, conditions = apply(inputs)
                for out in outputs:
                    if out in seen:
                        continue
                    key = _subsumption_key(out)
                    for f in stronger.get(key, ()):
                        if subsumes(f, out):
                            break
                    else:  # no known peer subsumes out
                        records.append((rule, inputs, out, conditions))
                        known.append(out)
                        seen.add(out)
                        if key is not None:
                            stronger.setdefault(key, []).append(out)
                        if len(known) > bound:
                            raise Saturated(f"fact bound {bound} exceeded")
        if len(known) == start:
            raise Saturated(f"saturated at {len(known)} facts without the goal")
        for f in known[start:]:
            by_kind[f.kind].append(f)
        final = next((f for f in known[start:] if subsumes(f, goal)), None)

    keep = []
    needed = {final}
    for record in reversed(records):
        if record[2] in needed:
            keep.append(Step(*record))
            needed.update(record[1])
    keep.reverse()
    return Derivation(goal, tuple(keep), final)


def verify_derivation(derivation: Derivation, facts) -> bool:
    """Replay a derivation against its axioms: every step's inputs must be
    available Facts, its rule's join must yield them as a tuple, its rule
    must reproduce the recorded output, and every recorded side condition
    must re-evaluate identically.  A malformed goal or axiom (_axiom) raises
    ValueError; a final that is not a known Fact replays False."""
    _axiom(derivation.goal)
    known = {_axiom(f) for f in facts}
    for step in derivation.steps:
        rule = RULES.get(step.rule)
        # A plain tuple equals the Fact it spells, so its type is checked.
        if rule is None or any(type(f) is not Fact or f not in known for f in step.inputs):
            return False
        kinds, join, apply = rule
        # A join yields a tuple or not by its own facts alone.
        given = _by_kind(step.inputs)
        if step.inputs not in join(*[given.get(k, ()) for k in kinds]):
            return False
        outputs, conditions = apply(step.inputs)
        if step.output not in outputs or conditions != step.conditions:
            return False
        known.update(outputs)
    if type(derivation.final) is not Fact or derivation.final not in known:
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


def _even_floor(num: int, den: int) -> int:
    """The largest even integer at most num/den (den > 0)."""
    return num // den // 2 * 2


def codim_cascade_scenario(n: int) -> tuple:
    """Nested fixed-point scenario with the worst-case codimension cascade.

    The top codimension is 2*floor(n/8); the lower two are searched
    downward under their fractional bounds (2/7 of f1 for k2, then 3/10 of
    f2 for k3) until the full chain derives.  Returns (scenario, params)
    where params records the chosen codimensions, the exact lower bound
    ceil(3n/8) on the smallest fixed component and the goal's derivation.
    """
    _check_ints(n)
    if n < 24 or n % 4:
        raise HypothesisNotMet("the cascade template needs n >= 24 divisible by 4")
    k1 = 2 * (n // 8)
    f1 = n - k1
    floor_f3 = -(-3 * n // 8)
    goal = periodic("M", 4, 1, n - 1, "rational")
    for k2 in range(_even_floor(2 * f1, 7), 5, -2):
        f2 = f1 - k2
        for k3 in range(_even_floor(3 * f2, 10), 1, -2):
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


def four_weight_scenario(n: int, weights) -> tuple:
    """Fixed-point component of a rank-4 torus with exactly four even
    codimension weights; derives odd-Betti vanishing for the component.

    Picks two of the last three weights whose sum is divisible by 4 (two of
    three even numbers always share a residue), intersects the remaining
    one with the smallest, and returns (scenario, params).
    """
    ws = tuple(weights)
    _check_ints(n, *ws)
    if len(ws) != 4 or any(w <= 0 or w % 2 for w in ws) or sorted(ws) != list(ws):
        raise HypothesisNotMet("need four positive even weights in ascending order")
    if n % 2:
        raise HypothesisNotMet("the ambient dimension must be even")
    f = n - sum(ws)
    if f <= 0 or f % 4:
        raise HypothesisNotMet("the component dimension must be positive, divisible by 4")
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
