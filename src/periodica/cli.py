"""Command-line driver.

Subcommands load algebra or scenario files, run the analyses and print one
report per invocation.  Reports are JSON with sorted keys so identical
inputs give byte-identical output; --human switches to prose.  Exit codes:
0 analysis ran and passed, 1 violation or inconclusive answer, 2 usage or
input errors.
"""

import argparse
import json
import os
import sys

from . import __version__
from . import connectivity, corpus, decomposition, periodicity, steenrod
from .algebra import AlgebraDefect, Element, GradedAlgebra, verify_poincare_duality
from .decomposition import OverlapMismatch, VerificationFailure
from .fplin import ConsistencyFailure
from .periodicity import (HypothesisNotMet, PeriodicityCertificate, SearchCapExceeded,
                          WellDefinednessFailure)
from .steenrod import ActionDefect, InducedActionFailure, IsPowerOfTwo, SteenrodAction

_EXIT = {"ok": 0, "violation": 1, "inconclusive": 1, "error": 2}

# Library failures reported as JSON: a check that failed on computed data
# is a violation; a cap that fired or a theorem whose hypotheses fail
# leaves the question open.
_VIOLATIONS = (ConsistencyFailure, WellDefinednessFailure, VerificationFailure,
               OverlapMismatch, InducedActionFailure)
_INCONCLUSIVE = (SearchCapExceeded, HypothesisNotMet)


class InputError(Exception):
    """Bad file, spec, or element syntax; maps to exit code 2."""


def _search_cap() -> int:
    raw = os.environ.get("PERIODICA_SEARCH_CAP")
    if raw is None:
        return periodicity.DEFAULT_SEARCH_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"PERIODICA_SEARCH_CAP must be an integer, got {raw!r}")
    if cap < 1:
        raise InputError("PERIODICA_SEARCH_CAP must be positive")
    return cap


def load_algebra_file(path):
    """Read {"algebra": ..., "action": ... or null} and rebuild both."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}")
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to read")
    try:
        alg = GradedAlgebra.from_dict(doc["algebra"])
        act = None
        if doc.get("action") is not None:
            act = SteenrodAction.from_dict(alg, doc["action"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path} does not hold an algebra document: {e}")
    return alg, act


def dump_algebra_file(alg, act) -> dict:
    return {"algebra": alg.to_dict(), "action": act.to_dict() if act else None}


def parse_element(text: str, alg) -> Element:
    """Element syntax: DEGREE:c1,c2,... in the degree basis."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise InputError(f"element {text!r} must look like DEGREE:c1,c2,...")
    try:
        degree = int(head)
        coeffs = tuple(int(c) for c in tail.split(","))
    except ValueError:
        raise InputError(f"element {text!r} has non-integer entries")
    if not 1 <= degree <= alg.n - 1:
        raise InputError(f"element degree {degree} outside 1..{alg.n - 1}")
    if len(coeffs) != alg.dim(degree):
        raise InputError(f"degree {degree} needs {alg.dim(degree)} coordinates")
    return Element(degree, tuple(c % alg.p for c in coeffs))


def _element_payload(e: Element) -> dict:
    return {"degree": e.degree, "coeffs": list(e.coeffs)}


def _cmd_validate(args, cap):
    alg, act = load_algebra_file(args.file)
    problems = []
    try:
        alg.validate()
    except AlgebraDefect as e:
        problems.append(f"algebra: {e}")
    duality = verify_poincare_duality(alg)
    if not duality:
        problems.append("pairing is not perfect")
    if act is not None:
        try:
            steenrod.verify_action(alg, act)
        except ActionDefect as e:
            problems.append(f"action: {e}")
    payload = {"p": alg.p, "top_degree": alg.n, "dims": list(alg.dims),
               "total_dim": alg.total_dim, "poincare_duality": duality,
               "action_present": act is not None, "problems": problems}
    status = "ok" if not problems else "violation"
    human = [f"p = {alg.p}, top degree {alg.n}, dims {list(alg.dims)}"]
    human += problems if problems else ["all checks passed"]
    return status, payload, human


def _cmd_periodicity(args, cap):
    alg, _ = load_algebra_file(args.file)
    if args.k is not None:
        ks = [args.k]
        if not 1 <= args.k <= alg.n - 1:
            raise InputError(f"--k must lie in 1..{alg.n - 1}")
    else:
        ks = list(range(1, alg.n))
    found, misses, unsure = {}, [], []
    for k, out in periodicity.search_degrees(alg, ks, cap=cap).items():
        if isinstance(out, PeriodicityCertificate):
            found[k] = out
        elif out.status == "inconclusive":
            unsure.append(k)
        else:
            misses.append(k)
    payload = {
        "periods": sorted(found),
        "exhausted": misses,
        "inconclusive": unsure,
        "certificates": {str(k): {"mode": c.mode, "element": _element_payload(c.element)}
                         for k, c in sorted(found.items())},
    }
    status = "inconclusive" if unsure else "ok"
    human = []
    for k in ks:
        if k in found:
            c = found[k]
            human.append(f"k = {k}: inducing element {c.element.coeffs} ({c.mode})")
        elif k in unsure:
            human.append(f"k = {k}: inconclusive (search capped)")
        else:
            human.append(f"k = {k}: none (exhaustive)")
    return status, payload, human


def _cmd_min_period(args, cap):
    alg, _ = load_algebra_file(args.file)
    rep = periodicity.minimum_period(alg, cap=cap)
    payload = {
        "period": rep.period,
        "all_periods": list(rep.all_periods),
        "inconclusive": list(rep.inconclusive),
        "divisibility_checked": rep.divisibility_checked,
    }
    if rep.period is None:
        status = "inconclusive" if rep.inconclusive else "ok"
        human = ["no period found" + (" (some degrees inconclusive)"
                                      if rep.inconclusive else " (exhaustive)")]
        payload["form"] = None
        return status, payload, human
    form = periodicity.check_minimum_period_form(alg.p, rep.period, alg.n)
    payload["form"] = {"conformant": form.conformant, "description": form.description}
    payload["certificate"] = {"mode": rep.certificate.mode,
                              "element": _element_payload(rep.certificate.element)}
    status = "ok" if form.conformant else "violation"
    human = [f"k = {rep.period}, conformant: {form.description}"
             if form.conformant else
             f"k = {rep.period}, NOT conformant: {form.description}"]
    return status, payload, human


def _element_for(args):
    """The algebra file's algebra and action, and its parsed --x element."""
    alg, act = load_algebra_file(args.file)
    return alg, act, parse_element(args.x, alg)


def _window_for(alg, act, x, cap):
    out = periodicity.induces_periodicity(alg, x, cap)
    if not isinstance(out, PeriodicityCertificate):
        refusal = {"failed_degree": out.failed_degree, "failed_condition": out.failed_condition}
        return None, ("violation", {"inducing": False, "refusal": refusal},
                      [f"element does not induce degree-{x.degree} periodicity: {refusal}"])
    return periodicity.subquotient(alg, out, action=act), None


def _cmd_subquotient(args, cap):
    window, failure = _window_for(*_element_for(args), cap)
    if failure:
        return failure
    payload = {"k": window.k, "mode": window.certificate.mode,
               "window_dims": list(window.window_dims()),
               "action_induced": window.action is not None}
    human = [f"k = {window.k} ({window.certificate.mode}), "
             f"window dims {list(window.window_dims())}, "
             f"action {'induced' if window.action else 'absent'}"]
    return "ok", payload, human


def _cmd_irreducible(args, cap):
    alg, act, x = _element_for(args)
    window, failure = _window_for(alg, act, x, cap)
    if failure:
        return failure
    xw = window.to_window(x.degree, x.as_vector())
    rep = periodicity.is_irreducible(window, Element.of(x.degree, xw), cap=cap)
    payload = {"irreducible": rep.irreducible,
               "witness": None if rep.witness is None else
               [_element_payload(e) for e in rep.witness]}
    if rep.irreducible:
        human = ["irreducible: every splitting keeps an inducing summand"]
    else:
        a, b = rep.witness
        human = [f"reducible: {a.coeffs} + {b.coeffs} splits with no inducing part"]
    return "ok", payload, human


def _cmd_decompose(args, cap):
    alg, act, x = _element_for(args)
    if x.degree > periodicity.direct_bound(alg.n):
        raise InputError(f"decompose needs 3k <= n-1, got k = {x.degree}, n = {alg.n}")
    window, failure = _window_for(alg, act, x, cap)
    if failure:
        return failure
    # decompose raises VerificationFailure unless its result verifies.
    result = decomposition.decompose(window)
    payload = result.to_dict()
    payload["verified"] = True
    payload["violations"] = []
    human = [f"m = {result.summand_count} summands, verified: True"]
    for i, s in enumerate(result.summands):
        dims = [s.spaces[u].dim for u in range(1, window.n)]
        human.append(f"  summand {i}: element {s.element.coeffs}, window dims {dims}")
    return "ok", payload, human


def _parse_monomials(text: str):
    monos = []
    for part in text.split("+"):
        toks = part.split()
        if not toks:
            raise InputError("empty monomial in sum")
        mono = []
        for t in toks:
            if not t.startswith("Sq"):
                raise InputError(f"token {t!r} is not of the form Sq<k>")
            try:
                mono.append(int(t[2:]))
            except ValueError:
                raise InputError(f"token {t!r} is not of the form Sq<k>")
        monos.append(tuple(mono))
    return monos


def _render_sum(monos) -> str:
    if not monos:
        return "0"
    ordered = sorted(monos, reverse=True)
    return " + ".join(" ".join(f"Sq{i}" for i in m) for m in ordered)


def _cmd_adem(args, cap):
    monos = _parse_monomials(args.expression)
    try:
        nf = steenrod.adem_normal_form(monos)
    except ValueError as e:
        raise InputError(str(e))
    payload = {"input": [list(m) for m in monos],
               "normal_form": [list(m) for m in sorted(nf, reverse=True)]}
    return "ok", payload, [_render_sum(nf)]


def _cmd_decompose_sq(args, cap):
    try:
        parts = steenrod.decompose_sq(args.k)
    except IsPowerOfTwo as e:
        return "violation", {"k": args.k, "reason": str(e)}, [str(e)]
    except ValueError as e:
        raise InputError(str(e))
    payload = {"k": args.k,
               "terms": {str(power): [list(m) for m in monos]
                         for power, monos in sorted(parts.items())}}
    human = [f"Sq{args.k} = " + " + ".join(
        f"Sq{power} ({_render_sum(monos)})" for power, monos in sorted(parts.items()))]
    return "ok", payload, human


def _cmd_steenrod_check(args, cap):
    alg, act = load_algebra_file(args.file)
    if act is None:
        raise InputError(f"{args.file} carries no action to check")
    try:
        steenrod.verify_action(alg, act)
    except ActionDefect as e:
        return "violation", {"verified": False, "problem": str(e)}, [f"action fails: {e}"]
    payload = {"verified": True, "p": alg.p,
               "operations": sorted(f"{s}@{j}" for s, j in act.maps)}
    return "ok", payload, ["action satisfies instability, top, and Cartan checks"]


def _cmd_derive(args, cap):
    try:
        scenario = connectivity.Scenario.load(args.scenario)
    except OSError as e:
        raise InputError(f"cannot read {args.scenario}: {e}")
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        raise InputError(f"{args.scenario} is not a scenario file: {e}")
    except RecursionError:
        raise InputError(f"{args.scenario} is nested too deeply to read")
    try:
        derivation = connectivity.derive(scenario.goal, scenario.facts)
    except connectivity.Saturated as e:
        return ("inconclusive", {"derived": False, "reason": str(e)},
                [f"saturated without the goal: {e}"])
    replayed = connectivity.verify_derivation(derivation, scenario.facts)
    payload = derivation.to_dict()
    payload["replayed"] = replayed
    human = [f"goal: {scenario.goal}"]
    for step in derivation.steps:
        human.append(f"  [{step.rule}] {step.output}")
    human.append(str(derivation.final))
    status = "ok" if replayed else "violation"
    return status, payload, human


def _cmd_corpus_export(args, cap):
    try:
        spec = corpus.parse_spec(args.spec)
        fixture = corpus.build(spec)
    except (ValueError, corpus.SizeBound) as e:
        raise InputError(str(e))
    doc = dump_algebra_file(fixture.algebra, fixture.action)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write {args.out}: {e}")
        payload = {"spec": str(fixture.spec), "written": args.out,
                   "dims": list(fixture.algebra.dims)}
        return "ok", payload, [f"wrote {args.out}"]
    sys.stdout.write(text)
    return None, None, None


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser's defaults from clobbering flags given
    # before the subcommand, so both positions work.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--human", action="store_true", default=argparse.SUPPRESS,
                        help="prose output instead of the JSON report")
    parser = argparse.ArgumentParser(
        prog="periodica", parents=[common],
        description="Exact periodicity analysis for finite graded algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(name, help_text):
        q = sub.add_parser(name, help=help_text, parents=[common])
        q.add_argument("file", help="algebra JSON file")
        return q

    with_file("validate", "check ring axioms, duality, and any action")
    q = with_file("periodicity", "search degrees for inducing elements")
    q.add_argument("--k", type=int, default=None, help="single degree to test")
    with_file("min-period", "least period plus arithmetic form check")
    for name, help_text in (("subquotient", "build the periodic window of an element"),
                            ("irreducible", "test whether an element is irreducible"),
                            ("decompose", "split the window along its inducing element")):
        q = with_file(name, help_text)
        q.add_argument("--x", required=True, help="element as DEGREE:c1,c2,...")
    q = sub.add_parser("adem", parents=[common],
                       help="admissible normal form of a mod-2 composite")
    q.add_argument("expression", help="e.g. 'Sq2 Sq2' or 'Sq2 Sq3 + Sq5'")
    q = sub.add_parser("decompose-sq", parents=[common],
                       help="write Sq^k over the generators Sq^(2^i)")
    q.add_argument("k", type=int)
    with_file("steenrod-check", "verify the action stored with an algebra")
    q = sub.add_parser("derive", parents=[common],
                       help="forward-chain a scenario file to its goal")
    q.add_argument("scenario", help="scenario JSON file")
    q = sub.add_parser("corpus", help="fixture corpus utilities")
    csub = q.add_subparsers(dest="corpus_command", required=True)
    q = csub.add_parser("export", parents=[common],
                        help="build a fixture and write its algebra file")
    q.add_argument("spec", help="e.g. 'ConnectedSum(ComplexProj(4),ComplexProj(4))@2'")
    q.add_argument("--out", default=None, help="write here instead of stdout")
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "periodicity": _cmd_periodicity,
    "min-period": _cmd_min_period,
    "subquotient": _cmd_subquotient,
    "irreducible": _cmd_irreducible,
    "decompose": _cmd_decompose,
    "adem": _cmd_adem,
    "decompose-sq": _cmd_decompose_sq,
    "steenrod-check": _cmd_steenrod_check,
    "derive": _cmd_derive,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    if command == "corpus":
        handler = _cmd_corpus_export
        command = f"corpus {args.corpus_command}"
    else:
        handler = _HANDLERS[command]
    try:
        cap = _search_cap()
        status, payload, human = handler(args, cap)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _VIOLATIONS as e:
        status, payload, human = "violation", {"problem": str(e)}, [f"refused: {e}"]
    except _INCONCLUSIVE as e:
        status, payload, human = "inconclusive", {"problem": str(e)}, [f"inconclusive: {e}"]
    if status is None:
        return 0
    report = {"command": command, "status": status,
              "payload": payload, "version": __version__}
    if getattr(args, "human", False):
        for line in human:
            print(line)
    else:
        print(json.dumps(report, indent=1, sort_keys=True))
    return _EXIT[status]


if __name__ == "__main__":
    sys.exit(main())
