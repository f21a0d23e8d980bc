"""Command-line driver, exercised in process through main(argv)."""

import functools
import json
from pathlib import Path

import pytest

from periodica import cli, connectivity, corpus, decomposition, fplin, periodicity, steenrod


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def report(out):
    doc = json.loads(out)
    assert set(doc) == {"command", "status", "payload", "version"}
    return doc


@pytest.fixture
def cp4_file(tmp_path, capsys):
    path = str(tmp_path / "cp4.json")
    code, _, _ = run(capsys, "corpus", "export", "ComplexProj(4)@2", "--out", path)
    assert code == 0
    return path


@pytest.fixture
def cs_file(tmp_path, capsys):
    path = str(tmp_path / "cs.json")
    code, _, _ = run(capsys, "corpus", "export",
                     "ConnectedSum(ComplexProj(4),ComplexProj(4))@2", "--out", path)
    assert code == 0
    return path


def test_validate_ok(capsys, cp4_file):
    code, out, err = run(capsys, "validate", cp4_file)
    assert code == 0 and err == ""
    doc = report(out)
    assert doc["command"] == "validate"
    assert doc["status"] == "ok"
    assert doc["payload"]["dims"] == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert doc["payload"]["poincare_duality"] is True
    assert doc["payload"]["action_present"] is True
    assert doc["payload"]["problems"] == []


def test_output_is_deterministic(capsys, cs_file):
    _, first, _ = run(capsys, "min-period", cs_file)
    _, second, _ = run(capsys, "min-period", cs_file)
    assert first == second


def test_export_stdout_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "corpus", "export", "QuatProj(3)@2")
    assert code == 0
    path = tmp_path / "hp3.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert report(out2)["status"] == "ok"


@pytest.mark.parametrize("where", ["missing/cp4.json", "."])
def test_export_to_an_unwritable_path_is_bad_input(capsys, tmp_path, where):
    # A missing directory, then a directory: both raised OSError out of main.
    path = str(tmp_path / where)
    code, out, err = run(capsys, "corpus", "export", "ComplexProj(4)@2", "--out", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")


def test_min_period_human_line(capsys, cs_file):
    code, out, _ = run(capsys, "min-period", cs_file, "--human")
    assert code == 0
    assert out == "k = 2, conformant: 2 = 2^1\n"


def test_global_flag_before_subcommand(capsys, cs_file):
    code, out, _ = run(capsys, "--human", "min-period", cs_file)
    assert code == 0
    assert out == "k = 2, conformant: 2 = 2^1\n"


def test_min_period_json(capsys, cs_file):
    code, out, _ = run(capsys, "min-period", cs_file)
    assert code == 0
    doc = report(out)
    assert doc["payload"]["period"] == 2
    assert doc["payload"]["all_periods"] == [2, 4, 6]
    assert doc["payload"]["form"] == {"conformant": True, "description": "2 = 2^1"}
    assert doc["payload"]["certificate"]["element"] == {"degree": 2, "coeffs": [1, 1]}


def test_min_period_answers_a_wide_chain_past_the_cap(capsys, tmp_path):
    """Degree 2 of 24 x ComplexProj(6) has 2^24 candidates, past the default
    cap.  Degrees 4..10 get the powers of its Nakayama generator."""
    spec = functools.reduce(lambda a, b: f"ConnectedSum({a},{b})", ["ComplexProj(6)"] * 24)
    path = str(tmp_path / "wide.json")
    assert run(capsys, "corpus", "export", f"{spec}@2", "--out", path)[0] == 0
    code, out, _ = run(capsys, "min-period", path)
    assert code == 0
    payload = report(out)["payload"]
    assert payload["all_periods"] == [2, 4, 6, 8, 10] and payload["inconclusive"] == []


def test_adem_human(capsys):
    code, out, _ = run(capsys, "adem", "Sq2 Sq2", "--human")
    assert code == 0
    assert out == "Sq3 Sq1\n"


def test_adem_json(capsys):
    code, out, _ = run(capsys, "adem", "Sq2 Sq3 + Sq5")
    assert code == 0
    doc = report(out)
    assert doc["payload"]["normal_form"] == [[4, 1]]


def test_decompose_sq_exit_codes(capsys):
    code, out, _ = run(capsys, "decompose-sq", "6")
    assert code == 0
    doc = report(out)
    assert set(doc["payload"]["terms"]) == {"1", "2"}
    code, out, _ = run(capsys, "decompose-sq", "8")
    assert code == 1
    assert report(out)["status"] == "violation"


def test_periodicity_full_scan(capsys, cs_file):
    code, out, _ = run(capsys, "periodicity", cs_file)
    assert code == 0
    doc = report(out)
    assert doc["payload"]["periods"] == [2, 4, 6]
    assert doc["payload"]["inconclusive"] == []
    assert doc["payload"]["certificates"]["2"]["element"]["coeffs"] == [1, 1]


def test_jobs_flag_is_bad_input(capsys, cs_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["periodicity", cs_file, "--jobs", "3"])
    assert exc.value.code == 2


def test_subquotient_and_refusal(capsys, cs_file):
    code, out, _ = run(capsys, "subquotient", cs_file, "--x", "2:1,1")
    assert code == 0
    doc = report(out)
    assert doc["payload"]["window_dims"] == [0, 2, 0, 2, 0, 2, 0]
    assert doc["payload"]["action_induced"] is True
    code, out, _ = run(capsys, "subquotient", cs_file, "--x", "2:1,0")
    assert code == 1
    doc = report(out)
    assert doc["status"] == "violation"
    assert doc["payload"]["refusal"]["failed_condition"] == "surjectivity"


def test_decompose_command(capsys, cs_file):
    code, out, _ = run(capsys, "decompose", cs_file, "--x", "2:1,1")
    assert code == 0
    doc = report(out)
    assert doc["payload"]["summand_count"] == 2
    assert doc["payload"]["verified"] is True
    assert doc["payload"]["violations"] == []
    elements = sorted(s["element"]["coeffs"] for s in doc["payload"]["summands"])
    assert elements == [[0, 1], [1, 0]]


def test_irreducible_command(capsys, cp4_file, cs_file):
    code, out, _ = run(capsys, "irreducible", cp4_file, "--x", "2:1")
    assert code == 0
    assert report(out)["payload"]["irreducible"] is True
    code, out, _ = run(capsys, "irreducible", cs_file, "--x", "2:1,1")
    assert code == 0
    doc = report(out)
    assert doc["payload"]["irreducible"] is False
    assert doc["payload"]["witness"] is not None


def test_steenrod_check(capsys, cp4_file):
    code, out, _ = run(capsys, "steenrod-check", cp4_file)
    assert code == 0
    assert report(out)["payload"]["verified"] is True


def test_derive_human_chain(capsys, tmp_path):
    scenario, _ = connectivity.codim_cascade_scenario(80)
    path = str(tmp_path / "cascade80.json")
    scenario.save(path)
    code, out, _ = run(capsys, "derive", path, "--human")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("goal:")
    assert lines[-1] == "Periodic(M, 4, 1, 79; rational)"
    assert "Periodic(M, 4, 1, 79" in out


def test_derive_json_replays(capsys, tmp_path):
    scenario, _ = connectivity.codim_cascade_scenario(32)
    path = str(tmp_path / "cascade32.json")
    scenario.save(path)
    code, out, _ = run(capsys, "derive", path)
    assert code == 0
    doc = report(out)
    assert doc["payload"]["replayed"] is True
    assert doc["payload"]["final"] == {"kind": "Periodic",
                                       "args": ["M", 4, 1, 31, "rational"]}


def test_derive_saturates_inconclusive(capsys, tmp_path):
    scenario = connectivity.Scenario(
        "missing hypotheses",
        (connectivity.dimension("M", 32),),
        connectivity.periodic("M", 4, 1, 31, "rational"))
    path = str(tmp_path / "stuck.json")
    scenario.save(path)
    code, out, _ = run(capsys, "derive", path)
    assert code == 1
    assert report(out)["status"] == "inconclusive"


def test_input_errors_exit_two(capsys, cs_file, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "subquotient", cs_file, "--x", "2:a,b")
    assert code == 2 and "non-integer" in err
    code, _, err = run(capsys, "subquotient", cs_file, "--x", "2:1")
    assert code == 2 and "coordinates" in err
    code, _, err = run(capsys, "corpus", "export", "Blob(2)@2")
    assert code == 2 and err.startswith("error:")


def sphere_chain(k):
    """A left-nested connected sum of k copies of S^2: k levels deep."""
    return functools.reduce(lambda a, _: f"ConnectedSum({a},Sphere(2))", range(k - 1),
                            "Sphere(2)") + "@2"


@pytest.mark.parametrize("spec, family", [
    ("Product(ComplexProj(4))@2", "Product"), ("ConnectedSum(ComplexProj(2))@2", "ConnectedSum"),
    ("ComplexProj(ComplexProj(2))@2", "ComplexProj"), ("Product(ComplexProj(2),7)@2", "Product"),
    ("ComplexProj()@2", "ComplexProj"),
    # too deep to print (350) or to parse recursively (500) without the depth bound
    pytest.param(sphere_chain(350), "ConnectedSum", id="350-fold-chain"),
    pytest.param(sphere_chain(500), "ConnectedSum", id="500-fold-chain")])
def test_malformed_specs_exit_two(capsys, spec, family):
    code, out, err = run(capsys, "corpus", "export", spec)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {family} takes ")


def test_specs_nest_up_to_the_depth_bound(capsys, tmp_path):
    bound = corpus.MAX_SPEC_DEPTH
    code, _, _ = run(capsys, "corpus", "export", sphere_chain(bound),
                     "--out", str(tmp_path / "chain.json"))
    assert code == 0
    spec = corpus.parse_spec(sphere_chain(bound))
    assert spec.depth == bound and str(spec) == sphere_chain(bound)
    code, out, err = run(capsys, "corpus", "export", sphere_chain(bound + 1))
    assert code == 2 and out == "" and err.startswith("error: ConnectedSum takes ")
    with pytest.raises(ValueError, match=f"nested at most {bound} levels"):
        corpus.connected_sum(spec, corpus.sphere(2))


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_search_cap_env(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "mixed.json")
    # degree 2 is past the direct bound 3k <= n-1 = 5 and has no divisor
    # b >= 2 below it, so past cap 1 no rule decides it
    code, _, _ = run(capsys, "corpus", "export",
                     "ConnectedSum(Product(Sphere(2),Sphere(4)),Product(Sphere(2),Sphere(4)))@2",
                     "--out", path)
    assert code == 0
    monkeypatch.setenv("PERIODICA_SEARCH_CAP", "1")
    code, out, _ = run(capsys, "periodicity", path, "--k", "2")
    assert code == 1
    doc = report(out)
    assert doc["status"] == "inconclusive"
    assert doc["payload"]["inconclusive"] == [2]
    monkeypatch.delenv("PERIODICA_SEARCH_CAP")
    code, out, _ = run(capsys, "periodicity", path, "--k", "2")
    assert code == 0
    doc = report(out)
    assert doc["payload"]["periods"] == [] and doc["payload"]["exhausted"] == [2]
    monkeypatch.setenv("PERIODICA_SEARCH_CAP", "zero")
    code, _, err = run(capsys, "periodicity", path, "--k", "2")
    assert code == 2 and "PERIODICA_SEARCH_CAP" in err


def test_composite_modulus_file_is_bad_input(capsys, cp4_file, tmp_path):
    doc = json.loads(open(cp4_file).read())
    for p in (4, 4194301):
        doc["algebra"]["p"] = p
        path = tmp_path / f"p{p}.json"
        path.write_text(json.dumps(doc))
        for command in ("min-period", "validate", "periodicity"):
            code, out, err = run(capsys, command, str(path))
            assert code == 2 and out == "" and err.startswith("error:"), (p, command)
            assert "Traceback" not in err
    code, _, err = run(capsys, "corpus", "export", "ComplexProj(4)@9")
    assert code == 2 and "not prime" in err


def test_decompose_verifies_once(capsys, monkeypatch, cs_file):
    calls = []
    verify = decomposition.verify_decomposition
    monkeypatch.setattr(decomposition, "verify_decomposition",
                        lambda *args: calls.append(args) or verify(*args))
    code, out, _ = run(capsys, "decompose", cs_file, "--x", "2:1,1")
    assert code == 0 and report(out)["payload"]["verified"] is True
    assert len(calls) == 1


def _raises(exc):
    def boom(*args, **kwargs):
        raise exc("injected")
    return boom


FAILURES = [
    (decomposition, "decompose", decomposition.VerificationFailure, "decompose", "violation"),
    (decomposition, "decompose", decomposition.OverlapMismatch, "decompose", "violation"),
    (steenrod, "induced_action_on_window", steenrod.InducedActionFailure, "subquotient",
     "violation"),
    (periodicity, "minimum_period", fplin.ConsistencyFailure, "min-period", "violation"),
    (periodicity, "search_degrees", periodicity.HypothesisNotMet, "periodicity", "inconclusive"),
]


@pytest.mark.parametrize("owner, name, exc, command, status", FAILURES,
                         ids=[f[2].__name__ for f in FAILURES])
def test_library_failures_become_reports(capsys, monkeypatch, cs_file,
                                         owner, name, exc, command, status):
    monkeypatch.setattr(owner, name, _raises(exc))
    extra = ("--x", "2:1,1") if command in ("decompose", "subquotient") else ()
    code, out, _ = run(capsys, command, cs_file, *extra)
    assert code == 1
    doc = report(out)
    assert doc["status"] == status and doc["payload"] == {"problem": "injected"}


def test_derive_hypothesis_failure_is_inconclusive(capsys, monkeypatch, tmp_path):
    scenario, _ = connectivity.codim_cascade_scenario(32)
    path = tmp_path / "scenario.json"
    scenario.save(str(path))
    monkeypatch.setattr(connectivity, "derive", _raises(connectivity.HypothesisNotMet))
    code, out, _ = run(capsys, "derive", str(path))
    assert code == 1 and report(out)["status"] == "inconclusive"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, make", [
    ("cascade80", lambda: connectivity.codim_cascade_scenario(80)),
    ("four_weight40", lambda: connectivity.four_weight_scenario(40, (2, 2, 4, 4))),
])
def test_derive_golden_output(capsys, tmp_path, name, make):
    scenario, _ = make()
    path = tmp_path / "scenario.json"
    scenario.save(str(path))
    code, out, _ = run(capsys, "derive", str(path))
    assert code == 0
    assert out == (GOLDEN / f"derive_{name}.json").read_text(encoding="utf-8")


WINDOW_GOLDEN = {
    "cs2": ("ConnectedSum(ComplexProj(4),ComplexProj(4))@2", "2:1,1"),
    "cs3_3": ("ConnectedSum(ConnectedSum(ComplexProj(4),ComplexProj(4)),ComplexProj(4))@3",
              "2:1,2,1"),
}


@pytest.mark.parametrize("command", ["decompose", "irreducible"])
@pytest.mark.parametrize("name", WINDOW_GOLDEN)
def test_window_golden_output(capsys, tmp_path, command, name):
    spec, x = WINDOW_GOLDEN[name]
    path = str(tmp_path / "alg.json")
    assert run(capsys, "corpus", "export", spec, "--out", path)[0] == 0
    code, out, _ = run(capsys, command, path, "--x", x)
    assert code == 0
    assert out == (GOLDEN / f"{command}_{name}.json").read_text(encoding="utf-8")


S2CP10, CS2CP8 = "Product(Sphere(2),ComplexProj(10))@3", "ConnectedSum(ComplexProj(8),ComplexProj(8))@5"
# name -> (spec, PERIODICA_SEARCH_CAP or None for the default, command and
# its flags).  At cap 2, degrees 4 and 6 of S2CP10 are direct multiples of
# degree 2 answered past the cap by find_inducing_element's rule 5, and its
# window degrees 8..20 (CS2CP8's 6..14) by the powers of rule 6.
SEARCH_GOLDEN = {
    "min_period_s2cp10": (S2CP10, None, ("min-period",)),
    "min_period_s2cp10_cap2": (S2CP10, "2", ("min-period",)),
    "min_period_cs2cp8": (CS2CP8, None, ("min-period",)),
    "min_period_cs2cp8_cap2": (CS2CP8, "2", ("min-period",)),
    "periodicity_s2cp10_k4_cap2": (S2CP10, "2", ("periodicity", "--k", "4")),
    "periodicity_s2cp10_k6_cap2": (S2CP10, "2", ("periodicity", "--k", "6")),
}


@pytest.mark.parametrize("name", SEARCH_GOLDEN)
def test_search_golden_output(capsys, tmp_path, monkeypatch, name):
    spec, cap, (command, *flags) = SEARCH_GOLDEN[name]
    path = str(tmp_path / "alg.json")
    assert run(capsys, "corpus", "export", spec, "--out", path)[0] == 0
    if cap is None:
        monkeypatch.delenv("PERIODICA_SEARCH_CAP", raising=False)
    else:
        monkeypatch.setenv("PERIODICA_SEARCH_CAP", cap)
    code, out, _ = run(capsys, command, path, *flags)
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def _with_first_fact(doc, fact):
    return {**doc, "facts": [fact] + doc["facts"][1:]}


_SCENARIO = connectivity.codim_cascade_scenario(32)[0].to_dict()
MALFORMED_SCENARIOS = {
    "string-dimension": _with_first_fact(_SCENARIO, {"kind": "Dim", "args": ["M", "12"]}),
    "list-dimension": _with_first_fact(_SCENARIO, {"kind": "Dim", "args": ["M", [12]]}),
    "top-level-list": [_SCENARIO["goal"]] + _SCENARIO["facts"],
    "unknown-coefficients": {**_SCENARIO, "goal": {"kind": "Periodic",
                                                   "args": ["M", 4, 1, 31, "weird"]}},
}


@pytest.mark.parametrize("doc", MALFORMED_SCENARIOS.values(), ids=MALFORMED_SCENARIOS)
def test_malformed_scenario_is_bad_input(capsys, tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "derive", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    assert "not a scenario file" in err and "Traceback" not in err


# Each axiom that derive refuses, in the scenario that once crashed derive
# with a traceback and exit 1 (ambient-periodicity built a window 3..1).
MALFORMED_AXIOMS = {
    "negative-codimension": ({"kind": "Codim", "args": ["W", "M", -5]}, "Codim(W, M, -5)"),
    "negative-dimension": ({"kind": "Dim", "args": ["W", -1]}, "Dim(W, -1)"),
    "negative-connectivity": ({"kind": "Connected", "args": ["W", "M", -2]},
                              "Connected(W, M, -2)"),
    "reversed-window": ({"kind": "Periodic", "args": ["M", 4, 4, 3, "integral"]},
                        "Periodic(M, 4, 4, 3; integral)"),
    "unknown-coefficients": ({"kind": "Periodic", "args": ["M", 4, 1, 3, "complex"]},
                             "Periodic(M, 4, 1, 3; complex)"),
    "zero-period": ({"kind": "Periodic", "args": ["M", 0, 1, 3, "integral"]},
                    "Periodic(M, 0, 1, 3; integral)"),
}


@pytest.mark.parametrize("name", MALFORMED_AXIOMS)
def test_malformed_axiom_exits_two_naming_the_fact(capsys, tmp_path, name):
    bad, shown = MALFORMED_AXIOMS[name]
    doc = {"description": "malformed axiom",
           "facts": [{"kind": "Dim", "args": ["M", 4]},
                     {"kind": "Connected", "args": ["W", "M", 6]}, bad],
           "goal": {"kind": "Periodic", "args": ["M", 4, 1, 3, "integral"]}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (("derive", str(path)), ("derive", str(path), "--human")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert shown in err and "Traceback" not in err


def _degree1_document(entry, dims=(1, 1, 1), action=None):
    """A class x in degree 1 with x * x = entry * (the top class)."""
    one = [[1]]
    mult = {"0,0": one, "0,1": one, "1,0": one, "0,2": one, "2,0": one, "1,1": [[entry]]}
    return {"algebra": {"p": 2, "top_degree": 2, "dims": list(dims), "mult": mult},
            "action": action}


MALFORMED_ALGEBRAS = {
    "float-entry": _degree1_document(0.9),
    "bool-entry": _degree1_document(True),
    "string-entry": _degree1_document("1"),
    "float-dimension": _degree1_document(1, dims=(1, 1.5, 1)),
    "string-modulus": {"algebra": {**_degree1_document(1)["algebra"], "p": "2"}, "action": None},
    "float-top-degree": {"algebra": {**_degree1_document(1)["algebra"], "top_degree": 2.0},
                         "action": None},
    "bool-action-entry": _degree1_document(1, action={"maps": {"1,1": [[True]]}}),
    "algebra-array": {"algebra": [_degree1_document(1)["algebra"]], "action": None},
    "mult-array": {"algebra": {**_degree1_document(1)["algebra"], "mult": [[[1]]]},
                   "action": None},
    "labels-array": {"algebra": {**_degree1_document(1)["algebra"], "labels": [["1"], ["x"]]},
                     "action": None},
    "action-array": _degree1_document(1, action=[{"1,1": [[1]]}]),
    "maps-array": _degree1_document(1, action={"maps": [[[1]]]}),
    # With no tables, dims read as zeros would pass as an algebra.
    "dims-object": {"algebra": {"p": 2, "top_degree": 4, "dims": {"0": 1, "2": 1, "4": 1},
                                "mult": {}}, "action": None},
    "empty-dims-object": {"algebra": {"p": 2, "top_degree": 4, "dims": {}, "mult": {}},
                          "action": None},
    # Sq1 on degree 5 lands past the top degree, but its entries are still read.
    "bad-entries-past-the-top": _degree1_document(
        1, action={"maps": {"1,1": [[1]], "1,5": [["junk", 2.5]]}}),
    "labels-past-the-top": {"algebra": {**_degree1_document(1)["algebra"], "labels": {"7": []}},
                            "action": None},
    # The axiom checks key products in int64 only below this total dimension.
    "total-dimension-at-the-bound": {
        "algebra": {"p": 2, "top_degree": 1, "dims": [1, 54_999], "mult": {}}, "action": None},
}


@pytest.mark.parametrize("doc", MALFORMED_ALGEBRAS.values(), ids=MALFORMED_ALGEBRAS)
def test_malformed_algebra_is_bad_input(capsys, tmp_path, doc):
    """Entries and sizes are not truncated to integers: a float, bool or
    string is refused as input, and so is an array or object in the wrong
    place."""
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    assert "does not hold an algebra document" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "derive"])
def test_deeply_nested_json_is_bad_input(capsys, tmp_path, command):
    """JSON nested past the interpreter's recursion limit is refused, not a crash."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == "" and err == f"error: {path} is nested too deeply to read\n"


def test_a_large_degree_without_a_unit_table_is_a_violation(capsys, tmp_path):
    """1y = 0 for the 54 996 classes y of degree 3: a verdict and exit 1,
    not a memory error."""
    mult = {key: [[1]] for key in ("0,0", "0,1", "1,0", "0,2", "2,0")}
    doc = {"algebra": {"p": 3, "top_degree": 3, "dims": [1, 1, 1, 54_996], "mult": mult},
           "action": None}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and err == ""
    assert report(out)["payload"]["problems"] == [
        "algebra: unit fails on the left in degree 3", "pairing is not perfect"]


def test_decompose_refuses_a_window_mode_element(capsys, tmp_path):
    """x = 4:1 induces periodicity on QuatProj(3) (n = 12) by the window
    test, but 3k > n-1, so there is no degree-k ring to split."""
    path = str(tmp_path / "alg.json")
    assert run(capsys, "corpus", "export", "QuatProj(3)@2", "--out", path)[0] == 0
    assert run(capsys, "subquotient", path, "--x", "4:1")[0] == 0
    code, out, err = run(capsys, "decompose", path, "--x", "4:1")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: decompose needs 3k <= n-1")


def test_decompose_refuses_a_window_degree_before_building_a_window(capsys, tmp_path,
                                                                     monkeypatch):
    """4:0 does not induce on QuatProj(3) (n = 12), but its degree alone
    puts it past decompose (3k > n-1): bad input, and no window is built."""
    path = str(tmp_path / "alg.json")
    assert run(capsys, "corpus", "export", "QuatProj(3)@2", "--out", path)[0] == 0
    assert run(capsys, "subquotient", path, "--x", "4:0")[0] == 1

    def no_window(*args, **kwargs):
        raise AssertionError("subquotient called")

    monkeypatch.setattr(periodicity, "subquotient", no_window)
    code, out, err = run(capsys, "decompose", path, "--x", "4:0")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: decompose needs 3k <= n-1, got k = 4, n = 12")
    assert run(capsys, "decompose", path, "--x", "4:1")[0] == 2


def _export(capsys, tmp_path, spec):
    path = str(tmp_path / "alg.json")
    assert run(capsys, "corpus", "export", spec, "--out", path)[0] == 0
    return path


def test_subquotient_accepts_a_product_certificate(capsys, tmp_path):
    """On ComplexProj(4) (n = 8) x = 4:1 lies past the direct bound and
    leaves degree 4 outside the window conditions, but it is y*y for the
    direct inducer y = 2:1."""
    path = _export(capsys, tmp_path, "ComplexProj(4)@2")
    code, out, _ = run(capsys, "subquotient", path, "--x", "4:1")
    assert code == 0
    assert report(out)["payload"] == {"k": 4, "mode": "product", "action_induced": False,
                                      "window_dims": [0, 1, 0, 1, 0, 1, 0]}


def test_subquotient_accepts_a_power_past_the_cap(capsys, tmp_path):
    """On 24xCP(6)@2 the product search passes the cap, and x0^3 (x0 the
    sum of the degree-2 classes) is the power min-period certifies in
    degree 6: the window is built as a product certificate."""
    spec = functools.reduce(lambda a, b: f"ConnectedSum({a},{b})", ["ComplexProj(6)"] * 24)
    path = _export(capsys, tmp_path, f"{spec}@2")
    code, out, _ = run(capsys, "subquotient", path, "--x", "6:" + ",".join(["1"] * 24))
    assert code == 0
    assert report(out)["payload"]["mode"] == "product"


def test_irreducible_accepts_a_window_mode_inducer(capsys, tmp_path):
    """4:1 induces on QuatProj(3) by the window test with an empty gap, so
    the splitting (0, 4:1) keeps an inducing summand."""
    path = _export(capsys, tmp_path, "QuatProj(3)@2")
    code, out, _ = run(capsys, "irreducible", path, "--x", "4:1")
    assert code == 0
    assert report(out)["payload"] == {"irreducible": True, "witness": None}


@pytest.mark.parametrize("spec, x, failed", [
    ("QuatProj(3)@2", "4:0", [4, "surjectivity"]),
    # 6:0,1,0 passes the window test, but degree 4 escapes the window conditions
    ("Product(ComplexProj(2),ComplexProj(3))@2", "6:0,1,0", [4, "gap"]),
])
def test_window_mode_refusal_names_the_failure(capsys, tmp_path, spec, x, failed):
    path = _export(capsys, tmp_path, spec)
    code, out, _ = run(capsys, "subquotient", path, "--x", x)
    assert code == 1
    doc = report(out)
    assert doc["status"] == "violation" and doc["payload"]["inducing"] is False
    assert "gap nonempty" not in out
    refusal = doc["payload"]["refusal"]
    assert [refusal["failed_degree"], refusal["failed_condition"]] == failed


def test_element_of_the_top_degree_is_bad_input(capsys, cp4_file):
    code, out, err = run(capsys, "subquotient", cp4_file, "--x", "8:1")
    assert code == 2 and out == "" and "outside 1..7" in err


def test_well_formed_degree1_document_passes(capsys, tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(_degree1_document(1, action={"maps": {"1,1": [[1]]}})))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and report(out)["status"] == "ok"


@pytest.mark.parametrize("table, key", [("mult", "01,1"), ("maps", "1,01")])
def test_a_degree_pair_written_twice_is_bad_input(capsys, tmp_path, table, key):
    """"1,1" and "01,1" name one degree pair: exit 2 naming the pair, where
    the last of them used to be kept and "01,1": [[0]] read as a broken
    pairing (exit 1)."""
    doc = _degree1_document(1, action={"maps": {"1,1": [[1]]}})
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(path))[0] == 0
    (doc["algebra"] if table == "mult" else doc["action"])[table][key] = [[0]]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: {path} does not hold an algebra document: "
                   f"{table} names (1, 1) twice, as '1,1' and '{key}'\n")


def test_steenrod_check_refuses_a_nonassociative_algebra(capsys, cp4_file, tmp_path):
    doc = json.loads(open(cp4_file).read())
    del doc["algebra"]["mult"]["2,4"]
    path = tmp_path / "nonassociative.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "steenrod-check", str(path))
    assert code == 1
    assert "associative" in report(out)["payload"]["problem"]
