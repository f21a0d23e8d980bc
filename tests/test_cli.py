"""Command-line driver, exercised in process through main(argv)."""

import json
from pathlib import Path

import pytest

from periodica import cli, connectivity, decomposition, fplin, periodicity, steenrod


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


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_search_cap_env(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "mixed.json")
    code, _, _ = run(capsys, "corpus", "export",
                     "ConnectedSum(ComplexProj(8),QuatProj(4))@2", "--out", path)
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
    (periodicity, "minimum_period", fplin.OrderCapExceeded, "min-period", "inconclusive"),
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
