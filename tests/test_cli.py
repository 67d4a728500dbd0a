import json
import pathlib
import subprocess
import sys

import pytest

from nqforge.cli import main

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fx(name):
    return str(FIXDIR / name)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_passes_valid_structure(capsys):
    code, out, err = run(capsys, ["verify", fx("action_line.json")])
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert out.strip().endswith("result: PASS")


def test_verify_fails_perturbed_with_witness(capsys):
    code, out, err = run(capsys, ["verify", fx("module_point_perturbed.json")])
    assert code == 1
    assert "[FAIL]" in out
    assert "witness:" in out
    assert out.strip().endswith("result: FAIL")


def test_verify_json_shape(capsys):
    code, out, err = run(capsys, ["verify", fx("two_term.json"), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify"
    assert doc["ok"] is True
    for row in doc["checks"]:
        assert set(row) >= {"name", "status", "seconds"}
        assert "witness" not in row


def test_verify_json_witness_only_on_failure(capsys):
    code, out, err = run(capsys, ["verify", fx("two_term_perturbed.json"), "--json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    failed = [row for row in doc["checks"] if row["status"] == "fail"]
    assert failed
    assert all("witness" in row for row in failed)
    passed = [row for row in doc["checks"] if row["status"] == "pass"]
    assert all("witness" not in row for row in passed)


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(capsys, ["verify", fx("no_such.json")])
    assert code == 2
    assert "error:" in err


def test_bad_json_syntax_reports_location(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"kind": "structure",\n "side": }\n')
    code, out, err = run(capsys, ["verify", str(p)])
    assert code == 2
    assert "line 2" in err


def test_bad_polynomial_reports_context(capsys, tmp_path):
    p = tmp_path / "badpoly.json"
    p.write_text(json.dumps({
        "kind": "structure",
        "side": "sE",
        "base_coordinates": ["x"],
        "frames": {"1": ["e"]},
        "anchor": {"e": {"x": "2 +* x"}},
        "brackets": {},
    }))
    code, out, err = run(capsys, ["verify", str(p)])
    assert code == 2
    assert "anchor" in err and "column" in err


def test_empty_structure_passes_vacuously(capsys):
    code, out, err = run(capsys, ["verify", fx("empty.json")])
    assert code == 0


def test_malformed_files_are_input_errors(capsys, tmp_path):
    # an empty object or a foreign key must not verify as an empty structure
    morph = json.loads(pathlib.Path(fx("morphism_point_two_term.json")).read_text())
    morph["source"]["n"] = 2
    cases = [("verify", {}), ("verify", {"n": 2}), ("check-morphism", morph)]
    for i, (command, data) in enumerate(cases):
        p = tmp_path / ("bad%d.json" % i)
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, [command, str(p)])
        assert code == 2, (command, data)
        assert "error:" in err


def test_to_q_prints_the_field(capsys):
    code, out, err = run(capsys, ["to-q", fx("action_line.json")])
    assert code == 0
    assert "Q x = -e1 - x*e2" in out
    assert "Q e1 = e1*e2" in out
    assert "Q e2 = 0" in out


def test_to_q_json_lists_terms(capsys):
    code, out, err = run(capsys, ["to-q", fx("two_term.json"), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["q"]["a"] == [["-1", ["b"]]]
    # zero images are omitted from the term map
    assert doc["q"].get("t", []) == []


def test_from_q_recovers_the_declared_tables(capsys):
    code, out, err = run(capsys, ["from-q", fx("module_point.json")])
    assert code == 0
    assert "declared tables match the extracted ones" in out


def test_from_q_flags_corrupted_field(capsys):
    code, out, err = run(capsys, ["from-q", fx("action_line_corrupted_q.json")])
    assert code == 1
    assert "witness:" in out


def test_from_q_without_field_is_an_input_error(capsys, tmp_path):
    p = tmp_path / "noq.json"
    p.write_text(json.dumps({
        "kind": "structure",
        "side": "sE",
        "base_coordinates": [],
        "frames": {"1": ["e"]},
        "anchor": {},
        "brackets": {},
    }))
    code, out, err = run(capsys, ["from-q", str(p)])
    assert code == 2


def test_q_block_of_wrong_degree_is_an_input_error(capsys, tmp_path):
    # degree 2, then degrees 1 and 2 mixed: every structure command refuses
    # the block with its context instead of a traceback or a verdict
    blocks = [
        {"x": [["1", ["e1", "e2"]]]},
        {"x": [["1", ["e1"]], ["1", ["e1", "e2"]]]},
    ]
    for i, block in enumerate(blocks):
        data = json.loads(pathlib.Path(fx("action_line.json")).read_text())
        data["q"] = block
        p = tmp_path / ("badq%d.json" % i)
        p.write_text(json.dumps(data))
        for command in ("verify", "to-q", "from-q", "roundtrip"):
            code, out, err = run(capsys, [command, str(p)])
            assert code == 2, (command, block)
            assert "error: %s.q:" % p in err, (command, block)


def test_roundtrip_structure(capsys):
    code, out, err = run(capsys, ["roundtrip", fx("jacobiator_point.json")])
    assert code == 0
    assert "brackets -> field -> brackets" in out
    assert "printer then parser is the identity" in out


def test_roundtrip_catches_corruption(capsys):
    code, out, err = run(capsys, ["roundtrip", fx("action_line_corrupted_q.json")])
    assert code == 1


def test_roundtrip_morphism(capsys):
    code, out, err = run(capsys, ["roundtrip", fx("morphism_tangent_squaring.json")])
    assert code == 0
    assert "morphism -> algebra map -> morphism" in out


def test_check_morphism_pass_and_fail(capsys):
    code, out, err = run(
        capsys, ["check-morphism", fx("morphism_rescale_two_term.json")]
    )
    assert code == 0
    assert "formulations agree" in out

    code2, out2, err2 = run(
        capsys, ["check-morphism", fx("morphism_tangent_squaring_broken.json")]
    )
    assert code2 == 1
    assert "witness:" in out2


def test_check_morphism_max_arity_truncates_rows(capsys):
    code, out, err = run(
        capsys,
        ["check-morphism", fx("morphism_point_two_term.json"),
         "--json", "--max-arity", "1"],
    )
    doc = json.loads(out)
    arity_rows = [r for r in doc["checks"] if r["name"].startswith("bracket condition")]
    assert len(arity_rows) == 1


def test_json_rows_report_their_own_time(capsys):
    code, out, err = run(capsys, ["verify", fx("two_term.json"), "--json"])
    rows = {r["name"]: r["seconds"] for r in json.loads(out)["checks"]}
    assert rows["derived-brackets-match"] > 0
    code, out, err = run(
        capsys, ["check-morphism", fx("morphism_point_two_term.json"), "--json"]
    )
    doc = json.loads(out)
    arity_rows = [r for r in doc["checks"] if r["name"].startswith("bracket condition")]
    assert arity_rows and all(r["seconds"] > 0 for r in arity_rows)


def test_max_arity_below_one_is_a_usage_error(capsys):
    for argv in (
        ["check-morphism", fx("morphism_point_two_term_doubled.json"), "--max-arity", "0"],
        ["verify", fx("action_line.json"), "--max-arity", "-3"],
        ["verify", fx("action_line.json"), "--max-arity", "two"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "K >= 1" in capsys.readouterr().err


def test_seed_is_a_usage_error_everywhere(capsys):
    for command in ("verify", "to-q", "from-q", "roundtrip", "check-morphism"):
        with pytest.raises(SystemExit) as exc:
            main([command, fx("morphism_identity_tangent_plane.json"), "--seed", "1"])
        assert exc.value.code == 2, command


def test_max_arity_belongs_to_the_sweeping_subcommands(capsys):
    # to-q, from-q and roundtrip sweep no arities
    for command in ("to-q", "from-q", "roundtrip"):
        with pytest.raises(SystemExit) as exc:
            main([command, fx("action_line.json"), "--max-arity", "1"])
        assert exc.value.code == 2, command


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "nqforge.cli", "verify", fx("action_line.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout


def test_text_witness_prints_like_json(capsys):
    code, out, err = run(capsys, ["verify", fx("action_line_perturbed.json")])
    assert code == 1
    assert 'witness: ["representation", "e1", "e2", "x", "x"]' in out
    assert "Polynomial(" not in out


def test_truncated_sweeps_are_incomplete_not_failed(capsys):
    code, out, err = run(
        capsys, ["verify", fx("action_line_perturbed.json"), "--max-arity", "1"]
    )
    assert code == 1
    assert "[INCOMPLETE] identity residuals are function-linear" in out
    assert "[PASS] routes agree" in out
    code, out, err = run(
        capsys,
        ["check-morphism", fx("morphism_point_two_term_doubled.json"),
         "--max-arity", "1"],
    )
    assert code == 1
    assert "[INCOMPLETE] bracket condition, arity 1" in out
    assert "[PASS] formulations agree" in out
    # n = 1: arity n+2 = 3 is all the identities need
    code, out, err = run(
        capsys, ["verify", fx("action_line.json"), "--max-arity", "3"]
    )
    assert code == 0
    assert "INCOMPLETE" not in out
