"""Golden --json reports: every fixture through every subcommand that
applies to it, verify and check-morphism also with --max-arity 1, compared
record by record with tests/golden_cli.json.

Each record keeps the exit code and the report with the per-check
"seconds" dropped; the CLI runs inside the fixtures directory, so "file"
is the fixture name.  A refactor that claims identical output is checked
by this test; a change that means to alter output rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and the diff of the golden file shows exactly which records changed.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"

STRUCTURE_COMMANDS = ["verify", "to-q", "from-q", "roundtrip"]
MORPHISM_COMMANDS = ["check-morphism", "roundtrip"]
SWEEPING_COMMANDS = ["verify", "check-morphism"]


def _argvs():
    for path in sorted(FIXDIR.glob("*.json")):
        with open(path) as fh:
            kind = json.load(fh).get("kind")
        commands = MORPHISM_COMMANDS if kind == "morphism" else STRUCTURE_COMMANDS
        for command in commands:
            yield [command, path.name, "--json"]
            if command in SWEEPING_COMMANDS:
                yield [command, path.name, "--json", "--max-arity", "1"]


def _record(argv):
    from nqforge.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    report = json.loads(buf.getvalue())
    for row in report.get("checks", ()):
        row.pop("seconds")
    return {"argv": argv, "rc": rc, "report": report}


def records():
    """All golden records, computed now; must run inside FIXDIR."""
    return [_record(argv) for argv in _argvs()]


def test_json_reports_match_golden(monkeypatch):
    monkeypatch.chdir(FIXDIR)
    with open(GOLDEN) as fh:
        want = {json.dumps(r["argv"]): r for r in json.load(fh)}
    got = records()
    assert len(got) == len(want) == 84
    for record in got:
        key = json.dumps(record["argv"])
        # dumps keeps key order, so the comparison is byte for byte
        assert json.dumps(record) == json.dumps(want[key]), key


if __name__ == "__main__":
    os.chdir(FIXDIR)
    with open(GOLDEN, "w") as fh:
        json.dump(records(), fh, indent=1)
        fh.write("\n")
    print("wrote", GOLDEN, file=sys.stderr)
