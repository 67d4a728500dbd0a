"""The benchmark's own checks: every generated family member gives its
expected verdict, and the tracer patches what it names.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import families  # noqa: E402
import spans  # noqa: E402
from nqforge import algebroid, cli, morphism  # noqa: E402
from nqforge import io as structio  # noqa: E402

SMALL = [
    (families.tangent, 3),
    (families.gl_point, 2),
    (families.gl_action, 2),
    (families.inn, 2),
    (families.inn_conjugation, 2),
]
SEEDS = [0, 1, 2]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, json.loads(buf.getvalue())


def _row(report, name):
    return next(c["status"] for c in report["checks"] if c["name"] == name)


def _write(tmp_path, case):
    path = str(tmp_path / (case.name + ".json"))
    with open(path, "w") as fh:
        json.dump(case.data, fh)
    return path


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("builder,size", SMALL)
def test_expected_verdicts(tmp_path, builder, size, seed):
    for case in families.with_twin(builder, size, seed=seed):
        path = _write(tmp_path, case)
        if case.kind == "structure":
            rc, report = _run(["verify", path, "--json"])
            agree = _row(report, "routes agree")
        else:
            rc, report = _run(["check-morphism", path, "--json"])
            agree = _row(report, "formulations agree")
            geometric = all(
                c["status"] == "pass"
                for c in report["checks"]
                if c["name"] == "anchor condition"
                or c["name"].startswith("bracket condition")
            )
            morph, source, target = structio.load_morphism(path)
            over_point = morphism.check_over_point_reduction(morph, source, target)
            assert over_point.ok == geometric == case.valid, case.name
        assert rc == (0 if case.valid else 1), case.name
        assert report["ok"] is case.valid, case.name
        assert agree == "pass", case.name
        rc, _ = _run(["roundtrip", path, "--json"])
        assert rc == 0, case.name


def _entry_count(data):
    block = data.get("source", data)
    tables = list(block["brackets"].values()) + list(data.get("components", {}).values())
    return sum(len(t) for table in tables for t in table.values())


@pytest.mark.parametrize("builder,size", SMALL)
def test_seed_permutes_but_keeps_density(builder, size):
    plain = builder(size, seed=0)
    moved = builder(size, seed=5)
    assert moved.data != plain.data
    assert _entry_count(moved.data) == _entry_count(plain.data)
    assert builder(size, seed=5).data == moved.data


def test_seed_zero_is_the_plain_basis():
    data = families.inn(2).data
    assert data["frames"] == {"1": ["X00", "X01", "X10", "X11"],
                              "2": ["Y00", "Y01", "Y10", "Y11"]}
    assert data["brackets"]["1"]["Y01"] == {"X01": "1"}
    assert data["brackets"]["2"]["X00,X01"] == {"X01": "1"}


def test_every_trace_target_exists():
    for _, module, attr in spans.TIMED + spans.COUNTED:
        assert spans._resolve(module, attr) is not None, (module, attr)


def test_tracer_patches_every_binding_and_restores_it():
    original = algebroid.consequence_checks
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.consequence_checks is not original
        assert algebroid.consequence_checks is cli.consequence_checks
        struct, _ = structio.structure_from_dict(families.gl_action(2).data)
        algebroid.consequence_checks(struct)
    finally:
        tracer.uninstall()
    assert cli.consequence_checks is original
    assert algebroid.consequence_checks is original
    names = {rec[0] for rec in tracer.spans}
    assert "algebroid.consequence_checks" in names
    assert tracer.counts["superalg.std_parts_calls"] > 0


def test_benchmark_json_lists_what_a_run_reports():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layers = spans.Tracer().metrics()
    layers["trace_overhead_s"] = {"unit": "s"}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: m["unit"] for name, m in layers.items()
    }
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "tuples_per_s", "cold_s", "setup_s", "peak_rss_mb"
    }


def test_sweep_tuple_counts():
    import run

    # rank 18, n = 2: identities up to 4 plus derived brackets up to 3
    assert run._sweep_tuples(families.inn(3).data, "verify") == 7314 + 1329
    # rank 9, n = 1, 3 coordinates (9 probes): 219 + 54 + 9 * (9 + 90 + 495)
    assert run._sweep_tuples(families.gl_action(3).data, "verify") == 5619
    assert run._sweep_tuples(families.inn_conjugation(3).data, "over-point") == 1329
