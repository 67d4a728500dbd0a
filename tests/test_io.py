import json

import pytest

from nqforge.algebroid import ce_differential
from nqforge.io import (
    StructureFileError,
    load_any,
    load_morphism,
    load_path,
    load_structure,
    morphism_from_dict,
    morphism_to_dict,
    save,
    structure_from_dict,
    structure_to_dict,
)
from nqforge import fixtures


def test_structure_dict_roundtrip_with_field():
    for name, algd in fixtures.all_structures().items():
        q = ce_differential(algd)
        data = structure_to_dict(algd, q=q)
        back, back_q = structure_from_dict(data)
        assert back.brackets.tables == algd.brackets.tables, name
        assert back.anchor == algd.anchor, name
        assert back_q is not None
        assert back_q.images == q.images, name


def test_unshifted_side_roundtrip():
    anti = fixtures.module_point()
    for side in ["E", "sE"]:
        data = structure_to_dict(anti, side=side)
        assert data["side"] == side
        back, none_q = structure_from_dict(data)
        assert none_q is None
        assert back.brackets.tables == anti.brackets.tables
        assert back.anchor == anti.anchor


def test_file_roundtrip(tmp_path):
    algd = fixtures.action_line()
    p = tmp_path / "al.json"
    save(str(p), structure_to_dict(algd, q=ce_differential(algd)))
    kind, payload = load_any(str(p))
    assert kind == "structure"
    struct, q = payload
    assert struct.brackets.tables == algd.brackets.tables
    text = p.read_text()
    assert text.endswith("\n")
    json.loads(text)


def test_morphism_dict_roundtrip():
    m, src, tgt, _ = fixtures.tangent_squaring()
    data = morphism_to_dict(m, src, tgt)
    back_m, back_src, back_tgt = morphism_from_dict(data)
    assert back_m.components == m.components
    assert back_m.base_map.images == m.base_map.images
    assert back_src.brackets.tables == src.brackets.tables
    assert back_tgt.anchor == tgt.anchor


def test_morphism_file_roundtrip(tmp_path):
    m, src, tgt, _ = fixtures.point_two_term()
    p = tmp_path / "m.json"
    save(str(p), morphism_to_dict(m, src, tgt))
    back_m, back_src, back_tgt = load_morphism(str(p))
    assert back_m.components == m.components


def test_wrong_kind_rejected(tmp_path):
    algd = fixtures.two_term()
    sp = tmp_path / "s.json"
    save(str(sp), structure_to_dict(algd))
    with pytest.raises(StructureFileError):
        load_morphism(str(sp))
    m, src, tgt, _ = fixtures.identity_action_line()
    mp = tmp_path / "m.json"
    save(str(mp), morphism_to_dict(m, src, tgt))
    with pytest.raises(StructureFileError):
        load_structure(str(mp))


def test_json_syntax_error_carries_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "structure",\n  "side": }\n')
    with pytest.raises(StructureFileError) as exc:
        load_path(str(p))
    assert "line 2" in str(exc.value)


def test_polynomial_error_carries_location_and_context():
    data = {
        "kind": "structure",
        "side": "sE",
        "base_coordinates": ["x"],
        "frames": {"1": ["e"]},
        "anchor": {"e": {"x": "x +\n* 2"}},
        "brackets": {},
    }
    with pytest.raises(StructureFileError) as exc:
        structure_from_dict(data)
    msg = str(exc.value)
    assert "line 2" in msg
    assert "anchor" in msg


def test_float_coefficients_rejected_with_hint():
    data = {
        "kind": "structure",
        "side": "sE",
        "base_coordinates": ["x"],
        "frames": {"1": ["e"]},
        "anchor": {"e": {"x": 1.5}},
        "brackets": {},
    }
    with pytest.raises(StructureFileError) as exc:
        structure_from_dict(data)
    assert "3/2" in str(exc.value)


def test_integer_coefficients_are_lifted():
    data = {
        "kind": "structure",
        "side": "sE",
        "base_coordinates": ["x"],
        "frames": {"1": ["e1", "e2"]},
        "anchor": {"e1": {"x": 2}},
        "brackets": {"2": {"e1,e2": {"e1": "x"}}},
    }
    struct, _ = structure_from_dict(data)
    assert not struct.brackets.tables[2][("e1", "e2")]["e1"].is_zero()


def test_undeclared_frame_lists_the_declared_ones():
    data = {
        "kind": "structure",
        "side": "sE",
        "base_coordinates": [],
        "frames": {"1": ["e1", "e2"]},
        "anchor": {},
        "brackets": {"2": {"e1,e9": {"e1": 1}}},
    }
    with pytest.raises(StructureFileError) as exc:
        structure_from_dict(data)
    msg = str(exc.value)
    assert "e9" in msg and "e1" in msg


def test_empty_frames_become_a_trivial_rank():
    data = {
        "kind": "structure",
        "side": "sE",
        "base_coordinates": ["x"],
        "frames": {},
        "anchor": {},
        "brackets": {},
    }
    struct, _ = structure_from_dict(data)
    assert list(struct.bundle.labels()) == []
    assert {k: list(v) for k, v in struct.bundle.labels_by_magnitude.items()} == {1: []}


def test_generated_fixture_files_load(tmp_path):
    import pathlib

    fdir = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    assert fdir.is_dir()
    names = sorted(p.name for p in fdir.glob("*.json"))
    assert "action_line.json" in names
    assert "morphism_tangent_squaring.json" in names
    for p in fdir.glob("*.json"):
        kind, payload = load_any(str(p))
        assert kind in ("structure", "morphism"), p.name


def test_unknown_keys_and_missing_frames_rejected():
    good = structure_to_dict(fixtures.two_term())
    bad_structures = [{}, {"n": 2}, dict(good, name="two_term"),
                      dict(good, kind="morphsim")]
    bad_structures.append({k: v for k, v in good.items() if k != "frames"})
    for data in bad_structures:
        with pytest.raises(StructureFileError):
            structure_from_dict(data)
    m, src, tgt, _ = fixtures.point_two_term()
    morph = morphism_to_dict(m, src, tgt)
    with pytest.raises(StructureFileError):
        morphism_from_dict(dict(morph, note="x"))
    for block in ["source", "target"]:
        with pytest.raises(StructureFileError) as exc:
            morphism_from_dict(dict(morph, **{block: dict(morph[block], n=2)}))
        assert "." + block in str(exc.value)
        no_frames = {k: v for k, v in morph[block].items() if k != "frames"}
        with pytest.raises(StructureFileError) as exc:
            morphism_from_dict(dict(morph, **{block: no_frames}))
        assert "frames" in str(exc.value)


# ----- the shifted side is a file format -----


def _side_pair():
    """One structure written on both sides: base x, frames e, c, d of
    magnitudes 1, 2, 3, anchor e = d/dx, and the bracket c,c -> d, whose
    transfer sign at magnitudes (2, 2) is -1."""
    common = {
        "kind": "structure",
        "base_coordinates": ["x"],
        "frames": {"1": ["e"], "2": ["c"], "3": ["d"]},
        "anchor": {"e": {"x": "1"}},
    }
    shifted = dict(common, side="sE", brackets={"2": {"c,c": {"d": "x"}}})
    unshifted = dict(common, side="E", brackets={"2": {"c,c": {"d": "-x"}}})
    return shifted, unshifted


def _verify_rows(capsys, path):
    from nqforge.cli import main

    code = main(["verify", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    for row in report["checks"]:
        row.pop("seconds")
    return code, report["checks"]


def test_shifted_and_unshifted_files_load_and_verify_alike(tmp_path, capsys):
    shifted, unshifted = _side_pair()
    s_struct, _ = structure_from_dict(shifted)
    e_struct, _ = structure_from_dict(unshifted)
    assert s_struct.brackets.tables == e_struct.brackets.tables
    assert s_struct.anchor == e_struct.anchor
    reports = []
    for name, data in [("s.json", shifted), ("e.json", unshifted)]:
        path = tmp_path / name
        save(str(path), data)
        reports.append(_verify_rows(capsys, path))
    assert reports[0] == reports[1]
    assert any("witness" in row for row in reports[0][1])


SHIFTED_INPUT_ERRORS = {
    "bracket on ('e1', 'e2') targets 'c' of degree -1, expected 0":
        {"2": {"e1,e2": {"c": "1"}}},
    "bracket key ('e1', 'e1') vanishes by symmetry":
        {"2": {"e1,e1": {"e1": "1"}}},
}


@pytest.mark.parametrize("message", sorted(SHIFTED_INPUT_ERRORS))
def test_bad_shifted_tables_exit_2_with_their_message(tmp_path, capsys, message):
    from nqforge.cli import main

    path = tmp_path / "bad.json"
    save(str(path), {
        "kind": "structure",
        "side": "sE",
        "base_coordinates": [],
        "frames": {"1": ["e1", "e2"], "2": ["c"]},
        "anchor": {},
        "brackets": SHIFTED_INPUT_ERRORS[message],
    })
    assert main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_committed_fixtures_are_the_generated_documents(tmp_path):
    # scripts/make_fixtures.py regenerates fixtures/ byte for byte
    import importlib.util
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", root / "scripts" / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    docs = make_fixtures.documents()
    committed = sorted(p.stem for p in (root / "fixtures").glob("*.json"))
    assert sorted(docs) == committed and len(committed) == 20
    for name, data in docs.items():
        save(str(tmp_path / "doc.json"), data)
        want = (root / "fixtures" / (name + ".json")).read_bytes()
        assert (tmp_path / "doc.json").read_bytes() == want, name
