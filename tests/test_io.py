import json

import pytest

from nqforge.algebroid import ce_differential, to_antialgebroid
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
    anti = to_antialgebroid(fixtures.module_point())
    data = structure_to_dict(anti)
    assert data["side"] == "E"
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
