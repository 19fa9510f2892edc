"""File formats, spec validation, the persistent cache, and table docs."""

import io
import json
from fractions import Fraction

import pytest

import hallforge.complexes as cx
from hallforge import files
from hallforge.errors import (
    DerivedUndefined,
    EulerUndefined,
    RelEulerUndefined,
    SpecError,
)
from hallforge.files import (
    AlgebraHandle,
    CategorySpec,
    FileCache,
    basis_keys,
    coeff_from_json,
    coeff_to_json,
    compute_table,
    dump_doc,
    element_doc,
    grid_class_ids,
    make_report,
    parse_dim_cap,
    rational_from_str,
    rational_to_str,
    read_element,
    report_body,
    write_element,
)
from hallforge.hall import SqrtExt


def a2_spec(**over):
    doc = {
        "format_version": 1,
        "field": {"q": 2},
        "quiver": {"vertices": 2, "arrows": [[1, 2]]},
        "backend": "abelian",
    }
    doc.update(over)
    return doc


def per_spec(**over):
    doc = {
        "format_version": 1,
        "field": {"q": 2},
        "quiver": {"vertices": 1, "arrows": []},
        "backend": "periodic",
        "period": 2,
    }
    doc.update(over)
    return doc


def bnd_spec(**over):
    doc = {
        "format_version": 1,
        "field": {"q": 2},
        "quiver": {"vertices": 1, "arrows": []},
        "backend": "bounded",
        "window": [0, 1],
    }
    doc.update(over)
    return doc


# ---- rational and coefficient codecs ----


def test_rational_codec_roundtrip():
    for f in [Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(22, 7)]:
        assert rational_from_str(rational_to_str(f)) == f
    assert rational_to_str(Fraction(3)) == "3/1"
    assert rational_to_str(Fraction(-1, 2)) == "-1/2"


@pytest.mark.parametrize("bad", ["1.5", "3", "1/0", "a/b", "", "1/-2", 7, None])
def test_rational_codec_rejects_garbage(bad):
    with pytest.raises(SpecError):
        rational_from_str(bad)


def test_coeff_codec_plain_and_root():
    assert coeff_to_json(Fraction(5, 3)) == {"coeff": "5/3"}
    assert coeff_from_json({"coeff": "5/3"}, 2) == Fraction(5, 3)
    c = SqrtExt(2, Fraction(1, 2), Fraction(-3))
    row = coeff_to_json(c)
    assert row == {"coeff": "1/2", "coeff_root": "-3/1"}
    assert coeff_from_json(row, 2) == c
    # zero root part is dropped
    assert coeff_to_json(SqrtExt(2, 4, 0)) == {"coeff": "4/1"}


# ---- spec validation ----


def test_spec_roundtrip_and_hash_stability():
    spec = CategorySpec.from_dict(a2_spec())
    again = CategorySpec.from_dict(spec.to_dict())
    assert spec.spec_hash == again.spec_hash
    # hash is insensitive to source key order, sensitive to content
    other = CategorySpec.from_dict(a2_spec(field={"q": 3}))
    assert other.spec_hash != spec.spec_hash
    b1 = CategorySpec.from_dict(bnd_spec())
    b2 = CategorySpec.from_dict(bnd_spec(window=[0, 2]))
    assert b1.spec_hash != b2.spec_hash


@pytest.mark.parametrize(
    "doc",
    [
        {"field": {"q": 2}},  # no format_version
        a2_spec(format_version=99),
        a2_spec(field={}),
        a2_spec(field={"q": 4}),  # not prime
        a2_spec(field={"q": 1}),
        a2_spec(quiver={"vertices": 0, "arrows": []}),
        a2_spec(quiver={"vertices": 2, "arrows": [[1, 3]]}),  # head out of range
        a2_spec(quiver={"vertices": 2, "arrows": [[1, 2], [2, 1]]}),  # cycle
        a2_spec(backend="derived"),
        a2_spec(backend="bounded"),  # no window
        bnd_spec(window=[1, 0]),  # empty window
        bnd_spec(period=2),  # window and period
        per_spec(period=1),
        per_spec(period=None),
        per_spec(window=[0, 1]),
        a2_spec(period=2),  # abelian takes no period
        a2_spec(window=[0, 1]),
        a2_spec(caps={"max_ext_enum": 0}),
        a2_spec(caps={"bogus": 3}),
        a2_spec(caps={"max_enum": "big"}),
        "not a dict",
    ],
)
def test_spec_validation_rejects(doc):
    with pytest.raises(SpecError):
        CategorySpec.from_dict(doc)


def test_spec_builders():
    spec = CategorySpec.from_dict(bnd_spec())
    cat = spec.complex_category()
    assert cat.kind == "bounded" and (cat.lo, cat.hi) == (0, 1)
    assert CategorySpec.from_dict(per_spec()).complex_category().period == 2
    with pytest.raises(SpecError):
        CategorySpec.from_dict(a2_spec()).complex_category()


def test_load_spec_file_errors(tmp_path):
    with pytest.raises(SpecError):
        files.load_spec(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError):
        files.load_spec(bad)


# ---- persistent cache ----


def test_file_cache_persists_and_hits(tmp_path):
    path = tmp_path / "c.jsonl"
    c1 = FileCache(path, "h" * 64)
    assert c1.get("k1") is None and c1.misses == 1
    c1.put("k1", {"hom": 2, "middles": []})
    c1.close()
    c2 = FileCache(path, "h" * 64)
    assert c2.get("k1") == {"hom": 2, "middles": []}
    assert c2.hits == 1
    c2.close()


def test_file_cache_ignores_foreign_header(tmp_path):
    path = tmp_path / "c.jsonl"
    c1 = FileCache(path, "a" * 64)
    c1.put("k", {"hom": 1, "middles": []})
    c1.close()
    c2 = FileCache(path, "b" * 64)  # different spec hash
    assert c2.get("k") is None
    c2.put("k2", {"hom": 3, "middles": []})
    c2.close()
    # the foreign file was replaced, not appended to
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["spec_hash"] == "b" * 64
    assert len(lines) == 2


def test_file_cache_no_read_still_writes_once(tmp_path):
    path = tmp_path / "c.jsonl"
    c1 = FileCache(path, "a" * 64)
    c1.put("k", {"hom": 1, "middles": []})
    c1.close()
    c2 = FileCache(path, "a" * 64, read=False)
    assert c2.get("k") is None  # recomputation forced
    c2.put("k", {"hom": 1, "middles": []})
    c2.close()
    # no duplicate line was appended for the already-persisted key
    assert len(path.read_text().splitlines()) == 2


def test_file_cache_tolerates_torn_tail(tmp_path):
    path = tmp_path / "c.jsonl"
    c1 = FileCache(path, "a" * 64)
    c1.put("k", {"hom": 1, "middles": []})
    c1.close()
    with open(path, "a") as fh:
        fh.write('{"key": "k2", "record"')  # torn write
    c2 = FileCache(path, "a" * 64)
    assert c2.get("k") == {"hom": 1, "middles": []}
    assert c2.get("k2") is None


def test_file_cache_put_after_torn_tail_starts_a_new_line(tmp_path):
    path = tmp_path / "c.jsonl"
    c1 = FileCache(path, "a" * 64)
    c1.put("k", {"hom": 1, "middles": []})
    c1.close()
    with open(path, "a") as fh:
        fh.write('{"key": "k2", "record"')  # torn write, no newline
    c2 = FileCache(path, "a" * 64)
    c2.put("k3", {"hom": 2, "middles": []})
    c2.close()
    c3 = FileCache(path, "a" * 64)
    assert c3.get("k") == {"hom": 1, "middles": []}
    assert c3.get("k2") is None
    assert c3.get("k3") == {"hom": 2, "middles": []}
    assert path.read_text().endswith('"record"\n' + json.dumps(
        {"key": "k3", "record": {"hom": 2, "middles": []}}, sort_keys=True) + "\n")


def test_file_cache_skips_lines_that_are_not_utf8_or_objects(tmp_path):
    path = tmp_path / "c.jsonl"
    c1 = FileCache(path, "a" * 64)
    c1.put("k", {"hom": 1, "middles": []})
    c1.close()
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe garbage\n[1, 2]\n\"k\"\n")
    for read in (True, False):
        c2 = FileCache(path, "a" * 64, read=read)
        assert c2.get("k") == ({"hom": 1, "middles": []} if read else None)
        assert c2.persisted == (set() if read else {"k"})
        c2.close()
    # a header that is not UTF-8, or not an object, marks a foreign file
    for header in (b"\xff\n", b"[1]\n"):
        path.write_bytes(header + path.read_bytes().split(b"\n", 1)[1])
        assert FileCache(path, "a" * 64).get("k") is None


def test_open_cache_respects_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HALLFORGE_CACHE_DIR", str(tmp_path / "boxes"))
    spec = CategorySpec.from_dict(a2_spec())
    cache = files.open_cache(spec)
    cache.put("k", {"hom": 1, "middles": []})
    cache.close()
    assert (tmp_path / "boxes" / f"{spec.spec_hash}.jsonl").exists()


# ---- algebra handles ----


def test_handle_rejects_bad_combinations():
    abelian = CategorySpec.from_dict(a2_spec())
    periodic = CategorySpec.from_dict(per_spec())
    with pytest.raises(SpecError):
        AlgebraHandle(abelian, "qgroup")
    for name in ("sdh", "sdh-tw", "dh"):
        with pytest.raises(SpecError):
            AlgebraHandle(abelian, name)
    with pytest.raises(EulerUndefined):
        AlgebraHandle(periodic, "twisted")
    with pytest.raises(RelEulerUndefined):
        AlgebraHandle(periodic, "sdh-tw")
    with pytest.raises(DerivedUndefined):
        AlgebraHandle(periodic, "dh")
    # these are fine
    AlgebraHandle(periodic, "hall")
    AlgebraHandle(periodic, "sdh")
    AlgebraHandle(CategorySpec.from_dict(bnd_spec()), "sdh-tw")


# ---- element files ----


def _simple_ids(handle):
    """Class ids of S1, S2 on the abelian A2 grid."""
    cap = parse_dim_cap(handle.spec, "1,1")
    ids = grid_class_ids(handle, cap)
    by_dims = {tuple(handle.backend.object(i).dims): i for i in ids}
    return by_dims[(1, 0)], by_dims[(0, 1)]


def test_element_roundtrip_strict(tmp_path):
    handle = AlgebraHandle(CategorySpec.from_dict(a2_spec()), "hall")
    s1, s2 = _simple_ids(handle)
    el = handle.product({s1: Fraction(1)}, {s2: Fraction(1)})
    assert len(el) == 2
    path = tmp_path / "e.json"
    write_element(path, handle, el)
    assert read_element(path, handle) == el
    # writing twice is byte-identical
    first = path.read_text()
    write_element(path, handle, el)
    assert path.read_text() == first


def test_element_roundtrip_torus_exponents(tmp_path):
    handle = AlgebraHandle(CategorySpec.from_dict(per_spec()), "sdh")
    s = handle.sdh
    x_id = s.stable_class(s.cat.stalk(1, 0))
    el = s.add(s.basis((1, -2), x_id), s.torus_element((0, 3)))
    path = tmp_path / "e.json"
    write_element(path, handle, el)
    assert read_element(path, handle) == el
    rows = json.loads(path.read_text())["terms"]
    # negative and omitted-zero exponents both survive
    assert {"P1@0": 1, "P1@1": -2} in [r["exponents"] for r in rows]


def test_element_roundtrip_twisted_and_dh(tmp_path):
    bnd = CategorySpec.from_dict(bnd_spec())
    tw = AlgebraHandle(bnd, "twisted")
    s1 = tw.backend.classify(tw.backend.cat.stalk(1, 0))
    el = {s1: SqrtExt(2, Fraction(1, 2), Fraction(3))}
    p1 = tmp_path / "tw.json"
    write_element(p1, tw, el)
    assert read_element(p1, tw) == el

    dh = AlgebraHandle(bnd, "dh")
    m = dh.sdh.stable_class(dh.sdh.cat.stalk(1, 0))
    el2 = {m: Fraction(-2, 7)}
    p2 = tmp_path / "dh.json"
    write_element(p2, dh, el2)
    assert read_element(p2, dh) == el2


def test_element_term_order_is_canonical(tmp_path):
    handle = AlgebraHandle(CategorySpec.from_dict(per_spec()), "sdh")
    s = handle.sdh
    x_id = s.stable_class(s.cat.stalk(1, 0))
    y_id = s.stable_class(s.cat.stalk(1, 1))
    el = {}
    for key in [((1, 0), x_id), ((0, 1), y_id), ((0, 0), y_id), ((0, 0), x_id)]:
        el[key] = Fraction(1)
    path = tmp_path / "e.json"
    write_element(path, handle, el)
    rows = json.loads(path.read_text())["terms"]
    got = [(tuple(sorted(r["exponents"].items())), r["class"]) for r in rows]
    # exponent vector lexicographic, then class id
    as_keys = sorted(el, key=handle.sort_key)
    want = [(tuple(sorted(s.torus.named(g).items())), m) for g, m in as_keys]
    assert got == want
    assert [r["class"] for r in rows] == [m for _, m in as_keys]


def test_element_read_rejections(tmp_path):
    handle = AlgebraHandle(CategorySpec.from_dict(a2_spec()), "hall")
    s1, _ = _simple_ids(handle)
    path = tmp_path / "e.json"
    write_element(path, handle, {s1: Fraction(1)})

    other = AlgebraHandle(CategorySpec.from_dict(a2_spec(field={"q": 3})), "hall")
    with pytest.raises(SpecError):
        read_element(path, other)  # spec hash mismatch

    doc = json.loads(path.read_text())
    doc["kind"] = "table"
    (tmp_path / "k.json").write_text(json.dumps(doc))
    with pytest.raises(SpecError):
        read_element(tmp_path / "k.json", handle)

    doc = json.loads(path.read_text())
    doc["format_version"] = 9
    (tmp_path / "v.json").write_text(json.dumps(doc))
    with pytest.raises(SpecError):
        read_element(tmp_path / "v.json", handle)

    # family mismatch: an sdh file is not a strict element
    per = AlgebraHandle(CategorySpec.from_dict(per_spec()), "sdh")
    p2 = tmp_path / "s.json"
    write_element(p2, per, per.sdh.torus_element((1, 0)))
    strict = AlgebraHandle(CategorySpec.from_dict(per_spec()), "hall")
    with pytest.raises(SpecError):
        read_element(p2, strict)


def test_element_reclassifies_from_encoding(tmp_path):
    # ids in the file are advisory: scramble them and read back
    handle = AlgebraHandle(CategorySpec.from_dict(a2_spec()), "hall")
    s1, s2 = _simple_ids(handle)
    el = handle.product({s1: Fraction(1)}, {s2: Fraction(1)})
    path = tmp_path / "e.json"
    write_element(path, handle, el)
    doc = json.loads(path.read_text())
    for row in doc["terms"]:
        row["class"] = 999
    path.write_text(json.dumps(doc))
    fresh = AlgebraHandle(CategorySpec.from_dict(a2_spec()), "hall")
    got = read_element(path, fresh)
    assert {tuple(fresh.backend.object(k).dims) for k in got} == {(1, 1)}
    assert sorted(got.values()) == [Fraction(1), Fraction(1)]


# ---- dim caps and grids ----


def test_parse_dim_cap_abelian():
    spec = CategorySpec.from_dict(a2_spec())
    assert parse_dim_cap(spec, "1")["dims"] == (1, 1)
    assert parse_dim_cap(spec, "1,2")["dims"] == (1, 2)
    for bad in ["1,2,3", "total:2", "x", "", None, "1,,2"]:
        with pytest.raises(SpecError):
            parse_dim_cap(spec, bad)


def test_parse_dim_cap_complex():
    spec = CategorySpec.from_dict(bnd_spec())
    cap = parse_dim_cap(spec, "1")
    assert cap["max_degree_dim"] == 1 and cap["max_total_dim"] is None
    cap = parse_dim_cap(spec, "total:2")
    assert cap["max_degree_dim"] is None and cap["max_total_dim"] == 2
    cap = parse_dim_cap(spec, "1,total:3")
    assert cap["max_degree_dim"] == 1 and cap["max_total_dim"] == 3
    for bad in ["1,2", "total:", "total:x", ""]:
        with pytest.raises(SpecError):
            parse_dim_cap(spec, bad)


def test_grid_sizes():
    ab = AlgebraHandle(CategorySpec.from_dict(a2_spec()), "hall")
    assert len(grid_class_ids(ab, parse_dim_cap(ab.spec, "1,1"))) == 5
    per = AlgebraHandle(CategorySpec.from_dict(per_spec()), "hall")
    assert len(grid_class_ids(per, parse_dim_cap(per.spec, "1"))) == 6
    sdh = AlgebraHandle(CategorySpec.from_dict(per_spec()), "sdh")
    keys = basis_keys(sdh, parse_dim_cap(sdh.spec, "1"))
    assert len(keys) == 4 and all(g == (0, 0) for g, _ in keys)
    dh = AlgebraHandle(CategorySpec.from_dict(bnd_spec()), "dh")
    assert len(basis_keys(dh, parse_dim_cap(dh.spec, "1"))) == 4


# ---- tables ----


def test_table_a1_abelian_cap1():
    doc = {
        "format_version": 1,
        "field": {"q": 2},
        "quiver": {"vertices": 1, "arrows": []},
        "backend": "abelian",
    }
    handle = AlgebraHandle(CategorySpec.from_dict(doc), "hall")
    table = compute_table(handle, parse_dim_cap(handle.spec, "1"))
    assert len(table["classes"]) == 2
    assert len(table["products"]) == 4


def test_table_a2_contains_simple_product_row():
    handle = AlgebraHandle(CategorySpec.from_dict(a2_spec()), "hall")
    table = compute_table(handle, parse_dim_cap(handle.spec, "1,1"))
    assert len(table["classes"]) == 5 and len(table["products"]) == 25
    dims_of = {c["id"]: tuple(c["encoding"][0]) for c in table["classes"]}
    s1 = next(i for i, d in dims_of.items() if d == (1, 0))
    s2 = next(i for i, d in dims_of.items() if d == (0, 1))
    row = next(r for r in table["products"] if r["left"] == s1 and r["right"] == s2)
    assert len(row["terms"]) == 2
    assert all(t["coeff"] == "1/1" for t in row["terms"])
    assert all(tuple(t["encoding"][0]) == (1, 1) for t in row["terms"])


def test_table_bytes_deterministic_across_fresh_handles():
    spec = CategorySpec.from_dict(a2_spec())
    texts = []
    for _ in range(2):
        handle = AlgebraHandle(spec, "hall")
        texts.append(dump_doc(compute_table(handle, parse_dim_cap(spec, "1,1"))))
    assert texts[0] == texts[1]


def test_table_sdh_periodic_has_torus_terms():
    handle = AlgebraHandle(CategorySpec.from_dict(per_spec()), "sdh")
    table = compute_table(handle, parse_dim_cap(handle.spec, "1"))
    assert len(table["classes"]) == 4
    exps = {
        frozenset(t["exponents"].items())
        for r in table["products"]
        for t in r["terms"]
    }
    # the stalk products land partly in the torus: both cone generators show up
    assert frozenset({"P1@0": 1}.items()) in exps
    assert frozenset({"P1@1": 1}.items()) in exps


# ---- reports ----


def test_report_shape_and_body():
    spec = CategorySpec.from_dict(a2_spec())
    rep = make_report("associativity", spec, 10, [], 0.25)
    assert rep["status"] == "pass" and rep["checks"] == 10
    assert rep["failures"] == []
    body = report_body(rep)
    assert "wall_time" not in body and rep["wall_time"] == 0.25
    rep2 = make_report("associativity", spec, 10, [{"check": "x"}], 0.1)
    assert rep2["status"] == "fail"


def _json_indented(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _Count(int):
    pass


class _Name(str):
    pass


_PLAIN_DOCS = [
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ()},
    {"text": "héllo wörld ∑ 🜁", "esc": 'quote " slash \\ tab \t nl \n \x00 \x1f \x7f'},
    {"é": 1, "Z": 2, "a": 3, "": 4, "ab": 5, "a b": 6},
    {"nested": [[1, [2, [3, []]]], [[{"k": [True, False, None]}]]], "t": (1, (2, 3))},
    {"n": [0, -1, 2**70, -(2**70)], "f": [0.0, -0.0, 1.5, 1e300, 2.5e-8, 0.1]},
    {"int subclass": _Count(7), "str subclass": _Name("x"), _Name("key"): True},
]

_FALLBACK_DOCS = [
    {2: "int key", 1: "int key"},
    {None: 1},
    {"v": {2.5: "float key"}},
    {"nan": float("nan"), "inf": [float("inf"), float("-inf")]},
    [{"deep": {True: False}}],
]

# rows shaped like a table's products, several WRITE_CHUNKs of pieces, with
# values json.dumps writes after the first chunks have gone out
_LARGE_DOC = {
    "products": [
        {"left": i, "right": -i, "terms": [{"coeff": f"{i}/7", "encoding": [[i, 1], [2, i]]}]}
        for i in range(files.WRITE_CHUNK // 4)
    ],
    "tail": [{3: "int key"}, float("nan"), {"k": [float("-inf")]}],
}


@pytest.mark.parametrize("doc", _PLAIN_DOCS)
def test_dump_doc_matches_json_dumps(doc):
    assert dump_doc(doc) == _json_indented(doc)


@pytest.mark.parametrize("doc", _FALLBACK_DOCS + [_LARGE_DOC])
def test_dump_doc_falls_back_to_json_dumps(doc):
    assert dump_doc(doc) == _json_indented(doc)


class _Writes(io.StringIO):
    """A text file that counts the writes into it."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("doc", _PLAIN_DOCS + _FALLBACK_DOCS + [_LARGE_DOC])
def test_dump_doc_streams_what_it_returns(doc):
    f = _Writes()
    assert dump_doc(doc, f) is None
    assert f.getvalue() == dump_doc(doc)
    if doc is _LARGE_DOC:
        assert f.writes >= 5


def test_dump_doc_raises_like_json_dumps_on_unknown_types():
    for doc in ({"c": Fraction(1, 2)}, {"s": {1, 2}}, [object()]):
        with pytest.raises(TypeError):
            _json_indented(doc)
        with pytest.raises(TypeError):
            dump_doc(doc)
        with pytest.raises(TypeError):
            dump_doc(doc, io.StringIO())
