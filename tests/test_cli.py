"""End-to-end command line behavior: documents, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import hallforge.cli as cli
from hallforge import complexes as cx, files, hall, sdh
from hallforge.complexes import Complex, contractible_generators, direct_sum_cx, is_minimal
from hallforge.errors import SpecError
from hallforge.files import AlgebraHandle, CategorySpec, write_element
from hallforge.linalg import Matrix


A2_ABELIAN = {
    "format_version": 1,
    "field": {"q": 2},
    "quiver": {"vertices": 2, "arrows": [[1, 2]]},
    "backend": "abelian",
}
A1_ABELIAN = {
    "format_version": 1,
    "field": {"q": 2},
    "quiver": {"vertices": 1, "arrows": []},
    "backend": "abelian",
}
A1_PERIODIC = {
    "format_version": 1,
    "field": {"q": 2},
    "quiver": {"vertices": 1, "arrows": []},
    "backend": "periodic",
    "period": 2,
}
A1_BOUNDED = {
    "format_version": 1,
    "field": {"q": 2},
    "quiver": {"vertices": 1, "arrows": []},
    "backend": "bounded",
    "window": [0, 1],
}

A2_BOUNDED = {
    "format_version": 1,
    "field": {"q": 2},
    "quiver": {"vertices": 2, "arrows": [[1, 2]]},
    "backend": "bounded",
    "window": [0, 1],
}


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HALLFORGE_CACHE_DIR", str(tmp_path / "cache"))
    yield


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def simple_elements(tmp_path, doc=A2_ABELIAN):
    """Element files for the two vertex simples of the abelian A2 spec."""
    spec = CategorySpec.from_dict(doc)
    handle = AlgebraHandle(spec, "hall")
    ids = files.grid_class_ids(handle, files.parse_dim_cap(spec, "1,1"))
    by_dims = {tuple(handle.backend.object(i).dims): i for i in ids}
    paths = []
    for name, dims in (("s1.json", (1, 0)), ("s2.json", (0, 1))):
        p = tmp_path / name
        write_element(p, handle, {by_dims[dims]: Fraction(1)})
        paths.append(str(p))
    return paths


def test_product_simples(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_ABELIAN)
    x, y = simple_elements(tmp_path)
    out = tmp_path / "p.json"
    rc = cli.main(["product", "--spec", spec, x, y, "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "element" and doc["algebra"] == "hall"
    assert len(doc["terms"]) == 2
    assert {t["coeff"] for t in doc["terms"]} == {"1/1"}
    assert all(t["encoding"][0] == [1, 1] for t in doc["terms"])


def test_product_zero_times_zero(tmp_path):
    spec_path = write_spec(tmp_path, A2_ABELIAN)
    spec = CategorySpec.from_dict(A2_ABELIAN)
    handle = AlgebraHandle(spec, "hall")
    z = tmp_path / "z.json"
    write_element(z, handle, {handle.backend.zero_id(): Fraction(1)})
    out = tmp_path / "zz.json"
    rc = cli.main(["product", "--spec", spec_path, str(z), str(z), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["terms"]) == 1
    assert doc["terms"][0]["encoding"] == [[0, 0], [[]]]
    assert doc["terms"][0]["coeff"] == "1/1"


def test_product_prints_to_stdout_without_out(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_ABELIAN)
    x, y = simple_elements(tmp_path)
    rc = cli.main(["product", "--spec", spec, x, y])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "element"


def test_table_a1_cap1_is_2x2(tmp_path):
    spec = write_spec(tmp_path, A1_ABELIAN)
    out = tmp_path / "t.json"
    rc = cli.main(["table", "--spec", spec, "--dim-cap", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["classes"]) == 2 and len(doc["products"]) == 4


def test_table_determinism_across_cache_states(tmp_path):
    spec = write_spec(tmp_path, A2_ABELIAN)
    outs = []
    for i, extra in enumerate(([], [], ["--no-cache"])):
        out = tmp_path / f"t{i}.json"
        rc = cli.main(
            ["table", "--spec", spec, "--dim-cap", "1,1", "--out", str(out)] + extra
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert len(set(outs)) == 1  # cold cache, warm cache, no-cache: same bytes


def test_table_sdh_commutator_row(tmp_path):
    """The periodic table reproduces the stalk commutator in the torus."""
    spec = write_spec(tmp_path, A1_PERIODIC)
    out = tmp_path / "t.json"
    rc = cli.main(
        ["table", "--spec", spec, "--dim-cap", "1", "--algebra", "sdh", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["classes"]) == 4

    def stalk_id(comps):
        for c in doc["classes"]:
            if c["encoding"][0] == comps:
                return c["id"]
        raise AssertionError("class not found")

    x = stalk_id([[0, [1]]])
    y = stalk_id([[1, [1]]])

    def terms(i, j):
        row = next(r for r in doc["products"] if r["left"] == i and r["right"] == j)
        return {
            (frozenset(t["exponents"].items()), json.dumps(t["encoding"])):
                Fraction(*map(int, t["coeff"].split("/")))
            for t in row["terms"]
        }

    xy, yx = terms(x, y), terms(y, x)
    comm = dict(xy)
    for k, v in yx.items():
        comm[k] = comm.get(k, Fraction(0)) - v
    comm = {k: v for k, v in comm.items() if v}
    # commutator = (q-1)(t_K - t_K'), q = 2, over the class of the zero object
    zero_enc = json.dumps([[], []])
    assert comm == {
        (frozenset({"P1@0": 1}.items()), zero_enc): Fraction(1),
        (frozenset({"P1@1": 1}.items()), zero_enc): Fraction(-1),
    }


def test_normalize_strict_element(tmp_path):
    spec_path = write_spec(tmp_path, A1_BOUNDED)
    spec = CategorySpec.from_dict(A1_BOUNDED)
    handle = AlgebraHandle(spec, "hall")
    import hallforge.complexes as cx

    cat = handle.backend.cat
    obj = cx.direct_sum_cx(cat.contractible_gen(1, 0), cat.stalk(1, 0))
    p = tmp_path / "kx.json"
    write_element(p, handle, {handle.backend.classify(obj): Fraction(1)})
    out = tmp_path / "n.json"
    rc = cli.main(["normalize", "--spec", spec_path, str(p), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["algebra"] == "sdh"
    assert len(doc["terms"]) == 1
    t = doc["terms"][0]
    assert t["exponents"] == {"P1@0": 1}
    assert t["coeff"] == "2/1"  # |Hom(K, X)| = q


def test_verify_pass_prints_report(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_ABELIAN)
    out = tmp_path / "r.json"
    rc = cli.main(
        ["verify", "--spec", spec, "--dim-cap", "1,1", "associativity", "--out", str(out)]
    )
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads(out.read_text())
    assert printed == on_disk
    assert printed["status"] == "pass"
    assert printed["suite"] == "associativity"
    assert printed["checks"] == 250  # 125 plain + 125 twisted triples
    assert printed["failures"] == []


def test_verify_failure_exit_code(tmp_path, monkeypatch, capsys):
    spec = write_spec(tmp_path, A2_ABELIAN)

    def fake_run_suite(spec_obj, suite, cap, cache=None):
        return {
            "format_version": 1,
            "kind": "report",
            "suite": suite,
            "status": "fail",
            "checks": 1,
            "failures": [{"check": suite}],
            "wall_time": 0.0,
        }

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    rc = cli.main(["verify", "--spec", spec, "--dim-cap", "1,1", "associativity"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


def test_verify_report_stable_minus_timing(tmp_path):
    spec = write_spec(tmp_path, A1_BOUNDED)
    bodies = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = cli.main(["verify", "--spec", spec, "--dim-cap", "1", "toen", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        doc.pop("wall_time")
        bodies.append(json.dumps(doc, sort_keys=True))
    assert bodies[0] == bodies[1]


# ---- exit codes ----


def test_exit_2_on_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 1}))
    rc = cli.main(["table", "--spec", str(bad), "--dim-cap", "1"])
    assert rc == 2
    assert "SPEC_INVALID" in capsys.readouterr().err


def test_exit_2_on_field_order_out_of_range(tmp_path):
    # 101 is prime but beyond the supported field orders
    spec = write_spec(tmp_path, dict(A2_ABELIAN, field={"q": 101}))
    src = str(Path(files.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "hallforge.cli", "table", "--spec", spec, "--dim-cap", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "SPEC_INVALID" in proc.stderr and "[2, 97]" in proc.stderr


@pytest.mark.parametrize("end", [1.7, True, "1"], ids=["float", "bool", "string"])
def test_exit_2_on_non_integer_arrow_endpoint(tmp_path, capsys, end):
    # Quiver would read each of these as vertex 1, giving A2 and its spec hash
    doc = dict(A2_ABELIAN, quiver={"vertices": 2, "arrows": [[end, 2]]})
    rc = cli.main(["table", "--spec", write_spec(tmp_path, doc), "--dim-cap", "1,1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "SPEC_INVALID" in err and "quiver.arrows endpoint" in err


@pytest.mark.parametrize("cap", ["\u00b2", "total:\u00b2"], ids=["per-degree", "total"])
def test_exit_2_on_superscript_dim_cap(tmp_path, capsys, cap):
    # str.isdigit accepts superscript digits, which int() rejects
    rc = cli.main(["table", "--spec", write_spec(tmp_path, A2_BOUNDED), "--dim-cap", cap])
    assert rc == 2
    assert "error[SPEC_INVALID]: bad dim-cap token" in capsys.readouterr().err


def test_exit_2_on_unreadable_spec_or_element(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(A2_ABELIAN).encode()[:-1] + b', "n": "\xe9"}')
    spec = write_spec(tmp_path, A2_ABELIAN)
    x, _ = simple_elements(tmp_path)
    for argv in (
        ["table", "--spec", str(latin1), "--dim-cap", "1"],
        ["table", "--spec", str(tmp_path), "--dim-cap", "1"],
        ["product", "--spec", spec, x, str(latin1)],
        ["product", "--spec", spec, x, str(tmp_path)],
    ):
        assert cli.main(argv) == 2, argv
        assert "error[SPEC_INVALID]" in capsys.readouterr().err


_DEEP = "[" * 1000 + "]" * 1000  # deeper than json can decode under the default recursion limit


def test_exit_2_on_spec_nested_too_deeply(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(A2_ABELIAN).replace('"abelian"', _DEEP))
    assert cli.main(["table", "--spec", str(deep), "--dim-cap", "1"]) == 2
    err = capsys.readouterr().err
    assert "error[SPEC_INVALID]" in err and "nested too deeply" in err
    assert "Traceback" not in err


def test_exit_2_on_element_nested_too_deeply(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_ABELIAN)
    x, _ = simple_elements(tmp_path)
    doc = json.loads(Path(x).read_text())
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(dict(doc, terms="X")).replace('"X"', f'[{{"encoding": {_DEEP}, "coeff": "1/1"}}]'))
    assert cli.main(["product", "--spec", spec, x, str(deep)]) == 2
    err = capsys.readouterr().err
    assert "error[SPEC_INVALID]" in err and "nested too deeply" in err


@pytest.mark.parametrize("command", ["table", "verify"])
def test_exit_2_on_out_into_missing_directory(tmp_path, capsys, command):
    argv = [command, "--spec", write_spec(tmp_path, A2_ABELIAN), "--dim-cap", "1"]
    argv += ["associativity"] if command == "verify" else []
    rc = cli.main(argv + ["--out", str(tmp_path / "missing" / "out.json")])
    assert rc == 2
    assert "error[SPEC_INVALID]: cannot write --out" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_exit_2_on_out_to_a_full_device(tmp_path):
    # every write to /dev/full fails with ENOSPC; the table (about 12 kB)
    # outgrows the file buffer, so a write fails before the close does
    spec = write_spec(tmp_path, A2_ABELIAN)
    src = str(Path(files.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hallforge.cli", "table", "--spec", spec, "--dim-cap", "1,1",
         "--out", "/dev/full"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error[SPEC_INVALID]: cannot write --out /dev/full" in proc.stderr


def test_exit_3_on_long_period_instead_of_hanging(tmp_path, capsys):
    # 2^30 degree profiles at per-degree cap 1; the total cap keeps 31 of them
    spec = write_spec(tmp_path, dict(A2_PERIODIC, period=30))
    out = tmp_path / "t.json"
    rc = cli.main(["table", "--spec", spec, "--dim-cap", "total:1", "--out", str(out)])
    assert rc == 0
    assert len(json.loads(out.read_text())["classes"]) == 31
    assert cli.main(["table", "--spec", spec, "--dim-cap", "1"]) == 3
    assert "error[ENUM_CAP_EXCEEDED]" in capsys.readouterr().err


def test_exit_2_on_sdh_over_abelian(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_ABELIAN)
    x, y = simple_elements(tmp_path)
    rc = cli.main(["product", "--spec", spec, x, y, "--algebra", "sdh"])
    assert rc == 2


def test_exit_2_on_spec_hash_mismatch(tmp_path):
    spec3 = dict(A2_ABELIAN, field={"q": 3})
    spec_path = write_spec(tmp_path, spec3)
    x, y = simple_elements(tmp_path)  # written against q = 2
    rc = cli.main(["product", "--spec", spec_path, x, y])
    assert rc == 2


# element-file encodings that name no object of the spec: a complex with
# d d != 0, a differential that is no representation morphism, malformed
# shapes or entries, and an encoding that is not the canonical one of its
# object, each with the spec it is read against
BAD_ENCODINGS = {
    "complex-dd-nonzero": (
        dict(A2_BOUNDED, window=[0, 2]),
        [[[0, [1, 0]], [1, [1, 0]], [2, [1, 0]]], [[0, [[[1]], [[1]]]], [1, [[[1]], [[1]]]]]],
    ),
    "complex-not-a-morphism": (A2_BOUNDED, [[[0, [1, 0]], [1, [1, 0]]], [[0, [[[1]], [[0]]]]]]),
    "complex-string": (A2_BOUNDED, "x"),
    "complex-number": (A2_BOUNDED, 5),
    "complex-row-length": (A2_BOUNDED, [[[0, [1, 0]], [1, [1, 0]]], [[0, [[[1, 1]], [[1]]]]]]),
    "complex-degree-outside": (A2_BOUNDED, [[[9, [1, 0]]], []]),
    "rep-dims-length": (A2_ABELIAN, [[1, 1, 1], [[[1]]]]),
    "rep-row-length": (A2_ABELIAN, [[1, 1], [[[1, 1]]]]),
    "rep-entry-outside-field": (A2_ABELIAN, [[1, 1], [[[2]]]]),
    "rep-bool-entry": (A2_ABELIAN, [[1, 1], [[[True]]]]),
    "rep-bool-dim": (A2_ABELIAN, [[True, 1], [[[1]]]]),
    "rep-float-entry": (A2_ABELIAN, [[1, 1], [[[1.0]]]]),
    "complex-float-multiplicity": (A2_BOUNDED, [[[0, [1.0, 0]]], []]),
    "complex-degree-twice": (A2_BOUNDED, [[[0, [1, 0]], [0, [1, 0]]], []]),
    "complex-zero-diff-at-zero-end": (A2_BOUNDED, [[[0, [1, 0]]], [[0, [[], []]]]]),
    "complex-short-multiplicities": (A2_BOUNDED, [[[0, [1]]], []]),
    # a valid complex (P1 in degree 0, P2 in degree 1) with its degrees out
    # of order: read before canonical form was required, it exited 0
    "complex-degrees-out-of-order": (
        A2_BOUNDED, [[[1, [0, 1]], [0, [1, 0]]], [[0, [[], [[0]]]]]],
    ),
}


@pytest.mark.parametrize(
    "case, command",
    [
        (case, command)
        for case in sorted(BAD_ENCODINGS)
        for command in ("product", "normalize")
        # normalize needs a complex backend
        if command == "product" or BAD_ENCODINGS[case][0]["backend"] != "abelian"
    ],
)
def test_exit_2_on_invalid_element_encoding(tmp_path, capsys, case, command):
    doc, enc = BAD_ENCODINGS[case]
    spec = write_spec(tmp_path, doc)
    el = tmp_path / "x.json"
    el.write_text(json.dumps({
        "format_version": 1,
        "kind": "element",
        "spec_hash": CategorySpec.from_dict(doc).spec_hash,
        "algebra": "hall",
        "terms": [{"class": 0, "coeff": "1/1", "encoding": enc, "exponents": {}}],
    }))
    out = tmp_path / "out.json"
    operands = [str(el), str(el)] if command == "product" else [str(el)]
    rc = cli.main([command, "--spec", spec, *operands, "--out", str(out)])
    assert rc == 2
    assert "SPEC_INVALID" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [[1, 2], 5, "x"], ids=["array", "number", "string"])
def test_exit_2_on_element_file_that_is_not_an_object(tmp_path, capsys, doc):
    spec = write_spec(tmp_path, A2_ABELIAN)
    x, _ = simple_elements(tmp_path)
    el = tmp_path / "el.json"
    el.write_text(json.dumps(doc))
    for operands in ([x, str(el)], [str(el), x]):
        assert cli.main(["product", "--spec", spec, *operands]) == 2
        assert "error[SPEC_INVALID]" in capsys.readouterr().err


def test_exit_4_on_undefined_products(tmp_path, capsys):
    spec = write_spec(tmp_path, A1_PERIODIC)
    x = tmp_path / "x.json"
    handle = AlgebraHandle(CategorySpec.from_dict(A1_PERIODIC), "hall")
    write_element(x, handle, {handle.backend.zero_id(): Fraction(1)})
    for algebra, code in (("sdh-tw", "REL_EULER"), ("dh", "DERIVED"), ("twisted", "EULER")):
        rc = cli.main(["product", "--spec", spec, str(x), str(x), "--algebra", algebra])
        assert rc == 4, algebra
        assert code in capsys.readouterr().err


def test_exit_4_on_rel_euler_suite_periodic(tmp_path):
    spec = write_spec(tmp_path, A1_PERIODIC)
    rc = cli.main(["verify", "--spec", spec, "--dim-cap", "1", "rel-euler"])
    assert rc == 4
    rc = cli.main(["verify", "--spec", spec, "--dim-cap", "1", "toen"])
    assert rc == 4


def test_exit_2_on_shift_suite_bounded(tmp_path):
    spec = write_spec(tmp_path, A1_BOUNDED)
    rc = cli.main(["verify", "--spec", spec, "--dim-cap", "1", "shift-functor"])
    assert rc == 2


def test_exit_2_on_removed_jobs_flag(tmp_path):
    spec = write_spec(tmp_path, A2_ABELIAN)
    src = str(Path(files.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for command in (["table"], ["verify", "associativity"]):
        proc = subprocess.run(
            [sys.executable, "-m", "hallforge.cli", *command, "--spec", spec,
             "--dim-cap", "1,1", "--jobs", "2"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, command
        assert "Traceback" not in proc.stderr
        assert "--jobs" in proc.stderr


def test_exit_3_on_cap_breach(tmp_path, capsys):
    doc = dict(A2_ABELIAN, caps={"max_enum": 2})
    spec = write_spec(tmp_path, doc)
    rc = cli.main(["table", "--spec", spec, "--dim-cap", "2,2"])
    assert rc == 3
    assert "CAP" in capsys.readouterr().err


def test_cache_reused_between_invocations(tmp_path):
    spec_path = write_spec(tmp_path, A2_ABELIAN)
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    x, y = simple_elements(tmp_path)
    assert cli.main(["product", "--spec", spec_path, x, y, "--out", str(out1)]) == 0
    spec = CategorySpec.from_dict(A2_ABELIAN)
    cache_file = tmp_path / "cache" / f"{spec.spec_hash}.jsonl"
    assert cache_file.exists()
    lines_before = len(cache_file.read_text().splitlines())
    assert lines_before >= 2  # header + at least one pair record
    assert cli.main(["product", "--spec", spec_path, x, y, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # warm run added no new records
    assert len(cache_file.read_text().splitlines()) == lines_before


def test_cache_line_that_is_not_utf8_is_skipped(tmp_path, capsys):
    spec = write_spec(tmp_path, A2_BOUNDED)
    argv = ["table", "--spec", spec, "--dim-cap", "1,total:2", "--out"]
    assert cli.main(argv + [str(tmp_path / "clean.json")]) == 0
    cache_file = tmp_path / "cache" / f"{CategorySpec.from_dict(A2_BOUNDED).spec_hash}.jsonl"
    with open(cache_file, "ab") as fh:
        fh.write(b"\xff\xfe garbage")
    clean = (tmp_path / "clean.json").read_bytes()
    for name, extra in (("warm.json", []), ("nocache.json", ["--no-cache"])):
        assert cli.main(argv + [str(tmp_path / name)] + extra) == 0
        assert (tmp_path / name).read_bytes() == clean
    assert capsys.readouterr().err == ""


def test_cache_line_nested_too_deeply_is_skipped(tmp_path, capsys):
    """A cache line too deep for json to decode is skipped like a torn one:
    the pair is recomputed and the artifact is unchanged."""
    spec = write_spec(tmp_path, A2_BOUNDED)
    argv = ["table", "--spec", spec, "--dim-cap", "1,total:2", "--out"]
    assert cli.main(argv + [str(tmp_path / "clean.json")]) == 0
    cache_file = tmp_path / "cache" / f"{CategorySpec.from_dict(A2_BOUNDED).spec_hash}.jsonl"
    header, first, *rest = cache_file.read_text().splitlines()
    entry = json.loads(first)
    record = json.dumps(dict(entry, record="X")).replace('"X"', _DEEP)
    cache_file.write_text("\n".join([header, _DEEP, record, *rest]) + "\n")
    assert cli.main(argv + [str(tmp_path / "warm.json")]) == 0
    assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "clean.json").read_bytes()
    assert capsys.readouterr().err == ""


def _first_rows(rec):
    """The row list of the first nonempty arrow matrix among the middles."""
    for enc, _ in rec["middles"]:
        for rows in enc[1]:
            if rows and rows[0]:
                return rows
    return None


def _drop_row(rec):
    rows = _first_rows(rec)
    if rows is None:
        return None
    rows.pop()  # the matrix no longer has its dims' shape
    return rec


def _entry_q(rec):
    rows = _first_rows(rec)
    if rows is None:
        return None
    rows[0][0] = A2_ABELIAN["field"]["q"]  # one past the largest entry
    return rec


_CORRUPTIONS = {
    "wrong-shape": _drop_row,
    "hom-zero": lambda rec: dict(rec, hom=0),
    "record-not-object": lambda rec: "x",
    "entry-out-of-range": _entry_q,
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_damaged_cache_records_are_recomputed(tmp_path, capsys, monkeypatch, corruption):
    spec_path = write_spec(tmp_path, A2_ABELIAN)
    argv = ["verify", "--spec", spec_path, "--dim-cap", "1,1", "associativity", "--out"]
    assert cli.main(argv + [str(tmp_path / "clean.json")]) == 0
    cache_file = tmp_path / "cache" / f"{CategorySpec.from_dict(A2_ABELIAN).spec_hash}.jsonl"
    header, *lines = cache_file.read_text().splitlines()
    replaced = []
    for i, line in enumerate(lines):
        entry = json.loads(line)
        bad = _CORRUPTIONS[corruption](entry["record"])
        if bad is not None:
            replaced.append(line)
            lines[i] = json.dumps({"key": entry["key"], "record": bad}, sort_keys=True)
    assert replaced
    text = "\n".join([header, *lines]) + "\n"
    cache_file.write_text(text)
    assert cli.main(argv + [str(tmp_path / "warm.json")]) == 0
    # the damaged lines stay; one fresh line per damaged record follows them
    # and wins on the next load
    written = cache_file.read_text()
    assert written.startswith(text)
    assert sorted(written[len(text):].splitlines()) == sorted(replaced)
    # so a second warm run recomputes nothing and appends nothing
    def recompute(*args):
        raise AssertionError("pair recomputed")

    monkeypatch.setattr(hall.RepBackend, "raw_ext_data", recompute)
    assert cli.main(argv + [str(tmp_path / "warm2.json")]) == 0
    assert cache_file.read_text() == written
    capsys.readouterr()
    bodies = [
        files.dump_doc(files.report_body(json.loads((tmp_path / n).read_text())))
        for n in ("clean.json", "warm.json", "warm2.json")
    ]
    assert bodies[0] == bodies[1] == bodies[2]


def test_periodic_verify_suites_all_pass(tmp_path, capsys):
    spec = write_spec(tmp_path, A1_PERIODIC)
    for suite in ("associativity", "lemma-ext", "freeness", "shift-functor"):
        rc = cli.main(["verify", "--spec", spec, "--dim-cap", "1", suite])
        capsys.readouterr()
        assert rc == 0, suite


# ---- pinned artifact bytes: strict tables ----

A2_ABELIAN_Q3 = {
    "format_version": 1,
    "field": {"q": 3},
    "quiver": {"vertices": 2, "arrows": [[1, 2]]},
    "backend": "abelian",
}

A2_PERIODIC = {
    "format_version": 1,
    "field": {"q": 2},
    "quiver": {"vertices": 2, "arrows": [[1, 2]]},
    "backend": "periodic",
    "period": 2,
}

A3_LINEAR_BOUNDED = dict(A2_BOUNDED, quiver={"vertices": 3, "arrows": [[1, 2], [2, 3]]})
A2_BOUNDED_WIDE = dict(A2_BOUNDED, window=[0, 2])

# sha256 of the A2 q=2 window [0,1] cap-1 tables (dh and sdh recorded
# before the projective-sum memos of ComplexCategory existed, hall and
# twisted before the coefficient combiners and decoders were merged), and of
# the A2 q=3 cap (1,1) twisted table, whose coefficients carry odd powers of
# v = sqrt(3) and whose warm run decodes every middle from the pair cache
BOUNDED_TABLE_SHA256 = {
    "dh": "eda25477da8ab042cc80159fed02e6af90d25da34e8d2ffad26b92d51bf02ce8",
    "sdh": "f94ae11d733591866c3ca216f561d4ee509f12ff34efe157b6dabc79fcc75cb9",
    "hall": "8d1d3ff972709586758304b63f3639dc9adfdaec02f9b4e39b2305025057e921",
    "twisted": "61e4b23e5aaea1c0ccff15c66f363bd1b6b47e144c79cd1690ccacfdf6078e8e",
    # recorded before stable Hom and Ext^1 shared one row reduction, as were
    # the Kronecker and A3 tables below
    "sdh-tw": "39b71c65e02ff2e1a82a1f1a6ac288750ac76d6248a25451a8d537d63e3dddd4",
}
# larger grids, recorded while the Euler forms and the torus pairings were
# still computed by solving Hom complexes: (spec, dim cap, algebra, sha256)
WIDE_TABLE_SHA256 = {
    "a2-sdh-tw-total3": (
        A2_BOUNDED, "2,total:3", "sdh-tw",
        "23730a9cf2ea7aad5ecd05fbdba610b14c75704bf1c47b1b04e325ee8f6cf88b",
    ),
    "a2-twisted-total3": (
        A2_BOUNDED, "2,total:3", "twisted",
        "a7503c8a0c01b426d151ab7495781a19e8867e5f774368ef9b73fe975284b6ec",
    ),
    "a3-sdh-tw-total3": (
        A3_LINEAR_BOUNDED, "total:3", "sdh-tw",
        "1b7dd59c2ca24783f477691aecb4e561dee1677b2bee2928b18d100d876211ed",
    ),
    "periodic-2-sdh-total2": (
        A2_PERIODIC, "total:2", "sdh",
        "e0078223b07b7cc544b6f1b0307ebc1144aa370b86247ce6517454745642acfa",
    ),
    # the benchmark's dh grid, recorded while the derived product still
    # recomputed every pair on every run
    "a2-0-2-dh-total3": (
        A2_BOUNDED_WIDE, "2,total:3", "dh",
        "d95b932589c5ca4153417540f7095288957fca77c28ae42d335a8845f8a72176",
    ),
    # the same grid's sdh-tw table, 784 pairs, recorded while the localized
    # products still summed Fractions and rewrote every strict middle anew
    "a2-0-2-sdh-tw-total3": (
        A2_BOUNDED_WIDE, "2,total:3", "sdh-tw",
        "b48faea553a431ab3119d2e24b07c6a6f54f5ddb5050d8824dd14e13bad66650",
    ),
}
# the cold cache file that table run writes, recorded likewise
SDH_TW_WIDE_CACHE_SHA256 = "f69d5ab7db789853ac0734b963b6131c9f59e9c4d6fb17fed6f4f562e38588f0"
# the A2 q=2 window [0,1] dh table at cap 2,total:3, recorded likewise
DH_TOTAL3_SHA256 = "14d11af15ccdc6145714a5f0e3626c8caab53249cd42c78fe95ac768d7ad0685"
# the hall table on that grid, recorded before strict complex records were
# checked as complexes on read
HALL_TOTAL3_SHA256 = "84587c0ce036bdc1bc656bf4bb069e1585176d7456a420b6e3d11d0e62d90466"
# the cold cache file that `table --algebra dh` and then `--algebra hall`
# write on that grid: 169 stable records, then 256 strict ones, recorded
# while the derived product still kept a product loop of its own
DH_HALL_CACHE_SHA256 = "7cd5ca8f0dd4ebedf9542f651f142577e81f40e59ad243871546117b08a66dbc"
ABELIAN_Q3_TWISTED_SHA256 = "d1b139441927eff01bc695311b349eb3b17979b36eb7b2298098d6501abe6ada"
# sha256 of the A2 q=2 period-2 cap-1 sdh table, recorded before cones were
# stripped by Schur complements: with period 2, d_{n-1} and d_{n+1} are one
# matrix, and stripping a cone deletes rows and columns of it
PERIODIC_SDH_SHA256 = "6da944a4afabc371103ab82fb60b721976507d160fb0bfc5afbdb0b160da9399"

KRONECKER_ABELIAN = dict(A2_ABELIAN, quiver={"vertices": 2, "arrows": [[1, 2], [1, 2]]})
A3_INWARD_ABELIAN_Q3 = {
    "format_version": 1,
    "field": {"q": 3},
    "quiver": {"vertices": 3, "arrows": [[1, 2], [3, 2]]},
    "backend": "abelian",
}
KRONECKER_HALL_SHA256 = "3b946fec14460cd95312a672520026deff21fe752372bb3d21ff5cbb080c7590"
A3_INWARD_Q3_TWISTED_SHA256 = "0f3a551fee9efbf15e896481814b830d51aba88a4704b47120651c710e6c2b35"

# sha256 of dump_doc(report_body(report)), recorded when `verify` still
# offered a thread fan-out, so the serial loops must reproduce those bytes
REPORT_BODY_SHA256 = {
    "associativity": "2bbe299454cabb32b1b370906d0bafbb3a7a1c727745f9af173e2f959a80cab7",
    "lemma-ext": "55111abfafe26d0c237ed3ae42d71a9255902d3af0d2e3abb180fd9e2b2a6c0f",
    "shift-functor": "98e16c360798ba8a8abbf511008bd9bf8247fd4f578fdbe40ac4789754375121",
    # on A2 q=2 window [0,1], recorded before stable Hom and Ext^1 shared
    # one row reduction
    "rel-euler": "4f20c752e79924529d9d0cff49e97cc59f39fde9903a3d9e5ddc2afa30365d45",
    "toen": "b50736b7a4c926dc813458a020ffb1dc5a6846e7d9955d16bc2ef583ddfe3bfe",
    "freeness": "da2b75f1ba06ae4d2db83ce20453db365cb7ba10ec48c1f347fa38411b02203e",
    # on A2 q=2 window [0,1] at cap 2,total:3, recorded while the relative
    # Euler pairing was still computed by solving Hom complexes
    "rel-euler-total3": "f00ce841a55c2b898b46c05f6bb24b84935d66a6ceb609acb4eea58bb87ed08b",
    "toen-total3": "45029f612d00e7a9feaaa07ee83f7dbe99d8977efa2e72cf0cbbf3d7f7f4ad2d",
}


@pytest.mark.parametrize(
    "doc, cap, algebra, digest",
    [(A2_BOUNDED, "1", a, d) for a, d in BOUNDED_TABLE_SHA256.items()]
    + [(A2_ABELIAN_Q3, "1,1", "twisted", ABELIAN_Q3_TWISTED_SHA256)]
    + [(A2_PERIODIC, "1", "sdh", PERIODIC_SDH_SHA256)]
    + [(KRONECKER_ABELIAN, "1", "hall", KRONECKER_HALL_SHA256)]
    + [(A3_INWARD_ABELIAN_Q3, "1", "twisted", A3_INWARD_Q3_TWISTED_SHA256)]
    + list(WIDE_TABLE_SHA256.values()),
    ids=list(BOUNDED_TABLE_SHA256)
    + ["abelian-q3-twisted", "periodic-2-sdh", "kronecker-hall", "a3-inward-q3-twisted"]
    + list(WIDE_TABLE_SHA256),
)
def test_bounded_table_bytes_across_cache_states(tmp_path, doc, cap, algebra, digest):
    spec = write_spec(tmp_path, doc)
    digests = []
    for i, extra in enumerate(([], [], ["--no-cache"])):
        out = tmp_path / f"t{i}.json"
        rc = cli.main(
            ["table", "--spec", spec, "--dim-cap", cap, "--algebra", algebra, "--out", str(out)]
            + extra
        )
        assert rc == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    # cold cache, warm cache and no-cache: the recorded bytes
    assert digests == [digest] * 3
    # which are json.dumps's indented text of the document
    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert files.dump_doc(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


_REPORT_CASES = {
    "associativity": ("associativity", A2_ABELIAN, "1,1"),
    "lemma-ext": ("lemma-ext", A1_PERIODIC, "1"),
    "shift-functor": ("shift-functor", A1_PERIODIC, "1"),
    "rel-euler": ("rel-euler", A2_BOUNDED, "1"),
    "toen": ("toen", A2_BOUNDED, "1"),
    "freeness": ("freeness", A2_BOUNDED, "1"),
    "rel-euler-total3": ("rel-euler", A2_BOUNDED, "2,total:3"),
    "toen-total3": ("toen", A2_BOUNDED, "2,total:3"),
}


@pytest.mark.parametrize("name", list(_REPORT_CASES))
def test_verify_report_body_bytes(tmp_path, capsys, name):
    suite, doc, cap = _REPORT_CASES[name]
    spec = write_spec(tmp_path, doc)
    out = tmp_path / "r.json"
    rc = cli.main(["verify", "--spec", spec, "--dim-cap", cap, suite, "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    text = out.read_text()
    body = files.dump_doc(files.report_body(json.loads(text)))
    assert hashlib.sha256(body.encode()).hexdigest() == REPORT_BODY_SHA256[name]
    # the whole report, wall_time float included, is json.dumps's indented text
    doc = json.loads(text)
    assert files.dump_doc(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


def test_dh_table_solves_each_projective_hom_space_once(tmp_path, monkeypatch):
    import hallforge.complexes as cx

    calls = []
    real = cx.hom_basis

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(cx, "hom_basis", counting)
    spec = write_spec(tmp_path, A2_BOUNDED)
    rc = cli.main(
        ["table", "--spec", spec, "--dim-cap", "1", "--algebra", "dh", "--out", str(tmp_path / "t.json")]
    )
    assert rc == 0
    assert calls
    # rep_of returns one Rep per multiplicity vector and category, so a
    # repeated (source, target) pair of objects is a repeated Hom space
    per_pair = Counter((id(a), id(b)) for a, b in calls)
    assert max(per_pair.values()) == 1


# ---- the derived product's pair records ----


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_warm_dh_table_computes_no_pair(tmp_path, monkeypatch):
    import hallforge.complexes as cx
    from hallforge import quiver

    spec = write_spec(tmp_path, A2_BOUNDED)
    argv = ["table", "--spec", spec, "--dim-cap", "2,total:3", "--algebra", "dh", "--out"]
    assert cli.main(argv + [str(tmp_path / "cold.json")]) == 0
    # a warm run still classifies what it reads, and the iso tests behind a
    # classification build Hom complexes and strip cones; nothing else may
    depth = [0]
    real_classify = quiver.Registry.classify

    def classify(registry, obj):
        depth[0] += 1
        try:
            return real_classify(registry, obj)
        finally:
            depth[0] -= 1

    def forbid(name, outside_classify_only):
        real = getattr(cx, name)

        def guarded(*args, **kwargs):
            if depth[0] == 0 or not outside_classify_only:
                raise AssertionError(f"warm run called {name}")
            return real(*args, **kwargs)

        monkeypatch.setattr(cx, name, guarded)

    monkeypatch.setattr(quiver.Registry, "classify", classify)
    forbid("ext1_classes", False)
    forbid("middle_term_cx", False)
    forbid("strip_contractibles", True)
    forbid("_hom_complex", True)
    assert cli.main(argv + [str(tmp_path / "warm.json")]) == 0
    assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()
    assert _sha(tmp_path / "warm.json") == DH_TOTAL3_SHA256


def test_warm_dh_table_decodes_each_witness_once(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, A2_BOUNDED)
    argv = ["table", "--spec", spec, "--dim-cap", "2,total:3", "--algebra", "dh", "--out"]
    assert cli.main(argv + [str(tmp_path / "cold.json")]) == 0
    decoded = Counter()
    reads = [0]
    real_decode, real_read = hall.CxBackend.decode, hall._Backend._read_tuples

    def decode(bk, enc):
        decoded[id(bk), enc] += 1
        return real_decode(bk, enc)

    def read_tuples(bk, enc):
        reads[0] += 1
        return real_read(bk, enc)

    monkeypatch.setattr(hall.CxBackend, "decode", decode)
    monkeypatch.setattr(hall._Backend, "_read_tuples", read_tuples)
    assert cli.main(argv + [str(tmp_path / "warm.json")]) == 0
    assert _sha(tmp_path / "warm.json") == DH_TOTAL3_SHA256
    # the cached records repeat witnesses; each distinct one is decoded once
    assert decoded and set(decoded.values()) == {1}
    assert reads[0] > len(decoded)


def test_streaming_the_dh_table_peaks_below_1mb(tmp_path):
    # the A2 [0, 2] dh table at 2,total:3 (perfbench's bounded-dh-table) is
    # about 1 MB of text; writing it holds only a chunk of it at a time
    spec = CategorySpec.from_dict(A2_BOUNDED_WIDE)
    doc = files.compute_table(AlgebraHandle(spec, "dh"), files.parse_dim_cap(spec, "2,total:3"))
    out = tmp_path / "table.json"
    tracemalloc.start()
    try:
        files.write_json(out, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 1_000_000
    assert out.read_text(encoding="utf-8") == files.dump_doc(doc)
    assert peak < 1_000_000


def _stable_heads(doc, cap):
    """The stable backend of a dh table on (doc, cap), and {pair key: what
    every stripped middle of the pair shares} over the pairs it multiplies."""
    spec = CategorySpec.from_dict(doc)
    handle = AlgebraHandle(spec, "dh")
    ids = files.basis_keys(handle, files.parse_dim_cap(spec, cap))
    bk = handle.sdh.derived.backend
    heads = {}
    for a_id in ids:
        for c_id in ids:
            a, c = bk.object(a_id), bk.object(c_id)
            heads[hall.pair_key(bk.signature(), a.encoding(), c.encoding())] = bk._middle_head(a, c)
    return bk, heads


def _as_json(enc):
    """An encoding as a cache file holds it: tuples become lists."""
    return json.loads(json.dumps(enc))


def _fits(enc, head) -> bool:
    """The multiplicity part of the stable witness check."""
    return all(
        n in head[1] and all(m <= b for m, b in zip(mults, head[1][n])) for n, mults in enc[0]
    )


def _cone_summed_in(rec, bk, head, others):
    # a cone adds nothing to the alternating class, and it fits the
    # multiplicities, so only is_minimal can reject the witness
    for item in rec["middles"]:
        w = bk.decode(hall._json_to_enc(item[0]))
        for cone in contractible_generators(bk.cat).values():
            enc = direct_sum_cx(w, cone).encoding()
            if _fits(enc, head):
                item[0] = _as_json(enc)
                return rec
    return None


def _witness_of_another_pair(rec, bk, head, others):
    # valid, minimal and within the multiplicities: only its alternating
    # class is wrong
    for enc in others:
        obj = bk.decode(enc)
        if _fits(enc, head) and bk._alternating_class(obj.comps) != head[0]:
            rec["middles"][0][0] = _as_json(enc)
            return rec
    return None


def _dd_nonzero(rec, bk, head, others):
    # two representation morphisms with no cone block, so the witness stays
    # minimal and only the d d = 0 check of the validated complex rejects
    # it; the backend validates what it decodes, so it is built unchecked
    cat = bk.cat
    for item in rec["middles"]:
        w = bk.read(item[0])
        degs = sorted(w.diffs)
        if len(degs) < 2 or degs[1] != degs[0] + 1:
            continue
        n = degs[0]
        for f0 in cat.map_layout(w.comps[n], w.comps[n + 1])[0]:
            for f1 in cat.map_layout(w.comps[n + 1], w.comps[n + 2])[0]:
                if all((g @ f).is_zero() for f, g in zip(f0, f1)):
                    continue
                bad = Complex(cat, w.comps, {**w.diffs, n: f0, n + 1: f1}, validate=False)
                if is_minimal(bad):
                    item[0] = _as_json(bad.encoding())
                    return rec
    return None


def _degree_outside_window(rec, bk, head, others):
    for item in rec["middles"]:
        comps, diffs = item[0]
        if len(comps) == 1 and not diffs:
            comps[0][0] = 7  # past the window [0, 2] and its headroom
            return rec
    return None


def _stalk_pair_summed_in(rec, bk, head, others):
    # P_i in two adjacent degrees of the pair, with a zero differential
    # between them: valid, minimal and of the same alternating class, but
    # past the multiplicities of the pair's direct sum
    cat = bk.cat
    for item in rec["middles"]:
        w = bk.decode(hall._json_to_enc(item[0]))
        for n in sorted(head[1]):
            if n + 1 in head[1]:
                for i in range(1, cat.quiver.n + 1):
                    padded = direct_sum_cx(direct_sum_cx(w, cat.stalk(i, n)), cat.stalk(i, n + 1))
                    if not _fits(padded.encoding(), head):
                        item[0] = _as_json(padded.encoding())
                        return rec
    return None


def _count_zero(rec, bk, head, others):
    rec["middles"][0][1] = 0
    return rec


_STABLE_DAMAGES = {
    "hom-times-3": lambda rec, *_: dict(rec, hom=rec["hom"] * 3),
    "neg-ext-string": lambda rec, *_: dict(rec, neg_ext=str(rec["neg_ext"])),
    "count-zero": _count_zero,
    "cone-summed-in": _cone_summed_in,
    "witness-of-another-pair": _witness_of_another_pair,
    "dd-nonzero": _dd_nonzero,
    "degree-outside-window": _degree_outside_window,
    "stalk-pair-summed-in": _stalk_pair_summed_in,
}
# a composite of two nonzero maps between projectives that is not a cone
# needs P3 -> P2 -> P1, so A3 at a cap that holds the stalk of P1
_DAMAGE_GRIDS = {"dd-nonzero": (dict(A3_LINEAR_BOUNDED, window=[0, 2]), "total:3")}


@pytest.mark.parametrize("damage", list(_STABLE_DAMAGES))
def test_damaged_stable_records_are_recomputed(tmp_path, monkeypatch, damage):
    doc, cap = _DAMAGE_GRIDS.get(damage, (A2_BOUNDED_WIDE, "1"))
    spec_path = write_spec(tmp_path, doc)
    argv = ["table", "--spec", spec_path, "--dim-cap", cap, "--algebra", "dh", "--out"]
    assert cli.main(argv + [str(tmp_path / "clean.json")]) == 0
    cache_file = tmp_path / "cache" / f"{CategorySpec.from_dict(doc).spec_hash}.jsonl"
    header, *lines = cache_file.read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    assert entries and all("neg_ext" in e["record"] for e in entries)
    bk, heads = _stable_heads(doc, cap)
    witnesses = [hall._json_to_enc(enc) for e in entries for enc, _ in e["record"]["middles"]]
    replaced = []
    for i, entry in enumerate(entries):
        bad = _STABLE_DAMAGES[damage](entry["record"], bk, heads[entry["key"]], witnesses)
        if bad is not None:
            replaced.append(lines[i])
            lines[i] = json.dumps({"key": entry["key"], "record": bad}, sort_keys=True)
    assert replaced
    text = "\n".join([header, *lines]) + "\n"
    cache_file.write_text(text)
    assert cli.main(argv + [str(tmp_path / "warm.json")]) == 0
    # the damaged lines stay, and one fresh line per damaged record follows
    written = cache_file.read_text()
    assert written.startswith(text)
    assert sorted(written[len(text):].splitlines()) == sorted(replaced)

    def recompute(*args):
        raise AssertionError("pair recomputed")

    monkeypatch.setattr(hall.CxBackend, "raw_ext_data", recompute)
    assert cli.main(argv + [str(tmp_path / "warm2.json")]) == 0
    assert cache_file.read_text() == written
    clean = (tmp_path / "clean.json").read_bytes()
    assert (tmp_path / "warm.json").read_bytes() == clean == (tmp_path / "warm2.json").read_bytes()


def _built(cat, enc, validate):
    """The complex a JSON encoding names, built by hand; Complex runs its
    checks (degrees, morphisms, d d = 0) when `validate`."""
    comps, diffs = enc
    mults = {n: tuple(m) for n, m in comps}
    maps = {}
    for n, blocks in diffs:
        src = cat.rep_of(mults[n]).dims
        maps[n] = tuple(Matrix(cat.field, rows, s) for rows, s in zip(blocks, src))
    return Complex(cat, mults, maps, validate=validate)


def _flip_to_non_complex(rec, cat):
    """Flip one differential entry (q = 2) of a middle of `rec` so that the
    middle is no longer a complex; None if no single flip does that."""
    for item in rec["middles"]:
        for _, blocks in item[0][1]:
            for rows in blocks:
                for row in rows:
                    for j in range(len(row)):
                        row[j] = 1 - row[j]
                        try:
                            _built(cat, item[0], validate=True)
                        except SpecError:
                            return rec
                        row[j] = 1 - row[j]
    return None


def test_strict_complex_record_naming_a_non_complex_is_recomputed(tmp_path):
    spec = write_spec(tmp_path, A2_BOUNDED)
    argv = ["table", "--spec", spec, "--dim-cap", "2,total:3", "--algebra", "hall", "--out"]
    assert cli.main(argv + [str(tmp_path / "cold.json")]) == 0
    assert _sha(tmp_path / "cold.json") == HALL_TOTAL3_SHA256
    cache_file = tmp_path / "cache" / f"{CategorySpec.from_dict(A2_BOUNDED).spec_hash}.jsonl"
    header, *lines = cache_file.read_text().splitlines()
    cat = CategorySpec.from_dict(A2_BOUNDED).complex_category()
    for i, line in enumerate(lines):
        entry = json.loads(line)
        if _flip_to_non_complex(entry["record"], cat) is not None:
            clean, lines[i] = line, json.dumps(entry, sort_keys=True)
            break
    else:
        pytest.fail("no record can be damaged into a non-complex")
    text = "\n".join([header, *lines]) + "\n"
    cache_file.write_text(text)
    assert cli.main(argv + [str(tmp_path / "warm.json")]) == 0
    assert _sha(tmp_path / "warm.json") == HALL_TOTAL3_SHA256
    # the damaged line stays, and the recomputed record follows it once
    written = cache_file.read_text()
    assert written.startswith(text)
    assert written[len(text):].splitlines() == [clean]


def test_sdh_and_dh_records_share_one_cache_file(tmp_path):
    spec = write_spec(tmp_path, A2_BOUNDED)
    for run in ("cold", "warm"):
        for algebra in ("sdh", "dh"):
            out = tmp_path / f"{algebra}-{run}.json"
            argv = ["table", "--spec", spec, "--dim-cap", "1", "--algebra", algebra]
            assert cli.main(argv + ["--out", str(out)]) == 0
            assert _sha(out) == BOUNDED_TABLE_SHA256[algebra], (algebra, run)
    cache_file = tmp_path / "cache" / f"{CategorySpec.from_dict(A2_BOUNDED).spec_hash}.jsonl"
    records = [json.loads(line)["record"] for line in cache_file.read_text().splitlines()[1:]]
    kinds = Counter("neg_ext" in rec for rec in records)
    assert kinds[True] and kinds[False]
    # the warm runs appended nothing: every key was written once
    assert len(records) == kinds[True] + kinds[False]
    # a stable key never equals the strict key of the same two encodings
    cat = CategorySpec.from_dict(A2_BOUNDED).complex_category()
    a, c = cat.stalk(1, 0).encoding(), cat.stalk(2, 1).encoding()
    strict, stable = hall.CxBackend(cat), hall.StableBackend(cat)
    assert hall.pair_key(strict.signature(), a, c) != hall.pair_key(stable.signature(), a, c)


@pytest.mark.parametrize("first", ["dh", "toen"])
def test_dh_table_and_toen_share_records_in_either_order(tmp_path, capsys, first):
    spec = write_spec(tmp_path, A2_BOUNDED)
    runs = {
        "dh": ["table", "--spec", spec, "--dim-cap", "2,total:3", "--algebra", "dh"],
        "toen": ["verify", "--spec", spec, "--dim-cap", "2,total:3", "toen"],
    }
    order = [first, "toen" if first == "dh" else "dh"]
    for name in order:
        assert cli.main(runs[name] + ["--out", str(tmp_path / f"{name}.json")]) == 0
    capsys.readouterr()
    assert _sha(tmp_path / "dh.json") == DH_TOTAL3_SHA256
    report = json.loads((tmp_path / "toen.json").read_text())
    body = files.dump_doc(files.report_body(report))
    assert hashlib.sha256(body.encode()).hexdigest() == REPORT_BODY_SHA256["toen-total3"]


def test_stable_and_strict_records_keep_their_cache_file_bytes(tmp_path):
    spec = write_spec(tmp_path, A2_BOUNDED)
    for algebra in ("dh", "hall"):
        argv = ["table", "--spec", spec, "--dim-cap", "2,total:3", "--algebra", algebra]
        assert cli.main(argv + ["--out", str(tmp_path / f"{algebra}.json")]) == 0
    assert _sha(tmp_path / "dh.json") == DH_TOTAL3_SHA256
    cache_file = tmp_path / "cache" / f"{CategorySpec.from_dict(A2_BOUNDED).spec_hash}.jsonl"
    records = [json.loads(line)["record"] for line in cache_file.read_text().splitlines()[1:]]
    assert [("neg_ext" in rec) for rec in records] == [True] * 169 + [False] * 256
    assert _sha(cache_file) == DH_HALL_CACHE_SHA256


def test_sdh_tw_cold_cache_file_keeps_its_bytes(tmp_path):
    spec = write_spec(tmp_path, A2_BOUNDED_WIDE)
    argv = ["table", "--spec", spec, "--dim-cap", "2,total:3", "--algebra", "sdh-tw"]
    assert cli.main(argv + ["--out", str(tmp_path / "t.json")]) == 0
    cache_file = tmp_path / "cache" / f"{CategorySpec.from_dict(A2_BOUNDED_WIDE).spec_hash}.jsonl"
    assert _sha(cache_file) == SDH_TW_WIDE_CACHE_SHA256


def test_sdh_tw_table_strips_each_strict_class_once(tmp_path, monkeypatch):
    calls = Counter()
    strip = cx.strip_contractibles

    def counting(x):
        calls[x.encoding()] += 1
        return strip(x)

    monkeypatch.setattr(cx, "strip_contractibles", counting)
    spec = write_spec(tmp_path, A2_BOUNDED)
    argv = ["table", "--spec", spec, "--dim-cap", "1", "--algebra", "sdh-tw"]
    assert cli.main(argv + ["--out", str(tmp_path / "t.json")]) == 0
    # every strict middle is rewritten once per run, however many products
    # it appears in: 13 encodings, where each product rewrote its own
    assert len(calls) == 13 and set(calls.values()) == {1}


def test_sdh_tw_table_builds_each_key_class_once(tmp_path, monkeypatch):
    keys, sums = set(), []
    class_sum, key_class = sdh._class_sum, sdh.SDH._key_class

    def recording(self, gamma, m_id):
        keys.add((gamma, m_id))
        return key_class(self, gamma, m_id)

    monkeypatch.setattr(sdh, "_class_sum", lambda parts: sums.append(1) or class_sum(parts))
    monkeypatch.setattr(sdh.SDH, "_key_class", recording)
    spec = write_spec(tmp_path, A2_BOUNDED)
    argv = ["table", "--spec", spec, "--dim-cap", "1", "--algebra", "sdh-tw"]
    assert cli.main(argv + ["--out", str(tmp_path / "t.json")]) == 0
    # a key's degreewise class depends on the key alone: one sum per key,
    # however many pairs of terms the key meets
    assert keys and len(sums) == len(keys)


def test_cold_dh_table_builds_middles_and_remainders_unchecked(tmp_path, monkeypatch):
    """A cold dh table on A2 q=2, window [0,2], cap 2,total:3 validates no
    middle and no strip remainder (both are complexes by construction), and
    lays out the maps between each pair of multiplicity vectors once: one
    memo entry for each of the 29 pairs its map spaces meet."""
    built_by = Counter()
    validate = cx.Complex._validate

    def counted(self, given_diffs):
        # frame 1 is Complex.__init__, frame 2 the function building self
        built_by[sys._getframe(2).f_code.co_name] += 1
        validate(self, given_diffs)

    layouts = []
    map_layout = cx.ComplexCategory.map_layout

    def recorded(cat, src, tgt):
        layouts.append((cat, src, tgt))
        return map_layout(cat, src, tgt)

    built = Counter()
    middle, strip = cx.middle_term_cx, cx.strip_contractibles

    def counted_middle(a, c, f):
        built["middles"] += 1
        return middle(a, c, f)

    def counted_strip(x):
        rest, exps = strip(x)
        built["remainders"] += bool(exps)
        return rest, exps

    monkeypatch.setattr(cx.Complex, "_validate", counted)
    monkeypatch.setattr(cx.ComplexCategory, "map_layout", recorded)
    monkeypatch.setattr(cx, "middle_term_cx", counted_middle)
    monkeypatch.setattr(cx, "strip_contractibles", counted_strip)
    spec = write_spec(tmp_path, A2_BOUNDED_WIDE)
    argv = ["table", "--spec", spec, "--dim-cap", "2,total:3", "--algebra", "dh",
            "--out", str(tmp_path / "t.json")]
    assert cli.main(argv) == 0
    assert built["middles"] and built["remainders"]
    assert built_by["middle_term_cx"] == built_by["strip_contractibles"] == 0
    (cat,) = {c for c, _, _ in layouts}
    assert len(cat._layout_memo) == len({(s, t) for _, s, t in layouts}) == 29
    assert len(layouts) > 50 * 29  # 2,826 lookups


class _ReadCountingMemo(dict):
    """A memo table that counts its fills and the lookups that find a key."""

    def __init__(self, items):
        super().__init__(items)
        self.fills = self.hits = 0

    def __setitem__(self, key, value):
        self.fills += 1
        super().__setitem__(key, value)

    def __getitem__(self, key):
        value = super().__getitem__(key)  # a miss raises KeyError uncounted
        self.hits += 1
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


def _count_memo_reads(monkeypatch, cls) -> list:
    """Swap a read-counting memo for every dict attribute of each new cls
    instance; returns the list of their {name: memo} tables."""
    made = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        memos = {k: _ReadCountingMemo(v) for k, v in vars(self).items() if type(v) is dict}
        for k, v in memos.items():
            setattr(self, k, v)
        made.append(memos)

    monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_every_memo_table_is_read_after_it_is_filled(tmp_path, monkeypatch, capsys):
    """No memo table is written and then never read: each table of
    ComplexCategory on a cold dh table over A2 q=2, window [0,2], cap
    2,total:3, and HallAlgebra's pair table on a cold associativity check
    over A2 plus an isolated vertex at cap 1 (the benchmark's two grids),
    finds some key it stored."""
    cats = _count_memo_reads(monkeypatch, cx.ComplexCategory)
    algebras = _count_memo_reads(monkeypatch, hall.HallAlgebra)
    spec = write_spec(tmp_path, A2_BOUNDED_WIDE)
    assert cli.main(["table", "--spec", spec, "--dim-cap", "2,total:3", "--algebra", "dh",
                     "--out", str(tmp_path / "t.json")]) == 0
    (memos,) = cats
    assert {k: (m.fills, m.hits) for k, m in memos.items() if m.fills and not m.hits} == {}
    assert sorted(memos) == ["_layout_memo", "_merge_memo", "_rep_cache", "_slots_memo", "_zero_memo"]
    assert all(m.fills for m in memos.values())
    algebras.clear()
    abelian = write_spec(tmp_path, dict(A2_ABELIAN, quiver={"vertices": 3, "arrows": [[1, 2]]}), "abelian.json")
    assert cli.main(["verify", "associativity", "--spec", abelian, "--dim-cap", "1",
                     "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    tables = {k: m for memos in algebras for k, m in memos.items()}
    assert list(tables) == ["_pairs"]
    assert tables["_pairs"].fills and tables["_pairs"].hits


def test_cli_commands_leave_numpy_unimported(tmp_path):
    """No command imports numpy, dataclasses or hashlib (with OpenSSL), and
    a command on an abelian spec never imports the complexes layer
    (complexes and sdh)."""
    abelian = write_spec(tmp_path, A2_ABELIAN, "abelian.json")
    bounded = write_spec(tmp_path, A2_BOUNDED, "bounded.json")
    x, y = simple_elements(tmp_path)
    runs = [
        ["verify", "associativity", "--spec", abelian, "--dim-cap", "1",
         "--out", str(tmp_path / "report.json")],
        ["table", "--spec", abelian, "--dim-cap", "1", "--algebra", "twisted",
         "--out", str(tmp_path / "twisted.json")],
        ["product", "--spec", abelian, x, y, "--out", str(tmp_path / "xy.json")],
        ["table", "--spec", bounded, "--dim-cap", "1", "--algebra", "dh",
         "--out", str(tmp_path / "table.json")],
    ]
    code = (
        "import json, sys\n"
        "from hallforge import cli\n"
        "watched = ('numpy', 'dataclasses', 'hashlib', '_hashlib', 'hallforge.complexes',\n"
        "           'hallforge.sdh')\n"
        "out = [[[], [m for m in watched if m in sys.modules]]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out.append([cli.main(argv), [m for m in watched if m in sys.modules]])\n"
        "print(json.dumps(out))\n"
    )
    src = str(Path(files.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # the modules loaded after the import, then after each command in turn
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        [[], []],
        [0, []],
        [0, []],
        [0, []],
        [0, ["hallforge.complexes", "hallforge.sdh"]],
    ]


@pytest.mark.parametrize("doc,words", [
    (A2_ABELIAN, ["verify", "associativity", "--dim-cap", "1"]),
    (A2_ABELIAN, ["verify", "associativity", "--dim-cap", "1", "--out", "r.json"]),
    (A2_BOUNDED, ["table", "--algebra", "dh", "--dim-cap", "1"]),
], ids=["verify", "verify-out", "dh-table"])
def test_exit_2_on_closed_stdout(tmp_path, doc, words):
    # a pipe whose reader is gone: every write to it fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(files.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hallforge.cli", *words, "--spec", write_spec(tmp_path, doc)],
            env=dict(os.environ, PYTHONPATH=src), stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=120, cwd=tmp_path,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    # one line: no traceback, and nothing from a failed flush at shutdown
    assert proc.stderr.startswith("error[SPEC_INVALID]: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    if "--out" in words:  # verify writes its --out file before stdout
        report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert report["suite"] == "associativity" and report["status"] == "pass"


def test_exit_2_on_caps_that_are_not_positive(tmp_path, capsys):
    spec = write_spec(tmp_path, dict(A2_ABELIAN, caps={"max_enum": 0}))
    assert cli.main(["table", "--spec", spec, "--dim-cap", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error[SPEC_INVALID]: bad caps: max_enum must be positive\n"
