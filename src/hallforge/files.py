"""Spec, element, table, and report documents; the persistent pair cache.

Everything on disk is JSON with a required "format_version".  Rationals are
serialized as "num/den" strings so nothing is ever rounded; coefficients in
the square-root extension carry the v-part in a separate "coeff_root"
field.  Writers sort object keys and emit terms in a fixed order (exponent
vector lexicographic, then class id), so running the same computation twice
produces byte-identical files.  Object encodings in element files are read
by the backend's one checked reader (`hall._Backend.read`).  A parsed dim
cap holds only its bounds and its text: the spec's backend says which kind
of cap it is.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
from fractions import Fraction
from pathlib import Path

from .config import Caps, DEFAULT_CAPS
from .errors import (
    DerivedUndefined,
    EulerUndefined,
    RelEulerUndefined,
    SpecError,
)
from .hall import (
    CxBackend,
    HallAlgebra,
    RepBackend,
    SqrtExt,
    _sha256,
)
from .linalg import Field
from .quiver import Quiver, enumerate_reps

FORMAT_VERSION = 1

# per algebra name: its family and the method of the family's algebra object
# (HallAlgebra for strict, SDH for torus and dh) that multiplies its elements
_ALGEBRAS = {"hall": ("strict", "product"), "twisted": ("strict", "twisted_product"),
             "sdh": ("torus", "product"), "sdh-tw": ("torus", "tw_product"),
             "dh": ("dh", "dh_product")}
ALGEBRAS = tuple(_ALGEBRAS)


# ---- rational codec ----

_RAT_RE = re.compile(r"^(-?\d+)/(\d+)$")


def rational_to_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rational_from_str(s) -> Fraction:
    if not isinstance(s, str):
        raise SpecError(f"rational must be a 'num/den' string, got {s!r}")
    m = _RAT_RE.match(s)
    if not m or int(m.group(2)) == 0:
        raise SpecError(f"malformed rational {s!r}")
    return Fraction(int(m.group(1)), int(m.group(2)))


def coeff_to_json(c) -> dict:
    """Coefficient fields of a term: "coeff" always; "coeff_root" carries
    the v-part of a twisted scalar and is omitted when zero."""
    if isinstance(c, SqrtExt):
        out = {"coeff": rational_to_str(c.a)}
        if c.b:
            out["coeff_root"] = rational_to_str(c.b)
        return out
    return {"coeff": rational_to_str(c)}


def coeff_from_json(row: dict, q: int):
    if "coeff" not in row:
        raise SpecError("term without a coeff field")
    a = rational_from_str(row["coeff"])
    root = row.get("coeff_root")
    if root is None:
        return a
    return SqrtExt(q, a, rational_from_str(root))


# ---- JSON plumbing ----


WRITE_CHUNK = 4096  # pieces of text dump_doc joins into one write


def dump_doc(doc: dict, f=None) -> str | None:
    """json.dumps(doc, indent=2, sort_keys=True) plus a newline, byte for
    byte: written into the text file f as it is serialised, or returned as
    a str when f is None.

    With an indent, json.dumps runs its pure-Python encoder;
    `_write_indented` writes the same text directly, WRITE_CHUNK pieces to
    a write, so neither the whole text nor the list of its pieces is ever
    held.  A value holding anything else than str, int, bool, None, finite
    floats, lists, tuples and str-keyed dicts goes to json.dumps itself, in
    place, which writes what it would inside the whole document.  On a type
    json.dumps cannot write it raises TypeError, and f may then hold the
    text up to that value."""
    if f is None:
        f = io.StringIO()
        dump_doc(doc, f)
        return f.getvalue()
    out: list[str] = []

    def flush():
        f.write("".join(out))
        out.clear()

    _write_indented(doc, out, "\n", flush)
    out.append("\n")
    flush()


_encode_str = json.encoder.encode_basestring_ascii


def _write_indented(o, out: list, pad: str, flush) -> None:
    """Append the text json.dumps(indent=2, sort_keys=True) gives o, at the
    indentation where pad (a newline and spaces) starts its lines, calling
    flush() whenever out holds WRITE_CHUNK pieces."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float) and math.isfinite(o):
        out.append(float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _write_indented(item, out, inner, flush)
            sep = "," + inner
            if len(out) >= WRITE_CHUNK:
                flush()
        out.append(pad + "]")
    elif isinstance(o, dict) and all(isinstance(k, str) for k in o):
        if not o:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for k in sorted(o):
            out.append(sep + _encode_str(k) + ": ")
            _write_indented(o[k], out, inner, flush)
            sep = "," + inner
            if len(out) >= WRITE_CHUNK:
                flush()
        out.append(pad + "}")
    else:
        # json.dumps never puts a newline inside a string, so re-padding
        # its lines indents o as the whole document's encoder would
        out.append(json.dumps(o, indent=2, sort_keys=True).replace("\n", pad))


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_doc(doc, fh)


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise SpecError(f"{path}: cannot read ({e.strerror})")
    except UnicodeDecodeError as e:
        raise SpecError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})")
    except json.JSONDecodeError as e:
        raise SpecError(f"{path}: not valid JSON ({e})")
    except RecursionError:
        raise SpecError(f"{path}: JSON nested too deeply to read")


def _require_int(doc, name, val) -> int:
    if not isinstance(val, int) or isinstance(val, bool):
        raise SpecError(f"{doc}: {name} must be an integer, got {val!r}")
    return val


# ---- category spec ----


class CategorySpec:
    """Validated category description: field, quiver, backend, budgets.

    Everything downstream (algebras, caches, file compatibility) is keyed
    by `spec_hash`, a digest of the canonical serialized form.
    """

    def __init__(
        self,
        q: int,
        vertices: int,
        arrows,
        backend: str,
        lo=None,
        hi=None,
        period=None,
        headroom=None,
        caps: Caps | None = None,
    ):
        q = _require_int("spec", "field.q", q)
        try:
            Field(q)
        except ValueError as e:
            raise SpecError(f"field.q: {e}")
        self.q = q
        try:
            self.quiver = Quiver(_require_int("spec", "quiver.vertices", vertices), arrows)
        except ValueError as e:
            raise SpecError(f"bad quiver: {e}")
        if backend not in ("abelian", "bounded", "periodic"):
            raise SpecError(f"unknown backend {backend!r}")
        self.backend = backend
        self.lo = self.hi = self.period = self.headroom = None
        if backend == "bounded":
            if lo is None or hi is None:
                raise SpecError("bounded backend needs a window [lo, hi]")
            self.lo = _require_int("spec", "window lo", lo)
            self.hi = _require_int("spec", "window hi", hi)
            if self.lo > self.hi:
                raise SpecError("window must be nonempty (lo <= hi)")
            if period is not None:
                raise SpecError("bounded backend takes no period")
            if headroom is not None:
                self.headroom = _require_int("spec", "headroom", headroom)
        elif backend == "periodic":
            if period is None:
                raise SpecError("periodic backend needs a period")
            self.period = _require_int("spec", "period", period)
            if self.period < 2:
                raise SpecError("period must be >= 2")
            if lo is not None or hi is not None or headroom is not None:
                raise SpecError("periodic backend takes no window or headroom")
        else:
            if lo is not None or hi is not None or period is not None or headroom is not None:
                raise SpecError("abelian backend takes no window, period, or headroom")
        self.caps = caps if caps is not None else DEFAULT_CAPS

    @classmethod
    def from_dict(cls, doc) -> "CategorySpec":
        if not isinstance(doc, dict):
            raise SpecError("spec document must be a JSON object")
        if doc.get("format_version") != FORMAT_VERSION:
            raise SpecError("spec file missing or unsupported format_version")
        field = doc.get("field")
        if not isinstance(field, dict) or "q" not in field:
            raise SpecError("spec needs a field section with q")
        quiver = doc.get("quiver")
        if not isinstance(quiver, dict) or "vertices" not in quiver:
            raise SpecError("spec needs a quiver section with vertices")
        arrows = quiver.get("arrows", [])
        if not isinstance(arrows, list) or not all(
            isinstance(a, list) and len(a) == 2 for a in arrows
        ):
            raise SpecError("quiver.arrows must be a list of [tail, head] pairs")
        for arrow in arrows:
            for end in arrow:
                _require_int("spec", "quiver.arrows endpoint", end)
        window = doc.get("window")
        lo = hi = None
        if window is not None:
            if not isinstance(window, list) or len(window) != 2:
                raise SpecError("window must be [lo, hi]")
            lo, hi = window
        caps_doc = doc.get("caps", {})
        if not isinstance(caps_doc, dict):
            raise SpecError("caps must be an object")
        known = {"max_ext_enum", "max_hom_enum", "max_endo_enum", "max_enum"}
        unknown = set(caps_doc) - known
        if unknown:
            raise SpecError(f"unknown caps: {sorted(unknown)}")
        for k, v in caps_doc.items():
            _require_int("spec", f"caps.{k}", v)
        try:
            caps = Caps(**caps_doc) if caps_doc else DEFAULT_CAPS
        except ValueError as e:
            raise SpecError(f"bad caps: {e}")
        return cls(
            q=field["q"],
            vertices=quiver["vertices"],
            arrows=[tuple(a) for a in arrows],
            backend=doc.get("backend"),
            lo=lo,
            hi=hi,
            period=doc.get("period"),
            headroom=doc.get("headroom"),
            caps=caps,
        )

    def to_dict(self) -> dict:
        doc = {
            "format_version": FORMAT_VERSION,
            "field": {"q": self.q},
            "quiver": {
                "vertices": self.quiver.n,
                "arrows": [list(a) for a in self.quiver.arrows],
            },
            "backend": self.backend,
            "caps": {
                "max_ext_enum": self.caps.max_ext_enum,
                "max_hom_enum": self.caps.max_hom_enum,
                "max_endo_enum": self.caps.max_endo_enum,
                "max_enum": self.caps.max_enum,
            },
        }
        if self.backend == "bounded":
            doc["window"] = [self.lo, self.hi]
            if self.headroom is not None:
                doc["headroom"] = self.headroom
        if self.backend == "periodic":
            doc["period"] = self.period
        return doc

    @property
    def spec_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return _sha256(blob.encode()).hexdigest()

    # -- builders --

    def field_obj(self) -> Field:
        return Field(self.q)

    def complex_category(self) -> ComplexCategory:
        if self.backend == "abelian":
            raise SpecError("abelian backend has no complex category")
        from .complexes import ComplexCategory
        if self.backend == "bounded":
            return ComplexCategory(
                self.quiver,
                self.field_obj(),
                "bounded",
                lo=self.lo,
                hi=self.hi,
                headroom=self.headroom,
            )
        return ComplexCategory(self.quiver, self.field_obj(), "periodic", period=self.period)

    def make_backend(self):
        if self.backend == "abelian":
            return RepBackend(self.quiver, self.field_obj(), self.caps)
        return CxBackend(self.complex_category(), self.caps)


def load_spec(path) -> CategorySpec:
    return CategorySpec.from_dict(load_json(path))


def write_spec(path, spec: CategorySpec) -> None:
    write_json(path, spec.to_dict())


# ---- persistent structure-constant cache ----


def cache_root() -> Path:
    env = os.environ.get("HALLFORGE_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hallforge"


def _json_line(line: bytes):
    """The JSON value of one cache line, or None if it is blank, not UTF-8,
    not JSON or nested too deeply to decode."""
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        return None


def _ends_in_newline(path) -> bool:
    with open(path, "rb") as fh:
        if fh.seek(0, os.SEEK_END) == 0:
            return True
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) == b"\n"


class FileCache:
    """JSONL pair-record cache bound to one spec hash.

    The first line is a header pinning the format version and spec hash; a
    file whose header does not match is overwritten rather than trusted.
    With read=False nothing on disk is consulted, so every pair is
    recomputed, but records for keys not yet on disk are still appended for
    later runs.  With read=True a put for a key read from disk replaces a
    record the caller rejected: it is appended once, and on load the last
    line of a key wins.
    """

    def __init__(self, path, spec_hash: str, read: bool = True):
        self.path = Path(path)
        self.spec_hash = spec_hash
        self.mem: dict[str, dict] = {}
        # keys not to append: written by this run, or on disk when read=False
        self.persisted: set[str] = set()
        self.hits = 0
        self.misses = 0
        self._fh = None
        self._valid_file = False
        if self.path.exists():
            self._load(read)

    def _load(self, read: bool) -> None:
        # line by line, so a line that is not UTF-8 is skipped like a torn one
        with open(self.path, "rb") as fh:
            lines = fh.read().splitlines()
        if not lines:
            return
        header = _json_line(lines[0])
        if (
            not isinstance(header, dict)
            or header.get("format_version") != FORMAT_VERSION
            or header.get("spec_hash") != self.spec_hash
        ):
            return
        self._valid_file = True
        for line in lines[1:]:
            rec = _json_line(line)  # None for a torn tail write: drop the line, keep the file
            if not isinstance(rec, dict):
                continue
            key = rec.get("key")
            if not isinstance(key, str) or "record" not in rec:
                continue
            if read:
                self.mem[key] = rec["record"]
            else:
                self.persisted.add(key)

    def get(self, key: str):
        rec = self.mem.get(key)
        if rec is None:
            self.misses += 1
        else:
            self.hits += 1
        return rec

    def put(self, key: str, record: dict) -> None:
        self.mem[key] = record
        if key in self.persisted:
            return
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not (self.path.exists() and self._valid_file)
            torn = not fresh and not _ends_in_newline(self.path)
            self._fh = open(self.path, "w" if fresh else "a", encoding="utf-8")
            if torn:  # end the torn last line so this record starts a line of its own
                self._fh.write("\n")
            if fresh:
                self._fh.write(
                    json.dumps(
                        {"format_version": FORMAT_VERSION, "spec_hash": self.spec_hash},
                        sort_keys=True,
                    )
                    + "\n"
                )
                self._valid_file = True
        self._fh.write(json.dumps({"key": key, "record": record}, sort_keys=True) + "\n")
        self._fh.flush()
        self.persisted.add(key)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def open_cache(spec: CategorySpec, no_cache: bool = False) -> FileCache:
    path = cache_root() / f"{spec.spec_hash}.jsonl"
    return FileCache(path, spec.spec_hash, read=not no_cache)


# ---- algebra handle ----


def algebra_family(name: str) -> str:
    return _ALGEBRAS[name][0]


class AlgebraHandle:
    """One algebra name bound to a concrete spec: element arithmetic plus
    the term codec shared by element and table files.

    Construction rejects combinations the backend cannot support: the sdh
    family needs a complex backend, and any Euler-twisted or derived
    product is undefined on the periodic backend.  It also fixes the
    name's family (strict, torus or dh), the registry whose ids the terms
    carry and the product, which the codec and `product` then read.
    """

    def __init__(self, spec: CategorySpec, name: str, cache=None):
        if name not in ALGEBRAS:
            raise SpecError(f"unknown algebra {name!r} (choose from {', '.join(ALGEBRAS)})")
        self.spec = spec
        self.name = name
        self.q = spec.q
        self.family = algebra_family(name)
        if spec.backend == "abelian" and self.family != "strict":
            raise SpecError(f"algebra {name!r} needs a complex backend")
        if spec.backend == "periodic":
            if name == "twisted":
                raise EulerUndefined("periodic complexes have no total Euler form")
            if name == "sdh-tw":
                raise RelEulerUndefined("relative Euler twist undefined on the periodic backend")
            if name == "dh":
                raise DerivedUndefined("derived product undefined on the periodic backend")
        if self.family == "strict":
            self.backend = spec.make_backend()
            self.hall = HallAlgebra(self.backend, cache=cache)
            self.sdh = None
            self.registry = self.backend.registry
        else:
            from .sdh import SDH
            self.sdh = SDH(spec.complex_category(), spec.caps, cache=cache)
            self.hall = self.sdh.strict
            self.backend = self.hall.backend
            self.registry = self.sdh.stable
        self._product = getattr(self.hall if self.sdh is None else self.sdh, _ALGEBRAS[name][1])

    # -- element arithmetic --

    def zero(self) -> dict:
        return {}

    def one_term(self, key) -> dict:
        return {key: Fraction(1)}

    def product(self, x: dict, y: dict) -> dict:
        return self._product(x, y)

    def add(self, x: dict, y: dict) -> dict:
        return self.hall.add(x, y)

    def equal(self, x: dict, y: dict) -> bool:
        return self.hall.equal(x, y)

    # -- term codec --

    def sort_key(self, key):
        """(exponent vector, class id): the file term order."""
        return (tuple(key[0]), key[1]) if self.family == "torus" else ((), key)

    def key_row(self, key) -> dict:
        """Identity fields of a term: exponents, advisory id, encoding."""
        gamma, m_id = key if self.family == "torus" else ((), key)
        return {
            "exponents": self.sdh.torus.named(gamma) if gamma else {},
            "class": m_id,
            "encoding": self.registry.object(m_id).encoding(),
        }

    def term_to_row(self, key, coeff) -> dict:
        row = self.key_row(key)
        row.update(coeff_to_json(coeff))
        return row

    def row_to_term(self, row, family=None) -> tuple:
        """(key, coeff) with the class re-derived from the encoding.

        The stored id is advisory; the canonical encoding is what travels
        between processes, so the object is checked and re-classified on
        read.  Torus exponents must be integers.
        """
        if not isinstance(row, dict) or "encoding" not in row:
            raise SpecError("term without an encoding")
        obj = self.backend.read(row["encoding"])
        coeff = coeff_from_json(row, self.q)
        fam = family or self.family
        if fam == "strict":
            return self.backend.classify(obj), coeff
        if fam == "dh":
            return self.sdh.stable_class(obj), coeff
        exps = row.get("exponents", {})
        if not isinstance(exps, dict):
            raise SpecError("exponents must be an object")
        bad = [m for m in exps.values() if type(m) is not int]  # bool is not an exponent
        if bad:
            raise SpecError(f"torus exponent {json.dumps(bad[0])} is not an integer")
        try:
            gamma = self.sdh.torus.vector(exps)
        except KeyError as e:
            raise SpecError(f"unknown torus generator {e}")
        return (gamma, self.sdh.stable_class(obj)), coeff


# ---- element files ----


def element_rows(handle: AlgebraHandle, element: dict) -> list:
    rows = []
    for key in sorted(element, key=handle.sort_key):
        c = element[key]
        if c == 0:
            continue
        rows.append(handle.term_to_row(key, c))
    return rows


def element_doc(handle: AlgebraHandle, element: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "element",
        "spec_hash": handle.spec.spec_hash,
        "algebra": handle.name,
        "terms": element_rows(handle, element),
    }


def write_element(path, handle: AlgebraHandle, element: dict) -> dict:
    doc = element_doc(handle, element)
    write_json(path, doc)
    return doc


def read_element(path, handle: AlgebraHandle, family=None) -> dict:
    """Read an element file into the handle's key space.

    `family` overrides the expected key family; `normalize` uses it to read
    strict-class elements through an sdh handle so both sides share one
    registry.
    """
    family = family or handle.family
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: an element file must hold a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise SpecError(f"{path}: missing or unsupported format_version")
    if doc.get("kind") != "element":
        raise SpecError(f"{path}: not an element file")
    if doc.get("spec_hash") != handle.spec.spec_hash:
        raise SpecError(f"{path}: written against a different spec")
    written = doc.get("algebra")
    if written not in ALGEBRAS or algebra_family(written) != family:
        raise SpecError(
            f"{path}: algebra {written!r} does not provide {family} terms"
        )
    out: dict = {}
    terms = doc.get("terms")
    if not isinstance(terms, list):
        raise SpecError(f"{path}: terms must be a list")
    for row in terms:
        key, coeff = handle.row_to_term(row, family)
        prev = out.get(key, 0)
        s = prev + coeff
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return out


# ---- dimension caps ----


def parse_dim_cap(spec: CategorySpec, text) -> dict:
    """Parse a --dim-cap value against a spec's backend.

    Grammar: comma-separated tokens; a bare integer is a per-vertex
    (abelian) or per-degree (complex) cap, "total:N" caps the total
    dimension (complex backends only, at most once).  Abelian caps may
    list one value per vertex.  The parsed cap carries no backend kind:
    `spec.backend` is the one record of it.
    """
    if text is None:
        raise SpecError("this command needs --dim-cap")
    per: list[int] = []
    total = None
    for tok in str(text).split(","):
        tok = tok.strip()
        if tok.startswith("total:"):
            body = tok[len("total:"):]
            if not (body.isascii() and body.isdigit()):  # int() rejects "²"
                raise SpecError(f"bad dim-cap token {tok!r}")
            if total is not None:
                raise SpecError("dim-cap takes one total: token")
            total = int(body)
        elif tok.isascii() and tok.isdigit():
            per.append(int(tok))
        else:
            raise SpecError(f"bad dim-cap token {tok!r}")
    if spec.backend == "abelian":
        if total is not None:
            raise SpecError("total: caps apply to complex backends only")
        n = spec.quiver.n
        if len(per) == 1:
            dims = tuple(per * n)
        elif len(per) == n:
            dims = tuple(per)
        else:
            raise SpecError(f"abelian dim-cap needs 1 or {n} values")
        return {"dims": dims, "raw": str(text)}
    if len(per) > 1:
        raise SpecError("complex dim-cap takes a single per-degree value")
    if not per and total is None:
        raise SpecError("dim-cap must set a per-degree or total value")
    return {
        "max_degree_dim": per[0] if per else None,
        "max_total_dim": total,
        "raw": str(text),
    }


def grid_class_ids(handle: AlgebraHandle, cap: dict) -> list[int]:
    """Strict-backend class ids enumerated under a parsed dim cap."""
    if handle.spec.backend == "abelian":
        reg = enumerate_reps(
            handle.spec.quiver,
            handle.backend.field,
            cap["dims"],
            handle.spec.caps,
            registry=handle.backend.registry,
        )
    else:
        from .complexes import enumerate_complexes
        reg = enumerate_complexes(
            handle.backend.cat,
            max_degree_dim=cap["max_degree_dim"],
            max_total_dim=cap["max_total_dim"],
            caps=handle.spec.caps,
            registry=handle.backend.registry,
        )
    return list(range(len(reg)))


def basis_keys(handle: AlgebraHandle, cap: dict) -> list:
    """Element keys of the enumerated basis classes, in canonical order."""
    if handle.family == "strict":
        return grid_class_ids(handle, cap)
    stable_ids = handle.sdh.stable_sample(
        max_degree_dim=cap["max_degree_dim"], max_total_dim=cap["max_total_dim"]
    )
    if handle.family == "dh":
        return stable_ids
    zero = handle.sdh.torus.zero()
    return [(zero, m) for m in stable_ids]


# ---- table files ----


def compute_table(handle: AlgebraHandle, cap: dict) -> dict:
    keys = basis_keys(handle, cap)
    classes = []
    for i, key in enumerate(keys):
        row = handle.key_row(key)
        row["id"] = i
        classes.append(row)
    pairs = [(i, j) for i in range(len(keys)) for j in range(len(keys))]
    results = [
        handle.product(handle.one_term(keys[i]), handle.one_term(keys[j])) for i, j in pairs
    ]
    products = [
        {"left": i, "right": j, "terms": element_rows(handle, val)}
        for (i, j), val in zip(pairs, results)
    ]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "table",
        "spec_hash": handle.spec.spec_hash,
        "algebra": handle.name,
        "dim_cap": cap["raw"],
        "classes": classes,
        "products": products,
    }


# ---- reports ----


def make_report(suite: str, spec: CategorySpec, checks: int, failures: list,
                wall_time: float, details=None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "report",
        "spec_hash": spec.spec_hash,
        "suite": suite,
        "checks": int(checks),
        "status": "pass" if not failures else "fail",
        "failures": failures,
        "wall_time": wall_time,
    }
    if details is not None:
        doc["details"] = details
    return doc


def report_body(report: dict) -> dict:
    """The report minus timing, for byte-for-byte comparisons."""
    return {k: v for k, v in report.items() if k != "wall_time"}
