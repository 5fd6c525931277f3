"""On-disk corpus of program feature files.

Layout: one <program_id>.features.json per program plus a derived
index.json. Feature files are the source of truth; the index (per-program
cardinalities and the hash -> programs inverted index) is rebuilt from
them on demand. Files are written with sorted keys and fixed formatting
so identical inputs produce byte-identical files, and writes go through a
uniquely named temp file so a failed ingest never leaves partial output
and concurrent writers never share one. Reads rely on that fixed
formatting to decode only the members a caller uses.
"""

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import __version__
from .blocks import build_cfg, segment
from .disasm import parse_listing_with_report
from .errors import DdghashError, InvalidProgramId, UnknownProgram
from .features import (FeatureParams, LazyFields, ProgramFeatureSet, compare,
                       extract_feature_set)
from .tfidf import load_default_dictionary, tf_vector

FORMAT_VERSION = 1

_PROGRAM_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

# top-level keys of a feature file, in the order sort_keys writes them
_MEMBERS = ("block_map", "diagnostics", "format_version", "hashes",
           "order_edges", "params", "program_id", "source_digest",
           "term_counts", "term_stems", "toolkit_version")

_DECODER = json.JSONDecoder()


@dataclass
class FeatureFile(LazyFields):
    feature_set: ProgramFeatureSet
    term_counts: dict  # block id -> tuple of per-stem counts (all blocks)
    term_stems: tuple
    source_digest: str
    toolkit_version: str = __version__
    # asm texts parsed by build_feature_file; in memory only, never in a file
    distinct_asm_texts: int = field(default=None, compare=False)


def encode_feature_file(ff: FeatureFile) -> str:
    """The canonical text of a feature file: json.dumps(doc,
    sort_keys=True, indent=2) + "\n", where doc maps each member of
    _MEMBERS to its JSON value (block ids as string keys, `hashes` and
    `order_edges` sorted).

    The bulk members (block_map, hashes, order_edges, term_counts) are
    rendered here in that exact layout rather than through the
    pure-Python indenting encoder, and each distinct term_counts row is
    rendered once; the small members go through json.dumps.
    """
    fs = ff.feature_set
    rows = {}  # count row -> its text; most rows repeat

    def row(counts):
        counts = tuple(counts)
        text = rows.get(counts)
        if text is None:
            text = rows[counts] = _container("[]", [str(c) for c in counts], 2)
        return text

    block_map = sorted((str(i), h) for i, h in fs.block_map.items())
    term_counts = sorted((str(i), c) for i, c in ff.term_counts.items())
    members = {
        "block_map": _container(
            "{}", [f'"{i}": {_quote(h)}' for i, h in block_map], 1),
        "diagnostics": _small(fs.diagnostics),
        "format_version": _small(FORMAT_VERSION),
        "hashes": _container("[]", [_quote(h) for h in sorted(fs.hashes)], 1),
        "order_edges": _container(
            "[]", [_container("[]", [str(a), str(b)], 2)
                   for a, b in sorted(fs.order_edges)], 1),
        "params": _small(fs.params.as_dict()),
        "program_id": _small(fs.program_id),
        "source_digest": _small(ff.source_digest),
        "term_counts": _container(
            "{}", [f'"{i}": {row(c)}' for i, c in term_counts], 1),
        "term_stems": _small(list(ff.term_stems)),
        "toolkit_version": _small(ff.toolkit_version),
    }
    return ("{\n" + ",\n".join(f'  "{key}": {members[key]}' for key in _MEMBERS)
            + "\n}\n")


def _container(brackets, items, depth):
    """A JSON array or object of rendered items (object items already
    "key": value), laid out as json.dumps(indent=2) lays it out when
    nested `depth` levels deep."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + "  " * depth + brackets[1])


def _small(value):
    """A top-level member's value through json.dumps, indented one level
    (json.dumps escapes newlines inside strings, so every raw newline
    starts a line of the layout)."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


class _Members:
    """The top-level members of one feature file, located by its canonical
    layout and decoded one at a time.

    encode_feature_file writes json.dumps(sort_keys=True, indent=2), which
    starts every top-level key on a line of its own at indent 2 and never
    puts a raw newline inside a string; nested lines are indented further.
    So each member starts at a '\n  "<key>": ' mark and ends at the ','
    before the next mark, and the keys are exactly _MEMBERS, in that order.
    The marks are found forward from the start up to term_counts and
    backward from the end after it, so term_counts, most of the file, is
    not scanned until it is decoded.
    """

    def __init__(self, text, source):
        self.text = text
        self.source = source
        if not (text.startswith('{\n  "') and text.endswith("\n}\n")):
            raise self.error("not a canonical feature file")
        split = _MEMBERS.index("term_counts") + 1
        marks = []
        line = 0
        for _ in _MEMBERS[:split]:
            line = text.find('\n  "', line + 1)
            marks.append(line)
        line = len(text)
        for _ in _MEMBERS[split:]:
            line = text.rfind('\n  "', 0, line)
            marks.insert(split, line)
        starts = []
        for key, mark in zip(_MEMBERS, marks):
            head = f'\n  "{key}": '
            if mark == -1 or not text.startswith(head, mark):
                raise self.error(f"member {key!r} missing or out of order")
            starts.append(mark + len(head))
        ends = [mark - 1 for mark in marks[1:]]
        for key, end in zip(_MEMBERS, ends):
            if text[end] != ",":
                raise self.error(f"no ',' after member {key!r}")
        ends.append(len(text) - 3)
        self.spans = dict(zip(_MEMBERS, zip(starts, ends)))

    def error(self, message):
        return DdghashError(f"{self.source}: {message}")

    def read(self, key, build=None):
        """Decode one member exactly as json.loads would, then build it."""
        start, end = self.spans[key]
        try:
            value, stop = _DECODER.raw_decode(self.text, start)
            if stop != end:
                raise ValueError(f"unexpected text at offset {stop}")
            return value if build is None else build(value)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise self.error(f"member {key!r}: {exc}") from None

    def later(self, key, build=None):
        return lambda: self.read(key, build)


def _hashes(hashes):
    if not (isinstance(hashes, list) and all(isinstance(h, str) for h in hashes)):
        raise TypeError("expected a list of strings")
    return frozenset(hashes)


def _diagnostics(diag):
    if not isinstance(diag.get("blocks"), int):
        raise TypeError("expected an integer 'blocks' count")
    return diag


def decode_feature_file(text: str, source="feature file") -> FeatureFile:
    """Decode a canonical feature file; DdghashError names `source`.

    format_version, params, program_id and hashes, which every query
    reads, are decoded here. The other members stay text until a caller
    first reads them, so a query never parses term_counts.
    """
    members = _Members(text, source)
    version = members.read("format_version")
    if version != FORMAT_VERSION:
        raise members.error(f"unsupported feature file format version {version!r}")
    later = members.later
    fs = ProgramFeatureSet.deferred(
        {
            "block_map": later("block_map", lambda m: dict(
                sorted((int(i), h) for i, h in m.items()))),
            "order_edges": later("order_edges", lambda edges: frozenset(
                (a, b) for a, b in edges)),
            "diagnostics": later("diagnostics", _diagnostics),
        },
        program_id=members.read("program_id"),
        params=members.read("params", FeatureParams.from_dict),
        hashes=members.read("hashes", _hashes),
    )
    return FeatureFile.deferred(
        {
            "term_counts": later("term_counts", lambda counts: {
                int(i): tuple(c) for i, c in counts.items()}),
            "term_stems": later("term_stems", tuple),
            "source_digest": later("source_digest"),
            "toolkit_version": later("toolkit_version"),
        },
        feature_set=fs,
    )


def build_feature_file(text: str, program_id: str,
                       params: FeatureParams) -> FeatureFile:
    """Run the full pipeline on listing text: parse, segment, DDG, hash."""
    functions, report = parse_listing_with_report(text)
    dictionary = load_default_dictionary()
    pairs = []
    term_counts = {}
    next_id = 0
    for fn in functions:
        blocks = segment(fn, first_id=next_id)
        next_id += len(blocks)
        cfg = build_cfg(blocks)
        pairs.append((blocks, cfg))
        for b in blocks:
            term_counts[b.id] = tf_vector(b, dictionary).counts
    diagnostics = report.as_dict()
    diagnostics["indirect_transfers"] = sum(c.indirect_transfers for _, c in pairs)
    diagnostics["external_targets"] = sum(len(c.external_targets) for _, c in pairs)
    diagnostics["dangling_targets"] = sum(len(c.dangling_targets) for _, c in pairs)
    fs = extract_feature_set(program_id, pairs, params, diagnostics)
    return FeatureFile(
        feature_set=fs,
        term_counts=term_counts,
        term_stems=dictionary.stems,
        source_digest="sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest(),
        distinct_asm_texts=report.distinct_asm_texts,
    )


def check_program_id(program_id):
    """Ids name files in the corpus directory, so they may not hold a path."""
    if not _PROGRAM_ID.fullmatch(program_id):
        raise InvalidProgramId(program_id)


class Corpus:
    def __init__(self, root):
        self.root = Path(root)

    def _path(self, program_id) -> Path:
        check_program_id(program_id)
        return self.root / f"{program_id}.features.json"

    def ids(self):
        return sorted(p.name[: -len(".features.json")]
                      for p in self.root.glob("*.features.json"))

    def load(self, program_id) -> FeatureFile:
        path = self._path(program_id)
        if not path.is_file():
            raise UnknownProgram(program_id)
        try:
            text = path.read_text()
        except UnicodeDecodeError as exc:
            raise DdghashError(f"{path}: {exc}") from None
        return decode_feature_file(text, path)

    def save(self, ff: FeatureFile) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(ff.feature_set.program_id)
        _write_atomic(path, encode_feature_file(ff))
        return path

    def ingest(self, text, program_id, params: FeatureParams) -> FeatureFile:
        """Build the feature file of one listing's text and save it."""
        ff = build_feature_file(text, program_id, params)
        self.save(ff)
        return ff

    def compare(self, a_id, b_id):
        return compare(self.load(a_id).feature_set, self.load(b_id).feature_set)

    def pairwise_matrix(self, ids):
        """All pairwise reports keyed (a, b) for a != b; loads each set once."""
        sets = {pid: self.load(pid).feature_set for pid in ids}
        out = {}
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                rep = compare(sets[a], sets[b])
                out[(a, b)] = rep
                out[(b, a)] = rep.swapped()
        return out

    def nearest(self, query_id, k):
        """Top-k neighbors by jaccard; ties break on how much of the
        candidate sits inside the query, then on id."""
        query = self.load(query_id).feature_set
        ranked = []
        for pid in self.ids():
            if pid == query_id:
                continue
            rep = compare(query, self.load(pid).feature_set)
            ranked.append((pid, rep))
        ranked.sort(key=lambda x: (-x[1].jaccard, -x[1].containment_b_in_a, x[0]))
        return ranked[:k]

    def find_containments(self, threshold):
        """Ordered pairs (inner, outer, containment) with
        |inner ∩ outer| / |inner| >= threshold > 0, sorted descending.
        Read off pairwise_matrix, so mixed settings raise IncompatibleCorpora."""
        rows = [(inner, outer, rep.containment_a_in_b)
                for (inner, outer), rep in self.pairwise_matrix(self.ids()).items()
                if rep.containment_a_in_b >= threshold]
        rows.sort(key=lambda r: (-r[2], r[0], r[1]))
        return rows

    def rebuild_index(self):
        """Derive index.json from the feature files (they stay the source
        of truth; the index is never read back for answers)."""
        programs = {}
        inverted = {}
        for pid in self.ids():
            fs = self.load(pid).feature_set
            programs[pid] = {
                "file": f"{pid}.features.json",
                "hashes": len(fs.hashes),
                # the writer counts every block, as term_counts has a row per block
                "blocks": fs.diagnostics["blocks"],
            }
            for h in fs.hashes:
                inverted.setdefault(h, []).append(pid)
        index = {
            "format_version": FORMAT_VERSION,
            "programs": programs,
            "inverted": {h: sorted(ps) for h, ps in inverted.items()},
        }
        _write_atomic(self.root / "index.json",
                      json.dumps(index, sort_keys=True, indent=2) + "\n")
        return index


def _write_atomic(path: Path, payload: str):
    """Replace path with payload through a temp file named for this writer
    alone; leaves the file untouched when its bytes are unchanged."""
    if path.is_file() and path.read_text() == payload:
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
