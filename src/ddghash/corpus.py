"""On-disk corpus of program feature files.

Layout: one <program_id>.features.json per program plus a derived
index.json. Feature files are the source of truth; the index (per-program
cardinalities and the hash -> programs inverted index) is rebuilt from
them on demand. Files are written with sorted keys and no whitespace
so identical inputs produce byte-identical files, and writes go through a
uniquely named temp file so a failed ingest never leaves partial output
and concurrent writers never share one. Reads accept any JSON whitespace
and decode members in file order only as far as a caller reads.
"""

import json
import os
import re
from itertools import chain
from pathlib import Path

from . import Record, __version__, collector_paused, lazy_names
from .errors import DdghashError, InvalidProgramId, UnknownProgram
from .features import (DIGEST_BITS, FeatureParams, ProgramFeatureSet,
                       compare, make_feature_set)

# the ingest pipeline loads when build_feature_file first runs, or when the
# names are first read from outside (where a tracer may wrap them); queries
# never load it
__getattr__, _bind_pipeline = lazy_names(globals(), {
    "parse_listing_with_report": "disasm", "segment": "blocks",
    "load_default_dictionary": "tfidf", "tf_vector": "tfidf"})

FORMAT_VERSION = 1

# InvalidProgramId.rule; at 200 characters, the longest temp name
# _write_atomic makes (with a 7-digit pid) is 236 bytes, under NAME_MAX
_PROGRAM_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,199}")

# a hash and a source digest, each as the writer spells it
_HASH = re.compile(f"[0-9a-f]{{{DIGEST_BITS // 4}}}")
_SOURCE_DIGEST = re.compile(r"sha256:[0-9a-f]{64}")

# top-level keys of a feature file, in the order sort_keys writes them
_MEMBERS = ("block_map", "diagnostics", "format_version", "hashes",
           "order_edges", "params", "program_id", "source_digest",
           "term_counts", "term_stems", "toolkit_version")


def _not_an_integer(text):
    raise ValueError(f"expected an integer, not {text}")


# every number of a feature file is an integer
_DECODER = json.JSONDecoder(parse_float=_not_an_integer,
                            parse_constant=_not_an_integer)
_WHITESPACE = json.decoder.WHITESPACE.match


class FeatureFile(Record):
    """A program's feature set and the members only its file keeps. One
    made by decode_feature_file holds a fill function in their place: on
    the first read of any of them, fill() returns a dict of them all,
    which the file keeps. The function is dropped once it has returned,
    and kept when it raises, so each later read raises again. Equality
    and repr read every field, so they fill the file. A field has no
    class-level default, which lookup would find before __getattr__.
    distinct_asm_texts, the number of asm texts build_feature_file
    parsed, is in memory only: never in a file, and not part of equality."""

    __slots__ = ("feature_set", "block_map", "order_edges", "term_counts",
                 "term_stems", "source_digest", "toolkit_version",
                 "distinct_asm_texts", "_fill")
    _uncompared = ("distinct_asm_texts",)

    def __init__(self, feature_set, block_map, order_edges, term_counts,
                 term_stems, source_digest, toolkit_version=__version__,
                 distinct_asm_texts=None):
        self.feature_set = feature_set
        self.block_map = block_map  # block index -> 32-hex hash, in block order
        self.order_edges = order_edges  # frozenset of (block index, block index)
        # a tuple of every block's row of per-stem counts, block i's at
        # index i; equal rows may share one tuple
        self.term_counts = term_counts
        self.term_stems = term_stems
        self.source_digest = source_digest
        self.toolkit_version = toolkit_version
        self.distinct_asm_texts = distinct_asm_texts

    def __getattr__(self, name):  # reached only for fields not yet set
        # a built file, or one already filled, has no _fill
        fill = None if name == "_fill" else getattr(self, "_fill", None)
        if fill is None or name not in self._fields:
            raise AttributeError(name)
        for field, value in fill().items():
            setattr(self, field, value)
        del self._fill
        return getattr(self, name)


def encode_feature_file(ff: FeatureFile) -> str:
    """The canonical text of a feature file: the document that maps each
    member of _MEMBERS to its JSON value (block ids as string keys,
    `hashes` and `order_edges` sorted), written by _dumps."""
    fs = ff.feature_set
    return _dumps({
        "block_map": {str(i): h for i, h in ff.block_map.items()},
        "diagnostics": fs.diagnostics,
        "format_version": FORMAT_VERSION,
        "hashes": sorted(fs.hashes),
        "order_edges": sorted(ff.order_edges),
        "params": fs.params.as_dict(),
        "program_id": fs.program_id,
        "source_digest": ff.source_digest,
        "term_counts": {str(i): c for i, c in enumerate(ff.term_counts)},
        "term_stems": ff.term_stems,
        "toolkit_version": ff.toolkit_version,
    })


def _dumps(doc):
    """The text of every JSON file in a corpus: sorted keys, no
    whitespace, one trailing newline. Keys must be strings, because the
    encoder sorts int keys as numbers ("2" before "10")."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _skip(text, pos, mark):
    """The offset after `mark`, which must come next in text after JSON
    whitespace, and after the whitespace that follows it."""
    pos = _WHITESPACE(text, pos).end()
    if not text.startswith(mark, pos):
        raise ValueError(f"expected {mark!r} at offset {pos}")
    return _WHITESPACE(text, pos + len(mark)).end()


def _walk(text, source, keys, pos):
    """Decode the members named `keys` from text, starting at offset pos,
    where the member before them ends (0 for the first member). They must
    be the next members of _MEMBERS: the document is one JSON object whose
    keys are exactly _MEMBERS, in that order, as sort_keys writes them, and
    any JSON whitespace may sit between its tokens. Returns the members'
    JSON values, each as json.loads would give it, and the offset where
    the last of them ends."""
    values = []
    for key in keys:
        try:
            pos = _skip(text, pos, "," if pos else "{")
            found, pos = _DECODER.raw_decode(text, pos)
            if found != key:
                raise ValueError("missing or out of order")
            value, pos = _DECODER.raw_decode(text, _skip(text, pos, ":"))
            if key == _MEMBERS[-1] and _skip(text, pos, "}") != len(text):
                raise ValueError("text after the document")
        except (ValueError, RecursionError) as exc:
            raise _error(source, key, exc) from None
        values.append(value)
    return values, pos


def _error(source, key, exc):
    return DdghashError(f"{source}: member {key!r}: {exc}")


def _build(source, key, build, *values):
    """build(*values), with an error in the values named as the member's."""
    try:
        return build(*values)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise _error(source, key, exc) from None


def _string(value):
    if type(value) is not str:
        raise TypeError("expected a string")
    return value


def _strings(value):
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise TypeError("expected a list of strings")
    return value


def _hashes(hashes):
    """The hashes as a frozenset. Each must be a hash as the writer spells
    it, and they must be in strictly increasing order, as the writer sorts
    the distinct hashes; one pass checks both."""
    if type(hashes) is not list:
        raise TypeError("expected a list of strings")
    previous = ""
    for h in hashes:
        if type(h) is not str or _HASH.fullmatch(h) is None or h <= previous:
            raise ValueError(f"expected strictly increasing hashes of "
                             f"{DIGEST_BITS // 4} lowercase hex digits")
        previous = h
    return frozenset(hashes)


def _source_digest(value):
    if type(value) is not str or _SOURCE_DIGEST.fullmatch(value) is None:
        raise ValueError("expected 'sha256:' and 64 lowercase hex digits")
    return value


def _term_stems(stems):
    if not _strings(stems):
        raise ValueError("no stems")
    return tuple(stems)


def _term_counts(counts, stems, blocks, maybe_bools):
    """The rows in a tuple in block order: the keys must be exactly the
    block ids 0..blocks-1, and each row one non-negative integer count per
    stem. Equal rows share one tuple, and each distinct row is checked
    once. true and false equal 1 and 0, so they share an integer row's
    tuple: every count's type is checked too, unless maybe_bools is false."""
    if len(counts) != blocks:
        raise ValueError(f"{len(counts)} rows for {blocks} blocks")
    try:
        raw = [counts[str(i)] for i in range(blocks)]
    except KeyError as exc:  # the count matched, so some key is no block id
        raise ValueError(f"no row for block {exc.args[0]}") from None
    distinct = {}  # row -> itself
    rows = tuple([distinct.setdefault(row, row) for row in map(tuple, raw)])
    bad = next((rows.index(row) for row in distinct if len(row) != len(stems)
                or not all(type(c) is int and c >= 0 for c in row)), None)
    if bad is None and maybe_bools and bool in set(map(type, chain.from_iterable(raw))):
        bad = next(i for i, row in enumerate(raw) if bool in map(type, row))
    if bad is not None:
        raise ValueError(f"block {bad} does not hold {len(stems)} "
                         f"non-negative integer counts, one per stem")
    return rows


def _block_map(entries, blocks, hashes):
    """Block index -> hash, in block order. Each key must be a block id
    below `blocks`, spelt as the encoder spells it, and the values must
    be the hashes: each value one of them, and each of them a value."""
    block_map = {}
    for key, digest in entries.items():
        i = int(key)
        if not 0 <= i < blocks or str(i) != key:
            raise ValueError(f"key {key!r} is not a block id below {blocks}")
        if type(digest) is not str or digest not in hashes:
            raise ValueError(f"block {key}: expected one of the hashes")
        block_map[i] = digest
    if len(set(block_map.values())) != len(hashes):
        raise ValueError("a hash is no block's")
    return dict(sorted(block_map.items()))


def _order_edges(pairs, block_map):
    """The pairs as a frozenset of tuples: each must be two integers, both
    keys of block_map."""
    for i, pair in enumerate(pairs):
        if not (type(pair) is list and len(pair) == 2 and all(
                type(end) is int and end in block_map for end in pair)):
            raise ValueError(f"entry {i} is not a pair of block_map keys")
    return frozenset(map(tuple, pairs))


def _diagnostics(diag):
    if type(diag.get("blocks")) is not int or diag["blocks"] < 0:
        raise ValueError("expected a non-negative integer 'blocks' count")
    return diag


def decode_feature_file(text: str, source="feature file") -> FeatureFile:
    """Decode a feature file; DdghashError names `source` and the member.

    The members are walked in file order through program_id, and the
    feature set, all that queries read, is built here. The file's six
    other members are built together on the first read of any: block_map
    and order_edges from the values walked here, and the members after
    program_id, which only tfstats reads, walked then, so a query never
    parses term_counts. Only that step holds the text and the values
    walked past, and they go once it has run, or with the file.
    """
    (block_map, diagnostics, version), pos = _walk(text, source, _MEMBERS[:3], 0)
    if type(version) is not int or version != FORMAT_VERSION:
        raise DdghashError(
            f"{source}: unsupported feature file format version {version!r}")
    (hashes, order_edges, params, program_id), pos = _walk(
        text, source, _MEMBERS[3:7], pos)
    fs = ProgramFeatureSet(
        _build(source, "program_id", _string, program_id),
        _build(source, "params", FeatureParams.from_dict, params),
        _build(source, "diagnostics", _diagnostics, diagnostics),
        _build(source, "hashes", _hashes, hashes),
    )

    def fill():
        (digest, counts, stems, toolkit), _ = _walk(text, source, _MEMBERS[7:], pos)
        stems = _build(source, "term_stems", _term_stems, stems)
        # term_counts is built, and its JSON let go, before block_map and
        # order_edges are, so the fill's peak holds one of the two, not
        # both. A JSON bool is the literal true or false: where neither is
        # in the text after program_id, no count is one.
        counts = _build(source, "term_counts", _term_counts, counts, stems,
                        fs.diagnostics["blocks"],
                        text.find("true", pos) >= 0 or text.find("false", pos) >= 0)
        hashed = _build(source, "block_map", _block_map, block_map,
                        fs.diagnostics["blocks"], fs.hashes)
        return dict(
            block_map=hashed, order_edges=_build(
                source, "order_edges", _order_edges, order_edges, hashed),
            term_counts=counts, term_stems=stems,
            source_digest=_build(source, "source_digest", _source_digest, digest),
            toolkit_version=_build(source, "toolkit_version", _string, toolkit))

    ff = FeatureFile.__new__(FeatureFile)  # the other fields wait for fill()
    ff.feature_set, ff.distinct_asm_texts, ff._fill = fs, None, fill
    return ff


def build_feature_file(text: str, program_id: str,
                       params: FeatureParams) -> FeatureFile:
    """Run the full pipeline on listing text: parse, segment, DDG, hash.

    Functions are segmented one at a time, and each block's count row is
    taken as make_feature_set takes the block. So besides the parsed
    listing only one function's blocks are alive at once, and equal count
    rows share one tuple. The text's digest is taken before the parse, so
    its UTF-8 copy is gone before the parse's records are made.

    The cyclic garbage collector is paused for the build: the build makes
    no reference cycles, so reference counting frees all it drops, while
    each full collection would rescan every record, block and count row
    still alive.
    """
    from hashlib import sha256

    _bind_pipeline()
    with collector_paused():
        source_digest = "sha256:" + sha256(text.encode("utf-8")).hexdigest()
        functions, report = parse_listing_with_report(text)
        dictionary = load_default_dictionary()
        term_counts = []  # block i's row at index i
        distinct = {}  # row -> itself

        def blocks():
            for fn in functions:
                for block in segment(fn, first_id=len(term_counts)):
                    row = tf_vector(block, dictionary)
                    term_counts.append(distinct.setdefault(row, row))
                    yield block

        fs, block_map, order_edges = make_feature_set(
            program_id, blocks(), params, report.as_dict())
        return FeatureFile(fs, block_map, order_edges, tuple(term_counts),
                           dictionary.stems, source_digest,
                           distinct_asm_texts=report.distinct_asm_texts)


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
        """The programs of the corpus. A directory, or a file whose name no
        id can address, such as an editor's lock file, is not one of them."""
        stems = (p.name[: -len(".features.json")]
                 for p in self.root.glob("*.features.json") if p.is_file())
        return sorted(pid for pid in stems if _PROGRAM_ID.fullmatch(pid))

    def load(self, program_id) -> FeatureFile:
        path = self._path(program_id)
        if not path.is_file():
            raise UnknownProgram(program_id)
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DdghashError(f"{path}: {exc}") from None
        ff = decode_feature_file(text, path)
        if ff.feature_set.program_id != program_id:
            raise DdghashError(f"{path}: program_id {ff.feature_set.program_id!r} "
                               f"does not match the file name")
        return ff

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
        """One report per unordered pair, keyed (a, b) with a before b in
        ids, in the order of ids. The report of (b, a) would be the same
        with its sides swapped, so it is not made. Loads each set once."""
        sets = {pid: self.load(pid).feature_set for pid in ids}
        return {(a, b): compare(sets[a], sets[b])
                for i, a in enumerate(ids) for b in ids[i + 1:]}

    def nearest(self, query_id, k):
        """The reports of the query against its top-k neighbors, each
        neighbor the report's b_id, by jaccard; ties break on how much of
        the neighbor sits inside the query, then on id."""
        query = self.load(query_id).feature_set
        ranked = [compare(query, self.load(pid).feature_set)
                  for pid in self.ids() if pid != query_id]
        ranked.sort(key=lambda r: (-r.jaccard, -r.containment_b_in_a, r.b_id))
        return ranked[:k]

    def find_containments(self, threshold):
        """Ordered pairs (inner, outer, containment) with
        |inner ∩ outer| / |inner| >= threshold > 0, sorted descending.
        Read off pairwise_matrix, so mixed settings raise IncompatibleCorpora."""
        rows = [row for (a, b), rep in self.pairwise_matrix(self.ids()).items()
                for row in ((a, b, rep.containment_a_in_b),
                            (b, a, rep.containment_b_in_a))
                if row[2] >= threshold]
        rows.sort(key=lambda r: (-r[2], r[0], r[1]))
        return rows

    def _stamps(self):
        """Each program's file's inode, size and mtime: a save replaces the
        file, so a program saved again has a new stamp."""
        stamps = {}
        for pid in self.ids():
            st = self._path(pid).stat()
            stamps[pid] = (st.st_ino, st.st_size, st.st_mtime_ns)
        return stamps

    def rebuild_index(self):
        """Derive index.json from the feature files (they stay the source
        of truth; the index is never read back for answers). The files are
        stamped before they are loaded and again once the index is written:
        a program that came, went or was saved again in between may be
        missing from the index, so it is derived again."""
        while True:
            stamps = self._stamps()
            programs = {}
            inverted = {}  # hash -> the ids that hold it, in id order as ids() is
            for pid in stamps:
                fs = self.load(pid).feature_set
                programs[pid] = {
                    "file": f"{pid}.features.json",
                    "hashes": len(fs.hashes),
                    # the writer counts every block, as term_counts has a
                    # row per block
                    "blocks": fs.diagnostics["blocks"],
                }
                for h in fs.hashes:
                    inverted.setdefault(h, []).append(pid)
            index = {
                "format_version": FORMAT_VERSION,
                "programs": programs,
                "inverted": inverted,
            }
            _write_atomic(self.root / "index.json", _dumps(index))
            if self._stamps() == stamps:
                return index

def _write_atomic(path: Path, payload: str):
    """Replace path with payload, as UTF-8, through a temp file named for
    this writer alone; leaves the file untouched when its bytes are unchanged."""
    data = payload.encode("utf-8")
    if path.is_file() and path.read_bytes() == data:
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
