"""Command-line interface.

    ddghash ingest  <listing>... [--id NAME] [--mode M] [--policy P] [--iters N]
    ddghash compare <id_a> <id_b>
    ddghash matrix  (--all | <id>...) [--stats] [--pairs-out FILE]
    ddghash nearest <id> [-k N]
    ddghash contain [--threshold X]
    ddghash tfstats <id> [--vectors]

The corpus directory comes from --corpus, the DDGHASH_CORPUS environment
variable, or ./corpus, in that order. Output is human-readable text by
default; --format json/csv expose the same report fields for machines.
Exit codes: 0 success, 1 operational error, 2 usage error.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .corpus import Corpus, check_program_id
from .ddg import InstructionFamilyPolicy, LabelMode
from .errors import DdghashError, InvalidProgramId
from .features import FeatureParams, decimal3, five_number_summary, ratio
from .tfidf import distribution_from_vectors, idf as corpus_idf
from .tfidf import TermFrequencyVector, load_default_dictionary
from .wlhash import WLParams


def _corpus_dir(args):
    return args.corpus or os.environ.get("DDGHASH_CORPUS") or "corpus"


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def threshold(text):
    """An exact fraction in (0, 1]; nan and inf are out of range."""
    value = float(text)
    if math.isfinite(value):
        value = Fraction(value).limit_denominator(10**9)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError("--threshold must be in (0, 1]")
    return value


def _read_listing(path):
    """The text of one listing file, or of stdin for "-": strict UTF-8
    whatever the locale, with newlines translated as text mode does
    (source_digest hashes that text)."""
    try:
        if path != "-":
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        if sys.stdin is None:  # started with stdin closed
            raise DdghashError("stdin is closed")
        if isinstance(sys.stdin, io.TextIOWrapper):  # over bytes; io.StringIO is text
            sys.stdin.reconfigure(encoding="utf-8", errors="strict", newline=None)
        return sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise DdghashError(f"not UTF-8 text (byte {exc.start}: {exc.reason})") from None


SCHEMA_VERSION = 1


def _emit_csv(rows, header):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    print(out.getvalue(), end="")


def _emit_json(doc):
    if isinstance(doc, list):
        doc = {"results": doc}
    print(json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2))


def cmd_ingest(args):
    corpus = Corpus(_corpus_dir(args))
    params = FeatureParams(label_mode=LabelMode(args.mode),
                           policy=InstructionFamilyPolicy(args.policy),
                           wl=WLParams(iterations=args.iters))
    if args.id and len(args.paths) > 1:
        print("--id requires a single input file", file=sys.stderr)
        return 2
    if "-" in args.paths and not args.id:
        print("reading from stdin requires --id", file=sys.stderr)
        return 2
    program_ids = [Path(path).stem if args.id is None else args.id
                   for path in args.paths]
    try:
        for program_id in program_ids:
            check_program_id(program_id)
    except InvalidProgramId as exc:
        print(exc, file=sys.stderr)
        return 2
    failures = 0
    results = []
    for path, program_id in zip(args.paths, program_ids):
        try:
            ff = corpus.ingest(_read_listing(path), program_id, params)
        except (OSError, DdghashError) as exc:
            failures += 1
            print(f"{path}: {exc}", file=sys.stderr)
            if not args.keep_going:
                return 1
            continue
        fs = ff.feature_set
        diag = fs.diagnostics
        results.append({
            "program_id": program_id,
            "file": str(corpus._path(program_id)),
            "functions": diag.get("functions"),
            "instructions": diag.get("instructions"),
            "skipped_lines": diag.get("skipped_lines"),
            "malformed_lines": diag.get("malformed_lines"),
            "blocks": diag.get("blocks"),
            "empty_ddgs": diag.get("empty_ddgs"),
            "hashed_blocks": len(fs.block_map),
            "distinct_hashes": len(fs.hashes),
            "duplicate_hashes": diag.get("duplicate_hashes"),
            "distinct_asm_texts": ff.distinct_asm_texts,
            "distinct_graphs": fs.distinct_graphs,
        })
    if results:
        corpus.rebuild_index()
    if args.format == "json":
        _emit_json(results)
    else:
        for r in results:
            extra = ""
            if r["skipped_lines"] or r["malformed_lines"]:
                extra = (f" [{r['skipped_lines']} lines skipped, "
                         f"{r['malformed_lines']} malformed]")
            print(f"{r['program_id']}: {r['functions']} functions, "
                  f"{r['instructions']} instructions, {r['blocks']} blocks, "
                  f"{r['hashed_blocks']} hashed ({r['empty_ddgs']} empty DDGs), "
                  f"{r['distinct_hashes']} distinct hashes -> {r['file']}"
                  f"{extra}")
    return 1 if failures else 0


def _print_report(rep, fmt):
    d = rep.as_dict()
    if fmt == "json":
        _emit_json(d)
    elif fmt == "csv":
        _emit_csv([list(d.values())], list(d.keys()))
    else:
        print(f"programs:            {rep.a_id}  {rep.b_id}")
        print(f"hashes:              {rep.size_a}  {rep.size_b}")
        print(f"intersection:        {rep.intersection}")
        print(f"union:               {rep.union}")
        print(f"{rep.a_id} \\ {rep.b_id}:".ljust(21) + f"{rep.diff_a_minus_b}")
        print(f"{rep.b_id} \\ {rep.a_id}:".ljust(21) + f"{rep.diff_b_minus_a}")
        print(f"jaccard:             {ratio(rep.jaccard)} = {decimal3(rep.jaccard)}")
        print(f"containment {rep.a_id} in {rep.b_id}: "
              f"{ratio(rep.containment_a_in_b)} = {decimal3(rep.containment_a_in_b)}")
        print(f"containment {rep.b_id} in {rep.a_id}: "
              f"{ratio(rep.containment_b_in_a)} = {decimal3(rep.containment_b_in_a)}")


def cmd_compare(args):
    corpus = Corpus(_corpus_dir(args))
    _print_report(corpus.compare(args.id_a, args.id_b), args.format)
    return 0


def cmd_matrix(args):
    corpus = Corpus(_corpus_dir(args))
    ids = corpus.ids() if args.all else args.ids
    if len(ids) < 2:
        print("matrix needs at least two programs", file=sys.stderr)
        return 1
    reports = corpus.pairwise_matrix(ids)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]

    def jac(a, b):
        return Fraction(1) if a == b else reports[(a, b)].jaccard

    if args.stats:
        summary = five_number_summary([reports[pair].jaccard for pair in pairs])
        shown = {k: v if k == "count" else decimal3(v) for k, v in summary.items()}
        pair_rows = [[a, b, decimal3(reports[(a, b)].jaccard)] for a, b in pairs]
        if args.pairs_out:
            with open(args.pairs_out, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["id_a", "id_b", "jaccard"])
                writer.writerows(pair_rows)
        if args.format == "json":
            _emit_json(dict(shown, pairs=[
                {"id_a": a, "id_b": b, "jaccard": j} for a, b, j in pair_rows]))
        elif args.format == "csv":
            _emit_csv(shown.items(), ["statistic", "value"])
        else:
            print(f"pairs:  {shown['count']}")
            for k in ("min", "q1", "median", "q3", "max"):
                print(f"{k}:".ljust(8) + shown[k])
            if not args.pairs_out:
                for a, b, j in pair_rows:
                    print(f"{a},{b},{j}")
        return 0

    if args.format == "json":
        doc = {
            "ids": ids,
            "jaccard_matrix": [[decimal3(jac(a, b)) for b in ids] for a in ids],
            "reports": [reports[pair].as_dict() for pair in pairs],
        }
        _emit_json(doc)
    elif args.format == "csv":
        rows = [[a] + [decimal3(jac(a, b)) for b in ids] for a in ids]
        _emit_csv(rows, ["id"] + ids)
    else:
        width = max(len(i) for i in ids) + 2
        print(" " * width + "".join(i.ljust(width) for i in ids))
        for a in ids:
            print(a.ljust(width)
                  + "".join(decimal3(jac(a, b)).ljust(width) for b in ids))
    return 0


def cmd_nearest(args):
    corpus = Corpus(_corpus_dir(args))
    ranked = corpus.nearest(args.id, args.k)
    if args.format == "json":
        _emit_json([r.as_dict() for _, r in ranked])
    elif args.format == "csv":
        _emit_csv(
            [[pid, decimal3(r.jaccard), decimal3(r.containment_b_in_a)]
             for pid, r in ranked],
            ["program_id", "jaccard", "containment_in_query"],
        )
    else:
        for rank, (pid, r) in enumerate(ranked, 1):
            print(f"{rank}. {pid}  jaccard={decimal3(r.jaccard)}  "
                  f"containment_in_query={decimal3(r.containment_b_in_a)}")
    return 0


def cmd_contain(args):
    corpus = Corpus(_corpus_dir(args))
    rows = corpus.find_containments(args.threshold)
    if args.format == "json":
        _emit_json([{"inner": i, "outer": o, "containment": decimal3(c)}
                    for i, o, c in rows])
    elif args.format == "csv":
        _emit_csv([[i, o, decimal3(c)] for i, o, c in rows],
                  ["inner", "outer", "containment"])
    else:
        for i, o, c in rows:
            print(f"{i} contained in {o}: {decimal3(c)}")
        if not rows:
            print("no containments at this threshold")
    return 0


def cmd_tfstats(args):
    corpus = Corpus(_corpus_dir(args))
    ff = corpus.load(args.id)
    dictionary = load_default_dictionary()
    vectors = [
        TermFrequencyVector(block_id=i, counts=tuple(c), total=sum(c))
        for i, c in sorted(ff.term_counts.items())
    ]
    dist = distribution_from_vectors(vectors, dictionary)
    if args.vectors:
        weights = corpus_idf(vectors).idf
        rows = [[f"{c * w:.6g}" for c, w in zip(v.counts, weights)]
                for v in vectors]
        if args.format == "json":
            _emit_json({"stems": list(dictionary.stems), "vectors": rows})
        else:
            _emit_csv(rows, list(dictionary.stems))
        return 0
    if args.format == "json":
        _emit_json({
            "program_id": args.id,
            "instructions": dist.instruction_count,
            "modal_stem": dist.modal_stem,
            "modal_share": decimal3(dist.modal_share),
            "totals": [[s, c] for s, c in dist.totals],
        })
    elif args.format == "csv":
        _emit_csv([[s, c] for s, c in dist.totals], ["stem", "count"])
    else:
        print(f"{args.id}: {dist.instruction_count} instructions, "
              f"modal stem {dist.modal_stem} "
              f"(share {decimal3(dist.modal_share)})")
        for s, c in dist.totals:
            if c:
                print(f"  {s.ljust(8)} {c}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddghash",
        description="Data-dependency-graph hash sets for program comparison",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--corpus", "-C", help="corpus directory "
                        "(default: $DDGHASH_CORPUS or ./corpus)")
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="extract features from listings")
    p.add_argument("paths", nargs="+", metavar="listing")
    p.add_argument("--id", help="program id (single input only; "
                   "defaults to the file stem); a letter or digit, then "
                   "letters, digits, '.', '_' or '-'")
    p.add_argument("--mode", choices=[m.value for m in LabelMode],
                   default=LabelMode.OPERAND_CLASS.value)
    p.add_argument("--policy", choices=[p.value for p in InstructionFamilyPolicy],
                   default=InstructionFamilyPolicy.MOV_ONLY.value)
    p.add_argument("--iters", type=positive_int, default=3)
    p.add_argument("--keep-going", action="store_true",
                   help="continue past per-file failures")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("compare", help="similarity report for two programs")
    p.add_argument("id_a")
    p.add_argument("id_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("matrix", help="pairwise jaccard matrix")
    p.add_argument("ids", nargs="*", metavar="id")
    p.add_argument("--all", action="store_true", help="use every program")
    p.add_argument("--stats", action="store_true",
                   help="summary statistics over the selected pairs")
    p.add_argument("--pairs-out", metavar="FILE",
                   help="write per-pair jaccard CSV here (for box plots)")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("nearest", help="closest programs by jaccard")
    p.add_argument("id")
    p.add_argument("-k", type=positive_int, default=5)
    p.set_defaults(func=cmd_nearest)

    p = sub.add_parser("contain", help="subset discovery across the corpus")
    p.add_argument("--threshold", type=threshold, default=Fraction(1))
    p.set_defaults(func=cmd_contain)

    p = sub.add_parser("tfstats", help="stemmed-opcode term statistics")
    p.add_argument("id")
    p.add_argument("--vectors", action="store_true",
                   help="emit per-block tf-idf vectors")
    p.set_defaults(func=cmd_tfstats)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DdghashError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
