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
Exit codes: 0 success, 1 operational error or a reader that closed
standard output early, 2 usage error.
"""

import argparse
import gc
import io
import json
import math
import os
import sys
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

from . import __version__, collector_paused, lazy_names
from .corpus import Corpus, check_program_id
from .errors import DdghashError, InvalidProgramId
from .features import (FeatureParams, InstructionFamilyPolicy, LabelMode,
                       decimal3, five_number_summary, ratio)

# tfstats's term statistics load when it first runs, or when the names are
# first read from outside (where a tracer may wrap them)
__getattr__, _bind_tfidf = lazy_names(globals(), {
    "distribution_from_vectors": "tfidf", "corpus_idf": "tfidf.idf"})


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def threshold(text):
    """The text's exact value as a Decimal, in (0, 1]: nan and inf are out."""
    # an exponent too large for a Decimal reads as NaN, which is out too
    value = float(text)
    if math.isfinite(value):
        value = Decimal(text, Context(traps=[]))
    if value != value or not 0 < value <= 1:
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


def _emit_csv(rows, header, out=None):
    """Write CSV to `out`, standard output by default."""
    import csv  # loaded only by the commands that write CSV

    writer = csv.writer(sys.stdout if out is None else out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_json(doc):
    if isinstance(doc, list):
        doc = {"results": doc}
    print(json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2))


# the fields of the ingest report, in the order json and csv print them;
# those cmd_ingest does not name are the feature set's diagnostics counts
INGEST_FIELDS = ("program_id", "file", "functions", "instructions",
                 "skipped_lines", "malformed_lines", "blocks", "empty_ddgs",
                 "hashed_blocks", "distinct_hashes", "duplicate_hashes",
                 "distinct_asm_texts", "distinct_graphs")


def cmd_ingest(args, corpus):
    params = FeatureParams(label_mode=LabelMode(args.mode),
                           policy=InstructionFamilyPolicy(args.policy),
                           wl_iterations=args.iters)
    if args.id and len(args.paths) > 1:
        args.usage_error("--id requires a single input file")
    if "-" in args.paths and not args.id:
        args.usage_error("reading from stdin requires --id")
    program_ids = [Path(path).stem if args.id is None else args.id
                   for path in args.paths]
    if len(set(program_ids)) < len(program_ids):
        args.usage_error("an id may appear only once")
    for program_id in program_ids:
        try:
            check_program_id(program_id)
        except InvalidProgramId as exc:
            args.usage_error(str(exc))
    failures = 0
    results = []
    for path, program_id in zip(args.paths, program_ids):
        try:
            ff = corpus.ingest(_read_listing(path), program_id, params)
        except (OSError, DdghashError) as exc:
            failures += 1
            print(f"{path}: {exc}", file=sys.stderr)
            if not args.keep_going:
                break  # the listings saved are still reported and indexed
            continue
        fs = ff.feature_set
        own = {
            "program_id": program_id,
            "file": str(corpus._path(program_id)),
            "hashed_blocks": fs.diagnostics["blocks"] - fs.diagnostics["empty_ddgs"],
            "distinct_hashes": len(fs.hashes),
            "distinct_asm_texts": ff.distinct_asm_texts,
            "distinct_graphs": fs.distinct_graphs,
        }
        results.append({k: own[k] if k in own else fs.diagnostics.get(k)
                        for k in INGEST_FIELDS})
    # the report comes first: a damaged file elsewhere in the corpus fails
    # the index, not the listings saved
    if args.format == "json":
        _emit_json(results)
    elif args.format == "csv":
        _emit_csv([r.values() for r in results], INGEST_FIELDS)
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
    if results:
        corpus.rebuild_index()
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


def cmd_compare(args, corpus):
    _print_report(corpus.compare(args.id_a, args.id_b), args.format)
    return 0


def cmd_matrix(args, corpus):
    if args.all and args.ids:
        args.usage_error("--all takes no ids")
    if args.pairs_out and not args.stats:
        args.usage_error("--pairs-out requires --stats")
    ids = corpus.ids() if args.all else args.ids
    if len(set(ids)) < len(ids):
        args.usage_error("an id may appear only once")
    if len(ids) < 2:
        print("matrix needs at least two programs", file=sys.stderr)
        return 1
    reports = corpus.pairwise_matrix(ids)

    def jac(a, b):  # a grid cell, read off the pair's one report
        if a == b:
            return Fraction(1)
        return (reports.get((a, b)) or reports[(b, a)]).jaccard

    if args.stats:
        jaccards = [rep.jaccard for rep in reports.values()]
        summary = five_number_summary(jaccards)
        shown = {k: v if k == "count" else decimal3(v) for k, v in summary.items()}
        pair_rows = [[a, b, decimal3(j)] for (a, b), j in zip(reports, jaccards)]
        if args.pairs_out:
            with open(args.pairs_out, "w", newline="") as fh:
                _emit_csv(pair_rows, ["id_a", "id_b", "jaccard"], fh)
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
            "reports": [rep.as_dict() for rep in reports.values()],
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


def cmd_nearest(args, corpus):
    ranked = corpus.nearest(args.id, args.k)
    if args.format == "json":
        _emit_json([r.as_dict() for r in ranked])
    elif args.format == "csv":
        _emit_csv(
            [[r.b_id, decimal3(r.jaccard), decimal3(r.containment_b_in_a)]
             for r in ranked],
            ["program_id", "jaccard", "containment_in_query"],
        )
    else:
        for rank, r in enumerate(ranked, 1):
            print(f"{rank}. {r.b_id}  jaccard={decimal3(r.jaccard)}  "
                  f"containment_in_query={decimal3(r.containment_b_in_a)}")
    return 0


def cmd_contain(args, corpus):
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


def cmd_tfstats(args, corpus):
    _bind_tfidf()
    ff = corpus.load(args.id)
    if args.vectors:
        weights = corpus_idf(ff.term_counts)
        rows = [[f"{c * w:.6g}" for c, w in zip(row, weights)]
                for row in ff.term_counts]
        if args.format == "json":
            _emit_json({"stems": list(ff.term_stems), "vectors": rows})
        else:
            _emit_csv(rows, list(ff.term_stems))
        return 0
    totals = distribution_from_vectors(ff.term_counts)
    instructions = sum(totals)
    # (stem, count) pairs, descending by count then stem
    pairs = sorted(zip(ff.term_stems, totals), key=lambda kv: (-kv[1], kv[0]))
    modal_stem, modal_count = pairs[0]
    modal_share = Fraction(modal_count, instructions) if instructions else Fraction(0)
    if args.format == "json":
        _emit_json({
            "program_id": args.id,
            "instructions": instructions,
            "modal_stem": modal_stem,
            "modal_share": decimal3(modal_share),
            "totals": [[s, c] for s, c in pairs],
        })
    elif args.format == "csv":
        _emit_csv(pairs, ["stem", "count"])
    else:
        print(f"{args.id}: {instructions} instructions, "
              f"modal stem {modal_stem} (share {decimal3(modal_share)})")
        for s, c in pairs:
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
    p.add_argument("--id", help="program id (single input only; defaults to "
                   f"the file stem): {InvalidProgramId.rule}")
    defaults = FeatureParams()
    p.add_argument("--mode", choices=[m.value for m in LabelMode],
                   default=defaults.label_mode.value)
    p.add_argument("--policy", choices=[p.value for p in InstructionFamilyPolicy],
                   default=defaults.policy.value)
    p.add_argument("--iters", type=positive_int, default=defaults.wl_iterations)
    p.add_argument("--keep-going", action="store_true",
                   help="continue past per-file failures")
    # checks across arguments exit through the same usage error as argparse's
    p.set_defaults(func=cmd_ingest, usage_error=p.error)

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
    p.set_defaults(func=cmd_matrix, usage_error=p.error)

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
    """Run one command; return its exit code. A usage error, --help and
    --version raise SystemExit, as argparse does. The cyclic collector is
    paused for the whole command and restored as it was found."""
    with collector_paused():
        parser = build_parser()
        args = parser.parse_args(argv)
        corpus = Corpus(args.corpus or os.environ.get("DDGHASH_CORPUS") or "corpus")
        try:
            return args.func(args, corpus)
        except BrokenPipeError:
            raise  # the reader of our output has gone: see run()
        except (DdghashError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def run():
    """The ddghash command, for `python -m ddghash` and the console script:
    main() on the process's arguments, then the process ends once stdout
    and stderr are flushed, with main's code or a SystemExit's.

    The process ends at once through _exit, which skips the interpreter's
    teardown and so any atexit handler: every file a command writes is
    closed before main returns. When the reader of stdout has gone, the
    command says nothing more and exits 1. Any other exception ends the
    process as usual, with a traceback.

    The collector is off from the start and stays off: main would find it
    on and restore it, and a SystemExit from argparse then gains a
    traceback entry here, an allocation that starts a collection the
    ending process has no use for.
    """
    gc.disable()
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered goes nowhere, so no later flush raises
        # (the SIGPIPE note of the signal module's docs)
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)
