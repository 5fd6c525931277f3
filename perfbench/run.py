#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ddghash command line.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout: the benchmark runs the package
under src/ with PYTHONPATH and needs objdump and the binaries named in
the listing tables below. Each timed operation is one ddghash command in
a fresh interpreter, started by this single process one at a time
(closed loop, one client). Every run does whole rounds of the same
commands until they and the calibration runs have taken --seconds, and reports medians
over the rounds. Outputs are checked outside the timed commands; the
last line of standard output is one JSON object with the metrics.

The host's speed drifts by tens of percent over minutes, and every
command moves with it. So a fixed pure-Python job, perfbench/calibrate.py,
runs between the commands, and every command's wall time is scaled to
the speed at which that job takes CALIBRATION_REF_S: it is multiplied by
CALIBRATION_REF_S / (the median of the calibration times nearest to it).
The unscaled wall-time figures are printed in the log lines.

--trace 1 starts each command through perfbench/traced.py, which records
spans around the layers, and reports per-layer metrics instead.
--smoke runs every workload, traced and not, on the checked-in
tests/data fixtures in about half a minute.

See perfbench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

DEFAULT = {"label_mode": "operand_class", "policy": "mov_only", "wl_iterations": 3}
LITERAL = {"label_mode": "literal", "policy": "all_data_operands", "wl_iterations": 3}

# (program id, binary or fixture, syntax), in ingest order. Families that
# share code: base64/base32, sha1sum/sha256sum, ls/dir; sha1sum appears in
# both syntaxes.
INGEST_SET = [
    ("base64_att", "/usr/bin/base64", "att"),
    ("sha1sum_att", "/usr/bin/sha1sum", "att"),
    ("ls_att", "/usr/bin/ls", "att"),
    ("base32_intel", "/usr/bin/base32", "intel"),
    ("sha256sum_att", "/usr/bin/sha256sum", "att"),
    ("dir_intel", "/usr/bin/dir", "intel"),
    ("sha1sum_intel", "/usr/bin/sha1sum", "intel"),
]
QUERY_SET = INGEST_SET + [("sha512sum_intel", "/usr/bin/sha512sum", "intel")]
# the query rotation compares each family pair once, so every program is in one
QUERY_PAIRS = [("sha1sum_att", "sha1sum_intel"), ("ls_att", "dir_intel"),
               ("base64_att", "base32_intel"), ("sha256sum_att", "sha512sum_intel")]
# re-ingested into the query corpus every round; bytes must not change
REINGEST = ["sha1sum_att", "sha1sum_intel", "base64_att", "base32_intel"]

SMOKE_SET = [
    ("true_att", "tests/data/true_att.objdump", "att"),
    ("true_intel", "tests/data/true_intel.objdump", "intel"),
    ("false_intel", "tests/data/false_intel.objdump", "intel"),
]
SMOKE_PAIRS = [("true_att", "true_intel"), ("true_intel", "false_intel")]
SMOKE_REINGEST = ["true_att"]

WORKLOADS = {
    "ingest": {"kind": "ingest", "params": DEFAULT},
    "ingest-literal": {"kind": "ingest", "params": LITERAL},
    "query": {"kind": "query", "params": DEFAULT},
}

# set-up repetitions; objdump alone (ingest) takes only ~0.3 s, so it is
# repeated more often for a steady median
SETUP_REPS = {"ingest": 7, "query": 3}
UNITS = {"ingest_instr_per_s": "instr/s", "queries_per_s": "1/s", "compare_ms": "ms",
         "nearest_ms": "ms", "contain_ms": "ms", "matrix_ms": "ms", "tfstats_ms": "ms"}
MIN_ROUNDS = 3
WL_SAMPLE_LISTINGS = 2
WL_SAMPLE_BLOCKS = 150
NEAREST_K = "5"
CONTAIN_THRESHOLD = "1.0"
CORPUS_WIDE_PER_ROUND = 3  # nearest, matrix --all --stats and contain each
# ingest rounds compare each of two pairs, and run tfstats on each of two
# programs, this many times: enough samples for a steady median per run
INGEST_PAIR_QUERIES = 2
VERSION_PER_ROUND = 2  # ddghash --version runs per traced round
CALIBRATE_EVERY_S = 1.5  # seconds of ddghash commands between calibration runs
CALIBRATION_WINDOW = 5  # calibration runs, nearest in time, that scale a command
# median wall time of perfbench/calibrate.py on the 2-vCPU reference VM in
# perfbench/README.md; timing metrics are given at this speed
CALIBRATION_REF_S = 0.30

# address, opcode bytes, then a tab and the instruction text
_INSTR_LINE = re.compile(rb"^ *[0-9a-f]+:\t[0-9a-f]{2}(?: [0-9a-f]{2})* *\t\S", re.M)


@dataclass
class Listing:
    id: str
    source: str
    syntax: str
    path: Path = None
    sha256: str = ""
    instructions: int = 0


@dataclass
class Outcome:
    seconds: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str
    start: float  # perf_counter when the command started
    spans: dict = None


class Runner:
    """Starts ddghash commands one at a time and times each one."""

    def __init__(self, work, traced):
        self.work = work
        self.traced = traced
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def run(self, args, traced=None):
        traced = self.traced if traced is None else traced
        span_file = self.work / "cmd.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), str(span_file)]
        else:
            argv = [sys.executable, "-m", "ddghash"]
        out = self._time(argv + [str(a) for a in args], self.env)
        if traced and span_file.is_file():
            out.spans = json.loads(span_file.read_text())
            span_file.unlink()
        return out

    def calibrate(self):
        """One run of calibrate.py, without the repository on the path."""
        return self._time([sys.executable, str(HERE / "calibrate.py")], os.environ)

    def _time(self, argv, env):
        out, err = self.work / "cmd.out", self.work / "cmd.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=self.work,
                                    env=env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - start
        return Outcome(elapsed, os.waitstatus_to_exitcode(status),
                       usage.ru_maxrss / 1024, out.read_text(), err.read_text(), start)


# -- set-up ----------------------------------------------------------------

def make_listings(table, dest, smoke):
    dest.mkdir(parents=True)
    listings = []
    for pid, source, syntax in table:
        if smoke:
            data = (ROOT / source).read_bytes()
        else:
            argv = ["objdump", "-d"] + (["-M", "intel"] if syntax == "intel" else [])
            data = subprocess.run(argv + [source], check=True,
                                  capture_output=True).stdout
        path = dest / f"{pid}.objdump"
        path.write_bytes(data)
        listings.append(Listing(pid, source, syntax, path, checks.sha256_hex(data),
                                len(_INSTR_LINE.findall(data))))
    return listings


def ingest_args(paths, params):
    """One ingest command; listings are named <program id>.objdump, so the
    file stem is the id."""
    return ["ingest", *paths, "--mode", params["label_mode"],
            "--policy", params["policy"], "--iters", params["wl_iterations"]]


def tree_digest(directory):
    return {p.name: checks.sha256_hex(p.read_bytes())
            for p in sorted(directory.iterdir()) if p.is_file()}


def set_up(ctx):
    """Generate the listings (and for query, build the corpus)
    ctx.setup_reps times, each followed by a calibration run; keeps the
    first repetition and returns (start, wall seconds) of each."""
    times = []
    first = None
    for rep in range(ctx.setup_reps):
        base = ctx.work / f"setup{rep}"
        start = time.perf_counter()
        listings = make_listings(ctx.table, base / "listings", ctx.smoke)
        if ctx.kind == "query":
            corpus = base / "corpus"
            out = ctx.runner.run(
                ["-C", corpus, "--format", "json",
                 *ingest_args([l.path for l in listings], ctx.params)],
                traced=False)
            if out.code != 0:
                raise SystemExit(f"building the query corpus failed:\n{out.stderr}")
        times.append((start, time.perf_counter() - start))
        ctx.calibration.append(ctx.runner.calibrate())
        digest = ({l.id: l.sha256 for l in listings},
                  tree_digest(base / "corpus") if ctx.kind == "query" else None)
        if first is None:
            first = (listings, digest)
        else:
            if digest != first[1]:
                ctx.problems.append(f"set-up repetition {rep} wrote different bytes")
            shutil.rmtree(base)
    ctx.listings = first[0]
    return times


# -- checks shared by the workloads ----------------------------------------

def check_corpus(ctx, corpus):
    """Full checks of one corpus directory; returns (docs, problems by id)."""
    docs = {l.id: json.loads((corpus / f"{l.id}.features.json").read_text())
            for l in ctx.listings}
    problems = {l.id: checks.check_feature_file(docs[l.id], l.id, l.sha256, ctx.params)
                for l in ctx.listings}
    by_source = {}
    for l in ctx.listings:
        by_source.setdefault(l.source, []).append(l.id)
    for ids in by_source.values():
        for other in ids[1:]:
            problems[other] += checks.check_same_records(docs[ids[0]], docs[other])
    index = json.loads((corpus / "index.json").read_text())
    problems[ctx.listings[-1].id] += checks.check_index(index, docs)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ddghash
    rng = checks.seeded_rng(ctx.seed, "wl-sample")
    for l in rng.sample(ctx.listings, min(WL_SAMPLE_LISTINGS, len(ctx.listings))):
        problems[l.id] += checks.check_wl_sample(
            ddghash, l.path.read_text(), docs[l.id], ctx.params, rng,
            WL_SAMPLE_BLOCKS)
    return docs, problems


# -- per-layer metrics from spans ------------------------------------------

LAYER_TIMES = {
    "cli.self_s": ["cli.main"],
    "disasm.self_s": ["disasm.parse_listing_with_report"],
    "blocks.self_s": ["blocks.segment", "blocks.build_cfg"],
    "tfidf.self_s": ["tfidf.tf_vector", "tfidf.load_default_dictionary",
                     "tfidf.distribution_from_vectors", "tfidf.idf"],
    "ddg.self_s": ["ddg.build_ddg"],
    "wlhash.self_s": ["wlhash.wl_hash"],
    "features.self_s": ["features.extract_feature_set", "features.compare"],
    "corpus.ingest_s": ["corpus.Corpus.ingest"],
    "corpus.encode_s": ["corpus.encode_feature_file"],
    "corpus.save_s": ["corpus.Corpus.save"],
    "corpus.decode_s": ["corpus.decode_feature_file", "corpus.Corpus.load"],
    "corpus.index_s": ["corpus.Corpus.rebuild_index"],
    "corpus.query_s": ["corpus.Corpus.nearest", "corpus.Corpus.find_containments",
                       "corpus.Corpus.pairwise_matrix"],
}
LAYER_CALLS = {
    "ddg.graphs": "ddg.build_ddg",
    "wlhash.calls": "wlhash.wl_hash",
    "features.compare_calls": "features.compare",
    "corpus.decodes": "corpus.decode_feature_file",
}
LAYER_COUNTS = ["disasm.instructions", "disasm.distinct_asm", "blocks.blocks",
                "ddg.nonempty", "wlhash.distinct", "corpus.decoded_bytes"]
REPORTED_COUNTS = ["disasm.instructions", "blocks.blocks", *LAYER_CALLS]


def span_totals(doc):
    """Self time and calls per span name, plus the command's counts."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, _) in enumerate(spans):
        self_s, calls = totals.get(name, (0.0, 0))
        totals[name] = (self_s + (end - start) - child[i], calls + 1)
    out = {metric: sum(totals.get(n, (0.0, 0))[0] for n in names)
           for metric, names in LAYER_TIMES.items()}
    out.update({metric: totals.get(n, (0.0, 0))[1] for metric, n in LAYER_CALLS.items()})
    out.update({k: doc["counts"].get(k, 0) for k in LAYER_COUNTS})
    return out


def add_into(acc, doc):
    for k, v in span_totals(doc).items():
        acc[k] = acc.get(k, 0) + v


def share(num, den):
    return num / den if den else 0.0


def per_layer_metrics(rounds, startup_s):
    """rounds: per round, the summed span totals of its commands."""
    metrics = {"cli.startup_ms": (statistics.median(startup_s) * 1000, "ms")}
    for k in LAYER_TIMES:
        metrics[k] = (statistics.median(r.get(k, 0.0) for r in rounds), "s")
    first = rounds[0]
    for k in REPORTED_COUNTS:
        metrics[k] = (first.get(k, 0), "count")
    metrics["disasm.distinct_asm_share"] = (
        share(first.get("disasm.distinct_asm", 0), first.get("disasm.instructions", 0)),
        "ratio")
    metrics["ddg.nonempty_share"] = (
        share(first.get("ddg.nonempty", 0), first.get("ddg.graphs", 0)), "ratio")
    metrics["wlhash.distinct_share"] = (
        share(first.get("wlhash.distinct", 0), first.get("wlhash.calls", 0)), "ratio")
    metrics["corpus.decoded_mb"] = (first.get("corpus.decoded_bytes", 0) / 1e6, "MB")
    unsteady = [k for k in [*LAYER_CALLS, *LAYER_COUNTS]
                if any(r.get(k, 0) != first.get(k, 0) for r in rounds)]
    return metrics, unsteady


# -- workloads -------------------------------------------------------------

class Context:
    def __init__(self, workload, seed, seconds, traced, smoke, work):
        spec = WORKLOADS[workload]
        self.kind, self.params = spec["kind"], spec["params"]
        self.seed, self.seconds, self.traced, self.smoke = seed, seconds, traced, smoke
        self.table = (SMOKE_SET if smoke else
                      QUERY_SET if self.kind == "query" else INGEST_SET)
        self.pairs = SMOKE_PAIRS if smoke else QUERY_PAIRS
        self.reingest = SMOKE_REINGEST if smoke else REINGEST
        self.min_rounds = 1 if smoke else MIN_ROUNDS
        self.setup_reps = 2 if smoke else SETUP_REPS[self.kind]
        self.work = work
        self.runner = Runner(work, traced)
        self.problems = []
        self.listings = []
        self.rounds = []  # per round: summed span totals (traced runs)
        self.startup_s = []
        self.calibration = []  # outcomes of calibrate.py runs
        self.since_calibration = 0.0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0


def session_ops(ctx, rng, ids):
    """One round's commands as (arguments, listing or None), in run order.

    ingest and ingest-literal: ingest every listing into an empty corpus,
    then a short query rotation on it. query: the query rotation over the
    corpus built in set-up, with the REINGEST listings re-ingested into it.
    Rounds repeat the same commands; the seed only orders them and picks
    the nearest query program, whose cost does not depend on it.
    """
    def rotation(pairs, tfstats_ids, corpus_wide):
        cmds = [["compare", *rng.sample(pair, 2)] for pair in pairs]
        cmds += [["tfstats", pid] for pid in tfstats_ids]
        for _ in range(corpus_wide):
            cmds += [["nearest", rng.choice(ids), "-k", NEAREST_K],
                     ["matrix", "--all", "--stats"],
                     ["contain", "--threshold", CONTAIN_THRESHOLD]]
        return [(c, None) for c in cmds]

    by_id = {l.id: l for l in ctx.listings}
    if ctx.kind == "ingest":
        pairs = ctx.pairs[:2] * INGEST_PAIR_QUERIES
        queries = rotation(pairs, [a for a, _ in pairs], CORPUS_WIDE_PER_ROUND)
        rng.shuffle(queries)
        return [(ingest_args([l.path], ctx.params), l) for l in ctx.listings] + queries
    ops = rotation(ctx.pairs, ids, CORPUS_WIDE_PER_ROUND)
    ops += [(ingest_args([by_id[pid].path], ctx.params), by_id[pid])
            for pid in ctx.reingest]
    rng.shuffle(ops)
    return ops


def timed(ctx, args):
    """One ddghash command; calibrate.py runs after every CALIBRATE_EVERY_S
    seconds of commands. Returns the command's outcome and the seconds
    spent on both."""
    out = ctx.runner.run(args)
    spent = out.seconds
    ctx.since_calibration += out.seconds
    if ctx.since_calibration >= CALIBRATE_EVERY_S:
        ctx.since_calibration = 0.0
        ctx.calibration.append(ctx.runner.calibrate())
        spent += ctx.calibration[-1].seconds
    return out, spent


def speed_factor(ctx, at):
    """CALIBRATION_REF_S over the median time of the CALIBRATION_WINDOW
    calibration runs nearest to the moment `at`: above 1 when the host ran
    faster than the reference then. The host's speed changes within a
    run, so each command is scaled by the speed around it."""
    near = sorted(ctx.calibration, key=lambda c: abs(c.start - at))
    return CALIBRATION_REF_S / statistics.median(
        c.seconds for c in near[:CALIBRATION_WINDOW])


def run_rounds(ctx, one_round):
    """Whole rounds until the timed commands and calibrations have taken
    ctx.seconds."""
    spent = []
    while (len(spent) < ctx.min_rounds
           or sum(spent) + statistics.mean(spent) / 2 < ctx.seconds):
        spans = {}
        if ctx.traced:
            for _ in range(VERSION_PER_ROUND):
                ctx.startup_s.append(ctx.runner.run(["--version"], traced=False).seconds)
        spent.append(one_round(len(spent), spans))
        if ctx.traced:
            ctx.rounds.append(spans)


def ingest_ok(out, program_id):
    if out.code != 0:
        return False
    try:
        return json.loads(out.stdout)["results"][0]["program_id"] == program_id
    except (ValueError, LookupError):
        return False


def invocation(args):
    """The key a query command's time is filed under: compare and tfstats
    cost depends on their programs (a compare pair in either order), the
    corpus-wide queries cost the same whatever program nearest is given."""
    if args[0] in ("compare", "tfstats"):
        return (args[0], "/".join(sorted(args[1:])))
    return (args[0], "")


def run_session(ctx):
    ids = sorted(l.id for l in ctx.listings)
    rng = checks.seeded_rng(ctx.seed, "session")
    fixed = ctx.work / "setup0" / "corpus" if ctx.kind == "query" else None
    reference = tree_digest(fixed) if fixed else None
    ingest_s = {}  # program id -> outcomes of its ingest commands
    query_s = {}  # (query kind, invocation) -> outcomes of its commands
    queries = []  # (arguments, outcome), checked after the timed rounds

    def one_round(rnd, spans):
        nonlocal reference
        corpus = fixed or ctx.work / f"round{rnd}"
        spent = 0.0
        for args, listing in session_ops(ctx, rng, ids):
            out, seconds = timed(ctx, ["-C", corpus, "--format", "json", *args])
            ctx.attempted += 1
            ctx.rss_mb = max(ctx.rss_mb, out.rss_mb)
            if out.spans is not None:
                add_into(spans, out.spans)
            spent += seconds
            if listing is None:
                query_s.setdefault(invocation(args), []).append(out)
                queries.append((args, out))
                continue
            ingest_s.setdefault(listing.id, []).append(out)
            if not ingest_ok(out, listing.id):
                ctx.failed += 1
                ctx.problems.append(f"round {rnd} ingest {listing.id}: exit "
                                    f"{out.code} {out.stderr.strip()[-300:]}")
        digest = tree_digest(corpus)
        if reference is None:
            reference = digest
        elif digest != reference:
            ctx.failed += 1
            ctx.problems.append(f"round {rnd}: corpus bytes differ from the first")
        if corpus != fixed and rnd > 0:
            shutil.rmtree(corpus)
        return spent

    run_rounds(ctx, one_round)
    corpus = fixed or ctx.work / "round0"
    docs, problems = check_corpus(ctx, corpus)
    for pid, found in problems.items():
        if found:
            ctx.problems.extend(found)
            ctx.failed += len(ingest_s.get(pid, []))
    oracle = checks.QueryOracle(docs)
    for args, out in queries:
        found = ([f"{' '.join(args)}: exit {out.code} {out.stderr.strip()[-300:]}"]
                 if out.code != 0 else oracle.check(args, out.stdout))
        if found:
            ctx.failed += 1
            ctx.problems.extend(found)

    ingested = [l for l in ctx.listings if l.id in ingest_s]
    instructions = sum(l.instructions for l in ingested)
    feature_bytes = sum((corpus / f"{l.id}.features.json").stat().st_size
                        for l in ingested)

    def timings(scale):
        """Timing metrics from wall times, scaled to the reference speed or not."""
        def seconds(outs):
            return [o.seconds * (speed_factor(ctx, o.start) if scale else 1.0)
                    for o in outs]
        medians = {pid: statistics.median(seconds(o)) for pid, o in ingest_s.items()}
        out = {
            "ingest_instr_per_s": instructions / sum(medians.values()),
            "queries_per_s": len(queries) / sum(seconds(o for _, o in queries)),
        }
        for name in ("compare", "nearest", "contain", "matrix", "tfstats"):
            out[f"{name}_ms"] = statistics.mean(
                statistics.median(seconds(o)) for (kind, _), o in query_s.items()
                if kind == name) * 1000
        return out

    metrics = {k: (v, UNITS[k]) for k, v in timings(scale=True).items()}
    metrics["feature_bytes_per_instr"] = (feature_bytes / instructions, "B/instr")
    outputs = {c.stdout for c in ctx.calibration}
    if any(c.code != 0 for c in ctx.calibration) or len(outputs) > 1:
        ctx.problems.append(f"calibrate.py failed or printed different digests: {outputs}")
    summary = [f"ingest {pid}: median {statistics.median(o.seconds for o in outs):.4f} s "
               f"over {len(outs)}" for pid, outs in ingest_s.items()]
    summary += [f"{' '.join(key)}: median "
                f"{statistics.median(o.seconds for o in outs) * 1000:.1f} ms over {len(outs)}"
                for key, outs in sorted(query_s.items())]
    factors = [speed_factor(ctx, c.start) for c in ctx.calibration]
    summary.append(
        f"calibration: median {statistics.median(c.seconds for c in ctx.calibration):.4f} s "
        f"over {len(ctx.calibration)}, speed factor {min(factors):.4f}-{max(factors):.4f}")
    summary += [f"wall {k} = {v:.6g}" for k, v in timings(scale=False).items()]
    return metrics, summary


def run_workload(workload, seed, seconds, traced, smoke):
    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        ctx = Context(workload, seed, seconds, traced, smoke, work)
        ctx.runner.run(["--version"], traced=False)  # compile bytecode once
        setups = set_up(ctx)
        e2e, summary = run_session(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e["peak_rss_mb"] = (ctx.rss_mb, "MB")
    e2e["setup_s"] = (statistics.median(t * speed_factor(ctx, at) for at, t in setups), "s")
    summary.append(f"wall setup_s = {statistics.median(t for _, t in setups):.6g}")
    lines = [f"workload {workload} seed {seed} params {json.dumps(ctx.params)}"]
    lines += [f"input {l.id}: {l.source} {l.syntax} {l.instructions} instructions "
              f"sha256 {l.sha256}" for l in ctx.listings]
    lines += summary
    lines += [f"{'traced ' if traced else ''}end-to-end {k} = {v:.6g} {u}"
              for k, (v, u) in e2e.items()]
    if traced:
        metrics, unsteady = per_layer_metrics(ctx.rounds, ctx.startup_s)
        lines += [f"per-layer {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
        if unsteady:
            ctx.problems.append(f"counts differ between rounds: {', '.join(unsteady)}")
    else:
        metrics = e2e
    lines += [f"problem: {p}" for p in ctx.problems]
    result = {
        "correct": not ctx.problems,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload and check on the tests/data fixtures")
    args = parser.parse_args(argv)
    if not (SRC / "ddghash" / "__init__.py").is_file():
        print(f"error: no ddghash sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if shutil.which("objdump") is None:
        print("error: objdump is not on PATH", file=sys.stderr)
        return 2
    missing = sorted({src for _, src, _ in QUERY_SET + INGEST_SET
                      if not os.path.isfile(src)})
    if missing:
        print(f"error: missing binaries: {', '.join(missing)}", file=sys.stderr)
        return 2
    lines, result = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), smoke=False)
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({"log": lines, "result": result}, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


def smoke():
    ok = True
    for workload in WORKLOADS:
        for traced in (False, True):
            lines, result = run_workload(workload, 1, 0, traced, smoke=True)
            print("\n".join(lines))
            print(json.dumps({"workload": workload, "trace": int(traced), **result}))
            ok = ok and result["correct"] and not result["failed"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
