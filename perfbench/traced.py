"""Run one ddghash command with spans recorded around its layers.

    python3 perfbench/traced.py SPANS_JSON <ddghash arguments...>

The layers' public functions are wrapped where they are called (the name
the caller looks up at call time), then ddghash.cli.main runs with the
given arguments. Each call records a span [name, start, end, parent];
spans and counts stay in memory and are written to SPANS_JSON at exit.
A function that no longer exists is skipped, so a later refactor shows
up as zero calls rather than as a failed run.
"""

import json
import sys
import time

import ddghash.cli
import ddghash.corpus
import ddghash.features

# (module or class, attribute, span name); the span name's prefix is the layer
WRAPPED = [
    (ddghash.corpus, "parse_listing_with_report", "disasm.parse_listing_with_report"),
    (ddghash.corpus, "segment", "blocks.segment"),
    (ddghash.corpus, "build_cfg", "blocks.build_cfg"),
    (ddghash.corpus, "tf_vector", "tfidf.tf_vector"),
    (ddghash.corpus, "load_default_dictionary", "tfidf.load_default_dictionary"),
    (ddghash.cli, "load_default_dictionary", "tfidf.load_default_dictionary"),
    (ddghash.cli, "distribution_from_vectors", "tfidf.distribution_from_vectors"),
    (ddghash.cli, "corpus_idf", "tfidf.idf"),
    (ddghash.corpus, "extract_feature_set", "features.extract_feature_set"),
    (ddghash.features, "build_ddg", "ddg.build_ddg"),
    (ddghash.features, "wl_hash", "wlhash.wl_hash"),
    (ddghash.corpus, "compare", "features.compare"),
    (ddghash.corpus, "encode_feature_file", "corpus.encode_feature_file"),
    (ddghash.corpus, "decode_feature_file", "corpus.decode_feature_file"),
    (ddghash.corpus.Corpus, "ingest", "corpus.Corpus.ingest"),
    (ddghash.corpus.Corpus, "save", "corpus.Corpus.save"),
    (ddghash.corpus.Corpus, "load", "corpus.Corpus.load"),
    (ddghash.corpus.Corpus, "rebuild_index", "corpus.Corpus.rebuild_index"),
    (ddghash.corpus.Corpus, "nearest", "corpus.Corpus.nearest"),
    (ddghash.corpus.Corpus, "find_containments", "corpus.Corpus.find_containments"),
    (ddghash.corpus.Corpus, "pairwise_matrix", "corpus.Corpus.pairwise_matrix"),
    (ddghash.cli, "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = [-1]
        self.counts = {
            "disasm.instructions": 0, "disasm.distinct_asm": 0,
            "blocks.blocks": 0, "ddg.nonempty": 0,
            "wlhash.distinct": 0, "corpus.decoded_bytes": 0,
        }
        self.digests = set()
        self.parsed = []  # parse results; distinct asm texts are counted at exit
        self.after = {
            "disasm.parse_listing_with_report": self._count_parse,
            "blocks.segment": self._count_blocks,
            "ddg.build_ddg": self._count_graph,
            "wlhash.wl_hash": self._count_digest,
            "corpus.decode_feature_file": self._count_decode,
        }

    def _count_parse(self, result, args):
        self.counts["disasm.instructions"] += result[1].instructions
        self.parsed.append(result[0])

    def _count_blocks(self, result, args):
        self.counts["blocks.blocks"] += len(result)

    def _count_graph(self, result, args):
        self.counts["ddg.nonempty"] += len(result) > 0

    def _count_digest(self, result, args):
        if result not in self.digests:
            self.digests.add(result)
            self.counts["wlhash.distinct"] += 1

    def _count_decode(self, result, args):
        # feature files are ASCII JSON, so characters are bytes
        self.counts["corpus.decoded_bytes"] += len(args[0])

    def wrap(self, owner, attr, name):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = self.after.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, traced)

    def dump(self, path):
        self.counts["disasm.distinct_asm"] = sum(
            len({ins.raw_text for fn in functions for ins in fn.instructions})
            for functions in self.parsed)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    for owner, attr, name in WRAPPED:
        tracer.wrap(owner, attr, name)
    code = 1
    try:
        code = ddghash.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(out_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
