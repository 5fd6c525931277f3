"""ddghash: per-block data dependency graph hashing for program comparison.

Pipeline: objdump-style listing -> basic blocks -> per-block data
dependency graphs -> Weisfeiler-Lehman hashes -> deduplicated hash set
with CFG partial order, compared by exact Jaccard/containment set
algebra, with a 32-stem opcode tf-idf baseline alongside.
"""

__version__ = "0.1.0"

from .blocks import BasicBlock, segment
from .ddg import (DataDependencyGraph, InstructionFamilyPolicy, LabelMode,
                  build_ddg, node_label)
from .disasm import (FunctionListing, Instruction, Operand, detect_syntax,
                     parse_listing, parse_listing_with_report, parse_operand)
from .errors import (DdghashError, EmptyCorpus, EmptyGraph,
                     IncompatibleCorpora, MalformedListing,
                     NoInstructionsFound, UnknownProgram, UnparsableOperand,
                     ZeroVector)
from .features import (FeatureParams, ProgramFeatureSet, SimilarityReport,
                       compare, five_number_summary, make_feature_set)
from .tfidf import (TermDictionary, cosine_similarity, idf,
                    load_default_dictionary, tf_vector)
from .wlhash import wl_hash, wl_refine
from .corpus import Corpus, FeatureFile, build_feature_file

__all__ = [
    "__version__",
    "BasicBlock", "segment",
    "DataDependencyGraph", "InstructionFamilyPolicy", "LabelMode",
    "build_ddg", "node_label",
    "FunctionListing", "Instruction", "Operand", "detect_syntax",
    "parse_listing", "parse_listing_with_report", "parse_operand",
    "DdghashError", "EmptyCorpus", "EmptyGraph", "IncompatibleCorpora",
    "MalformedListing", "NoInstructionsFound", "UnknownProgram",
    "UnparsableOperand", "ZeroVector",
    "FeatureParams", "ProgramFeatureSet", "SimilarityReport", "compare",
    "five_number_summary", "make_feature_set",
    "TermDictionary", "cosine_similarity", "idf",
    "load_default_dictionary", "tf_vector",
    "wl_hash", "wl_refine",
    "Corpus", "FeatureFile", "build_feature_file",
]
