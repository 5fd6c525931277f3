"""ddghash: per-block data dependency graph hashing for program comparison.

Pipeline: objdump-style listing -> basic blocks -> per-block data
dependency graphs -> Weisfeiler-Lehman hashes -> deduplicated hash set,
compared by exact Jaccard/containment set algebra, with a 32-stem opcode
tf-idf baseline alongside.

Every public name below loads its module on first access, so a corpus
query never imports the ingest pipeline (disasm, blocks, ddg, wlhash,
tfidf).
"""

import gc
from importlib import import_module
from operator import attrgetter

__version__ = "0.1.0"


def lazy_names(namespace, homes):
    """PEP 562 lazy imports for the module whose globals are `namespace`.

    `homes` maps each name to the module of this package that defines it,
    as "module" or, for a name bound under another name, "module.attr".
    Returns (__getattr__, bind_all): the first imports a name on first
    access from outside, the second binds every name before the module's
    own functions run. Either binds the name into `namespace`, where the
    functions look it up at call time, and neither replaces a name already
    bound there, so a wrapper or a test's monkeypatch stays in place.
    """

    def bind(name):
        module, _, attr = homes[name].partition(".")
        value = getattr(import_module(f"{__name__}.{module}"), attr or name)
        return namespace.setdefault(name, value)

    def __getattr__(name):
        if name not in homes:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        return bind(name)

    def bind_all():
        for name in homes:
            if name not in namespace:
                bind(name)

    return __getattr__, bind_all


class collector_paused:
    """A context manager that pauses the cyclic garbage collector for its
    block and restores it as it was found, also when the block raises.
    The restore allocates nothing, so a process that ends through _exit
    right after it runs no collection."""

    def __enter__(self):
        self._collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc):
        if self._collecting:
            gc.enable()


class Record:
    """Base of the package's records: plain classes whose fields are their
    __slots__, so no instance carries a __dict__. Each record writes out
    its __init__. Its compared fields are its slots whose names do not
    start with "_", less those it names in _uncompared; they make up the
    key of each instance. A record equals only a record of its own class
    with an equal key, and is unhashable unless it is frozen. repr shows
    the class and every field whose name does not start with "_"."""

    __slots__ = ()
    _uncompared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [name for klass in reversed(cls.__mro__)
                 for name in klass.__dict__.get("__slots__", ())]
        cls._fields = tuple(name for name in slots if name[0] != "_")
        compared = [name for name in cls._fields if name not in cls._uncompared]
        if compared:
            cls._key = attrgetter(*compared)  # instance -> its key

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose __init__ sets each field once, through
    object.__setattr__; assigning or deleting a field later raises
    AttributeError. It hashes by its key."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# each public name -> its module, in the order of __all__
_HOMES = {
    "BasicBlock": "blocks", "segment": "blocks",
    "DataDependencyGraph": "ddg", "InstructionFamilyPolicy": "features",
    "LabelMode": "features", "build_ddg": "ddg", "node_label": "ddg",
    "FunctionListing": "disasm", "Instruction": "disasm", "Operand": "disasm",
    "detect_syntax": "disasm", "parse_listing_with_report": "disasm",
    "parse_operand": "disasm",
    "DdghashError": "errors", "EmptyCorpus": "errors", "EmptyGraph": "errors",
    "IncompatibleCorpora": "errors", "MalformedListing": "errors",
    "NoInstructionsFound": "errors", "UnknownProgram": "errors",
    "UnparsableOperand": "errors", "ZeroVector": "errors",
    "FeatureParams": "features", "ProgramFeatureSet": "features",
    "SimilarityReport": "features", "compare": "features",
    "five_number_summary": "features", "make_feature_set": "features",
    "TermDictionary": "tfidf", "cosine_similarity": "tfidf", "idf": "tfidf",
    "load_default_dictionary": "tfidf", "tf_vector": "tfidf",
    "wl_hash": "wlhash", "wl_refine": "wlhash",
    "Corpus": "corpus", "FeatureFile": "corpus", "build_feature_file": "corpus",
}

__all__ = ["__version__", *_HOMES]

__getattr__, _ = lazy_names(globals(), _HOMES)


def __dir__():
    return sorted(set(globals()) | set(__all__))
