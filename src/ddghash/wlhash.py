"""Weisfeiler-Lehman hashing of data dependency graphs.

Refinement is direction-aware: a node's new label digests its old label
together with the sorted multisets of its in-neighbor and out-neighbor
labels, so a load-then-store pattern never merges with its reverse. The
final digest covers the label multiset of every round (round 0 included)
plus the node and edge counts, rendered as 32 lowercase hex characters.

The byte-exact serialization is documented in docs/formats.md; it uses
length-prefixed sorted label lists, so any label alphabet is safe and an
independent implementation can reproduce digests exactly.

A refined label is a pure function of the node's own label and the sorted
labels of its neighbors, and on real listings most such neighborhoods
repeat, so one bounded memo keyed by the neighborhood serves every node,
round and graph of the process: the payload is rendered and digested
only on a miss. Each graph's adjacency is built once, not once per round.
"""

from functools import lru_cache
from hashlib import blake2b

from .errors import EmptyGraph
from .features import DIGEST_BITS


_DIGEST_PREFIX = f"{DIGEST_BITS // 4}:"  # _label_list's prefix of a digest


def _digest(data: bytes) -> str:
    return blake2b(data, digest_size=DIGEST_BITS // 8).hexdigest()


def _label_list(labels) -> str:
    # length-prefixed, sorted: unambiguous for arbitrary label content. The
    # prefix counts UTF-8 bytes, which len() gives when the text is ASCII,
    # as every label the pipeline makes is.
    labels = sorted(labels)
    text = "".join([f"{len(lab)}:{lab}" for lab in labels])
    if text.isascii():
        return text
    return "".join([f"{len(lab.encode('utf-8'))}:{lab}" for lab in labels])


@lru_cache(maxsize=65536)
def _refined(own, preds, succs) -> str:
    """The refined label of a node labelled `own` whose in- and
    out-neighbors carry the labels `preds` and `succs` (sorted tuples)."""
    payload = (_label_list([own]) + "|i" + _label_list(preds)
               + "|o" + _label_list(succs))
    return _digest(payload.encode("utf-8"))


def _adjacency(graph):
    """Per node, in graph.nodes order: the positions of its in-neighbors
    and of its out-neighbors."""
    position = {node.id: i for i, node in enumerate(graph.nodes)}
    preds = [[] for _ in graph.nodes]
    succs = [[] for _ in graph.nodes]
    for src, dst in graph.edges:
        succs[position[src]].append(position[dst])
        preds[position[dst]].append(position[src])
    return list(zip(preds, succs))


def _labels_at(labels, positions):
    """The labels at positions, as a sorted tuple; most nodes of a DDG
    have no more than one neighbor each way, which take no sort."""
    if len(positions) > 1:
        return tuple(sorted([labels[u] for u in positions]))
    return (labels[positions[0]],) if positions else ()


def _refine(adjacency, labels):
    """One round over labels listed in node order."""
    return [_refined(own, _labels_at(labels, preds), _labels_at(labels, succs))
            for own, (preds, succs) in zip(labels, adjacency)]


def wl_hash(graph, iterations=3) -> str:
    """Isomorphism-invariant 32-hex digest of a labeled directed graph.

    Node ids never enter the digest, only sorted label multisets, so any
    relabeling/permutation of nodes produces the same value.
    """
    if not graph.nodes:
        raise EmptyGraph("a graph with no nodes has no digest")
    adjacency = _adjacency(graph)
    labels = [node.label for node in graph.nodes]
    parts = [
        "ddghash-wl/1\n",
        f"nodes={len(graph.nodes)}\n",
        f"edges={len(graph.edges)}\n",
        f"iterations={iterations}\n",
        "round=0\n",
        _label_list(labels) + "\n",
    ]
    # a refined label is a digest, of one length, so each entry of the
    # rounds' label lists has the same prefix
    for rnd in range(1, iterations + 1):
        labels = _refine(adjacency, labels)
        parts.append(f"round={rnd}\n")
        parts.append(_DIGEST_PREFIX + _DIGEST_PREFIX.join(sorted(labels)) + "\n")
    return _digest("".join(parts).encode("utf-8"))
