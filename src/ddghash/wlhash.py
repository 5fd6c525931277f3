"""Weisfeiler-Lehman hashing of data dependency graphs.

Refinement is direction-aware: a node's new label digests its old label
together with the sorted multisets of its in-neighbor and out-neighbor
labels, so a load-then-store pattern never merges with its reverse. The
final digest covers the label multiset of every round (round 0 included)
plus the node and edge counts, rendered as 32 lowercase hex characters.

The byte-exact serialization is documented in docs/formats.md; it uses
length-prefixed sorted label lists, so any label alphabet is safe and an
independent implementation can reproduce digests exactly.
"""

from hashlib import blake2b

from .errors import EmptyGraph
from .features import DIGEST_BITS


def _digest(data: bytes) -> str:
    return blake2b(data, digest_size=DIGEST_BITS // 8).hexdigest()


def _label_list(labels) -> str:
    # length-prefixed, sorted: unambiguous for arbitrary label content. The
    # prefix counts UTF-8 bytes, which len() gives when the text is ASCII,
    # as every label the pipeline makes is.
    labels = sorted(labels)
    text = "".join(f"{len(lab)}:{lab}" for lab in labels)
    if text.isascii():
        return text
    return "".join(f"{len(lab.encode('utf-8'))}:{lab}" for lab in labels)


def _adjacency(graph):
    preds = {node.id: [] for node in graph.nodes}
    succs = {node.id: [] for node in graph.nodes}
    for src, dst in graph.edges:
        succs[src].append(dst)
        preds[dst].append(src)
    return preds, succs


def wl_refine(graph, labels):
    """One refinement round: labels is a node-id -> label mapping."""
    preds, succs = _adjacency(graph)
    new_labels = {}
    for node in graph.nodes:
        v = node.id
        payload = (
            _label_list([labels[v]])
            + "|i" + _label_list(labels[u] for u in preds[v])
            + "|o" + _label_list(labels[w] for w in succs[v])
        )
        new_labels[v] = _digest(payload.encode("utf-8"))
    return new_labels


def wl_hash(graph, iterations=3) -> str:
    """Isomorphism-invariant 32-hex digest of a labeled directed graph.

    Node ids never enter the digest, only sorted label multisets, so any
    relabeling/permutation of nodes produces the same value.
    """
    if not graph.nodes:
        raise EmptyGraph(f"block {graph.block_id} has an empty graph")
    labels = {node.id: node.label for node in graph.nodes}
    parts = [
        "ddghash-wl/1\n",
        f"nodes={len(graph.nodes)}\n",
        f"edges={len(graph.edges)}\n",
        f"iterations={iterations}\n",
    ]
    for rnd in range(iterations + 1):
        if rnd > 0:
            labels = wl_refine(graph, labels)
        parts.append(f"round={rnd}\n")
        parts.append(_label_list(labels.values()) + "\n")
    return _digest("".join(parts).encode("utf-8"))
