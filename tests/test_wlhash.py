import random
import re
from hashlib import blake2b

import pytest

from ddghash.errors import EmptyGraph
from ddghash.features import FeatureParams
from ddghash import wlhash
from ddghash.wlhash import wl_hash, wl_refine

import iso_oracle
from fixtures import make_graph, permute_graph, random_graph


def test_refine_separates_by_direction():
    g = make_graph(2, {(0, 1)})
    labels = wl_refine(g, {0: "x", 1: "x"})
    assert labels[0] != labels[1]


def test_refine_keeps_edgeless_uniform():
    g = make_graph(3, set())
    labels = wl_refine(g, {0: "x", 1: "x", 2: "x"})
    assert len(set(labels.values())) == 1


def test_refine_keeps_directed_cycle_uniform():
    g = make_graph(3, {(0, 1), (1, 2), (2, 0)})
    labels = {0: "x", 1: "x", 2: "x"}
    for _ in range(4):
        labels = wl_refine(g, labels)
        assert len(set(labels.values())) == 1


def test_hash_format():
    h = wl_hash(make_graph(2, {(0, 1)}))
    assert re.fullmatch(r"[0-9a-f]{32}", h)


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        wl_hash(make_graph(0, set()))


def test_permutation_invariance_samples():
    rng = random.Random(424242)
    for _ in range(50):
        g = random_graph(rng)
        perm = list(range(len(g.nodes)))
        rng.shuffle(perm)
        assert wl_hash(g) == wl_hash(permute_graph(g, perm))


def test_path_vs_star_distinguished():
    path = make_graph(3, {(0, 1), (1, 2)}, labels=["reg"] * 3)
    star = make_graph(3, {(0, 1), (0, 2)}, labels=["reg"] * 3)
    assert not iso_oracle.are_isomorphic(3, path.edges, 3, star.edges)
    assert not iso_oracle.color_refinement_equivalent(3, path.edges, 3, star.edges)
    assert wl_hash(path) != wl_hash(star)


def test_known_refinement_collision_collides():
    # two triangles vs a hexagon, undirected encoded as symmetric directed:
    # non-isomorphic but 1-WL-indistinguishable, so the hashes must agree
    def sym(edges):
        return frozenset(edges) | frozenset((b, a) for a, b in edges)

    two_triangles = sym({(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)})
    hexagon = sym({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)})
    assert not iso_oracle.are_isomorphic(6, two_triangles, 6, hexagon)
    assert iso_oracle.color_refinement_equivalent(6, two_triangles, 6, hexagon)
    g1 = make_graph(6, two_triangles)
    g2 = make_graph(6, hexagon)
    assert wl_hash(g1) == wl_hash(g2)


def test_label_changes_hash():
    g1 = make_graph(2, {(0, 1)}, labels=["reg", "reg"])
    g2 = make_graph(2, {(0, 1)}, labels=["reg", "mem"])
    assert wl_hash(g1) != wl_hash(g2)


def test_label_multiset_serialization_is_unambiguous():
    # {"ab","c"} and {"a","bc"} concatenate identically without length
    # prefixes; the digest must still tell them apart
    g1 = make_graph(2, set(), labels=["ab", "c"])
    g2 = make_graph(2, set(), labels=["a", "bc"])
    assert wl_hash(g1) != wl_hash(g2)


def test_edge_direction_matters_for_labeled_graphs():
    # a mem->reg load chain is not a reg->mem store chain
    fwd = make_graph(3, {(0, 1), (1, 2)}, labels=["mem", "reg", "imm"])
    rev = make_graph(3, {(1, 0), (2, 1)}, labels=["mem", "reg", "imm"])
    assert not iso_oracle.are_isomorphic(
        3, fwd.edges, 3, rev.edges,
        {n.id: n.label for n in fwd.nodes},
        {n.id: n.label for n in rev.nodes},
    )
    assert wl_hash(fwd) != wl_hash(rev)


def test_iteration_count_changes_hash():
    g = make_graph(3, {(0, 1), (1, 2)})
    assert wl_hash(g, 3) != wl_hash(g, 4)


def test_invalid_params_rejected():
    with pytest.raises(ValueError, match="wl_iterations"):
        FeatureParams(wl_iterations=0)


def test_hash_agrees_with_refinement_oracle_on_random_pairs():
    # whenever hashes differ the refinement oracle must also separate the
    # graphs, and equal-hash pairs must be refinement-equivalent
    rng = random.Random(909)
    graphs = [random_graph(rng, max_nodes=6) for _ in range(60)]
    for i, g1 in enumerate(graphs):
        for g2 in graphs[i + 1:]:
            labels1 = {n.id: n.label for n in g1.nodes}
            labels2 = {n.id: n.label for n in g2.nodes}
            same_counts = (len(g1.nodes) == len(g2.nodes)
                           and len(g1.edges) == len(g2.edges))
            equivalent = same_counts and iso_oracle.color_refinement_equivalent(
                len(g1.nodes), g1.edges, len(g2.nodes), g2.edges,
                labels1, labels2,
            )
            assert (wl_hash(g1) == wl_hash(g2)) == equivalent


def _label_list(labels):
    return "".join(f"{len(lab.encode('utf-8'))}:{lab}" for lab in sorted(labels))


def _digest(text):
    return blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _round_from_formats_doc(labels, edges):
    """One wl/1 refinement round as docs/formats.md specifies it."""
    return {v: _digest(_label_list([labels[v]])
                       + "|i" + _label_list(labels[s] for s, d in edges if d == v)
                       + "|o" + _label_list(labels[d] for s, d in edges if s == v))
            for v in labels}


def _wl1_from_formats_doc(labels, edges, iterations=3):
    """wl/1 as docs/formats.md specifies it: "<len>" is the byte length of
    the label's UTF-8 encoding. labels: node id -> label."""
    payload = (f"ddghash-wl/1\nnodes={len(labels)}\nedges={len(edges)}\n"
               f"iterations={iterations}\n")
    for rnd in range(iterations + 1):
        if rnd:
            labels = _round_from_formats_doc(labels, edges)
        payload += f"round={rnd}\n{_label_list(labels.values())}\n"
    return _digest(payload)


@pytest.mark.parametrize("labels", [["\u00e9", "x"], ["reg", "mem"],
                                    ["\u4e2d", "\U0001f600"]],
                         ids=["latin", "ascii", "wide"])
def test_label_length_prefix_counts_utf8_bytes(labels):
    g = make_graph(2, {(0, 1)}, labels=labels)
    expected = _wl1_from_formats_doc(dict(enumerate(labels)), [(0, 1)])
    assert wl_hash(g) == expected
    if labels[0] == "\u00e9":
        assert expected.startswith("ce52a86a")


# operand-class, literal-style and non-ASCII node labels
LABEL_POOLS = [("reg", "mem", "imm"),
               ("rax", "eax", "[rbp-44]", "[rip+4096]", "imm:0", "imm:-1"),
               ("\u00e9", "x", "\u4e2d", "\U0001f600", "reg")]


def test_memo_never_changes_a_digest():
    # refined labels are memoised across nodes, rounds and graphs; hash
    # unrelated graphs first, then relabelled and isomorphic copies of
    # them, which meet the memo warm
    rng = random.Random(5151)
    graphs = [(random_graph(rng, max_nodes=8, label_pool=pool), rng.randint(1, 3))
              for pool in LABEL_POOLS for _ in range(70)]
    copies = []
    for g, iterations in graphs:
        n = len(g.nodes)
        perm = rng.sample(range(n), n)
        copies.append((permute_graph(g, perm), iterations))
        copies.append((permute_graph(g, [1000 + i for i in perm]), iterations))
    rng.shuffle(copies)
    hits = wlhash._refined.cache_info().hits
    for g, iterations in graphs + copies:
        labels = {node.id: node.label for node in g.nodes}
        assert wl_hash(g, iterations) == \
            _wl1_from_formats_doc(labels, g.edges, iterations)
    assert wlhash._refined.cache_info().hits > hits


def test_refine_with_caller_labels_after_the_memo_is_warm():
    rng = random.Random(6262)
    graphs = [random_graph(rng, max_nodes=8, label_pool=pool)
              for pool in LABEL_POOLS for _ in range(20)]
    for g in graphs:
        wl_hash(g)
    for g in graphs:
        # labels of the caller's choosing, then refined ones fed back
        labels = {node.id: rng.choice(rng.choice(LABEL_POOLS)) for node in g.nodes}
        for _ in range(2):
            refined = wl_refine(g, labels)
            assert refined == _round_from_formats_doc(labels, g.edges)
            labels = refined
