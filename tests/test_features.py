import random
import statistics
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddghash import features
from ddghash.blocks import segment
from ddghash.ddg import InstructionFamilyPolicy, LabelMode, build_ddg
from ddghash.disasm import parse_listing_with_report
from ddghash.errors import IncompatibleCorpora
from ddghash.features import (FeatureParams, ProgramFeatureSet, compare,
                              five_number_summary, make_feature_set)
from ddghash.wlhash import wl_hash

from fixtures import make_listing

DATA = Path(__file__).parent / "data"
PARAMS = FeatureParams()


def fake_set(program_id, hashes, params=PARAMS):
    return ProgramFeatureSet(program_id=program_id, params=params,
                             diagnostics={}, hashes=frozenset(hashes))


def _h(i):
    return f"{i:032x}"


def test_reference_cardinalities():
    a = fake_set("ls", {_h(i) for i in range(1, 235)})
    b = fake_set("zeus", {_h(i) for i in range(122, 744)})
    rep = compare(a, b)
    assert rep.size_a == 234
    assert rep.size_b == 622
    assert rep.intersection == 113
    assert rep.diff_a_minus_b == 121
    assert rep.diff_b_minus_a == 509
    assert rep.union == 743
    assert rep.jaccard == Fraction(113, 743)
    assert f"{float(rep.jaccard):.3f}" == "0.152"


def test_self_comparison():
    a = fake_set("x", {_h(i) for i in range(40)})
    rep = compare(a, a)
    assert rep.jaccard == 1
    assert rep.containment_a_in_b == 1
    assert rep.containment_b_in_a == 1
    assert rep.diff_a_minus_b == rep.diff_b_minus_a == 0


def test_strict_subset():
    a = fake_set("inner", {_h(i) for i in range(50)})
    b = fake_set("outer", {_h(i) for i in range(80)})
    rep = compare(a, b)
    assert rep.containment_a_in_b == 1
    assert rep.jaccard == Fraction(50, 80)
    assert rep.jaccard < 1


def test_incompatible_params_rejected():
    a = fake_set("a", {_h(1)})
    b = fake_set("b", {_h(1)},
                 params=FeatureParams(label_mode=LabelMode.LITERAL))
    with pytest.raises(IncompatibleCorpora):
        compare(a, b)
    c = fake_set("c", {_h(1)}, params=FeatureParams(wl_iterations=4))
    with pytest.raises(IncompatibleCorpora):
        compare(a, c)


def test_identities_on_random_pairs():
    rng = random.Random(271828)
    for _ in range(300):
        ha = {_h(rng.randrange(60)) for _ in range(rng.randint(1, 40))}
        hb = {_h(rng.randrange(60)) for _ in range(rng.randint(1, 40))}
        a, b = fake_set("a", ha), fake_set("b", hb)
        r = compare(a, b)
        assert r.union == r.size_a + r.size_b - r.intersection
        assert r.diff_a_minus_b == r.size_a - r.intersection
        assert r.diff_b_minus_a == r.size_b - r.intersection
        assert r.jaccard == compare(b, a).jaccard
        assert 0 <= r.jaccard <= min(r.containment_a_in_b, r.containment_b_in_a) <= 1
        assert compare(a, a).jaccard == 1


def _segment_all(text):
    blocks = []
    for fn in parse_listing_with_report(text)[0]:
        blocks.extend(segment(fn, first_id=len(blocks)))
    return blocks


def test_make_feature_set_dedup_and_empty_blocks():
    text = make_listing([
        ("f1", ["mov eax, ebx", "ret"]),
        ("f2", ["mov eax, ebx", "ret"]),
        ("f3", ["add eax, 1", "ret"]),  # empty DDG
    ])
    fs, block_map, _ = make_feature_set("p", _segment_all(text), PARAMS,
                                        {"functions": 3})
    assert len(block_map) == 2
    assert len(fs.hashes) == 1
    assert fs.diagnostics["functions"] == 3
    assert fs.diagnostics["empty_ddgs"] == 1
    assert fs.diagnostics["duplicate_hashes"] == 1


def test_make_feature_set_order_edges_and_exits():
    text = make_listing([("f", [
        "mov    eax, ebx",   # block 0: je to the very next block
        "je     1008",
        "mov    ecx, edx",   # block 1: indirect jump
        "jmp    rax",
        "add    eax, 1",     # block 2: empty DDG, external jump
        "jmp    9000",
        "mov    edx, esi",   # block 3: dangling conditional jump
        "jne    1001",
        "mov    esi, edi",   # block 4
        "ret",
    ])])
    blocks = _segment_all(text)
    assert blocks[0].successors == frozenset({1})
    made = make_feature_set("p", blocks, PARAMS, {})
    fs, block_map, order_edges = made
    assert sorted(block_map) == [0, 1, 3, 4]
    assert order_edges == {(0, 1), (3, 4)}
    diag = fs.diagnostics
    # the jump and the fall-through of block 0 are one pair; nothing is dropped
    assert diag["dropped_order_edges"] == 0
    assert (diag["indirect_transfers"], diag["external_targets"],
            diag["dangling_targets"]) == (1, 1, 1)
    assert diag["blocks"] == 5 and diag["empty_ddgs"] == 1
    # one pass over any iterable: an iterator gives the list's feature set
    assert make_feature_set("p", iter(blocks), PARAMS, {}) == made


@pytest.mark.parametrize("policy", list(InstructionFamilyPolicy))
@pytest.mark.parametrize("mode", list(LabelMode))
def test_block_map_holds_each_graphs_own_hash(mode, policy, monkeypatch):
    params = FeatureParams(label_mode=mode, policy=policy)
    calls = []

    def counted(graph, iterations):
        calls.append(graph)
        return wl_hash(graph, iterations)

    monkeypatch.setattr(features, "wl_hash", counted)
    for name in ("true_att", "true_intel"):
        blocks = _segment_all((DATA / f"{name}.objdump").read_text())
        calls.clear()
        fs, block_map, _ = make_feature_set(name, blocks, params, {})
        graphs = [(b, build_ddg(b, policy, mode)) for b in blocks]
        assert block_map == {b.id: wl_hash(g, params.wl_iterations)
                             for b, g in graphs if len(g)}
        assert fs.hashes == frozenset(block_map.values())
        # one hash per distinct (labels, edges) key, not one per block
        assert len(calls) == fs.distinct_graphs < len(block_map)


def test_zero_nonempty_ddgs_is_valid():
    fs = fake_set("empty", set())
    assert fs.hashes == frozenset()
    rep = compare(fs, fake_set("other", {_h(1)}))
    assert rep.jaccard == 0


def test_five_number_summary():
    vals = [Fraction(8, 125), Fraction(51, 250), Fraction(27, 100)]
    s = five_number_summary(vals)
    assert s["min"] == Fraction(8, 125)
    assert s["median"] == Fraction(51, 250)
    assert s["max"] == Fraction(27, 100)
    assert s["count"] == 3


def test_five_number_summary_of_no_values():
    with pytest.raises(ValueError, match="^no values to summarize$"):
        five_number_summary([])


def test_five_number_summary_orders_values_that_round_to_one_float():
    # all round to float(1/3); given largest first, so an order by the
    # float alone would leave them as given
    third = Fraction(1, 3)
    vals = [third + Fraction(k, 10**18) for k in (3, 2, 1, 0, -1, -2)]
    vals.append(Fraction(3333333333333333, 10**16))
    assert len({float(v) for v in vals}) == 1
    data = sorted(vals)
    q1, med, q3 = statistics.quantiles(data, n=4, method="inclusive")
    assert five_number_summary(vals) == {
        "count": 7, "min": data[0], "q1": q1, "median": med, "q3": q3,
        "max": data[-1]}


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=6),
                min_size=1, max_size=60))
def test_five_number_summary_quartiles_are_statistics_quantiles(vals):
    # denominators up to 6 draw few distinct values, so most lists hold ties
    s = five_number_summary(vals)
    if len(vals) == 1:  # statistics.quantiles wants two values before 3.13
        assert s == {"count": 1, **dict.fromkeys(
            ("min", "q1", "median", "q3", "max"), vals[0])}
        return
    q1, med, q3 = statistics.quantiles(sorted(vals), n=4, method="inclusive")
    assert (s["q1"], s["median"], s["q3"]) == (q1, med, q3)
