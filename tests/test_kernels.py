"""The kernel facade: token interning and the aligner's edge shapes."""

import pytest

from capedit import kernels
from oracles import align_oracle


def test_facade_interning_handles_arbitrary_tokens():
    assert kernels.backend() == "python"
    assert kernels.edit_distance(("a", "b"), ("b", "a")) == 2
    assert kernels.lcs_length(("a", "b", "c"), ("b", "c", "d")) == 2
    cost, ops = kernels.dsa_ops(("a", None, "b"), ("a", "x", "b"))
    assert cost == 0
    assert (kernels.OP_MASK, 1, 1, 2) in ops


@pytest.mark.parametrize(
    "ref, hyp",
    [
        ([], []),
        ([], ["a", "b"]),
        (["a", "b"], []),
        ([None], []),
        ([None], ["a", "b", "c"]),
        ([None, None], ["a"]),
        (["a", None, "a"], ["a", "a"]),
    ],
)
def test_dsa_edge_shapes_match_oracle(ref, hyp):
    cost, ops = kernels.dsa_ops(ref, hyp)
    spans = tuple((op[2], op[3]) for op in ops if op[0] == kernels.OP_MASK)
    pairs = tuple((op[1], op[2]) for op in ops if op[0] == kernels.OP_MATCH)
    assert (cost, spans, pairs) == align_oracle(ref, hyp)
    # the ops consume every reference and hypothesis position once, in order
    assert [op[1] for op in ops if op[0] != kernels.OP_INS] == list(range(len(ref)))
    consumed = []
    for op in ops:
        if op[0] == kernels.OP_INS:
            consumed.append(op[1])
        elif op[0] == kernels.OP_MASK:
            consumed.extend(range(op[2], op[3]))
        elif op[0] != kernels.OP_DEL:
            consumed.append(op[2])
    assert consumed == list(range(len(hyp)))
