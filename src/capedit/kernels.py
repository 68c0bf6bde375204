"""Sequence kernels: edit distance, LCS and the aligner.

Callers pass token sequences; interning to dense integer ids happens
here, so the kernels only ever compare ints and can index a list by id.

Edit distance and LCS are bit-parallel: one Python int holds a whole
DP column of the longer sequence as a bit vector, so a pair costs
O(n * ceil(m / w)) word operations (w = the int digit width) with no
blocking, since Python ints have arbitrary width.
  - edit distance: G. Myers, "A fast bit-vector algorithm for
    approximate string matching based on dynamic programming",
    JACM 46(3), 1999, in the formulation of H. Hyyro, 2001;
  - LCS: L. Allison and T. I. Dix, "A bit-string
    longest-common-subsequence algorithm", IPL 23(5), 1986, in the
    formulation of H. Hyyro, "Bit-parallel LCS-length computation
    revisited", 2004.

The aligner stays a full-table DP: it must read back one alignment
under a fixed tie-break, which needs every cell.  It takes -1 (_MASK)
for mask slots.
"""

from __future__ import annotations

from collections.abc import Sequence

_MASK = -1

# aligner op codes
OP_MATCH = 0
OP_SUB = 1
OP_DEL = 2
OP_INS = 3
OP_MASK = 4


def backend() -> str:
    """Name of the kernel implementation; there is one, 'python'."""
    return "python"


def _intern(a: Sequence[str], b: Sequence[str]) -> tuple[list[int], list[int]]:
    ids: dict[str, int] = {}
    ia = [ids.setdefault(t, len(ids)) for t in a]
    ib = [ids.setdefault(t, len(ids)) for t in b]
    return ia, ib


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Unit-cost edit distance between two token sequences."""
    ia, ib = _intern(a, b)
    return _levenshtein(ia, ib)


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of two token sequences."""
    ia, ib = _intern(a, b)
    return _lcs(ia, ib)


def dsa_ops(ref: Sequence[str | None], hyp: Sequence[str]) -> tuple[int, list[tuple]]:
    """Run the aligner; None entries in ref are mask slots.

    Returns (cost, ops); see _dsa for the op encoding.
    """
    ids: dict[str, int] = {}
    x = [_MASK if t is None else ids.setdefault(t, len(ids)) for t in ref]
    y = [ids.setdefault(t, len(ids)) for t in hyp]
    return _dsa(x, y)


def _match_masks(a: list[int], size: int) -> list[int]:
    """Bit i of masks[t] is set when a[i] == t, for every id t < size.

    _intern numbers tokens densely from 0, so every id of a pair is
    below the pair's total length.
    """
    masks = [0] * size
    bit = 1
    for t in a:
        masks[t] |= bit
        bit <<= 1
    return masks


def _levenshtein(a: list[int], b: list[int]) -> int:
    """Myers' bit-vector edit distance, in Hyyro's formulation.

    Column j of the DP over the longer sequence a is held as two bit
    vectors of vertical deltas, pv (+1) and mv (-1); the score is the
    bottom cell, which moves with the top bit of the horizontal deltas.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(a)
    if not b:
        return m
    peq = _match_masks(a, m + len(b))
    mask = (1 << m) - 1
    top = 1 << (m - 1)
    pv = mask
    mv = 0
    score = m
    for t in b:
        eq = peq[t]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (mask ^ (xh | pv))
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def _lcs(a: list[int], b: list[int]) -> int:
    """Allison-Dix / Hyyro bit-vector LCS over the longer sequence a.

    After each token of b, bit i of v is 0 exactly where the LCS of
    a[:i + 1] with the prefix of b read so far exceeds that of a[:i],
    so the zero bits count the LCS.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    peq = _match_masks(a, len(a) + len(b))
    v = mask = (1 << len(a)) - 1
    for t in b:
        u = v & peq[t]
        v = ((v + u) | (v - u)) & mask
    return len(a) - v.bit_count()


def _dsa(x: list[int], y: list[int]) -> tuple[int, list[tuple]]:
    """Align a mask-bearing reference x against a hypothesis y.

    Masks (id -1) absorb a contiguous, possibly empty run of hypothesis
    tokens at zero cost; match costs 0, substitution / deletion /
    insertion cost 1.  Returns (cost, ops) with ops in forward order:
    (OP_MATCH, i, j), (OP_SUB, i, j), (OP_DEL, i), (OP_INS, j),
    (OP_MASK, i, js, je) meaning the mask at x[i] absorbed y[js:je].

    Tie-break among minimum-cost alignments, applied greedily from the
    left: longest mask absorption first, then match, substitution,
    deletion, insertion.
    """
    n, m = len(x), len(y)
    w = m + 1
    # suffix costs: S[i*w + j] = min cost aligning x[i:] with y[j:]
    S = [0] * ((n + 1) * w)
    base = n * w
    for j in range(m + 1):
        S[base + j] = m - j
    for i in range(n - 1, -1, -1):
        xi = x[i]
        row = i * w
        nxt = row + w
        if xi == _MASK:
            S[row + m] = S[nxt + m]
            for j in range(m - 1, -1, -1):
                a = S[nxt + j]
                b = S[row + j + 1]
                S[row + j] = a if a < b else b
        else:
            S[row + m] = S[nxt + m] + 1
            for j in range(m - 1, -1, -1):
                best = S[nxt + j + 1] + (xi != y[j])
                alt = S[nxt + j] + 1
                if alt < best:
                    best = alt
                alt = S[row + j + 1] + 1
                if alt < best:
                    best = alt
                S[row + j] = best

    ops: list[tuple] = []
    i = j = 0
    while i < n or j < m:
        cur = S[i * w + j]
        if i < n and x[i] == _MASK:
            nxt = (i + 1) * w
            for k in range(m - j, -1, -1):
                if S[nxt + j + k] == cur:
                    ops.append((OP_MASK, i, j, j + k))
                    i += 1
                    j += k
                    break
            continue
        if i < n and j < m and x[i] == y[j] and S[(i + 1) * w + j + 1] == cur:
            ops.append((OP_MATCH, i, j))
            i += 1
            j += 1
            continue
        if i < n and j < m and S[(i + 1) * w + j + 1] + 1 == cur:
            ops.append((OP_SUB, i, j))
            i += 1
            j += 1
            continue
        if i < n and S[(i + 1) * w + j] + 1 == cur:
            ops.append((OP_DEL, i))
            i += 1
            continue
        ops.append((OP_INS, j))
        j += 1
    return S[0], ops
