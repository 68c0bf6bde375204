"""Sequence kernels: edit distance, LCS and the aligner.

Callers pass token sequences, and the kernels compare the tokens
themselves.  Each bit-parallel DP reads one table, Myers' Peq
(_match_masks): a dict from token to the bit mask of where the token
occurs in one sequence, so a token of the other sequence looks its
mask up with no dense ids.  (metrics._overlap_counts does intern
tokens to dense ids, because its n-gram keys are arithmetic on them.)

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

The aligner must read back one alignment under a fixed tie-break,
which needs every cell of its table.  It keeps every cell as row
deltas: each row is its last cell plus two bit vectors, the +1 and -1
steps between neighbouring cells, computed by the same Myers step (a
token row) or as a running minimum over the set bits (a mask row), so
the table holds 2 * (n + 1) * m bits.  None marks a mask slot.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

# aligner op codes
OP_MATCH = 0
OP_SUB = 1
OP_DEL = 2
OP_INS = 3
OP_MASK = 4


def backend() -> str:
    """Name of the kernel implementation; there is one, 'python'."""
    return "python"


def _match_masks(a: Sequence[Hashable]) -> dict:
    """Myers' Peq table of a: bit i of masks[t] is set when a[i] == t.
    A token absent from a has no entry; read it as masks.get(t, 0)."""
    masks: dict = {}
    bit = 1
    for t in a:
        masks[t] = masks.get(t, 0) | bit
        bit <<= 1
    return masks


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Unit-cost edit distance between two token sequences.

    Myers' bit-vector algorithm in Hyyro's formulation: column j of the
    DP over the longer sequence a is held as two bit vectors of
    vertical deltas, pv (+1) and mv (-1); the score is the bottom cell,
    which moves with the top bit of the horizontal deltas.
    """
    if len(a) < len(b):
        a, b = b, a
    return _myers_distance(_match_masks(a), len(a), b)


def _myers_distance(peq: dict, m: int, b: Sequence[str]) -> int:
    """Edit distance between b and a sequence a of length m >= len(b)
    whose Peq table is peq = _match_masks(a): edit_distance's bit loop,
    for a caller that measures several sequences against one a and so
    builds its table once."""
    if not b:
        return m
    mask = (1 << m) - 1
    top = 1 << (m - 1)
    pv = mask
    mv = 0
    score = m
    for t in b:
        eq = peq.get(t, 0)
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


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of two token sequences.

    Allison-Dix / Hyyro bit-vector LCS over the longer sequence a: after
    each token of b, bit i of v is 0 exactly where the LCS of a[:i + 1]
    with the prefix of b read so far exceeds that of a[:i], so the zero
    bits count the LCS.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    peq = _match_masks(a)
    v = mask = (1 << len(a)) - 1
    for t in b:
        u = v & peq.get(t, 0)
        v = ((v + u) | (v - u)) & mask
    return len(a) - v.bit_count()


def dsa_ops(ref: Sequence[str | None], hyp: Sequence[str]) -> tuple[int, list[tuple]]:
    """Align a mask-bearing reference against a hypothesis; None entries
    in ref are mask slots.

    Masks absorb a contiguous, possibly empty run of hypothesis tokens
    at zero cost; match costs 0, substitution / deletion / insertion
    cost 1.  Returns (cost, ops) with ops in forward order:
    (OP_MATCH, i, j), (OP_SUB, i, j), (OP_DEL, i), (OP_INS, j),
    (OP_MASK, i, js, je) meaning the mask at ref[i] absorbed hyp[js:je].

    Tie-break among minimum-cost alignments, applied greedily from the
    left: longest mask absorption first, then match, substitution,
    deletion, insertion.

    The suffix table S[i][j] (min cost aligning ref[i:] with hyp[j:]) is
    kept row by row as E[i] = S[i][m] and two bit vectors over the
    reversed hypothesis: bit m-1-j of P[i] is set when
    S[i][j] - S[i][j+1] is +1, of M[i] when it is -1.  Every delta of
    every row is in {-1, 0, +1}, so a token row is one Myers / Hyyro
    step (see edit_distance) with a +1 top boundary, and a mask row,
    the running minimum of the row below it, keeps each -1 step that
    reaches a new low.  A cell is E[i] plus the deltas below its bit.
    """
    n, m = len(ref), len(hyp)
    peq = _match_masks(hyp[::-1])
    mask = (1 << m) - 1
    E = [0] * (n + 1)
    P = [0] * (n + 1)
    M = [0] * (n + 1)
    e, pv, mv = 0, mask, 0  # row n: S[n][j] = m - j
    P[n] = pv
    for i in range(n - 1, -1, -1):
        xi = ref[i]
        if xi is None:
            level = low = 0
            steps = pv | mv
            keep = 0
            while steps:
                bit = steps & -steps
                steps ^= bit
                if bit & mv:
                    level -= 1
                    if level < low:
                        low = level
                        keep |= bit
                else:
                    level += 1
            pv, mv = 0, keep
        else:
            e += 1
            eq = peq.get(xi, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (mask ^ (xh | pv))
            mh = pv & xh
            ph = (ph << 1) | 1
            pv = ((mh << 1) | ~(xv | ph)) & mask
            mv = ph & xv
        E[i] = e
        P[i] = pv
        M[i] = mv

    ops: list[tuple] = []
    i = j = 0
    while i < n or j < m:
        low = (1 << (m - j)) - 1  # the steps right of column j
        cur = E[i] + (P[i] & low).bit_count() - (M[i] & low).bit_count()
        if i < n:
            e, pv, mv = E[i + 1], P[i + 1], M[i + 1]
        if i < n and ref[i] is None:
            for k in range(m - j, -1, -1):
                part = (1 << (m - j - k)) - 1
                if e + (pv & part).bit_count() - (mv & part).bit_count() == cur:
                    ops.append((OP_MASK, i, j, j + k))
                    i += 1
                    j += k
                    break
            continue
        if i < n and j < m:
            part = low >> 1
            diag = e + (pv & part).bit_count() - (mv & part).bit_count()
            if ref[i] == hyp[j] and diag == cur:
                ops.append((OP_MATCH, i, j))
                i += 1
                j += 1
                continue
            if diag + 1 == cur:
                ops.append((OP_SUB, i, j))
                i += 1
                j += 1
                continue
        if i < n and e + (pv & low).bit_count() - (mv & low).bit_count() + 1 == cur:
            ops.append((OP_DEL, i))
            i += 1
            continue
        ops.append((OP_INS, j))
        j += 1
    return E[0] + P[0].bit_count() - M[0].bit_count(), ops
