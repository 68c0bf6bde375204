"""Dynamic-programming kernels: edit distance, LCS and the aligner.

Callers pass token sequences; interning to integer ids happens here so
the DP loops only ever compare ints.  The aligner takes -1 (_MASK) for
mask slots.
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


def _levenshtein(a: list[int], b: list[int]) -> int:
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    prev = list(range(m + 1))
    cur = [0] * (m + 1)
    for i in range(1, len(a) + 1):
        ai = a[i - 1]
        cur[0] = i
        for j in range(1, m + 1):
            best = prev[j - 1] + (ai != b[j - 1])
            if prev[j] + 1 < best:
                best = prev[j] + 1
            if cur[j - 1] + 1 < best:
                best = cur[j - 1] + 1
            cur[j] = best
        prev, cur = cur, prev
    return prev[m]


def _lcs(a: list[int], b: list[int]) -> int:
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    prev = [0] * (m + 1)
    cur = [0] * (m + 1)
    for i in range(1, len(a) + 1):
        ai = a[i - 1]
        for j in range(1, m + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = prev[j] if prev[j] >= cur[j - 1] else cur[j - 1]
        prev, cur = cur, prev
        cur[0] = 0
    return prev[m]


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
