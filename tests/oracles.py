"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths: the word tokenizer
as a whitespace split with punctuation peeled off each chunk's edges,
plain recursion for edit distance, subsequence enumeration for LCS, the cell-by-cell
two-row DPs for both (fast enough for long random inputs),
exhaustive monotone alignment enumeration (iterative deepening) for
the aligner, a list-based multiset calculator for SARI, the claim
sets and reassignment of balancing as one branch per kind, a balancer
that rescans every donor pool with those claim sets on every move, a
similarity join that scores every ordered pair of videos, the
maximal-branch filter of degrade as a check of every candidate pair, a
two-pass evaluator that rescores every unit for each report row with
Counter arithmetic for SARI and BLEU and each kind's report label
written out, the aligner as a full-table DP,
the SARI/BLEU overlap counts from per-order dict counts, the del
span recovery as a backtracking search, and the dataset record as the
dict that json.dumps(..., ensure_ascii=False) writes (the wire-format
reference for io's line encoder).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace

from capedit import text as text_mod
from capedit.commands import MASK_TOKEN, Command, CommandKind, Operation, kind
from capedit.construction import ConstructionConfig, EditSample, _content_tokens, _jaccard
from capedit.metrics import (
    MetricReport,
    MetricRow,
    _Overlap,
    attr_acc,
    len_acc,
    pos_acc,
    rouge_l_score,
)
from capedit.text import LanguageMode, detokenize, join


def tokenize_words_split(text: str) -> tuple[str, ...]:
    """Word-mode tokens: str.split() chunks, each with its leading and
    trailing text.PUNCT_CHARS detached as single-char tokens."""
    out: list[str] = []
    for chunk in text.split():
        lead: list[str] = []
        while chunk and chunk[0] in text_mod.PUNCT_CHARS:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and chunk[-1] in text_mod.PUNCT_CHARS:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        out.extend(lead + ([chunk] if chunk else []) + trail[::-1])
    return tuple(out)


def edit_distance_recursive(a, b) -> int:
    """Unit-cost edit distance by plain recursion, no memoization."""

    def rec(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        best = rec(i + 1, j + 1) + (a[i] != b[j])
        d = rec(i + 1, j) + 1
        if d < best:
            best = d
        ins = rec(i, j + 1) + 1
        if ins < best:
            best = ins
        return best

    return rec(0, 0)


def lcs_enumeration(a, b) -> int:
    """LCS length by enumerating every subsequence of the shorter side."""
    if len(a) > len(b):
        a, b = b, a
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        if len(sub) <= best:
            continue
        it = iter(b)
        if all(tok in it for tok in sub):
            best = len(sub)
    return best


def levenshtein_dp(a, b) -> int:
    """Unit-cost edit distance by the O(n*m) two-row DP."""
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


def lcs_dp(a, b) -> int:
    """LCS length by the O(n*m) two-row DP."""
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


def align_oracle(x, y):
    """Best monotone alignment of x (None = mask slot) against y.

    Enumerates every monotone alignment by iterative deepening on the
    total cost, so only minimum-cost alignments survive, then picks the
    tie-break winner: the alignment whose per-step rank sequence is
    lexicographically smallest, with ranks (0, skipped) for a mask
    absorption (longer runs first), then match 1, substitution 2,
    deletion 3, insertion 4, read from the left.

    Returns (cost, mask_spans, matched_pairs).
    """
    n, m = len(x), len(y)

    def search(bound: int):
        found = []
        ranks: list = []
        spans: list = []
        pairs: list = []

        def rec(i: int, j: int, cost: int) -> None:
            if i == n and j == m:
                found.append((tuple(ranks), tuple(spans), tuple(pairs)))
                return
            if i < n and x[i] is None:
                rem = m - j
                for k in range(rem + 1):
                    ranks.append((0, rem - k))
                    spans.append((j, j + k))
                    rec(i + 1, j + k, cost)
                    spans.pop()
                    ranks.pop()
                if j < m and cost + 1 <= bound:
                    ranks.append((4, 0))
                    rec(i, j + 1, cost + 1)
                    ranks.pop()
                return
            if i < n and j < m:
                if x[i] == y[j]:
                    ranks.append((1, 0))
                    pairs.append((i, j))
                    rec(i + 1, j + 1, cost)
                    pairs.pop()
                    ranks.pop()
                elif cost + 1 <= bound:
                    ranks.append((2, 0))
                    rec(i + 1, j + 1, cost + 1)
                    ranks.pop()
            if i < n and cost + 1 <= bound:
                ranks.append((3, 0))
                rec(i + 1, j, cost + 1)
                ranks.pop()
            if j < m and cost + 1 <= bound:
                ranks.append((4, 0))
                rec(i, j + 1, cost + 1)
                ranks.pop()

        rec(0, 0, 0)
        return found

    bound = 0
    while True:
        found = search(bound)
        if found:
            break
        bound += 1
        if bound > n + m + 1:
            raise AssertionError("alignment search failed to terminate")
    _, spans, pairs = min(found)
    return bound, spans, pairs


def _ngram_list(tokens, n: int) -> list:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _multiset_and(a: list, b: list) -> list:
    rest = list(b)
    out = []
    for item in a:
        if item in rest:
            out.append(item)
            rest.remove(item)
    return out


def _multiset_sub(a: list, b: list) -> list:
    out = list(a)
    for item in b:
        if item in out:
            out.remove(item)
    return out


def _f1(produced: list, expected: list) -> float:
    if not produced and not expected:
        return 1.0
    good = len(_multiset_and(produced, expected))
    precision = good / len(produced) if produced else 0.0
    recall = good / len(expected) if expected else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _precision(produced: list, expected: list) -> float:
    if not produced and not expected:
        return 1.0
    if not produced:
        return 0.0
    return len(_multiset_and(produced, expected)) / len(produced)


def sari_independent(source, hypothesis, truth) -> float:
    """List-based SARI mirror of the documented multiset semantics."""
    keep = delete = add = 0.0
    for n in range(1, 5):
        s = _ngram_list(source, n)
        c = _ngram_list(hypothesis, n)
        g = _ngram_list(truth, n)
        keep += _f1(_multiset_and(s, c), _multiset_and(s, g))
        delete += _precision(_multiset_sub(s, c), _multiset_sub(s, g))
        add += _f1(_multiset_sub(c, s), _multiset_sub(g, s))
    return (keep / 4.0 + delete / 4.0 + add / 4.0) / 3.0


KIND_LABELS = {
    CommandKind.ADD_LEN: "<add, -, ->",
    CommandKind.ADD_POS: "<add, pos, ->",
    CommandKind.ADD_ATTR: "<add, -, attr>",
    CommandKind.ADD_POS_ATTR: "<add, pos, attr>",
    CommandKind.DEL_LEN: "<del, -, ->",
    CommandKind.DEL_POS: "<del, pos, ->",
    CommandKind.DEL_ATTR: "<del, -, attr>",
}


def claim_kinds_table(sample, config: ConstructionConfig) -> set:
    """construction.claim_kinds with each kind's coarser kinds listed by
    hand: kinds the sample can be re-assigned to (its own plus coarser
    variants whose invariants it satisfies)."""
    k = kind(sample.command)
    out = {k}
    add_diff = len(sample.ground_truth) - len(sample.reference)
    del_diff = -add_diff
    if k is CommandKind.ADD_POS_ATTR:
        out |= {CommandKind.ADD_POS, CommandKind.ADD_ATTR}
        if add_diff > config.min_length_diff:
            out.add(CommandKind.ADD_LEN)
    elif k in (CommandKind.ADD_POS, CommandKind.ADD_ATTR):
        if add_diff > config.min_length_diff:
            out.add(CommandKind.ADD_LEN)
    elif k in (CommandKind.DEL_POS, CommandKind.DEL_ATTR):
        if del_diff > config.min_length_diff:
            out.add(CommandKind.DEL_LEN)
    return out


def reassign_branches(sample, target: CommandKind):
    """construction._reassign with one branch per target kind."""
    cmd = sample.command
    if target is CommandKind.ADD_POS:
        new_cmd = Command(Operation.ADD, cmd.positions, None)
        return replace(sample, command=new_cmd)
    if target is CommandKind.ADD_ATTR:
        new_cmd = Command(Operation.ADD, None, cmd.attributes)
        return replace(sample, command=new_cmd, payload=None)
    if target is CommandKind.ADD_LEN:
        return replace(sample, command=Command(Operation.ADD), payload=None)
    if target is CommandKind.DEL_LEN:
        return replace(sample, command=Command(Operation.DEL), payload=None)
    raise ValueError(f"cannot reassign to {target}")


def filter_and_balance_rescan(samples, config=None, seed: int = 0) -> list:
    """construction.filter_and_balance without cached claim sets: every
    move re-sorts the kinds by population and rebuilds the donor's
    movable list by calling claim_kinds_table on each pool member, and
    moves with reassign_branches."""
    config = config or ConstructionConfig()
    rng = random.Random(seed)

    kept = []
    for s in samples:
        if config.ppl_threshold is not None and s.ppl is not None and s.ppl > config.ppl_threshold:
            continue
        if config.max_edit_distance is not None:
            dist = text_mod.edit_distance(s.reference, s.ground_truth)
            if dist > config.max_edit_distance:
                continue
        kept.append(s)

    pools = {k: [] for k in CommandKind}
    for s in kept:
        pools[kind(s.command)].append(s)

    order = {k: i for i, k in enumerate(CommandKind)}
    while True:
        moved = False
        counts = {k: len(v) for k, v in pools.items()}
        for recipient in sorted(CommandKind, key=lambda k: (counts[k], order[k])):
            donors = sorted(CommandKind, key=lambda k: (-counts[k], order[k]))
            for donor in donors:
                if counts[donor] - counts[recipient] <= config.balance_tolerance:
                    break
                if donor is recipient:
                    continue
                movable = [
                    i
                    for i, s in enumerate(pools[donor])
                    if recipient in claim_kinds_table(s, config)
                ]
                if not movable:
                    continue
                idx = movable[rng.randrange(len(movable))]
                sample = pools[donor].pop(idx)
                pools[recipient].append(reassign_branches(sample, recipient))
                moved = True
                break
            if moved:
                break
        if not moved:
            break

    if config.max_per_kind is not None:
        for k in CommandKind:
            if len(pools[k]) > config.max_per_kind:
                keep_idx = sorted(rng.sample(range(len(pools[k])), config.max_per_kind))
                pools[k] = [pools[k][i] for i in keep_idx]

    return [s for k in CommandKind for s in pools[k]]


def maximal_branches_all_pairs(candidates) -> list:
    """construction.degrade's maximal (span, head) branches by checking
    each candidate against every other: those whose span no other span
    contains, sorted."""
    maximal = []
    for span, head in candidates:
        if any(
            other[0] <= span[0] and span[1] <= other[1] and other != span
            for other, _ in candidates
        ):
            continue
        maximal.append((span, head))
    maximal.sort()
    return maximal


def neighbors_all_pairs(groups, similarity_threshold: float) -> dict:
    """construction.build_del_length's similarity neighbors, scoring every
    ordered pair of videos: for each video, the others whose Jaccard
    similarity is at least the threshold, by descending similarity, then
    video id."""
    pools = {g.video_id: _content_tokens(g) for g in groups}
    neighbors = {}
    for g in groups:
        scored = []
        for other in groups:
            if other.video_id == g.video_id:
                continue
            sim = _jaccard(pools[g.video_id], pools[other.video_id])
            if sim >= similarity_threshold:
                scored.append((-sim, other.video_id))
        neighbors[g.video_id] = [vid for _, vid in sorted(scored)]
    return neighbors


def _grams(tokens, n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def _counter_f1(produced: Counter, expected: Counter) -> float:
    p_total = sum(produced.values())
    e_total = sum(expected.values())
    if p_total == 0 and e_total == 0:
        return 1.0
    g_total = sum((produced & expected).values())
    precision = g_total / p_total if p_total else 0.0
    recall = g_total / e_total if e_total else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _counter_precision(produced: Counter, expected: Counter) -> float:
    p_total = sum(produced.values())
    e_total = sum(expected.values())
    if p_total == 0 and e_total == 0:
        return 1.0
    if p_total == 0:
        return 0.0
    return sum((produced & expected).values()) / p_total


def sari_counter(source, hypothesis, truth) -> float:
    """SARI from Counter intersection and difference, summed in the
    same order as metrics.sari_score."""
    keep = delete = add = 0.0
    for n in range(1, 5):
        s = _grams(source, n)
        c = _grams(hypothesis, n)
        g = _grams(truth, n)
        keep += _counter_f1(s & c, s & g)
        delete += _counter_precision(s - c, s - g)
        add += _counter_f1(c - s, g - s)
    return (keep + delete + add) / 12.0


def bleu4_counter(units) -> float:
    """Corpus BLEU-4 that rebuilds each unit's n-gram Counters."""
    hyp_len = ref_len = 0
    matched = [0, 0, 0, 0]
    total = [0, 0, 0, 0]
    for unit in units:
        hyp = text_mod.normalized_tokens(unit.hypothesis)
        ref = text_mod.normalized_tokens(unit.sample.ground_truth)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            h = _grams(hyp, n)
            r = _grams(ref, n)
            total[n - 1] += sum(h.values())
            matched[n - 1] += sum((h & r).values())
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(4):
        if total[n] == 0:
            continue
        if matched[n] == 0:
            return 0.0
        log_sum += math.log(matched[n] / total[n])
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum / 4.0)


def _mean(values):
    if not values:
        return None
    return math.fsum(values) / len(values)


def _two_pass_row(kind_name: str, label: str, units, delta) -> MetricRow:
    n = len(units)
    len_hits = sum(1 for u in units if len_acc(u, delta))
    attr_values = [v for u in units if (v := attr_acc(u)) is not None]
    pos_values = [v for u in units if (v := pos_acc(u)) is not None]
    return MetricRow(
        kind=kind_name,
        label=label,
        count=n,
        len_acc=100.0 * len_hits / n,
        attr_acc=100.0 * sum(attr_values) / len(attr_values) if attr_values else None,
        pos_acc=100.0 * sum(pos_values) / len(pos_values) if pos_values else None,
        sari=math.fsum(
            sari_counter(
                text_mod.normalized_tokens(u.sample.reference),
                text_mod.normalized_tokens(u.hypothesis),
                text_mod.normalized_tokens(u.sample.ground_truth),
            )
            for u in units
        ) / n,
        bleu4=bleu4_counter(units),
        rouge_l=math.fsum(
            rouge_l_score(
                text_mod.normalized_tokens(u.hypothesis),
                text_mod.normalized_tokens(u.sample.ground_truth),
            )
            for u in units
        ) / n,
        mean_ppl=_mean([u.sample.ppl for u in units if u.sample.ppl is not None]),
        mean_emscore=_mean(
            [u.sample.emscore for u in units if u.sample.emscore is not None]
        ),
    )


def evaluate_corpus_two_pass(units, delta=1) -> MetricReport:
    """metrics.evaluate_corpus as it was before the one-pass engine:
    each per-kind row and the overall row rescore their units, with
    Counter-based SARI and BLEU."""
    by_kind = {}
    for u in units:
        by_kind.setdefault(kind(u.sample.command), []).append(u)
    rows = tuple(
        _two_pass_row(k.value, KIND_LABELS[k], by_kind[k], delta)
        for k in CommandKind
        if k in by_kind
    )
    return MetricReport(rows, _two_pass_row("overall", "Overall", units, delta))


# dsa_full_table's op codes
OP_MATCH = 0
OP_SUB = 1
OP_DEL = 2
OP_INS = 3
OP_MASK = 4


def dsa_full_table(x: list[str | None], y: list[str]) -> tuple[int, list[tuple]]:
    """kernels.dsa_ops as a full-table DP that spells out every step:
    align a mask-bearing reference x against a hypothesis y.

    Masks (None) absorb a contiguous, possibly empty run of hypothesis
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
        if xi is None:
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
        if i < n and x[i] is None:
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


def _counts(tokens: tuple[str, ...], n: int) -> dict:
    """Multiplicity of each n-gram; unigrams are keyed by the token itself."""
    out: dict = {}
    for gram in tokens if n == 1 else zip(*(tokens[i:] for i in range(n))):
        out[gram] = out.get(gram, 0) + 1
    return out


def overlap_counts_dicts(
    source: tuple[str, ...], hypothesis: tuple[str, ...], truth: tuple[str, ...]
) -> list[_Overlap]:
    """metrics._overlap_counts with dict counts: the integer statistics
    SARI and BLEU are built from, per order n = 1..4.  Each sequence's
    n-grams are counted once; one loop over S's keys and one over C's
    give every intersection through min/max identities, e.g.
    |(S - C) & (S - G)| sums max(s - max(c, g), 0)."""
    out = []
    for n in range(1, 5):
        s = _counts(source, n)
        c = _counts(hypothesis, n)
        g = _counts(truth, n)
        sc = sg = scg = deleted = 0
        for gram, sk in s.items():
            ck = c.get(gram, 0)
            gk = g.get(gram, 0)
            kept_c = sk if sk < ck else ck
            kept_g = sk if sk < gk else gk
            sc += kept_c
            sg += kept_g
            if kept_c < kept_g:
                scg += kept_c
                deleted += sk - kept_g
            else:
                scg += kept_g
                deleted += sk - kept_c
        cg = added = 0
        for gram, ck in c.items():
            gk = g.get(gram)
            if gk:
                both = ck if ck < gk else gk
                cg += both
                sk = s.get(gram, 0)
                if both > sk:
                    added += both - sk
        out.append(
            _Overlap(
                max(len(source) - n + 1, 0),
                max(len(hypothesis) - n + 1, 0),
                max(len(truth) - n + 1, 0),
                sc, sg, scg, deleted, added, cg,
            )
        )
    return out


def recover_del_spans_backtracking(
    original: tuple[str, ...], posref: tuple[str, ...]
) -> list[tuple[int, int]] | None:
    """Map each [MASK] in posref to a removed span of the original.

    Backtracking search preferring the shortest (leftmost) span at each
    mask; None when the positioned reference is inconsistent with the
    original caption.  Exponential in the number of masks.
    """

    def rec(oi: int, pi: int, acc: list[tuple[int, int]]):
        if pi == len(posref):
            return list(acc) if oi == len(original) else None
        tok = posref[pi]
        if tok == MASK_TOKEN:
            for ln in range(1, len(original) - oi + 1):
                acc.append((oi, oi + ln))
                hit = rec(oi + ln, pi + 1, acc)
                acc.pop()
                if hit is not None:
                    return hit
            return None
        if oi < len(original) and original[oi] == tok:
            return rec(oi + 1, pi + 1, acc)
        return None

    return rec(0, 0, [])


def _command_to_wire(cmd: Command, mode: LanguageMode) -> dict:
    out: dict = {"op": cmd.op.value}
    if cmd.positions is not None:
        if cmd.op is Operation.ADD:
            out["positions"] = list(cmd.positions)
        else:
            out["positions"] = [[s, e] for s, e in cmd.positions]
    if cmd.attributes is not None:
        out["attributes"] = [join(p, mode) for p in cmd.attributes]
    return out


def sample_to_wire(sample: EditSample) -> dict:
    out: dict = {
        "id": sample.id,
        "video_id": sample.video_id,
        "lang": sample.mode.value,
        "command": _command_to_wire(sample.command, sample.mode),
        "reference": detokenize(sample.reference),
        "ground_truth": detokenize(sample.ground_truth),
    }
    if sample.payload is not None:
        out["payload"] = [join(span, sample.mode) for span in sample.payload]
    aux = {}
    if sample.ppl is not None:
        aux["ppl"] = sample.ppl
    if sample.emscore is not None:
        aux["emscore"] = sample.emscore
    if aux:
        out["aux"] = aux
    out["provenance"] = sample.provenance.value
    return out
