"""Edit-aware and text-overlap evaluation.

Edit-aware checks:

* length accuracy: adds must lengthen by at least delta tokens, dels
  must shorten by at least delta (delta defaults to 1);
* attribute accuracy: every commanded attribute phrase present (adds)
  or absent (dels) as a contiguous normalized token subsequence;
* positional accuracy: judged only for add commands with explicit
  gaps; every mask span found by the aligner must be non-empty.

Text-overlap scores: SARI (keep/delete/add n-gram F over n=1..4
against source and ground truth, multiset semantics), corpus-level
BLEU-4 (uniform weights, clipped counts, brevity penalty, no
smoothing), and ROUGE-L (LCS F-measure with beta = 1.2).  Perplexity
and EMScore are ingested from sample records, never computed.

evaluate_corpus makes one pass over any iterable of units: each unit
is normalized and scored once, straight into its kind's sufficient
statistics (hits, SARI, ROUGE-L, lengths, BLEU's clipped matches and
n-gram totals per order, ppl, EMScore), and the overall row merges the
kind sums; every report row is built from such sums.  No unit is kept
after it is scored, so a generator of units is evaluated in memory
that grows only with the float values kept for math.fsum.  SARI and
BLEU share one n-gram count per sequence and order, held as sets of
int-keyed occurrences whose intersections give every statistic.
Integer counts sum exactly and the float means use math.fsum, which
is correctly rounded, so neither shuffling the corpus nor grouping it
by kind changes a reported number.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple

from capedit import kernels
from capedit.alignment import dsa_align, mask_span_lengths
from capedit.commands import (
    CommandKind,
    Operation,
    attributes_hold,
    kind,
    make_positioned_reference,
)
from capedit.construction import EditSample
from capedit.text import TokenSeq, normalize, normalized_tokens

ROUGE_BETA = 1.2


@dataclass(frozen=True)
class EvalUnit:
    """One sample paired with a hypothesis caption."""

    sample: EditSample
    hypothesis: TokenSeq

    def __post_init__(self) -> None:
        if self.hypothesis.mode is not self.sample.mode:
            raise ValueError("hypothesis language mode differs from the sample")


def len_acc(unit: EvalUnit, delta: int = 1) -> bool:
    ref_len = len(unit.sample.reference)
    hyp_len = len(unit.hypothesis)
    if unit.sample.command.op is Operation.ADD:
        return hyp_len >= ref_len + delta
    return hyp_len <= ref_len - delta


def attr_acc(unit: EvalUnit) -> bool | None:
    """True/False for attribute kinds, None (not applicable) otherwise."""
    return _attr_hit(unit, normalized_tokens(unit.hypothesis))


def _attr_hit(unit: EvalUnit, hay: tuple[str, ...]) -> bool | None:
    """attr_acc with the hypothesis already normalized as hay."""
    command = unit.sample.command
    if command.attributes is None:
        return None
    mode = unit.hypothesis.mode
    return attributes_hold(command.op, [normalize(p, mode) for p in command.attributes], hay)


def pos_acc(unit: EvalUnit) -> bool | None:
    """True/False for add commands with gaps, None otherwise."""
    command = unit.sample.command
    if command.op is not Operation.ADD or command.positions is None:
        return None
    posref = make_positioned_reference(unit.sample.reference, command)
    result = dsa_align(posref, unit.hypothesis)
    return all(n > 0 for n in mask_span_lengths(result))


class _Overlap(NamedTuple):
    """Multiset sizes for one n-gram order; S, C and G are the n-gram
    multisets of the source, the hypothesis and the truth."""

    s: int
    c: int
    g: int
    sc: int  # |S & C|
    sg: int  # |S & G|
    scg: int  # |S & C & G|
    deleted: int  # |(S - C) & (S - G)|
    added: int  # |(C - S) & (G - S)|
    cg: int  # |C & G|: BLEU's clipped matches


def _occurrences(keys: list[int], span: int) -> set[int]:
    """The multiset keys as a set: the k-th repeat of key g (every key
    is below span) becomes g + k * span, so that min(s, c) of two
    multiplicities is the size of the intersection."""
    out = set(keys)
    if len(out) < len(keys):
        for g, count in Counter(keys).items():
            if count > 1:
                out.update(range(g + span, g + count * span, span))
    return out


def _overlap_counts(
    source: tuple[str, ...], hypothesis: tuple[str, ...], truth: tuple[str, ...]
) -> list[_Overlap]:
    """The integer statistics SARI and BLEU are built from, per order
    n = 1..4.  The three sequences are interned into dense ids once; an
    order-n n-gram over v distinct tokens is the int key
    id_1 * v^(n-1) + ... + id_n.  With each multiset held as a set of
    occurrences (see _occurrences), |S & C|, |S & G|, |S & C & G| and
    |C & G| are sizes of set intersections, and inclusion-exclusion
    gives the rest: |(S - C) & (S - G)| = |S| - |S & C| - |S & G| +
    |S & C & G| and |(C - S) & (G - S)| = |C & G| - |S & C & G|."""
    ids: dict[str, int] = {}
    seqs = [[ids.setdefault(t, len(ids)) for t in seq] for seq in (source, hypothesis, truth)]
    v = len(ids)
    keys = seqs
    span = v
    out = []
    for n in range(1, 5):
        if n > 1:
            keys = [[g * v + t for g, t in zip(k, seq[n - 1 :])] for k, seq in zip(keys, seqs)]
            span *= v
        s, c, g = (_occurrences(k, span) for k in keys)
        sc = s & c
        sg = len(s & g)
        scg = len(sc & g)
        cg = len(c & g)
        out.append(
            _Overlap(
                len(s), len(c), len(g),
                len(sc), sg, scg, len(s) - len(sc) - sg + scg, cg - scg, cg,
            )
        )
    return out


def _f1(good: int, produced: int, expected: int) -> float:
    if produced == 0 and expected == 0:
        return 1.0
    precision = good / produced if produced else 0.0
    recall = good / expected if expected else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _precision(good: int, produced: int, expected: int) -> float:
    if produced == 0:
        return 1.0 if expected == 0 else 0.0
    return good / produced


def _sari(overlap: list[_Overlap]) -> float:
    keep = delete = add = 0.0
    for o in overlap:
        keep += _f1(o.scg, o.sc, o.sg)
        delete += _precision(o.deleted, o.s - o.sc, o.s - o.sg)
        add += _f1(o.added, o.c - o.sc, o.g - o.sg)
    return (keep + delete + add) / 12.0


def sari_score(
    source: tuple[str, ...], hypothesis: tuple[str, ...], truth: tuple[str, ...]
) -> float:
    """SARI over normalized token tuples, multiset semantics.

    Per n in 1..4 with n-gram multisets S (source), C (hypothesis) and
    G (truth): keep is F1 over S&C vs S&G, delete is precision over
    S-C vs S-G, add is F1 over C-S vs G-S.  A component with nothing
    produced and nothing expected scores 1, so a hypothesis equal to
    the truth always scores exactly 1.
    """
    return _sari(_overlap_counts(source, hypothesis, truth))


def rouge_l_score(hypothesis: tuple[str, ...], truth: tuple[str, ...]) -> float:
    """ROUGE-L F-measure with beta = 1.2; 0 when either side is empty."""
    if not hypothesis or not truth:
        return 0.0
    lcs = kernels.lcs_length(hypothesis, truth)
    precision = lcs / len(hypothesis)
    recall = lcs / len(truth)
    denom = recall + ROUGE_BETA**2 * precision
    if denom == 0.0:
        return 0.0
    return (1 + ROUGE_BETA**2) * precision * recall / denom


def _bleu(hyp_len: int, ref_len: int, matched, total) -> float:
    """Corpus-level BLEU-4, single reference, no smoothing, from summed
    lengths and per-order clipped matches and hypothesis n-gram totals.

    Orders with no hypothesis n-grams anywhere in the corpus contribute
    precision 1 (nothing to get wrong); an order with n-grams but zero
    clipped matches makes the score 0.
    """
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for m, t in zip(matched, total):
        if t == 0:
            continue
        if m == 0:
            return 0.0
        log_sum += math.log(m / t)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum / 4.0)


@dataclass(frozen=True)
class MetricRow:
    """One report row; None marks a not-applicable cell.  Accuracies
    are percentages in [0, 100], overlap scores are in [0, 1]."""

    kind: str
    label: str
    count: int
    len_acc: float
    attr_acc: float | None
    pos_acc: float | None
    sari: float
    bleu4: float
    rouge_l: float
    mean_ppl: float | None
    mean_emscore: float | None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MetricReport:
    rows: tuple[MetricRow, ...]
    overall: MetricRow

    def to_dict(self) -> dict:
        return {
            "per_kind": [r.to_dict() for r in self.rows],
            "overall": self.overall.to_dict(),
        }


def _percent(hits: int, total: int) -> float:
    return 100.0 * hits / total


def _mean(values: list[float]) -> float | None:
    """The mean by math.fsum; when the sum of finite values passes the
    float range, fsum raises OverflowError and an exact Fraction sum
    gives the mean, which is in range."""
    if not values:
        return None
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        from fractions import Fraction  # only this rare path needs it

        return float(sum(map(Fraction, values)) / len(values))


class _RowSums:
    """Sums of unit scores for one report row.  Counts are ints; SARI,
    ROUGE-L, ppl and EMScore values are kept for math.fsum."""

    def __init__(self) -> None:
        self.count = self.len_hits = 0
        self.attr_hits = self.attr_judged = 0
        self.pos_hits = self.pos_judged = 0
        self.hyp_len = self.ref_len = 0
        self.matched = [0, 0, 0, 0]
        self.total = [0, 0, 0, 0]
        self.sari: list[float] = []
        self.rouge_l: list[float] = []
        self.ppl: list[float] = []
        self.emscore: list[float] = []

    def add(self, unit: EvalUnit, delta: int) -> None:
        """Score one unit into these sums, normalizing each of its three
        sequences once."""
        hyp = normalized_tokens(unit.hypothesis)
        truth = normalized_tokens(unit.sample.ground_truth)
        overlap = _overlap_counts(normalized_tokens(unit.sample.reference), hyp, truth)
        self.count += 1
        self.len_hits += len_acc(unit, delta)
        attr_hit = _attr_hit(unit, hyp)
        if attr_hit is not None:
            self.attr_hits += attr_hit
            self.attr_judged += 1
        pos_hit = pos_acc(unit)
        if pos_hit is not None:
            self.pos_hits += pos_hit
            self.pos_judged += 1
        self.sari.append(_sari(overlap))
        self.rouge_l.append(rouge_l_score(hyp, truth))
        self.hyp_len += len(hyp)
        self.ref_len += len(truth)
        for i, o in enumerate(overlap):
            self.matched[i] += o.cg
            self.total[i] += o.c
        if unit.sample.ppl is not None:
            self.ppl.append(unit.sample.ppl)
        if unit.sample.emscore is not None:
            self.emscore.append(unit.sample.emscore)

    def merge(self, other: _RowSums) -> None:
        """Add another row's sums to these."""
        self.count += other.count
        self.len_hits += other.len_hits
        self.attr_hits += other.attr_hits
        self.attr_judged += other.attr_judged
        self.pos_hits += other.pos_hits
        self.pos_judged += other.pos_judged
        self.hyp_len += other.hyp_len
        self.ref_len += other.ref_len
        for i in range(4):
            self.matched[i] += other.matched[i]
            self.total[i] += other.total[i]
        self.sari += other.sari
        self.rouge_l += other.rouge_l
        self.ppl += other.ppl
        self.emscore += other.emscore

    def row(self, kind_name: str, label: str) -> MetricRow:
        return MetricRow(
            kind=kind_name,
            label=label,
            count=self.count,
            len_acc=_percent(self.len_hits, self.count),
            attr_acc=_percent(self.attr_hits, self.attr_judged) if self.attr_judged else None,
            pos_acc=_percent(self.pos_hits, self.pos_judged) if self.pos_judged else None,
            sari=math.fsum(self.sari) / self.count,
            bleu4=_bleu(self.hyp_len, self.ref_len, self.matched, self.total),
            rouge_l=math.fsum(self.rouge_l) / self.count,
            mean_ppl=_mean(self.ppl),
            mean_emscore=_mean(self.emscore),
        )


def evaluate_corpus(units: Iterable[EvalUnit], delta: int = 1) -> MetricReport:
    """Per-kind rows (in fixed kind order, present kinds only) plus an
    overall row with micro-averaged accuracies and corpus-level BLEU-4.

    One pass over units, which may be a generator, scores each unit
    once into its kind's sums, and the overall sums merge the kind
    sums.  A unit whose language mode differs from the first unit's
    raises ValueError when it is reached, and so does a corpus with no
    unit.  Hits and BLEU's lengths and n-gram counts are integers, and
    SARI, ROUGE-L, perplexity and EMScore means use math.fsum, which is
    correctly rounded, so a row's numbers do not depend on the order or
    the grouping of its units.
    """
    by_kind: dict[CommandKind, _RowSums] = {}
    mode = None
    for unit in units:
        if mode is None:
            mode = unit.sample.mode
        elif unit.sample.mode is not mode:
            raise ValueError("mixed language modes in one evaluation corpus")
        k = kind(unit.sample.command)
        if k not in by_kind:
            by_kind[k] = _RowSums()
        by_kind[k].add(unit, delta)
    if not by_kind:
        raise ValueError("empty corpus")
    overall = _RowSums()
    for sums in by_kind.values():
        overall.merge(sums)
    rows = tuple(
        by_kind[k].row(k.value, k.label) for k in CommandKind if k in by_kind
    )
    return MetricReport(rows, overall.row("overall", "Overall"))


def _fmt(value, kind: str) -> str:
    if value is None:
        return "-"
    if kind == "pct":
        return f"{value:.2f}"
    return f"{value:.4f}"


def format_report_table(report: MetricReport) -> str:
    """Aligned plain-text table, one row per command kind plus overall."""
    header = (
        "Command", "N", "Len-Acc", "Attr-Acc", "Pos-Acc",
        "SARI", "BLEU4", "ROUGE-L", "PPL", "EMScore",
    )
    body = []
    for row in list(report.rows) + [report.overall]:
        body.append(
            (
                row.label,
                str(row.count),
                _fmt(row.len_acc, "pct"),
                _fmt(row.attr_acc, "pct"),
                _fmt(row.pos_acc, "pct"),
                _fmt(row.sari, "score"),
                _fmt(row.bleu4, "score"),
                _fmt(row.rouge_l, "score"),
                _fmt(row.mean_ppl, "pct"),
                _fmt(row.mean_emscore, "score"),
            )
        )
    widths = [
        max(len(header[c]), *(len(r[c]) for r in body)) for c in range(len(header))
    ]
    lines = []
    for cells in [header] + body:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
        )
    return "\n".join(lines) + "\n"
