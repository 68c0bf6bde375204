"""Corpus construction: pairing, retrieval, degradation, and balancing.

Edit samples are built from per-video caption pools and (optionally)
dependency / semantic-role annotations:

* length-only adds pair a short and a long caption of the same video;
* length-only dels retrieve the reference from a similar other video
  (negative retrieval), so the ground truth is a caption of the
  current video and the reference is the misaligned longer one;
* attribute / positional samples come from degradation: removable
  dependency branches are cut out of a caption, recording the removed
  spans so the original can be reconstructed exactly, and reversing
  the pair yields the add-side samples;
* position-free attribute samples may be re-targeted (relaxed) to a
  different caption of the same video that satisfies the attribute and
  length constraints, falling back to the degraded/original pair.

Everything is deterministic under a fixed seed.
"""

from __future__ import annotations

import enum
import math
import random
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property

from capedit import kernels
from capedit import text as text_mod
from capedit.commands import (
    Command,
    CommandKind,
    Operation,
    attributes_hold,
    check_reference,
    kind,
)
from capedit.errors import DatasetError
from capedit.text import (
    LanguageMode,
    TokenSeq,
    _trusted_seq,
    normalized_tokens,
    splice,
)

# function words ignored by the caption-pool similarity measure
STOPWORDS = frozenset(
    """a an the is are was were be been being am do does did on in at of to
    and or but with for from by as it its this that these those there their
    they he she his her him we you your i not no yes then than so very up
    down out into over under after before while during""".split()
)


class Provenance(enum.Enum):
    LENGTH_PAIR = "length_pair"
    NEGATIVE_RETRIEVAL = "negative_retrieval"
    DEGRADATION = "degradation"
    REVERSAL = "reversal"
    RELAXATION = "relaxation"


@dataclass(frozen=True)
class CaptionGroup:
    """All captions of one video, in a single language mode."""

    video_id: str
    captions: tuple[TokenSeq, ...]

    def __post_init__(self) -> None:
        if not self.captions:
            raise ValueError(f"video {self.video_id}: empty caption pool")
        modes = {c.mode for c in self.captions}
        if len(modes) != 1:
            raise ValueError(f"video {self.video_id}: mixed language modes")

    @property
    def mode(self) -> LanguageMode:
        return self.captions[0].mode

    @cached_property
    def normalized(self) -> tuple[tuple[str, ...], ...]:
        """Each caption's normalized tokens, computed on first use."""
        return tuple(normalized_tokens(cap) for cap in self.captions)


@dataclass(frozen=True)
class DepToken:
    """One parsed token: surface form, universal POS, head index
    (-1 for the root), and dependency relation."""

    form: str
    upos: str
    head: int
    deprel: str


@dataclass(frozen=True)
class SrlFrame:
    """Semantic-role frame: predicate token index plus labeled
    argument spans (label, start, end)."""

    predicate: int
    arguments: tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class ParseAnnotation:
    """Dependency parse (and optional SRL frames) for one caption."""

    caption_index: int
    tokens: tuple[DepToken, ...]
    frames: tuple[SrlFrame, ...] = ()

    def __post_init__(self) -> None:
        self.subtree_spans  # the one walk of the arcs checks that they form a tree

    @cached_property
    def root(self) -> int:
        roots = [i for i, t in enumerate(self.tokens) if t.head == -1]
        if len(roots) != 1:
            raise ValueError(f"parse must have exactly one root, found {len(roots)}")
        return roots[0]

    @cached_property
    def subtree_spans(self) -> tuple[tuple[int, int, int], ...]:
        """Per token: (size, min_index, max_index) of its subtree.

        Raises ValueError unless the arcs form a tree, checking for one
        root, then for the first head out of range, then for a cycle:
        with one root and every head in range, the arcs are a tree iff a
        walk down from the root reaches every token, and the tokens cut
        off from the root must contain a cycle."""
        order = [self.root]  # raises first without exactly one root
        n = len(self.tokens)
        children: list[list[int]] = [[] for _ in range(n)]
        for i, t in enumerate(self.tokens):
            if t.head != -1:
                if not 0 <= t.head < n:
                    raise ValueError(f"token {i}: head {t.head} out of range")
                children[t.head].append(i)
        for node in order:  # breadth first: parents before children
            order.extend(children[node])
        if len(order) != n:
            raise ValueError("dependency arcs contain a cycle")
        size = [1] * n
        lo = list(range(n))
        hi = list(range(n))
        for node in reversed(order[1:]):
            head = self.tokens[node].head
            size[head] += size[node]
            lo[head] = min(lo[head], lo[node])
            hi[head] = max(hi[head], hi[node])
        return tuple(zip(size, lo, hi))

    def check_caption(self, caption: TokenSeq) -> None:
        """Raise DatasetError unless the parse's forms are the caption's tokens."""
        n = len(caption)
        if len(self.tokens) != n:
            raise DatasetError(f"parse has {len(self.tokens)} tokens for a {n}-token caption")
        for i, (tok, ptok) in enumerate(zip(caption.tokens, self.tokens)):
            if tok != ptok.form:
                raise DatasetError(f"parse token {i} is {ptok.form!r}, caption has {tok!r}")


@dataclass(frozen=True, slots=True)
class EditSample:
    """One editing quadruple plus construction metadata.

    payload, when present, records one token span per command position
    (removed content for del, insertable content for add) and exists
    only for positional degradation/reversal samples.  The checks run
    commands.check_reference on the reference and command, the check
    that make_positioned_reference runs, without weaving the masks.
    """

    id: str
    video_id: str
    mode: LanguageMode
    command: Command
    reference: TokenSeq
    ground_truth: TokenSeq
    provenance: Provenance
    payload: tuple[tuple[str, ...], ...] | None = None
    ppl: float | None = None
    emscore: float | None = None

    def __post_init__(self) -> None:
        if self.reference.mode is not self.mode or self.ground_truth.mode is not self.mode:
            raise ValueError("sample language mode disagrees with its sequences")
        check_reference(self.reference, self.command)
        if self.payload is not None:
            if self.command.positions is None:
                raise ValueError("payload requires a positional command")
            if len(self.payload) != len(self.command.positions):
                raise ValueError("payload span count differs from position count")
            if self.provenance not in (Provenance.DEGRADATION, Provenance.REVERSAL):
                raise ValueError("payload is only recorded for degradation/reversal samples")


@dataclass(frozen=True, slots=True)
class Degradation:
    """One removable-branch cut: attributes are the branch head words,
    removed_spans the cut token ranges of the original caption (touching
    branches share one, so attributes may outnumber them), edited the
    remaining caption."""

    attributes: tuple[tuple[str, ...], ...]
    removed_spans: tuple[tuple[int, int], ...]
    edited: TokenSeq


@dataclass(frozen=True)
class ConstructionConfig:
    min_length_diff: int = 5
    similarity_threshold: float = 0.3
    removable_relations: frozenset = frozenset(
        {"prep", "obl", "nmod", "amod", "advmod", "appos", "acl", "advcl", "conj"}
    )
    # relations only removable when the branch reaches the sentence end
    trailing_only_relations: frozenset = frozenset({"conj"})
    core_arg_labels: frozenset = frozenset({"ARG0", "ARG1", "A0", "A1"})
    # noun-headed branches overlapping a core argument are protected
    core_veto_pos: frozenset = frozenset({"NOUN", "PROPN", "PRON"})
    attribute_pos: frozenset = frozenset({"NOUN", "PROPN", "VERB", "ADJ", "ADV"})
    merge_max_tokens: int = 2
    min_remaining_tokens: int = 3
    ppl_threshold: float | None = None
    max_edit_distance: int | None = None
    balance_tolerance: int = 1
    max_per_kind: int | None = None

    @classmethod
    def from_dict(cls, data: dict, source: str = "config") -> "ConstructionConfig":
        """A config from its JSON form: any field, as a non-negative JSON
        integer for an int, a JSON number for a float, a list of strings
        for a frozenset, or null for an optional one; plus an optional "split"
        entry, checked here and read by the caller.  A violation raises
        DatasetError naming source."""

        def fail(msg: str) -> DatasetError:
            return DatasetError(f"{source}: {msg}")

        if not isinstance(data, dict):
            raise fail(f"expected a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)} - {"split"}
        if unknown:
            raise fail(f"unknown construction config keys: {sorted(unknown)}")
        kwargs = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            base, _, optional = f.type.partition(" | ")
            what, ok = _CONFIG_TYPES[base]
            if not (ok(value) or optional and value is None):
                what += " or null" if optional else ""
                raise fail(f"{f.name} must be {what}, got {value!r}")
            kwargs[f.name] = frozenset(value) if base == "frozenset" else value
        if data.get("split") is not None:
            _check_split(data["split"], fail)
        return cls(**kwargs)


_CONFIG_TYPES = {
    "int": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    # json reads NaN, Infinity and 1e400 as floats that are not finite
    "float": ("a number", lambda v: type(v) is int or type(v) is float and math.isfinite(v)),
    "frozenset": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    ),
}


def _check_split(split, fail) -> None:
    """A "split" config entry: {"ratios": [train, val, test], "seed": int,
    "mapping": {video_id: partition}}, each key optional."""
    if not isinstance(split, dict) or not set(split) <= {"ratios", "seed", "mapping"}:
        raise fail(f"split must be an object of ratios, seed and mapping, got {split!r}")
    ratios = split.get("ratios", list(SPLIT_RATIOS))
    numbers = isinstance(ratios, list) and all(type(r) in (int, float) and r >= 0 for r in ratios)
    if not (numbers and len(ratios) == 3 and math.isclose(sum(ratios), 1.0)):
        raise fail(f"split ratios must be three non-negative numbers summing to 1, got {ratios!r}")
    if type(split.get("seed", 0)) is not int:
        raise fail(f"split seed must be an integer, got {split['seed']!r}")
    mapping = split.get("mapping") or {}
    if not isinstance(mapping, dict) or any(p not in PARTITIONS for p in mapping.values()):
        raise fail(f"split mapping must map video ids to train, val or test, got {mapping!r}")


# the length-only commands, which every such sample shares: a Command
# is frozen
_ADD_LEN = Command(Operation.ADD)
_DEL_LEN = Command(Operation.DEL)


def build_add_length(
    group: CaptionGroup, min_diff: int = ConstructionConfig.min_length_diff
) -> list[EditSample]:
    """Length-only adds: every ordered caption pair of the video whose
    lengths differ by more than min_diff tokens."""
    out = []
    for i, ref in enumerate(group.captions):
        for j, gt in enumerate(group.captions):
            if i == j or len(gt.tokens) - len(ref.tokens) <= min_diff:
                continue
            out.append(
                EditSample(
                    id="",
                    video_id=group.video_id,
                    mode=group.mode,
                    command=_ADD_LEN,
                    reference=ref,
                    ground_truth=gt,
                    provenance=Provenance.LENGTH_PAIR,
                )
            )
    return out


def _content_tokens(group: CaptionGroup) -> frozenset:
    toks = set()
    for hay in group.normalized:
        for t in hay:
            if t.isalpha() and t not in STOPWORDS:
                toks.add(t)
    return frozenset(toks)


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def _similarity_neighbors(
    groups: list[CaptionGroup], threshold: float
) -> dict[str, list[str]]:
    """Each video's others whose content-token pools score a Jaccard
    similarity of at least threshold, by descending score, then video id.

    An exact prefix-filtered join (Bayardo et al., "All-Pairs", WWW
    2007; Xiao et al., PPJoin, WWW 2008).  Tokens are ranked by
    ascending document frequency, ties by token, and videos are visited
    by (pool size, position).  Each video scores the visited videos
    indexed under its probe prefix, once per pair, with _jaccard and the
    >= test, and then joins the index under its index prefix.

    The prefixes come from t-, the float below t: a pair whose float
    score reaches t has o/u > t- exactly, even when its score rounds up
    to t, where ceil(t*|a|) would be one token too many.  For |b| <= |a|
    that gives o > t-*|a| and o > 2t-/(1+t-)*|b| shared tokens, so the
    first shared token lies in a's first |a| - floor(t-*|a|) tokens and
    in b's first |b| - floor(2t-/(1+t-)*|b|).  For t <= 0 every pair
    scores at least t and is a candidate; above 1, or at NaN, none is.
    """
    pools = {g.video_id: _content_tokens(g) for g in groups}
    vids = [g.video_id for g in groups]
    if not threshold <= 1:  # NaN, or above every score
        return {vid: [] for vid in vids}
    sets = [pools[vid] for vid in vids]
    scored: list[list[tuple[float, str]]] = [[] for _ in vids]
    order = sorted(range(len(vids)), key=lambda i: len(sets[i]))
    if threshold > 0:
        df = Counter(tok for pool in sets for tok in pool)
        rank = {tok: r for r, tok in enumerate(sorted(df, key=lambda tok: (df[tok], tok)))}
        num, den = math.nextafter(threshold, 0).as_integer_ratio()  # t- exactly
        postings: dict[str, list[int]] = defaultdict(list)
    for visited, i in enumerate(order):
        pool = sets[i]
        if threshold > 0:
            n = len(pool)
            ranked = sorted(pool, key=rank.__getitem__)
            candidates = set().union(*[postings[tok] for tok in ranked[: n - num * n // den]])
            for tok in ranked[: n - 2 * num * n // (num + den)]:
                postings[tok].append(i)
        else:
            candidates = order[:visited]
        vid = vids[i]
        for j in candidates:
            other = vids[j]
            if other == vid:
                continue
            sim = _jaccard(pool, sets[j])
            if sim >= threshold:
                scored[i].append((-sim, other))
                scored[j].append((-sim, vid))
    return {vid: [v for _, v in sorted(s)] for vid, s in zip(vids, scored)}


def build_del_length(
    groups: list[CaptionGroup],
    min_diff: int = ConstructionConfig.min_length_diff,
    similarity_threshold: float = ConstructionConfig.similarity_threshold,
    neighbors: dict[str, list[str]] | None = None,
) -> list[EditSample]:
    """Length-only dels via negative retrieval: the reference comes from
    a similar other video, the ground truth from the current video.

    Similarity is Jaccard overlap of content tokens between caption
    pools unless an explicit neighbor list is supplied.  Each video's
    neighbors are the others scoring at least the threshold, by
    descending score, then video id.  They come from an exact indexed
    join that scores only the pairs its prefix filter cannot rule out,
    and equal the lists that scoring every pair gives.
    """
    by_id = {g.video_id: g for g in groups}
    if neighbors is None:
        neighbors = _similarity_neighbors(groups, similarity_threshold)
    out = []
    for g in sorted(groups, key=lambda x: x.video_id):
        for vid in neighbors.get(g.video_id, []):
            other = by_id.get(vid)
            if other is None:
                raise DatasetError(f"neighbor list names unknown video {vid!r}")
            if vid == g.video_id:
                raise DatasetError(f"video {vid!r} is listed as its own neighbor")
            for ref in other.captions:
                for gt in g.captions:
                    if len(ref.tokens) - len(gt.tokens) <= min_diff:
                        continue
                    out.append(
                        EditSample(
                            id="",
                            video_id=g.video_id,
                            mode=g.mode,
                            command=_DEL_LEN,
                            reference=ref,
                            ground_truth=gt,
                            provenance=Provenance.NEGATIVE_RETRIEVAL,
                        )
                    )
    return out


def _maximal_branches(
    candidates: list[tuple[tuple[int, int], int]]
) -> list[tuple[tuple[int, int], int]]:
    """The (span, head) candidates whose span lies inside no other's, in
    span order.  Subtree spans nest or are disjoint, so in (start, -end)
    order a span lies inside an earlier one exactly when it ends no later
    than the furthest end so far: one sort and one sweep."""
    maximal = []
    reach = 0
    for span, head in sorted(candidates, key=lambda c: (c[0][0], -c[0][1])):
        if span[1] > reach:
            maximal.append((span, head))
            reach = span[1]
    return maximal


def degrade(
    caption: TokenSeq, parse: ParseAnnotation, config: ConstructionConfig | None = None
) -> list[Degradation]:
    """Cut removable dependency branches out of the caption.

    A branch is removable when its relation is configured as removable,
    its subtree is contiguous, it does not contain the root, its head's
    POS can serve as an attribute, and (for noun-headed branches) it
    does not overlap a core argument of the main predicate.  Branches
    spanning at most merge_max_tokens tokens are merged with sibling
    branches of the same head into multi-attribute results; merged
    branches that touch (e.g. stacked adjectives) become one removed
    span, keeping one attribute phrase per branch.
    """
    config = config or ConstructionConfig()
    parse.check_caption(caption)
    n = len(caption)

    spans = parse.subtree_spans
    root = parse.root
    core_spans = [
        (s, e)
        for frame in parse.frames
        if frame.predicate == root
        for label, s, e in frame.arguments
        if label in config.core_arg_labels
    ]

    candidates = []  # (span, head_index)
    for i, ptok in enumerate(parse.tokens):
        if i == root or ptok.deprel not in config.removable_relations:
            continue
        size, lo, hi = spans[i]
        if hi - lo + 1 != size:  # discontiguous branch
            continue
        if ptok.upos not in config.attribute_pos:
            continue
        if ptok.deprel in config.trailing_only_relations:
            last = caption.tokens[-1]
            tail_ok = hi == n - 1 or (
                hi == n - 2 and len(last) == 1 and last in text_mod.PUNCT_CHARS
            )
            if not tail_ok:
                continue
        if ptok.upos in config.core_veto_pos and any(
            lo < ce and cs < hi + 1 for cs, ce in core_spans
        ):
            continue
        if n - size < config.min_remaining_tokens:
            continue
        candidates.append(((lo, hi + 1), i))

    maximal = _maximal_branches(candidates)
    small = [(span, head) for span, head in maximal if span[1] - span[0] <= config.merge_max_tokens]
    large = [(span, head) for span, head in maximal if span[1] - span[0] > config.merge_max_tokens]

    def make_result(members: list[tuple[tuple[int, int], int]]) -> Degradation | None:
        # subtrees nest or are disjoint, so maximal branches never overlap
        members = sorted(members)
        spans_: list[tuple[int, int]] = []
        for (s, e), _ in members:
            if spans_ and spans_[-1][1] == s:  # touching branches: one removed span
                spans_[-1] = (spans_[-1][0], e)
            else:
                spans_.append((s, e))
        removed = sum(e - s for s, e in spans_)
        if n - removed < config.min_remaining_tokens:
            return None
        attrs = tuple((parse.tokens[h].form.lower(),) for _, h in members)
        edited = splice(caption.tokens, spans_, [()] * len(spans_))
        return Degradation(attrs, tuple(spans_), _trusted_seq(edited, caption.mode))

    results: list[Degradation] = []
    for span, head in large:
        r = make_result([(span, head)])
        if r is not None:
            results.append(r)

    by_parent: dict[int, list[tuple[tuple[int, int], int]]] = defaultdict(list)
    for span, head in small:
        by_parent[parse.tokens[head].head].append((span, head))
    for parent in sorted(by_parent):
        members = by_parent[parent]
        if len(members) >= 2:
            r = make_result(members)
            if r is not None:
                results.append(r)
            continue
        # a lone small branch joins the first large sibling, if any
        sibling = next(
            (
                (span, head)
                for span, head in large
                if parse.tokens[head].head == parent
            ),
            None,
        )
        r = make_result(members + ([sibling] if sibling else []))
        if r is not None:
            results.append(r)

    results.sort(key=lambda d: d.removed_spans)
    return results


def make_attribute_samples(
    degradations: list[Degradation],
    group: CaptionGroup,
    caption_index: int,
) -> list[EditSample]:
    """Turn degradations of one caption into edit samples.

    Direct: del-with-positions (spans recorded, payload = removed
    content) and del-with-attributes.  Reversed: add-with-positions+
    attributes (gap indexes into the edited caption, payload = removed
    content) and add-with-attributes.  Position-free variants are
    re-targeted to another caption of the same video when one satisfies
    the attribute and length constraints; otherwise they fall back to
    the degraded/original pair.  Captions are matched against attributes
    by the group's normalized tokens, computed once per group, with
    attributes_hold, the test attr_acc makes: the attributes are
    lowercased forms, which normalize leaves as they are.
    """
    original = group.captions[caption_index]
    n_original = len(original.tokens)
    others = [
        (cap, hay)
        for i, (cap, hay) in enumerate(zip(group.captions, group.normalized))
        if i != caption_index
    ]
    # the add target's search order depends only on the original's length
    by_original_len = sorted(others, key=lambda c: abs(len(c[0].tokens) - n_original))
    out: list[EditSample] = []

    def emit(command, reference, ground_truth, provenance, payload=None) -> None:
        out.append(
            EditSample(
                "", group.video_id, group.mode, command, reference, ground_truth,
                provenance, payload,
            )
        )

    for deg in degradations:
        n_edited = len(deg.edited.tokens)
        payload = tuple(original.tokens[s:e] for s, e in deg.removed_spans)
        emit(
            Command(Operation.DEL, deg.removed_spans), original, deg.edited,
            Provenance.DEGRADATION, payload,
        )

        # del by attribute: the ground truth, another caption or else the
        # degraded one, must not contain the attributes
        truth = next(
            (
                cap
                for cap, hay in sorted(others, key=lambda c: abs(len(c[0].tokens) - n_edited))
                if len(cap.tokens) < n_original
                and attributes_hold(Operation.DEL, deg.attributes, hay)
            ),
            None,
        )
        provenance = Provenance.RELAXATION
        if truth is None and attributes_hold(
            Operation.DEL, deg.attributes, normalized_tokens(deg.edited)
        ):
            truth, provenance = deg.edited, Provenance.DEGRADATION
        if truth is not None:
            emit(Command(Operation.DEL, None, deg.attributes), original, truth, provenance)

        # reversal: add the removed content back at recorded gaps
        gaps = []
        removed_before = 0
        for s, e in deg.removed_spans:
            gaps.append(s - removed_before)
            removed_before += e - s
        emit(
            Command(Operation.ADD, tuple(gaps), deg.attributes), deg.edited, original,
            Provenance.REVERSAL, payload,
        )

        # add by attribute: the ground truth, another caption or else the
        # original, must contain the attributes
        truth = next(
            (
                cap
                for cap, hay in by_original_len
                if len(cap.tokens) > n_edited
                and attributes_hold(Operation.ADD, deg.attributes, hay)
            ),
            None,
        )
        provenance = Provenance.RELAXATION
        if truth is None:
            truth, provenance = original, Provenance.REVERSAL
        emit(Command(Operation.ADD, None, deg.attributes), deg.edited, truth, provenance)
    return out


# each kind's coarser forms: the kinds of its operation whose fields are
# a subset of its own, itself included
_SUBKINDS = {
    own: tuple(
        k
        for k in CommandKind
        if k.op is own.op and k.has_pos <= own.has_pos and k.has_attr <= own.has_attr
    )
    for own in CommandKind
}


def claim_kinds(sample: EditSample, config: ConstructionConfig) -> set[CommandKind]:
    """Kinds the sample can be re-assigned to: its own, and each kind of
    its operation whose fields are a subset of its own.  A length-only
    kind other than its own also needs the length to change by more than
    min_length_diff in the operation's direction."""
    own = kind(sample.command)
    diff = len(sample.ground_truth.tokens) - len(sample.reference.tokens)
    if own.op is Operation.DEL:
        diff = -diff
    longer = diff > config.min_length_diff
    return {k for k in _SUBKINDS[own] if k is own or k.has_pos or k.has_attr or longer}


def _reassign(sample: EditSample, target: CommandKind) -> EditSample:
    """The sample under the target kind's command: positions and payload
    stay only if the target has positions, attributes only if it has
    attributes."""
    cmd = sample.command
    command = Command(
        target.op,
        cmd.positions if target.has_pos else None,
        cmd.attributes if target.has_attr else None,
    )
    return replace(sample, command=command, payload=sample.payload if target.has_pos else None)


def filter_and_balance(
    samples: list[EditSample],
    config: ConstructionConfig | None = None,
    seed: int = 0,
) -> list[EditSample]:
    """Quality filters, then per-kind volume balancing.

    Filters drop samples whose ingested perplexity exceeds the
    configured threshold (absent values pass) or whose reference/truth
    edit distance exceeds the bound.  Balancing starts from each
    sample's own (finest) kind and moves samples from over- to
    under-populated kinds along their claimable set.

    Each sample's claim set is computed once by claim_kinds, when it
    enters a kind pool, and again after a move (the move changes its
    kind); a per (donor, recipient) count of movable pool members lets
    a donor without one be skipped without a scan.  Nothing is computed
    while no two kinds differ by more than balance_tolerance.

    Determinism: each move draws rng.randrange over the donor's movable
    members in pool order, and the optional max_per_kind cap then
    samples each pool with the same RNG, so identical inputs and seed
    give identical output.
    """
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

    pools: dict[CommandKind, list[EditSample]] = {k: [] for k in CommandKind}
    for s in kept:
        pools[kind(s.command)].append(s)
    counts = {k: len(v) for k, v in pools.items()}
    if max(counts.values()) - min(counts.values()) > config.balance_tolerance:
        _balance(pools, counts, config, rng)

    if config.max_per_kind is not None:
        for k in CommandKind:
            if len(pools[k]) > config.max_per_kind:
                keep_idx = sorted(
                    rng.sample(range(len(pools[k])), config.max_per_kind)
                )
                pools[k] = [pools[k][i] for i in keep_idx]

    return [s for k in CommandKind for s in pools[k]]


def _next_move(
    counts: dict[CommandKind, int], movable: Counter, tolerance: int
) -> tuple[CommandKind, CommandKind] | None:
    """The (donor, recipient) pair of the next move: the least-populated
    recipient that some donor more than tolerance larger can serve,
    taking the largest such donor; ties go to enum order (stable sort)."""
    donors = sorted(CommandKind, key=lambda k: -counts[k])
    for recipient in sorted(CommandKind, key=counts.__getitem__):
        for donor in donors:
            if counts[donor] - counts[recipient] <= tolerance:
                break
            if donor is not recipient and movable[donor, recipient]:
                return donor, recipient
    return None


def _balance(
    pools: dict[CommandKind, list[EditSample]],
    counts: dict[CommandKind, int],
    config: ConstructionConfig,
    rng: random.Random,
) -> None:
    """Move samples between pools in place until _next_move finds none."""
    claims = {k: [claim_kinds(s, config) for s in pool] for k, pool in pools.items()}
    movable: Counter = Counter(
        (donor, k) for donor, pool_claims in claims.items() for c in pool_claims for k in c
    )
    while (move := _next_move(counts, movable, config.balance_tolerance)) is not None:
        donor, recipient = move
        n = counts[donor]
        if movable[donor, recipient] == n:
            idx = rng.randrange(n)
        else:
            candidates = [i for i, c in enumerate(claims[donor]) if recipient in c]
            idx = candidates[rng.randrange(len(candidates))]
        sample = _reassign(pools[donor].pop(idx), recipient)
        for k in claims[donor].pop(idx):
            movable[donor, k] -= 1
        new_claims = claim_kinds(sample, config)
        for k in new_claims:
            movable[recipient, k] += 1
        pools[recipient].append(sample)
        claims[recipient].append(new_claims)
        counts[donor] -= 1
        counts[recipient] += 1


@dataclass(frozen=True)
class StatRecord:
    count: int
    mean_ref_len: float
    mean_gt_len: float
    mean_edit_distance: float
    vocabulary: int
    per_kind: dict

    def to_dict(self) -> dict:
        return asdict(self)


def corpus_stats(samples: list[EditSample]) -> StatRecord:
    """Corpus-level descriptive statistics.

    Lengths and edit distances are token-level over normalized tokens;
    vocabulary counts distinct normalized tokens over references and
    ground truths.  Each distinct sequence, keyed by its mode and
    tokens, is normalized once.  The edit distance, which is symmetric,
    is computed once per unordered pair of distinct sequences (a
    degradation's del and add samples share one), and the match table
    of its longer side once per distinct longer side, since many pairs
    share one.  The sums are exact ints, so below 2**53 each mean is
    the float that math.fsum over the values gives."""
    if not samples:
        raise ValueError("empty corpus")
    vocab = set()
    ref_total = gt_total = dist_total = 0
    per_kind: Counter = Counter()
    # keys that hash in C: (word mode?, tokens)
    normed: dict[tuple, tuple[str, ...]] = {}
    tables: dict[int, dict] = {}
    dists: dict[int, int] = {}
    word = LanguageMode.WORD

    def norm(seq: TokenSeq) -> tuple[str, ...]:
        key = (seq.mode is word, seq.tokens)
        out = normed.get(key)
        if out is None:
            out = normed[key] = normalized_tokens(seq)
            vocab.update(out)
        return out

    for s in samples:
        ref_n = norm(s.reference)
        gt_n = norm(s.ground_truth)
        ref_total += len(ref_n)
        gt_total += len(gt_n)
        # the unordered pair of normalized tuples as one int (ids are below
        # 2**64); equal sequences share one tuple, alive in normed
        a, b = id(ref_n), id(gt_n)
        pair = (a << 64 | b) if a < b else (b << 64 | a)
        dist = dists.get(pair)
        if dist is None:
            longer, shorter = (gt_n, ref_n) if len(ref_n) < len(gt_n) else (ref_n, gt_n)
            peq = tables.get(id(longer))
            if peq is None:
                peq = tables[id(longer)] = kernels._match_masks(longer)
            dist = dists[pair] = kernels._myers_distance(peq, len(longer), shorter)
        dist_total += dist
        # _value_: a str hashes in C, an Enum member in Python
        per_kind[kind(s.command)._value_] += 1
    n = len(samples)
    return StatRecord(
        count=n,
        mean_ref_len=ref_total / n,
        mean_gt_len=gt_total / n,
        mean_edit_distance=dist_total / n,
        vocabulary=len(vocab),
        per_kind={k: per_kind[k] for k in sorted(per_kind)},
    )


PARTITIONS = ("train", "val", "test")
# default (train, val, test) shares of the videos
SPLIT_RATIOS = (0.7, 0.1, 0.2)


def partition_videos(
    samples: list[EditSample],
    mapping: dict[str, str] | None = None,
    ratios: tuple[float, float, float] = SPLIT_RATIOS,
    seed: int = 0,
) -> dict[str, str]:
    """The partition of each video of the samples, so that no video id
    crosses partitions.

    Either an explicit video->partition mapping, checked to cover every
    video with a known partition, or (train, val, test) ratios with a
    seed; ratio splits allocate whole videos by largest remainder after
    a seeded shuffle."""
    if mapping is not None:
        for s in samples:
            if s.video_id not in mapping:
                raise DatasetError(f"video {s.video_id!r} missing from the split mapping")
            if mapping[s.video_id] not in PARTITIONS:
                raise DatasetError(
                    f"video {s.video_id!r} mapped to unknown partition {mapping[s.video_id]!r}"
                )
        return mapping
    if len(ratios) != 3 or any(r < 0 for r in ratios) or not math.isclose(sum(ratios), 1.0):
        raise ValueError("ratios must be three non-negative numbers summing to 1")
    videos = sorted({s.video_id for s in samples})
    rng = random.Random(seed)
    rng.shuffle(videos)
    n = len(videos)
    exact = [r * n for r in ratios]
    counts = [int(x) for x in exact]
    while sum(counts) < n:
        rems = [e - c for e, c in zip(exact, counts)]
        counts[rems.index(max(rems))] += 1
    assign = {}
    start = 0
    for part, cnt in zip(PARTITIONS, counts):
        for vid in videos[start : start + cnt]:
            assign[vid] = part
        start += cnt
    return assign


def construct_corpus(
    groups: list[CaptionGroup],
    parses: dict[tuple[str, int], ParseAnnotation] | None = None,
    config: ConstructionConfig | None = None,
    seed: int = 0,
    neighbors: dict[str, list[str]] | None = None,
    ppl: dict[tuple[str, str], float] | None = None,
) -> list[EditSample]:
    """Full pipeline: build all sample families, attach perplexities,
    filter, balance, and assign ids.

    parses maps (video_id, caption_index) to annotations; ppl maps
    (video_id, detokenized caption) to ingested perplexities.  A sample
    takes the perplexity of its ground truth's text in its own video;
    one whose text ppl does not hold keeps None.

    Each sample is one object from the family that builds and checks it
    to the returned list; a balancing move alone replaces it, by a
    checked copy under the new command.  The perplexity and the id
    ("s" and the corpus position, six digits) are set in place, which
    is sound because neither takes part in the checks and every sample
    is a distinct object that this call built and that no caller has
    seen yet.
    """
    config = config or ConstructionConfig()
    parses = parses or {}
    samples: list[EditSample] = []
    for group in sorted(groups, key=lambda g: g.video_id):
        samples.extend(build_add_length(group, config.min_length_diff))
        for ci in range(len(group.captions)):
            ann = parses.get((group.video_id, ci))
            if ann is None:
                continue
            degs = degrade(group.captions[ci], ann, config)
            samples.extend(make_attribute_samples(degs, group, ci))
    samples.extend(
        build_del_length(
            groups, config.min_length_diff, config.similarity_threshold, neighbors
        )
    )
    if ppl:
        # each distinct ground truth of a video is detokenized and looked
        # up once; the key holds the object's id, alive in its samples
        found: dict[tuple[str, int], float | None] = {}
        for s in samples:
            key = (s.video_id, id(s.ground_truth))
            if key not in found:
                found[key] = ppl.get((s.video_id, text_mod.detokenize(s.ground_truth)))
            value = found[key]
            if value is not None:
                object.__setattr__(s, "ppl", value)
    samples = filter_and_balance(samples, config, seed)
    for i, s in enumerate(samples):
        object.__setattr__(s, "id", f"s{i:06d}")
    return samples
