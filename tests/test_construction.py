import math
import random
import time
from dataclasses import replace

import pytest

from capedit import construction
from capedit.commands import Command, CommandKind, Operation, kind
from capedit.construction import (
    CaptionGroup,
    ConstructionConfig,
    Degradation,
    DepToken,
    EditSample,
    ParseAnnotation,
    Provenance,
    SrlFrame,
    build_add_length,
    build_del_length,
    claim_kinds,
    construct_corpus,
    corpus_stats,
    degrade,
    filter_and_balance,
    make_attribute_samples,
    partition_videos,
)
from capedit.editing import oracle_apply
from capedit.errors import CommandError, DatasetError
from capedit.text import LanguageMode, TokenSeq, detokenize, normalized_tokens, tokenize

from helpers import make_sample, make_samples, zipf_pools
from oracles import (
    KIND_LABELS,
    claim_kinds_table,
    filter_and_balance_rescan,
    maximal_branches_all_pairs,
    neighbors_all_pairs,
    reassign_branches,
)

WORD = LanguageMode.WORD


def T(text):
    return tokenize(text, WORD)


def _dep(*rows):
    return tuple(DepToken(*row) for row in rows)


# "A group of girls is on the field playing a game ."
GIRLS = T("A group of girls is on the field playing a game .")
GIRLS_PARSE = ParseAnnotation(
    0,
    _dep(
        ("A", "DET", 1, "det"),
        ("group", "NOUN", 8, "nsubj"),
        ("of", "ADP", 3, "case"),
        ("girls", "NOUN", 1, "nmod"),
        ("is", "AUX", 8, "aux"),
        ("on", "ADP", 7, "case"),
        ("the", "DET", 7, "det"),
        ("field", "NOUN", 8, "obl"),
        ("playing", "VERB", -1, "root"),
        ("a", "DET", 10, "det"),
        ("game", "NOUN", 8, "obj"),
        (".", "PUNCT", 8, "punct"),
    ),
    (SrlFrame(8, (("ARG0", 0, 4), ("ARG1", 9, 11), ("AM-LOC", 5, 8))),),
)

# "A man quickly rides a red bike down the street ."
RIDES = T("A man quickly rides a red bike down the street .")
RIDES_PARSE = ParseAnnotation(
    0,
    _dep(
        ("A", "DET", 1, "det"),
        ("man", "NOUN", 3, "nsubj"),
        ("quickly", "ADV", 3, "advmod"),
        ("rides", "VERB", -1, "root"),
        ("a", "DET", 6, "det"),
        ("red", "ADJ", 6, "amod"),
        ("bike", "NOUN", 3, "obj"),
        ("down", "ADP", 9, "case"),
        ("the", "DET", 9, "det"),
        ("street", "NOUN", 3, "obl"),
        (".", "PUNCT", 3, "punct"),
    ),
    (SrlFrame(3, (("ARG0", 0, 2), ("ARG1", 4, 7), ("AM-DIR", 7, 10))),),
)


# "a small brown dog runs across the park .": two stacked amod
# adjectives are touching small sibling branches
STACKED = T("a small brown dog runs across the park .")
STACKED_PARSE = ParseAnnotation(
    0,
    _dep(
        ("a", "DET", 3, "det"),
        ("small", "ADJ", 3, "amod"),
        ("brown", "ADJ", 3, "amod"),
        ("dog", "NOUN", 4, "nsubj"),
        ("runs", "VERB", -1, "root"),
        ("across", "ADP", 7, "case"),
        ("the", "DET", 7, "det"),
        ("park", "NOUN", 4, "obl"),
        (".", "PUNCT", 4, "punct"),
    ),
)


def test_parse_annotation_validation():
    with pytest.raises(ValueError):
        ParseAnnotation(0, _dep(("a", "DET", 1, "det"), ("b", "NOUN", 0, "nsubj")))
    with pytest.raises(ValueError):
        ParseAnnotation(0, _dep(("a", "DET", 5, "det"), ("b", "VERB", -1, "root")))
    with pytest.raises(ValueError):
        ParseAnnotation(
            0,
            _dep(
                ("a", "DET", 1, "det"),
                ("b", "NOUN", 0, "nsubj"),
                ("c", "VERB", -1, "root"),
            ),
        )
    assert GIRLS_PARSE.root == 8


def test_parse_annotation_of_a_long_chain_is_linear():
    # each token heads the next: the deepest tree a parse can be
    n = 10_000
    chain = tuple(
        DepToken(f"w{i}", "NOUN", i - 1 if i else -1, "dep" if i else "root")
        for i in range(n)
    )
    start = time.perf_counter()
    parse = ParseAnnotation(0, chain)
    assert time.perf_counter() - start < 0.5
    assert parse.root == 0
    with pytest.raises(ValueError, match="cycle"):
        # token 1 hangs from the last token: 1 -> n-1 -> ... -> 2 -> 1
        ParseAnnotation(0, chain[:1] + (DepToken("w1", "NOUN", n - 1, "dep"),) + chain[2:])


def test_caption_group_validation():
    with pytest.raises(ValueError):
        CaptionGroup("v", ())
    with pytest.raises(ValueError):
        CaptionGroup("v", (T("a ."), tokenize("一", LanguageMode.CHAR)))


def test_build_add_length():
    group = CaptionGroup(
        "v1",
        (
            T("a dog runs in the green park ."),  # 8
            T("a small brown dog runs quickly around the bright green park near water ."),  # 14
            T(
                "a very small brown dog runs quickly around the bright green park"
                " near the cold water on a sunny day ."
            ),  # 21
        ),
    )
    samples = build_add_length(group, min_diff=5)
    assert len(samples) == 3
    for s in samples:
        assert kind(s.command) is CommandKind.ADD_LEN
        assert s.provenance is Provenance.LENGTH_PAIR
        assert len(s.ground_truth) - len(s.reference) > 5
        assert s.video_id == "v1"
    assert not build_add_length(group, min_diff=20)


def _similarity_groups():
    ga = CaptionGroup(
        "vidA", (T("a brown dog runs in the park ."), T("the dog chases a ball ."))
    )
    gb = CaptionGroup(
        "vidB",
        (T("a small brown dog runs quickly across the green park grass today ."),),
    )
    gc = CaptionGroup("vidC", (T("a chef cooks pasta in a kitchen ."), T("chefs cook .")))
    return ga, gb, gc


def test_build_del_length_by_similarity():
    ga, gb, gc = _similarity_groups()
    samples = build_del_length([ga, gb, gc], min_diff=5, similarity_threshold=0.3)
    assert len(samples) == 1
    s = samples[0]
    assert s.video_id == "vidA"  # truth from A, longer reference from similar B
    assert kind(s.command) is CommandKind.DEL_LEN
    assert s.provenance is Provenance.NEGATIVE_RETRIEVAL
    assert s.reference == gb.captions[0]
    assert s.ground_truth == ga.captions[1]
    # a stricter threshold forbids the A<->B pairing
    assert not build_del_length([ga, gb, gc], min_diff=5, similarity_threshold=0.5)


def test_build_del_length_with_explicit_neighbors():
    ga, gb, gc = _similarity_groups()
    samples = build_del_length(
        [ga, gb, gc], min_diff=2, neighbors={"vidC": ["vidA"]}
    )
    assert len(samples) == 2
    assert all(s.video_id == "vidC" for s in samples)
    assert all(s.ground_truth == gc.captions[1] for s in samples)
    with pytest.raises(DatasetError):
        build_del_length([ga], min_diff=2, neighbors={"vidA": ["missing"]})
    with pytest.raises(DatasetError, match="'vidA' is listed as its own neighbor"):
        build_del_length([ga, gb], min_diff=2, neighbors={"vidA": ["vidB", "vidA"]})


def _random_pools(rng: random.Random) -> list[CaptionGroup]:
    """Videos drawing content words from a small vocabulary, so that
    similarities tie; each caption starts with its video's id, which is
    not a content token but keeps references of different videos apart."""
    words = ("dog", "cat", "ball", "park", "grass", "runs")
    ids = [f"v{i}" for i in range(rng.randrange(2, 12))]
    if rng.random() < 0.2:
        ids.append(rng.choice(ids))  # a repeated video id
    rng.shuffle(ids)
    return [
        CaptionGroup(
            vid,
            tuple(
                T(f"{vid} the " + " ".join(rng.choices(words, k=rng.randrange(1, 5))) + " .")
                for _ in range(rng.randrange(1, 3))
            ),
        )
        for vid in ids
    ]


def test_build_del_length_matches_all_pairs_oracle():
    at_threshold = ties = 0
    for case in range(60):
        rng = random.Random(case)
        groups = _random_pools(rng)
        pools = [construction._content_tokens(g) for g in groups]
        sims = [construction._jaccard(a, b) for a in pools for b in pools]
        threshold = rng.choice(sims)  # some pair scores exactly the threshold
        expected = neighbors_all_pairs(groups, threshold)
        # min_diff -1000 keeps every (reference, truth) pair, so the
        # samples list every neighbor in order
        assert build_del_length(groups, -1000, threshold) == build_del_length(
            groups, -1000, threshold, neighbors=expected
        ), f"case {case}"
        pool_of = {g.video_id: p for g, p in zip(groups, pools)}
        for vid, nbrs in expected.items():
            scores = [construction._jaccard(pool_of[vid], pool_of[n]) for n in nbrs]
            at_threshold += threshold in scores
            ties += len(set(scores)) < len(scores)
    assert at_threshold and ties


def _join_pools(name: str) -> list[CaptionGroup]:
    rng = random.Random(name)
    if name == "disjoint":
        return [CaptionGroup(f"v{i}", (T(f"a q{'x' * i} runs ."),)) for i in range(5)]
    if name == "two-empty":
        # "the ." and "it is ." hold no content token
        empty = [CaptionGroup("e1", (T("the ."),)), CaptionGroup("e2", (T("it is ."),))]
        return empty + [CaptionGroup("v1", (T("a dog runs ."),))]
    if name == "ratios":
        # pools of 3 and 10 tokens, so 1/3 and 3/10 are scores
        words = [f"q{c}" for c in "abcdefghijklmn"]
        sizes = (3, 10, 10, 3, 9, 6, 1, 2)
        return [
            CaptionGroup(f"v{i}", (T(" ".join(rng.sample(words, k)) + " ."),))
            for i, k in enumerate(sizes)
        ]
    if name == "repeated-ids":
        groups = zipf_pools(rng, 30, 40)
        return groups + [CaptionGroup(groups[i].video_id, groups[j].captions) for i, j in
                         ((3, 7), (5, 5), (12, 0))]
    return zipf_pools(rng, 60, {"zipf-dense": 40, "zipf": 600}[name], cluster=3)


@pytest.mark.parametrize(
    "name", ["disjoint", "two-empty", "ratios", "repeated-ids", "zipf-dense", "zipf"]
)
@pytest.mark.parametrize(
    "threshold", [-math.inf, -0.5, 0, 0.0, 0.1, 1 / 3, 0.3, 0.5, 1, 1.0, 1.5, math.inf]
)
def test_similarity_join_matches_all_pairs_oracle(name, threshold):
    groups = _join_pools(name)
    got = construction._similarity_neighbors(groups, threshold)
    assert got == neighbors_all_pairs(groups, threshold)
    if threshold <= 0:  # every pair qualifies, however disjoint or empty
        for vid, nbrs in got.items():
            assert len(nbrs) == sum(g.video_id != vid for g in groups)
    if threshold > 1:
        assert not any(got.values())


def test_similarity_join_at_attainable_ratios():
    """Thresholds equal to a score that some pair attains, including
    floats that round up from the ratio (0.1 > 1/10) and down (0.3 < 3/10,
    1/3): pairs scoring exactly the threshold are kept."""
    at_threshold = 0
    for case in range(40):
        rng = random.Random(case)
        groups = _join_pools("ratios") if case % 2 else zipf_pools(rng, 40, 30, cluster=4)
        pools = [construction._content_tokens(g) for g in groups]
        sims = sorted({construction._jaccard(a, b) for a in pools for b in pools} - {0.0})
        for threshold in sims[:: max(1, len(sims) // 6)] + [0.1, 0.3, 1 / 3, 2 / 3]:
            expected = neighbors_all_pairs(groups, threshold)
            assert construction._similarity_neighbors(groups, threshold) == expected
            at_threshold += any(
                construction._jaccard(pools[i], pools[j]) == threshold
                for i in range(len(pools)) for j in range(i)
            )
    assert at_threshold > 100


def test_similarity_join_of_a_nan_threshold_is_empty():
    groups = _join_pools("zipf-dense")
    assert construction._similarity_neighbors(groups, math.nan) == neighbors_all_pairs(
        groups, math.nan
    )
    assert build_del_length(groups, -1000, math.nan) == []


def test_similarity_join_scores_few_pairs_of_a_clustered_pool(monkeypatch):
    """Work counted, not timed: on topic clusters over a shared Zipf
    vocabulary the prefix filter leaves under 15% of the pairs to score."""
    groups = zipf_pools(random.Random(7), 240, 5000, cluster=3)
    scored = 0
    jaccard = construction._jaccard

    def counting(a, b):
        nonlocal scored
        scored += 1
        return jaccard(a, b)

    monkeypatch.setattr(construction, "_jaccard", counting)
    got = construction._similarity_neighbors(groups, 0.3)
    pairs = len(groups) * (len(groups) - 1) // 2
    assert scored < 0.15 * pairs
    monkeypatch.setattr(construction, "_jaccard", jaccard)
    assert got == neighbors_all_pairs(groups, 0.3)
    assert sum(map(len, got.values())) > 0


def test_degrade_girls_caption():
    degs = degrade(GIRLS, GIRLS_PARSE)
    assert len(degs) == 1
    deg = degs[0]
    assert deg.removed_spans == ((5, 8),)
    assert deg.attributes == (("field",),)
    assert detokenize(deg.edited) == "A group of girls is playing a game ."


def test_degrade_vetoes_noun_branches_inside_core_arguments():
    # "of girls" is an nmod branch under the ARG0 span, so it never
    # becomes a candidate even though its relation is removable
    degs = degrade(GIRLS, GIRLS_PARSE)
    assert all((2, 4) not in d.removed_spans for d in degs)


def test_degrade_rides_caption_merges_small_branches():
    degs = degrade(RIDES, RIDES_PARSE)
    assert [d.removed_spans for d in degs] == [
        ((2, 3), (7, 10)),
        ((5, 6),),
        ((7, 10),),
    ]
    merged, red, street = degs
    assert merged.attributes == (("quickly",), ("street",))
    assert detokenize(merged.edited) == "A man rides a red bike ."
    # the adjective survives the core-argument veto (not noun-headed)
    assert red.attributes == (("red",),)
    assert detokenize(red.edited) == "A man quickly rides a bike down the street ."
    assert street.attributes == (("street",),)
    assert detokenize(street.edited) == "A man quickly rides a red bike ."


def test_degrade_merges_touching_branches_into_one_span():
    degs = degrade(STACKED, STACKED_PARSE)
    assert [d.removed_spans for d in degs] == [((1, 3),), ((5, 8),)]
    assert degs[0].attributes == (("small",), ("brown",))
    assert detokenize(degs[0].edited) == "a dog runs across the park ."


def test_degrade_reconstruction_invariant():
    for caption, ann in ((GIRLS, GIRLS_PARSE), (RIDES, RIDES_PARSE), (STACKED, STACKED_PARSE)):
        for deg in degrade(caption, ann):
            removed = oracle_apply(
                Command(Operation.DEL, deg.removed_spans), caption
            )
            assert removed == deg.edited
            gaps = []
            dropped = 0
            for s, e in deg.removed_spans:
                gaps.append(s - dropped)
                dropped += e - s
            payload = tuple(caption.tokens[s:e] for s, e in deg.removed_spans)
            restored = oracle_apply(
                Command(Operation.ADD, tuple(gaps), deg.attributes),
                deg.edited,
                payload,
            )
            assert restored == caption


def test_degrade_conj_branches_must_trail():
    sings = T("A man sings and dances .")
    ann = ParseAnnotation(
        0,
        _dep(
            ("A", "DET", 1, "det"),
            ("man", "NOUN", 2, "nsubj"),
            ("sings", "VERB", -1, "root"),
            ("and", "CCONJ", 4, "cc"),
            ("dances", "VERB", 2, "conj"),
            (".", "PUNCT", 2, "punct"),
        ),
    )
    degs = degrade(sings, ann)
    assert [d.removed_spans for d in degs] == [((3, 5),)]
    assert detokenize(degs[0].edited) == "A man sings ."

    parks = T("men sing and dance in parks .")
    ann = ParseAnnotation(
        0,
        _dep(
            ("men", "NOUN", 1, "nsubj"),
            ("sing", "VERB", -1, "root"),
            ("and", "CCONJ", 3, "cc"),
            ("dance", "VERB", 1, "conj"),
            ("in", "ADP", 5, "case"),
            ("parks", "NOUN", 1, "obl"),
            (".", "PUNCT", 1, "punct"),
        ),
        (SrlFrame(1, (("ARG0", 0, 1),)),),
    )
    degs = degrade(parks, ann)
    # the mid-sentence conj branch is skipped; only the obl remains
    assert [d.removed_spans for d in degs] == [((4, 6),)]
    assert degs[0].attributes == (("parks",),)


def test_degrade_veto_is_frame_driven():
    steel = T("A man rides a bike of steel .")
    deps = _dep(
        ("A", "DET", 1, "det"),
        ("man", "NOUN", 2, "nsubj"),
        ("rides", "VERB", -1, "root"),
        ("a", "DET", 4, "det"),
        ("bike", "NOUN", 2, "obj"),
        ("of", "ADP", 6, "case"),
        ("steel", "NOUN", 4, "nmod"),
        (".", "PUNCT", 2, "punct"),
    )
    with_frames = ParseAnnotation(
        0, deps, (SrlFrame(2, (("ARG0", 0, 2), ("ARG1", 3, 7))),)
    )
    assert degrade(steel, with_frames) == []
    without_frames = ParseAnnotation(0, deps)
    degs = degrade(steel, without_frames)
    assert [d.removed_spans for d in degs] == [((5, 7),)]


def test_degrade_respects_min_remaining():
    caption = T("near parks dogs play")
    ann = ParseAnnotation(
        0,
        _dep(
            ("near", "ADP", 1, "case"),
            ("parks", "NOUN", 3, "obl"),
            ("dogs", "NOUN", 3, "nsubj"),
            ("play", "VERB", -1, "root"),
        ),
    )
    assert degrade(caption, ann) == []


def test_degrade_rejection_rules():
    # "home" (obl) heads {fast, home}, split by "today": not contiguous
    split = T("men run fast today home .")
    ann = ParseAnnotation(
        0,
        _dep(
            ("men", "NOUN", 1, "nsubj"),
            ("run", "VERB", -1, "root"),
            ("fast", "ADV", 4, "advmod"),
            ("today", "NOUN", 1, "obl"),
            ("home", "NOUN", 1, "obl"),
            (".", "PUNCT", 1, "punct"),
        ),
    )
    assert [d.removed_spans for d in degrade(split, ann)] == [((2, 3),), ((3, 4),)]

    # a removable relation whose head cannot serve as an attribute
    negated = T("dogs do not bark .")
    ann = ParseAnnotation(
        0,
        _dep(
            ("dogs", "NOUN", 3, "nsubj"),
            ("do", "AUX", 3, "aux"),
            ("not", "PART", 3, "advmod"),
            ("bark", "VERB", -1, "root"),
            (".", "PUNCT", 3, "punct"),
        ),
    )
    assert degrade(negated, ann) == []

    # "big" lies inside the "on the big field" branch: only the maximal one
    field = T("kids play on the big field .")
    ann = ParseAnnotation(
        0,
        _dep(
            ("kids", "NOUN", 1, "nsubj"),
            ("play", "VERB", -1, "root"),
            ("on", "ADP", 5, "case"),
            ("the", "DET", 5, "det"),
            ("big", "ADJ", 5, "amod"),
            ("field", "NOUN", 1, "obl"),
            (".", "PUNCT", 1, "punct"),
        ),
    )
    degs = degrade(field, ann)
    assert [d.removed_spans for d in degs] == [((2, 6),)]
    assert degs[0].attributes == (("field",),)

    # each adjective alone leaves 4 tokens, the merged pair only 3
    dogs = T("big red dogs run .")
    ann = ParseAnnotation(
        0,
        _dep(
            ("big", "ADJ", 2, "amod"),
            ("red", "ADJ", 2, "amod"),
            ("dogs", "NOUN", 3, "nsubj"),
            ("run", "VERB", -1, "root"),
            (".", "PUNCT", 3, "punct"),
        ),
    )
    assert [d.removed_spans for d in degrade(dogs, ann)] == [((0, 2),)]
    assert degrade(dogs, ann, ConstructionConfig(min_remaining_tokens=4)) == []


def _random_tree(rng: random.Random, n: int, shape: str) -> ParseAnnotation:
    """An n-token parse: "flat" hangs every token from the root, "nested"
    from a token between it and the root, "random" from any token visited
    before it.  All branches are amod ADJ, so each contiguous subtree is a
    candidate."""
    root = rng.randrange(n)
    heads = [-1] * n
    if shape == "random":
        order = [root] + rng.sample([i for i in range(n) if i != root], n - 1)
        for k in range(1, n):
            heads[order[k]] = order[rng.randrange(k)]
    for i in range(n) if shape != "random" else ():
        if i != root:
            toward = (i + 1, root) if i < root else (root, i - 1)
            heads[i] = root if shape == "flat" else rng.randint(*toward)
    return ParseAnnotation(
        0,
        tuple(
            DepToken(f"w{i}", "VERB" if h == -1 else "ADJ", h, "root" if h == -1 else "amod")
            for i, h in enumerate(heads)
        ),
    )


@pytest.mark.parametrize("shape", ["flat", "nested", "random"])
def test_maximal_branches_match_all_pairs_oracle(shape, monkeypatch):
    for case in range(150):
        rng = random.Random(f"{shape}{case}")
        ann = _random_tree(rng, rng.randrange(2, 40), shape)
        spans = ann.subtree_spans
        candidates = [
            ((lo, hi + 1), i)
            for i, (size, lo, hi) in enumerate(spans)
            if i != ann.root and hi - lo + 1 == size and rng.random() < 0.8
        ]
        rng.shuffle(candidates)
        assert construction._maximal_branches(candidates) == maximal_branches_all_pairs(
            candidates
        )
        caption = T(" ".join(t.form for t in ann.tokens))
        swept = degrade(caption, ann)
        with monkeypatch.context() as m:
            m.setattr(construction, "_maximal_branches", maximal_branches_all_pairs)
            assert degrade(caption, ann) == swept


def test_degrade_checks_caption_parse_agreement():
    with pytest.raises(DatasetError):
        degrade(T("a dog ."), GIRLS_PARSE)
    swapped = T("A group of girls is on the field playing a show .")
    with pytest.raises(DatasetError):
        degrade(swapped, GIRLS_PARSE)


def test_make_attribute_samples_full_family():
    short = T("A group of girls is playing a game .")
    long_with_field = T("Several girls play a hockey game on a large grassy field .")
    group = CaptionGroup("vid1", (GIRLS, short, long_with_field))
    degs = degrade(GIRLS, GIRLS_PARSE)
    samples = make_attribute_samples(degs, group, 0)
    by_kind = {kind(s.command): s for s in samples}
    assert len(samples) == 4
    assert set(by_kind) == {
        CommandKind.DEL_POS,
        CommandKind.DEL_ATTR,
        CommandKind.ADD_POS_ATTR,
        CommandKind.ADD_ATTR,
    }

    dp = by_kind[CommandKind.DEL_POS]
    assert dp.command.positions == ((5, 8),)
    assert dp.reference == GIRLS
    assert dp.ground_truth == short
    assert dp.payload == (("on", "the", "field"),)
    assert dp.provenance is Provenance.DEGRADATION

    da = by_kind[CommandKind.DEL_ATTR]
    assert da.command.attributes == (("field",),)
    assert da.reference == GIRLS
    assert da.ground_truth == short  # retargeted caption without the attribute
    assert da.provenance is Provenance.RELAXATION

    ap = by_kind[CommandKind.ADD_POS_ATTR]
    assert ap.command.positions == (5,)
    assert ap.command.attributes == (("field",),)
    assert ap.reference == short
    assert ap.ground_truth == GIRLS
    assert ap.payload == (("on", "the", "field"),)
    assert ap.provenance is Provenance.REVERSAL

    aa = by_kind[CommandKind.ADD_ATTR]
    assert aa.reference == short
    assert aa.ground_truth == long_with_field  # longer caption containing "field"
    assert aa.provenance is Provenance.RELAXATION


def test_make_attribute_samples_fallbacks_without_other_captions():
    group = CaptionGroup("vid1", (GIRLS,))
    samples = make_attribute_samples(degrade(GIRLS, GIRLS_PARSE), group, 0)
    by_kind = {kind(s.command): s for s in samples}
    assert len(samples) == 4
    assert by_kind[CommandKind.DEL_ATTR].ground_truth == by_kind[CommandKind.DEL_POS].ground_truth
    assert by_kind[CommandKind.DEL_ATTR].provenance is Provenance.DEGRADATION
    assert by_kind[CommandKind.ADD_ATTR].ground_truth == GIRLS
    assert by_kind[CommandKind.ADD_ATTR].provenance is Provenance.REVERSAL


def test_make_attribute_samples_skips_del_attr_when_attribute_survives():
    caption = T("a red car hits a red wall .")
    ann = ParseAnnotation(
        0,
        _dep(
            ("a", "DET", 2, "det"),
            ("red", "ADJ", 2, "amod"),
            ("car", "NOUN", 3, "nsubj"),
            ("hits", "VERB", -1, "root"),
            ("a", "DET", 6, "det"),
            ("red", "ADJ", 6, "amod"),
            ("wall", "NOUN", 3, "obj"),
            (".", "PUNCT", 3, "punct"),
        ),
    )
    degs = degrade(caption, ann)
    assert [d.removed_spans for d in degs] == [((1, 2),), ((5, 6),)]
    samples = make_attribute_samples(degs, CaptionGroup("v", (caption,)), 0)
    # removing one "red" leaves the other, so no del-by-attribute sample
    kinds = [kind(s.command) for s in samples]
    assert CommandKind.DEL_ATTR not in kinds
    assert len(samples) == 6


def test_reconstruction_invariant_for_payload_samples():
    short = T("A group of girls is playing a game .")
    group = CaptionGroup("vid1", (GIRLS, short))
    samples = make_attribute_samples(degrade(GIRLS, GIRLS_PARSE), group, 0)
    for s in samples:
        if s.payload is not None:
            assert oracle_apply(s.command, s.reference, s.payload) == s.ground_truth


def _pos_attr_sample(i: int) -> EditSample:
    ref = T("a man rides a bike .")
    cmd = Command(
        Operation.ADD, (2, 5), (("very", "fast"), ("down", "the"), ("hill", "today"))
    )
    gt = oracle_apply(cmd, ref)
    return EditSample(
        id=f"p{i}",
        video_id=f"v{i}",
        mode=WORD,
        command=cmd,
        reference=ref,
        ground_truth=gt,
        provenance=Provenance.REVERSAL,
        payload=(("very", "fast", "down", "the"), ("hill", "today")),
    )


def _sample_of_kind(k: CommandKind, diff: int) -> EditSample:
    """A k sample whose ground truth is diff tokens longer than its
    12-token reference, with a payload when k has positions."""
    positions = None
    if k.has_pos:
        positions = (1, 3) if k.op is Operation.ADD else ((0, 1), (2, 4))
    return EditSample(
        id="x",
        video_id="v",
        mode=WORD,
        command=Command(k.op, positions, (("red",), ("fast",)) if k.has_attr else None),
        reference=TokenSeq(tuple(f"r{i}" for i in range(12)), WORD),
        ground_truth=TokenSeq(tuple(f"g{i}" for i in range(12 + diff)), WORD),
        provenance=Provenance.REVERSAL if k.has_pos else Provenance.RELAXATION,
        payload=(("a",), ("b", "c")) if k.has_pos else None,
    )


def test_kind_fields_match_the_per_kind_tables():
    for k in CommandKind:
        assert k.label == KIND_LABELS[k]
        for min_length_diff in (0, 2, 5):
            config = ConstructionConfig(min_length_diff=min_length_diff)
            for diff in range(-10, 11):
                sample = _sample_of_kind(k, diff)
                claims = claim_kinds(sample, config)
                assert claims == claim_kinds_table(sample, config), (k, diff, min_length_diff)
                assert construction._reassign(sample, k) == sample
                for target in claims - {k}:
                    new = construction._reassign(sample, target)
                    old = reassign_branches(sample, target)
                    assert (new.command, new.payload) == (old.command, old.payload)
                    assert new == old


def test_claim_kinds():
    config = ConstructionConfig()
    big = _pos_attr_sample(0)
    assert claim_kinds(big, config) == {
        CommandKind.ADD_POS_ATTR,
        CommandKind.ADD_POS,
        CommandKind.ADD_ATTR,
        CommandKind.ADD_LEN,
    }
    rng = random.Random(5)
    small = make_sample(rng, CommandKind.ADD_POS_ATTR, "v")
    while len(small.ground_truth) - len(small.reference) > config.min_length_diff:
        small = make_sample(rng, CommandKind.ADD_POS_ATTR, "v")
    assert CommandKind.ADD_LEN not in claim_kinds(small, config)
    assert claim_kinds(small, config) >= {
        CommandKind.ADD_POS_ATTR, CommandKind.ADD_POS, CommandKind.ADD_ATTR,
    }

    add_len = make_sample(rng, CommandKind.ADD_LEN, "v")
    assert claim_kinds(add_len, config) == {CommandKind.ADD_LEN}


def test_filter_by_perplexity_and_edit_distance():
    rng = random.Random(7)
    base = make_samples(rng, 2, kinds=(CommandKind.ADD_POS,))
    noisy = replace(base[0], ppl=50.0)
    quiet = replace(base[1], ppl=5.0)
    config = ConstructionConfig(ppl_threshold=10.0)
    kept = filter_and_balance([noisy, quiet], config)
    assert [s.id for s in kept] == [quiet.id]
    # absent perplexity passes the filter
    kept = filter_and_balance(base, config)
    assert len(kept) == 2

    far = _pos_attr_sample(0)  # edit distance 6 from its reference
    config = ConstructionConfig(max_edit_distance=5)
    assert filter_and_balance([far], config) == []
    config = ConstructionConfig(max_edit_distance=6)
    assert len(filter_and_balance([far], config)) == 1


def test_balancing_spreads_claimable_kinds():
    samples = [_pos_attr_sample(i) for i in range(8)]
    out = filter_and_balance(samples, ConstructionConfig(), seed=3)
    assert len(out) == 8
    counts = {}
    for s in out:
        counts[kind(s.command)] = counts.get(kind(s.command), 0) + 1
    assert counts == {
        CommandKind.ADD_LEN: 2,
        CommandKind.ADD_POS: 2,
        CommandKind.ADD_ATTR: 2,
        CommandKind.ADD_POS_ATTR: 2,
    }
    for s in out:
        k = kind(s.command)
        if k in (CommandKind.ADD_POS, CommandKind.ADD_POS_ATTR):
            assert s.payload is not None
        else:
            assert s.payload is None
        assert s.ground_truth == samples[0].ground_truth  # truths never change

    again = filter_and_balance(samples, ConstructionConfig(), seed=3)
    assert [(s.id, kind(s.command)) for s in again] == [
        (s.id, kind(s.command)) for s in out
    ]


def test_max_per_kind_cap():
    samples = [_pos_attr_sample(i) for i in range(8)]
    out = filter_and_balance(
        samples, ConstructionConfig(max_per_kind=1), seed=3
    )
    assert len(out) == 4
    kinds = [kind(s.command) for s in out]
    assert len(set(kinds)) == 4


# per kind, a reservoir of synthetic samples whose length differences
# fall on both sides of the min_length_diff values used below
_RESERVOIR = {
    k: [make_sample(random.Random(1000 * i + j), k, f"v{j}") for j in range(30)]
    for i, k in enumerate(CommandKind)
}


def _random_mix(rng: random.Random) -> list[EditSample]:
    """A random kind mix: some kinds absent, some dominant, ids unique,
    a third of the samples carrying a perplexity."""
    out = []
    for k in CommandKind:
        for s in rng.sample(_RESERVOIR[k], rng.choice((0, 1, 2, 5, 12, 30))):
            ppl = rng.choice((None, 5.0, 50.0))
            out.append(replace(s, id=f"t{len(out):04d}", ppl=ppl))
    rng.shuffle(out)
    return out


def _stuck_pair(samples, config) -> bool:
    """Some donor exceeds some recipient by more than the tolerance but
    has no member that can move to it."""
    pools = {k: [s for s in samples if kind(s.command) is k] for k in CommandKind}
    return any(
        len(pools[d]) - len(pools[r]) > config.balance_tolerance
        and not any(r in claim_kinds(s, config) for s in pools[d])
        for d in CommandKind
        for r in CommandKind
        if d is not r
    )


@pytest.mark.parametrize("tolerance", [0, 1, 3])
def test_balancing_matches_rescanning_oracle(tolerance):
    rng = random.Random(tolerance)
    stuck = 0
    for case in range(40):
        samples = _random_mix(rng)
        config = ConstructionConfig(
            min_length_diff=rng.choice((0, 2, 5)),
            balance_tolerance=tolerance,
            ppl_threshold=rng.choice((None, 10.0)),
            max_per_kind=rng.choice((None, 1, 4)),
        )
        stuck += _stuck_pair(samples, config)
        seed = rng.randrange(1000)
        assert filter_and_balance(samples, config, seed) == filter_and_balance_rescan(
            samples, config, seed
        ), f"case {case}"
    assert stuck  # the cases include donors that cannot serve a recipient


def _counting(monkeypatch, name: str) -> list:
    calls = []
    inner = getattr(construction, name)

    def counted(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(construction, name, counted)
    return calls


def test_balancing_computes_each_claim_set_once(monkeypatch):
    claims = _counting(monkeypatch, "claim_kinds")
    moves = _counting(monkeypatch, "_reassign")
    samples = [_pos_attr_sample(i) for i in range(40)] + make_samples(
        random.Random(23), 6
    )
    out = filter_and_balance(samples, ConstructionConfig(), seed=3)
    assert len(out) == len(samples)
    assert moves
    assert len(claims) <= len(samples) + len(moves)

    # no two kinds differ by more than the tolerance: nothing is computed
    del claims[:], moves[:]
    even = make_samples(random.Random(29), 3)
    assert filter_and_balance(even, ConstructionConfig(balance_tolerance=0)) == even
    assert not claims and not moves


def test_construct_corpus_checks_each_sample_once(monkeypatch):
    checks = _counting(monkeypatch, "check_reference")
    moves = _counting(monkeypatch, "_reassign")
    built = []
    inner = construction.filter_and_balance

    def counted(samples, *args):
        built.append(len(samples))
        return inner(samples, *args)

    monkeypatch.setattr(construction, "filter_and_balance", counted)
    groups, parses, neighbors = _construct_fixture()
    ppl = {("vid1", detokenize(GIRLS)): 42.0}
    config = ConstructionConfig(balance_tolerance=0)
    samples = construct_corpus(groups, parses, config, neighbors=neighbors, ppl=ppl)
    assert samples and moves
    # once per family-built sample, plus once per balancing move; the
    # perplexity and the id are set without a check
    assert len(checks) == built[0] + len(moves)
    assert any(s.ppl == 42.0 for s in samples)


def test_edit_sample_checks():
    common = dict(id="a", video_id="v", provenance=Provenance.REVERSAL)
    with pytest.raises(ValueError, match="language mode disagrees"):
        EditSample(
            mode=LanguageMode.CHAR, command=Command(Operation.ADD),
            reference=T("a ."), ground_truth=T("a b ."), **common,
        )
    with pytest.raises(ValueError, match="payload span count"):
        EditSample(
            mode=WORD, command=Command(Operation.ADD, (1, 2)),
            reference=T("a b ."), ground_truth=T("a x b y ."), payload=(("x",),), **common,
        )


def test_jaccard_of_two_empty_pools_is_zero():
    assert construction._jaccard(frozenset(), frozenset()) == 0.0
    assert construction._jaccard(frozenset({"dog"}), frozenset()) == 0.0


def test_corpus_stats():
    s1 = EditSample(
        id="a", video_id="v", mode=WORD,
        command=Command(Operation.ADD),
        reference=T("a b ."), ground_truth=T("a b c d ."),
        provenance=Provenance.LENGTH_PAIR,
    )
    s2 = EditSample(
        id="b", video_id="v", mode=WORD,
        command=Command(Operation.ADD),
        reference=T("A cat ."), ground_truth=T("a cat sat ."),
        provenance=Provenance.LENGTH_PAIR,
    )
    stats = corpus_stats([s1, s2])
    assert stats.count == 2
    assert stats.mean_ref_len == 3.0
    assert stats.mean_gt_len == 4.5
    assert stats.mean_edit_distance == 1.5  # normalized tokens: 2 and 1
    assert stats.vocabulary == 7  # a b . c d cat sat
    assert stats.per_kind == {"add_len": 2}
    with pytest.raises(ValueError):
        corpus_stats([])


def test_corpus_stats_measures_each_distinct_pair_once(monkeypatch):
    """The del and the reversed add of a degradation share one pair, and
    equal sequences of different samples count as one; the match table
    of each distinct longer side is built once, though several pairs
    share it; the means equal fsum over one distance per sample."""
    samples = []
    for caption, ann in ((GIRLS, GIRLS_PARSE), (RIDES, RIDES_PARSE)):
        degs = degrade(caption, ann)
        samples += make_attribute_samples(degs, CaptionGroup("v", (caption, T("girls play ."))), 0)
        # an equal caption in another object
        samples += make_attribute_samples(degs, CaptionGroup("w", (T(detokenize(caption)),)), 0)
    tables, calls = [], []
    match_masks = construction.kernels._match_masks
    myers_distance = construction.kernels._myers_distance
    monkeypatch.setattr(
        construction.kernels, "_match_masks", lambda a: tables.append(a) or match_masks(a)
    )
    monkeypatch.setattr(
        construction.kernels,
        "_myers_distance",
        lambda peq, m, b: calls.append(1) or myers_distance(peq, m, b),
    )
    stats = corpus_stats(samples)
    pairs = {frozenset((s.reference.tokens, s.ground_truth.tokens)) for s in samples}
    assert len(calls) == len(pairs) < len(samples)
    # no two sides of a pair tie in length, so each pair has one longer side
    assert all(len({len(x) for x in p}) == len(p) for p in pairs)
    longer = {max(p, key=len) for p in pairs}
    assert sorted(tables) == sorted(tuple(t.lower() for t in x) for x in longer)
    assert len(tables) < len(pairs)
    monkeypatch.undo()
    distance = construction.kernels.edit_distance
    norm = [(normalized_tokens(s.reference), normalized_tokens(s.ground_truth)) for s in samples]
    assert stats.mean_edit_distance == math.fsum(distance(a, b) for a, b in norm) / len(samples)
    assert stats.mean_ref_len == math.fsum(len(a) for a, _ in norm) / len(samples)
    assert stats.mean_gt_len == math.fsum(len(b) for _, b in norm) / len(samples)


def test_partition_videos_ratios():
    rng = random.Random(11)
    samples = []
    for i, s in enumerate(make_samples(rng, 10, kinds=(CommandKind.ADD_LEN,))):
        samples.append(replace(s, video_id=f"v{i % 10}"))
    assign = partition_videos(samples, ratios=(0.7, 0.1, 0.2), seed=4)
    assert set(assign) == {s.video_id for s in samples}
    parts = sorted(assign.values())
    assert (parts.count("train"), parts.count("val"), parts.count("test")) == (7, 1, 2)
    # the same seed gives the same split, and these ratios are the default
    assert partition_videos(samples, seed=4) == assign


def test_partition_videos_mapping_and_validation():
    rng = random.Random(13)
    samples = make_samples(rng, 2, kinds=(CommandKind.ADD_LEN,))
    mapping = {s.video_id: "test" for s in samples}
    assert partition_videos(samples, mapping=mapping) == mapping
    with pytest.raises(DatasetError):
        partition_videos(samples, mapping={})
    with pytest.raises(DatasetError):
        partition_videos(samples, mapping={s.video_id: "dev" for s in samples})
    with pytest.raises(ValueError):
        partition_videos(samples, ratios=(0.5, 0.5, 0.5))


def test_construct_corpus_assigns_ids_in_place(monkeypatch):
    balanced = []
    inner = construction.filter_and_balance

    def recorded(samples, *args):
        out = inner(samples, *args)
        balanced.append((out, [replace(s) for s in out]))
        return out

    monkeypatch.setattr(construction, "filter_and_balance", recorded)
    groups, parses, neighbors = _construct_fixture()
    samples = construct_corpus(groups, parses, neighbors=neighbors)
    (out, before), = balanced
    assert len(samples) > 2
    assert {s.id for s in before} == {""}
    # stable unique ids in corpus order, set on the very samples that
    # filter_and_balance returned, with every other field unchanged
    assert [s.id for s in samples] == [f"s{i:06d}" for i in range(len(samples))]
    assert all(a is b for a, b in zip(samples, out, strict=True))
    assert samples == [replace(s, id=f"s{i:06d}") for i, s in enumerate(before)]


def _construct_fixture():
    short = T("A group of girls is playing a game .")
    long_with_field = T("Several girls play a hockey game on a large grassy field .")
    g1 = CaptionGroup("vid1", (GIRLS, short, long_with_field))
    g2 = CaptionGroup(
        "vid2",
        (
            T("a small brown dog runs quickly across the green park grass today ."),
            T("the dog chases a ball ."),
        ),
    )
    parses = {("vid1", 0): GIRLS_PARSE}
    neighbors = {"vid2": ["vid1"], "vid1": []}
    return [g1, g2], parses, neighbors


def test_construct_corpus_end_to_end():
    groups, parses, neighbors = _construct_fixture()
    samples = construct_corpus(groups, parses, neighbors=neighbors)
    assert samples
    ids = [s.id for s in samples]
    assert len(set(ids)) == len(ids)
    assert all(s.id.startswith("s") for s in samples)
    kinds = {kind(s.command) for s in samples}
    assert CommandKind.DEL_POS in kinds
    assert CommandKind.ADD_POS_ATTR in kinds
    assert CommandKind.DEL_LEN in kinds
    assert CommandKind.ADD_LEN in kinds
    for s in samples:
        if s.payload is not None:
            assert oracle_apply(s.command, s.reference, s.payload) == s.ground_truth

    again = construct_corpus(groups, parses, neighbors=neighbors)
    assert again == samples


def test_construct_corpus_attaches_perplexity():
    groups, parses, neighbors = _construct_fixture()
    ppl = {("vid1", detokenize(GIRLS)): 42.0}
    samples = construct_corpus(groups, parses, neighbors=neighbors, ppl=ppl)
    scored = [s for s in samples if s.ppl is not None]
    assert len(scored) == 1
    assert scored[0].ppl == 42.0
    assert scored[0].ground_truth == GIRLS

    config = ConstructionConfig(ppl_threshold=10.0)
    filtered = construct_corpus(
        groups, parses, config=config, neighbors=neighbors, ppl=ppl
    )
    assert len(filtered) == len(samples) - 1


def test_construction_config_from_dict():
    config = ConstructionConfig.from_dict(
        {"min_length_diff": 2, "removable_relations": ["obl"], "split": {}}
    )
    assert config.min_length_diff == 2
    assert config.removable_relations == frozenset({"obl"})
    with pytest.raises(DatasetError):
        ConstructionConfig.from_dict({"not_a_key": 1})
    # null for an optional field, an integer for a float, a full split entry
    config = ConstructionConfig.from_dict(
        {"ppl_threshold": None, "max_per_kind": 3, "similarity_threshold": 1,
         "split": {"ratios": [1, 0, 0], "seed": 2, "mapping": None}}
    )
    assert config.ppl_threshold is None and config.max_per_kind == 3
    assert config.similarity_threshold == 1


def test_edit_sample_validation():
    ref = T("a b .")
    with pytest.raises(CommandError):
        EditSample(
            id="x", video_id="v", mode=WORD,
            command=Command(Operation.ADD, (9,)),
            reference=ref, ground_truth=ref,
            provenance=Provenance.LENGTH_PAIR,
        )
    with pytest.raises(ValueError):
        EditSample(
            id="x", video_id="v", mode=WORD,
            command=Command(Operation.ADD),
            reference=ref, ground_truth=ref,
            provenance=Provenance.LENGTH_PAIR,
            payload=(("x",),),  # payload without positions
        )
    with pytest.raises(ValueError):
        EditSample(
            id="x", video_id="v", mode=WORD,
            command=Command(Operation.ADD, (0,)),
            reference=ref, ground_truth=ref,
            provenance=Provenance.LENGTH_PAIR,  # wrong provenance for payload
            payload=(("x",),),
        )
