"""Dialogue quality metrics over whitespace-tokenized text.

Reference-based scores (word-overlap F1, clipped n-gram precision with a
brevity penalty) compare one generated reply to one gold reply; diversity
(distinct n-grams) is computed over a whole collection of replies; target
success checks whether an annotated topic surfaced in the right rounds; and
the consistency oracle scores persona adherence against the synthetic
corpus recipe, round by round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

import math
import string

import numpy as np

from .data import SynthSpec
from .errors import ConfigError


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip terminal punctuation; tokens
    that were pure punctuation are dropped."""
    out = []
    for token in text.lower().split():
        token = token.rstrip(string.punctuation)
        if token:
            out.append(token)
    return out


def word_f1(hypothesis: str, reference: str) -> float:
    """Harmonic mean of word-multiset precision and recall."""
    hyp = Counter(tokenize(hypothesis))
    ref = Counter(tokenize(reference))
    if not hyp and not ref:
        return 1.0
    overlap = sum((hyp & ref).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(hyp.values())
    recall = overlap / sum(ref.values())
    return 2.0 * precision * recall / (precision + recall)


def ngrams(tokens: list[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def bleu_n(hypothesis: str, reference: str, n: int = 2) -> float:
    """Geometric mean of clipped 1..n-gram precisions times a brevity
    penalty of min(1, exp(1 - |reference| / |hypothesis|))."""
    if n < 1:
        raise ConfigError(f"bleu order must be >= 1, got {n}")
    hyp = tokenize(hypothesis)
    ref = tokenize(reference)
    if not hyp:
        return 0.0
    precisions = []
    for k in range(1, n + 1):
        hyp_counts = Counter(ngrams(hyp, k))
        total = sum(hyp_counts.values())
        if total == 0:
            return 0.0
        ref_counts = Counter(ngrams(ref, k))
        clipped = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        if clipped == 0:
            return 0.0
        precisions.append(clipped / total)
    geo = math.exp(sum(math.log(p) for p in precisions) / n)
    brevity = min(1.0, math.exp(1.0 - len(ref) / len(hyp)))
    return brevity * geo


def dist_n(texts: list[str], n: int, denominator: str = "words") -> float:
    """Distinct n-grams across all texts over the total word count (default)
    or over the total n-gram count ("ngrams"). N-grams never straddle two
    texts."""
    if n < 1:
        raise ConfigError(f"dist order must be >= 1, got {n}")
    if denominator not in ("words", "ngrams"):
        raise ConfigError(f"unknown denominator {denominator!r}; expected 'words' or 'ngrams'")
    seen: set[tuple[str, ...]] = set()
    total_words = 0
    total_ngrams = 0
    for text in texts:
        tokens = tokenize(text)
        total_words += len(tokens)
        grams = ngrams(tokens, n)
        total_ngrams += len(grams)
        seen.update(grams)
    denom = total_words if denominator == "words" else total_ngrams
    if denom == 0:
        return 0.0
    return len(seen) / denom


@dataclass(frozen=True)
class SuccessResult:
    rate: float
    n_scored: int
    n_skipped: int


def success_rate(samples, responses: list[list[str]], window: int = 1) -> SuccessResult:
    """Fraction of annotated dialogues whose topic word appears in a generated
    reply within +/- window rounds of the annotated round.

    samples carry the gold annotations ({"topic", "round"?; round defaults to
    the final one}); responses[i][t] is the generated agent reply for round
    t+1 of dialogue i. Unannotated dialogues are skipped and counted.
    """
    if len(samples) != len(responses):
        raise ConfigError(f"{len(samples)} samples vs {len(responses)} response lists")
    if window < 0:
        raise ConfigError(f"window must be >= 0, got {window}")
    scored = 0
    hits = 0
    skipped = 0
    for sample, replies in zip(samples, responses):
        round_no = sample.target_round()
        if round_no is None:
            skipped += 1
            continue
        topic = sample.target["topic"].lower()
        scored += 1
        lo = max(1, round_no - window)
        hi = min(len(replies), round_no + window)
        for t in range(lo, hi + 1):
            if topic in tokenize(replies[t - 1]):  # tokens arrive lowercased
                hits += 1
                break
    rate = hits / scored if scored else 0.0
    return SuccessResult(rate=rate, n_scored=scored, n_skipped=skipped)


class ConsistencyOracle:
    """Per-reply persona adherence check against the synthetic corpus recipe.

    A reply satisfies the oracle when the dialogue's persona marker appears
    in it and every word belongs to the agent-side vocabulary (agent words,
    markers, and topics). Gold replies satisfy it by construction. A graded
    variant is exposed for diagnostics: half credit for the marker, half for
    the in-vocabulary word fraction.
    """

    def __init__(self, spec: SynthSpec):
        self.spec = spec
        self.agent_words = spec.agent_side_words()
        self.markers = frozenset(spec.markers)

    def marker_of(self, instruction: str) -> str | None:
        tokens = tokenize(instruction)
        for i, tok in enumerate(tokens[:-1]):
            if tok == "persona" and tokens[i + 1] in self.markers:
                return tokens[i + 1]
        return None

    def satisfies(self, marker: str | None, text: str) -> bool:
        tokens = tokenize(text)
        if not tokens or marker is None or marker not in tokens:
            return False
        return all(t in self.agent_words for t in tokens)

    def score_reply(self, marker: str | None, text: str) -> float:
        """Graded diagnostic in [0, 1]: unlike the indicator it gives credit
        for partial vocabulary membership. Reaches 1.0 exactly on replies
        that also satisfy()."""
        tokens = tokenize(text)
        if not tokens:
            return 0.0
        present = 0.5 if marker is not None and marker in tokens else 0.0
        membership = sum(1 for t in tokens if t in self.agent_words) / len(tokens)
        return present + 0.5 * membership

    def score_dialogue(self, instruction: str, replies: list[str]) -> list[bool]:
        marker = self.marker_of(instruction)
        return [self.satisfies(marker, reply) for reply in replies]


def consistency_curve(dialogues: list[tuple[str, list[str]]],
                      oracle: ConsistencyOracle,
                      max_rounds: int | None = None):
    """Per-round consistency over a set of (instruction, replies) pairs.

    Returns (means, counts): means[t] is the fraction of dialogues reaching
    round t+1 whose reply there satisfies the oracle; counts[t] says how
    many reached it. Rounds beyond max_rounds are ignored when it is given.
    Means of indicators: removing a violating dialogue never lowers a score.
    """
    longest = max((len(replies) for _, replies in dialogues), default=0)
    if max_rounds is not None:
        longest = min(longest, max_rounds)
    sums = np.zeros(longest, dtype=np.float64)
    counts = np.zeros(longest, dtype=np.int64)
    for instruction, replies in dialogues:
        flags = oracle.score_dialogue(instruction, replies)
        for t, ok in enumerate(flags[:longest]):
            sums[t] += 1.0 if ok else 0.0
            counts[t] += 1
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return means, counts


@dataclass
class MetricReport:
    """Aggregated evaluation scores for one model over one corpus."""

    word_f1: float
    bleu1: float
    bleu2: float
    dist1: float
    dist2: float
    n_dialogues: int
    n_replies: int
    success: SuccessResult | None = None
    consistency: list[float] | None = None
    consistency_counts: list[int] | None = None

    def to_dict(self) -> dict:
        """The fields as JSON values (`report.json`); those that are None are
        left out."""
        return {name: value for name, value in asdict(self).items() if value is not None}


def score_replies(samples, responses: list[list[str]],
                  oracle: ConsistencyOracle | None = None,
                  success_window: int = 1) -> MetricReport:
    """Compare generated agent replies against the gold replies round by
    round and aggregate every metric into one report."""
    if len(samples) != len(responses):
        raise ConfigError(f"{len(samples)} samples vs {len(responses)} response lists")
    pair_f1: list[float] = []
    pair_b1: list[float] = []
    pair_b2: list[float] = []
    all_replies: list[str] = []
    for sample, replies in zip(samples, responses):
        for t, reply in enumerate(replies):
            if t >= len(sample.rounds):
                break
            gold = sample.rounds[t][1]
            pair_f1.append(word_f1(reply, gold))
            pair_b1.append(bleu_n(reply, gold, 1))
            pair_b2.append(bleu_n(reply, gold, 2))
            all_replies.append(reply)
    report = MetricReport(
        word_f1=float(np.mean(pair_f1)) if pair_f1 else 0.0,
        bleu1=float(np.mean(pair_b1)) if pair_b1 else 0.0,
        bleu2=float(np.mean(pair_b2)) if pair_b2 else 0.0,
        dist1=dist_n(all_replies, 1),
        dist2=dist_n(all_replies, 2),
        n_dialogues=len(samples),
        n_replies=len(all_replies),
    )
    if any(s.target is not None for s in samples):
        report.success = success_rate(samples, responses, window=success_window)
    if oracle is not None:
        means, counts = consistency_curve(
            [(s.instruction, r) for s, r in zip(samples, responses)], oracle)
        report.consistency = [float(v) for v in means]
        report.consistency_counts = [int(v) for v in counts]
    return report
