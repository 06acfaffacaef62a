"""Machine-generated-text detection pipeline.

Covers tweet qualification and preprocessing, pluggable text detectors,
per-account score aggregation, score binning and dichotomization,
F1-maximizing threshold sweeps, recall at fixed thresholds, and Welch's
unequal-variance t-test.

Detectors are deliberately local and deterministic: a replay detector for
reproducing recorded scores, a keyed-digest stub for pipeline tests, and a
transparent text-statistics heuristic so the end-to-end pipeline runs on
raw text with no external service.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .corpus import Corpus, Tweet, _iter_lines

# ---------------------------------------------------------------------------
# Qualification and preprocessing

_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)", re.IGNORECASE)
_HANDLE_TOKEN_RE = re.compile(r"@\w+")


@dataclass(frozen=True)
class QualificationRules:
    """Which tweets qualify for scoring and how their text is processed."""

    exclude_retweets: bool = True
    english_only: bool = True
    strip_reply_handles: bool = True
    strip_links: bool = True


def process_text(text: str, kind: str = "original",
                 rules: QualificationRules = QualificationRules()) -> str:
    """Strip platform artifacts from one tweet's text. Idempotent."""
    if rules.strip_reply_handles and kind == "reply":
        tokens = text.split()
        keep = 0
        while keep < len(tokens) and _HANDLE_TOKEN_RE.fullmatch(tokens[keep]):
            keep += 1
        text = " ".join(tokens[keep:])
    if rules.strip_links:
        text = _URL_RE.sub(" ", text)
    return " ".join(text.split())


def _is_english(language: str | None) -> bool:
    # A missing tag is treated as not-English: qualification is conservative.
    return language is not None and (language == "en" or language.startswith("en-"))


def _kept_tweets(corpus: Corpus, account_id: str, rules: QualificationRules) -> list[Tweet]:
    """The account's tweets that pass the retweet and language filters, in order."""
    return [tweet for tweet in corpus.tweets_of(account_id)
            if not (rules.exclude_retweets and tweet.kind == "retweet")
            and not (rules.english_only and not _is_english(tweet.language))]


def qualify_tweets(corpus: Corpus, account_id: str,
                   rules: QualificationRules = QualificationRules()) -> list[str]:
    """Processed texts of the account's qualified tweets (possibly empty)."""
    if account_id not in corpus.accounts:
        raise KeyError(f"unknown account: {account_id}")
    texts = (process_text(tweet.text, tweet.kind, rules)
             for tweet in _kept_tweets(corpus, account_id, rules))
    return [text for text in texts if text]


# ---------------------------------------------------------------------------
# Detectors

OPENAI_STYLE_SCALE = (0.0, 100.0)
PROBABILITY_SCALE = (0.0, 1.0)


def text_digest(text: str) -> str:
    """Stable digest keying replay scores: sha256 of the exact UTF-8 text, hex."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TextDetector:
    """Interface: a named, deterministic text scorer with a declared range.

    ``score`` must return the same value for the same text every time:
    :func:`score_corpus` calls it once per distinct qualified (text, kind)
    pair within one call and reuses that score for every tweet that repeats
    the pair. A score that is not finite or falls outside ``score_scale`` is
    a ValueError in every scoring entry point.
    """

    name: str = "detector"
    score_scale: tuple[float, float] = OPENAI_STYLE_SCALE
    # Nothing in the package reads this; benchmarks/tracing.py copies it onto
    # its counting wrapper, so it stays until that read goes.
    concurrency_safe: bool = True

    def score(self, text: str) -> float:
        raise NotImplementedError


class StubDetector(TextDetector):
    """Keyed-digest pseudo-score: uniform over the scale, fixed for (key, text)."""

    def __init__(self, key: str = "", score_scale=OPENAI_STYLE_SCALE, name: str = "stub"):
        self.key = key
        self.score_scale = tuple(score_scale)
        self.name = name

    def score(self, text: str) -> float:
        digest = hashlib.sha256(f"{self.key}|{text}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        low, high = self.score_scale
        return low + unit * (high - low)


class ReplayDetector(TextDetector):
    """Scores looked up from a recorded fixture, keyed by text digest.

    The fixture is JSONL with records {"text_digest": string, "score": finite
    number within score_scale}; digests are produced by :func:`text_digest`.
    A line that is not such a record is an error at path:line; unknown texts
    raise LookupError.
    """

    def __init__(self, scores: dict[str, float], score_scale=OPENAI_STYLE_SCALE,
                 name: str = "replay"):
        self.scores = dict(scores)
        self.score_scale = tuple(score_scale)
        self.name = name

    @classmethod
    def from_file(cls, path, score_scale=OPENAI_STYLE_SCALE) -> "ReplayDetector":
        low, high = score_scale
        scores = {}
        for lineno, text in _iter_lines(Path(path)):
            try:
                obj = json.loads(text)
                digest, score = obj["text_digest"], obj["score"]
                valid = (isinstance(digest, str) and not isinstance(score, bool)
                         and isinstance(score, (int, float)) and low <= score <= high)
            except (TypeError, ValueError, LookupError, RecursionError, OverflowError):
                valid = False
            if not valid:
                raise ValueError(f"{path}:{lineno}: expected a record "
                                 f'{{"text_digest": string, "score": number in [{low}, {high}]}}')
            scores[digest] = float(score)
        return cls(scores, score_scale=score_scale)

    def score(self, text: str) -> float:
        digest = text_digest(text)
        try:
            return self.scores[digest]
        except KeyError:
            raise LookupError(f"no recorded score for text digest {digest}") from None


def write_replay_scores(path, text_scores: dict[str, float]) -> Path:
    """Record {text: score} pairs as a replay fixture file."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for text in sorted(text_scores):
            fh.write(json.dumps(
                {"text_digest": text_digest(text), "score": float(text_scores[text])},
                sort_keys=True) + "\n")
    return path


_WORD_RE = re.compile(r"[a-zA-Z']+")
_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")

_FUNCTION_WORDS = frozenset(
    "the a an and or but if then of to in on at for with as is are was were be "
    "been being am it its this that these those there here i you he she we they "
    "my your his her our their me him them so not no do does did have has had "
    "will would can could should may might".split()
)


class HeuristicDetector(TextDetector):
    """Transparent text-statistics scorer on the 0-100 scale.

    Three signals associated with formulaic generated prose, each in [0, 1]:
    low type-token ratio, heavy function-word usage, and uniform sentence
    lengths. The score is a fixed-weight blend scaled to [0, 100]. This is a
    pipeline stand-in, not a calibrated classifier.
    """

    name = "heuristic"
    score_scale = OPENAI_STYLE_SCALE

    def score(self, text: str) -> float:
        tokens = [t.lower() for t in _WORD_RE.findall(text)]
        if not tokens:
            return 0.0
        repetition = 1.0 - len(set(tokens)) / len(tokens)
        function_load = min(1.0, (sum(t in _FUNCTION_WORDS for t in tokens) / len(tokens)) / 0.6)
        lengths = [len(_WORD_RE.findall(s)) for s in _SENTENCE_SPLIT_RE.split(text)]
        lengths = [n for n in lengths if n > 0]
        if len(lengths) >= 2:
            arr = np.array(lengths, dtype=float)
            uniformity = 1.0 / (1.0 + float(arr.std()))
        else:
            uniformity = 0.5
        blended = 0.35 * repetition + 0.35 * function_load + 0.30 * uniformity
        return float(min(100.0, max(0.0, 100.0 * blended)))


# ---------------------------------------------------------------------------
# Score aggregation

@dataclass(frozen=True)
class AccountScore:
    account_id: str
    n_qualified: int
    mean_score: float
    per_tweet_scores: tuple[float, ...]


def _checked(score: float, detector: TextDetector) -> float:
    """The score itself, or a ValueError naming the detector and the value when
    it is not finite or lies outside the detector's declared score_scale."""
    low, high = detector.score_scale
    if not math.isfinite(score):
        raise ValueError(f"detector {detector.name!r} returned a non-finite score: {score!r}")
    if not low <= score <= high:
        raise ValueError(f"detector {detector.name!r} returned a score outside its "
                         f"score_scale [{low}, {high}]: {score!r}")
    return score


def _account_score(account_id: str, scores: list[float]) -> AccountScore | None:
    if not scores:
        return None
    return AccountScore(
        account_id=account_id,
        n_qualified=len(scores),
        mean_score=float(sum(scores) / len(scores)),
        per_tweet_scores=tuple(scores),
    )


def score_account(account_id: str, texts, detector: TextDetector) -> AccountScore | None:
    """Average the detector over the account's texts; None when nothing
    qualifies. A non-finite or out-of-scale detector output is a ValueError."""
    return _account_score(account_id, [_checked(detector.score(text), detector)
                                       for text in texts])


def concat_and_score(texts, detector: TextDetector, separator: str = "\n") -> float:
    """Join texts and score the consolidated document once; a non-finite or
    out-of-scale detector output is a ValueError."""
    texts = list(texts)
    if not texts:
        raise ValueError("need at least one text to concatenate")
    return _checked(detector.score(separator.join(texts)), detector)


def score_corpus(corpus: Corpus, detector: TextDetector,
                 rules: QualificationRules = QualificationRules(),
                 group=None):
    """Score every account (or a group); returns (scores by id, n without any
    qualified tweet).

    Each account's score equals ``score_account(id, qualify_tweets(corpus, id,
    rules), detector)``, but each distinct raw (text, kind) pair is processed
    and scored once per call, so the detector must be deterministic.
    """
    account_ids = sorted(group) if group is not None else sorted(corpus.accounts)
    # (raw text, kind) -> () when processing leaves nothing, else (score,).
    memo: dict[tuple[str, str], tuple[float, ...]] = {}
    scores: dict[str, AccountScore] = {}
    unscored = 0
    for account_id in account_ids:
        if account_id not in corpus.accounts:
            continue
        account_scores = []
        for tweet in _kept_tweets(corpus, account_id, rules):
            key = (tweet.text, tweet.kind)
            cached = memo.get(key)
            if cached is None:
                processed = process_text(tweet.text, tweet.kind, rules)
                cached = memo[key] = (
                    (_checked(detector.score(processed), detector),) if processed else ())
            account_scores.extend(cached)
        result = _account_score(account_id, account_scores)
        if result is None:
            unscored += 1
        else:
            scores[account_id] = result
    return scores, unscored


def filter_min_qualified(account_scores, min_n: int) -> list[AccountScore]:
    """Keep accounts backed by at least ``min_n`` qualified tweets."""
    if min_n < 1:
        raise ValueError("min_n must be >= 1")
    return [s for s in account_scores if s.n_qualified >= min_n]


# ---------------------------------------------------------------------------
# Binning and dichotomization

class ScoreBand(Enum):
    VERY_UNLIKELY = "very_unlikely"
    UNLIKELY = "unlikely"
    UNCLEAR = "unclear"
    POSSIBLY = "possibly"
    LIKELY = "likely"


# Right-closed bin edges on the 0-100 detector scale; 0 itself falls into
# the lowest band to keep the partition total.
_BAND_EDGES = (
    (10.0, ScoreBand.VERY_UNLIKELY),
    (45.0, ScoreBand.UNLIKELY),
    (90.0, ScoreBand.UNCLEAR),
    (98.0, ScoreBand.POSSIBLY),
    (100.0, ScoreBand.LIKELY),
)


def bin_openai(score: float) -> ScoreBand:
    """Band for a 0-100 detector score: (0,10] (10,45] (45,90] (90,98] (98,100]."""
    if not 0.0 <= score <= 100.0:
        raise ValueError(f"score out of range [0, 100]: {score}")
    for upper, band in _BAND_EDGES:
        if score <= upper:
            return band
    raise AssertionError("unreachable")


def classify_probability(prob: float, threshold: float = 0.65) -> str:
    """Dichotomize a generated-probability; the threshold itself counts as generated."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability out of range [0, 1]: {prob}")
    return "generated" if prob >= threshold else "not_generated"


# ---------------------------------------------------------------------------
# Threshold evaluation

BOT_LABEL = "bot"
HUMAN_LABEL = "human"


@dataclass(frozen=True)
class ThresholdResult:
    threshold: float
    f1: float
    precision: float
    recall: float


@dataclass(frozen=True)
class SweepOutcome:
    best: ThresholdResult
    curve: tuple[ThresholdResult, ...]


def split_labeled(scores) -> tuple[list[float], list[float]]:
    """Split (value, label) pairs into bot and human values; a non-finite
    value or any other label is a ValueError."""
    bots, humans = [], []
    for value, label in scores:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite score: {value!r}")
        if label == BOT_LABEL:
            bots.append(value)
        elif label == HUMAN_LABEL:
            humans.append(value)
        else:
            raise ValueError(f"label must be '{BOT_LABEL}' or '{HUMAN_LABEL}', got {label!r}")
    return bots, humans


def _sentinel(extreme: float, step: float) -> float:
    """``extreme + step``, or the next float in the step's direction where the
    step is lost to rounding (beyond 2**53); the extreme itself at the largest
    finite magnitude, which has no finite float beyond it."""
    sentinel = extreme + step
    if sentinel == extreme:
        sentinel = math.nextafter(extreme, math.copysign(math.inf, step))
    return sentinel if math.isfinite(sentinel) else extreme


def _midpoints(values: np.ndarray) -> np.ndarray:
    """``(a + b) / 2`` for each consecutive pair, or ``a / 2 + b / 2`` where
    the sum overflows."""
    lower, upper = values[:-1], values[1:]
    with np.errstate(over="ignore"):
        midpoints = (lower + upper) / 2.0
    overflowed = ~np.isfinite(midpoints)
    midpoints[overflowed] = lower[overflowed] / 2.0 + upper[overflowed] / 2.0
    return midpoints


def sweep_threshold(scores) -> SweepOutcome:
    """Find the F1-maximizing bot/human threshold (predict bot iff value >= t).

    Candidates are the midpoints between consecutive distinct score values
    plus one sentinel below and above everything, which covers every
    achievable confusion matrix. A midpoint is ``(a + b) / 2``, or
    ``a / 2 + b / 2`` where the sum overflows; a sentinel is one unit beyond
    the extreme value, or the next float beyond it where that unit is lost to
    rounding. At ±float max no finite float lies beyond, so the extreme
    itself is the sentinel: that row is not strictly beyond it, and the
    curve then lacks the matrix that predicts nothing (or everything) as bot.
    Ties go to the smallest threshold. Both label sets are sorted
    once and counted at every candidate by binary search, so the sweep is
    O(N log N).
    """
    bots, humans = split_labeled(scores)
    if not bots or not humans:
        raise ValueError("need both bot- and human-labeled scores")
    bot_values = np.sort(bots)
    human_values = np.sort(humans)
    distinct = np.unique(np.concatenate([bot_values, human_values]))
    candidates = np.concatenate([[_sentinel(float(distinct[0]), -1.0)], _midpoints(distinct),
                                 [_sentinel(float(distinct[-1]), 1.0)]])

    # Values at or above each candidate; recall's denominator is len(bots) >= 1.
    tp = len(bot_values) - np.searchsorted(bot_values, candidates, side="left")
    fp = len(human_values) - np.searchsorted(human_values, candidates, side="left")
    precision = np.divide(tp, tp + fp, out=np.zeros(len(candidates)), where=tp + fp > 0)
    recall = tp / len(bot_values)
    f1 = np.divide(2 * precision * recall, precision + recall,
                   out=np.zeros(len(candidates)), where=precision + recall > 0)

    curve = tuple(map(ThresholdResult, candidates.tolist(), f1.tolist(),
                      precision.tolist(), recall.tolist()))
    return SweepOutcome(best=curve[int(np.argmax(f1))], curve=curve)


def recall_at(scores, threshold: float) -> float:
    """Fraction of bot-labeled scores at or above the threshold."""
    bots, _ = split_labeled(scores)
    if not bots:
        raise ValueError("need at least one bot-labeled score")
    return sum(1 for v in bots if v >= threshold) / len(bots)


# ---------------------------------------------------------------------------
# Statistical testing

@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p: float


def _sample_variance(x: np.ndarray) -> float:
    """Sample variance (ddof=1); exactly 0 for a constant sample, whose mean
    numpy may round off the common value."""
    return 0.0 if (x == x[0]).all() else float(x.var(ddof=1))


def welch_t(sample_a, sample_b) -> WelchResult:
    """Welch's unequal-variance t-test, two-sided.

    The statistic carries the sign of mean(a) - mean(b); degrees of freedom
    follow Welch-Satterthwaite; the p-value uses the t-distribution
    survival function. Two constant samples raise ValueError, as do samples
    whose statistics overflow to a non-finite value.
    """
    a = np.asarray(list(sample_a), dtype=float)
    b = np.asarray(list(sample_b), dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 observations")
    # t and df do not change when both samples are scaled alike. Where the
    # wider sample spreads less than 1, both are scaled up by the power of two
    # that brings that spread to [0.5, 1), as far as every sum stays finite.
    # That is exact, and it keeps tiny means and variances out of the
    # subnormal range, where they lose precision. Wider spreads are left
    # alone, so statistics that overflow still raise.
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(max(np.ptp(a), np.ptp(b)))
        largest = max(float(np.abs(a).max()), float(np.abs(b).max()))
    headroom = 1023 - math.frexp(largest)[1] - max(len(a), len(b)).bit_length()
    exponent = min(-math.frexp(spread)[1], headroom) if 0.0 < spread < 1.0 else 0
    if exponent > 0:
        a, b = np.ldexp(a, exponent), np.ldexp(b, exponent)
    # Huge finite samples overflow here; the finiteness check below rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_a, var_a = float(a.mean()), _sample_variance(a)
        mean_b, var_b = float(b.mean()), _sample_variance(b)
    sa = var_a / len(a)
    sb = var_b / len(b)
    if sa + sb == 0.0:
        raise ValueError("degenerate samples: combined variance is zero")
    t = (mean_a - mean_b) / math.sqrt(sa + sb)
    # Weights instead of raw squared errors so subnormal variances cannot
    # underflow the Welch-Satterthwaite denominator.
    wa = sa / (sa + sb)
    wb = sb / (sa + sb)
    df = 1.0 / (wa**2 / (len(a) - 1) + wb**2 / (len(b) - 1))
    # The t survival function as scipy.stats.t.sf computes it, imported here
    # because loading scipy costs every CLI run a large share of its start-up.
    from scipy.special import stdtr
    p = float(2.0 * stdtr(df, -abs(t)))
    if not all(math.isfinite(v) for v in (t, df, p)):
        raise ValueError(f"Welch statistics are not finite (t={t}, df={df}, p={p})")
    return WelchResult(t=float(t), df=float(df), p=p)
