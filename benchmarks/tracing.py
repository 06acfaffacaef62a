"""Layer spans for the traced benchmark run, recorded from outside the program.

Wraps the public layer functions of each botsieve module, records one span
per call (name, start, end, parent), keeps the spans in memory and writes
them as JSON when the process ends. Used as a launcher:

    python3 benchmarks/tracing.py --spans OUT.json cli -- --json report --corpus-dir C ...
    python3 benchmarks/tracing.py --spans OUT.json setup -- --workload W --seed N --out DIR

Nothing here changes what the program computes: wrappers only time calls,
and the detector handed to ``score_corpus`` is wrapped to count its calls.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

# The layer boundaries: the public functions each CLI stage calls.
LAYER_FUNCTIONS = {
    "corpus": ("load_corpus", "validate", "export_corpus"),
    "seedscan": ("find_phrase_tweets", "category_summary"),
    "linkmap": ("expand_by_domains", "domain_frequency", "domain_share_profiles"),
    "graphlab": ("build_graph", "degree_stats", "largest_wcc", "pair_rate_matrix"),
    "contentstats": ("group_mix_points", "ternary_bin", "hashtag_ranking",
                     "amplified_accounts", "profile_summary"),
    "detectkit": ("score_corpus", "sweep_threshold", "welch_t"),
    "synthnet": ("generate_botnet", "generate_humans", "simulate_scores"),
}


def _rss_mb() -> float:
    """Current resident set size of this process in MB."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """In-memory span recorder for one process (single-threaded callers)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def call(self, name: str, fn, args, kwargs, counts=None):
        """Call fn inside a span; ``counts(result)`` gives the span's counts."""
        span = {"id": next(self._ids), "parent": self._stack[-1] if self._stack else None,
                "name": name, "pid": os.getpid(), "counts": {}}
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
        if counts is not None:
            span["counts"] = counts(result)
        return result

    def wrap(self, name: str, fn, hook=None):
        """A traced stand-in for fn; ``hook(args, kwargs)`` may swap arguments
        and returns (args, kwargs, counts)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if hook is not None:
                args, kwargs, counts = hook(args, kwargs)
            return self.call(name, fn, args, kwargs, counts)
        return traced

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, allow_nan=False) + "\n", encoding="utf-8")


def _score_hook(args, kwargs):
    """Hand score_corpus a detector that counts its calls."""
    from botsieve.detectkit import TextDetector

    class CountingDetector(TextDetector):
        def __init__(self, inner):
            self.inner = inner
            self.name = inner.name
            self.score_scale = inner.score_scale
            self.concurrency_safe = inner.concurrency_safe
            self.counter = itertools.count()

        def score(self, text):
            next(self.counter)
            return self.inner.score(text)

    args = list(args)
    if len(args) > 1:
        args[1] = counting = CountingDetector(args[1])
    else:
        kwargs["detector"] = counting = CountingDetector(kwargs["detector"])

    def counts(result):
        scores, _ = result
        # count() has been advanced once per call; reading it advances it again.
        return {"texts": sum(s.n_qualified for s in scores.values()),
                "detector_calls": next(counting.counter)}
    return tuple(args), kwargs, counts


def _load_hook(args, kwargs):
    return args, kwargs, lambda corpus: {"tweets": corpus.n_tweets, "rss_mb": _rss_mb()}


HOOKS = {"corpus.load_corpus": _load_hook, "detectkit.score_corpus": _score_hook}


def install(tracer: Tracer) -> None:
    """Replace every layer function, wherever a botsieve module bound it."""
    import importlib

    import botsieve.cli  # noqa: F401  (imports every layer module)

    replacements = {}
    for module_name, functions in LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"botsieve.{module_name}")
        for fn_name in functions:
            original = getattr(module, fn_name)
            name = f"{module_name}.{fn_name}"
            replacements[id(original)] = tracer.wrap(name, original, HOOKS.get(name))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "botsieve" and not mod_name.startswith("botsieve."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and callable(value):
                setattr(module, attr, replacements[id(value)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("mode", choices=("cli", "setup"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest

    tracer = Tracer()
    install(tracer)
    if args.mode == "cli":
        from botsieve.cli import run

        command = next((a for a in rest if not a.startswith("-")), "none")
        entry, root = (lambda: run(rest)), f"cli.{command}"
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import workloads

        entry, root = (lambda: workloads.main(rest)), "setup"
    try:
        code = tracer.call(root, entry, (), {})
    finally:
        tracer.write(Path(args.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
