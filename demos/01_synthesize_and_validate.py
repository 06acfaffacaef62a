"""
Synthesize a ground-truth benchmark corpus
==========================================

Every capability in this package can be exercised without any platform
access: the generator fabricates a dense, coordinated botnet next to a
population of organic accounts, with known ground truth. This script builds
one, round-trips it through the on-disk JSONL/CSV format, and checks that
every corpus invariant holds.
"""

import tempfile
from pathlib import Path

from botsieve import BotnetParams, HumanParams, load_corpus, validate
from botsieve.corpus import export_corpus, merge_corpora
from botsieve.synthnet import generate_botnet, generate_humans

# A small corpus keeps this demo instant; the defaults produce the full
# 1,140-account configuration.
botnet = generate_botnet(BotnetParams(n_bots=120, rng_seed=7))
humans = generate_humans(HumanParams(n_humans=100, rng_seed=8))
corpus = merge_corpora(botnet, humans)

print(f"accounts:      {corpus.n_accounts}")
print(f"tweets:        {corpus.n_tweets}")
print(f"follow edges:  {len(corpus.follow_edges)}")
print(f"groups:        {dict((n, len(corpus.partition[n])) for n in corpus.partition.names)}")

# The generator is a pure function of its parameters: same seed, same bytes.
again = merge_corpora(
    generate_botnet(BotnetParams(n_bots=120, rng_seed=7)),
    generate_humans(HumanParams(n_humans=100, rng_seed=8)),
)
print(f"deterministic: {corpus == again}")

# Round-trip through the exchange format, in a directory removed on exit.
with tempfile.TemporaryDirectory(prefix="botsieve_demo_") as out_dir:
    paths = export_corpus(corpus, out_dir)
    reloaded = load_corpus(paths["accounts"], paths["tweets"], paths["edges"], paths["labels"])
    print(f"round-trip:    {reloaded == corpus}")
    print(f"files written: {', '.join(sorted(path.name for path in paths.values()))}")

report = validate(reloaded)
print(f"violations:    {len(report)}")
