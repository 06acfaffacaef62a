"""
Identifying a botnet from its own mistakes
==========================================

LLM-powered bots occasionally post their model's refusal boilerplate
verbatim. Searching for one such phrase surfaces the careless accounts;
the websites those accounts keep linking to then expand the candidate set
to the whole operation. This script runs both identification steps and
tabulates the refusal taxonomy.
"""

from collections import Counter

from botsieve import BotnetParams, PhraseQuery
from botsieve.linkmap import DEFAULT_SEED_DOMAINS, domain_frequency, expand_by_domains
from botsieve.seedscan import category_summary, find_phrase_tweets
from botsieve.synthnet import generate_botnet

corpus = generate_botnet(BotnetParams(n_bots=400, rng_seed=11))

# Step 1: phrase search. The default query is the canonical refusal opener;
# supply your own PhraseQuery to hunt other boilerplate.
# The hits also hold their table rows, so their authors and texts are read
# without looking the tweet ids up again.
hits = find_phrase_tweets(corpus, PhraseQuery(("as an ai language model",)))
authors = Counter(corpus.table.values("author_id", hits.rows))
print(f"self-revealing tweets: {len(hits)} from {len(authors)} accounts")

print("\nrefusal taxonomy:")
for row in category_summary(corpus.table.values("text", hits.rows)):
    print(f"  {row.category.value:<24} {row.count:>4}  ({row.percentage:.1f}%)")

# Step 2: expansion by shared seed domains. Accounts that never leaked a
# refusal still give themselves away by promoting the same websites.
expanded = expand_by_domains(corpus, DEFAULT_SEED_DOMAINS)
leak_only = set(authors)
print(f"\naccounts linking to seed domains: {len(expanded)}")
print(f"  of which never posted a refusal: {len(expanded - leak_only)}")

print("\nmost-shared domains inside the expanded set:")
for domain, count in domain_frequency(corpus, expanded, 5):
    print(f"  {domain:<22} {count}")
