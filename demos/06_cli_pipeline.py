"""
The file-driven CLI pipeline
============================

Each subcommand reads files and writes files, so stages compose, resume,
and diff. This script shells through a complete run: synthesize a corpus,
scan it, graph it, and emit every figure/table data file with `report`.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def cli(*argv):
    result = subprocess.run(
        [sys.executable, "-m", "botsieve.cli", "--json", *argv],
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


# Every file goes under one temporary directory, removed when the run ends.
with tempfile.TemporaryDirectory(prefix="botsieve_demo_") as tmp:
    corpus_dir = Path(tmp) / "corpus"
    out_dir = Path(tmp) / "analysis"

    synth = cli("synth", "--preset", "fox8", "--seed", "7",
                "--n-bots", "150", "--n-humans", "120", "--out", str(corpus_dir))
    print(f"synth: {synth['metrics']['n_accounts']} accounts, "
          f"{synth['metrics']['n_tweets']} tweets -> {corpus_dir}")

    scan = cli("scan-phrases", "--corpus-dir", str(corpus_dir), "--out", str(out_dir))
    print(f"scan-phrases: {scan['metrics']['n_hits']} self-revealing tweets, "
          f"categories {scan['metrics']['categories']}")

    graph = cli("graph-stats", "--corpus-dir", str(corpus_dir), "--kind", "follow",
                "--group", "bot", "--out", str(out_dir))
    print(f"graph-stats: follow in-degree mean {graph['metrics']['mean_in']:.2f}, "
          f"largest WCC {graph['metrics']['largest_wcc_size']}")

    report = cli("report", "--corpus-dir", str(corpus_dir), "--detector", "stub",
                 "--out", str(out_dir / "report"))
    print("report wrote:")
    for name, path in sorted(report["outputs"].items()):
        print(f"  {name:<18} {Path(path).name}")
