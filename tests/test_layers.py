"""The CLI subcommands still call every layer function the benchmark traces.

``benchmarks/tracing.py`` times the functions in its ``LAYER_FUNCTIONS``; a
layer that no subcommand calls any more shows up there only as a zero.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from botsieve.cli import run

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
# Layers that no subcommand calls.
UNREACHED = {"synthnet.simulate_scores"}


def _layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_FUNCTIONS


def _counted(calls: dict, name: str, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_the_subcommands_reach_every_traced_layer(monkeypatch, tmp_path):
    calls, stand_ins = {}, {}
    for module_name, functions in _layer_functions().items():
        module = importlib.import_module(f"botsieve.{module_name}")
        for fn_name in functions:
            name, fn = f"{module_name}.{fn_name}", getattr(module, fn_name)
            calls[name] = 0
            stand_ins[id(fn)] = (fn, _counted(calls, name, fn))  # fn kept alive: ids stay unique
    # Every binding of a layer function, wherever a botsieve module holds one.
    for module_name, module in list(sys.modules.items()):
        if module_name == "botsieve" or module_name.startswith("botsieve."):
            for attr, value in list(vars(module).items()):
                if id(value) in stand_ins:
                    monkeypatch.setattr(module, attr, stand_ins[id(value)][1])

    params = tmp_path / "gen.conf"
    params.write_text("n_bots = 4\nn_humans = 3\nfollow_degree_mean = 2.0\n"
                      "follow_degree_sd = 1.0\nmin_tweets = 1\ntweets_mean = 4.0\n"
                      "tweets_sd = 2.0\nhuman_tweets_mean = 4.0\nhuman_tweets_sd = 2.0\n")
    scores = tmp_path / "scores.csv"
    scores.write_text("value,label\n50,bot\n51,bot\n52,bot\n40,human\n41,human\n42,human\n")
    corpus = ["--corpus-dir", str(tmp_path / "corpus")]
    for argv in (["synth", "--params", str(params), "--seed", "2"],
                 ["ingest", *corpus, "--export"],
                 ["scan-phrases", *corpus],
                 ["expand-domains", *corpus],
                 ["graph-stats", *corpus, "--pair-groups", "bot,human"],
                 ["content-stats", *corpus],
                 ["score", *corpus],
                 ["sweep", "--scores", str(scores)],
                 ["ttest", "--scores", str(scores)],
                 ["report", *corpus]):
        out = tmp_path / ("corpus" if argv[0] == "synth" else argv[0])
        assert run([*argv, "--out", str(out)]) == 0, argv

    assert [name for name, n in calls.items() if not n and name not in UNREACHED] == []
