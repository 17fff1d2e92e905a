"""Golden pins for the exported run report of an instrumented chaos replay.

``thrifty replay --chaos-mtbf ... --obs-out DIR`` on a small seeded
scenario (the CI chaos smoke, scaled down) exercises every exporter
input: query spans through retry, failover, failure and the horizon,
scaling and replacement spans, counters, gauges and the fault section of
``summary.json``.  The digests pin all three files byte for byte: how the
metrics plane stores, collects and snapshots its instruments must move
none of them — ``metrics.jsonl`` included, whose rows and cadence are
documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from repro.cli import main

#: sha256 of each pinned file of the scenario below.
GOLDEN = {
    "summary.json": "fac47a6428391da5f4159ae1c294fbe1a1ace968d6e1c0a8b1b2a91c4e193871",
    "spans.jsonl": "8476fabaa8de43e96cc6e2941322f18e19d08a496b6d077c81c8285141785806",
    "metrics.jsonl": "d37bd550c542c4466c4e1b38d18b70b281ca6f257f1ca604c13308bc83ce1775",
}

ARGS = [
    "replay",
    "--tenants", "16",
    "--days", "2",
    "--sessions", "2",
    "--replication", "2",
    "--replay-days", "1",
    "--seed", "20130625",
    "--chaos-mtbf", "259200",
]


def test_chaos_replay_export_is_pinned(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*ARGS, "--obs-out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    # The scenario reaches the paths it is here to pin.
    faults = summary["faults"]
    assert faults["node_failures"] > 0
    assert faults["failovers"] > 0
    assert faults["queries_failed"] > 0
    assert summary["spans"]["by_status"].get("inflight", 0) > 0
    assert summary["scaling_actions"]
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN
