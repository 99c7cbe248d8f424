"""Regenerate tests/golden_digests.json from the current code.

    python tests/make_golden_digests.py

Each entry holds sha256 digests of one run's four artifacts, computed in
memory: the trace text, the journal rows, the request rows and the
summary JSON.  No CLI config echo is involved, so the digests do not
depend on where a run writes its files.  Regenerate only when a change
is meant to alter an artifact, and say which entries moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
GOLDEN = HERE / "golden_digests.json"
NAMES = ("smoke", "two_class", "util_pricing")
SEEDS = (0, 1, 42)
MODES = ("market", "system_centric")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def artifact_digests(result) -> dict[str, str]:
    journal = [[e.seq, e.at, e.debit, e.credit, e.amount, e.memo]
               for e in result.ledger.journal]
    return {
        "trace": _sha("\n".join(result.trace.lines())),
        "journal": _sha(json.dumps(journal)),
        "requests": _sha(json.dumps(result.collector.request_rows())),
        "summary": _sha(result.summary.to_json()),
    }


def compute() -> dict[str, dict[str, str]]:
    from cloudmarket.simulation import run_scenario
    from cloudmarket.workload import load_scenario

    golden = {}
    for name in NAMES:
        scenario = load_scenario(str(SCENARIOS / f"{name}.yaml"))
        for seed in SEEDS:
            for mode in MODES:
                result = run_scenario(scenario, seed=seed, mode=mode)
                golden[f"{name}/{mode}/seed{seed}"] = artifact_digests(result)
    return golden


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    GOLDEN.write_text(json.dumps(compute(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
