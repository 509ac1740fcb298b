"""Constants and helpers shared by the benchmark's orchestrator and its children.

Standard library only: the orchestrator (``run.py``) never imports the
program, so its own memory and start-up stay out of every measurement.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
from typing import Any, Iterable

#: The paper's corpus seed (``repro.datasets.corpus.CORPUS_SEED``): the
#: default workload seed.
DEFAULT_SEED = 20070326

#: Held out for claims: a change is tuned on other seeds and its claimed gain
#: must also hold on this one.
HELD_OUT_SEED = 20070327

WORKLOADS = ("paper_corpus", "large_graphs", "serve_mixed")

#: Vertex counts of the ``large_graphs`` workload.
LARGE_SIZES = (1000, 1500, 2000, 2500, 3000, 4000)

#: Exit status of a run or child that refuses its workload seed.
SEED_REFUSED = 3

#: Where everything the benchmark writes lives, relative to the checkout root.
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of *values*; 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def emit(result: dict[str, Any]) -> None:
    """Print *result* as the last line of standard output."""
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> dict[str, Any]:
    """The last line of *text* that parses as a JSON object."""
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                value = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(value, dict):
                return value
    raise ValueError("no JSON result line in child output")
