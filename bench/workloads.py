"""The benchmark's workloads and the pinned results every run is checked
against.

A workload is a list of items.  A ``sweep`` item runs one registered
verification sweep at its default size; a ``query`` item computes the exact
packing chromatic number of one family spec.  The pins were taken on the
unmodified solver: a record count and a SHA-256 over the sweep's sorted
records with ``micros`` dropped, and the value of each query.  A change that
keeps the program's behaviour keeps every pin.
"""

from __future__ import annotations

import hashlib
import json
import random

SWEEP = "sweep"
QUERY = "query"

# Why each workload is in the benchmark: it is the one on which a given
# layer's change either shows or must stay flat.
WORKLOADS: dict[str, list[tuple[str, str]]] = {
    # Class sweeps: about 80% of the time is isomorph-free enumeration
    # (cacti n<=10, connected graphs n<=7); the solver does little.
    "classes": [
        (SWEEP, "teo3"),
        (SWEEP, "teo4"),
        (SWEEP, "lem-mainblock"),
        (SWEEP, "pro2"),
        (SWEEP, "lemma4"),
        (SWEEP, "teo2"),
        (SWEEP, "obsv1"),
    ],
    # Family specs and long sparse graphs: no enumeration; MIS-based
    # i-packing caps and per-edge criticality dominate.
    "families": [
        (SWEEP, "pro4"),
        (SWEEP, "pro8"),
        (SWEEP, "pro9"),
        (SWEEP, "pro12"),
        (SWEEP, "pro13"),
        (SWEEP, "pro16"),
        (SWEEP, "teo1"),
        (SWEEP, "lemma7"),
        (QUERY, "P24"),
        (QUERY, "P40"),
        (QUERY, "C40"),
        (QUERY, "C38"),
        (QUERY, "W12"),
        (QUERY, "T8"),
    ],
    # Hub-plus-base graphs of diameter <= 2: dense, connected inputs where
    # edge criticality dominates and MIS never splits into components.  The
    # bases come from enumerating every graph on up to 7 vertices.
    "radius1": [
        (SWEEP, "thm12"),
        (SWEEP, "cor1"),
    ],
}

# sweep id -> (record count, SHA-256 of the sorted records without micros)
SWEEP_PINS: dict[str, tuple[int, str]] = {
    "teo3": (2, "3f5423a2a2cb71ecd4621b6c3baa3b822a0cc6bdd962eb8bb5bdbe4dff4c7555"),
    "teo4": (215, "fe2ef30cebce27b71be7dd67012d55b2fcb4eabdd411bd6ce917bb50f6492b21"),
    "lem-mainblock": (1097, "dbf0386c1edca5d34cf044fe99299b81d990a37011e0c255a89a459ab90cf849"),
    "pro2": (2, "29da3c74cced081fb32f97aefde44b86294089308fd5172877ff4215b7883b28"),
    "lemma4": (996, "d99c905d8e02a4338efb0275380e3932ca5277bfcb350cb58ece97d7f6f273a8"),
    "teo2": (996, "fbdb4b0ee5952695a9a3aa4e3b8a435c41c3001706bf23b2d76fce3e0efe082f"),
    "obsv1": (995, "c41d3cf462e9f08042b033a41ffbff1175bb2f43373a03baa8650c7939a93c48"),
    "pro4": (29, "9ebb3e4c53d7e958ad76ace2f1efff3814c7c01f58411f0349d8f8bf2a71f4b7"),
    "pro8": (186, "e123409ee5999f60534ae779abca6131ec5e2ee85036965c73c6e848ac408e15"),
    "pro9": (81, "e680afb94ab3fb1d40eb9a06bf52feed8ed1de1fd8bb40cd49b8b7d4e0ad20eb"),
    "pro12": (265, "6a039c76b9e109714105d737707e2badff74d01be79e2b25bbb3878d920429c2"),
    "pro13": (126, "044ec54cd5fbcb40e64210b832c9b79216c36a94aa30fa64a4aa47defc893f74"),
    "pro16": (92, "3e362248cd0c8a3877bf1d6445cb0ca7309702e266eb85b19dfc458b4cfd8269"),
    "teo1": (13, "b493a7e02d286594f4f89bf099269219622c1d29f9868cfd639bf65bbd77d2d3"),
    "lemma7": (70, "872e63d491f7518fd9f7591bbf7bcb56b56cf14660e0bf4085feed625758a1ae"),
    "thm12": (208, "a59815f590aa7aeeca10a68151f33deebbe4bdc4fac7ebf2f3810490dd880115"),
    "cor1": (1252, "2eb175614a0f8104319e1da2c0bf817faa8ee7ef18ab296e3d6190dba1044f32"),
}

# family spec -> exact packing chromatic number
QUERY_PINS: dict[str, int] = {
    "P24": 3,
    "P40": 3,
    "C40": 3,
    "C38": 4,
    "W12": 8,
    "T8": 10,
}


def plan(workload: str, seed: int) -> list[tuple[str, str]]:
    """The workload's items in the order the seed gives.  The seed changes
    only the order: the work set and every pin stay the same."""
    items = list(WORKLOADS[workload])
    random.Random(seed).shuffle(items)
    return items


def planned_instances(workload: str) -> int:
    """Instances one pass of the workload evaluates when nothing fails."""
    return sum(
        SWEEP_PINS[name][0] if kind == SWEEP else 1
        for kind, name in WORKLOADS[workload]
    )


def records_digest(records: list[dict]) -> str:
    """SHA-256 over a sweep's records, each serialized with sorted keys and
    without its timing field, in sorted order."""
    lines = sorted(
        json.dumps({k: v for k, v in rec.items() if k != "micros"}, sort_keys=True)
        for rec in records
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
