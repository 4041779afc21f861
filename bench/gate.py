"""Correctness gate: result digests, red-check lists and pinned references.

A pass is correct when the sha256 of its results equals the digest pinned
for its input (``pinned.json``, keyed by workload seed and pass index) and
its list of failed experiment checks equals the pinned list.  Whatever the
seed, the documented red checks must still be red, and a pass that repeats
an input of its run (the check pass and the traced pass) must reproduce the
first pass's digest.
"""

from __future__ import annotations

import hashlib
import json
import os

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


def outdir_digest(outdir: str) -> str:
    """sha256 over every result file, in name order, with its name."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def summary_digest(summaries: list[dict]) -> str:
    """sha256 of the summaries as the runners would write them."""
    h = hashlib.sha256()
    for s in summaries:
        h.update((json.dumps(s, indent=2, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def red_checks(summaries: list[dict]) -> list[str]:
    """Names of every failed check, prefixed by its experiment."""
    return sorted(
        f"{s['config']['experiment']}: {c['name']}"
        for s in summaries
        for c in s["checks"]
        if not c["passed"]
    )


def load_pinned(path: str = PINNED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def pass_failures(pinned: dict, workload: str, seed: int, index: int, digest: str,
                  reds: list[str], reference: str | None) -> list[str]:
    """Reasons a pass is wrong by the gate; empty when it is correct.

    ``index`` selects the pinned entry of the run's input; ``reference`` is
    the digest an earlier pass of the run produced on the same input, if any.
    """
    entry = pinned.get(workload, {})
    failures = []
    pins = entry.get("seeds", {}).get(str(seed), {}).get("passes", [])
    if index < len(pins):
        pin = pins[index]
        if digest != pin["digest"]:
            failures.append(f"digest {digest[:16]} != pinned {pin['digest'][:16]}")
        if reds != pin["red_checks"]:
            failures.append(f"red checks {reds} != pinned {pin['red_checks']}")
    missing = sorted(set(entry.get("required_red", [])) - set(reds))
    if missing:
        failures.append(f"documented red checks turned green: {missing}")
    if reference is not None and digest != reference:
        failures.append(f"digest {digest[:16]} differs from an earlier pass on the same input {reference[:16]}")
    return failures
