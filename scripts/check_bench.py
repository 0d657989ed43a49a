#!/usr/bin/env python3
"""Validate committed BENCH_*.json documents against the schema registry.

Every scale driver writes its results through obs::RunRecorder, which
produces a self-describing envelope:

    {"schema": {"name": "pss.bench.<bench>", "version": N},
     "meta":   {bench, engine, protocol, protocol_id, n, c, cycles, seed, git},
     ...driver sections...,
     "gates":  {"<gate>": bool, ...},
     "gates_ok": bool}

This checker is the CI gate over those documents (it replaced the ad-hoc
`grep '"digest_ok": true'` steps): it refuses unknown schema names and
versions (the versioning rule in src/obs/include/pss/obs/metric_sink.hpp),
requires every registered section and gate to be present, requires every
gate to be true, and structurally validates digest fields — 16 lowercase
hex digits, and pairs whose `matches` flag is true must actually be equal.

Usage:
    python3 scripts/check_bench.py [FILE...]
With no arguments it checks every BENCH_*.json in the repository root.
Exit status 0 iff every file passes.
"""

from __future__ import annotations

import glob
import json
import os
import re
import sys

HEX16 = re.compile(r"^[0-9a-f]{16}$")
DIGEST_KEY = re.compile(r"(^|_)digest($|_)|_digest\b")

META_KEYS = {
    "bench": str,
    "engine": str,
    "protocol": str,
    "protocol_id": int,
    "n": int,
    "c": int,
    "cycles": int,
    "seed": int,
    "git": str,
}

# The registry: schema name -> version -> (required sections, required gates).
# ANY field-list change in a driver bumps its version and adds an entry here;
# a version this table does not know is a hard failure, never a warning.
REGISTRY = {
    "pss.bench.scale_million_nodes": {
        1: {"sections": ["runs"], "gates": ["exchanges_nonzero"]},
    },
    "pss.bench.scale_metrics": {
        1: {
            "sections": ["params", "runs", "differential"],
            "gates": ["exact_match", "zero_steady_allocations",
                      "sink_differential"],
        },
    },
    "pss.bench.scale_async": {
        1: {"sections": ["params", "runs"], "gates": ["digest"]},
    },
    "pss.bench.scale_parallel": {
        2: {"sections": ["runs"],
            "gates": ["deterministic_matches_sequential"]},
    },
    "pss.bench.scale_scenarios": {
        1: {"sections": ["params", "differential", "runs"],
            "gates": ["differential"]},
    },
    "pss.bench.scale_transport": {
        1: {"sections": ["params", "differential", "loopback", "udp"],
            "gates": ["differential"]},
    },
    "pss.bench.scale_trace": {
        1: {"sections": ["params", "differential", "runs"],
            "gates": ["differential", "events_recorded"]},
    },
}


def iter_digest_items(node, path=""):
    """Yields (path, key, value) for every *digest* key anywhere in the doc."""
    if isinstance(node, dict):
        for key, value in node.items():
            here = f"{path}.{key}" if path else key
            if DIGEST_KEY.search(key) and not isinstance(value, (dict, list)):
                yield here, key, value
            yield from iter_digest_items(value, here)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from iter_digest_items(value, f"{path}[{index}]")


def check_digest_pairs(node, path, errors):
    """Entries that claim `matches: true` must have equal digest pairs."""
    if isinstance(node, dict):
        digests = [v for k, v in node.items()
                   if DIGEST_KEY.search(k) and isinstance(v, str)]
        if node.get("matches") is True and len(digests) >= 2:
            if len(set(digests)) != 1:
                errors.append(
                    f"{path}: matches=true but digests differ: {digests}")
        for key, value in node.items():
            check_digest_pairs(value, f"{path}.{key}" if path else key, errors)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            check_digest_pairs(value, f"{path}[{index}]", errors)


def check_file(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable or invalid JSON: {exc}"]

    schema = doc.get("schema")
    if not isinstance(schema, dict):
        return ["missing top-level 'schema' object (pre-RunRecorder format?)"]
    name, version = schema.get("name"), schema.get("version")
    versions = REGISTRY.get(name)
    if versions is None:
        return [f"unknown schema name {name!r}"]
    spec = versions.get(version)
    if spec is None:
        return [f"schema {name} version {version} not in the registry "
                f"(known: {sorted(versions)}); readers refuse unknown versions"]

    meta = doc.get("meta")
    if not isinstance(meta, dict):
        errors.append("missing 'meta' object")
    else:
        for key, expected_type in META_KEYS.items():
            if key not in meta:
                errors.append(f"meta.{key} missing")
            elif not isinstance(meta[key], expected_type):
                errors.append(f"meta.{key} is {type(meta[key]).__name__}, "
                              f"want {expected_type.__name__}")
        expected_bench = name.removeprefix("pss.bench.")
        if meta.get("bench") != expected_bench:
            errors.append(f"meta.bench={meta.get('bench')!r} does not match "
                          f"schema name {name!r}")

    for section in spec["sections"]:
        value = doc.get(section)
        if value is None:
            errors.append(f"required section {section!r} missing")
        elif isinstance(value, list) and not value:
            errors.append(f"required section {section!r} is empty")

    gates = doc.get("gates")
    if not isinstance(gates, dict):
        errors.append("missing 'gates' object")
    else:
        for gate in spec["gates"]:
            if gate not in gates:
                errors.append(f"required gate {gate!r} missing")
        for gate, value in gates.items():
            if value is not True:
                errors.append(f"gate {gate!r} is {value!r}, want true")
        if doc.get("gates_ok") is not all(v is True for v in gates.values()):
            errors.append("gates_ok does not equal the conjunction of gates")
    if doc.get("gates_ok") is not True:
        errors.append(f"gates_ok is {doc.get('gates_ok')!r}, want true")

    # Gate names may themselves contain "digest" (boolean verdicts, not
    # digest values), so the structural scan skips the gates object.
    body = {k: v for k, v in doc.items() if k != "gates"}
    for dpath, _key, value in iter_digest_items(body):
        if not isinstance(value, str) or not HEX16.match(value):
            errors.append(f"{dpath}: digest {value!r} is not 16 lowercase "
                          "hex digits (see obs::to_hex16)")
    check_digest_pairs(doc, "", errors)
    return errors


def main(argv):
    paths = argv[1:]
    if not paths:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print("check_bench: no BENCH_*.json files found", file=sys.stderr)
        return 1

    failed = 0
    for path in paths:
        errors = check_file(path)
        label = os.path.relpath(path)
        if errors:
            failed += 1
            print(f"FAIL {label}")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"ok   {label}")
    if failed:
        print(f"check_bench: {failed}/{len(paths)} file(s) failed",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
