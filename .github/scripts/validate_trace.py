#!/usr/bin/env python3
"""Validate a clamshell-trace JSONL file against the v1 schema.

Checks what the in-crate tests cannot (the workspace has no JSON
parser): every line is valid JSON, headers and events carry exactly the
documented fields, sequence numbers are contiguous per cell, and each
header's event count matches the lines that follow it.
"""

import json
import sys

HEADER_KEYS = ["v", "stream", "scenario", "seed", "events", "recorded", "dropped", "fingerprint"]
EVENT_BASE_KEYS = ["v", "seq", "at_ms", "ev"]

EVENT_FIELDS = {
    "checkout": ["worker", "waited_ms"],
    "dispatch": ["worker", "task", "assignment"],
    "assignment_done": ["worker", "task", "assignment", "span_ms"],
    "walkout": ["worker", "task", "assignment"],
    "reserve_timeout": ["worker"],
    "stale_retired": ["worker"],
    "maintenance_evict": ["worker"],
    "outage_defer": ["resume_ms"],
    "outage_resume": [],
    "pool_join": ["worker", "occupancy"],
    "pool_leave": ["worker", "occupancy"],
}


def fail(lineno, msg):
    sys.exit(f"{sys.argv[1]}:{lineno}: {msg}")


def main(path):
    cells = 0
    expected_events = 0
    next_seq = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(lineno, f"invalid JSON: {e}")
            if json.dumps(obj, separators=(",", ":"), ensure_ascii=False) != line:
                fail(lineno, "line is not in canonical compact rendering")
            if obj.get("v") != 1:
                fail(lineno, f"schema version must be 1, got {obj.get('v')!r}")
            if obj.get("stream") == "clamshell-trace":
                if expected_events:
                    fail(lineno, f"header arrived {expected_events} events early")
                if list(obj.keys()) != HEADER_KEYS:
                    fail(lineno, f"header keys {list(obj.keys())} != {HEADER_KEYS}")
                fp = obj["fingerprint"]
                if not (fp.startswith("fnv1a:") and len(fp) == 22):
                    fail(lineno, f"malformed fingerprint {fp!r}")
                if obj["dropped"] != obj["recorded"] - obj["events"]:
                    fail(lineno, "dropped != recorded - events")
                cells += 1
                expected_events = obj["events"]
                next_seq = obj["dropped"]  # retained tail starts after the drops
            else:
                if expected_events <= 0:
                    fail(lineno, "event line outside any cell")
                ev = obj.get("ev")
                if ev not in EVENT_FIELDS:
                    fail(lineno, f"unknown event discriminator {ev!r}")
                if list(obj.keys()) != EVENT_BASE_KEYS + EVENT_FIELDS[ev]:
                    fail(lineno, f"bad field order/set for {ev}: {list(obj.keys())}")
                if obj["seq"] != next_seq:
                    fail(lineno, f"seq {obj['seq']} != expected {next_seq}")
                next_seq += 1
                expected_events -= 1
    if expected_events:
        sys.exit(f"{path}: truncated final cell ({expected_events} events missing)")
    if cells == 0:
        sys.exit(f"{path}: no trace cells found")
    print(f"{path}: OK ({cells} cells)")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: validate_trace.py <trace.jsonl>")
    main(sys.argv[1])
