#!/usr/bin/env python3
"""lab_pin_test — smn_lab's quick sweeps must write the pinned bytes.

    python3 tests/lab_pin_test.py build/smn_lab

Reruns `smn_lab --quick --reps=3 --no-progress` and compares its standard
output with tests/data/lab_quick.jsonl byte for byte. On a difference it
names the first record that differs, by scenario and params, and the
first field in it. A change that alters the output at every thread count
alike passes the threads-invariance checks but fails this one.

Re-pinning is a stated act: a change that alters the output rewrites the
file with the command below and says why in CHANGES.md.

    ./build/smn_lab --quick --reps=3 --no-progress --out=tests/data/lab_quick.jsonl

Run directly or through CTest (lab_pin_test).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

PIN = Path(__file__).resolve().parent / "data" / "lab_quick.jsonl"
COMMAND = ["--quick", "--reps=3", "--no-progress"]
SMN_LAB = None  # set from argv in __main__


def leaves(value, prefix=""):
    """(dotted path, value) for every scalar in a parsed record, in file order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{prefix}[{i}]")
    else:
        yield prefix, value


def describe(record):
    params = ",".join(f"{k}={v}" for k, v in record.get("params", {}).items())
    return f"{record.get('scenario', '?')} ({params})"


def first_difference(pinned, fresh):
    """None if the two JSONL texts are equal, else one line naming where they part."""
    if pinned == fresh:
        return None
    old, new = pinned.splitlines(), fresh.splitlines()
    for n, (a, b) in enumerate(zip(old, new), start=1):
        if a == b:
            continue
        try:
            ra, rb = json.loads(a), json.loads(b)
        except ValueError:
            return f"record {n}: not JSON"
        where = f"record {n}, {describe(ra)}"
        if describe(ra) != describe(rb):
            return f"{where}: now {describe(rb)}"
        la, lb = dict(leaves(ra)), dict(leaves(rb))
        for path in list(la) + [p for p in lb if p not in la]:
            if path not in la or path not in lb:
                return f"{where}: field {path} {'added' if path in lb else 'removed'}"
            if la[path] != lb[path]:
                return f"{where}: field {path} pinned {la[path]!r}, now {lb[path]!r}"
        return f"{where}: same values, different bytes"
    if len(old) != len(new):
        return f"{len(old)} records pinned, {len(new)} written"
    return "same records, different bytes (line endings?)"


class FirstDifference(unittest.TestCase):
    A = '{"scenario":"s","params":{"k":"4"},"metrics":{"t":{"mean":1.5,"max":2}}}'

    def test_equal_texts(self):
        self.assertIsNone(first_difference(self.A + "\n", self.A + "\n"))

    def test_names_record_and_field(self):
        b = self.A.replace('"max":2', '"max":3')
        self.assertEqual(first_difference(f"{self.A}\n{self.A}\n", f"{self.A}\n{b}\n"),
                         "record 2, s (k=4): field metrics.t.max pinned 2, now 3")

    def test_names_a_moved_record(self):
        b = self.A.replace('"k":"4"', '"k":"8"')
        self.assertEqual(first_difference(self.A, b), "record 1, s (k=4): now s (k=8)")

    def test_names_a_missing_field_and_a_missing_record(self):
        b = self.A.replace(',"max":2', "")
        self.assertIn("field metrics.t.max removed", first_difference(self.A, b))
        self.assertEqual(first_difference(f"{self.A}\n{self.A}\n", f"{self.A}\n"),
                         "2 records pinned, 1 written")


class LabPin(unittest.TestCase):
    def test_quick_sweeps_match_the_pin(self):
        proc = subprocess.run([SMN_LAB, *COMMAND], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0)
        diff = first_difference(PIN.read_text(), proc.stdout)
        self.assertIsNone(diff, f"smn_lab {' '.join(COMMAND)} differs from {PIN.name}: {diff}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    SMN_LAB = sys.argv.pop(1)
    unittest.main()
