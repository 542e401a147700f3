"""Every benchmark workload gives its reference output, byte for byte.

Each test runs one round of a workload of ``bench/run.py`` at seed 1 in a
fresh process and compares the sha256 fingerprint of its canonical output
with the reference, so a change that alters any printed record, audit,
verdict or exit code fails here.  The staged d_xx fault fails once per
construct round until it is mended.  A last test checks that every entry
point the benchmark's tracer wraps still exists in the package.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# workload -> (failed, attempted, sha256) of one round at seed 1
REFERENCE = {
    "construct": (1, 18, "b6a85d90d5647b72b9ca47ebbde77669ec91a28c011e7e900e9ffcdda9290de6"),
    "verify": (0, 40, "a024c77e1abfca4d4c2915a23c38fc59ae90c875aad1b9d18047644c278fe029"),
    "cli_sweep": (0, 76, "e4c79f691933da7c4c8fa685dfe89c0eeabaddece40e854fd130fcdba3b63c26"),
}


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_workload_output_is_unchanged(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    reference, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    failed, attempted, sha256 = REFERENCE[workload]
    assert result["correct"], proc.stderr
    assert (result["failed"], result["attempted"]) == (failed, attempted)
    assert reference["reference"]["sha256"] == sha256


def test_traced_entry_points_resolve():
    # bench/tracing.py wraps these names with --trace 1; a renamed or
    # deleted one would break the traced run, so it fails here first.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for targets in tracing.ENTRY_POINTS.values():
        for target in targets:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                assert owner is not None and attr in vars(owner), target
            else:
                assert callable(getattr(owner, attr, None)), target
