"""Byte-identical CLI replies on the benchmark corpus.

Each case serves the seed-1 traced prefix of one benchmark workload
through ``cli.main`` and hashes every reply, exit code, stdout and
stderr, into one sha256. A change that alters a reply on purpose updates
the digest here and says why. The corpus is imported from
``perfbench/workloads.py``, so the requests are the ones the benchmark
serves.
"""
import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from polydiv import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# Taken under CPython's default int-to-str limit of 4300 digits, which
# over-limit refusals name in their message.
DIGESTS = {
    "verify-small": "15c4d7e39235676785dccd4938f3acd1c1f7e0223520421a16cd9097782df58d",
    "divide-highdeg": "41f9bf56b49ab2196ba67c5dee92b4d890d228c3068a880a4d8f40e4a8533d3e",
    "divide-tiny": "c468d1badcacc07b587cad74d36e84b2e7b425790e4760fdfa7bf69230bdf7d8",
}


def _workloads():
    name = "_perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        # Registered first: dataclasses looks its module up while the file runs.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def replies_digest(workload_name: str, seed: int = 1) -> str:
    workloads = _workloads()
    workload = workloads.WORKLOADS[workload_name]
    corpus = workloads.Corpus(workload, seed)
    digest = hashlib.sha256()
    for i in range(workload.trace_requests):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(corpus.request(i).argv))
        digest.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="the digests were taken under the default int-to-str digit limit",
)
@pytest.mark.parametrize("workload_name", sorted(DIGESTS))
def test_replies_are_byte_identical(workload_name):
    assert replies_digest(workload_name) == DIGESTS[workload_name]
