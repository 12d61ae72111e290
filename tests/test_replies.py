"""The CLI as the benchmark sees it.

Each replies case serves the seed-1 traced prefix of one of the four
benchmark workloads through ``cli.main`` and hashes every reply, exit
code, stdout and stderr, into one sha256. ``divide-widebits`` is the
slow one, several seconds of big-int work, most of it in requests that
end in the output-limit refusal. A change that alters a reply on purpose
updates the digest here and says why. The corpus is imported from
``perfbench/workloads.py``, so the requests are the ones the benchmark
serves. The ``delta`` and ``sequence`` subcommands, which no workload
serves, are each held to a digest of their own over a seeded corpus
built here. The tracer case installs ``perfbench/tracing.py``'s patch
table, so a library change that unbinds a name the benchmark wraps
fails here, naming it, rather than in every benchmark request.
"""
import hashlib
import importlib.util
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from polydiv import cli, closedform, detengine, polycore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Taken under CPython's default int-to-str limit of 4300 digits, which
# over-limit refusals name in their message.
DIGESTS = {
    "verify-small": "15c4d7e39235676785dccd4938f3acd1c1f7e0223520421a16cd9097782df58d",
    "divide-highdeg": "41f9bf56b49ab2196ba67c5dee92b4d890d228c3068a880a4d8f40e4a8533d3e",
    "divide-widebits": "7a0eb4171cb069fa493e727c75fd64dcebb89a157bcf852c86e7cda84b178c9b",
    "divide-tiny": "c468d1badcacc07b587cad74d36e84b2e7b425790e4760fdfa7bf69230bdf7d8",
}
DELTA_DIGEST = "52e00d8581cde98a2cdb5567089f89f0b4cb2eb002b7c26377b61d4558b3a8e5"
SEQUENCE_DIGEST = "1e83261f97e49a8d9e40e41b6dbec70b72597796e1c5a980f72124885f54ed58"

needs_default_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="the digests were taken under the default int-to-str digit limit",
)


def _perfbench(module_name: str):
    name = f"_perfbench_{module_name}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{module_name}.py")
        module = importlib.util.module_from_spec(spec)
        # Registered first: dataclasses looks its module up while the file runs.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _digest(argvs) -> str:
    digest = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        digest.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    return digest.hexdigest()


def replies_digest(workload_name: str, seed: int = 1) -> str:
    workloads = _perfbench("workloads")
    workload = workloads.WORKLOADS[workload_name]
    corpus = workloads.Corpus(workload, seed)
    return _digest(corpus.request(i).argv for i in range(workload.trace_requests))


def _divisors(seed: int) -> list[str]:
    # 100 random divisors of degree 0..5, integer or rational.
    rng = random.Random(seed)
    divisors = []
    for _ in range(100):
        top = rng.choice((1, 6))  # the largest denominator: integer or rational
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, top)) for _ in range(rng.randint(1, 6))]
        coeffs[-1] = coeffs[-1] or Fraction(1)
        divisors.append("[" + ", ".join(map(str, coeffs)) + "]")
    return divisors


def _wide_quadratic() -> str:
    # 4095-bit coefficients, whose terms pass the int-to-str limit.
    rng = random.Random(1)
    return "[" + ", ".join(str(rng.getrandbits(4095) | 1) for _ in range(3)) + "]"


def delta_argvs(seed: int = 1) -> list[list[str]]:
    """Every delta variant over 100 random divisors, with k cycling
    through 1..12; k at the order cap of 64 and past it, and at the
    degree cap of 512 and past it, on a few divisors; and k = 8 on the
    wide quadratic."""
    cases = [(divisor, 1 + i % 12) for i, divisor in enumerate(_divisors(seed))]
    for divisor in ("x^2 - x - 1", "5", "[1/2, 0, -3/4, 2]", "3x^5 - 2/7x + 1"):
        cases += [(divisor, k) for k in (63, 64, 65, 512, 513)]
    cases.append((_wide_quadratic(), 8))
    return [
        ["delta", "--divisor", divisor, "-k", str(k), "--variant", variant]
        for divisor, k in cases
        for variant in ("pure-closed", "pure-flipped", "pure-direct")
    ]


def sequence_argvs(seed: int = 1) -> list[list[str]]:
    """Both sequence kinds over delta_argvs' 100 random divisors, with n
    cycling through 1..12; n below the least count, at it, at the degree
    cap and past it, on a few divisors and the zero divisor; and n = 8
    on the wide quadratic."""
    cases = [(divisor, 1 + i % 12) for i, divisor in enumerate(_divisors(seed))]
    for divisor in ("x^2 - x - 1", "5", "0", "[1/2, 0, -3/4, 2]", "3x^5 - 2/7x + 1"):
        cases += [(divisor, n) for n in (0, 1, 512, 513)]
    cases.append((_wide_quadratic(), 8))
    return [
        ["sequence", "--divisor", divisor, "--kind", kind, "-n", str(n)]
        for divisor, n in cases
        for kind in ("s", "t")
    ]


@needs_default_digit_limit
@pytest.mark.parametrize("workload_name", sorted(DIGESTS))
def test_replies_are_byte_identical(workload_name):
    assert replies_digest(workload_name) == DIGESTS[workload_name]


@needs_default_digit_limit
def test_delta_replies_are_byte_identical():
    assert _digest(delta_argvs()) == DELTA_DIGEST


@needs_default_digit_limit
def test_sequence_replies_are_byte_identical():
    assert _digest(sequence_argvs()) == SEQUENCE_DIGEST


def test_tracer_patches_and_restores_every_binding():
    modules = (cli, polycore, closedform, detengine)
    owners = modules + (cli.DivisionReport, polycore.DivisionResult)
    before = [dict(vars(owner)) for owner in owners]
    methods = dict(cli.METHODS)
    tracer = _perfbench("tracing").Tracer()
    with tracer.installed(*modules) as main, redirect_stdout(io.StringIO()):
        assert main(["verify", "--dividend", "x^4", "--divisor", "x^2 - x - 1"]) == 0
    summary = tracer.summary()
    assert {tag: summary[f"route.{tag}.calls"] for tag in methods} == dict.fromkeys(methods, 1)
    changed = [
        f"{owner.__name__}.{name}"
        for owner, snapshot in zip(owners, before)
        for name in snapshot.keys() | vars(owner).keys()
        if snapshot.get(name) is not vars(owner).get(name)
    ]
    changed += [
        f"cli.METHODS[{tag!r}]" for tag in methods if cli.METHODS.get(tag) is not methods[tag]
    ]
    assert changed == [] and cli.METHODS.keys() == methods.keys()
