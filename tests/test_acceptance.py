"""Acceptance gate: seven criteria, every comparison exact (zero tolerance).

Each criterion is one test. A criterion prints its ACCEPTANCE line only
after every assertion in it has held, so the pytest report carries one
pass/fail line per criterion and the captured output carries the counts.
"""
import json
import random
import time
from fractions import Fraction

import pytest

from polydiv import cli
from polydiv.closedform import divide_closed, t_sequence
from polydiv.detengine import (
    DeltaPureSpec,
    anti_identity_sign,
    build_anti_identity,
    build_hankel,
    delta_pure_closed,
    delta_pure_direct,
    det_W_at,
    det_oracle,
    divide_det_formula,
    divide_det_ratio,
    hankel_det_closed,
    hessenberg_det_expansion,
)
from polydiv.polycore import (
    DivisionResult,
    Polynomial,
    divisor_views,
    long_divide,
)

CORPUS_SEED = 20260819
CORPUS_SIZE = 1000


def _random_poly(rng, degree, forbid_lead=(0,)):
    coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(degree)]
    lead = 0
    while lead in forbid_lead:
        lead = rng.randint(-9, 9)
    return Polynomial(coeffs + [Fraction(lead)])


@pytest.fixture(scope="module")
def corpus():
    """Seeded random (f, g) pairs with 1 <= deg g <= deg f <= 12 and
    integer coefficients in [-9, 9]; shared by criteria 1 and 7."""
    rng = random.Random(CORPUS_SEED)
    pairs = []
    for _ in range(CORPUS_SIZE):
        m = rng.randint(1, 12)
        n = rng.randint(m, 12)
        pairs.append((_random_poly(rng, n), _random_poly(rng, m)))
    return pairs


def test_criterion_1_oracle_triangle(corpus):
    started = time.monotonic()
    for f, g in corpus:
        reference = long_divide(f, g)
        assert divide_closed(f, g) == reference
        assert divide_det_formula(f, g) == reference
        assert divide_det_ratio(f, g) == reference
        assert reference.reconstructs(f, g)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1 PASS: longdiv = closed = det-formula = det-ratio on "
        f"{len(corpus)} random pairs, exact, {elapsed:.1f}s"
    )


def test_criterion_2_golden_case():
    f = Polynomial([0, 0, 0, 0, 1])
    g = Polynomial([-1, -1, 1])
    expected = DivisionResult(
        quotient=Polynomial([2, 1, 1]), remainder=Polynomial([2, 3])
    )
    assert long_divide(f, g) == expected
    assert divide_closed(f, g) == expected
    assert divide_det_formula(f, g) == expected
    assert divide_det_ratio(f, g) == expected
    terms = t_sequence(divisor_views(g), 5)
    assert terms == tuple(Fraction(v) for v in (1, 1, 2, 3, 5))
    print(
        "ACCEPTANCE 2 PASS: x^4 / (x^2 - x - 1) = (x^2 + x + 2, 3x + 2) by all "
        "four methods; t-sequence 1, 1, 2, 3, 5"
    )


def test_criterion_3_monic_rescaling():
    rng = random.Random(CORPUS_SEED + 3)
    cases = 0
    while cases < 500:
        m = rng.randint(1, 12)
        n = rng.randint(m, 12)
        f = _random_poly(rng, n)
        g = _random_poly(rng, m, forbid_lead=(0, 1))
        lead = g.lead
        general = long_divide(f, g)
        monic = long_divide(f, g * (Fraction(1) / lead))
        assert general.quotient == monic.quotient * (Fraction(1) / lead)
        assert general.remainder == monic.remainder
        cases += 1
    print(
        f"ACCEPTANCE 3 PASS: dividing by g vs g/lead scales the quotient by "
        f"1/lead and keeps the remainder, {cases} random cases"
    )


def test_criterion_4_low_coefficients_inert():
    rng = random.Random(CORPUS_SEED + 4)
    cases = 0
    while cases < 500:
        m = rng.randint(1, 12)
        n = rng.randint(m, 12)
        f = _random_poly(rng, n)
        g = _random_poly(rng, m)
        zeroed = Polynomial([Fraction(0)] * m + list(f.coeffs[m:]))
        assert long_divide(zeroed, g).quotient == long_divide(f, g).quotient
        cases += 1
    print(
        f"ACCEPTANCE 4 PASS: zeroing dividend coefficients below the divisor "
        f"degree never moves the quotient, {cases} random cases"
    )


def test_criterion_5_determinant_identities():
    for t in range(1, 11):
        assert anti_identity_sign(t) == det_oracle(build_anti_identity(t))

    rng = random.Random(CORPUS_SEED + 5)
    hankel_cases = 0
    while hankel_cases < 100:
        m = rng.randint(1, 6)
        g = _random_poly(rng, m)
        n = rng.randint(m, m + 6)
        assert hankel_det_closed(g, n) == det_oracle(build_hankel(g, n))
        hankel_cases += 1

    bordered_cases = 0
    while bordered_cases < 200:
        m = rng.randint(1, 6)
        n = rng.randint(m, m + 6)
        f = _random_poly(rng, n)
        g = _random_poly(rng, m)
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        t = n - m + 2
        lhs = det_W_at(f, g, x0)
        rhs = anti_identity_sign(t) * hessenberg_det_expansion(f, g, x0)
        assert lhs == rhs
        bordered_cases += 1
    print(
        f"ACCEPTANCE 5 PASS: anti-identity signs t=1..10, {hankel_cases} "
        f"closed Hankel determinants, {bordered_cases} bordered identities, "
        f"all exact"
    )


def test_criterion_6_delta_closed_forms():
    rng = random.Random(CORPUS_SEED + 6)
    divisor_cases = 0
    while divisor_cases < 200:
        m = rng.randint(1, 6)
        g = _random_poly(rng, m)
        views = divisor_views(g)
        for k in range(1, 9):
            spec = DeltaPureSpec(views=views, k=k)
            base = delta_pure_closed(spec)
            assert base == delta_pure_direct(spec)
            flipped = delta_pure_closed(spec, flipped=True)
            assert flipped == delta_pure_direct(spec, flipped=True)
            assert flipped == (-1) ** k * base
        divisor_cases += 1
    print(
        f"ACCEPTANCE 6 PASS: closed tail determinants equal their matrix "
        f"determinants for k <= 8 over {divisor_cases} random divisors, both "
        f"sign variants, flip factor (-1)^k checked"
    )


def test_criterion_7_cli_contract(corpus, capsys, monkeypatch):
    for f, g in corpus:
        # The = form keeps argparse from reading a leading minus sign in
        # a rendered polynomial as an option flag.
        args = [
            "verify",
            f"--dividend={cli.render_polynomial(f)}",
            f"--divisor={cli.render_polynomial(g)}",
        ]
        assert cli.main(args) == 0
        capsys.readouterr()

    json_checked = 0
    for f, g in corpus[:25]:
        code = cli.main(
            [
                "verify",
                f"--dividend={cli.render_polynomial(f)}",
                f"--divisor={cli.render_polynomial(g)}",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        reference = long_divide(f, g)
        for key, expected in (("quotient", reference.quotient), ("remainder", reference.remainder)):
            text = "[" + ", ".join(payload[key]) + "]"
            assert cli.parse_polynomial(text) == expected
        json_checked += 1

    def corrupted(f, g):
        good = long_divide(f, g)
        return DivisionResult(
            quotient=good.quotient + Polynomial([1]), remainder=good.remainder
        )

    monkeypatch.setitem(cli.METHODS, "det-formula", corrupted)
    code = cli.main(["verify", "--dividend", "x^4", "--divisor", "x^2-x-1"])
    assert code == 3
    capsys.readouterr()

    print(
        f"ACCEPTANCE 7 PASS: verify exits 0 on all {len(corpus)} corpus "
        f"pairs, JSON round-trips on {json_checked}, corrupted method exits 3"
    )
