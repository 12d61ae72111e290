"""Mutation check: each mutant in MUTANTS must fail the tests named for it.

    python3 tools/mutants.py

Run from anywhere; stdlib only, besides the pytest and hypothesis that
Tier-1 needs. Each mutant replaces one exact text, which must occur
once in its file, in a fresh temporary copy of the checkout, and runs
its tests there with ``-x`` and a fixed hypothesis seed. The tests are
first run on an unmutated copy, so a failure is the mutant's doing. The
exit status is 1 if any mutant survives or its text is no longer found.
A change to a kernel or a refusal path adds its mutants to the table.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "digit run cap off by one",
        "src/polydiv/cli.py",
        "% (cap + 1)",
        "% (cap + 2)",
        ("tests/test_cli.py::test_long_digit_run_is_refused",),
    ),
    Mutant(
        "digit run cap ignores the interpreter's int-to-str limit",
        "src/polydiv/cli.py",
        "min(MAX_DIGITS, _digit_limit() or MAX_DIGITS)",
        "MAX_DIGITS",
        ("tests/test_cli.py::test_digit_run_cap_follows_a_lowered_limit",),
    ),
    Mutant(
        "_printable never refuses",
        "src/polydiv/polycore.py",
        "    if bound and (abs(value.numerator) >= bound or value.denominator >= bound):\n",
        "    if False:\n",
        ("tests/test_polycore.py::test_printable_refuses_from_ten_to_the_limit",),
    ),
    Mutant(
        "_printable lets 10^limit through",
        "src/polydiv/polycore.py",
        "abs(value.numerator) >= bound or value.denominator >= bound",
        "abs(value.numerator) > bound or value.denominator > bound",
        ("tests/test_polycore.py::test_printable_refuses_from_ten_to_the_limit",),
    ),
    Mutant(
        "the output limit outlives its call",
        "src/polydiv/polycore.py",
        "        _LIMIT.reset(token)\n",
        "        pass\n",
        (
            "tests/test_polycore.py::test_output_limit_ends_with_its_call",
            "tests/test_cli.py::test_library_calls_are_held_to_no_limit",
        ),
    ),
    Mutant(
        "call_with_output_limit forms the bound for a fixed 4300",
        "src/polydiv/polycore.py",
        "    token = _LIMIT.set(_bound(_digit_limit()))\n",
        "    token = _LIMIT.set(_bound(4300))\n",
        ("tests/test_cli.py::test_routes_stop_at_a_lowered_limit",),
    ),
    Mutant(
        "divide holds its route to no output limit",
        "src/polydiv/cli.py",
        "    result = call_with_output_limit(METHODS[method], f, g)\n",
        "    result = METHODS[method](f, g)\n",
        (
            "tests/test_cli.py::test_divide_stops_at_the_first_coefficient_past_the_limit",
            "tests/test_cli.py::test_divide_refuses_a_faulty_route_at_the_limit_before_its_check",
        ),
    ),
    Mutant(
        "sequence holds its terms to no output limit",
        "src/polydiv/cli.py",
        "    terms = call_with_output_limit(SEQUENCES[kind], views, count)\n",
        "    terms = SEQUENCES[kind](views, count)\n",
        ("tests/test_cli.py::test_sequence_stops_at_the_first_term_past_the_limit",),
    ),
    Mutant(
        "parse refusals echo a whole over-long message",
        "src/polydiv/cli.py",
        "        if len(message) > MAX_MESSAGE:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_long_parse_refusal_keeps_head_and_tail",),
    ),
    Mutant(
        "coefficient bit cap off by one",
        "src/polydiv/cli.py",
        "if bits > MAX_COEFF_BITS:",
        "if bits > MAX_COEFF_BITS + 1:",
        ("tests/test_cli.py::test_coefficient_bit_cap",),
    ),
    Mutant(
        "verify skips a route on any domain error",
        "src/polydiv/cli.py",
        "except MatrixTooLarge as exc:",
        "except PolyDivError as exc:",
        ("tests/test_cli.py::test_verify_ends_on_a_route_error_other_than_the_cap",),
    ),
    Mutant(
        "matrix order cap off by one",
        "src/polydiv/detengine.py",
        "if order > DEFAULT_MAX_ORDER:",
        "if order > DEFAULT_MAX_ORDER + 1:",
        ("tests/test_detengine.py::test_matrix_order_cap",),
    ),
    Mutant(
        "_integer_minors without the row-swap sign",
        "src/polydiv/detengine.py",
        "            sign = -sign\n",
        "",
        ("tests/test_detengine.py::test_integer_minors_match_cofactor_minors",),
    ),
    Mutant(
        "_integer_minors without the end-of-pass catch-up",
        "src/polydiv/detengine.py",
        "    ends = [row[free] * last // pivots[lev[free]] for row, lev in zip(grid, level)]\n",
        "    ends = [row[free] for row in grid]\n",
        (
            "tests/test_detengine.py::test_integer_minors_hand_cases",
            "tests/test_detengine.py::test_integer_minors_match_eager_elimination",
        ),
    ),
    Mutant(
        "_integer_minors without the pivot row's catch-up",
        "src/polydiv/detengine.py",
        "                if top_level[j] != k - 1:\n                    top[j] = top[j] * prev // pivots[top_level[j]]\n",
        "",
        (
            "tests/test_detengine.py::test_integer_minors_hand_cases",
            "tests/test_detengine.py::test_integer_minors_match_eager_elimination",
        ),
    ),
    Mutant(
        "_integer_minors combines two entries at prev in place of the later of their levels",
        "src/polydiv/detengine.py",
        "// pivots[c]\n",
        "// prev\n",
        (
            "tests/test_detengine.py::test_integer_minors_hand_cases",
            "tests/test_detengine.py::test_integer_minors_match_eager_elimination",
        ),
    ),
    Mutant(
        "_integer_minors without the pivot row's level advanced",
        "src/polydiv/detengine.py",
        "                top_level[j] = k\n",
        "",
        (
            "tests/test_detengine.py::test_integer_minors_hand_cases",
            "tests/test_detengine.py::test_integer_minors_match_eager_elimination",
        ),
    ),
    Mutant(
        "_integer_minors without the level swap",
        "src/polydiv/detengine.py",
        "            level[k], level[r] = level[r], level[k]\n",
        "",
        ("tests/test_detengine.py::test_integer_minors_match_eager_elimination_on_sparse_rows",),
    ),
    Mutant(
        "det_oracle leaves a row's denominator out of the scale",
        "src/polydiv/detengine.py",
        "        scale *= den\n",
        "        scale = den\n",
        ("tests/test_detengine.py::test_det_oracle_clears_each_row_by_its_own_denominator",),
    ),
    Mutant(
        "det_oracle accepts a non-square matrix",
        "src/polydiv/detengine.py",
        "if size < 1 or any(len(row) != size for row in rows):",
        "if size < 1:",
        ("tests/test_detengine.py::test_det_oracle_rejects_non_square",),
    ),
    Mutant(
        "delta_pure_direct without the column move's sign",
        "src/polydiv/detengine.py",
        "(-1) ** (spec.k - 1)",
        "(-1) ** spec.k",
        (
            "tests/test_detengine.py::test_pure_delta_goldens",
            "tests/test_detengine.py::test_pure_delta_direct_at_large_k",
        ),
    ),
    Mutant(
        "quotient_ratio with D and F swapped",
        "src/polydiv/detengine.py",
        "* den * minor, den_f * det_h)",
        "* den_f * minor, den * det_h)",
        (
            "tests/test_detengine.py::test_quotient_ratio_matches_oracle",
            "tests/test_detengine.py::test_quotient_ratio_matches_oracle_at_served_orders",
        ),
    ),
    Mutant(
        "mixed deltas without their alternating sign",
        "src/polydiv/detengine.py",
        "_powers(-den, kmax)",
        "_powers(den, kmax)",
        (
            "tests/test_detengine.py::test_delta_mixed_goldens",
            "tests/test_cli.py::test_verify_holds_det_formula_to_mixed_deltas",
        ),
    ),
    Mutant(
        "driven recurrence without the input's lead power",
        "src/polydiv/closedform.py",
        "terms = [u * p for u, p in zip(drive, _powers(lead, len(drive)))]",
        "terms = list(drive)",
        (
            "tests/test_detengine.py::test_mixed_deltas_match_paper_sums",
            "tests/test_detengine.py::test_quotient_from_dets_matches_oracle",
        ),
    ),
    Mutant(
        "mixed deltas without the dividend's denominator",
        "src/polydiv/detengine.py",
        "Fraction(v, p * den_f)",
        "Fraction(v, p)",
        (
            "tests/test_detengine.py::test_mixed_deltas_match_paper_sums",
            "tests/test_detengine.py::test_quotient_from_dets_matches_oracle",
        ),
    ),
    Mutant(
        "long_divide back on _clear_denominators",
        "src/polydiv/polycore.py",
        "    den = math.lcm(*[c.denominator for c in g.coeffs])\n"
        "    lead, *tail = [c.numerator * (den // c.denominator) for c in reversed(g.coeffs)]\n",
        "    den, (lead, *tail) = _clear_denominators(g.coeffs[::-1])\n",
        ("tests/test_cli.py::test_check_catches_a_fault_in_clearing_denominators",),
    ),
    Mutant(
        "Polynomial.__mul__ back on _clear_denominators",
        "src/polydiv/polycore.py",
        "            den = math.lcm(*[c.denominator for c in short])\n"
        "            weights = [c.numerator * (den // c.denominator) for c in reversed(short)]\n",
        "            den, weights = _clear_denominators(short[::-1])\n",
        ("tests/test_cli.py::test_check_catches_a_fault_in_clearing_denominators",),
    ),
    Mutant(
        "reconstructs without the zero-divisor guard",
        "src/polydiv/polycore.py",
        "        if divisor.is_zero:\n            return False\n",
        "",
        ("tests/test_polycore.py::test_reconstructs_refuses_zero_divisor",),
    ),
    Mutant(
        "reconstructs allows a remainder of the divisor's degree",
        "src/polydiv/polycore.py",
        "self.remainder.degree < divisor.degree",
        "self.remainder.degree <= divisor.degree",
        ("tests/test_polycore.py::test_division_result_unique",),
    ),
    Mutant(
        "DivisorViews._replace skips the checks",
        "src/polydiv/polycore.py",
        "    _make = classmethod(lambda cls, values: cls(*values))\n",
        "",
        (
            "tests/test_polycore.py::test_divisor_views_reject_floats",
            "tests/test_polycore.py::test_divisor_views_reject_zero_lead",
        ),
    ),
    Mutant(
        "DeltaMixedSpec._replace skips the checks",
        "src/polydiv/detengine.py",
        "    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too\n",
        "",
        ("tests/test_detengine.py::test_delta_mixed_rejects_bad_index",),
    ),
    Mutant(
        "DeltaPureSpec._replace skips the checks",
        "src/polydiv/detengine.py",
        "    _make = classmethod(lambda cls, values: cls(*values))\n",
        "",
        ("tests/test_detengine.py::test_pure_delta_rejects_bad_index",),
    ),
    Mutant(
        "Polynomial fields can be assigned",
        "src/polydiv/polycore.py",
        "    __setattr__ = __delattr__ = _frozen\n",
        "    __delattr__ = _frozen\n",
        ("tests/test_polycore.py::test_polynomial_immutable",),
    ),
    Mutant(
        "evaluate takes a float point",
        "src/polydiv/polycore.py",
        "    x0 = _coerce(x0)\n    acc = Fraction(0)\n",
        "    acc = Fraction(0)\n",
        ("tests/test_polycore.py::test_polynomial_rejects_floats",),
    ),
    Mutant(
        "+ takes any operand",
        "src/polydiv/polycore.py",
        "        if not isinstance(other, Polynomial):\n"
        "            return NotImplemented\n        short,",
        "        short,",
        ("tests/test_polycore.py::test_sum_and_difference_refuse_scalars",),
    ),
    Mutant(
        "- takes any operand",
        "src/polydiv/polycore.py",
        "        if not isinstance(other, Polynomial):\n"
        "            return NotImplemented\n        return self + (-other)",
        "        return self + (-other)",
        ("tests/test_polycore.py::test_sum_and_difference_refuse_scalars",),
    ),
    Mutant(
        "matrix builders take order 0",
        "src/polydiv/detengine.py",
        "    if order < 1:\n",
        "    if False:\n",
        ("tests/test_detengine.py::test_anti_identity_rejects_order_zero",),
    ),
    Mutant(
        "anti_identity_sign takes order 0",
        "src/polydiv/detengine.py",
        "    if t < 1:\n",
        "    if False:\n",
        ("tests/test_detengine.py::test_anti_identity_rejects_order_zero",),
    ),
    Mutant(
        "hankel_det_closed takes a target below the divisor degree",
        "src/polydiv/detengine.py",
        "    lead, m = g.lead, g.degree\n    if n < m:\n",
        "    lead, m = g.lead, g.degree\n    if False:\n",
        ("tests/test_detengine.py::test_build_hankel_rejects_small_target",),
    ),
    Mutant(
        "build_hankel compares the zero divisor's degree before reading its lead",
        "src/polydiv/detengine.py",
        "    g.lead  #",
        "    #",
        ("tests/test_detengine.py::test_hankel_pair_rejects_zero_divisor",),
    ),
    Mutant(
        "_toeplitz pads with Fraction(0) whatever the entries' type",
        "src/polydiv/detengine.py",
        "    zero = coeffs[0] * 0\n",
        "    zero = Fraction(0)\n",
        ("tests/test_detengine.py::test_toeplitz_pads_with_a_zero_of_the_entries_type",),
    ),
    Mutant(
        "_toeplitz without the order cap",
        "src/polydiv/detengine.py",
        "    _check_order(size)\n",
        "",
        (
            "tests/test_detengine.py::test_matrix_order_cap",
            "tests/test_cli.py::test_pure_direct_matrix_cap_is_domain_error",
        ),
    ),
    Mutant(
        "quotient_ratio without W's order check",
        "src/polydiv/detengine.py",
        "    _check_order(t)\n    den_f, column",
        "    den_f, column",
        ("tests/test_detengine.py::test_matrix_order_cap",),
    ),
    Mutant(
        "verify without the reference's reconstruction check",
        "src/polydiv/cli.py",
        '    reference = _reconstructed("longdiv", f, g, reference)\n',
        "",
        ("tests/test_cli.py::test_verify_refuses_a_reference_that_fails_to_reconstruct",),
    ),
    Mutant(
        "delta --variant without its choices",
        "src/polydiv/cli.py",
        '"--variant", choices=tuple(DELTAS), ',
        '"--variant", ',
        ("tests/test_cli.py::test_main_usage_error_is_parse_error[bad-variant]",),
    ),
    Mutant(
        "sequence --kind without its choices",
        "src/polydiv/cli.py",
        '"--kind", choices=tuple(SEQUENCES), ',
        '"--kind", ',
        ("tests/test_cli.py::test_main_usage_error_is_parse_error[bad-kind]",),
    ),
    Mutant(
        "python -m polydiv drops main's exit code",
        "src/polydiv/__main__.py",
        "sys.exit(main())",
        "main()",
        ("tests/test_cli.py::test_console_entry_points_reply_as_main",),
    ),
    Mutant(
        "python -m polydiv.cli runs nothing",
        "src/polydiv/cli.py",
        'if __name__ == "__main__":\n    sys.exit(main())\n',
        'if __name__ == "__main__":\n    pass\n',
        ("tests/test_cli.py::test_console_entry_points_reply_as_main",),
    ),
    Mutant(
        "remainder_closed subtracts its convolution",
        "src/polydiv/closedform.py",
        "_printable(f.coeff(k) + s)",
        "_printable(f.coeff(k) - s)",
        ("tests/test_split_divisors.py::test_routes_and_verify_agree_with_division_by_linear_factors",),
    ),
    Mutant(
        "long_divide leaves g's denominator out of the quotient",
        "src/polydiv/polycore.py",
        "Fraction(top * den, scale * lead)",
        "Fraction(top, scale * lead)",
        ("tests/test_split_divisors.py::test_routes_and_verify_agree_with_division_by_linear_factors",),
    ),
    Mutant(
        "det-formula takes its quotient from quotient_closed",
        "src/polydiv/detengine.py",
        "    return divide_with(f, g, quotient_from_dets)\n",
        "    from .closedform import quotient_closed\n\n    return divide_with(f, g, quotient_closed)\n",
        ("tests/test_counts.py::test_product_counts_follow_each_formula",),
    ),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _run_tests(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [*PYTEST, *tests], cwd=tree, env=env, capture_output=True, text=True, timeout=600
    )
    return proc.returncode


def main() -> int:
    start = time.perf_counter()
    every_test = sorted({test for mutant in MUTANTS for test in mutant.tests})
    with tempfile.TemporaryDirectory(prefix="polydiv-mutants-") as scratch:
        baseline = Path(scratch) / "baseline"
        _copy(baseline)
        code = _run_tests(baseline, every_test)
        if code != 0:
            print(f"the named tests fail without a mutant (pytest exit {code})")
            return 1
        bad = 0
        for i, mutant in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant{i}"
            _copy(tree)
            target = tree / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                print(f"STALE     {mutant.name}: its text occurs {text.count(mutant.old)} times")
                bad += 1
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            code = _run_tests(tree, mutant.tests)
            # pytest exits 1 when a test failed; other codes are usage errors.
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
            print(f"{verdict:<9} {mutant.name}")
            bad += verdict != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
