"""Exhaustive classification of zero-pattern maps at tiny dimensions.

Which sets of positions can a map zero out and still be a derivation?
At n <= 5 the question is fully decidable by brute force over the
boolean semiring, one cell at a time; the answer agrees everywhere with
the local characterization implemented in ZeroPattern.is_derivation().

Run:  python demos/06_brute_force_oracle.py
"""

from trideriv import brute_force_classify, format_pattern, strip_diagonal

for n in (1, 2, 3, 4, 5):
    report = brute_force_classify(n)
    print(f"=== n={n}: {report.total_patterns} candidate patterns, "
          f"{report.derivation_count} are derivations ===")
    for pattern in report.derivation_patterns:
        shape = "diagonal-blocks" if pattern.interval_form() is not None else "other"
        print(f"  {format_pattern(pattern) or '(identity)':40s} {shape}")
    print(f"  counts: total={report.derivation_count} "
          f"interval_form={report.interval_form_count} other={report.other_count}")
    print("  local condition agrees on all patterns (the sweep raises otherwise)")
    print()

print("the diagonal-blocks class alone accounts for 2^n of the verdicts;")
print("the strip-diagonal map is the canonical 'other':",
      format_pattern(strip_diagonal(3)))
