"""Tour of the shipped semirings and the executable axiom check.

Run:  python demos/01_semirings.py
"""

import random

from trideriv import (
    BOOLEAN,
    FUZZY,
    MAXPLUS,
    MINPLUS,
    Semiring,
    check_axioms,
    natural_leq,
)

print("=== the four shipped instances ===")
for s in (BOOLEAN, MAXPLUS, MINPLUS, FUZZY):
    print(f"{s.name:8s} zero={s.format_element(s.zero):5s} one={s.format_element(s.one)}")

print()
print("=== max-plus arithmetic: addition is max, multiplication is + ===")
print("3 (+) 5  =", MAXPLUS.add(3, 5))
print("3 (*) 5  =", MAXPLUS.mul(3, 5))
print("-inf is neutral for (+) and absorbing for (*):")
print("-inf (+) 7 =", MAXPLUS.add(MAXPLUS.zero, 7))
print("-inf (*) 7 =", MAXPLUS.mul(MAXPLUS.zero, 7))

print()
print("=== every instance passes the sampled axiom check ===")
for s in (BOOLEAN, MAXPLUS, MINPLUS, FUZZY):
    violation = check_axioms(s, 2000, seed=42)
    print(f"{s.name:8s} ok={violation is None} (2000 sampled triples)")

print()
print("=== a non-example: ordinary natural-number arithmetic ===")
naturals = Semiring(
    name="naturals",
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    zero=0,
    one=1,
    contains=lambda v: isinstance(v, int) and v >= 0,
    parse_element=int,
    format_element=str,
    sample=lambda rng: rng.randint(0, 9),
)
v = check_axioms(naturals, 10, seed=1)
print(f"ok={v is None}; first broken law: {v.law} with a={v.elements[0]}")
print(f"(indeed {v.elements[0]} + {v.elements[0]} != {v.elements[0]})")

print()
print("=== idempotent addition induces a partial order: a <= b iff a (+) b = b ===")
rng = random.Random(3)
pairs = [(MAXPLUS.sample(rng), MAXPLUS.sample(rng)) for _ in range(4)]
for a, b in pairs:
    fa, fb = MAXPLUS.format_element(a), MAXPLUS.format_element(b)
    print(f"{fa:5s} <= {fb:5s} ? {natural_leq(MAXPLUS, a, b)}")
