"""Command-line surface.

Every subcommand prints deterministic, grep-friendly lines (``PASS``/
``FAIL`` prefixes for verification verdicts) and follows one exit-code
contract: 0 all checked properties hold, 1 a property violation was
found (witness printed) or the oracle's two routes disagreed (message on
stderr), 2 usage, parse, or capacity error.  Random trials come from
:func:`~trideriv.semirings.seeded_trials`, so any reported trial index is
reproducible on its own, and an exhaustive ``FAIL`` line names its pair by
the :func:`~trideriv.oracle.matrix_bits` indices.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .derivations import (
    MaskDerivation,
    Witness,
    d_m,
    decompose,
    delta_k,
    enumerate_family_derivations,
    enumerate_interval_derivations,
    first_failures,
    format_zero_set,
    parse_pattern,
    parse_zero_set,
    theorem2_predicate,
)
from .matrices import format_matrix, parse_matrix, random_matrix
from .oracle import (
    EXHAUSTIVE_LIMIT,
    CapacityError,
    brute_force_classify,
    exhaustive_leibniz_witness,
    format_report,
    matrix_bits,
)
from .semirings import MAXPLUS, Semiring, check_axioms, format_element, get_semiring, seeded_trials
from .shifts import ShiftDerivation

TRIALS_LIMIT = 10**6  # axioms: 9-17 s on every carrier; seeded verify at n = 1..2: 18-39 s
FAMILY_ENUMERATION_LIMIT = 20
INTERVAL_ENUMERATION_LIMIT = 200
# Seeded ``verify`` runs cost 0.0004-26 us per unit of verify_work on a 2-core
# VM (Python 3.11.7, in-process, 10^5 trials at n = 1..2, 10^3-10^4 above):
# the most at n = 1..2, where TRIALS_LIMIT binds first (leibniz and theorem2
# 7.7-19 at n = 1, 0.57-0.84 at n = 2), and under 1 from n = 3 (hereditary
# 0.20-0.32 at n = 6, 0.09-0.16 at n = 10; theorem2 0.013 at n = 6, 0.004 at
# n = 10; leibniz 0.0004 at n = 12, 10 trials).  Under both caps the slowest
# run (hereditary, n = 10, 10^6 trials) would take about 1.5-2.7 minutes.
VERIFY_WORK_LIMIT = 10**9
# A hereditary trial folds through matrices._mul_plan(n), n(n+1)(n+2)/6 index
# pairs of about 128 bytes each: 73 MB at n = 150 by tracemalloc, and about
# 21 GB at n = 1000, which the work cap alone admits with one trial.
_HEREDITARY_LIMIT = 150


def _witness_fields(witness: Witness) -> str:
    i, j = witness.position
    return f"position={i},{j} lhs={format_element(witness.lhs)} rhs={format_element(witness.rhs)}"


def cmd_axioms(args: argparse.Namespace) -> int:
    semiring = get_semiring(args.semiring)
    if args.trials > TRIALS_LIMIT:
        raise CapacityError(f"axioms trials capped at {TRIALS_LIMIT}")
    v = check_axioms(semiring, args.trials, args.seed)
    if v is None:
        print(f"PASS axioms semiring={semiring.name} trials={args.trials} seed={args.seed}")
        return 0
    elems = " ".join(f"{name}={format_element(x)}" for name, x in zip("abc", v.elements))
    print(f"FAIL axioms semiring={semiring.name} law={v.law} trial={v.trial} {elems}")
    return 1


def cmd_apply(args: argparse.Namespace) -> int:
    with open(args.matrix) as fh:
        matrix = parse_matrix(fh.read())
    n = matrix.n
    if args.zero_set is not None:
        fn = MaskDerivation(n, parse_zero_set(args.zero_set, n))
    elif args.delta_k is not None:
        fn = delta_k(n, args.delta_k)
    elif args.d_m is not None:
        fn = d_m(n, args.d_m)
    elif args.pattern is not None:
        fn = parse_pattern(args.pattern, n)
    else:
        fn = ShiftDerivation(MAXPLUS.parse_element(args.shift)).hereditary()
    sys.stdout.write(format_matrix(fn(matrix)))
    return 0


def _family_zero_set_texts(n: int):
    """The ``format_zero_set`` texts of :func:`enumerate_family_derivations`,
    in its order, as 2^(n - n // 2) lists of 2^(n // 2) texts, built from two
    half-width lists rather than from 2^n masks.  Index i is bit i - 1, so
    the high indices n // 2 + 1..n pick the list and the low ones the text
    in it; a high text follows each low one, which keeps every text ascending."""
    halves = []
    for indices in (range(1, n // 2 + 1), range(n // 2 + 1, n + 1)):
        texts = [""]
        for i in indices:  # doubling adds bit i - 1: binary-counter order
            texts += [f"{t},{i}" if t else str(i) for t in texts]
        halves.append(texts)
    lows, highs = halves
    for high in highs:
        yield [f"{low},{high}" if low else high for low in lows] if high else lows


def cmd_enumerate(args: argparse.Namespace) -> int:
    """One ``zero_set=`` line per mask, then ``total=``.  The 2^n family lines
    are written one block per :func:`_family_zero_set_texts` list, so memory
    grows as 2^(n/2), not 2^n; the intervals are listed from their masks."""
    if args.cls == "families":
        if args.n > FAMILY_ENUMERATION_LIMIT:
            raise CapacityError(f"family enumeration capped at n={FAMILY_ENUMERATION_LIMIT}")
        for texts in _family_zero_set_texts(args.n):
            sys.stdout.write("zero_set=" + "\nzero_set=".join(texts) + "\n")
        sys.stdout.write(f"total={1 << args.n}\n")
        return 0
    if args.n > INTERVAL_ENUMERATION_LIMIT:
        raise CapacityError(f"interval enumeration capped at n={INTERVAL_ENUMERATION_LIMIT}")
    masks = enumerate_interval_derivations(args.n)
    lines = [f"zero_set={format_zero_set(mask.zero_set)}\n" for mask in masks]
    sys.stdout.write("".join(lines) + f"total={len(masks)}\n")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    sys.stdout.write(format_report(brute_force_classify(args.n)))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    mask = MaskDerivation(args.n, parse_zero_set(args.zero_set, args.n))
    print(decompose(mask).ascii())
    return 0


# --- verify ----------------------------------------------------------------------

def _failures(maps, args: argparse.Namespace, semiring: Semiring):
    """Each map's first failure as (where, check-name, witness), else None:
    from :func:`first_failures` (where ``trial=t seed=S``, replayed alone by
    ``--seed S+t --trials 1``), or with ``--exhaustive``
    from the boolean sweep (where names the pair's enumeration indices)."""
    if not args.exhaustive:
        found = first_failures(maps, args.n, semiring, args.trials, args.seed)
        return [None if f is None else (f"trial={f[0]} seed={args.seed}", *f[1:]) for f in found]
    found = [exhaustive_leibniz_witness(fn) for fn in maps]
    return [
        None if f is None
        else (f"exhaustive a_bits={matrix_bits(f[0])} b_bits={matrix_bits(f[1])}", "leibniz", f[2])
        for f in found
    ]


def _verify_leibniz(args: argparse.Namespace, semiring: Semiring) -> int:
    """One line per family mask, in :func:`enumerate_family_derivations`'
    order.  The masks are checked; each line's ``zero_set=`` field comes
    from :func:`_family_zero_set_texts`, and the lines are written one
    block per list of those texts."""
    masks = enumerate_family_derivations(args.n)
    found = iter(_failures(masks, args, semiring))
    fields = f"n={args.n} semiring={semiring.name} zero_set="
    failures = 0
    for texts in _family_zero_set_texts(args.n):
        lines = []
        for zs, failure in zip(texts, found):  # texts first: zip stops before the next failure
            if failure is None:
                lines.append(f"PASS leibniz {fields}{zs}\n")
            else:
                where, check, witness = failure
                lines.append(f"FAIL {check} {fields}{zs} {where} {_witness_fields(witness)}\n")
                failures += 1
        sys.stdout.write("".join(lines))
    return 1 if failures else 0


def _verify_theorem2(args: argparse.Namespace, semiring: Semiring) -> int:
    n = args.n
    pairs = [(k, m) for k in range(1, n + 1) for m in range(1, n + 1)]
    patterns = [delta_k(n, k).compose(d_m(n, m)) for k, m in pairs]
    # A FAIL line replays alone: it names its witness's trial, or the trials that missed one.
    missed = "exhaustive" if args.exhaustive else f"trials={args.trials} seed={args.seed}"
    failures = 0
    for (k, m), failure in zip(pairs, _failures(patterns, args, semiring)):
        expected = theorem2_predicate(n, k, m)
        empirical = failure is None
        line = (
            f"theorem2 n={n} k={k} m={m} "
            f"expected={'derivation' if expected else 'witness'} "
            f"empirical={'derivation' if empirical else 'witness'}"
        )
        if empirical == expected:
            print(f"PASS {line}")
            continue
        if failure is None:
            detail = missed
        else:
            where, check, witness = failure
            detail = f"{where} check={check} {_witness_fields(witness)}"
        print(f"FAIL {line} semiring={semiring.name} {detail}")
        failures += 1
    return 1 if failures else 0


def _verify_decompose(args: argparse.Namespace, semiring: Semiring) -> int:
    """Each trial draws a zero set; its expression is checked exactly
    (:meth:`~trideriv.derivations.DecompositionExpr.acts_as`), once per
    distinct zero set of the run.  The verdict hangs on the zero set and
    the carrier alone, so a ``FAIL`` line names both and replays alone."""
    n = args.n
    checked = {}  # zero set -> (verdict, the line's zero_set= and expr= fields)
    failures = 0
    for trial, rng in seeded_trials(args.trials, args.seed):
        zero_set = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
        if zero_set not in checked:
            mask = MaskDerivation(n, zero_set)
            expr = decompose(mask)
            passed = expr.acts_as(mask, semiring)
            checked[zero_set] = (
                "PASS" if passed else "FAIL",
                f"zero_set={format_zero_set(zero_set)} "
                f"{'' if passed else f'semiring={semiring.name} '}expr={expr.ascii()}",
            )
        verdict, fields = checked[zero_set]
        print(f"{verdict} decompose n={n} trial={trial} {fields}")
        failures += verdict == "FAIL"
    return 1 if failures else 0


def _verify_hereditary(args: argparse.Namespace, semiring: Semiring) -> int:
    if semiring.name != "maxplus":
        raise ValueError("hereditary verification runs over the maxplus semiring")
    if args.n > _HEREDITARY_LIMIT:
        raise CapacityError(f"hereditary verification capped at n={_HEREDITARY_LIMIT}")
    for trial, rng in seeded_trials(args.trials, args.seed):
        lifted = ShiftDerivation._trusted(x=MAXPLUS.sample(rng)).hereditary()
        a, b = random_matrix(args.n, semiring, rng), random_matrix(args.n, semiring, rng)
        witness = lifted.first_witness(a, b)
        if witness is not None:
            x = format_element(lifted.shift.x)
            print(
                f"FAIL hereditary n={args.n} trial={trial} seed={args.seed} shift={x} "
                f"{_witness_fields(witness)}"
            )
            return 1
    print(f"PASS hereditary n={args.n} trials={args.trials} seed={args.seed}")
    return 0


def verify_work(kind: str, n: int, trials: int) -> int:
    """maps x trials x n^3 of a seeded ``verify`` run: leibniz checks 2^n masks,
    theorem2 n^2 compositions, decompose and hereditary one map."""
    maps = 1 << n if kind == "leibniz" else n * n if kind == "theorem2" else 1
    return maps * trials * n**3


_VERIFY_KINDS = {
    "leibniz": _verify_leibniz,
    "theorem2": _verify_theorem2,
    "decompose": _verify_decompose,
    "hereditary": _verify_hereditary,
}


def cmd_verify(args: argparse.Namespace) -> int:
    semiring = get_semiring(args.semiring)
    if args.exhaustive:
        if args.kind not in ("leibniz", "theorem2"):
            raise ValueError("exhaustive mode applies only to leibniz and theorem2")
        if semiring.name != "boolean" or args.n > EXHAUSTIVE_LIMIT:
            raise CapacityError(
                f"exhaustive mode needs --semiring boolean and n <= {EXHAUSTIVE_LIMIT}"
            )
        if (args.trials, args.seed) != (1000, 0):
            print("note: --exhaustive ignores --trials and --seed", file=sys.stderr)
    else:
        if args.trials > TRIALS_LIMIT:
            raise CapacityError(f"verify trials capped at {TRIALS_LIMIT}")
        cap = f"verify work capped at {VERIFY_WORK_LIMIT} (maps x trials x n^3)"
        # n^3 divides every kind's count: refuse before 2^n or its digits are built.
        if args.n**3 > VERIFY_WORK_LIMIT:
            raise CapacityError(f"{cap}; n^3 alone exceeds it")
        work = verify_work(args.kind, args.n, args.trials)
        if work > VERIFY_WORK_LIMIT:
            raise CapacityError(f"{cap}; this run needs {work}")
    return _VERIFY_KINDS[args.kind](args, semiring)


# --- parser ------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call: building costs
    about 1 ms, and ``parse_args`` makes a fresh namespace on every reuse."""
    parser = argparse.ArgumentParser(
        prog="trideriv",
        description="Derivations of upper-triangular matrices over additively "
        "idempotent semirings: apply, enumerate, verify, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="check the semiring laws on sampled triples")
    p.add_argument("--semiring", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("apply", help="apply a derivation to a matrix file")
    p.add_argument("--matrix", required=True, help="path to a matrix in text format")
    mask = p.add_mutually_exclusive_group(required=True)
    mask.add_argument("--zero-set", help="comma-separated diagonal indices, e.g. 2,3,5")
    mask.add_argument("--delta-k", type=int, help="keep the first K rows")
    mask.add_argument("--d-m", type=int, help="keep the last M columns")
    mask.add_argument("--pattern", help="semicolon-separated i,j pairs, e.g. 1,1;2,2")
    mask.add_argument(
        "--shift", help="hereditary max-plus shift: rational or -inf (write --shift=-inf)"
    )
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("enumerate", help="list mask derivations and their count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--class", dest="cls", choices=("intervals", "families"), required=True
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="verify derivation laws, with seeded trials")
    p.add_argument("kind", choices=sorted(_VERIFY_KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--semiring", default="maxplus")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force classify all zero patterns")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("decompose", help="rewrite a mask as delta/d terms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--zero-set", required=True)
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("n", "trials"):  # the floors of every subcommand with the flag
            if vars(args).get(flag, 1) < 1:
                raise ValueError(f"--{flag} must be >= 1")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # the oracle's two routes disagree
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
