"""Exact verification of the finite identity catalog over parameter sweeps.

Each finite identity states that two sequences in n are equal.  A check
builds both as whole rows for n = 0..n_max, once per (x, r) of its grid,
compares them entry by entry and emits one :class:`IdentityReport` per
point.  A bad sweep is refused before any work; failures are recorded with
witnesses rather than raised.  The display polynomials checked here are
written out with their literal coefficients on purpose: the generic Bell
recursion is exercised elsewhere, and hard-coding the displays keeps the
two routes independent.

Every identity is one row of :data:`IDENTITIES`, keyed by its stable report
id (``"thm2.2a"``, ``"eq16"``, ...): the ``verify`` target that checks it,
the axes of its grid and its two row routes.  :func:`run_all` builds the
reference sides once and shares them with every exact group (``refs``); a
group called with ``refs=None`` builds its own.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .beta_engine import Monomial, alt_power_row, beta_F, derivative_rows, mixed_sum
from .harmonic_core import DomainError, RationalLike, _check_shift

__all__ = [
    "IdentityReport",
    "IDENTITIES",
    "GROUP_AXES",
    "CHECK_GROUPS",
    "DEFAULT_X_SAMPLES",
    "binomial_inverse",
    "check_inversion",
    "deliberate_mismatch_check",
    "run_all",
]

#: Default x sweep: the standard sample points plus one near the x = -1 boundary.
DEFAULT_X_SAMPLES: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(7, 3),
    Fraction(-49, 100),
)

PASS = "pass"
FAIL = "fail"


class IdentityReport(NamedTuple):
    """Machine-readable verdict for one identity at one parameter tuple.

    A group returns its reports in output order: by identity_id, then r, n,
    then x by value.
    """

    identity_id: str
    params: dict
    status: str
    witness: tuple[Fraction, Fraction] | None = None
    reason: str | None = None
    oracle: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == PASS


def _difference_table(row: list[int]) -> list[int]:
    """(-1)**n * Delta**n row[0] for n = 0..len(row)-1, in integers.

    Each pass replaces the row by its negated first differences
    row[i] - row[i+1], so entry 0 after n passes is (-1)**n * Delta**n row[0].
    """
    out: list[int] = []
    while row:
        out.append(row[0])
        row = list(map(operator.sub, row, row[1:]))
    return out


def binomial_inverse(sequence: Sequence[RationalLike]) -> list[Fraction]:
    """Alternating binomial transform b_n = sum(C(n,k)*(-1)**k*a_k).

    The transform is an involution: applying it twice returns the input.
    Output entry n depends only on input entries 0..n.  Computed as
    b_n = (-1)**n * Delta**n a_0 on the integer numerators over the common
    denominator D, so each step of the difference table is int subtraction.
    """
    denom = math.lcm(*(v.denominator for v in sequence))
    row = [v.numerator * (denom // v.denominator) for v in sequence]
    return [Fraction(b, denom) for b in _difference_table(row)]


class _References:
    """The reference rows of one sweep for n <= n_max, each built on first use
    and each read by two identities or more.

    ``derivatives(x)`` is derivative_rows(n_max, x, max(r_max, 3)), whose
    harmonic orders 1..4 serve every display; ``alternating(x, s)`` is
    alt_power_row(n_max, x, s); ``display(x, s)`` is the display of weight
    s at H_n(x,1..s-1) times F_n(x), both from the derivative rows at x, or
    for ``x=None`` (the x = 0 forms) at H_n(0,1..s-1) times the literal
    1/(n+1), divided by (s-1)!.  The routes read prefixes of the rows.  The
    rows close over locals, not self: dropping the object frees them
    without the cyclic collector.
    """

    def __init__(self, n_max: int, r_max: int) -> None:
        # the weight-5 display reads H_1..H_4
        derivatives = functools.cache(lambda x: derivative_rows(n_max, x, max(r_max, 3)))

        @functools.cache
        def display(x: Fraction | None, s: int) -> list[Fraction]:
            monomials = _DISPLAYS[s].items()
            return [
                sum(
                    math.prod((v**e for v, e in zip(h, exponents) if e), start=coeff)
                    for exponents, coeff in monomials
                )
                * (Fraction(1, n + 1) if x is None else f[0])
                / math.factorial(s - 1)
                for n, (h, f) in enumerate(derivatives(x or Fraction(0)))
            ]

        self.derivatives = derivatives
        self.alternating = functools.cache(lambda x, s: alt_power_row(n_max, x, s))
        self.display = display


#: The display polynomial of weight s, G_(s-1) in H_n(x,1..s-1), with the
#: paper's literal coefficients: each monomial's exponents of (h1, h2, ...)
#: map to its coefficient.  Corollary 2.4's series crosscheck the weights
#: 3..5 against bell_expansion; nothing here is derived from it.
_DISPLAYS: dict[int, dict[Monomial, int]] = {
    2: {(1,): 1},
    3: {(0, 1): 1, (2, 0): 1},
    4: {(0, 0, 1): 2, (1, 1, 0): 3, (3, 0, 0): 1},
    5: {(0, 0, 0, 1): 6, (1, 0, 1, 0): 8, (0, 2, 0, 0): 3, (2, 1, 0, 0): 6, (4, 0, 0, 0): 1},
}


#: A row route, called as route(refs, n_max, x, r) with None for an axis
#: not in the grid: one side of an identity for n = 0..n_max, or a longer
#: row of which the check reads that prefix.
Route = Callable[[_References, int, Fraction | None, int | None], Sequence[Fraction]]


def _forward(s: int) -> tuple[Route, Route]:
    """alt_power_sum(n, x, s) == display side, at x = 0 where x is None."""
    return (
        lambda refs, n_max, x, r: refs.alternating(x or Fraction(0), s),
        lambda refs, n_max, x, r: refs.display(x, s),
    )


def _inverted(s: int) -> tuple[Route, Route]:
    """binomial_inverse(display side) == 1/(n+x+1)^s, at x = 0 where x is None."""
    return (
        lambda refs, n_max, x, r: binomial_inverse(refs.display(x, s)[: n_max + 1]),
        lambda refs, n_max, x, r: [1 / ((x or Fraction(0)) + n + 1) ** s for n in range(n_max + 1)],
    )


class _Identity(NamedTuple):
    group: str  # the verify target that checks it
    axes: str  # its grid: "n", "nx" or "rnx"
    lhs: Route
    rhs: Route


#: Every finite identity, by report id: the display families of Theorems
#: 2.2, 2.3 and 2.5 (forward forms, their inversions, and the x = 0 forms on
#: an n grid), Theorem 2.6, Lemma a, the beta equality, the inversion
#: duality, and the fixture that must fail.  A failing forward point's
#: witness is (alt_power_sum(n, x, s), display side / (s-1)!).
IDENTITIES: dict[str, _Identity] = {
    "eq15": _Identity("thm2.2", "nx", *_forward(2)),
    "thm2.2a": _Identity("thm2.2", "nx", *_inverted(2)),
    "eq16": _Identity("thm2.2", "n", *_forward(2)),
    "thm2.2b": _Identity("thm2.2", "n", *_inverted(2)),
    "thm2.3a": _Identity("thm2.3", "nx", *_forward(3)),
    "thm2.3b": _Identity("thm2.3", "nx", *_forward(4)),
    "eq20": _Identity("thm2.3", "nx", *_inverted(3)),
    "eq21": _Identity("thm2.3", "nx", *_inverted(4)),
    "thm2.3c": _Identity("thm2.3", "n", *_forward(3)),
    "thm2.3d": _Identity("thm2.3", "n", *_forward(4)),
    "eq28": _Identity("thm2.5", "nx", *_forward(5)),
    "thm2.5a": _Identity("thm2.5", "nx", *_inverted(5)),
    "eq29": _Identity("thm2.5", "n", *_forward(5)),
    "thm2.5b": _Identity("thm2.5", "n", *_inverted(5)),
    "thm2.6-finite": _Identity(
        "thm2.6", "rnx",
        lambda refs, n_max, x, r: refs.alternating(x, r + 2),
        lambda refs, n_max, x, r: [mixed_sum(*row, r) for row in refs.derivatives(x)[: n_max + 1]],
    ),
    "lemma-a": _Identity(
        "lemma-a", "rnx",
        lambda refs, n_max, x, r: [f[r] for _, f in refs.derivatives(x)[: n_max + 1]],
        lambda refs, n_max, x, r: [
            (-1) ** r * math.factorial(r) * a for a in refs.alternating(x, r + 1)[: n_max + 1]
        ],
    ),
    "beta-eq": _Identity(
        "beta-eq", "nx",
        lambda refs, n_max, x, r: [beta_F(n, x) for n in range(n_max + 1)],
        lambda refs, n_max, x, r: refs.alternating(x, 1),
    ),
    # the eq16 sequence H_{k+1}/(k+1), H_{k+1} a running sum of 1/j, transformed
    "inversion-duality": _Identity(
        "inversion", "n",
        lambda refs, n_max, x, r: binomial_inverse([
            h / (k + 1)
            for k, h in enumerate(itertools.accumulate(Fraction(1, j) for j in range(1, n_max + 2)))
        ]),
        lambda refs, n_max, x, r: [Fraction(1, (n + 1) ** 2) for n in range(n_max + 1)],
    ),
    "fixture-fail": _Identity(
        "fixture-fail", "n",
        lambda refs, n_max, x, r: [beta_F(n, 0) for n in range(n_max + 1)],
        lambda refs, n_max, x, r: [Fraction(1, n + 2) for n in range(n_max + 1)],
    ),
}

#: The axes each ``verify`` target of IDENTITIES reads: the union of its rows' axes.
GROUP_AXES: dict[str, frozenset[str]] = {
    group: frozenset().union(*(row.axes for row in IDENTITIES.values() if row.group == group))
    for group in dict.fromkeys(row.group for row in IDENTITIES.values())
}


def _check_sweep(axes: str, n_max: int, r_max: int | None, xs, **counts: int) -> None:
    """Refuse, before any row is built or trial drawn, a sweep over ``axes`` with a count None
    or below 0, or on an x axis with no x, a repeat or an x <= -1, in the caller's order."""
    for name, value in {"n_max": n_max, "r_max": r_max if "r" in axes else 0, **counts}.items():
        if value is None or value < 0:
            raise DomainError(f"verify requires {name} >= 0, got {name}={value}")
    if "x" in axes and not xs:
        raise DomainError("verify requires at least one x")
    for i, x in enumerate(xs if "x" in axes else ()):
        if x in xs[:i]:
            raise DomainError(f"verify --x repeats {x}")
        _check_shift(x, "verify")


def _check_group(
    group: str, n_max: int, r_max: int | None, xs: Sequence[RationalLike] | None, refs=None
) -> list[IdentityReport]:
    """Every row of ``group`` over its grid, in output order: r outermost,
    then n, then x in ascending value, whatever the order of ``xs``.  Each
    (x, r) pair of sides is built once and compared entry by entry; a
    route's DomainError propagates.  A group reads only its axes: it
    ignores r_max and xs where it has none, and builds its own rows without
    refs."""
    _check_sweep(GROUP_AXES[group], n_max, r_max, xs)
    refs = refs or _References(n_max, r_max if "r" in GROUP_AXES[group] else 0)
    reports: list[IdentityReport] = []
    for identity_id, row in sorted(IDENTITIES.items()):
        if row.group != group:
            continue
        row_xs = sorted(map(Fraction, xs)) if "x" in row.axes else [None]
        for r in range(r_max + 1) if "r" in row.axes else [None]:
            sides = [(x, row.lhs(refs, n_max, x, r), row.rhs(refs, n_max, x, r)) for x in row_xs]
            for n in range(n_max + 1):
                for x, lhs, rhs in sides:
                    params = {axis: v for axis, v in zip("rnx", (r, n, x)) if axis in row.axes}
                    if lhs[n] == rhs[n]:
                        reports.append(IdentityReport(identity_id, params, PASS))
                    else:
                        witness = (lhs[n], rhs[n])
                        reports.append(IdentityReport(identity_id, params, FAIL, witness=witness))
    return reports


#: The seed of :func:`check_inversion`'s random sequences.
_INVERSION_SEED = 20240601


def check_inversion(count: int = 1000, max_len: int = 64, n_max: int = 50) -> list[IdentityReport]:
    """Involution on random rational sequences plus the forward/inverted duality.

    ``inversion`` entries index random trials (params n = trial index);
    ``inversion-duality`` checks that transforming the eq16 sequence yields
    the thm2.2b right-hand side.
    """
    _check_sweep("n", n_max, None, None, count=count, max_len=max_len)
    rng = random.Random(_INVERSION_SEED)
    reports: list[IdentityReport] = []
    for trial in range(count):
        length = rng.randint(0, max_len)
        pairs = [(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(length)]
        # the round trip on the integer row over D = lcm of the denominators
        denom = math.lcm(*(q for _, q in pairs))
        row = [p * (denom // q) for p, q in pairs]
        roundtrip = _difference_table(_difference_table(row))
        witness = next(
            (
                (Fraction(a, denom), Fraction(p, q))
                for a, b, (p, q) in zip(roundtrip, row, pairs)
                if a != b
            ),
            None,
        )
        reports.append(
            IdentityReport(
                "inversion", {"n": trial}, PASS if witness is None else FAIL, witness=witness
            )
        )
    return reports + _check_group("inversion", n_max, None, None)


def deliberate_mismatch_check(n_max: int = 10) -> list[IdentityReport]:
    """A check that must fail; exercises the failure/witness/exit-code path."""
    return _check_group("fixture-fail", n_max, None, None)


#: The check groups by ``verify`` target, and the one way to run one:
#: ``CHECK_GROUPS[group](n_max, r_max, xs)``, None for an axis the group
#: lacks, and optionally the sweep's shared reference rows, built to at least
#: (n_max, r_max).  This is the one list of groups, which :func:`run_all`
#: reads; fixture-fail, which must fail, is none of them.
CHECK_GROUPS: dict[str, Callable[..., list[IdentityReport]]] = {
    group: functools.partial(_check_group, group) for group in GROUP_AXES if group != "fixture-fail"
}
CHECK_GROUPS["inversion"] = lambda n_max, r_max, xs, refs=None: check_inversion(n_max=n_max)

#: Ceilings :func:`run_all` puts on n_max for the groups whose cost grows
#: fastest in n; a single-group call is not capped.
_RUN_ALL_N_CAPS: dict[str, int] = {"thm2.6": 30, "lemma-a": 40}


def run_all(
    n_max: int = 50,
    r_max: int = 6,
    x_samples: Sequence[RationalLike] = DEFAULT_X_SAMPLES,
) -> list[IdentityReport]:
    """Run every check group in turn on one set of reference rows; merge the
    reports by a stable sort on identity_id, as each group emits them in order."""
    xs = list(x_samples)
    _check_sweep("nrx", n_max, r_max, xs)
    refs = _References(n_max, r_max)
    merged: list[IdentityReport] = []
    for name, group in CHECK_GROUPS.items():
        if name == "inversion":  # it reads no rows: free them before it runs
            refs = None
        merged += group(min(n_max, _RUN_ALL_N_CAPS.get(name, n_max)), r_max, xs, refs)
    merged.sort(key=operator.attrgetter("identity_id"))
    return merged
