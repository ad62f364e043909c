"""Exact verification of the finite identity catalog over parameter sweeps.

Each check evaluates both sides of an identity at every point of a parameter
grid and emits one :class:`IdentityReport` per point.  Failures are recorded
with witnesses rather than raised, so a sweep always runs to completion.
The display polynomials checked here are written out with their literal
coefficients on purpose: the generic Bell recursion is exercised elsewhere,
and hard-coding the displays keeps the two routes independent.

Every identity is one row of :data:`IDENTITIES`, keyed by its stable report
id (``"thm2.2a"``, ``"eq16"``, ...): the ``verify`` target that checks it,
the axes of its grid and its two routes.  :func:`run_all` builds the
reference sides once and shares them with every exact group (``refs``); a
group called with ``refs=None`` builds its own.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .beta_engine import Monomial, alt_power_row, beta_F, derivative_rows, mixed_sum
from .harmonic_core import DomainError, RationalLike, harmonic_number

__all__ = [
    "IdentityReport",
    "IDENTITIES",
    "GROUP_AXES",
    "CHECK_GROUPS",
    "DEFAULT_X_SAMPLES",
    "binomial_inverse",
    "generic_check",
    "check_theorem_2_2",
    "check_theorem_2_3",
    "check_theorem_2_5",
    "check_theorem_2_6_finite",
    "check_beta_equality",
    "check_lemma_a",
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
SKIPPED = "skipped"


class IdentityReport(NamedTuple):
    """Machine-readable verdict for one identity at one parameter tuple."""

    identity_id: str
    params: dict
    status: str
    witness: tuple[Fraction, Fraction] | None = None
    reason: str | None = None
    oracle: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def sort_key(self) -> tuple:
        return (
            self.identity_id,
            self.params.get("r", -1),
            self.params.get("n", -1),
            Fraction(self.params.get("x", 0)),
        )


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


Evaluator = Callable[..., Fraction]


def generic_check(
    identity_id: str,
    lhs: Evaluator,
    rhs: Evaluator,
    grid: Iterable[Mapping[str, object]],
) -> list[IdentityReport]:
    """Exact lhs == rhs comparison at every grid point.

    Precondition violations (:class:`DomainError`) become skipped entries
    with a reason instead of aborting the sweep.
    """
    reports: list[IdentityReport] = []
    for params in grid:
        params = dict(params)
        try:
            left = lhs(**params)
            right = rhs(**params)
        except DomainError as exc:
            reports.append(IdentityReport(identity_id, params, SKIPPED, reason=str(exc)))
            continue
        if left == right:
            reports.append(IdentityReport(identity_id, params, PASS))
        else:
            reports.append(IdentityReport(identity_id, params, FAIL, witness=(left, right)))
    return reports


class _References:
    """The reference rows of one sweep for n <= n_max, each built on first use.

    ``derivatives(x)`` is derivative_rows(n_max, x, r_max) with harmonic
    order max(r_max + 1, 4), enough for every display; ``alternating(x, s)``
    is alt_power_row(n_max, x, s); ``display(x, s)`` is the display of weight
    s at H_n(x,1..s-1) times F_n(x), both from the derivative rows at x, or
    for ``x=None`` (the x = 0 forms) at H_n(0,1..s-1) times the literal
    1/(n+1); ``inverted(x, s)`` is binomial_inverse(display(x, s)), and
    ``eq16_inverted()`` that of H_{n+1}/(n+1) from harmonic_number.  The
    routes read prefixes of the rows and build them, so an out-of-domain x
    still becomes a skipped report of :func:`generic_check`.  The rows close
    over locals, not self: dropping the object frees them without the
    cyclic collector.
    """

    def __init__(self, n_max: int, r_max: int) -> None:
        order = max(r_max + 1, 4)
        derivatives = functools.cache(
            lambda x: derivative_rows(n_max, x, r_max, harmonic_order=order)
        )

        @functools.cache
        def display(x: Fraction | None, s: int) -> list[Fraction]:
            monomials = _DISPLAYS[s].items()
            return [
                sum(
                    math.prod((v**e for v, e in zip(h, exponents) if e), start=coeff)
                    for exponents, coeff in monomials
                )
                * (Fraction(1, n + 1) if x is None else f[0])
                for n, (h, f) in enumerate(derivatives(x or Fraction(0)))
            ]

        self.derivatives = derivatives
        self.alternating = functools.cache(lambda x, s: alt_power_row(n_max, x, s))
        self.display = display
        self.inverted = functools.cache(lambda x, s: binomial_inverse(display(x, s)))
        eq16 = lambda: [harmonic_number(k + 1, 1) / (k + 1) for k in range(n_max + 1)]
        self.eq16_inverted = functools.cache(lambda: binomial_inverse(eq16()))


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


def _forward(s: int) -> tuple[Evaluator, Evaluator]:
    """alt_power_sum(n, x, s) == display side / (s-1)!, at x = 0 where x is None."""
    return (
        lambda refs, n, x, r: refs.alternating(x or Fraction(0), s)[n],
        lambda refs, n, x, r: refs.display(x, s)[n] / math.factorial(s - 1),
    )


def _inverted(s: int) -> tuple[Evaluator, Evaluator]:
    """binomial_inverse(display side)[n] / (s-1)! == 1/(n+x+1)^s, at x = 0 where x is None."""
    return (
        lambda refs, n, x, r: refs.inverted(x, s)[n] / math.factorial(s - 1),
        lambda refs, n, x, r: 1 / ((x or Fraction(0)) + n + 1) ** s,
    )


class _Identity(NamedTuple):
    group: str  # the verify target that checks it
    axes: str  # its grid: "n", "nx" or "rnx"
    lhs: Evaluator  # called as lhs(refs, n, x, r), None for an axis not in axes
    rhs: Evaluator


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
        lambda refs, n, x, r: refs.alternating(x, r + 2)[n],
        lambda refs, n, x, r: mixed_sum(*refs.derivatives(x)[n], r),
    ),
    "lemma-a": _Identity(
        "lemma-a", "rnx",
        lambda refs, n, x, r: refs.derivatives(x)[n][1][r],
        lambda refs, n, x, r: (-1) ** r * math.factorial(r) * refs.alternating(x, r + 1)[n],
    ),
    "beta-eq": _Identity(
        "beta-eq", "nx",
        lambda refs, n, x, r: beta_F(n, x),
        lambda refs, n, x, r: refs.alternating(x, 1)[n],
    ),
    "inversion-duality": _Identity(
        "inversion", "n",
        lambda refs, n, x, r: refs.eq16_inverted()[n],
        lambda refs, n, x, r: Fraction(1, (n + 1) ** 2),
    ),
    "fixture-fail": _Identity(
        "fixture-fail", "n",
        lambda refs, n, x, r: beta_F(n, 0),
        lambda refs, n, x, r: Fraction(1, n + 2),
    ),
}

#: The axes each ``verify`` target of IDENTITIES reads: the union of its rows' axes.
GROUP_AXES: dict[str, frozenset[str]] = {
    group: frozenset().union(*(row.axes for row in IDENTITIES.values() if row.group == group))
    for group in dict.fromkeys(row.group for row in IDENTITIES.values())
}


def _grid(axes: str, n_max: int, r_max: int, xs: Sequence[RationalLike]) -> list[dict]:
    """The points of an ``axes`` grid: r outermost, then x, then n."""
    points = [{"n": n} for n in range(n_max + 1)]
    if "x" in axes:
        points = [{**point, "x": Fraction(x)} for x in xs for point in points]
    if "r" in axes:
        points = [{"r": r, **point} for r in range(r_max + 1) for point in points]
    return points


def _check_group(
    group: str, n_max: int, r_max: int | None, xs: Sequence[RationalLike] | None, refs=None
) -> list[IdentityReport]:
    """Every row of ``group`` over its grid.  A group reads only its axes:
    it ignores r_max and xs where it has none, and builds its own rows
    without refs."""
    refs = refs or _References(n_max, r_max if "r" in GROUP_AXES[group] else 0)
    reports: list[IdentityReport] = []
    for identity_id, row in IDENTITIES.items():
        if row.group == group:
            reports += generic_check(
                identity_id,
                lambda n, x=None, r=None: row.lhs(refs, n, x, r),
                lambda n, x=None, r=None: row.rhs(refs, n, x, r),
                _grid(row.axes, n_max, r_max, xs),
            )
    return reports


def check_theorem_2_2(
    n_max: int = 50, x_samples: Sequence[RationalLike] = DEFAULT_X_SAMPLES
) -> list[IdentityReport]:
    """First-order family: eq15, its inversion thm2.2a, and their x = 0 forms eq16, thm2.2b."""
    return _check_group("thm2.2", n_max, None, x_samples)


def check_theorem_2_3(
    n_max: int = 50, x_samples: Sequence[RationalLike] = DEFAULT_X_SAMPLES
) -> list[IdentityReport]:
    """Second/third-order family: thm2.3a/b, their inversions eq20/eq21, x = 0 forms thm2.3c/d."""
    return _check_group("thm2.3", n_max, None, x_samples)


def check_theorem_2_5(
    n_max: int = 50, x_samples: Sequence[RationalLike] = DEFAULT_X_SAMPLES
) -> list[IdentityReport]:
    """Fourth-order family: eq28, its inversion thm2.5a, and their x = 0 forms eq29, thm2.5b."""
    return _check_group("thm2.5", n_max, None, x_samples)


def check_theorem_2_6_finite(
    r_max: int = 6,
    n_max: int = 30,
    x_samples: Sequence[RationalLike] = (Fraction(0), Fraction(1, 2)),
) -> list[IdentityReport]:
    """General-order finite identity (``thm2.6-finite``), exact for every (r, n, x)."""
    return _check_group("thm2.6", n_max, r_max, x_samples)


def check_beta_equality(
    n_max: int = 50, x_samples: Sequence[RationalLike] = DEFAULT_X_SAMPLES
) -> list[IdentityReport]:
    """Product form vs alternating-sum form of F_n(x) (``beta-eq``)."""
    return _check_group("beta-eq", n_max, None, x_samples)


def check_lemma_a(
    n_max: int = 40,
    r_max: int = 8,
    x_samples: Sequence[RationalLike] = DEFAULT_X_SAMPLES,
) -> list[IdentityReport]:
    """Derivative closure (``lemma-a``): F_n^(r)(x) == r!(-1)^r aps(n,x,r+1)."""
    return _check_group("lemma-a", n_max, r_max, x_samples)


def check_inversion(
    count: int = 1000, max_len: int = 64, seed: int = 20240601, n_max: int = 50
) -> list[IdentityReport]:
    """Involution on random rational sequences plus the forward/inverted duality.

    ``inversion`` entries index random trials (params n = trial index);
    ``inversion-duality`` checks that transforming the eq16 sequence yields
    the thm2.2b right-hand side.
    """
    rng = random.Random(seed)
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


#: The check groups by ``verify`` target, each called as (n_max, r_max, xs)
#: and optionally the sweep's shared reference rows, built to at least
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
    """Run every check group in turn on one set of reference rows; merge the reports sorted."""
    xs = [Fraction(x) for x in x_samples]
    refs = _References(n_max, r_max)
    merged: list[IdentityReport] = []
    for name, group in CHECK_GROUPS.items():
        if name == "inversion":  # it reads no rows: free them before it runs
            refs = None
        merged += group(min(n_max, _RUN_ALL_N_CAPS.get(name, n_max)), r_max, xs, refs)
    merged.sort(key=IdentityReport.sort_key)
    return merged
