"""Exact verification of the finite identity catalog over parameter sweeps.

Each check evaluates both sides of an identity at every point of a parameter
grid and emits one :class:`IdentityReport` per point.  Failures are recorded
with witnesses rather than raised, so a sweep always runs to completion.
The display polynomials checked here are written out with their literal
coefficients on purpose: the generic Bell recursion is exercised elsewhere,
and hard-coding the displays keeps the two routes independent.

:func:`run_all` builds the reference sides once and shares them with every
exact group (``refs``); a group called with ``refs=None`` builds its own.

Identity ids are stable catalog keys (``"thm2.2a"``, ``"eq16"``, ...) used in
JSON/CSV reports and by the CLI.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .beta_engine import alt_power_row, beta_F, derivative_rows, mixed_sum
from .harmonic_core import DomainError, RationalLike, harmonic_number

__all__ = [
    "IdentityReport",
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
    is alt_power_row(n_max, x, s).  The checks read prefixes of the rows and
    build them inside their evaluators, so an out-of-domain x still becomes
    a skipped report of :func:`generic_check`.
    """

    def __init__(self, n_max: int, r_max: int) -> None:
        order = max(r_max + 1, 4)
        self.derivatives = functools.cache(
            lambda x: derivative_rows(n_max, x, r_max, harmonic_order=order)
        )
        self.alternating = functools.cache(lambda x, s: alt_power_row(n_max, x, s))


def _grid_nx(n_max: int, x_samples: Sequence[RationalLike]) -> list[dict]:
    return [{"n": n, "x": Fraction(x)} for x in x_samples for n in range(n_max + 1)]


def _grid_n(n_max: int) -> list[dict]:
    return [{"n": n} for n in range(n_max + 1)]


# -- display polynomials with their literal coefficients ---------------------


def _poly_r1(h1: Fraction) -> Fraction:
    return h1


def _poly_r2(h1: Fraction, h2: Fraction) -> Fraction:
    return h2 + h1 * h1


def _poly_r3(h1: Fraction, h2: Fraction, h3: Fraction) -> Fraction:
    return 2 * h3 + 3 * h1 * h2 + h1 ** 3


def _poly_r4(h1: Fraction, h2: Fraction, h3: Fraction, h4: Fraction) -> Fraction:
    return 6 * h4 + 8 * h3 * h1 + 3 * h2 * h2 + 6 * h1 * h1 * h2 + h1 ** 4


def _indexed(values: Sequence[Fraction]) -> Evaluator:
    return lambda n, **_ignored: values[n]


#: A display family row: (s, display, forward id, inverted id, x=0 forward
#: id, x=0 inverted id or None).  The forward form states
#: alt_power_sum(n,x,s) == display(H_n(x,1), ..., H_n(x,s-1)) F_n(x) / (s-1)!,
#: the inverted form binomial_inverse(display*F)[n] / (s-1)! == 1/(n+x+1)^s,
#: and the x = 0 forms put F_n(0) = 1/(n+1).
_DisplayRow = tuple[int, Evaluator, str, str, str, str | None]

#: The display families of Theorems 2.2, 2.3 and 2.5, by ``verify`` target.
_DISPLAY_FAMILIES: dict[str, tuple[_DisplayRow, ...]] = {
    "thm2.2": ((2, _poly_r1, "eq15", "thm2.2a", "eq16", "thm2.2b"),),
    "thm2.3": (
        (3, _poly_r2, "thm2.3a", "eq20", "thm2.3c", None),
        (4, _poly_r3, "thm2.3b", "eq21", "thm2.3d", None),
    ),
    "thm2.5": ((5, _poly_r4, "eq28", "thm2.5a", "eq29", "thm2.5b"),),
}


def _display_forms(
    forms: Sequence[tuple[int, Evaluator, str, str | None]],
    x: Fraction,
    h: Sequence[Sequence[Fraction]],
    weight: Sequence[Fraction],
    grid: list[dict],
    refs: _References,
) -> list[IdentityReport]:
    """Each (s, display, forward id, inverted id) forward form, then each inverted one.

    h[n] holds H_n(x, 1), H_n(x, 2), ...  A failing forward point's witness
    is (alt_power_sum(n, x, s), display side / (s-1)!).
    """
    reports: list[IdentityReport] = []
    sides = []
    for s, display, forward_id, _ in forms:
        side = [display(*hn[: s - 1]) * w for hn, w in zip(h, weight)]
        sides.append(side)
        reports += generic_check(
            forward_id,
            lambda n, **_ignored: refs.alternating(x, s)[n],
            _indexed([v / math.factorial(s - 1) for v in side]),
            grid,
        )
    for (s, _, _, inverted_id), side in zip(forms, sides):
        if inverted_id is not None:
            reports += generic_check(
                inverted_id,
                _indexed([v / math.factorial(s - 1) for v in binomial_inverse(side)]),
                lambda n, **_ignored: 1 / (x + n + 1) ** s,
                grid,
            )
    return reports


def _check_display_family(
    rows: Sequence[_DisplayRow], n_max: int, x_samples: Sequence[RationalLike], refs
) -> list[IdentityReport]:
    """The forms of every row at each x, then the x = 0 forms.

    H and F_n = F_n^(0) come from the derivative rows at x; the x = 0 forms
    take H from the rows at 0 and keep their literal weight 1/(n+1).  An x
    whose rows cannot be built gives a skipped report at each point of each
    form, as :func:`generic_check` does.
    """
    refs = refs or _References(n_max, 0)
    reports: list[IdentityReport] = []
    for x in [Fraction(v) for v in x_samples]:
        try:
            x_rows = refs.derivatives(x)[: n_max + 1]
        except DomainError as exc:
            reports += [
                IdentityReport(row[i], point, SKIPPED, reason=str(exc))
                for i in (2, 3) for row in rows for point in _grid_nx(n_max, [x])
            ]
            continue
        h = [hn for hn, _ in x_rows]
        f = [derivatives[0] for _, derivatives in x_rows]
        reports += _display_forms([row[:4] for row in rows], x, h, f, _grid_nx(n_max, [x]), refs)
    h0 = [hn for hn, _ in refs.derivatives(Fraction(0))[: n_max + 1]]
    weight0 = [Fraction(1, k + 1) for k in range(n_max + 1)]
    reports += _display_forms(
        [row[:2] + row[4:] for row in rows], Fraction(0), h0, weight0, _grid_n(n_max), refs
    )
    return reports


def check_theorem_2_2(
    n_max: int = 50, x_samples: Sequence[RationalLike] = DEFAULT_X_SAMPLES, refs=None
) -> list[IdentityReport]:
    """First-order family: eq15, its inversion thm2.2a, and their x = 0 forms eq16, thm2.2b."""
    return _check_display_family(_DISPLAY_FAMILIES["thm2.2"], n_max, x_samples, refs)


def check_theorem_2_3(
    n_max: int = 50, x_samples: Sequence[RationalLike] = DEFAULT_X_SAMPLES, refs=None
) -> list[IdentityReport]:
    """Second/third-order family: thm2.3a/b, their inversions eq20/eq21, x = 0 forms thm2.3c/d."""
    return _check_display_family(_DISPLAY_FAMILIES["thm2.3"], n_max, x_samples, refs)


def check_theorem_2_5(
    n_max: int = 50, x_samples: Sequence[RationalLike] = DEFAULT_X_SAMPLES, refs=None
) -> list[IdentityReport]:
    """Fourth-order family: eq28, its inversion thm2.5a, and their x = 0 forms eq29, thm2.5b."""
    return _check_display_family(_DISPLAY_FAMILIES["thm2.5"], n_max, x_samples, refs)


def check_theorem_2_6_finite(
    r_max: int = 6,
    n_max: int = 30,
    x_samples: Sequence[RationalLike] = (Fraction(0), Fraction(1, 2)),
    refs=None,
) -> list[IdentityReport]:
    """General-order finite identity (``thm2.6-finite``), exact for every (r, n, x)."""
    refs = refs or _References(n_max, r_max)
    return generic_check(
        "thm2.6-finite",
        lambda n, x, r: refs.alternating(x, r + 2)[n],
        lambda n, x, r: mixed_sum(*refs.derivatives(x)[n], r),
        [{"r": r, **point} for r in range(r_max + 1) for point in _grid_nx(n_max, x_samples)],
    )


def check_beta_equality(
    n_max: int = 50, x_samples: Sequence[RationalLike] = DEFAULT_X_SAMPLES, refs=None
) -> list[IdentityReport]:
    """Product form vs alternating-sum form of F_n(x) (``beta-eq``)."""
    refs = refs or _References(n_max, 0)
    return generic_check(
        "beta-eq", beta_F, lambda n, x: refs.alternating(x, 1)[n], _grid_nx(n_max, x_samples)
    )


def check_lemma_a(
    n_max: int = 40,
    r_max: int = 8,
    x_samples: Sequence[RationalLike] = DEFAULT_X_SAMPLES,
    refs=None,
) -> list[IdentityReport]:
    """Derivative closure (``lemma-a``): F_n^(r)(x) == r!(-1)^r aps(n,x,r+1)."""
    refs = refs or _References(n_max, r_max)

    def rhs(n: int, x: RationalLike, r: int) -> Fraction:
        value = math.factorial(r) * refs.alternating(x, r + 1)[n]
        return -value if r % 2 else value

    lhs = lambda n, x, r: refs.derivatives(x)[n][1][r]
    grid = [{"r": r, **point} for r in range(r_max + 1) for point in _grid_nx(n_max, x_samples)]
    return generic_check("lemma-a", lhs, rhs, grid)


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
    forward = [harmonic_number(k + 1, 1) / (k + 1) for k in range(n_max + 1)]
    inverted = binomial_inverse(forward)
    reports += generic_check(
        "inversion-duality",
        lambda n: inverted[n],
        lambda n: Fraction(1, (n + 1) ** 2),
        _grid_n(n_max),
    )
    return reports


def deliberate_mismatch_check(n_max: int = 10) -> list[IdentityReport]:
    """A check that must fail; exercises the failure/witness/exit-code path."""
    return generic_check(
        "fixture-fail",
        lambda n: beta_F(n, 0),
        lambda n: Fraction(1, n + 2),
        _grid_n(n_max),
    )


#: The check groups by ``verify`` target, each called as (n_max, r_max, xs)
#: and optionally the sweep's shared reference rows, built to at least
#: (n_max, r_max); without them an exact group builds its own.  This is the
#: one list of groups: the CLI choices and :func:`run_all` read it.
CHECK_GROUPS: dict[str, Callable[..., list[IdentityReport]]] = {
    "thm2.2": lambda n_max, r_max, xs, refs=None: check_theorem_2_2(n_max, xs, refs),
    "thm2.3": lambda n_max, r_max, xs, refs=None: check_theorem_2_3(n_max, xs, refs),
    "thm2.5": lambda n_max, r_max, xs, refs=None: check_theorem_2_5(n_max, xs, refs),
    "thm2.6": lambda n_max, r_max, xs, refs=None: check_theorem_2_6_finite(r_max, n_max, xs, refs),
    "lemma-a": lambda n_max, r_max, xs, refs=None: check_lemma_a(n_max, r_max, xs, refs),
    "beta-eq": lambda n_max, r_max, xs, refs=None: check_beta_equality(n_max, xs, refs),
    "inversion": lambda n_max, r_max, xs, refs=None: check_inversion(n_max=n_max),
}

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
