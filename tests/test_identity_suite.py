import functools
import gc
import math
import random
import re
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_beta import harmonic_core, identity_suite
from harmonic_beta.beta_engine import (
    alt_power_sum,
    bell_expansion,
    beta_F,
    derivative_F,
    derivative_rows,
    mixed_sum,
)
from harmonic_beta.harmonic_core import DomainError, harmonic_number
from harmonic_beta.identity_suite import (
    FAIL,
    PASS,
    CHECK_GROUPS,
    DEFAULT_X_SAMPLES,
    GROUP_AXES,
    IDENTITIES,
    binomial_inverse,
    check_inversion,
    deliberate_mismatch_check,
    run_all,
)
from harmonic_beta.series_lab import corollary_2_4_partial

from references import direct_harmonic_function, evaluate

rational_seqs = st.lists(
    st.fractions(max_denominator=50, min_value=-50, max_value=50), max_size=32
)

mixed_seqs = st.lists(
    st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6)),
    max_size=40,
)

SHARED_ROW_XS = (Fraction(0), Fraction(1, 2), Fraction(7, 3), Fraction(-49, 100))


def reference_order(report):
    """The output order: by identity id, then r, then n, then x by value."""
    params = report.params
    return (
        report.identity_id,
        params.get("r", -1),
        params.get("n", -1),
        Fraction(params.get("x", 0)),
    )


def _direct_binomial_inverse(seq):
    """Reference route: b_n = sum(C(n,k) * (-1)**k * a_k) term by term."""
    return [
        sum(
            (math.comb(n, k) * (-1) ** k * Fraction(seq[k]) for k in range(n + 1)),
            Fraction(0),
        )
        for n in range(len(seq))
    ]


class TestBinomialInverse:
    def test_delta_to_ones(self):
        assert binomial_inverse([1, 0, 0, 0]) == [1, 1, 1, 1]

    def test_ones_to_delta(self):
        assert binomial_inverse([1, 1, 1, 1]) == [1, 0, 0, 0]

    def test_beta_instance(self):
        x = Fraction(1, 2)
        a = [1 / (x + k + 1) for k in range(12)]
        b = binomial_inverse(a)
        for n in range(12):
            assert b[n] == beta_F(n, x)

    @given(rational_seqs)
    def test_involution(self, seq):
        assert binomial_inverse(binomial_inverse(seq)) == seq

    @given(rational_seqs, st.fractions(max_denominator=20, min_value=-5, max_value=5))
    def test_prefix_stability(self, seq, extra):
        longer = binomial_inverse(list(seq) + [extra])
        shorter = binomial_inverse(seq)
        assert longer[: len(seq)] == shorter

    @given(mixed_seqs)
    def test_matches_direct_sum(self, seq):
        assert binomial_inverse(seq) == _direct_binomial_inverse(seq)

    def test_thm25_forward_row_matches_direct_sum(self):
        # the eq28 forward row G_4(H) F = F^(4) near the x = -1 boundary
        x = Fraction(-49, 100)
        forward = [derivative_F(k, x, 4) for k in range(51)]
        inverted = binomial_inverse(forward)
        assert inverted == _direct_binomial_inverse(forward)
        assert inverted == [24 / (x + n + 1) ** 5 for n in range(51)]

    def test_duality_forward_to_inverted(self):
        forward = [harmonic_number(k + 1, 1) / (k + 1) for k in range(20)]
        inverted = binomial_inverse(forward)
        for n in range(20):
            assert inverted[n] == Fraction(1, (n + 1) ** 2)


class TestCheckGroup:
    def test_deliberate_mismatch_witness(self):
        reports = deliberate_mismatch_check(10)
        assert all(r.status == FAIL for r in reports)
        assert reports[0].params == {"n": 0}
        assert reports[0].witness == (Fraction(1), Fraction(1, 2))

    def test_a_routes_domain_error_propagates(self, monkeypatch):
        def touchy(refs, n_max, x, r):
            if x:
                raise DomainError("nonzero x unsupported")
            return [beta_F(n, x) for n in range(n_max + 1)]

        row = IDENTITIES["beta-eq"]
        monkeypatch.setitem(IDENTITIES, "beta-eq", row._replace(lhs=touchy))
        assert all(r.passed for r in CHECK_GROUPS["beta-eq"](3, None, [Fraction(0)]))
        for call in (
            lambda: CHECK_GROUPS["beta-eq"](3, None, [Fraction(0), Fraction(1, 2)]),
            lambda: run_all(3, 1, [Fraction(0), Fraction(1, 2)]),
        ):
            with pytest.raises(DomainError, match="^nonzero x unsupported$"):
                call()

    def test_witness_only_on_fail(self):
        for report in deliberate_mismatch_check(3) + CHECK_GROUPS["beta-eq"](
            1, None, [Fraction(0)]
        ):
            assert (report.witness is not None) == (report.status == FAIL)

    def test_routes_longer_than_the_sweep_are_read_by_prefix(self, monkeypatch):
        # a route may return a longer row; the group reads n = 0..n_max of it
        row = IDENTITIES["fixture-fail"]
        longer = lambda refs, n_max, x, r: [Fraction(1, n + 1) for n in range(n_max + 5)]
        monkeypatch.setitem(IDENTITIES, "fixture-fail", row._replace(lhs=longer))
        reports = deliberate_mismatch_check(3)
        assert [(r.params, r.status) for r in reports] == [({"n": n}, FAIL) for n in range(4)]
        assert reports[-1].witness == (Fraction(1, 4), Fraction(1, 5))


def _brute_alternating(n, term):
    from math import comb

    return sum((-1) ** k * comb(n, k) * term(k) for k in range(n + 1))


class TestTheorem22:
    def test_sweep_passes(self):
        reports = CHECK_GROUPS["thm2.2"](12, None, [Fraction(0), Fraction(1, 2), Fraction(7, 3)])
        assert reports and all(r.status == PASS for r in reports)

    def test_x0_spot_value_brute_force(self):
        # oracle: both sides assembled from scratch
        lhs = _brute_alternating(
            2, lambda k: harmonic_number(k + 1, 1) / Fraction(k + 1)
        )
        assert lhs == Fraction(1, 9)

    def test_single_term_case(self):
        x = Fraction(2, 5)
        lhs = (1 / (x + 1)) * beta_F(0, x)
        assert lhs == 1 / (x + 1) ** 2

    def test_forward_spot_value(self):
        assert alt_power_sum(2, 0, 2) == Fraction(11, 18)
        assert Fraction(11, 18) == harmonic_number(3, 1) / 3


class TestTheorem23:
    def test_sweep_passes(self):
        reports = CHECK_GROUPS["thm2.3"](10, None, [Fraction(0), Fraction(1, 2), Fraction(7, 3)])
        assert reports and all(r.status == PASS for r in reports)

    def test_r2_display_at_origin(self):
        lhs = 2 * alt_power_sum(0, 0, 3)
        h1 = harmonic_number(1, 1)
        h2 = harmonic_number(1, 2)
        assert lhs == (h2 + h1 * h1) / 1 == 2

    def test_inverted_r2_spot_value_brute_force(self):
        def term(k):
            h1 = sum(Fraction(1, j + 1) for j in range(k + 1))
            h2 = sum(Fraction(1, (j + 1) ** 2) for j in range(k + 1))
            return (h2 + h1 * h1) * beta_F(k, 0)

        lhs = _brute_alternating(1, term) / 2
        assert lhs == Fraction(1, 8)

    def test_deeper_sweep_single_x(self):
        reports = CHECK_GROUPS["thm2.3"](25, None, [Fraction(7, 3)])
        assert all(r.status == PASS for r in reports)

    def test_wrong_display_coefficient_fails_exactly_its_forms(self, monkeypatch):
        wrong = dict(identity_suite._DISPLAYS[4])
        wrong[(1, 1, 0)] = 4  # the display has 3 * h1 * h2
        monkeypatch.setitem(identity_suite._DISPLAYS, 4, wrong)
        reports = run_all(6, 2, [Fraction(0), Fraction(1, 2)])
        failing = {r.identity_id for r in reports if r.status == FAIL}
        assert failing == {"thm2.3b", "eq21", "thm2.3d"}
        assert all(r.status == PASS for r in reports if r.identity_id not in failing)
        # a failing forward point's witness is (alt_power_sum, display side / 3!)
        n, x = 2, Fraction(1, 2)
        point = next(
            r for r in reports if r.identity_id == "thm2.3b" and r.params == {"n": n, "x": x}
        )
        h1, h2, h3 = (direct_harmonic_function(n, x, alpha) for alpha in (1, 2, 3))
        assert point.status == FAIL
        wrong_display = 2 * h3 + 4 * h1 * h2 + h1**3
        assert point.witness == (alt_power_sum(n, x, 4), wrong_display * beta_F(n, x) / 6)
        # Corollary 2.4 crosschecks the same table: r4 reads weight 4, r3 and r5 do not
        with pytest.raises(ArithmeticError, match="^cor2.4-r4: term routes disagree$"):
            corollary_2_4_partial("r4", 50)
        for variant in ("r3", "r5"):
            assert corollary_2_4_partial(variant, 50).contains_claim()


class TestTheorem25:
    def test_sweep_passes(self):
        reports = CHECK_GROUPS["thm2.5"](10, None, [Fraction(0), Fraction(1, 2)])
        assert reports and all(r.status == PASS for r in reports)

    def test_coefficient_sum_case(self):
        # n=0, x=0: every harmonic value is 1, so the display collapses to
        # (6+8+3+6+1)/4! = 1
        assert alt_power_sum(0, 0, 5) == Fraction(6 + 8 + 3 + 6 + 1, 24) == 1

    def test_n1_x0_brute_force(self):
        def display(k):
            h = [
                sum(Fraction(1, (j + 1) ** a) for j in range(k + 1))
                for a in range(1, 5)
            ]
            return 6 * h[3] + 8 * h[2] * h[0] + 3 * h[1] ** 2 + 6 * h[0] ** 2 * h[1] + h[0] ** 4

        lhs = alt_power_sum(1, 0, 5)
        rhs = display(1) / Fraction(24 * 2)
        assert lhs == rhs

    def test_deeper_sweep_single_x(self):
        reports = CHECK_GROUPS["thm2.5"](25, None, [Fraction(1, 2)])
        assert all(r.status == PASS for r in reports)


class TestDerivativeRows:
    @pytest.mark.parametrize("x", SHARED_ROW_XS)
    def test_entries_match_direct_routes(self, x):
        rows = derivative_rows(12, x, 6)
        assert len(rows) == 13
        for n, (harmonics, derivatives) in enumerate(rows):
            assert list(harmonics) == [direct_harmonic_function(n, x, a) for a in range(1, 8)]
            assert derivatives == [derivative_F(n, x, j) for j in range(7)]
            # derivative_F shares the integer evaluator; the Fraction
            # substitution into G_j over direct sums is the independent route
            base = beta_F(n, x)
            direct = [direct_harmonic_function(n, x, a) for a in range(1, 7)]
            for j, value in enumerate(derivatives):
                expected = evaluate(bell_expansion(j), direct) * base
                assert value == (-expected if j % 2 else expected)

    def test_out_of_domain_x_raises(self):
        with pytest.raises(DomainError):
            derivative_rows(2, Fraction(-1), 0)


class TestTheorem26Finite:
    def test_base_case_reduces_to_first_order_form(self):
        for n in range(10):
            x = Fraction(1, 2)
            assert mixed_sum(*derivative_rows(n, x, 0)[n], 0) == alt_power_sum(n, x, 2)

    def test_single_term_sums(self):
        assert alt_power_sum(0, 0, 4) == 1
        assert mixed_sum(*derivative_rows(0, 0, 2)[0], 2) == 1

    def test_sweep_passes(self):
        reports = CHECK_GROUPS["thm2.6"](12, 4, [Fraction(0), Fraction(1, 2)])
        assert reports and all(r.status == PASS for r in reports)

    def test_all_params_recorded(self):
        reports = CHECK_GROUPS["thm2.6"](2, 1, [Fraction(0)])
        assert {tuple(sorted(r.params)) for r in reports} == {("n", "r", "x")}


class TestOtherChecks:
    def test_beta_equality(self):
        reports = CHECK_GROUPS["beta-eq"](15, None, [Fraction(0), Fraction(-49, 100)])
        assert all(r.status == PASS for r in reports)

    def test_lemma_a(self):
        reports = CHECK_GROUPS["lemma-a"](10, 4, [Fraction(0), Fraction(1, 2)])
        assert all(r.status == PASS for r in reports)

    def test_out_of_domain_x_is_refused(self):
        for name in ("thm2.6", "lemma-a"):
            with pytest.raises(DomainError, match=r"^verify requires x > -1, got x=-1$"):
                CHECK_GROUPS[name](2, 1, [Fraction(-1)])

    def test_inversion_check(self):
        reports = check_inversion(count=50, max_len=24, n_max=15)
        assert all(r.status == PASS for r in reports)
        ids = {r.identity_id for r in reports}
        assert ids == {"inversion", "inversion-duality"}

    def test_inversion_duality_reads_no_harmonic_kernel(self, monkeypatch):
        # eq16's H_{k+1} is a running sum of 1/j, not thm2.2b's own route
        monkeypatch.setattr(harmonic_core, "HarmonicNumerators", _must_not_run)
        assert IDENTITIES["inversion-duality"].lhs(None, 20, None, None) == [
            Fraction(1, (n + 1) ** 2) for n in range(21)
        ]
        reports = check_inversion(count=0, n_max=20)
        assert len(reports) == 21 and all(r.passed for r in reports)

    def test_inversion_check_fails_on_a_perturbed_transform(self, monkeypatch):
        original = identity_suite._difference_table

        def perturbed(row):
            out = original(row)
            if len(out) > 3:
                out[3] += 1
            return out

        monkeypatch.setattr(identity_suite, "_difference_table", perturbed)
        reports = check_inversion(count=40, max_len=24, n_max=15)
        failed = [r for r in reports if r.status == FAIL]
        assert {r.identity_id for r in failed} == {"inversion", "inversion-duality"}
        for report in failed:
            lhs, rhs = report.witness
            assert type(lhs) is Fraction and type(rhs) is Fraction
            assert math.gcd(lhs.numerator, lhs.denominator) == 1
            assert math.gcd(rhs.numerator, rhs.denominator) == 1
        # Over D = lcm(q) the perturbed round trip is row - C(i, 3) + [i == 3],
        # so a trial fails iff it has an entry 4, and its witness is
        # (a_4 - 4/D, a_4): the same stream of (p, q) predicts it.
        rng = random.Random(20240601)
        trials = [r for r in reports if r.identity_id == "inversion"]
        for report in trials:
            length = rng.randint(0, 24)
            pairs = [(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(length)]
            if length > 4:
                denom = math.lcm(*(q for _, q in pairs))
                a_4 = Fraction(*pairs[4])
                assert report.status == FAIL
                assert report.witness == (a_4 - Fraction(4, denom), a_4)
            else:
                assert report.status == PASS and report.witness is None


class TestStandardSweepInvariant:
    def test_every_check_passes_on_the_standard_grid(self):
        xs = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3)]
        groups = [
            CHECK_GROUPS["thm2.2"](25, None, xs),
            CHECK_GROUPS["thm2.3"](25, None, xs),
            CHECK_GROUPS["thm2.5"](25, None, xs),
            CHECK_GROUPS["thm2.6"](25, 6, xs),
            CHECK_GROUPS["lemma-a"](25, 6, xs),
            CHECK_GROUPS["beta-eq"](25, None, xs),
        ]
        for reports in groups:
            assert reports and all(r.status == PASS for r in reports)


class TestRunAll:
    def test_small_run_all_sorted_and_green(self):
        reports = run_all(n_max=6, r_max=2, x_samples=[Fraction(0), Fraction(1, 2)])
        assert all(r.status == PASS for r in reports)
        keys = [reference_order(r) for r in reports]
        assert keys == sorted(keys)
        # the samples may be any iterable, checked before any conversion
        assert run_all(6, 2, iter([Fraction(0), Fraction(1, 2)])) == reports

    @pytest.mark.parametrize(
        "check",
        [
            *(
                # the x samples out of order
                functools.partial(
                    group, 3, 1, [Fraction(7, 3), Fraction(-49, 100), Fraction(0), Fraction(1, 2)]
                )
                for group in CHECK_GROUPS.values()
            ),
            functools.partial(deliberate_mismatch_check, 3),
            functools.partial(check_inversion, 5, 4, 3),
        ],
        ids=[*CHECK_GROUPS, "fixture-fail", "check_inversion"],
    )
    def test_each_check_returns_its_reports_in_output_order(self, check):
        # so verify prints a single group's reports as they come, unsorted, and
        # run_all orders its merged list by a stable sort on the id alone
        reports = check()
        assert reports == sorted(reports, key=reference_order)

    def test_run_all_is_the_sorted_concatenation_of_the_groups(self):
        # run_all is the sorted concatenation of the table's seven groups,
        # and each table entry calls its check with the same arguments
        xs = [Fraction(0)]
        groups = (
            CHECK_GROUPS["thm2.2"](4, None, xs)
            + CHECK_GROUPS["thm2.3"](4, None, xs)
            + CHECK_GROUPS["thm2.5"](4, None, xs)
            + CHECK_GROUPS["thm2.6"](4, 1, xs)
            + CHECK_GROUPS["lemma-a"](4, 1, xs)
            + CHECK_GROUPS["beta-eq"](4, None, xs)
            + check_inversion(n_max=4)
        )
        table = [report for group in CHECK_GROUPS.values() for report in group(4, 1, xs)]
        merged = run_all(n_max=4, r_max=1, x_samples=xs)
        strip = lambda rs: [(r.identity_id, tuple(sorted(r.params.items())), r.status) for r in rs]
        expected = strip(sorted(groups, key=reference_order))
        assert len(CHECK_GROUPS) == 7
        assert strip(merged) == expected
        assert strip(sorted(table, key=reference_order)) == expected
        # at n_max = 50 run_all reads prefixes of its shared rows, while each
        # standalone group builds its own under run_all's n caps of 30 and 40
        caps = {"thm2.6": 30, "lemma-a": 40}
        full = lambda rs: [(r.identity_id, r.params, r.status, r.witness) for r in rs]
        for r_max in (0, 6):
            standalone = [
                report
                for name, group in CHECK_GROUPS.items()
                for report in group(caps.get(name, 50), r_max, DEFAULT_X_SAMPLES)
            ]
            standalone.sort(key=reference_order)
            assert full(run_all(50, r_max)) == full(standalone)

    def test_library_defaults(self):
        # run_all sweeps n = 0..50, r = 0..6 and the five default x, under its
        # n caps; check_inversion sweeps n = 0..50 and draws 1,000 trials
        counts = Counter(r.identity_id for r in run_all())
        assert counts["eq16"] == counts["inversion-duality"] == 51
        assert counts["eq15"] == 51 * 5
        assert counts["thm2.6-finite"] == 31 * 7 * 5 and counts["lemma-a"] == 41 * 7 * 5
        assert counts["inversion"] == 1000
        assert Counter(r.identity_id for r in check_inversion()) == {
            "inversion": 1000,
            "inversion-duality": 51,
        }

    def test_out_of_domain_x_on_shared_rows_is_refused(self):
        refs = identity_suite._References(4, 2)
        for name in ("thm2.6", "lemma-a", "beta-eq"):
            with pytest.raises(DomainError, match=r"^verify requires x > -1, got x=-1$"):
                CHECK_GROUPS[name](3, 2, [Fraction(-1), Fraction(1, 2)], refs)
        # refused before any shared row is built
        for rows in (refs.derivatives, refs.alternating, refs.display):
            assert rows.cache_info().currsize == 0

    def test_out_of_domain_x_refuses_the_display_groups_and_run_all(self):
        # the x = 0 forms read no rows at x, but the whole sweep is refused
        for call in (
            lambda xs: CHECK_GROUPS["thm2.2"](2, None, xs),
            lambda xs: CHECK_GROUPS["thm2.3"](2, None, xs),
            lambda xs: CHECK_GROUPS["thm2.5"](2, None, xs),
            lambda xs: run_all(2, 1, xs),
        ):
            with pytest.raises(DomainError, match=r"^verify requires x > -1, got x=-1$"):
                call([Fraction(-1)])


def _must_not_run(*args, **kwargs):
    raise AssertionError("a refused sweep built a row or drew a trial")


class TestBadSweepIsRefused:
    """A bad or empty sweep raises DomainError before any row or trial."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        monkeypatch.setattr(identity_suite, "derivative_rows", _must_not_run)
        monkeypatch.setattr(identity_suite, "alt_power_row", _must_not_run)
        monkeypatch.setattr(identity_suite, "random", SimpleNamespace(Random=_must_not_run))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: CHECK_GROUPS["beta-eq"](3, None, [Fraction(-2)]), "x > -1, got x=-2"),
            (lambda: CHECK_GROUPS["beta-eq"](3, None, []), "at least one x"),
            (lambda: CHECK_GROUPS["beta-eq"](3, None, None), "at least one x"),
            (lambda: CHECK_GROUPS["lemma-a"](3, -1, [Fraction(0)]), "r_max >= 0, got r_max=-1"),
            (lambda: CHECK_GROUPS["thm2.6"](3, None, [Fraction(0)]), "r_max >= 0, got r_max=None"),
            (lambda: CHECK_GROUPS["thm2.2"](-1, None, [Fraction(0)]), "n_max >= 0, got n_max=-1"),
            (lambda: CHECK_GROUPS["inversion"](-1, None, None), "n_max >= 0, got n_max=-1"),
            (lambda: run_all(2, 1, []), "at least one x"),
            (lambda: run_all(2, -1), "r_max >= 0, got r_max=-1"),
            (lambda: run_all(-1), "n_max >= 0, got n_max=-1"),
            (lambda: deliberate_mismatch_check(-1), "n_max >= 0, got n_max=-1"),
            (lambda: check_inversion(count=-1), "count >= 0, got count=-1"),
            (lambda: check_inversion(max_len=-1), "max_len >= 0, got max_len=-1"),
            (lambda: check_inversion(n_max=-1), "n_max >= 0, got n_max=-1"),
        ],
    )
    def test_refused_before_any_work(self, call, message):
        with pytest.raises(DomainError, match=f"^verify requires {re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "xs, message",
        [
            ([Fraction(1, 2), Fraction(-2), Fraction(1, 2)], "verify requires x > -1, got x=-2"),
            ([Fraction(1, 2), Fraction(1, 2), Fraction(-2)], "verify --x repeats 1/2"),
        ],
    )
    def test_xs_are_checked_in_the_callers_order(self, xs, message):
        for call in (lambda: CHECK_GROUPS["beta-eq"](3, None, xs), lambda: run_all(2, 1, xs)):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                call()


class TestIdentityTable:
    @pytest.mark.parametrize("group", [*CHECK_GROUPS, "fixture-fail"])
    def test_each_group_emits_exactly_its_rows(self, group):
        if group == "fixture-fail":
            reports = deliberate_mismatch_check(2)
        else:
            reports = CHECK_GROUPS[group](2, 1, [Fraction(0), Fraction(1, 2)])
        rows = {i: row for i, row in IDENTITIES.items() if row.group == group}
        trials = {"inversion"} if group == "inversion" else set()
        assert {r.identity_id for r in reports} == set(rows) | trials
        # each report's params are its row's grid axes; a trial's is its index n
        for report in reports:
            axes = rows[report.identity_id].axes if report.identity_id in rows else "n"
            assert set(report.params) == set(axes), report
        assert set(GROUP_AXES[group]) == set().union(*(row.axes for row in rows.values()))

    def test_dropping_the_references_frees_their_rows_without_the_cyclic_collector(self):
        refs = identity_suite._References(6, 2)
        for x in (None, Fraction(1, 2)):
            for s in (2, 3):
                refs.display(x, s)
        refs.alternating(Fraction(1, 2), 2)
        rows = [refs, refs.derivatives, refs.alternating, refs.display]
        gc.disable()
        try:
            dead = [weakref.ref(value) for value in rows]
            del refs, rows
            assert [ref() for ref in dead] == [None] * len(dead)
        finally:
            gc.enable()

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_each_literal_display_is_the_bell_polynomial_of_its_order(self, s):
        # the displays are written out, not derived; this pins them symbolically
        assert identity_suite._DISPLAYS[s] == bell_expansion(s - 1)

    def test_readme_lists_every_identity_with_its_group_and_grid(self):
        # README's catalog table: | `id` | `group` | grid | what it states |
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| id | `verify` target | grid | what it states |\n", 1)[1]
        listed = {}
        for line in table.splitlines()[1:]:
            if not line.startswith("| `"):
                break
            identity_id, group, grid = (cell.strip(" `") for cell in line.split("|")[1:4])
            listed[identity_id] = (group, grid.replace(", ", ""))
        assert set(listed) == set(IDENTITIES) | {"inversion"}
        assert listed.pop("inversion") == ("inversion", "n")
        assert listed == {i: (row.group, row.axes) for i, row in IDENTITIES.items()}


def test_readme_library_use_block_runs(capsys):
    # every name the block imports still exists, and its assertions hold
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    bell, estimate = capsys.readouterr().out.splitlines()
    assert bell.startswith("120*h6 + 144*h1*h5 + ") and bell.endswith(" + h1^6")
    assert estimate.startswith('{"target_id": "lemma-c(r=3)", "N": 10000, ')


# (x, s, n): the entry n of the alternating row at (x, s) is off by 1/D**s
CORRUPTED_ENTRIES = [
    (Fraction(1, 2), 1, 3),
    (Fraction(0), 2, 0),
    (Fraction(1, 2), 3, 5),
    (Fraction(1, 2), 4, 6),
    (Fraction(0), 5, 4),
    (Fraction(0), 7, 2),
    (Fraction(1, 2), 8, 1),
]


class TestSharedReferenceRows:
    @pytest.mark.parametrize("x, s, n", CORRUPTED_ENTRIES)
    def test_a_corrupted_entry_fails_exactly_its_readers(self, monkeypatch, x, s, n):
        n_max, r_max = 6, 6
        D = math.lcm(*(x.denominator * (k + 1) + x.numerator for k in range(n_max + 1)))
        true = alt_power_sum(n, x, s)
        wrong = true + Fraction(1, D**s)
        built = []
        original = identity_suite.alt_power_row

        def corrupted(row_n_max, x_row, s_row):
            built.append((x_row, s_row))
            row = original(row_n_max, x_row, s_row)
            if (x_row, s_row) == (x, s):
                row[n] = wrong
            return row

        derivative_xs = []
        original_rows = identity_suite.derivative_rows

        def counted(n_max, x_rows, *args, **kwargs):
            derivative_xs.append(x_rows)
            return original_rows(n_max, x_rows, *args, **kwargs)

        monkeypatch.setattr(identity_suite, "alt_power_row", corrupted)
        monkeypatch.setattr(identity_suite, "derivative_rows", counted)
        reports = run_all(n_max, r_max, [Fraction(0), Fraction(1, 2)])
        # one row per (x, s) and one derivative table per x serve every group
        assert len(built) == len(set(built)) and (x, s) in built
        assert sorted(derivative_xs) == [Fraction(0), Fraction(1, 2)]

        # the entry's readers fail with the usual witness; every inverted
        # form, which reads no alternating row, still passes
        key = lambda identity_id, **params: (identity_id, tuple(sorted(params.items())))
        expected = {}
        forward = {2: "eq15", 3: "thm2.3a", 4: "thm2.3b", 5: "eq28"}
        forward_at_0 = {2: "eq16", 3: "thm2.3c", 4: "thm2.3d", 5: "eq29"}
        if s in forward:
            expected[key(forward[s], n=n, x=x)] = (wrong, true)
            if x == 0:
                expected[key(forward_at_0[s], n=n)] = (wrong, true)
        if s >= 2:
            expected[key("thm2.6-finite", r=s - 2, n=n, x=x)] = (wrong, true)
        if s - 1 <= r_max:
            c = math.factorial(s - 1) * (-1) ** (s - 1)
            expected[key("lemma-a", r=s - 1, n=n, x=x)] = (c * true, c * wrong)
        if s == 1:
            expected[key("beta-eq", n=n, x=x)] = (true, wrong)
        failed = {key(r.identity_id, **r.params): r.witness for r in reports if r.status == FAIL}
        assert failed == expected
