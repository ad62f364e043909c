import gc
import math
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_beta import identity_suite
from harmonic_beta.beta_engine import (
    alt_power_sum,
    bell_expansion,
    beta_F,
    derivative_F,
    derivative_rows,
    mixed_sum,
)
from harmonic_beta.harmonic_core import DomainError, harmonic_function, harmonic_number
from harmonic_beta.identity_suite import (
    FAIL,
    PASS,
    SKIPPED,
    CHECK_GROUPS,
    DEFAULT_X_SAMPLES,
    GROUP_AXES,
    IDENTITIES,
    IdentityReport,
    binomial_inverse,
    check_beta_equality,
    check_inversion,
    check_lemma_a,
    check_theorem_2_2,
    check_theorem_2_3,
    check_theorem_2_5,
    check_theorem_2_6_finite,
    deliberate_mismatch_check,
    generic_check,
    run_all,
)
from harmonic_beta.series_lab import _normalised, corollary_2_4_partial

rational_seqs = st.lists(
    st.fractions(max_denominator=50, min_value=-50, max_value=50), max_size=32
)

mixed_seqs = st.lists(
    st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6)),
    max_size=40,
)

SHARED_ROW_XS = (Fraction(0), Fraction(1, 2), Fraction(7, 3), Fraction(-49, 100))


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


class TestGenericCheck:
    def test_reflexive_pass(self):
        reports = generic_check(
            "self", beta_F, beta_F, [{"n": n, "x": Fraction(0)} for n in range(11)]
        )
        assert all(r.status == PASS for r in reports)

    def test_two_routes_pass(self):
        reports = generic_check(
            "beta-eq",
            beta_F,
            lambda n, x: alt_power_sum(n, x, 1),
            [{"n": n, "x": Fraction(0)} for n in range(11)],
        )
        assert all(r.status == PASS for r in reports)

    def test_deliberate_mismatch_witness(self):
        reports = deliberate_mismatch_check(10)
        assert all(r.status == FAIL for r in reports)
        assert reports[0].params == {"n": 0}
        assert reports[0].witness == (Fraction(1), Fraction(1, 2))

    def test_precondition_violation_becomes_skip(self):
        def touchy(n):
            if n % 2:
                raise DomainError("odd n unsupported")
            return Fraction(n)

        reports = generic_check(
            "touchy", touchy, lambda n: Fraction(n), [{"n": n} for n in range(4)]
        )
        assert [r.status for r in reports] == [PASS, SKIPPED, PASS, SKIPPED]
        assert reports[1].reason == "odd n unsupported"
        assert reports[1].witness is None

    def test_witness_only_on_fail(self):
        for report in deliberate_mismatch_check(3) + generic_check(
            "ok", beta_F, beta_F, [{"n": 1, "x": Fraction(0)}]
        ):
            assert (report.witness is not None) == (report.status == FAIL)


def _brute_alternating(n, term):
    from math import comb

    return sum((-1) ** k * comb(n, k) * term(k) for k in range(n + 1))


class TestTheorem22:
    def test_sweep_passes(self):
        reports = check_theorem_2_2(12, [Fraction(0), Fraction(1, 2), Fraction(7, 3)])
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
        reports = check_theorem_2_3(10, [Fraction(0), Fraction(1, 2), Fraction(7, 3)])
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
        reports = check_theorem_2_3(25, [Fraction(7, 3)])
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
        h1, h2, h3 = (harmonic_function(n, x, alpha) for alpha in (1, 2, 3))
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
        reports = check_theorem_2_5(10, [Fraction(0), Fraction(1, 2)])
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
        reports = check_theorem_2_5(25, [Fraction(1, 2)])
        assert all(r.status == PASS for r in reports)


class TestDerivativeRows:
    @pytest.mark.parametrize("x", SHARED_ROW_XS)
    def test_entries_match_direct_routes(self, x):
        rows = derivative_rows(12, x, 6)
        assert len(rows) == 13
        for n, (harmonics, derivatives) in enumerate(rows):
            assert list(harmonics) == [harmonic_function(n, x, a) for a in range(1, 8)]
            assert derivatives == [derivative_F(n, x, j) for j in range(7)]
            # derivative_F shares the integer evaluator; the Fraction
            # substitution into G_j over direct sums is the independent route
            base = beta_F(n, x)
            direct = [harmonic_function(n, x, a) for a in range(1, 7)]
            for j, value in enumerate(derivatives):
                expected = bell_expansion(j).evaluate(direct) * base
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
        reports = check_theorem_2_6_finite(4, 12, [Fraction(0), Fraction(1, 2)])
        assert reports and all(r.status == PASS for r in reports)

    def test_all_params_recorded(self):
        reports = check_theorem_2_6_finite(1, 2, [Fraction(0)])
        assert {tuple(sorted(r.params)) for r in reports} == {("n", "r", "x")}


class TestOtherChecks:
    def test_beta_equality(self):
        reports = check_beta_equality(15, [Fraction(0), Fraction(-49, 100)])
        assert all(r.status == PASS for r in reports)

    def test_lemma_a(self):
        reports = check_lemma_a(10, 4, [Fraction(0), Fraction(1, 2)])
        assert all(r.status == PASS for r in reports)

    def test_out_of_domain_x_is_skipped(self):
        # the shared rows are built inside generic_check, so a bad x skips
        for reports in (
            check_theorem_2_6_finite(1, 2, [Fraction(-1)]),
            check_lemma_a(2, 1, [Fraction(-1)]),
        ):
            assert len(reports) == 6
            assert all(r.status == SKIPPED for r in reports)

    def test_inversion_check(self):
        reports = check_inversion(count=50, max_len=24, n_max=15)
        assert all(r.status == PASS for r in reports)
        ids = {r.identity_id for r in reports}
        assert ids == {"inversion", "inversion-duality"}

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
            check_theorem_2_2(25, xs),
            check_theorem_2_3(25, xs),
            check_theorem_2_5(25, xs),
            check_theorem_2_6_finite(6, 25, xs),
            check_lemma_a(25, 6, xs),
            check_beta_equality(25, xs),
        ]
        for reports in groups:
            assert reports and all(r.status == PASS for r in reports)


class TestRunAll:
    def test_small_run_all_sorted_and_green(self):
        reports = run_all(n_max=6, r_max=2, x_samples=[Fraction(0), Fraction(1, 2)])
        assert all(r.status == PASS for r in reports)
        keys = [r.sort_key() for r in reports]
        assert keys == sorted(keys)

    def test_single_worker_gives_same_reports(self):
        # run_all is the sorted concatenation of the table's seven groups,
        # and each table entry calls its check with the same arguments
        xs = [Fraction(0)]
        groups = (
            check_theorem_2_2(4, xs)
            + check_theorem_2_3(4, xs)
            + check_theorem_2_5(4, xs)
            + check_theorem_2_6_finite(1, 4, xs)
            + check_lemma_a(4, 1, xs)
            + check_beta_equality(4, xs)
            + check_inversion(n_max=4)
        )
        table = [report for group in CHECK_GROUPS.values() for report in group(4, 1, xs)]
        merged = run_all(n_max=4, r_max=1, x_samples=xs)
        strip = lambda rs: [(r.identity_id, tuple(sorted(r.params.items())), r.status) for r in rs]
        expected = strip(sorted(groups, key=IdentityReport.sort_key))
        assert len(CHECK_GROUPS) == 7
        assert strip(merged) == expected
        assert strip(sorted(table, key=IdentityReport.sort_key)) == expected
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
            standalone.sort(key=IdentityReport.sort_key)
            assert full(run_all(50, r_max)) == full(standalone)

    def test_out_of_domain_x_on_shared_rows_is_skipped(self):
        refs = identity_suite._References(4, 2)
        for name in ("thm2.6", "lemma-a", "beta-eq"):
            reports = CHECK_GROUPS[name](3, 2, [Fraction(-1), Fraction(1, 2)], refs)
            bad = [r for r in reports if r.params["x"] == -1]
            assert bad and all(r.status == SKIPPED and r.reason for r in bad), name
            assert all(r.status == PASS for r in reports if r not in bad), name

    def test_out_of_domain_x_skips_the_display_forms_at_x(self):
        # the x = 0 forms read no rows at x, so they still run
        def counts(reports):
            return sorted((r.identity_id, r.params.get("n")) for r in reports)

        for call in (
            lambda xs: check_theorem_2_2(2, xs),
            lambda xs: check_theorem_2_3(2, xs),
            lambda xs: check_theorem_2_5(2, xs),
            lambda xs: run_all(2, 1, xs),
        ):
            reports = call([Fraction(-1)])
            assert counts(reports) == counts(call([Fraction(1, 2)]))
            bad = [r for r in reports if r.params.get("x") == -1]
            assert bad and all(
                r.status == SKIPPED and r.reason.endswith("requires x > -1, got x=-1")
                for r in bad
            )
            assert all(r.status == PASS for r in reports if r not in bad)


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
                refs.inverted(x, s)
        refs.alternating(Fraction(1, 2), 2)
        refs.eq16_inverted()
        rows = [refs, refs.derivatives, refs.alternating, refs.display, refs.inverted]
        gc.disable()
        try:
            dead = [weakref.ref(value) for value in rows + [refs.eq16_inverted]]
            del refs, rows
            assert [ref() for ref in dead] == [None] * len(dead)
        finally:
            gc.enable()

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_each_literal_display_is_the_bell_polynomial_of_its_order(self, s):
        # the displays are written out, not derived; this pins them symbolically
        assert _normalised(identity_suite._DISPLAYS[s]) == _normalised(bell_expansion(s - 1).terms)

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
