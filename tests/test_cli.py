"""The detmom command line: output formats, exit codes, environment knobs."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from detmom.cli import main
from detmom.errors import _count_text
from detmom.poly import Basis, MomentPolynomial


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- closed ----------------------------------------------------------------


def test_closed_second_moment(capsys):
    code, out, _ = run(capsys, "closed", "--k", "2", "--n", "2")
    assert code == 0
    assert out.strip() == "2*m2^2 - 2*m1^4"


def test_closed_fourth_moment_in_raw_basis(capsys):
    code, out, _ = run(capsys, "closed", "--k", "4", "--n", "2", "--basis", "raw")
    assert code == 0
    assert out.strip() == "2*m4^2 - 8*m1^2*m3^2 + 6*m2^4"


def test_closed_fourth_moment_default_basis_is_central(capsys):
    code, out, _ = run(capsys, "closed", "--k", "4", "--n", "1")
    assert code == 0
    # f_4(1) = m4, written out in the mean-and-central-moment basis.
    assert out.strip() == "mu4 + 4*m1*mu3 + 6*m1^2*mu2 + m1^4"


def test_closed_sixth_requires_acknowledgement(capsys):
    code, _, err = run(capsys, "closed", "--k", "6", "--n", "2")
    assert code == 64
    assert "central-only" in err


def test_closed_sixth_with_acknowledgement(capsys):
    code, out, _ = run(capsys, "closed", "--k", "6", "--n", "2", "--central-only")
    assert code == 0
    assert out.strip() == "2*m6^2 + 30*m2^2*m4^2 - 20*m3^4"


def test_closed_gaussian_value(capsys):
    code, out, _ = run(capsys, "closed", "--gaussian", "--k", "6", "--n", "3")
    assert code == 0
    assert out.strip() == "75600"


def test_closed_gaussian_odd_power_is_usage_error(capsys):
    code, _, err = run(capsys, "closed", "--gaussian", "--k", "3", "--n", "2")
    assert code == 64
    assert "even" in err


def test_closed_unsupported_power_is_usage_error(capsys):
    code, _, err = run(capsys, "closed", "--k", "8", "--n", "2")
    assert code == 64


@pytest.mark.parametrize(
    "argv,weight",
    [(("--k", "4", "--n", "17000"), 68000),
     (("--k", "6", "--n", "11000", "--central-only"), 66000)],
)
def test_closed_past_the_packing_limit_exits_at_once(capsys, argv, weight):
    # The refusal names the weight k*n of the result: it comes before any
    # polynomial product, not after thousands of them.
    code, out, err = run(capsys, "closed", *argv)
    assert code == 64
    assert out == ""
    assert f"grading weight {weight} reaches the packing limit" in err


def test_closed_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "closed", "--k", "2", "--n", "3", "--format", "json"
    )
    assert code == 0
    text_code, text_out, _ = run(capsys, "closed", "--k", "2", "--n", "3")
    rebuilt = MomentPolynomial.from_json_dict(json.loads(out))
    assert rebuilt.to_text() == text_out.strip()


# -- the JSON wire format --------------------------------------------------

# Dense exponent vectors run to slot max(8, highest nonzero slot); the oracle
# writes at least k + 1 slots, even for an empty or a constant result.
WIRE = [
    (
        ("closed", "--k", "4", "--n", "2"),
        '{"basis": "central", "max_order": 8, "terms": ['
        '{"coef": ["2", "1"], "exp": [0, 0, 0, 0, 2, 0, 0, 0, 0]}, '
        '{"coef": ["16", "1"], "exp": [1, 0, 0, 1, 1, 0, 0, 0, 0]}, '
        '{"coef": ["24", "1"], "exp": [2, 0, 1, 0, 1, 0, 0, 0, 0]}, '
        '{"coef": ["4", "1"], "exp": [4, 0, 0, 0, 1, 0, 0, 0, 0]}, '
        '{"coef": ["24", "1"], "exp": [2, 0, 0, 2, 0, 0, 0, 0, 0]}, '
        '{"coef": ["48", "1"], "exp": [3, 0, 1, 1, 0, 0, 0, 0, 0]}, '
        '{"coef": ["6", "1"], "exp": [0, 0, 4, 0, 0, 0, 0, 0, 0]}, '
        '{"coef": ["24", "1"], "exp": [2, 0, 3, 0, 0, 0, 0, 0, 0]}, '
        '{"coef": ["36", "1"], "exp": [4, 0, 2, 0, 0, 0, 0, 0, 0]}]}',
    ),
    (
        ("series", "--k", "2", "--order", "2"),
        '{"convention": "f-convention", "order": 2, "coeffs": ['
        '[0, {"basis": "raw", "max_order": 8, "terms": ['
        '{"coef": ["1", "1"], "exp": [0, 0, 0, 0, 0, 0, 0, 0, 0]}]}], '
        '[1, {"basis": "raw", "max_order": 8, "terms": ['
        '{"coef": ["1", "1"], "exp": [0, 0, 1, 0, 0, 0, 0, 0, 0]}]}], '
        '[2, {"basis": "raw", "max_order": 8, "terms": ['
        '{"coef": ["1", "2"], "exp": [0, 0, 2, 0, 0, 0, 0, 0, 0]}, '
        '{"coef": ["-1", "2"], "exp": [4, 0, 0, 0, 0, 0, 0, 0, 0]}]}]]}',
    ),
    (
        ("oracle", "--k", "9", "--n", "2"),
        '{"basis": "raw", "max_order": 9, "terms": []}',
    ),
    (
        ("oracle", "--k", "10", "--n", "0"),
        '{"basis": "raw", "max_order": 10, "terms": ['
        '{"coef": ["1", "1"], "exp": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}]}',
    ),
    (
        ("oracle", "--k", "12", "--n", "1", "--mode", "marked"),
        '{"basis": "central", "max_order": 12, "terms": ['
        '{"coef": ["1", "1"], "exp": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]}, '
        '{"coef": ["12", "1"], "exp": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0]}, '
        '{"coef": ["66", "1"], "exp": [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]}, '
        '{"coef": ["220", "1"], "exp": [3, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]}, '
        '{"coef": ["495", "1"], "exp": [4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]}, '
        '{"coef": ["792", "1"], "exp": [5, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]}, '
        '{"coef": ["924", "1"], "exp": [6, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]}, '
        '{"coef": ["792", "1"], "exp": [7, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]}, '
        '{"coef": ["495", "1"], "exp": [8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]}, '
        '{"coef": ["220", "1"], "exp": [9, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]}, '
        '{"coef": ["66", "1"], "exp": [10, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}, '
        '{"coef": ["1", "1"], "exp": [12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}]}',
    ),
]


@pytest.mark.parametrize("argv, want", WIRE, ids=[" ".join(a) for a, _ in WIRE])
def test_json_wire_format_is_pinned(capsys, argv, want):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out, err) == (0, want + "\n", "")


def test_json_reader_takes_a_narrow_document():
    doc = {
        "basis": "raw",
        "max_order": 4,
        "terms": [
            {"coef": ["3", "2"], "exp": [1, 0, 0, 0, 1]},
            {"coef": ["-1", "1"], "exp": [0, 0, 2, 0, 0]},
        ],
    }
    p = MomentPolynomial.from_json_dict(doc)
    assert p.to_text() == "3/2*m1*m4 - m2^2"
    assert p == MomentPolynomial.monomial(Fraction(3, 2), {1: 1, 4: 1}, Basis.RAW) - (
        MomentPolynomial.monomial(1, {2: 2}, Basis.RAW)
    )


@pytest.mark.parametrize(
    "exp",
    [
        [0, 0, 1, 0, 0, 0],  # six slots under "max_order": 4
        [0, 1, 0, 0, 0],  # order-1 symbols live in slot 0
        [0, 0, -1, 0, 0],
    ],
)
def test_json_reader_rejects_malformed_vectors(exp):
    doc = {"basis": "raw", "max_order": 4, "terms": [{"coef": ["1", "1"], "exp": exp}]}
    with pytest.raises(ValueError):
        MomentPolynomial.from_json_dict(doc)


# -- series ----------------------------------------------------------------


def test_series_lists_coefficients_per_power(capsys):
    code, out, _ = run(capsys, "series", "--k", "2", "--order", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t^0: 1"
    assert lines[1] == "t^1: m2"
    assert len(lines) == 3


def test_series_sixth_requires_acknowledgement(capsys):
    code, _, err = run(capsys, "series", "--k", "6", "--order", "4")
    assert code == 64
    assert "central-only" in err


def test_series_mark_class_selector(capsys):
    code, out, _ = run(
        capsys, "series", "--which", "mark2", "--order", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 3
    assert data["convention"] == "f-convention"


def test_series_without_k_or_which_is_usage_error(capsys):
    code, _, err = run(capsys, "series", "--order", "4")
    assert code == 64


def test_series_order_cap(capsys):
    code, _, err = run(capsys, "series", "--k", "2", "--order", "1000")
    assert code == 64
    assert "order" in err


# -- oracle ----------------------------------------------------------------


def test_oracle_matches_closed_form_output(capsys):
    code, out, _ = run(capsys, "oracle", "--k", "2", "--n", "2", "--workers", "1")
    assert code == 0
    assert out.strip() == "2*m2^2 - 2*m1^4"


def test_oracle_marked_mode_reports_central_symbols(capsys):
    code, out, _ = run(
        capsys, "oracle", "--k", "2", "--n", "2", "--mode", "marked",
        "--workers", "1",
    )
    assert code == 0
    assert out.strip() == "2*mu2^2 + 4*m1^2*mu2"


def test_oracle_budget_flag_refuses_big_runs(capsys):
    code, _, err = run(
        capsys, "oracle", "--k", "4", "--n", "4", "--reduce", "full",
        "--budget", "100", "--workers", "1",
    )
    assert code == 2
    assert "budget" in err


def test_oracle_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("DETMOM_BUDGET", "10")
    code, _, err = run(
        capsys, "oracle", "--k", "2", "--n", "5", "--reduce", "first-row",
        "--workers", "1",
    )
    assert code == 2
    assert "refused" in err


def test_oracle_budget_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("DETMOM_BUDGET", "lots")
    code, _, err = run(capsys, "oracle", "--k", "2", "--n", "3", "--workers", "1")
    assert code == 64
    assert "DETMOM_BUDGET" in err


@pytest.mark.parametrize(
    "args", [("--k", "3", "--n", "3", "--mode", "marked"), ("--k", "4", "--n", "3")]
)
def test_oracle_conjugacy_and_full_print_the_same(capsys, args):
    outputs = []
    for reduce in ("conjugacy", "full"):
        code, out, _ = run(capsys, "oracle", *args, "--reduce", reduce, "--workers", "1")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].strip()


def test_oracle_odd_power_with_first_row_reduction_is_rejected(capsys):
    code, _, err = run(
        capsys, "oracle", "--k", "3", "--n", "2", "--reduce", "first-row",
        "--workers", "1",
    )
    assert code == 64


# -- mc and exhaustive -----------------------------------------------------


def test_mc_json_report(capsys):
    code, out, _ = run(
        capsys, "mc", "--dist", "rademacher", "--k", "2", "--n", "2",
        "--samples", "2000", "--seed", "7", "--workers", "1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["samples"] == 2000
    assert data["seed"] == 7
    assert data["exact_target"] == "2"
    assert abs(float(data["estimate"]) - 2.0) < 1.0


def test_mc_text_report_shows_exact_target(capsys):
    code, out, _ = run(
        capsys, "mc", "--dist", "rademacher", "--k", "2", "--n", "2",
        "--samples", "1000", "--seed", "0", "--workers", "1",
    )
    assert code == 0
    assert "estimate" in out and "exact      2" in out


def test_mc_discrete_needs_values_and_probs(capsys):
    code, _, err = run(
        capsys, "mc", "--dist", "discrete", "--k", "2", "--n", "2",
        "--samples", "100", "--workers", "1",
    )
    assert code == 64
    assert "--values" in err


def test_mc_discrete_with_negative_values_uses_equals_syntax(capsys):
    code, out, _ = run(
        capsys, "mc", "--dist", "discrete", "--values=-1,1",
        "--probs=1/2,1/2", "--k", "2", "--n", "2", "--samples", "1000",
        "--seed", "0", "--workers", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["exact_target"] == "2"


def test_mc_bad_probabilities_are_usage_errors(capsys):
    code, _, err = run(
        capsys, "mc", "--dist", "discrete", "--values=-1,1",
        "--probs=1/2,1/3", "--k", "2", "--n", "2", "--samples", "100",
        "--workers", "1",
    )
    assert code == 64


def test_exhaustive_prints_exact_fraction(capsys):
    code, out, _ = run(
        capsys, "exhaustive", "--dist", "rademacher", "--k", "4", "--n", "3",
    )
    assert code == 0
    assert out.strip() == "96"


def test_exhaustive_fractional_result(capsys):
    code, out, _ = run(
        capsys, "exhaustive", "--dist", "discrete", "--values=-1/2,1/2",
        "--probs=1/2,1/2", "--k", "2", "--n", "2",
    )
    assert code == 0
    assert out.strip() == "1/8"


def test_exhaustive_normal_is_usage_error(capsys):
    code, _, err = run(
        capsys, "exhaustive", "--dist", "normal", "--k", "2", "--n", "2",
    )
    assert code == 64
    assert "finite" in err


# -- verify ----------------------------------------------------------------


def test_verify_series_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "series", "--workers", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert "suite=series" in lines[-1]


def test_verify_json_shape(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "series", "--workers", "1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "series"
    assert data["pass"] is True
    assert all(c["pass"] for c in data["checks"])


# -- argument plumbing -----------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 64


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "closed", "--k", "2")
    assert code == 64


def test_negative_n_is_usage_error(capsys):
    code, _, err = run(capsys, "closed", "--k", "2", "--n=-1")
    assert code == 64


@pytest.mark.parametrize(
    "argv, digits",
    [
        (("exhaustive", "--dist", "rademacher", "--k", "2", "--n", "120"), 4335),
        (("oracle", "--k", "2", "--n", "2000", "--reduce", "first-row"), 5736),
    ],
)
def test_budget_refusal_past_the_int_str_limit(capsys, argv, digits):
    # 2^14400 and 2000! have more digits than str(int) may print.
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"needs a {digits}-digit number of weight evaluations" in err


def test_long_counts_are_reported_by_their_digit_count():
    assert _count_text(10**4300 - 1) == "9" * 4300
    for digits in (4301, 5000, 14400):
        assert _count_text(10 ** (digits - 1)) == f"a {digits}-digit number of"
        assert _count_text(10**digits - 1) == f"a {digits}-digit number of"


def test_budget_refusal_prints_small_counts_in_full(capsys):
    code, _, err = run(capsys, "exhaustive", "--dist", "rademacher", "--k", "2", "--n", "5")
    assert code == 2
    assert err == (
        "refused: exhaustive average for n=5 needs 33554432 weight evaluations, "
        "over the budget of 1000000\n"
    )


def test_mc_refuses_a_sample_count_over_the_default_budget(capsys, monkeypatch):
    from detmom import sampling

    def no_sampling(*args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(sampling, "_run_blocks", no_sampling)
    code, out, err = run(
        capsys, "mc", "--dist", "rademacher", "--k", "2", "--n", "8",
        "--samples", "1000000000", "--workers", "1",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "refused: Monte-Carlo estimate for k=2, n=8 needs 1000000000 samples, "
        "over the budget of 100000000\n"
    )


def test_mc_budget_flag_and_env_var(capsys, monkeypatch):
    argv = ("mc", "--dist", "rademacher", "--k", "2", "--n", "2",
            "--samples", "1000", "--workers", "1")
    code, _, err = run(capsys, *argv, "--budget", "999")
    assert code == 2
    assert "needs 1000 samples, over the budget of 999" in err
    assert run(capsys, *argv, "--budget", "1000")[0] == 0
    monkeypatch.setenv("DETMOM_BUDGET", "999")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "over the budget of 999" in err
    # The flag wins over the environment.
    assert run(capsys, *argv, "--budget", "1000")[0] == 0


def test_mc_normal_overflow_exits_with_message(capsys):
    code, out, err = run(
        capsys, "mc", "--dist", "normal", "--k", "6", "--n", "60",
        "--samples", "100", "--workers", "1",
    )
    assert code == 64
    assert out == ""
    assert "overflow float64" in err
