"""The detmom command line: output formats, exit codes, environment knobs."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import detmom
from detmom import verify
from detmom.cli import main
from detmom.errors import _count_text
from detmom.poly import Basis, MomentPolynomial
from detmom.series import polynomial_in_t


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
    (("closed", "--gaussian", "--k", "4", "--n", "3"), '{"k": 4, "n": 3, "value": "360"}'),
    (
        ("exhaustive", "--dist", "discrete", "--values=-1,0,2", "--probs=1/2,1/3,1/6",
         "--k", "4", "--n", "3"),
        '{"value": "83514167/139968"}',
    ),
]


@pytest.mark.parametrize("argv, want", WIRE, ids=[" ".join(a) for a, _ in WIRE])
def test_json_wire_format_is_pinned(capsys, argv, want):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out, err) == (0, want + "\n", "")


MC = ("mc", "--samples", "2000", "--seed", "7", "--workers", "1", "--n", "2")
TEXT = [
    (
        (*MC, "--dist", "rademacher", "--k", "2"),
        "estimate   2.034\nstd_error  0.044726079764557426\nsamples    2000\n"
        "seed       7\nexact      2\n",
    ),
    # k = 6 with a nonzero mean has no exact target, so no "exact" line.
    (
        (*MC, "--dist", "discrete", "--values=0,1", "--probs=1/2,1/2", "--k", "6"),
        "estimate   0.3865\nstd_error  0.010891197550868592\nsamples    2000\n"
        "seed       7\n",
    ),
    (("closed", "--gaussian", "--k", "4", "--n", "3"), "360\n"),
    (
        ("exhaustive", "--dist", "discrete", "--values=-1,0,2", "--probs=1/2,1/3,1/6",
         "--k", "4", "--n", "3"),
        "83514167/139968\n",
    ),
]


@pytest.mark.parametrize("argv, want", TEXT, ids=[" ".join(a) for a, _ in TEXT])
def test_text_output_is_pinned(capsys, argv, want):
    assert run(capsys, *argv) == (0, want, "")


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


def _series_cases():
    for k in ("2", "4", "6"):
        acknowledge = ["--central-only"] if k == "6" else []
        for fmt in ("text", "json"):
            yield f"k{k}-{fmt}", [
                ["series", "--k", k, *acknowledge, "--order", str(order), "--format", fmt]
                for order in range(17)
            ]
    for which in ("f2", "f4", "f6", "n6", "mark0", "mark2", "mark4-single",
                  "mark4-split", "mark4"):
        for fmt in ("text", "json"):
            yield f"{which}-{fmt}", [
                ["series", "--which", which, "--central-only", "--format", fmt]
            ]
    yield "k6-order20", [["series", "--k", "6", "--central-only", "--order", "20"]]


# sha256 of the concatenated stdout of each group of commands: k=2, 4, 6 at
# orders 0..16, every --which at the default order, and k=6 at order 20.
SERIES_OUTPUT_SHA256 = {
    "k2-text": "fdbfbad3c28346f0a9fc8fa7ac9f6199dc110a8c60a0a128a3070205c8b6a2f7",
    "k2-json": "dfefdf01f02d53b9cc0652373878f54d85bf45f1f6492f7020ec591f9fc00197",
    "k4-text": "eb6cf97fdebe96458fb598daea6a88c66688cb16d8722fdcff7b5b18caf38a15",
    "k4-json": "c9dee0410f2f8270f70b4f64b3bd9031011b9044fb1c4ae1ead67a2d29c7040d",
    "k6-text": "9e1f39d2a65e6d4c8b35b8a71b4bdfe3693f3cd0b1e7f4e56792d05de38c47af",
    "k6-json": "ab577da3eac868154e9e8c9596399eaf2c01bec45296a1b4b6f2aab7c96655e9",
    "f2-text": "ccb3649d0e07c946822a6bf233272c7f1e000a33db5223b2cd303eb0a6acdf50",
    "f2-json": "050f2701cbc677cc6ad58a9cc041ed856623df3c62a652f64f2b3bb6ed751567",
    "f4-text": "b6faa49e3ef8258462760575c24dce0df1a05fe5aec85affce3634a86dc722ed",
    "f4-json": "c838c86447497e0f67837dd9db48b48ffc9c5aba0a6d5287e41adfe050f9227a",
    "f6-text": "d30ef017cd10830aa9a1d397fc6100bc71d4235803c0a03da48765947d946c60",
    "f6-json": "d1756b8991df67298f9958cc50b5e9219beb66abdc957b9d1d5d1f0da32c310b",
    "n6-text": "23b4fd70c984af697e977f5c4cd01310706f38684498e7c36255115f577d6c51",
    "n6-json": "50251bcf0a24532b9caabd7772dd4fd7bfef8654bc63427adade9de484b3434c",
    "mark0-text": "07b8be1a47cf5b768740ce73b37c1cbcb6e413844107d1139e09d796477252e6",
    "mark0-json": "bb8f5bb03a6aac135d71b631f5b08f1a01ed80e72d26f7a0bec884347a5d709f",
    "mark2-text": "e2af26e28d2805693478073599a57411bec3a511fa4097e635c2246ed954e7a1",
    "mark2-json": "01b8a881ef8aa94231fc58ce3babea8c483d6a330ef3e8f2501ba8883b6059d9",
    "mark4-single-text": "998a7291f4e55d1095cf2866280d25a6527aeb0884ace0185f904840de744658",
    "mark4-single-json": "5c1c6cbadaa3e5bfbfc3d585eb3cb67dd738fb345ca7b6ab0db319e388259708",
    "mark4-split-text": "5a185d42dabe10d4552df72c8d48a3c8a525bbfdc25cb5aba8056d721e6e61ba",
    "mark4-split-json": "32ea46754c28506c21a263cae7148960c50e34d2ebe18a11e27c3dcb618ec911",
    "mark4-text": "2ba44196c5a91430f18bab85a5b52a6f8095339be28815edc6cc34790e76913b",
    "mark4-json": "30e23ebff90d40b95f5712dd89513d18394ba4e185a7f1432a129f85abe0fd3c",
    "k6-order20": "c9e508dc711778378e910d86ef8e94f63aff694d88d5cfb19eb9b520d5bd9b0a",
}


@pytest.mark.parametrize("name, commands", list(_series_cases()),
                         ids=[name for name, _ in _series_cases()])
def test_series_output_is_pinned(capsys, name, commands):
    assert _stdout_sha256(capsys, commands) == SERIES_OUTPUT_SHA256[name]


def _stdout_sha256(capsys, commands) -> str:
    """sha256 of the concatenated stdout of commands that must exit 0 silently."""
    digest = hashlib.sha256()
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        digest.update(out.encode())
    return digest.hexdigest()


def _rendering_cases():
    for fmt in ("text", "json"):
        for k in ("2", "4"):
            for basis in ("raw", "central"):
                yield f"closed-k{k}-{basis}-{fmt}", [
                    ["closed", "--k", k, "--n", str(n), "--basis", basis, "--format", fmt]
                    for n in range(13)
                ]
        yield f"closed-k6-{fmt}", [
            ["closed", "--k", "6", "--n", str(n), "--central-only", "--format", fmt]
            for n in range(13)
        ]
        for mode in ("plain", "marked"):
            yield f"oracle-{mode}-{fmt}", [
                ["oracle", "--k", str(k), "--n", str(n), "--mode", mode,
                 "--workers", "1", "--format", fmt]
                for k in range(1, 5) for n in range(4)
            ]
        yield f"verify-{fmt}", [
            ["verify", "--suite", "all", "--seed", "7", "--workers", "1", "--format", fmt]
        ]


# sha256 of the concatenated stdout of each group: closed k=2 and 4 at
# n=0..12 in each basis, closed k=6 centred at n=0..12, the oracle at
# k=1..4 and n=0..3 in each mode, and verify --suite all at seed 7.
RENDERING_OUTPUT_SHA256 = {
    "closed-k2-raw-text": "b2eff9d4256834ad33f0928a5c5537e357226e286e2ad5eb7272cc88104f7f0e",
    "closed-k2-central-text": "474f730d7fd03a7c87fcba569298acc678e6d6f1786629c44ef2d4f8819537f6",
    "closed-k4-raw-text": "338f7ff80ca1e24fe17b71649745605cd0b0773f8e39cbb2edf21b50a5eb4e94",
    "closed-k4-central-text": "7c9acc68ffcb1da3b960d3908fe54ea35102bea803c9afabc139abdd209655e8",
    "closed-k6-text": "382ca32c2a27a5feaa6490ef688aca2b80e40db6507fa15f2a0eb05d75acde85",
    "oracle-plain-text": "03b9b74618136a79020114b0310f18254b70e2519a60f8b80db0be49501b1cf7",
    "oracle-marked-text": "80578c479bcde3d824609d666f5c0d5fbc668da956fb965bba589f63a4d0045d",
    "verify-text": "6d0c6bab81e1955072faeb3755d50734ad79557c84b2cdfea5ddc2b4c66cff90",
    "closed-k2-raw-json": "74e776409521df10ff9cd96a1b31d48af4f16cffac4898eea3c1aabfc2524634",
    "closed-k2-central-json": "cdd121d02f100b3ec649fe39835131075279815c3b13a424932be0d24d041519",
    "closed-k4-raw-json": "293cbcfeb40b6ebcab0f72f0e6c3b04798f264dacdbf446530fd6b156e40b443",
    "closed-k4-central-json": "ee2198271547874fa549d48552d152d807a24ee4f6cb3a359a55edb66174ecfd",
    "closed-k6-json": "3df3d5e3c8d578fbdab778efae6a650964bfcf237616aa5ce2cab5f938cdb612",
    "oracle-plain-json": "3119616c2c9f5f021fa2007eb18514581938b2fea046e83003cbaf0ab046de85",
    "oracle-marked-json": "a9ac4517e2f4a6390c29054cf9176f51296a3a4a93b24cb241a048dfc56f44f1",
    "verify-json": "eb9b4ae1cb7133bb0f888d63e1313b67ada4aa9db3839a7c570212efb019f151",
}


@pytest.mark.parametrize("name, commands", list(_rendering_cases()),
                         ids=[name for name, _ in _rendering_cases()])
def test_rendered_output_is_pinned(capsys, name, commands):
    assert _stdout_sha256(capsys, commands) == RENDERING_OUTPUT_SHA256[name]


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
        capsys, "oracle", "--k", "4", "--n", "4", "--budget", "100",
        "--workers", "1",
    )
    assert code == 2
    assert "budget" in err


def test_oracle_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("DETMOM_BUDGET", "10")
    # p(7) = 15 tables.
    code, _, err = run(capsys, "oracle", "--k", "2", "--n", "7", "--workers", "1")
    assert code == 2
    assert "refused" in err


def test_oracle_budget_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("DETMOM_BUDGET", "lots")
    code, _, err = run(capsys, "oracle", "--k", "2", "--n", "3", "--workers", "1")
    assert code == 64
    assert "DETMOM_BUDGET" in err


def test_oracle_has_no_reduce_option(capsys):
    code, out, err = run(capsys, "oracle", "--k", "2", "--n", "2", "--reduce", "full")
    assert (code, out) == (64, "")
    assert "--reduce" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--k", "2", "--n", "2"),
        ("mc", "--dist", "rademacher", "--k", "2", "--n", "2", "--samples", "100"),
        ("verify", "--suite", "series"),
    ],
)
def test_workers_outside_one_to_the_cpu_count_are_usage_errors(capsys, monkeypatch, argv):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    for workers in ("0", "3", "-1", "two"):
        code, out, err = run(capsys, *argv, "--workers", workers)
        assert (code, out) == (64, ""), workers
        assert f"from 1 to 2, got '{workers}'" in err
    assert run(capsys, *argv, "--workers", "2")[0] == 0


def test_convergence_script_takes_the_cli_worker_count(monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "mc_convergence.py"
    spec = importlib.util.spec_from_file_location("mc_convergence", path)
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mc_convergence", script)
    spec.loader.exec_module(script)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr("sys.argv", ["mc_convergence.py", "--workers", "500"])
    with pytest.raises(SystemExit) as exit_:
        script.parse_args()
    assert exit_.value.code == 2
    assert "from 1 to 2, got '500'" in capsys.readouterr().err
    monkeypatch.setattr("sys.argv", ["mc_convergence.py", "--workers", "2"])
    assert script.parse_args().workers == 2


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_mc_progress_goes_to_a_tty_stderr_only(capsys, monkeypatch, fmt):
    # 2 * 4096 + 500 samples: three blocks, each its own range.
    argv = ("mc", "--dist", "normal", "--k", "2", "--n", "4", "--samples", "8692",
            "--seed", "3", "--workers", "1", "--format", fmt)
    code, plain, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    monkeypatch.setattr(sys.stderr, "isatty", lambda: True, raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == plain
    assert err == "\r1/3 blocks\r2/3 blocks\r3/3 blocks\n"


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


@pytest.mark.parametrize(
    "argv, what",
    [
        (("mc", "--values=1/0,1", "--probs=1/2,1/2", "--samples", "100"), "--values"),
        (("exhaustive", "--values=-1,1", "--probs=1/0,1/2"), "--probs"),
    ],
)
def test_zero_denominators_are_usage_errors(capsys, argv, what):
    code, out, err = run(capsys, *argv, "--dist", "discrete", "--k", "2", "--n", "2")
    assert (code, out) == (64, "")
    assert err.startswith(f"error: could not parse {what}: ")


def test_exhaustive_normal_is_usage_error(capsys):
    code, _, err = run(
        capsys, "exhaustive", "--dist", "normal", "--k", "2", "--n", "2",
    )
    assert code == 64
    assert "finite" in err


# Each usage error is one line on stderr, with exit 64 and nothing on stdout.
USAGE_ERRORS = [
    (("exhaustive", "--dist", "normal", "--k", "2", "--n", "2"),
     "exhaustive averaging needs a finite support"),
    (("closed", "--k", "3", "--n", "2"),
     "no closed form for k=3; supported: k=2, k=4, k=6 --central-only, "
     "or --gaussian for any even k"),
    (("mc", "--dist", "discrete", "--values=1/0", "--probs=1", "--k", "2", "--n", "2"),
     "could not parse --values: Fraction(1, 0)"),
    (("exhaustive", "--dist", "discrete", "--values=1,2", "--probs=1/2,1/3",
      "--k", "2", "--n", "2"),
     "probabilities must sum to one exactly"),
    (("verify", "--suite", "nope"),
     "argument --suite: invalid choice: 'nope' "
     "(choose from 'small', 'series', 'montecarlo', 'all')"),
    (("oracle", "--k", "2", "--n", "2", "--workers", "0"),
     "argument --workers: must be an integer from 1 to 2, got '0'"),
    ((), "the following arguments are required: command"),
    (("series", "--k", "2", "--which", "f4"),
     "argument --which: not allowed with argument --k"),
    (("mc", "--dist", "normal", "--values=1,2", "--probs=1/2,1/2", "--k", "2", "--n", "2"),
     "--dist normal takes no --values or --probs"),
    (("exhaustive", "--dist", "rademacher", "--probs=1", "--k", "2", "--n", "2"),
     "--dist rademacher takes no --values or --probs"),
    (("series", "--k", "0"), "k must be at least 1"),
    (("series", "--which", "bogus"),
     "argument --which: invalid choice: 'bogus' (choose from 'f2', 'f4', 'f6', "
     "'n6', 'mark0', 'mark2', 'mark4-single', 'mark4-split', 'mark4')"),
    (("closed", "--k", "6", "--n", "2"),
     "the k=6 closed form assumes centered entries; acknowledge with --central-only"),
    (("series", "--which", "f6"),
     "the k=6 series assumes centered entries; acknowledge with --central-only"),
    (("mc", "--dist", "rademacher", "--k", "2", "--n", "2", "--samples", "1"),
     "need at least two samples for a standard error"),
    (("exhaustive", "--dist", "discrete", "--values=1,2", "--probs=3/2,-1/2",
      "--k", "2", "--n", "2"),
     "probabilities must be nonnegative"),
    (("exhaustive", "--dist", "discrete", "--values=1,2", "--probs=1",
      "--k", "2", "--n", "2"),
     "values and probs must be equal-length and nonempty"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(a) or "no-command" for a, _ in USAGE_ERRORS])
def test_usage_errors_print_one_pinned_line(capsys, monkeypatch, argv, message):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert run(capsys, *argv) == (64, "", f"error: {message}\n")


# -- verify ----------------------------------------------------------------


def test_verify_series_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "series", "--workers", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert "suite=series" in lines[-1]


def test_verify_reports_the_first_failing_identity(capsys, monkeypatch):
    def series(*coeffs):
        return polynomial_in_t(list(coeffs), 3, basis=Basis.RAW)

    def suite(**kwargs):
        return verify.VerificationReport("series", [
            verify._series_check("ones", series(1, 1), series(1, 1)),
            verify._series_check("squares", series(1, 2, 4), series(1, 2, 5)),
        ])

    monkeypatch.setattr(verify, "suite_series", suite)
    code, out, err = run(capsys, "verify", "--suite", "series")
    assert code == 1
    assert out == "PASS ones\nFAIL squares[t^2]\nFAIL suite=series (1/2 checks)\n"
    assert err == "first failing identity: squares[t^2]\n  expected: 4\n  got:      5\n"
    code, out, err = run(capsys, "verify", "--suite", "series", "--format", "json")
    assert code == 1
    assert err.startswith("first failing identity: squares[t^2]\n")
    data = json.loads(out)
    assert data["pass"] is False
    assert data["checks"] == [
        {"name": "ones", "expected": "agree to order 3", "got": "agree to order 3",
         "pass": True},
        {"name": "squares[t^2]", "expected": "4", "got": "5", "pass": False},
    ]


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


@pytest.mark.parametrize("argv", [
    ["closed", "--k", "2", "--n", "2"],
    ["closed", "--k", "4", "--n", "12", "--format", "json"],
    ["verify", "--suite", "all", "--workers", "1"],
    ["verify", "--suite", "all", "--workers", "1", "--format", "json"],
], ids=["small", "large", "verify-text", "verify-json"])
def test_a_closed_stdout_pipe_exits_141_quietly(argv):
    # stdout is a pipe whose read end is closed before the child starts, as
    # after `| head` has read what it wanted.
    src = Path(detmom.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "detmom", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr
    assert proc.returncode == 141


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
        (("oracle", "--k", "3", "--n", "2000"), 11517),
    ],
)
def test_budget_refusal_past_the_int_str_limit(capsys, argv, digits):
    # 2^14400 and p(2000) * 2000!^2 have more digits than str(int) may print.
    code, _, err = run(capsys, *argv)
    assert code == 2
    unit = {"exhaustive": "matrices", "oracle": "weight evaluations"}[argv[0]]
    assert f"needs a {digits}-digit number of {unit}" in err


def test_long_counts_are_reported_by_their_digit_count():
    assert _count_text(10**4300 - 1) == "9" * 4300
    for digits in (4301, 5000, 14400):
        assert _count_text(10 ** (digits - 1)) == f"a {digits}-digit number of"
        assert _count_text(10**digits - 1) == f"a {digits}-digit number of"


def test_budget_refusal_prints_small_counts_in_full(capsys):
    code, _, err = run(capsys, "exhaustive", "--dist", "rademacher", "--k", "2", "--n", "5")
    assert code == 2
    assert err == (
        "refused: exhaustive average for n=5 needs 33554432 matrices, "
        "over the budget of 1000000\n"
    )


def test_mc_refuses_a_sample_count_over_the_default_budget(capsys, monkeypatch):
    from detmom import sampling

    def no_sampling(*args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(sampling, "map_ranges", no_sampling)
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


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--k", "2", "--n", "3", "--workers", "1"),
        ("mc", "--dist", "rademacher", "--k", "2", "--n", "2", "--samples", "100",
         "--workers", "1"),
        ("exhaustive", "--dist", "rademacher", "--k", "2", "--n", "2"),
    ],
)
def test_negative_budgets_are_usage_errors(capsys, monkeypatch, argv):
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert (code, out, err) == (64, "", "error: the budget must be nonnegative, got -1\n")
    monkeypatch.setenv("DETMOM_BUDGET", "-1")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (64, "", "error: the budget must be nonnegative, got -1\n")
    assert run(capsys, *argv, "--budget", "0")[0] == 2


def test_mc_normal_overflow_exits_with_message(capsys):
    code, out, err = run(
        capsys, "mc", "--dist", "normal", "--k", "6", "--n", "60",
        "--samples", "100", "--workers", "1",
    )
    assert code == 64
    assert out == ""
    assert "overflow float64" in err
