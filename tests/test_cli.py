"""Command-line interface: determinism, JSON/CSV schemas, file round
trips between subcommands, verification suites, and the exit-code
contract (0 ok, 1 verification failure, 2 usage error, 3 numeric/IO
failure).
"""

import json

import pytest

from bigqbessel import ZeroTable, eval_J, QContext
from bigqbessel.cli import main
from bigqbessel import _jsonio


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_json_deterministic(capsys):
    argv = ["eval", "--q", "0.5", "--x", "1", "--lambda", "0.1"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    want = eval_J(QContext(0.5, 0.0), 0, 1, 0.01).value
    assert abs(float(doc["value"]) - float(want)) <= 1e-13
    assert doc["terms_used"] >= 1


def test_eval_accepts_z_directly(capsys):
    code, out, _ = run(
        capsys, ["eval", "--q", "0.5", "--x", "1", "--z", "0.01"]
    )
    assert code == 0
    code2, out2, _ = run(
        capsys, ["eval", "--q", "0.5", "--x", "1", "--lambda", "0.1"]
    )
    assert code2 == 0
    # 0.1**2 differs from the literal 0.01 by one ulp, so compare values
    # numerically rather than byte-wise
    v1 = float(json.loads(out)["value"])
    v2 = float(json.loads(out2)["value"])
    assert abs(v1 - v2) <= 1e-15


def test_eval_csv_format(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "--q", "0.5", "--x", "1", "--z", "0.25", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,abs_error,terms_used"
    assert len(lines) == 2


def test_zeros_roundtrip_feeds_gram(capsys, tmp_path):
    code, out, _ = run(
        capsys, ["zeros", "--q", "0.5", "--count", "3", "--tol", "1e-10"]
    )
    assert code == 0
    table = ZeroTable.from_dict(_jsonio.loads(out))
    assert len(table) == 3
    path = tmp_path / "zeros.json"
    path.write_text(out)
    code, gout, _ = run(
        capsys, ["gram", "--q", "0.5", "--zeros", str(path)]
    )
    assert code == 0
    doc = json.loads(gout)
    assert len(doc["matrix"]) == 3


def test_zeros_csv_layout(capsys):
    code, out, _ = run(
        capsys,
        ["zeros", "--q", "0.5", "--count", "2", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,zero,deriv,residual"
    assert len(lines) == 3


def test_sample_with_signal_file(capsys, tmp_path):
    sig = tmp_path / "signal.json"
    sig.write_text('{"a": 1.0, "values": [1.0, -0.5, 0.25]}')
    code, out, _ = run(
        capsys,
        [
            "sample", "--q", "0.5", "--signal", str(sig),
            "--count", "4", "--lambdas", "[0.3, 0.9]",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reconstructed"]) == 2
    assert float(doc["max_rel_err"]) < 1e-3


def test_sample_lambda_range_syntax(capsys, tmp_path):
    sig = tmp_path / "signal.json"
    sig.write_text('{"a": 1.0, "values": [1.0]}')
    code, out, _ = run(
        capsys,
        [
            "sample", "--q", "0.5", "--signal", str(sig),
            "--count", "3", "--lambdas", "0.2:1.0:5",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["lambdas"]) == 5
    assert abs(float(doc["lambdas"][0]) - 0.2) < 1e-15
    assert abs(float(doc["lambdas"][-1]) - 1.0) < 1e-15


def test_fourier_subcommand(capsys, tmp_path):
    sig = tmp_path / "signal.json"
    sig.write_text('{"a": 1.0, "values": [1.0, 0.5]}')
    code, out, _ = run(
        capsys,
        ["fourier", "--q", "0.5", "--signal", str(sig), "--count", "3"],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["coefficients"]) == 3


def test_verify_identities_passes(capsys):
    code, out, _ = run(
        capsys, ["verify", "--q", "0.5", "--suite", "identities"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["max_residual"] < 1e-9


def test_verify_sampling_passes(capsys):
    code, out, _ = run(
        capsys, ["verify", "--q", "0.5", "--suite", "sampling"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True


def test_verify_orthogonality_reports_honest_failure(capsys):
    # the suite includes the off-diagonal Gram check; since the claimed
    # orthogonality relation is numerically false, the suite must exit 1
    # rather than hide the discrepancy
    code, out, _ = run(
        capsys, ["verify", "--q", "0.5", "--suite", "orthogonality"]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    offdiag = [e for e in doc["entries"] if e["id"] == "gram-offdiagonal"]
    assert offdiag and offdiag[0]["residual"] > 0.1
    # the two-sided product integral and the norms DO verify
    for e in doc["entries"]:
        if e["id"] in ("product-integral-two-sided", "norm-closed-vs-direct"):
            assert e["residual"] < 1e-8


def test_usage_error_bad_q(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--q", "1.5", "--x", "1", "--z", "0.1"])
    assert exc.value.code == 2


def test_usage_error_lambda_and_z(capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            ["eval", "--q", "0.5", "--x", "1", "--z", "0.1",
             "--lambda", "0.3"]
        )
    assert exc.value.code == 2


def test_usage_error_alpha_floor(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--q", "0.5", "--alpha", "-0.5", "--count", "2"])
    assert exc.value.code == 2


def test_usage_error_bad_lambdas(capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            ["sample", "--q", "0.5", "--signal", "sig.json",
             "--count", "2", "--lambdas", "nonsense"]
        )
    assert exc.value.code == 2


def test_numeric_failure_missing_file(capsys):
    code = main(["gram", "--q", "0.5", "--zeros", "/no/such/file.json"])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err


def test_float_formatting_17_digits():
    assert _jsonio.format_float(0.1) == "0.10000000000000001"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--q", "0.5", "--x", "1", "--z", "0.1", "--tol", "nan"],
        ["eval", "--q", "0.5", "--alpha", "nan", "--x", "1", "--z", "0.1"],
        ["eval", "--q", "0.5", "--x", "inf", "--z", "0.1"],
        ["eval", "--q", "0.5", "--x", "1", "--z", "nan"],
        ["sample", "--q", "0.5", "--signal", "sig.json", "--count", "2",
         "--lambdas", "[0.3, NaN]"],
    ],
)
def test_usage_error_non_finite_float(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_numeric_failure_unprintable_value(capsys):
    # J_0(1, lambda; 1/4) at z = 1e80 is near 10^5274 and is held at about
    # 17600 bits; mpmath's decimal conversion of such a value exceeds
    # Python's limit on int-to-str digits
    code = main(["eval", "--q", "0.5", "--x", "1", "--z", "1e80"])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert "error:" in out.err


@pytest.mark.parametrize("option", ["--signal", "--zeros"])
@pytest.mark.parametrize(
    "text", ['{"values": [1, 2]}', '{"a": 1.0, "values": [1.0'], ids=["key", "json"]
)
def test_numeric_failure_malformed_input_file(capsys, tmp_path, option, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    sig = tmp_path / "signal.json"
    sig.write_text('{"a": 1.0, "values": [1.0, 0.5]}')
    argv = ["fourier", "--q", "0.5"]
    if option == "--signal":
        argv += ["--signal", str(bad), "--count", "2"]
    else:
        argv += ["--signal", str(sig), "--zeros", str(bad)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err
