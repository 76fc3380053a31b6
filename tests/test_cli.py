"""Command-line interface: determinism, JSON/CSV schemas, file round
trips between subcommands, verification suites, and the exit-code
contract (0 ok, 1 verification failure, 2 usage error, 3 numeric/IO
failure).
"""

import hashlib
import json
import warnings

import mpmath as mp
import pytest

from bigqbessel import SeriesValue, ZeroTable, eval_J, QContext
from bigqbessel.cli import main
from bigqbessel import _jsonio, cli


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
    want = eval_J(QContext(0.5), 0, 1, 0.01).value
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


def test_zeros_near_q_one_start_at_the_first_zero(capsys):
    # z_1 = 2.906e-4 lies below the scan's usual start 1e-3
    code, out, _ = run(capsys, ["zeros", "--q", "0.99", "--count", "2"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["zeros"][0] ** 2 / 2.906e-4 - 1) < 1e-3
    assert doc["derivs"][0] < 0 < doc["derivs"][1]


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


@pytest.mark.parametrize("q,alpha", [("0.5", "0"), ("0.3", "1")])
def test_verify_delta_signal_checks_the_identity(capsys, q, alpha):
    # both sides at the working precision: the residual is the identity's,
    # not the rounding of 1/(1-q) or of lambda^2 to doubles
    code, out, _ = run(
        capsys, ["verify", "--q", q, "--alpha", alpha, "--suite", "sampling"]
    )
    assert code == 0
    entries = json.loads(out)["entries"]
    delta = [e for e in entries if e["id"].startswith("delta-signal")]
    assert len(delta) == 1 and delta[0]["residual"] <= 1e-25


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


def _table_text(alpha) -> str:
    return json.dumps({"q": 0.5, "alpha": alpha, "zeros": [1.0, 2.0],
                       "derivs": [-1.0, 1.0], "residuals": [0.0, 0.0]})


# Each command with --alpha at the floor of the library function it runs
# (the floors are exclusive), with --count and with table files.  The
# floors: eval_J -1, find_zeros -1/2, gram_matrix and fourier_coefficients
# -1/2, reconstruct -1 (it evaluates J_alpha).
_SIGNAL = ["--signal", "signal.json"]
_LAMBDAS = ["--lambdas", "0.3:0.9:2"]
BELOW_FLOOR = [
    pytest.param("eval", "-1.0", ["--x", "1", "--z", "0.1"], id="eval"),
    pytest.param("zeros", "-0.5", ["--count", "2"], id="zeros"),
    pytest.param("gram", "-0.5", ["--count", "2"], id="gram-count"),
    pytest.param("gram", "-0.5", ["--zeros", "zeros.json"], id="gram-files"),
    pytest.param("fourier", "-0.5", [*_SIGNAL, "--count", "2"],
                 id="fourier-count"),
    pytest.param("fourier", "-0.5", [*_SIGNAL, "--zeros", "zeros.json"],
                 id="fourier-files"),
    pytest.param("sample", "-0.5", [*_SIGNAL, "--count", "2", *_LAMBDAS],
                 id="sample-count"),
    pytest.param("sample", "-1.0",
                 [*_SIGNAL, "--zeros", "zeros.json", *_LAMBDAS],
                 id="sample-files"),
    pytest.param("verify", "-1.0", ["--suite", "identities"],
                 id="verify-identities"),
    pytest.param("verify", "-0.5", ["--suite", "all"], id="verify-all"),
]


@pytest.mark.parametrize("command, alpha, options", BELOW_FLOOR)
def test_usage_error_alpha_at_the_library_floor(
    capsys, tmp_path, command, alpha, options
):
    files = {"zeros.json": _table_text(float(alpha)),
             "signal.json": '{"a": 1.0, "values": [1.0, -0.5]}'}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    options = [str(tmp_path / o) if o in files else o for o in options]
    with pytest.raises(SystemExit) as exc:
        main([command, "--q", "0.5", "--alpha", alpha, *options])
    assert exc.value.code == 2
    assert "error: --alpha" in capsys.readouterr().err


def test_sample_refuses_an_alpha_without_j_alpha_before_any_work(
    capsys, tmp_path
):
    # reconstruct evaluates J_alpha, which needs alpha > -1: a table file
    # at alpha = -1.2 is refused as a usage error, without the warning for
    # alpha <= -1/2 and before any transform is summed
    zeros = tmp_path / "zeros.json"
    zeros.write_text(_table_text(-1.2))
    sig = tmp_path / "signal.json"
    sig.write_text('{"a": 1.0, "values": [1.0, -0.5]}')
    argv = ["sample", "--q", "0.5", "--alpha", "-1.2", "--signal", str(sig),
            "--zeros", str(zeros), "--lambdas", "[0.7]"]
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    assert rec == []
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert lines[0].startswith("usage: bigqbessel")
    assert lines[-1].startswith("bigqbessel: error: --alpha")
    assert all(line.startswith(("usage:", " ")) for line in lines[:-1])


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


def test_numeric_failure_fourier_off_unit_scale(capsys, tmp_path):
    sig = tmp_path / "signal.json"
    sig.write_text('{"a": 0.5, "values": [1.0, 0.5]}')
    code = main(["fourier", "--q", "0.5", "--signal", str(sig), "--count", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "scale-1 lattice; got a=0.5" in err


def test_numeric_failure_table_of_another_q(capsys, tmp_path):
    code, out, _ = run(capsys, ["zeros", "--q", "0.5", "--count", "3"])
    assert code == 0
    zeros = tmp_path / "zeros.json"
    zeros.write_text(out)
    sig = tmp_path / "signal.json"
    sig.write_text('{"a": 1.0, "values": [1.0, -0.5]}')
    code, out, err = run(
        capsys,
        ["sample", "--q", "0.55", "--signal", str(sig), "--zeros", str(zeros),
         "--lambdas", "[0.7]"],
    )
    assert code == 3
    assert out == ""
    assert "(0.5, 0.0)" in err and "(0.55, 0.0)" in err


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


def test_eval_prints_value_beyond_int_str_limit(capsys):
    # J_0(1, lambda; 1/4) at z = 1e80 is near 10^5274 and is held at about
    # 17600 bits; printed at full precision, mpmath's decimal conversion
    # of such a value exceeds Python's limit on int-to-str digits
    code = main(["eval", "--q", "0.5", "--x", "1", "--z", "1e80"])
    out = capsys.readouterr()
    assert code == 0
    assert out.err == ""
    want = eval_J(QContext(0.5), 0, 1, 1e80).value
    with mp.workdps(30):
        got = _jsonio.loads(out.out)["value"]
        # 17 significant digits: within half a unit of the 17th
        assert abs(got / want - 1) < 1e-16


def test_eval_squares_lambda_beyond_the_float_range(capsys, monkeypatch):
    # lambda^2 = 1e320 overflows a float; eval_J gets it as an mpf (from a
    # stub: J at z = 1e320 takes many seconds to sum)
    seen = []

    def stub(ctx, alpha, x, z, tol, terms_max):
        seen.append(z)
        return SeriesValue(z, mp.mpf(0), 1)

    monkeypatch.setattr(cli, "eval_J", stub)
    code, _, err = run(
        capsys, ["eval", "--q", "0.5", "--x", "1", "--lambda", "1e160"]
    )
    assert (code, err) == (0, "")
    assert seen == [mp.mpf(1e160) ** 2]


def test_usage_error_terms_max_below_one(capsys):
    for n in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--q", "0.5", "--x", "1", "--z", "0.1",
                  "--terms-max", n])
        assert exc.value.code == 2


def test_usage_error_verify_has_no_csv(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "0.5", "--suite", "identities", "--format", "csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("option", ["--signal", "--zeros"])
@pytest.mark.parametrize(
    "text",
    ['{"values": [1, 2]}', '{"a": 1.0, "values": [1.0', '[1.0, 0.5]'],
    ids=["key", "json", "list"],
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


PINNED_ZEROS = (
    '{"q":0.5,"alpha":0,"zeros":[1.1242533587940896,3.6118374054514274,'
    '7.9428262520268601],"derivs":[-1.5640578391868993,3.8197063822359539,'
    '-32.724076471503469],"residuals":[2.000890416711484e-28,'
    '8.3544845101800068e-22,5.0799034944839555e-36]}\n'
)
PINNED_SIGNAL = '{"a": 1.0, "values": [1.0, -0.5, 0.25, 0.125]}\n'


@pytest.mark.parametrize(
    "command, name, text",
    [
        ("sample", "zeros.json", PINNED_ZEROS.replace("-1.5640578391868993", "NaN")),
        ("fourier", "signal.json", '{"a": 1.0, "values": [1.0, NaN, 0.25]}'),
        ("gram", "zeros.json", PINNED_ZEROS.replace("3.8197063822359539", "Infinity")),
    ],
    ids=["sample-nan-deriv", "fourier-nan-value", "gram-inf-deriv"],
)
def test_numeric_failure_non_finite_input_file(capsys, tmp_path, command, name, text):
    # Python's json reads NaN and Infinity; the documents refuse them
    files = {"zeros.json": PINNED_ZEROS, "signal.json": PINNED_SIGNAL, name: text}
    for fname, ftext in files.items():
        (tmp_path / fname).write_text(ftext)
    argv = [command, "--q", "0.5", "--zeros", str(tmp_path / "zeros.json")]
    if command != "gram":
        argv += ["--signal", str(tmp_path / "signal.json")]
    if command == "sample":
        argv += ["--lambdas", "[0.3, 0.7]"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert "error:" in err and "must be finite" in err


# sha256 of stdout, with the exit code, of documents the CLI wrote before
# its commands were one table; `zeros.json` and `signal.json` stand for
# files holding PINNED_ZEROS and PINNED_SIGNAL.  `sample` and `verify
# --suite all` were pinned again when the sampling kernel's numerator
# became J(lambda) - J(j_k), which is 0 at the zero the table holds.
_ON_FILES = ["--signal", "signal.json", "--zeros", "zeros.json"]
PINNED = [
    (["eval", "--q", "0.5", "--alpha", "0.5", "--x", "1.3", "--lambda", "2.0"],
     "5240a33b1b38b490bb9e69216c2d81542dd50095f93750251b3a0ecdb924b3be",
     "bd56f67b5888ba54bf7548cf05d96f22b7813f34317af3af4380ff8da5dea7e9"),
    (["eval", "--q", "0.8", "--alpha", "-0.25", "--x", "0.7", "--z", "-3.5"],
     "1869ab5c02fdda4032e62d869f865bf96f70a15625c9d217bf4ad7381a2f2239",
     "3b52a926cf31ac5a5e92e584d301b7db2cb220671372327e42417358594272e2"),
    (["zeros", "--q", "0.5", "--count", "3"],
     "858f0088ff7d219d4aeb52e090ce676d57e65140cf62df8a39db3cc158fcc7d3",
     "148a785049ddc9f990a670ecbddf254878dee2fab63578ee451c943ebf4d88a0"),
    (["gram", "--q", "0.5", "--zeros", "zeros.json"],
     "0eeeaf04601239e206879aebb7d7ab496678c2227b7f546f646c577b1d6f521b",
     "d2b23c9a06560cee28549dd04854fba985fd626f460b368609ecaa4b468dff89"),
    (["fourier", "--q", "0.5", *_ON_FILES],
     "3b264109200ba8c23a732ed172224cca71f4da7a125f1637149279c8468f3393",
     "4dce123b3e1244c0d4c12b8bde957d18f010129df31829a568c6bf4c12e54b4c"),
    (["sample", "--q", "0.5", *_ON_FILES, "--lambdas", "0.3:1.2:4"],
     "659c5bbf461f2f7dfa397a5725de6437d19dfc1b8a6f1650847d1da60cf989da",
     "f81c559d1fdde02f9b65cc0d606d138605c4bc9ddb10bf9e428c57a66298f690"),
]
PINNED_CASES = [
    (argv + ["--format", fmt], 0, digest)
    for argv, json_digest, csv_digest in PINNED
    for fmt, digest in (("json", json_digest), ("csv", csv_digest))
] + [
    (["verify", "--q", "0.5", "--suite", "identities"], 0,
     "e5914fc866e57b62bceef794f62fe72c6326b0fffaa82069896d579dc94b4d63"),
    # the one document that runs the Lommel functions, the Gram and norm
    # path and the sampling suite end to end; at q = 1/2 its Gram
    # off-diagonal fails the suite, so it exits 1
    (["verify", "--q", "0.5", "--suite", "all"], 1,
     "709bb4370d73c6f88daef643bf4d2329e43e5c6ebd647f2f5b4548da0d45f110"),
]


@pytest.mark.parametrize(
    "argv, want_code, want_digest",
    PINNED_CASES,
    ids=[f"{c[0][0]}-{c[0][-1]}" for c in PINNED_CASES],
)
def test_documents_pinned_byte_for_byte(capsys, tmp_path, argv, want_code, want_digest):
    files = {"zeros.json": PINNED_ZEROS, "signal.json": PINNED_SIGNAL}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, _ = run(capsys, argv)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


def test_numeric_failure_zero_deriv_in_table(capsys, tmp_path):
    # the sampling kernel divides by each zero's derivative
    zeros = tmp_path / "zeros.json"
    zeros.write_text(
        '{"q":0.5,"alpha":0,"zeros":[1.1242533587940896],"derivs":[0.0],'
        '"residuals":[0.0]}'
    )
    sig = tmp_path / "signal.json"
    sig.write_text(PINNED_SIGNAL)
    code, out, err = run(
        capsys,
        ["sample", "--q", "0.5", "--zeros", str(zeros), "--signal", str(sig),
         "--lambdas", "[0.7]"],
    )
    assert (code, out) == (3, "")
    assert "InvalidArgument: derivs must be nonzero" in err


@pytest.mark.parametrize(
    "command, name, text, field",
    [
        ("gram", "zeros.json", PINNED_ZEROS.replace('"q":0.5', '"q":"0.5"'),
         "q"),
        ("gram", "zeros.json", PINNED_ZEROS.replace('"alpha":0', '"alpha":true'),
         "alpha"),
        ("gram", "zeros.json",
         PINNED_ZEROS.replace("1.1242533587940896", '"1.1242533587940896"'),
         "zeros"),
        ("fourier", "signal.json", '{"a": "1", "values": [1.0, -0.5]}', "a"),
        ("fourier", "signal.json", '{"a": 1.0, "values": [true, -0.5]}',
         "values"),
    ],
    ids=["table-q-str", "table-alpha-bool", "table-zero-str", "signal-a-str",
         "signal-value-bool"],
)
def test_numeric_failure_input_field_of_another_type(
    capsys, tmp_path, command, name, text, field
):
    # a file's numbers pass the gate of the library's own arguments: a
    # string or a bool is refused, not converted (alpha true is order 1)
    files = {"zeros.json": PINNED_ZEROS, "signal.json": PINNED_SIGNAL, name: text}
    for fname, ftext in files.items():
        (tmp_path / fname).write_text(ftext)
    argv = [command, "--q", "0.5", "--alpha", "1" if field == "alpha" else "0",
            "--zeros", str(tmp_path / "zeros.json")]
    if command == "fourier":
        argv += ["--signal", str(tmp_path / "signal.json")]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert f"InvalidArgument: {field} must be an int, a float or an mpf" in err
