"""End-to-end CLI contract: schemas, determinism, exit codes, messages."""

import json
import subprocess
import sys

from monopair.cli import main

LOOP = {
    "base_rank": 1,
    "vertices": [{"id": "v0", "genus": 0}],
    "edges": [{"id": "e0", "src": "v0", "dst": "v0", "length": [1]}],
}

THETA = {
    "base_rank": 3,
    "vertices": [{"id": "u", "genus": 0}, {"id": "v", "genus": 0}],
    "edges": [
        {"id": "e0", "src": "u", "dst": "v", "length": [1, 0, 0]},
        {"id": "e1", "src": "u", "dst": "v", "length": [0, 1, 0]},
        {"id": "e2", "src": "u", "dst": "v", "length": [0, 0, 1]},
    ],
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "monopair.cli", *args],
        capture_output=True,
        text=True,
    )


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_pairing_theta(tmp_path):
    result = run_cli("pairing", write(tmp_path, "theta.json", THETA))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["h"] == 2 and report["base_rank"] == 3
    assert report["entries"] == [
        [[1, 1, 0], [1, 0, 0]],
        [[1, 0, 0], [1, 0, 1]],
    ]


def test_pl_loop_weights_3(tmp_path):
    result = run_cli(
        "pl", write(tmp_path, "loop.json", LOOP), "--weights", "3", "--winding", "1"
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["matrix"] == [[1, 3], [0, 1]]
    assert report["modulus"] == 0 and report["h"] == 1 and report["a"] == 0


def test_extpan_nonsplit_nonsplit():
    result = run_cli(
        "extpan", "--p", "2", "--q", "2", "--r", "2", "--e", "nonsplit", "--f", "nonsplit"
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report == {
        "fiber_size": 1,
        "ext1_order": 2,
        "stabilizer_order": 2,
        "transitive": True,
        "section_ok": True,
    }


def test_extpan_accepts_cocycle_file(tmp_path):
    table = {
        "source": [2],
        "target": [2],
        "table": [[[0], [0]], [[0], [1]]],
    }
    path = write(tmp_path, "nonsplit.json", table)
    direct = run_cli("extpan", "--p", "2", "--q", "2", "--r", "2", "--e", path, "--f", "nonsplit")
    named = run_cli(
        "extpan", "--p", "2", "--q", "2", "--r", "2", "--e", "nonsplit", "--f", "nonsplit"
    )
    assert direct.returncode == 0
    assert direct.stdout == named.stdout


def test_extpan_rejects_invalid_cocycle_file(tmp_path):
    table = {
        "source": [2],
        "target": [2],
        "table": [[[0], [1]], [[1], [1]]],  # not normalized
    }
    path = write(tmp_path, "bad.json", table)
    result = run_cli("extpan", "--p", "2", "--q", "2", "--r", "2", "--e", path)
    assert result.returncode == 1
    assert "normalized" in result.stderr


def test_extpan_rejects_misshapen_cocycle_file(tmp_path):
    good = {"source": [2], "target": [2], "table": [[[0], [0]], [[0], [1]]]}
    for flag, key, value in (
        ("--e", "source", 2),
        ("--f", "table", 7),
        ("--e", "table", [5, 6]),
        # Booleans and floats equal integers in Python; JSON input keeps them apart.
        ("--e", "table", [[[0], [0]], [[0], [True]]]),
        ("--f", "table", [[[0], [0]], [[0], [1.0]]]),
        ("--e", "source", [2.0]),
    ):
        path = write(tmp_path, "bad.json", dict(good, **{key: value}))
        result = run_cli("extpan", "--p", "2", "--q", "2", "--r", "2", flag, path)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert flag in result.stderr and path in result.stderr


def test_extpan_nonsplit_invalid_when_class_group_trivial():
    result = run_cli("extpan", "--p", "3", "--q", "2", "--r", "1", "--f", "nonsplit")
    assert result.returncode == 2
    assert "order 2" in result.stderr


def test_extpan_budget_exit_2():
    result = run_cli("extpan", "--p", "2", "--q", "9", "--r", "2")
    assert result.returncode == 2
    assert "budget" in result.stderr


def test_extpan_budget_checked_before_any_table(tmp_path, monkeypatch, capsys):
    """Over-budget groups are refused before any group table or cocycle is
    built, so the refusal costs the same however large the groups are."""
    from monopair.extpan.groups import FinAbGroup

    def no_tables(self):
        raise AssertionError("group tables built before the budget check")

    monkeypatch.setattr(FinAbGroup, "ops", no_tables)
    table = {"source": [9], "target": [2], "table": [[[0]] * 9] * 9}
    path = write(tmp_path, "big.json", table)
    for flags in (
        {"--r": "9", "--e": "nonsplit"},
        {"--r": "9", "--f": "nonsplit"},
        {"--q": "9", "--e": path},
    ):
        argv = ["extpan"]
        for flag, value in dict({"--p": "2", "--q": "2", "--r": "2"}, **flags).items():
            argv += [flag, value]
        code, out, err = run_in_process(capsys, *argv)
        assert code == 2 and out == ""
        assert "budget" in err


def test_extpan_bad_group_spec_exit_2():
    result = run_cli("extpan", "--p", "0", "--q", "2", "--r", "2")
    assert result.returncode == 2
    assert "--p" in result.stderr
    result = run_cli("extpan", "--p", "2", "--q", "two", "--r", "2")
    assert result.returncode == 2


def test_validate_reports_all_violations(tmp_path):
    bad = {
        "base_rank": 2,
        "vertices": [{"id": "v0", "genus": 0}],
        "edges": [
            {"id": "e0", "src": "v0", "dst": "v9", "length": [0, 0]},
            {"id": "e0", "src": "v0", "dst": "v0", "length": [1]},
        ],
    }
    result = run_cli("validate", write(tmp_path, "bad.json", bad))
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert len(report["violations"]) == 4
    assert any("v9" in v for v in report["violations"])
    assert any("duplicate" in v for v in report["violations"])

    good = run_cli("validate", write(tmp_path, "good.json", LOOP))
    assert good.returncode == 0
    assert json.loads(good.stdout) == {"violations": []}


def test_compgroup_and_specialize(tmp_path):
    theta = write(tmp_path, "theta.json", THETA)
    spec = run_cli("specialize", theta, "--weights", "1,1,1")
    assert json.loads(spec.stdout) == {"h": 2, "entries": [[2, 1], [1, 2]]}
    comp = run_cli("compgroup", theta)
    assert json.loads(comp.stdout) == {"divisors": [3]}


def test_torsion_and_hodge(tmp_path):
    loop = write(tmp_path, "loop.json", LOOP)
    torsion = run_cli("torsion", loop, "--mod", "5")
    assert json.loads(torsion.stdout) == {
        "modulus": 5,
        "gr_-1": 1,
        "gr_0": 0,
        "gr_1": 1,
    }
    hodge = run_cli("hodge", loop)
    assert json.loads(hodge.stdout) == {"gr_-1": [1, 0], "gr_0": [0, 0], "gr_1": [1, 1]}
    bad = run_cli("torsion", loop, "--mod", "1")
    assert bad.returncode == 2


def test_unknown_flag_exit_2(tmp_path):
    result = run_cli("pairing", write(tmp_path, "loop.json", LOOP), "--frobnicate")
    assert result.returncode == 2
    assert "frobnicate" in result.stderr


def test_unreadable_file_names_path():
    result = run_cli("pairing", "/no/such/file.json")
    assert result.returncode == 1
    assert "/no/such/file.json" in result.stderr


def test_malformed_json_names_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = run_cli("pairing", str(path))
    assert result.returncode == 1
    assert "malformed JSON" in result.stderr and "broken.json" in result.stderr
    # Bytes that are not UTF-8, nesting past the parser's recursion limit and
    # an integer literal past the int string-conversion limit (Python 3.11+;
    # on 3.10 the payload parses and is rejected for its shape instead).
    payloads = {
        "latin.json": b"\xff\xfe{}",
        "deep.json": b"[" * 200_000 + b"]" * 200_000,
        "digits.json": b"[" + b"9" * 5000 + b"]",
    }
    for name, payload in payloads.items():
        path = tmp_path / name
        path.write_bytes(payload)
        for args in (
            ("compgroup", str(path)),
            ("extpan", "--p", "2", "--q", "2", "--r", "2", "--e", str(path)),
        ):
            result = run_cli(*args)
            assert result.returncode == 1, (args, result.stderr)
            assert name in result.stderr and "Traceback" not in result.stderr


def test_unknown_curve_key_rejected(tmp_path):
    data = dict(LOOP)
    data["color"] = "blue"
    result = run_cli("pairing", write(tmp_path, "extra.json", data))
    assert result.returncode == 1
    assert "color" in result.stderr


def test_weights_validation(tmp_path):
    loop = write(tmp_path, "loop.json", LOOP)
    assert run_cli("specialize", loop, "--weights", "0").returncode == 2
    assert run_cli("specialize", loop, "--weights", "1,2").returncode == 2
    assert run_cli("specialize", loop, "--weights", "x").returncode == 2


def test_integer_flags_take_ascii_digits_only(tmp_path, capsys):
    """--weights and the group specs of extpan read an optional sign and
    ASCII digits, surrounding spaces dropped; underscores and non-ASCII
    digits, which int() reads, are refused with the usual message."""
    loop = write(tmp_path, "loop.json", LOOP)
    code, out, _ = run_in_process(capsys, "specialize", loop, "--weights", " 2 ")
    assert code == 0 and json.loads(out)["entries"] == [[2]]
    for weights in ("1_0", "\uff11", "1 0"):
        code, out, err = run_in_process(capsys, "specialize", loop, "--weights", weights)
        assert (code, out) == (2, "")
        assert err == "flag error: --weights must be a comma-separated list of integers\n"
    for weights in ("0", "-1"):
        code, _, err = run_in_process(capsys, "specialize", loop, "--weights=" + weights)
        assert (code, err) == (2, "flag error: --weights entries must all be >= 1\n")
    for spec in ("1_0", "\uff12"):
        code, out, err = run_in_process(capsys, "extpan", "--p", spec, "--q", "2", "--r", "2")
        assert (code, out) == (2, "")
        assert err == "flag error: --p: group spec %r: %r is not an integer\n" % (spec, spec)
    code, _, err = run_in_process(capsys, "extpan", "--p", "0", "--q", "2", "--r", "2")
    assert code == 2 and "factor 0 must be positive" in err


def test_weight_count_checked_before_the_gram_matrix(tmp_path, capsys, monkeypatch):
    """A huge base rank with too few weights exits 2 at once: the weights
    are resolved after validation and before any cycle basis or pairing
    matrix.  An invalid curve still exits 1 first."""
    from monopair import cli

    def refuse(*args):
        raise AssertionError("the Gram matrix was built")

    monkeypatch.setattr(cli, "cycle_basis", refuse)
    monkeypatch.setattr(cli, "pairing_matrix", refuse)
    huge = write(tmp_path, "huge.json", {
        "base_rank": 1000000, "vertices": [{"id": "v", "genus": 1}], "edges": []})
    message = "flag error: --weights needs one entry per base generator (1000000), got 1\n"
    for command in ("specialize", "pl", "compgroup"):
        assert run_in_process(capsys, command, huge, "--weights", "1") == (2, "", message)
    bad = dict(LOOP, edges=[{"id": "e0", "src": "v0", "dst": "w", "length": [1]}])
    invalid = write(tmp_path, "invalid.json", bad)
    for command in ("specialize", "pl", "compgroup"):
        code, out, err = run_in_process(capsys, command, invalid, "--weights", "1,2")
        assert (code, out) == (1, "") and "'w' is not a declared vertex" in err


def test_compgroup_builds_no_gram_matrix(tmp_path, capsys, monkeypatch):
    from monopair import graphs, pairing

    def refuse(self):
        raise AssertionError("%s was built" % type(self).__name__)

    for cls in (graphs.CycleBasis, pairing.PairingMatrix, pairing.IntSymMatrix):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    theta = write(tmp_path, "theta.json", THETA)
    assert run_in_process(capsys, "compgroup", theta, "--weights", "1,2,3") == (
        0, '{\n  "divisors": [\n    11\n  ]\n}\n', "")


def run_in_process(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_main_calls_match_fresh_runs(tmp_path, capsys):
    """The parser is built once per process; no call may see the flags or
    defaults of the call before it."""
    theta = write(tmp_path, "theta.json", THETA)
    sequence = [
        ("pl", theta, "--mod", "3"),
        ("pl", theta),
        ("compgroup", theta, "--format", "text"),
        ("compgroup", theta),
        ("pl", theta, "--frobnicate"),
        ("pl", theta, "--mod", "1"),
        ("pairing", theta),
    ]
    codes = []
    for args in sequence:
        fresh = run_cli(*args)
        assert run_in_process(capsys, *args) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(fresh.returncode)
    assert codes == [0, 0, 0, 0, 2, 2, 0]


def test_determinism_byte_identical(tmp_path):
    theta = write(tmp_path, "theta.json", THETA)
    first = run_cli("pairing", theta)
    second = run_cli("pairing", theta)
    assert first.stdout == second.stdout
    a = run_cli("selftest", "--seed", "0", "--count", "5")
    b = run_cli("selftest", "--seed", "0", "--count", "5")
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_selftest_flags():
    result = run_cli("selftest", "--seed", "0", "--count", "0")
    assert result.returncode == 2
    result = run_cli("selftest", "--seed", "1", "--count", "3")
    report = json.loads(result.stdout)
    assert report["all_passed"] is True
    assert {p["name"] for p in report["properties"]} >= {
        "cycle_basis_spans_kernel",
        "specialized_pairing_positive_definite",
        "variegated_torsor_axioms",
    }


def test_golden_pl_report_bytes(tmp_path):
    """Exact bytes, locking key order and layout of the operator report."""
    loop = write(tmp_path, "loop.json", LOOP)
    result = run_cli("pl", loop, "--weights", "3", "--winding", "1")
    assert result.stdout == (
        "{\n"
        '  "modulus": 0,\n'
        '  "h": 1,\n'
        '  "a": 0,\n'
        '  "w": 1,\n'
        '  "matrix": [\n'
        "    [\n"
        "      1,\n"
        "      3\n"
        "    ],\n"
        "    [\n"
        "      0,\n"
        "      1\n"
        "    ]\n"
        "  ]\n"
        "}\n"
    )


def test_golden_pairing_and_specialize_report_bytes(tmp_path):
    """Exact bytes of the symbolic and the specialized Gram report, h = 2."""
    theta = write(tmp_path, "theta.json", THETA)
    pairing = run_cli("pairing", theta)
    assert pairing.returncode == 0
    assert pairing.stdout == (
        '{\n  "h": 2,\n  "base_rank": 3,\n  "entries": [\n'
        "    [\n      [\n        1,\n        1,\n        0\n      ],\n"
        "      [\n        1,\n        0,\n        0\n      ]\n    ],\n"
        "    [\n      [\n        1,\n        0,\n        0\n      ],\n"
        "      [\n        1,\n        0,\n        1\n      ]\n    ]\n"
        "  ]\n}\n"
    )
    spec = run_cli("specialize", theta, "--weights", "1,2,3")
    assert spec.returncode == 0
    assert spec.stdout == (
        '{\n  "h": 2,\n  "entries": [\n'
        "    [\n      3,\n      1\n    ],\n"
        "    [\n      1,\n      4\n    ]\n"
        "  ]\n}\n"
    )


def test_text_format(tmp_path):
    loop = write(tmp_path, "loop.json", LOOP)
    result = run_cli("pl", loop, "--format", "text")
    assert result.returncode == 0
    assert "winding" in result.stdout
    result = run_cli("compgroup", loop, "--format", "text")
    assert "trivial" in result.stdout


def test_reports_reparse_under_schema(tmp_path):
    theta = write(tmp_path, "theta.json", THETA)
    report = json.loads(run_cli("pairing", theta).stdout)
    assert set(report) == {"h", "base_rank", "entries"}
    assert all(
        isinstance(c, int)
        for row in report["entries"]
        for vec in row
        for c in vec
    )
    op = json.loads(run_cli("pl", theta).stdout)
    assert set(op) == {"modulus", "h", "a", "w", "matrix"}
    ext = json.loads(run_cli("extpan", "--p", "2", "--q", "2", "--r", "1").stdout)
    assert set(ext) == {
        "fiber_size",
        "ext1_order",
        "stabilizer_order",
        "transitive",
        "section_ok",
    }