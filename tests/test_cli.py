from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab import CharCertificate, MatrixGF, represent
from spikelab.cli import build_parser, main


def run_cli(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else {})


def run_to_file(tmp_path, name: str, *argv: str) -> tuple[int, dict, str]:
    path = tmp_path / name
    code = main([*argv, "--output", str(path)])
    raw = path.read_text()
    return code, json.loads(raw), raw


# envelope and basic subcommands ---------------------------------------------------


def test_envelope_shape(capsys):
    code, doc = run_cli(capsys, "signature", "--diag", "p=3;x=2,2,1,1")
    assert code == 0
    assert set(doc) == {"schema", "command", "params", "result", "timing"}
    assert doc["schema"] == 1
    assert doc["command"] == "signature"
    assert doc["params"] == {"diag": "p=3;x=2,2,1,1"}
    assert "elapsed_ms" in doc["timing"]
    assert "elapsed_ms" not in doc["result"] and "ms" not in doc["result"]


def test_signature_payload(capsys):
    _, doc = run_cli(capsys, "signature", "--diag", "p=3;x=2,2,1,1")
    r = doc["result"]
    assert r["hex"] == "1886"
    assert r["size"] == 5
    assert [1] in r["members"] and [3, 4] in r["members"]
    assert r["balanced"] == [-1, -1, 1, 1]


def test_axioms_ok(capsys):
    code, doc = run_cli(capsys, "axioms", "--diag", "p=5;x=4,1,3")
    assert code == 0
    assert doc["result"]["holds"] is True


def test_normalize_and_canonical(capsys):
    _, doc = run_cli(capsys, "normalize", "--diag", "p=3;x=1,1,1")
    assert doc["result"]["normalized"] == [2, 1, 2]
    _, doc = run_cli(capsys, "canonical", "--diag", "p=3;x=2,2,2")
    assert doc["result"]["canonical"] == [1, 1, 1]
    assert doc["result"]["orbit_size"] == 5


def test_enumerate(capsys):
    code, doc = run_cli(capsys, "enumerate", "--p", "3", "--n", "3")
    assert code == 0
    assert doc["result"]["class_count"] == 2
    assert doc["result"]["total_diagonals"] == 8


def test_lemma_commands(capsys):
    code, doc = run_cli(capsys, "lemma21", "--p", "3", "--n", "2")
    assert code == 0 and doc["result"]["failures"] == []
    code, doc = run_cli(capsys, "lemma22", "--p", "3", "--n", "3")
    assert code == 0 and doc["result"]["failures"] == []


def test_detcheck(capsys):
    code, doc = run_cli(
        capsys, "detcheck", "--p", "7", "--n-max", "5", "--samples", "50", "--seed", "3"
    )
    assert code == 0
    assert doc["result"]["checked"] == 50 and doc["result"]["failures"] == []


def test_unique(capsys):
    code, doc = run_cli(capsys, "unique", "--p", "3", "--n", "5")
    assert code == 0
    assert doc["result"]["collisions"] == 0
    assert doc["result"]["diagonals"] == 32


def test_unique_below_threshold_collisions_are_not_failures(capsys):
    code, doc = run_cli(capsys, "unique", "--p", "5", "--n", "3")
    assert code == 0  # n < 2p-1: no injectivity promise, informational only
    assert doc["result"]["collisions"] > 0


def test_unique_past_int16_inverses(capsys):
    # n = 1 at p > 2^15: inverse entries need more than 16 bits
    code, doc = run_cli(capsys, "unique", "--p", "40009", "--n", "1")
    assert code == 0
    assert doc["result"]["distinct_signatures"] == 2
    assert doc["result"]["collisions"] == 40006


def test_transfer(capsys):
    code, doc = run_cli(capsys, "transfer", "--diag", "p=3;x=2,2,2,1", "--q", "5")
    assert code == 0
    assert doc["result"]["witness"] == [4, 4, 4, 1]
    code, doc = run_cli(capsys, "transfer", "--diag", "p=3;x=2,2,1,1", "--q", "5")
    assert code == 0
    assert doc["result"]["witness"] is None


def test_charset(capsys):
    code, doc = run_cli(
        capsys, "charset", "--diag", "p=3;x=2,2,1,1", "--primes", "2,5,7,11,13"
    )
    assert code == 0
    r = doc["result"]
    assert [v["representable"] for v in r["verdicts"]] == ["no"] * 5
    assert r["certificate"]["admissible_primes"] == [3]


def test_construct(capsys):
    code, doc = run_cli(capsys, "construct", "prop41", "--p", "3", "--q", "5")
    assert code == 0
    assert doc["result"]["diagonal"] == [2, 2, 2, 1]
    assert doc["result"]["diagonal_mod_q"] == [4, 4, 4, 1]
    code, doc = run_cli(capsys, "construct", "prop43", "--p", "5")
    assert code == 0
    assert doc["result"]["diagonal"] == [4, 4, 1, 2, 3, 1]
    assert doc["result"]["inverse_integers"] == [-1, -1, 1, -2, 2, -4]


def test_lbound(capsys):
    code, doc = run_cli(capsys, "lbound", "--p", "2", "--primes", "2,3,5", "--n-max", "4")
    assert code == 0
    assert doc["result"]["found_n"] == 3
    assert doc["result"]["in_interval"] is True


# exit codes ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["signature", "--diag", "p=4;x=1,2"],  # composite modulus
        ["signature", "--diag", "nonsense"],
        ["signature", "--diag", "p=3;x=0,1"],
        ["enumerate", "--p", "4", "--n", "3"],
        ["enumerate", "--p", "3", "--n", "9"],  # above the enumeration cap
        ["lemma21", "--p", "5", "--n", "2"],  # too short for the guarantee
        ["charset", "--diag", "p=3;x=1,1", "--primes", "5,x"],
        ["transfer", "--diag", "p=3;x=1,1", "--q", "6"],
        ["detcheck", "--p", "5", "--n-max", "0"],  # no matrix size to sample
        ["detcheck", "--p", "5", "--samples", "-1"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no report on the data stream
    assert "error" in captured.err.lower() or captured.err


_NEGATIVE_BUDGET = "node budget must be >= 0, got -1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transfer", "--diag", "p=3;x=1,1,1", "--q", "3", "--node-budget", "-1"],
         _NEGATIVE_BUDGET),
        (["charset", "--diag", "p=3;x=1,1,1", "--primes", "3", "--node-budget", "-1"],
         _NEGATIVE_BUDGET),
        (["unique", "--p", "3", "--n", "-1"], "audit needs n >= 1, got -1"),
        (["unique", "--p", "3", "--n", "0"], "audit needs n >= 1, got 0"),
        (["enumerate", "--p", "3", "--n", "-1"], "enumeration needs n >= 1, got -1"),
        (["enumerate", "--p", "3", "--n", "0"], "enumeration needs n >= 1, got 0"),
        (["detcheck", "--p", "5", "--n-max", "13"],
         "determinant check capped at n_max=12, got 13"),
        (["detcheck", "--p", "5", "--n-max", "1000"],
         "determinant check capped at n_max=12, got 1000"),
        (["detcheck", "--p", "5", "--samples", "10001"],
         "determinant check capped at 10000 samples, got 10001"),
    ],
)
def test_refused_sizes_exit_2_with_message(capsys, monkeypatch, argv, message):
    def no_elimination(self):
        raise AssertionError("a refused call must not eliminate")

    monkeypatch.setattr(MatrixGF, "det", no_elimination)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["charset", "--diag", "p=3;x=1,1", "--primes", "5,x"],
        ["lbound", "--p", "3", "--primes", "2,,three", "--n-max", "4"],
        ["lbound", "--p", "3", "--primes", "", "--n-max", "4"],  # nothing to test
        ["charset", "--diag", "p=3;x=1,1", "--primes", ","],
    ],
)
def test_bad_primes_exit_2_with_message(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected comma-separated primes" in captured.err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_argument_exits_2(capsys):
    assert main(["signature"]) == 2


def test_axioms_refused_past_cap_before_rank_work(capsys, monkeypatch):
    def no_rank(self):
        raise AssertionError("rank work ran past the axioms cap")

    monkeypatch.setattr(MatrixGF, "rank", no_rank)
    assert main(["axioms", "--diag", "p=3;x=" + ",".join(["1"] * 13)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: axiom check capped at n=12\n"


def test_budget_exhaustion_exits_3(capsys):
    code = main(["transfer", "--diag", "p=3;x=1,1,1,1", "--q", "11", "--node-budget", "2"])
    assert code == 3
    assert capsys.readouterr().out == ""


def test_certificate_budget_exhaustion_exits_3(capsys, monkeypatch):
    # the per-prime searches of one certificate share the audit's budget
    monkeypatch.setattr(represent, "AUDIT_BUDGET", 1000)
    assert main(["charset", "--diag", "p=13;x=1,1,1,3,8,9", "--primes", "13"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: subset-sum budget exhausted searching GF(")
    assert captured.err.count("\n") == 1


def test_charset_certificate_answers_where_search_runs_out(capsys):
    code, doc = run_cli(
        capsys,
        "charset", "--diag", "p=3;x=1,1,1", "--primes", "7", "--node-budget", "2",
    )
    assert code == 0
    r = doc["result"]
    assert r["budget_exhausted"] == [7]
    v = r["verdicts"][0]
    assert v["representable"] == "yes" and v["method"] == "certificate"
    _, sig7 = run_cli(capsys, "signature", "--diag", "p=7;x=" + ",".join(map(str, v["witness"])))
    _, sig3 = run_cli(capsys, "signature", "--diag", "p=3;x=1,1,1")
    assert sig7["result"]["members"] == sig3["result"]["members"]


def test_normalize_empty_signature_exits_2(capsys):
    # no circuit-hyperplane to normalize at: input outside the command's domain
    assert main(["normalize", "--diag", "p=5;x=1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_charset_certificate_disagreement_exits_1(capsys, monkeypatch):
    # a certificate admitting no prime contradicts the search's GF(3) witness
    def contradicting(sig):
        return CharCertificate(n=sig.n, sig_bits=sig.bits, m=None, kind="finite")

    monkeypatch.setattr(represent, "build_certificate", contradicting)
    assert main(["charset", "--diag", "p=3;x=1,1,1", "--primes", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: certificate and search disagree")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_lbound_confirming_run_disagreement_exits_1(capsys, monkeypatch):
    real = represent.characteristic_set

    def flip_first_verdict(x, primes, node_budget):
        report = real(x, primes, node_budget)
        v = report["verdicts"][0]
        v["representable"] = {"yes": "no", "no": "yes"}[v["representable"]]
        return report

    monkeypatch.setattr(represent, "characteristic_set", flip_first_verdict)
    assert main(["lbound", "--p", "2", "--primes", "2,3,5", "--n-max", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: confirming run disagrees with the certificate")
    assert captured.err.count("\n") == 1


# fuzzed --diag and --primes never escape as a traceback

_number = st.integers(-3, 120).map(str)
_token = st.one_of(_number, st.sampled_from(["", " 1", "x", "1.5", "+1", "0x3", "65521"]))
_well_formed = st.sampled_from([2, 3, 5, 7, 13, 65521]).flatmap(
    lambda p: st.lists(st.integers(1, p - 1).map(str), min_size=1, max_size=6).map(
        lambda xs: f"p={p};x=" + ",".join(xs)
    )
)
_garbled = st.builds(
    lambda p, xs: f"p={p};x=" + ",".join(xs),
    st.one_of(st.sampled_from(["65537", "4", "1", "-3"]), _token),
    st.lists(_token, max_size=6),
)
# free text of 16 characters holds at most five entries, so n stays small
_diag = st.one_of(_well_formed, _garbled, st.text(max_size=16))
_q = st.one_of(st.sampled_from(["2", "3", "5", "7", "11", "97"]), _token)
_primes = st.one_of(
    st.lists(_q, max_size=4).map(",".join),
    st.lists(st.text(max_size=3), max_size=4).map(",".join),
)


@settings(max_examples=150, deadline=None)
@given(
    cmd=st.sampled_from(["axioms", "signature", "normalize", "canonical", "transfer", "charset"]),
    diag=_diag,
    q=_q,
    primes=_primes,
)
def test_fuzzed_diag_and_primes_exit_with_a_code(cmd, diag, q, primes):
    argv = [cmd, "--diag", diag]
    if cmd == "transfer":
        argv += ["--q", q, "--node-budget", "200"]
    elif cmd == "charset":
        argv += ["--primes", primes, "--node-budget", "200"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


# output file and determinism ---------------------------------------------------------


def test_output_file_matches_stdout(tmp_path, capsys):
    code, doc = run_cli(capsys, "enumerate", "--p", "3", "--n", "4")
    code2, doc2, raw = run_to_file(tmp_path, "census.json", "enumerate", "--p", "3", "--n", "4")
    assert code == code2 == 0
    assert doc["result"] == doc2["result"]
    assert raw.endswith("\n")
    assert doc2["params"] == {"p": 3, "n": 4}  # --output is not echoed as a param


def test_output_overwrites_atomically(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("stale")
    main(["axioms", "--diag", "p=3;x=1,1,1", "--output", str(path)])
    doc = json.loads(path.read_text())
    assert doc["result"]["holds"] is True
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("target", ["missing/r.json", "is_a_dir"])
def test_unwritable_output_exits_2(tmp_path, capsys, target):
    (tmp_path / "is_a_dir").mkdir()
    path = tmp_path / target
    assert main(["signature", "--diag", "p=3;x=1,1,1", "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.rglob("*.tmp"))


_BUDGET = represent.DEFAULT_NODE_BUDGET

# (argv, the params echo it must produce, in key order)
SUBCOMMANDS = [
    (["axioms", "--diag", "p=3;x=1,1,1"], {"diag": "p=3;x=1,1,1"}),
    (["signature", "--diag", "p=3;x=2,2,1,1"], {"diag": "p=3;x=2,2,1,1"}),
    (["normalize", "--diag", "p=3;x=1,1,1"], {"diag": "p=3;x=1,1,1"}),
    (["canonical", "--diag", "p=3;x=2,2,2"], {"diag": "p=3;x=2,2,2"}),
    (["enumerate", "--p", "3", "--n", "3"], {"p": 3, "n": 3}),
    (["lemma21", "--p", "3", "--n", "2"], {"p": 3, "n": 2}),
    (["lemma22", "--p", "3", "--n", "3"], {"p": 3, "n": 3}),
    (
        ["detcheck", "--p", "5", "--n-max", "5", "--samples", "60", "--seed", "1"],
        {"p": 5, "n_max": 5, "samples": 60, "seed": 1},
    ),
    (["unique", "--p", "3", "--n", "4"], {"p": 3, "n": 4}),
    (
        ["transfer", "--diag", "p=3;x=2,2,2,1", "--q", "5"],
        {"diag": "p=3;x=2,2,2,1", "q": 5, "node_budget": _BUDGET},
    ),
    (
        ["charset", "--diag", "p=3;x=2,2,1,1", "--primes", "2,5,7"],
        {"diag": "p=3;x=2,2,1,1", "primes": [2, 5, 7], "node_budget": _BUDGET},
    ),
    (["construct", "prop41", "--p", "3", "--q", "5"], {"variant": "prop41", "p": 3, "q": 5}),
    (["construct", "prop43", "--p", "3"], {"variant": "prop43", "p": 3}),
    (
        ["lbound", "--p", "2", "--primes", "2,3,5", "--n-max", "3"],
        {"p": 2, "primes": [2, 3, 5], "n_max": 3, "node_budget": _BUDGET},
    ),
]


@pytest.mark.parametrize(
    "argv, params",
    SUBCOMMANDS,
    ids=[a[0] + ("-" + a[1] if a[0] == "construct" else "") for a, _ in SUBCOMMANDS],
)
def test_every_subcommand_is_deterministic(capsys, argv, params):
    code1, doc1 = run_cli(capsys, *argv)
    code2, doc2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    payload1 = json.dumps(doc1["result"], indent=2).encode()
    payload2 = json.dumps(doc2["result"], indent=2).encode()
    assert payload1 == payload2
    assert list(doc1["params"].items()) == list(params.items())
    assert doc1["params"] == doc2["params"]


def test_params_echo_skips_unset_options_and_output(tmp_path, capsys):
    _, doc = run_cli(capsys, "construct", "prop41", "--p", "3")
    assert list(doc["params"].items()) == [("variant", "prop41"), ("p", 3)]
    path = tmp_path / "r.json"
    assert main(["--output", str(path), "charset", "--diag", "p=3;x=1,1,1", "--primes", "5"]) == 0
    doc = json.loads(path.read_text())
    expected = {"diag": "p=3;x=1,1,1", "primes": [5], "node_budget": _BUDGET}
    assert list(doc["params"].items()) == list(expected.items())


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "axioms", "signature", "normalize", "canonical", "enumerate", "lemma21",
        "lemma22", "detcheck", "unique", "transfer", "charset", "construct", "lbound",
    ):
        assert name in text
