from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import random
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spikelab
from spikelab import (
    CharCertificate,
    Diagonal,
    PrimeField,
    Signature,
    represent,
    signature,
    spikes,
)
from spikelab.cli import build_parser, main

from oracles import closure_rows_by_swaps, random_diagonal
from test_acceptance import CLI_RUNS


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


def test_results_carry_answers_only(capsys):
    # no search counts, no route labels, no echo of the envelope's command
    _, doc = run_cli(capsys, "transfer", "--diag", "p=3;x=2,2,2,1", "--q", "5")
    assert set(doc["result"]) == {
        "p", "n", "diagonal", "q", "signature_hex", "witness", "witness_text"
    }
    _, doc = run_cli(capsys, "charset", "--diag", "p=3;x=1,1,1", "--primes", "2,3")
    r = doc["result"]
    assert set(r) == {"p", "n", "diagonal", "primes", "verdicts", "certificate"}
    assert [set(v) for v in r["verdicts"]] == [{"q", "representable", "witness"}] * 2
    assert set(r["certificate"]) == {"kind", "singleton_integers", "excluded_primes"}
    _, doc = run_cli(capsys, "lbound", "--p", "3", "--primes", "2,3,5,7", "--n-max", "4")
    assert set(doc["result"]) == {
        "p", "n_max", "primes", "found_n", "witness", "witness_text", "certificate",
        "interval", "in_interval", "levels",
    }
    _, doc = run_cli(capsys, "unique", "--p", "3", "--n", "4")
    assert set(doc["result"]) == {
        "p", "n", "diagonals", "distinct_signatures", "collisions", "collision_examples"
    }


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


_THIRTEEN = "p=2;x=" + ",".join(["1"] * 13)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transfer", "--diag", _THIRTEEN, "--q", "3"], "search capped at n=12, got 13"),
        (["charset", "--diag", _THIRTEEN, "--primes", "3"],
         "characteristic decision capped at n=12"),
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
        (["canonical", "--diag", "p=3;x=" + ",".join(["1"] * 8)],
         "swap closure capped at n=7, got 8"),
        (["enumerate", "--p", "3", "--n", "8"], "swap closure capped at n=7, got 8"),
    ],
)
def test_refused_sizes_exit_2_with_message(capsys, monkeypatch, argv, message):
    def refused(*args):
        raise AssertionError("a refused call must not eliminate or swap")

    # every rank, determinant and reduction runs through the one kernel
    monkeypatch.setattr(spikelab.matrix, "_echelon", refused)
    monkeypatch.setattr(spikes, "swap", refused)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["lbound", "--p", "3", "--primes", "2,3,5,7", "--n-max", "3", "--node-budget", "-1"],
        ["lbound", "--p", "3", "--primes", "2,3,5,7", "--n-max", "4", "--node-budget", "-1"],
        ["charset", "--diag", "p=3;x=1,1,1", "--primes", "3", "--node-budget", "-1"],
    ],
)
def test_negative_node_budget_refused_before_any_certificate(capsys, monkeypatch, argv):
    # the search has no budget option: the parser refuses the flag as a usage error
    def refused(*args):
        raise AssertionError("a refused call must not enumerate or certify")

    monkeypatch.setattr(represent, "build_certificate", refused)
    monkeypatch.setattr(represent, "_enumerate_orbits", refused)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(" error: unrecognized arguments: --node-budget -1\n")


def test_lbound_past_prime_cap_refused_before_any_work(capsys, monkeypatch):
    def refused(*args):
        raise AssertionError("a refused call must not enumerate or eliminate")

    monkeypatch.setattr(represent, "_enumerate_orbits", refused)
    monkeypatch.setattr(represent, "_rational_part", refused)
    assert main(["lbound", "--p", "19", "--primes", "2,3", "--n-max", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: experiment capped at p=17\n"


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
    def no_rank(*args):
        raise AssertionError("rank work ran past the axioms cap")

    monkeypatch.setattr(spikelab.matrix, "_echelon", no_rank)
    assert main(["axioms", "--diag", "p=3;x=" + ",".join(["1"] * 25)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: axiom check capped at n=24\n"


def test_signature_report_refused_past_member_cap_before_listing(capsys, monkeypatch):
    # x = 1 taken n times over GF(3): the members are the sets of size 2 mod 3,
    # 43691 at n = 17 and 87381 at n = 18, on either side of the 2^16 cap
    listed = []

    def no_listing(self):
        listed.append(self.size)
        assert self.size <= 1 << 16, "members listed past the report cap"
        return ()

    monkeypatch.setattr(Signature, "member_indices", no_listing)
    assert main(["signature", "--diag", "p=3;x=" + ",".join(["1"] * 18)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 87381 members exceed the report cap 65536\n"
    assert main(["signature", "--diag", "p=3;x=" + ",".join(["1"] * 17)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["size"] == 43691
    assert listed == [43691]


def test_budget_exhaustion_exits_3(capsys, monkeypatch):
    # only a search whose lattice and solution-space routes both run out fails
    monkeypatch.setattr(represent, "_LATTICE_CAP", 2)
    monkeypatch.setattr(represent, "AUDIT_BUDGET", 2)
    code = main(["transfer", "--diag", "p=13;x=1,1,1,3,8,9", "--q", "13"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: subset-sum budget exhausted searching GF(13)\n"


@pytest.mark.parametrize(
    "diag, q, witness",
    [
        # eleven members at n = 8; the lex-least point lies past the cap
        ("p=13;x=8,8,9,4,6,4,11,4", "251", [126, 126, 168, 83, 249, 83, 188, 83]),
        # seven members at n = 10 leave no point over GF(19)
        ("p=97;x=17,69,11,61,32,90,11,55,74,86", "19", None),
    ],
)
def test_transfer_hands_over_past_the_lattice_cap(capsys, diag, q, witness):
    code, doc = run_cli(capsys, "transfer", "--diag", diag, "--q", q)
    assert code == 0
    assert doc["result"]["witness"] == witness
    sums = represent.search_rep(signature(Diagonal.parse(diag)), int(q))[1]
    assert sums > represent._LATTICE_CAP


def test_certificate_budget_exhaustion_exits_3(capsys, monkeypatch):
    # the per-prime searches of one certificate share the audit's budget
    monkeypatch.setattr(represent, "AUDIT_BUDGET", 1000)
    assert main(["charset", "--diag", "p=13;x=1,1,1,3,8,9", "--primes", "13"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: subset-sum budget exhausted searching GF(")
    assert captured.err.count("\n") == 1


def test_charset_certificate_answers_where_search_runs_out(capsys, monkeypatch):
    monkeypatch.setattr(represent, "_LATTICE_CAP", 2)
    code, doc = run_cli(capsys, "charset", "--diag", "p=3;x=1,1,1", "--primes", "7")
    assert code == 0
    sig = signature(Diagonal.parse("p=3;x=1,1,1"))
    assert represent.search_rep(sig, 7)[1] > represent._LATTICE_CAP
    v = doc["result"]["verdicts"][0]
    assert v["representable"] == "yes"
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
    # the winning class's confirming run searches every tested prime again
    real = represent.search_rep

    def flip_gf3(sig, q):
        witness, sums = real(sig, q)
        if q == 3:
            witness = None if witness else Diagonal(PrimeField(q), (1,) * sig.n)
        return witness, sums

    monkeypatch.setattr(represent, "search_rep", flip_gf3)
    assert main(["lbound", "--p", "2", "--primes", "2,3,5", "--n-max", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: certificate and search disagree at q=3")
    assert captured.err.count("\n") == 1


def _drop_last_row(monkeypatch):
    # every closure loses its last mask, the full swap
    kernel = spikes._closure_rows

    def dropped(p, x, z):
        rows, valid = kernel(p, x, z)
        valid[:, -1] = False
        return rows, valid

    monkeypatch.setattr(spikes, "_closure_rows", dropped)


def _overcount(monkeypatch):
    count = spikes._arrangement_counts

    def over(*args):
        counts, patterns = count(*args)
        return [c + 1 for c in counts], patterns

    monkeypatch.setattr(spikes, "_arrangement_counts", over)


def _swap_to_ones(monkeypatch):
    monkeypatch.setattr(spikes, "swap", lambda x, S: Diagonal(x.field, (1,) * x.n))


@pytest.mark.parametrize(
    "fault, argv, message",
    [
        (_drop_last_row, ["enumerate", "--p", "3", "--n", "3"], "lex scan met the orbit"),
        (_overcount, ["enumerate", "--p", "3", "--n", "3"], "orbit sizes add up to 12"),
        (_swap_to_ones, ["normalize", "--diag", "p=3;x=1,1,1"], "normalize gave first entry 1"),
    ],
    ids=["lex-minimum", "partition", "normalize"],
)
def test_orbit_self_checks_exit_1_with_one_error_line(capsys, monkeypatch, fault, argv, message):
    fault(monkeypatch)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_census_self_check_survives_optimized_python():
    # the checks are raises, not asserts, so python -O keeps them
    script = textwrap.dedent("""
        import sys
        from spikelab import cli, spikes

        kernel = spikes._closure_rows

        def dropped(p, x, z):
            rows, valid = kernel(p, x, z)
            valid[:, -1] = False
            return rows, valid

        spikes._closure_rows = dropped
        sys.exit(cli.main(["enumerate", "--p", "3", "--n", "3"]))
    """)
    src = str(Path(spikelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith("error: lex scan met the orbit")
    assert run.stderr.count("\n") == 1


def test_gate_commands_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma costs about 15 ms to import; no command of the gates needs it
    argvs = [*CLI_RUNS, ["charset", "--diag", "p=5;x=1,2,3,4", "--primes", "2,5,7"]]
    script = textwrap.dedent("""
        import json, sys
        from spikelab.cli import main

        for argv in json.loads(sys.argv[1]):
            assert main([*argv, "--output", sys.argv[2]]) == 0, argv
        print("numpy.ma" in sys.modules)
    """)
    src = str(Path(spikelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs), str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout == "False\n"


def test_readme_commands_run(tmp_path):
    # every spike-lab line of README's sh block, as a user would type it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["spike-lab"]]
    assert len(commands) == 14
    for argv in commands:
        assert main([*argv, "--output", str(tmp_path / "out.json")]) == 0, argv


def test_canonical_builds_one_closure(monkeypatch, capsys):
    built = []
    kernel = spikes._closure_rows

    def counting(p, x, z):
        built.append(x)
        return kernel(p, x, z)

    monkeypatch.setattr(spikes, "_closure_rows", counting)
    code, doc = run_cli(capsys, "canonical", "--diag", "p=7;x=1,2,3,4,5")
    assert code == 0 and doc["result"]["orbit_size"] > 0
    assert [len(x) for x in built] == [1]


def test_closure_users_match_the_per_swap_route(tmp_path, monkeypatch):
    # every CLI_RUNS payload and 50 random canonical queries, through the kernel
    # and through one scalar swap per valid set, must be the same bytes
    rng = random.Random(13)
    canonical = [
        ["canonical", "--diag", random_diagonal(rng, rng.choice((2, 3, 5, 7, 11, 13)),
                                                rng.randint(3, 7)).text()]
        for _ in range(50)
    ]
    argvs = [*CLI_RUNS, *canonical]
    by_kernel = [_echo(tmp_path, argv)[1] for argv in argvs]
    monkeypatch.setattr(spikes, "_closure_rows", closure_rows_by_swaps)
    for argv, payload in zip(argvs, by_kernel):
        assert _echo(tmp_path, argv)[1] == payload, argv


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
        argv += ["--q", q]
    elif cmd == "charset":
        argv += ["--primes", primes]
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
        {"diag": "p=3;x=2,2,2,1", "q": 5},
    ),
    (
        ["charset", "--diag", "p=3;x=2,2,1,1", "--primes", "2,5,7"],
        {"diag": "p=3;x=2,2,1,1", "primes": [2, 5, 7]},
    ),
    (["construct", "prop41", "--p", "3", "--q", "5"], {"variant": "prop41", "p": 3, "q": 5}),
    (["construct", "prop43", "--p", "3"], {"variant": "prop43", "p": 3}),
    (
        ["lbound", "--p", "2", "--primes", "2,3,5", "--n-max", "3"],
        {"p": 2, "primes": [2, 3, 5], "n_max": 3},
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
    expected = {"diag": "p=3;x=1,1,1", "primes": [5]}
    assert list(doc["params"].items()) == list(expected.items())


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "axioms", "signature", "normalize", "canonical", "enumerate", "lemma21",
        "lemma22", "detcheck", "unique", "transfer", "charset", "construct", "lbound",
    ):
        assert name in text


# one parser per process ------------------------------------------------------------


def _echo(tmp_path, argv, output_first=False) -> tuple[bytes, bytes]:
    """The params and result of one successful call, as JSON bytes."""
    path = tmp_path / "echo.json"
    out = ["--output", str(path)]
    assert main([*out, *argv] if output_first else [*argv, *out]) == 0, argv
    doc = json.loads(path.read_text())
    return json.dumps(doc["params"]).encode(), json.dumps(doc["result"]).encode()


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    with_q = ["construct", "prop41", "--p", "5", "--q", "7"]
    without_q = ["construct", "prop41", "--p", "5"]
    fresh = {}
    for argv in [*CLI_RUNS, without_q]:
        spikelab.cli._shared_parser.cache_clear()
        fresh[tuple(argv)] = _echo(tmp_path, argv)
    assert b'"q"' not in fresh[tuple(without_q)][0]

    rng = random.Random(12)
    for _ in range(2):
        order = list(CLI_RUNS)
        rng.shuffle(order)
        for i, argv in enumerate(order):
            assert _echo(tmp_path, argv, output_first=i % 2 == 1) == fresh[tuple(argv)], argv
            if i % 4 == 0:
                assert main(["lemma21", "--p", "5", "--n", "4", "--bogus"]) == 2
                assert main(["enumerate", "--n", "4"]) == 2
            if i % 4 == 2:
                assert _echo(tmp_path, with_q) == fresh[tuple(with_q)]
                assert _echo(tmp_path, without_q) == fresh[tuple(without_q)]
    capsys.readouterr()


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    assert main(["normalize", "--diag", "p=3;x=1,1,1"]) == 0
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cheap = [argv for argv in CLI_RUNS if argv[0] not in ("detcheck", "lbound")]
    for argv in (cheap * 2)[:20]:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert len({argv[0] for argv in cheap}) >= 10
    assert built == []
    assert build_parser() is build_parser()
    # a plain function, so wrappers of module functions (bench/tracer.py) still see it
    assert inspect.isfunction(build_parser)


def test_importing_the_package_builds_no_parser():
    script = textwrap.dedent("""
        import argparse

        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = counting
        import spikelab, spikelab.cli
        at_import = len(built)
        spikelab.cli.build_parser()
        print(at_import, len(built))
    """)
    src = str(Path(spikelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    at_import, after_build = map(int, run.stdout.split())
    assert at_import == 0
    assert after_build > 0
