"""spike-lab: every verification and experiment as a subcommand with JSON output.

Reports are deterministic: timing lives in a separate `timing` field so the
`result` payload is byte-identical across repeated runs with the same
arguments.  Exit codes: 0 success, 1 verified-property failure, 2 usage
error, 3 budget exhaustion or inconclusive experiment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from .errors import BudgetExceededError, InconclusiveError, SpikeLabError
from .matrix import verify_det_identity
from .represent import (
    DEFAULT_NODE_BUDGET,
    characteristic_set,
    construct_char_only,
    construct_multichar,
    estimate_L,
    search_rep,
    uniqueness_audit,
)
from .spikes import (
    Diagonal,
    build_rep,
    canonical_form,
    check_axioms,
    normalize,
    orbit_size,
    signature,
    spike_census,
)
from .zerosum import verify_lemma_2_1, verify_lemma_2_2

SCHEMA_VERSION = 1


def _parse_primes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated primes, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spike-lab",
        description="Exact spike-matroid computations over prime fields.",
    )
    parser.add_argument(
        "--output", default=None, help="write the JSON report to this path (atomic)"
    )
    # accepted after the subcommand too; SUPPRESS keeps a pre-subcommand value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=[common])

    def diag_cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        c = add_cmd(name, help_text)
        c.add_argument("--diag", required=True, metavar="p=<prime>;x=<v1>,...,<vn>")
        return c

    diag_cmd("axioms", "verify the three spike conditions with the rank oracle")
    diag_cmd("signature", "dependent-transversal family of a diagonal")
    diag_cmd("normalize", "weakly equivalent diagonal with first entry -1")
    diag_cmd("canonical", "orbit-minimal diagonal under swaps and relabelings")

    c = add_cmd("enumerate", "census of weak-equivalence classes")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)

    for name, blurb in (
        ("lemma21", "exhaustive nonzero subset-sum guarantee"),
        ("lemma22", "exhaustive zero-sum subset guarantee"),
    ):
        c = add_cmd(name, blurb)
        c.add_argument("--p", type=int, required=True)
        c.add_argument("--n", type=int, required=True)

    c = add_cmd("detcheck", "closed-form determinant vs elimination")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n-max", type=int, default=7)
    c.add_argument("--samples", type=int, default=500)
    c.add_argument("--seed", type=int, default=0)

    c = add_cmd("unique", "signature-map injectivity audit")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)

    c = diag_cmd("transfer", "search for the same signature over another prime field")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    c = diag_cmd("charset", "representability verdicts across primes, with certificate")
    c.add_argument("--primes", required=True, metavar="q1,q2,...")
    c.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    c = add_cmd("construct", "the two integer diagonal constructions")
    c.add_argument(
        "variant",
        choices=["prop41", "prop43"],
        help="prop41: n=2p-2 multi-characteristic; prop43: characteristic-p-only",
    )
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--q", type=int, default=None, help="also reduce mod this prime")

    c = add_cmd("lbound", "least n with a single-characteristic spike")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--primes", required=True, metavar="q1,q2,...")
    c.add_argument("--n-max", type=int, default=5)
    c.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    return parser


def dispatch(args: argparse.Namespace) -> tuple[dict, dict, int]:
    """Run one subcommand; returns (params echo, result payload, exit code)."""
    cmd = args.command

    if cmd == "axioms":
        d = Diagonal.parse(args.diag)
        holds = check_axioms(build_rep(d))
        params = {"diag": args.diag}
        result = {"p": d.p, "n": d.n, "diagonal": list(d.x), "holds": holds}
        return params, result, 0 if holds else 1

    if cmd == "signature":
        d = Diagonal.parse(args.diag)
        sig = signature(d)
        params = {"diag": args.diag}
        result = {
            "p": d.p,
            "n": d.n,
            "diagonal": list(d.x),
            "balanced": list(d.balanced()),
            "hex": sig.hex(),
            "size": sig.size,
            "members": [list(t) for t in sig.member_indices()],
        }
        return params, result, 0

    if cmd == "normalize":
        d = Diagonal.parse(args.diag)
        y = normalize(d)
        params = {"diag": args.diag}
        result = {
            "p": d.p,
            "n": d.n,
            "input": list(d.x),
            "normalized": list(y.x),
            "balanced": list(y.balanced()),
            "text": y.text(),
        }
        return params, result, 0

    if cmd == "canonical":
        d = Diagonal.parse(args.diag)
        c = canonical_form(d)
        params = {"diag": args.diag}
        result = {
            "p": d.p,
            "n": d.n,
            "input": list(d.x),
            "canonical": list(c.x),
            "text": c.text(),
            "orbit_size": orbit_size(d),
        }
        return params, result, 0

    if cmd == "enumerate":
        report = spike_census(args.p, args.n)
        return {"p": args.p, "n": args.n}, report, 0

    if cmd in ("lemma21", "lemma22"):
        verify = verify_lemma_2_1 if cmd == "lemma21" else verify_lemma_2_2
        report = verify(args.p, args.n)
        code = 0 if not report["failures"] else 1
        return {"p": args.p, "n": args.n}, report, code

    if cmd == "detcheck":
        report = verify_det_identity(args.p, args.n_max, args.samples, args.seed)
        params = {
            "p": args.p,
            "n_max": args.n_max,
            "samples": args.samples,
            "seed": args.seed,
        }
        return params, report, 0 if not report["failures"] else 1

    if cmd == "unique":
        report = uniqueness_audit(args.p, args.n)
        # collisions are a theorem violation only in the guaranteed range
        failing = report["collisions"] > 0 and args.n >= 2 * args.p - 1
        return {"p": args.p, "n": args.n}, report, 1 if failing else 0

    if cmd == "transfer":
        d = Diagonal.parse(args.diag)
        sig = signature(d)
        witness, nodes = search_rep(sig, args.q, args.node_budget)
        params = {"diag": args.diag, "q": args.q, "node_budget": args.node_budget}
        result = {
            "p": d.p,
            "n": d.n,
            "diagonal": list(d.x),
            "q": args.q,
            "signature_hex": sig.hex(),
            "witness": list(witness.x) if witness else None,
            "witness_text": witness.text() if witness else None,
            "nodes_visited": nodes,
        }
        return params, result, 0

    if cmd == "charset":
        d = Diagonal.parse(args.diag)
        primes = _parse_primes(args.primes)
        report = characteristic_set(d, primes, args.node_budget)
        params = {
            "diag": args.diag,
            "primes": primes,
            "node_budget": args.node_budget,
        }
        unknown = any(v["representable"] == "unknown" for v in report["verdicts"])
        return params, report, 3 if unknown else 0

    if cmd == "construct":
        params = {"variant": args.variant, "p": args.p}
        if args.variant == "prop41":
            c = construct_multichar(args.p)
            integers = {"integer_diagonal": list(c.values)}
        else:
            c = construct_char_only(args.p)
            integers = {"inverse_integers": list(c.inverse_values)}
        d = c.over(args.p)
        result = {
            "p": args.p,
            "n": c.n,
            **integers,
            "diagonal": list(d.x),
            "text": d.text(),
        }
        if args.q is not None:
            params["q"] = args.q
            dq = c.over(args.q)
            result["q"] = args.q
            result["diagonal_mod_q"] = list(dq.x)
            result["text_mod_q"] = dq.text()
        return params, result, 0

    if cmd == "lbound":
        primes = _parse_primes(args.primes)
        report = estimate_L(args.p, primes, args.n_max, args.node_budget)
        params = {
            "p": args.p,
            "primes": primes,
            "n_max": args.n_max,
            "node_budget": args.node_budget,
        }
        return params, report, 0

    raise ValueError(f"unknown command {cmd!r}")


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    t0 = time.perf_counter()
    try:
        params, result, code = dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, InconclusiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SpikeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "params": params,
        "result": result,
        "timing": {"elapsed_ms": elapsed_ms},
    }
    _emit(payload, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
