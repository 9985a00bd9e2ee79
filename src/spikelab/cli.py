"""spike-lab: every verification and experiment as a subcommand with JSON output.

Reports are deterministic: timing lives in a separate `timing` field so the
`result` payload is byte-identical across repeated runs with the same
arguments.  Exit codes: 0 success, 1 verified-property failure, 2 usage
error, 3 budget exhausted.

There is one argparse parser per process.  It is built on the first `main`
call, not at import, and every later call reuses it; `build_parser()`
returns that shared parser.  Each call still parses into a fresh namespace,
so no argument carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time

from .errors import BudgetExceededError, SpikeLabError
from .matrix import verify_det_identity
from .represent import (
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

# the signature report lists every member; a dense n = 20 signature would
# list about 350,000 of them, so larger families are refused unlisted
SIGNATURE_REPORT_MAX_MEMBERS = 1 << 16


def _parse_primes(text: str) -> list[int]:
    try:
        primes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        primes = []
    if not primes:
        raise argparse.ArgumentTypeError(f"expected comma-separated primes, got {text!r}")
    return primes


# A handler takes the parsed arguments and the parsed --diag (None without one)
# and returns (result payload, exit code).  Handlers are private and look library
# functions up at call time, so wrappers patched into this module see every call.


def _about(d: Diagonal, key: str = "diagonal") -> dict:
    return {"p": d.p, "n": d.n, key: list(d.x)}


def _verdict(report: dict) -> tuple[dict, int]:
    return report, 1 if report["failures"] else 0


def _axioms(args: argparse.Namespace, d: Diagonal) -> tuple[dict, int]:
    holds = check_axioms(build_rep(d))
    return {**_about(d), "holds": holds}, 0 if holds else 1


def _signature(args: argparse.Namespace, d: Diagonal) -> tuple[dict, int]:
    sig = signature(d)
    if sig.size > SIGNATURE_REPORT_MAX_MEMBERS:
        raise BudgetExceededError(
            f"{sig.size} members exceed the report cap {SIGNATURE_REPORT_MAX_MEMBERS}"
        )
    result = {**_about(d), "balanced": list(d.balanced()), "hex": sig.hex(), "size": sig.size}
    result["members"] = [list(t) for t in sig.member_indices()]
    return result, 0


def _normalize(args: argparse.Namespace, d: Diagonal) -> tuple[dict, int]:
    y = normalize(d)
    return {
        **_about(d, "input"),
        "normalized": list(y.x),
        "balanced": list(y.balanced()),
        "text": y.text(),
    }, 0


def _canonical(args: argparse.Namespace, d: Diagonal) -> tuple[dict, int]:
    c = canonical_form(d)
    return {
        **_about(d, "input"),
        "canonical": list(c.x),
        "text": c.text(),
        "orbit_size": orbit_size(d),
    }, 0


def _unique(args: argparse.Namespace, d: None) -> tuple[dict, int]:
    report = uniqueness_audit(args.p, args.n)
    # collisions are a theorem violation only in the guaranteed range
    failing = report["collisions"] > 0 and args.n >= 2 * args.p - 1
    return report, 1 if failing else 0


def _transfer(args: argparse.Namespace, d: Diagonal) -> tuple[dict, int]:
    sig = signature(d)
    witness, _ = search_rep(sig, args.q)
    return {
        **_about(d),
        "q": args.q,
        "signature_hex": sig.hex(),
        "witness": list(witness.x) if witness else None,
        "witness_text": witness.text() if witness else None,
    }, 0


def _construct(args: argparse.Namespace, d: None) -> tuple[dict, int]:
    if args.variant == "prop41":
        c = construct_multichar(args.p)
        integers = {"integer_diagonal": list(c.values)}
    else:
        c = construct_char_only(args.p)
        integers = {"inverse_integers": list(c.inverse_values)}
    dp = c.over(args.p)
    result = {"p": args.p, "n": c.n, **integers, "diagonal": list(dp.x), "text": dp.text()}
    if args.q is not None:
        dq = c.over(args.q)
        result.update(q=args.q, diagonal_mod_q=list(dq.x), text_mod_q=dq.text())
    return result, 0


def _arg(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


_DIAG = _arg("--diag", required=True, metavar="p=<prime>;x=<v1>,...,<vn>")
_P = _arg("--p", type=int, required=True)
_N = _arg("--n", type=int, required=True)
_PRIMES = _arg("--primes", type=_parse_primes, required=True, metavar="q1,q2,...")
_VARIANT_HELP = "prop41: n=2p-2 multi-characteristic; prop43: characteristic-p-only"

# name -> (help, arguments, handler), in the order the parser lists them
_COMMANDS = {
    "axioms": ("verify the three spike conditions with the rank oracle", [_DIAG], _axioms),
    "signature": ("dependent-transversal family of a diagonal", [_DIAG], _signature),
    "normalize": ("weakly equivalent diagonal with first entry -1", [_DIAG], _normalize),
    "canonical": ("orbit-minimal diagonal under swaps and relabelings", [_DIAG], _canonical),
    "enumerate": (
        "census of weak-equivalence classes", [_P, _N], lambda a, d: (spike_census(a.p, a.n), 0)
    ),
    "lemma21": (
        "exhaustive nonzero subset-sum guarantee", [_P, _N],
        lambda a, d: _verdict(verify_lemma_2_1(a.p, a.n)),
    ),
    "lemma22": (
        "exhaustive zero-sum subset guarantee", [_P, _N],
        lambda a, d: _verdict(verify_lemma_2_2(a.p, a.n)),
    ),
    "detcheck": (
        "closed-form determinant vs elimination",
        [_P, _arg("--n-max", type=int, default=7), _arg("--samples", type=int, default=500),
         _arg("--seed", type=int, default=0)],
        lambda a, d: _verdict(verify_det_identity(a.p, a.n_max, a.samples, a.seed)),
    ),
    "unique": ("signature-map injectivity audit", [_P, _N], _unique),
    "transfer": (
        "search for the same signature over another prime field",
        [_DIAG, _arg("--q", type=int, required=True)],
        _transfer,
    ),
    "charset": (
        "representability verdicts across primes, with certificate",
        [_DIAG, _PRIMES],
        lambda a, d: (characteristic_set(d, a.primes), 0),
    ),
    "construct": (
        "the two integer diagonal constructions",
        [_arg("variant", choices=["prop41", "prop43"], help=_VARIANT_HELP), _P,
         _arg("--q", type=int, default=None, help="also reduce mod this prime")],
        _construct,
    ),
    "lbound": (
        "least n with a single-characteristic spike",
        [_P, _PRIMES, _arg("--n-max", type=int, default=5)],
        lambda a, d: (estimate_L(a.p, a.primes, a.n_max), 0),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and shared after it."""
    # a plain function over the cached _shared_parser, so tools that wrap
    # module functions (the benchmark's tracer among them) still see it
    return _shared_parser()


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
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
    for name, (help_text, arguments, _) in _COMMANDS.items():
        c = sub.add_parser(name, help=help_text, parents=[common])
        for flag, kwargs in arguments:
            c.add_argument(flag, **kwargs)
    return parser


def dispatch(args: argparse.Namespace) -> tuple[dict, dict, int]:
    """Run one subcommand; returns (params echo, result payload, exit code)."""
    params = {
        k: v for k, v in vars(args).items() if k not in ("command", "output") and v is not None
    }
    d = Diagonal.parse(args.diag) if "diag" in params else None
    result, code = _COMMANDS[args.command][2](args, d)
    return params, result, code


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
    except BudgetExceededError as exc:
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
    try:
        _emit(payload, args.output)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
