"""Command-line front end.

    circ-elgamal params gen --n N --d D [--seed S] [--factor-budget B] --out FILE
    circ-elgamal params check FILE
    circ-elgamal keygen --params FILE --out-priv F1 --out-pub F2 [--seed S]
    circ-elgamal encrypt --pub F (--in HEXBLOCK | --infile PATH) --out CT [--seed S]
    circ-elgamal decrypt --priv F --in CT --out PATH
    circ-elgamal attack dlp --params FILE --pub F [--factor-budget B]
    circ-elgamal security estimate --n N --d D
    circ-elgamal security tables --which {1,2} --n-lo A --n-hi B --d-lo C --d-hi E
    circ-elgamal security verify-paper
    circ-elgamal bench pow --n N --d D --bits B --trials T [--seed S]

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 attack or
verification failure. Stdout carries machine-readable `key=value` lines
(TSV for the tables subcommand); diagnostics go to stderr. When no
--seed is given the CIRC_ELGAMAL_SEED environment variable is used as a
fallback; a fixed seed makes every run bit-identical.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path

from . import elgamal, fileio, security
from . import keygen as kg
from .circulant import Circulant, OpCounter, power
from .dlp import NotFound, solve_circulant_dlp
from .gf2field import field_make
from .numtheory import DEFAULT_BUDGET, IncompleteFactorization


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; 2 means validation failure here,
    so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int0(text: str) -> int:
    return int(text, 0)


def _positive(text: str) -> int:
    v = int(text, 0)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {v}")
    return v


def _b(v: bool) -> str:
    return "true" if v else "false"


def _emit(key: str, value) -> None:
    print(f"{key}={value}")


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve_seed(explicit: int | None) -> int | None:
    if explicit is not None:
        return explicit
    env = os.environ.get("CIRC_ELGAMAL_SEED", "")
    if not env:
        return None
    try:
        return int(env, 0)
    except ValueError:
        raise _UsageError(
            f"CIRC_ELGAMAL_SEED is not an integer: {env!r}"
        ) from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_params_gen(args) -> int:
    ps = kg.generate(args.n, args.d, _resolve_seed(args.seed), args.factor_budget)
    kg.save_params(ps, args.out)
    _emit("n", ps.n)
    _emit("d", ps.d)
    if ps.det_order is not None:
        _emit("det_order", ps.det_order)
    if ps.order_info is not None:
        _emit("order", ps.order_info.order)
        _emit("order_exact", _b(ps.order_info.exact))
    _emit("out", args.out)
    return 0


def cmd_params_check(args) -> int:
    ps = kg.load_params(args.file)
    report = kg.five_conditions(ps.A)
    for key, ok in report.lines():
        _emit(key, _b(ok))
    _emit("all", _b(report.all))
    return 0 if report.all else 2


def cmd_keygen(args) -> int:
    ps = kg.load_params(args.params)
    priv, pub = elgamal.keygen(ps, _resolve_seed(args.seed))
    elgamal.save_private(priv, args.out_priv)
    elgamal.save_public(pub, args.out_pub)
    _emit("n", ps.n)
    _emit("d", ps.d)
    _emit("out_priv", args.out_priv)
    _emit("out_pub", args.out_pub)
    return 0


def cmd_encrypt(args) -> int:
    pub = elgamal.load_public(args.pub)
    spec, d = pub.A.spec, pub.A.d
    rng = elgamal._rng(_resolve_seed(args.seed))
    if args.hexblock is not None:
        v = Circulant.from_hex(spec, args.hexblock).coeffs
        cts = [elgamal.encrypt(pub, v, rng)]
        elgamal.save_ciphertexts(args.out, spec, d, cts, None)
        _emit("encoding", "raw")
    else:
        data = Path(args.infile).read_bytes()
        cts = [
            elgamal.encrypt(pub, block, rng)
            for block in elgamal.encode_bytes(data, spec, d)
        ]
        elgamal.save_ciphertexts(args.out, spec, d, cts, len(data))
        _emit("encoding", "bytes")
        _emit("length", len(data))
    _emit("blocks", len(cts))
    _emit("out", args.out)
    return 0


def cmd_decrypt(args) -> int:
    priv = elgamal.load_private(args.priv)
    spec, d, cts, length = elgamal.load_ciphertexts(args.ct)
    if spec != priv.params.spec or d != priv.params.d:
        _diag("ciphertext and private key disagree on field or dimension")
        return 2
    blocks = [elgamal.decrypt(priv, ct) for ct in cts]
    if length is None:
        text = "\n".join(",".join(e.to_hex() for e in blk) for blk in blocks)
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        _emit("encoding", "raw")
    else:
        Path(args.out).write_bytes(elgamal.decode_blocks(blocks, spec, length))
        _emit("encoding", "bytes")
        _emit("length", length)
    _emit("blocks", len(blocks))
    _emit("out", args.out)
    return 0


def cmd_attack_dlp(args) -> int:
    ps = kg.load_params(args.params)
    pub = elgamal.load_public(args.pub)
    if pub.A != ps.A:
        _diag("public key was not generated from this parameter set")
        return 2
    try:
        m = solve_circulant_dlp(ps.A, pub.Am, args.factor_budget)
    except (NotFound, IncompleteFactorization, ValueError) as exc:
        _diag(f"attack failed: {exc}")
        return 3
    _emit("m", m)
    _emit("verified", "true")
    return 0


def cmd_security_estimate(args) -> int:
    r = security.estimate(args.n, args.d)
    _emit("n", r.n)
    _emit("d", r.d)
    _emit("primitive", _b(r.primitive))
    _emit("index_bits", r.index_calculus_bits)
    _emit("regime_exponential", _b(r.regime_exponential))
    return 0


def cmd_security_tables(args) -> int:
    if args.n_lo > args.n_hi or args.d_lo > args.d_hi:
        raise _UsageError("empty range: require --n-lo <= --n-hi and --d-lo <= --d-hi")
    ns = range(args.n_lo, args.n_hi + 1)
    ds = range(args.d_lo, args.d_hi + 1)
    if args.which == 1:
        rows = [
            security.SecurityReport(
                n,
                d,
                True,
                security.index_calculus_bits(n, d),
                security.regime_check(n, d),
            )
            for n, primitive_ds in security.scan_primitive_pairs(ns, ds)
            for d in primitive_ds
        ]
    else:
        rows = security.security_table(ns, ds, args.factor_budget)
    sys.stdout.write(security.render_tsv(rows))
    return 0


def cmd_security_verify_paper(args) -> int:
    checks = security.verify_reference_primes()
    all_ok = True
    for i, c in enumerate(checks, 1):
        pre = f"p{i}_"
        _emit(pre + "n", c.ref.n)
        _emit(pre + "d", c.ref.d)
        _emit(pre + "prime", _b(c.is_prime_ok))
        _emit(pre + "divides", _b(c.divides_ok))
        _emit(pre + "primitive", _b(c.primitive_ok))
        _emit(pre + "log2", f"{c.log2:.4f}")
        _emit(pre + "log2_ok", _b(c.log2_ok))
        all_ok = all_ok and c.passed
    _emit("all_ok", _b(all_ok))
    return 0 if all_ok else 3


def cmd_bench_pow(args) -> int:
    spec = field_make(args.n)
    rng = random.Random(_resolve_seed(args.seed))
    total_general = total_field = total_sq = 0
    total_s = 0.0
    for _ in range(args.trials):
        a = Circulant.random(spec, args.d, rng)
        # top bit forced so every exponent is exactly `bits` long
        m = 1 << (args.bits - 1) | rng.getrandbits(args.bits - 1)
        counter = OpCounter()
        t0 = time.perf_counter()
        power(a, m, counter)
        total_s += time.perf_counter() - t0
        total_general += counter.general_mults
        total_field += counter.field_mults
        total_sq += counter.squarings
    t = args.trials
    _emit("n", args.n)
    _emit("d", args.d)
    _emit("bits", args.bits)
    _emit("trials", t)
    _emit("mean_general_mults", f"{total_general / t:.4f}")
    _emit("mean_field_mults", f"{total_field / t:.4f}")
    _emit("mean_squarings", f"{total_sq / t:.4f}")
    _emit("predicted_field_mults", f"{args.d * args.d / 2 * args.bits:.1f}")
    _emit("mean_power_ms", f"{total_s / t * 1e3:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="circ-elgamal",
        description="ElGamal over determinant-1 circulant matrices on GF(2^n)",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    params = sub.add_parser("params", help="parameter generation and validation")
    psub = params.add_subparsers(dest="subcommand", required=True)
    gen = psub.add_parser("gen", help="construct a validated parameter set")
    gen.add_argument("--n", type=_positive, required=True, help="field size exponent")
    gen.add_argument("--d", type=_positive, required=True, help="matrix dimension")
    gen.add_argument("--seed", type=_int0, default=None)
    gen.add_argument("--factor-budget", type=_positive, default=DEFAULT_BUDGET)
    gen.add_argument("--out", required=True, metavar="FILE")
    gen.set_defaults(func=cmd_params_gen)
    check = psub.add_parser("check", help="five-condition report for a parameter file")
    check.add_argument("file", metavar="FILE")
    check.set_defaults(func=cmd_params_check)

    keygen_p = sub.add_parser("keygen", help="draw a key pair for a parameter set")
    keygen_p.add_argument("--params", required=True, metavar="FILE")
    keygen_p.add_argument("--out-priv", required=True, metavar="FILE")
    keygen_p.add_argument("--out-pub", required=True, metavar="FILE")
    keygen_p.add_argument("--seed", type=_int0, default=None)
    keygen_p.set_defaults(func=cmd_keygen)

    enc = sub.add_parser("encrypt", help="encrypt a block or a file")
    enc.add_argument("--pub", required=True, metavar="FILE")
    src = enc.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--in",
        dest="hexblock",
        metavar="HEXBLOCK",
        help="one message block: d comma-separated hex field elements",
    )
    src.add_argument("--infile", metavar="PATH", help="binary file to encrypt")
    enc.add_argument("--out", required=True, metavar="CT")
    enc.add_argument("--seed", type=_int0, default=None)
    enc.set_defaults(func=cmd_encrypt)

    dec = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    dec.add_argument("--priv", required=True, metavar="FILE")
    dec.add_argument("--in", dest="ct", required=True, metavar="CT")
    dec.add_argument("--out", required=True, metavar="PATH")
    dec.set_defaults(func=cmd_decrypt)

    attack = sub.add_parser("attack", help="discrete-logarithm attacks")
    asub = attack.add_subparsers(dest="subcommand", required=True)
    adlp = asub.add_parser(
        "dlp", help="recover the secret exponent (small parameters only)"
    )
    adlp.add_argument("--params", required=True, metavar="FILE")
    adlp.add_argument("--pub", required=True, metavar="FILE")
    adlp.add_argument("--factor-budget", type=_positive, default=DEFAULT_BUDGET)
    adlp.set_defaults(func=cmd_attack_dlp)

    sec = sub.add_parser("security", help="security estimates and reference checks")
    ssub = sec.add_subparsers(dest="subcommand", required=True)
    est = ssub.add_parser("estimate", help="per-cell security report")
    est.add_argument("--n", type=_positive, required=True)
    est.add_argument("--d", type=_positive, required=True)
    est.set_defaults(func=cmd_security_estimate)
    tables = ssub.add_parser("tables", help="TSV security table over (n, d) ranges")
    tables.add_argument(
        "--which",
        type=int,
        choices=(1, 2),
        required=True,
        help="1: primitivity scan only; 2: with largest-prime estimates",
    )
    tables.add_argument("--n-lo", type=_positive, required=True)
    tables.add_argument("--n-hi", type=_positive, required=True)
    tables.add_argument("--d-lo", type=_positive, required=True)
    tables.add_argument("--d-hi", type=_positive, required=True)
    tables.add_argument(
        "--factor-budget",
        type=_positive,
        default=1 << 16,
        help="per-cell factoring effort for --which 2",
    )
    tables.set_defaults(func=cmd_security_tables)
    vp = ssub.add_parser(
        "verify-paper", help="recheck the six published example primes"
    )
    vp.set_defaults(func=cmd_security_verify_paper)

    bench = sub.add_parser("bench", help="operation-count and timing benchmarks")
    bsub = bench.add_subparsers(dest="subcommand", required=True)
    bpow = bsub.add_parser("pow", help="exponentiation cost versus the d^2/2 model")
    bpow.add_argument("--n", type=_positive, required=True)
    bpow.add_argument("--d", type=_positive, required=True)
    bpow.add_argument("--bits", type=_positive, required=True)
    bpow.add_argument("--trials", type=_positive, required=True)
    bpow.add_argument("--seed", type=_int0, default=None)
    bpow.set_defaults(func=cmd_bench_pow)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        _diag(str(exc))
        return 1
    except fileio.FileFormatError as exc:
        _diag(str(exc))
        return 2
    except (NotFound, IncompleteFactorization) as exc:
        _diag(str(exc))
        return 3
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        _diag(str(exc))
        return 2
    except OSError as exc:
        _diag(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
