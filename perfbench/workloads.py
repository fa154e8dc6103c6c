"""The three workloads: one client each, closed loop, one process.

Each workload runs requests until the measuring time is over. The plain
functions give the end-to-end metrics with tracing off; the ``*_trace``
functions repeat one fixed pass of work, untraced and then traced on the
same inputs, and give the per-layer metrics and the tracing overhead.

- paper-crypto: the hot path at the cheapest paper cell (47, 11). A
  request is one message block, encrypted then decrypted.
- desk-pipeline: the CLI chain params gen -> params check -> keygen ->
  encrypt --infile -> decrypt -> attack dlp, one fresh interpreter per
  command, at (3,11), (11,11) and (5,19). A request is one pass: the
  chain at all three cells, as a user runs it.
- table2-factor: the cold path, security_table on each of the 48 Table-2
  rows. A request is one row.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from circulant_elgamal import elgamal, gf2field, keygen, numtheory, security
from circulant_elgamal.circulant import power

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"

# Outputs under this seed are pinned by digests.json.
DIGEST_SEED = 1
SETUPS = 5  # set-ups per run, for the median setup_s

PAPER_CELL = (47, 11)
PAPER_BUDGET = 1 << 12
PAPER_MESSAGE_BYTES = 256  # 2048 bits = 44 elements of GF(2^47) = 4 blocks
# generate() draws random polynomials until one is irreducible; at (47,11)
# each test costs about half a second and the number of draws is
# geometric (1 to 26 over seeds 1-6), so set-up time varies fourfold
# between seeds. The set-ups of every run use these fixed seeds, so that
# setup_s times the same work each time; --seed picks the messages and
# the encryption randomness.
PAPER_SETUP_SEEDS = (DIGEST_SEED, 2, 3)

DESK_CELLS = ((3, 11), (11, 11), (5, 19))
# For the same reason desk-pipeline generates its parameter sets and key
# pairs from a fixed seed: at (5,19) `params gen` took 0.28 to 1.9 s over
# seeds 0-7, and `attack dlp` takes up to twice as long on one key as on
# another, since its giant steps stop at the secret. --seed picks the
# message and the encryption randomness.
DESK_KEY_SEED = DIGEST_SEED
DESK_MESSAGE_BYTES = 3000
DESK_DIGEST_MESSAGE_BYTES = 256
COMMAND_CPU_LIMIT_S = 170

TABLE2_BUDGET = 1 << 14

# The reference work: an interpreter loop, and modular exponentiation on
# big integers, the two kinds of work the workloads do. A few ms in all.
REFERENCE_LOOP = 40_000
REFERENCE_MODULUS = (1 << 607) - 1
# The reference's median CPU time on the 2-core Xeon VM this benchmark
# was built on; setup_s is given in seconds at that speed.
REFERENCE_NOMINAL_S = 0.0044

# The original functions: tracing rebinds the names, not these. The
# checks call them so that they add nothing to a trace.
_SIEVE = numtheory._small_primes
_FACTOR = numtheory.factor
_FIELD_MAKE = gf2field.field_make
_IS_PRIME = numtheory.is_prime


def clear_caches(sieve: bool) -> None:
    """Cold start for one in-process repetition."""
    _FACTOR.cache_clear()
    _FIELD_MAKE.cache_clear()
    if sieve:
        _SIEVE.cache_clear()


def _reference_s() -> float:
    t0 = time.process_time()
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i
    for base in (3, 5):
        pow(base, REFERENCE_MODULUS - 1, REFERENCE_MODULUS)
    return time.process_time() - t0


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Yardstick:
    """Converts a run's CPU times into units of a reference run beside them.

    The reference is fixed work that uses nothing of the package: an
    interpreter loop and modular exponentiation on big integers, the two
    kinds of work the workloads do. It runs after every request. The
    gated metrics are the requests' CPU time divided by the median CPU
    time of those samples; the wall seconds are reported beside them.

    The reason is the host. On the 2-core VM this benchmark was built on,
    other tenants share the CPUs: the same loop took 84 to 167 ms within
    one minute, and 5% of a busy process's wall time was stolen. CPU time
    leaves out the stolen time, and the reference divides out the
    changes of speed. setup_s, which must be in seconds, is the set-up's
    CPU time in reference units times REFERENCE_NOMINAL_S.
    """

    def __init__(self):
        self.samples = [_reference_s()]

    def sample(self) -> None:
        self.samples.append(_reference_s())

    def units(self, seconds: float) -> float:
        return seconds / statistics.median(self.samples)


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). With fewer than eleven
    samples no such percentile exists, and the maximum is reported as
    percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def check_digests(out: Outcome, key: str, files: dict[str, Path]) -> None:
    """Compare output files under DIGEST_SEED with the committed digests."""
    pinned = json.loads(DIGESTS.read_text())[key]
    for name, path in files.items():
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        if got != pinned.get(name):
            out.problems.append(
                f"digest mismatch {key}/{name}: got {got}, pinned {pinned.get(name)}"
            )
    out.details["digests_checked"] = len(files)


def _finish(out: Outcome, stick: Yardstick, setups, raw, cpu, pass_s, pass_cpu, rss_who) -> None:
    """The end-to-end metrics every workload reports.

    setups holds (wall, CPU) seconds per set-up; raw and pass_s are wall
    seconds, cpu and pass_cpu the same in CPU seconds. Tails are
    reported, not gated: with 1 to 20 requests in a run the percentile
    the rule gives is the maximum or lies below the median.
    """
    value, pct, n = tail(raw)
    p50 = statistics.median(raw)
    setup_cpu = statistics.median(c for _, c in setups)
    out.metrics["setup_s"] = (stick.units(setup_cpu) * REFERENCE_NOMINAL_S, "s")
    out.metrics["request_p50_ref"] = (stick.units(statistics.median(cpu)), "ref")
    out.metrics["pass_ref"] = (stick.units(pass_cpu), "ref")
    out.metrics["peak_rss_mb"] = (peak_rss_mb(rss_who), "MB")
    out.details.update(
        {
            "setup_wall_s": [w for w, _ in setups],
            "reference_s": statistics.median(stick.samples),
            "request_s_p50": p50,
            "request_s_tail": value,
            "request_tail_percentile": pct,
            "requests": n,
            "pass_s": pass_s,
        }
    )


# ---------------------------------------------------------------------------
# paper-crypto

def _paper_setup(seed: int):
    n, d = PAPER_CELL
    params = keygen.generate(n, d, seed, budget=PAPER_BUDGET)
    return elgamal.keygen(params, seed)


def _paper_digests(out: Outcome, keys, work: Path) -> None:
    """Files of the DIGEST_SEED set-up, and one block encrypted under it."""
    priv, pub = keys
    rng = random.Random(DIGEST_SEED)
    spec, d = pub.A.spec, pub.A.d
    block = elgamal.encode_bytes(rng.randbytes(PAPER_MESSAGE_BYTES), spec, d)[0]
    ct = elgamal.encrypt(pub, block, rng)
    files = {name: work / f"paper.{name}" for name in ("params", "priv", "pub", "ct")}
    keygen.save_params(priv.params, files["params"])
    elgamal.save_private(priv, files["priv"])
    elgamal.save_public(pub, files["pub"])
    elgamal.save_ciphertexts(files["ct"], spec, d, [ct], None)
    check_digests(out, "paper-crypto", files)


@dataclass
class BlockTimes:
    enc_s: list[float] = field(default_factory=list)
    dec_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    stick: Yardstick | None = None


def _round_trip(priv, pub, block, rng, times: BlockTimes):
    c0 = time.process_time()
    t0 = time.perf_counter()
    ct = elgamal.encrypt(pub, block, rng)
    t1 = time.perf_counter()
    back = elgamal.decrypt(priv, ct)
    t2 = time.perf_counter()
    times.cpu_s.append(time.process_time() - c0)
    times.enc_s.append(t1 - t0)
    times.dec_s.append(t2 - t1)
    if times.stick is not None:
        times.stick.sample()
    return back


def _paper_message(out, keys, msg, rng, times, deadline=None, tracer=None):
    """Encrypt then decrypt each block of msg, until the deadline if any.

    With a tracer, each block is a request of its own.
    """
    priv, pub = keys
    spec, d = pub.A.spec, pub.A.d
    blocks = elgamal.encode_bytes(msg, spec, d)
    plain = []
    for i, block in enumerate(blocks):
        if deadline is not None and time.perf_counter() >= deadline:
            return
        if tracer is None:
            back = _round_trip(priv, pub, block, rng, times)
        else:
            tracer.request_id = f"block-{i}"
            back = tracer.span("request.block", _round_trip, priv, pub, block, rng, times)
        out.check(back == block, "block round trip")
        plain.append(back)
    out.check(
        elgamal.decode_blocks(plain, spec, len(msg)) == msg, "message round trip"
    )


def paper_crypto(seed: int, seconds: float, work: Path) -> Outcome:
    out = Outcome()
    stick = Yardstick()
    setups = []
    for s in PAPER_SETUP_SEEDS:
        clear_caches(sieve=True)
        c0, t0 = time.process_time(), time.perf_counter()
        pair = _paper_setup(s)
        setups.append((time.perf_counter() - t0, time.process_time() - c0))
        stick.sample()
        if s == DIGEST_SEED:
            keys = pair
    _paper_digests(out, keys, work)

    rng = random.Random(seed)
    times = BlockTimes(stick=stick)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        msg = rng.randbytes(PAPER_MESSAGE_BYTES)
        _paper_message(out, keys, msg, rng, times, deadline)

    priv, pub = keys
    spec, d = pub.A.spec, pub.A.d
    per_kib = 1024 * len(elgamal.encode_bytes(bytes(PAPER_MESSAGE_BYTES), spec, d)) / PAPER_MESSAGE_BYTES
    raw = [e + x for e, x in zip(times.enc_s, times.dec_s)]
    _finish(
        out,
        stick,
        setups,
        raw,
        times.cpu_s,
        pass_s=statistics.fmean(raw) * per_kib,
        pass_cpu=statistics.fmean(times.cpu_s) * per_kib,
        rss_who=resource.RUSAGE_SELF,
    )
    enc_tail, enc_pct, _ = tail(times.enc_s)
    dec_tail, dec_pct, _ = tail(times.dec_s)
    block_bytes = 1024 / per_kib
    out.details.update(
        {
            "encrypt_bytes_per_s": block_bytes / statistics.fmean(times.enc_s),
            "decrypt_bytes_per_s": block_bytes / statistics.fmean(times.dec_s),
            "encrypt_block_s_p50": statistics.median(times.enc_s),
            "encrypt_block_s_tail": enc_tail,
            "encrypt_block_tail_percentile": enc_pct,
            "decrypt_block_s_p50": statistics.median(times.dec_s),
            "decrypt_block_s_tail": dec_tail,
            "decrypt_block_tail_percentile": dec_pct,
            "order_exact": priv.params.order_info.exact,
        }
    )
    return out


def paper_crypto_trace(seed: int, seconds: float, work: Path, tracer: tracing.Tracer) -> Outcome:
    """One pass: the DIGEST_SEED set-up, cold, then one message."""
    out = Outcome()

    def one_pass(traced: bool) -> float:
        t0 = time.perf_counter()
        clear_caches(sieve=True)
        if traced:
            tracer.request_id = "setup"
            keys = tracer.span("request.setup", _paper_setup, DIGEST_SEED)
            tracer.request_id = "message"
        else:
            keys = _paper_setup(DIGEST_SEED)
        rng = random.Random(seed)
        msg = rng.randbytes(PAPER_MESSAGE_BYTES)
        _paper_message(out, keys, msg, rng, BlockTimes(), tracer=tracer if traced else None)
        return time.perf_counter() - t0

    return _trace_passes(out, seconds, tracer, one_pass)


def _trace_passes(out: Outcome, seconds: float, tracer: tracing.Tracer, one_pass) -> Outcome:
    """Alternate untraced and traced passes until the time is over."""
    plain = traced = 0.0
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        plain += one_pass(False)
        tracer.install()
        try:
            traced += one_pass(True)
        finally:
            tracer.uninstall()
        passes += 1
    out.details.update(
        {
            "passes": passes,
            "trace_wall_s": traced / passes,
            "plain_wall_s": plain / passes,
            "overhead_ratio": traced / plain,
        }
    )
    return out


# ---------------------------------------------------------------------------
# desk-pipeline

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CIRC_ELGAMAL_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _limit_cpu() -> None:
    """Runs in each child before exec: kill it after COMMAND_CPU_LIMIT_S of CPU.

    This is the guard against a runaway command. A timeout on the wait
    would do the same, but its polling adds up to 50 ms to every command.
    """
    resource.setrlimit(resource.RLIMIT_CPU, (COMMAND_CPU_LIMIT_S, COMMAND_CPU_LIMIT_S))


def _cli(argv: list[str], env, cwd: Path, traced_as: tuple[str, str] | None = None):
    """Run one command in a fresh interpreter.

    Returns (returncode, stdout, stderr, wall_s, cpu_s); cpu_s is the
    command's own CPU time.
    """
    if traced_as is None:
        cmd = [sys.executable, "-m", "circulant_elgamal.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), *traced_as, *argv]
    c0 = _children_cpu_s()
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd,
        env=env,
        cwd=cwd,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        preexec_fn=_limit_cpu,
    )
    wall = time.perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, wall, _children_cpu_s() - c0


def _kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _chain(n: int, d: int, enc_seed: int, msg: Path) -> list[tuple[str, list[str]]]:
    """The six commands of one cell."""
    p = f"p{n}_{d}"
    return [
        ("params_gen", ["params", "gen", "--n", str(n), "--d", str(d), "--seed", str(DESK_KEY_SEED), "--out", f"{p}.params"]),
        ("params_check", ["params", "check", f"{p}.params"]),
        ("keygen", ["keygen", "--params", f"{p}.params", "--out-priv", f"{p}.priv", "--out-pub", f"{p}.pub", "--seed", str(DESK_KEY_SEED)]),
        ("encrypt", ["encrypt", "--pub", f"{p}.pub", "--infile", msg.name, "--out", f"{p}.ct", "--seed", str(enc_seed)]),
        ("decrypt", ["decrypt", "--priv", f"{p}.priv", "--in", f"{p}.ct", "--out", f"{p}.out"]),
        ("attack_dlp", ["attack", "dlp", "--params", f"{p}.params", "--pub", f"{p}.pub"]),
    ]


def _check_command(out: Outcome, step: str, result, n: int, d: int, msg: Path, cwd: Path) -> None:
    rc, stdout, stderr = result[:3]
    where = f"({n},{d}) {step}"
    if not out.check(rc == 0, f"{where} exited {rc}: {stderr.strip()[-200:]}"):
        return
    kv = _kv(stdout)
    p = cwd / f"p{n}_{d}"
    if step == "params_check":
        out.check(kv.get("all") == "true", f"{where} did not print all=true")
    elif step == "decrypt":
        out.check(
            p.with_suffix(".out").read_bytes() == msg.read_bytes(),
            f"{where} output differs from the message",
        )
    elif step == "attack_dlp":
        if out.check(kv.get("verified") == "true", f"{where} did not print verified=true"):
            ps = keygen.load_params(p.with_suffix(".params"))
            pub = elgamal.load_public(p.with_suffix(".pub"))
            out.check(
                power(ps.A, int(kv["m"])) == pub.Am,
                f"{where} recovered m does not give A^m = Am",
            )


def _desk_setup(env, cwd: Path) -> tuple[float, float]:
    """Fresh interpreter: start-up, package import and the sieve; (wall, CPU) s."""
    code = "import circulant_elgamal.cli; from circulant_elgamal import numtheory; numtheory._small_primes()"
    c0 = _children_cpu_s()
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=cwd,
        stdin=subprocess.DEVNULL,
        check=True,
        preexec_fn=_limit_cpu,
    )
    return time.perf_counter() - t0, _children_cpu_s() - c0


def _desk_digests(out: Outcome, env, cwd: Path) -> None:
    """The chains' parameter and key files, and a ciphertext under DIGEST_SEED."""
    msg = cwd / "digest.bin"
    msg.write_bytes(random.Random(DIGEST_SEED).randbytes(DESK_DIGEST_MESSAGE_BYTES))
    files = {}
    for n, d in DESK_CELLS:
        rc, _, stderr, *_ = _cli(_chain(n, d, DIGEST_SEED, msg)[3][1], env, cwd)
        if rc != 0:
            out.problems.append(f"digest run ({n},{d}) encrypt exited {rc}: {stderr.strip()[-200:]}")
            return
        for ext in ("params", "priv", "pub", "ct"):
            files[f"{n}_{d}.{ext}"] = cwd / f"p{n}_{d}.{ext}"
    check_digests(out, "desk-pipeline", files)


def _desk_inputs(seed: int, cwd: Path):
    rng = random.Random(seed)
    msg = cwd / "message.bin"
    msg.write_bytes(rng.randbytes(DESK_MESSAGE_BYTES))

    return msg, lambda: rng.randrange(1 << 32)


def desk_pipeline(seed: int, seconds: float, work: Path) -> Outcome:
    out = Outcome()
    env = _child_env()
    msg, enc_seed = _desk_inputs(seed, work)
    stick = Yardstick()
    setups = []
    for _ in range(SETUPS):
        setups.append(_desk_setup(env, work))
        stick.sample()
    steps = {cell: {} for cell in DESK_CELLS}  # cell -> step -> wall times
    walls, cpus = [], []  # per pass
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall = cpu = 0.0
        for n, d in DESK_CELLS:
            for step, argv in _chain(n, d, enc_seed(), msg):
                result = _cli(argv, env, work)
                wall += result[3]
                cpu += result[4]
                stick.sample()
                steps[(n, d)].setdefault(step, []).append(result[3])
                _check_command(out, step, result, n, d, msg, work)
        walls.append(wall)
        cpus.append(cpu)
    _desk_digests(out, env, work)

    def per_pass(step: str) -> float:
        return sum(statistics.fmean(steps[c][step]) for c in DESK_CELLS)

    _finish(
        out,
        stick,
        setups,
        walls,
        cpus,
        pass_s=statistics.fmean(walls),
        pass_cpu=statistics.fmean(cpus),
        rss_who=resource.RUSAGE_CHILDREN,
    )
    out.details.update(
        {
            "encrypt_bytes_per_s": DESK_MESSAGE_BYTES * len(DESK_CELLS) / per_pass("encrypt"),
            "decrypt_bytes_per_s": DESK_MESSAGE_BYTES * len(DESK_CELLS) / per_pass("decrypt"),
            "params_gen_s": per_pass("params_gen"),
            "attack_s": per_pass("attack_dlp"),
            "pipeline_s": statistics.fmean(walls),
            "passes": len(walls),
        }
    )
    return out


def desk_pipeline_trace(seed: int, seconds: float, work: Path, tracer: tracing.Tracer) -> Outcome:
    """One pass over the cells; each command runs untraced, then traced."""
    out = Outcome()
    env = _child_env()
    msg, enc_seed = _desk_inputs(seed, work)
    cell_seeds = {cell: enc_seed() for cell in DESK_CELLS}
    spans_file = work / "child-spans.json"
    plain = traced = process_s = 0.0
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        for n, d in DESK_CELLS:
            for step, argv in _chain(n, d, cell_seeds[(n, d)], msg):
                result = _cli(argv, env, work)
                plain += result[3]
                _check_command(out, step, result, n, d, msg, work)
                rid = f"{n},{d}:{step}:{passes}"
                tracer.request_id = rid

                def traced_command():
                    result = _cli(argv, env, work, (str(spans_file), rid))
                    return result, tracer.merge(spans_file)

                result, main_s = tracer.span("request.cli", traced_command)
                traced += result[3]
                bookkeeping = float(_kv(result[2]).get("bookkeeping_s", 0.0))
                process_s += result[3] - main_s - bookkeeping
                _check_command(out, step, result, n, d, msg, work)
        passes += 1
    spans_file.unlink(missing_ok=True)
    out.details.update(
        {
            "passes": passes,
            "trace_wall_s": traced / passes,
            "plain_wall_s": plain / passes,
            "overhead_ratio": traced / plain,
            "process_s": process_s / passes,
        }
    )
    return out


# ---------------------------------------------------------------------------
# table2-factor

def _table2_row(out: Outcome, n: int, d: int, reports) -> tuple[bool, int]:
    """Check one row's report against its factorization; (complete, cofactor bits).

    Runs right after the row, while the factor cache still holds it.
    """
    fact = _FACTOR((1 << (n * (d - 1))) - 1, TABLE2_BUDGET)
    where = f"row ({n},{d})"
    out.check(len(reports) == 1, f"{where}: {len(reports)} reports")
    out.check(fact.check(), f"{where}: factorization does not multiply out")
    out.check(
        all(_IS_PRIME(p) for p in fact.factors), f"{where}: non-prime factor"
    )
    if reports:
        largest = max(fact.factors) if fact.factors else None
        out.check(
            reports[0].largest_prime == largest
            and reports[0].largest_prime_exact == fact.complete,
            f"{where}: report disagrees with the factorization",
        )
    bits = fact.cofactor.bit_length() if fact.cofactor > 1 else 0
    return fact.complete, bits


def _table2_setup() -> tuple[float, float]:
    """Reference table and sieve, cold; (wall, CPU) s."""
    clear_caches(sieve=True)
    c0, t0 = time.process_time(), time.perf_counter()
    security.load_reference_security()
    _SIEVE()
    return time.perf_counter() - t0, time.process_time() - c0


def table2_factor(seed: int, seconds: float, work: Path) -> Outcome:
    out = Outcome()
    rng = random.Random(seed)
    stick = Yardstick()
    setups = []
    for _ in range(SETUPS):
        setups.append(_table2_setup())
        stick.sample()
    rows = [(r.n, r.d) for r in security.load_reference_security()]
    row_s = {row: [] for row in rows}
    row_cpu = {row: [] for row in rows}
    result: dict[tuple[int, int], tuple[bool, int]] = {}
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        order = rows[:]
        rng.shuffle(order)
        for n, d in order:
            if passes and time.perf_counter() >= deadline:
                break
            clear_caches(sieve=False)
            c0 = time.process_time()
            t0 = time.perf_counter()
            reports = security.security_table([n], [d], TABLE2_BUDGET)
            row_s[(n, d)].append(time.perf_counter() - t0)
            row_cpu[(n, d)].append(time.process_time() - c0)
            stick.sample()
            result[(n, d)] = _table2_row(out, n, d, reports)
        passes += 1

    table_s = sum(statistics.fmean(v) for v in row_s.values())
    _finish(
        out,
        stick,
        setups,
        [s for v in row_s.values() for s in v],
        [s for v in row_cpu.values() for s in v],
        pass_s=table_s,
        pass_cpu=sum(statistics.fmean(v) for v in row_cpu.values()),
        rss_who=resource.RUSAGE_SELF,
    )
    out.details.update(
        {
            "table2_s": table_s,
            "table2_rows_complete": sum(c for c, _ in result.values()),
            "table2_cofactor_bits": sum(b for _, b in result.values()),
            "table2_rows": len(result),
        }
    )
    return out


def table2_factor_trace(seed: int, seconds: float, work: Path, tracer: tracing.Tracer) -> Outcome:
    """One pass over the 48 rows, in seeded order."""
    out = Outcome()
    rows = [(r.n, r.d) for r in security.load_reference_security()]
    random.Random(seed).shuffle(rows)

    def one_pass(traced: bool) -> float:
        elapsed = 0.0
        for n, d in rows:
            clear_caches(sieve=False)
            tracer.request_id = f"row-{n}-{d}" if traced else None
            t0 = time.perf_counter()
            if traced:
                reports = tracer.span(
                    "request.row", security.security_table, [n], [d], TABLE2_BUDGET
                )
            else:
                reports = security.security_table([n], [d], TABLE2_BUDGET)
            elapsed += time.perf_counter() - t0
            _table2_row(out, n, d, reports)
        return elapsed

    return _trace_passes(out, seconds, tracer, one_pass)


# name -> (untraced run, traced run)
WORKLOADS = {
    "paper-crypto": (paper_crypto, paper_crypto_trace),
    "desk-pipeline": (desk_pipeline, desk_pipeline_trace),
    "table2-factor": (table2_factor, table2_factor_trace),
}
