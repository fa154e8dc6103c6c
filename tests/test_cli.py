"""Command-line interface: full pipelines through temp files, the
key=value output contract, the 0/1/2/3 exit-code map, and mutated
input files, which must exit 0 or 2.

Commands run in process via main(argv) so coverage and seeding stay
deterministic. Two subprocess tests cover the console script: one
loads the target pyproject.toml names and runs it in a fresh
interpreter, the other runs the installed script when it is on PATH.
"""

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import circulant_elgamal
from circulant_elgamal import cli, elgamal, gf2field, keygen
from circulant_elgamal.circulant import Circulant, power
from circulant_elgamal.elgamal import PublicKey, load_private, load_public, save_public
from circulant_elgamal.keygen import load_params, save_params
from circulant_elgamal.security import TSV_HEADER


def _source_env():
    # the environment with this checkout's package first on PYTHONPATH, for
    # commands run in a fresh interpreter
    src = str(Path(circulant_elgamal.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def kv(text):
    pairs = {}
    for line in text.splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            pairs[k] = v
    return pairs


@pytest.fixture()
def params_file(tmp_path, params311):
    path = tmp_path / "p.params"
    save_params(params311, path)
    return str(path)


# ---------------------------------------------------------------------------
# params

def test_params_gen_and_check(tmp_path):
    out = tmp_path / "g.params"
    code, stdout, _ = run_cli(
        ["params", "gen", "--n", "3", "--d", "11", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    got = kv(stdout)
    assert got["n"] == "3" and got["d"] == "11"
    assert "det_order" not in got
    assert got["order"] == "153391689"
    assert got["order_exact"] == "true"
    assert got["out"] == str(out)
    assert out.read_text().startswith("version = 1\n")

    code, stdout, _ = run_cli(["params", "check", str(out)])
    assert code == 0
    got = kv(stdout)
    for key in (
        "det_one",
        "row_sum_one",
        "d_prime",
        "quotient_irreducible",
        "q_primitive",
        "all",
    ):
        assert got[key] == "true"


def test_params_gen_rejects_non_primitive(tmp_path):
    code, _, stderr = run_cli(
        ["params", "gen", "--n", "4", "--d", "5", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "primitive" in stderr


def test_params_check_failing_matrix(tmp_path):
    path = tmp_path / "bad.params"
    path.write_text(
        "version = 1\nn = 1\nd = 5\nfield_poly = 0x3\n"
        "A = 0x1,0x0,0x0,0x0,0x0\n"
    )
    code, stdout, _ = run_cli(["params", "check", str(path)])
    assert code == 2
    got = kv(stdout)
    assert got["det_one"] == "true"
    assert got["quotient_irreducible"] == "false"
    assert got["all"] == "false"


def test_params_gen_exits_2_when_no_matrix_passes(tmp_path, monkeypatch):
    calls = []
    real = keygen.primitive_poly
    monkeypatch.setattr(keygen, "_quotient_condition", lambda a: False)
    monkeypatch.setattr(
        keygen, "primitive_poly", lambda *a: calls.append(a) or real(*a)
    )
    out = tmp_path / "x.params"
    code, stdout, stderr = run_cli(
        ["params", "gen", "--n", "3", "--d", "11", "--seed", "1", "--out", str(out)]
    )
    assert (code, stdout) == (2, "")
    assert stderr == "no matrix passed validation in 32 draws at (2^3, 11)\n"
    assert len(calls) == 32
    assert not out.exists()


def test_params_gen_exits_2_when_no_polynomial_is_primitive(tmp_path, monkeypatch):
    monkeypatch.setattr(gf2field, "poly_is_irreducible", lambda p: False)
    out = tmp_path / "x.params"
    code, stdout, stderr = run_cli(
        ["params", "gen", "--n", "3", "--d", "11", "--seed", "1", "--out", str(out)]
    )
    assert (code, stdout) == (2, "")
    assert stderr == "no primitive polynomial of degree 10 found in 640 draws\n"
    assert not out.exists()


def test_params_file_blank_lines_are_skipped(tmp_path, params_file):
    pairs = Path(params_file).read_text().splitlines()
    spaced = tmp_path / "spaced.params"
    spaced.write_text("\n\n" + "\n\n".join(pairs) + "\n\n  \n")
    assert load_params(spaced) == load_params(params_file)
    code, stdout, _ = run_cli(["params", "check", str(spaced)])
    assert code == 0 and kv(stdout)["all"] == "true"


def test_params_file_tampering_detected(tmp_path, params_file):
    bad = tmp_path / "tampered.params"
    bad.write_text(Path(params_file).read_text().replace("version = 1", "version = 9"))
    code, _, stderr = run_cli(["params", "check", str(bad)])
    assert code == 2
    assert "unsupported version 9" in stderr


def test_missing_file_is_usage_error():
    code, _, stderr = run_cli(["params", "check", "/nonexistent/p.params"])
    assert code == 1
    assert stderr


# ---------------------------------------------------------------------------
# keygen / encrypt / decrypt / attack

def test_full_pipeline_raw_block(tmp_path, params_file, params311):
    priv, pub = str(tmp_path / "k.priv"), str(tmp_path / "k.pub")
    code, stdout, _ = run_cli(
        ["keygen", "--params", params_file, "--out-priv", priv,
         "--out-pub", pub, "--seed", "11"]
    )
    assert code == 0
    assert kv(stdout)["out_pub"] == pub

    block = "0x1,0x2,0x3,0x4,0x5,0x6,0x7,0x0,0x1,0x2,0x3"
    ct = str(tmp_path / "m.ct")
    code, stdout, _ = run_cli(
        ["encrypt", "--pub", pub, "--in", block, "--out", ct, "--seed", "12"]
    )
    assert code == 0
    got = kv(stdout)
    assert got["encoding"] == "raw" and got["blocks"] == "1"
    assert "length" not in got

    out = str(tmp_path / "m.txt")
    code, stdout, _ = run_cli(["decrypt", "--priv", priv, "--in", ct, "--out", out])
    assert code == 0
    assert kv(stdout)["encoding"] == "raw"
    assert Path(out).read_text().strip() == block

    code, stdout, _ = run_cli(["attack", "dlp", "--params", params_file, "--pub", pub])
    assert code == 0
    got = kv(stdout)
    assert got["verified"] == "true"
    m = int(got["m"])
    stored = load_private(priv).m
    order = 153391689
    assert m == stored % order
    assert power(params311.A, m) == load_public(pub).Am


def test_full_pipeline_bytes(tmp_path, params_file):
    priv, pub = str(tmp_path / "k.priv"), str(tmp_path / "k.pub")
    run_cli(["keygen", "--params", params_file, "--out-priv", priv,
             "--out-pub", pub, "--seed", "21"])
    data = bytes(range(256)) + b"tail"
    src = tmp_path / "plain.bin"
    src.write_bytes(data)
    ct = str(tmp_path / "m.ct")
    code, stdout, _ = run_cli(
        ["encrypt", "--pub", pub, "--infile", str(src), "--out", ct, "--seed", "22"]
    )
    assert code == 0
    got = kv(stdout)
    assert got["encoding"] == "bytes"
    assert got["length"] == str(len(data))
    # 260 bytes = 2080 bits -> 694 3-bit units -> 64 blocks of 11
    assert got["blocks"] == "64"
    back = tmp_path / "plain.out"
    code, stdout, _ = run_cli(
        ["decrypt", "--priv", priv, "--in", ct, "--out", str(back)]
    )
    assert code == 0
    assert back.read_bytes() == data


@pytest.mark.parametrize("n, d", [(3, 11), (11, 11), (5, 19)])
def test_cli_and_library_draw_one_key_for_one_seed(tmp_path, n, d):
    # the order is exact at these cells, and the params file does not
    # carry it; both draw m below 2^(n(d-1)) all the same, so one seed
    # gives one key file
    params = tmp_path / "p.params"
    run_cli(["params", "gen", "--n", str(n), "--d", str(d), "--seed", "1",
             "--out", str(params)])
    ps = keygen.generate(n, d, 1)
    assert ps.order_info.exact
    for seed in (1, 2):
        files = {name: tmp_path / f"{name}.{seed}" for name in ("priv", "pub", "lib")}
        code, _, _ = run_cli(
            ["keygen", "--params", str(params), "--out-priv", str(files["priv"]),
             "--out-pub", str(files["pub"]), "--seed", str(seed)]
        )
        assert code == 0
        priv, pub = elgamal.keygen(ps, seed)
        elgamal.save_private(priv, files["lib"])
        assert files["priv"].read_bytes() == files["lib"].read_bytes()
        assert load_public(files["pub"]) == pub


@pytest.mark.parametrize(
    "ar",
    [",".join([e] * 11) for e in ("0x0", "0x7")] + ["0x1,0x1" + ",0x0" * 9],
    ids=["0x0", "0x7", "row-sum-0"],
)
def test_decrypt_singular_ar_exits_2(tmp_path, params_file, ar):
    # a hostile ciphertext: Ar all zero, all equal, or with row sum 0 and
    # unequal entries, each singular, so A^{mr} has no inverse
    priv, pub = str(tmp_path / "k.priv"), str(tmp_path / "k.pub")
    run_cli(["keygen", "--params", params_file, "--out-priv", priv,
             "--out-pub", pub, "--seed", "41"])
    ct = tmp_path / "m.ct"
    run_cli(["encrypt", "--pub", pub, "--in", ",".join(["0x1"] * 11),
             "--out", str(ct), "--seed", "42"])
    lines = ct.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("Ar = "))
    lines[i] = "Ar = " + ar
    ct.write_text("\n".join(lines) + "\n")
    code, stdout, stderr = run_cli(
        ["decrypt", "--priv", priv, "--in", str(ct), "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1 and "singular" in stderr
    assert "Traceback" not in stderr


def test_decrypt_key_mismatch(tmp_path, params_file, params15):
    priv, pub = str(tmp_path / "k.priv"), str(tmp_path / "k.pub")
    run_cli(["keygen", "--params", params_file, "--out-priv", priv,
             "--out-pub", pub, "--seed", "31"])
    ct = str(tmp_path / "m.ct")
    run_cli(["encrypt", "--pub", pub,
             "--in", "0x1,0x1,0x1,0x1,0x1,0x1,0x1,0x1,0x1,0x1,0x1",
             "--out", ct, "--seed", "32"])
    other = tmp_path / "other.params"
    save_params(params15, other)
    priv5, pub5 = str(tmp_path / "o.priv"), str(tmp_path / "o.pub")
    run_cli(["keygen", "--params", str(other), "--out-priv", priv5,
             "--out-pub", pub5, "--seed", "33"])
    code, _, stderr = run_cli(
        ["decrypt", "--priv", priv5, "--in", ct, "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "disagree" in stderr


def test_attack_rejects_foreign_public_key(tmp_path, params_file, params311):
    # same field and dimension, but A is not the one in the params file
    shifted = Circulant.shift(params311.spec, 11)
    pub = tmp_path / "alien.pub"
    save_public(PublicKey(shifted, power(shifted, 5)), pub)
    code, _, stderr = run_cli(
        ["attack", "dlp", "--params", params_file, "--pub", str(pub)]
    )
    assert code == 2
    assert "not generated from this parameter set" in stderr


def test_attack_failure_exit_code(tmp_path, params_file, params311):
    # Am outside the group generated by A: row sum is not 1
    spec = params311.spec
    t = spec.element(0x2)
    liar = Circulant(tuple(t * c for c in params311.A.coeffs), spec)
    pub = tmp_path / "bad.pub"
    save_public(PublicKey(params311.A, liar), pub)
    code, _, stderr = run_cli(
        ["attack", "dlp", "--params", params_file, "--pub", str(pub)]
    )
    assert code == 3
    assert "attack failed" in stderr


def _row(d, entries):
    return ",".join(hex(entries.get(k, 0)) for k in range(d))


@pytest.mark.parametrize(
    "d, a, am",
    [
        (1, {0: 3}, {0: 5}),
        (2, {1: 1}, {0: 1}),
        (4, {1: 1}, {2: 1}),
        # d = 9 is odd but composite, so Phi is reducible. 2 x^2 has row
        # sum 2 and lies outside <x>; 1 + x is singular (row sum 0).
        (9, {1: 1}, {2: 2}),
        (9, {0: 1, 1: 1}, {0: 1, 2: 1}),
    ],
    ids=["d1", "d2", "d4", "d9-outside", "d9-singular"],
)
def test_attack_fails_cleanly_off_the_supported_cells(tmp_path, d, a, am):
    header = f"version = 1\nn = 3\nd = {d}\nfield_poly = 0xb\n"
    params, pub = tmp_path / "h.params", tmp_path / "h.pub"
    params.write_text(header + f"A = {_row(d, a)}\n")
    pub.write_text(header + f"A = {_row(d, a)}\nAm = {_row(d, am)}\n")
    code, stdout, stderr = run_cli(
        ["attack", "dlp", "--params", str(params), "--pub", str(pub)]
    )
    assert code == 3
    assert stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("attack failed: ")
    assert "Traceback" not in stderr


def test_pipeline_at_even_d(tmp_path):
    # d = 4: keygen, encrypt and decrypt work at any d, and the five
    # conditions and the attack refuse it
    params = tmp_path / "e.params"
    params.write_text(
        "version = 1\nn = 3\nd = 4\nfield_poly = 0xb\nA = 0x3,0x5,0x0,0x1\n"
    )
    priv, pub = str(tmp_path / "e.priv"), str(tmp_path / "e.pub")
    code, _, _ = run_cli(["keygen", "--params", str(params), "--out-priv", priv,
                          "--out-pub", pub, "--seed", "51"])
    assert code == 0
    data = b"circulants at even d"
    src, ct, back = tmp_path / "plain.bin", str(tmp_path / "e.ct"), tmp_path / "back"
    src.write_bytes(data)
    code, _, _ = run_cli(["encrypt", "--pub", pub, "--infile", str(src),
                          "--out", ct, "--seed", "52"])
    assert code == 0
    code, _, _ = run_cli(["decrypt", "--priv", priv, "--in", ct, "--out", str(back)])
    assert code == 0
    assert back.read_bytes() == data
    code, stdout, _ = run_cli(["params", "check", str(params)])
    assert code == 2 and kv(stdout)["all"] == "false"
    code, stdout, stderr = run_cli(
        ["attack", "dlp", "--params", str(params), "--pub", pub]
    )
    assert (code, stdout) == (3, "")
    assert stderr == "attack failed: the attack needs odd d >= 3, got d = 4\n"


@pytest.mark.parametrize(
    "n, d, field_poly", [(3, 1, "0xb"), (1, 2, "0x3")], ids=["d1", "n1-d2"]
)
def test_encrypt_in_a_group_too_small_for_an_exponent(tmp_path, n, d, field_poly):
    # 2^{n(d-1)} <= 2 leaves no exponent in [2, 2^{n(d-1)}): encrypt on a
    # hand-written key refuses as keygen does
    header = f"version = 1\nn = {n}\nd = {d}\nfield_poly = {field_poly}\n"
    row = _row(d, {0: 1})
    params, pub = tmp_path / "s.params", tmp_path / "s.pub"
    params.write_text(header + f"A = {row}\n")
    pub.write_text(header + f"A = {row}\nAm = {row}\n")
    for argv in (
        ["keygen", "--params", str(params), "--out-priv", str(tmp_path / "s.priv"),
         "--out-pub", str(tmp_path / "k.pub")],
        ["encrypt", "--pub", str(pub), "--in", row, "--out", str(tmp_path / "s.ct")],
    ):
        assert run_cli(argv) == (2, "", "group too small to hold a secret exponent\n")


# ---------------------------------------------------------------------------
# security

def test_security_estimate():
    code, stdout, _ = run_cli(["security", "estimate", "--n", "47", "--d", "11"])
    assert code == 0
    got = kv(stdout)
    assert got["primitive"] == "true"
    assert got["index_bits"] == "470"
    assert got["regime_exponential"] == "false"


def test_security_tables_scan():
    code, stdout, _ = run_cli(
        ["security", "tables", "--which", "1",
         "--n-lo", "41", "--n-hi", "41", "--d-lo", "11", "--d-hi", "50"]
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == TSV_HEADER
    assert [l.split("\t")[1] for l in lines[1:]] == ["11", "13", "19", "29", "37"]
    assert lines[1] == "41\t11\ttrue\t410\t-\t-\t-"


def test_security_tables_factored():
    code, stdout, _ = run_cli(
        ["security", "tables", "--which", "2",
         "--n-lo", "3", "--n-hi", "3", "--d-lo", "3", "--d-hi", "5"]
    )
    assert code == 0
    assert stdout.splitlines() == [
        TSV_HEADER,
        "3\t3\ttrue\t6\t7\ttrue\t1.40",
        "3\t5\ttrue\t12\t13\ttrue\t1.85",
    ]


def test_security_tables_empty_range():
    code, _, stderr = run_cli(
        ["security", "tables", "--which", "1",
         "--n-lo", "5", "--n-hi", "4", "--d-lo", "3", "--d-hi", "5"]
    )
    assert code == 1
    assert "empty range" in stderr


def test_security_verify_paper():
    code, stdout, _ = run_cli(["security", "verify-paper"])
    assert code == 3  # three quoted log2 values disagree with the primes
    got = kv(stdout)
    assert got["all_ok"] == "false"
    for i in range(1, 7):
        assert got[f"p{i}_prime"] == "true"
        assert got[f"p{i}_divides"] == "true"
        assert got[f"p{i}_primitive"] == "true"
    assert got["p1_log2"] == "152.4856" and got["p1_log2_ok"] == "true"
    assert got["p2_log2"] == "121.2651" and got["p2_log2_ok"] == "false"
    assert got["p3_log2"] == "133.4783" and got["p3_log2_ok"] == "true"
    assert got["p4_log2"] == "231.5634" and got["p4_log2_ok"] == "false"
    assert got["p5_log2"] == "253.1420" and got["p5_log2_ok"] == "true"
    assert got["p6_log2"] == "167.8102" and got["p6_log2_ok"] == "false"


# ---------------------------------------------------------------------------
# bench

def test_bench_pow_pinned():
    code, stdout, _ = run_cli(
        ["bench", "pow", "--n", "3", "--d", "11", "--bits", "128",
         "--trials", "200", "--seed", "1"]
    )
    assert code == 0
    got = kv(stdout)
    assert got["mean_general_mults"] == "63.2800"
    assert got["mean_field_mults"] == "7656.8800"
    assert got["mean_squarings"] == "127.0000"
    assert got["predicted_field_mults"] == "7744.0"
    assert float(got["mean_power_ms"]) > 0
    # measured within 5 percent of the d^2/2 per-bit model
    assert abs(float(got["mean_field_mults"]) - 7744.0) <= 0.05 * 7744.0


# ---------------------------------------------------------------------------
# hostile files: mutated params, keys and ciphertexts exit 0 or 2

HOSTILE_VALUES = (
    "", "0", "1", "-1", "2", "3", "11", "129", "0x", "0x0", "-0x1", "0xb",
    "0b1011", "1_1", "1e3", "nan", "9" * 40, "0x" + "f" * 40, "0x1,0x2", ",",
    "0x1,,0x3", "0x8", "raw", "bytes", "true", "é",
)


@st.composite
def mutated(draw, text):
    """text with one to four line edits: a line dropped or copied, a key or
    value or one comma-separated entry replaced, or a slice overwritten
    (surrogates included, which make the file invalid UTF-8)."""
    lines = text.splitlines()
    values = [v.strip() for line in lines for v in line.partition("=")[2].split(",")]
    keys = [line.partition("=")[0].strip() for line in lines]
    token = st.sampled_from(HOSTILE_VALUES) | st.sampled_from(values)
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        key, eq, value = lines[i].partition("=")
        op = draw(st.sampled_from(("drop", "copy", "key", "value", "entry", "slice")))
        if op == "drop":
            del lines[i]
        elif op == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "key":
            new = draw(st.sampled_from(keys) | st.sampled_from(HOSTILE_VALUES))
            lines[i] = f"{new} ={value}"
        elif op == "value":
            lines[i] = f"{key}= {draw(token)}"
        elif op == "entry":
            parts = value.split(",")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(token)
            lines[i] = key + eq + ",".join(parts)
        else:
            a = draw(st.integers(0, len(lines[i])))
            b = draw(st.integers(a, len(lines[i])))
            lines[i] = lines[i][:a] + draw(st.text(max_size=6)) + lines[i][b:]
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


@pytest.fixture(scope="module")
def hostile_setup(tmp_path_factory, params311):
    root = tmp_path_factory.mktemp("hostile")
    params, priv, pub, ct = (str(root / f) for f in ("p", "k.priv", "k.pub", "m.ct"))
    save_params(params311, params)
    run_cli(["keygen", "--params", params, "--out-priv", priv, "--out-pub", pub,
             "--seed", "51"])
    plain = root / "plain.bin"
    plain.write_bytes(b"hostile")
    run_cli(["encrypt", "--pub", pub, "--infile", str(plain), "--out", ct,
             "--seed", "52"])
    return root, {"params": params, "pub": pub, "ct": ct}, priv, str(plain)


@pytest.mark.parametrize("length", ("-1", "2", "9", "1000"))
def test_decrypt_rejects_length_the_blocks_cannot_hold(hostile_setup, length):
    # 7 or 8 bytes are 19 to 22 3-bit entries, two (3,11) blocks; a larger
    # claimed length would make the decoder build a mask of 8 * length bits
    root, files, priv, _ = hostile_setup
    ct = root / "length.ct"
    text = Path(files["ct"]).read_text()
    assert "length = 7\n" in text and "blocks = 2\n" in text
    ct.write_text(text.replace("length = 7\n", f"length = {length}\n"))
    code, stdout, stderr = run_cli(
        ["decrypt", "--priv", priv, "--in", str(ct), "--out", str(root / "x")]
    )
    assert code == 2 and stdout == ""
    assert "cannot hold" in stderr


@pytest.mark.parametrize("count", ("0", "-3"))
def test_decrypt_rejects_raw_file_with_no_blocks(hostile_setup, count):
    # the bytes encoding implies at least one block; a raw file must say so
    root, files, priv, _ = hostile_setup
    ct = root / "raw.ct"
    code, _, _ = run_cli(["encrypt", "--pub", files["pub"], "--in", "0x1" + ",0x0" * 10,
                          "--out", str(ct), "--seed", "54"])
    assert code == 0
    lines = ct.read_text().splitlines(keepends=True)
    assert "blocks = 1\n" in lines
    ct.write_text("".join(
        f"blocks = {count}\n" if line == "blocks = 1\n" else line
        for line in lines
        if not line.startswith(("Ar =", "w ="))
    ))
    code, stdout, stderr = run_cli(
        ["decrypt", "--priv", priv, "--in", str(ct), "--out", str(root / "x")]
    )
    assert code == 2 and stdout == ""
    assert f"blocks must be positive, got {count}" in stderr


def test_negative_field_poly_exits_2(hostile_setup):
    # -0x7 has the bit length of a degree-2 modulus, and reducing by it
    # never ended; each command runs in a fresh interpreter with a timeout,
    # so a hang fails here instead of stalling the run
    root, files, priv, plain = hostile_setup
    out = str(root / "out")
    argvs = {
        "params": lambda p: ["params", "check", p],
        "pub": lambda p: ["encrypt", "--pub", p, "--infile", plain, "--out", out],
        "priv": lambda p: ["decrypt", "--priv", p, "--in", files["ct"], "--out", out],
        "ct": lambda p: ["decrypt", "--priv", priv, "--in", p, "--out", out],
    }
    for kind, argv in argvs.items():
        text = Path(files.get(kind, priv)).read_text()
        assert "n = 3\n" in text and "field_poly = 0xb\n" in text
        path = root / f"negative.{kind}"
        path.write_text(
            text.replace("n = 3\n", "n = 2\n").replace("0xb\n", "-0x7\n")
        )
        proc = subprocess.run(
            [sys.executable, "-m", "circulant_elgamal.cli", *argv(str(path))],
            capture_output=True, text=True, timeout=60, env=_source_env(),
        )
        assert proc.returncode == 2 and proc.stdout == "", (kind, proc.stderr)
        assert "-0b111 is not an irreducible degree-2 polynomial" in proc.stderr


def _reading(kind, path, hostile_setup):
    """The command that reads a `kind` file at `path`, with the other
    files of hostile_setup."""
    root, files, priv, plain = hostile_setup
    out = str(root / "out")
    return {
        "params": ["params", "check", str(path)],
        "pub": ["encrypt", "--pub", str(path), "--infile", plain, "--out", out,
                "--seed", "53"],
        "priv": ["decrypt", "--priv", str(path), "--in", files["ct"], "--out", out],
        "ct": ["decrypt", "--priv", priv, "--in", str(path), "--out", out],
    }[kind]


@pytest.mark.parametrize("kind", ("params", "pub", "priv", "ct"))
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_files_exit_0_or_2(hostile_setup, kind, data):
    root, files, priv, _ = hostile_setup
    path = root / f"mutated.{kind}"
    path.write_bytes(data.draw(mutated(Path(files.get(kind, priv)).read_text())))
    code, _, stderr = run_cli(_reading(kind, path, hostile_setup))
    assert code in (0, 2), stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("kind", ("params", "pub", "priv", "ct"))
def test_non_utf8_file_exits_2_naming_it(hostile_setup, kind):
    root, files, priv, _ = hostile_setup
    path = root / f"latin1.{kind}"
    path.write_bytes(b"\xff" + Path(files.get(kind, priv)).read_bytes())
    assert run_cli(_reading(kind, path, hostile_setup)) == (
        2, "", f"{path}: not UTF-8 text\n"
    )


# each fault edits the entries of one line and gives the rest of the
# message after "<path>: <key>"; the field is GF(2^3) and d = 11
ENTRY_FAULTS = {
    "not hex": (lambda e: ["0xzz1"] + e[1:],
                ": invalid literal for int() with base 16: '0xzz1'"),
    "out of range": (lambda e: ["0x8"] + e[1:], ": value 0x8 out of range for GF(2^3)"),
    "no 0x": (lambda e: ["5"] + e[1:], ": field element must start with 0x, got '5'"),
    "one short": (lambda e: e[:-1], " has 10 entries, expected d = 11"),
}


@pytest.mark.parametrize("fault", ENTRY_FAULTS)
@pytest.mark.parametrize(
    "kind, key",
    [("params", "A"), ("priv", "A"), ("pub", "A"), ("pub", "Am"), ("ct", "Ar"),
     ("ct", "w")],
)
def test_malformed_entry_exits_2_naming_file_and_key(hostile_setup, kind, key, fault):
    root, files, priv, _ = hostile_setup
    edit, tail = ENTRY_FAULTS[fault]
    lines = Path(files.get(kind, priv)).read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
    lines[i] = f"{key} = " + ",".join(edit(lines[i].partition(" = ")[2].split(",")))
    path = root / f"entry.{kind}"
    path.write_text("\n".join(lines) + "\n")
    assert run_cli(_reading(kind, path, hostile_setup)) == (
        2, "", f"{path}: {key}{tail}\n"
    )


@pytest.mark.parametrize("fault", ENTRY_FAULTS)
def test_encrypt_in_malformed_block_exits_2_naming_it(tmp_path, hostile_setup, fault):
    _, files, _, _ = hostile_setup
    edit, tail = ENTRY_FAULTS[fault]
    block = ",".join(edit(["0x1"] * 11))
    out = tmp_path / "in.ct"
    code, stdout, stderr = run_cli(
        ["encrypt", "--pub", files["pub"], "--in", block, "--out", str(out)]
    )
    assert (code, stdout, stderr) == (2, "", f"--in{tail}\n")
    assert not out.exists()


def test_negative_private_exponent_exits_2_naming_the_file(hostile_setup):
    root, _, priv, _ = hostile_setup
    path = root / "negative-m.priv"
    text = Path(priv).read_text()
    m = load_private(priv).m
    assert f"m = {m}\n" in text
    path.write_text(text.replace(f"m = {m}\n", f"m = {-m}\n"))
    assert run_cli(_reading("priv", path, hostile_setup)) == (
        2, "", f"{path}: m must be nonnegative\n"
    )


# ---------------------------------------------------------------------------
# exit codes, seeding, determinism

def test_usage_errors():
    assert run_cli(["no-such-command"])[0] == 1
    assert run_cli(["params", "gen", "--n", "3"])[0] == 1  # missing args
    assert run_cli(["params", "gen", "--n", "0", "--d", "11", "--out", "x"])[0] == 1
    assert run_cli([])[0] == 1
    assert run_cli(["--help"])[0] == 0
    assert run_cli(["params", "--help"])[0] == 0


@pytest.fixture()
def system_randoms(monkeypatch):
    """The SystemRandom generators `elgamal` makes while the test runs."""
    made = []

    class Spy(random.SystemRandom):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(elgamal.random, "SystemRandom", Spy)
    return made


def _keygen_and_encrypt(tmp_path, params_file):
    priv, pub = str(tmp_path / "k.priv"), str(tmp_path / "k.pub")
    block = "0x1,0x2,0x3,0x4,0x5,0x6,0x7,0x0,0x1,0x2,0x3"
    return (
        ["keygen", "--params", params_file, "--out-priv", priv, "--out-pub", pub],
        ["encrypt", "--pub", pub, "--in", block, "--out", str(tmp_path / "m.ct")],
    )


def test_env_seed(tmp_path, monkeypatch, params_file, system_randoms):
    # --seed is the only seed: CIRC_ELGAMAL_SEED set in the shell leaves
    # keygen and encrypt on the OS CSPRNG
    monkeypatch.setenv("CIRC_ELGAMAL_SEED", "7")
    keygen, encrypt = _keygen_and_encrypt(tmp_path, params_file)
    assert run_cli(keygen)[0] == 0
    assert len(system_randoms) == 1
    assert run_cli(encrypt)[0] == 0
    assert len(system_randoms) == 2


def test_unseeded_keygen_and_encrypt_use_system_random(
    tmp_path, params_file, system_randoms
):
    keygen, encrypt = _keygen_and_encrypt(tmp_path, params_file)
    assert run_cli(keygen)[0] == 0
    assert len(system_randoms) == 1
    assert run_cli(encrypt)[0] == 0
    assert len(system_randoms) == 2
    # a seed keeps the reproducible generator
    assert run_cli(keygen + ["--seed", "1"])[0] == 0
    assert run_cli(encrypt + ["--seed", "2"])[0] == 0
    assert len(system_randoms) == 2


def test_env_seed_malformed(tmp_path, monkeypatch):
    # nothing reads the variable, so a value that is no integer fails nothing
    monkeypatch.setenv("CIRC_ELGAMAL_SEED", "zzz")
    code, _, stderr = run_cli(
        ["params", "gen", "--n", "3", "--d", "11", "--out", str(tmp_path / "x")]
    )
    assert (code, stderr) == (0, "")


def test_gen_determinism(tmp_path):
    outs = []
    for name in ("r1.params", "r2.params"):
        path = tmp_path / name
        _, stdout, _ = run_cli(
            ["params", "gen", "--n", "1", "--d", "11", "--seed", "3",
             "--out", str(path)]
        )
        got = kv(stdout)
        got.pop("out")
        outs.append((got, path.read_bytes()))
    assert outs[0] == outs[1]


def _script_target(name):
    # the value of `name = "module:attr"` under [project.scripts]
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    for line in section.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == name:
            return value.strip().strip('"')
    raise LookupError(name)


def test_entry_point_target_runs():
    # the install-independent half of the console script: the target
    # pyproject.toml names must load and run in a fresh interpreter
    target = _script_target("circ-elgamal")
    code = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint('circ-elgamal', {target!r}, 'console_scripts').load()\n"
        "sys.exit(main())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "security", "estimate", "--n", "47", "--d", "11"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "index_bits=470" in proc.stdout


@pytest.mark.skipif(
    shutil.which("circ-elgamal") is None, reason="circ-elgamal is not on PATH"
)
def test_installed_entry_point():
    exe = shutil.which("circ-elgamal")
    proc = subprocess.run(
        [exe, "security", "estimate", "--n", "47", "--d", "11"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "index_bits=470" in proc.stdout
