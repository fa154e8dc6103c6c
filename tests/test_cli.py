"""Command-line interface: full pipelines through temp files, the
key=value output contract, and the 0/1/2/3 exit-code map.

Commands run in process via main(argv) so coverage and seeding stay
deterministic; one subprocess test exercises the installed script.
"""

import contextlib
import io
import random
import shutil
import subprocess

import pytest

from circulant_elgamal import cli, elgamal
from circulant_elgamal.circulant import Circulant, power
from circulant_elgamal.elgamal import PublicKey, load_private, load_public, save_public
from circulant_elgamal.keygen import load_params, save_params
from circulant_elgamal.security import TSV_HEADER


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
    assert got["det_order"] == "7"
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


def test_params_file_tampering_detected(tmp_path, params_file):
    bad = tmp_path / "tampered.params"
    bad.write_text(open(params_file).read().replace("version = 1", "version = 9"))
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
    assert open(out).read().strip() == block

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
# exit codes, seeding, determinism

def test_usage_errors():
    assert run_cli(["no-such-command"])[0] == 1
    assert run_cli(["params", "gen", "--n", "3"])[0] == 1  # missing args
    assert run_cli(["params", "gen", "--n", "0", "--d", "11", "--out", "x"])[0] == 1
    assert run_cli([])[0] == 1
    assert run_cli(["--help"])[0] == 0
    assert run_cli(["params", "--help"])[0] == 0


def test_env_seed(tmp_path, monkeypatch):
    a, b = tmp_path / "a.params", tmp_path / "b.params"
    monkeypatch.setenv("CIRC_ELGAMAL_SEED", "7")
    code, stdout_env, _ = run_cli(
        ["params", "gen", "--n", "3", "--d", "11", "--out", str(a)]
    )
    assert code == 0
    monkeypatch.delenv("CIRC_ELGAMAL_SEED")
    _, stdout_flag, _ = run_cli(
        ["params", "gen", "--n", "3", "--d", "11", "--seed", "7", "--out", str(b)]
    )
    assert kv(stdout_env)["order"] == kv(stdout_flag)["order"]
    assert a.read_text() == b.read_text()


def test_unseeded_keygen_and_encrypt_use_system_random(
    tmp_path, monkeypatch, params_file
):
    made = []

    class Spy(random.SystemRandom):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(elgamal.random, "SystemRandom", Spy)
    monkeypatch.delenv("CIRC_ELGAMAL_SEED", raising=False)
    priv, pub = str(tmp_path / "k.priv"), str(tmp_path / "k.pub")
    keygen = ["keygen", "--params", params_file, "--out-priv", priv, "--out-pub", pub]
    assert run_cli(keygen)[0] == 0
    assert len(made) == 1
    block = "0x1,0x2,0x3,0x4,0x5,0x6,0x7,0x0,0x1,0x2,0x3"
    encrypt = ["encrypt", "--pub", pub, "--in", block, "--out", str(tmp_path / "m.ct")]
    assert run_cli(encrypt)[0] == 0
    assert len(made) == 2
    # a seed, by flag or environment, keeps the reproducible generator
    assert run_cli(keygen + ["--seed", "1"])[0] == 0
    monkeypatch.setenv("CIRC_ELGAMAL_SEED", "2")
    assert run_cli(encrypt)[0] == 0
    assert len(made) == 2


def test_env_seed_malformed(tmp_path, monkeypatch):
    monkeypatch.setenv("CIRC_ELGAMAL_SEED", "zzz")
    code, _, stderr = run_cli(
        ["params", "gen", "--n", "3", "--d", "11", "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert "CIRC_ELGAMAL_SEED" in stderr


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


def test_installed_entry_point():
    exe = shutil.which("circ-elgamal")
    assert exe, "console script should be installed in this environment"
    proc = subprocess.run(
        [exe, "security", "estimate", "--n", "47", "--d", "11"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "index_bits=470" in proc.stdout
