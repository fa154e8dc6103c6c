"""ElGamal over determinant-1 circulant matrices on GF(2^n).

A d x d circulant over GF(2^n) is its first row; products are cyclic
convolutions of those rows, so the whole scheme runs on length-d
coefficient vectors. Key generation (`keygen.generate`) constructs
matrices passing the five security conditions, `elgamal` implements
encryption on top of them, `dlp` carries the desk-scale attacks, and
`security` reproduces the published parameter and security tables.
"""

from importlib import import_module

# Each public name and the module that binds it. A name is imported on
# first use (PEP 562), so a command loads only the modules it runs.
_HOME = {
    name: module
    for module, names in {
        "circulant": "Circulant NotInvertible inverse matvec mul power power_cost"
        " square",
        "dlp": "NotFound bsgs pohlig_hellman solve_circulant_dlp",
        "elgamal": "Ciphertext PrivateKey PublicKey decrypt encrypt oracle_reduction",
        "gf2field": "FieldElement FieldSpec Poly field_make",
        "keygen": "ConditionReport NotPrimitive OrderInfo ParamSet five_conditions"
        " generate load_params order_of save_params",
        "numtheory": "Factorization factor is_prime is_primitive_mod",
        "security": "SecurityReport estimate generic_bits index_calculus_bits"
        " regime_check scan_primitive_pairs security_table verify_reference_primes"
        " reference_pairs_diff verify_reference_security_bits",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    # not cached in the package: a tracer that rebinds a home module's
    # function is seen here, and so is its removal
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = sorted(_HOME)
