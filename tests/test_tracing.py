"""The bench's tracer names only functions the library still has.

`perfbench/tracing.py` wraps each name in `TRACED` with `getattr` on its
module, so a public function deleted or renamed in `src/` breaks every
traced bench run. This loads the tracer's tables (the module imports
nothing of the package) and checks them against the package, and
installs the tracer to check that a call's work shows in its spans.
"""

import importlib
import importlib.util
from pathlib import Path

from circulant_elgamal import dlp
from circulant_elgamal.elgamal import keygen
from circulant_elgamal.numtheory import factor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for mod, names in tracing.TRACED.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"


def test_every_hook_is_on_a_traced_function():
    tracing = load_tracing()
    traced = {f"{mod}.{name}" for mod, names in tracing.TRACED.items() for name in names}
    assert set(tracing.HOOKS) <= traced


def test_pohlig_hellman_powers_are_traced(params311):
    # both leaf powers of each prime power of ord(A) and the final check
    # go through the traced `power`, as direct children of the span
    priv, pub = keygen(params311, seed=1)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        m = dlp.solve_circulant_dlp(pub.A, pub.Am)
    finally:
        tracer.uninstall()
    assert m == priv.m % params311.order_info.order
    (ph,) = [span[0] for span in tracer.spans if span[3] == "dlp.pohlig_hellman"]
    powers = [
        span for span in tracer.spans if span[1] == ph and span[3] == "circulant.power"
    ]
    prime_powers = len(factor(params311.order_info.order).factors)
    assert len(powers) == 2 * prime_powers + 1
