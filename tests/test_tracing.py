"""The bench's tracer names only functions the library still has.

`perfbench/tracing.py` wraps each name in `TRACED` with `getattr` on its
module, so a public function deleted or renamed in `src/` breaks every
traced bench run. This loads the tracer's tables (the module imports
nothing of the package) and checks them against the package.
"""

import importlib
import importlib.util
from pathlib import Path

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
