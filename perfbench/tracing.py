"""Span recorder that wraps the library's public functions from outside.

Nothing under ``src/`` changes: ``install`` replaces each traced function
at every module that binds it (``power`` is imported by name into
``keygen``, ``elgamal``, ``dlp`` and ``cli``; ``factor`` into
``gf2field``, ``keygen``, ``dlp`` and ``security``), so calls made
through any of those names are recorded. Spans stay in memory as tuples
and are written out once, at the end of a run.

A span is ``(span_id, parent_id, request_id, name, t0, t1, self_s)``;
self time is the span's duration minus the time its direct child spans
cover. Calls are strictly nested (one thread), so the children's
durations add up without overlap.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import math
import time

PACKAGE = "circulant_elgamal"

# Public functions traced per module; each name is reported as
# "<module>.<function>".
TRACED = {
    "numtheory": ("factor", "is_prime"),
    "gf2field": (
        "primitive_poly",
        "poly_is_irreducible",
        "poly_mod_mul",
        "poly_mod_pow",
        "poly_ext_gcd",
        "frobenius",
    ),
    "circulant": (
        "power",
        "mul",
        "square",
        "matvec",
        "inverse",
        "det",
        "char_poly_quotient",
    ),
    "keygen": ("generate", "five_conditions", "order_of"),
    "elgamal": (
        "keygen",
        "encrypt",
        "decrypt",
        "encode_bytes",
        "save_ciphertexts",
        "load_ciphertexts",
    ),
    "dlp": ("solve_circulant_dlp", "reduce_to_field", "pohlig_hellman", "bsgs"),
    "security": ("security_table",),
    "cli": ("main",),
}

CLI_SUBCOMMANDS = (
    "params_gen",
    "params_check",
    "keygen",
    "encrypt",
    "decrypt",
    "attack_dlp",
)
# The per-layer metrics a traced run reports, in BENCHMARK.json order.
# calls/self_s come from spans; the rest from the counters below.
PER_LAYER = (
    [
        "numtheory.factor.calls",
        "numtheory.factor.self_s",
        "numtheory.factor.incomplete",
        "numtheory.factor.cofactor_bits",
        "numtheory.is_prime.calls",
        "numtheory.is_prime.self_s",
        "gf2field.primitive_poly.calls",
        "gf2field.primitive_poly.self_s",
        "gf2field.primitive_poly.draw_yield",
    ]
    + [
        f"gf2field.{f}.{s}"
        for f in ("poly_is_irreducible", "poly_mod_mul", "poly_mod_pow", "poly_ext_gcd")
        for s in ("calls", "self_s")
    ]
    + [
        "gf2field.frobenius.self_s",
        "circulant.power.calls",
        "circulant.power.self_s",
        "circulant.power.exp_bits",
        "circulant.power.model_field_mults",
    ]
    + [
        f"circulant.{f}.{s}"
        for f in ("mul", "square", "matvec", "inverse")
        for s in ("calls", "self_s")
    ]
    + [
        "circulant.det.self_s",
        "circulant.char_poly_quotient.self_s",
        "keygen.generate.self_s",
        "keygen.generate.attempts",
        "keygen.five_conditions.calls",
        "keygen.five_conditions.self_s",
        "keygen.five_conditions.pass_ratio",
        "keygen.order_of.self_s",
        "keygen.order_of.exact_ratio",
        "elgamal.keygen.self_s",
        "elgamal.encrypt.calls",
        "elgamal.encrypt.self_s",
        "elgamal.decrypt.calls",
        "elgamal.decrypt.self_s",
        "elgamal.encode_bytes.self_s",
        "elgamal.save_ciphertexts.self_s",
        "elgamal.load_ciphertexts.self_s",
        "dlp.solve_circulant_dlp.self_s",
        "dlp.reduce_to_field.self_s",
        "dlp.pohlig_hellman.self_s",
        "dlp.bsgs.calls",
        "dlp.bsgs.self_s",
        "dlp.bsgs.table_entries",
        "dlp.bsgs.max_leaf_bits",
        "security.security_table.self_s",
        "security.security_table.rows",
    ]
    + [f"cli.main.{sub}.self_s" for sub in CLI_SUBCOMMANDS]
    + ["cli.process_s", "trace.overhead_ratio"]
)


def _unit(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_ratio") or stat == "draw_yield":
        return "ratio"
    if stat.endswith("_bits"):
        return "bits"
    return "count"


def _in(stack, name: str) -> bool:
    return any(frame[2] == name for frame in stack)


# Counters taken at the boundary where the work happens. Each hook sees
# the call's arguments and result, and the stack of enclosing spans.
def _factor(c, stack, args, kwargs, result):
    if not result.complete:
        c["numtheory.factor.incomplete"] += 1
        c["numtheory.factor.cofactor_bits"] += result.cofactor.bit_length()


def _irreducible(c, stack, args, kwargs, result):
    if _in(stack, "gf2field.primitive_poly"):
        c["gf2field.primitive_poly.irreducible_tests"] += 1


def _primitive_poly(c, stack, args, kwargs, result):
    c["gf2field.primitive_poly.results"] += 1
    if _in(stack, "keygen.generate"):
        c["keygen.generate.attempts"] += 1


def _power(c, stack, args, kwargs, result):
    a, m = args[0], args[1]
    c["circulant.power.exp_bits"] += m.bit_length()
    # the paper's cost model, computed from the exponent (not measured)
    c["circulant.power.model_field_mults"] += max(bin(m).count("1") - 1, 0) * a.d * a.d


def _five_conditions(c, stack, args, kwargs, result):
    c["keygen.five_conditions.passed"] += result.all


def _order_of(c, stack, args, kwargs, result):
    c["keygen.order_of.calls"] += 1
    c["keygen.order_of.exact"] += result.exact


def _bsgs(c, stack, args, kwargs, result):
    order = args[2]
    c["dlp.bsgs.table_entries"] += math.isqrt(order - 1) + 1
    c["dlp.bsgs.max_leaf_bits"] = max(c["dlp.bsgs.max_leaf_bits"], order.bit_length())


def _security_table(c, stack, args, kwargs, result):
    c["security.security_table.rows"] += len(result)


HOOKS = {
    "numtheory.factor": _factor,
    "gf2field.poly_is_irreducible": _irreducible,
    "gf2field.primitive_poly": _primitive_poly,
    "circulant.power": _power,
    "keygen.five_conditions": _five_conditions,
    "keygen.order_of": _order_of,
    "dlp.bsgs": _bsgs,
    "security.security_table": _security_table,
}

MAX_COUNTERS = ("dlp.bsgs.max_leaf_bits",)


def cli_span_name(argv) -> str:
    """Span name of one CLI call: cli.main.<command>[_<subcommand>]."""
    words = [w for w in argv[:2] if not w.startswith("-")]
    if words and words[0] in ("params", "attack", "security", "bench"):
        return "cli.main." + "_".join(words[:2])
    return "cli.main." + (words[0] if words else "none")


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = collections.defaultdict(int)
        self.request_id: str | None = None
        self._stack: list[list] = []  # [span_id, child_s, name]
        self._next_id = 0
        self._undo: list[tuple] = []

    def _record(self, name: str, fn, args, kwargs, hook):
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0.0, name]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
            self.spans.append(
                (
                    sid,
                    parent[0] if parent is not None else None,
                    self.request_id,
                    name,
                    t0,
                    t1,
                    dur - frame[1],
                )
            )
        if hook is not None:
            hook(self.counters, stack, args, kwargs, result)
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn under a span of its own, e.g. one request."""
        return self._record(name, fn, args, kwargs, None)

    def install(self) -> None:
        """Wrap every traced function at every module that binds it."""
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED
        ]
        for mod_name, fnames in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fname in fnames:
                orig = getattr(home, fname)
                name = f"{mod_name}.{fname}"
                if name == "cli.main":
                    wrapper = self._wrap_cli_main(orig)
                else:
                    wrapper = self._wrap(name, orig, HOOKS.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _wrap(self, name, fn, hook):
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return record(name, fn, args, kwargs, hook)

        return traced

    def _wrap_cli_main(self, fn):
        record = self._record

        @functools.wraps(fn)
        def traced(argv=None):
            return record(cli_span_name(argv or []), fn, (argv,), {}, None)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)

    def merge(self, path) -> float:
        """Add the spans and counters another process dumped.

        Its root spans become children of the span open here, which
        makes that span's self time the other process's untraced time.
        Returns the summed duration of those root spans.
        """
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        here = self._stack[-1] if self._stack else None
        base = self._next_id
        top = 0
        roots_s = 0.0
        for sid, parent, rid, name, t0, t1, self_s in data["spans"]:
            if parent is None:
                roots_s += t1 - t0
                parent = here[0] if here is not None else None
            else:
                parent += base
            self.spans.append((base + sid, parent, rid, name, t0, t1, self_s))
            top = max(top, sid + 1)
        self._next_id = base + top
        if here is not None:
            here[1] += roots_s
        merge_counters(self.counters, data["counters"])
        return roots_s


def merge_counters(into: dict, other: dict) -> None:
    for key, value in other.items():
        if key in MAX_COUNTERS:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def span_totals(spans) -> dict[str, list]:
    """name -> [calls, self_s]."""
    out: dict[str, list] = {}
    for _sid, _parent, _rid, name, _t0, _t1, self_s in spans:
        row = out.setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += self_s
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(totals: dict, counters: dict, passes: int) -> dict[str, float]:
    """Every PER_LAYER metric, as a mean per pass.

    Counts repeat exactly from pass to pass (same inputs, cold caches),
    so their mean is the count of one pass. Ratios are pooled over all
    passes. A function that never ran reports 0.
    """
    out = {}
    for metric in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        if stat in ("calls", "self_s"):
            row = totals.get(name, (0, 0.0))
            value = row[0] if stat == "calls" else row[1]
            out[metric] = value / passes
        elif metric == "gf2field.primitive_poly.draw_yield":
            out[metric] = _ratio(
                counters.get("gf2field.primitive_poly.results", 0),
                counters.get("gf2field.primitive_poly.irreducible_tests", 0),
            )
        elif metric == "keygen.five_conditions.pass_ratio":
            out[metric] = _ratio(
                counters.get("keygen.five_conditions.passed", 0),
                totals.get("keygen.five_conditions", (0,))[0],
            )
        elif metric == "keygen.order_of.exact_ratio":
            out[metric] = _ratio(
                counters.get("keygen.order_of.exact", 0),
                counters.get("keygen.order_of.calls", 0),
            )
        elif metric in MAX_COUNTERS:
            out[metric] = counters.get(metric, 0)
        elif metric in ("cli.process_s", "trace.overhead_ratio"):
            continue  # filled in by the workload
        else:
            out[metric] = counters.get(metric, 0) / passes
    return out


def _top(self_s: dict[str, float]) -> tuple[str, float]:
    if not self_s:
        return "none", 0.0
    name = max(self_s, key=self_s.get)
    return name, _ratio(self_s[name], sum(self_s.values()))


def request_kind(request_id: str) -> str:
    """"5,19:attack_dlp:0" -> "attack_dlp"; "message-0" -> "message"."""
    if ":" in request_id:
        return request_id.split(":")[1]
    return request_id.split("-")[0]


def dominant(spans) -> tuple[tuple[str, float], dict[str, tuple[str, float]]]:
    """Library function with the largest self time, and its share of all
    library self time: over the whole run, and per kind of request."""
    overall: dict[str, float] = collections.defaultdict(float)
    by_kind: dict[str, dict[str, float]] = {}
    for _sid, _parent, rid, name, _t0, _t1, self_s in spans:
        if name.startswith("request."):
            continue
        overall[name] += self_s
        if rid is not None:
            kind = by_kind.setdefault(request_kind(rid), collections.defaultdict(float))
            kind[name] += self_s
    return _top(overall), {k: _top(v) for k, v in sorted(by_kind.items())}


UNITS = {m: _unit(m) for m in PER_LAYER}
