"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each listed public function of an antitri
module with a timing wrapper, in every antitri module that holds a
reference to it, so calls between modules are seen as well as the
benchmark's own.  A listed name that no longer exists is an error:
a silently shrinking trace would read as a faster layer.

Counts and times are aggregated as they happen.  A call's self time
is its duration minus that of the traced calls made inside it, and it
is charged to the module the function belongs to.  Work in core and
geninv is also attributed to its *owner*: the nearest enclosing traced
call from another module (formulas, oracle, conditions, sweep), or
``bench`` when the benchmark called it directly.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

LAYERS = {
    "core": ("rank_factorize", "rank", "solve", "invert"),
    "geninv": ("drazin", "index_of", "group_inverse", "spectral_idempotent", "verify_drazin_axioms"),
    "formulas": (
        "apply_formula", "lemma21_triangular", "lemma22_additive", "lemma24_additive", "cline",
        "thm23", "thm25", "cor26", "thm27", "thm31_group", "cor32_group", "thm33_group",
        "cor34_group", "cor35_group", "thm41_group", "cor42_group", "cor43_group", "cor44_group",
    ),
    "oracle": ("assemble", "oracle_inverse", "compare", "oracle_has_group_inverse"),
    "conditions": ("check_conditions", "generate"),
    "sweep": ("run_sweep", "existence_sweep"),
}
_LOW = ("core", "geninv")
OWNERS = ("formulas", "oracle", "conditions")
_REFUSALS = ("HypothesisError", "NoGroupInverse")


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self._stack: list[list] = []  # [layer, owner, child seconds]
        self.calls = collections.Counter()  # (layer, name) -> calls
        self.entries = collections.Counter()  # layer -> calls from another layer
        self.owned = collections.Counter()  # (owner, name) -> calls of core/geninv names
        self.self_s = collections.Counter()  # layer -> self seconds
        self.inclusive_s = collections.Counter()  # (layer, name) -> seconds
        self.raised = collections.Counter()  # (layer, name) -> calls that raised
        self.refusals = 0  # formulas entries that raised HypothesisError or said NoGroupInverse

    def install(self, package) -> None:
        modules = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(package.__name__ + ".")]
        missing = []
        for layer, names in LAYERS.items():
            home = sys.modules[f"{package.__name__}.{layer}"]
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    missing.append(f"{package.__name__}.{layer}.{name}")
                    continue
                wrapper = self._wrap(layer, name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
        if missing:
            raise RuntimeError("traced names no longer exist: " + ", ".join(missing))

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            owner = parent[1] if parent else "bench"
            if layer not in _LOW:
                owner = layer
            frame = [layer, owner, 0.0]
            stack.append(frame)
            out = err = None
            started = perf()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                err = exc
                raise
            finally:
                elapsed = perf() - started
                stack.pop()
                if parent is not None:
                    parent[2] += elapsed
                self.calls[layer, name] += 1
                self.inclusive_s[layer, name] += elapsed
                self.self_s[layer] += elapsed - frame[2]
                if layer in _LOW:
                    self.owned[owner, name] += 1
                if err is not None:
                    self.raised[layer, name] += 1
                if parent is None or parent[0] != layer:
                    self.entries[layer] += 1
                    refused = err if err is not None else out
                    if layer == "formulas" and type(refused).__name__ in _REFUSALS:
                        self.refusals += 1

        return wrapper

    def metrics(self, ops: int, ms_per_s: float) -> dict[str, float]:
        """Per-layer figures per operation of the traced phase; times are seconds * ms_per_s."""
        per = 1.0 / ops
        ms = ms_per_s * per
        gen_calls = self.calls["conditions", "generate"]
        out = {
            "core.calls": self.entries["core"] * per,
            "core.self_ms": self.self_s["core"] * ms,
            "geninv.drazin_calls": self.calls["geninv", "drazin"] * per,
            "geninv.index_of_calls": self.calls["geninv", "index_of"] * per,
            "geninv.axiom_checks": self.calls["geninv", "verify_drazin_axioms"] * per,
            "geninv.self_ms": self.self_s["geninv"] * ms,
            "geninv.axioms_ms": self.inclusive_s["geninv", "verify_drazin_axioms"] * ms,
            "formulas.calls": self.entries["formulas"] * per,
            "formulas.self_ms": self.self_s["formulas"] * ms,
            "formulas.refusals": self.refusals * per,
            "oracle.calls": self.entries["oracle"] * per,
            "oracle.self_ms": self.self_s["oracle"] * ms,
            "conditions.generate_calls": gen_calls * per,
            "conditions.generate_ms": self.inclusive_s["conditions", "generate"] * ms,
            "conditions.yield": (gen_calls - self.raised["conditions", "generate"]) / gen_calls if gen_calls else 0.0,
            "sweep.self_ms": self.self_s["sweep"] * ms,
        }
        for owner in OWNERS:
            out[f"{owner}.drazin_calls"] = self.owned[owner, "drazin"] * per
            out[f"{owner}.index_of_calls"] = self.owned[owner, "index_of"] * per
        return out
