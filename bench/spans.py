"""Spans around calls into noonsim's public functions, for traced runs.

The program itself is not instrumented.  While a ``Tracer`` is installed,
each traced function is replaced, wherever a noonsim module holds a
reference to it, by a wrapper that records a span (name, start, end,
parent) and updates the counters below; uninstalling restores the
originals.  Spans stay in memory; each traced op is reduced to its
per-layer metrics, which the run writes into its record.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

# (module, attribute, per-layer metric that receives the span's self time)
TRACED = (
    ("program", "parse", "program.parse_ms"),
    ("program", "serialize", "program.serialize_ms"),
    ("protocol", "resolve_duration", "protocol.resolve_duration_ms"),
    ("protocol", "run_sequence", "protocol.run_sequence_self_ms"),
    ("protocol", "noon_fidelity", "protocol.noon_fidelity_ms"),
    ("dynamics", "closed_form_unitary", "dynamics.closed_form_unitary_ms"),
    ("dynamics", "carrier_rotation", "dynamics.carrier_rotation_ms"),
    ("dynamics", "apply_operator", "dynamics.apply_operator_ms"),
    ("dynamics", "sideband_hamiltonian", "dynamics.sideband_hamiltonian_ms"),
    ("dynamics", "expm_oracle", "dynamics.expm_oracle_ms"),
    ("dynamics", "guard_band_population", "dynamics.guard_band_population_ms"),
    ("fock", "HybridState.qubit_populations", "fock.qubit_populations_ms"),
    ("fock", "basis_state", "fock.basis_state_ms"),
    ("cli", "main", "cli.self_ms"),
    ("cli", "result_document", "cli.result_document_ms"),
)
METRIC = {f"{m}.{a}": metric for m, a, metric in TRACED}
# self times that hold whatever their callees do outside the traced functions
RESIDUAL = {"cli.self_ms", "protocol.run_sequence_self_ms"}
# functions whose result is a dense operator, counted in dense_operator_bytes
DENSE_BUILDERS = {"closed_form_unitary", "carrier_rotation", "sideband_hamiltonian", "expm_oracle"}

COUNTERS = (
    "protocol.grid_candidates",
    "dynamics.dense_operator_bytes",
    "dynamics.eigh_calls",
)


class Tracer:
    """Records spans and counters for the ops run while it is installed."""

    def __init__(self):
        self.spans: list[list] = []  # [op, name, start, end, parent index]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.hamiltonians: dict[int, set] = defaultdict(set)
        self.op = -1
        self._op_start: dict[int, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_start[op] = len(self.spans)

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        import numpy as np

        mods = [importlib.import_module(f"noonsim.{m}") for m in
                ("fock", "dynamics", "protocol", "program", "cli")]
        mods.append(importlib.import_module("noonsim"))
        protocol = importlib.import_module("noonsim.protocol")
        for modname, attr, _ in TRACED:
            name = f"{modname}.{attr}"
            home = importlib.import_module(f"noonsim.{modname}")
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth), meth, protocol))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, attr, protocol)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)
        eigh = np.linalg.eigh

        def counted_eigh(*args, **kwargs):
            self.counts[self.op]["dynamics.eigh_calls"] += 1
            return eigh(*args, **kwargs)

        self._patch(np.linalg, "eigh", counted_eigh)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def _patch(self, owner, key, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn, attr, protocol):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts[tracer.op]
            if attr == "resolve_duration":
                d = (args[0] if args else kwargs["spec"]).duration
                if isinstance(d, protocol.SuperpositionPi):
                    counts["protocol.grid_candidates"] += d.horizon + 1
            elif attr == "sideband_hamiltonian":
                spec = args[0] if args else kwargs["spec"]
                trunc = args[1] if len(args) > 1 else kwargs["trunc"]
                tracer.hamiltonians[tracer.op].add(
                    (spec.axis, spec.k, spec.eta, spec.omega, spec.form, trunc))
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [tracer.op, name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[2] = start
                tracer._stack.pop()
            if attr in DENSE_BUILDERS and getattr(out, "ndim", 0) == 2:
                counts["dynamics.dense_operator_bytes"] += 16 * out.shape[0] * out.shape[1]
            return out

        return wrapper

    # -- summary ----------------------------------------------------------
    def op_layers(self, op: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the op traced last, whose wall time was ``wall_s``.

        Each ``_ms`` metric is the self time of its spans: their duration
        minus the part covered by their child spans.  ``trace.coverage`` is
        the share of the wall time in the self time of named layers, leaving
        out the RESIDUAL layers, so that time in an untraced function lowers
        it instead of hiding in its caller's self time.
        """
        first = self._op_start[op]
        spans = self.spans[first:]
        layers = {metric: 0.0 for _, _, metric in TRACED}
        child = defaultdict(float)
        for s in spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        for i, s in enumerate(spans, start=first):
            layers[METRIC[s[1]]] += 1000.0 * (s[3] - s[2] - child[i])
        covered_ms = sum(v for k, v in layers.items() if k not in RESIDUAL)
        counts = self.counts[op]
        for name in COUNTERS:
            layers[name] = float(counts[name])
        eigh = counts["dynamics.eigh_calls"]
        distinct = len(self.hamiltonians[op])
        layers["dynamics.propagator_reuse_ratio"] = distinct / eigh if eigh else 1.0
        layers["trace.coverage"] = covered_ms / (1000.0 * wall_s)
        return layers


def summarize(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over ops of each per-layer metric."""
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
