"""Spans and counters around livcalc's public functions, recorded from the
benchmark's side: nothing inside ``src/`` is changed.

A span is (name, start, end, parent, op).  Spans are kept in memory and
written out when the run ends; a span's self time is its duration minus the
time its direct child spans cover.  The two hottest scalar entry points
(``AnalyticFn.__call__`` and ``MoebiusMap.__call__``, about 10^5 calls per
battery) are counted, not spanned, so the trace stays small; their time is
part of the enclosing span's self time.

Every binding a caller uses is replaced: the defining module's attribute and
each ``from ... import`` copy in any livcalc module.  ``install`` fails if an
original function is still reachable from a livcalc module afterwards.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _evaluate_many_counts(args, kwargs):
    zs = _arg(args, kwargs, 1, "zs")
    return {"core.evaluate_many.points": int(getattr(zs, "size", 1))}


def _herglotz_counts(args, kwargs):
    locs, weights, dens_x, dens_w, zs = (
        _arg(args, kwargs, i, n)
        for i, n in enumerate(("locs", "weights", "dens_x", "dens_w", "zs"))
    )
    samples = len(locs) + len(dens_x)
    points = len(zs)
    pairs = samples * points
    # the complex128 kernel matrix, the float64 inputs, the complex128
    # points and result
    computed = 16 * pairs + 8 * 2 * samples + 16 * 2 * points
    return {"kernels.herglotz_eval.pairs": pairs, "kernels.herglotz_eval.computed_bytes": computed}


def _simpson_counts(args, kwargs):
    return {"kernels.simpson_exp.panels": int(_arg(args, kwargs, 2, "n"))}


def _invert_result(result):
    return {"measure.atoms": len(result.atoms)}


def _refine_result(result):
    return {"measure.refine.nfev": int(result.nfev)}


#: (module, attribute, span name, counts from the arguments, counts from the result)
SPANNED: Tuple = (
    ("livcalc.cli", "main", "cli.main", None, None),
    ("livcalc.verify", "core_checks", "verify.core", None, None),
    ("livcalc.verify", "moebius_checks", "verify.moebius", None, None),
    ("livcalc.verify", "measure_checks", "verify.measure", None, None),
    ("livcalc.verify", "extension_checks", "verify.extension", None, None),
    ("livcalc.verify", "coupling_checks", "verify.coupling", None, None),
    ("livcalc.verify", "model_checks", "verify.model", None, None),
    ("livcalc.core", "evaluate_many", "core.evaluate_many", _evaluate_many_counts, None),
    ("livcalc.core", "sup_deviation", "core.sweeps", None, None),
    ("livcalc.core", "max_modulus", "core.sweeps", None, None),
    ("livcalc.core", "min_imag", "core.sweeps", None, None),
    ("livcalc.core", "evaluate_on_grid", "core.sweeps", None, None),
    ("livcalc._kernels", "herglotz_eval", "kernels.herglotz_eval", _herglotz_counts, None),
    ("livcalc._kernels", "simpson_exp", "kernels.simpson_exp", _simpson_counts, None),
    ("livcalc.oracle", "model_livsic_quadrature", "oracle.quadrature", None, None),
    ("livcalc.measure", "stieltjes_invert", "measure.stieltjes_invert", None, _invert_result),
    ("livcalc.measure", "minimize_scalar", "measure.refine", None, _refine_result),
    ("livcalc.coupling", "general_k_identity_defect", "coupling.general_k_identity_defect",
     None, None),
    ("livcalc.coupling", "verify_class_properties", "coupling.verify_class_properties",
     None, None),
    ("livcalc.extension", "class_C_check", "extension.class_C_check", None, None),
    ("livcalc.model", "split_interval_check", "model.split_interval_check", None, None),
)

#: (module, class, method, counter name): counted, not spanned.
COUNTED: Tuple = (
    ("livcalc.core", "AnalyticFn", "__call__", "core.scalar_calls"),
    ("livcalc.moebius", "MoebiusMap", "__call__", "moebius.calls"),
)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op: int = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # --- wrappers --------------------------------------------------------

    def spanned(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if before is not None:
                for key, value in before(args, kwargs).items():
                    counts[key] += value
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._pole(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                for key, value in after(result).items():
                    counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._pole(exc)
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    def _pole(self, exc: Exception) -> None:
        # a pole raised deep in a call chain passes through several wrappers;
        # count it once, where it is first seen
        from livcalc.errors import PoleEncountered

        if isinstance(exc, PoleEncountered) and not getattr(exc, "_perfbench_seen", False):
            exc._perfbench_seen = True
            self.counts["core.pole_hits"] += 1

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        # import every target first: a module imported later would keep
        # the originals it copied with ``from ... import``
        for mod_name, *_ in SPANNED + COUNTED:
            importlib.import_module(mod_name)
        modules = _livcalc_modules()
        for mod_name, attr, name, before, after in SPANNED:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(modules, original, self.spanned(original, name, before, after))
        for mod_name, cls_name, method, name in COUNTED:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = vars(cls)[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self.counted(original, name))
        leftovers = _reachable(_livcalc_modules(), [orig for _, _, orig in self._restore])
        if leftovers:
            self.uninstall()
            raise RuntimeError(f"untraced bindings remain: {', '.join(leftovers)}")

    def _rebind(self, modules, original, wrapped) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # --- results ---------------------------------------------------------

    def span_times(self) -> Dict[str, Dict[str, float]]:
        """Total and self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"total": 0.0, "self": 0.0})
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name]["total"] += end - start
            out[name]["self"] += end - start - child[k]
        return out

    def write(self, path: str) -> None:
        """All spans, gzipped JSON in columns: name index into ``names``,
        start and end in ns from the first span, parent span index, op."""
        names = sorted({span[0] for span in self.spans})
        index = {name: k for k, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({
                "names": names,
                "name": [index[s[0]] for s in self.spans],
                "start_ns": [round((s[1] - t0) * 1e9) for s in self.spans],
                "end_ns": [round((s[2] - t0) * 1e9) for s in self.spans],
                "parent": [s[3] for s in self.spans],
                "op": [s[4] for s in self.spans],
            }, handle)


def layer_metrics(tracer: Tracer, n: int) -> Dict[str, float]:
    """Per-layer numbers as means per traced op (``n`` ops)."""
    counts, spans = tracer.counts, tracer.span_times()

    def count(name):
        return counts.get(name, 0.0) / n

    def self_s(name):
        return spans[name]["self"] / n if name in spans else 0.0

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    out = {
        "core.scalar_calls": count("core.scalar_calls"),
        "core.sweeps.self_s": self_s("core.sweeps"),
        "core.evaluate_many.calls": count("core.evaluate_many.calls"),
        "core.evaluate_many.points": count("core.evaluate_many.points"),
        "core.evaluate_many.self_s": self_s("core.evaluate_many"),
        "core.pole_hits": count("core.pole_hits"),
    }
    for kernel, extra in (("herglotz_eval", ("pairs", "computed_bytes")),
                          ("simpson_exp", ("panels",))):
        name = f"kernels.{kernel}"
        out[f"{name}.calls"] = count(f"{name}.calls")
        out[f"{name}.self_s"] = self_s(name)
        for field in extra:
            out[f"{name}.{field}"] = count(f"{name}.{field}")
    out.update({
        "oracle.quadrature.calls": count("oracle.quadrature.calls"),
        "oracle.quadrature.self_s": self_s("oracle.quadrature"),
        "oracle.quadrature.panels_per_call":
            ratio("kernels.simpson_exp.panels", "oracle.quadrature.calls"),
        "measure.stieltjes_invert.self_s": self_s("measure.stieltjes_invert"),
        "measure.refine.calls": count("measure.refine.calls"),
        "measure.refine.nfev": count("measure.refine.nfev"),
        "measure.atoms_per_candidate": ratio("measure.atoms", "measure.refine.calls"),
        "moebius.calls": count("moebius.calls"),
        "cli.main.s": spans["cli.main"]["total"] / n if "cli.main" in spans else 0.0,
    })
    for name in ("coupling.general_k_identity_defect", "coupling.verify_class_properties",
                 "extension.class_C_check", "model.split_interval_check"):
        out[f"{name}.self_s"] = self_s(name)
    for suite in ("core", "moebius", "measure", "extension", "coupling", "model"):
        name = f"verify.{suite}"
        out[f"{name}.s"] = spans[name]["total"] / n if name in spans else 0.0
    return out


def _livcalc_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "livcalc" or name.startswith("livcalc."))
    ]


def _reachable(modules, originals) -> List[str]:
    """Names in livcalc modules (or containers at their top level) that still
    hold an unwrapped original."""
    ids = {id(o) for o in originals}
    found = []
    for module in modules:
        for key, value in vars(module).items():
            items = value.values() if isinstance(value, dict) else (
                value if isinstance(value, (list, tuple)) else (value,))
            if any(id(v) in ids for v in items):
                found.append(f"{module.__name__}.{key}")
    return found


def per_op_deltas(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0.0) for k in after if after[k] != before.get(k, 0.0)}


def import_times(root_env: dict, python: str, runs: int = 3) -> Optional[Dict[str, float]]:
    """Cold ``python -X importtime -c 'import livcalc.cli'``: the cumulative
    time of the livcalc imports and the self time of every scipy module,
    each the median over ``runs`` subprocesses."""
    import statistics
    import subprocess

    totals, scipys = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import livcalc.cli"],
            capture_output=True, text=True, env=root_env, timeout=60,
        )
        if proc.returncode != 0:
            return None
        total = scipy = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            try:
                self_us, cum_us = float(parts[0]), float(parts[1])
            except ValueError:
                continue  # the header line
            module = parts[2]
            name = module.strip()
            if module == " " + name and name.startswith("livcalc"):
                total += cum_us
            if name == "scipy" or name.startswith("scipy."):
                scipy += self_us
        totals.append(total * 1e-6)
        scipys.append(scipy * 1e-6)
    return {"cli.import_s": statistics.median(totals), "cli.import_scipy_s": statistics.median(scipys)}
