"""Spans and counters for the traced run, recorded from outside the program.

Each layer function is wrapped by rebinding its name in every ``relangle``
module that holds it (methods are rebound on their class), so calls between
modules and inside a module both pass through the wrapper.  Nothing in the
package changes; the wrappers exist only inside the benchmark process and
only while ``Tracer.installed()`` is active.
"""

import contextlib
import sys
import time
from collections import Counter

# Span name -> (module, attribute path).  The span name is the layer metric
# prefix: "<name>.calls" and "<name>.self_s".
LAYERS = {
    "angular.rotation_matrix": ("angular", "rotation_matrix"),
    "angular.coherent_state": ("angular", "coherent_state"),
    "coupling.decomposition": ("coupling", "decomposition"),
    "coupling.clebsch_gordan": ("coupling", "clebsch_gordan"),
    "coupling.projector": ("coupling", "projector"),
    "coupling.block_probabilities": ("coupling", "CouplingDecomposition.block_probabilities"),
    "states.invariant_average": ("states", "invariant_average"),
    "states.product_coherent_pair": ("states", "product_coherent_pair"),
    "states.DensityMatrix": ("states", "DensityMatrix.__post_init__"),
    "estimation.povm_outcome_probabilities": ("estimation", "povm_outcome_probabilities"),
    "estimation.outcome_probabilities": ("estimation", "outcome_probabilities"),
    "estimation.AngleDensity": ("estimation", "AngleDensity.__init__"),
    "estimation.bayes_update": ("estimation", "bayes_update"),
    "estimation.information_gain": ("estimation", "information_gain"),
    "estimation.average_information_gain": ("estimation", "average_information_gain"),
    "locc.ppt_threshold": ("locc", "ppt_threshold"),
    "locc.partial_transpose": ("locc", "partial_transpose"),
    "locc.locc_protocol_statistics": ("locc", "locc_protocol_statistics"),
    "sim.run_experiment": ("sim", "run_experiment"),
    "sim.haar_rotation": ("sim", "haar_rotation"),
    "sim.sample_outcome": ("sim", "sample_outcome"),
    "cli.main": ("cli", "main"),
}

# Counters read from a call's result, recorded at the same boundaries as the
# spans.  The quadrature counter has no span: it reads the node count that the
# private integrator returns.
def _count_angles(tracer, result):
    tracer.counts["estimation.povm_outcome_probabilities.angles"] += result.shape[-1]


def _count_pair(tracer, result):
    tracer.pairs.add((result.j1.twice_j, result.j2.twice_j))


def _count_nodes(tracer, result):
    tracer.quad_nodes_max = max(tracer.quad_nodes_max, result[1])


_HOOKS = {
    "estimation.povm_outcome_probabilities": _count_angles,
    "coupling.decomposition": _count_pair,
}


class Tracer:
    """Records spans (name, start, end, parent index, job id) and counts."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self.self_s = Counter()
        self.counts = Counter()
        self.pairs = set()
        self.quad_nodes_max = 0
        self.job = -1
        self._stack = []  # [span index, time covered by child spans]

    def _span(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.job)
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.counts[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _counter(self, fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every layer function to its wrapper; restore on exit."""
        restore = []
        try:
            for name, (module, path) in LAYERS.items():
                self._rebind(module, path, lambda fn, n=name: self._span(n, fn, _HOOKS.get(n)),
                             restore)
            self._rebind("estimation", "_adaptive_integral",
                         lambda fn: self._counter(fn, _count_nodes), restore)
            yield self
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    @staticmethod
    def _rebind(module, path, make_wrapper, restore):
        owner = sys.modules[f"relangle.{module}"]
        *classes, attribute = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name, None)
        original = getattr(owner, attribute, None)
        if original is None:
            print(f"trace: relangle.{module}.{path} not found; its metrics read 0", file=sys.stderr)
            return
        wrapper = make_wrapper(original)
        if classes:
            targets = [(owner, attribute)]
        else:
            targets = [
                (mod, name)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "relangle" or mod_name.startswith("relangle.")
                for name, value in list(vars(mod).items())
                if value is original
            ]
        for target, name in targets:
            restore.append((target, name, original))
            setattr(target, name, wrapper)

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times of everything recorded since reset."""
        metrics = {}
        for name in LAYERS:
            metrics[f"{name}.calls"] = (self.counts[name], "count")
            metrics[f"{name}.self_s"] = (self.self_s[name], "s")
        metrics["estimation.povm_outcome_probabilities.angles"] = (
            self.counts["estimation.povm_outcome_probabilities.angles"], "count")
        metrics["coupling.decomposition.distinct_pairs"] = (len(self.pairs), "count")
        metrics["estimation.quad_nodes_max"] = (self.quad_nodes_max, "count")
        return metrics


def span_table(spans) -> dict:
    """Spans in a compact form for writing out: names once, rows by index."""
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    return {
        "fields": ["name", "start", "end", "parent", "job"],
        "names": names,
        "spans": [[index[n], s, e, p, j] for n, s, e, p, j in spans],
    }
