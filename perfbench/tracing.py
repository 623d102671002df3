"""Per-layer spans for a traced run, recorded from outside the package.

No file of monopair is edited.  For the length of a traced run, each listed
function is replaced at the module attribute its caller looks it up through
by a wrapper that records one span per call: id, layer name, start, end,
parent span and op id.  Self time is a span's duration minus the time
covered by the wrapped calls made inside it.

A target whose module or attribute no longer exists is reported as absent
instead of failing the run, so the benchmark keeps working when a later
change merges, moves or removes a function.
"""

import importlib
import json
import time

# (layer, module, attribute): one row per call site that callers go through.
TARGETS = (
    ("cli.main", "monopair.cli", "main"),
    ("graphs.curve_from_dict", "monopair.cli", "curve_from_dict"),
    ("graphs.cycle_basis", "monopair.cli", "cycle_basis"),
    ("graphs.cycle_basis", "monopair.graphs", "cycle_basis"),
    ("pairing.pairing_matrix", "monopair.cli", "pairing_matrix"),
    ("pairing.pairing_matrix", "monopair.pairing", "pairing_matrix"),
    ("pairing.specialize", "monopair.cli", "specialize"),
    ("pairing.specialize", "monopair.pairing", "specialize"),
    ("pairing.is_positive_definite", "monopair.pairing", "is_positive_definite"),
    ("pairing.component_group", "monopair.cli", "component_group"),
    ("intlinalg.det", "monopair.pairing", "det"),
    ("intlinalg.det", "monopair.realizations", "det"),
    ("intlinalg.leading_minors_all_positive", "monopair.pairing", "leading_minors_all_positive"),
    # One function, two call sites: the Gram matrix under component_group,
    # and the primitivity check of CycleBasis.
    ("intlinalg.smith_divisors.gram", "monopair.pairing", "smith_divisors"),
    ("intlinalg.smith_divisors.basis", "monopair.graphs", "smith_divisors"),
    ("realizations.monodromy_weight_check", "monopair.realizations", "monodromy_weight_check"),
    ("realizations.picard_lefschetz", "monopair.realizations", "picard_lefschetz"),
    ("extpan.torsor_report", "monopair.extpan.variegated", "torsor_report"),
    ("extpan.extpan_fiber", "monopair.extpan.variegated", "extpan_fiber"),
    ("extpan.connecting_image", "monopair.extpan.variegated", "connecting_image"),
    ("extpan.difference", "monopair.extpan.variegated", "difference"),
    ("extpan.act", "monopair.extpan.variegated", "act"),
    ("extpan.pushforward", "monopair.extpan.variegated", "pushforward"),
    ("extpan.ext1_classes", "monopair.extpan.variegated", "_ext1_classes_unchecked"),
    ("extpan.coboundary_witness", "monopair.extpan.variegated", "coboundary_witness"),
    ("extpan.baer_sum", "monopair.extpan.variegated", "baer_sum"),
    ("extpan.class_negate", "monopair.extpan.variegated", "class_negate"),
    ("bruteforce.ext1_order_exhaustive", "monopair.extpan.bruteforce", "ext1_order_exhaustive"),
    ("bruteforce.coboundary_subgroup_order", "monopair.extpan.bruteforce", "coboundary_subgroup_order"),
    ("kernels.count_cocycles", "monopair._kernels", "count_cocycles"),
    ("kernels.search_coboundary", "monopair._kernels", "search_coboundary"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

# The layer whose returned list lengths add up to count.classes_enumerated.
CLASS_ENUMERATION = "extpan.ext1_classes"


class Tracer:
    """Installs the wrappers, records spans in memory, and removes them again."""

    def __init__(self):
        self.spans = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.classes_enumerated = 0
        self.op_id = None
        self.absent_targets = []
        self._stack = []
        self._next_id = 0
        self._installed = []

    def install(self):
        for layer, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent_targets.append("%s.%s" % (module_name, attr))
                continue
            setattr(module, attr, self._wrap(layer, original))
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def absent_layers(self):
        present = {
            layer
            for layer, module_name, attr in TARGETS
            if "%s.%s" % (module_name, attr) not in self.absent_targets
        }
        return [layer for layer in LAYERS if layer not in present]

    def _wrap(self, layer, fn):
        tracer = self
        counts_classes = layer == CLASS_ENUMERATION

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[layer] += 1
                tracer.self_s[layer] += duration - frame[1]
                tracer.spans.append((span_id, layer, start, end, parent, tracer.op_id))
            if counts_classes:
                tracer.classes_enumerated += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, layer, start, end, parent, op_id in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": layer, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )
