"""Span tracing of homchip's public functions, installed from outside the package.

The wrappers replace module attributes: homchip's modules reach each other
through module attributes and globals (``el.pdc_amplitude``,
``dispersion.group_index``, ``run_chain`` inside ``hom_scan``), so a
wrapper set on the defining module, and on every homchip module that
imported the same object by name, sees every call.  Nothing under
``src/`` changes.

A span is the tuple (name, start, end, parent, op, counts): ``parent`` is
the index of the enclosing span in the same list (None at the top),
``op`` the operation id the benchmark assigned, ``counts`` a dict of
computed work counts or None.  Spans stay in memory; the caller writes
them out once, at the end of the run.
"""

import os
import sys
import time
from functools import wraps

N_MODES = 4
COMPLEX_BYTES = 16
FLOPS_PER_CMAC = 8  # one complex multiply-add is 4 real multiplies and 4 real adds


def _apply_element_counts(args, kwargs, result):
    """Computed from shapes: per sample, U(+) A U(-)^T is two (4x4)(4x4)
    products, 2 * 4**3 complex multiply-adds; bytes are the transfer
    matrices and the state read plus the state written."""
    state = args[0] if args else kwargs["state"]
    transfer = args[1] if len(args) > 1 else kwargs["transfer"]
    samples = state.values.shape[-1]
    cmacs = 2 * N_MODES**3 * samples
    return {
        "cmacs": cmacs,
        "flops": FLOPS_PER_CMAC * cmacs,
        "bytes": transfer.matrices.nbytes + state.values.nbytes + result.values.nbytes,
    }


def _chain_transfers_counts(args, kwargs, result):
    return {"bytes": sum(t.matrices.nbytes for t in result)}


def _dip_profile_counts(args, kwargs, result):
    """Computed from shapes: the dense (T, N) complex exp(i Omega tau) kernel."""
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    elements = len(result) * grid.samples
    return {"kernel_elements": elements, "kernel_bytes": elements * COMPLEX_BYTES}


def _written_file_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.stat(path).st_size}


#: (module, function, work counter) for every layer the benchmark traces.
TARGETS = (
    ("homchip.dispersion", "default_model", None),
    ("homchip.dispersion", "group_index", None),
    ("homchip.dispersion", "refractive_index", None),
    ("homchip.elements", "propagation_transfer", None),
    ("homchip.elements", "pc_chain_matrix", None),
    ("homchip.elements", "pdc_amplitude", None),
    ("homchip.elements", "pc_conversion_amplitude", None),
    ("homchip.elements", "filter_amplitude", None),
    ("homchip.chip", "parse_layout", None),
    ("homchip.chip", "delay_schedule", None),
    ("homchip.quantum", "hom_scan", None),
    ("homchip.quantum", "run_chain", None),
    ("homchip.quantum", "chain_transfers", _chain_transfers_counts),
    ("homchip.quantum", "build_source_state", None),
    ("homchip.quantum", "apply_element", _apply_element_counts),
    ("homchip.quantum", "coincidence_probability", None),
    ("homchip.quantum", "dip_scenarios", None),
    ("homchip.quantum", "dip_profile", _dip_profile_counts),
    ("homchip.cli", "write_csv", _written_file_counts),
    ("homchip.svgplot", "write_plot", _written_file_counts),
)


class Tracer:
    """Records spans in memory; ``install`` swaps the wrappers in."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def open(self, name, start=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter() if start is None else start,
                           None, parent, self.op, None])
        self._stack.append(index)
        return index

    def close(self, index, end=None, counts=None):
        span = self.spans[index]
        span[2] = time.perf_counter() if end is None else end
        span[5] = counts
        self._stack.pop()

    def adopt(self, spans):
        """Append spans recorded by a child process under the open span."""
        parent, base = self._stack[-1], len(self.spans)
        for name, start, end, own_parent, _, counts in spans:
            self.spans.append([name, start, end,
                               parent if own_parent is None else base + own_parent,
                               self.op, counts])

    def _wrap(self, name, fn, counter):
        @wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                # the counter reads only shapes and sizes, so it runs
                # after the end time is taken
                end = time.perf_counter()
                counts = counter(args, kwargs, result) if counter and done else None
                self.close(index, end, counts)

        return traced

    def install(self):
        """Replace each target in its defining module and in every homchip
        module that holds the same object under the same name."""
        modules = [m for n, m in sys.modules.items() if n == "homchip" or n.startswith("homchip.")]
        for module_name, function, counter in TARGETS:
            original = getattr(sys.modules[module_name], function)
            name = f"{module_name.removeprefix('homchip.')}.{function}"
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                if getattr(module, function, None) is original:
                    self._patches.append((module, function, original))
                    setattr(module, function, wrapper)

    def uninstall(self):
        for module, function, original in reversed(self._patches):
            setattr(module, function, original)
        self._patches.clear()


def self_times(spans):
    """Duration minus the time covered by direct children, per span.

    Calls are single-threaded and nested, so children of one span never
    overlap and the covered time is the sum of their durations.
    """
    own = [end - start for _, start, end, *_ in spans]
    for index, (_, start, end, parent, *_) in enumerate(spans):
        if parent is not None:
            own[parent] -= end - start
    return own
