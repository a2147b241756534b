"""Spans around calls into the inpo package's public functions.

The package imports names with ``from .x import y``, so each module that
calls a function holds its own reference to it. ``Tracer.install`` therefore
replaces the function in every loaded ``inpo`` module that refers to it, and
``Tracer.uninstall`` puts every original back. Nothing inside ``src/inpo``
changes.

Spans are kept in memory as (name, start, end, parent, rows, extra) and
summarised or written out when the run ends. Everything in the package is
synchronous and single-threaded with no queue, so spans nest strictly and a
layer never waits: there is no waiting time to report.
"""
from __future__ import annotations

import csv
import functools
import gzip
import os
import sys
import time

WAITING_NOTE = ("no layer waits: every call is synchronous and single-threaded "
                "with no queue, so waiting time does not apply")
WRAPPED_MARK = "__perfbench_span__"


def _nrows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x) if hasattr(x, "__len__") else 1
    return 1 if len(shape) < 2 else int(shape[0])


def _converged(result) -> int:
    converged = result[1]
    return int(converged) if isinstance(converged, bool) else int(converged.sum())


# (module, function, rows from (args, kwargs), extra from (args, result)); the
# span is named "<module>.<function>" without the package prefix. Rows and
# extras are read off the arguments and results; they never change them.
TARGETS = [
    ("inpo.denoiser", "predict_noise", lambda a, k: _nrows(a[1]), None),
    ("inpo.denoiser", "eps_forward", lambda a, k: _nrows(a[1]), None),
    ("inpo.denoiser", "time_embedding", None, None),
    ("inpo.denoiser", "value_and_grad", None, None),  # + tape_forward
    ("inpo.denoiser", "save_params", None, lambda a, r: os.path.getsize(a[0])),
    ("inpo.denoiser", "load_params", None, lambda a, r: os.path.getsize(a[0])),
    ("inpo.sampler", "ddim_invert", lambda a, k: _nrows(a[2]), None),
    ("inpo.sampler", "ddim_sample", lambda a, k: _nrows(a[2]), None),
    ("inpo.preference", "make_targets", None, None),
    ("inpo.preference", "pair_loss_terms", None, None),
    ("inpo.preference", "solve_delta_fixed_point", lambda a, k: _nrows(a[2]),
     lambda a, r: _converged(r)),
    ("inpo.schedule", "forward_diffuse", None, None),
    ("inpo.trainer", "adam_step", None, None),
    ("inpo.trainer", "align", None, None),
    ("inpo.trainer", "pretrain_base", None, None),
    ("inpo.data", "score", None, None),
    ("inpo.data", "gen_toy_dataset", None, None),
    ("inpo.data", "make_preference_pairs", None, None),
    ("inpo.data", "save_pairs", None, lambda a, r: os.path.getsize(a[1])),
    ("inpo.data", "load_pairs", None, None),
    ("inpo.evaluation", "win_rate", None, None),
    ("inpo.evaluation", "inversion_roundtrip", None, None),
    ("inpo.evaluation", "emit_report", None, None),
]


def _inpo_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "inpo" or n.startswith("inpo."))]


def installed_wrappers() -> list[str]:
    """Names of module attributes in loaded inpo modules that are span wrappers."""
    found = []
    for mod in _inpo_modules():
        for attr, val in vars(mod).items():
            if getattr(val, WRAPPED_MARK, None):
                found.append(f"{mod.__name__}.{attr}")
    from inpo.autodiff import Var
    if getattr(Var.__dict__["backward"], WRAPPED_MARK, None):
        found.append("inpo.autodiff.Var.backward")
    return found


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def begin(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def end(self, idx: int, name: str, start: float, stop: float, rows=0, extra=None) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, stop, parent, rows, extra)

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        idx = self.begin()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx, name, start, time.perf_counter())

    def _wrap(self, fn, name, rows_of, extra_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx, name, start, time.perf_counter())
                raise
            stop = time.perf_counter()
            tracer.end(idx, name, start, stop,
                       rows=rows_of(args, kwargs) if rows_of else 0,
                       extra=extra_of(args, result) if extra_of else None)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Replace each target in every loaded inpo module that refers to it."""
        import inpo.cli  # noqa: F401  (load every module before scanning)
        from inpo.autodiff import Var
        from inpo.denoiser import TapeParams

        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _inpo_modules()
        for mod_name, attr, rows_of, extra_of in TARGETS:
            name = f"{mod_name.split('.', 1)[1]}.{attr}"
            original = getattr(sys.modules[mod_name], attr)
            if attr == "eps_forward":
                wrapper = self._eps_forward_wrapper(original, TapeParams, rows_of)
            elif attr == "value_and_grad":
                wrapper = self._value_and_grad_wrapper(original)
            else:
                wrapper = self._wrap(original, name, rows_of, extra_of)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        backward = Var.__dict__["backward"]
        self._restore.append((Var, "backward", backward))
        Var.backward = self._wrap(backward, "autodiff.backward", None, None)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def _eps_forward_wrapper(self, fn, tape_type, rows_of):
        """Plain forwards and forwards on the tape get separate span names."""
        plain = self._wrap(fn, "denoiser.eps_forward", rows_of, None)
        taped = self._wrap(fn, "denoiser.eps_forward.taped", rows_of, None)

        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            chosen = taped if isinstance(model, tape_type) else plain
            return chosen(model, *args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _value_and_grad_wrapper(self, fn):
        """The loss_fn handed to value_and_grad is the tape's forward pass."""
        outer = self._wrap(fn, "denoiser.value_and_grad", None, None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(params, loss_fn):
            def tape_forward(tape):
                return tracer.span("autodiff.tape_forward", loss_fn, tape)

            return outer(params, tape_forward)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one CSV row, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start", "end", "rows", "extra"])
            for i, (name, start, end, parent, rows, extra) in enumerate(self.spans):
                w.writerow([i, parent, name, repr(start), repr(end), rows,
                            "" if extra is None else extra])


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans are single-threaded and strictly nested, so children of one span
    never overlap and their durations add up.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, rows, extra in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def roots(spans) -> list[int]:
    """Index of the outermost span enclosing each span (itself for a root)."""
    out = []
    for i, span in enumerate(spans):
        parent = span[3]
        out.append(i if parent < 0 else out[parent])
    return out


def under(spans, ancestor: str) -> list[bool]:
    """Whether each span has an enclosing span named ``ancestor``."""
    out = []
    for span in spans:
        parent = span[3]
        out.append(parent >= 0 and (spans[parent][0] == ancestor or out[parent]))
    return out
