"""Outside-in layer timing: spans around the attributes each layer is called through.

`Tracer.patched()` swaps timing wrappers onto the attributes through which
one layer calls the next, and restores the originals on exit.  Nothing in
`mmsediv` is edited.  Spans are kept in memory as
``(name, start, end, parent)`` tuples; a layer's self time is its span time
minus the time its child spans cover.

Layer boundaries and the attribute each is reached through:

* ``randmat.sample``  - ``diversity.sample_complex_gaussian`` and
  ``wishart.sample_complex_gaussian`` (channel draws inside a kernel block)
* ``mmse.capacity``   - ``mmse.flat_capacity_batch`` and
  ``mmse.selective_capacity_batch``
* ``mmse.dft``        - ``mmse.transfer_function`` (looked up by
  ``selective_capacity_batch`` in the module namespace)
* ``diversity.kernel`` / ``wishart.kernel`` - one kernel block; the kernel
  object is intercepted where ``diversity``/``wishart`` hand it to
  ``estimate_binomial_curve`` and wrapped in a timing closure
* ``sweep``           - opened by the benchmark around the estimator call;
  its self time is the montecarlo scheduler overhead

Wrapped callables are not picklable, so a traced sweep must run with one
worker.  An attribute that a module no longer has is skipped and listed in
`Tracer.missing`, so a refactor of the library degrades a layer metric to
zero instead of breaking the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from mmsediv import diversity, mmse, wishart

# (module, attribute, span name)
_FUNCTION_PATCHES = (
    (diversity, "sample_complex_gaussian", "randmat.sample"),
    (wishart, "sample_complex_gaussian", "randmat.sample"),
    (mmse, "flat_capacity_batch", "mmse.capacity"),
    (mmse, "selective_capacity_batch", "mmse.capacity"),
    (mmse, "transfer_function", "mmse.dft"),
)
_KERNEL_PATCHES = (
    (diversity, "estimate_binomial_curve", "diversity.kernel"),
    (wishart, "estimate_binomial_curve", "wishart.kernel"),
)


class Tracer:
    """In-memory span recorder with patch/unpatch of layer entry points."""

    def __init__(self):
        self.spans = []
        self.first_block = None   # (kernel, rho) of the first kernel block
        self.sample_bytes = 0     # computed: nbytes of every sampled array
        self.missing = set()
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def _function_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if name == "randmat.sample":
                self.sample_bytes += result.nbytes
            return result
        return wrapper

    def _kernel_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(kernel, *args, **kwargs):
            def timed_kernel(rho, rng, n_trials):
                if self.first_block is None:
                    self.first_block = (kernel, rho)
                return self.span(name, kernel, rho, rng, n_trials)
            return fn(timed_kernel, *args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for patches, make in ((_FUNCTION_PATCHES, self._function_wrapper),
                                  (_KERNEL_PATCHES, self._kernel_wrapper)):
                for module, attr, name in patches:
                    original = getattr(module, attr, None)
                    if original is None:
                        self.missing.add(f"{module.__name__}.{attr}")
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, make(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self):
        """Seconds per span name, each span minus the time its children cover."""
        out = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def durations(self, name):
        """Wall seconds of every span with the given name, in call order."""
        return [end - start for n, start, end, _ in self.spans if n == name]
