"""Reference-speed timing for a host whose speed changes while it runs.

On the 2-vCPU machine this benchmark was tuned on, a fixed piece of Python
ran at two speeds about 1.8x apart, switching every few seconds and
sometimes staying slow for minutes.  Wall times of the same replay moved by
up to 60% between rounds and 45% between runs, and neither medians nor
minima over a run's rounds held still, because a whole run could fall into
a slow stretch.

So each timed call is cut into segments at fixed call sites of the
program, and at every cut a short reference kernel runs.  A segment's wall
time divided by the kernel's time around it is the segment's length in
kernel units, which the host's speed cancels out of; multiplied by
REF_KERNEL_S it reads as seconds on the host at its fast speed.  The
kernel runs outside the segments and is never counted in them.
"""

import contextlib
import gc
import sys
import time

REF_LOOPS = 2000
# the kernel's time on the tuning machine (2-vCPU Xeon VM, Python 3.11) at
# its fast speed; it only sets the scale of the reported seconds
REF_KERNEL_S = 0.0021


def resolve(owner, path):
    """The (object, attribute) that the dotted `path` names under `owner`,
    or None when the program no longer defines it there."""
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if attr in vars(owner) else None


@contextlib.contextmanager
def patched(replacements):
    """For each (owner, dotted path, make) set the attribute the path names
    to make(original) in the block, and put the originals back after it.

    A path the program no longer defines is skipped with a note on stderr,
    so a renamed or inlined internal loses its cut or its layer timer
    instead of stopping the run."""
    saved = []
    try:
        for owner, path, make in replacements:
            site = resolve(owner, path)
            if site is None:
                print(f"note: {getattr(owner, '__name__', owner)}.{path} "
                      "not found, left unwrapped", file=sys.stderr)
                continue
            obj, attr = site
            original = vars(obj)[attr]
            saved.append((obj, attr, original))
            setattr(obj, attr, make(original))
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


class _Item:
    __slots__ = ("scale", "offset")

    def __init__(self, scale, offset):
        self.scale = scale
        self.offset = offset

    def value(self, x):
        return self.scale * x + self.offset


def reference_kernel():
    """Fixed interpreter work in the program's own mix: small objects,
    tuple-keyed dict updates, float arithmetic, method calls, sorting."""
    start = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(REF_LOOPS):
        item = _Item(i * 0.5, 1.0)
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0.0) + item.value(1.5)
        acc += sorted((i % 7, i % 5, i % 3))[1]
    return time.perf_counter() - start


class ReferenceClock:
    """Times calls in reference seconds, cut at the given call sites.

    A site (owner, dotted path, every) cuts before every `every`-th call of
    the function the path names, so segments stay near 20-150 ms of work.
    A site the program no longer has is skipped (see `patched`).
    """

    def __init__(self, sites):
        self.sites = sites
        self._marks = []      # (clock before kernel, clock after kernel)
        self._calls = [0] * len(sites)
        reference_kernel()    # the first run is slower: warm it up

    def _cut(self):
        # a collection started by the kernel's allocations would scan the
        # program's heap inside the kernel: leave it to the next segment
        enabled = gc.isenabled()
        gc.disable()
        before = time.perf_counter()
        reference_kernel()
        after = time.perf_counter()
        if enabled:
            gc.enable()
        self._marks.append((before, after))

    def _wrap(self, fn, n, every):
        calls = self._calls

        def cut_then_call(*args, **kwargs):
            if calls[n] % every == 0:
                self._cut()
            calls[n] += 1
            return fn(*args, **kwargs)

        return cut_then_call

    def measure(self, fn):
        """Call fn with the cuts in place; return its result, its wall time
        without the kernel runs, and each segment's length in reference
        seconds."""
        self._marks.clear()
        self._calls[:] = [0] * len(self.sites)
        with patched([(owner, path,
                       lambda fn, n=n, every=every: self._wrap(fn, n, every))
                      for n, (owner, path, every) in enumerate(self.sites)]):
            self._cut()
            result = fn()
            self._cut()
        marks = self._marks
        wall = 0.0
        segments = []
        for (b0, a0), (b1, a1) in zip(marks, marks[1:]):
            span = b1 - a0
            wall += span
            segments.append(span * REF_KERNEL_S / (0.5 * (a0 - b0 + a1 - b1)))
        return result, wall, segments
