"""Pure helpers of the kmu benchmark: spans, oracles and metric names.

Nothing here runs kmu; run.py does. Kept apart so the self-tests
(test_ledger.py) can exercise the span arithmetic and the oracles
without a build.
"""

import contextlib
import re
import time

# A metric name: starts with a letter or digit, at most 64 characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Anchors held out from calibration (EXPERIMENTS.md tuned the model on
# fig03 and fig07): the fig05 chip-queue peak, the fig08 useful PCIe
# bandwidth in GB/s, and the fig09 MLP-4 normalized peak.
PAPER_ANCHORS = {"chipq_peak": 14.0, "useful_gbs": 2.0, "mlp4": 0.35}


def valid_name(name):
    return bool(NAME_RE.match(name))


class Recorder:
    """Spans kept in memory as (name, parent, start_ns, end_ns).

    The layer of a span is its name up to the first dot. When off,
    span() records nothing.
    """

    def __init__(self, on=False):
        self.on = on
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.on:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.monotonic_ns(), 0])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][3] = time.monotonic_ns()

    def extend(self, spans):
        """Append spans recorded elsewhere (another process), keeping
        their parent links and hanging their roots under the open
        span, if any."""
        base = len(self.spans)
        root = self._stack[-1] if self._stack else -1
        for name, parent, start, end in spans:
            self.spans.append(
                [name, parent + base if parent >= 0 else root, start, end])


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per span: its duration minus the part its children cover."""
    children = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [(name, (end - start) - _covered(children.get(i, []), start, end))
            for i, (name, parent, start, end) in enumerate(spans)]


def layer_self_ms(spans):
    """Self time summed per layer, in milliseconds."""
    out = {}
    for name, ns in self_times(spans):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + ns / 1e6
    return out


def load_rows(path):
    """Expected rows keyed by their first field. Returns None when the
    file is missing or malformed, so callers count a failure instead
    of crashing."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [line.rstrip("\n") for line in f if line.strip()]
    except (OSError, UnicodeDecodeError):
        return None
    rows = {}
    for line in lines:
        fields = line.split()
        if len(fields) < 2 or not all("=" in f for f in fields[1:]):
            return None
        rows[fields[0]] = line
    return rows


def check_rows(passes, expected, seeded_prefix=None):
    """Verify the rows of every pass; returns (attempted, failed).

    Each row must equal its expected row. Rows whose name starts with
    seeded_prefix have no committed expectation for this seed: they
    must instead be identical in every pass (at least two passes
    run). A missing or unreadable expected file fails every row it
    should have covered.
    """
    attempted = failed = 0
    first = {}
    for rows in passes:
        for row in rows:
            name = row.split(" ", 1)[0]
            attempted += 1
            if seeded_prefix and name.startswith(seeded_prefix):
                if first.setdefault(name, row) != row or len(passes) < 2:
                    failed += 1
            elif expected is None or expected.get(name) != row:
                failed += 1
    return attempted, failed


def same_bytes(path_a, path_b):
    """True when both files exist and are byte-identical."""
    try:
        with open(path_a, "rb") as a, open(path_b, "rb") as b:
            return a.read() == b.read()
    except OSError:
        return False


def row_fields(row):
    """The key=value fields of a result row, as floats where they
    parse."""
    out = {}
    for item in row.split()[1:]:
        key, _, value = item.partition("=")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def paper_err_pct(chipq_peak, useful_gbs, mlp4):
    """Mean absolute relative error against the held-out anchors, %."""
    got = {"chipq_peak": chipq_peak, "useful_gbs": useful_gbs,
           "mlp4": mlp4}
    errs = [abs(got[k] - v) / v for k, v in PAPER_ANCHORS.items()]
    return 100.0 * sum(errs) / len(errs)
