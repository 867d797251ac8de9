"""Metrics registry: typed instruments, one canonical renderer.

The serve tier's ``/metrics`` endpoint needs a *metrics* spine: an
earlier hand-assembled exposition had no ``# TYPE`` / ``# HELP`` lines,
a ``quantile`` label on a plain gauge (``quantile`` is reserved for
*summary* metrics in the Prometheus exposition format), and latency
series with no ``_sum``/``_count``.  :class:`MetricsRegistry` — the one
registry class in ``repro.obs`` — holds typed instruments instead:
:class:`Counter` (monotonic), :class:`Gauge` (set/add) and
:class:`~repro.obs.metrics.LogHistogram` (the one histogram type, which
carries its own running sum), each optionally labelled, and renders them
through **one** canonical renderer pair:

* :meth:`MetricsRegistry.render_prometheus` — valid text exposition
  format 0.0.4: ``# HELP`` + ``# TYPE`` per family, escaped label
  values, cumulative ``_bucket{le=...}`` series ending in ``+Inf``,
  ``_sum``/``_count`` per histogram child, families sorted by name and
  children sorted by label values, trailing newline.  Determinism is a
  feature: two processes that record the same observations render
  byte-identical documents regardless of hash seed.
* :meth:`MetricsRegistry.render_json` — the same data as one JSON
  document (unlabelled instruments map to scalars, labelled ones to
  ``{"v1 v2": value}`` keyed by space-joined label values, histograms
  to their :meth:`~repro.obs.metrics.LogHistogram.to_dict` snapshots
  plus ``sum_s``).

:func:`parse_exposition` is the conformance half: a strict parser for
the subset of the exposition format the registry emits, used by the
tests and the CI ``serve-smoke`` job so the format can never silently
regress back into those bugs.  ``python -m repro.obs.registry FILE``
validates a scraped document from the command line.

Wall-clock policy: the registry itself never reads any clock — callers
observe durations and hand them in — but it exists to carry *wall*
observations, so the import contract (lint rule ARCH001) puts it in the
``telemetry`` tier, with request traces and structured logs, which no
model package may import.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .metrics import LogHistogram

__all__ = ["Counter", "Gauge", "MetricFamily",
           "MetricsRegistry", "ExpositionError", "parse_exposition"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Metric types the renderer can emit (and the parser accepts).
_TYPES = ("counter", "gauge", "histogram", "summary")


def _fmt(value: float) -> str:
    """Locale-independent sample value rendering.

    Integral values render without a trailing ``.0`` (counters read as
    counts), non-integral ones via ``repr`` (shortest round-trip float,
    identical on every CPython — the determinism the render test pins).
    """
    if value != value or value in (math.inf, -math.inf):
        return {math.inf: "+Inf", -math.inf: "-Inf"}.get(value, "NaN")
    if float(value).is_integer() and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


class Counter:
    """A monotonically non-decreasing tally."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount!r})")
        self._value += amount

    def sync(self, total: float) -> None:
        """Mirror an externally maintained monotonic total (e.g. the
        sharded cache's hit tally) without double-counting; never moves
        the counter backwards."""
        if total > self._value:
            self._value = total


class Gauge:
    """A value that can go anywhere (queue depths, uptimes)."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, delta: float) -> None:
        self._value += delta


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge,
                "histogram": LogHistogram}

Instrument = Union[Counter, Gauge, LogHistogram]


class MetricFamily:
    """One named metric with a fixed label schema and typed children.

    Children are keyed by their label-value tuple in the declared
    label-name order, created on first use.  A label-less family has
    exactly one child (the empty tuple) and proxies the instrument API
    directly, so ``registry.counter("shed_total", ...).inc()`` works
    without a ``labels()`` hop.
    """

    __slots__ = ("name", "help", "kind", "label_names", "_children")

    def __init__(self, name: str, help_text: str, kind: str,
                 label_names: Tuple[str, ...]):
        if kind not in _INSTRUMENTS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if not help_text:
            raise ValueError(f"metric {name!r} needs help text")
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = label_names
        self._children: Dict[Tuple[str, ...], Instrument] = {}

    def labels(self, *values: str, **kwargs: str) -> Instrument:
        """The child instrument for one label-value combination."""
        if kwargs:
            if values:
                raise ValueError("pass label values either positionally "
                                 "or by name, not both")
            try:
                values = tuple(str(kwargs.pop(n)) for n in self.label_names)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name} missing label {exc.args[0]!r}") from None
            if kwargs:
                raise ValueError(f"{self.name} has no label(s) "
                                 f"{sorted(kwargs)}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} takes {len(self.label_names)} label(s) "
                f"{self.label_names}, got {len(values)}")
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = _INSTRUMENTS[self.kind]()
        return child

    def _solo(self) -> Instrument:
        if self.label_names:
            raise ValueError(
                f"{self.name} is labelled {self.label_names}; "
                f"use .labels(...)")
        return self.labels()

    # Label-less convenience proxies.
    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)          # type: ignore[union-attr]

    def sync(self, total: float) -> None:
        self._solo().sync(total)          # type: ignore[union-attr]

    def set(self, value: float) -> None:
        self._solo().set(value)           # type: ignore[union-attr]

    def add(self, delta: float) -> None:
        self._solo().add(delta)           # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        self._solo().observe(value)       # type: ignore[union-attr]

    @property
    def value(self) -> float:
        return self._solo().value         # type: ignore[union-attr]

    def children(self) -> List[Tuple[Tuple[str, ...], Instrument]]:
        """(label values, instrument) pairs, sorted by label values."""
        return sorted(self._children.items())


class MetricsRegistry:
    """Name → :class:`MetricFamily`, with the canonical renderers.

    Registration is idempotent: asking for an existing family with the
    same kind and label schema returns it (so scattered call sites can
    share one series), while a conflicting re-registration raises —
    silently merging a gauge into a counter is how malformed exposition
    documents happen.
    """

    def __init__(self, prefix: str = "repro"):
        if prefix and not _NAME_RE.match(prefix):
            raise ValueError(f"invalid metric prefix {prefix!r}")
        self.prefix = prefix
        self._families: Dict[str, MetricFamily] = {}

    def _register(self, name: str, help_text: str, kind: str,
                  labels: Sequence[str]) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}{family.label_names}, cannot "
                    f"re-register as {kind}{tuple(labels)}")
            return family
        family = MetricFamily(name, help_text, kind, tuple(labels))
        self._families[name] = family
        return family

    def counter(self, name: str, help_text: str,
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help_text, "counter", labels)

    def gauge(self, name: str, help_text: str,
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help_text, "gauge", labels)

    def histogram(self, name: str, help_text: str,
                  labels: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help_text, "histogram", labels)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """Every family, sorted by name (the render order)."""
        return [self._families[name] for name in sorted(self._families)]

    def __len__(self) -> int:
        return len(self._families)

    # -- rendering -------------------------------------------------------

    def _full(self, name: str) -> str:
        return f"{self.prefix}_{name}" if self.prefix else name

    def render_prometheus(self) -> str:
        """Valid exposition text format 0.0.4 for every family."""
        lines: List[str] = []
        for family in self.families():
            full = self._full(family.name)
            lines.append(f"# HELP {full} {_escape_help(family.help)}")
            lines.append(f"# TYPE {full} {family.kind}")
            for values, child in family.children():
                label_str = self._labels(family.label_names, values)
                if family.kind == "histogram":
                    self._render_histogram(lines, full, family.label_names,
                                           values, child)
                else:
                    lines.append(f"{full}{label_str} {_fmt(child.value)}")
        return "\n".join(lines) + "\n" if lines else ""

    @staticmethod
    def _labels(names: Tuple[str, ...], values: Tuple[str, ...],
                extra: Tuple[Tuple[str, str], ...] = ()) -> str:
        pairs = [(n, v) for n, v in zip(names, values)] + list(extra)
        if not pairs:
            return ""
        inner = ",".join(f'{n}="{_escape_label(v)}"' for n, v in pairs)
        return "{" + inner + "}"

    def _render_histogram(self, lines: List[str], full: str,
                          names: Tuple[str, ...], values: Tuple[str, ...],
                          hist: LogHistogram) -> None:
        cumulative = 0
        # Sparse cumulative buckets: one line per occupied bucket at its
        # exact upper edge.  The top bucket holds clamped outliers that
        # may exceed its finite edge, so it folds into +Inf only —
        # cumulative counts stay honest at every rendered le.
        for i, count in enumerate(hist.counts[:-1]):
            if count:
                cumulative += count
                edge = hist.bucket_bounds(i)[1]
                lines.append(
                    f"{full}_bucket"
                    f"{self._labels(names, values, (('le', _fmt(edge)),))}"
                    f" {cumulative}")
        lines.append(
            f"{full}_bucket"
            f"{self._labels(names, values, (('le', '+Inf'),))}"
            f" {hist.total}")
        lines.append(f"{full}_sum{self._labels(names, values)} "
                     f"{_fmt(hist.sum)}")
        lines.append(f"{full}_count{self._labels(names, values)} "
                     f"{hist.total}")

    def render_json(self) -> Dict[str, object]:
        """The same data as one JSON document (unprefixed names)."""
        out: Dict[str, object] = {}
        for family in self.families():
            if family.kind == "histogram":
                snap = {(" ".join(values) if values else ""):
                        dict(child.to_dict(), sum_s=child.sum)
                        for values, child in family.children()}
                out[family.name] = (snap[""] if family.label_names == ()
                                    and "" in snap else snap)
            elif family.label_names:
                out[family.name] = {" ".join(values): child.value
                                    for values, child in family.children()}
            else:
                out[family.name] = (family.value if family.children()
                                    else 0.0)
        return out


# -- conformance parsing ---------------------------------------------------

class ExpositionError(ValueError):
    """A document violated the exposition format (with a line number)."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<ts>-?\d+))?$")
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')
_LABELS_BLOCK_RE = re.compile(
    r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*,?')


def _parse_value(text: str, lineno: int) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ExpositionError(lineno, f"bad sample value {text!r}") \
            from None


def _family_of(sample_name: str, types: Dict[str, str]) -> Optional[str]:
    """Which declared family owns *sample_name* (suffix-aware)."""
    if sample_name in types:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) in ("histogram", "summary"):
                return base
    return None


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Strictly parse (and validate) a Prometheus text document.

    Returns ``{family: {"type": ..., "help": ..., "samples": [(name,
    labels, value), ...]}}``.  Raises :class:`ExpositionError` on any of
    the failure modes the registry renderer is guarding against:

    * a sample with no preceding ``# TYPE`` (or ``# HELP``) declaration,
    * a ``quantile`` label on a non-summary family or ``le`` outside a
      histogram ``_bucket`` series,
    * a histogram child missing ``_sum``/``_count``, with
      non-cumulative buckets, or whose ``+Inf`` bucket disagrees with
      ``_count``,
    * duplicate series (same sample name and label set),
    * interleaved families, counters going negative, or a document that
      does not end in a newline.
    """
    if text and not text.endswith("\n"):
        raise ExpositionError(text.count("\n") + 1,
                              "document must end with a newline")
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    families: Dict[str, Dict[str, object]] = {}
    seen_series: set = set()
    closed: set = set()
    current: Optional[str] = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            if len(parts) != 2 or not _NAME_RE.match(parts[0]):
                raise ExpositionError(lineno, f"malformed HELP line")
            if parts[0] in helps:
                raise ExpositionError(
                    lineno, f"duplicate HELP for {parts[0]!r}")
            helps[parts[0]] = parts[1]
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ")
            if len(parts) != 2 or not _NAME_RE.match(parts[0]):
                raise ExpositionError(lineno, "malformed TYPE line")
            name, kind = parts
            if kind not in _TYPES:
                raise ExpositionError(
                    lineno, f"unknown metric type {kind!r}")
            if name in types:
                raise ExpositionError(
                    lineno, f"duplicate TYPE for {name!r}")
            types[name] = kind
            families[name] = {"type": kind, "help": helps.get(name),
                              "samples": []}
            continue
        if line.startswith("#"):
            continue                             # free-form comment

        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ExpositionError(lineno, f"malformed sample {line!r}")
        sample_name = match.group("name")
        family = _family_of(sample_name, types)
        if family is None:
            raise ExpositionError(
                lineno,
                f"sample {sample_name!r} has no preceding # TYPE "
                f"declaration")
        if helps.get(family) is None:
            raise ExpositionError(
                lineno, f"family {family!r} has no # HELP line")
        if family in closed:
            raise ExpositionError(
                lineno, f"family {family!r} is interleaved with another "
                f"family's samples")
        if current is not None and current != family:
            closed.add(current)
        current = family

        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            if not _LABELS_BLOCK_RE.fullmatch(raw):
                raise ExpositionError(lineno, f"malformed labels {{{raw}}}")
            for pair in _LABEL_PAIR_RE.finditer(raw):
                if pair.group("name") in labels:
                    raise ExpositionError(
                        lineno, f"duplicate label {pair.group('name')!r}")
                labels[pair.group("name")] = (
                    pair.group("value").replace('\\"', '"')
                    .replace("\\n", "\n").replace("\\\\", "\\"))

        kind = types[family]
        if "quantile" in labels and kind != "summary":
            raise ExpositionError(
                lineno,
                f"label 'quantile' is reserved for summary metrics, but "
                f"{family!r} is a {kind}")
        if "le" in labels and not (kind == "histogram"
                                   and sample_name.endswith("_bucket")):
            raise ExpositionError(
                lineno,
                f"label 'le' only belongs on histogram _bucket series, "
                f"found on {sample_name!r} ({kind})")
        if kind == "histogram" and sample_name == family:
            raise ExpositionError(
                lineno,
                f"histogram {family!r} must expose _bucket/_sum/_count "
                f"series, not a bare sample")

        value = _parse_value(match.group("value"), lineno)
        if kind == "counter" and (value < 0 or value != value):
            raise ExpositionError(
                lineno, f"counter {sample_name!r} has invalid value "
                f"{match.group('value')}")

        series_key = (sample_name,
                      tuple(sorted(labels.items())))
        if series_key in seen_series:
            raise ExpositionError(
                lineno, f"duplicate series {sample_name!r} with labels "
                f"{dict(sorted(labels.items()))}")
        seen_series.add(series_key)
        families[family]["samples"].append((sample_name, labels, value))

    _validate_histograms(families)
    return families


def _validate_histograms(families: Dict[str, Dict[str, object]]) -> None:
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        buckets: Dict[Tuple, List[Tuple[float, float]]] = {}
        sums: Dict[Tuple, float] = {}
        counts: Dict[Tuple, float] = {}
        for sample_name, labels, value in family["samples"]:  # type: ignore
            child = tuple(sorted((k, v) for k, v in labels.items()
                                 if k != "le"))
            if sample_name == f"{name}_bucket":
                le = labels.get("le")
                if le is None:
                    raise ExpositionError(
                        0, f"{name}_bucket sample missing 'le' label")
                buckets.setdefault(child, []).append(
                    (math.inf if le == "+Inf" else float(le), value))
            elif sample_name == f"{name}_sum":
                sums[child] = value
            elif sample_name == f"{name}_count":
                counts[child] = value
        children = set(buckets) | set(sums) | set(counts)
        for child in sorted(children):
            where = f"histogram {name!r} child {dict(child)}"
            if child not in sums or child not in counts:
                raise ExpositionError(0, f"{where} missing _sum/_count")
            series = buckets.get(child, [])
            if not series or series[-1][0] != math.inf:
                raise ExpositionError(
                    0, f"{where} has no '+Inf' bucket")
            last = -1.0
            prev_le = -math.inf
            for le, cum in series:
                if le <= prev_le:
                    raise ExpositionError(
                        0, f"{where} buckets out of order at le={le}")
                if cum < last:
                    raise ExpositionError(
                        0, f"{where} buckets not cumulative at le={le}")
                prev_le, last = le, cum
            if series[-1][1] != counts[child]:
                raise ExpositionError(
                    0, f"{where} '+Inf' bucket ({series[-1][1]}) != "
                    f"_count ({counts[child]})")


def _main(argv: Sequence[str]) -> int:
    """``python -m repro.obs.registry FILE`` — validate a scraped doc."""
    if len(argv) != 1:
        print("usage: python -m repro.obs.registry METRICS_FILE",
              file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        families = parse_exposition(text)
    except ExpositionError as exc:
        print(f"{argv[0]}: INVALID exposition format: {exc}",
              file=sys.stderr)
        return 1
    n_samples = sum(len(f["samples"]) for f in families.values())
    print(f"{argv[0]}: OK — {len(families)} metric families, "
          f"{n_samples} samples")
    return 0


if __name__ == "__main__":                       # pragma: no cover
    sys.exit(_main(sys.argv[1:]))
