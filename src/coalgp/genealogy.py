"""Genealogy ingestion and reduction to coalescent sufficient statistics.

Time runs backward: the most recent tip sits at height 0 and the root at the
time to the most recent common ancestor.  A genealogy is reduced to its
coalescent event times plus the sampling schedule; those in turn define the
half-open inter-event intervals, each carrying the number of active lineages
and the binomial coalescent factor, on which every likelihood and sampler in
this package operates.  The schedule rules live here alone: ``check_schedule``
for the sampling schedule and one array lineage walk for the merged events,
shared by ``CoalescentData``, ``build_interval_grid`` and the simulators.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import NewickError, ValidationError, require_keys
from .gp_prior import run_rank

_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_LABEL_STOP = set("(),:;[]")
DATE_ATOL = 1e-6  # a tip date may miss its branch-length height by this much
HEIGHT_ATOL = 1e-9  # tip heights this close form one sampling event


def coalescent_factor(k):
    """Number of lineage pairs among k active lineages, binom(k, 2);
    elementwise on an integer array."""
    low = np.min(k)
    if low < 1:
        raise ValueError(f"lineage count must be >= 1, got {low}")
    return k * (k - 1) // 2


class TreeNode:
    __slots__ = ("label", "branch_length", "children", "height")

    def __init__(self, label=None, branch_length=None, children=None):
        self.label = label
        self.branch_length = branch_length
        self.children = children if children is not None else []
        self.height = math.nan

    @property
    def is_tip(self) -> bool:
        return not self.children


class Genealogy:
    """A rooted, strictly binary, dated tree.

    Heights are backward times: 0 at the most recent tip, increasing toward
    the root.  Construction validates the binary shape and that every parent
    is strictly older than its children.
    """

    def __init__(self, root: TreeNode):
        self.root = root
        self.nodes: list[TreeNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            self.nodes.append(node)
            for child in node.children:
                if child.branch_length is None:
                    raise ValidationError("every non-root node needs a branch length")
                stack.append(child)
        for node in self.nodes:
            if node.children and len(node.children) != 2:
                raise ValidationError(
                    f"tree is not strictly binary: a node has {len(node.children)} children"
                )
        self.tips = [n for n in self.nodes if n.is_tip]
        self.internals = [n for n in self.nodes if not n.is_tip]
        if len(self.tips) < 2:
            raise ValidationError("a genealogy needs at least two tips")
        self._assign_heights()

    def _assign_heights(self):
        depth = {id(self.root): 0.0}
        order = [self.root]
        for node in order:
            for child in node.children:
                depth[id(child)] = depth[id(node)] + child.branch_length
                order.append(child)
        max_tip_depth = max(depth[id(t)] for t in self.tips)
        for node in order:
            node.height = max_tip_depth - depth[id(node)]
        for node in self.internals:
            for child in node.children:
                if not node.height > child.height:
                    raise ValidationError(
                        "internal node height does not exceed its child "
                        f"({node.height} vs {child.height}); zero or negative "
                        "branch lengths are not supported"
                    )

    def tip_heights(self) -> np.ndarray:
        return np.array([t.height for t in self.tips], dtype=float)

    def internal_heights(self) -> np.ndarray:
        return np.sort([n.height for n in self.internals])

    def to_newick(self) -> str:
        parts: list[str] = []
        stack: list = [self.root]  # nodes still to write, and closing text
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
                continue
            length = "" if node.branch_length is None else f":{node.branch_length:.17g}"
            if node.is_tip:
                parts.append((node.label or "") + length)
                continue
            parts.append("(")
            stack.append(")" + (node.label or "") + length)
            for k, child in enumerate(reversed(node.children)):
                if k:
                    stack.append(",")
                stack.append(child)
        return "".join(parts) + ";"


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _parse_label(text: str, i: int) -> tuple[str, int]:
    i = _skip_ws(text, i)
    if i < len(text) and text[i] == "'":
        j = text.find("'", i + 1)
        if j < 0:
            raise NewickError("unterminated quoted label", i)
        return text[i + 1 : j], j + 1
    j = i
    while j < len(text) and not text[j].isspace() and text[j] not in _LABEL_STOP:
        j += 1
    return text[i:j], j


def _parse_number(text: str, i: int) -> tuple[float, int]:
    i = _skip_ws(text, i)
    m = _NUMBER_RE.match(text, i)
    if not m:
        raise NewickError("expected a branch length", i)
    return float(m.group(0)), m.end()


def _parse_subtree(text: str, i: int) -> tuple[TreeNode, int]:
    """One subtree starting at ``i``; an explicit stack holds the children of
    every open '(' so that nesting depth is not bounded by recursion."""
    open_groups: list[list[TreeNode]] = []
    while True:
        i = _skip_ws(text, i)
        if i >= len(text):
            raise NewickError("unexpected end of input", i)
        if text[i] == "(":
            open_groups.append([])
            i += 1
            continue
        label, i = _parse_label(text, i)
        if not label:
            raise NewickError(f"expected a tip label or '(', found {text[i]!r}", i)
        node = TreeNode(label=label)
        # attach the finished node to its group; a ')' finishes that group too
        while open_groups:
            i = _skip_ws(text, i)
            if i >= len(text) or text[i] != ":":
                raise NewickError("missing branch length", i)
            node.branch_length, i = _parse_number(text, i + 1)
            open_groups[-1].append(node)
            i = _skip_ws(text, i)
            if i >= len(text):
                raise NewickError("unbalanced parentheses: expected ',' or ')'", i)
            if text[i] == ",":
                i += 1
                break
            if text[i] != ")":
                raise NewickError(f"expected ',' or ')', found {text[i]!r}", i)
            label, i = _parse_label(text, i + 1)
            node = TreeNode(label=label or None, children=open_groups.pop())
        if not open_groups:
            return node, i


def parse_newick(
    text: str,
    tip_dates: dict[str, float] | None = None,
    date_delimiter: str | None = None,
) -> Genealogy:
    """Parse a single Newick tree into a height-normalized Genealogy.

    Node heights come from branch lengths, shifted so the most recent tip is
    at 0.  Tip dates, when supplied (sidecar map, or embedded as
    ``label<delimiter>date``), are converted to backward times against the
    latest date and checked against the branch-length geometry to
    ``DATE_ATOL``; disagreement raises ``ValidationError``.
    """
    root, i = _parse_subtree(text, 0)
    i = _skip_ws(text, i)
    if i < len(text) and text[i] == ":":  # tolerated, ignored root edge
        _, i = _parse_number(text, i + 1)
        i = _skip_ws(text, i)
    if i >= len(text) or text[i] != ";":
        raise NewickError("missing terminating ';'", i)
    if text[i + 1 :].strip():
        raise NewickError("trailing content after ';'", i + 1)

    g = Genealogy(root)

    dates: dict[str, float] = {}
    if tip_dates:
        dates = dict(tip_dates)
    elif date_delimiter:
        for tip in g.tips:
            label = tip.label or ""
            head, delim, tail = label.rpartition(date_delimiter)
            if not delim:
                raise ValidationError(f"tip {label!r} has no {date_delimiter!r}-delimited date")
            try:
                dates[label] = float(tail)
            except ValueError as exc:
                raise ValidationError(f"tip {label!r}: cannot parse date {tail!r}") from exc
    if dates:
        missing = [t.label for t in g.tips if t.label not in dates]
        if missing:
            raise ValidationError(f"tip dates missing for {missing[:5]}")
        for tip in g.tips:
            if not math.isfinite(dates[tip.label]):
                raise ValidationError(f"tip {tip.label!r}: date {dates[tip.label]} is not finite")
        newest = max(dates[t.label] for t in g.tips)
        for tip in g.tips:
            implied = newest - dates[tip.label]
            if abs(implied - tip.height) > DATE_ATOL:
                raise ValidationError(
                    f"tip {tip.label!r}: date implies height {implied:.6g} but branch "
                    f"lengths give {tip.height:.6g}"
                )
    return g


def read_tip_dates(text: str) -> dict[str, float]:
    """Parse a two-column (label, date) table; tabs or whitespace separated."""
    dates: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2:
            raise ValidationError(f"tip-date table line {lineno}: expected 2 columns")
        try:
            dates[parts[0]] = float(parts[1])
        except ValueError as exc:
            raise ValidationError(f"tip-date table line {lineno}: bad date {parts[1]!r}") from exc
    if not dates:
        raise ValidationError("tip-date table is empty")
    return dates


@dataclass(frozen=True)
class CoalescentData:
    """Coalescent event times plus the sampling schedule.

    ``coal_times`` holds the n-1 strictly increasing, positive, finite event
    times (the conventional t_n = 0 origin is implicit).  ``samp_times`` and
    ``samp_counts`` obey ``check_schedule``: finite times from 0, at least 2
    samples.  Every coalescence must find at least 2 active lineages.
    """

    coal_times: np.ndarray
    samp_times: np.ndarray
    samp_counts: np.ndarray

    def __post_init__(self):
        st, sc = check_schedule(self.samp_times, self.samp_counts)
        ct = np.asarray(self.coal_times, dtype=float)
        for name, value in (("coal_times", ct), ("samp_times", st), ("samp_counts", sc)):
            object.__setattr__(self, name, value)
        if ct.ndim != 1 or not np.all(np.isfinite(ct)):
            raise ValidationError("coalescent times must be a 1-D list of finite numbers")
        if len(ct) and ct[0] <= 0:
            raise ValidationError("coalescent times must be strictly positive")
        if np.any(np.diff(ct) <= 0):
            raise ValidationError("coalescent times must be strictly increasing (no ties)")
        if sc.sum() != len(ct) + 1:
            raise ValidationError(
                f"expected {sc.sum() - 1} coalescent events for {sc.sum()} samples, got {len(ct)}"
            )
        _lineage_walk(ct, st, sc)

    @classmethod
    def isochronous(cls, coal_times) -> "CoalescentData":
        coal_times = np.asarray(coal_times, dtype=float)
        return cls(coal_times, np.array([0.0]), np.array([len(coal_times) + 1]))

    @property
    def n(self) -> int:
        return int(self.samp_counts.sum())

    @property
    def tmrca(self) -> float:
        return float(self.coal_times[-1])

    def to_json(self) -> dict:
        return {
            "coal_times": self.coal_times.tolist(),
            "samp_times": self.samp_times.tolist(),
            "samp_counts": self.samp_counts.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CoalescentData":
        ct = _json_numbers(obj, "coal_times", float)
        sc = _json_numbers(obj, "samp_counts", int)
        # tolerate the t_n = 0 origin being written explicitly
        if len(ct) == sc.sum() and len(ct) and ct[0] == 0.0:
            ct = ct[1:]
        return cls(ct, _json_numbers(obj, "samp_times", float), sc)

    @classmethod
    def from_file(cls, path) -> "CoalescentData":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _json_numbers(obj: dict, key: str, kind: type) -> np.ndarray:
    """The list of numbers under ``key``; ValidationError names a missing or
    mistyped key.  ``kind`` int admits integers only, float any number."""
    vals = require_keys(obj, (key,), "coalescent data JSON")[key]
    allowed = int if kind is int else (int, float)
    if not isinstance(vals, list) or not all(
        isinstance(v, allowed) and not isinstance(v, bool) for v in vals
    ):
        noun = "integers" if kind is int else "numbers"
        raise ValidationError(f"coalescent data key {key!r} must be a list of {noun}")
    return np.asarray(vals, dtype=kind)


def check_schedule(samp_times, samp_counts) -> tuple[np.ndarray, np.ndarray]:
    """The sampling schedule as (float times, integer counts).

    The times must be finite, start at 0 and increase strictly; the counts
    must be integers, each at least 1, totalling at least 2.
    """
    st = np.asarray(samp_times, dtype=float)
    sc = np.asarray(samp_counts)
    if st.ndim != 1 or sc.shape != st.shape:
        raise ValidationError("samp_times and samp_counts must be 1-D lists of equal length")
    if not len(st) or st[0] != 0.0 or not np.all(np.isfinite(st)) or np.any(np.diff(st) <= 0):
        raise ValidationError("sampling times must be finite, start at 0 and increase strictly")
    if sc.dtype.kind not in "iu" or np.any(sc < 1) or sc.sum() < 2:
        raise ValidationError("sample counts must be integers >= 1 totalling at least 2")
    return st, sc.astype(int, copy=False)


def _lineage_walk(coal_times, samp_times, samp_counts):
    """The merged event times, which of them are coalescences, and the active
    lineages just after each.  A coalescence at a sampling time sees the
    lineages present before that time's samples arrive; ValidationError if
    any coalescence finds fewer than 2."""
    times = np.sort(np.concatenate((coal_times, samp_times)))
    times = times[np.append(True, times[1:] > times[:-1])]  # np.union1d would load numpy.ma
    is_coal = np.zeros(len(times), dtype=bool)
    is_coal[np.searchsorted(times, coal_times)] = True
    add = np.zeros(len(times), dtype=int)
    add[np.searchsorted(times, samp_times)] = samp_counts
    after = np.cumsum(add - is_coal)
    starved = is_coal & (after + is_coal - add < 2)
    if starved.any():
        t = times[np.argmax(starved)]
        raise ValidationError(f"coalescent event at t={t} with fewer than 2 active lineages")
    return times, is_coal, after


@dataclass(frozen=True)
class IntervalGrid:
    """Flat enumeration of the half-open inter-event intervals; every field
    is computed once, by ``build_interval_grid``.

    Interval j is (starts[j], ends[j]], carries ``n_lineages[j]`` active
    lineages with pair count ``coal_factor[j]``, belongs to the
    ``event_index[j]``-th coalescent event (0-based, most recent first), and
    either ends with that coalescent event or with a sampling event.
    ``rj_passes`` is the blockwise reversible-jump schedule.  A block is the
    run of intervals sharing ``event_index``: the span between two coalescent
    events, cut by sampling events.  Pass k holds the k-th live interval
    (positive length and pair count) of every block, in time order, so each
    block's intervals are visited in time order and no pass holds two
    intervals of one block.
    """

    starts: np.ndarray
    ends: np.ndarray
    n_lineages: np.ndarray
    coal_factor: np.ndarray
    event_index: np.ndarray
    ends_with_coal: np.ndarray
    lengths: np.ndarray
    total_hazard_weight: float  # sum over intervals of coal_factor * length
    coal_event_times: np.ndarray
    rj_passes: tuple[np.ndarray, ...]

    @property
    def n_intervals(self) -> int:
        return len(self.starts)

    def latent_slices(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each interval's latent points sit in a field's sorted times.

        ``times`` holds every coalescent event of the grid plus latent points,
        strictly increasing.  Interval j's latent points are the contiguous
        run ``times[first[j]:first[j] + count[j]]``: the field times in
        (starts[j], ends[j]] less the coalescent event closing the interval.
        Points outside (0, root] belong to no interval, so ``count.sum()``
        falls short of the field's latent points exactly when some lie there.
        The intervals tile (0, root], each starting where the last ends, so
        one search over the boundaries serves both ends.
        """
        cut = np.searchsorted(times, np.append(self.starts, self.ends[-1:]), side="right")
        return cut[:-1], np.diff(cut) - self.ends_with_coal


def extract_coalescent_data(g: Genealogy) -> CoalescentData:
    """Reduce a genealogy to coalescent times and the sampling schedule.

    Tip heights within ``HEIGHT_ATOL`` of each other collapse into a single
    sampling event; tied internal heights are rejected rather than jittered.
    """
    coal = g.internal_heights()
    if np.any(np.diff(coal) <= HEIGHT_ATOL):
        raise ValidationError(
            "tied (or nearly tied) internal node heights; resolve the tie upstream"
        )
    tips = np.sort(g.tip_heights())
    groups: list[tuple[float, int]] = []
    for h in tips:
        if groups and h - groups[-1][0] <= HEIGHT_ATOL:
            groups[-1] = (groups[-1][0], groups[-1][1] + 1)
        else:
            groups.append((float(h), 1))
    samp_times = np.array([t for t, _ in groups])
    samp_counts = np.array([c for _, c in groups])
    samp_times[0] = 0.0  # exact by height normalization
    return CoalescentData(coal, samp_times, samp_counts)


def build_interval_grid(d: CoalescentData) -> IntervalGrid:
    """Enumerate all inter-event intervals with lineage counts and factors,
    their lengths, total hazard weight and RJ pass schedule."""
    times, is_coal, after = _lineage_walk(d.coal_times, d.samp_times, d.samp_counts)
    starts, ends, active, ends_with_coal = times[:-1], times[1:], after[:-1], is_coal[1:]
    lengths = ends - starts
    coal_factor = coalescent_factor(active).astype(float)
    event_index = np.cumsum(is_coal)[:-1]
    live = np.flatnonzero((coal_factor > 0) & (lengths > 0))
    rank = run_rank(event_index[live])
    return IntervalGrid(
        starts, ends, active, coal_factor, event_index, ends_with_coal,
        lengths=lengths,
        total_hazard_weight=float(np.dot(coal_factor, lengths)),
        coal_event_times=ends[ends_with_coal],
        rj_passes=tuple(live[rank == k] for k in range(int(rank.max(initial=-1)) + 1)),
    )
