"""Solution-signature schemes for the embedding DP.

A candidate embedding of a subtree is summarized by a *signature*
``(cost, delay-key)``.  The cost algebra (sum of wire, placement and
child costs) is common to all variants; what varies is the **delay key**
and how it propagates:

* :class:`MaxArrivalScheme` — the 2-D signature of Section II-C: the key
  is the scalar latest arrival time.
* :class:`LexScheme` — the Lex-N signatures of Section VI-A: the key is
  the vector of the N slowest path arrivals in non-increasing order,
  compared lexicographically.  The join keeps the N largest values of
  the merged children multiset, which is equivalent to the paper's
  recursive ``max(... \\ {t} \\ {t2} ...)`` formulas.
* :class:`LexMcScheme` — Lex-mc of Section VI-A: key ``(t, tc)`` with
  ``tc`` the delay accumulated from the designated critical input and a
  weight ``w`` counting critical branches (excluded from dominance, as
  in the paper).

All keys expose a totally ordered ``sort_key`` so the 2-D dominance test
("order by increasing cost and decreasing arrival") applies unchanged —
this is exactly the observation that makes Lex-N cheap in the paper.
``combine`` must be associative/commutative so joins can fold children
pairwise with intermediate pruning.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

#: Sort keys are floats or tuples of floats; Python compares them natively.
SortKey = tuple[float, ...]


class DelayScheme(ABC):
    """Delay-key algebra plugged into the embedder."""

    #: Human-readable variant name (used in benchmark tables).
    name: str = "base"

    #: True when ``sort_key`` is a faithful total order for dominance
    #: (the "2-D variant" of Sections II-C/VI-A).  Schemes whose keys are
    #: only partially ordered (Elmore-style, Section II-D) set this False
    #: and override :meth:`dominates`.
    total_order: bool = True

    #: True when ``extend(key, d)`` raises ``primary(key)`` by exactly
    #: ``d``.  The embedder then adds the shortest wire delay still to
    #: the root to its delay-bound lookahead; schemes whose wire delay
    #: depends on the key (quadratic stems, Elmore) leave it False.
    additive_wire: bool = False

    def dominates(self, a: object, b: object) -> bool:
        """Partial order on delay keys: True if ``a`` is at least as good
        as ``b`` in every dimension.  Default: the total order."""
        return self.sort_key(a) <= self.sort_key(b)

    @abstractmethod
    def leaf_key(self, arrival: float, is_critical_input: bool = False) -> object:
        """Key of a leaf with the given arrival time."""

    @abstractmethod
    def extend(self, key: object, delay: float) -> object:
        """Key after propagating over ``delay`` units of wire."""

    @abstractmethod
    def combine(self, a: object, b: object) -> object:
        """Associative merge of two sibling subtree keys."""

    @abstractmethod
    def finalize(self, key: object, gate_delay: float) -> object:
        """Key after passing through a gate with the given delay."""

    @abstractmethod
    def sort_key(self, key: object) -> SortKey:
        """Totally ordered representation used for dominance/ordering."""

    @abstractmethod
    def primary(self, key: object) -> float:
        """The scalar max arrival time (first component)."""


class MaxArrivalScheme(DelayScheme):
    """2-D cost/max-arrival signature (Section II-C)."""

    name = "RT-Embedding"
    additive_wire = True

    def leaf_key(self, arrival: float, is_critical_input: bool = False) -> float:
        return arrival

    def extend(self, key: float, delay: float) -> float:
        return key + delay

    def combine(self, a: float, b: float) -> float:
        return a if a >= b else b

    def finalize(self, key: float, gate_delay: float) -> float:
        return key + gate_delay

    def sort_key(self, key: float) -> SortKey:
        return (key,)

    def primary(self, key: float) -> float:
        return key


class LexScheme(DelayScheme):
    """Lex-N: lexicographically ordered top-N path arrivals (Section VI-A).

    Keys are tuples of at most ``order`` arrivals in non-increasing
    order; missing entries compare as -inf.  ``Lex-1`` degenerates to
    :class:`MaxArrivalScheme` (and is tested to agree with it).
    """

    additive_wire = True

    def __init__(self, order: int) -> None:
        if order < 1:
            raise ValueError("Lex order must be >= 1")
        self.order = order
        self.name = f"Lex-{order}"
        self._padding = (-math.inf,) * order

    def leaf_key(self, arrival: float, is_critical_input: bool = False) -> tuple:
        return (arrival,)

    def extend(self, key: tuple, delay: float) -> tuple:
        return tuple(t + delay for t in key)

    def combine(self, a: tuple, b: tuple) -> tuple:
        merged = sorted(a + b, reverse=True)
        return tuple(merged[: self.order])

    def finalize(self, key: tuple, gate_delay: float) -> tuple:
        return tuple(t + gate_delay for t in key)

    def sort_key(self, key: tuple) -> SortKey:
        return key + self._padding[len(key):]

    def primary(self, key: tuple) -> float:
        return key[0]


@dataclass(frozen=True)
class LexMcKey:
    """Lex-mc key: max arrival, critical-input delay, branch weight."""

    t: float
    tc: float
    w: int


class LexMcScheme(DelayScheme):
    """Lex-mc: optimize max arrival, then critical-input delay (Section VI-A).

    ``w`` counts how many copies of the critical input feed the subtree;
    wire/gate delays accrue to ``tc`` only on weighted subtrees.  As in
    the paper, ``w`` is excluded from the dominance test.
    """

    name = "Lex-mc"
    additive_wire = True

    def leaf_key(self, arrival: float, is_critical_input: bool = False) -> LexMcKey:
        if is_critical_input:
            return LexMcKey(arrival, arrival, 1)
        return LexMcKey(arrival, 0.0, 0)

    def extend(self, key: LexMcKey, delay: float) -> LexMcKey:
        return LexMcKey(key.t + delay, key.tc + delay if key.w else key.tc, key.w)

    def combine(self, a: LexMcKey, b: LexMcKey) -> LexMcKey:
        # The paper's join: t = max(t_k); tc = sum tc_k * w_k; w = sum w_k.
        return LexMcKey(max(a.t, b.t), a.tc + b.tc, a.w + b.w)

    def finalize(self, key: LexMcKey, gate_delay: float) -> LexMcKey:
        return LexMcKey(
            key.t + gate_delay, key.tc + gate_delay if key.w else key.tc, key.w
        )

    def sort_key(self, key: LexMcKey) -> SortKey:
        return (key.t, key.tc)

    def primary(self, key: LexMcKey) -> float:
        return key.t


@dataclass(frozen=True)
class StemKey:
    """Quadratic-wire key: arrival plus current unbuffered stem length."""

    t: float
    stem: int


class QuadraticWireScheme(DelayScheme):
    """Wire delay quadratic in the *stem* length (Section II's example).

    The paper's worked example (Fig. 7) uses "wire delay quadratically
    proportional to the length"; extending a stem from length ``s`` to
    ``s + 1`` then adds ``(s+1)^2 - s^2 = 2s + 1`` delay units.  The key
    carries the stem length, which resets whenever a gate is placed
    (joins and finalize).  Like the Elmore signature of Section II-D,
    ``(t, stem)`` is only *partially* ordered — a slower label with a
    shorter stem may win after more extension — so this scheme opts out
    of the staircase fronts (``total_order = False``); ``sort_key``
    remains a linear extension used for wavefront ordering only.

    This scheme exists to validate the embedder's generality ("can
    easily incorporate complex objective functions") and to reproduce
    the exact solution sets of the paper's example in the test suite.
    """

    name = "Quadratic"
    total_order = False

    def __init__(self, unit_delay: float = 1.0) -> None:
        self.unit_delay = unit_delay

    def dominates(self, a: StemKey, b: StemKey) -> bool:
        # A shorter stem is never worse: future extensions cost less.
        return a.t <= b.t and a.stem <= b.stem

    def leaf_key(self, arrival: float, is_critical_input: bool = False) -> StemKey:
        return StemKey(arrival, 0)

    def extend(self, key: StemKey, delay: float) -> StemKey:
        # ``delay`` is the edge's base (length-1) delay; the quadratic
        # profile turns it into (2 * stem + 1) units.
        step = self.unit_delay * delay * (2 * key.stem + 1)
        return StemKey(key.t + step, key.stem + 1)

    def combine(self, a: StemKey, b: StemKey) -> StemKey:
        return StemKey(max(a.t, b.t), 0)

    def finalize(self, key: StemKey, gate_delay: float) -> StemKey:
        return StemKey(key.t + gate_delay, 0)

    def sort_key(self, key: StemKey) -> SortKey:
        return (key.t, float(key.stem))

    def primary(self, key: StemKey) -> float:
        return key.t


@dataclass(frozen=True)
class ElmoreKey:
    """Elmore key (Section II-D): arrival time and upstream resistance."""

    t: float
    r: float


class ElmoreScheme(DelayScheme):
    """The 3-D Elmore-delay signature of Section II-D.

    The paper's fanin variant propagates ``(c, r, t)`` triples — cost,
    upstream resistance (up to and including the driving gate's output
    resistance) and arrival time — with wire-segment delay
    ``d_uv = c_uv * (R(u) + r_uv / 2)``.  Cost is the embedder's own
    axis; the delay key here is the ``(t, r)`` pair, which is only
    *partially* ordered (a slower solution with less upstream resistance
    can win after more wire), so this scheme uses the scan-based fronts —
    the paper's "balanced binary search trees are needed" case.

    Intended for ASIC-style targets ("may be useful in, for example, the
    ASIC domain"); edge ``wire_delay`` values act as segment lengths.
    """

    name = "Elmore"
    total_order = False

    def __init__(self, model: "ElmoreParameters | None" = None) -> None:
        self.model = model if model is not None else ElmoreParameters()

    def dominates(self, a: ElmoreKey, b: ElmoreKey) -> bool:
        return a.t <= b.t and a.r <= b.r

    def leaf_key(self, arrival: float, is_critical_input: bool = False) -> ElmoreKey:
        return ElmoreKey(arrival, self.model.driver_resistance)

    def extend(self, key: ElmoreKey, delay: float) -> ElmoreKey:
        # ``delay`` is the edge's length in units; RC per unit from the
        # model.  d_uv = c_uv * (R(u) + r_uv / 2), then R accumulates.
        r_uv = self.model.unit_resistance * delay
        c_uv = self.model.unit_capacitance * delay
        return ElmoreKey(key.t + c_uv * (key.r + r_uv / 2.0), key.r + r_uv)

    def combine(self, a: ElmoreKey, b: ElmoreKey) -> ElmoreKey:
        # Joining at a gate: the max input arrival matters; the upstream
        # resistances were already consumed by each child's own wire.
        return ElmoreKey(max(a.t, b.t), 0.0)

    def finalize(self, key: ElmoreKey, gate_delay: float) -> ElmoreKey:
        # Through the gate: intrinsic delay, then a fresh driver.
        return ElmoreKey(key.t + gate_delay, self.model.driver_resistance)

    def sort_key(self, key: ElmoreKey) -> SortKey:
        return (key.t, key.r)

    def primary(self, key: ElmoreKey) -> float:
        return key.t


@dataclass(frozen=True)
class ElmoreParameters:
    """RC parameters for :class:`ElmoreScheme` (mirrors
    :class:`repro.arch.delay.ElmoreDelayModel` without the import cycle)."""

    unit_resistance: float = 0.1
    unit_capacitance: float = 0.2
    driver_resistance: float = 1.0


def scheme_by_name(name: str) -> DelayScheme:
    """Factory for benchmark drivers: 'rt', 'lex-2'..'lex-N', 'lex-mc'."""
    lowered = name.lower()
    if lowered in ("rt", "rt-embedding", "max", "2d"):
        return MaxArrivalScheme()
    if lowered in ("lex-mc", "lexmc", "mc"):
        return LexMcScheme()
    if lowered.startswith("lex-"):
        return LexScheme(int(lowered.split("-", 1)[1]))
    if lowered == "elmore":
        return ElmoreScheme()
    raise ValueError(f"unknown embedding scheme {name!r}")
