"""Missing-pattern scenarios.

Table I drops observed values uniformly at random ("percentage of values
that have been randomly dropped in historical data") — that is the
``"mcar"`` pattern. Real detector networks fail in structured ways the
paper's Section I cites (detector malfunction, transmission failure), and
the imputation literature shows methods diverge exactly on those
structured regimes. This module therefore exposes missingness as
first-class :class:`MissingPattern` objects: seeded, named, serializable
scenarios shared by offline evaluation (:mod:`repro.experiments`), the
benchmark gauntlet and live chaos fault injection
(:mod:`repro.reliability.chaos`).

Registered kinds (see :data:`PATTERNS` / :func:`make_pattern`):

* ``mcar`` — independent uniform drops (the paper's Table I protocol);
* ``sensor`` — timestamp-level whole-sensor drops (a cabinet uplink
  either reports the full record or nothing);
* ``block`` — contiguous per-node outage windows (communication
  failures);
* ``corridor`` — spatially correlated outages: a BFS-connected corridor
  of sensors goes dark together (a severed backhaul takes out every
  detector on a stretch of road);
* ``blackout`` — network-wide windows where every sensor is dark
  (central collector outages);
* ``mnar_congestion`` — missing *not* at random: drop probability tied
  to the congestion level of the reading itself (overloaded detectors
  fail under exactly the traffic you most want to observe);
* ``mixed`` — the intersection of several component scenarios.

Every pattern draws from ``np.random.default_rng(seed)``, so the same
scenario JSON always regenerates the same mask. Masks use the repo-wide
convention: 1 = observed, 0 = missing, dtype
:func:`~repro.autodiff.default_dtype`.
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar

import numpy as np

from ..autodiff import default_dtype
from ..errors import ConfigError, DataError

__all__ = [
    "MissingPattern",
    "PATTERNS",
    "register_pattern",
    "make_pattern",
    "pattern_names",
    "MCARPattern",
    "SensorFailurePattern",
    "BlockPattern",
    "CorridorOutagePattern",
    "BlackoutPattern",
    "MNARCongestionPattern",
    "MixedPattern",
    "intersect_masks",
    "holdout_observed",
]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
PATTERNS: dict[str, type["MissingPattern"]] = {}


def register_pattern(cls: type["MissingPattern"]) -> type["MissingPattern"]:
    """Class decorator: add a pattern class to :data:`PATTERNS` by kind."""
    if not getattr(cls, "kind", None):
        raise ConfigError(f"{cls.__name__} must define a non-empty 'kind'")
    PATTERNS[cls.kind] = cls
    return cls


def pattern_names() -> list[str]:
    """Registered pattern kinds, sorted."""
    return sorted(PATTERNS)


def make_pattern(kind: str, seed: int = 0, name: str | None = None, **params):
    """Instantiate a registered pattern: ``make_pattern("mcar", rate=0.4)``."""
    if kind not in PATTERNS:
        raise ConfigError(
            f"unknown missing pattern {kind!r}; registered: {pattern_names()}"
        )
    try:
        return PATTERNS[kind](seed=seed, name=name, **params)
    except TypeError as error:
        raise ConfigError(f"bad parameters for pattern {kind!r}: {error}") from None


# ----------------------------------------------------------------------
# Base class
# ----------------------------------------------------------------------
class MissingPattern:
    """A seeded, named, JSON-serializable missingness scenario.

    Subclasses set :attr:`kind`, accept their parameters in ``__init__``
    (validating with :class:`~repro.errors.ConfigError`), return them
    from :meth:`params`, and implement :meth:`_mask`.

    ``mask(shape)`` is deterministic: each call builds a fresh generator
    from ``seed``, so repeated calls return identical masks and two
    consumers of the same scenario JSON (offline eval, chaos injection)
    provably agree. Pass an explicit ``rng`` only to join an existing
    generator stream.
    """

    #: registry key; subclasses must override.
    kind: ClassVar[str] = ""
    #: |achieved - target| rate tolerance this pattern is tested to.
    rate_tolerance: ClassVar[float] = 0.05
    #: whether :meth:`mask` accepts arbitrary shapes (else strict (T, N, D)).
    any_shape: ClassVar[bool] = False
    #: whether :meth:`_mask` needs the underlying readings (MNAR family).
    needs_data: ClassVar[bool] = False

    def __init__(self, seed: int = 0, name: str | None = None):
        self.seed = int(seed)
        self.name = str(name) if name is not None else self.kind

    # -- identity -------------------------------------------------------
    def params(self) -> dict:
        """JSON-ready parameter dict; subclasses override."""
        return {}

    def to_json_dict(self) -> dict:
        """Scenario JSON: ``{"pattern", "name", "seed", "params"}``."""
        return {
            "pattern": self.kind,
            "name": self.name,
            "seed": self.seed,
            "params": self.params(),
        }

    @staticmethod
    def from_json_dict(payload: dict) -> "MissingPattern":
        """Rebuild a pattern from :meth:`to_json_dict` output."""
        if not isinstance(payload, dict) or "pattern" not in payload:
            raise ConfigError(
                f"scenario JSON needs a 'pattern' key, got {payload!r}"
            )
        unknown = set(payload) - {"pattern", "name", "seed", "params"}
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"scenario 'params' must be a dict, got {params!r}")
        return make_pattern(
            payload["pattern"],
            seed=payload.get("seed", 0),
            name=payload.get("name"),
            **params,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_json_dict()!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MissingPattern)
            and self.to_json_dict() == other.to_json_dict()
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.name, self.seed, repr(sorted(self.params().items()))))

    # -- rate -----------------------------------------------------------
    @property
    def expected_rate(self) -> float | None:
        """Target overall missing rate, when the scenario has one."""
        return getattr(self, "rate", None)

    def with_rate(self, rate: float) -> "MissingPattern":
        """A copy of this scenario re-targeted to ``rate`` (gauntlet grids)."""
        payload = self.to_json_dict()
        if "rate" not in payload["params"]:
            raise ConfigError(
                f"pattern {self.kind!r} has no 'rate' parameter to override"
            )
        payload["params"]["rate"] = float(rate)
        return MissingPattern.from_json_dict(payload)

    # -- mask generation ------------------------------------------------
    def mask(
        self,
        shape: tuple[int, ...],
        adjacency: np.ndarray | None = None,
        data: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Generate the observation mask for ``shape`` (= ``(T, N, D)``).

        ``adjacency`` feeds spatially structured patterns (corridors);
        ``data`` feeds value-dependent (MNAR) patterns. Omitting ``rng``
        uses a fresh ``default_rng(self.seed)`` — the deterministic path.
        """
        shape = tuple(int(s) for s in shape)
        if not self.any_shape and len(shape) != 3:
            raise DataError(
                f"pattern {self.kind!r} needs a (T, N, D) shape, got {shape}"
            )
        if self.needs_data:
            if data is None:
                raise DataError(
                    f"pattern {self.kind!r} is value-dependent; pass data=..."
                )
            data = np.asarray(data)
            if data.shape != shape:
                raise DataError(
                    f"data shape {data.shape} != requested mask shape {shape}"
                )
        if rng is None:
            rng = np.random.default_rng(self.seed)
        return self._mask(shape, rng, adjacency=adjacency, data=data)

    def _mask(
        self,
        shape: tuple[int, ...],
        rng: np.random.Generator,
        adjacency: np.ndarray | None,
        data: np.ndarray | None,
    ) -> np.ndarray:
        raise NotImplementedError

    # -- chaos bridge ---------------------------------------------------
    def dropped_nodes(
        self,
        num_nodes: int,
        adjacency: np.ndarray | None = None,
        probe_steps: int = 16,
    ) -> tuple[int, ...]:
        """Sensors this scenario silences outright (chaos sensor drops).

        Default: probe a short mask and report nodes missing at every
        step. Patterns with an explicit node-selection stage (corridors)
        override this to share the selection code with :meth:`mask`.
        """
        probe = self.mask((int(probe_steps), int(num_nodes), 1), adjacency=adjacency)
        dead = (probe <= 0).all(axis=(0, 2))
        return tuple(int(n) for n in np.flatnonzero(dead))


# ----------------------------------------------------------------------
# Elementary patterns
# ----------------------------------------------------------------------
def _check_rate(rate, lo: float = 0.0, hi: float = 1.0, *, name: str = "rate") -> float:
    rate = float(rate)
    if not lo <= rate < hi:
        raise ConfigError(f"{name} must be in [{lo}, {hi}), got {rate}")
    return rate


@register_pattern
class MCARPattern(MissingPattern):
    """Missing completely at random: independent uniform entry drops."""

    kind = "mcar"
    any_shape = True
    rate_tolerance = 0.05

    def __init__(self, rate: float, seed: int = 0, name: str | None = None):
        super().__init__(seed=seed, name=name)
        self.rate = _check_rate(rate)

    def params(self) -> dict:
        return {"rate": self.rate}

    def _mask(self, shape, rng, adjacency, data):
        return (rng.random(shape) >= self.rate).astype(default_dtype())


@register_pattern
class SensorFailurePattern(MissingPattern):
    """Timestamp-level whole-sensor drops (all features together)."""

    kind = "sensor"
    rate_tolerance = 0.05

    def __init__(self, rate: float, seed: int = 0, name: str | None = None):
        super().__init__(seed=seed, name=name)
        self.rate = _check_rate(rate)

    def params(self) -> dict:
        return {"rate": self.rate}

    def _mask(self, shape, rng, adjacency, data):
        total, nodes, features = shape
        node_mask = (rng.random((total, nodes)) >= self.rate).astype(default_dtype())
        return np.repeat(node_mask[:, :, None], features, axis=2)


@register_pattern
class BlockPattern(MissingPattern):
    """Contiguous per-node outage windows (communication failures).

    Either ``rate`` (block count derived so overlap-free coverage lands
    near it) or an explicit ``num_blocks`` drives the block count; the
    derivation matches the pre-pattern experiment pipeline exactly
    (``int(rate * T * N / mean_len)``).
    """

    kind = "block"
    # Blocks land independently, so overlap pushes the achieved rate
    # toward 1 - e^-rate (~0.15 below nominal at rate 0.6). The count
    # formula stays uncorrected to keep legacy masks byte-identical.
    rate_tolerance = 0.2

    def __init__(
        self,
        rate: float | None = None,
        num_blocks: int | None = None,
        block_length: tuple[int, int] = (6, 30),
        seed: int = 0,
        name: str | None = None,
    ):
        super().__init__(seed=seed, name=name)
        lo, hi = (int(block_length[0]), int(block_length[1]))
        if lo < 1 or hi < lo:
            raise ConfigError(f"invalid block_length range {block_length}")
        if rate is None and num_blocks is None:
            raise ConfigError("block pattern needs rate= or num_blocks=")
        self.rate = None if rate is None else _check_rate(rate)
        self.num_blocks = None if num_blocks is None else int(num_blocks)
        if self.num_blocks is not None and self.num_blocks < 0:
            raise ConfigError(f"num_blocks must be >= 0, got {num_blocks}")
        self.block_length = (lo, hi)

    def params(self) -> dict:
        out: dict = {"block_length": list(self.block_length)}
        if self.rate is not None:
            out["rate"] = self.rate
        if self.num_blocks is not None:
            out["num_blocks"] = self.num_blocks
        return out

    def _block_count(self, total: int, nodes: int) -> int:
        if self.num_blocks is not None:
            return self.num_blocks
        lo, hi = self.block_length
        mean_len = (lo + hi) / 2
        return int(self.rate * total * nodes / mean_len)

    def _mask(self, shape, rng, adjacency, data):
        total, nodes, _features = shape
        mask = np.ones(shape, dtype=default_dtype())
        lo, hi = self.block_length
        for _ in range(self._block_count(total, nodes)):
            node = int(rng.integers(nodes))
            length = int(rng.integers(lo, hi + 1))
            start = int(rng.integers(max(total - length, 1)))
            mask[start : start + length, node, :] = 0.0
        return mask


# ----------------------------------------------------------------------
# Spatially / temporally structured patterns
# ----------------------------------------------------------------------
def _bfs_corridor(
    seed_node: int,
    size: int,
    num_nodes: int,
    adjacency: np.ndarray | None,
) -> list[int]:
    """A connected set of ``size`` sensors grown from ``seed_node``.

    BFS over ``adjacency > 0``, visiting the strongest edges first (ties
    by index) so the walk is deterministic given the seed node. Without
    an adjacency, fall back to consecutive sensor indices — in the
    synthetic corridor/grid networks ids run along the road, so this is
    still a physically plausible stretch.
    """
    size = min(size, num_nodes)
    if adjacency is None:
        return [(seed_node + i) % num_nodes for i in range(size)]
    adjacency = np.asarray(adjacency)
    if adjacency.shape != (num_nodes, num_nodes):
        raise DataError(
            f"adjacency must be ({num_nodes}, {num_nodes}), got {adjacency.shape}"
        )
    visited = [seed_node]
    seen = {seed_node}
    queue = deque([seed_node])
    while queue and len(visited) < size:
        here = queue.popleft()
        weights = adjacency[here]
        neighbors = sorted(
            (int(n) for n in np.flatnonzero(weights > 0) if int(n) not in seen),
            key=lambda n: (-float(weights[n]), n),
        )
        for n in neighbors:
            if len(visited) >= size:
                break
            seen.add(n)
            visited.append(n)
            queue.append(n)
    # Disconnected component smaller than the corridor: pad with the
    # nearest unvisited ids so the outage still has the requested size.
    probe = 0
    while len(visited) < size:
        if probe not in seen:
            seen.add(probe)
            visited.append(probe)
        probe += 1
    return visited


@register_pattern
class CorridorOutagePattern(MissingPattern):
    """Spatially correlated outage: a connected corridor goes dark together.

    With ``duration=None`` the corridors are dark for the whole range —
    the steady sensor-drop scenario chaos injection consumes via
    :meth:`dropped_nodes`. With a ``(lo, hi)`` duration, each outage
    event silences one corridor for a random window.
    """

    kind = "corridor"
    rate_tolerance = 0.15  # corridor granularity quantizes the achievable rate

    def __init__(
        self,
        rate: float,
        corridor_size: int = 3,
        duration: tuple[int, int] | None = None,
        num_corridors: int | None = None,
        seed: int = 0,
        name: str | None = None,
    ):
        super().__init__(seed=seed, name=name)
        self.rate = _check_rate(rate)
        self.corridor_size = int(corridor_size)
        if self.corridor_size < 1:
            raise ConfigError(f"corridor_size must be >= 1, got {corridor_size}")
        if duration is not None:
            lo, hi = (int(duration[0]), int(duration[1]))
            if lo < 1 or hi < lo:
                raise ConfigError(f"invalid duration range {duration}")
            duration = (lo, hi)
        self.duration = duration
        self.num_corridors = None if num_corridors is None else int(num_corridors)
        if self.num_corridors is not None and self.num_corridors < 1:
            raise ConfigError(f"num_corridors must be >= 1, got {num_corridors}")

    def params(self) -> dict:
        out: dict = {"rate": self.rate, "corridor_size": self.corridor_size}
        if self.duration is not None:
            out["duration"] = list(self.duration)
        if self.num_corridors is not None:
            out["num_corridors"] = self.num_corridors
        return out

    def _corridor_count(self, total: int, nodes: int) -> int:
        if self.num_corridors is not None:
            return self.num_corridors
        size = min(self.corridor_size, nodes)
        if self.duration is None:
            return max(1, round(self.rate * nodes / size))
        lo, hi = self.duration
        mean_dur = (lo + hi) / 2
        return max(1, round(self.rate * total * nodes / (size * mean_dur)))

    def _pick_corridors(
        self, count: int, num_nodes: int, adjacency, rng
    ) -> list[list[int]]:
        """One rng draw per corridor (the seed sensor), then deterministic BFS.

        Corridors are drawn *before* any time-window draws so
        :meth:`dropped_nodes` — which stops after this stage — selects
        exactly the sensors :meth:`mask` silences.
        """
        return [
            _bfs_corridor(
                int(rng.integers(num_nodes)), self.corridor_size, num_nodes, adjacency
            )
            for _ in range(count)
        ]

    def _mask(self, shape, rng, adjacency, data):
        total, nodes, _features = shape
        corridors = self._pick_corridors(
            self._corridor_count(total, nodes), nodes, adjacency, rng
        )
        mask = np.ones(shape, dtype=default_dtype())
        if self.duration is None:
            for corridor in corridors:
                mask[:, corridor, :] = 0.0
            return mask
        lo, hi = self.duration
        for corridor in corridors:
            length = int(rng.integers(lo, hi + 1))
            start = int(rng.integers(max(total - length, 1)))
            mask[start : start + length, corridor, :] = 0.0
        return mask

    def dropped_nodes(self, num_nodes, adjacency=None, probe_steps: int = 16):
        """Union of corridor sensors (same draws as :meth:`mask`).

        Chaos treats the corridors as steadily dead; for windowed
        scenarios (``duration`` set) that is the conservative reading of
        the same node selection.
        """
        rng = np.random.default_rng(self.seed)
        corridors = self._pick_corridors(
            self._corridor_count(int(probe_steps), int(num_nodes)),
            int(num_nodes),
            adjacency,
            rng,
        )
        dead = sorted({int(n) for corridor in corridors for n in corridor})
        return tuple(dead)


@register_pattern
class BlackoutPattern(MissingPattern):
    """Network-wide dark windows: every sensor missing at once."""

    kind = "blackout"
    rate_tolerance = 0.2  # few long windows; overlap makes the rate coarse

    def __init__(
        self,
        rate: float,
        duration: tuple[int, int] = (3, 12),
        seed: int = 0,
        name: str | None = None,
    ):
        super().__init__(seed=seed, name=name)
        self.rate = _check_rate(rate)
        lo, hi = (int(duration[0]), int(duration[1]))
        if lo < 1 or hi < lo:
            raise ConfigError(f"invalid duration range {duration}")
        self.duration = (lo, hi)

    def params(self) -> dict:
        return {"rate": self.rate, "duration": list(self.duration)}

    def _mask(self, shape, rng, adjacency, data):
        total, _nodes, _features = shape
        lo, hi = self.duration
        mean_dur = (lo + hi) / 2
        events = max(1, round(self.rate * total / mean_dur)) if self.rate else 0
        mask = np.ones(shape, dtype=default_dtype())
        for _ in range(events):
            length = int(rng.integers(lo, hi + 1))
            start = int(rng.integers(max(total - length, 1)))
            mask[start : start + length, :, :] = 0.0
        return mask


@register_pattern
class MNARCongestionPattern(MissingPattern):
    """Missing not at random: drop probability tied to congestion.

    The drop probability of a reading scales with ``exp(strength * z)``
    where ``z`` is the standardized congestion score of the reading
    itself — by default low values of feature 0 (speed), i.e. congested
    traffic is what goes missing. The probabilities are renormalized to
    hit the target overall ``rate``. Drops are whole-sensor (all
    features of a timestamp vanish together), matching how an overloaded
    detector actually fails.
    """

    kind = "mnar_congestion"
    needs_data = True
    rate_tolerance = 0.05

    def __init__(
        self,
        rate: float,
        strength: float = 2.0,
        feature: int = 0,
        congested: str = "low",
        seed: int = 0,
        name: str | None = None,
    ):
        super().__init__(seed=seed, name=name)
        self.rate = _check_rate(rate)
        self.strength = float(strength)
        if self.strength < 0:
            raise ConfigError(f"strength must be >= 0, got {strength}")
        self.feature = int(feature)
        if congested not in ("low", "high"):
            raise ConfigError(f"congested must be 'low' or 'high', got {congested!r}")
        self.congested = congested

    def params(self) -> dict:
        return {
            "rate": self.rate,
            "strength": self.strength,
            "feature": self.feature,
            "congested": self.congested,
        }

    def _mask(self, shape, rng, adjacency, data):
        total, nodes, features = shape
        if not -features <= self.feature < features:
            raise DataError(
                f"feature {self.feature} out of range for D={features}"
            )
        score = np.asarray(data[:, :, self.feature], dtype=np.float64)
        std = score.std()
        z = (score - score.mean()) / (std if std > 0 else 1.0)
        if self.congested == "low":
            z = -z  # low speed = congestion = more likely to drop
        p = np.exp(self.strength * z)
        # Renormalize to the target rate under the [0, 1] clip.
        for _ in range(16):
            mean = p.mean()
            if mean <= 0:
                break
            p = np.clip(p * (self.rate / mean), 0.0, 1.0)
        node_mask = (rng.random((total, nodes)) >= p).astype(default_dtype())
        return np.repeat(node_mask[:, :, None], features, axis=2)


@register_pattern
class MixedPattern(MissingPattern):
    """Intersection of several component scenarios (all fire together)."""

    kind = "mixed"
    rate_tolerance = 0.15

    def __init__(
        self,
        components: list,
        seed: int = 0,
        name: str | None = None,
    ):
        super().__init__(seed=seed, name=name)
        if not components:
            raise ConfigError("mixed pattern needs at least one component")
        resolved: list[MissingPattern] = []
        for index, component in enumerate(components):
            if isinstance(component, MissingPattern):
                resolved.append(component)
                continue
            if not isinstance(component, dict):
                raise ConfigError(
                    f"mixed component must be a scenario dict or pattern, "
                    f"got {component!r}"
                )
            payload = dict(component)
            # Derive per-component seeds from the parent so one scenario
            # seed pins the whole mixture.
            payload.setdefault("seed", self.seed + 101 * (index + 1))
            resolved.append(MissingPattern.from_json_dict(payload))
        self.components = resolved

    def params(self) -> dict:
        return {"components": [c.to_json_dict() for c in self.components]}

    @property
    def expected_rate(self) -> float | None:
        survive = 1.0
        for component in self.components:
            rate = component.expected_rate
            if rate is None:
                return None
            survive *= 1.0 - rate
        return 1.0 - survive

    def with_rate(self, rate: float) -> "MissingPattern":
        """Re-target the mixture: components share the rate evenly.

        Each rate-bearing component gets ``1 - (1 - rate)**(1/k)`` so the
        independent intersection lands near ``rate`` overall.
        """
        rate = _check_rate(rate)
        bearing = [c for c in self.components if "rate" in c.params()]
        if not bearing:
            raise ConfigError("no mixed component has a 'rate' parameter")
        per = 1.0 - (1.0 - rate) ** (1.0 / len(bearing))
        components = [
            c.with_rate(per) if "rate" in c.params() else c for c in self.components
        ]
        return MixedPattern(components, seed=self.seed, name=self.name)

    def _mask(self, shape, rng, adjacency, data):
        # Components draw from their own seeds (not the shared rng), so
        # a mixture is exactly the intersection of its named scenarios.
        masks = [
            component.mask(shape, adjacency=adjacency, data=data)
            for component in self.components
        ]
        return intersect_masks(*masks)

    def dropped_nodes(self, num_nodes, adjacency=None, probe_steps: int = 16):
        dead: set[int] = set()
        for component in self.components:
            dead.update(
                component.dropped_nodes(
                    num_nodes, adjacency=adjacency, probe_steps=probe_steps
                )
            )
        return tuple(sorted(dead))


# ----------------------------------------------------------------------
# Mask utilities
# ----------------------------------------------------------------------
def intersect_masks(*masks: np.ndarray) -> np.ndarray:
    """Intersection of observation masks (missing if missing anywhere)."""
    if not masks:
        raise ConfigError("need at least one mask")
    out = np.ones_like(masks[0])
    for m in masks:
        out = out * m
    return out


def holdout_observed(
    mask: np.ndarray,
    holdout_rate: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Hide a fraction of *observed* entries for imputation evaluation.

    The paper's RQ2 protocol: "randomly remove 30% of the observed entries
    and evaluate imputation on them". Returns ``(training_mask,
    holdout_mask)`` where ``holdout_mask`` marks exactly the hidden-but-
    known entries.
    """
    if not 0.0 < holdout_rate < 1.0:
        raise ValueError(f"holdout_rate must be in (0, 1), got {holdout_rate}")
    observed = mask > 0
    drop = (rng.random(mask.shape) < holdout_rate) & observed
    training_mask = mask * (~drop)
    holdout_mask = drop.astype(default_dtype())
    return training_mask, holdout_mask

