"""Named sites and inter-site links with per-link delay/loss regimes.

A :class:`WanTopology` is the *declarative* description of a
multi-datacenter network: sites (datacenters) and inter-site links, each
link carrying a delay distribution and a loss regime — either i.i.d.
Bernoulli (the paper's §3.1 model) or Gilbert–Elliott bursty loss with a
given mean burst length (the :mod:`repro.faults` machinery).  Correlated
cross-link behaviour is declared as :class:`CongestionSpec` entries: a
shared latent on/off factor that inflates the delays of every link
loading on it (e.g. two links transiting the same backbone provider).

The topology itself holds no RNG and no mutable run state — one
description can be instantiated into any number of independent seeded
runs via :class:`repro.net.wan.relay.WanNetwork`.  Fault-free route
composition (:meth:`WanTopology.compose_route`) reduces any site pair to
the paper's single-link ``(delay, loss)`` abstraction through
:func:`repro.net.topology.compose_path`, which is what the analytic
cross-check in :mod:`repro.net.wan.analysis` builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.net.delays import DelayDistribution
from repro.net.topology import PathDelay, compose_path

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["LinkSpec", "CongestionSpec", "pair_key", "WanTopology"]


def pair_key(a: str, b: str) -> Tuple[str, str]:
    """Canonical unordered key of a site pair."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class LinkSpec:
    """One inter-site link's declared behaviour.

    ``burst_length`` selects the loss regime: ``None`` means i.i.d.
    Bernoulli loss at rate ``loss``; a value ``>= 1`` means
    Gilbert–Elliott bursty loss with the *same average rate* ``loss``
    and that mean burst length in messages (the equal-average
    construction of :meth:`repro.faults.GilbertElliottLink.from_average`).
    """

    a: str
    b: str
    delay: DelayDistribution
    loss: float = 0.0
    burst_length: Optional[float] = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise InvalidParameterError(
                f"a link needs two distinct sites, got {self.a!r} twice"
            )
        if not 0.0 <= self.loss < 1.0:
            raise InvalidParameterError(
                f"loss must be in [0, 1), got {self.loss}"
            )
        if self.burst_length is not None:
            if self.burst_length < 1.0:
                raise InvalidParameterError(
                    f"burst_length must be >= 1 message, got "
                    f"{self.burst_length}"
                )
            if self.loss <= 0.0:
                raise InvalidParameterError(
                    "bursty loss needs loss > 0 (the average rate the "
                    "Gilbert-Elliott chain is matched to)"
                )

    @property
    def key(self) -> Tuple[str, str]:
        """Canonical unordered link key."""
        return pair_key(self.a, self.b)


@dataclass(frozen=True)
class CongestionSpec:
    """One shared latent congestion factor.

    While an episode is active, the delay of every link whose site pair
    is listed in ``pairs`` is multiplied by ``factor`` — a *shared*
    shock, so the affected links' delays are correlated even though each
    still draws its own base delay.  Episodes arrive as a Poisson
    process of rate ``rate`` with exponential mean duration
    ``mean_duration`` (sampled per run from the dedicated
    ``STREAM_WAN_CONGESTION`` stream).
    """

    pairs: Tuple[Tuple[str, str], ...]
    rate: float
    mean_duration: float
    factor: float

    def __post_init__(self) -> None:
        if not self.pairs:
            raise InvalidParameterError(
                "a congestion factor must load on at least one site pair"
            )
        if self.rate <= 0.0:
            raise InvalidParameterError(
                f"rate must be positive, got {self.rate}"
            )
        if self.mean_duration <= 0.0:
            raise InvalidParameterError(
                f"mean_duration must be positive, got {self.mean_duration}"
            )
        if self.factor <= 1.0:
            raise InvalidParameterError(
                f"factor must exceed 1 (a shock inflates delay), got "
                f"{self.factor}"
            )


class WanTopology:
    """A declarative multi-site WAN description.

    Args:
        name: label used in tables and telemetry.
    """

    def __init__(self, name: str = "wan") -> None:
        self.name = str(name)
        self._sites: List[str] = []
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self._congestions: List[CongestionSpec] = []
        self._graph: Optional[nx.Graph] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_site(self, name: str) -> str:
        if not name:
            raise InvalidParameterError("site name must be non-empty")
        if name in self._sites:
            raise InvalidParameterError(f"site {name!r} already exists")
        self._sites.append(name)
        self._graph = None
        return name

    def add_link(
        self,
        a: str,
        b: str,
        delay: DelayDistribution,
        loss: float = 0.0,
        burst_length: Optional[float] = None,
    ) -> LinkSpec:
        """Declare the (bidirectional) link between sites ``a`` and ``b``."""
        for site in (a, b):
            if site not in self._sites:
                raise InvalidParameterError(
                    f"unknown site {site!r}; add_site it first"
                )
        spec = LinkSpec(
            a=a, b=b, delay=delay, loss=loss, burst_length=burst_length
        )
        if spec.key in self._links:
            raise InvalidParameterError(
                f"link {spec.key} already declared"
            )
        if burst_length is not None:
            # Fail at declaration time if no Gilbert-Elliott chain can
            # match this (average, burst) pair, not at first transmit.
            from repro.faults.links import GilbertElliottLink

            GilbertElliottLink.from_average(delay, loss, burst_length)
        self._links[spec.key] = spec
        self._graph = None
        return spec

    def add_congestion(
        self,
        pairs: Sequence[Tuple[str, str]],
        rate: float,
        mean_duration: float,
        factor: float,
    ) -> CongestionSpec:
        """Declare a shared latent congestion factor over site pairs."""
        canonical = []
        for a, b in pairs:
            key = pair_key(a, b)
            if key not in self._links:
                raise InvalidParameterError(
                    f"congestion references site pair {key} but no link "
                    f"is declared between those sites"
                )
            canonical.append(key)
        spec = CongestionSpec(
            pairs=tuple(canonical),
            rate=rate,
            mean_duration=mean_duration,
            factor=factor,
        )
        self._congestions.append(spec)
        return spec

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def links(self) -> Tuple[LinkSpec, ...]:
        return tuple(self._links[k] for k in sorted(self._links))

    @property
    def congestions(self) -> Tuple[CongestionSpec, ...]:
        return tuple(self._congestions)

    def link(self, a: str, b: str) -> LinkSpec:
        key = pair_key(a, b)
        try:
            return self._links[key]
        except KeyError:
            raise InvalidParameterError(f"no link between {a!r} and {b!r}")

    def links_for(self, key: Tuple[str, str]) -> LinkSpec:
        return self.link(*key)

    def congestion_indices(self, key: Tuple[str, str]) -> Tuple[int, ...]:
        """Indices of the congestion specs loading on this link."""
        return tuple(
            i
            for i, spec in enumerate(self._congestions)
            if key in spec.pairs
        )

    def _routing_graph(self) -> nx.Graph:
        if self._graph is None:
            # on first use: repro.live loads no networkx
            import networkx as nx

            g = nx.Graph()
            g.add_nodes_from(self._sites)
            for spec in self._links.values():
                g.add_edge(spec.a, spec.b, mean=spec.delay.mean)
            self._graph = g
        return self._graph

    # ------------------------------------------------------------------ #
    # Routing and composition
    # ------------------------------------------------------------------ #

    def _check_site(self, site: str) -> None:
        if site not in self._sites:
            raise InvalidParameterError(f"unknown site {site!r}")

    def route(
        self,
        source: str,
        target: str,
        down: frozenset = frozenset(),
    ) -> Optional[List[str]]:
        """Shortest live route by total mean delay, or ``None``.

        ``down`` is a set of canonical link keys currently partitioned;
        those links are invisible to the router (a ``None`` weight hides
        the edge from :func:`networkx.shortest_path`).
        """
        self._check_site(source)
        self._check_site(target)
        if source == target:
            raise InvalidParameterError("source and target coincide")
        g = self._routing_graph()

        def weight(u, v, data):
            if pair_key(u, v) in down:
                return None
            return data["mean"]

        import networkx as nx

        try:
            return nx.shortest_path(g, source, target, weight=weight)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None

    def compose_route(
        self,
        source: str,
        target: str,
        down: frozenset = frozenset(),
    ) -> Tuple[PathDelay, float, List[str]]:
        """Fault-free end-to-end ``(delay, loss, path)`` along the best
        live route — the reduction of this WAN path to the paper's
        single-link abstraction (§3.1)."""
        path = self.route(source, target, down=down)
        if path is None:
            raise InvalidParameterError(
                f"no route from {source!r} to {target!r} "
                f"(down={sorted(down)})"
            )
        hops = [
            (self.link(u, v).delay, self.link(u, v).loss)
            for u, v in zip(path[:-1], path[1:])
        ]
        delay, loss = compose_path(hops)
        return delay, loss, path
