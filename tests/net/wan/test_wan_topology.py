"""Tests for the declarative WAN topology and its route composition."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.net.topology import compose_path, end_to_end_behavior
from repro.net.wan import LinkSpec, WanTopology
from repro.net.wan.topology import pair_key


def to_graph(t: WanTopology) -> nx.Graph:
    """A fresh :mod:`networkx` view of ``t`` with ``delay``/``loss``
    edges, the shape :func:`end_to_end_behavior` reads."""
    g = nx.Graph()
    for spec in t.links:
        g.add_edge(spec.a, spec.b, delay=spec.delay, loss=spec.loss)
    return g


def diamond() -> WanTopology:
    """A -- B -- D fast two-hop route with a slow A -- D shortcut."""
    t = WanTopology("diamond")
    for s in ("A", "B", "C", "D"):
        t.add_site(s)
    t.add_link("A", "B", ExponentialDelay(0.01), loss=0.01)
    t.add_link("B", "D", ExponentialDelay(0.01), loss=0.01)
    t.add_link("A", "D", ExponentialDelay(0.1), loss=0.001)
    t.add_link("B", "C", ExponentialDelay(0.02), loss=0.0)
    return t


class TestConstruction:
    def test_pair_key_is_order_free(self):
        assert pair_key("lon", "nyc") == pair_key("nyc", "lon")

    def test_duplicate_site_rejected(self):
        t = WanTopology()
        t.add_site("A")
        with pytest.raises(InvalidParameterError):
            t.add_site("A")

    def test_link_requires_declared_sites(self):
        t = WanTopology()
        t.add_site("A")
        with pytest.raises(InvalidParameterError):
            t.add_link("A", "B", ConstantDelay(0.01))

    def test_duplicate_link_rejected_in_either_order(self):
        t = diamond()
        with pytest.raises(InvalidParameterError):
            t.add_link("B", "A", ConstantDelay(0.01))

    def test_self_link_rejected(self):
        with pytest.raises(InvalidParameterError):
            LinkSpec("A", "A", ConstantDelay(0.01))

    def test_bursty_link_needs_positive_loss(self):
        t = WanTopology()
        t.add_site("A")
        t.add_site("B")
        with pytest.raises(InvalidParameterError):
            t.add_link("A", "B", ConstantDelay(0.01), burst_length=4.0)

    def test_unsolvable_burst_rejected_at_declaration(self):
        t = WanTopology()
        t.add_site("A")
        t.add_site("B")
        # average 0.6 with burst 1 needs p_gb = 1.5: no chain exists.
        with pytest.raises(InvalidParameterError):
            t.add_link(
                "A", "B", ConstantDelay(0.01), loss=0.6, burst_length=1.0
            )

    def test_congestion_must_reference_declared_links(self):
        t = diamond()
        with pytest.raises(InvalidParameterError):
            t.add_congestion([("A", "C")], rate=0.1, mean_duration=1.0, factor=2.0)

    def test_congestion_factor_must_inflate(self):
        t = diamond()
        with pytest.raises(InvalidParameterError):
            t.add_congestion([("A", "B")], rate=0.1, mean_duration=1.0, factor=1.0)

    def test_congestion_indices_by_declaration_order(self):
        t = diamond()
        t.add_congestion([("A", "B")], rate=0.1, mean_duration=1.0, factor=2.0)
        t.add_congestion(
            [("A", "B"), ("B", "D")], rate=0.1, mean_duration=1.0, factor=3.0
        )
        assert t.congestion_indices(pair_key("A", "B")) == (0, 1)
        assert t.congestion_indices(pair_key("B", "D")) == (1,)
        assert t.congestion_indices(pair_key("A", "D")) == ()


class TestRouting:
    def test_routes_by_total_mean_delay(self):
        assert diamond().route("A", "D") == ["A", "B", "D"]

    def test_down_link_forces_detour(self):
        t = diamond()
        down = frozenset({pair_key("A", "B")})
        assert t.route("A", "D", down=down) == ["A", "D"]

    def test_no_route_returns_none(self):
        t = diamond()
        down = frozenset({pair_key("A", "B"), pair_key("A", "D")})
        assert t.route("A", "D", down=down) is None

    def test_unknown_site_rejected(self):
        with pytest.raises(InvalidParameterError):
            diamond().route("A", "Z")

    def test_source_equals_target_rejected(self):
        with pytest.raises(InvalidParameterError):
            diamond().route("A", "A")


class TestComposition:
    def test_compose_route_matches_manual_composition(self):
        t = diamond()
        delay, loss, path = t.compose_route("A", "D")
        assert path == ["A", "B", "D"]
        manual_delay, manual_loss = compose_path(
            [
                (t.link("A", "B").delay, t.link("A", "B").loss),
                (t.link("B", "D").delay, t.link("B", "D").loss),
            ]
        )
        assert delay.mean == manual_delay.mean
        assert delay.variance == manual_delay.variance
        assert loss == pytest.approx(manual_loss)

    def test_compose_route_on_detour(self):
        t = diamond()
        delay, loss, path = t.compose_route(
            "A", "D", down=frozenset({pair_key("B", "D")})
        )
        assert path == ["A", "D"]
        assert delay.mean == pytest.approx(0.1)
        assert loss == pytest.approx(0.001)

    def test_compose_route_raises_when_partitioned_apart(self):
        t = diamond()
        with pytest.raises(InvalidParameterError):
            t.compose_route(
                "A",
                "D",
                down=frozenset({pair_key("A", "B"), pair_key("A", "D")}),
            )

    def test_to_graph_agrees_with_end_to_end_behavior(self):
        """The same links as a :mod:`networkx` graph with ``delay``/
        ``loss`` edges compose to the same route and behaviour."""
        t = diamond()
        delay, loss, path = end_to_end_behavior(to_graph(t), "A", "D")
        w_delay, w_loss, w_path = t.compose_route("A", "D")
        assert path == w_path
        assert delay.mean == w_delay.mean
        assert loss == pytest.approx(w_loss)

    def test_to_graph_is_caller_owned(self):
        """A graph built from the topology's links is the caller's:
        mutating it does not touch the topology's own routing."""
        t = diamond()
        g = to_graph(t)
        g.remove_edge("A", "B")
        assert t.route("A", "D") == ["A", "B", "D"]
        assert to_graph(t).has_edge("A", "B")

