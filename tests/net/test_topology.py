"""Tests for multi-hop path composition."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.analysis.configurator_unknown import configure_nfds_unknown
from repro.analysis.chebyshev import nfds_accuracy_bounds
from repro.errors import InvalidParameterError
from repro.metrics.qos import QoSRequirements
from repro.net.delays import ConstantDelay, ExponentialDelay, UniformDelay
from repro.net.topology import PathDelay, compose_path, end_to_end_behavior


class TestPathDelay:
    def test_moments_are_additive(self):
        path = PathDelay(
            [ExponentialDelay(0.01), UniformDelay(0.02, 0.04), ConstantDelay(0.005)]
        )
        assert path.mean == pytest.approx(0.01 + 0.03 + 0.005)
        assert path.variance == pytest.approx(
            0.01**2 + (0.02**2) / 12.0 + 0.0
        )

    def test_sampling_matches_moments(self, rng):
        path = PathDelay([ExponentialDelay(0.02), ExponentialDelay(0.03)])
        s = path.sample(rng, 100_000)
        assert s.mean() == pytest.approx(path.mean, rel=0.02)
        assert s.var() == pytest.approx(path.variance, rel=0.05)

    def test_cdf_of_constant_path_is_step(self):
        path = PathDelay([ConstantDelay(0.1), ConstantDelay(0.2)])
        assert float(path.cdf(0.29)) == 0.0
        assert float(path.cdf(0.31)) == 1.0

    def test_two_exponentials_cdf_is_hypoexponential(self):
        """Sum of Exp(a) + Exp(b) has a known CDF; Monte-Carlo must agree."""
        a, b = 0.02, 0.05
        path = PathDelay([ExponentialDelay(a), ExponentialDelay(b)],
                         cdf_samples=400_000)
        x = 0.06
        expected = 1 - (b * np.exp(-x / b) - a * np.exp(-x / a)) / (b - a)
        assert float(path.cdf(x)) == pytest.approx(expected, abs=0.01)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            PathDelay([])
        with pytest.raises(InvalidParameterError):
            PathDelay([ConstantDelay(0.1)], cdf_samples=10)


class TestComposePath:
    def test_loss_composes_multiplicatively(self):
        _, loss = compose_path(
            [(ConstantDelay(0.01), 0.1), (ConstantDelay(0.01), 0.2)]
        )
        assert loss == pytest.approx(1 - 0.9 * 0.8)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            compose_path([])
        with pytest.raises(InvalidParameterError):
            compose_path([(ConstantDelay(0.01), 1.0)])


class TestEndToEnd:
    def build_graph(self):
        g = nx.Graph()
        # Two routes A->D: fast 2-hop and slow 1-hop.
        g.add_edge("A", "B", delay=ExponentialDelay(0.01), loss=0.01)
        g.add_edge("B", "D", delay=ExponentialDelay(0.01), loss=0.01)
        g.add_edge("A", "D", delay=ExponentialDelay(0.1), loss=0.001)
        return g

    def test_routes_by_mean_delay(self):
        delay, loss, path = end_to_end_behavior(self.build_graph(), "A", "D")
        assert path == ["A", "B", "D"]
        assert delay.mean == pytest.approx(0.02)
        assert loss == pytest.approx(1 - 0.99**2)

    def test_graph_not_mutated(self):
        """Regression: routing used to write ``data['mean_delay']`` into
        every edge of the *caller's* graph, clobbering any pre-existing
        attribute of that name."""
        g = self.build_graph()
        # A caller-owned attribute under the name the router used to write.
        g.edges["A", "B"]["mean_delay"] = "caller-owned"
        before = {
            (u, v): dict(data) for u, v, data in g.edges(data=True)
        }
        end_to_end_behavior(g, "A", "D")
        after = {(u, v): dict(data) for u, v, data in g.edges(data=True)}
        assert after == before
        assert g.edges["A", "B"]["mean_delay"] == "caller-owned"

    def test_directed_graph_routes_per_direction(self):
        """Asymmetric directed links route on their own direction's mean."""
        g = nx.DiGraph()
        g.add_edge("A", "B", delay=ExponentialDelay(0.01), loss=0.0)
        g.add_edge("B", "A", delay=ExponentialDelay(0.5), loss=0.0)
        g.add_edge("B", "C", delay=ExponentialDelay(0.01), loss=0.0)
        g.add_edge("A", "C", delay=ExponentialDelay(0.5), loss=0.0)
        delay, _, path = end_to_end_behavior(g, "A", "C")
        assert path == ["A", "B", "C"]
        assert delay.mean == pytest.approx(0.02)

    def test_missing_attributes_rejected(self):
        g = nx.Graph()
        g.add_edge("A", "B")
        with pytest.raises(InvalidParameterError):
            end_to_end_behavior(g, "A", "B")

    def test_source_equals_target_rejected(self):
        with pytest.raises(InvalidParameterError):
            end_to_end_behavior(self.build_graph(), "A", "A")

    def test_section5_configuration_over_a_path(self):
        """The payoff: configure a certified detector over a multi-hop
        path using only the (exactly additive) moments."""
        delay, loss, _ = end_to_end_behavior(self.build_graph(), "A", "D")
        contract = QoSRequirements(2.0, 3600.0, 1.0)
        cfg = configure_nfds_unknown(contract, loss, delay.mean, delay.variance)
        bounds = nfds_accuracy_bounds(
            cfg.eta, cfg.delta, loss, delay.mean, delay.variance
        )
        assert cfg.eta + cfg.delta <= 2.0 + 1e-9
        assert bounds.e_tmr_lower >= 3600.0 * (1 - 1e-9)
        assert bounds.e_tm_upper <= 1.0 + 1e-9
