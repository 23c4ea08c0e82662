import math

import numpy as np

from transportlab.flow import TimeField, stopped_flow_batch
from transportlab.geometry import Region, weight_eta
from transportlab.ot import wp_discrete
from transportlab.scenarios import Scenario
from transportlab.synth import (_blend_factor, _escalate_exact_funnel,
                                _eta_grad_lipschitz, _layer_max_grad,
                                exact_controller)


class TestExactFunnelTimeChange:
    """Inside omega1 the funnel field is k grad(eta), so its gain-k flow is
    the k = 1 flow run k times faster."""

    omega1 = Region.box([0.0, 0.0], [1.0, 1.0])
    s0 = Region.box([0.55, 0.4], [0.75, 0.6])
    v = TimeField.constant([0.7, 0.0])
    pts = np.array([[0.1, 0.1], [0.2, 0.85], [0.9, 0.15], [0.5, 0.5],
                    [0.3, 0.45]])
    delta, tol, band = 0.2, 1e-6, 0.05

    def gain_field(self, k):
        """The funnel field at gain k, built directly with the gain-k step
        bound (the reference the time change must reproduce)."""
        eta, _, kappa1 = weight_eta(self.omega1, self.s0)
        blend = _blend_factor(self.omega1, self.band)
        lip = (k * _eta_grad_lipschitz(eta, self.omega1)
               + (k * _layer_max_grad(eta, self.omega1, self.band)
                  + self.v.sup_bound) * 1.875 / self.band)

        def total(p, t):
            b = blend(p)[:, None]
            return b * (k * eta.gradient(p)) + (1.0 - b) * self.v.evaluate(p, t)

        return TimeField(total, 2, lipschitz_bound=lip,
                         sup_bound=k * kappa1 + self.v.sup_bound,
                         label=f"gain_k{k}")

    def test_matches_gain_k_run(self):
        k, end, hits, knots, paths = _escalate_exact_funnel(
            self.v, self.omega1, self.s0, self.delta, self.pts, self.tol,
            self.band)
        _, probe_hits = stopped_flow_batch(self.gain_field(1), self.s0,
                                           self.pts, 0.0, 8.0, self.tol)
        tau = float(np.max(probe_hits))
        assert k == max(1, 2 ** math.ceil(math.log2(tau / (0.9 * self.delta))))
        assert k > 1
        assert np.all(hits < self.delta)
        assert np.all(self.s0.contains(end))
        assert np.allclose(knots, np.linspace(0.0, self.delta, 33))
        assert np.array_equal(paths[:, 0], self.pts)
        assert np.array_equal(paths[:, -1], end)

        ref_end, ref_hits = stopped_flow_batch(self.gain_field(k), self.s0,
                                               self.pts, 0.0, self.delta,
                                               self.tol)
        assert np.max(np.abs(end - ref_end)) < 1e-9
        assert np.max(np.abs(hits - ref_hits)) < 1e-9


class TestExactControllerContract:
    """Exact lane on a hand-made 3 + 2 atom scenario with unequal weights,
    so the plan splits an atom."""

    scenario = Scenario.from_dict({
        "dim": 2,
        "v": {"kind": "constant", "value": [0.3, 0.0]},
        "omega": {"kind": "box", "lo": [-1.0, -1.0], "hi": [2.0, 2.0]},
        "mu0": {"atoms": [[0.2, 0.3, 0.25], [0.4, 0.5, 0.25],
                          [0.3, 0.6, 0.5]]},
        "mu1": {"atoms": [[0.6, 0.7, 0.5], [0.5, 0.2, 0.5]]},
        "params": {"delta": 1.0, "seed": 0, "horizon": 4.0, "tol": 1e-6},
    })

    def test_contract(self):
        mu0 = self.scenario.measure("mu0")
        mu1 = self.scenario.measure("mu1")
        result = exact_controller(self.scenario)
        traj = result.trajectory

        final = traj.final().merged_coincident()
        assert result.report["final_w1"]["estimate"] <= 1e-9
        assert wp_discrete(final, mu1, p=1)[0] <= 1e-9

        for state in traj.states:
            assert abs(state.total_mass() - mu0.total_mass()) < 1e-12

        plan = traj.plan
        first = result.schedule.segments[0].field.paths
        last = result.schedule.segments[-1].field.paths
        assert np.allclose(first[:, 0], mu0.positions[plan.src_idx], atol=1e-12)
        assert np.allclose(last[:, -1], mu1.positions[plan.tgt_idx], atol=1e-12)

        omega = self.scenario.omega_region()
        assert result.schedule.max_control_outside(omega, 512, seed=0) == 0.0
