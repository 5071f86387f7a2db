//! Fixed-step transient solver.
//!
//! Every node carries a capacitance to ground, so the circuit is the ODE
//! system `C_k dV_k/dt = Σ I_k(V)`. The solver integrates it with classic
//! RK4 at a fixed timestep while a phase list (the `phases` argument of
//! [`Circuit::simulate`]) toggles element enable lines (wordline,
//! sense-amp enable, equaliser) at programmed times.

use crate::elements::{Element, NodeId};
use crate::waveform::Waveform;
use crate::CircuitError;

/// A circuit: capacitive nodes plus current-contributing elements.
///
/// # Example
///
/// ```
/// use sparkxd_circuit::{Circuit, Element, TransientSpec};
///
/// // RC low-pass: 1 kΩ from a 1 V rail into a 1 pF node.
/// let mut c = Circuit::new();
/// let n = c.add_node(1e-12);
/// c.add_element(Element::RailResistor { node: n, rail_volts: 1.0, ohms: 1e3, enable: None });
/// let spec = TransientSpec::new(5e-9, 1e-12);
/// let result = c.simulate(&spec, &[]).expect("simulation");
/// let wave = result.node_waveform(n);
/// // After 5 RC time constants the node is essentially at the rail.
/// assert!(wave.last_value() > 0.99);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_caps: Vec<f64>,
    initial_volts: Vec<f64>,
    elements: Vec<Element>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with capacitance `farads` to ground, initially at 0 V.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive: a node without
    /// capacitance has no state in this formulation.
    pub fn add_node(&mut self, farads: f64) -> NodeId {
        assert!(farads > 0.0, "node capacitance must be positive");
        self.node_caps.push(farads);
        self.initial_volts.push(0.0);
        NodeId(self.node_caps.len() - 1)
    }

    /// Sets the initial voltage of `node`.
    pub fn set_initial_voltage(&mut self, node: NodeId, volts: f64) {
        self.initial_volts[node.0] = volts;
    }

    /// Adds an element to the circuit.
    pub fn add_element(&mut self, element: Element) {
        self.elements.push(element);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_caps.len()
    }

    /// Number of distinct enable lines referenced by elements.
    pub fn enable_line_count(&self) -> usize {
        self.elements
            .iter()
            .filter_map(Element::enable_index)
            .map(|i| i + 1)
            .max()
            .unwrap_or(0)
    }

    fn validate(&self, spec: &TransientSpec) -> Result<(), CircuitError> {
        for e in &self.elements {
            if e.max_node() >= self.node_caps.len() {
                return Err(CircuitError::UnknownNode(e.max_node()));
            }
        }
        if spec.dt_seconds <= 0.0 {
            return Err(CircuitError::InvalidSpec("dt must be positive".into()));
        }
        if spec.duration_seconds <= 0.0 {
            return Err(CircuitError::InvalidSpec(
                "duration must be positive".into(),
            ));
        }
        if spec.duration_seconds / spec.dt_seconds > 50_000_000.0 {
            return Err(CircuitError::InvalidSpec(
                "more than 5e7 steps requested".into(),
            ));
        }
        Ok(())
    }

    fn derivatives(&self, v: &[f64], enables: &[bool], dv: &mut [f64], scratch: &mut [f64]) {
        scratch.fill(0.0);
        for e in &self.elements {
            e.stamp(v, enables, scratch);
        }
        for k in 0..v.len() {
            dv[k] = scratch[k] / self.node_caps[k];
        }
    }

    /// Runs a transient simulation.
    ///
    /// `phases` are `(time_seconds, enable_states)` pairs: at each listed
    /// time the enable vector is replaced. Times must be non-decreasing.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if an element references a
    /// missing node and [`CircuitError::InvalidSpec`] for a bad timestep or
    /// duration.
    pub fn simulate(
        &self,
        spec: &TransientSpec,
        phases: &[(f64, Vec<bool>)],
    ) -> Result<TransientResult, CircuitError> {
        self.validate(spec)?;
        let n = self.node_count();
        let n_enables = self.enable_line_count();
        let mut v = self.initial_volts.clone();
        let mut enables = vec![false; n_enables];
        let mut phase_iter = phases.iter().peekable();

        let steps = (spec.duration_seconds / spec.dt_seconds).round() as usize;
        let record_every = spec.record_every.max(1);
        let mut times = Vec::with_capacity(steps / record_every + 2);
        let mut volts: Vec<Vec<f64>> = vec![Vec::with_capacity(steps / record_every + 2); n];

        let mut k1 = vec![0.0; n];
        let mut k2 = vec![0.0; n];
        let mut k3 = vec![0.0; n];
        let mut k4 = vec![0.0; n];
        let mut tmp = vec![0.0; n];
        let mut scratch = vec![0.0; n];

        let dt = spec.dt_seconds;
        for step in 0..=steps {
            let t = step as f64 * dt;
            // Apply any phase changes scheduled at or before `t`.
            while let Some((pt, states)) = phase_iter.peek() {
                if *pt <= t + dt * 0.5 {
                    for (i, s) in states.iter().enumerate().take(n_enables) {
                        enables[i] = *s;
                    }
                    phase_iter.next();
                } else {
                    break;
                }
            }
            if step % record_every == 0 {
                times.push(t);
                for (k, w) in volts.iter_mut().enumerate() {
                    w.push(v[k]);
                }
            }
            if step == steps {
                break;
            }
            // RK4 step.
            self.derivatives(&v, &enables, &mut k1, &mut scratch);
            for i in 0..n {
                tmp[i] = v[i] + 0.5 * dt * k1[i];
            }
            self.derivatives(&tmp, &enables, &mut k2, &mut scratch);
            for i in 0..n {
                tmp[i] = v[i] + 0.5 * dt * k2[i];
            }
            self.derivatives(&tmp, &enables, &mut k3, &mut scratch);
            for i in 0..n {
                tmp[i] = v[i] + dt * k3[i];
            }
            self.derivatives(&tmp, &enables, &mut k4, &mut scratch);
            for i in 0..n {
                v[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
        }

        Ok(TransientResult { times, volts })
    }
}

/// Parameters of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSpec {
    /// Total simulated time in seconds.
    pub duration_seconds: f64,
    /// Integration timestep in seconds.
    pub dt_seconds: f64,
    /// Record one sample every `record_every` steps (decimation).
    pub record_every: usize,
}

impl TransientSpec {
    /// Creates a spec recording every step.
    pub fn new(duration_seconds: f64, dt_seconds: f64) -> Self {
        Self {
            duration_seconds,
            dt_seconds,
            record_every: 1,
        }
    }

    /// Sets the recording decimation factor.
    pub fn with_record_every(mut self, every: usize) -> Self {
        self.record_every = every;
        self
    }
}

/// Result of a transient simulation: sampled node voltages over time.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    volts: Vec<Vec<f64>>,
}

impl TransientResult {
    /// Sampled time points in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Extracts the waveform of a single node.
    pub fn node_waveform(&self, node: NodeId) -> Waveform {
        Waveform::from_series(self.times.clone(), self.volts[node.0].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc_circuit(r: f64, c: f64, rail: f64) -> (Circuit, NodeId) {
        let mut cir = Circuit::new();
        let n = cir.add_node(c);
        cir.add_element(Element::RailResistor {
            node: n,
            rail_volts: rail,
            ohms: r,
            enable: None,
        });
        (cir, n)
    }

    #[test]
    fn rc_charging_matches_analytic_solution() {
        let (cir, n) = rc_circuit(1e3, 1e-12, 1.0); // tau = 1 ns
        let spec = TransientSpec::new(3e-9, 1e-12);
        let res = cir.simulate(&spec, &[]).unwrap();
        let wave = res.node_waveform(n);
        // V(t) = 1 - exp(-t/tau); check at t = 1 ns.
        let v_at_tau = wave.value_at(1e-9);
        let expected = 1.0 - (-1.0f64).exp();
        assert!(
            (v_at_tau - expected).abs() < 1e-4,
            "got {v_at_tau}, expected {expected}"
        );
    }

    #[test]
    fn phase_schedule_toggles_elements() {
        let mut cir = Circuit::new();
        let n = cir.add_node(1e-12);
        cir.add_element(Element::RailResistor {
            node: n,
            rail_volts: 1.0,
            ohms: 1e3,
            enable: Some(0),
        });
        // Enable charging only after 2 ns.
        let phases = vec![(0.0, vec![false]), (2e-9, vec![true])];
        let spec = TransientSpec::new(4e-9, 1e-12);
        let res = cir.simulate(&spec, &phases).unwrap();
        let wave = res.node_waveform(n);
        assert!(
            wave.value_at(1.9e-9).abs() < 1e-9,
            "held at 0 before enable"
        );
        assert!(wave.value_at(4e-9) > 0.5, "charged after enable");
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let (cir, _) = rc_circuit(1.0, 1e-12, 1.0);
        let err = cir.simulate(&TransientSpec::new(-1.0, 1e-12), &[]);
        assert!(matches!(err, Err(CircuitError::InvalidSpec(_))));
        let err = cir.simulate(&TransientSpec::new(1e-9, 0.0), &[]);
        assert!(matches!(err, Err(CircuitError::InvalidSpec(_))));
    }

    #[test]
    fn unknown_node_is_rejected() {
        let mut cir = Circuit::new();
        let _ = cir.add_node(1e-12);
        cir.add_element(Element::Resistor {
            a: NodeId(0),
            b: NodeId(5),
            ohms: 1.0,
            enable: None,
        });
        let err = cir.simulate(&TransientSpec::new(1e-9, 1e-12), &[]);
        assert_eq!(err, Err(CircuitError::UnknownNode(5)));
    }

    #[test]
    fn initial_voltage_is_respected() {
        let (mut cir, n) = rc_circuit(1e3, 1e-12, 0.0);
        cir.set_initial_voltage(n, 2.0);
        let spec = TransientSpec::new(5e-9, 1e-12);
        let res = cir.simulate(&spec, &[]).unwrap();
        let wave = res.node_waveform(n);
        assert!((wave.value_at(0.0) - 2.0).abs() < 1e-12);
        assert!(wave.last_value() < 0.05, "discharged towards ground rail");
    }

    #[test]
    fn record_decimation_reduces_samples() {
        let (cir, n) = rc_circuit(1e3, 1e-12, 1.0);
        let spec = TransientSpec::new(1e-9, 1e-12).with_record_every(10);
        let res = cir.simulate(&spec, &[]).unwrap();
        assert!(res.node_waveform(n).samples().len() <= 102);
    }

    #[test]
    #[should_panic(expected = "capacitance must be positive")]
    fn zero_capacitance_panics() {
        let mut cir = Circuit::new();
        cir.add_node(0.0);
    }
}
