//! Presentation tracing: the data behind the paper's Figure 3 (spike
//! raster of all input neurons and membrane-potential trajectories with
//! fire/inhibit/refractory annotations).

use crate::coding::SpikeEvent;

/// A recorded presentation: input raster, per-neuron potential series and
/// output spikes.
#[derive(Debug, Clone, PartialEq)]
pub struct PresentationTrace {
    neurons: usize,
    input_spikes: Vec<SpikeEvent>,
    /// `(neuron, t, potential)` samples, recorded at every integration.
    potential_samples: Vec<(usize, u32, f64)>,
    /// `(neuron, t)` output spikes.
    fires: Vec<(usize, u32)>,
}

impl PresentationTrace {
    /// Creates an empty trace for a network of `neurons` neurons.
    pub fn new(neurons: usize) -> Self {
        PresentationTrace {
            neurons,
            input_spikes: Vec::new(),
            potential_samples: Vec::new(),
            fires: Vec::new(),
        }
    }

    /// Records the full input spike train (the left panel of Figure 3).
    pub fn record_inputs(&mut self, events: impl IntoIterator<Item = SpikeEvent>) {
        self.input_spikes = events.into_iter().collect();
    }

    /// Records one potential sample.
    pub fn record_potential(&mut self, neuron: usize, t: u32, v: f64) {
        self.potential_samples.push((neuron, t, v));
    }

    /// Records one output spike.
    pub fn record_fire(&mut self, neuron: usize, t: u32) {
        self.fires.push((neuron, t));
    }

    /// Number of neurons the trace covers.
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// The input raster (one entry per input spike).
    pub fn input_spikes(&self) -> &[SpikeEvent] {
        &self.input_spikes
    }

    /// All `(neuron, t, potential)` samples.
    pub fn potential_samples(&self) -> &[(usize, u32, f64)] {
        &self.potential_samples
    }

    /// Output spikes as `(neuron, t)`.
    pub fn fires(&self) -> &[(usize, u32)] {
        &self.fires
    }

    /// Serializes the input raster as CSV (`t_ms,input`), the format the
    /// `fig3` bench binary emits.
    pub fn raster_csv(&self) -> String {
        let mut s = String::from("t_ms,input\n");
        for e in &self.input_spikes {
            s.push_str(&format!("{},{}\n", e.t, e.input));
        }
        s
    }

    /// Serializes the potential samples as CSV (`t_ms,neuron,potential`).
    pub fn potentials_csv(&self) -> String {
        let mut s = String::from("t_ms,neuron,potential\n");
        for &(j, t, v) in &self.potential_samples {
            s.push_str(&format!("{t},{j},{v:.3}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SnnNetwork;
    use crate::params::SnnParams;

    #[test]
    fn trace_captures_inputs_potentials_and_outcome() {
        let mut params = SnnParams::for_neurons(3);
        params.initial_threshold = 600.0;
        let mut snn = SnnNetwork::new(6, 2, params, 4);
        let (outcome, trace) = snn.present_traced(&[255u8; 6], 0);
        assert!(!trace.input_spikes().is_empty());
        assert!(!trace.potential_samples().is_empty());
        assert_eq!(outcome.potentials.len(), 3);
        assert_eq!(trace.neurons(), 3);
    }

    #[test]
    fn per_neuron_series_is_time_ordered() {
        let mut params = SnnParams::for_neurons(2);
        params.initial_threshold = 1e9;
        let mut snn = SnnNetwork::new(4, 2, params, 4);
        let (_, trace) = snn.present_traced(&[200u8; 4], 0);
        let series: Vec<u32> = trace
            .potential_samples()
            .iter()
            .filter(|&&(j, _, _)| j == 0)
            .map(|&(_, t, _)| t)
            .collect();
        assert!(!series.is_empty());
        assert!(series.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn csv_headers_are_present() {
        let trace = PresentationTrace::new(1);
        assert!(trace.raster_csv().starts_with("t_ms,input\n"));
        assert!(trace
            .potentials_csv()
            .starts_with("t_ms,neuron,potential\n"));
    }

    #[test]
    fn fires_are_recorded_when_thresholds_are_low() {
        let mut params = SnnParams::for_neurons(2);
        params.initial_threshold = 300.0;
        let mut snn = SnnNetwork::new(8, 2, params, 4);
        let (_, trace) = snn.present_traced(&[255u8; 8], 0);
        assert!(!trace.fires().is_empty());
    }
}
