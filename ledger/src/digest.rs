//! The inputs digest: one 64-bit hash over every job a workload generated,
//! so two runs are only ever compared on identical traffic.

use fila_avoidance::Algorithm;
use fila_graph::fingerprint::labeled_fingerprint;
use fila_service::{AvoidanceChoice, FilterSpec, JobSpec};

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn fold(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn word(&mut self, w: u64) {
        w.to_le_bytes().into_iter().for_each(|b| self.fold(b));
    }

    /// Length-prefixed, so adjacent strings cannot trade bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        bytes.iter().for_each(|&b| self.fold(b));
    }

    /// Folds one job in: label, exact labelled topology (node/edge arenas
    /// and capacities), declared periods, input count, requested protocol.
    pub fn job(&mut self, label: &str, spec: &JobSpec) {
        self.bytes(label.as_bytes());
        self.word(labeled_fingerprint(&spec.graph));
        match &spec.filters {
            FilterSpec::Broadcast => self.word(0),
            FilterSpec::Fork(p) => {
                self.word(1);
                self.word(*p);
            }
            FilterSpec::PerNode(periods) => {
                self.word(2);
                self.word(periods.len() as u64);
                periods.iter().for_each(|&p| self.word(p));
            }
        }
        self.word(spec.inputs);
        self.word(match spec.avoidance {
            AvoidanceChoice::Disabled => 0,
            AvoidanceChoice::Planned(Algorithm::Propagation) => 1,
            AvoidanceChoice::Planned(Algorithm::NonPropagation) => 2,
        });
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_workloads::generators::pipeline_graph;

    #[test]
    fn fnv1a_reference_vector() {
        // The published FNV-1a 64 test vectors for "a" and "foobar".
        let mut d = Digest::default();
        d.fold(b'a');
        assert_eq!(d.value(), 0xAF63_DC4C_8601_EC8C);
        let mut d = Digest::default();
        b"foobar".iter().for_each(|&b| d.fold(b));
        assert_eq!(d.value(), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn every_job_field_moves_the_digest() {
        let base = || JobSpec::new(pipeline_graph(4, 2, false), FilterSpec::Fork(2), 10);
        let of = |label: &str, spec: &JobSpec| {
            let mut d = Digest::default();
            d.job(label, spec);
            d.value()
        };
        let reference = of("a", &base());
        assert_eq!(reference, of("a", &base()));
        assert_ne!(reference, of("b", &base()));
        let mut more_inputs = base();
        more_inputs.inputs = 11;
        assert_ne!(reference, of("a", &more_inputs));
        assert_ne!(reference, of("a", &base().unplanned()));
        let mut other_period = base();
        other_period.filters = FilterSpec::Fork(3);
        assert_ne!(reference, of("a", &other_period));
        let mut other_capacity = base();
        other_capacity.graph = pipeline_graph(4, 3, false);
        assert_ne!(reference, of("a", &other_capacity));
    }
}
