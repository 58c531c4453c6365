//! KDD-style connection records with a five-class generative model.
//!
//! NSL-KDD labels each connection *normal* or one of four attack
//! families — DoS, probe, R2L (remote-to-local), U2R (user-to-root) —
//! exactly the reaction-time-critical classes in the paper's Table 1.
//! This module synthesizes records with the same feature semantics:
//! per-class distributions are tuned so the classes overlap (stealthy
//! attacks, bursty-but-benign traffic), which keeps the learning problem
//! honest — the paper's DNN reaches an offline F1 of 0.711, not 0.99.
//!
//! The paper's models consume *views* of these records: the
//! anomaly-detection DNN uses six features (Tang et al. 2016) and the SVM
//! eight (Mehmood & Rais 2015); [`FeatureView`] implements both, including
//! the preprocessing the paper assigns to MATs (§3.1): log transforms of
//! heavy-tailed fields and categorical→likelihood lookups.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist;
use crate::split::Dataset;

/// Transport protocol of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
    /// ICMP.
    Icmp,
}

impl Protocol {
    /// All protocols, index-aligned with the generator's weight tables.
    pub const ALL: [Protocol; 3] = [Protocol::Tcp, Protocol::Udp, Protocol::Icmp];

    /// Anomaly-likelihood encoding (§3.1: categorical → linear likelihood).
    pub fn likelihood(self) -> f32 {
        match self {
            Protocol::Tcp => 0.45,
            Protocol::Udp => 0.20,
            Protocol::Icmp => 0.80,
        }
    }
}

/// Application service of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Service {
    /// HTTP traffic.
    Http,
    /// DNS lookups.
    Dns,
    /// SMTP mail.
    Smtp,
    /// FTP transfers.
    Ftp,
    /// Telnet sessions (historically attack-prone).
    Telnet,
    /// Anything else.
    Other,
}

impl Service {
    /// All services, index-aligned with the generator's weight tables.
    pub const ALL: [Service; 6] =
        [Service::Http, Service::Dns, Service::Smtp, Service::Ftp, Service::Telnet, Service::Other];

    /// Anomaly-likelihood encoding (the "port number → likelihood" table
    /// of §3.1).
    pub fn likelihood(self) -> f32 {
        match self {
            Service::Http => 0.25,
            Service::Dns => 0.15,
            Service::Smtp => 0.30,
            Service::Ftp => 0.45,
            Service::Telnet => 0.75,
            Service::Other => 0.55,
        }
    }
}

/// TCP connection status flag (KDD `flag` field, abbreviated set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnFlag {
    /// Normal establishment and termination.
    Sf,
    /// Connection attempt seen, no reply (classic SYN-flood signature).
    S0,
    /// Connection attempt rejected.
    Rej,
    /// Reset by originator.
    Rsto,
}

impl ConnFlag {
    /// All flags, index-aligned with the generator's weight tables.
    pub const ALL: [ConnFlag; 4] = [ConnFlag::Sf, ConnFlag::S0, ConnFlag::Rej, ConnFlag::Rsto];

    /// Anomaly-likelihood encoding.
    pub fn likelihood(self) -> f32 {
        match self {
            ConnFlag::Sf => 0.20,
            ConnFlag::S0 => 0.85,
            ConnFlag::Rej => 0.65,
            ConnFlag::Rsto => 0.50,
        }
    }
}

/// Connection label: normal or one of the four KDD attack families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KddClass {
    /// Benign traffic.
    Normal,
    /// Denial of service (SYN flood, smurf, …).
    Dos,
    /// Reconnaissance (port scans, sweeps).
    Probe,
    /// Unauthorized remote access attempts.
    R2l,
    /// Privilege-escalation attempts.
    U2r,
}

impl KddClass {
    /// All classes in prior order.
    pub const ALL: [KddClass; 5] =
        [KddClass::Normal, KddClass::Dos, KddClass::Probe, KddClass::R2l, KddClass::U2r];

    /// Whether the class is an attack (anomalous).
    pub fn is_anomalous(self) -> bool {
        !matches!(self, KddClass::Normal)
    }

    /// Stable class index (0 = normal … 4 = U2R).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).expect("class is in ALL")
    }
}

/// One synthesized connection record with KDD-style features.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnRecord {
    /// Connection duration in seconds.
    pub duration: f32,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Application service.
    pub service: Service,
    /// Connection status flag.
    pub flag: ConnFlag,
    /// Bytes from originator to responder.
    pub src_bytes: f32,
    /// Bytes from responder to originator.
    pub dst_bytes: f32,
    /// Number of urgent packets.
    pub urgent: f32,
    /// Number of "hot" indicators (sensitive operations).
    pub hot: f32,
    /// Connections to the same host in the last two seconds.
    pub count: f32,
    /// Connections to the same service in the last two seconds.
    pub srv_count: f32,
    /// Fraction of connections with SYN errors.
    pub serror_rate: f32,
    /// Fraction of connections with REJ errors.
    pub rerror_rate: f32,
    /// Fraction of connections to the same service.
    pub same_srv_rate: f32,
    /// Fraction of connections to different services.
    pub diff_srv_rate: f32,
    /// Ground-truth class.
    pub label: KddClass,
}

impl ConnRecord {
    /// Whether the record is an attack.
    pub fn is_anomalous(&self) -> bool {
        self.label.is_anomalous()
    }
}

/// Feature-vector views of a [`ConnRecord`], matching the models in the
/// paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureView {
    /// The 6-feature anomaly-detection DNN view (Tang et al.):
    /// duration, protocol likelihood, src bytes, dst bytes, count, srv count.
    Dnn6,
    /// The 8-feature SVM view (Mehmood & Rais): [`FeatureView::Dnn6`] plus
    /// SYN-error rate and urgent count.
    Svm8,
    /// All 14 engineered features.
    Full14,
}

impl FeatureView {
    /// Number of features this view produces.
    pub fn width(self) -> usize {
        match self {
            FeatureView::Dnn6 => 6,
            FeatureView::Svm8 => 8,
            FeatureView::Full14 => 14,
        }
    }

    /// Encodes a record, applying the MAT preprocessing of §3.1:
    /// `log1p` on heavy-tailed fields, likelihood lookups on categoricals.
    pub fn encode(self, r: &ConnRecord) -> Vec<f32> {
        let base = [
            r.duration.ln_1p(),
            r.protocol.likelihood(),
            r.src_bytes.ln_1p(),
            r.dst_bytes.ln_1p(),
            r.count.ln_1p(),
            r.srv_count.ln_1p(),
        ];
        match self {
            FeatureView::Dnn6 => base.to_vec(),
            FeatureView::Svm8 => {
                let mut v = base.to_vec();
                v.push(r.serror_rate);
                v.push(r.urgent.ln_1p());
                v
            }
            FeatureView::Full14 => {
                let mut v = base.to_vec();
                v.extend_from_slice(&[
                    r.serror_rate,
                    r.urgent.ln_1p(),
                    r.service.likelihood(),
                    r.flag.likelihood(),
                    r.hot.ln_1p(),
                    r.rerror_rate,
                    r.same_srv_rate,
                    r.diff_srv_rate,
                ]);
                v
            }
        }
    }
}

/// Class priors used by default: roughly NSL-KDD's training mix.
pub const DEFAULT_PRIORS: [f64; 5] = [0.53, 0.36, 0.09, 0.017, 0.003];

/// Seeded generator of [`ConnRecord`]s.
///
/// # Examples
///
/// ```
/// use taurus_dataset::kdd::{KddGenerator, FeatureView};
/// let mut g = KddGenerator::new(42);
/// let records = g.take(100);
/// assert_eq!(records.len(), 100);
/// // Same seed ⇒ same data.
/// let again = KddGenerator::new(42).take(100);
/// assert_eq!(records, again);
/// ```
#[derive(Debug, Clone)]
pub struct KddGenerator {
    rng: StdRng,
    priors: [f64; 5],
    /// Probability an attack record mimics benign statistics.
    stealth_prob: f64,
    /// Probability a benign record looks bursty (flash crowd).
    burst_prob: f64,
}

impl KddGenerator {
    /// Creates a generator with the default NSL-KDD-like priors.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            priors: DEFAULT_PRIORS,
            stealth_prob: 0.22,
            burst_prob: 0.10,
        }
    }

    /// Overrides the class priors.
    ///
    /// # Panics
    ///
    /// Panics if the priors do not sum to a positive value.
    pub fn with_priors(mut self, priors: [f64; 5]) -> Self {
        assert!(priors.iter().sum::<f64>() > 0.0, "priors must have positive sum");
        self.priors = priors;
        self
    }

    /// Overrides the class-overlap knobs (stealthy-attack and benign-burst
    /// probabilities), which control how hard the learning problem is.
    pub fn with_overlap(mut self, stealth_prob: f64, burst_prob: f64) -> Self {
        self.stealth_prob = stealth_prob.clamp(0.0, 1.0);
        self.burst_prob = burst_prob.clamp(0.0, 1.0);
        self
    }

    /// Samples one record.
    pub fn sample(&mut self) -> ConnRecord {
        let class = KddClass::ALL[dist::weighted_index(&mut self.rng, &self.priors)];
        self.sample_of_class(class)
    }

    /// Samples one record of a specific class.
    pub fn sample_of_class(&mut self, class: KddClass) -> ConnRecord {
        let stealthy = class.is_anomalous() && self.rng.gen_bool(self.stealth_prob);
        let bursty = class == KddClass::Normal && self.rng.gen_bool(self.burst_prob);
        let rng = &mut self.rng;

        // Shape parameters per class; stealthy attacks borrow the benign
        // shapes, bursty benign traffic borrows DoS-like count shapes.
        let shape = if stealthy { KddClass::Normal } else { class };

        let duration = match shape {
            KddClass::Normal => dist::exponential(rng, 0.25),
            KddClass::Dos => dist::exponential(rng, 2.5),
            KddClass::Probe => dist::exponential(rng, 5.0),
            KddClass::R2l => dist::exponential(rng, 0.12),
            KddClass::U2r => dist::exponential(rng, 0.08),
        } as f32;

        let (src_mu, dst_mu) = match shape {
            KddClass::Normal => (5.5, 6.5),
            KddClass::Dos => (3.6, 0.8),
            KddClass::Probe => (2.2, 1.5),
            KddClass::R2l => (4.8, 5.2),
            KddClass::U2r => (5.8, 4.5),
        };
        let src_bytes = dist::lognormal(rng, src_mu, 1.4) as f32;
        let dst_bytes = dist::lognormal(rng, dst_mu, 1.6) as f32;

        let count_lambda = if bursty {
            60.0
        } else {
            match shape {
                KddClass::Normal => 6.0,
                KddClass::Dos => 120.0,
                KddClass::Probe => 35.0,
                KddClass::R2l => 4.0,
                KddClass::U2r => 2.5,
            }
        };
        let count = dist::poisson(rng, count_lambda) as f32;
        let srv_count = dist::poisson(rng, count_lambda * 0.7 + 1.0) as f32;

        let serror_rate = match shape {
            KddClass::Dos => (dist::normal(rng, 0.8, 0.15)).clamp(0.0, 1.0) as f32,
            KddClass::Probe => (dist::normal(rng, 0.4, 0.2)).clamp(0.0, 1.0) as f32,
            _ => (dist::exponential(rng, 20.0)).min(1.0) as f32,
        };
        let rerror_rate = match shape {
            KddClass::Probe => (dist::normal(rng, 0.35, 0.2)).clamp(0.0, 1.0) as f32,
            _ => (dist::exponential(rng, 25.0)).min(1.0) as f32,
        };

        let urgent = match class {
            KddClass::R2l | KddClass::U2r if !stealthy => dist::poisson(rng, 1.2) as f32,
            _ => dist::poisson(rng, 0.02) as f32,
        };
        let hot = match class {
            KddClass::U2r if !stealthy => dist::poisson(rng, 3.0) as f32,
            KddClass::R2l if !stealthy => dist::poisson(rng, 1.0) as f32,
            _ => dist::poisson(rng, 0.05) as f32,
        };

        let same_srv_rate = match shape {
            KddClass::Dos => (dist::normal(rng, 0.9, 0.1)).clamp(0.0, 1.0) as f32,
            KddClass::Probe => (dist::normal(rng, 0.25, 0.15)).clamp(0.0, 1.0) as f32,
            _ => (dist::normal(rng, 0.75, 0.2)).clamp(0.0, 1.0) as f32,
        };
        let diff_srv_rate =
            (1.0 - same_srv_rate) * (dist::normal(rng, 0.6, 0.2)).clamp(0.0, 1.0) as f32;

        let protocol_weights: [f64; 3] = match shape {
            KddClass::Normal => [0.72, 0.22, 0.06],
            KddClass::Dos => [0.62, 0.08, 0.30],
            KddClass::Probe => [0.45, 0.20, 0.35],
            KddClass::R2l => [0.90, 0.08, 0.02],
            KddClass::U2r => [0.95, 0.04, 0.01],
        };
        let protocol = Protocol::ALL[dist::weighted_index(rng, &protocol_weights)];

        let service_weights: [f64; 6] = match shape {
            KddClass::Normal => [0.45, 0.20, 0.10, 0.08, 0.02, 0.15],
            KddClass::Dos => [0.30, 0.10, 0.05, 0.05, 0.10, 0.40],
            KddClass::Probe => [0.15, 0.10, 0.05, 0.10, 0.15, 0.45],
            KddClass::R2l => [0.10, 0.02, 0.08, 0.35, 0.30, 0.15],
            KddClass::U2r => [0.05, 0.01, 0.02, 0.20, 0.55, 0.17],
        };
        let service = Service::ALL[dist::weighted_index(rng, &service_weights)];

        let flag_weights: [f64; 4] = match shape {
            KddClass::Normal => [0.88, 0.02, 0.05, 0.05],
            KddClass::Dos => [0.15, 0.70, 0.10, 0.05],
            KddClass::Probe => [0.25, 0.30, 0.35, 0.10],
            KddClass::R2l => [0.70, 0.05, 0.15, 0.10],
            KddClass::U2r => [0.85, 0.02, 0.05, 0.08],
        };
        let flag = ConnFlag::ALL[dist::weighted_index(rng, &flag_weights)];

        ConnRecord {
            duration,
            protocol,
            service,
            flag,
            src_bytes,
            dst_bytes,
            urgent,
            hot,
            count,
            srv_count,
            serror_rate,
            rerror_rate,
            same_srv_rate,
            diff_srv_rate,
            label: class,
        }
    }

    /// Samples `n` records.
    pub fn take(&mut self, n: usize) -> Vec<ConnRecord> {
        (0..n).map(|_| self.sample()).collect()
    }

    /// Samples `n` records and encodes them as a labelled [`Dataset`]
    /// (binary labels: 1 = anomalous) under the given view.
    pub fn binary_dataset(&mut self, n: usize, view: FeatureView) -> Dataset {
        let records = self.take(n);
        let x = records.iter().map(|r| view.encode(r)).collect();
        let y = records.iter().map(|r| usize::from(r.is_anomalous())).collect();
        Dataset::new(x, y, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let a = KddGenerator::new(1).take(500);
        let b = KddGenerator::new(1).take(500);
        assert_eq!(a, b);
        let c = KddGenerator::new(2).take(500);
        assert_ne!(a, c);
    }

    #[test]
    fn priors_approximately_respected() {
        let records = KddGenerator::new(3).take(20_000);
        let frac_normal =
            records.iter().filter(|r| r.label == KddClass::Normal).count() as f64 / 20_000.0;
        assert!((frac_normal - 0.53).abs() < 0.02, "frac_normal={frac_normal}");
        let frac_dos =
            records.iter().filter(|r| r.label == KddClass::Dos).count() as f64 / 20_000.0;
        assert!((frac_dos - 0.36).abs() < 0.02, "frac_dos={frac_dos}");
    }

    #[test]
    fn dos_has_higher_counts_than_normal_on_average() {
        let records = KddGenerator::new(4).take(20_000);
        let avg = |class: KddClass| {
            let xs: Vec<f32> =
                records.iter().filter(|r| r.label == class).map(|r| r.count).collect();
            xs.iter().sum::<f32>() / xs.len() as f32
        };
        assert!(avg(KddClass::Dos) > 3.0 * avg(KddClass::Normal));
    }

    #[test]
    fn classes_overlap_somewhat() {
        // Stealthy attacks exist: some DoS records should have low counts.
        let records = KddGenerator::new(5).take(20_000);
        let stealthy_dos =
            records.iter().filter(|r| r.label == KddClass::Dos && r.count < 20.0).count();
        assert!(stealthy_dos > 100, "stealthy_dos={stealthy_dos}");
    }

    #[test]
    fn views_have_declared_widths() {
        let mut g = KddGenerator::new(6);
        let r = g.sample();
        for view in [FeatureView::Dnn6, FeatureView::Svm8, FeatureView::Full14] {
            assert_eq!(view.encode(&r).len(), view.width());
        }
    }

    #[test]
    fn encoded_features_are_finite() {
        let mut g = KddGenerator::new(7);
        for _ in 0..1_000 {
            let r = g.sample();
            for f in FeatureView::Full14.encode(&r) {
                assert!(f.is_finite());
            }
        }
    }

    #[test]
    fn binary_dataset_shape() {
        let ds = KddGenerator::new(8).binary_dataset(100, FeatureView::Dnn6);
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.width(), 6);
        assert_eq!(ds.classes(), 2);
        assert!(ds.labels().iter().all(|&y| y < 2));
    }

    #[test]
    fn class_conditional_sampling() {
        let mut g = KddGenerator::new(10);
        for class in KddClass::ALL {
            assert_eq!(g.sample_of_class(class).label, class);
        }
    }
}
