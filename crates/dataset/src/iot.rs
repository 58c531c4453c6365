//! Synthetic IoT device-traffic records (TMC-style).
//!
//! Two consumers in the paper:
//!
//! - **Table 3** quantizes small DNN traffic classifiers ("TMC IoT traffic
//!   classifiers", Sivanathan et al. 2018) with 4 inputs and 2 outputs;
//!   their float32 accuracy is ≈67%, i.e. the task is genuinely hard.
//! - **Table 5**'s `IoT KMeans` model clusters 11 features into five
//!   categories.
//!
//! [`IotGenerator`] produces 11-feature records over five device
//! categories with heavy class overlap (device behaviour differs in the
//! mean but with broad variance), [`IotRecord::features11`] feeds the
//! KMeans model, and [`IotRecord::features4`] is the Table 3 view with a
//! binary IoT-vs-general-purpose label.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dist;
use crate::split::Dataset;

/// Device category of a traffic record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IotCategory {
    /// IP camera: large steady upstream volume.
    Camera,
    /// Smart plug / switch: tiny, periodic command traffic.
    Plug,
    /// Home hub / voice assistant: bursty mixed traffic.
    Hub,
    /// Environmental sensor: sparse telemetry beacons.
    Sensor,
    /// Non-IoT general-purpose device (laptop, phone).
    NonIot,
}

impl IotCategory {
    /// All categories, index-aligned with generator weights.
    pub const ALL: [IotCategory; 5] = [
        IotCategory::Camera,
        IotCategory::Plug,
        IotCategory::Hub,
        IotCategory::Sensor,
        IotCategory::NonIot,
    ];

    /// Stable index (0..5).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).expect("category is in ALL")
    }

    /// Whether the device is an IoT device (Table 3's binary label).
    pub fn is_iot(self) -> bool {
        !matches!(self, IotCategory::NonIot)
    }
}

/// One device-traffic observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct IotRecord {
    /// Mean packet size (bytes).
    pub mean_pkt_size: f32,
    /// Packet size standard deviation (bytes).
    pub pkt_size_sd: f32,
    /// Mean flow duration (s).
    pub flow_duration: f32,
    /// Mean sleep (inter-activity) time (s).
    pub sleep_time: f32,
    /// Mean interval between DNS lookups (s).
    pub dns_interval: f32,
    /// Mean interval between NTP syncs (s).
    pub ntp_interval: f32,
    /// Active-period traffic volume (KB).
    pub active_volume: f32,
    /// Peak transmit rate (kb/s).
    pub peak_rate: f32,
    /// Fraction of the window spent idle.
    pub idle_ratio: f32,
    /// Entropy of destination ports (bits).
    pub port_entropy: f32,
    /// Fraction of TCP (vs UDP) traffic.
    pub tcp_frac: f32,
    /// Ground-truth device category.
    pub label: IotCategory,
}

impl IotRecord {
    /// The 11-feature KMeans view (Table 5's `IoT KMeans`, 11 features /
    /// 5 categories), log-scaled where heavy-tailed.
    pub fn features11(&self) -> Vec<f32> {
        vec![
            self.mean_pkt_size.ln_1p(),
            self.pkt_size_sd.ln_1p(),
            self.flow_duration.ln_1p(),
            self.sleep_time.ln_1p(),
            self.dns_interval.ln_1p(),
            self.ntp_interval.ln_1p(),
            self.active_volume.ln_1p(),
            self.peak_rate.ln_1p(),
            self.idle_ratio,
            self.port_entropy,
            self.tcp_frac,
        ]
    }

    /// The 4-feature Table 3 view (DNN kernels `4×10×2` etc.).
    pub fn features4(&self) -> Vec<f32> {
        vec![
            self.mean_pkt_size.ln_1p(),
            self.sleep_time.ln_1p(),
            self.active_volume.ln_1p(),
            self.port_entropy,
        ]
    }
}

/// Seeded generator of [`IotRecord`]s.
#[derive(Debug, Clone)]
pub struct IotGenerator {
    rng: StdRng,
    weights: [f64; 5],
}

impl IotGenerator {
    /// Creates a generator with equal IoT-category weights and a large
    /// non-IoT share (as in a real home/office network).
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), weights: [0.15, 0.15, 0.15, 0.15, 0.40] }
    }

    /// Samples one record.
    pub fn sample(&mut self) -> IotRecord {
        let label = IotCategory::ALL[dist::weighted_index(&mut self.rng, &self.weights)];
        self.sample_of(label)
    }

    /// Samples one record of a specific category.
    pub fn sample_of(&mut self, label: IotCategory) -> IotRecord {
        let rng = &mut self.rng;
        // (mean_size, size_sd, duration_mu, sleep_mu, dns, ntp, volume_mu,
        //  peak_mu, idle, entropy, tcp) means per class; broad variances
        // create the ≈67%-accuracy overlap Table 3 reports.
        struct P {
            size: (f64, f64),
            dur: (f64, f64),
            sleep: (f64, f64),
            dns: (f64, f64),
            ntp: (f64, f64),
            vol: (f64, f64),
            peak: (f64, f64),
            idle: (f64, f64),
            entropy: (f64, f64),
            tcp: (f64, f64),
        }
        let p = match label {
            IotCategory::Camera => P {
                size: (900.0, 350.0),
                dur: (3.2, 1.2),
                sleep: (0.2, 1.0),
                dns: (5.0, 1.0),
                ntp: (6.5, 1.0),
                vol: (7.5, 1.5),
                peak: (7.0, 1.2),
                idle: (0.15, 0.12),
                entropy: (1.2, 0.8),
                tcp: (0.75, 0.15),
            },
            IotCategory::Plug => P {
                size: (120.0, 80.0),
                dur: (0.2, 1.0),
                sleep: (3.5, 1.2),
                dns: (6.0, 1.2),
                ntp: (5.5, 1.0),
                vol: (1.2, 1.2),
                peak: (3.0, 1.2),
                idle: (0.85, 0.12),
                entropy: (0.6, 0.5),
                tcp: (0.55, 0.25),
            },
            IotCategory::Hub => P {
                size: (420.0, 300.0),
                dur: (1.5, 1.3),
                sleep: (1.2, 1.3),
                dns: (3.5, 1.2),
                ntp: (5.0, 1.2),
                vol: (4.5, 1.8),
                peak: (5.5, 1.5),
                idle: (0.45, 0.2),
                entropy: (2.2, 1.0),
                tcp: (0.65, 0.2),
            },
            IotCategory::Sensor => P {
                size: (90.0, 40.0),
                dur: (0.05, 0.8),
                sleep: (5.0, 1.0),
                dns: (7.0, 1.0),
                ntp: (6.0, 1.0),
                vol: (0.4, 1.0),
                peak: (1.5, 1.0),
                idle: (0.93, 0.06),
                entropy: (0.3, 0.3),
                tcp: (0.25, 0.2),
            },
            IotCategory::NonIot => P {
                size: (650.0, 450.0),
                dur: (2.0, 1.8),
                sleep: (1.0, 1.8),
                dns: (2.5, 1.5),
                ntp: (7.0, 1.5),
                vol: (5.5, 2.5),
                peak: (6.5, 2.0),
                idle: (0.4, 0.28),
                entropy: (3.5, 1.5),
                tcp: (0.7, 0.2),
            },
        };
        IotRecord {
            mean_pkt_size: dist::normal(rng, p.size.0, p.size.1).clamp(64.0, 1500.0) as f32,
            pkt_size_sd: dist::normal(rng, p.size.1, p.size.1 * 0.5).max(0.0) as f32,
            flow_duration: dist::lognormal(rng, p.dur.0, p.dur.1) as f32,
            sleep_time: dist::lognormal(rng, p.sleep.0, p.sleep.1) as f32,
            dns_interval: dist::lognormal(rng, p.dns.0, p.dns.1) as f32,
            ntp_interval: dist::lognormal(rng, p.ntp.0, p.ntp.1) as f32,
            active_volume: dist::lognormal(rng, p.vol.0, p.vol.1) as f32,
            peak_rate: dist::lognormal(rng, p.peak.0, p.peak.1) as f32,
            idle_ratio: dist::normal(rng, p.idle.0, p.idle.1).clamp(0.0, 1.0) as f32,
            port_entropy: dist::normal(rng, p.entropy.0, p.entropy.1).clamp(0.0, 8.0) as f32,
            tcp_frac: dist::normal(rng, p.tcp.0, p.tcp.1).clamp(0.0, 1.0) as f32,
            label,
        }
    }

    /// Samples `n` records.
    pub fn take(&mut self, n: usize) -> Vec<IotRecord> {
        (0..n).map(|_| self.sample()).collect()
    }

    /// The 5-class, 11-feature dataset (KMeans workload).
    pub fn multiclass_dataset(&mut self, n: usize) -> Dataset {
        let records = self.take(n);
        let x = records.iter().map(IotRecord::features11).collect();
        let y = records.iter().map(|r| r.label.index()).collect();
        Dataset::new(x, y, 5)
    }

    /// The binary IoT-vs-non-IoT, 4-feature dataset (Table 3 workload).
    pub fn binary_dataset(&mut self, n: usize) -> Dataset {
        let records = self.take(n);
        let x = records.iter().map(IotRecord::features4).collect();
        let y = records.iter().map(|r| usize::from(r.label.is_iot())).collect();
        Dataset::new(x, y, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let a = IotGenerator::new(1).take(200);
        let b = IotGenerator::new(1).take(200);
        assert_eq!(a, b);
    }

    #[test]
    fn all_categories_appear() {
        let records = IotGenerator::new(2).take(5_000);
        for cat in IotCategory::ALL {
            assert!(records.iter().any(|r| r.label == cat), "{cat:?} missing");
        }
    }

    #[test]
    fn cameras_send_more_than_sensors() {
        let mut g = IotGenerator::new(3);
        let cam: f32 =
            (0..500).map(|_| g.sample_of(IotCategory::Camera).active_volume).sum::<f32>() / 500.0;
        let sen: f32 =
            (0..500).map(|_| g.sample_of(IotCategory::Sensor).active_volume).sum::<f32>() / 500.0;
        assert!(cam > 10.0 * sen, "camera {cam} vs sensor {sen}");
    }

    #[test]
    fn feature_views_have_expected_widths() {
        let mut g = IotGenerator::new(4);
        let r = g.sample();
        assert_eq!(r.features11().len(), 11);
        assert_eq!(r.features4().len(), 4);
        assert!(r.features11().iter().all(|f| f.is_finite()));
    }

    #[test]
    fn binary_dataset_is_two_class() {
        let ds = IotGenerator::new(5).binary_dataset(1_000);
        assert_eq!(ds.classes(), 2);
        assert_eq!(ds.width(), 4);
        let iot = ds.labels().iter().filter(|&&y| y == 1).count();
        assert!(iot > 400 && iot < 800, "iot share {iot}");
    }

    #[test]
    fn multiclass_dataset_is_five_class() {
        let ds = IotGenerator::new(6).multiclass_dataset(1_000);
        assert_eq!(ds.classes(), 5);
        assert_eq!(ds.width(), 11);
    }

    #[test]
    fn bounded_fields_stay_bounded() {
        let records = IotGenerator::new(7).take(2_000);
        for r in &records {
            assert!((0.0..=1.0).contains(&r.idle_ratio));
            assert!((0.0..=1.0).contains(&r.tcp_frac));
            assert!((0.0..=8.0).contains(&r.port_entropy));
            assert!((64.0..=1500.0).contains(&r.mean_pkt_size));
        }
    }
}
