//! The control-plane anomaly-detection baseline (Table 8) as a DES.
//!
//! Structure (Fig. 12): the switch samples telemetry packets at rate
//! `s`; an XDP program batches them to the collector; batches land in a
//! streaming database; the ML model runs batched inference; for each
//! flagged source IP, ONOS installs a flow rule on the switch. Packets
//! from a flagged IP are only "detected" once their rule is active —
//! everything before that slips through, which is why Table 8's baseline
//! detects orders of magnitude fewer anomalous packets than Taurus.
//!
//! Each stage is a single server with service time `base + per_item ×
//! batch`, and batches form *naturally*: a stage grabs everything that
//! queued while it was busy. That emergent batching reproduces Table 8's
//! load-dependent batch growth (1 → ~3 000 packets as sampling rises
//! from 10⁻⁵ to 10⁻²). Stage constants are calibrated to the paper's
//! measured per-component latencies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taurus_events::{EventQueue, SimTime};
use taurus_ml::{BinaryMetrics, Mlp};

/// One packet of the offered trace, as the baseline sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSample {
    /// Arrival time, ns.
    pub ts_ns: u64,
    /// Source IP (rule-installation key).
    pub src_ip: u32,
    /// Model features at this packet.
    pub features: Vec<f32>,
    /// Ground truth.
    pub anomalous: bool,
}

/// Baseline configuration. Latency constants default to values
/// calibrated against Table 8's measured components.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Telemetry sampling probability (Table 8's rows: 1e-5 … 1e-2).
    pub sampling_rate: f64,
    /// XDP capture: per-batch base, ms.
    pub xdp_base_ms: f64,
    /// XDP capture: per-packet cost, ms.
    pub xdp_per_pkt_ms: f64,
    /// Database write: per-batch base, ms.
    pub db_base_ms: f64,
    /// Database write: per-item cost, ms.
    pub db_per_item_ms: f64,
    /// Database ingestion parallelism cap (items per service batch).
    pub db_batch_cap: usize,
    /// Batched inference: per-batch base (framework overhead), ms.
    pub ml_base_ms: f64,
    /// Batched inference: per-item cost, ms.
    pub ml_per_item_ms: f64,
    /// Rule installation: per-rule base, ms (TCAM update).
    pub install_per_rule_ms: f64,
    /// Rule installation: extra cost per already-installed rule, µs
    /// (install time grows with table size, the paper's [47, 90]).
    pub install_per_entry_us: f64,
    /// Decision threshold on the model's anomaly score.
    pub threshold: f32,
    /// Sampling RNG seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            sampling_rate: 1e-4,
            xdp_base_ms: 2.0,
            xdp_per_pkt_ms: 0.068,
            db_base_ms: 13.0,
            db_per_item_ms: 0.124,
            db_batch_cap: 1_050,
            ml_base_ms: 15.5,
            ml_per_item_ms: 0.0095,
            install_per_rule_ms: 1.5,
            install_per_entry_us: 25.0,
            threshold: 0.5,
            seed: 0xCAFE,
        }
    }
}

/// Aggregate results of one baseline run (one Table 8 row).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// Mean XDP batch size.
    pub xdp_batch: f64,
    /// Mean downstream ("Rem.") batch size.
    pub rem_batch: f64,
    /// Mean XDP stage service time, ms.
    pub xdp_ms: f64,
    /// Mean DB stage service time, ms.
    pub db_ms: f64,
    /// Mean ML stage service time, ms.
    pub ml_ms: f64,
    /// Mean per-rule installation time, ms.
    pub install_ms: f64,
    /// Mean sample-to-rule-installed latency, ms (Table 8's "All").
    pub all_ms: f64,
    /// Percentage of anomalous packets caught by an active rule.
    pub detected_pct: f64,
    /// Effective packet-level F1 (×100, the paper's convention).
    pub f1_percent: f64,
    /// Rules installed over the run.
    pub rules_installed: usize,
    /// Packets sampled to the control plane.
    pub sampled: usize,
}

#[derive(Debug)]
enum Ev {
    Arrival(usize),
    XdpDone,
    DbDone,
    MlDone,
    InstallDone,
}

/// Runs the baseline over a trace.
///
/// `model` is the control plane's copy of the detector (float — it runs
/// on a server). Returns the Table 8 row for this configuration.
///
/// # Panics
///
/// Panics if `packets` is empty.
pub fn run_baseline(
    packets: &[PacketSample],
    model: &Mlp,
    config: &BaselineConfig,
) -> BaselineReport {
    assert!(!packets.is_empty(), "empty trace");
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Pre-draw which packets are sampled.
    let sampled_idx: Vec<usize> =
        (0..packets.len()).filter(|_| rng.gen_bool(config.sampling_rate)).collect();

    // Stage queues hold (packet index, sampled-at time).
    let mut q_xdp: Vec<(usize, SimTime)> = Vec::new();
    let mut q_db: Vec<(usize, SimTime)> = Vec::new();
    let mut q_ml: Vec<(usize, SimTime)> = Vec::new();
    let mut q_install: Vec<(u32, SimTime)> = Vec::new();
    let (mut xdp_busy, mut db_busy, mut ml_busy, mut install_busy) = (false, false, false, false);
    let mut in_xdp: Vec<(usize, SimTime)> = Vec::new();
    let mut in_db: Vec<(usize, SimTime)> = Vec::new();
    let mut in_ml: Vec<(usize, SimTime)> = Vec::new();
    let mut in_install: Option<(u32, SimTime)> = None;

    // Rule table: src ip → activation time (ns).
    let mut rules: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();

    let mut events: EventQueue<Ev> = EventQueue::new();
    let ms = SimTime::from_secs_f64;

    // Stats.
    let mut xdp_batches: Vec<usize> = Vec::new();
    let mut rem_batches: Vec<usize> = Vec::new();
    let mut xdp_times = Vec::new();
    let mut db_times = Vec::new();
    let mut ml_times = Vec::new();
    let mut install_times = Vec::new();
    let mut all_latencies = Vec::new();

    macro_rules! try_start_xdp {
        () => {
            if !xdp_busy && !q_xdp.is_empty() {
                xdp_busy = true;
                in_xdp = std::mem::take(&mut q_xdp);
                let t = config.xdp_base_ms + config.xdp_per_pkt_ms * in_xdp.len() as f64;
                xdp_batches.push(in_xdp.len());
                xdp_times.push(t);
                events.schedule_in(ms(t / 1e3), Ev::XdpDone);
            }
        };
    }
    macro_rules! try_start_db {
        () => {
            if !db_busy && !q_db.is_empty() {
                db_busy = true;
                let take = q_db.len().min(config.db_batch_cap);
                in_db = q_db.drain(..take).collect();
                rem_batches.push(in_db.len());
                let t = config.db_base_ms + config.db_per_item_ms * in_db.len() as f64;
                db_times.push(t);
                events.schedule_in(ms(t / 1e3), Ev::DbDone);
            }
        };
    }
    macro_rules! try_start_ml {
        () => {
            if !ml_busy && !q_ml.is_empty() {
                ml_busy = true;
                in_ml = std::mem::take(&mut q_ml);
                let t = config.ml_base_ms + config.ml_per_item_ms * in_ml.len() as f64;
                ml_times.push(t);
                events.schedule_in(ms(t / 1e3), Ev::MlDone);
            }
        };
    }
    macro_rules! try_start_install {
        () => {
            if !install_busy {
                if let Some((ip, t0)) = q_install.pop() {
                    install_busy = true;
                    in_install = Some((ip, t0));
                    let t = config.install_per_rule_ms
                        + config.install_per_entry_us * rules.len() as f64 / 1e3;
                    install_times.push(t);
                    events.schedule_in(ms(t / 1e3), Ev::InstallDone);
                }
            }
        };
    }

    // All sampled arrivals are exogenous: schedule them upfront.
    for &idx in &sampled_idx {
        events.schedule(SimTime::from_nanos(packets[idx].ts_ns), Ev::Arrival(idx));
    }

    while let Some((_, ev)) = events.pop() {
        match ev {
            Ev::Arrival(idx) => {
                q_xdp.push((idx, events.now()));
                try_start_xdp!();
            }
            Ev::XdpDone => {
                xdp_busy = false;
                q_db.append(&mut in_xdp);
                try_start_db!();
                try_start_xdp!();
            }
            Ev::DbDone => {
                db_busy = false;
                q_ml.append(&mut in_db);
                try_start_ml!();
                try_start_db!();
            }
            Ev::MlDone => {
                ml_busy = false;
                for (idx, t0) in in_ml.drain(..) {
                    let p = &packets[idx];
                    if model.score(&p.features) >= config.threshold
                        && !rules.contains_key(&p.src_ip)
                    {
                        rules.insert(p.src_ip, u64::MAX); // pending
                        q_install.push((p.src_ip, t0));
                    }
                }
                try_start_install!();
                try_start_ml!();
            }
            Ev::InstallDone => {
                install_busy = false;
                if let Some((ip, t0)) = in_install.take() {
                    rules.insert(ip, events.now().as_nanos());
                    all_latencies.push(events.now().saturating_sub(t0).as_millis_f64());
                }
                try_start_install!();
            }
        }
    }

    // Packet-level outcome: a packet is caught iff its source's rule was
    // active when it arrived.
    let metrics = BinaryMetrics::from_pairs(packets.iter().map(|p| {
        let caught = rules.get(&p.src_ip).is_some_and(|&at| at <= p.ts_ns);
        (caught, p.anomalous)
    }));

    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let mean_u = |v: &[usize]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<usize>() as f64 / v.len() as f64
        }
    };
    BaselineReport {
        xdp_batch: mean_u(&xdp_batches),
        rem_batch: mean_u(&rem_batches),
        xdp_ms: mean(&xdp_times),
        db_ms: mean(&db_times),
        ml_ms: mean(&ml_times),
        install_ms: mean(&install_times),
        all_ms: mean(&all_latencies),
        detected_pct: metrics.detected_percent(),
        f1_percent: metrics.f1_percent(),
        rules_installed: rules.len(),
        sampled: sampled_idx.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_fixed::Activation;
    use taurus_ml::mlp::{MlpConfig, OutputHead, TrainParams};
    use taurus_ml::Rows;

    /// A trace where anomalous packets have feature[0] = 1, benign 0, and
    /// each source IP sends 50 packets over 100 ms.
    fn synthetic_trace(n_ips: u32, anomalous_frac: f64) -> Vec<PacketSample> {
        let mut packets = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        for ip in 0..n_ips {
            let anomalous = rng.gen_bool(anomalous_frac);
            for k in 0..50u64 {
                packets.push(PacketSample {
                    ts_ns: rng.gen_range(0..100_000_000),
                    src_ip: ip,
                    features: vec![if anomalous { 1.0 } else { 0.0 }, 0.5],
                    anomalous,
                });
                let _ = k;
            }
        }
        packets.sort_by_key(|p| p.ts_ns);
        packets
    }

    fn perfect_model() -> Mlp {
        // Train a tiny model to separate feature[0] ∈ {0, 1}.
        let cfg = MlpConfig {
            layers: vec![2, 4, 1],
            hidden: Activation::Relu,
            head: OutputHead::Sigmoid,
        };
        let mut m = Mlp::new(&cfg, 1);
        let x: Rows = (0..200).map(|i| [(i % 2) as f32, 0.5]).collect();
        let y: Vec<usize> = (0..200).map(|i| i % 2).collect();
        m.train(&x, &y, &TrainParams { epochs: 40, ..TrainParams::default() });
        m
    }

    #[test]
    fn baseline_misses_most_packets_at_low_sampling() {
        let trace = synthetic_trace(200, 0.3);
        let model = perfect_model();
        let report = run_baseline(
            &trace,
            &model,
            &BaselineConfig { sampling_rate: 1e-3, ..BaselineConfig::default() },
        );
        assert!(report.detected_pct < 30.0, "detected {}%", report.detected_pct);
        assert!(report.sampled < trace.len() / 100);
    }

    #[test]
    fn higher_sampling_detects_more_but_slower_batches() {
        let trace = synthetic_trace(300, 0.3);
        let model = perfect_model();
        let low = run_baseline(
            &trace,
            &model,
            &BaselineConfig { sampling_rate: 1e-3, ..BaselineConfig::default() },
        );
        let high = run_baseline(
            &trace,
            &model,
            &BaselineConfig { sampling_rate: 1e-1, ..BaselineConfig::default() },
        );
        assert!(high.detected_pct >= low.detected_pct);
        assert!(high.xdp_batch >= low.xdp_batch, "batches grow with load");
        assert!(high.rules_installed >= low.rules_installed);
    }

    #[test]
    fn component_latencies_are_millisecond_scale() {
        let trace = synthetic_trace(150, 0.3);
        let model = perfect_model();
        let r = run_baseline(
            &trace,
            &model,
            &BaselineConfig { sampling_rate: 1e-2, ..BaselineConfig::default() },
        );
        assert!(r.xdp_ms >= 2.0);
        assert!(r.db_ms >= 13.0);
        assert!(r.ml_ms >= 15.0);
        assert!(r.all_ms >= 30.0, "sample-to-rule ≥ sum of stage bases, got {}", r.all_ms);
    }

    #[test]
    fn no_rules_for_clean_traffic() {
        let trace = synthetic_trace(100, 0.0);
        let model = perfect_model();
        let r = run_baseline(
            &trace,
            &model,
            &BaselineConfig { sampling_rate: 1e-1, ..BaselineConfig::default() },
        );
        assert_eq!(r.rules_installed, 0);
        assert_eq!(r.detected_pct, 0.0);
    }
}
