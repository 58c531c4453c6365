//! Analytic area/power models for the Taurus MapReduce block.
//!
//! The paper evaluates silicon cost with ASIC synthesis against the
//! FreePDK15 predictive 15 nm library plus CACTI for SRAMs (§5.1.1). We
//! have no PDK, so this crate provides analytic models **calibrated to
//! the paper's published anchor points** and reproduces the *scaling
//! shapes* its design-space exploration argues from:
//!
//! - per-FU area/power vs precision (Table 4: 670 µm²/456 µW at fix8,
//!   16 lanes × 4 stages);
//! - per-FU amortization vs lane/stage count (Fig. 9: more lanes amortize
//!   control, driving area-per-FU down);
//! - CU = 0.044 mm², MU = 0.029 mm² including routing; the 12×10 grid at
//!   3:1 = 4.8 mm²; four MapReduce blocks on a 500 mm² / 270 W reference
//!   switch ⇒ +3.8 % area (§5.1.1);
//! - per-application roll-ups for Table 5 (area mm² / +% / power mW / +%).
//!
//! Calibration notes: the paper's Table 4 per-FU power (456 µW at 10 %
//! switching) and its Table 5 whole-grid +2.8 % power are not mutually
//! consistent at face value (90 CUs × 64 FUs × 456 µW ≈ 2.6 W per block
//! ⇒ ≈3.9 % for four blocks). We calibrate at the FU level (Table 4
//! exact) and report the derived block overhead, recording the
//! discrepancy in `EXPERIMENTS.md`.

use taurus_compiler::{GridConfig, ResourceReport};

/// Datapath precision of the functional units (Table 4's axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 8-bit fixed point (the paper's final design).
    Fix8,
    /// 16-bit fixed point.
    Fix16,
    /// 32-bit fixed point.
    Fix32,
}

impl Precision {
    /// Area multiplier relative to fix8, from Table 4 (1338/670, 2949/670).
    pub fn area_factor(self) -> f64 {
        match self {
            Precision::Fix8 => 1.0,
            Precision::Fix16 => 1338.0 / 670.0,
            Precision::Fix32 => 2949.0 / 670.0,
        }
    }

    /// Power multiplier relative to fix8, from Table 4 (887/456, 2341/456).
    pub fn power_factor(self) -> f64 {
        match self {
            Precision::Fix8 => 1.0,
            Precision::Fix16 => 887.0 / 456.0,
            Precision::Fix32 => 2341.0 / 456.0,
        }
    }
}

/// CU geometry for the design-space exploration (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CuGeometry {
    /// SIMD lanes.
    pub lanes: usize,
    /// Pipeline stages.
    pub stages: usize,
}

impl CuGeometry {
    /// The paper's final configuration.
    pub const PAPER: CuGeometry = CuGeometry { lanes: 16, stages: 4 };

    /// Functional units in the CU.
    pub fn fus(self) -> usize {
        self.lanes * self.stages
    }
}

// Structural fix8 area model (µm²): per-FU = datapath + control/(L·S) +
// lane overhead/S + stage overhead/L. Constants calibrated so the paper
// geometry lands on Table 4's 670 µm²/FU and Fig. 9's amortization shape.
const FU_DATAPATH_UM2: f64 = 400.0;
const CU_CONTROL_UM2: f64 = 8_000.0;
const LANE_OVERHEAD_UM2: f64 = 480.0;
const STAGE_OVERHEAD_UM2: f64 = 320.0;

// Power model (µW per FU at 10% switching): static + amortized control +
// per-lane/stage register power. Calibrated to Table 4's 456 µW.
const FU_STATIC_UW: f64 = 281.0;
const CU_CONTROL_UW: f64 = 4_800.0;
const LANE_POWER_UW: f64 = 240.0;
const STAGE_POWER_UW: f64 = 640.0;

/// Per-FU area in µm² for a geometry and precision.
///
/// # Examples
///
/// ```
/// use taurus_hw_model::{fu_area_um2, CuGeometry, Precision};
/// let a = fu_area_um2(CuGeometry::PAPER, Precision::Fix8);
/// assert!((a - 670.0).abs() < 10.0, "Table 4 anchor: {a}");
/// ```
pub fn fu_area_um2(geom: CuGeometry, precision: Precision) -> f64 {
    let fix8 = FU_DATAPATH_UM2
        + CU_CONTROL_UM2 / geom.fus() as f64
        + LANE_OVERHEAD_UM2 / geom.stages as f64
        + STAGE_OVERHEAD_UM2 / geom.lanes as f64;
    fix8 * precision.area_factor()
}

/// Per-FU power in µW at the given switching activity (Fig. 9b uses 0.1).
pub fn fu_power_uw(geom: CuGeometry, precision: Precision, switching: f64) -> f64 {
    // At 10% switching the model must hit Table 4's anchors; static power
    // is ~25% of that, the rest scales with activity.
    let at_10pct = FU_STATIC_UW
        + CU_CONTROL_UW / geom.fus() as f64
        + LANE_POWER_UW / geom.stages as f64
        + STAGE_POWER_UW / geom.lanes as f64;
    let static_part = 0.25 * at_10pct;
    let dynamic_at_10 = at_10pct - static_part;
    (static_part + dynamic_at_10 * (switching / 0.1)) * precision.power_factor()
}

/// Full-CU area in mm², including routing resources (§5.1.1: 0.044 mm²
/// at the paper geometry).
pub fn cu_area_mm2(geom: CuGeometry, precision: Precision) -> f64 {
    // Routing adds ~1.5% on top of the per-FU roll-up at the paper
    // geometry (680 µm²/FU average incl. routing vs 670 bare).
    fu_area_um2(geom, precision) * geom.fus() as f64 * 1.015 / 1e6
}

/// Full-CU power in mW.
pub fn cu_power_mw(geom: CuGeometry, precision: Precision, switching: f64) -> f64 {
    fu_power_uw(geom, precision, switching) * geom.fus() as f64 / 1e3
}

/// MU area in mm² (16 banks × 1024 × 8 bit = 0.029 mm² in the paper).
pub fn mu_area_mm2(banks: usize, bank_entries: usize) -> f64 {
    let base = 5_000.0; // decoder + crossbar
    let per_bank = 500.0 + bank_entries as f64 * 0.92; // sense amps + cells
    (base + banks as f64 * per_bank) / 1e6
}

/// MU power in mW (SRAM leakage + read energy at line rate).
pub fn mu_power_mw(banks: usize, bank_entries: usize, switching: f64) -> f64 {
    1.2 + banks as f64 * bank_entries as f64 * 2.0e-5 * (switching / 0.1)
}

/// The reference switch chip Taurus extends (§5.1.1: a 500–600 mm²,
/// 64×100 GbE, 270 W device with four reconfigurable pipelines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchChip {
    /// Die area in mm².
    pub area_mm2: f64,
    /// System power in W.
    pub power_w: f64,
    /// Reconfigurable pipelines (each gets one MapReduce block).
    pub pipelines: usize,
}

impl Default for SwitchChip {
    fn default() -> Self {
        Self { area_mm2: 500.0, power_w: 270.0, pipelines: 4 }
    }
}

/// Area/power roll-up for one model or grid (a Table 5 row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwReport {
    /// Block area in mm² (one pipeline's worth).
    pub area_mm2: f64,
    /// Chip-level area overhead in percent (all pipelines).
    pub area_overhead_pct: f64,
    /// Block power in mW.
    pub power_mw: f64,
    /// Chip-level power overhead in percent (all pipelines).
    pub power_overhead_pct: f64,
}

/// Rolls up a compiled model's resources into a Table 5 row.
///
/// Only units doing useful work are counted, matching the paper: "the
/// actual area of a prototype for these benchmarks is the area of the
/// largest benchmark, with unused CUs disabled".
pub fn model_report(
    resources: &ResourceReport,
    grid: &GridConfig,
    chip: &SwitchChip,
    switching: f64,
) -> HwReport {
    let geom = CuGeometry { lanes: grid.lanes, stages: grid.stages };
    let area = resources.cus as f64 * cu_area_mm2(geom, Precision::Fix8)
        + resources.mus as f64 * mu_area_mm2(grid.mu_banks, grid.mu_bank_entries);
    let power = resources.cus as f64 * cu_power_mw(geom, Precision::Fix8, switching)
        + resources.mus as f64 * mu_power_mw(grid.mu_banks, grid.mu_bank_entries, switching);
    HwReport {
        area_mm2: area,
        area_overhead_pct: area * chip.pipelines as f64 / chip.area_mm2 * 100.0,
        power_mw: power,
        power_overhead_pct: power * chip.pipelines as f64 / (chip.power_w * 1e3) * 100.0,
    }
}

/// Rolls up the full grid (the Table 5 "12×10 Grid" row and the headline
/// +3.8 % area figure).
pub fn grid_report(grid: &GridConfig, chip: &SwitchChip, switching: f64) -> HwReport {
    let full = ResourceReport {
        cus: grid.cu_cells(),
        mus: grid.mu_cells(),
        active_fus: grid.cu_cells() * grid.lanes * grid.stages,
        total_fus: grid.cu_cells() * grid.lanes * grid.stages,
        memory_bytes: grid.mu_cells() * grid.mu_bytes(),
    };
    model_report(&full, grid, chip, switching)
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: CuGeometry = CuGeometry::PAPER;

    #[test]
    fn table4_area_anchors() {
        assert!((fu_area_um2(G, Precision::Fix8) - 670.0).abs() < 10.0);
        assert!((fu_area_um2(G, Precision::Fix16) - 1338.0).abs() < 25.0);
        assert!((fu_area_um2(G, Precision::Fix32) - 2949.0).abs() < 50.0);
    }

    #[test]
    fn table4_power_anchors() {
        assert!((fu_power_uw(G, Precision::Fix8, 0.1) - 456.0).abs() < 10.0);
        assert!((fu_power_uw(G, Precision::Fix16, 0.1) - 887.0).abs() < 20.0);
        assert!((fu_power_uw(G, Precision::Fix32, 0.1) - 2341.0).abs() < 50.0);
    }

    #[test]
    fn fig9_amortization_shape() {
        // Area per FU strictly decreases as lanes grow, at every stage
        // count the paper sweeps.
        for stages in [2usize, 3, 4, 6] {
            let mut last = f64::INFINITY;
            for lanes in [4usize, 8, 16, 32] {
                let a = fu_area_um2(CuGeometry { lanes, stages }, Precision::Fix8);
                assert!(a < last, "lanes {lanes} stages {stages}: {a} !< {last}");
                last = a;
            }
        }
    }

    #[test]
    fn cu_and_mu_area_anchors() {
        let cu = cu_area_mm2(G, Precision::Fix8);
        assert!((cu - 0.044).abs() < 0.002, "CU {cu} mm² (paper 0.044)");
        let mu = mu_area_mm2(16, 1024);
        assert!((mu - 0.029).abs() < 0.003, "MU {mu} mm² (paper 0.029)");
    }

    #[test]
    fn grid_area_near_4_8mm2_and_3_8pct() {
        let grid = GridConfig::default();
        let r = grid_report(&grid, &SwitchChip::default(), 0.1);
        assert!((r.area_mm2 - 4.8).abs() < 0.3, "grid {} mm² (paper 4.8)", r.area_mm2);
        assert!(
            (r.area_overhead_pct - 3.8).abs() < 0.4,
            "overhead {}% (paper 3.8%)",
            r.area_overhead_pct
        );
    }

    #[test]
    fn precision_scaling_monotone() {
        assert!(Precision::Fix16.area_factor() > Precision::Fix8.area_factor());
        assert!(Precision::Fix32.area_factor() > Precision::Fix16.area_factor());
        assert!(Precision::Fix32.power_factor() > 4.0);
    }

    #[test]
    fn power_scales_with_switching() {
        let low = fu_power_uw(G, Precision::Fix8, 0.02);
        let high = fu_power_uw(G, Precision::Fix8, 0.5);
        assert!(high > 3.0 * low, "dynamic power dominates: {low} vs {high}");
        // Static floor: zero switching still burns leakage.
        assert!(fu_power_uw(G, Precision::Fix8, 0.0) > 50.0);
    }

    #[test]
    fn model_report_small_model() {
        let grid = GridConfig::default();
        let res = ResourceReport {
            cus: 6,
            mus: 1,
            active_fus: 6 * 64,
            total_fus: 6 * 64,
            memory_bytes: 55,
        };
        let r = model_report(&res, &grid, &SwitchChip::default(), 0.1);
        // KMeans-class model: paper says 0.3 mm² / 0.2% / 177 mW / 0.3%.
        assert!((0.2..=0.45).contains(&r.area_mm2), "area {}", r.area_mm2);
        assert!((0.1..=0.4).contains(&r.area_overhead_pct), "pct {}", r.area_overhead_pct);
        assert!((100.0..=280.0).contains(&r.power_mw), "power {}", r.power_mw);
    }
}

/// §5.1.4: comparison against MAT-only ML implementations.
///
/// The paper sizes one MAT from the observation that "considering a
/// switch with four reconfigurable pipelines having 32 MATs each, 50% of
/// the chip area is taken up by the MATs": on a 500 mm² die that is
/// 250 mm² / 128 ≈ 1.95 mm² per MAT. A Taurus model's *iso-area MAT
/// equivalent* is its block area divided by that figure — the paper's
/// "an iso-area design would lose 3 MATs per pipeline".
pub mod mat_compare {
    use super::*;

    /// Area of one MAT stage, derived from the 50%-of-chip observation.
    pub fn mat_area_mm2(chip: &SwitchChip, mats_per_pipeline: usize) -> f64 {
        chip.area_mm2 * 0.5 / (chip.pipelines as f64 * mats_per_pipeline as f64)
    }

    /// How many MATs of area a Taurus model occupies (iso-area).
    pub fn iso_area_mats(model_area_mm2: f64, chip: &SwitchChip) -> f64 {
        model_area_mm2 / mat_area_mm2(chip, 32)
    }

    /// One §5.1.4 comparison row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MatOnlyRow {
        /// Implementation name.
        pub name: &'static str,
        /// The model it implements.
        pub model: &'static str,
        /// MATs the published MAT-only implementation consumes.
        pub mat_only_mats: f64,
        /// Taurus's iso-area MAT equivalent for the same model.
        pub taurus_iso_mats: f64,
    }

    /// The published MAT-only costs (N2Net: ≥12 MATs per BNN layer, so
    /// 48 for the 4-layer anomaly DNN; IIsy: 8 MATs for an SVM, 2 for
    /// KMeans), paired with Taurus model areas.
    pub fn comparison(
        dnn_area_mm2: f64,
        svm_area_mm2: f64,
        kmeans_area_mm2: f64,
        chip: &SwitchChip,
    ) -> Vec<MatOnlyRow> {
        vec![
            MatOnlyRow {
                name: "N2Net (BNN)",
                model: "Anomaly DNN (4 layers)",
                mat_only_mats: 48.0,
                taurus_iso_mats: iso_area_mats(dnn_area_mm2, chip),
            },
            MatOnlyRow {
                name: "IIsy",
                model: "SVM",
                mat_only_mats: 8.0,
                taurus_iso_mats: iso_area_mats(svm_area_mm2, chip),
            },
            MatOnlyRow {
                name: "IIsy",
                model: "KMeans",
                mat_only_mats: 2.0,
                taurus_iso_mats: iso_area_mats(kmeans_area_mm2, chip),
            },
        ]
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn mat_area_from_half_chip() {
            let a = mat_area_mm2(&SwitchChip::default(), 32);
            assert!((a - 1.953).abs() < 0.01, "{a}");
        }

        #[test]
        fn taurus_dnn_beats_n2net_by_an_order_of_magnitude() {
            // Paper: N2Net needs 48 MATs; Taurus ≈ 3 MAT-equivalents.
            let rows = comparison(1.35, 0.9, 0.29, &SwitchChip::default());
            assert!(rows[0].taurus_iso_mats < 1.0, "{}", rows[0].taurus_iso_mats);
            assert!(rows[0].mat_only_mats / rows[0].taurus_iso_mats.max(0.1) > 10.0);
            assert!(rows[2].taurus_iso_mats < rows[2].mat_only_mats);
        }
    }
}
