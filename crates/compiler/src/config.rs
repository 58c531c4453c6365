//! Grid and compilation configuration.

/// Physical parameters of a MapReduce block.
///
/// Defaults are the paper's final ASIC configuration (§5.1.1): 16 lanes ×
/// 4 stages per CU, a 12×10 grid with a 3:1 CU:MU ratio, 16-bank MUs with
/// 1024 8-bit entries per bank, clocked at 1 GHz.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// SIMD lanes per CU.
    pub lanes: usize,
    /// Pipeline stages per CU.
    pub stages: usize,
    /// Grid rows.
    pub grid_rows: usize,
    /// Grid columns.
    pub grid_cols: usize,
    /// Of every `cu_ratio + 1` cells, `cu_ratio` are CUs and one is an MU.
    pub cu_ratio: usize,
    /// SRAM banks per MU.
    pub mu_banks: usize,
    /// 8-bit entries per MU bank.
    pub mu_bank_entries: usize,
    /// Clock frequency in GHz (1 cycle = `1/clock_ghz` ns).
    pub clock_ghz: f64,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            lanes: 16,
            stages: 4,
            grid_rows: 12,
            grid_cols: 10,
            cu_ratio: 3,
            mu_banks: 16,
            mu_bank_entries: 1024,
            clock_ghz: 1.0,
        }
    }
}

impl GridConfig {
    /// Total grid cells.
    pub fn cells(&self) -> usize {
        self.grid_rows * self.grid_cols
    }

    /// Whether the cell at linear index `i` (row-major) is an MU cell.
    /// Every `(cu_ratio + 1)`-th cell is an MU, interleaving the two unit
    /// types across the fabric (the paper's checkerboard locality layout).
    pub fn is_mu_cell(&self, i: usize) -> bool {
        i % (self.cu_ratio + 1) == self.cu_ratio
    }

    /// Number of CU cells in the grid.
    pub fn cu_cells(&self) -> usize {
        (0..self.cells()).filter(|&i| !self.is_mu_cell(i)).count()
    }

    /// Number of MU cells in the grid.
    pub fn mu_cells(&self) -> usize {
        self.cells() - self.cu_cells()
    }

    /// Bytes of storage per MU.
    pub fn mu_bytes(&self) -> usize {
        self.mu_banks * self.mu_bank_entries
    }

    /// Nanoseconds per cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        1.0 / self.clock_ghz
    }
}

/// Knobs for a single compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileOptions {
    /// Outer-loop unroll factor for graphs with `outer_iters > 1`:
    /// `Some(u)` instantiates `u` parallel iteration slots (initiation
    /// interval = `ceil(outer_iters / u)`); `None` fully unrolls for line
    /// rate. Table 7's axis.
    pub unroll: Option<usize>,
    /// Cap on physical CUs; defaults to the grid's CU-cell count. Models
    /// larger than the cap are time-multiplexed (more rows per dot CU).
    pub max_cus: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let g = GridConfig::default();
        assert_eq!(g.lanes, 16);
        assert_eq!(g.stages, 4);
        assert_eq!(g.cells(), 120);
        assert_eq!(g.cu_cells(), 90, "12×10 grid at 3:1 has 90 CUs");
        assert_eq!(g.mu_cells(), 30);
        assert_eq!(g.mu_bytes(), 16 * 1024);
        assert_eq!(g.ns_per_cycle(), 1.0);
    }

    #[test]
    fn mu_cells_every_fourth() {
        let g = GridConfig::default();
        assert!(!g.is_mu_cell(0));
        assert!(!g.is_mu_cell(1));
        assert!(!g.is_mu_cell(2));
        assert!(g.is_mu_cell(3));
        assert!(g.is_mu_cell(7));
    }
}
