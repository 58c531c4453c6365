//! Placement of virtual units on the checkerboard grid.
//!
//! Dataflow runs left to right: units are levelized by dependency depth
//! and assigned to grid cells column-major, CUs on CU cells and MUs on
//! MU cells, so deeper pipeline stages sit further from the PHV ingress.
//! Route lengths are Manhattan distances on the static interconnect.

use crate::config::GridConfig;
use crate::program::CompileError;
use crate::vu::{Vu, VuKind};

/// A grid coordinate; the ingress interface sits at column −1.
pub type Pos = (i32, i32);

/// Placement result: a position for every VU.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Resolved position per VU (wires adopt their producer's position;
    /// the interface sits off-grid at column −1).
    pub positions: Vec<Pos>,
    /// Dependency level per VU (interface = 0).
    pub levels: Vec<u32>,
}

impl Placement {
    /// Manhattan distance between two units.
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        let (ar, ac) = self.positions[a];
        let (br, bc) = self.positions[b];
        ar.abs_diff(br) + ac.abs_diff(bc)
    }
}

/// Places units on the grid.
///
/// # Errors
///
/// Returns [`CompileError::GridCapacity`] if cells run out (the lowering
/// capacity check makes this unreachable in practice, but the invariant
/// is enforced here too).
pub fn place(vus: &[Vu], grid: &GridConfig) -> Result<Placement, CompileError> {
    // Levelize by fixpoint: iteration merging can leave deps that point
    // forward in the unit list, so a single construction-order pass is
    // not sufficient.
    let mut levels = vec![0u32; vus.len()];
    for _ in 0..vus.len() {
        let mut changed = false;
        for (i, vu) in vus.iter().enumerate() {
            let lvl =
                vu.deps.iter().map(|d| levels[d.0 as usize].saturating_add(1)).max().unwrap_or(0);
            if lvl > levels[i] {
                levels[i] = lvl;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Free-cell pools.
    let mut cu_cells: Vec<Pos> = Vec::new();
    let mut mu_cells: Vec<Pos> = Vec::new();
    for row in 0..grid.grid_rows {
        for col in 0..grid.grid_cols {
            let idx = row * grid.grid_cols + col;
            let pos = (row as i32, col as i32);
            if grid.is_mu_cell(idx) {
                mu_cells.push(pos);
            } else {
                cu_cells.push(pos);
            }
        }
    }

    let mid_row = (grid.grid_rows / 2) as i32;
    let interface: Pos = (mid_row, -1);
    let mut positions: Vec<Pos> = vec![interface; vus.len()];

    // Greedy proximity placement: each CU takes the free cell minimizing
    // total Manhattan distance to its already-placed producers (memory
    // units excluded — weights stream in place), keeping dataflow
    // neighbours physically adjacent on the static interconnect.
    let dist = |a: Pos, b: Pos| -> u32 { a.0.abs_diff(b.0) + a.1.abs_diff(b.1) };
    let mut order: Vec<usize> = (0..vus.len()).collect();
    order.sort_by_key(|&i| (levels[i], i));
    for &i in &order {
        match vus[i].kind {
            VuKind::Interface => positions[i] = interface,
            VuKind::Wire => {
                positions[i] =
                    vus[i].deps.first().map(|d| positions[d.0 as usize]).unwrap_or(interface);
            }
            k if k.is_cu() => {
                let anchors: Vec<Pos> = vus[i]
                    .deps
                    .iter()
                    .filter(|d| !vus[d.0 as usize].kind.is_mu())
                    .map(|d| positions[d.0 as usize])
                    .collect();
                let anchors = if anchors.is_empty() { vec![interface] } else { anchors };
                let (best, _) = cu_cells
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &c)| anchors.iter().map(|&a| dist(a, c)).sum::<u32>())
                    .ok_or_else(|| {
                        CompileError::GridCapacity("ran out of CU cells during placement".into())
                    })?;
                positions[i] = cu_cells.swap_remove(best);
            }
            _ => {} // MUs placed in the second pass, near their consumers.
        }
    }

    // Second pass: memory units near the CUs that read them.
    for &i in &order {
        if !vus[i].kind.is_mu() {
            continue;
        }
        let anchors: Vec<Pos> = vus
            .iter()
            .enumerate()
            .filter(|(_, v)| v.deps.iter().any(|d| d.0 as usize == i))
            .map(|(j, _)| positions[j])
            .collect();
        let anchors = if anchors.is_empty() { vec![interface] } else { anchors };
        let (best, _) = mu_cells
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| anchors.iter().map(|&a| dist(a, c)).sum::<u32>())
            .ok_or_else(|| {
                CompileError::GridCapacity("ran out of MU cells during placement".into())
            })?;
        positions[i] = mu_cells.swap_remove(best);
    }

    Ok(Placement { positions, levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompileOptions;
    use crate::vu::lower;
    use taurus_ir::microbench;

    #[test]
    fn placements_are_on_grid_and_distinct() {
        let g = microbench::sigmoid_exp();
        let grid = GridConfig::default();
        let vus = lower(&g, &grid, &CompileOptions::default()).expect("fits");
        let p = place(&vus, &grid).expect("places");
        let mut seen = std::collections::HashSet::new();
        for (i, vu) in vus.iter().enumerate() {
            let (r, c) = p.positions[i];
            if vu.kind.is_cu() || vu.kind.is_mu() {
                assert!(r >= 0 && c >= 0, "on grid");
                assert!((r as usize) < grid.grid_rows && (c as usize) < grid.grid_cols);
                assert!(seen.insert((r, c)), "cell used once: {:?}", (r, c));
            }
        }
    }

    #[test]
    fn cu_cells_hold_cus_and_mu_cells_hold_mus() {
        let g = microbench::act_lut();
        let grid = GridConfig::default();
        let vus = lower(&g, &grid, &CompileOptions::default()).expect("fits");
        let p = place(&vus, &grid).expect("places");
        for (i, vu) in vus.iter().enumerate() {
            let (r, c) = p.positions[i];
            if vu.kind.is_cu() {
                let idx = r as usize * grid.grid_cols + c as usize;
                assert!(!grid.is_mu_cell(idx), "CU on CU cell");
            }
            if vu.kind.is_mu() {
                let idx = r as usize * grid.grid_cols + c as usize;
                assert!(grid.is_mu_cell(idx), "MU on MU cell");
            }
        }
    }

    #[test]
    fn levels_monotone_along_deps() {
        let g = microbench::tanh_pw();
        let grid = GridConfig::default();
        let vus = lower(&g, &grid, &CompileOptions::default()).expect("fits");
        let p = place(&vus, &grid).expect("places");
        for (i, vu) in vus.iter().enumerate() {
            for d in &vu.deps {
                assert!(p.levels[d.0 as usize] < p.levels[i]);
            }
        }
    }

    #[test]
    fn distance_is_manhattan() {
        let p = Placement { positions: vec![(0, 0), (3, 4)], levels: vec![0, 1] };
        assert_eq!(p.distance(0, 1), 7);
        assert_eq!(p.distance(1, 0), 7);
    }
}
