//! The one input shape of every trainer: a flat, row-major feature set.
//!
//! A feature set of `n` rows of `width` features is one `Vec<f32>` of
//! `n × width` values, row after row, served as `&[f32]` slices. A
//! ragged set cannot be built, so a trainer checks the width once, not
//! per row, and a set of many short rows costs one allocation instead of
//! one per row.

use std::ops::Index;
use std::slice::{ChunksExact, ChunksExactMut};

/// A feature set: rows of equal width stored back to back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rows {
    data: Vec<f32>,
    width: usize,
}

impl Rows {
    /// Wraps `data` as rows of `width` features.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of rows (any value is not,
    /// at a `width` of 0).
    pub fn new(data: Vec<f32>, width: usize) -> Self {
        assert!(
            data.len().is_multiple_of(width),
            "{} values are not whole rows of {width}",
            data.len()
        );
        Self { data, width }
    }

    /// Features per row (0 for a set built from no rows).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// Whether the set holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Every value, row after row.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// The rows, in order.
    pub fn iter(&self) -> ChunksExact<'_, f32> {
        self.data.chunks_exact(self.width.max(1))
    }

    /// The rows, in order, mutably.
    pub fn iter_mut(&mut self) -> ChunksExactMut<'_, f32> {
        self.data.chunks_exact_mut(self.width.max(1))
    }

    /// Reorders the rows in place so that row `k` becomes the row that
    /// was at `order[k]`: one pass over each cycle of the permutation,
    /// with one row of scratch.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..self.len()`.
    pub fn permute(&mut self, order: &[usize]) {
        let (n, w) = (self.len(), self.width);
        assert_eq!(order.len(), n, "a permutation of {n} rows needs {n} indices");
        let mut placed = vec![false; n];
        let mut held = vec![0.0f32; w];
        for start in 0..n {
            if placed[start] {
                continue;
            }
            held.copy_from_slice(&self.data[start * w..][..w]);
            let mut k = start;
            loop {
                placed[k] = true;
                let from = order[k];
                assert!(from < n, "permutation index {from} is past the {n} rows");
                if from == start {
                    self.data[k * w..][..w].copy_from_slice(&held);
                    break;
                }
                assert!(!placed[from], "row {from} appears twice in the permutation");
                self.data.copy_within(from * w..(from + 1) * w, k * w);
                k = from;
            }
        }
    }

    /// Splits the set in two: `self` keeps rows `..at`, and the rows
    /// from `at` on are returned, both in their order.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Rows {
        assert!(at <= self.len(), "cannot split {} rows at {at}", self.len());
        Rows { data: self.data.split_off(at * self.width), width: self.width }
    }

    /// An owned copy of the set: [`Clone::clone`] under a slice's name,
    /// so code written against a slice of rows (`features().to_vec()`)
    /// still compiles.
    pub fn to_vec(&self) -> Rows {
        self.clone()
    }
}

impl Index<usize> for Rows {
    type Output = [f32];

    fn index(&self, row: usize) -> &[f32] {
        &self.data[row * self.width..][..self.width]
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [f32];
    type IntoIter = ChunksExact<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Copies the rows into one flat set; its width is the first row's (0
/// when there are none).
///
/// # Panics
///
/// Panics if the rows have different widths (naming the first that
/// differs), or the first row is empty.
impl<R: AsRef<[f32]>> FromIterator<R> for Rows {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Self {
        let mut rows = rows.into_iter();
        let Some(first) = rows.next() else { return Self::default() };
        let first = first.as_ref();
        let width = first.len();
        assert!(width > 0, "a feature row needs at least one feature");
        let mut data = Vec::with_capacity(width * (1 + rows.size_hint().0));
        data.extend_from_slice(first);
        for (i, row) in rows.enumerate() {
            let row = row.as_ref();
            assert!(
                row.len() == width,
                "inconsistent feature widths: row {} has {} features, row 0 has {width}",
                i + 1,
                row.len()
            );
            data.extend_from_slice(row);
        }
        Self { data, width }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn fixture(n: usize, width: usize) -> Vec<Vec<f32>> {
        (0..n).map(|r| (0..width).map(|c| (r * 10 + c) as f32).collect()).collect()
    }

    #[test]
    fn rows_are_served_in_order() {
        let rows: Rows = fixture(3, 2).into_iter().collect();
        assert_eq!((rows.len(), rows.width()), (3, 2));
        assert_eq!(&rows[1], &[10.0, 11.0]);
        assert_eq!(rows.as_flat(), &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        assert_eq!(rows.iter().collect::<Vec<_>>(), fixture(3, 2));
        assert_eq!(Rows::new(rows.as_flat().to_vec(), 2), rows);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature widths: row 2 has 1 features, row 0 has 2")]
    fn a_ragged_input_panics_naming_the_row() {
        let _: Rows = [vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0]].into_iter().collect();
    }

    #[test]
    #[should_panic(expected = "5 values are not whole rows of 2")]
    fn a_flat_input_of_part_rows_panics() {
        let _ = Rows::new(vec![0.0; 5], 2);
    }

    #[test]
    fn no_rows_make_an_empty_set() {
        let rows: Rows = Vec::<Vec<f32>>::new().into_iter().collect();
        assert!(rows.is_empty());
        assert_eq!((rows.len(), rows.width(), rows.iter().count()), (0, 0, 0));
    }

    #[test]
    fn permute_equals_the_per_row_shuffle() {
        // The shuffle `Dataset` ran on a row of `Vec`s: draw an order,
        // then take each row from its index.
        for (n, seed) in [(1, 0), (2, 1), (7, 2), (64, 3), (101, 4)] {
            let per_row = fixture(n, 3);
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed));
            let want: Vec<Vec<f32>> = order.iter().map(|&i| per_row[i].clone()).collect();
            let mut rows: Rows = per_row.iter().collect();
            rows.permute(&order);
            assert_eq!(rows, want.iter().collect(), "{n} rows, seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "row 1 appears twice in the permutation")]
    fn permute_rejects_a_repeated_index() {
        fixture(3, 2).iter().collect::<Rows>().permute(&[1, 1, 0]);
    }

    #[test]
    fn split_off_keeps_row_order_at_every_cut() {
        let per_row = fixture(5, 2);
        for at in [0, 2, 5] {
            let mut head: Rows = per_row.iter().collect();
            let tail = head.split_off(at);
            assert_eq!(head.iter().collect::<Vec<_>>(), per_row[..at], "head at {at}");
            assert_eq!(tail.iter().collect::<Vec<_>>(), per_row[at..], "tail at {at}");
            assert_eq!((head.width(), tail.width()), (2, 2));
        }
    }
}
