//! Table indexing: a hashed key reduced onto a table's slots.
//!
//! Every stateful table in the pipeline — register arrays, the flow
//! table's slots and buckets, the runtime's shard routing — addresses a
//! cell as `key mod len`. Hardware tables are sized in powers of two so
//! that this is a wire selection, not arithmetic; [`SlotIndex`] is that
//! choice made once per table instead of a 64-bit division per access.

/// `key ↦ key mod len` for one table length, in its cheapest exact form.
///
/// For a power-of-two `len` the remainder *is* the low `log2 len` bits
/// (`key = q·len + r` with `r < len = 2^k` is the binary split of `key`
/// at bit `k`), so [`SlotIndex::reduce`] masks; any other length keeps
/// the division. Both forms return exactly `key % len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotIndex {
    len: u64,
    /// `len − 1` when `len` is a power of two.
    mask: Option<u64>,
}

impl SlotIndex {
    /// The reducer of a table with `len` slots.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn of(len: usize) -> Self {
        assert!(len > 0, "a table needs at least one slot");
        let len = len as u64;
        Self { len, mask: len.is_power_of_two().then(|| len - 1) }
    }

    /// `key % len`.
    #[inline]
    pub fn reduce(self, key: u64) -> usize {
        (match self.mask {
            Some(mask) => key & mask,
            None => key % self.len,
        }) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_is_remainder(len: usize, key: u64) {
        let index = SlotIndex::of(len);
        for key in [0, 1, len as u64 - 1, len as u64, len as u64 + 1, u64::MAX, key] {
            assert_eq!(index.reduce(key) as u64, key % len as u64, "len={len} key={key}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn a_table_without_slots_is_rejected() {
        SlotIndex::of(0);
    }

    proptest! {
        #[test]
        fn reduce_is_the_remainder(
            key in any::<u64>(),
            log2 in 0u32..64,
            odd in any::<u64>(),
            wide in (1u64 << 32) + 1..u64::MAX,
        ) {
            assert_is_remainder(1, key);
            assert_is_remainder(1usize << log2, key);
            assert_is_remainder((odd | 1) as usize, key);
            assert_is_remainder(wide as usize, key);
        }
    }
}
