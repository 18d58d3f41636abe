//! Edge-membership filter for support init: a blocked Bloom filter over
//! unordered vertex pairs.
//!
//! Pass 1 of [`super::support::sharded_supports`] ships a wedge
//! `(u; v, w)` whose middle vertex `v` lives in another shard only when
//! the edge `(v, w)` may exist. The filter answers that with no false
//! negatives — every real triangle still gets its probe, so supports stay
//! exact at any filter size, and a saturated filter merely passes every
//! candidate — and with a false-positive rate set by its bits per edge.
//!
//! All bits of a key sit in one 64-byte block, one bit in each of the
//! block's eight words (the split-block layout), so a lookup costs one
//! cache miss. At ~10 bits per edge that gives a false-positive rate
//! near 1%.

use truss_graph::{Edge, VertexId};
use truss_storage::window::{Window, PAGE_BYTES};
use truss_storage::{AnonWords, IoTracker};

/// Bits the filter aims to spend per edge.
const BITS_PER_EDGE: usize = 10;

/// Words per block: one cache line, one bit of every key in each word.
const WORDS: usize = 8;

/// Odd multipliers that pick a key's bit in each word of its block (the
/// salts of the split-block Bloom filter layout).
const SALT: [u32; WORDS] = [
    0x47b6_137b,
    0x4497_4d91,
    0x8824_ad5b,
    0xa2b7_289d,
    0x7054_95c7,
    0x2df1_424b,
    0x9efc_4947,
    0x5c6b_fb31,
];

/// A blocked Bloom filter over unordered vertex pairs. The words sit in
/// a page-aligned anonymous mapping ([`AnonWords`]), so every block is
/// one cache line and dropping the filter hands its pages straight back
/// to the kernel.
pub struct EdgeFilter {
    words: AnonWords,
}

impl EdgeFilter {
    /// Size of one block, the filter's allocation unit.
    pub const BLOCK_BYTES: usize = WORDS * 8;

    /// The filter size for `m` edges under a memory budget: about 10 bits
    /// per edge, at most an eighth of the budget, at least one block.
    pub fn bytes_for(m: usize, budget: usize) -> usize {
        (m * BITS_PER_EDGE / 8)
            .min(budget / 8)
            .max(Self::BLOCK_BYTES)
    }

    /// An empty filter of `bytes` rounded down to whole blocks (at least
    /// one).
    fn with_bytes(bytes: usize) -> EdgeFilter {
        let blocks = (bytes / Self::BLOCK_BYTES).max(1);
        EdgeFilter {
            words: AnonWords::zeroed(blocks * WORDS),
        }
    }

    /// Builds a filter of `bytes` over every edge in `edges` — one
    /// sequential scan, streamed through `window` a chunk at a time and
    /// recorded on `tracker`, so the section's residency stays within
    /// the window budget.
    pub fn build(
        edges: &[Edge],
        bytes: usize,
        window: &mut Window,
        tracker: &IoTracker,
    ) -> EdgeFilter {
        let mut filter = EdgeFilter::with_bytes(bytes);
        tracker.record_scan();
        let chunk_bytes = (window.budget() / 4).max(PAGE_BYTES);
        window.for_chunks(edges, chunk_bytes, |_, chunk| {
            tracker.record_read(std::mem::size_of_val(chunk) as u64);
            for e in chunk {
                filter.insert(e.u, e.v);
            }
        });
        // Fault-around maps pages just outside each chunk; drop them all.
        window.release_section(edges);
        filter
    }

    /// Adds the pair `{u, v}`.
    fn insert(&mut self, u: VertexId, v: VertexId) {
        let (block, masks) = self.locate(u, v);
        let words = &mut self.words.as_mut_slice()[block * WORDS..][..WORDS];
        for (word, mask) in words.iter_mut().zip(masks) {
            *word |= mask;
        }
    }

    /// Whether `{u, v}` may have been inserted: `false` is exact, `true`
    /// is wrong at the false-positive rate.
    pub fn may_contain(&self, u: VertexId, v: VertexId) -> bool {
        let (block, masks) = self.locate(u, v);
        let words = &self.words.as_slice()[block * WORDS..][..WORDS];
        // Branch-free over the words: a non-member misses each word's bit
        // about half the time, so a per-word early exit would mispredict
        // on nearly every lookup.
        let missing = words
            .iter()
            .zip(masks)
            .fold(0, |acc, (word, mask)| acc | (mask & !word));
        missing == 0
    }

    /// The block of `{u, v}` and its bit in each of the block's words.
    fn locate(&self, u: VertexId, v: VertexId) -> (usize, [u64; WORDS]) {
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        let h = mix(((lo as u64) << 32) | hi as u64);
        let blocks = self.words.as_slice().len() / WORDS;
        // High bits choose the block (multiply-shift, no modulo), low
        // bits the word bits.
        let block = ((h as u128 * blocks as u128) >> 64) as usize;
        let x = h as u32;
        (block, SALT.map(|s| 1u64 << (x.wrapping_mul(s) >> 26)))
    }
}

/// The murmur3 64-bit finalizer: every input bit reaches every output bit.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outofcore::outofcore_minimum_budget;
    use truss_graph::generators::{gnm, rmat, RmatConfig};
    use truss_graph::CsrGraph;

    fn built(g: &CsrGraph, bytes: usize) -> EdgeFilter {
        let mut window = Window::new(1 << 16, g.is_mapped());
        EdgeFilter::build(g.edges(), bytes, &mut window, &IoTracker::new())
    }

    fn assert_no_false_negatives(g: &CsrGraph, f: &EdgeFilter) {
        for e in g.edges() {
            assert!(f.may_contain(e.u, e.v) && f.may_contain(e.v, e.u), "{e:?}");
        }
    }

    #[test]
    fn every_inserted_edge_queries_true_at_any_size() {
        let graphs = [
            gnm(300, 2000, 0xf11),
            gnm(5000, 40_000, 0xf12),
            rmat(RmatConfig::skewed(10, 12_000), 0xf13),
        ];
        for g in &graphs {
            let m = g.num_edges();
            // The size the engine picks at its smallest budget, the
            // 10-bit target, and a single saturated block.
            let smallest = EdgeFilter::bytes_for(m, outofcore_minimum_budget(g));
            for bytes in [smallest, m * 10 / 8, EdgeFilter::BLOCK_BYTES] {
                assert_no_false_negatives(g, &built(g, bytes));
            }
        }
    }

    #[test]
    fn ten_bits_per_edge_keeps_false_positives_near_one_percent() {
        let g = gnm(20_000, 100_000, 0xf14);
        let f = built(&g, EdgeFilter::bytes_for(g.num_edges(), usize::MAX));
        // Ask about pairs that are not edges; count how many pass anyway.
        let mut passed = 0usize;
        let mut asked = 0usize;
        for v in 0..9_000u32 {
            for d in [10_001u32, 10_003, 10_007] {
                if g.edge_id(v, v + d).is_none() {
                    asked += 1;
                    passed += f.may_contain(v, v + d) as usize;
                }
            }
        }
        assert!(
            passed * 100 <= asked * 2,
            "{passed} of {asked} non-edges passed"
        );
    }

    #[test]
    fn sizing_follows_edges_and_caps_at_an_eighth_of_the_budget() {
        assert_eq!(EdgeFilter::bytes_for(8000, 1 << 30), 10_000);
        assert_eq!(EdgeFilter::bytes_for(8000, 1 << 14), 2048);
        assert_eq!(EdgeFilter::bytes_for(0, 0), EdgeFilter::BLOCK_BYTES);
        assert_eq!(EdgeFilter::with_bytes(100).words.as_slice().len(), 8);
    }
}
