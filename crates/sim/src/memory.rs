//! Flat sparse memory and the set-associative L1 data cache model.

use std::collections::HashMap;

use crate::config::CacheConfig;

/// Sparse byte-addressable memory (4 KiB pages, zero-fill on first touch).
#[derive(Debug, Default, Clone)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; 4096]>>,
}

impl Memory {
    /// Empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn page(&mut self, addr: u64) -> &mut [u8; 4096] {
        self.pages
            .entry(addr >> 12)
            .or_insert_with(|| Box::new([0; 4096]))
    }

    /// Read one byte.
    pub fn read_u8(&mut self, addr: u64) -> u8 {
        self.page(addr)[(addr & 0xfff) as usize]
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page(addr)[(addr & 0xfff) as usize] = value;
    }

    /// Read one byte without allocating a page (missing pages read zero).
    /// Lets post-run state comparison walk addresses from another run
    /// without perturbing this memory's footprint.
    pub fn peek_u8(&self, addr: u64) -> u8 {
        self.pages
            .get(&(addr >> 12))
            .map_or(0, |p| p[(addr & 0xfff) as usize])
    }

    /// Read `n <= 8` bytes little-endian: one page lookup, two when the
    /// access crosses a page boundary.
    pub fn read(&mut self, addr: u64, n: u8) -> u64 {
        let mut bytes = [0u8; 8];
        let (n, head) = Memory::split(addr, n);
        let off = (addr & 0xfff) as usize;
        bytes[..head].copy_from_slice(&self.page(addr)[off..off + head]);
        if head < n {
            let rest = addr.wrapping_add(head as u64);
            bytes[head..n].copy_from_slice(&self.page(rest)[..n - head]);
        }
        u64::from_le_bytes(bytes)
    }

    /// Write `n <= 8` bytes little-endian: one page lookup, two when the
    /// access crosses a page boundary.
    pub fn write(&mut self, addr: u64, value: u64, n: u8) {
        let bytes = value.to_le_bytes();
        let (n, head) = Memory::split(addr, n);
        let off = (addr & 0xfff) as usize;
        self.page(addr)[off..off + head].copy_from_slice(&bytes[..head]);
        if head < n {
            let rest = addr.wrapping_add(head as u64);
            self.page(rest)[..n - head].copy_from_slice(&bytes[head..n]);
        }
    }

    /// An access of `n` bytes at `addr` as (total bytes, bytes on the
    /// first page).
    fn split(addr: u64, n: u8) -> (usize, usize) {
        let n = usize::from(n.min(8));
        (n, n.min(4096 - (addr & 0xfff) as usize))
    }

    /// Number of touched pages (for tests / footprint checks).
    pub fn pages_touched(&self) -> usize {
        self.pages.len()
    }
}

/// One cache line's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    /// LRU stamp: larger = more recently used.
    lru: u64,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line absent; filled from memory.
    Miss,
}

/// Set-associative L1 data cache with LRU replacement and non-temporal
/// fills (§III.E.k): a non-temporal access is constrained to a single way,
/// so streaming data cannot evict more than 1/ways of a set.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Option<Line>>>,
    stamp: u64,
}

impl Cache {
    /// Empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = vec![vec![None; config.ways]; config.sets];
        Cache {
            config,
            sets,
            stamp: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_size;
        let set = (line % self.config.sets as u64) as usize;
        let tag = line / self.config.sets as u64;
        (set, tag)
    }

    /// Access `addr`; `non_temporal` restricts the fill to way 0.
    pub fn access(&mut self, addr: u64, non_temporal: bool) -> Access {
        self.stamp += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let set = &mut self.sets[set_idx];
        // Hit?
        for slot in set.iter_mut() {
            if let Some(line) = slot {
                if line.tag == tag {
                    line.lru = self.stamp;
                    return Access::Hit;
                }
            }
        }
        // Miss: pick victim.
        if non_temporal {
            // Non-temporal data always replaces way 0 ("replacing a single
            // way in the associative caches").
            set[0] = Some(Line {
                tag,
                lru: self.stamp,
            });
        } else {
            let victim = (0..set.len())
                .min_by_key(|&w| set[w].map_or(0, |l| l.lru))
                .expect("cache has at least one way");
            set[victim] = Some(Line {
                tag,
                lru: self.stamp,
            });
        }
        Access::Miss
    }

    /// Is the line containing `addr` present (without touching LRU)?
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.sets[set_idx]
            .iter()
            .flatten()
            .any(|line| line.tag == tag)
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        Cache::new(CacheConfig {
            line_size: 64,
            sets: 2,
            ways: 2,
            hit_latency: 3,
            miss_latency: 50,
        })
    }

    #[test]
    fn memory_read_write_roundtrip() {
        let mut m = Memory::new();
        m.write(0x1000, 0x1122334455667788, 8);
        assert_eq!(m.read(0x1000, 8), 0x1122334455667788);
        assert_eq!(m.read(0x1000, 4), 0x55667788);
        assert_eq!(m.read(0x1004, 4), 0x11223344);
        assert_eq!(m.read(0x2000, 8), 0, "untouched memory reads zero");
    }

    #[test]
    fn memory_cross_page_access() {
        let mut m = Memory::new();
        m.write(0xffe, 0xaabbccdd, 4);
        assert_eq!(m.read(0xffe, 4), 0xaabbccdd);
        assert_eq!(m.pages_touched(), 2);
    }

    #[test]
    fn eight_byte_access_straddling_a_page() {
        for addr in 0x1ff9..=0x1fff_u64 {
            let mut m = Memory::new();
            m.write(addr, 0x0102_0304_0506_0708, 8);
            assert_eq!(m.pages_touched(), 2, "{addr:#x}");
            assert_eq!(m.read(addr, 8), 0x0102_0304_0506_0708, "{addr:#x}");
            for i in 0..8 {
                assert_eq!(m.peek_u8(addr + i), 8 - i as u8, "{addr:#x}+{i}");
            }
            assert_eq!(m.peek_u8(addr - 1), 0);
            assert_eq!(m.peek_u8(addr + 8), 0);
            assert_eq!(m.pages_touched(), 2, "peeks allocate nothing");
        }
        // Reads allocate the pages they touch, as byte reads always did.
        let mut m = Memory::new();
        assert_eq!(m.read(0x2ffc, 8), 0);
        assert_eq!(m.pages_touched(), 2);
        assert_eq!(m.read(0x3000, 8), 0);
        assert_eq!(m.pages_touched(), 2, "within the second page");
    }

    #[test]
    fn access_wrapping_the_address_space() {
        let mut m = Memory::new();
        m.write(u64::MAX - 1, 0xaabb_ccdd, 4);
        assert_eq!(m.read(u64::MAX - 1, 4), 0xaabb_ccdd);
        assert_eq!(m.peek_u8(u64::MAX), 0xcc);
        assert_eq!(m.peek_u8(0), 0xbb);
        assert_eq!(m.peek_u8(1), 0xaa);
        assert_eq!(m.pages_touched(), 2);
    }

    #[test]
    fn cache_hit_after_miss() {
        let mut c = small_cache();
        assert_eq!(c.access(0x100, false), Access::Miss);
        assert_eq!(c.access(0x100, false), Access::Hit);
        assert_eq!(c.access(0x13f, false), Access::Hit, "same 64B line");
        assert_eq!(c.access(0x140, false), Access::Miss, "next line");
    }

    #[test]
    fn lru_eviction() {
        let mut c = small_cache();
        // Three lines mapping to the same set (set stride = 2 lines = 128B).
        let a = 0x0;
        let b = 0x80;
        let d = 0x100;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a more recent than b
        c.access(d, false); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn non_temporal_fills_single_way() {
        let mut c = small_cache();
        let hot = 0x0;
        c.access(hot, false);
        // Promote hot out of way 0: touch it again after something lands in
        // way 0? With 2 ways: hot in victim-chosen way. Then stream many
        // non-temporal lines through the same set: hot must survive.
        for i in 1..100u64 {
            c.access(i * 128, true); // all map to set 0, non-temporal
        }
        assert!(c.contains(hot) || !c.contains(hot), "structure intact");
        // Precise claim: after NT streaming, at most way 0 was replaced, so
        // the number of distinct lines evicted from other ways is 0. `hot`
        // was in way 0 or way 1; if way 1, it survived.
        let mut c2 = small_cache();
        c2.access(hot, false); // fills some way (way 0, lru tie -> way 0)
        c2.access(0x80, false); // fills way 1
                                // hot is in way 0; streaming NT will evict it but never way 1.
        for i in 2..50u64 {
            c2.access(i * 128, true);
        }
        assert!(c2.contains(0x80), "non-way-0 line survives NT streaming");
    }

    #[test]
    fn normal_streaming_pollutes() {
        // Contrast: the same streaming without NT evicts everything.
        let mut c = small_cache();
        c.access(0x0, false);
        c.access(0x80, false);
        for i in 2..50u64 {
            c.access(i * 128, false);
        }
        assert!(!c.contains(0x0));
        assert!(!c.contains(0x80));
    }
}
