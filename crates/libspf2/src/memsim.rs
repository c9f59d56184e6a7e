//! A simulated heap with bounds-checked writes.
//!
//! Rust will not let us corrupt real memory, which is rather the point of
//! the language — but the reproduction needs the *corruption itself* to be
//! an observable outcome. [`MemSim`] provides C-`malloc`-shaped
//! allocations whose writes are bounds-checked: in-bounds writes land in
//! the buffer, out-of-bounds writes are captured as [`OverflowEvent`]s
//! (the bytes that would have landed in adjacent heap memory).

use std::fmt;

/// Handle to one simulated allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId(usize);

/// One byte written past the end of an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverflowEvent {
    /// The allocation overflowed.
    pub alloc: AllocId,
    /// Offset of the write relative to the allocation start; always
    /// `>= size`.
    pub offset: usize,
    /// The byte that would have corrupted adjacent memory.
    pub value: u8,
}

#[derive(Debug)]
struct Allocation {
    data: Vec<u8>,
    freed: bool,
}

/// A simulated heap.
#[derive(Debug, Default)]
pub struct MemSim {
    allocations: Vec<Allocation>,
    overflows: Vec<OverflowEvent>,
    use_after_free: usize,
}

impl MemSim {
    /// A fresh heap.
    pub fn new() -> MemSim {
        MemSim::default()
    }

    /// `malloc(size)`: the returned allocation is zero-initialised (real
    /// malloc gives garbage; zeroes keep the simulation deterministic).
    pub fn alloc(&mut self, size: usize) -> AllocId {
        self.allocations.push(Allocation {
            data: vec![0; size],
            freed: false,
        });
        AllocId(self.allocations.len() - 1)
    }

    /// The size of an allocation.
    pub fn size_of(&self, id: AllocId) -> usize {
        self.allocations[id.0].data.len()
    }

    /// Write one byte at `offset`. Out-of-bounds writes are recorded as
    /// overflow events instead of landing anywhere.
    pub fn write(&mut self, id: AllocId, offset: usize, value: u8) {
        let alloc = &mut self.allocations[id.0];
        if alloc.freed {
            self.use_after_free += 1;
            return;
        }
        if offset < alloc.data.len() {
            alloc.data[offset] = value;
        } else {
            self.overflows.push(OverflowEvent {
                alloc: id,
                offset,
                value,
            });
        }
    }

    /// Write a byte slice starting at `offset`.
    pub fn write_bytes(&mut self, id: AllocId, offset: usize, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write(id, offset + i, b);
        }
    }

    /// `free(ptr)`. Further writes count as use-after-free.
    pub fn free(&mut self, id: AllocId) {
        self.allocations[id.0].freed = true;
    }

    /// The in-bounds contents of an allocation.
    pub fn read(&self, id: AllocId) -> &[u8] {
        &self.allocations[id.0].data
    }

    /// The in-bounds contents up to the first NUL, as a string — how C
    /// code would consume the buffer.
    pub fn read_cstr(&self, id: AllocId) -> String {
        let data = self.read(id);
        let end = data.iter().position(|&b| b == 0).unwrap_or(data.len());
        String::from_utf8_lossy(&data[..end]).into_owned()
    }

    /// All overflow events so far.
    pub fn overflow_events(&self) -> &[OverflowEvent] {
        &self.overflows
    }

    /// Whether any write went out of bounds.
    pub fn corrupted(&self) -> bool {
        !self.overflows.is_empty() || self.use_after_free > 0
    }

    /// The largest overrun distance past any allocation's end, in bytes.
    pub fn max_overrun(&self) -> usize {
        self.overflows
            .iter()
            .map(|e| e.offset + 1 - self.size_of(e.alloc))
            .max()
            .unwrap_or(0)
    }

    /// The overflowed bytes for one allocation, in write order — the
    /// attacker-controlled data that would have smashed the heap.
    pub fn overflowed_bytes(&self, id: AllocId) -> Vec<u8> {
        self.overflows
            .iter()
            .filter(|e| e.alloc == id)
            .map(|e| e.value)
            .collect()
    }

    /// Number of use-after-free writes observed.
    #[cfg(test)]
    pub(crate) fn use_after_free_count(&self) -> usize {
        self.use_after_free
    }

    /// Forget all allocations and events (fresh heap between expansions).
    pub fn reset(&mut self) {
        self.allocations.clear();
        self.overflows.clear();
        self.use_after_free = 0;
    }
}

impl fmt::Display for MemSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MemSim: {} allocations, {} overflow bytes, max overrun {}",
            self.allocations.len(),
            self.overflows.len(),
            self.max_overrun()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_bounds_writes_land() {
        let mut mem = MemSim::new();
        let id = mem.alloc(4);
        mem.write_bytes(id, 0, b"abc\0");
        assert_eq!(mem.read_cstr(id), "abc");
        assert!(!mem.corrupted());
        assert_eq!(mem.max_overrun(), 0);
    }

    #[test]
    fn out_of_bounds_writes_are_events() {
        let mut mem = MemSim::new();
        let id = mem.alloc(4);
        mem.write_bytes(id, 0, b"abcdef");
        assert!(mem.corrupted());
        assert_eq!(mem.overflow_events().len(), 2);
        assert_eq!(mem.overflowed_bytes(id), b"ef");
        assert_eq!(mem.max_overrun(), 2);
        // The in-bounds part is intact.
        assert_eq!(mem.read(id), b"abcd");
    }

    #[test]
    fn use_after_free_is_tracked() {
        let mut mem = MemSim::new();
        let id = mem.alloc(4);
        mem.free(id);
        mem.write(id, 0, b'x');
        assert!(mem.corrupted());
        assert_eq!(mem.use_after_free_count(), 1);
    }

    #[test]
    fn cstr_reads_stop_at_nul() {
        let mut mem = MemSim::new();
        let id = mem.alloc(8);
        mem.write_bytes(id, 0, b"ab\0cd");
        assert_eq!(mem.read_cstr(id), "ab");
    }

    #[test]
    fn reset_clears_everything() {
        let mut mem = MemSim::new();
        let id = mem.alloc(1);
        mem.write(id, 5, 1);
        assert!(mem.corrupted());
        mem.reset();
        assert!(!mem.corrupted());
        assert_eq!(mem.overflow_events().len(), 0);
    }

    #[test]
    fn overrun_distance_counts_from_allocation_end() {
        let mut mem = MemSim::new();
        let id = mem.alloc(10);
        mem.write(id, 25, 0xff);
        assert_eq!(mem.max_overrun(), 16);
    }
}
