//! The `malloc/free` baseline ("lea" in Figure 7).
//!
//! The paper compares RC against gcc with "Doug Lea's malloc/free
//! replacement library", and for originally-region-based benchmarks it uses
//! "a simple region-emulation library that uses malloc and free to allocate
//! and free each individual object". This module provides a size-class
//! free-list allocator over the shared page store; malloc pages belong to
//! the traditional region, so `regionof` on a malloc'd object reports the
//! traditional region exactly as the paper specifies.

use std::collections::HashMap;

use crate::addr::{Addr, WORDS_PER_PAGE};
use crate::error::RtError;
use crate::heap::Heap;
use crate::layout::TypeId;
use crate::page::PageOwner;
use crate::region::TRADITIONAL;

/// Size classes in payload words. The final class is one full page.
pub const SIZE_CLASSES: [usize; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, WORDS_PER_PAGE];

/// Picks the smallest class holding `words`, or `None` for oversized
/// allocations (which get dedicated page spans).
pub fn size_class(words: usize) -> Option<usize> {
    SIZE_CLASSES.iter().position(|&c| c >= words)
}

/// Metadata for one live malloc allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MallocObj {
    /// Element type.
    pub ty: TypeId,
    /// Element count.
    pub count: u32,
    /// Size class index, or `None` for a dedicated page span.
    pub class: Option<u8>,
    /// For spans: number of pages.
    pub span_pages: u32,
    /// Payload words actually requested.
    pub words: u32,
    /// Source line that performed the allocation (0 = unattributed), for
    /// snapshot retained-word attribution.
    pub site: u32,
}

/// State of the malloc baseline allocator.
#[derive(Debug, Default)]
pub struct MallocState {
    free_lists: Vec<Vec<Addr>>,
    live: HashMap<u64, MallocObj>,
}

impl MallocState {
    /// Empty allocator state.
    pub fn new() -> MallocState {
        MallocState { free_lists: vec![Vec::new(); SIZE_CLASSES.len()], live: HashMap::new() }
    }

    /// Rebuilds malloc state from a snapshot (restore path). Free-list
    /// entries are placeholder slots on the reserved page 0 that only
    /// reproduce per-class depths; a restored heap is for validation and
    /// inspection, and its free lists are depth-faithful, not
    /// address-faithful (snapshots record depths only).
    pub(crate) fn from_snapshot(
        free_lists: Vec<Vec<Addr>>,
        live: HashMap<u64, MallocObj>,
    ) -> MallocState {
        debug_assert_eq!(free_lists.len(), SIZE_CLASSES.len());
        MallocState { free_lists, live }
    }

    /// Live allocation metadata for the auditor.
    pub fn live_objects(&self) -> impl Iterator<Item = (Addr, &MallocObj)> + '_ {
        self.live.iter().map(|(&a, o)| (Addr::from_raw(a), o))
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Total free slots across all size-class free lists — the timeline's
    /// external-fragmentation gauge for the malloc baseline (slots carved
    /// or freed but not currently serving an allocation).
    pub fn free_list_depth(&self) -> usize {
        self.free_lists.iter().map(Vec::len).sum()
    }

    /// Free slots per size class, parallel to [`SIZE_CLASSES`] — the
    /// snapshot's fragmentation breakdown.
    pub fn free_list_depths(&self) -> Vec<u32> {
        self.free_lists.iter().map(|l| l.len() as u32).collect()
    }
}

impl Heap {
    /// `malloc`-style allocation of `count` elements of `ty` into the
    /// traditional region's heap.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::OutOfMemory`] if the page budget is exhausted.
    pub fn m_alloc(&mut self, ty: TypeId, count: u32) -> Result<Addr, RtError> {
        debug_assert!(count >= 1);
        self.fault_alloc_tick()?;
        let words = self.types.get(ty).size_words() * count as usize;
        let mut cycles = self.costs.malloc_alloc;
        let addr = match size_class(words) {
            Some(class) => {
                if self.malloc.free_lists[class].is_empty() {
                    // Carve a fresh page into objects of this class.
                    cycles += self.costs.malloc_slow_extra;
                    let stride = SIZE_CLASSES[class];
                    let (page, recycled) = self
                        .store
                        .acquire2(PageOwner::Region(TRADITIONAL))
                        .map_err(|e| self.fault_stamp_oom(e))?;
                    let per_page = WORDS_PER_PAGE / stride;
                    for i in (0..per_page).rev() {
                        self.malloc.free_lists[class]
                            .push(Addr::from_parts(page, (i * stride) as u32));
                    }
                    cycles +=
                        if recycled { self.costs.page_recycle } else { self.costs.page_fetch };
                }
                let addr = self.malloc.free_lists[class].pop().expect("list refilled");
                // Recycled slots may hold stale data.
                for w in 0..SIZE_CLASSES[class] {
                    self.store.write(addr.offset(w), 0);
                }
                self.malloc.live.insert(
                    addr.raw(),
                    MallocObj {
                        ty,
                        count,
                        class: Some(class as u8),
                        span_pages: 0,
                        words: words as u32,
                        site: self.trace_site,
                    },
                );
                addr
            }
            None => {
                let span = words.div_ceil(WORDS_PER_PAGE);
                cycles += self.costs.malloc_slow_extra + span as u64 * self.costs.page_fetch;
                let first = self
                    .store
                    .acquire_span(PageOwner::Region(TRADITIONAL), span)
                    .map_err(|e| self.fault_stamp_oom(e))?;
                let addr = Addr::from_parts(first, 0);
                self.malloc.live.insert(
                    addr.raw(),
                    MallocObj {
                        ty,
                        count,
                        class: None,
                        span_pages: span as u32,
                        words: words as u32,
                        site: self.trace_site,
                    },
                );
                addr
            }
        };
        self.stats.alloc_cycles += cycles;
        self.clock.charge(cycles);
        self.stats.malloc_calls += 1;
        self.stats.objects_allocated += 1;
        self.stats.words_allocated += words as u64;
        self.stats.add_live(words as u64);
        // malloc objects belong to the traditional region.
        self.emit_alloc(TRADITIONAL, words);
        self.sample_tick();
        Ok(addr)
    }

    /// `free` of a malloc'd object.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::InvalidFree`] if `addr` is not a live malloc
    /// allocation (double free, or a pointer from another allocator).
    pub fn m_free(&mut self, addr: Addr) -> Result<(), RtError> {
        let obj = self.malloc.live.remove(&addr.raw()).ok_or(RtError::InvalidFree { addr })?;
        match obj.class {
            Some(class) => self.malloc.free_lists[class as usize].push(addr),
            None => {
                for p in 0..obj.span_pages {
                    self.store.release(addr.page() + p);
                }
            }
        }
        self.clock.charge(self.costs.malloc_free);
        self.stats.free_calls += 1;
        self.stats.sub_live(obj.words as u64);
        self.sample_tick();
        Ok(())
    }

    /// Live malloc allocation count (test helper).
    pub fn m_live_count(&self) -> usize {
        self.malloc.live_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TypeLayout;

    fn setup() -> (Heap, TypeId, TypeId) {
        let mut h = Heap::with_defaults();
        let small = h.register_type(TypeLayout::data("small", 3));
        let big = h.register_type(TypeLayout::data("big", 2000));
        (h, small, big)
    }

    #[test]
    fn size_class_selection() {
        assert_eq!(size_class(1), Some(0));
        assert_eq!(size_class(3), Some(2));
        assert_eq!(size_class(4), Some(2));
        assert_eq!(size_class(5), Some(3));
        assert_eq!(size_class(WORDS_PER_PAGE), Some(10));
        assert_eq!(size_class(WORDS_PER_PAGE + 1), None);
    }

    #[test]
    fn malloc_objects_are_traditional() {
        let (mut h, small, _) = setup();
        let a = h.m_alloc(small, 1).unwrap();
        assert_eq!(h.region_of(a), Ok(TRADITIONAL));
    }

    #[test]
    fn free_list_recycles_slots() {
        let (mut h, small, _) = setup();
        let a = h.m_alloc(small, 1).unwrap();
        h.write_int(a, 0, 7).unwrap();
        h.m_free(a).unwrap();
        let b = h.m_alloc(small, 1).unwrap();
        assert_eq!(a, b, "same class reuses the freed slot (LIFO)");
        assert_eq!(h.read_word(b, 0).unwrap(), 0, "recycled memory is zeroed");
    }

    #[test]
    fn double_free_detected() {
        let (mut h, small, _) = setup();
        let a = h.m_alloc(small, 1).unwrap();
        h.m_free(a).unwrap();
        assert_eq!(h.m_free(a), Err(RtError::InvalidFree { addr: a }));
    }

    #[test]
    fn large_objects_use_page_spans() {
        let (mut h, _, big) = setup();
        let a = h.m_alloc(big, 1).unwrap();
        assert_eq!(a.word(), 0);
        let pages_before = h.store.page_count();
        h.m_free(a).unwrap();
        // Freed span pages are recycled by later allocations.
        let b = h.m_alloc(big, 1).unwrap();
        // No net page growth beyond at most the span again.
        assert!(h.store.page_count() <= pages_before + 2);
        assert!(!b.is_null());
    }

    #[test]
    fn live_gauge_tracks_malloc_free() {
        let (mut h, small, _) = setup();
        let a = h.m_alloc(small, 4).unwrap();
        assert_eq!(h.stats.live_words, 12);
        h.m_free(a).unwrap();
        assert_eq!(h.stats.live_words, 0);
        assert_eq!(h.m_live_count(), 0);
    }

    #[test]
    fn free_list_depth_tracks_carving_and_frees() {
        let (mut h, small, _) = setup();
        assert_eq!(h.malloc.free_list_depth(), 0);
        let a = h.m_alloc(small, 1).unwrap();
        // Size class 4 carves a page into 256 slots and hands one out.
        assert_eq!(h.malloc.free_list_depth(), 255);
        h.m_free(a).unwrap();
        assert_eq!(h.malloc.free_list_depth(), 256);
    }

    #[test]
    fn distinct_objects_do_not_alias() {
        let (mut h, small, _) = setup();
        let a = h.m_alloc(small, 1).unwrap();
        let b = h.m_alloc(small, 1).unwrap();
        assert_ne!(a, b);
        h.write_int(a, 2, 1).unwrap();
        h.write_int(b, 0, 2).unwrap();
        assert_eq!(h.read_word(a, 2).unwrap(), 1);
    }
}
