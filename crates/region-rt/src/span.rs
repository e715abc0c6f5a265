//! Region lifecycle spans: the causality layer over the event stream.
//!
//! The trace ring ([`crate::trace`]) answers *which event*; the timeline
//! ([`crate::timeline`]) answers *when*. This module adds *structure*:
//! every region's lifecycle (`newregion` → `deleteregion`) is a [`Span`]
//! in a parent/child tree mirroring the DFS `id`/`nextid` hierarchy of
//! [`crate::region`], and every alloc / rc-update / check / collection /
//! injected fault [`Event`] is attached to its owning span as a
//! virtual-clock-stamped note. The tree is a fold over the same stream
//! the tracer records ([`SpanTree::fold`]); it is what the Perfetto
//! exporter in `rc-bench` renders (spans on tracks, notes as instants)
//! and what the fuzzer's well-formedness oracle cross-checks.
//!
//! Design constraints, shared with the rest of the telemetry stack (see
//! `docs/OBSERVABILITY.md`):
//!
//! - **Pay only when enabled.** The tree is one consumer of the event
//!   stream ([`sink::SPANS`]); it is `None` — the default — unless
//!   [`Heap::enable_spans`] or [`Heap::enable_tracing`] was called.
//! - **Bounded notes, exact aggregates.** Raw notes live in a bounded
//!   vector (newest dropped when full, never reallocated past the cap),
//!   but per-span counters and the per-check-site table are folded at
//!   emission time, so totals stay exact no matter how many notes were
//!   dropped.
//! - **Deterministic.** Spans and notes are stamped by the virtual
//!   clock only; two runs of the same program produce identical trees.
//!
//! Span indices equal region indices: the runtime never reuses a region
//! slot, so `spans()[r]` is region `r`'s span for the whole run.
//!
//! The spans are the only per-region record of the telemetry stack: the
//! profile's region rows, its lifetime histogram and the region
//! flamegraph are views of them ([`Span::touched`],
//! [`SpanTree::lifetime_histogram`], [`SpanTree::flamegraph`]).

use crate::checkcount::{CheckCounter, NO_CHECK_SITE};
use crate::cost::Cycles;
use crate::heap::Heap;
use crate::region::{is_ancestor, RegionData, TRADITIONAL};
use crate::trace::{sink, Event, NO_REGION};

/// Default bound on retained raw notes.
pub const DEFAULT_SPAN_NOTE_CAP: usize = 256 * 1024;

/// Number of log₂ lifetime buckets: bucket 0 holds lifetime 0, bucket
/// `i ≥ 1` holds lifetimes in `[2^(i-1), 2^i)`.
pub const LIFETIME_BUCKETS: usize = 65;

/// One region lifecycle. `region` is the raw
/// [`RegionId`](crate::region::RegionId) index; the span for region `r`
/// sits at index `r` of [`SpanTree::spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The region this span covers.
    pub region: u32,
    /// Parent region ([`NO_REGION`] for the traditional root). A span
    /// seeded at attach takes the region's parent from the heap.
    pub parent: u32,
    /// Virtual time of `newregion`/`newsubregion` (the region's
    /// `born_at`, so durations equal the deletion event's
    /// `lifetime_cycles`).
    pub opened_at: Cycles,
    /// Virtual time of the creation event, after the creation charge
    /// (0 unless `folded_create`).
    pub created_at: Cycles,
    /// Whether the creation was folded from the stream rather than
    /// seeded at attach.
    pub folded_create: bool,
    /// Whether the reclamation was folded from the stream.
    pub folded_delete: bool,
    /// Virtual time of reclamation; `None` while the region is live.
    pub closed_at: Option<Cycles>,
    /// Objects allocated into the region.
    pub allocs: u64,
    /// Words allocated into the region.
    pub alloc_words: u64,
    /// Reference-count updates on objects of this region.
    pub rc_updates: u64,
    /// Annotation checks on stores into objects of this region.
    pub checks: u64,
    /// The subset of `checks` that failed.
    pub checks_failed: u64,
    /// Injected faults attributed to this span (root span only; fault
    /// planes are process-level).
    pub faults: u64,
    /// Words of storage freed when the span closed.
    pub freed_words: u64,
}

impl Span {
    fn new(region: u32, parent: u32, opened_at: Cycles) -> Span {
        Span {
            region,
            parent,
            opened_at,
            created_at: 0,
            folded_create: false,
            folded_delete: false,
            closed_at: None,
            allocs: 0,
            alloc_words: 0,
            rc_updates: 0,
            checks: 0,
            checks_failed: 0,
            faults: 0,
            freed_words: 0,
        }
    }

    /// Span duration: reclamation minus creation (`None` while open).
    pub fn duration(&self) -> Option<Cycles> {
        self.closed_at.map(|c| c.saturating_sub(self.opened_at))
    }

    /// Whether a creation, deletion or allocation event of the stream
    /// touched the region: the regions the profile reports.
    pub fn touched(&self) -> bool {
        self.folded_create || self.folded_delete || self.allocs > 0
    }
}

/// The span a retained note is attributed to, and its stamp: allocs,
/// RC updates and checks belong to the region of the touched object;
/// collections and faults to the root span (they are process-level).
/// Region lifecycle and audit events are not notes.
fn note_key(ev: &Event) -> Option<(u32, Cycles)> {
    match *ev {
        Event::Alloc { region, at, .. } | Event::CheckRun { region, at, .. } => Some((region, at)),
        Event::RcUpdate { from, at, .. } => Some((from, at)),
        Event::GcCollection { at, .. } | Event::Fault { at, .. } => Some((TRADITIONAL.0, at)),
        Event::RegionCreated { .. }
        | Event::SubregionCreated { .. }
        | Event::RegionDeleted { .. }
        | Event::AuditRun { .. } => None,
    }
}

/// The span tree of one run: one [`Span`] per region (index = region
/// id), bounded raw notes (the span-scoped [`Event`]s), and exact folded
/// tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    spans: Vec<Span>,
    notes: Vec<Event>,
    note_cap: usize,
    notes_dropped: u64,
    check_sites: CheckCounter,
    verified: Option<Result<(), String>>,
}

impl SpanTree {
    /// An empty tree retaining at most `note_cap` raw notes (clamped to
    /// at least 16).
    pub fn new(note_cap: usize) -> SpanTree {
        SpanTree {
            spans: Vec::new(),
            notes: Vec::new(),
            note_cap: note_cap.max(16),
            notes_dropped: 0,
            check_sites: CheckCounter::new(),
            verified: None,
        }
    }

    /// Rebuilds a tree from snapshot-recorded span aggregates (restore
    /// path). Raw notes are not part of a snapshot, so the restore layer
    /// passes at most one synthetic note per region — just enough to
    /// reproduce the snapshot's `last_touch` stamps.
    pub(crate) fn from_snapshot(spans: Vec<Span>, notes: Vec<Event>) -> SpanTree {
        SpanTree { spans, notes, ..SpanTree::new(DEFAULT_SPAN_NOTE_CAP) }
    }

    /// A tree seeded from an existing region table: every region already
    /// created gets a span (closed with zero duration if already dead,
    /// so the index invariant holds from the first recorded event).
    pub fn seeded(note_cap: usize, regions: &[RegionData]) -> SpanTree {
        let mut t = SpanTree::new(note_cap);
        for (i, rd) in regions.iter().enumerate() {
            let parent = rd.parent.map_or(NO_REGION, |p| p.0);
            let mut s = Span::new(i as u32, parent, rd.born_at);
            if !rd.alive {
                s.closed_at = Some(rd.born_at);
            }
            t.spans.push(s);
        }
        t
    }

    fn open(&mut self, region: u32, parent: u32, born: Cycles, at: Cycles) {
        let mut s = Span::new(region, parent, born);
        (s.created_at, s.folded_create) = (at, true);
        self.spans.push(s);
    }

    /// Grafts another tree's spans into this one under a shard-global
    /// region namespace (shard → global roll-up; see [`crate::shard`]).
    ///
    /// The other tree's region 0 — its facet of the shared traditional
    /// region — folds its counters into this tree's root span; every
    /// other region `r ≥ 1` is renumbered to `len(self) + r - 1`, which
    /// keeps the `spans[i].region == i` index invariant dense. Notes are
    /// appended in emission order with the same renumbering (still
    /// bounded by this tree's note cap), and per-check-site tallies sum.
    /// The merge is associative: `(a ⊔ b) ⊔ c` and `a ⊔ (b ⊔ c)` assign
    /// every region the same global index and the same counters. It is
    /// deliberately *not* commutative — shard order is join order.
    ///
    /// Verification is per-heap (a merged tree spans several region
    /// tables): each side is expected to carry its own
    /// [`SpanTree::verification`] verdict, and the merged tree keeps the
    /// first failure.
    pub fn merge(&mut self, other: &SpanTree) {
        debug_assert!(
            !self.spans.is_empty() || other.spans.is_empty(),
            "merge target must already hold its root span"
        );
        let base = self.spans.len() as u32;
        let remap = |r: u32| {
            if r == TRADITIONAL.0 || r == NO_REGION {
                r
            } else {
                base + r - 1
            }
        };
        for s in &other.spans {
            if s.region == TRADITIONAL.0 {
                if let Some(root) = self.spans.get_mut(TRADITIONAL.0 as usize) {
                    root.allocs += s.allocs;
                    root.alloc_words += s.alloc_words;
                    root.rc_updates += s.rc_updates;
                    root.checks += s.checks;
                    root.checks_failed += s.checks_failed;
                    root.faults += s.faults;
                    root.freed_words += s.freed_words;
                }
                continue;
            }
            let mut ns = *s;
            ns.region = remap(s.region);
            ns.parent = remap(s.parent);
            self.spans.push(ns);
        }
        for n in &other.notes {
            let mut nn = *n;
            match &mut nn {
                Event::Alloc { region, .. } | Event::CheckRun { region, .. } => {
                    *region = remap(*region)
                }
                Event::RcUpdate { from, to, .. } => (*from, *to) = (remap(*from), remap(*to)),
                _ => {}
            }
            self.push_note(nn);
        }
        self.notes_dropped += other.notes_dropped;
        self.check_sites.merge(&other.check_sites);
        if let Some(Err(e)) = &other.verified {
            if !matches!(self.verified, Some(Err(_))) {
                self.verified = Some(Err(e.clone()));
            }
        }
    }

    /// The table-free subset of [`SpanTree::verify`]: index and parent
    /// integrity plus lifetime nesting, checkable on a merged tree that
    /// spans several heaps (and therefore has no single region table to
    /// verify against).
    pub fn structurally_well_formed(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.region as usize != i {
                return Err(format!("span {i} records region {}", s.region));
            }
            if let Some(c) = s.closed_at {
                if c < s.opened_at {
                    return Err(format!("span {i}: closed at {c} before open {}", s.opened_at));
                }
            }
            if s.parent != NO_REGION && self.spans.get(s.parent as usize).is_none() {
                return Err(format!("span {i}: parent {} out of range", s.parent));
            }
        }
        Ok(())
    }

    fn close(&mut self, region: u32, at: Cycles, freed_words: u64) {
        if let Some(s) = self.spans.get_mut(region as usize) {
            s.closed_at = Some(at);
            s.freed_words = freed_words;
            s.folded_delete = true;
        }
    }

    fn push_note(&mut self, note: Event) {
        if self.notes.len() < self.note_cap {
            self.notes.push(note);
        } else {
            self.notes_dropped += 1;
        }
    }

    fn span_mut(&mut self, region: u32) -> Option<&mut Span> {
        self.spans.get_mut(region as usize)
    }

    /// Folds one event: creation opens a span (at the region's `born_at`,
    /// so durations equal the deletion's `lifetime_cycles` exactly),
    /// reclamation closes it, and every other event except audits bumps
    /// its span's counters and is kept as a note. Check events also fold
    /// into the per-check-site table, except unattributed ones
    /// ([`NO_CHECK_SITE`]).
    pub fn fold(&mut self, ev: &Event) {
        match *ev {
            Event::RegionCreated { region, born, at } => self.open(region, TRADITIONAL.0, born, at),
            Event::SubregionCreated { region, parent, born, at } => {
                self.open(region, parent, born, at)
            }
            Event::RegionDeleted { region, live_words, at, .. } => {
                self.close(region, at, live_words)
            }
            Event::Alloc { region, words, .. } => {
                if let Some(s) = self.span_mut(region) {
                    s.allocs += 1;
                    s.alloc_words += words as u64;
                }
            }
            Event::RcUpdate { from, .. } => {
                if let Some(s) = self.span_mut(from) {
                    s.rc_updates += 1;
                }
            }
            Event::CheckRun { region, passed, check_site, .. } => {
                if let Some(s) = self.span_mut(region) {
                    s.checks += 1;
                    if !passed {
                        s.checks_failed += 1;
                    }
                }
                if check_site != NO_CHECK_SITE {
                    self.check_sites.fold(ev);
                }
            }
            Event::Fault { .. } => {
                if let Some(s) = self.span_mut(TRADITIONAL.0) {
                    s.faults += 1;
                }
            }
            Event::GcCollection { .. } | Event::AuditRun { .. } => {}
        }
        if note_key(ev).is_some() {
            self.push_note(*ev);
        }
    }

    /// All spans, region id ascending (index = region id).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Retained raw notes, emission order.
    pub fn notes(&self) -> &[Event] {
        &self.notes
    }

    /// Per region (index < `regions`), the virtual time of the last
    /// retained note touching it (0 when none was retained).
    pub fn last_touch(&self, regions: usize) -> Vec<Cycles> {
        let mut out = vec![0; regions];
        for (r, at) in self.notes.iter().filter_map(note_key) {
            if let Some(t) = out.get_mut(r as usize) {
                *t = (*t).max(at);
            }
        }
        out
    }

    /// Notes discarded because the bound was hit.
    pub fn notes_dropped(&self) -> u64 {
        self.notes_dropped
    }

    /// The note bound this tree was created with.
    pub fn note_cap(&self) -> usize {
        self.note_cap
    }

    /// Exact per-check-site outcome tallies (attributed checks only).
    pub fn check_sites(&self) -> &CheckCounter {
        &self.check_sites
    }

    /// Spans still open.
    pub fn open_count(&self) -> usize {
        self.spans.iter().filter(|s| s.closed_at.is_none()).count()
    }

    /// Spans closed by reclamation.
    pub fn closed_count(&self) -> usize {
        self.spans.iter().filter(|s| s.closed_at.is_some()).count()
    }

    /// Sum of `allocs` over all spans.
    pub fn total_allocs(&self) -> u64 {
        self.spans.iter().map(|s| s.allocs).sum()
    }

    /// Sum of `alloc_words` over all spans.
    pub fn total_alloc_words(&self) -> u64 {
        self.spans.iter().map(|s| s.alloc_words).sum()
    }

    /// Sum of `rc_updates` over all spans.
    pub fn total_rc_updates(&self) -> u64 {
        self.spans.iter().map(|s| s.rc_updates).sum()
    }

    /// Sum of `checks` over all spans.
    pub fn total_checks(&self) -> u64 {
        self.spans.iter().map(|s| s.checks).sum()
    }

    /// Sum of `faults` over all spans.
    pub fn total_faults(&self) -> u64 {
        self.spans.iter().map(|s| s.faults).sum()
    }

    /// The log₂ histogram (see [`LIFETIME_BUCKETS`]) of the lifetimes of
    /// regions whose reclamation was folded from the stream.
    pub fn lifetime_histogram(&self) -> [u64; LIFETIME_BUCKETS] {
        let mut hist = [0; LIFETIME_BUCKETS];
        for s in self.spans.iter().filter(|s| s.folded_delete) {
            hist[log2_bucket(s.duration().unwrap_or(0))] += 1;
        }
        hist
    }

    /// The region flamegraph: the [`Span::touched`] regions as an
    /// indented tree under the traditional root, each sized by the words
    /// allocated in its subtree. A region whose creation was not folded
    /// hangs off the root.
    pub fn flamegraph(&self) -> String {
        let n = self.spans.len().max(1);
        let mut words: Vec<u64> = self.spans.iter().map(|s| s.alloc_words).collect();
        words.resize(n, 0);
        let mut children = vec![Vec::new(); n];
        // A region is created after its parent, so a parent's index is
        // below its children's and one backward pass sums every subtree.
        for (i, s) in self.spans.iter().enumerate().skip(1).rev() {
            if s.touched() {
                let p = match s.parent as usize {
                    p if s.folded_create && p < i => p,
                    _ => TRADITIONAL.0 as usize,
                };
                words[p] += words[i];
                children[p].push(i);
            }
        }
        let total = words[0].max(1);
        let mut out = String::from("region flamegraph (bar ∝ words allocated in subtree)\n");
        let mut stack = vec![(TRADITIONAL.0 as usize, 0usize)];
        while let Some((node, depth)) = stack.pop() {
            let w = words[node];
            let bar_len = ((w as f64 / total as f64) * 40.0).round() as usize;
            let label = if node == TRADITIONAL.0 as usize {
                "r0 (traditional)".to_string()
            } else {
                let dead = if self.spans[node].folded_delete { " †" } else { "" };
                format!("r{node}{dead}")
            };
            out.push_str(&format!(
                "{:indent$}{label:<width$} {w:>10} words  {bar}\n",
                "",
                indent = depth * 2,
                width = 24usize.saturating_sub(depth * 2),
                bar = "#".repeat(bar_len.max(usize::from(w > 0)))
            ));
            // Children were collected in descending order: pushing them
            // as is pops them ascending.
            stack.extend(children[node].iter().map(|&k| (k, depth + 1)));
        }
        out
    }

    /// Stamps the outcome of [`Heap::seal_spans`]' well-formedness
    /// verification into the tree, so consumers that only see the
    /// detached tree (the fuzz oracle, report builders) can read it.
    pub fn set_verified(&mut self, outcome: Result<(), String>) {
        self.verified = Some(outcome);
    }

    /// The stamped verification outcome (`None` = never verified).
    pub fn verification(&self) -> Option<&Result<(), String>> {
        self.verified.as_ref()
    }

    /// Checks the tree's well-formedness against the region table:
    ///
    /// - one span per region, `span.region` = its index;
    /// - balanced open/close — a span is closed iff its region is dead;
    /// - children time-nested within parents (a child opens no earlier
    ///   than its parent and closes no later — region deletion is
    ///   structurally bottom-up);
    /// - parent links of live spans match the heap's, and live
    ///   parent/child pairs satisfy the DFS `id`/`nextid` interval
    ///   containment that backs the `parentptr` check.
    pub fn verify(&self, regions: &[RegionData]) -> Result<(), String> {
        if self.spans.len() != regions.len() {
            return Err(format!(
                "span/region count mismatch: {} spans, {} regions",
                self.spans.len(),
                regions.len()
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            let rd = &regions[i];
            if s.region as usize != i {
                return Err(format!("span {i} records region {}", s.region));
            }
            if s.closed_at.is_some() == rd.alive {
                return Err(format!(
                    "span {i}: closed={} but region alive={}",
                    s.closed_at.is_some(),
                    rd.alive
                ));
            }
            if let Some(c) = s.closed_at {
                if c < s.opened_at {
                    return Err(format!("span {i}: closed at {c} before open {}", s.opened_at));
                }
            }
            if rd.alive {
                let heap_parent = rd.parent.map_or(NO_REGION, |p| p.0);
                if i != TRADITIONAL.0 as usize && s.parent != heap_parent {
                    return Err(format!(
                        "span {i}: parent {} but region parent {heap_parent}",
                        s.parent
                    ));
                }
            }
            if s.parent != NO_REGION {
                let Some(p) = self.spans.get(s.parent as usize) else {
                    return Err(format!("span {i}: parent {} out of range", s.parent));
                };
                if s.opened_at < p.opened_at {
                    return Err(format!(
                        "span {i} opened at {} before its parent ({})",
                        s.opened_at, p.opened_at
                    ));
                }
                if let Some(pc) = p.closed_at {
                    match s.closed_at {
                        None => {
                            return Err(format!("span {i} open after parent {} closed", s.parent))
                        }
                        Some(c) if c > pc => {
                            return Err(format!(
                                "span {i} closed at {c}, after parent {} at {pc}",
                                s.parent
                            ))
                        }
                        Some(_) => {}
                    }
                }
                // DFS interval containment only holds for the *live*
                // hierarchy (dead regions keep stale numbers).
                let pd = &regions[s.parent as usize];
                if rd.alive && pd.alive {
                    if rd.id >= rd.nextid {
                        return Err(format!(
                            "region {i}: empty DFS interval [{}, {})",
                            rd.id, rd.nextid
                        ));
                    }
                    if !is_ancestor(regions, crate::region::RegionId(s.parent), crate::region::RegionId(i as u32))
                        || rd.nextid > pd.nextid
                    {
                        return Err(format!(
                            "region {i} interval [{}, {}) not inside parent {} [{}, {})",
                            rd.id, rd.nextid, s.parent, pd.id, pd.nextid
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Heap {
    /// Attaches a [`SpanTree`] retaining at most `note_cap` raw notes.
    /// Regions that already exist are seeded (the traditional region's
    /// span opens at time 0). Replaces any existing tree, including the
    /// one [`Heap::enable_tracing`] attached, so the profile's region
    /// rows start over with it.
    pub fn enable_spans(&mut self, note_cap: usize) {
        self.sinks.spans = Some(Box::new(SpanTree::seeded(note_cap, &self.regions)));
        self.sink_mask |= sink::SPANS;
    }

    /// The attached span tree, if any.
    pub fn spans(&self) -> Option<&SpanTree> {
        self.sinks.spans.as_deref()
    }

    /// Verifies the span tree against the live region table and stamps
    /// the outcome into the tree (see [`SpanTree::verification`]).
    /// No-op when spans are disabled. Returns the outcome.
    pub fn seal_spans(&mut self) -> Result<(), String> {
        let Some(t) = self.sinks.spans.as_deref_mut() else {
            return Ok(());
        };
        let outcome = t.verify(&self.regions);
        t.set_verified(outcome.clone());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;
    use crate::layout::{PtrKind, SlotKind, TypeLayout};

    fn alloc(region: u32, at: Cycles, site: u32, words: u32) -> Event {
        Event::Alloc { region, site, words, at }
    }

    fn check(region: u32, at: Cycles, check_site: u32, passed: bool) -> Event {
        Event::CheckRun {
            kind: PtrKind::SameRegion,
            site: 1,
            passed,
            region,
            check_site,
            statically_safe: false,
            at,
        }
    }

    /// An empty tree holding only the traditional region's span.
    fn rooted(note_cap: usize) -> SpanTree {
        let mut t = SpanTree::new(note_cap);
        t.spans.push(Span::new(TRADITIONAL.0, NO_REGION, 0));
        t
    }

    fn ty(h: &mut Heap) -> crate::layout::TypeId {
        h.register_type(TypeLayout::new("t", vec![SlotKind::Data, SlotKind::Data]))
    }

    #[test]
    fn spans_mirror_region_lifecycles() {
        let mut h = Heap::with_defaults();
        let ty = ty(&mut h);
        h.enable_spans(DEFAULT_SPAN_NOTE_CAP);
        let parent = h.new_region();
        let child = h.new_subregion(parent).unwrap();
        h.ralloc(child, ty).unwrap();
        h.ralloc(child, ty).unwrap();
        h.delete_region(child).unwrap();
        h.delete_region(parent).unwrap();
        assert!(h.seal_spans().is_ok());
        let t = h.take_sinks().spans.unwrap();
        assert_eq!(t.spans().len(), 3, "traditional + two regions");
        let c = t.spans()[child.0 as usize];
        assert_eq!(c.parent, parent.0);
        assert_eq!(c.allocs, 2);
        assert_eq!(c.alloc_words, 4);
        assert!(c.closed_at.is_some());
        assert!(t.spans()[0].closed_at.is_none(), "root never closes");
        assert_eq!(t.open_count(), 1);
        assert_eq!(t.closed_count(), 2);
        assert_eq!(t.verification(), Some(&Ok(())));
    }

    #[test]
    fn child_nesting_and_duration_hold() {
        let mut h = Heap::with_defaults();
        h.enable_spans(64);
        let r = h.new_region();
        let s = h.new_subregion(r).unwrap();
        h.delete_region(s).unwrap();
        h.delete_region(r).unwrap();
        let t = h.take_sinks().spans.unwrap();
        let (pr, ch) = (t.spans()[r.0 as usize], t.spans()[s.0 as usize]);
        assert!(ch.opened_at >= pr.opened_at);
        assert!(ch.closed_at.unwrap() <= pr.closed_at.unwrap());
        assert_eq!(pr.duration().unwrap(), pr.closed_at.unwrap() - pr.opened_at);
    }

    #[test]
    fn note_bound_drops_but_tallies_stay_exact() {
        let mut t = rooted(16);
        for i in 0..40 {
            t.fold(&check(0, i, 7, i % 2 == 0));
        }
        assert_eq!(t.notes().len(), 16);
        assert_eq!(t.notes_dropped(), 24);
        let f = t.check_sites().get(7).unwrap();
        assert_eq!(f.runs, 40, "fold is exact despite drops");
        assert_eq!(f.fails, 20);
        assert_eq!(t.total_checks(), 40);
    }

    #[test]
    fn verify_catches_unbalanced_and_misnested_trees() {
        let mut h = Heap::with_defaults();
        h.enable_spans(64);
        let r = h.new_region();
        // Balanced so far.
        assert!(h.seal_spans().is_ok());
        // Tamper: close the live region's span.
        let mut t = h.take_sinks().spans.unwrap();
        t.close(r.0, 5, 0);
        h.enable_spans(64);
        // Fresh tree is consistent again.
        assert!(h.seal_spans().is_ok());
        // The tampered tree fails against the same region table.
        let msg = t.verify(&h.regions).unwrap_err();
        assert!(msg.contains("closed=true"), "{msg}");
    }

    #[test]
    fn unwind_closes_every_span_bottom_up() {
        let mut h = Heap::with_defaults();
        h.enable_spans(1024);
        let a = h.new_region();
        let b = h.new_subregion(a).unwrap();
        let _c = h.new_subregion(b).unwrap();
        assert_eq!(h.unwind_regions(), 3);
        assert!(h.seal_spans().is_ok());
        let t = h.take_sinks().spans.unwrap();
        assert_eq!(t.open_count(), 1, "only the traditional span survives");
    }

    /// A shard-shaped tree: root span plus `extra` regions with distinct
    /// counters, one alloc note each, and some traditional-region
    /// activity to exercise the root fold.
    fn shard_tree(extra: u32, salt: u64) -> SpanTree {
        let mut t = rooted(64);
        t.fold(&alloc(0, salt, 1, salt as u32 + 1));
        for r in 1..=extra {
            t.open(r, r - 1, salt + r as u64, salt + r as u64);
            t.fold(&alloc(r, salt + r as u64, r, r));
            t.fold(&check(r, salt + r as u64, 10 + r, r % 2 == 0));
            t.close(r, salt + 100 + r as u64, r as u64);
        }
        t
    }

    #[test]
    fn merge_grafts_spans_densely_and_folds_the_root() {
        let mut a = shard_tree(2, 0);
        let b = shard_tree(3, 50);
        let (root_allocs, root_words) = (a.spans()[0].allocs, a.spans()[0].alloc_words);
        a.merge(&b);
        // 1 root + 2 own + 3 grafted, regions renumbered densely.
        assert_eq!(a.spans().len(), 6);
        a.structurally_well_formed().unwrap();
        // b's regions 1..=3 landed at 3..=5; b's region 2 (parent 1) now
        // has parent 3.
        assert_eq!(a.spans()[4].parent, 3);
        assert_eq!(a.spans()[3].parent, TRADITIONAL.0, "grafted top region hangs off the root");
        // b's traditional activity folded into a's root span.
        assert_eq!(a.spans()[0].allocs, root_allocs + 1);
        assert_eq!(a.spans()[0].alloc_words, root_words + 51);
        // Exact tallies: site 11 fired once in each tree.
        assert_eq!(a.check_sites().runs(11), 2);
        // Grafted notes kept emission order with remapped regions.
        let last = *a.notes().last().unwrap();
        assert!(matches!(last, Event::CheckRun { region: 5, .. }), "{last:?}");
    }

    #[test]
    fn merge_is_associative_but_not_commutative() {
        let (a, b, c) = (shard_tree(1, 0), shard_tree(2, 10), shard_tree(3, 20));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        let mut swapped = a.clone();
        swapped.merge(&c);
        swapped.merge(&b);
        assert_ne!(left, swapped, "join order is part of the result");
    }

    #[test]
    fn merge_keeps_the_first_verification_failure() {
        let mut a = shard_tree(1, 0);
        a.set_verified(Ok(()));
        let mut b = shard_tree(1, 5);
        b.set_verified(Err("shard 1: misnested".into()));
        let mut c = shard_tree(1, 9);
        c.set_verified(Err("shard 2: misnested".into()));
        a.merge(&b);
        a.merge(&c);
        assert_eq!(a.verification(), Some(&Err("shard 1: misnested".into())));
    }

    #[test]
    fn structurally_well_formed_rejects_broken_indexing() {
        let mut t = shard_tree(2, 0);
        t.structurally_well_formed().unwrap();
        t.close(2, 1000, 0);
        t.structurally_well_formed().unwrap();
        let mut bad = rooted(16);
        bad.spans[0].region = 7;
        assert!(bad.structurally_well_formed().is_err());
    }

    #[test]
    fn flamegraph_indents_subregions_under_parents() {
        let mut t = rooted(64);
        t.fold(&Event::RegionCreated { region: 1, at: 0, born: 0 });
        t.fold(&Event::SubregionCreated { region: 2, parent: 1, at: 0, born: 0 });
        t.fold(&Event::SubregionCreated { region: 3, parent: 2, at: 0, born: 0 });
        for (r, words) in [(1, 10), (2, 20), (3, 30)] {
            t.fold(&alloc(r, 0, 0, words));
        }
        let fg = t.flamegraph();
        let lines: Vec<&str> = fg.lines().collect();
        // Header, r0, then r1 > r2 > r3 each two spaces deeper.
        assert!(lines[1].starts_with("r0 (traditional)"));
        assert!(lines[2].starts_with("  r1"));
        assert!(lines[3].starts_with("    r2"));
        assert!(lines[4].starts_with("      r3"));
        // Subtree sizing: r1's subtree holds all 60 words.
        assert!(lines[2].contains("60 words"));
        assert!(lines[3].contains("50 words"));
        assert!(lines[4].contains("30 words"));
    }

    #[test]
    fn lifetime_histogram_counts_only_folded_deletions() {
        let mut h = Heap::with_defaults();
        let seeded_dead = h.new_region();
        h.delete_region(seeded_dead).unwrap();
        h.enable_spans(64);
        let r = h.new_region();
        h.delete_region(r).unwrap();
        let t = h.spans().unwrap();
        let life = t.spans()[r.0 as usize].duration().unwrap();
        let mut want = [0; LIFETIME_BUCKETS];
        want[log2_bucket(life)] = 1;
        assert_eq!(t.lifetime_histogram(), want);
        assert!(!t.spans()[seeded_dead.0 as usize].touched());
    }

    #[test]
    fn log2_buckets() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn enable_spans_seeds_existing_regions() {
        let mut h = Heap::with_defaults();
        let r = h.new_region();
        let dead = h.new_region();
        h.delete_region(dead).unwrap();
        h.enable_spans(64);
        assert!(h.seal_spans().is_ok());
        let t = h.spans().unwrap();
        assert_eq!(t.spans().len(), 3);
        assert!(t.spans()[r.0 as usize].closed_at.is_none());
        assert!(t.spans()[dead.0 as usize].closed_at.is_some());
    }
}
