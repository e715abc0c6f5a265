//! The runtime's event stream and its sinks.
//!
//! Every dynamic event the paper's evaluation is built on — region
//! creation/deletion, allocation, reference-count updates, annotation
//! checks, collections, audits, injected faults — is one typed [`Event`],
//! emitted once at its hook site. Every telemetry view is a fold over
//! that one stream, selected by one sink mask (see [`sink`]):
//!
//! - the [`Tracer`]: a bounded ring of recent raw events plus the exact
//!   online [`Profile`] fold of totals and per-site rows;
//! - the [`SpanTree`]: region lifecycles with span-scoped aggregates and
//!   bounded raw notes, the one per-region record (tracing attaches it
//!   too, and the profile's region views read it);
//! - the [`CheckCounter`]: per-check-site
//!   outcome tallies.
//!
//! Because all three fold the same events, they agree by construction.
//! The [`Stats`](crate::stats::Stats) counters answer *how many*; the
//! stream answers *which region*, *which allocation site*, and *which
//! check site*, which is what lifetime and locality tuning needs.
//!
//! Design constraints (see `docs/OBSERVABILITY.md`):
//!
//! - **Zero dependencies.** The ring buffer, the folds, and the JSONL
//!   encoder are all in-tree.
//! - **Pay only when enabled.** A hook site calls `Heap::emit` with a
//!   closure that builds the event; with no sink attached — the default —
//!   that is one predictable branch on the sink mask, and the event is
//!   never built.
//! - **Bounded memory, exact totals.** Raw events live in bounded
//!   buffers, but every fold happens at emission time, so folded totals
//!   equal the `Stats` counters exactly no matter how much raw history
//!   was dropped.
//!
//! Per-site attribution: events carry a `site`, the 1-based source line
//! of the RC program statement that caused them (0 = unattributed, e.g.
//! events from runtime-internal activity). The interpreter publishes the
//! current line via [`Heap::set_trace_site`] before entering the runtime.

use crate::checkcount::CheckCounter;
use crate::cost::Cycles;
use crate::fault::FaultPlane;
use crate::heap::Heap;
use crate::json::Json;
use crate::layout::PtrKind;
use crate::profile::Profile;
use crate::span::SpanTree;
use crate::timeline::Timeline;

/// Bit flags naming the consumers of the event stream a heap feeds: each
/// `Heap::enable_*` attach call sets its bit in the heap's sink mask.
pub mod sink {
    /// The [`Tracer`](super::Tracer): raw-event ring plus profile fold.
    /// Attaching it also attaches the span tree ([`SPANS`]).
    pub const TRACE: u32 = 1 << 0;
    /// The [`SpanTree`](crate::span::SpanTree): region lifecycle spans.
    pub const SPANS: u32 = 1 << 1;
    /// The [`CheckCounter`](crate::checkcount::CheckCounter): per-site
    /// check outcomes.
    pub const CHECKS: u32 = 1 << 2;
}

/// One dynamic event. Region fields are raw
/// [`RegionId`](crate::region::RegionId) indices; `site` fields are
/// 1-based source lines (0 = unattributed); `at` is the virtual time of
/// emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A top-level region was created (child of the traditional region).
    RegionCreated {
        /// The new region.
        region: u32,
        /// Virtual time of emission (after the creation charge).
        at: Cycles,
        /// The region's `born_at` stamp (before the creation charge), so
        /// span durations equal `lifetime_cycles` exactly.
        born: Cycles,
    },
    /// A subregion was created.
    SubregionCreated {
        /// The new region.
        region: u32,
        /// Its parent.
        parent: u32,
        /// Virtual time of emission (after the creation charge).
        at: Cycles,
        /// The region's `born_at` stamp (before the creation charge).
        born: Cycles,
    },
    /// A region was reclaimed.
    RegionDeleted {
        /// The reclaimed region.
        region: u32,
        /// Words of object storage freed by the reclamation.
        live_words: u64,
        /// Virtual time elapsed between creation and reclamation.
        lifetime_cycles: Cycles,
        /// Virtual time of reclamation.
        at: Cycles,
    },
    /// An object (or array) was allocated.
    Alloc {
        /// Owning region (the traditional region for malloc/GC objects).
        region: u32,
        /// Source line of the allocation (0 = unattributed).
        site: u32,
        /// Size in words.
        words: u32,
        /// Virtual time.
        at: Cycles,
    },
    /// A reference-count update ran.
    RcUpdate {
        /// Region of the object containing the updated slot.
        from: u32,
        /// Region of the newly stored pointer ([`NO_REGION`] for null).
        to: u32,
        /// Whether the counts actually changed (`false` = the Figure 3(a)
        /// early exit: old and new value were co-regional).
        full: bool,
        /// Source line of the store (0 = unattributed).
        site: u32,
        /// Virtual time.
        at: Cycles,
    },
    /// An annotation check ran.
    CheckRun {
        /// Which annotation was checked.
        kind: PtrKind,
        /// Source line of the store (0 = unattributed).
        site: u32,
        /// Whether the check passed (a failed check aborts the program,
        /// except in the counting write mode).
        passed: bool,
        /// Region of the stored-into object.
        region: u32,
        /// Front-end check-site id
        /// ([`NO_CHECK_SITE`](crate::checkcount::NO_CHECK_SITE) when the
        /// interpreter did not publish one).
        check_site: u32,
        /// The static verdict the inference reached for the site (`true`
        /// = eliminable in principle; the check ran anyway because the
        /// configuration keeps all checks).
        statically_safe: bool,
        /// Virtual time.
        at: Cycles,
    },
    /// A mark–sweep collection ran.
    GcCollection {
        /// Words examined by marking.
        marked_words: u64,
        /// Objects reclaimed by the sweep.
        swept_objects: u64,
        /// Virtual time.
        at: Cycles,
    },
    /// The heap auditor ran.
    AuditRun {
        /// Whether the reference-count invariant held.
        ok: bool,
    },
    /// A fault plane injected a failure.
    Fault {
        /// The plane that fired.
        plane: FaultPlane,
        /// 1-based operation ordinal on that plane.
        op: u64,
        /// Virtual time of injection.
        at: Cycles,
    },
}

/// Sentinel for "no region" in [`Event::RcUpdate::to`] (a null store).
pub const NO_REGION: u32 = u32::MAX;

impl Event {
    /// Encodes the event as one JSON object (one JSONL line).
    pub fn to_json(&self) -> Json {
        match *self {
            Event::RegionCreated { region, at, .. } => Json::obj(vec![
                ("ev", Json::s("region_created")),
                ("region", Json::U(region as u64)),
                ("at", Json::U(at)),
            ]),
            Event::SubregionCreated { region, parent, at, .. } => Json::obj(vec![
                ("ev", Json::s("subregion_created")),
                ("region", Json::U(region as u64)),
                ("parent", Json::U(parent as u64)),
                ("at", Json::U(at)),
            ]),
            Event::RegionDeleted { region, live_words, lifetime_cycles, .. } => Json::obj(vec![
                ("ev", Json::s("region_deleted")),
                ("region", Json::U(region as u64)),
                ("live_words", Json::U(live_words)),
                ("lifetime_cycles", Json::U(lifetime_cycles)),
            ]),
            Event::Alloc { region, site, words, .. } => Json::obj(vec![
                ("ev", Json::s("alloc")),
                ("region", Json::U(region as u64)),
                ("site", Json::U(site as u64)),
                ("words", Json::U(words as u64)),
            ]),
            Event::RcUpdate { from, to, full, site, .. } => Json::obj(vec![
                ("ev", Json::s("rc_update")),
                ("from", Json::U(from as u64)),
                ("to", if to == NO_REGION { Json::Null } else { Json::U(to as u64) }),
                ("full", Json::Bool(full)),
                ("site", Json::U(site as u64)),
            ]),
            Event::CheckRun { kind, site, passed, .. } => Json::obj(vec![
                ("ev", Json::s("check")),
                ("kind", Json::s(check_kind_name(kind))),
                ("site", Json::U(site as u64)),
                ("passed", Json::Bool(passed)),
            ]),
            Event::GcCollection { marked_words, swept_objects, .. } => Json::obj(vec![
                ("ev", Json::s("gc")),
                ("marked_words", Json::U(marked_words)),
                ("swept_objects", Json::U(swept_objects)),
            ]),
            Event::AuditRun { ok } => {
                Json::obj(vec![("ev", Json::s("audit")), ("ok", Json::Bool(ok))])
            }
            Event::Fault { plane, op, at } => Json::obj(vec![
                ("ev", Json::s("fault")),
                ("plane", Json::s(plane.name())),
                ("op", Json::U(op)),
                ("at", Json::U(at)),
            ]),
        }
    }
}

/// Stable lower-case name of a check kind for export.
pub fn check_kind_name(kind: PtrKind) -> &'static str {
    match kind {
        PtrKind::SameRegion => "sameregion",
        PtrKind::ParentPtr => "parentptr",
        PtrKind::Traditional => "traditional",
        PtrKind::Counted => "counted",
    }
}

/// The event recorder: a bounded ring of recent raw events plus an
/// always-exact online [`Profile`] fold.
#[derive(Debug, Clone)]
pub struct Tracer {
    capacity: usize,
    ring: Vec<Event>,
    /// Next write position once the ring is full.
    head: usize,
    recorded: u64,
    dropped: u64,
    profile: Profile,
}

/// Default ring capacity (events) when none is given.
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

impl Tracer {
    /// A tracer keeping at most `capacity` raw events in its ring
    /// (clamped to at least 16).
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            capacity: capacity.max(16),
            ring: Vec::new(),
            head: 0,
            recorded: 0,
            dropped: 0,
            profile: Profile::new(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event: folds it into the profile and appends it to the
    /// ring (overwriting the oldest event if full).
    pub fn record(&mut self, ev: Event) {
        self.profile.fold(&ev);
        self.recorded += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Total events recorded (including those since overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Raw events still in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        let (older, newer) = self.ring.split_at(self.head);
        newer.iter().chain(older.iter())
    }

    /// Number of raw events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The online profile fold over *all* recorded events.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Folds another tracer's exact profile into this one's (shard →
    /// global roll-up, see [`crate::shard`]). The raw-event rings are
    /// not merged — recent events stay attributed to their own tracer —
    /// but the recorded/dropped totals sum so coverage accounting stays
    /// exact.
    pub fn absorb_profile(&mut self, other: &Tracer) {
        self.profile = self.profile.merge(&other.profile);
        self.recorded += other.recorded;
        self.dropped += other.dropped;
    }

    /// Renders the retained raw events as JSONL, one event per line. When
    /// `tag` is non-empty each line carries a `"run"` field, letting
    /// several runs share one file.
    pub fn events_jsonl(&self, tag: &str) -> String {
        let mut out = String::new();
        for ev in self.events() {
            let mut j = ev.to_json();
            if !tag.is_empty() {
                if let Json::O(fields) = &mut j {
                    fields.insert(0, ("run".to_string(), Json::s(tag)));
                }
            }
            out.push_str(&j.render());
            out.push('\n');
        }
        out
    }
}

/// A heap's telemetry, detached: the stream's consumers plus the
/// timeline sampler (which [`Heap::sample_tick`] drives, not the
/// stream). Each part is `None` unless it was attached. Shards and run
/// results carry telemetry as one `Sinks`.
#[derive(Debug, Clone, Default)]
pub struct Sinks {
    /// The event ring and profile ([`sink::TRACE`]).
    pub tracer: Option<Box<Tracer>>,
    /// The region lifecycle spans ([`sink::SPANS`]).
    pub spans: Option<Box<SpanTree>>,
    /// Per-check-site outcome tallies ([`sink::CHECKS`]).
    pub check_counts: Option<Box<CheckCounter>>,
    /// The timeline sampler (see [`Heap::enable_sampling`]).
    pub timeline: Option<Box<Timeline>>,
}

impl Sinks {
    /// Folds a shard's sinks into these (shard → global roll-up, see
    /// [`crate::shard`]). Every part merges with its own exact,
    /// associative merge; a part only `other` has is taken over whole.
    /// Callers fold shards in join order, so the result does not depend
    /// on the schedule that ran them.
    pub fn merge(&mut self, other: Sinks) {
        merge_part(&mut self.spans, other.spans, |a, b| a.merge(b));
        merge_part(&mut self.tracer, other.tracer, |a, b| a.absorb_profile(b));
        merge_part(&mut self.timeline, other.timeline, |a, b| a.merge(b));
        merge_part(&mut self.check_counts, other.check_counts, |a, b| a.merge(b));
    }
}

fn merge_part<T>(dst: &mut Option<Box<T>>, src: Option<Box<T>>, merge: impl FnOnce(&mut T, &T)) {
    if let Some(src) = src {
        match dst {
            Some(d) => merge(d, &src),
            None => *dst = Some(src),
        }
    }
}

impl Heap {
    /// Emits one event to every attached sink. `build` makes the event
    /// and runs only when a sink is attached, so with every sink off a
    /// hook site costs this one branch on the sink mask.
    #[inline(always)]
    pub(crate) fn emit(&mut self, build: impl FnOnce(&Heap) -> Event) {
        if self.sink_mask != 0 {
            let ev = build(self);
            self.dispatch(ev);
        }
    }

    #[cold]
    fn dispatch(&mut self, ev: Event) {
        let s = &mut self.sinks;
        if let Some(t) = s.tracer.as_deref_mut() {
            t.record(ev);
        }
        if let Some(t) = s.spans.as_deref_mut() {
            t.fold(&ev);
        }
        if let Some(c) = s.check_counts.as_deref_mut() {
            c.fold(&ev);
        }
    }

    /// Detaches every consumer and the timeline sampler, returning them
    /// for report building.
    pub fn take_sinks(&mut self) -> Sinks {
        self.sink_mask = 0;
        self.sample_countdown = 0;
        std::mem::take(&mut self.sinks)
    }

    /// Attaches a fresh tracer keeping at most `capacity` raw events.
    /// Replaces any existing tracer. Attaches the span tree too when none
    /// is attached: its rows are the profile's per-region record.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.sinks.tracer = Some(Box::new(Tracer::new(capacity)));
        self.sink_mask |= sink::TRACE;
        if self.sinks.spans.is_none() {
            self.enable_spans(crate::span::DEFAULT_SPAN_NOTE_CAP);
        }
    }

    /// Attaches a fresh per-check-site counter. Replaces any existing
    /// counter.
    pub fn enable_check_counting(&mut self) {
        self.sinks.check_counts = Some(Box::new(CheckCounter::new()));
        self.sink_mask |= sink::CHECKS;
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.sinks.tracer.as_deref()
    }

    /// Publishes the current source line (1-based; 0 = unattributed) for
    /// per-site attribution of subsequent alloc/check/rc-update events.
    /// The interpreter calls this before entering runtime operations.
    #[inline(always)]
    pub fn set_trace_site(&mut self, line: u32) {
        self.trace_site = line;
    }

    /// Records an [`Event::AuditRun`]. The auditor itself takes `&self`,
    /// so harnesses report its outcome through this separate call.
    pub fn record_audit_run(&mut self, ok: bool) {
        self.emit(|_| Event::AuditRun { ok });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// An allocation event at time 0.
    pub(crate) fn alloc(region: u32, site: u32, words: u32) -> Event {
        Event::Alloc { region, site, words, at: 0 }
    }

    /// A check event at time 0 with no published check site.
    pub(crate) fn check(kind: PtrKind, site: u32, passed: bool) -> Event {
        Event::CheckRun {
            kind,
            site,
            passed,
            region: 0,
            check_site: crate::checkcount::NO_CHECK_SITE,
            statically_safe: false,
            at: 0,
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let mut t = Tracer::new(16);
        for i in 0..40u32 {
            t.record(alloc(1, i, 1));
        }
        assert_eq!(t.len(), 16);
        assert_eq!(t.recorded(), 40);
        assert_eq!(t.dropped(), 24);
        // Only Alloc events were recorded; anything else would shrink the
        // filtered list and fail the equality below — no panic required.
        let sites: Vec<u32> = t
            .events()
            .filter_map(|e| match e {
                Event::Alloc { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        assert_eq!(sites, (24..40).collect::<Vec<_>>(), "oldest-first, newest kept");
        // The fold saw every event even though the ring did not keep them.
        assert_eq!(t.profile().totals.allocs, 40);
    }

    #[test]
    fn jsonl_lines_are_tagged_and_one_per_event() {
        let mut t = Tracer::new(16);
        t.record(Event::RegionCreated { region: 1, at: 5, born: 0 });
        t.record(Event::AuditRun { ok: true });
        let jsonl = t.events_jsonl("figure1");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"run":"figure1","ev":"region_created","region":1,"at":5}"#);
        assert!(lines[1].contains(r#""ev":"audit""#));
    }

    #[test]
    fn null_target_serializes_as_null() {
        let ev = Event::RcUpdate { from: 2, to: NO_REGION, full: true, site: 7, at: 0 };
        assert!(ev.to_json().render().contains(r#""to":null"#));
    }

    #[test]
    fn span_only_fields_stay_out_of_the_jsonl() {
        let mut ev = check(PtrKind::SameRegion, 4, true);
        if let Event::CheckRun { region, check_site, statically_safe, at, .. } = &mut ev {
            (*region, *check_site, *statically_safe, *at) = (3, 9, true, 77);
        }
        assert_eq!(
            ev.to_json().render(),
            r#"{"ev":"check","kind":"sameregion","site":4,"passed":true}"#
        );
    }

    #[test]
    fn sink_mask_tracks_attached_consumers() {
        let mut h = Heap::with_defaults();
        assert_eq!(h.sink_mask, 0);
        h.enable_check_counting();
        assert_eq!(h.sink_mask, sink::CHECKS);
        h.enable_tracing(16);
        assert_eq!(h.sink_mask, sink::TRACE | sink::SPANS | sink::CHECKS);
        let taken = h.take_sinks();
        assert_eq!(h.sink_mask, 0);
        assert!(taken.tracer.is_some() && taken.check_counts.is_some() && taken.spans.is_some());
    }

    #[test]
    fn merge_takes_over_parts_only_the_shard_has() {
        let mut a = Sinks::default();
        let mut b = Sinks { tracer: Some(Box::new(Tracer::new(16))), ..Sinks::default() };
        b.tracer.as_deref_mut().unwrap().record(alloc(0, 1, 2));
        a.merge(b.clone());
        assert_eq!(a.tracer.as_ref().unwrap().recorded(), 1);
        a.merge(b);
        assert_eq!(a.tracer.as_ref().unwrap().profile().totals.alloc_words, 4);
        assert!(a.spans.is_none() && a.timeline.is_none() && a.check_counts.is_none());
    }
}
