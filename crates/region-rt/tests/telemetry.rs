//! Telemetry integration: the folded profile must agree exactly with the
//! `Stats` counters for the same run, the ring must stay bounded, every
//! sink must fold the same event stream, and a heap with no sink attached
//! must record nothing.

use region_rt::{
    Addr, Heap, HeapConfig, PtrKind, SlotKind, TypeLayout, WriteMode, DEFAULT_RING_CAPACITY,
    DEFAULT_SPAN_NOTE_CAP, NO_CHECK_SITE,
};

fn workout(h: &mut Heap) {
    let counted = h.register_type(TypeLayout::new(
        "c",
        vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data],
    ));
    let annotated = h.register_type(TypeLayout::new(
        "s",
        vec![SlotKind::Ptr(PtrKind::SameRegion), SlotKind::Ptr(PtrKind::ParentPtr)],
    ));
    let r1 = h.new_region();
    let r2 = h.new_subregion(r1).unwrap();
    h.set_trace_site(10);
    let a = h.ralloc(r1, counted).unwrap();
    let b = h.ralloc(r2, counted).unwrap();
    h.set_trace_site(11);
    h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
    h.write_ptr(a, 0, b, WriteMode::Counted).unwrap(); // early exit
    h.write_ptr(a, 0, Addr::NULL, WriteMode::Counted).unwrap();
    h.set_trace_site(12);
    let s1 = h.ralloc(r2, annotated).unwrap();
    let s2 = h.ralloc(r2, annotated).unwrap();
    h.write_ptr(s1, 0, s2, WriteMode::Check(PtrKind::SameRegion)).unwrap();
    let up = h.ralloc(r1, annotated).unwrap();
    h.write_ptr(s1, 1, up, WriteMode::Check(PtrKind::ParentPtr)).unwrap();
    h.set_trace_site(0);
    let m = h.m_alloc(counted, 2).unwrap();
    h.m_free(m).unwrap();
    h.gc_alloc(counted, 1).unwrap();
    h.gc_collect(&[]);
    h.delete_region(r2).unwrap();
    h.delete_region(r1).unwrap();
    let ok = h.audit().is_ok();
    h.record_audit_run(ok);
}

#[test]
fn folded_profile_totals_equal_stats() {
    let mut h = Heap::with_defaults();
    // A deliberately tiny ring: totals must stay exact anyway.
    h.enable_tracing(16);
    workout(&mut h);

    let t = h.tracer().expect("tracing enabled");
    assert!(t.dropped() > 0, "the tiny ring must have overflowed");
    let p = t.profile();
    let s = &h.stats;
    assert_eq!(p.totals.allocs, s.objects_allocated);
    assert_eq!(p.totals.alloc_words, s.words_allocated);
    assert_eq!(p.totals.rc_updates_full, s.rc_updates_full);
    assert_eq!(p.totals.rc_updates_same, s.rc_updates_same);
    assert_eq!(p.totals.checks_sameregion, s.checks_sameregion);
    assert_eq!(p.totals.checks_parentptr, s.checks_parentptr);
    assert_eq!(p.totals.checks_traditional, s.checks_traditional);
    assert_eq!(p.totals.regions_created, s.regions_created);
    assert_eq!(p.totals.regions_deleted, s.regions_deleted);
    assert_eq!(p.totals.gc_collections, s.gc_collections);
    assert_eq!(p.totals.audit_runs, 1);
    assert_eq!(p.totals.audit_failures, 0);
}

#[test]
fn site_attribution_reaches_events() {
    let mut h = Heap::with_defaults();
    h.enable_tracing(4096);
    workout(&mut h);
    let p = h.tracer().unwrap().profile();
    let site10 = p.sites().find(|s| s.line == 10).expect("alloc site 10");
    assert_eq!(site10.allocs, 2);
    let site11 = p.sites().find(|s| s.line == 11).expect("rc site 11");
    assert_eq!(site11.rc_updates, 3);
    let site12 = p.sites().find(|s| s.line == 12).expect("check site 12");
    assert_eq!(site12.checks_sameregion, 1);
    assert_eq!(site12.checks_parentptr, 1);
    // Unattributed malloc/gc activity lands on line 0.
    let site0 = p.sites().find(|s| s.line == 0).expect("unattributed site");
    assert_eq!(site0.allocs, 2);
}

#[test]
fn no_sink_records_nothing() {
    let mut h = Heap::with_defaults();
    workout(&mut h);
    let sinks = h.take_sinks();
    assert!(sinks.tracer.is_none() && sinks.spans.is_none() && sinks.check_counts.is_none());
}

#[test]
fn every_sink_folds_the_same_stream() {
    let mut h = Heap::with_defaults();
    h.enable_tracing(DEFAULT_RING_CAPACITY);
    h.enable_spans(DEFAULT_SPAN_NOTE_CAP);
    h.enable_check_counting();
    workout(&mut h);
    let sinks = h.take_sinks();
    let p = sinks.tracer.as_ref().unwrap().profile();
    let spans = sinks.spans.as_ref().unwrap();
    let checks = sinks.check_counts.as_ref().unwrap();
    assert_eq!(spans.total_allocs(), p.totals.allocs);
    assert_eq!(spans.total_alloc_words(), p.totals.alloc_words);
    assert_eq!(spans.total_rc_updates(), p.totals.rc_updates_total());
    assert_eq!(spans.total_checks(), p.totals.checks_total());
    assert_eq!(checks.total_runs(), p.totals.checks_total());
    // The workout publishes no check site: the counter keeps the
    // unattributed row, the span tree's table skips it.
    assert_eq!(checks.runs(NO_CHECK_SITE), p.totals.checks_total());
    assert!(spans.check_sites().is_empty());
}

#[test]
fn tracing_does_not_change_stats_or_clock() {
    let mut plain = Heap::with_defaults();
    workout(&mut plain);
    let mut traced = Heap::with_defaults();
    traced.enable_tracing(64 * 1024);
    workout(&mut traced);
    assert_eq!(plain.stats, traced.stats, "telemetry must be observation-only");
    assert_eq!(plain.clock.cycles(), traced.clock.cycles());
}

#[test]
fn events_jsonl_round_trip_shape() {
    let mut h = Heap::new(HeapConfig::default());
    h.enable_tracing(4096);
    workout(&mut h);
    let sinks = h.take_sinks();
    let t = sinks.tracer.unwrap();
    let jsonl = t.events_jsonl("workout");
    assert_eq!(jsonl.lines().count(), t.len());
    for line in jsonl.lines() {
        assert!(line.starts_with(r#"{"run":"workout","ev":""#), "bad line: {line}");
        assert!(line.ends_with('}'));
    }
    let spans = sinks.spans.expect("tracing attaches the span tree");
    let profile_line = t.profile().to_json("workout", &spans).render();
    assert!(profile_line.contains(r#""kind":"profile""#));
    assert!(!profile_line.contains('\n'));
}

/// The rendered profile of `workout`, byte for byte.
#[test]
fn workout_profile_renders_pinned_bytes() {
    let mut h = Heap::with_defaults();
    h.enable_tracing(DEFAULT_RING_CAPACITY);
    workout(&mut h);
    let (p, spans) = (h.tracer().unwrap().profile(), h.spans().unwrap());
    assert_eq!(
        p.to_json("workout", spans).render(),
        r#"{"kind":"profile","source":"workout","totals":{"regions_created":2,"subregions_created":1,"regions_deleted":2,"allocs":7,"alloc_words":16,"rc_updates_full":2,"rc_updates_same":1,"checks_sameregion":1,"checks_parentptr":1,"checks_traditional":0,"checks_failed":0,"gc_collections":1,"audit_runs":1,"audit_failures":0,"faults_injected":0},"sites":[{"line":0,"allocs":2,"alloc_words":6,"checks_sameregion":0,"checks_parentptr":0,"checks_traditional":0,"checks_failed":0,"rc_updates":0},{"line":10,"allocs":2,"alloc_words":4,"checks_sameregion":0,"checks_parentptr":0,"checks_traditional":0,"checks_failed":0,"rc_updates":0},{"line":11,"allocs":0,"alloc_words":0,"checks_sameregion":0,"checks_parentptr":0,"checks_traditional":0,"checks_failed":0,"rc_updates":3},{"line":12,"allocs":3,"alloc_words":6,"checks_sameregion":1,"checks_parentptr":1,"checks_traditional":0,"checks_failed":0,"rc_updates":0}],"regions":[{"region":0,"parent":null,"created_at":0,"alloc_objects":2,"alloc_words":6,"deleted":false,"live_words_at_delete":0,"lifetime_cycles":0},{"region":1,"parent":0,"created_at":66,"alloc_objects":2,"alloc_words":4,"deleted":true,"live_words_at_delete":4,"lifetime_cycles":1287},{"region":2,"parent":1,"created_at":135,"alloc_objects":3,"alloc_words":6,"deleted":true,"live_words_at_delete":6,"lifetime_cycles":1217}],"lifetime_hist":[0,0,0,0,0,0,0,0,0,0,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}"#
    );
    assert_eq!(
        p.text_report("workout", spans),
        r#"telemetry profile — workout
  regions   2 created (1 subregions), 2 deleted
  allocs    7 objects, 16 words
  rc        2 full + 1 early-exit updates
  checks    1 sameregion, 1 parentptr, 0 traditional (0 failed)
  gc        1 collections
  audits    1 runs, 0 failures
  top check sites:
    workout:12             2 checks (1 sr / 1 pp / 0 trad)
  top alloc sites:
    workout:0              6 words in 2 objects
    workout:12             6 words in 3 objects
    workout:10             4 words in 2 objects
  region lifetimes (virtual cycles):
    [2^10, 2^11)          2  ##############################
region flamegraph (bar ∝ words allocated in subtree)
r0 (traditional)                 16 words  ########################################
  r1 †                           10 words  #########################
    r2 †                          6 words  ###############
"#
    );
}

/// Tracing attached mid-run: a region created and deleted before the
/// attach gets no row, and one created before and deleted after it gets
/// a row with no parent and no creation time; its lifetime still counts.
#[test]
fn attaching_mid_run_rows_only_what_the_stream_touched() {
    let mut h = Heap::with_defaults();
    let ty = h.register_type(TypeLayout::new("t", vec![SlotKind::Data, SlotKind::Data]));
    let gone = h.new_region();
    h.ralloc(gone, ty).unwrap();
    h.delete_region(gone).unwrap();
    let late = h.new_region();
    h.ralloc(late, ty).unwrap();
    h.enable_tracing(DEFAULT_RING_CAPACITY);
    h.ralloc(late, ty).unwrap();
    h.delete_region(late).unwrap();
    let (p, spans) = (h.tracer().unwrap().profile(), h.spans().unwrap());
    assert_eq!(
        p.to_json("late", spans).render(),
        r#"{"kind":"profile","source":"late","totals":{"regions_created":0,"subregions_created":0,"regions_deleted":1,"allocs":1,"alloc_words":2,"rc_updates_full":0,"rc_updates_same":0,"checks_sameregion":0,"checks_parentptr":0,"checks_traditional":0,"checks_failed":0,"gc_collections":0,"audit_runs":0,"audit_failures":0,"faults_injected":0},"sites":[{"line":0,"allocs":1,"alloc_words":2,"checks_sameregion":0,"checks_parentptr":0,"checks_traditional":0,"checks_failed":0,"rc_updates":0}],"regions":[{"region":2,"parent":null,"created_at":0,"alloc_objects":1,"alloc_words":2,"deleted":true,"live_words_at_delete":4,"lifetime_cycles":97}],"lifetime_hist":[0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}"#
    );
    assert_eq!(
        p.text_report("late", spans),
        r#"telemetry profile — late
  regions   0 created (0 subregions), 1 deleted
  allocs    1 objects, 2 words
  rc        0 full + 0 early-exit updates
  checks    0 sameregion, 0 parentptr, 0 traditional (0 failed)
  top alloc sites:
    late:0              2 words in 1 objects
  region lifetimes (virtual cycles):
    [2^6, 2^7)            1  ##############################
region flamegraph (bar ∝ words allocated in subtree)
r0 (traditional)                  2 words  ########################################
  r2 †                            2 words  ########################################
"#
    );
}
