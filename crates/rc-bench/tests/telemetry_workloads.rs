//! Telemetry acceptance tests against the real paper workloads: the folded
//! profile and the span tree must agree *exactly* with the runtime's
//! `Stats` counters (the folds happen online at record time, so ring
//! capacity must not matter), tracing must be observation-only, and the
//! Figure 8 workloads must attribute their checks to concrete source
//! lines.

use rc_lang::interp::{run, run_audited, Outcome};
use rc_lang::{CheckMode, RunConfig};
use rc_workloads::driver::prepare_workload;
use rc_workloads::Scale;
use region_rt::Tracer;

const SCALE: Scale = Scale::TINY;

#[test]
fn folded_profile_totals_equal_stats_on_every_workload() {
    for w in rc_workloads::all() {
        let c = prepare_workload(&w, SCALE);
        let r = run(&c, &RunConfig::rc(CheckMode::Qs).traced());
        assert!(matches!(r.outcome, Outcome::Exit(_)), "{}: {:?}", w.name, r.outcome);
        let s = &r.stats;
        let t = r.tracer.as_ref().expect("tracing was enabled");
        let p = &t.profile().totals;
        assert_eq!(p.regions_created, s.regions_created, "{}: regions_created", w.name);
        assert_eq!(p.regions_deleted, s.regions_deleted, "{}: regions_deleted", w.name);
        assert_eq!(p.allocs, s.objects_allocated, "{}: allocs", w.name);
        assert_eq!(p.alloc_words, s.words_allocated, "{}: alloc_words", w.name);
        assert_eq!(p.rc_updates_full, s.rc_updates_full, "{}: rc_updates_full", w.name);
        assert_eq!(p.rc_updates_same, s.rc_updates_same, "{}: rc_updates_same", w.name);
        assert_eq!(p.checks_sameregion, s.checks_sameregion, "{}: checks_sameregion", w.name);
        assert_eq!(p.checks_parentptr, s.checks_parentptr, "{}: checks_parentptr", w.name);
        assert_eq!(p.checks_traditional, s.checks_traditional, "{}: checks_traditional", w.name);
        assert_eq!(p.gc_collections, s.gc_collections, "{}: gc_collections", w.name);
        assert_eq!(p.checks_failed, 0, "{}: clean runs fail no checks", w.name);
    }
}

/// SplitMix64 (Steele et al.) — the same generator rc-fuzz seeds with.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// For 48 SplitMix64-chosen (workload × config) combinations, the span
/// tree a traced run carries sums to the run's `Stats` counters and
/// passed structural verification against the heap's region table. Any
/// drift means the tree dropped or double-counted an event.
#[test]
fn span_totals_match_stats_across_48_seeds() {
    let workloads = rc_workloads::all();
    for seed in 0..48u64 {
        let mut state = seed;
        let w = &workloads[(splitmix64(&mut state) % workloads.len() as u64) as usize];
        let (cname, config) = match splitmix64(&mut state) % 4 {
            0 => ("nq", RunConfig::rc(CheckMode::Nq)),
            1 => ("qs", RunConfig::rc(CheckMode::Qs)),
            2 => ("inf", RunConfig::rc_inf()),
            _ => ("nc", RunConfig::rc(CheckMode::Nc)),
        };
        let ctx = format!("seed {seed}: {} under {cname}", w.name);

        let c = prepare_workload(w, SCALE);
        let r = run(&c, &config.traced());
        let spans = r.spans.as_deref().unwrap_or_else(|| panic!("{ctx}: spans missing"));
        assert_eq!(spans.verification(), Some(&Ok(())), "{ctx}");
        let s = &r.stats;
        assert_eq!(spans.total_allocs(), s.objects_allocated, "{ctx}: allocs");
        assert_eq!(spans.total_alloc_words(), s.words_allocated, "{ctx}: words");
        assert_eq!(
            spans.total_checks(),
            s.checks_sameregion + s.checks_traditional + s.checks_parentptr,
            "{ctx}: checks"
        );
        assert_eq!(
            spans.total_rc_updates(),
            s.rc_updates_full + s.rc_updates_same,
            "{ctx}: rc updates"
        );
    }
}

#[test]
fn folded_totals_are_independent_of_ring_capacity() {
    let w = rc_workloads::by_name("lcc").expect("known workload");
    let c = prepare_workload(&w, SCALE);
    let r = run(&c, &RunConfig::rc(CheckMode::Qs).traced());
    assert!(matches!(r.outcome, Outcome::Exit(_)), "{:?}", r.outcome);
    let full = r.tracer.as_ref().expect("traced");
    assert_eq!(full.dropped(), 0, "the default ring holds lcc's whole stream");
    // Replay the run's stream into a ring with far fewer slots than
    // events: the ring drops, the fold must not.
    let mut tiny = Tracer::new(16);
    for ev in full.events() {
        tiny.record(*ev);
    }
    assert!(tiny.dropped() > 0, "capacity 16 must overflow on lcc");
    assert_eq!(tiny.len(), 16);
    assert_eq!(tiny.profile().totals, full.profile().totals);
    assert_eq!(tiny.profile().totals.allocs, r.stats.objects_allocated);
    assert_eq!(
        tiny.profile().totals.checks_sameregion + tiny.profile().totals.checks_parentptr,
        r.stats.checks_sameregion + r.stats.checks_parentptr
    );
}

#[test]
fn check_counting_exits_like_nq_under_every_check_regime() {
    for w in rc_workloads::all() {
        let c = prepare_workload(&w, SCALE);
        let nq = run(&c, &RunConfig::rc(CheckMode::Nq));
        assert!(matches!(nq.outcome, Outcome::Exit(_)), "{}: {:?}", w.name, nq.outcome);
        for checks in [CheckMode::Qs, CheckMode::Inf] {
            let counted = run_audited(&c, &RunConfig::rc(checks).counting_checks());
            assert_eq!(
                format!("{:?}", counted.outcome),
                format!("{:?}", nq.outcome),
                "{}: {checks:?} with check counting",
                w.name
            );
            assert!(matches!(counted.audit, Some(Ok(()))), "{}: {checks:?}", w.name);
        }
    }
}

#[test]
fn tracing_is_observation_only_on_workload_runs() {
    let w = rc_workloads::by_name("mudlle").expect("known workload");
    let c = prepare_workload(&w, SCALE);
    let plain = run(&c, &RunConfig::rc(CheckMode::Qs));
    let traced = run(&c, &RunConfig::rc(CheckMode::Qs).traced());
    assert_eq!(format!("{:?}", plain.outcome), format!("{:?}", traced.outcome));
    assert_eq!(plain.cycles, traced.cycles, "tracing must not change the cost model");
    assert_eq!(plain.stats, traced.stats, "tracing must not change the counters");
}

#[test]
fn figure8_workloads_attribute_checks_to_source_lines() {
    // The Figure 8 subset benched in `benches/fig8_annotations.rs`.
    for wname in ["lcc", "mudlle", "moss"] {
        let w = rc_workloads::by_name(wname).expect("known workload");
        let c = prepare_workload(&w, SCALE);
        let r = run(&c, &RunConfig::rc(CheckMode::Qs).traced());
        assert!(matches!(r.outcome, Outcome::Exit(_)), "{wname}: {:?}", r.outcome);
        let p = r.profile().expect("traced");
        let hot = p.hot_check_sites(5);
        assert!(!hot.is_empty(), "{wname}: qs runs checks, so hot sites exist");
        for site in &hot {
            assert!(site.line > 0, "{wname}: check sites carry real source lines");
            assert!(site.checks_total() > 0, "{wname}: hot sites ran checks");
        }
        // The top-5 list is sorted and really is the top.
        let max_elsewhere = p
            .sites()
            .filter(|s| hot.iter().all(|h| h.line != s.line))
            .map(|s| s.checks_total())
            .max()
            .unwrap_or(0);
        assert!(
            hot.last().expect("nonempty").checks_total() >= max_elsewhere,
            "{wname}: hot_check_sites(5) must dominate the rest"
        );
    }
}

#[test]
fn telemetry_report_covers_every_workload() {
    let eval = rc_bench::report::Evaluation::collect(SCALE);
    let tel = rc_bench::report::telemetry(&eval);
    assert_eq!(tel.rows.len(), rc_workloads::all().len());
    assert_eq!(tel.tracers.len(), tel.rows.len());
    for line in tel.profiles_jsonl().lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "JSONL line: {line}");
    }
    assert!(tel.flamegraph.contains("outer") || !tel.flamegraph.is_empty());
}
