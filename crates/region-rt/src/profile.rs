//! Folded telemetry profiles: what the raw event trace means.
//!
//! A [`Profile`] is the online fold of every [`Event`] a
//! [`Tracer`](crate::trace::Tracer) records: exact totals per event kind
//! and per-site (source line) attribution of allocations, checks and
//! count updates. It keeps nothing per region: the reports' region rows,
//! the log₂ histogram of region lifetimes and the text "region
//! flamegraph" are views of the heap's [`SpanTree`], the one per-region
//! record, which [`Heap::enable_tracing`](crate::Heap::enable_tracing)
//! attaches with the tracer. The renderings take it as an argument.
//!
//! Because the fold happens at emission time, profile totals are exact
//! even when the tracer's bounded ring has overwritten old raw events —
//! the invariant the `rc-bench` integration tests pin against the
//! [`Stats`](crate::stats::Stats) counters.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::layout::PtrKind;
use crate::span::SpanTree;
use crate::trace::Event;

/// Exact totals per event kind (matching the `Stats` counters for the
/// same run when all event kinds are enabled).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProfileTotals {
    /// Regions created (top-level and subregions; matches
    /// `Stats::regions_created`).
    pub regions_created: u64,
    /// The subset of `regions_created` that were subregions of a
    /// non-traditional region.
    pub subregions_created: u64,
    /// Regions reclaimed (matches `Stats::regions_deleted`).
    pub regions_deleted: u64,
    /// Objects allocated, all allocators (matches
    /// `Stats::objects_allocated`).
    pub allocs: u64,
    /// Words allocated (matches `Stats::words_allocated`).
    pub alloc_words: u64,
    /// Full reference-count updates (matches `Stats::rc_updates_full`).
    pub rc_updates_full: u64,
    /// Early-exit count updates (matches `Stats::rc_updates_same`).
    pub rc_updates_same: u64,
    /// `sameregion` checks (matches `Stats::checks_sameregion`).
    pub checks_sameregion: u64,
    /// `parentptr` checks (matches `Stats::checks_parentptr`).
    pub checks_parentptr: u64,
    /// `traditional` checks (matches `Stats::checks_traditional`).
    pub checks_traditional: u64,
    /// Checks that failed (each aborts the program, so at most one per
    /// run in practice).
    pub checks_failed: u64,
    /// Mark–sweep collections (matches `Stats::gc_collections`).
    pub gc_collections: u64,
    /// Auditor runs reported via `Heap::record_audit_run`.
    pub audit_runs: u64,
    /// Auditor runs that found a violated invariant.
    pub audit_failures: u64,
    /// Injected faults (matches `Stats::faults_injected`).
    pub faults_injected: u64,
}

impl ProfileTotals {
    /// All annotation checks executed.
    pub fn checks_total(&self) -> u64 {
        self.checks_sameregion + self.checks_parentptr + self.checks_traditional
    }

    /// All reference-count updates executed.
    pub fn rc_updates_total(&self) -> u64 {
        self.rc_updates_full + self.rc_updates_same
    }

    /// Exact fieldwise roll-up (shard → global; see [`crate::shard`]).
    /// Commutative and associative: every field is a sum. The exhaustive
    /// literal makes adding a totals field without a merge rule a
    /// compile error.
    #[must_use]
    pub fn merge(&self, other: &ProfileTotals) -> ProfileTotals {
        ProfileTotals {
            regions_created: self.regions_created + other.regions_created,
            subregions_created: self.subregions_created + other.subregions_created,
            regions_deleted: self.regions_deleted + other.regions_deleted,
            allocs: self.allocs + other.allocs,
            alloc_words: self.alloc_words + other.alloc_words,
            rc_updates_full: self.rc_updates_full + other.rc_updates_full,
            rc_updates_same: self.rc_updates_same + other.rc_updates_same,
            checks_sameregion: self.checks_sameregion + other.checks_sameregion,
            checks_parentptr: self.checks_parentptr + other.checks_parentptr,
            checks_traditional: self.checks_traditional + other.checks_traditional,
            checks_failed: self.checks_failed + other.checks_failed,
            gc_collections: self.gc_collections + other.gc_collections,
            audit_runs: self.audit_runs + other.audit_runs,
            audit_failures: self.audit_failures + other.audit_failures,
            faults_injected: self.faults_injected + other.faults_injected,
        }
    }
}

/// Per-source-line attribution.
#[derive(Debug, Default, Clone)]
pub struct SiteProfile {
    /// 1-based source line (0 = unattributed runtime-internal events).
    pub line: u32,
    /// Allocations at this line.
    pub allocs: u64,
    /// Words allocated at this line.
    pub alloc_words: u64,
    /// `sameregion` checks at this line.
    pub checks_sameregion: u64,
    /// `parentptr` checks at this line.
    pub checks_parentptr: u64,
    /// `traditional` checks at this line.
    pub checks_traditional: u64,
    /// Checks at this line that failed.
    pub checks_failed: u64,
    /// Reference-count updates at this line.
    pub rc_updates: u64,
}

impl SiteProfile {
    /// All checks executed at this line.
    pub fn checks_total(&self) -> u64 {
        self.checks_sameregion + self.checks_parentptr + self.checks_traditional
    }
}

/// The folded profile of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Exact per-kind totals.
    pub totals: ProfileTotals,
    sites: BTreeMap<u32, SiteProfile>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    fn site_mut(&mut self, line: u32) -> &mut SiteProfile {
        self.sites.entry(line).or_insert_with(|| SiteProfile { line, ..SiteProfile::default() })
    }

    /// Exact merge of two folded profiles (shard → global roll-up; see
    /// [`crate::shard`]): totals and per-site rows sum fieldwise.
    /// Commutative and associative.
    #[must_use]
    pub fn merge(&self, other: &Profile) -> Profile {
        let mut out = self.clone();
        out.totals = self.totals.merge(&other.totals);
        for (line, s) in &other.sites {
            match out.sites.entry(*line) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(s.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let t = e.get_mut();
                    t.allocs += s.allocs;
                    t.alloc_words += s.alloc_words;
                    t.checks_sameregion += s.checks_sameregion;
                    t.checks_parentptr += s.checks_parentptr;
                    t.checks_traditional += s.checks_traditional;
                    t.checks_failed += s.checks_failed;
                    t.rc_updates += s.rc_updates;
                }
            }
        }
        out
    }

    /// Folds one event into the profile.
    pub fn fold(&mut self, ev: &Event) {
        match *ev {
            Event::RegionCreated { .. } => self.totals.regions_created += 1,
            Event::SubregionCreated { .. } => {
                self.totals.regions_created += 1;
                self.totals.subregions_created += 1;
            }
            Event::RegionDeleted { .. } => self.totals.regions_deleted += 1,
            Event::Alloc { site, words, .. } => {
                self.totals.allocs += 1;
                self.totals.alloc_words += words as u64;
                let s = self.site_mut(site);
                s.allocs += 1;
                s.alloc_words += words as u64;
            }
            Event::RcUpdate { full, site, .. } => {
                if full {
                    self.totals.rc_updates_full += 1;
                } else {
                    self.totals.rc_updates_same += 1;
                }
                self.site_mut(site).rc_updates += 1;
            }
            Event::CheckRun { kind, site, passed, .. } => {
                let s = self.site_mut(site);
                match kind {
                    PtrKind::SameRegion => s.checks_sameregion += 1,
                    PtrKind::ParentPtr => s.checks_parentptr += 1,
                    PtrKind::Traditional => s.checks_traditional += 1,
                    PtrKind::Counted => {}
                }
                if !passed {
                    s.checks_failed += 1;
                    self.totals.checks_failed += 1;
                }
                match kind {
                    PtrKind::SameRegion => self.totals.checks_sameregion += 1,
                    PtrKind::ParentPtr => self.totals.checks_parentptr += 1,
                    PtrKind::Traditional => self.totals.checks_traditional += 1,
                    PtrKind::Counted => {}
                }
            }
            Event::GcCollection { .. } => self.totals.gc_collections += 1,
            Event::AuditRun { ok } => {
                self.totals.audit_runs += 1;
                if !ok {
                    self.totals.audit_failures += 1;
                }
            }
            Event::Fault { .. } => self.totals.faults_injected += 1,
        }
    }

    /// Per-site profiles, line ascending.
    pub fn sites(&self) -> impl Iterator<Item = &SiteProfile> {
        self.sites.values()
    }

    /// Top `n` check sites by executed checks (ties: lower line first).
    pub fn hot_check_sites(&self, n: usize) -> Vec<&SiteProfile> {
        let mut v: Vec<&SiteProfile> =
            self.sites.values().filter(|s| s.checks_total() > 0).collect();
        v.sort_by(|a, b| b.checks_total().cmp(&a.checks_total()).then(a.line.cmp(&b.line)));
        v.truncate(n);
        v
    }

    /// Top `n` allocation sites by allocated words (ties: lower line
    /// first).
    pub fn hot_alloc_sites(&self, n: usize) -> Vec<&SiteProfile> {
        let mut v: Vec<&SiteProfile> = self.sites.values().filter(|s| s.allocs > 0).collect();
        v.sort_by(|a, b| b.alloc_words.cmp(&a.alloc_words).then(a.line.cmp(&b.line)));
        v.truncate(n);
        v
    }

    /// A human-readable report: totals, hot tables, and the lifetime
    /// histogram and flamegraph of `spans`, the same run's span tree.
    /// `source` labels check/alloc sites (`source:line`).
    pub fn text_report(&self, source: &str, spans: &SpanTree) -> String {
        let t = &self.totals;
        let mut out = String::new();
        out.push_str(&format!("telemetry profile — {source}\n"));
        out.push_str(&format!(
            "  regions   {} created ({} subregions), {} deleted\n",
            t.regions_created, t.subregions_created, t.regions_deleted
        ));
        out.push_str(&format!("  allocs    {} objects, {} words\n", t.allocs, t.alloc_words));
        out.push_str(&format!(
            "  rc        {} full + {} early-exit updates\n",
            t.rc_updates_full, t.rc_updates_same
        ));
        out.push_str(&format!(
            "  checks    {} sameregion, {} parentptr, {} traditional ({} failed)\n",
            t.checks_sameregion, t.checks_parentptr, t.checks_traditional, t.checks_failed
        ));
        if t.gc_collections > 0 {
            out.push_str(&format!("  gc        {} collections\n", t.gc_collections));
        }
        if t.audit_runs > 0 {
            out.push_str(&format!(
                "  audits    {} runs, {} failures\n",
                t.audit_runs, t.audit_failures
            ));
        }
        if t.faults_injected > 0 {
            out.push_str(&format!("  faults    {} injected\n", t.faults_injected));
        }
        let checks = self.hot_check_sites(5);
        if !checks.is_empty() {
            out.push_str("  top check sites:\n");
            for s in checks {
                out.push_str(&format!(
                    "    {source}:{:<5} {:>10} checks ({} sr / {} pp / {} trad)\n",
                    s.line,
                    s.checks_total(),
                    s.checks_sameregion,
                    s.checks_parentptr,
                    s.checks_traditional
                ));
            }
        }
        let allocs = self.hot_alloc_sites(5);
        if !allocs.is_empty() {
            out.push_str("  top alloc sites:\n");
            for s in allocs {
                out.push_str(&format!(
                    "    {source}:{:<5} {:>10} words in {} objects\n",
                    s.line, s.alloc_words, s.allocs
                ));
            }
        }
        let hist = spans.lifetime_histogram();
        let max = hist.iter().copied().max().unwrap_or(0);
        if max > 0 {
            out.push_str("  region lifetimes (virtual cycles):\n");
        }
        for (i, &n) in hist.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let range = if i == 0 { "0".to_string() } else { format!("[2^{}, 2^{})", i - 1, i) };
            let bar = "#".repeat(((n as f64 / max as f64) * 30.0).ceil() as usize);
            out.push_str(&format!("    {range:<14} {n:>8}  {bar}\n"));
        }
        out.push_str(&spans.flamegraph());
        out
    }

    /// Encodes the folded profile as one JSON object (one JSONL line via
    /// [`Json::render`]). The region rows and lifetime histogram are
    /// read from `spans`, the same run's span tree: one row per
    /// [`Span::touched`](crate::Span::touched) region, with no parent and
    /// no creation time when its creation was not folded, and a lifetime
    /// only when its reclamation was.
    pub fn to_json(&self, source: &str, spans: &SpanTree) -> Json {
        let t = &self.totals;
        let totals = Json::obj(vec![
            ("regions_created", Json::U(t.regions_created)),
            ("subregions_created", Json::U(t.subregions_created)),
            ("regions_deleted", Json::U(t.regions_deleted)),
            ("allocs", Json::U(t.allocs)),
            ("alloc_words", Json::U(t.alloc_words)),
            ("rc_updates_full", Json::U(t.rc_updates_full)),
            ("rc_updates_same", Json::U(t.rc_updates_same)),
            ("checks_sameregion", Json::U(t.checks_sameregion)),
            ("checks_parentptr", Json::U(t.checks_parentptr)),
            ("checks_traditional", Json::U(t.checks_traditional)),
            ("checks_failed", Json::U(t.checks_failed)),
            ("gc_collections", Json::U(t.gc_collections)),
            ("audit_runs", Json::U(t.audit_runs)),
            ("audit_failures", Json::U(t.audit_failures)),
            ("faults_injected", Json::U(t.faults_injected)),
        ]);
        let sites = Json::A(
            self.sites
                .values()
                .map(|s| {
                    Json::obj(vec![
                        ("line", Json::U(s.line as u64)),
                        ("allocs", Json::U(s.allocs)),
                        ("alloc_words", Json::U(s.alloc_words)),
                        ("checks_sameregion", Json::U(s.checks_sameregion)),
                        ("checks_parentptr", Json::U(s.checks_parentptr)),
                        ("checks_traditional", Json::U(s.checks_traditional)),
                        ("checks_failed", Json::U(s.checks_failed)),
                        ("rc_updates", Json::U(s.rc_updates)),
                    ])
                })
                .collect(),
        );
        let regions = Json::A(
            spans
                .spans()
                .iter()
                .filter(|s| s.touched())
                .map(|s| {
                    let if_deleted = |v: u64| Json::U(if s.folded_delete { v } else { 0 });
                    Json::obj(vec![
                        ("region", Json::U(s.region as u64)),
                        (
                            "parent",
                            if s.folded_create { Json::U(s.parent as u64) } else { Json::Null },
                        ),
                        ("created_at", Json::U(s.created_at)),
                        ("alloc_objects", Json::U(s.allocs)),
                        ("alloc_words", Json::U(s.alloc_words)),
                        ("deleted", Json::Bool(s.folded_delete)),
                        ("live_words_at_delete", if_deleted(s.freed_words)),
                        ("lifetime_cycles", if_deleted(s.duration().unwrap_or(0))),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("kind", Json::s("profile")),
            ("source", Json::s(source)),
            ("totals", totals),
            ("sites", sites),
            ("regions", regions),
            (
                "lifetime_hist",
                Json::A(spans.lifetime_histogram().iter().map(|&n| Json::U(n)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::{alloc, check};
    use crate::trace::NO_REGION;

    fn created(region: u32, at: u64) -> Event {
        Event::RegionCreated { region, at, born: at }
    }

    #[test]
    fn fold_accumulates_totals_and_sites() {
        let mut p = Profile::new();
        p.fold(&created(1, 10));
        p.fold(&Event::SubregionCreated { region: 2, parent: 1, at: 20, born: 20 });
        p.fold(&alloc(1, 5, 3));
        p.fold(&alloc(2, 5, 2));
        p.fold(&alloc(2, 9, 4));
        p.fold(&check(PtrKind::SameRegion, 7, true));
        p.fold(&Event::RcUpdate { from: 1, to: NO_REGION, full: true, site: 7, at: 0 });
        p.fold(&Event::RegionDeleted { region: 2, live_words: 6, lifetime_cycles: 100, at: 120 });

        assert_eq!(p.totals.regions_created, 2);
        assert_eq!(p.totals.subregions_created, 1);
        assert_eq!(p.totals.regions_deleted, 1);
        assert_eq!(p.totals.allocs, 3);
        assert_eq!(p.totals.alloc_words, 9);
        assert_eq!(p.totals.checks_total(), 1);
        assert_eq!(p.totals.rc_updates_total(), 1);

        let site5 = p.sites().find(|s| s.line == 5).unwrap();
        assert_eq!(site5.allocs, 2);
        assert_eq!(site5.alloc_words, 5);
        let site7 = p.sites().find(|s| s.line == 7).unwrap();
        assert_eq!(site7.checks_total(), 1);
        assert_eq!(site7.rc_updates, 1);
    }

    #[test]
    fn hot_tables_rank_and_truncate() {
        let mut p = Profile::new();
        for (site, n) in [(3u32, 5u64), (8, 9), (2, 9), (4, 1)] {
            for _ in 0..n {
                p.fold(&check(PtrKind::ParentPtr, site, true));
            }
        }
        let hot = p.hot_check_sites(3);
        let lines: Vec<u32> = hot.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![2, 8, 3], "count desc, line asc on ties, top 3");
    }

    #[test]
    fn merge_unions_sites_and_sums_totals() {
        let mut a = Profile::new();
        a.fold(&created(1, 10));
        a.fold(&alloc(1, 5, 3));
        a.fold(&check(PtrKind::SameRegion, 7, false));
        let mut b = Profile::new();
        b.fold(&created(1, 20));
        b.fold(&alloc(1, 5, 2));
        b.fold(&alloc(1, 9, 4));
        let m = a.merge(&b);
        assert_eq!(m.totals.regions_created, 2);
        assert_eq!(m.totals.allocs, 3);
        assert_eq!(m.totals.alloc_words, 9);
        assert_eq!(m.totals.checks_failed, 1);
        let site5 = m.sites().find(|s| s.line == 5).unwrap();
        assert_eq!((site5.allocs, site5.alloc_words), (2, 5));
    }

    #[test]
    fn merge_is_associative() {
        let mk = |region: u32, site: u32, at: u64| {
            let mut p = Profile::new();
            p.fold(&created(region, at));
            p.fold(&alloc(region, site, site + 1));
            p.fold(&check(PtrKind::ParentPtr, site, true));
            p
        };
        let (a, b, c) = (mk(1, 3, 5), mk(2, 4, 6), mk(1, 3, 7));
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        let none = SpanTree::new(16);
        assert_eq!(left.to_json("x", &none).render(), right.to_json("x", &none).render());
    }

    #[test]
    fn profile_json_has_schema_fields() {
        let mut p = Profile::new();
        p.fold(&alloc(1, 4, 2));
        let j = p.to_json("quickstart.rc", &SpanTree::new(16)).render();
        assert!(j.contains(r#""kind":"profile""#));
        assert!(j.contains(r#""source":"quickstart.rc""#));
        assert!(j.contains(r#""allocs":1"#));
        assert!(j.contains(r#""line":4"#));
    }
}
