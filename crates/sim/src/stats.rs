//! Measurement registry: counters, distributions, and log₂ histograms.
//!
//! Every crate in the simulator records into a [`Stats`] registry. Handles
//! ([`CounterId`], [`DistId`], [`HistId`]) are plain indices, so recording
//! through a handle never hashes. Registering a name doubles as looking it
//! up, through a [`FastMap`] index; report-time code does that freely.
//! Per-event paths instead resolve their handle once, at first use — so
//! the registry's registration order is the same as a by-name lookup
//! would give — and keep it beside the registry's owner. A handle indexes
//! one registry only: whoever replaces a registry clears the handles
//! cached against it.
//!
//! A name is kept as a [`Cow<'static, str>`](Cow): a `&'static str`
//! registers, and its registry clones, without allocating, while a
//! `String` is kept as given. Every name the machine and the policies
//! register is static, so a run's summary (a copy of the live registry
//! plus the end-of-run counters, see `Gpu::run`) allocates only its
//! storage; the telemetry hub still builds some of its names with
//! `format!`. Both kinds of name render, iterate and merge alike.

use std::borrow::Cow;
use std::fmt;

use crate::fasthash::FastMap;
use crate::time::Cycle;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(usize);

/// Handle to a registered distribution (min/max/sum/count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DistId(usize);

/// Handle to a registered log₂ histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistId(usize);

/// Summary of a recorded distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DistSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Minimum sample (0 when empty).
    pub min: u64,
    /// Maximum sample (0 when empty).
    pub max: u64,
}

impl DistSummary {
    /// Arithmetic mean of the samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A registered name (module docs).
type Name = Cow<'static, str>;

#[derive(Debug, Clone)]
struct Dist {
    name: Name,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Number of buckets in a log₂ histogram: values up to 2⁶³ land in a bucket.
const HIST_BUCKETS: usize = 65;

#[derive(Debug, Clone)]
struct Hist {
    name: Name,
    buckets: [u64; HIST_BUCKETS],
    count: u64,
}

/// A registry of named measurements.
///
/// # Example
///
/// ```
/// let mut stats = awg_sim::Stats::new();
/// let atomics = stats.counter("atomics_executed");
/// stats.inc(atomics);
/// stats.add(atomics, 9);
/// assert_eq!(stats.get(atomics), 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stats {
    counter_names: Vec<Name>,
    counters: Vec<u64>,
    dists: Vec<Dist>,
    hists: Vec<Hist>,
    // Name → slot indices so registration (and by-name lookup) is O(1).
    // Policies register per-WG metrics on hot paths; a linear scan makes
    // that quadratic in the number of registered names.
    counter_index: FastMap<Name, usize>,
    dist_index: FastMap<Name, usize>,
    hist_index: FastMap<Name, usize>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `more` counters, so registering them grows neither
    /// the registry's storage nor its index.
    pub fn reserve_counters(&mut self, more: usize) {
        self.counter_names.reserve(more);
        self.counters.reserve(more);
        self.counter_index.reserve(more);
    }

    /// Registers (or finds) a counter named `name` and returns its handle.
    pub fn counter(&mut self, name: impl Into<Cow<'static, str>>) -> CounterId {
        self.counter_named(name.into())
    }

    /// Registers (or finds) a distribution named `name`.
    pub fn dist(&mut self, name: impl Into<Cow<'static, str>>) -> DistId {
        self.dist_named(name.into())
    }

    /// Registers (or finds) a log₂ histogram named `name`.
    pub fn hist(&mut self, name: impl Into<Cow<'static, str>>) -> HistId {
        self.hist_named(name.into())
    }

    // The registration bodies are not generic, so they are compiled once,
    // here, and not into every caller's code.

    fn counter_named(&mut self, name: Name) -> CounterId {
        if let Some(&i) = self.counter_index.get(&name) {
            return CounterId(i);
        }
        let i = self.counters.len();
        self.counter_names.push(name.clone());
        self.counters.push(0);
        self.counter_index.insert(name, i);
        CounterId(i)
    }

    fn dist_named(&mut self, name: Name) -> DistId {
        if let Some(&i) = self.dist_index.get(&name) {
            return DistId(i);
        }
        let i = self.dists.len();
        self.dists.push(Dist {
            name: name.clone(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        });
        self.dist_index.insert(name, i);
        DistId(i)
    }

    fn hist_named(&mut self, name: Name) -> HistId {
        if let Some(&i) = self.hist_index.get(&name) {
            return HistId(i);
        }
        let i = self.hists.len();
        self.hists.push(Hist {
            name: name.clone(),
            buckets: [0; HIST_BUCKETS],
            count: 0,
        });
        self.hist_index.insert(name, i);
        HistId(i)
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0] += delta;
    }

    /// Current value of a counter.
    #[inline]
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Looks up a counter's current value by name, if registered.
    pub fn get_by_name(&self, name: &str) -> Option<u64> {
        self.counter_index.get(name).map(|&i| self.counters[i])
    }

    /// Records a sample into a distribution.
    #[inline]
    pub fn sample(&mut self, id: DistId, value: u64) {
        let d = &mut self.dists[id.0];
        d.count += 1;
        d.sum += value;
        d.min = d.min.min(value);
        d.max = d.max.max(value);
    }

    /// Summary of a distribution.
    pub fn dist_summary(&self, id: DistId) -> DistSummary {
        let d = &self.dists[id.0];
        DistSummary {
            count: d.count,
            sum: d.sum,
            min: if d.count == 0 { 0 } else { d.min },
            max: d.max,
        }
    }

    /// Records a sample into a log₂ histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, value: Cycle) {
        let h = &mut self.hists[id.0];
        let bucket = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        h.buckets[bucket] += 1;
        h.count += 1;
    }

    /// Returns `(lower_bound, count)` pairs for every non-empty histogram
    /// bucket.
    pub fn hist_buckets(&self, id: HistId) -> Vec<(u64, u64)> {
        let h = &self.hists[id.0];
        h.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }

    /// Looks up a histogram's non-empty buckets by name, if registered.
    pub fn hist_buckets_by_name(&self, name: &str) -> Option<Vec<(u64, u64)>> {
        self.hist_index
            .get(name)
            .map(|&i| self.hist_buckets(HistId(i)))
    }

    /// Looks up a distribution's summary by name, if registered.
    pub fn dist_summary_by_name(&self, name: &str) -> Option<DistSummary> {
        self.dist_index
            .get(name)
            .map(|&i| self.dist_summary(DistId(i)))
    }

    /// Iterates over all `(name, value)` counters in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names
            .iter()
            .map(|name| &**name)
            .zip(self.counters.iter().copied())
    }

    /// Iterates over all `(name, summary)` distributions in registration
    /// order.
    pub fn dists(&self) -> impl Iterator<Item = (&str, DistSummary)> {
        self.dists.iter().map(|d| {
            (
                &*d.name,
                DistSummary {
                    count: d.count,
                    sum: d.sum,
                    min: if d.count == 0 { 0 } else { d.min },
                    max: d.max,
                },
            )
        })
    }

    /// Iterates over all `(name, non-empty buckets)` histograms in
    /// registration order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, Vec<(u64, u64)>)> {
        (0..self.hists.len()).map(|i| (&*self.hists[i].name, self.hist_buckets(HistId(i))))
    }

    /// Merges another registry into this one by name: counters add,
    /// distributions combine their moments, histograms add bucketwise.
    /// Used to fold a subsystem's private registry (e.g. the telemetry
    /// hub's) into the run-level one at report time, and to aggregate
    /// per-job registries across a parallel sweep campaign.
    ///
    /// Names absent from `self` are registered in **sorted name order**,
    /// not in `other`'s registration order. Parallel campaigns absorb
    /// registries whose registration order depends on which policy ran the
    /// job; sorting makes the merged registry's iteration order (and hence
    /// its `Display` rendering) a function of the merged name *set* only.
    pub fn absorb(&mut self, other: &Stats) {
        let mut counters: Vec<(&Name, u64)> = other
            .counter_names
            .iter()
            .zip(other.counters.iter().copied())
            .collect();
        counters.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (name, value) in counters {
            let c = self.counter(name.clone());
            self.add(c, value);
        }
        let mut dist_slots: Vec<&Dist> = other.dists.iter().collect();
        dist_slots.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        for o in dist_slots {
            let id = self.dist(o.name.clone());
            let d = &mut self.dists[id.0];
            d.count += o.count;
            d.sum += o.sum;
            d.min = d.min.min(o.min);
            d.max = d.max.max(o.max);
        }
        let mut hist_slots: Vec<&Hist> = other.hists.iter().collect();
        hist_slots.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        for o in hist_slots {
            let id = self.hist(o.name.clone());
            let h = &mut self.hists[id.0];
            for (b, &c) in h.buckets.iter_mut().zip(o.buckets.iter()) {
                *b += c;
            }
            h.count += o.count;
        }
    }

    /// Restores a distribution's moments wholesale, merging with whatever
    /// the slot already holds. The inverse of [`Stats::dist_summary`]:
    /// journal resume decodes a serialized registry without access to the
    /// original samples, so it cannot rebuild moments through
    /// [`Stats::sample`].
    pub fn restore_dist(&mut self, name: &str, summary: DistSummary) {
        let id = self.dist(name.to_owned());
        let d = &mut self.dists[id.0];
        d.count += summary.count;
        d.sum += summary.sum;
        if summary.count > 0 {
            d.min = d.min.min(summary.min);
            d.max = d.max.max(summary.max);
        }
    }

    /// Restores `count` observations into the histogram bucket whose lower
    /// bound is `lower_bound` — the inverse of [`Stats::hist_buckets`],
    /// which reports bucket 0 as bound 0 and bucket *i* (*i* ≥ 1) as bound
    /// 2^(i−1). `lower_bound` must be one of those bounds (0 or a power of
    /// two); anything else restores into the bucket covering the value,
    /// same as [`Stats::observe`] would.
    pub fn restore_hist_bucket(&mut self, name: &str, lower_bound: u64, count: u64) {
        let id = self.hist(name.to_owned());
        let bucket = if lower_bound == 0 {
            0
        } else {
            64 - lower_bound.leading_zeros() as usize
        };
        let h = &mut self.hists[id.0];
        h.buckets[bucket] += count;
        h.count += count;
    }

    /// Resets all counters, distributions and histograms to zero, keeping
    /// the registered names (so handles remain valid).
    pub fn reset(&mut self) {
        for c in &mut self.counters {
            *c = 0;
        }
        for d in &mut self.dists {
            d.count = 0;
            d.sum = 0;
            d.min = u64::MAX;
            d.max = 0;
        }
        for h in &mut self.hists {
            h.buckets = [0; HIST_BUCKETS];
            h.count = 0;
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.counters() {
            writeln!(f, "{name}: {value}")?;
        }
        for d in &self.dists {
            let s = DistSummary {
                count: d.count,
                sum: d.sum,
                min: if d.count == 0 { 0 } else { d.min },
                max: d.max,
            };
            writeln!(
                f,
                "{}: count={} mean={:.2} min={} max={}",
                d.name,
                s.count,
                s.mean(),
                s.min,
                s.max
            )?;
        }
        for i in 0..self.hists.len() {
            let h = &self.hists[i];
            write!(f, "{}: count={}", h.name, h.count)?;
            for (lo, c) in self.hist_buckets(HistId(i)) {
                write!(f, " | {lo}:{c}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let mut s = Stats::new();
        let c = s.counter("x");
        s.inc(c);
        s.add(c, 4);
        assert_eq!(s.get(c), 5);
        assert_eq!(s.get_by_name("x"), Some(5));
        assert_eq!(s.get_by_name("missing"), None);
    }

    #[test]
    fn counter_registration_is_idempotent() {
        let mut s = Stats::new();
        let a = s.counter("same");
        let b = s.counter("same");
        assert_eq!(a, b);
        s.inc(a);
        assert_eq!(s.get(b), 1);
    }

    #[test]
    fn dist_summary_tracks_min_max_mean() {
        let mut s = Stats::new();
        let d = s.dist("lat");
        for v in [10, 20, 30] {
            s.sample(d, v);
        }
        let sum = s.dist_summary(d);
        assert_eq!(sum.count, 3);
        assert_eq!(sum.min, 10);
        assert_eq!(sum.max, 30);
        assert!((sum.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_dist_is_zeroed() {
        let mut s = Stats::new();
        let d = s.dist("empty");
        let sum = s.dist_summary(d);
        assert_eq!(sum.count, 0);
        assert_eq!(sum.min, 0);
        assert_eq!(sum.mean(), 0.0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut s = Stats::new();
        let h = s.hist("h");
        s.observe(h, 0);
        s.observe(h, 1);
        s.observe(h, 2);
        s.observe(h, 3);
        s.observe(h, 1024);
        let buckets = s.hist_buckets(h);
        // 0 -> bucket 0; 1 -> bucket [1,2); 2,3 -> bucket [2,4); 1024 -> [1024,2048)
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (1024, 1)]);
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let mut s = Stats::new();
        let c = s.counter("c");
        let d = s.dist("d");
        s.add(c, 7);
        s.sample(d, 3);
        s.reset();
        assert_eq!(s.get(c), 0);
        assert_eq!(s.dist_summary(d).count, 0);
        s.inc(c);
        assert_eq!(s.get(c), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let mut s = Stats::new();
        let c = s.counter("visible");
        s.inc(c);
        let text = s.to_string();
        assert!(text.contains("visible: 1"));
    }

    #[test]
    fn absorb_merges_by_name() {
        let mut a = Stats::new();
        let ca = a.counter("atomics");
        a.add(ca, 3);
        let da = a.dist("lat");
        a.sample(da, 10);
        let ha = a.hist("wake");
        a.observe(ha, 4);

        let mut b = Stats::new();
        let cb = b.counter("atomics");
        b.add(cb, 5);
        let db = b.dist("lat");
        b.sample(db, 2);
        let hb = b.hist("wake");
        b.observe(hb, 4);

        a.absorb(&b);
        assert_eq!(a.get_by_name("atomics"), Some(8));
        let lat = a.dist_summary_by_name("lat").unwrap();
        assert_eq!((lat.count, lat.sum, lat.min, lat.max), (2, 12, 2, 10));
        assert_eq!(a.hist_buckets_by_name("wake").unwrap(), vec![(4, 2)]);
    }

    /// Regression: merged registration order must not depend on the order
    /// the absorbed registries registered their names — workers in a
    /// parallel campaign register metrics in policy-dependent order.
    #[test]
    fn absorb_order_is_registration_order_independent() {
        fn registry(names: [&'static str; 3]) -> Stats {
            let mut s = Stats::new();
            for name in names {
                let c = s.counter(name);
                s.inc(c);
                let d = s.dist(name);
                s.sample(d, 1);
                let h = s.hist(name);
                s.observe(h, 1);
            }
            s
        }
        let forward = registry(["alpha", "beta", "gamma"]);
        let reverse = registry(["gamma", "beta", "alpha"]);
        let mut via_forward = Stats::new();
        via_forward.absorb(&forward);
        via_forward.absorb(&reverse);
        let mut via_reverse = Stats::new();
        via_reverse.absorb(&reverse);
        via_reverse.absorb(&forward);
        let order_f: Vec<_> = via_forward.counters().collect();
        let order_r: Vec<_> = via_reverse.counters().collect();
        assert_eq!(order_f, order_r, "counter order must match");
        assert_eq!(
            via_forward.dists().map(|(n, _)| n).collect::<Vec<_>>(),
            via_reverse.dists().map(|(n, _)| n).collect::<Vec<_>>(),
        );
        assert_eq!(
            via_forward.hists().map(|(n, _)| n).collect::<Vec<_>>(),
            via_reverse.hists().map(|(n, _)| n).collect::<Vec<_>>(),
        );
        assert_eq!(via_forward.to_string(), via_reverse.to_string());
    }

    /// Serializing a registry via its iterators and restoring it through
    /// the `restore_*` APIs must reproduce the same summaries — this is the
    /// contract the harness journal codec builds on.
    #[test]
    fn restore_apis_invert_the_iterators() {
        let mut original = Stats::new();
        let c = original.counter("ops");
        original.add(c, 11);
        let d = original.dist("lat");
        original.sample(d, 4);
        original.sample(d, 40);
        let h = original.hist("wake");
        original.observe(h, 0);
        original.observe(h, 3);
        original.observe(h, 1024);
        original.dist("empty");

        let mut rebuilt = Stats::new();
        for (name, value) in original.counters() {
            let id = rebuilt.counter(name.to_owned());
            rebuilt.add(id, value);
        }
        for (name, summary) in original.dists() {
            rebuilt.restore_dist(name, summary);
        }
        for (name, buckets) in original.hists() {
            for (lo, count) in buckets {
                rebuilt.restore_hist_bucket(name, lo, count);
            }
        }
        assert_eq!(rebuilt.to_string(), original.to_string());
        assert_eq!(
            rebuilt.dist_summary_by_name("lat"),
            original.dist_summary_by_name("lat")
        );
        assert_eq!(
            rebuilt.hist_buckets_by_name("wake"),
            original.hist_buckets_by_name("wake")
        );
    }

    /// Static and owned names are two ways to hold the same name: the
    /// same registrations through either give the same registry.
    mod name_kinds {
        use super::*;
        use proptest::prelude::*;

        const NAMES: [&str; 5] = ["alpha", "wake", "lat", "l2_atomics", "awg_wakes_issued"];

        /// Applies `ops` (kind, name, value) through static names, or
        /// through owned copies of them.
        fn build(ops: &[(u8, usize, u64)], owned: bool) -> Stats {
            let mut s = Stats::new();
            for &(kind, i, value) in ops {
                let name: Name = if owned {
                    Cow::Owned(NAMES[i].to_owned())
                } else {
                    Cow::Borrowed(NAMES[i])
                };
                match kind {
                    0 => {
                        let c = s.counter(name);
                        s.add(c, value);
                    }
                    1 => {
                        let d = s.dist(name);
                        s.sample(d, value);
                    }
                    _ => {
                        let h = s.hist(name);
                        s.observe(h, value);
                    }
                }
            }
            s
        }

        /// Everything a reader can see of a registry.
        fn view(s: &Stats) -> String {
            let counters: Vec<_> = s.counters().collect();
            let dists: Vec<_> = s.dists().collect();
            let hists: Vec<_> = s.hists().collect();
            format!("{s}{counters:?}{dists:?}{hists:?}")
        }

        fn op() -> impl Strategy<Value = (u8, usize, u64)> {
            (0u8..3, 0usize..NAMES.len(), 0u64..5_000)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn static_and_owned_names_build_the_same_registry(
                ops in prop::collection::vec(op(), 0..40),
                more in prop::collection::vec(op(), 0..40),
            ) {
                let borrowed = build(&ops, false);
                let owned = build(&ops, true);
                prop_assert_eq!(view(&borrowed), view(&owned));
                prop_assert_eq!(view(&borrowed.clone()), view(&owned.clone()));

                // Absorbing either kind into either kind merges alike.
                let base = build(&more, false);
                let mut merged = Vec::new();
                for other in [&borrowed, &owned] {
                    for into in [base.clone(), build(&more, true)] {
                        let mut into = into;
                        into.absorb(other);
                        merged.push(view(&into));
                    }
                }
                prop_assert!(merged.windows(2).all(|w| w[0] == w[1]), "{:?}", merged);
            }
        }
    }

    #[test]
    fn display_renders_histograms() {
        let mut s = Stats::new();
        let h = s.hist("latency");
        s.observe(h, 0);
        s.observe(h, 1);
        s.observe(h, 3);
        s.observe(h, 3);
        let text = s.to_string();
        // Buckets: 0 -> "0:1", 1 -> "1:1", {3,3} -> "2:2".
        assert!(
            text.contains("latency: count=4 | 0:1 | 1:1 | 2:2"),
            "{text}"
        );
    }
}
