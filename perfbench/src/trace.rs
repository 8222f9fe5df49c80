//! Delegating shims that time the library's public seams from outside.
//!
//! [`TracedDevice`] wraps a [`DeviceUnderTest`], [`TracedFactory`] a
//! [`ClassifierFactory`] and [`TracedClassifier`] every model that factory
//! trains.  Each shim forwards every trait method to the wrapped value —
//! including the ones with default bodies — so the traced program makes
//! exactly the calls the untraced one makes.  `as_any` matters most: the
//! SVM backend recognises its own models through it to warm-start, and a
//! shim that dropped it would silently turn every warm start cold.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use spec_test_compaction::core::classifier::{
    BankStats, Classifier, ClassifierFactory, TrainingView, WarmStartContext,
};
use spec_test_compaction::core::{DeviceUnderTest, SpecificationSet};

/// Calls into one seam and the time spent inside them.
#[derive(Debug, Default)]
struct Seam {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    failed: AtomicU64,
}

impl Seam {
    fn record(&self, elapsed: Duration, ok: bool) {
        // Relaxed: plain statistics, read only after the traced work joined.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn counts(&self) -> SeamCounts {
        SeamCounts {
            calls: self.calls.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            failed: self.failed.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of one seam's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeamCounts {
    /// Calls made.
    pub calls: u64,
    /// Seconds spent inside those calls, summed over threads.
    pub busy_s: f64,
    /// Calls that returned an error.
    pub failed: u64,
}

impl std::ops::Sub for SeamCounts {
    type Output = SeamCounts;
    fn sub(self, earlier: SeamCounts) -> SeamCounts {
        SeamCounts {
            calls: self.calls - earlier.calls,
            busy_s: self.busy_s - earlier.busy_s,
            failed: self.failed - earlier.failed,
        }
    }
}

/// A snapshot of every counter the shims keep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceCounts {
    /// `DeviceUnderTest::simulate_instance`.
    pub simulate: SeamCounts,
    /// `ClassifierFactory::train` / `train_warm`.
    pub fits: SeamCounts,
    /// `Classifier::decision` / `predict_good`.
    pub decisions: SeamCounts,
    /// `Classifier::predict_good_within`.
    pub boxes: SeamCounts,
    /// Solver iterations reported by the trained models.
    pub iterations: u64,
    /// Kernel-row bank counters reported by the trained models.
    pub bank: BankStats,
}

impl std::ops::Sub for TraceCounts {
    type Output = TraceCounts;
    fn sub(self, earlier: TraceCounts) -> TraceCounts {
        TraceCounts {
            simulate: self.simulate - earlier.simulate,
            fits: self.fits - earlier.fits,
            decisions: self.decisions - earlier.decisions,
            boxes: self.boxes - earlier.boxes,
            iterations: self.iterations - earlier.iterations,
            bank: BankStats {
                seeded_rows: self.bank.seeded_rows - earlier.bank.seeded_rows,
                rebuilt_rows: self.bank.rebuilt_rows - earlier.bank.rebuilt_rows,
                ignored_banks: self.bank.ignored_banks - earlier.bank.ignored_banks,
            },
        }
    }
}

/// Shared counters of one traced run, plus the spans of the model calls
/// made while span recording is on (used to compute a caller's self time).
pub struct Trace {
    epoch: Instant,
    simulate: Seam,
    fits: Seam,
    decisions: Seam,
    boxes: Seam,
    iterations: AtomicU64,
    seeded_rows: AtomicU64,
    rebuilt_rows: AtomicU64,
    ignored_banks: AtomicU64,
    recording: AtomicBool,
    spans: Mutex<Vec<(u64, u64)>>,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace").field("counts", &self.counts()).finish_non_exhaustive()
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            simulate: Seam::default(),
            fits: Seam::default(),
            decisions: Seam::default(),
            boxes: Seam::default(),
            iterations: AtomicU64::new(0),
            seeded_rows: AtomicU64::new(0),
            rebuilt_rows: AtomicU64::new(0),
            ignored_banks: AtomicU64::new(0),
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Trace {
    /// A fresh trace, shareable with the shims.
    pub fn new() -> Arc<Self> {
        Arc::new(Trace::default())
    }

    /// Snapshot of every counter.
    pub fn counts(&self) -> TraceCounts {
        TraceCounts {
            simulate: self.simulate.counts(),
            fits: self.fits.counts(),
            decisions: self.decisions.counts(),
            boxes: self.boxes.counts(),
            iterations: self.iterations.load(Ordering::Relaxed),
            bank: BankStats {
                seeded_rows: self.seeded_rows.load(Ordering::Relaxed) as usize,
                rebuilt_rows: self.rebuilt_rows.load(Ordering::Relaxed) as usize,
                ignored_banks: self.ignored_banks.load(Ordering::Relaxed) as usize,
            },
        }
    }

    /// Runs `work` with span recording on and returns its result, its wall
    /// time and its self time: the wall time minus the part of it covered by
    /// the model calls (fits, decisions, box proofs) made inside, on any
    /// thread.
    pub fn spanned<T>(&self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        self.spans.lock().expect("span buffer poisoned").clear();
        self.recording.store(true, Ordering::SeqCst);
        let start = Instant::now();
        let out = work();
        let wall = start.elapsed().as_secs_f64();
        self.recording.store(false, Ordering::SeqCst);
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        (out, wall, wall - union_seconds(&mut spans))
    }

    fn timed<T>(&self, seam: &Seam, call: impl FnOnce() -> T, ok: impl Fn(&T) -> bool) -> T {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        seam.record(end - start, ok(&out));
        if self.recording.load(Ordering::Relaxed) {
            let at = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.spans.lock().expect("span buffer poisoned").push((at(start), at(end)));
        }
        out
    }

    fn fit(
        self: &Arc<Self>,
        train: impl FnOnce() -> spec_test_compaction::core::Result<Arc<dyn Classifier>>,
    ) -> spec_test_compaction::core::Result<Arc<dyn Classifier>> {
        let model = self.timed(&self.fits, train, Result::is_ok)?;
        let iterations = model.solver_iterations().unwrap_or(0) as u64;
        self.iterations.fetch_add(iterations, Ordering::Relaxed);
        if let Some(bank) = model.bank_stats() {
            self.seeded_rows.fetch_add(bank.seeded_rows as u64, Ordering::Relaxed);
            self.rebuilt_rows.fetch_add(bank.rebuilt_rows as u64, Ordering::Relaxed);
            self.ignored_banks.fetch_add(bank.ignored_banks as u64, Ordering::Relaxed);
        }
        Ok(Arc::new(TracedClassifier { inner: model, trace: Arc::clone(self) }))
    }
}

/// Total length of the union of `[start, end)` nanosecond intervals.
fn union_seconds(spans: &mut [(u64, u64)]) -> f64 {
    spans.sort_unstable();
    let mut covered = 0u64;
    let mut open: Option<(u64, u64)> = None;
    for &(start, end) in spans.iter() {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = open {
        covered += e - s;
    }
    covered as f64 * 1e-9
}

/// A [`DeviceUnderTest`] that times and counts `simulate_instance`.
pub struct TracedDevice<'d> {
    inner: &'d dyn DeviceUnderTest,
    trace: Arc<Trace>,
}

impl<'d> TracedDevice<'d> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: &'d dyn DeviceUnderTest, trace: Arc<Trace>) -> Self {
        TracedDevice { inner, trace }
    }
}

impl DeviceUnderTest for TracedDevice<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn spec_names(&self) -> Vec<String> {
        self.inner.spec_names()
    }

    fn spec_units(&self) -> Vec<String> {
        self.inner.spec_units()
    }

    fn simulate_instance(&self, rng: &mut StdRng) -> Result<Vec<f64>, String> {
        self.trace.timed(&self.trace.simulate, || self.inner.simulate_instance(rng), Result::is_ok)
    }

    fn specification_set(&self) -> Option<SpecificationSet> {
        self.inner.specification_set()
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }
}

/// A [`ClassifierFactory`] that times every training and wraps every model
/// it returns in a [`TracedClassifier`].
#[derive(Debug)]
pub struct TracedFactory {
    inner: Arc<dyn ClassifierFactory>,
    trace: Arc<Trace>,
}

impl TracedFactory {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: Arc<dyn ClassifierFactory>, trace: Arc<Trace>) -> Self {
        TracedFactory { inner, trace }
    }
}

impl ClassifierFactory for TracedFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn train(
        &self,
        view: &TrainingView<'_>,
    ) -> spec_test_compaction::core::Result<Arc<dyn Classifier>> {
        self.trace.fit(|| self.inner.train(view))
    }

    fn train_warm(
        &self,
        view: &TrainingView<'_>,
        warm: Option<&WarmStartContext<'_>>,
    ) -> spec_test_compaction::core::Result<Arc<dyn Classifier>> {
        self.trace.fit(|| self.inner.train_warm(view, warm))
    }

    fn supports_screening(&self) -> bool {
        self.inner.supports_screening()
    }

    fn train_screen(
        &self,
        view: &TrainingView<'_>,
        landmarks: usize,
    ) -> spec_test_compaction::core::Result<Arc<dyn Classifier>> {
        self.inner.train_screen(view, landmarks)
    }
}

/// A trained model that times its decision and box-proof calls.
#[derive(Debug)]
pub struct TracedClassifier {
    inner: Arc<dyn Classifier>,
    trace: Arc<Trace>,
}

impl Classifier for TracedClassifier {
    fn decision(&self, features: &[f64]) -> f64 {
        self.trace.timed(&self.trace.decisions, || self.inner.decision(features), |_| true)
    }

    fn predict_good(&self, features: &[f64]) -> bool {
        self.trace.timed(&self.trace.decisions, || self.inner.predict_good(features), |_| true)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn solver_iterations(&self) -> Option<usize> {
        self.inner.solver_iterations()
    }

    fn predict_good_within(&self, lower: &[f64], upper: &[f64]) -> Option<bool> {
        self.trace.timed(
            &self.trace.boxes,
            || self.inner.predict_good_within(lower, upper),
            |_| true,
        )
    }

    fn bank_stats(&self) -> Option<BankStats> {
        self.inner.bank_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlapping_and_nested_spans() {
        let mut spans = vec![(10, 20), (0, 5), (15, 30), (16, 18), (40, 41)];
        assert!((union_seconds(&mut spans) - 26e-9).abs() < 1e-15);
        assert_eq!(union_seconds(&mut []), 0.0);
    }
}
