//! Monte-Carlo training-data generation (Figure 1 of the paper).

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dataset::MeasurementSet;
use crate::device::DeviceUnderTest;
use crate::spec::SpecificationSet;
use crate::{CompactionError, Result};

/// Configuration of a Monte-Carlo data-generation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Number of device instances to simulate.
    pub instances: usize,
    /// Seed of the master random-number generator.
    pub seed: u64,
    /// Number of worker threads (1 = sequential).
    pub threads: usize,
    /// If `true`, instances whose simulation fails are skipped (and replaced
    /// by additional draws); if `false` the first failure aborts the run.
    pub skip_failures: bool,
    /// Quantiles used to calibrate acceptability ranges when the device does
    /// not define explicit ranges (see DESIGN.md on range calibration).
    pub calibration_quantiles: (f64, f64),
}

impl MonteCarloConfig {
    /// A sequential run with `instances` devices and the default seed.
    pub fn new(instances: usize) -> Self {
        MonteCarloConfig {
            instances,
            seed: 0x5eed,
            threads: 1,
            skip_failures: true,
            calibration_quantiles: (0.015, 0.985),
        }
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the range-calibration quantiles.
    pub fn with_calibration_quantiles(mut self, lower: f64, upper: f64) -> Self {
        self.calibration_quantiles = (lower, upper);
        self
    }

    /// Aborts instead of skipping when an instance fails to simulate.
    pub fn fail_fast(mut self) -> Self {
        self.skip_failures = false;
        self
    }
}

/// Raw Monte-Carlo output: measurement rows before ranges are attached.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloRun {
    /// Measurement rows, one per successfully simulated instance.
    pub rows: Vec<Vec<f64>>,
    /// Number of simulation attempts that failed and were skipped.  Attempts
    /// run in seed order and stop at `instances` kept rows, so the device
    /// simulated exactly `instances + skipped` instances, for every
    /// `threads`.
    pub skipped: usize,
}

/// Simulates `config.instances` perturbed devices and collects their
/// measurement rows (the Figure 1 loop: inject process disturbances, set up
/// and run the device simulation, take measurements, store).
///
/// Attempts run in seed order and stop at `config.instances` kept rows, so
/// [`DeviceUnderTest::simulate_instance`] is called exactly
/// `instances + skipped` times and the output is identical for every
/// `threads`.
///
/// Attempt `i` simulates with its own seed, the `i`-th draw of the master
/// generator.  Attempts run in waves of exactly as many as rows are still
/// missing (capped by the remaining budget), each split into contiguous
/// chunks across `threads` workers; a wave never yields more rows than are
/// missing, so every simulation it runs is consumed.  A row holding a NaN
/// or infinite value, or whose length differs from
/// [`DeviceUnderTest::spec_names`], is a failed attempt.
///
/// # Errors
///
/// Returns [`CompactionError::SimulationFailed`] when `skip_failures` is off
/// and an attempt fails (naming the first failing attempt), or when so many
/// attempts fail that the requested count cannot be reached within a
/// `3 · instances + 32` attempt budget.
pub fn run_monte_carlo(
    device: &dyn DeviceUnderTest,
    config: &MonteCarloConfig,
) -> Result<MonteCarloRun> {
    if config.instances == 0 {
        return Err(CompactionError::InvalidConfig { parameter: "instances", value: 0.0 });
    }
    // The budget leaves generous room for devices whose simulation
    // occasionally fails under process variation.
    let attempt_budget = config.instances * 3 + 32;
    let spec_names = device.spec_names();
    let mut master = StdRng::seed_from_u64(config.seed);
    let mut rows = Vec::with_capacity(config.instances);
    let mut skipped = 0usize;
    let mut attempted = 0usize;
    while rows.len() < config.instances && attempted < attempt_budget {
        let wave = (config.instances - rows.len()).min(attempt_budget - attempted);
        let seeds: Vec<u64> = (0..wave).map(|_| master.gen()).collect();
        let results = simulate_wave(device, &seeds, config.threads);
        for (offset, result) in results.into_iter().enumerate() {
            match result.and_then(|row| check_row(row, &spec_names)) {
                Ok(row) => rows.push(row),
                Err(_) if config.skip_failures => skipped += 1,
                Err(message) => {
                    return Err(CompactionError::SimulationFailed {
                        instance: attempted + offset,
                        message,
                    })
                }
            }
        }
        attempted += wave;
    }
    if rows.len() < config.instances {
        return Err(CompactionError::SimulationFailed {
            instance: rows.len(),
            message: format!(
                "only {} of {} instances could be simulated within a {attempt_budget}-attempt budget ({skipped} failures)",
                rows.len(),
                config.instances
            ),
        });
    }
    Ok(MonteCarloRun { rows, skipped })
}

/// Simulates one attempt per seed and returns the results in seed order:
/// inline when `threads <= 1`, otherwise on up to `threads` scoped workers
/// that each claim the next unsimulated seed index until none is left, so a
/// worker that drew quick instances keeps going instead of idling while
/// another finishes a fixed share.
fn simulate_wave(
    device: &dyn DeviceUnderTest,
    seeds: &[u64],
    threads: usize,
) -> Vec<std::result::Result<Vec<f64>, String>> {
    let simulate = |seed: u64| device.simulate_instance(&mut StdRng::seed_from_u64(seed));
    if threads <= 1 {
        return seeds.iter().map(|&seed| simulate(seed)).collect();
    }
    // The counter only hands out indices; results travel through `join`.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<_>> = seeds.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(seeds.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&seed) = seeds.get(index) else { break done };
                        done.push((index, simulate(seed)));
                    }
                })
            })
            .collect();
        for worker in workers {
            for (index, result) in worker.join().expect("simulation worker panicked") {
                slots[index] = Some(result);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every seed index is claimed once")).collect()
}

/// Accepts a simulated row only if it has one finite value per specification.
fn check_row(row: Vec<f64>, spec_names: &[String]) -> std::result::Result<Vec<f64>, String> {
    if row.len() != spec_names.len() {
        let column = row.len().min(spec_names.len());
        let state = if row.len() < spec_names.len() { "missing" } else { "unexpected" };
        return Err(format!(
            "simulation returned {} measurements for {} specifications (column {column} is {state})",
            row.len(),
            spec_names.len()
        ));
    }
    match row.iter().position(|value| !value.is_finite()) {
        Some(column) => Err(format!(
            "measurement column {column} (`{}`) is {}",
            spec_names[column], row[column]
        )),
        None => Ok(row),
    }
}

/// Generates a labelled [`MeasurementSet`] for a device: runs the Monte-Carlo
/// loop and attaches acceptability ranges (either the device's own ranges or
/// ranges calibrated from the population quantiles).
///
/// # Errors
///
/// Propagates simulation and calibration errors.
pub fn generate_measurement_set(
    device: &dyn DeviceUnderTest,
    config: &MonteCarloConfig,
) -> Result<MeasurementSet> {
    let run = run_monte_carlo(device, config)?;
    let specs = match device.specification_set() {
        Some(specs) => specs,
        None => {
            let names = device.spec_names();
            let units = device.spec_units();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let unit_refs: Vec<&str> = units.iter().map(String::as_str).collect();
            let nominals: Vec<f64> = (0..names.len())
                .map(|c| {
                    let mut values: Vec<f64> = run.rows.iter().map(|r| r[c]).collect();
                    values.sort_by(f64::total_cmp);
                    values[values.len() / 2]
                })
                .collect();
            SpecificationSet::from_population_quantiles(
                &name_refs,
                &unit_refs,
                &nominals,
                &run.rows,
                config.calibration_quantiles.0,
                config.calibration_quantiles.1,
            )?
        }
    };
    MeasurementSet::new(specs, run.rows)
}

/// Generates a training set and an independent test set with different seed
/// streams but a *shared* specification set (ranges calibrated on the
/// training population only, as a real flow would).
///
/// # Errors
///
/// Propagates simulation and calibration errors.
pub fn generate_train_test(
    device: &dyn DeviceUnderTest,
    train_config: &MonteCarloConfig,
    test_instances: usize,
) -> Result<(MeasurementSet, MeasurementSet)> {
    let train = generate_measurement_set(device, train_config)?;
    let test_config = MonteCarloConfig {
        instances: test_instances,
        seed: train_config.seed.wrapping_add(0x9e3779b97f4a7c15),
        ..*train_config
    };
    let test_run = run_monte_carlo(device, &test_config)?;
    let test = MeasurementSet::new(train.specs().clone(), test_run.rows)?;
    Ok((train, test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SyntheticDevice;

    #[test]
    fn sequential_and_parallel_runs_agree() {
        let device = SyntheticDevice::new(3, 2.0, 0.3);
        let sequential = run_monte_carlo(&device, &MonteCarloConfig::new(50).with_seed(9)).unwrap();
        let parallel =
            run_monte_carlo(&device, &MonteCarloConfig::new(50).with_seed(9).with_threads(4))
                .unwrap();
        assert_eq!(sequential.rows, parallel.rows);
        assert_eq!(sequential.skipped, 0);
    }

    #[test]
    fn zero_instances_is_rejected() {
        let device = SyntheticDevice::new(2, 2.0, 0.0);
        assert!(run_monte_carlo(&device, &MonteCarloConfig::new(0)).is_err());
    }

    #[test]
    fn measurement_set_uses_device_ranges_when_available() {
        let device = SyntheticDevice::new(4, 1.5, 0.0);
        let set = generate_measurement_set(&device, &MonteCarloConfig::new(200)).unwrap();
        assert_eq!(set.specs().len(), 4);
        assert_eq!(set.specs().spec(2).upper(), 1.5);
        assert_eq!(set.len(), 200);
        // With ±1.5 sigma limits on 4 independent normals the yield is
        // roughly 0.866^4 ≈ 0.56.
        let yield_fraction = set.yield_fraction();
        assert!((yield_fraction - 0.56).abs() < 0.12, "yield {yield_fraction}");
    }

    #[test]
    fn train_and_test_sets_share_specs_but_not_rows() {
        let device = SyntheticDevice::new(3, 2.0, 0.2);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(100).with_seed(5), 60).unwrap();
        assert_eq!(train.len(), 100);
        assert_eq!(test.len(), 60);
        assert_eq!(train.specs(), test.specs());
        assert_ne!(train.row_values(0), test.row_values(0));
    }

    /// A device whose simulation fails whenever its uniform draw in
    /// `[-1, 1)` is at most the threshold (half the time at 0.0).
    struct FlakyDevice(f64);

    impl DeviceUnderTest for FlakyDevice {
        fn name(&self) -> &str {
            "flaky"
        }
        fn spec_names(&self) -> Vec<String> {
            vec!["x".to_string()]
        }
        fn spec_units(&self) -> Vec<String> {
            vec!["-".to_string()]
        }
        fn simulate_instance(&self, rng: &mut StdRng) -> std::result::Result<Vec<f64>, String> {
            let value: f64 = rng.gen_range(-1.0..1.0);
            if value > self.0 {
                Ok(vec![value])
            } else {
                Err("draw below threshold".to_string())
            }
        }
    }

    #[test]
    fn failures_are_skipped_or_fatal_depending_on_config() {
        let skipping = run_monte_carlo(&FlakyDevice(0.0), &MonteCarloConfig::new(20)).unwrap();
        assert_eq!(skipping.rows.len(), 20);
        assert!(skipping.skipped > 0);
        let strict = run_monte_carlo(&FlakyDevice(0.0), &MonteCarloConfig::new(20).fail_fast());
        assert!(matches!(strict, Err(CompactionError::SimulationFailed { .. })));
    }

    /// The eager driver the wave loop replaced: simulate the whole
    /// `3N + 32` attempt budget sequentially, then keep the first N rows.
    fn eager_reference(
        device: &dyn DeviceUnderTest,
        config: &MonteCarloConfig,
    ) -> Result<MonteCarloRun> {
        let budget = config.instances * 3 + 32;
        let spec_names = device.spec_names();
        let mut master = StdRng::seed_from_u64(config.seed);
        let seeds: Vec<u64> = (0..budget).map(|_| master.gen()).collect();
        let results: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                device
                    .simulate_instance(&mut StdRng::seed_from_u64(seed))
                    .and_then(|row| check_row(row, &spec_names))
            })
            .collect();
        let mut rows = Vec::new();
        let mut skipped = 0;
        for (index, result) in results.into_iter().enumerate() {
            if rows.len() == config.instances {
                break;
            }
            match result {
                Ok(row) => rows.push(row),
                Err(_) if config.skip_failures => skipped += 1,
                Err(message) => {
                    return Err(CompactionError::SimulationFailed { instance: index, message })
                }
            }
        }
        if rows.len() < config.instances {
            return Err(CompactionError::SimulationFailed {
                instance: rows.len(),
                message: format!(
                    "only {} of {} instances could be simulated within a {budget}-attempt budget ({skipped} failures)",
                    rows.len(),
                    config.instances
                ),
            });
        }
        Ok(MonteCarloRun { rows, skipped })
    }

    #[test]
    fn waves_match_the_eager_reference_on_every_thread_count() {
        // Half failing (several waves), mostly failing (budget exhaustion
        // with some rows kept) and fail-fast (first failing attempt index).
        let cases = [
            (FlakyDevice(0.0), MonteCarloConfig::new(40).with_seed(3)),
            (FlakyDevice(0.9), MonteCarloConfig::new(40).with_seed(4)),
            (FlakyDevice(0.0), MonteCarloConfig::new(40).with_seed(5).fail_fast()),
        ];
        for (device, config) in &cases {
            let reference = eager_reference(device, config);
            for threads in 1..=4 {
                let run = run_monte_carlo(device, &config.with_threads(threads));
                assert_eq!(run, reference, "threads {threads}, config {config:?}");
            }
        }
        assert!(eager_reference(&cases[0].0, &cases[0].1).unwrap().skipped > 0);
        assert!(matches!(
            eager_reference(&cases[1].0, &cases[1].1),
            Err(CompactionError::SimulationFailed { instance, .. }) if instance > 0
        ));
        assert!(matches!(
            eager_reference(&cases[2].0, &cases[2].1),
            Err(CompactionError::SimulationFailed { message, .. }) if message == "draw below threshold"
        ));
    }

    /// Counts `simulate_instance` calls on the wrapped device.
    struct CountingDevice<'a> {
        inner: &'a dyn DeviceUnderTest,
        calls: AtomicUsize,
    }

    impl DeviceUnderTest for CountingDevice<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn spec_names(&self) -> Vec<String> {
            self.inner.spec_names()
        }
        fn spec_units(&self) -> Vec<String> {
            self.inner.spec_units()
        }
        fn simulate_instance(&self, rng: &mut StdRng) -> std::result::Result<Vec<f64>, String> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.simulate_instance(rng)
        }
    }

    #[test]
    fn simulates_exactly_the_kept_and_skipped_instances() {
        fn check(inner: &dyn DeviceUnderTest, flaky: bool) {
            for threads in [1, 2] {
                let device = CountingDevice { inner, calls: AtomicUsize::new(0) };
                let config = MonteCarloConfig::new(300).with_seed(11).with_threads(threads);
                let run = run_monte_carlo(&device, &config).unwrap();
                assert_eq!(run.rows.len(), 300);
                assert_eq!(run.skipped > 0, flaky);
                assert_eq!(device.calls.into_inner(), 300 + run.skipped, "threads {threads}");
            }
        }
        check(&SyntheticDevice::new(4, 2.0, 0.5), false);
        check(&FlakyDevice(0.0), true);
    }

    /// A device whose rows are sometimes NaN, infinite or one value short.
    struct GlitchyDevice;

    impl DeviceUnderTest for GlitchyDevice {
        fn name(&self) -> &str {
            "glitchy"
        }
        fn spec_names(&self) -> Vec<String> {
            vec!["a".to_string(), "b".to_string()]
        }
        fn spec_units(&self) -> Vec<String> {
            vec!["-".to_string(); 2]
        }
        fn simulate_instance(&self, rng: &mut StdRng) -> std::result::Result<Vec<f64>, String> {
            let value: f64 = rng.gen_range(-1.0..1.0);
            Ok(match value {
                v if v < -0.9 => vec![v, f64::NAN],
                v if v < -0.8 => vec![v, f64::INFINITY],
                v if v < -0.7 => vec![v],
                v => vec![v, -v],
            })
        }
    }

    #[test]
    fn non_finite_and_short_rows_are_skipped_and_counted() {
        let config = MonteCarloConfig::new(200).with_seed(8);
        let run = run_monte_carlo(&GlitchyDevice, &config).unwrap();
        assert!(run.skipped > 0);
        assert!(run.rows.iter().all(|row| row.len() == 2 && row.iter().all(|v| v.is_finite())));
        assert_eq!(Ok(run), eager_reference(&GlitchyDevice, &config));
        // Calibrated ranges come from the finite rows only.
        let set = generate_measurement_set(&GlitchyDevice, &config).unwrap();
        assert_eq!(set.len(), 200);
    }

    #[test]
    fn non_finite_and_short_rows_fail_fast_naming_the_column() {
        let mut saw = [false; 3];
        for seed in 0..40 {
            let config = MonteCarloConfig::new(50).with_seed(seed).fail_fast();
            let Err(CompactionError::SimulationFailed { instance, message }) =
                run_monte_carlo(&GlitchyDevice, &config.with_threads(2))
            else {
                panic!("seed {seed}: a glitch within 50 attempts must fail the run");
            };
            let Err(CompactionError::SimulationFailed { instance: first, .. }) =
                eager_reference(&GlitchyDevice, &config)
            else {
                unreachable!()
            };
            assert_eq!(instance, first);
            if message == "measurement column 1 (`b`) is NaN" {
                saw[0] = true;
            } else if message == "measurement column 1 (`b`) is inf" {
                saw[1] = true;
            } else {
                assert_eq!(
                    message,
                    "simulation returned 1 measurements for 2 specifications (column 1 is missing)"
                );
                saw[2] = true;
            }
        }
        assert_eq!(saw, [true; 3]);
    }

    /// A device that always fails: even the skip budget cannot save it.
    struct BrokenDevice;

    impl DeviceUnderTest for BrokenDevice {
        fn name(&self) -> &str {
            "broken"
        }
        fn spec_names(&self) -> Vec<String> {
            vec!["x".to_string()]
        }
        fn spec_units(&self) -> Vec<String> {
            vec!["-".to_string()]
        }
        fn simulate_instance(&self, _rng: &mut StdRng) -> std::result::Result<Vec<f64>, String> {
            Err("always fails".to_string())
        }
    }

    #[test]
    fn exhausted_attempt_budget_is_an_error() {
        let result = run_monte_carlo(&BrokenDevice, &MonteCarloConfig::new(10));
        assert!(matches!(result, Err(CompactionError::SimulationFailed { .. })));
    }
}
