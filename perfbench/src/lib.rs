//! The compaction system's benchmark: one repetition of a workload — build
//! the populations, compact, deploy the tester on a device stream — timed
//! end to end, optionally traced per layer through the shims of [`trace`].
//!
//! Workload definitions live in `perfbench/workloads.json`; `run.py` passes
//! one of them here as `key=value` settings.  See `perfbench/README.md` for
//! why each workload exists and which layer metric should move which
//! end-to-end metric.

pub mod trace;

use std::sync::Arc;
use std::time::Instant;

use spec_test_compaction::prelude::*;

use crate::trace::{Trace, TraceCounts, TracedDevice, TracedFactory};

/// The device family a workload simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceKind {
    /// `SyntheticDevice::new(specs, limit, correlation)`.
    Synthetic {
        /// Number of specifications.
        specs: usize,
        /// Acceptance limit in standard deviations.
        limit: f64,
        /// Correlation between consecutive measurements.
        correlation: f64,
    },
    /// `OpAmpDevice::paper_setup()`: transistor-level DC/AC/transient
    /// simulation of eleven specifications.
    OpAmp,
}

/// The search strategy a workload compacts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchKind {
    /// `GreedyBackward`, the paper's elimination loop.
    Greedy,
    /// `GeneticSearch::new(seed)` with the given strategy seed.
    Genetic(u64),
}

/// One workload: what to simulate, how to compact it and what to deploy on.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Device family.
    pub device: DeviceKind,
    /// Seed of the training and held-out populations: `None` uses the run
    /// seed; a fixed seed makes them part of the workload definition.
    pub train_seed: Option<u64>,
    /// Training devices.
    pub train: usize,
    /// Held-out devices.
    pub test: usize,
    /// Monte-Carlo worker threads.
    pub mc_threads: usize,
    /// Range-calibration quantiles, for devices without explicit ranges.
    pub quantiles: Option<(f64, f64)>,
    /// Greedy elimination order: `None` for the classification-power
    /// ranking of the paper's defaults, or a fixed functional order.
    pub order: Option<Vec<usize>>,
    /// Search strategy.
    pub search: SearchKind,
    /// Compaction error tolerance.
    pub tolerance: f64,
    /// Compaction worker threads.
    pub compact_threads: usize,
    /// Size of a fresh production stream, simulated during set-up from the
    /// run seed and deployed on; `0` deploys on the held-out population.
    pub stream: usize,
    /// Whether the compaction is set-up work (the workload times only the
    /// deploy loop) rather than timed work.
    pub compact_in_setup: bool,
    /// Minimum number of deployed sessions: the deploy population is cycled
    /// until this many devices went through the tester.
    pub min_sessions: usize,
}

impl Workload {
    /// Parses `key=value` settings (every key is required).
    ///
    /// # Errors
    ///
    /// Names the first missing, unknown or malformed setting.
    pub fn parse(settings: &[String]) -> Result<Workload, String> {
        let mut map = std::collections::BTreeMap::new();
        for setting in settings {
            let (key, value) =
                setting.split_once('=').ok_or_else(|| format!("setting `{setting}` lacks `=`"))?;
            if map.insert(key, value).is_some() {
                return Err(format!("setting `{key}` given twice"));
            }
        }
        let mut take =
            |key: &str| map.remove(key).ok_or_else(|| format!("missing setting `{key}`"));
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value.parse().map_err(|_| format!("setting `{key}` has a malformed value `{value}`"))
        }
        let device = match take("device")? {
            "synthetic" => DeviceKind::Synthetic {
                specs: num("specs", take("specs")?)?,
                limit: num("limit", take("limit")?)?,
                correlation: num("correlation", take("correlation")?)?,
            },
            "opamp" => DeviceKind::OpAmp,
            other => return Err(format!("unknown device `{other}`")),
        };
        let quantiles = match take("quantiles")? {
            "none" => None,
            pair => {
                let (low, high) =
                    pair.split_once(',').ok_or_else(|| format!("quantiles `{pair}` lack `,`"))?;
                Some((num("quantiles", low)?, num("quantiles", high)?))
            }
        };
        let order = match take("order")? {
            "classification-power" => None,
            list => {
                Some(list.split(',').map(|index| num("order", index)).collect::<Result<_, _>>()?)
            }
        };
        let search = match take("search")? {
            "greedy" => SearchKind::Greedy,
            other => match other.split_once(':') {
                Some(("genetic", seed)) => SearchKind::Genetic(num("search", seed)?),
                _ => return Err(format!("search `{other}` is not `greedy` or `genetic:<seed>`")),
            },
        };
        let train_seed = match take("train_seed")? {
            "run" => None,
            seed => Some(num("train_seed", seed)?),
        };
        let workload = Workload {
            device,
            train_seed,
            train: num("train", take("train")?)?,
            test: num("test", take("test")?)?,
            mc_threads: num("mc_threads", take("mc_threads")?)?,
            quantiles,
            order,
            search,
            tolerance: num("tolerance", take("tolerance")?)?,
            compact_threads: num("compact_threads", take("compact_threads")?)?,
            stream: num("stream", take("stream")?)?,
            compact_in_setup: num("compact_in_setup", take("compact_in_setup")?)?,
            min_sessions: num("min_sessions", take("min_sessions")?)?,
        };
        match map.keys().next() {
            Some(extra) => Err(format!("unknown setting `{extra}`")),
            None => Ok(workload),
        }
    }

    fn device(&self) -> Box<dyn DeviceUnderTest> {
        match self.device {
            DeviceKind::Synthetic { specs, limit, correlation } => {
                Box::new(SyntheticDevice::new(specs, limit, correlation))
            }
            DeviceKind::OpAmp => Box::new(OpAmpDevice::paper_setup()),
        }
    }

    fn monte_carlo(&self, instances: usize, seed: u64) -> MonteCarloConfig {
        let config = MonteCarloConfig::new(instances).with_seed(seed).with_threads(self.mc_threads);
        match self.quantiles {
            Some((low, high)) => config.with_calibration_quantiles(low, high),
            None => config,
        }
    }
}

/// Seed offset of the production stream, so it shares no device with the
/// training or held-out populations.
const STREAM_SEED: u64 = 0x5eed_57ea;

/// Sessions per deploy window.  Throughput and p99 are taken per window,
/// scaled by the host speed measured right after the window, and their
/// medians reported: the host switches between speed states (up to 1.7×
/// apart) every few seconds, and an unscaled deploy figure mostly reports
/// which state the loop ran in.
pub const WINDOW: usize = 2500;

/// Seconds [`host_quantum`] takes on the reference host speed: the fast
/// state of the 2-vCPU host the bounds were measured on.
pub const REFERENCE_QUANTUM_S: f64 = 1.25e-4;

/// Seconds one fixed quantum of floating-point work (`exp` and
/// multiply-adds, the instruction mix of a kernel decision) takes now,
/// median of three: the host's current speed.  Its working set is a few
/// registers, so the deploy loop's cache state does not move it.
pub fn host_quantum() -> f64 {
    let quantum = || {
        let start = Instant::now();
        let (mut sum, mut x) = (0.0f64, 0.1f64);
        for i in 0..20_000 {
            x = x * 1.000_001 + 1e-7;
            let d = x - f64::from(i) * 1e-5;
            sum += (-0.5 * d * d).exp();
        }
        std::hint::black_box(sum);
        start.elapsed().as_secs_f64()
    };
    median((0..3).map(|_| quantum()).collect())
}

/// Seconds an untraced repetition spends at least on population
/// generation, and on compaction: shorter steps are repeated and their
/// median time taken, since a single 20 ms (or 0.5 s) measurement would
/// mostly measure scheduler and host noise.
const MIN_SETUP_S: f64 = 0.5;
const MIN_COMPACT_S: f64 = 2.0;

/// Runs `work` once when `once`, and otherwise repeatedly until it has run
/// for `min_s`.  Returns the first result and the median wall time; every
/// later result must be `same` as the first.
fn repeated<T>(
    min_s: f64,
    once: bool,
    mut work: impl FnMut() -> Result<T, String>,
    same: impl Fn(&T, &T) -> bool,
) -> Result<(T, f64), String> {
    let mut first = None;
    let mut walls = Vec::new();
    while first.is_none() || !(once || walls.iter().sum::<f64>() >= min_s) {
        let begin = Instant::now();
        let result = work()?;
        walls.push(begin.elapsed().as_secs_f64());
        match &first {
            None => first = Some(result),
            Some(first) if !same(first, &result) => {
                return Err("a repeated step gave a different result".into())
            }
            Some(_) => {}
        }
    }
    Ok((first.expect("ran at least once"), median(walls)))
}

/// The median of `values` (which must not be empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// What one repetition measured and produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Seconds spent building the inputs (populations, plus the compaction
    /// when it is set-up work).
    pub setup_s: f64,
    /// Wall seconds of the one `run_with_population` call.
    pub compact_s: f64,
    /// The pipeline's report.
    pub report: PipelineReport,
    /// Deploy-loop outcome.
    pub deploy: Deploy,
    /// The population the tester was deployed on.
    pub population: MeasurementSet,
    /// Population generation, compaction and deploy seconds together.
    pub total_s: f64,
    /// Layer counters, when traced.
    pub layers: Option<Layers>,
}

/// Outcome of driving the deploy population through cheapest-first
/// sessions, one device at a time.
#[derive(Debug, Clone)]
pub struct Deploy {
    /// Sessions driven (the population, cycled to the workload's minimum).
    pub sessions: usize,
    /// Sessions that returned an error.
    pub failed: usize,
    /// Wall seconds of the whole loop, without the speed measurements
    /// between windows.
    pub wall_s: f64,
    /// Per-session latencies, nanoseconds, in session order.
    pub latencies_ns: Vec<u64>,
    /// Wall seconds of each window of [`WINDOW`] sessions (the last one may
    /// be shorter).
    pub window_s: Vec<f64>,
    /// [`host_quantum`] measured right after each window, outside its time.
    pub window_quanta: Vec<f64>,
    /// Verdict of each device of the population (first cycle).
    pub verdicts: Vec<Option<Prediction>>,
    /// Measurements taken, summed over sessions.
    pub measurements: usize,
    /// Sessions decided before their last stage.
    pub early_exits: usize,
    /// Error breakdown of the verdicts against the population's labels.
    pub breakdown: ErrorBreakdown,
}

impl Deploy {
    /// Devices per second of each window of [`WINDOW`] sessions.
    pub fn window_rates(&self) -> impl Iterator<Item = f64> + '_ {
        self.latencies_ns.chunks(WINDOW).zip(&self.window_s).map(|(w, s)| w.len() as f64 / s)
    }

    /// p99 of per-session latency in each window of [`WINDOW`] sessions,
    /// microseconds.
    pub fn window_p99s_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.latencies_ns.chunks(WINDOW).map(|window| {
            let mut sorted = window.to_vec();
            sorted.sort_unstable();
            let rank = ((sorted.len() as f64 * 0.99).ceil() as usize).max(1);
            sorted[rank - 1] as f64 * 1e-3
        })
    }

    /// How much slower than the reference speed the host ran after each
    /// window (`> 1` is slower).
    pub fn window_slowdowns(&self) -> impl Iterator<Item = f64> + '_ {
        self.window_quanta.iter().map(|q| q / REFERENCE_QUANTUM_S)
    }

    /// [`Deploy::window_rates`] at the reference host speed.
    pub fn scaled_window_rates(&self) -> impl Iterator<Item = f64> + '_ {
        self.window_rates().zip(self.window_slowdowns()).map(|(rate, slow)| rate * slow)
    }

    /// [`Deploy::window_p99s_us`] at the reference host speed.
    pub fn scaled_window_p99s_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.window_p99s_us().zip(self.window_slowdowns()).map(|(p99, slow)| p99 / slow)
    }
}

/// Per-layer numbers of one traced repetition.
#[derive(Debug, Clone)]
pub struct Layers {
    /// Every counter at the end of the repetition.
    pub total: TraceCounts,
    /// Counters accumulated after set-up (compaction and deploy for
    /// workloads whose set-up is population generation only; the deploy
    /// loop alone for a workload that compacts during set-up).
    pub after_setup: TraceCounts,
    /// Counters accumulated by the deploy loop alone.
    pub deploy: TraceCounts,
    /// Wall seconds inside Monte-Carlo generation.
    pub montecarlo_wall_s: f64,
    /// Measurement rows kept in the generated populations.
    pub rows_kept: usize,
    /// Wall seconds of the pipeline call.
    pub pipeline_wall_s: f64,
    /// Pipeline wall time not covered by model fits, decisions or box
    /// proofs on any thread.
    pub pipeline_self_s: f64,
}

/// Runs one repetition of `workload` on the inputs of `seed`; with a trace,
/// every layer call goes through the shims.
///
/// # Errors
///
/// Returns the first library error (population generation, compaction or
/// tester construction) as text.
pub fn run_rep(workload: &Workload, seed: u64, trace: Option<&Arc<Trace>>) -> Result<Rep, String> {
    let err = |e: CompactionError| e.to_string();
    let base = workload.device();
    let traced_device = trace.map(|t| TracedDevice::new(base.as_ref(), Arc::clone(t)));
    let device: &dyn DeviceUnderTest = match &traced_device {
        Some(traced) => traced,
        None => base.as_ref(),
    };
    let svm: Arc<dyn ClassifierFactory> = Arc::new(SvmBackend::paper_default());
    let factory: Arc<dyn ClassifierFactory> = match trace {
        Some(t) => Arc::new(TracedFactory::new(svm, Arc::clone(t))),
        None => svm,
    };
    let search: Arc<dyn SearchStrategy> = match workload.search {
        SearchKind::Greedy => Arc::new(GreedyBackward),
        SearchKind::Genetic(search_seed) => Arc::new(GeneticSearch::new(search_seed)),
    };
    let order = match &workload.order {
        Some(order) => EliminationOrder::Functional(order.clone()),
        None => EliminationOrder::ByClassificationPower,
    };
    let pipeline = CompactionPipeline::for_device(device)
        .compaction(
            CompactionConfig::paper_default()
                .with_tolerance(workload.tolerance)
                .with_threads(workload.compact_threads)
                .with_order(order),
        )
        .classifier_arc(factory)
        .search_arc(search);
    let counts = || trace.map(|t| t.counts()).unwrap_or_default();

    let populations = || -> spec_test_compaction::core::Result<_> {
        let (train, test) = generate_train_test(
            device,
            &workload.monte_carlo(workload.train, workload.train_seed.unwrap_or(seed)),
            workload.test,
        )?;
        let stream = if workload.stream > 0 {
            let config = workload.monte_carlo(workload.stream, seed ^ STREAM_SEED);
            let rows = run_monte_carlo(device, &config)?.rows;
            Some(MeasurementSet::new(train.specs().clone(), rows)?)
        } else {
            None
        };
        Ok((train, test, stream))
    };
    let ((train, test, stream), montecarlo_wall_s) =
        repeated(MIN_SETUP_S, trace.is_some(), || populations().map_err(err), |_, _| true)?;
    let rows_kept = train.len() + test.len() + stream.as_ref().map_or(0, MeasurementSet::len);

    let mut setup_s = montecarlo_wall_s;
    let mut after_setup = counts();
    let run = || pipeline.run_with_population(train.clone(), test.clone()).map_err(err);
    let (report, pipeline_wall_s, pipeline_self_s) = match trace {
        Some(t) => {
            let (report, wall, self_s) = t.spanned(run);
            (report?, wall, self_s)
        }
        None => {
            let same = |a: &PipelineReport, b: &PipelineReport| a.compaction == b.compaction;
            let (report, wall) = repeated(MIN_COMPACT_S, false, run, same)?;
            (report, wall, wall)
        }
    };
    let compact_s = pipeline_wall_s;
    if workload.compact_in_setup {
        setup_s += compact_s;
        after_setup = counts();
    }

    let before_deploy = counts();
    let population = stream.unwrap_or(test);
    let deploy = deploy(&report.tester, &population, workload.min_sessions).map_err(err)?;
    let total_s = montecarlo_wall_s + compact_s + deploy.wall_s;
    let layers = trace.map(|t| {
        let total = t.counts();
        Layers {
            total,
            after_setup: total - after_setup,
            deploy: total - before_deploy,
            montecarlo_wall_s,
            rows_kept,
            pipeline_wall_s,
            pipeline_self_s,
        }
    });
    Ok(Rep { setup_s, compact_s, report, deploy, population, total_s, layers })
}

/// Drives `population` (cycled to at least `min_sessions` devices) through
/// cheapest-first sessions of `tester` under a uniform cost model, one
/// device at a time, timing each session.
///
/// # Errors
///
/// Returns plan-construction errors; per-session errors are counted in
/// [`Deploy::failed`].
pub fn deploy(
    tester: &TesterProgram,
    population: &MeasurementSet,
    min_sessions: usize,
) -> spec_test_compaction::core::Result<Deploy> {
    let cost = TestCostModel::uniform(tester.specs().len());
    let plan = TestPlan::cheapest_first(tester, &cost)?;
    let devices = population.len();
    let sessions = min_sessions.max(devices);
    let mut latencies_ns = Vec::with_capacity(sessions);
    let mut verdicts = Vec::with_capacity(devices);
    let mut window_s = Vec::with_capacity(sessions.div_ceil(WINDOW));
    let mut window_quanta = Vec::with_capacity(sessions.div_ceil(WINDOW));
    let (mut failed, mut measurements, mut early_exits) = (0, 0, 0);
    let start = Instant::now();
    let mut window_start = start;
    for k in 0..sessions {
        let device = k % devices;
        let begin = Instant::now();
        let mut session = plan.begin();
        let mut verdict = None;
        for &column in plan.stages() {
            match session.measure(population.value(device, column)) {
                Ok(StepVerdict::Decided(prediction)) => {
                    verdict = Some(prediction);
                    break;
                }
                Ok(StepVerdict::NeedMore { .. }) => {}
                Err(_) => break,
            }
        }
        latencies_ns.push(begin.elapsed().as_nanos() as u64);
        if (k + 1) % WINDOW == 0 || k + 1 == sessions {
            window_s.push(window_start.elapsed().as_secs_f64());
            window_quanta.push(host_quantum());
            window_start = Instant::now();
        }
        measurements += session.measured();
        if verdict.is_none() {
            failed += 1;
        } else if session.measured() < plan.len() {
            early_exits += 1;
        }
        if k < devices {
            verdicts.push(verdict);
        }
    }
    let wall_s = window_s.iter().sum();
    let mut breakdown = ErrorBreakdown::default();
    for (label, verdict) in population.labels().into_iter().zip(&verdicts) {
        if let Some(prediction) = verdict {
            breakdown.record(label, *prediction);
        }
    }
    Ok(Deploy {
        sessions,
        failed,
        wall_s,
        latencies_ns,
        window_s,
        window_quanta,
        verdicts,
        measurements,
        early_exits,
        breakdown,
    })
}

/// Output checks of one repetition on its own: a partition of the
/// specifications, a final error within tolerance, the sessions' breakdown
/// equal to the pipeline's deployed breakdown when they ran on the held-out
/// population, and — when `against_classify` — every session verdict equal
/// to the one-shot `TesterProgram::classify` of the same device.  Returns
/// one message per failed check.
pub fn check_rep(rep: &Rep, workload: &Workload, against_classify: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let report = &rep.report;
    let specs = report.tester.specs().len();
    let mut seen: Vec<usize> = report.kept().iter().chain(report.eliminated()).copied().collect();
    seen.sort_unstable();
    if seen != (0..specs).collect::<Vec<_>>() {
        problems.push(format!(
            "kept {:?} and eliminated {:?} do not partition {specs} specifications",
            report.kept(),
            report.eliminated()
        ));
    }
    if report.final_breakdown().prediction_error() > workload.tolerance + 1e-9 {
        problems.push(format!(
            "final prediction error {} exceeds the tolerance {}",
            report.final_breakdown().prediction_error(),
            workload.tolerance
        ));
    }
    let tester = &report.tester;
    let mut mismatches = 0;
    for (device, verdict) in rep.deploy.verdicts.iter().enumerate().filter(|_| against_classify) {
        let kept: Vec<f64> =
            tester.kept().iter().map(|&c| rep.population.value(device, c)).collect();
        if tester.classify(&kept).ok() != *verdict {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        problems.push(format!("{mismatches} session verdicts differ from TesterProgram::classify"));
    }
    if workload.stream == 0 && rep.deploy.breakdown != report.deployed {
        problems.push(format!(
            "deployed breakdown {:?} differs from the sessions' {:?}",
            report.deployed, rep.deploy.breakdown
        ));
    }
    problems
}

/// Output checks between two repetitions of the same workload and seed:
/// the same kept/eliminated sets, deployed breakdown and session verdicts.
/// With `exact`, also the same compaction steps and search counters — the
/// check between a traced and an untraced repetition.
pub fn compare_reps(first: &Rep, other: &Rep, exact: bool) -> Vec<String> {
    let (a, b) = (&first.report, &other.report);
    let mut problems = Vec::new();
    let mut differs = |what: &str, same: bool| {
        if !same {
            problems.push(format!("{what} differs between repetitions"));
        }
    };
    differs("kept set", a.kept() == b.kept());
    differs("eliminated set", a.eliminated() == b.eliminated());
    differs("deployed breakdown", a.deployed == b.deployed);
    differs("session verdicts", first.deploy.verdicts == other.deploy.verdicts);
    if exact {
        differs("compaction result", a.compaction == b.compaction);
        differs("budget stats", a.budget() == b.budget());
        differs("warm-start stats", a.warm_start() == b.warm_start());
        differs("model-cache stats", a.compaction.cache == b.compaction.cache);
        differs("sequential stats", a.sequential == b.sequential);
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(search: &str, threads: usize) -> Workload {
        let settings = format!(
            "device=synthetic specs=5 limit=1.8 correlation=0.9 train=300 test=150 \
             mc_threads={threads} quantiles=none order=classification-power search={search} tolerance=0.05 \
             compact_threads={threads} stream=0 compact_in_setup=false min_sessions=200 \
             train_seed=run"
        );
        let settings: Vec<String> = settings.split_whitespace().map(String::from).collect();
        Workload::parse(&settings).unwrap()
    }

    /// The shims only observe: a traced repetition must produce the same
    /// report — kept/eliminated sets, steps, deployed breakdown, budget,
    /// warm-start and model-cache counters — and the same session verdicts
    /// as an untraced one.  A shim that dropped `as_any` would turn warm
    /// starts cold and change the warm-start and budget counters.
    #[test]
    fn traced_and_untraced_repetitions_agree() {
        for workload in [small("greedy", 1), small("genetic:5", 2)] {
            let untraced = run_rep(&workload, 7, None).unwrap();
            let trace = Trace::new();
            let traced = run_rep(&workload, 7, Some(&trace)).unwrap();
            assert_eq!(compare_reps(&untraced, &traced, true), Vec::<String>::new());
            assert_eq!(check_rep(&traced, &workload, true), Vec::<String>::new());
            assert!(untraced.report.warm_start().warm_trainings > 0);

            let layers = traced.layers.expect("a traced repetition reports layers");
            assert_eq!(layers.total.fits.calls as usize, 2 * traced.report.budget().trainings);
            assert_eq!(
                layers.total.iterations as usize,
                traced.report.warm_start().total_iterations()
            );
            assert_eq!(layers.rows_kept, 450);
            assert_eq!(layers.total.simulate.calls as usize, (300 * 3 + 32) + (150 * 3 + 32));
        }
    }

    #[test]
    fn a_stream_workload_fits_nothing_after_setup() {
        let mut workload = small("greedy", 1);
        workload.stream = 500;
        workload.compact_in_setup = true;
        let trace = Trace::new();
        let rep = run_rep(&workload, 3, Some(&trace)).unwrap();
        let layers = rep.layers.as_ref().unwrap();
        assert!(layers.total.fits.calls > 0);
        assert_eq!(layers.after_setup.fits.calls, 0);
        assert_eq!(rep.deploy.sessions, 500);
        assert_eq!(check_rep(&rep, &workload, true), Vec::<String>::new());
    }

    #[test]
    fn settings_are_validated() {
        let mut settings: Vec<String> = vec!["device=opamp".into()];
        assert!(Workload::parse(&settings).unwrap_err().contains("missing"));
        settings.push("device=synthetic".into());
        assert!(Workload::parse(&settings).unwrap_err().contains("twice"));
    }
}
