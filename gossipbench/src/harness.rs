//! What every workload shares: rounds of trials dispatched through
//! `TrialRunner`, the per-round records the end-to-end metrics are
//! medians of, and the per-layer samples a traced pass collects.

use noc_experiments::runner::take_reports;
use noc_experiments::TrialRunner;
use noc_fabric::NodeId;
use noc_faults::InjectionTally;
use noc_obs::Stopwatch;
use stochastic_noc::{
    CounterSink, EngineObs, EventSink, Simulation, SimulationBuilder, SimulationReport,
};

use crate::checks;
use crate::output::Values;
use crate::stats::{percentile, secs, MEDIAN_SAMPLES};

/// One pass over a workload: its seed, how many rounds it plans, the
/// host-time budget after which it stops early, and — for the traced
/// pass only — the engine's wall-clock plane.
pub struct Pass {
    /// The workload seed (`--seed`).
    pub seed: u64,
    /// Rounds to run; at least [`MIN_ROUNDS`].
    pub planned: u64,
    /// Timed host nanoseconds after which no new round past
    /// [`MIN_ROUNDS`] starts.
    pub deadline_ns: u64,
    /// `Some` on the traced pass.
    pub obs: Option<EngineObs>,
}

impl Pass {
    /// Is this the traced pass?
    pub fn traced(&self) -> bool {
        self.obs.is_some()
    }
}

/// Every pass runs at least this many rounds: each round runs every trial
/// point once, so `trial_p50_s` has enough samples per point for the
/// percentile rule.
pub const MIN_ROUNDS: u64 = MEDIAN_SAMPLES as u64;

/// Per-layer samples. Trials fill one each; rounds merge them.
#[derive(Debug, Default)]
pub struct Layers {
    pub build_ns: Vec<u64>,
    pub closure_ns: Vec<u64>,
    pub dispatch_ns: u64,
    pub step_ns: Vec<u64>,
    pub rounds: u64,
    pub quiescent_rounds: u64,
    pub packets: u64,
    pub crc_rejects: u64,
    pub captures: u64,
    pub capture_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub resume_ns: u64,
    pub checkpoint_bytes: u64,
    pub emitted: u64,
    pub jsonl_bytes: u64,
    pub sink_ns: u64,
    pub null_sink_ns: u64,
    pub duplicate_drops: u64,
    pub upsets_fired: u64,
    pub overflow_drops: u64,
    pub skew_draws: u64,
}

impl Layers {
    fn absorb(&mut self, other: Layers) {
        self.build_ns.extend(other.build_ns);
        self.closure_ns.extend(other.closure_ns);
        self.step_ns.extend(other.step_ns);
        self.dispatch_ns += other.dispatch_ns;
        self.rounds += other.rounds;
        self.quiescent_rounds += other.quiescent_rounds;
        self.packets += other.packets;
        self.crc_rejects += other.crc_rejects;
        self.captures += other.captures;
        self.capture_ns += other.capture_ns;
        self.encode_ns += other.encode_ns;
        self.decode_ns += other.decode_ns;
        self.resume_ns += other.resume_ns;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.emitted += other.emitted;
        self.jsonl_bytes += other.jsonl_bytes;
        self.sink_ns += other.sink_ns;
        self.null_sink_ns += other.null_sink_ns;
        self.duplicate_drops += other.duplicate_drops;
        self.upsets_fired += other.upsets_fired;
        self.overflow_drops += other.overflow_drops;
        self.skew_draws += other.skew_draws;
    }

    /// Folds a finished trial's report into the engine counts.
    pub fn count_report(&mut self, report: &SimulationReport) {
        self.rounds += report.rounds_executed;
        self.quiescent_rounds += report.quiescent_rounds;
        self.packets += report.packets_sent;
        self.crc_rejects += report.upsets_detected;
    }
}

/// One trial's timings and its result for the checks.
#[derive(Debug)]
pub struct Trial<T> {
    /// Host time building the simulation (topology, build, injections).
    pub setup_ns: u64,
    /// Host time running it.
    pub body_ns: u64,
    /// Simulated link transmissions.
    pub packets: u64,
    /// Simulated rounds.
    pub sim_rounds: u64,
    /// Traced-pass samples (empty otherwise).
    pub layers: Layers,
    /// What the workload checks after the round.
    pub result: T,
}

impl<T> Trial<T> {
    /// The same trial with its result mapped by `f`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Trial<U> {
        Trial {
            setup_ns: self.setup_ns,
            body_ns: self.body_ns,
            packets: self.packets,
            sim_rounds: self.sim_rounds,
            layers: self.layers,
            result: f(self.result),
        }
    }
}

/// Host time and simulated work of one round.
#[derive(Debug, Clone, Copy)]
struct Round {
    wall_ns: u64,
    setup_ns: u64,
    trials: u64,
    packets: u64,
    sim_rounds: u64,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Tally {
    rounds: Vec<Round>,
    /// Trial body times by the trial's index within its round.
    trial_ns: Vec<Vec<u64>>,
    planned: u64,
    timed_ns: u64,
    /// Operations attempted (trials plus any extra per-round operations).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Per-layer samples (traced pass only).
    pub layers: Layers,
}

impl Tally {
    /// An empty tally for `pass`.
    pub fn new(pass: &Pass) -> Self {
        Tally {
            planned: pass.planned,
            ..Tally::default()
        }
    }

    /// Should another round start?
    pub fn wants_round(&self, pass: &Pass) -> bool {
        let done = self.rounds.len() as u64;
        done < pass.planned && (done < MIN_ROUNDS || self.timed_ns < pass.deadline_ns)
    }

    /// Rounds run so far.
    pub fn round_index(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// Runs one round of `trials` trials through a single-threaded
    /// `TrialRunner` seeded with `round_seed`, records its timings, and
    /// returns the trials' results in trial order for checking.
    ///
    /// The round's wall time is the runner call minus the set-up spans
    /// inside it, so it covers the trial bodies and the runner's own
    /// dispatch but neither set-up nor checks (which run afterwards).
    pub fn round<T, F>(&mut self, round_seed: u64, trials: u64, trial: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, u64) -> Trial<T> + Sync,
    {
        let runner = TrialRunner::new(round_seed, trials).threads(1);
        let outer = Stopwatch::start();
        let done = runner.run_indexed(|index, seed| {
            let span = Stopwatch::start();
            let mut out = trial(index, seed);
            out.layers.closure_ns.push(span.elapsed_nanos());
            out
        });
        let outer_ns = outer.elapsed_nanos();
        // The runner keeps a report per call; drain it so a long run
        // does not accumulate them.
        drop(take_reports());

        let mut round = Round {
            wall_ns: 0,
            setup_ns: 0,
            trials,
            packets: 0,
            sim_rounds: 0,
        };
        let mut closures = 0;
        let mut results = Vec::with_capacity(done.len());
        self.trial_ns
            .resize_with(done.len().max(self.trial_ns.len()), Vec::new);
        for (index, out) in done.into_iter().enumerate() {
            round.setup_ns += out.setup_ns;
            round.packets += out.packets;
            round.sim_rounds += out.sim_rounds;
            self.trial_ns[index].push(out.body_ns);
            closures += out.layers.closure_ns.iter().sum::<u64>();
            self.layers.absorb(out.layers);
            results.push(out.result);
        }
        self.layers.dispatch_ns += outer_ns.saturating_sub(closures);
        round.wall_ns = outer_ns.saturating_sub(round.setup_ns);
        self.timed_ns += round.wall_ns;
        self.attempted += trials;
        self.rounds.push(round);
        results
    }

    /// The end-to-end metrics except `peak_rss_mb`. Host times are the
    /// median round's time times the planned rounds, and rates are the
    /// mean simulated work of a round over the median round's time: the
    /// host has slow spells of one to a few seconds, and a median over the
    /// rounds of a run leaves them out where a sum would not.
    ///
    /// Fails when a trial point or the rounds have too few samples for the
    /// percentile rule, which [`MIN_ROUNDS`] prevents.
    pub fn end_to_end(&self, values: &mut Values) -> Result<(), String> {
        let median_of = |what: &str, samples: &[u64]| {
            percentile(&secs(samples), 0.5)
                .ok_or_else(|| format!("{} {what} samples, too few for a median", samples.len()))
        };
        let per_round = |f: fn(&Round) -> u64| self.rounds.iter().map(f).collect::<Vec<u64>>();
        let mean = |f: fn(&Round) -> u64| {
            per_round(f).iter().sum::<u64>() as f64 / self.rounds.len().max(1) as f64
        };
        let planned = self.planned as f64;
        let wall = median_of("round wall-time", &per_round(|r| r.wall_ns))?;
        values.set(
            "setup_s",
            median_of("round set-up", &per_round(|r| r.setup_ns))? * planned,
        );
        values.set("wall_s", wall * planned);
        values.set("trials_per_s", mean(|r| r.trials) / wall);
        // A round mixes trial kinds whose times differ up to a hundredfold,
        // so a pooled median would fall between kinds: take the median of
        // each trial point and average over the points.
        let mut p50 = 0.0;
        for samples in &self.trial_ns {
            p50 += median_of("trial", samples)?;
        }
        values.set("trial_p50_s", p50 / self.trial_ns.len().max(1) as f64);
        values.set("sim_packets_per_s", mean(|r| r.packets) / wall);
        values.set("sim_rounds_per_s", mean(|r| r.sim_rounds) / wall);
        Ok(())
    }
}

/// Runs `sim` to completion or its round budget. On the traced pass
/// (`steps` given) each `Simulation::step` is timed from outside.
/// Returns the report, the sink, and the injector's fault tally.
pub fn drive<S: EventSink>(
    mut sim: Simulation<S>,
    steps: Option<&mut Vec<u64>>,
) -> (SimulationReport, S, InjectionTally) {
    let max = sim.config().max_rounds;
    match steps {
        Some(steps) => {
            while !sim.is_complete() && sim.round() < max {
                let span = Stopwatch::start();
                sim.step();
                steps.push(span.elapsed_nanos());
            }
        }
        None => {
            while !sim.is_complete() && sim.round() < max {
                sim.step();
            }
        }
    }
    let tally = sim.injection_tally();
    let (report, sink) = sim.run_to_report_and_sink();
    (report, sink, tally)
}

/// One trial of the simulation `builder` describes, with every
/// `(source, destination)` of `messages` carrying `payload`. Set-up is
/// timed from `setup`, which the caller starts before making the
/// builder, to the last injection; the body from there to the report.
/// On the traced pass the engine plane and a `CounterSink` are installed,
/// each step is timed, and the trial's per-layer samples are recorded.
pub fn timed_trial(
    setup: Stopwatch,
    builder: SimulationBuilder,
    messages: &[(usize, usize)],
    payload: &[u8],
    pass: &Pass,
) -> Trial<SimulationReport> {
    let mut layers = Layers::default();
    let (setup_ns, body_ns, report) = match &pass.obs {
        Some(obs) => {
            let sim = builder.obs(obs.clone()).build_with_sink(CounterSink::new());
            let (setup_ns, body_ns, (report, counters, tally)) =
                inject_and_drive(sim, &setup, messages, payload, Some(&mut layers.step_ns));
            layers.build_ns.push(setup_ns);
            layers.emitted += checks::events_emitted(&counters);
            layers.duplicate_drops += counters.totals().duplicate_drops;
            layers.upsets_fired += tally.upsets;
            layers.overflow_drops += tally.overflow_drops;
            layers.skew_draws += tally.skew_draws;
            (setup_ns, body_ns, report)
        }
        None => {
            let sim = builder.build();
            let (setup_ns, body_ns, (report, ..)) =
                inject_and_drive(sim, &setup, messages, payload, None);
            (setup_ns, body_ns, report)
        }
    };
    layers.count_report(&report);
    Trial {
        setup_ns,
        body_ns,
        packets: report.packets_sent,
        sim_rounds: report.rounds_executed,
        layers,
        result: report,
    }
}

/// [`timed_trial`]'s injections and run for either sink: returns set-up
/// and body nanoseconds with what [`drive`] returns.
fn inject_and_drive<S: EventSink>(
    mut sim: Simulation<S>,
    setup: &Stopwatch,
    messages: &[(usize, usize)],
    payload: &[u8],
    steps: Option<&mut Vec<u64>>,
) -> (u64, u64, (SimulationReport, S, InjectionTally)) {
    for &(src, dst) in messages {
        sim.inject(NodeId(src), NodeId(dst), payload.to_vec());
    }
    let setup_ns = setup.elapsed_nanos();
    let body = Stopwatch::start();
    let out = drive(sim, steps);
    (setup_ns, body.elapsed_nanos(), out)
}

/// Manhattan distance between two tiles of a row-major `side × side`
/// grid, computed from their coordinates.
pub fn manhattan(side: usize, a: usize, b: usize) -> u64 {
    let (ax, ay) = (a % side, a / side);
    let (bx, by) = (b % side, b / side);
    (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(rounds: usize) -> Tally {
        let round = Round {
            wall_ns: 2_000_000,
            setup_ns: 1_000,
            trials: 2,
            packets: 10,
            sim_rounds: 4,
        };
        Tally {
            rounds: vec![round; rounds],
            // Two trial points, one fast and one slow.
            trial_ns: vec![vec![1_000_000; rounds], vec![3_000_000; rounds]],
            planned: rounds as u64,
            ..Tally::default()
        }
    }

    #[test]
    fn trial_p50_needs_ten_samples_beyond_each_point_median() {
        let mut values = Values::default();
        assert!(tally(MIN_ROUNDS as usize - 1)
            .end_to_end(&mut values)
            .is_err());
        tally(MIN_ROUNDS as usize)
            .end_to_end(&mut values)
            .expect("enough rounds");
        // The mean of the two points' medians.
        assert_eq!(values.get("trial_p50_s"), Some(2e-3));
        // Planned rounds times the median round.
        let wall = values.get("wall_s").expect("wall_s set");
        assert!((wall - MIN_ROUNDS as f64 * 2e-3).abs() < 1e-12);
    }

    #[test]
    fn a_pass_runs_its_minimum_rounds_past_the_deadline() {
        let pass = Pass {
            seed: 0,
            planned: MIN_ROUNDS + 5,
            deadline_ns: 0,
            obs: None,
        };
        assert!(tally(MIN_ROUNDS as usize - 1).wants_round(&pass));
        assert!(!tally(MIN_ROUNDS as usize).wants_round(&pass));
    }
}
