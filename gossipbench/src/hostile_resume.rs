//! `hostile_resume`: the adversarial scenarios of the `hostile` figure on
//! a 16×16 grid, one shard, with `TeeSink(CounterSink, JsonlSink)`
//! installed and JSONL going to an in-process byte counter. Every few
//! rounds each trial is checkpointed through `to_bytes` → `from_bytes` →
//! `SimulationBuilder::resume_with_sink`.
//!
//! After its rounds each pass attempts a fixed set of corrupt-checkpoint
//! resumes (outside the timed part): single bit flips of one checkpoint.
//! A flip succeeds when the resume returns a `CheckpointError`; it fails
//! when the corrupted state resumes and runs, or panics. The checkpoint
//! and the flip positions do not depend on `--seed`, and a pass plans a
//! fixed number of rounds, so the same flips fail in every run of one
//! length and the failed share of operations is the same.

use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};

use noc_experiments::hostile;
use noc_fabric::{NodeId, Topology};
use noc_faults::{AdversarialScenario, ErrorModel, FaultModel};
use noc_obs::Stopwatch;
use stochastic_noc::seed::{derive_labeled_seed, derive_trial_seed};
use stochastic_noc::{
    Checkpoint, CounterSink, EngineObs, EventSink, JsonlSink, Simulation, SimulationBuilder,
    SimulationReport, TeeSink,
};

use crate::checks::{self, TECH};
use crate::harness::{drive, Layers, Pass, Tally, Trial};
use crate::primitives::PrimitiveInputs;

const SIDE: usize = 16;
const CHECKPOINT_EVERY: u64 = 4;
/// Corrupt-checkpoint operations per pass.
const FLIPS: u64 = 8;
/// The corrupted checkpoint: this scenario and seed, after this many rounds.
const FLIP_SCENARIO: &str = "combined";
const FLIP_SEED: u64 = 0xC0FF_EE00_5EED;
const FLIP_ROUND: u64 = 6;

/// Rounds per second of `--seconds` on the 2-core reference host.
pub const ROUNDS_PER_SECOND: f64 = 5.3;

/// A JSONL destination that counts bytes and keeps them only when asked.
#[derive(Debug, Default)]
pub struct JsonlTap {
    bytes: u64,
    kept: Option<Vec<u8>>,
}

impl Write for JsonlTap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        if let Some(kept) = &mut self.kept {
            kept.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

type Tee = TeeSink<CounterSink, JsonlSink<JsonlTap>>;

fn tee(keep: bool) -> Tee {
    let tap = JsonlTap {
        bytes: 0,
        kept: keep.then(Vec::new),
    };
    TeeSink::new(CounterSink::new(), JsonlSink::new(tap))
}

/// The hostile figure's scenarios except the benign baseline.
fn scenarios() -> Vec<(&'static str, AdversarialScenario)> {
    hostile::scenarios()
        .into_iter()
        .filter(|(name, _)| *name != "baseline")
        .collect()
}

fn fault_model() -> FaultModel {
    FaultModel::builder()
        .p_upset(0.05)
        .sigma_synch(0.2)
        .error_model(ErrorModel::RandomErrorVector)
        .build()
        .expect("valid hostile fault model")
}

/// The inputs of the traced pass's primitive loops.
pub fn primitive_inputs(seed: u64) -> PrimitiveInputs {
    PrimitiveInputs {
        payload: b"hostile sweep".to_vec(),
        model: fault_model(),
        seed,
    }
}

fn builder(
    adversary: &AdversarialScenario,
    seed: u64,
    obs: Option<&EngineObs>,
) -> SimulationBuilder {
    let builder = SimulationBuilder::new(Topology::grid(SIDE, SIDE))
        .forward_probability(0.6)
        .ttl(40)
        .max_rounds(100)
        .fault_model(fault_model())
        .adversary(adversary.clone())
        .technology(TECH)
        .seed(seed);
    match obs {
        Some(obs) => builder.obs(obs.clone()),
        None => builder,
    }
}

/// The hostile figure's two diagonal messages plus one seed-chosen pair.
fn inject<S: EventSink>(sim: &mut Simulation<S>, seed: u64) {
    let n = SIDE * SIDE;
    let src = (derive_labeled_seed(seed, "source") % n as u64) as usize;
    sim.inject(NodeId(0), NodeId(n - 1), b"hostile sweep".to_vec());
    sim.inject(NodeId(SIDE - 1), NodeId(n - SIDE), b"cross".to_vec());
    sim.inject(
        NodeId(src),
        NodeId(n - 1 - src),
        seed.to_le_bytes().to_vec(),
    );
}

/// A finished checkpointed trial.
struct Resumed {
    report: SimulationReport,
    counters: CounterSink,
    jsonl: JsonlTap,
    /// Every checkpoint's bytes, when kept.
    captured: Vec<Vec<u8>>,
}

/// Builds, injects (timed into `setup_ns`) and runs one trial,
/// checkpointing and resuming every [`CHECKPOINT_EVERY`] rounds. With
/// `layers`, steps and checkpoint stages are timed into it.
fn checkpointed(
    adversary: &AdversarialScenario,
    seed: u64,
    obs: Option<&EngineObs>,
    keep: bool,
    setup_ns: &mut u64,
    mut layers: Option<&mut Layers>,
) -> Result<Resumed, String> {
    let setup = Stopwatch::start();
    let mut sim = builder(adversary, seed, obs).build_with_sink(tee(keep));
    inject(&mut sim, seed);
    *setup_ns = setup.elapsed_nanos();
    let max = sim.config().max_rounds;
    let mut captured = Vec::new();
    while !sim.is_complete() && sim.round() < max {
        let span = Stopwatch::start();
        sim.step();
        if let Some(layers) = layers.as_deref_mut() {
            layers.step_ns.push(span.elapsed_nanos());
        }
        if !sim.round().is_multiple_of(CHECKPOINT_EVERY) || sim.is_complete() || sim.round() >= max
        {
            continue;
        }
        let round = sim.round();
        let span = Stopwatch::start();
        let checkpoint = sim.checkpoint();
        let capture_ns = span.elapsed_nanos();
        let span = Stopwatch::start();
        let bytes = checkpoint.to_bytes();
        let encode_ns = span.elapsed_nanos();
        let span = Stopwatch::start();
        let decoded = Checkpoint::from_bytes(&bytes)
            .map_err(|e| format!("own checkpoint at round {round} does not decode: {e}"))?;
        let decode_ns = span.elapsed_nanos();
        let span = Stopwatch::start();
        sim = builder(adversary, seed, obs)
            .resume_with_sink(&decoded, sim.into_sink())
            .map_err(|e| format!("own checkpoint at round {round} does not resume: {e}"))?;
        if let Some(layers) = layers.as_deref_mut() {
            layers.resume_ns += span.elapsed_nanos();
            layers.decode_ns += decode_ns;
            layers.encode_ns += encode_ns;
            layers.capture_ns += capture_ns;
            layers.captures += 1;
            layers.checkpoint_bytes += bytes.len() as u64;
        }
        if keep {
            captured.push(bytes);
        }
    }
    let (report, sink) = sim.run_to_report_and_sink();
    let (counters, jsonl) = sink.into_parts();
    Ok(Resumed {
        report,
        counters,
        jsonl: jsonl.into_inner(),
        captured,
    })
}

fn trial(
    adversary: &AdversarialScenario,
    seed: u64,
    pass: &Pass,
) -> Trial<Result<Resumed, String>> {
    let mut layers = Layers::default();
    let mut setup_ns = 0;
    let body = Stopwatch::start();
    let traced = pass.traced().then_some(&mut layers);
    let resumed = checkpointed(
        adversary,
        seed,
        pass.obs.as_ref(),
        false,
        &mut setup_ns,
        traced,
    );
    let body_ns = body.elapsed_nanos().saturating_sub(setup_ns);
    let (packets, sim_rounds) = match &resumed {
        Ok(r) => (r.report.packets_sent, r.report.rounds_executed),
        Err(_) => (0, 0),
    };
    if let Ok(r) = &resumed {
        layers.count_report(&r.report);
        if pass.traced() {
            layers.build_ns.push(setup_ns);
            layers.emitted += checks::events_emitted(&r.counters);
            layers.duplicate_drops += r.counters.totals().duplicate_drops;
            layers.jsonl_bytes += r.jsonl.bytes;
        }
    }
    Trial {
        setup_ns,
        body_ns,
        packets,
        sim_rounds,
        layers,
        result: resumed,
    }
}

/// Times the same trial uninterrupted with the tee sinks and with
/// `NullSink`, for `events.sink_s`, and records the fault tally.
fn sink_cost(adversary: &AdversarialScenario, seed: u64, layers: &mut Layers) {
    let mut sim = builder(adversary, seed, None).build_with_sink(tee(false));
    inject(&mut sim, seed);
    let span = Stopwatch::start();
    let (_, _, tally) = drive(sim, None);
    layers.sink_ns += span.elapsed_nanos();
    layers.upsets_fired += tally.upsets;
    layers.overflow_drops += tally.overflow_drops;
    layers.skew_draws += tally.skew_draws;
    let mut sim = builder(adversary, seed, None).build();
    inject(&mut sim, seed);
    let span = Stopwatch::start();
    drop(drive(sim, None));
    layers.null_sink_ns += span.elapsed_nanos();
}

/// (g) and (h) for the first trial of a scenario: the checkpointed run
/// matches an uninterrupted one in report and JSONL stream, every
/// captured checkpoint re-encodes to its own bytes, and the JSONL kinds
/// match the counters.
fn check_resume_equivalence(
    name: &str,
    adversary: &AdversarialScenario,
    seed: u64,
) -> Result<(), String> {
    let mut setup_ns = 0;
    let resumed = checkpointed(adversary, seed, None, true, &mut setup_ns, None)?;
    let mut sim = builder(adversary, seed, None).build_with_sink(tee(true));
    inject(&mut sim, seed);
    let (plain, plain_sink) = sim.run_to_report_and_sink();
    checks::same_report(
        &resumed.report,
        &plain,
        &format!("{name}: checkpointed vs uninterrupted"),
    )?;
    let (plain_counters, plain_jsonl) = plain_sink.into_parts();
    let jsonl = resumed.jsonl.kept.unwrap_or_default();
    let plain_jsonl = plain_jsonl.into_inner().kept.unwrap_or_default();
    if jsonl != plain_jsonl {
        return Err(format!(
            "{name}: checkpointed JSONL stream differs from the uninterrupted one"
        ));
    }
    for bytes in &resumed.captured {
        let again = Checkpoint::from_bytes(bytes)
            .map_err(|e| format!("{name}: captured checkpoint does not decode: {e}"))?
            .to_bytes();
        if &again != bytes {
            return Err(format!("{name}: from_bytes(b).to_bytes() != b"));
        }
    }
    checks::jsonl_matches_counters(&jsonl, &resumed.counters, &resumed.report)?;
    checks::jsonl_matches_counters(&plain_jsonl, &plain_counters, &plain)
}

/// The checkpoint the flips corrupt, and the bit positions flipped.
fn flip_inputs(
    scenarios: &[(&'static str, AdversarialScenario)],
) -> (AdversarialScenario, Vec<u8>, Vec<usize>) {
    let adversary = scenarios
        .iter()
        .find(|(name, _)| *name == FLIP_SCENARIO)
        .map(|(_, a)| a.clone())
        .expect("the flip scenario exists");
    let mut sim = builder(&adversary, FLIP_SEED, None).build();
    inject(&mut sim, FLIP_SEED);
    for _ in 0..FLIP_ROUND {
        sim.step();
    }
    let bytes = sim.checkpoint().to_bytes();
    let bits = bytes.len() as u64 * 8;
    let positions = (0..FLIPS)
        .map(|i| (derive_trial_seed(FLIP_SEED, i) % bits) as usize)
        .collect();
    (adversary, bytes, positions)
}

/// One corrupt-checkpoint operation: true when it failed (the corrupted
/// state resumed and ran, or something panicked).
fn flip_fails(adversary: &AdversarialScenario, base: &[u8], position: usize) -> bool {
    let mut bytes = base.to_vec();
    bytes[position / 8] ^= 1 << (position % 8);
    let resumed_and_ran = panic::catch_unwind(AssertUnwindSafe(|| {
        let Ok(checkpoint) = Checkpoint::from_bytes(&bytes) else {
            return false;
        };
        match builder(adversary, FLIP_SEED, None).resume(&checkpoint) {
            Ok(sim) => {
                drop(sim.run_to_report());
                true
            }
            Err(_) => false,
        }
    }));
    resumed_and_ran.unwrap_or(true)
}

/// Runs the workload.
pub fn run(pass: &Pass) -> Result<Tally, String> {
    let base = derive_labeled_seed(pass.seed, "hostile_resume");
    let scenarios = scenarios();
    let mut tally = Tally::new(pass);
    while tally.wants_round(pass) {
        let first = tally.round_index() == 0;
        let round_seed = derive_trial_seed(base, tally.round_index());
        let results = tally.round(round_seed, scenarios.len() as u64, |index, seed| {
            trial(&scenarios[index].1, seed, pass)
        });
        for (index, result) in results.into_iter().enumerate() {
            let resumed = result?;
            let seed = derive_trial_seed(round_seed, index as u64);
            if pass.traced() {
                sink_cost(&scenarios[index].1, seed, &mut tally.layers);
            }
            checks::latency_at_least_distance(&resumed.report, SIDE)?;
            resumed.counters.reconcile(&resumed.report)?;
            if first {
                let (name, adversary) = &scenarios[index];
                check_resume_equivalence(name, adversary, seed)?;
            }
        }
    }
    let (flip_adversary, flip_base, flip_positions) = flip_inputs(&scenarios);
    // A corrupted resume may panic; keep those panics off stderr.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let failed = flip_positions
        .iter()
        .filter(|&&position| flip_fails(&flip_adversary, &flip_base, position))
        .count() as u64;
    panic::set_hook(hook);
    tally.attempted += FLIPS;
    tally.failed += failed;
    Ok(tally)
}
