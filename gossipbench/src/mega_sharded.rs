//! `mega_sharded`: striped bursts of corner-to-corner broadcasts on a
//! 64×64 grid at two shards. Each round is one fault-free flooding trial
//! (`p = 1`, the uniform-forward path) and one faulty gossip trial
//! (`p = 0.75` with upsets, overflow and skew, the draw-tape path).

use noc_fabric::{NodeId, Topology};
use noc_faults::FaultModel;
use noc_obs::Stopwatch;
use stochastic_noc::seed::{derive_labeled_seed, derive_trial_seed};
use stochastic_noc::{SimulationBuilder, SimulationReport, StochasticConfig};

use crate::checks::{self, TECH};
use crate::harness::{timed_trial, Pass, Tally, Trial};
use crate::primitives::PrimitiveInputs;

const SIDE: usize = 64;
const MESSAGES: usize = 4;
const SHARDS: usize = 2;
const PAYLOAD_LEN: usize = 8;
/// Trial 0 of a round floods fault-free; trial 1 gossips under faults.
const TRIALS: u64 = 2;

/// Rounds per second of `--seconds` on the 2-core reference host.
pub const ROUNDS_PER_SECOND: f64 = 0.95;

fn faulty_model() -> FaultModel {
    FaultModel::builder()
        .p_upset(0.05)
        .p_overflow(0.02)
        .sigma_synch(0.1)
        .build()
        .expect("valid mega-grid fault model")
}

/// The inputs of the traced pass's primitive loops.
pub fn primitive_inputs(seed: u64) -> PrimitiveInputs {
    PrimitiveInputs {
        payload: payload(seed),
        model: faulty_model(),
        seed,
    }
}

fn payload(seed: u64) -> Vec<u8> {
    seed.to_le_bytes().to_vec()
}

/// The burst's `(source, destination)` pairs: one source at the start of
/// each stripe of the row-major tile order, each sending to its mirror
/// tile across the grid (the mega-grid figure's burst). The positions do
/// not depend on the seed, so every trial floods the same distances and
/// the seed moves only the fault draws and the payload.
fn burst() -> Vec<(usize, usize)> {
    let n = SIDE * SIDE;
    (0..MESSAGES)
        .map(|i| {
            let src = i * n / MESSAGES;
            (src, n - 1 - src)
        })
        .collect()
}

fn builder(faulty: bool, seed: u64, shards: usize) -> SimulationBuilder {
    let ttl = u8::try_from(2 * (SIDE - 1) + SIDE / 2).expect("ttl fits");
    let (config, model) = if faulty {
        (
            StochasticConfig::new(0.75, ttl).expect("valid config"),
            faulty_model(),
        )
    } else {
        (StochasticConfig::flooding(ttl), FaultModel::none())
    };
    SimulationBuilder::new(Topology::grid(SIDE, SIDE))
        .config(
            config
                .with_max_rounds(4 * SIDE as u64)
                .with_termination(true),
        )
        .fault_model(model)
        .technology(TECH)
        .shards(shards)
        .seed(seed)
}

fn trial(faulty: bool, seed: u64, pass: &Pass) -> Trial<SimulationReport> {
    let setup = Stopwatch::start();
    let builder = builder(faulty, seed, SHARDS);
    timed_trial(setup, builder, &burst(), &payload(seed), pass)
}

/// (f) Replays a trial at one shard.
fn single_shard_replay(faulty: bool, seed: u64, report: &SimulationReport) -> Result<(), String> {
    let mut sim = builder(faulty, seed, 1).build();
    for (src, dst) in burst() {
        sim.inject(NodeId(src), NodeId(dst), payload(seed));
    }
    let what = format!("mega trial (faulty={faulty}) at {SHARDS} shards vs 1");
    checks::same_report(report, &sim.run_to_report(), &what)
}

/// Runs the workload.
pub fn run(pass: &Pass) -> Result<Tally, String> {
    let base = derive_labeled_seed(pass.seed, "mega_sharded");
    let mut tally = Tally::new(pass);
    while tally.wants_round(pass) {
        let first = tally.round_index() == 0;
        let round_seed = derive_trial_seed(base, tally.round_index());
        let reports = tally.round(round_seed, TRIALS, |index, seed| {
            trial(index == 1, seed, pass)
        });
        for (index, report) in reports.iter().enumerate() {
            let faulty = index == 1;
            checks::latency_at_least_distance(report, SIDE)?;
            checks::fixed_payload_accounting(report, PAYLOAD_LEN)?;
            if !faulty {
                checks::latency_equals_distance(report, SIDE)?;
            }
            if first {
                let seed = derive_trial_seed(round_seed, index as u64);
                single_shard_replay(faulty, seed, report)?;
            }
        }
    }
    Ok(tally)
}
