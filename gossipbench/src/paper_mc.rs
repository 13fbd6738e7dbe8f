//! `paper_mc`: the paper's own Monte-Carlo. Each round is one trial of
//! every parameter point below on one thread and one shard with
//! `NullSink` — half Master–Slave π runs on 5×5 (Fig 4-4/4-5), half
//! single broadcasts on 4×4 and 8×8.

use noc_apps::master_slave::{MasterSlaveApp, MasterSlaveOutcome, MasterSlaveParams};
use noc_fabric::{NodeId, Topology};
use noc_faults::{CrashSchedule, FaultInjector, FaultModel};
use noc_obs::Stopwatch;
use stochastic_noc::reference::ReferenceSimulation;
use stochastic_noc::seed::{derive_labeled_seed, derive_trial_seed};
use stochastic_noc::{SimulationBuilder, SimulationReport, StochasticConfig};

use crate::checks::{self, TECH};
use crate::harness::{timed_trial, Layers, Pass, Tally, Trial};
use crate::primitives::PrimitiveInputs;

/// Master–Slave points: `(p, p_upset, crashed fabric tiles, ttl, round
/// budget)`. The first eight follow Fig 4-4, the rest Fig 4-5.
const MASTER_SLAVE: [(f64, f64, usize, u8, u64); 14] = [
    (1.0, 0.0, 0, 16, 150),
    (0.75, 0.0, 0, 16, 150),
    (0.5, 0.0, 0, 16, 150),
    (0.25, 0.0, 0, 16, 150),
    (1.0, 0.0, 3, 16, 150),
    (0.75, 0.0, 3, 16, 150),
    (0.5, 0.0, 3, 16, 150),
    (0.25, 0.0, 3, 16, 150),
    (0.5, 0.1, 0, 24, 400),
    (0.5, 0.3, 0, 24, 400),
    (0.5, 0.6, 0, 24, 400),
    (0.5, 0.1, 3, 24, 400),
    (0.5, 0.3, 3, 24, 400),
    (0.5, 0.6, 3, 24, 400),
];

/// Broadcast points: `(grid side, p, p_upset, p_overflow, sigma_synch)`.
const BROADCAST: [(usize, f64, f64, f64, f64); 14] = [
    (4, 1.0, 0.0, 0.0, 0.0),
    (4, 0.75, 0.0, 0.0, 0.0),
    (4, 0.5, 0.0, 0.0, 0.0),
    (4, 0.75, 0.3, 0.0, 0.0),
    (4, 0.75, 0.0, 0.2, 0.0),
    (4, 0.75, 0.0, 0.0, 0.3),
    (4, 0.5, 0.2, 0.1, 0.2),
    (8, 1.0, 0.0, 0.0, 0.0),
    (8, 0.75, 0.0, 0.0, 0.0),
    (8, 0.5, 0.0, 0.0, 0.0),
    (8, 0.75, 0.3, 0.0, 0.0),
    (8, 0.75, 0.0, 0.2, 0.0),
    (8, 0.75, 0.0, 0.0, 0.3),
    (8, 0.5, 0.2, 0.1, 0.2),
];

const TRIALS: u64 = (MASTER_SLAVE.len() + BROADCAST.len()) as u64;
const MS_SIDE: usize = 5;
const MS_TERMS: u64 = 10_000;
const PAYLOAD_LEN: usize = 16;

/// Rounds per second of `--seconds` on the 2-core reference host.
pub const ROUNDS_PER_SECOND: f64 = 27.0;

/// The inputs of the traced pass's primitive loops.
pub fn primitive_inputs(seed: u64) -> PrimitiveInputs {
    PrimitiveInputs {
        payload: payload(seed),
        model: broadcast_model(BROADCAST[13]),
        seed,
    }
}

enum Outcome {
    MasterSlave(MasterSlaveOutcome),
    Broadcast(SimulationReport),
}

fn broadcast_model((_, _, p_upset, p_overflow, sigma): (usize, f64, f64, f64, f64)) -> FaultModel {
    FaultModel::builder()
        .p_upset(p_upset)
        .p_overflow(p_overflow)
        .sigma_synch(sigma)
        .build()
        .expect("valid broadcast fault model")
}

fn broadcast_config(side: usize, p: f64) -> StochasticConfig {
    let ttl = u8::try_from(3 * side).expect("small grid");
    StochasticConfig::new(p, ttl)
        .expect("valid broadcast config")
        .with_max_rounds(4 * side as u64 + 8)
}

fn payload(seed: u64) -> Vec<u8> {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(&seed.rotate_left(29).to_be_bytes());
    debug_assert_eq!(bytes.len(), PAYLOAD_LEN);
    bytes
}

/// Source and destination of a broadcast, drawn from the trial seed.
fn endpoints(side: usize, seed: u64) -> (usize, usize) {
    let n = side * side;
    let pick = |label| (derive_labeled_seed(seed, label) % n as u64) as usize;
    let (src, dst) = (pick("source"), pick("destination"));
    (src, if dst == src { n - 1 - src } else { dst })
}

fn master_slave_params(point: usize, seed: u64) -> MasterSlaveParams {
    let (p, p_upset, dead, ttl, budget) = MASTER_SLAVE[point];
    let base = MasterSlaveParams {
        config: StochasticConfig::new(p, ttl)
            .expect("valid master-slave config")
            .with_max_rounds(budget),
        fault_model: FaultModel::builder()
            .p_upset(p_upset)
            .build()
            .expect("valid master-slave fault model"),
        seed,
        terms: MS_TERMS,
        ..MasterSlaveParams::default()
    };
    // Crash fabric tiles only, never the master or a slave (Fig 4-4).
    let app = MasterSlaveApp::new(base.clone());
    let mut essential: Vec<usize> = app
        .slave_assignments()
        .into_iter()
        .flatten()
        .map(|n| n.index())
        .collect();
    essential.push(app.master_tile().index());
    let candidates: Vec<usize> = (0..MS_SIDE * MS_SIDE)
        .filter(|t| !essential.contains(t))
        .collect();
    let mut picker = FaultInjector::new(FaultModel::none(), derive_labeled_seed(seed, "crash"));
    let mut crash_schedule = CrashSchedule::new();
    for index in picker.sample_exact_dead_tiles(candidates.len(), dead) {
        crash_schedule.kill_tile(candidates[index], 0);
    }
    MasterSlaveParams {
        crash_schedule,
        ..base
    }
}

fn broadcast_builder(point: usize, seed: u64) -> (SimulationBuilder, usize, usize) {
    let spec = BROADCAST[point];
    let (side, p, ..) = spec;
    let builder = SimulationBuilder::new(Topology::grid(side, side))
        .config(broadcast_config(side, p))
        .fault_model(broadcast_model(spec))
        .technology(TECH)
        .seed(seed);
    let (src, dst) = endpoints(side, seed);
    (builder, src, dst)
}

fn master_slave_trial(point: usize, seed: u64) -> Trial<Outcome> {
    let setup = Stopwatch::start();
    let app = MasterSlaveApp::new(master_slave_params(point, seed));
    let setup_ns = setup.elapsed_nanos();
    let body = Stopwatch::start();
    let outcome = app.run();
    let body_ns = body.elapsed_nanos();
    let mut layers = Layers::default();
    layers.count_report(&outcome.report);
    Trial {
        setup_ns,
        body_ns,
        packets: outcome.report.packets_sent,
        sim_rounds: outcome.report.rounds_executed,
        layers,
        result: Outcome::MasterSlave(outcome),
    }
}

fn broadcast_trial(point: usize, seed: u64, pass: &Pass) -> Trial<Outcome> {
    let setup = Stopwatch::start();
    let (builder, src, dst) = broadcast_builder(point, seed);
    timed_trial(setup, builder, &[(src, dst)], &payload(seed), pass).map(Outcome::Broadcast)
}

/// (e) Replays a broadcast trial on `ReferenceSimulation`. The reference
/// keeps no frontier, so it does not count quiescent rounds; every other
/// field must agree.
fn reference_replay(point: usize, seed: u64, report: &SimulationReport) -> Result<(), String> {
    let spec = BROADCAST[point];
    let (side, p, ..) = spec;
    let (src, dst) = endpoints(side, seed);
    let mut reference = ReferenceSimulation::new(
        Topology::grid(side, side),
        broadcast_config(side, p),
        broadcast_model(spec),
        CrashSchedule::new(),
        seed,
    );
    reference.inject(NodeId(src), NodeId(dst), payload(seed));
    let mut engine = report.clone();
    engine.quiescent_rounds = 0;
    checks::same_report(
        &engine,
        &reference.run(),
        &format!("broadcast point {point} seed {seed} vs reference"),
    )
}

/// Runs the workload.
pub fn run(pass: &Pass) -> Result<Tally, String> {
    let base = derive_labeled_seed(pass.seed, "paper_mc");
    let mut tally = Tally::new(pass);
    while tally.wants_round(pass) {
        let round_seed = derive_trial_seed(base, tally.round_index());
        let outcomes = tally.round(round_seed, TRIALS, |index, seed| {
            if index < MASTER_SLAVE.len() {
                master_slave_trial(index, seed)
            } else {
                broadcast_trial(index - MASTER_SLAVE.len(), seed, pass)
            }
        });
        // The trial the reference replays this round, chosen by the seed.
        let pick = derive_labeled_seed(round_seed, "reference replay");
        let replayed = MASTER_SLAVE.len() + (pick % BROADCAST.len() as u64) as usize;
        for (index, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Outcome::MasterSlave(outcome) => {
                    checks::latency_at_least_distance(&outcome.report, MS_SIDE)?;
                    check_pi(index, outcome)?;
                }
                Outcome::Broadcast(report) => {
                    let point = index - MASTER_SLAVE.len();
                    checks::latency_at_least_distance(report, BROADCAST[point].0)?;
                    checks::fixed_payload_accounting(report, PAYLOAD_LEN)?;
                    if index == replayed {
                        reference_replay(
                            point,
                            derive_trial_seed(round_seed, index as u64),
                            report,
                        )?;
                    }
                }
            }
        }
    }
    Ok(tally)
}

/// (d) A completed Master–Slave run without undetected upsets returns π
/// within the midpoint rule's error bound `1/(3n²)` (|f''| ≤ 8 for
/// `f(x) = 4/(1+x²)` on `[0, 1]`).
fn check_pi(point: usize, outcome: &MasterSlaveOutcome) -> Result<(), String> {
    if !outcome.completed || outcome.report.upsets_undetected > 0 {
        return Ok(());
    }
    let n = MS_TERMS as f64;
    let bound = 1.0 / (3.0 * n * n) + 1e-12;
    let pi = outcome
        .pi_estimate
        .ok_or_else(|| format!("master-slave point {point} completed without an estimate"))?;
    if (pi - std::f64::consts::PI).abs() > bound {
        return Err(format!(
            "master-slave point {point}: pi estimate {pi} outside {bound}"
        ));
    }
    Ok(())
}
