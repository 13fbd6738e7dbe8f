//! Seeded benchmark of the gossip simulator, driven only through the
//! public API of the workspace crates.
//!
//! ```text
//! gossipbench --workload <paper_mc|mega_sharded|hostile_resume> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, and prints the per-layer metrics.
//! The last line of standard output is the JSON result. Any failed
//! correctness check exits with code 1 and prints no result.

#![forbid(unsafe_code)]

mod checks;
mod harness;
mod hostile_resume;
mod mega_sharded;
mod output;
mod paper_mc;
mod primitives;
mod rss;
mod stats;

use std::process::ExitCode;

use noc_obs::Metrics;
use stochastic_noc::EngineObs;

use harness::{Pass, Tally, MIN_ROUNDS};
use output::{Values, END_TO_END, PER_LAYER};
use primitives::PrimitiveInputs;
use stats::{median, secs, tail};

/// The workloads, with their calibrated round rates and entry points.
struct Workload {
    name: &'static str,
    rounds_per_second: f64,
    run: fn(&Pass) -> Result<Tally, String>,
    primitives: fn(u64) -> PrimitiveInputs,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_mc",
        rounds_per_second: paper_mc::ROUNDS_PER_SECOND,
        run: paper_mc::run,
        primitives: paper_mc::primitive_inputs,
    },
    Workload {
        name: "mega_sharded",
        rounds_per_second: mega_sharded::ROUNDS_PER_SECOND,
        run: mega_sharded::run,
        primitives: mega_sharded::primitive_inputs,
    },
    Workload {
        name: "hostile_resume",
        rounds_per_second: hostile_resume::ROUNDS_PER_SECOND,
        run: hostile_resume::run,
        primitives: hostile_resume::primitive_inputs,
    },
];

/// A run stops starting rounds once its timed part exceeds this many
/// times `--seconds`, so a much slower build still ends in bounded time.
const DEADLINE_FACTOR: u64 = 5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => match number()? {
                0 => return Err("--seconds must be at least 1".to_string()),
                s => seconds = Some(s),
            },
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A pass over `share` of the run's rounds (at least [`MIN_ROUNDS`]).
fn pass(args: &Args, share: f64, obs: Option<EngineObs>) -> Pass {
    let seconds = args.seconds as f64 * share;
    Pass {
        seed: args.seed,
        planned: ((seconds * args.workload.rounds_per_second).ceil() as u64).max(MIN_ROUNDS),
        deadline_ns: (seconds * DEADLINE_FACTOR as f64 * 1e9) as u64,
        obs,
    }
}

/// `--trace 0`: one untraced pass, end-to-end metrics.
fn end_to_end(args: &Args) -> Result<String, String> {
    let tally = (args.workload.run)(&pass(args, 1.0, None))?;
    let mut values = Values::default();
    tally.end_to_end(&mut values)?;
    values.set("peak_rss_mb", rss::peak_rss_mb()?);
    output::render(true, tally.attempted, tally.failed, &END_TO_END, &values)
}

/// `--trace 1`: an untraced pass, then the same pass traced; per-layer
/// metrics from the traced one, and the difference of their `wall_s`.
/// Each pass covers half the run's rounds, so the traced invocation
/// stays near the length of an untraced one.
fn per_layer(args: &Args) -> Result<String, String> {
    let plain = (args.workload.run)(&pass(args, 0.5, None))?;
    let metrics = Metrics::new();
    let traced = (args.workload.run)(&pass(args, 0.5, Some(EngineObs::new(&metrics))))?;

    let mut values = Values::default();
    let (mut plain_e2e, mut traced_e2e) = (Values::default(), Values::default());
    plain.end_to_end(&mut plain_e2e)?;
    traced.end_to_end(&mut traced_e2e)?;
    let wall = |v: &Values| v.get("wall_s").expect("wall_s measured");
    values.set("obs.overhead_s", wall(&traced_e2e) - wall(&plain_e2e));

    let l = &traced.layers;
    let closures = secs(&l.closure_ns);
    values.set("runner.trial_s.p50", median(&closures));
    values.set("runner.trial_s.p90", tail(&closures, 0.9));
    values.set("runner.dispatch_s", l.dispatch_ns as f64 * 1e-9);
    let builds = secs(&l.build_ns);
    values.set("engine.build_s", builds.iter().sum());
    values.set("engine.build_s.p50", median(&builds));
    let steps = secs(&l.step_ns);
    values.set("engine.step_s.p50", median(&steps));
    values.set("engine.step_s.p99", tail(&steps, 0.99));
    let step_ns: u64 = l.step_ns.iter().sum();
    values.set(
        "engine.ns_per_packet",
        ratio(step_ns as f64, l.packets as f64),
    );
    values.set("engine.rounds", l.rounds as f64);
    values.set("engine.quiescent_rounds", l.quiescent_rounds as f64);
    values.set("engine.packets", l.packets as f64);
    values.set("engine.crc_rejects", l.crc_rejects as f64);

    let phase = |name: &str| metrics.histogram("engine_phase_seconds", &[("phase", name)]);
    let round = phase("round").sum_secs();
    let mut attributed = 0.0;
    for (metric, name) in [
        ("engine.phase.tape_s", "tape"),
        ("engine.phase.shard_fanout_s", "shard_fanout"),
        ("engine.phase.merge_s", "merge"),
        ("engine.phase.quiescence_s", "quiescence"),
    ] {
        let s = phase(name).sum_secs();
        attributed += s;
        values.set(metric, s);
    }
    values.set("engine.phase.round_s", round);
    values.set("engine.phase.unattributed_s", round - attributed);
    let fanout = phase("shard_fanout");
    values.set("shard.fanouts", fanout.count() as f64);
    values.set(
        "shard.fanout_s.p50",
        if fanout.count() > 0 {
            fanout.quantile_secs(0.5)
        } else {
            0.0
        },
    );

    values.set("checkpoint.captures", l.captures as f64);
    values.set("checkpoint.capture_s", l.capture_ns as f64 * 1e-9);
    values.set("checkpoint.encode_s", l.encode_ns as f64 * 1e-9);
    values.set("checkpoint.decode_s", l.decode_ns as f64 * 1e-9);
    values.set("checkpoint.resume_s", l.resume_ns as f64 * 1e-9);
    values.set(
        "checkpoint.bytes.mean",
        ratio(l.checkpoint_bytes as f64, l.captures as f64),
    );

    let sink_ns = l.sink_ns as f64 - l.null_sink_ns as f64;
    values.set("events.emitted", l.emitted as f64);
    values.set("events.jsonl_bytes", l.jsonl_bytes as f64);
    values.set("events.sink_s", sink_ns * 1e-9);
    values.set(
        "events.ns_per_event",
        if l.sink_ns > 0 {
            ratio(sink_ns, l.emitted as f64)
        } else {
            0.0
        },
    );
    values.set("events.duplicate_drops", l.duplicate_drops as f64);

    values.set("faults.upsets_fired", l.upsets_fired as f64);
    values.set("faults.overflow_drops", l.overflow_drops as f64);
    values.set("faults.skew_draws", l.skew_draws as f64);
    primitives::measure(&(args.workload.primitives)(args.seed), &mut values);

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    output::render(true, attempted, failed, &PER_LAYER, &values)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gossipbench: {e}");
            eprintln!("usage: gossipbench --workload <paper_mc|mega_sharded|hostile_resume> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gossipbench: {}: {e}", args.workload.name);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(seconds: &str) -> Result<Args, String> {
        let args = [
            "--workload",
            "paper_mc",
            "--seed",
            "1",
            "--seconds",
            seconds,
        ];
        parse_args(&args.map(String::from))
    }

    #[test]
    fn seconds_must_be_positive_and_is_not_capped() {
        assert!(parse("0").is_err());
        assert!(parse("-1").is_err());
        assert_eq!(parse("1").expect("valid").seconds, 1);
        assert_eq!(parse("120").expect("valid").seconds, 120);
    }
}
