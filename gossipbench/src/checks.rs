//! Correctness checks made outside the timed part of a run. Each
//! compares the simulator's output with a computation made apart from
//! it, or with a property the protocol must have.

use std::collections::BTreeMap;

use noc_energy::TechnologyLibrary;
use noc_fabric::WireCodec;
use stochastic_noc::{CounterSink, SimulationReport};

use crate::harness::manhattan;

/// The technology point every benchmark simulation is built with.
pub const TECH: TechnologyLibrary = TechnologyLibrary::NOC_LINK_0_25UM;

/// (a) Every delivered message took at least its Manhattan hop count.
pub fn latency_at_least_distance(report: &SimulationReport, side: usize) -> Result<(), String> {
    for record in report.records() {
        if let Some(latency) = record.latency() {
            let hops = manhattan(side, record.source.index(), record.destination.index());
            if latency < hops {
                return Err(format!(
                    "message {} delivered in {latency} rounds over {hops} hops",
                    record.id.0
                ));
            }
        }
    }
    Ok(())
}

/// (b) Under fault-free flooding every message arrives at exactly its
/// Manhattan hop count.
pub fn latency_equals_distance(report: &SimulationReport, side: usize) -> Result<(), String> {
    for record in report.records() {
        let hops = manhattan(side, record.source.index(), record.destination.index());
        if record.latency() != Some(hops) {
            return Err(format!(
                "flooded message {} latency {:?}, expected exactly {hops}",
                record.id.0,
                record.latency()
            ));
        }
    }
    Ok(())
}

/// (c) With one payload length, bits on the wire are packets times the
/// frame size, and energy is bits times the technology's energy per bit
/// (Equation 3).
pub fn fixed_payload_accounting(
    report: &SimulationReport,
    payload_len: usize,
) -> Result<(), String> {
    let frame_bits = WireCodec::default().frame_bits(payload_len).bits();
    let bits = report.bits_sent.bits();
    if bits != report.packets_sent * frame_bits {
        return Err(format!(
            "bits_sent {bits} != {} packets x {frame_bits} frame bits",
            report.packets_sent
        ));
    }
    let expected = bits as f64 * TECH.energy_per_bit.joules();
    let energy = report.total_energy().joules();
    if (energy - expected).abs() > expected.abs() * 1e-12 {
        return Err(format!(
            "energy {energy} J != {bits} bits x E_bit = {expected} J"
        ));
    }
    Ok(())
}

/// Two runs that must agree produced the same report.
pub fn same_report(a: &SimulationReport, b: &SimulationReport, what: &str) -> Result<(), String> {
    let (a, b) = (format!("{a:?}"), format!("{b:?}"));
    if a != b {
        return Err(format!("{what}: reports differ\n  {a}\n  {b}"));
    }
    Ok(())
}

/// The `"event"` tag of every JSONL line, tallied by the benchmark's own
/// parser.
pub fn tally_jsonl(bytes: &[u8]) -> Result<BTreeMap<String, u64>, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("JSONL is not UTF-8: {e}"))?;
    let mut kinds = BTreeMap::new();
    for line in text.lines() {
        let kind = line
            .strip_prefix("{\"event\":\"")
            .and_then(|rest| rest.split('"').next())
            .filter(|_| line.ends_with('}'))
            .ok_or_else(|| format!("malformed JSONL line: {line}"))?;
        *kinds.entry(kind.to_string()).or_insert(0) += 1;
    }
    Ok(kinds)
}

/// Event totals of a `CounterSink` under their JSONL tags.
fn counter_kinds(counters: &CounterSink) -> BTreeMap<String, u64> {
    let t = counters.totals();
    [
        ("frame_sent", t.frames_sent),
        ("forwarded", t.forwards),
        ("crc_reject", t.crc_rejects),
        ("undetected_upset", t.undetected_upsets),
        ("overflow_drop", t.overflow_drops),
        ("crash_drop", t.crash_drops),
        ("duplicate_drop", t.duplicate_drops),
        ("ttl_expiry", t.ttl_expirations),
        ("clock_slip", t.clock_slips),
        ("delivery", t.deliveries),
        ("partition_drop", t.partition_drops),
        ("byzantine_forge", t.byzantine_forges),
        ("byzantine_replay", t.byzantine_replays),
        ("adversarial_delay", t.adversarial_delays),
        ("adversarial_reorder", t.adversarial_reorders),
        ("round_quiescent", counters.quiescent_rounds()),
    ]
    .into_iter()
    .filter(|&(_, n)| n > 0)
    .map(|(k, n)| (k.to_string(), n))
    .collect()
}

/// Every event counted by `CounterSink`, summed over its kinds.
pub fn events_emitted(counters: &CounterSink) -> u64 {
    counter_kinds(counters).values().sum()
}

/// (h) JSONL lines tallied by kind equal the `CounterSink` totals, and
/// the counters reconcile with the report.
pub fn jsonl_matches_counters(
    jsonl: &[u8],
    counters: &CounterSink,
    report: &SimulationReport,
) -> Result<(), String> {
    let parsed = tally_jsonl(jsonl)?;
    let counted = counter_kinds(counters);
    if parsed != counted {
        return Err(format!(
            "JSONL kinds {parsed:?} != CounterSink totals {counted:?}"
        ));
    }
    counters.reconcile(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_parser_tallies_kinds_and_rejects_junk() {
        let text = b"{\"event\":\"frame_sent\",\"round\":0}\n{\"event\":\"delivery\",\"round\":1}\n{\"event\":\"frame_sent\",\"round\":1}\n";
        let kinds = tally_jsonl(text).expect("well formed");
        assert_eq!(kinds.get("frame_sent"), Some(&2));
        assert_eq!(kinds.get("delivery"), Some(&1));
        assert!(tally_jsonl(b"{\"round\":0}\n").is_err());
        assert!(tally_jsonl(b"{\"event\":\"delivery\"\n").is_err());
    }
}
