//! The metric catalogue and the one-line JSON result every run prints.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), name and unit. Host time unless the
/// name starts with `sim_`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("trial_p50_s", "s"),
    ("sim_packets_per_s", "1/s"),
    ("sim_rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), name and unit.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("runner.trial_s.p50", "s"),
    ("runner.trial_s.p90", "s"),
    ("runner.dispatch_s", "s"),
    ("engine.build_s", "s"),
    ("engine.build_s.p50", "s"),
    ("engine.step_s.p50", "s"),
    ("engine.step_s.p99", "s"),
    ("engine.ns_per_packet", "ns"),
    ("engine.rounds", "count"),
    ("engine.quiescent_rounds", "count"),
    ("engine.packets", "count"),
    ("engine.crc_rejects", "count"),
    ("engine.phase.round_s", "s"),
    ("engine.phase.tape_s", "s"),
    ("engine.phase.shard_fanout_s", "s"),
    ("engine.phase.merge_s", "s"),
    ("engine.phase.quiescence_s", "s"),
    ("engine.phase.unattributed_s", "s"),
    ("shard.fanouts", "count"),
    ("shard.fanout_s.p50", "s"),
    ("checkpoint.captures", "count"),
    ("checkpoint.capture_s", "s"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.decode_s", "s"),
    ("checkpoint.resume_s", "s"),
    ("checkpoint.bytes.mean", "bytes"),
    ("events.emitted", "count"),
    ("events.jsonl_bytes", "bytes"),
    ("events.sink_s", "s"),
    ("events.ns_per_event", "ns"),
    ("events.duplicate_drops", "count"),
    ("send_buffer.insert_ns", "ns"),
    ("send_buffer.age_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_view_ns", "ns"),
    ("wire.decode_trusted_ns", "ns"),
    ("faults.upset_draw_ns", "ns"),
    ("faults.scramble_ns", "ns"),
    ("faults.overflow_draw_ns", "ns"),
    ("faults.skew_draw_ns", "ns"),
    ("faults.upsets_fired", "count"),
    ("faults.overflow_drops", "count"),
    ("faults.skew_draws", "count"),
    ("obs.overhead_s", "s"),
];

/// Metric values by name, filled by a run and checked against a
/// catalogue before printing.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the result line. Every metric of `catalogue` must have a
/// finite value in `values`, and `values` may hold no other metric.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &Values,
) -> Result<String, String> {
    let mut body = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    if let Some(extra) = values
        .0
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// A JSON number with every digit of the `f64` (integers print without
/// a fraction).
fn number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, read
    /// with a scanner rather than a JSON library (the benchmark has no
    /// dependencies outside the repository).
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let open = start + json[start..].find('[').expect("section opens a list");
        let close = open + json[open..].find(']').expect("section closes its list");
        json[open..close]
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry
                        .find(&format!("\"{f}\""))
                        .unwrap_or_else(|| panic!("entry without {f}: {entry}"));
                    let rest = &entry[at + f.len() + 2..];
                    let rest = &rest[rest.find('"').expect("string value") + 1..];
                    rest[..rest.find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogues_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(section(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(section(&json, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn printed_output_names_every_metric_with_its_unit() {
        let json = benchmark_json();
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let mut values = Values::default();
            for &(name, _) in catalogue {
                values.set(name, 1.5);
            }
            let line = render(true, 3, 0, catalogue, &values).expect("complete values");
            for (name, unit) in section(&json, key) {
                let want = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
                assert!(line.contains(&want), "{want} missing from {line}");
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        }
    }

    #[test]
    fn render_refuses_missing_extra_or_non_finite_values() {
        let mut values = Values::default();
        values.set("setup_s", 1.0);
        assert!(render(true, 1, 0, &END_TO_END, &values).is_err());
        for &(name, _) in &END_TO_END {
            values.set(name, 2.0);
        }
        assert!(render(true, 1, 0, &END_TO_END, &values).is_ok());
        values.set("wall_s", f64::NAN);
        assert!(render(true, 1, 0, &END_TO_END, &values).is_err());
        values.set("wall_s", 2.0);
        values.set("engine.rounds", 2.0);
        assert!(render(true, 1, 0, &END_TO_END, &values).is_err());
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(0.1234567890123), "0.1234567890123");
        assert_eq!(number(1e-9), "1e-9");
    }
}
