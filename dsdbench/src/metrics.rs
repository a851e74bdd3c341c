//! The metric catalogue (names and units, as in `BENCHMARK.json`) and
//! the result line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::layers::{MOVE_KINDS, SCOPE_KINDS};

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("evals_per_s", "1/s"),
    ("cost_ratio", "ratio"),
    ("protected_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect::<Vec<_>>()
    };
    let mut out = fixed(&[
        ("bounds.lower_bound_s", "s"),
        ("design_solver.greedy_s", "s"),
        ("design_solver.refit_s", "s"),
        ("design_solver.completion_s", "s"),
        ("design_solver.greedy_builds", "count"),
        ("design_solver.nodes_evaluated", "count"),
        ("candidate.placements", "count"),
        ("candidate.enumerate_us", "us"),
    ]);
    for op in ["apply_us", "undo_us", "evaluate_delta_us"] {
        out.extend(MOVE_KINDS.iter().map(|k| (format!("candidate.{op}.{k}"), "us")));
    }
    out.extend(fixed(&[
        ("candidate.evaluate_us", "us"),
        ("candidate.clone_us", "us"),
        ("config_solver.complete_quick_us", "us"),
        ("config_solver.complete_full_us", "us"),
        ("reconfigure.reconfigure_us", "us"),
        ("reconfigure.success_ratio", "ratio"),
        ("eval_cache.hit_ratio", "ratio"),
        ("eval_cache.key_us", "us"),
        ("recovery.annual_penalties_us", "us"),
        ("recovery.scenarios", "count"),
    ]));
    out.extend(SCOPE_KINDS.iter().map(|k| (format!("recovery.evaluate_scenario_us.{k}"), "us")));
    out.extend(fixed(&[
        ("scenario_cache.hit_ratio", "ratio"),
        ("failure.enumerate_us", "us"),
        ("portfolio.tasks", "count"),
        ("portfolio.steals", "count"),
        ("portfolio.adoptions", "count"),
        ("portfolio.incumbent_generations", "count"),
        ("portfolio.idle_share", "ratio"),
        ("obs.trace_overhead_pct", "%"),
        ("obs.events", "count"),
        ("obs.fold_s", "s"),
        ("obs.attributed_pct", "%"),
        ("profile.greedy.self_s", "s"),
        ("profile.greedy.pricing_s", "s"),
        ("profile.refit.self_s", "s"),
        ("profile.refit.pricing_s", "s"),
        ("profile.config.self_s", "s"),
        ("profile.anneal.self_s", "s"),
        ("profile.tabu.self_s", "s"),
        ("profile.worker.self_s", "s"),
    ]));
    for series in ["trials", "accepted"] {
        out.extend(MOVE_KINDS.iter().map(|k| (format!("trace.solver.{series}.{k}"), "count")));
    }
    out
}

/// Values measured by a run, by metric name.
pub type Values = BTreeMap<String, f64>;

/// Puts the catalogue's metrics in order with their units. A catalogue
/// metric the run did not measure, or measured as a non-finite number,
/// is returned as an error.
pub fn select(
    catalogue: &[(String, &'static str)],
    values: &Values,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    catalogue
        .iter()
        .map(|(name, unit)| match values.get(name) {
            Some(v) if v.is_finite() => Ok((name.clone(), *v, *unit)),
            Some(v) => Err(format!("metric {name} measured as {v}")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line result object: `correct`, `attempted`, `failed` and
/// `metrics` (each `{"value", "unit"}`), numbers with all their digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("{}: {{\"value\": {value:?}, \"unit\": {}}}", quote(name), quote(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
    }

    #[test]
    fn result_line_is_one_line_with_every_digit() {
        let line = result_line(true, 3, 0, &[("solve_s".into(), 0.123_456_789_012_345, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"solve_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn select_reports_missing_and_non_finite_metrics() {
        let cat = vec![("a".to_string(), "s"), ("b".to_string(), "s")];
        let mut values = Values::new();
        values.insert("a".into(), 1.0);
        assert!(select(&cat, &values).unwrap_err().contains("b was not measured"));
        values.insert("b".into(), f64::NAN);
        assert!(select(&cat, &values).unwrap_err().contains("b measured as NaN"));
    }
}
