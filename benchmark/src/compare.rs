//! `compare A.json B.json`: applies the benchmark's bounds to two result
//! files (A the parent, B the change) — what a CI gate calls.

use crate::json;
use crate::metrics::{self, Better};
use crate::seam::Value;
use crate::stats::{median, quartile_spread};

/// How one (workload, metric) pair came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median beats A's by more than the run-to-run spread, or every
    /// run of B beats every run of A.
    Better,
    /// No worse than the bound, no better than the spread.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread is wider than the bound, so the pair says nothing.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one pair of sample sets under `bound`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse, as a share of A.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let spread = quartile_spread(a).max(quartile_spread(b));
    if spread > bound {
        let clean_sweep = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
        return if clean_sweep {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn samples(metric: &Value) -> Option<Vec<f64>> {
    let values: Vec<f64> = metric
        .get("values")?
        .as_array()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    (!values.is_empty()).then_some(values)
}

fn failed_share(workload: &Value) -> f64 {
    let get = |k: &str| workload.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    if get("ops") == 0.0 {
        0.0
    } else {
        get("ops_failed") / get("ops")
    }
}

/// Compares two result documents; returns the report text and whether the
/// gate passes (nothing worse, no higher failed share).
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let empty = Value::object();
    let wa = a.get("workloads").unwrap_or(&empty);
    let wb = b.get("workloads").unwrap_or(&empty);
    for (workload, ra) in json::members(wa) {
        let Some(rb) = wb.get(workload) else {
            out.push_str(&format!("{workload}: missing from B\n"));
            pass = false;
            continue;
        };
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        if fb > fa {
            out.push_str(&format!(
                "{workload}: failed share rose {fa:.4} -> {fb:.4}  FAIL\n"
            ));
            pass = false;
        }
        for key in ["digest", "events"] {
            let (va, vb) = (ra.get(key), rb.get(key));
            let same = va.is_some() && va == vb;
            out.push_str(&format!(
                "{workload:<22} {key:<16} {}\n",
                if same { "identical" } else { "DIFFERS" }
            ));
        }
        let empty = Value::object();
        let ma = ra.get("metrics").unwrap_or(&empty);
        let mb = rb.get("metrics").unwrap_or(&empty);
        for (name, va) in json::members(ma) {
            let (Some(sa), Some(sb)) = (samples(va), mb.get(name).and_then(samples)) else {
                continue;
            };
            let (med_a, med_b) = (median(&sa), median(&sb));
            let change = (med_b - med_a) / med_a * 100.0;
            // Per-layer metrics carry no bound: show the change, judge nothing.
            let verdict = metrics::end_to_end(name)
                .map(|def| judge(&sa, &sb, def.better, def.bound.expect("end to end")));
            if verdict == Some(Verdict::Worse) {
                pass = false;
            }
            out.push_str(&format!(
                "{workload:<22} {name:<36} {med_a:>14.6} -> {med_b:>14.6} {change:>+8.2}%  {}\n",
                verdict.map_or("", Verdict::as_str)
            ));
        }
    }
    out.push_str(if pass { "PASS\n" } else { "FAIL\n" });
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&a, &[10.4, 10.5, 10.3, 10.4], Better::Lower, 0.10),
            Verdict::Within
        );
        assert_eq!(
            judge(&a, &[11.5, 11.6, 11.4, 11.5], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[9.0, 9.1, 8.9, 9.0], Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[9.0, 9.1, 8.9, 9.0], Better::Higher, 0.05),
            Verdict::Worse
        );
        // Spread wider than the bound: unresolved unless a clean sweep.
        let noisy = [8.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&noisy, &[9.5, 10.5, 9.0, 11.5], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[5.0, 7.9, 6.0, 7.0], Better::Lower, 0.10),
            Verdict::Better
        );
    }

    fn doc(wall: &[f64], ops_failed: u64) -> Value {
        let metric = Value::object()
            .with("unit", "s")
            .with("values", wall.to_vec());
        let workload = Value::object()
            .with("digest", "abc")
            .with("events", 5u64)
            .with("ops", 10u64)
            .with("ops_failed", ops_failed)
            .with("metrics", Value::object().with("wall_s", metric));
        Value::object().with("workloads", Value::object().with("relay_star", workload))
    }

    #[test]
    fn compare_gates_on_worse_and_on_failed_share() {
        let base = doc(&[1.0, 1.01, 0.99], 0);
        let (text, pass) = compare(&base, &doc(&[1.02, 1.03, 1.01], 0));
        assert!(pass, "{text}");
        assert!(text.contains("within"), "{text}");
        let (text, pass) = compare(&base, &doc(&[1.3, 1.31, 1.29], 0));
        assert!(!pass && text.contains("worse"), "{text}");
        let (text, pass) = compare(&base, &doc(&[1.0, 1.01, 0.99], 1));
        assert!(!pass && text.contains("failed share rose"), "{text}");
    }
}
