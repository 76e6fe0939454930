//! `--compare A.json B.json`: verdicts on B against A for every
//! (workload, end-to-end metric) under the bounds in `BENCHMARK.json`,
//! and the per-layer metrics whose medians moved more than A's
//! interquartile range.

use hcc_types::json::Json;

use crate::measure::Better;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` reads than `a`, as a share of `a` (negative when
/// better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

/// B against A. Worse (improved) needs the medians to differ by more
/// than `bound` in that direction *and* B's interquartile range to lie
/// wholly on that side of A's. A larger difference without that order,
/// or either side spread wider than `bound`, is unresolved.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, better: Better) -> Verdict {
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return Verdict::Unresolved;
    };
    let worse_by = worsening(sa.median, sb.median, better);
    let (b_above, b_below) = (sb.q1 > sa.q3, sb.q3 < sa.q1);
    let (ordered_worse, ordered_better) = match better {
        Better::Lower => (b_above, b_below),
        Better::Higher => (b_below, b_above),
    };
    if worse_by > bound && ordered_worse {
        Verdict::Worse
    } else if -worse_by > bound && ordered_better {
        Verdict::Improved
    } else if worse_by.abs() > bound || sa.spread() > bound || sb.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// `name → (bound, better)` from a `BENCHMARK.json` document.
pub fn bounds(doc: &Json) -> Result<Vec<(String, f64, Better)>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse);
            match (name, bound, better) {
                (Some(n), Some(b), Some(d)) => Ok((n.to_string(), b, d)),
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

fn samples(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .and_then(Json::as_array)
        .map(|v| v.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn workloads(doc: &Json) -> Result<&[(String, Json)], String> {
    match doc.get("workloads") {
        Some(Json::Obj(ws)) => Ok(ws),
        _ => Err("not a hcc_benchmark --json result (no workloads)".to_string()),
    }
}

/// The comparison report, and whether any pair came out worse.
pub fn compare(
    a: &Json,
    b: &Json,
    bounds: &[(String, f64, Better)],
) -> Result<(String, bool), String> {
    let mut out = format!(
        "{:<10} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut any_worse = false;
    let mut moved = String::new();
    let b_workloads = workloads(b)?;
    for (name, wa) in workloads(a)? {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| n == name) else {
            out.push_str(&format!("{name:<10} (missing from B)\n"));
            continue;
        };
        let (Some(Json::Obj(ea)), Some(eb)) = (wa.get("e2e"), wb.get("e2e")) else {
            continue;
        };
        for (metric, ma) in ea {
            let Some(mb) = eb.get(metric) else { continue };
            let (sa, sb) = (samples(ma), samples(mb));
            // Uncalibrated host times carry no samples: not compared.
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            // Metrics without a bound (fail_ratio) may not increase at all.
            let (bound, better) = bounds
                .iter()
                .find(|(n, ..)| n == metric)
                .map_or((0.0, Better::Lower), |&(_, bd, d)| (bd, d));
            let v = verdict(&sa, &sb, bound, better);
            any_worse |= v == Verdict::Worse;
            let (med_a, med_b) = (
                Summary::of(&sa).map_or(f64::NAN, |s| s.median),
                Summary::of(&sb).map_or(f64::NAN, |s| s.median),
            );
            let change = if med_a == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", (med_b - med_a) / med_a * 100.0)
            };
            out.push_str(&format!(
                "{name:<10} {metric:<22} {med_a:>14.4} {med_b:>14.4} {change:>9} {:>6.0}%  {}\n",
                bound * 100.0,
                v.name()
            ));
        }
        let (Some(Json::Obj(la)), Some(lb)) = (wa.get("layers"), wb.get("layers")) else {
            continue;
        };
        for (metric, ma) in la {
            let num = |m: &Json, k: &str| m.get(k).and_then(Json::as_f64);
            let Some(mb) = lb.get(metric) else { continue };
            let (Some(a_med), Some(q1), Some(q3), Some(b_med)) = (
                num(ma, "median"),
                num(ma, "q1"),
                num(ma, "q3"),
                num(mb, "median"),
            ) else {
                continue;
            };
            if (b_med - a_med).abs() > q3 - q1 {
                moved.push_str(&format!(
                    "  {name:<10} {metric:<26} {a_med:>14.4} -> {b_med:<14.4} (A IQR {:.4})\n",
                    q3 - q1
                ));
            }
        }
    }
    if moved.is_empty() {
        out.push_str("per-layer medians moved beyond A's IQR: none\n");
    } else {
        out.push_str("per-layer medians moved beyond A's IQR:\n");
        out.push_str(&moved);
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..20)
            .map(|i| center + jitter * (f64::from(i % 5) - 2.0) / 2.0)
            .collect()
    }

    #[test]
    fn verdicts_cover_every_outcome() {
        let base = around(100.0, 1.0);
        let lower = Better::Lower;
        assert_eq!(
            verdict(&base, &around(101.0, 1.0), 0.1, lower),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &around(130.0, 1.0), 0.1, lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &around(70.0, 1.0), 0.1, lower),
            Verdict::Improved
        );
        // The same shift reads the other way for a higher-is-better metric.
        let higher = Better::Higher;
        assert_eq!(
            verdict(&base, &around(130.0, 1.0), 0.1, higher),
            Verdict::Improved
        );
        // A large shift whose quartiles overlap the base's: unresolved.
        assert_eq!(
            verdict(&base, &around(115.0, 40.0), 0.1, lower),
            Verdict::Unresolved
        );
        // Medians agree but one side is spread wider than the bound.
        assert_eq!(
            verdict(&base, &around(100.0, 30.0), 0.1, lower),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_zero_bound_forbids_any_increase() {
        assert_eq!(
            verdict(&[0.0], &[0.0], 0.0, Better::Lower),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[0.0], &[0.02], 0.0, Better::Lower), Verdict::Worse);
    }

    fn doc(wall: &[f64], batch: f64) -> Json {
        let arr = Json::Arr(wall.iter().map(|&x| Json::F64(x)).collect());
        let text = format!(
            r#"{{"workloads":{{"serve":{{
                "e2e":{{"wall_ms":{{"samples":{arr},"better":"lower"}},
                        "fail_ratio":{{"samples":[0.0],"better":"lower"}}}},
                "layers":{{"engine.batch_ms":{{"median":{batch},"q1":{},"q3":{}}}}}}}}}}}"#,
            batch - 0.5,
            batch + 0.5,
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn compare_reads_result_documents_and_flags_worse() {
        let bench = Json::parse(
            r#"{"end_to_end":[{"name":"wall_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let bounds = bounds(&bench).unwrap();
        let a = doc(&around(100.0, 1.0), 10.0);
        let (text, worse) = compare(&a, &doc(&around(100.5, 1.0), 10.2), &bounds).unwrap();
        assert!(!worse, "{text}");
        assert!(text.contains("unchanged") && text.contains("moved beyond A's IQR: none"));
        let (text, worse) = compare(&a, &doc(&around(150.0, 1.0), 20.0), &bounds).unwrap();
        assert!(worse, "{text}");
        assert!(text.contains("worse") && text.contains("engine.batch_ms"));
    }
}
