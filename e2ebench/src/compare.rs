//! `compare <setA> <setB>`: two sets of runs from the history, metric by
//! metric and workload by workload, judged by the bounds the catalogue
//! fixes. A metric whose run-to-run spread is wider than its bound is
//! reported as `unresolved`, not as unchanged — unless every run of B
//! reads better than every run of A.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{parse, Json};
use crate::report::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stack::Res;
use crate::stats::{quartiles, spread};
use crate::workload::Workload;

/// metric name → values, for one set and one workload.
type Samples = BTreeMap<String, Vec<f64>>;

fn load(history: &Path, set: &str) -> Res<BTreeMap<String, Samples>> {
    let text = std::fs::read_to_string(history)?;
    let mut out: BTreeMap<String, Samples> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse(line).map_err(|e| format!("{}:{}: {e}", history.display(), n + 1))?;
        if doc.get("set").and_then(Json::as_str) != Some(set) {
            continue;
        }
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(metrics) = doc.get("metrics").and_then(Json::as_obj) else {
            continue;
        };
        let samples = out.entry(workload.to_string()).or_default();
        for (name, value) in metrics {
            if let Some(v) = value.as_f64() {
                samples.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// `ok`, `regressed` or `unresolved` for one end-to-end metric.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> &'static str {
    let Some(bound) = def.bound else {
        return "-";
    };
    let (med_a, med_b) = (quartiles(a)[1], quartiles(b)[1]);
    let worse_by = match def.better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    if spread(a).max(spread(b)) > bound {
        let b_always_better = match def.better {
            Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
            Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
        };
        return if b_always_better { "ok" } else { "unresolved" };
    }
    if worse_by > bound {
        "regressed"
    } else {
        "ok"
    }
}

/// The comparison table and whether any metric regressed.
pub fn compare(history: &Path, set_a: &str, set_b: &str) -> Res<(String, bool)> {
    let (a, b) = (load(history, set_a)?, load(history, set_b)?);
    if a.is_empty() || b.is_empty() {
        return Err(format!(
            "no runs of set {:?} in {}",
            if a.is_empty() { set_a } else { set_b },
            history.display()
        )
        .into());
    }
    let mut out = format!(
        "compare {set_a} (A, the base of every ratio) with {set_b} (B); spread = (q3-q1)/median\n\
         {:<15} {:<42} {:>6} {:>14} {:>14} {:>8} {:>6} {:>8} {:>8} {:>3}/{:<3} verdict\n",
        "workload",
        "metric",
        "unit",
        "median A",
        "median B",
        "B/A",
        "bound",
        "spread A",
        "spread B",
        "nA",
        "nB"
    );
    let mut regressed = false;
    for w in Workload::ALL {
        let (Some(sa), Some(sb)) = (a.get(w.name()), b.get(w.name())) else {
            continue;
        };
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(va), Some(vb)) = (sa.get(def.name), sb.get(def.name)) else {
                continue;
            };
            let (med_a, med_b) = (quartiles(va)[1], quartiles(vb)[1]);
            let verdict = verdict(def, va, vb);
            regressed |= verdict == "regressed";
            let ratio = if med_a == 0.0 {
                "-".to_string()
            } else {
                format!("{:.3}", med_b / med_a)
            };
            out.push_str(&format!(
                "{:<15} {:<42} {:>6} {:>14.4} {:>14.4} {:>8} {:>6} {:>8.4} {:>8.4} {:>3}/{:<3} {}\n",
                w.name(),
                def.name,
                def.unit,
                med_a,
                med_b,
                ratio,
                def.bound.map_or("-".to_string(), |b| format!("{b:.2}")),
                spread(va),
                spread(vb),
                va.len(),
                vb.len(),
                verdict,
            ));
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "u",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let ops = &def(Better::Higher);
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(ops, &base, &[97.0, 98.0, 96.0, 97.5, 96.5]), "ok");
        assert_eq!(
            verdict(ops, &base, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            "regressed"
        );
        // A faster B never regresses, however large the change.
        assert_eq!(
            verdict(ops, &base, &[150.0, 151.0, 149.0, 150.5, 149.5]),
            "ok"
        );
        // Spread wider than the bound: unresolved, unless B always wins.
        let noisy = [100.0, 130.0, 70.0, 120.0, 80.0];
        assert_eq!(verdict(ops, &noisy, &base), "unresolved");
        assert_eq!(
            verdict(ops, &noisy, &[200.0, 210.0, 190.0, 205.0, 195.0]),
            "ok"
        );

        let lat = &def(Better::Lower);
        assert_eq!(
            verdict(lat, &base, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            "regressed"
        );
        assert_eq!(verdict(lat, &base, &[90.0, 91.0, 89.0, 90.5, 89.5]), "ok");
    }
}
