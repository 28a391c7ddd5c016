//! `--check A.json B.json`: holds result file B against result file A,
//! metric by metric, with the bounds of `BENCHMARK.json`.

use sepra_repl::json::{self, Json};

use crate::spec::Spec;

/// One workload's numbers in a result file.
struct Cell {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn read(path: &str) -> Result<Vec<(String, Cell)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{path}: no `workloads` object"));
    };
    workloads
        .iter()
        .map(|(name, w)| {
            let count = |key: &str| {
                w.get(key).and_then(Json::as_u64).ok_or(format!("{path}: {name} lacks `{key}`"))
            };
            let Some(Json::Obj(metrics)) = w.get("metrics") else {
                return Err(format!("{path}: {name} has no metrics"));
            };
            let metrics = metrics
                .iter()
                .filter_map(|(metric, m)| match m.get("value") {
                    Some(Json::Num(v)) => Some((metric.clone(), *v)),
                    _ => None,
                })
                .collect();
            Ok((
                name.clone(),
                Cell { attempted: count("attempted")?, failed: count("failed")?, metrics },
            ))
        })
        .collect()
}

/// How much worse `new` is than `base`, as a share of `base`: positive is
/// worse, whichever direction the metric counts as better.
pub fn worsening(base: f64, new: f64, higher_is_better: bool) -> f64 {
    let change = (new - base) / base.abs().max(f64::MIN_POSITIVE);
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Prints every pair with its ratio and base; `Ok(true)` when no bounded
/// metric is worse than its bound and nothing failed in either file.
pub fn check(base_path: &str, new_path: &str) -> Result<bool, String> {
    let spec = Spec::load();
    let (base, new) = (read(base_path)?, read(new_path)?);
    let mut ok = true;
    println!(
        "{:<18} {:<42} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    for (workload, b) in &base {
        let Some((_, n)) = new.iter().find(|(w, _)| w == workload) else {
            println!("{workload:<18} missing from {new_path}");
            ok = false;
            continue;
        };
        for (file, cell) in [(base_path, b), (new_path, n)] {
            if cell.failed > 0 {
                println!(
                    "{workload:<18} {} of {} ops failed in {file}",
                    cell.failed, cell.attempted
                );
                ok = false;
            }
        }
        for (metric, base_value) in &b.metrics {
            let Some((_, new_value)) = n.metrics.iter().find(|(m, _)| m == metric) else {
                println!("{workload:<18} {metric:<42} missing from {new_path}");
                ok = false;
                continue;
            };
            let Some(m) = spec.metric(metric) else { continue };
            let verdict = match m.bound {
                None => "-".to_string(),
                Some(bound) => {
                    let worse = worsening(*base_value, *new_value, m.higher_is_better);
                    if worse > bound {
                        ok = false;
                        format!("BREACH: {:.1}% worse, bound {:.0}%", worse * 100.0, bound * 100.0)
                    } else {
                        format!("within {:.0}%", bound * 100.0)
                    }
                }
            };
            println!(
                "{workload:<18} {metric:<42} {base_value:>14.4} {new_value:>14.4} {:>8.4}  {verdict}",
                new_value / base_value
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, true) - 0.20).abs() < 1e-12);
        assert_eq!(worsening(5.0, 5.0, false), 0.0);
    }
}
