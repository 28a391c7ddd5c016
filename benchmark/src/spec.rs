//! `BENCHMARK.json`, compiled in: the workloads, the metrics, their units,
//! directions and bounds. The file is the contract; this module only
//! reads it.

use sepra_repl::json::{self, Json};

const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// The share of the base value by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(TEXT).expect("BENCHMARK.json is valid")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => Ok(items.as_slice()),
            _ => Err(format!("BENCHMARK.json: `{key}` is not a list")),
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricSpec {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        higher_is_better: match text_of(item, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                        },
                        bound: match item.get("bound") {
                            Some(Json::Num(b)) => Some(*b),
                            _ => None,
                        },
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a whole number")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn the_file_keeps_to_the_contract() {
        let spec = Spec::load();
        assert!((1..=60).contains(&spec.run_seconds));
        assert_eq!(spec.workloads, workloads::NAMES, "workloads and their order");
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = std::collections::BTreeSet::new();
        for name in spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().chain(&spec.per_layer).map(|m| &m.name))
        {
            assert!(is_name(name), "`{name}` is not a contract name");
            assert!(seen.insert(name.clone()), "`{name}` is used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit `{}` of {}",
                m.unit,
                m.name
            );
        }
        for m in &spec.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "bound of {}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let doc = json::parse(TEXT).unwrap();
        let Json::Obj(members) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = members.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        for why in match doc.get("workloads") {
            Some(Json::Arr(w)) => w.iter().filter_map(|w| w.get("why").and_then(Json::as_str)),
            _ => panic!("no workloads"),
        } {
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        }
    }

    /// The lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark must measure the engine as the root workspace builds
    /// it: a profile setting changes speed without changing code.
    #[test]
    fn release_profile_repeats_the_root_manifest() {
        let root = release_profile(include_str!("../../Cargo.toml"));
        let own = release_profile(include_str!("../Cargo.toml"));
        assert!(!root.is_empty(), "the root manifest has a release profile");
        assert_eq!(root, own, "benchmark/Cargo.toml must repeat the root [profile.release]");
    }

    /// Every per-layer metric belongs to a layer that has a file under
    /// `src/layers/`.
    #[test]
    fn every_per_layer_metric_names_its_layer() {
        const LAYERS: [&str; 12] = [
            "client", "ast", "lint", "strata", "storage", "eval", "rewrite", "core", "engine",
            "server", "wal", "repl",
        ];
        for m in Spec::load().per_layer {
            let layer = m.name.split('.').next().unwrap_or_default();
            assert!(LAYERS.contains(&layer), "{} has no layer", m.name);
        }
    }
}
