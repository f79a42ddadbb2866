//! `expected.json`: the pinned digests. Simulated statistics repeat exactly,
//! so a digest that differs from its pin is a failed operation, not noise.
//! Rewritten only by `run --bless`.

use crate::json;
use crate::seam::{Value, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// World seeds whose digests are pinned for every workload.
pub const PINNED_SEEDS: [u64; 2] = [2021, 7];

/// One pinned run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pin {
    /// SHA-256 of the rendered result and the event count.
    pub digest: String,
    /// `sim.events_processed` of the run.
    pub events: u64,
}

/// The pins, keyed by (size, workload, world seed); size is `full` or
/// `smoke`.
#[derive(Clone, Debug, Default)]
pub struct Expected {
    pins: BTreeMap<(String, String, u64), Pin>,
}

fn size_name(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

impl Expected {
    /// Where the pins live: next to the package manifest.
    pub fn path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json")
    }

    /// Reads the pins; a missing file is an empty set.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Expected::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        Expected::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(text: &str) -> Result<Expected, String> {
        let doc = json::parse(text)?;
        let mut pins = BTreeMap::new();
        for (size, workloads) in json::members(&doc) {
            for (workload, seeds) in json::members(workloads) {
                for (seed, pin) in json::members(seeds) {
                    let bad = || format!("bad pin {size}/{workload}/{seed}");
                    let seed: u64 = seed.parse().map_err(|_| bad())?;
                    let digest = pin.get("digest").and_then(json::as_str).ok_or_else(bad)?;
                    let events = pin.get("events").and_then(Value::as_u64).ok_or_else(bad)?;
                    pins.insert(
                        (size.clone(), workload.clone(), seed),
                        Pin {
                            digest: digest.to_string(),
                            events,
                        },
                    );
                }
            }
        }
        Ok(Expected { pins })
    }

    /// The pin for one run, if there is one.
    pub fn get(&self, smoke: bool, workload: Workload, seed: u64) -> Option<&Pin> {
        self.pins.get(&(
            size_name(smoke).to_string(),
            workload.name().to_string(),
            seed,
        ))
    }

    /// Sets the pin for one run.
    pub fn set(&mut self, smoke: bool, workload: Workload, seed: u64, pin: Pin) {
        self.pins.insert(
            (
                size_name(smoke).to_string(),
                workload.name().to_string(),
                seed,
            ),
            pin,
        );
    }

    /// Writes the pins back, sorted, so a re-bless diffs cleanly.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.render()).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn render(&self) -> String {
        let mut doc: Vec<(String, Value)> = Vec::new();
        for ((size, workload, seed), pin) in &self.pins {
            if doc.last().map(|(k, _)| k) != Some(size) {
                doc.push((size.clone(), Value::object()));
            }
            let Some((_, Value::Object(workloads))) = doc.last_mut() else {
                unreachable!("just pushed an object");
            };
            if workloads.last().map(|(k, _)| k) != Some(workload) {
                workloads.push((workload.clone(), Value::object()));
            }
            let (_, seeds) = workloads.last_mut().expect("just pushed");
            seeds.set(
                &seed.to_string(),
                Value::object()
                    .with("digest", pin.digest.as_str())
                    .with("events", pin.events),
            );
        }
        let mut text = Value::Object(doc).to_string_pretty();
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_survive_render_and_parse() {
        let mut e = Expected::default();
        let pin = |d: &str, events| Pin {
            digest: d.to_string(),
            events,
        };
        e.set(false, Workload::RelayStar, 2021, pin("aa", 10));
        e.set(false, Workload::RelayStar, 7, pin("bb", 11));
        e.set(false, Workload::ChurnMesh, 2021, pin("cc", 12));
        e.set(true, Workload::RelayStar, 2021, pin("dd", 13));
        let back = Expected::parse(&e.render()).unwrap();
        assert_eq!(back.pins, e.pins);
        assert_eq!(
            back.get(true, Workload::RelayStar, 2021),
            Some(&pin("dd", 13))
        );
        assert_eq!(back.get(true, Workload::RelayStar, 7), None);
        assert!(Expected::parse("{\"full\":{\"relay_star\":{\"x\":{}}}}").is_err());
    }
}
