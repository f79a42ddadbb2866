//! The parallel experiment runner.
//!
//! Experiments are independent — each owns its world, its RNG stream and
//! its [`Instruments`] bundle — so the runner
//! distributes them over plain worker threads pulling from a shared index.
//! Reports come back in registry order and are byte-identical whatever the
//! thread count: the JSON envelope and the trace log depend only on the
//! scale and the derived seed. The one wall-clock observation, each
//! experiment's [`ExperimentReport::run_secs`], is kept out of the envelope;
//! [`super::write_bundle`] files it under `perf.json`.

use super::registry::{experiment_names, experiment_seed, Scale, REGISTRY};
use bitsync_json::Value;
use bitsync_sim::metrics::Histogram;
use bitsync_sim::time::SimDuration;
use bitsync_sim::timeseries::{Sampler, TimeseriesLog};
use bitsync_sim::trace::{TraceLog, Tracer, DEFAULT_TRACE_CAP};
use bitsync_sim::Instruments;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Runner settings.
#[derive(Clone, Copy, Debug)]
pub struct RunnerConfig {
    /// World scale for every experiment.
    pub scale: Scale,
    /// Global seed; each experiment derives its own via
    /// [`experiment_seed`].
    pub seed: u64,
    /// Worker threads (clamped to at least 1; 1 means fully serial).
    pub threads: usize,
    /// When set, each experiment runs with an enabled [`Tracer`] holding at
    /// most [`DEFAULT_TRACE_CAP`] events per category; the drained
    /// [`TraceLog`] lands on [`ExperimentReport::trace`]. `false` keeps
    /// tracing fully disabled.
    pub trace: bool,
    /// When set, each experiment runs with an enabled timeseries
    /// [`Sampler`] at this sim-time cadence; the drained [`TimeseriesLog`]
    /// lands on [`ExperimentReport::timeseries`]. `None` keeps sampling
    /// fully disabled (zero cost).
    pub sample_interval: Option<SimDuration>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            scale: Scale::Scaled,
            seed: 2021,
            threads: 1,
            trace: false,
            sample_interval: None,
        }
    }
}

/// One finished experiment.
pub struct ExperimentReport {
    /// Experiment name (CLI target).
    pub name: &'static str,
    /// Artifact basename: the golden snapshot is `<artifact>.json`.
    pub artifact: &'static str,
    /// Paper figures/tables reproduced.
    pub paper_targets: &'static [&'static str],
    /// The derived per-experiment seed actually used.
    pub seed: u64,
    /// The full JSON envelope: experiment, paper_targets, scale, seed,
    /// result, metrics.
    pub json: Value,
    /// The typed histograms behind the envelope's `metrics.histograms`
    /// section, in the same (name) order.
    pub histograms: Vec<(String, Histogram)>,
    /// Paper-style text report.
    pub rendered: String,
    /// The drained trace log when [`RunnerConfig::trace`] was set.
    pub trace: Option<TraceLog>,
    /// The drained timeseries log when [`RunnerConfig::sample_interval`]
    /// was set. Deterministic rows only; the wall-clock perf side-channel
    /// rides along in [`TimeseriesLog::perf`].
    pub timeseries: Option<TimeseriesLog>,
    /// Wall-clock seconds the registry row's `run` took. Side-channel
    /// only — never serialized into [`ExperimentReport::json`].
    pub run_secs: f64,
}

impl ExperimentReport {
    /// Events the experiment's worlds processed, its
    /// `metrics.counters["sim.events_processed"]` (0 for the census, which
    /// runs no event loop).
    pub fn sim_events(&self) -> u64 {
        self.json
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("sim.events_processed"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }
}

/// Executes registry experiments across worker threads.
pub struct ExperimentRunner {
    cfg: RunnerConfig,
}

impl ExperimentRunner {
    /// A runner with the given settings.
    pub fn new(cfg: RunnerConfig) -> ExperimentRunner {
        ExperimentRunner { cfg }
    }

    /// Resolves CLI targets to registry indices: `all` expands to the full
    /// registry, duplicates collapse to the first occurrence, unknown names
    /// produce an error listing the valid targets.
    pub fn resolve(targets: &[String]) -> Result<Vec<usize>, String> {
        let names = experiment_names();
        let mut indices = Vec::new();
        for t in targets {
            let wanted = if t == "all" {
                0..names.len()
            } else {
                match names.iter().position(|n| n == t) {
                    Some(i) => i..i + 1,
                    None => {
                        return Err(format!(
                            "unknown target '{t}' (valid: all, {})",
                            names.join(", ")
                        ))
                    }
                }
            };
            for i in wanted {
                if !indices.contains(&i) {
                    indices.push(i);
                }
            }
        }
        Ok(indices)
    }

    /// Runs the given targets (see [`ExperimentRunner::resolve`]).
    pub fn run(&self, targets: &[String]) -> Result<Vec<ExperimentReport>, String> {
        Ok(self.run_indices(&Self::resolve(targets)?))
    }

    fn run_indices(&self, indices: &[usize]) -> Vec<ExperimentReport> {
        let threads = self.cfg.threads.max(1).min(indices.len().max(1));
        if threads <= 1 {
            return indices.iter().map(|&i| self.run_one(i)).collect();
        }
        // Work-stealing over a shared cursor; each slot collects its own
        // report so output order stays registry order.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ExperimentReport>>> =
            indices.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&idx) = indices.get(k) else { break };
                    let report = self.run_one(idx);
                    *slots[k].lock().expect("slot poisoned") = Some(report);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot poisoned")
                    .expect("worker finished every claimed slot")
            })
            .collect()
    }

    fn run_one(&self, idx: usize) -> ExperimentReport {
        let exp = &REGISTRY[idx];
        let seed = experiment_seed(self.cfg.seed, exp.name);
        let ins = Instruments {
            tracer: if self.cfg.trace {
                Tracer::enabled(DEFAULT_TRACE_CAP)
            } else {
                Tracer::disabled()
            },
            sampler: self
                .cfg
                .sample_interval
                .map(Sampler::enabled)
                .unwrap_or_default(),
            ..Instruments::default()
        };
        let start = Instant::now();
        let (result, rendered) = (exp.run)(self.cfg.scale, seed, &ins);
        let run_secs = start.elapsed().as_secs_f64();

        let json = Value::object()
            .with("experiment", exp.name)
            .with("paper_targets", exp.paper_targets.to_vec())
            .with("scale", self.cfg.scale.name())
            .with("seed", seed)
            .with("result", result)
            .with("metrics", ins.metrics.to_json());

        ExperimentReport {
            name: exp.name,
            artifact: exp.artifact,
            paper_targets: exp.paper_targets,
            seed,
            json,
            histograms: ins.metrics.histograms(),
            rendered,
            trace: ins.tracer.take(),
            timeseries: ins.sampler.take(),
            run_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(threads: usize) -> ExperimentRunner {
        ExperimentRunner::new(RunnerConfig {
            scale: Scale::Quick,
            seed: 7,
            threads,
            trace: false,
            sample_interval: None,
        })
    }

    #[test]
    fn resolve_dedupes_and_rejects_unknown() {
        let idx = ExperimentRunner::resolve(&[
            "relay".to_string(),
            "rounds".to_string(),
            "relay".to_string(),
        ])
        .unwrap();
        assert_eq!(idx.len(), 2);
        let err = ExperimentRunner::resolve(&["nope".to_string()]).unwrap_err();
        assert!(err.contains("unknown target 'nope'"), "{err}");
        assert!(err.contains("relay"), "{err}");
    }

    #[test]
    fn all_expands_to_whole_registry_once() {
        let idx = ExperimentRunner::resolve(&["relay".to_string(), "all".to_string()]).unwrap();
        assert_eq!(idx.len(), REGISTRY.len());
    }

    #[test]
    fn report_envelope_has_metrics_section() {
        let reports = quick(1).run(&["rounds".to_string()]).unwrap();
        assert_eq!(reports.len(), 1);
        let json = &reports[0].json;
        assert!(json.get("result").is_some());
        assert!(reports[0].sim_events() > 0, "no event count in {json}");
    }

    #[test]
    fn untraced_reports_have_no_trace_but_do_have_run_secs() {
        let reports = quick(1).run(&["rounds".to_string()]).unwrap();
        assert!(reports[0].trace.is_none());
        assert!(reports[0].run_secs > 0.0);
    }
}
