//! Deterministic scenario fuzzing: random world configurations run under
//! the invariant checker, with differential cross-checks and shrinking.
//!
//! One [`Scenario`] is a small, flat, numeric description of a world — the
//! population, churn and workload knobs, plus bounded run limits. The
//! fuzzer ([`run_fuzz`]) samples scenarios from a seeded generator and
//! subjects each to [`check_scenario`], which unifies every correctness
//! harness the repo has grown so far into one verdict:
//!
//! 1. **invariants** — the world runs with a
//!    [`Checker`] attached: time monotonicity,
//!    per-object delivery conservation, outdegree caps, and addrman table
//!    consistency are checked on every event (see `bitsync-node`'s event
//!    loop), plus a final addrman sweep over all online nodes;
//! 2. **trace replay** — the relay histogram rebuilt from the trace log
//!    ([`replay_relay_histogram`]) must equal the live
//!    `node.relay_delay_secs` histogram exactly;
//! 3. **thread invariance** — the identical scenario re-runs bare (no
//!    checker, no tracer) on a freshly spawned thread; the run digests
//!    must match, which also proves the observers are read-only.
//!
//! Fault scenarios additionally *settle*: after the bounded run the fault
//! plane is torn down and the world gets a grace window in which the
//! surviving population must collapse back onto a single chain
//! (`chain_converged`, see [`World::check_convergence`]).
//!
//! On failure the scenario is greedily [`shrink`]-ed to a minimal still-
//! failing configuration and written as a flat JSON repro file that
//! [`replay_file`] (and `repro fuzz --replay`) re-runs as a named case.
//! A deliberate [`Fault`] can be injected to prove the harness catches a
//! planted bug end to end: the invariant-violating variants (duplicate
//! deliveries, time-warped deliveries, ban-reorg-peers) must trip the
//! checker, while the benign fault-plane variants (drops, delays, stalls,
//! flaps, floods, partition storms, competing/solo miners) must sail
//! through all three harnesses *and* reconverge once the faults end.
//!
//! Everything is a pure function of the seed: same seed, same scenarios,
//! same verdicts, byte-identical repro files.

use bitsync_addrman::AddrManConfig;
use bitsync_analysis::replay_relay_histogram;
use bitsync_json::Value;
use bitsync_net::churn::ChurnConfig;
use bitsync_node::config::{NodeConfig, ResilienceConfig};
use bitsync_node::world::{metric, Fault, World, WorldConfig, FRESH_RELAY_WINDOW};
use bitsync_sim::check::Checker;
use bitsync_sim::metrics::DEFAULT_BUCKETS;
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::trace::{Tracer, DEFAULT_TRACE_CAP};
use bitsync_sim::Instruments;
use std::path::Path;

/// One fuzzable world configuration: every field is a plain number so a
/// scenario round-trips losslessly through a flat JSON repro file.
///
/// `0` disables an optional process (churn, link failures, mining,
/// transactions). The instrumented relay node is always index 0.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// World master seed.
    pub seed: u64,
    /// Reachable full nodes.
    pub n_reachable: u64,
    /// Unreachable (NAT'd) full nodes.
    pub n_unreachable_full: u64,
    /// Phantom gossip addresses.
    pub n_phantoms: u64,
    /// DNS-seeded reachable addresses per addrman.
    pub seed_reachable: u64,
    /// Prior-gossip phantom addresses per addrman.
    pub seed_phantoms: u64,
    /// ADDR-flooding malicious nodes among the reachable set.
    pub n_malicious: u64,
    /// Mean session lifetime in seconds; `0` disables churn.
    pub churn_mean_secs: u64,
    /// Probability a departed node rejoins (only meaningful with churn).
    pub rejoin_probability: f64,
    /// Mean per-connection lifetime in seconds; `0` disables link failures.
    pub connection_mean_secs: u64,
    /// Expected block interval in seconds; `0` disables mining.
    pub block_interval_secs: u64,
    /// Transactions injected per second; `0.0` disables the workload.
    pub tx_rate: f64,
    /// Fraction of nodes negotiating compact blocks.
    pub compact_fraction: f64,
    /// Fraction of permanently unsynchronized nodes.
    pub laggard_fraction: f64,
    /// Fraction of reachable nodes that never churn.
    pub permanent_fraction: f64,
    /// Simulated run length in seconds.
    pub duration_secs: u64,
    /// Event budget: the run stops after this many events even if the
    /// queue still holds work before the deadline.
    pub max_steps: u64,
    /// Injected fault, if any (repro files carry it as `"fault": <code>`,
    /// see [`Fault::code`]).
    pub fault: Option<Fault>,
}

impl Scenario {
    /// The scenario as an insertion-ordered flat JSON object. The `fault`
    /// member is present only when a fault is armed, keeping clean repro
    /// files at 19 lines pretty-printed.
    pub fn to_json(&self) -> Value {
        let mut v = Value::object()
            .with("seed", self.seed)
            .with("n_reachable", self.n_reachable)
            .with("n_unreachable_full", self.n_unreachable_full)
            .with("n_phantoms", self.n_phantoms)
            .with("seed_reachable", self.seed_reachable)
            .with("seed_phantoms", self.seed_phantoms)
            .with("n_malicious", self.n_malicious)
            .with("churn_mean_secs", self.churn_mean_secs)
            .with("rejoin_probability", self.rejoin_probability)
            .with("connection_mean_secs", self.connection_mean_secs)
            .with("block_interval_secs", self.block_interval_secs)
            .with("tx_rate", self.tx_rate)
            .with("compact_fraction", self.compact_fraction)
            .with("laggard_fraction", self.laggard_fraction)
            .with("permanent_fraction", self.permanent_fraction)
            .with("duration_secs", self.duration_secs)
            .with("max_steps", self.max_steps);
        if let Some(f) = self.fault {
            v.set("fault", f.code());
        }
        v
    }

    /// Parses a scenario from repro-file JSON text: the flat object
    /// [`Scenario::to_json`] emits, read by [`bitsync_json::parse`]. An
    /// integer member must be an integer literal (`parse` keeps those exact
    /// and never goes through `f64`): a world seed uses all 64 bits.
    pub fn from_json_str(text: &str) -> Result<Scenario, String> {
        let doc = bitsync_json::parse(text).map_err(|e| e.to_string())?;
        let need = |key: &str| doc.get(key).ok_or_else(|| format!("missing field '{key}'"));
        let get = |key: &str| -> Result<f64, String> {
            let v = need(key)?;
            v.as_f64()
                .ok_or_else(|| format!("field '{key}' must be a number, got {v}"))
        };
        let get_u64 = |key: &str| -> Result<u64, String> {
            let v = need(key)?;
            v.as_u64()
                .ok_or_else(|| format!("field '{key}' must be a non-negative integer, got {v}"))
        };
        let fault = match doc.get("fault") {
            None | Some(Value::Int(0)) => None,
            Some(v) => {
                let fault = v.as_u64().and_then(Fault::from_code);
                Some(fault.ok_or_else(|| format!("unknown fault code {v}"))?)
            }
        };
        Ok(Scenario {
            seed: get_u64("seed")?,
            n_reachable: get_u64("n_reachable")?,
            n_unreachable_full: get_u64("n_unreachable_full")?,
            n_phantoms: get_u64("n_phantoms")?,
            seed_reachable: get_u64("seed_reachable")?,
            seed_phantoms: get_u64("seed_phantoms")?,
            n_malicious: get_u64("n_malicious")?,
            churn_mean_secs: get_u64("churn_mean_secs")?,
            rejoin_probability: get("rejoin_probability")?,
            connection_mean_secs: get_u64("connection_mean_secs")?,
            block_interval_secs: get_u64("block_interval_secs")?,
            tx_rate: get("tx_rate")?,
            compact_fraction: get("compact_fraction")?,
            laggard_fraction: get("laggard_fraction")?,
            permanent_fraction: get("permanent_fraction")?,
            duration_secs: get_u64("duration_secs")?,
            max_steps: get_u64("max_steps")?,
            fault,
        })
    }

    /// The [`WorldConfig`] this scenario describes.
    ///
    /// Node address managers use deliberately small tables
    /// ([`AddrManConfig::small`]): they reach the collision/eviction paths
    /// that big ones never touch in a bounded run.
    pub fn world_config(&self) -> WorldConfig {
        let node_cfg = NodeConfig {
            addrman: AddrManConfig::small(),
            resilience: ResilienceConfig {
                ban_on_reorg: self.fault == Some(Fault::BanReorgPeers),
                ..ResilienceConfig::off()
            },
            ..NodeConfig::bitcoin_core()
        };
        let churn = (self.churn_mean_secs > 0).then(|| ChurnConfig {
            mean_lifetime: SimDuration::from_secs(self.churn_mean_secs),
            rejoin_probability: self.rejoin_probability,
            mean_offline_gap: SimDuration::from_secs((self.churn_mean_secs / 4).max(1)),
        });
        WorldConfig {
            seed: self.seed,
            node_cfg,
            churn,
            n_reachable: self.n_reachable as usize,
            n_unreachable_full: self.n_unreachable_full as usize,
            n_phantoms: self.n_phantoms as usize,
            seed_reachable: self.seed_reachable as usize,
            seed_phantoms: self.seed_phantoms as usize,
            n_malicious: self.n_malicious as usize,
            block_interval: (self.block_interval_secs > 0)
                .then(|| SimDuration::from_secs(self.block_interval_secs)),
            tx_rate: self.tx_rate,
            compact_fraction: self.compact_fraction,
            laggard_fraction: self.laggard_fraction,
            permanent_fraction: self.permanent_fraction,
            connection_mean_lifetime: (self.connection_mean_secs > 0)
                .then(|| SimDuration::from_secs(self.connection_mean_secs)),
            instrument: Some(0),
            fault: self.fault.map(Fault::plane_config).unwrap_or_default(),
            ..WorldConfig::default()
        }
    }
}

/// Seeded scenario sampler. Same seed, same scenario stream.
#[derive(Debug)]
pub struct ScenarioGen {
    rng: SimRng,
}

impl ScenarioGen {
    /// A generator producing the deterministic stream for `seed`.
    pub fn new(seed: u64) -> ScenarioGen {
        let mut rng = SimRng::seed_from(seed);
        ScenarioGen {
            rng: rng.fork("scenario-gen"),
        }
    }

    /// Samples the next scenario, capping its event budget at `max_steps`.
    pub fn sample(&mut self, max_steps: u64) -> Scenario {
        let rng = &mut self.rng;
        let n_reachable = 4 + rng.below(45);
        Scenario {
            seed: rng.next_u64(),
            n_reachable,
            n_unreachable_full: rng.below(9),
            n_phantoms: rng.below(201),
            seed_reachable: (2 + rng.below(15)).min(n_reachable),
            seed_phantoms: rng.below(51),
            n_malicious: if rng.chance(0.25) {
                1 + rng.below(2)
            } else {
                0
            },
            churn_mean_secs: if rng.chance(0.5) {
                600 + rng.below(6_600)
            } else {
                0
            },
            rejoin_probability: rng.range_f64(0.0, 1.0),
            connection_mean_secs: if rng.chance(0.4) {
                300 + rng.below(3_300)
            } else {
                0
            },
            block_interval_secs: if rng.chance(0.7) {
                30 + rng.below(570)
            } else {
                0
            },
            tx_rate: if rng.chance(0.6) {
                rng.range_f64(0.01, 0.5)
            } else {
                0.0
            },
            compact_fraction: rng.range_f64(0.0, 1.0),
            laggard_fraction: rng.range_f64(0.0, 0.3),
            permanent_fraction: rng.range_f64(0.0, 1.0),
            duration_secs: 300 + rng.below(3_300),
            max_steps,
            fault: None,
        }
    }
}

/// The verdict of [`check_scenario`]: empty `failures` means the scenario
/// passed every harness.
#[derive(Clone, Debug)]
pub struct ScenarioVerdict {
    /// The scenario that was checked.
    pub scenario: Scenario,
    /// Human-readable failure descriptions, empty on success.
    pub failures: Vec<String>,
    /// Events processed by the primary (checked) run.
    pub events_processed: u64,
    /// Invariant checks performed by the primary run.
    pub checks: u64,
}

impl ScenarioVerdict {
    /// Whether every harness passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// How many retained violations a verdict quotes before truncating.
const QUOTED_VIOLATIONS: usize = 3;

/// After the bounded run of a fault scenario, stop the fault plane and
/// give the survivors a grace window to collapse back onto one chain
/// ([`World::check_convergence`] records a `chain_converged` violation on
/// timeout when a checker is attached). Only fault scenarios settle: the
/// convergence invariant promises recovery *once faults end*, and clean
/// runs keep their historical digests and cost. Both runs of a scenario
/// settle identically so their digests stay comparable.
fn settle(world: &mut World, scenario: &Scenario) {
    if scenario.fault.is_none() {
        return;
    }
    world.end_faults();
    world.check_convergence(SimDuration::from_secs(scenario.duration_secs.max(1_800)));
}

/// Builds a world for `scenario`, attaches `ins`, installs `checker` and
/// runs it — the only place a scenario becomes a world, so the two sides
/// of the thread differential cannot drift apart. Returns the finished
/// world (its checker holds the verdict) and the events its bounded run
/// processed (settling comes on top).
fn run_world(scenario: &Scenario, ins: &Instruments, checker: Checker) -> (World, u64) {
    let mut world = World::new(scenario.world_config());
    world.attach(ins);
    world.checker = checker;
    if let Some(fault) = scenario.fault {
        world.inject_fault(fault);
    }
    let deadline = SimTime::ZERO + SimDuration::from_secs(scenario.duration_secs);
    let events_processed = world.run_steps(scenario.max_steps, deadline);
    settle(&mut world, scenario);
    (world, events_processed)
}

/// A run's observable outcome, serialized for differential comparison:
/// event count, final clock, chain state, sync fraction, churn history
/// length, the sorted relay delays, and the full metrics tree.
fn world_digest(world: &World) -> String {
    let mut delays = world.relay_delays();
    delays.sort_unstable();
    let delays: Vec<String> = delays
        .iter()
        .map(|(is_block, d)| format!("{}{d}", if *is_block { 'B' } else { 'T' }))
        .collect();
    Value::object()
        .with("events", world.events_processed())
        .with("now_ns", world.now().as_nanos())
        .with("best_height", world.best_height())
        .with("sync_fraction", world.sync_fraction())
        .with("churn_events", world.churn_events.len() as u64)
        .with("relay_delays", delays.join(","))
        .with("metrics", world.metrics.to_json())
        .to_string()
}

/// Runs `scenario` through the full harness battery (see the module docs)
/// and reports every failure found.
pub fn check_scenario(scenario: &Scenario) -> ScenarioVerdict {
    let mut failures: Vec<String> = Vec::new();

    // Primary run: checker and tracer attached. Observers are read-only,
    // so its digest must match the bare run below.
    let ins = Instruments {
        tracer: Tracer::enabled(DEFAULT_TRACE_CAP),
        ..Instruments::default()
    };
    let (world, events_processed) = run_world(scenario, &ins, Checker::enabled());
    let (checker, tracer) = (&world.checker, &ins.tracer);

    // 1. Per-event invariants accumulated by the checker (including the
    // post-fault `chain_converged` recovery check recorded by `settle`).
    if !checker.ok() {
        let retained = checker.violations();
        for v in retained.iter().take(QUOTED_VIOLATIONS) {
            failures.push(format!("invariant: {v}"));
        }
        let total = checker.violation_count();
        if total > QUOTED_VIOLATIONS as u64 {
            failures.push(format!("invariant: ... {total} violations in total"));
        }
    }

    // Final addrman sweep: every online node's tables, not just the ones
    // the last events touched.
    for id in world.online_ids() {
        if let Some(node) = world.node(id) {
            if let Err(msg) = node.addrman.try_check_invariants() {
                failures.push(format!("post-run addrman (node {}): {msg}", id.0));
            }
        }
    }

    // 2. Trace replay: the relay histogram reconstructed from the event
    // log must equal the live one exactly. Only meaningful when the ring
    // kept every event and no invariant-violating fault skews the live
    // side; benign fault-plane variants (drops, delays, stalls, flaps)
    // act before delivery, so send-side relay accounting stays exact.
    if scenario.fault.is_none_or(|f| !f.violates_invariants()) {
        if let Some(log) = tracer.take() {
            if log.relay.dropped() == 0 {
                let events: Vec<_> = log.relay.iter().cloned().collect();
                let replayed =
                    replay_relay_histogram(&events, 0, FRESH_RELAY_WINDOW, &DEFAULT_BUCKETS);
                let live = world
                    .metrics
                    .histogram(metric::RELAY_DELAY)
                    .expect("world registers its relay histogram");
                if replayed != live {
                    failures.push(format!(
                        "trace replay: replayed relay histogram (count {}, sum {:.3}) != live \
                         (count {}, sum {:.3})",
                        replayed.count(),
                        replayed.sum(),
                        live.count(),
                        live.sum()
                    ));
                }
            }
        }
    }

    // 3. Thread invariance: a bare run on a fresh thread must produce the
    // same world.
    let digest = world_digest(&world);
    let threaded = {
        let scenario = scenario.clone();
        std::thread::spawn(move || {
            world_digest(&run_world(&scenario, &Instruments::default(), Checker::disabled()).0)
        })
        .join()
        .expect("digest thread panicked")
    };
    if threaded != digest {
        failures.push("thread invariance: spawned-thread digest differs".into());
    }

    ScenarioVerdict {
        scenario: scenario.clone(),
        failures,
        events_processed,
        checks: checker.checks(),
    }
}

/// Greedily shrinks a failing scenario: each transform simplifies one knob,
/// and is kept only if the scenario still fails. Runs to a fixpoint or
/// until `budget` re-checks. Returns the minimal scenario and the number
/// of re-checks spent.
pub fn shrink(scenario: &Scenario, budget: usize) -> (Scenario, usize) {
    type Transform = fn(&Scenario) -> Option<Scenario>;
    let transforms: &[(&str, Transform)] = &[
        ("zero phantoms", |s| {
            (s.n_phantoms > 0 || s.seed_phantoms > 0).then(|| Scenario {
                n_phantoms: 0,
                seed_phantoms: 0,
                ..s.clone()
            })
        }),
        ("zero unreachable", |s| {
            (s.n_unreachable_full > 0).then(|| Scenario {
                n_unreachable_full: 0,
                ..s.clone()
            })
        }),
        ("zero malicious", |s| {
            (s.n_malicious > 0).then(|| Scenario {
                n_malicious: 0,
                ..s.clone()
            })
        }),
        ("zero churn", |s| {
            (s.churn_mean_secs > 0).then(|| Scenario {
                churn_mean_secs: 0,
                ..s.clone()
            })
        }),
        ("zero link failures", |s| {
            (s.connection_mean_secs > 0).then(|| Scenario {
                connection_mean_secs: 0,
                ..s.clone()
            })
        }),
        ("zero tx workload", |s| {
            (s.tx_rate > 0.0).then(|| Scenario {
                tx_rate: 0.0,
                ..s.clone()
            })
        }),
        ("zero mining", |s| {
            (s.block_interval_secs > 0).then(|| Scenario {
                block_interval_secs: 0,
                ..s.clone()
            })
        }),
        ("zero laggards", |s| {
            (s.laggard_fraction > 0.0).then(|| Scenario {
                laggard_fraction: 0.0,
                ..s.clone()
            })
        }),
        ("halve population", |s| {
            (s.n_reachable > 4).then(|| {
                let n = (s.n_reachable / 2).max(4);
                Scenario {
                    n_reachable: n,
                    seed_reachable: s.seed_reachable.min(n),
                    n_malicious: s.n_malicious.min(n / 2),
                    ..s.clone()
                }
            })
        }),
        ("halve duration", |s| {
            (s.duration_secs > 60).then(|| Scenario {
                duration_secs: (s.duration_secs / 2).max(60),
                ..s.clone()
            })
        }),
        ("halve steps", |s| {
            (s.max_steps > 1_000).then(|| Scenario {
                max_steps: (s.max_steps / 2).max(1_000),
                ..s.clone()
            })
        }),
    ];

    let mut current = scenario.clone();
    let mut spent = 0usize;
    let mut progressed = true;
    while progressed && spent < budget {
        progressed = false;
        for (_, transform) in transforms {
            if spent >= budget {
                break;
            }
            let Some(candidate) = transform(&current) else {
                continue;
            };
            spent += 1;
            if !check_scenario(&candidate).passed() {
                current = candidate;
                progressed = true;
            }
        }
    }
    (current, spent)
}

/// [`run_fuzz`] parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Generator seed.
    pub seed: u64,
    /// Scenarios to sample and check.
    pub runs: u32,
    /// Per-run event budget.
    pub max_steps: u64,
    /// Fault armed in every sampled scenario (harness self-test).
    pub fault: Option<Fault>,
    /// Where a shrunk repro file is written on failure, if anywhere.
    pub out: Option<std::path::PathBuf>,
    /// Shrinker re-check budget.
    pub shrink_budget: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            runs: 50,
            max_steps: 50_000,
            fault: None,
            out: None,
            shrink_budget: 48,
        }
    }
}

/// A fuzzing campaign's failure, if one was found.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Zero-based index of the failing run.
    pub run_index: u32,
    /// The originally sampled failing scenario.
    pub scenario: Scenario,
    /// The shrunk minimal scenario.
    pub shrunk: Scenario,
    /// Failures reported for the shrunk scenario.
    pub failures: Vec<String>,
    /// Where the repro file was written, if requested.
    pub repro_path: Option<std::path::PathBuf>,
    /// Whether replaying the written repro file reproduced the failure.
    pub repro_confirmed: Option<bool>,
}

/// The outcome of a fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Scenarios fully checked (including the failing one, if any).
    pub runs_completed: u32,
    /// Total events processed across all primary runs.
    pub events_processed: u64,
    /// Total invariant checks performed across all primary runs.
    pub checks: u64,
    /// The first failure found; fuzzing stops at the first failure.
    pub failure: Option<FuzzFailure>,
}

impl FuzzOutcome {
    /// Whether every scenario passed.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs a fuzzing campaign: samples `cfg.runs` scenarios, checks each, and
/// on the first failure shrinks it, optionally writes a repro file, and
/// replays that file to confirm it still fails.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    let mut gen = ScenarioGen::new(cfg.seed);
    let mut outcome = FuzzOutcome {
        runs_completed: 0,
        events_processed: 0,
        checks: 0,
        failure: None,
    };
    for run_index in 0..cfg.runs {
        let mut scenario = gen.sample(cfg.max_steps);
        scenario.fault = cfg.fault;
        let verdict = check_scenario(&scenario);
        outcome.runs_completed += 1;
        outcome.events_processed += verdict.events_processed;
        outcome.checks += verdict.checks;
        if verdict.passed() {
            continue;
        }
        let (shrunk, _) = shrink(&scenario, cfg.shrink_budget);
        let shrunk_verdict = check_scenario(&shrunk);
        // The shrunk scenario must still fail (shrink only keeps failing
        // candidates); quote its failures, falling back to the original's.
        let failures = if shrunk_verdict.passed() {
            verdict.failures
        } else {
            shrunk_verdict.failures
        };
        let mut failure = FuzzFailure {
            run_index,
            scenario,
            shrunk: shrunk.clone(),
            failures,
            repro_path: None,
            repro_confirmed: None,
        };
        if let Some(path) = &cfg.out {
            match std::fs::write(path, shrunk.to_json().to_string_pretty() + "\n") {
                Ok(()) => {
                    failure.repro_path = Some(path.clone());
                    failure.repro_confirmed = Some(replay_file(path).is_ok_and(|v| !v.passed()));
                }
                Err(e) => failure.failures.push(format!(
                    "could not write repro file {}: {e}",
                    path.display()
                )),
            }
        }
        outcome.failure = Some(failure);
        break;
    }
    outcome
}

/// Reads a repro file and re-runs its scenario as a named case.
pub fn replay_file(path: &Path) -> Result<ScenarioVerdict, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let scenario =
        Scenario::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(check_scenario(&scenario))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsync_json::parse;

    fn tiny() -> Scenario {
        Scenario {
            seed: 7,
            n_reachable: 6,
            n_unreachable_full: 1,
            n_phantoms: 10,
            seed_reachable: 4,
            seed_phantoms: 5,
            n_malicious: 0,
            churn_mean_secs: 900,
            rejoin_probability: 0.5,
            connection_mean_secs: 0,
            block_interval_secs: 120,
            tx_rate: 0.05,
            compact_fraction: 0.7,
            laggard_fraction: 0.0,
            permanent_fraction: 0.5,
            duration_secs: 300,
            max_steps: 4_000,
            fault: None,
        }
    }

    #[test]
    fn scenario_json_round_trips() {
        let mut s = tiny();
        s.fault = Some(Fault::DuplicateDeliveries);
        let text = s.to_json().to_string_pretty();
        let parsed = Scenario::from_json_str(&text).expect("round trip");
        assert_eq!(parsed, s);
    }

    /// Sampled seeds use all 64 bits; a parser that goes through `f64`
    /// rounds nearly every one of them to a different world.
    #[test]
    fn generated_scenarios_round_trip() {
        for s in [1, 2, 3, 42, u64::MAX] {
            let scenario = ScenarioGen::new(s).sample(20_000);
            let text = scenario.to_json().to_string_pretty();
            let parsed = Scenario::from_json_str(&text).expect("round trip");
            assert_eq!(parsed, scenario, "generator seed {s}");
        }
    }

    #[test]
    fn every_fault_code_round_trips() {
        for f in Fault::ALL {
            let mut s = tiny();
            s.fault = Some(f);
            let text = s.to_json().to_string_pretty();
            let parsed = Scenario::from_json_str(&text).expect("round trip");
            assert_eq!(parsed.fault, Some(f), "{}", f.name());
        }
        let mut s = tiny();
        s.fault = Some(Fault::DuplicateDeliveries);
        let bogus = s
            .to_json()
            .to_string_pretty()
            .replace("\"fault\": 1", "\"fault\": 99");
        assert!(Scenario::from_json_str(&bogus).is_err(), "unknown code");
    }

    #[test]
    fn clean_repro_file_is_at_most_20_lines() {
        let mut s = tiny();
        assert!(s.to_json().to_string_pretty().lines().count() <= 20);
        s.fault = Some(Fault::DuplicateDeliveries);
        assert!(s.to_json().to_string_pretty().lines().count() <= 20);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Scenario::from_json_str("").is_err());
        assert!(Scenario::from_json_str("{}").is_err(), "missing fields");
        assert!(Scenario::from_json_str("{\"seed\": \"x\"}").is_err());
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        let ok = parse("{ \"a\": 1.5 ,\n \"b\": -2e3 }").expect("parses");
        assert_eq!(ok, Value::object().with("a", 1.5).with("b", -2000.0));
        // Integer members stay integers: no fraction, exponent, sign,
        // 65th bit or nesting.
        let text = tiny().to_json().to_string_pretty();
        for bad in ["7.0", "7e0", "-7", "18446744073709551616", "{\"b\": 1}"] {
            let edited = text.replacen("\"seed\": 7", &format!("\"seed\": {bad}"), 1);
            assert_ne!(edited, text);
            assert!(Scenario::from_json_str(&edited).is_err(), "seed {bad}");
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = ScenarioGen::new(42);
        let mut b = ScenarioGen::new(42);
        for _ in 0..5 {
            assert_eq!(a.sample(1000), b.sample(1000));
        }
        assert_ne!(
            ScenarioGen::new(43).sample(1000),
            ScenarioGen::new(42).sample(1000),
            "different seeds must give different scenarios"
        );
    }
}
