//! Golden-snapshot tests: every registered experiment's JSON report at
//! `--scale scaled`, seed 2021 (the `repro` defaults), compared byte-exact
//! against `tests/golden/<artifact>.json`.
//!
//! The snapshots pin the full report envelope — result *and* metrics — so
//! any behavioral drift in the simulator shows up as a diff, not as a
//! silently shifted figure. After an intentional change, regenerate with:
//!
//! ```text
//! BLESS=1 cargo test --release --test golden_reports -- --ignored
//! ```
//!
//! and review the diff like any other code change. The tests are
//! `#[ignore]`d because scaled worlds take minutes; CI's release-mode
//! slow-tests job runs them.

use bitsync_core::experiments::{ExperimentRunner, RunnerConfig, Scale, REGISTRY};
use bitsync_core::sim::time::SimDuration;
use bitsync_json::{first_difference, parse};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn check_or_bless(name: &str) {
    let runner = ExperimentRunner::new(RunnerConfig {
        scale: Scale::Scaled,
        seed: 2021,
        threads: 1,
        trace: false,
        sample_interval: None,
    });
    let reports = runner
        .run(&[name.to_string()])
        .unwrap_or_else(|e| panic!("running {name}: {e}"));
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    let actual = report.json.to_string_pretty();
    let path = golden_dir().join(format!("{}.json", report.artifact));
    if std::env::var_os("BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with BLESS=1 (see file docs)",
            path.display()
        )
    });
    if actual != expected {
        let drift = match (parse(&actual), parse(&expected)) {
            (Ok(a), Ok(e)) => first_difference(&a, &e)
                .unwrap_or_else(|| "no value: the same document, printed differently".into()),
            (a, e) => format!("an unparseable side: {:?} / {:?}", a.err(), e.err()),
        };
        panic!(
            "{name}: report drifted from {} at {drift} (this run first); if intentional, regenerate with BLESS=1",
            path.display()
        );
    }
}

// One #[ignore]d test per registered experiment (kept in sync by
// `golden_directory_matches_registry` below), so CI can parallelize them
// and a local `--ignored golden_rounds`-style run checks one cheaply.
macro_rules! golden {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            #[ignore = "scaled worlds take minutes; run with --ignored (CI slow-tests)"]
            fn $test() {
                check_or_bless($name);
            }
        )*
    };
}

golden! {
    golden_rounds => "rounds",
    golden_fig6 => "fig6",
    golden_fig7 => "fig7",
    golden_relay => "relay",
    golden_census => "census",
    golden_fig1 => "fig1",
    golden_resync => "resync",
    golden_partition => "partition",
    golden_ablation => "ablation",
    golden_resilience => "resilience",
    golden_forkstress => "forkstress",
}

/// Golden snapshot of the fig1 root-cause attribution table: sample the
/// scaled fig1 run on the default 600 s cadence, decompose the sync-health
/// deltas, and pin the rendered table byte-exact. A `.txt` artifact, so it
/// is invisible to `golden_directory_matches_registry` (which tracks the
/// per-experiment `.json` reports). Regenerate via the same BLESS flow.
#[test]
#[ignore = "scaled worlds take minutes; run with --ignored (CI slow-tests)"]
fn golden_fig1_attribution() {
    let runner = ExperimentRunner::new(RunnerConfig {
        scale: Scale::Scaled,
        seed: 2021,
        threads: 1,
        trace: false,
        sample_interval: Some(SimDuration::from_secs(600)),
    });
    let reports = runner.run(&["fig1".to_string()]).expect("fig1 resolves");
    assert_eq!(reports.len(), 1);
    let log = reports[0].timeseries.as_ref().expect("sampler captured");
    let attribution = bitsync_core::analysis::attribute(&log.rows);
    assert!(
        !attribution.intervals.is_empty(),
        "scaled fig1 run yielded no attribution intervals"
    );
    let actual = bitsync_core::report::render_rootcause("fig1", &attribution);
    let path = golden_dir().join("fig1_attribution.txt");
    if std::env::var_os("BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with BLESS=1 (see file docs)",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "fig1 attribution table drifted from {}; if intentional, regenerate with BLESS=1",
        path.display()
    );
}

/// The golden! list above must cover exactly the registry.
#[test]
fn golden_test_list_covers_registry() {
    let mut expected: Vec<&str> = REGISTRY.iter().map(|exp| exp.name).collect();
    expected.sort_unstable();
    let mut listed = vec![
        "rounds",
        "fig6",
        "fig7",
        "relay",
        "census",
        "fig1",
        "resync",
        "partition",
        "ablation",
        "resilience",
        "forkstress",
    ];
    listed.sort_unstable();
    assert_eq!(listed, expected, "golden! list out of sync with REGISTRY");
}

/// The registry and the snapshot directory must stay in sync: one golden
/// file per registered artifact, no strays. Cheap, so not ignored.
#[test]
fn golden_directory_matches_registry() {
    let dir = golden_dir();
    let mut expected: Vec<String> = REGISTRY
        .iter()
        .map(|exp| format!("{}.json", exp.artifact))
        .collect();
    expected.sort();
    let mut present: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing {} ({e}); run the BLESS flow", dir.display()))
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.ends_with(".json").then_some(name)
        })
        .collect();
    present.sort();
    assert_eq!(present, expected, "tests/golden out of sync with REGISTRY");
}
