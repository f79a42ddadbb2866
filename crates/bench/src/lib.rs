#![warn(missing_docs)]

//! `bitsync-bench` — the reproduction harness. The rendering helpers live
//! in [`bitsync_core::report`] next to the experiment registry; this crate
//! re-exports them for the `repro` binary and the Criterion benches.
//!
//! Run `cargo run --release -p bitsync-bench --bin repro -- all` to
//! regenerate every artifact; see EXPERIMENTS.md for paper-vs-measured.

pub use bitsync_core::report::*;

#[cfg(test)]
mod tests {
    use bitsync_core::experiments::{ExperimentRunner, RunnerConfig, Scale};

    #[test]
    fn reexported_renderers_are_callable() {
        let r = bitsync_core::experiments::rounds::run(3, 15, &Default::default());
        assert!(super::render_rounds(&r).contains("8^5"));
    }

    #[test]
    fn runner_reports_render_through_reexports() {
        let runner = ExperimentRunner::new(RunnerConfig {
            scale: Scale::Quick,
            seed: 7,
            threads: 1,
            trace_cap: None,
            sample_interval: None,
        });
        let reports = runner.run(&["rounds".to_string()]).unwrap();
        assert!(reports[0].rendered.contains("Propagation rounds"));
    }
}
