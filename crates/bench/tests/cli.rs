//! The `repro` binary's argument surface, driven as a subprocess.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn list_prints_the_registry_in_report_order() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
        .collect();
    assert_eq!(
        names,
        [
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
            "forkstress"
        ]
    );
    assert!(stdout.contains("Fig. 10 block relay delay; Fig. 11 tx relay delay"));
}

/// `paper` was retired (it silently meant `scaled` for ten experiments);
/// asking for it must fail loudly and name what exists.
#[test]
fn retired_paper_scale_is_an_error_listing_the_valid_scales() {
    let out = repro(&["--scale", "paper", "rounds"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--scale must be one of: quick, scaled, full"),
        "{stderr}"
    );
}
