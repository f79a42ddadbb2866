//! Rendering helpers that turn experiment results into the paper's tables
//! and figures. Each experiment's
//! [`registry`](crate::experiments::registry) row calls its renderer after
//! the run; the text lands on `repro`'s stdout and in the bundle's
//! `report.txt`.

use crate::experiments::ablation::AblationResult;
use crate::experiments::census::CensusExperimentResult;
use crate::experiments::forkstress::ForkStressResult;
use crate::experiments::partition::PartitionResult;
use crate::experiments::relay::RelayResult;
use crate::experiments::resilience::ResilienceResult;
use crate::experiments::resync::ResyncResult;
use crate::experiments::rounds::RoundsResult;
use crate::experiments::stability::StabilityResult;
use crate::experiments::success_rate::SuccessRateResult;
use crate::experiments::sync_kde::SyncComparison;
use bitsync_analysis::rootcause::{RootCauseReport, CAUSES};
use std::fmt::Write as _;

/// Renders Figure 1: the synchronization KDE comparison.
pub fn render_fig1(cmp: &SyncComparison) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 1 — Bitcoin network synchronization, 2019 vs 2020"
    )
    .unwrap();
    writeln!(
        out,
        "  paper:    2019 mean 72.02% median 80.38% | 2020 mean 61.91% median 65.47%"
    )
    .unwrap();
    writeln!(
        out,
        "  measured: 2019 mean {:.2}% median {:.2}% | 2020 mean {:.2}% median {:.2}%",
        cmp.y2019.summary.mean * 100.0,
        cmp.y2019.summary.median * 100.0,
        cmp.y2020.summary.mean * 100.0,
        cmp.y2020.summary.median * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "  mean drop 2019→2020: {:.2} points (paper: 10.11)",
        cmp.mean_drop() * 100.0
    )
    .unwrap();
    for yr in [&cmp.y2019, &cmp.y2020] {
        if let Some(kde) = yr.kde() {
            let densities: Vec<f64> = kde.grid(0.3, 1.0, 64).into_iter().map(|(_, d)| d).collect();
            writeln!(
                out,
                "  {:?} KDE 30%→100%: {}",
                yr.year,
                crate::analysis::sparkline(&densities)
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "  synchronized departures / 10 min: 2019 {:.2}, 2020 {:.2} (ratio {:.2}; paper 3.9 → 7.6, ratio 1.95)",
        cmp.y2019.sync_departures_per_10min,
        cmp.y2020.sync_departures_per_10min,
        cmp.departure_ratio()
    )
    .unwrap();
    out
}

/// Renders Figure 3(a–d): the feed series.
pub fn render_fig3(census: &CensusExperimentResult) -> String {
    let d = &census.campaign.days;
    let n = d.len().max(1) as f64;
    let mean = |f: &dyn Fn(&crate::crawler::DailyRecord) -> usize| {
        d.iter().map(|r| f(r) as f64).sum::<f64>() / n
    };
    let mut out = String::new();
    writeln!(out, "Figure 3 — address feeds (per-experiment means)").unwrap();
    writeln!(
        out,
        "  (a) bitnodes {:.0} (paper 10,114) | dns {:.0} (6,637) | common {:.0} (6,078)",
        mean(&|r| r.bitnodes),
        mean(&|r| r.dns),
        mean(&|r| r.common)
    )
    .unwrap();
    writeln!(
        out,
        "  (b) excluded: bitnodes {:.0} (439) | dns {:.0} (342) | common {:.0} (329)",
        mean(&|r| r.bitnodes_excluded),
        mean(&|r| r.dns_excluded),
        mean(&|r| r.common_excluded)
    )
    .unwrap();
    writeln!(
        out,
        "  (c) connected {:.0} per experiment (paper 8,270); unique over campaign {} (28,781)",
        mean(&|r| r.connected),
        census.campaign.all_connected.len()
    )
    .unwrap();
    writeln!(
        out,
        "  (d) connected but missing from Bitnodes: {:.0} (paper 404)",
        mean(&|r| r.dns_only_connected)
    )
    .unwrap();
    out
}

/// Renders Figure 4: unreachable addresses per experiment and cumulative.
pub fn render_fig4(census: &CensusExperimentResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 4 — unreachable addresses (day: per-experiment / cumulative)"
    )
    .unwrap();
    for r in census.campaign.days.iter().step_by(5) {
        writeln!(
            out,
            "  day {:>2}: {:>8} / {:>8}",
            r.day, r.unreachable_today, r.unreachable_cumulative
        )
        .unwrap();
    }
    let last = census.campaign.days.last().unwrap();
    writeln!(
        out,
        "  cumulative unique: {} (paper 694,696 at full scale); per-experiment ≈{} (paper ≈195K)",
        last.unreachable_cumulative,
        census
            .campaign
            .days
            .iter()
            .map(|r| r.unreachable_today)
            .sum::<usize>()
            / census.campaign.days.len()
    )
    .unwrap();
    writeln!(
        out,
        "  unreachable:connected ratio {:.1}x (paper ≈24x)",
        census.unreachable_ratio()
    )
    .unwrap();
    out
}

/// Renders Figure 5: responsive addresses.
pub fn render_fig5(census: &CensusExperimentResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 5 — responsive addresses (day: per-experiment / cumulative)"
    )
    .unwrap();
    for r in census.campaign.days.iter().step_by(5) {
        writeln!(
            out,
            "  day {:>2}: {:>8} / {:>8}",
            r.day, r.responsive_today, r.responsive_cumulative
        )
        .unwrap();
    }
    writeln!(
        out,
        "  probing started day {} (paper: two-week delay reproduced)",
        census.campaign.probe_start_day
    )
    .unwrap();
    writeln!(
        out,
        "  responsive fraction of unreachable: {:.1}% (paper 23.5%)",
        census.responsive_fraction() * 100.0
    )
    .unwrap();
    out
}

/// Renders Table I: top-20 AS hosting per class.
pub fn render_table1(census: &CensusExperimentResult) -> String {
    let rep = &census.as_report;
    let mut out = String::new();
    writeln!(
        out,
        "Table I — top 20 ASes hosting reachable / unreachable / responsive nodes"
    )
    .unwrap();
    writeln!(out, "  idx |   ASN  %Rb   |   ASN  %Urb  |   ASN  %Resp").unwrap();
    for i in 0..20 {
        let cell = |v: &Vec<(u32, f64)>| {
            v.get(i)
                .map(|(a, p)| format!("{:>6} {:>5.2}", a, p))
                .unwrap_or_else(|| "     -     -".into())
        };
        writeln!(
            out,
            "  {:>3} | {} | {} | {}",
            i + 1,
            cell(&rep.top_reachable),
            cell(&rep.top_unreachable),
            cell(&rep.top_responsive)
        )
        .unwrap();
    }
    writeln!(
        out,
        "  distinct ASes: {} / {} / {} (paper 2,000 / 8,494 / 4,453)",
        rep.distinct.0, rep.distinct.1, rep.distinct.2
    )
    .unwrap();
    writeln!(
        out,
        "  ASes to host 50%: {} / {} / {} (paper 25 / 36 / 24)",
        rep.to_cover_half.0, rep.to_cover_half.1, rep.to_cover_half.2
    )
    .unwrap();
    out
}

/// Renders Figure 6: connection stability.
pub fn render_fig6(r: &StabilityResult) -> String {
    let mut out = String::new();
    writeln!(out, "Figure 6 — outgoing-connection stability over 260 s").unwrap();
    writeln!(
        out,
        "  mean {:.2} (paper 6.67) | range {}–{} (paper 2–10) | below 8 for {:.0}% of samples (paper ≈60%)",
        r.summary.mean,
        r.min,
        r.max,
        r.below_eight_fraction * 100.0
    )
    .unwrap();
    let series: Vec<f64> = r.series.iter().map(|&c| c as f64).collect();
    writeln!(
        out,
        "  260 s series: {}",
        crate::analysis::sparkline_fit(&series, 65)
    )
    .unwrap();
    out
}

/// Renders Figure 7: connection-attempt success rate.
pub fn render_fig7(r: &SuccessRateResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 7 — outgoing-connection success rate (5-minute runs)"
    )
    .unwrap();
    for (i, run) in r.runs.iter().enumerate() {
        writeln!(
            out,
            "  run {}: {:>3} attempts, {:>2} successes ({:.1}%)",
            i + 1,
            run.attempts,
            run.successes,
            run.rate() * 100.0
        )
        .unwrap();
    }
    writeln!(
        out,
        "  mean success rate {:.1}% (paper 11.2%); worst {:.1}% (paper 5.8%)",
        r.mean_rate() * 100.0,
        r.worst_rate() * 100.0
    )
    .unwrap();
    out
}

/// Renders Figure 8: malicious ADDR flooders.
pub fn render_fig8(census: &CensusExperimentResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 8 — detected ADDR flooders: {} (paper 73 at full scale)",
        census.malicious.len()
    )
    .unwrap();
    for (i, (addr, total)) in census.malicious.iter().enumerate().take(10) {
        writeln!(
            out,
            "  #{:<2} {addr}  {total} unreachable addrs sent",
            i + 1
        )
        .unwrap();
    }
    let over_100k = census
        .malicious
        .iter()
        .filter(|(_, t)| *t > 100_000)
        .count();
    writeln!(
        out,
        "  senders over 100K addrs: {over_100k} (paper 8); max {} (paper >400K)",
        census.malicious.first().map(|(_, t)| *t).unwrap_or(0)
    )
    .unwrap();
    let in_3320 = census
        .network
        .reachable
        .iter()
        .filter(|n| n.malicious && n.asn == 3320)
        .count();
    writeln!(
        out,
        "  flooders in AS3320: {in_3320}/{} (paper 43/73 = 59%)",
        census.malicious.len()
    )
    .unwrap();
    out
}

/// Renders Figures 10 and 11: relay delays.
pub fn render_fig10_11(r: &RelayResult) -> String {
    let mut out = String::new();
    if let Some(b) = r.block_summary() {
        writeln!(
            out,
            "Figure 10 — block relay delay to last connection: mean {:.2}s min {:.0}s max {:.0}s over {} blocks (paper: mean 1.39s, 0–17s)",
            b.mean, b.min, b.max, b.n
        )
        .unwrap();
    }
    if let Some(t) = r.tx_summary() {
        writeln!(
            out,
            "Figure 11 — tx relay delay to last connection:    mean {:.2}s min {:.0}s max {:.0}s over {} txs (paper: mean 0.45s, 0–8s)",
            t.mean, t.min, t.max, t.n
        )
        .unwrap();
    }
    out
}

/// Renders Figures 12 and 13: the churn matrix statistics.
pub fn render_fig12_13(census: &CensusExperimentResult) -> String {
    let m = &census.matrix;
    let mut out = String::new();
    writeln!(
        out,
        "Figure 12 — churn binary matrix ({} addresses × {} samples)",
        m.rows, m.cols
    )
    .unwrap();
    writeln!(
        out,
        "  always-present nodes: {} (paper 3,034 at full scale); rejoining rows: {}",
        m.always_present(),
        m.rejoining_rows()
    )
    .unwrap();
    writeln!(
        out,
        "  mean network lifetime: {:.1} days (paper 16.6 — the basis of the 17-day tried horizon)",
        m.mean_lifetime_days()
    )
    .unwrap();
    let deps = m.departures();
    let arrs = m.arrivals();
    writeln!(out, "Figure 13 — daily arrivals vs departures").unwrap();
    for i in (0..deps.len()).step_by(5) {
        writeln!(out, "  day {:>2}: -{} +{}", i + 1, deps[i], arrs[i]).unwrap();
    }
    writeln!(
        out,
        "  daily departure fraction {:.1}% (paper 8.6% ≈ 708 nodes)",
        m.daily_departure_fraction() * 100.0
    )
    .unwrap();
    out
}

/// Renders the §IV-B ADDR-composition split.
pub fn render_addr_mix(census: &CensusExperimentResult) -> String {
    let f = census.campaign.reachable_addr_fraction();
    format!(
        "ADDR composition — reachable {:.1}% / unreachable {:.1}% (paper 14.9% / 85.1%)\n",
        f * 100.0,
        (1.0 - f) * 100.0
    )
}

/// Renders every census artifact — Figures 3, 4, 5, 8, 12, 13, Table I and
/// the ADDR mix — as one report.
pub fn render_census(census: &CensusExperimentResult) -> String {
    [
        render_fig3(census),
        render_fig4(census),
        render_fig5(census),
        render_table1(census),
        render_fig8(census),
        render_fig12_13(census),
        render_addr_mix(census),
    ]
    .join("\n")
}

/// Renders the restart experiment.
pub fn render_resync(r: &ResyncResult) -> String {
    let mut out = String::new();
    writeln!(out, "Restart resynchronization (§IV-D)").unwrap();
    let fmt = |v: Option<u64>| v.map(|s| format!("{s}s")).unwrap_or_else(|| "never".into());
    writeln!(
        out,
        "  first connection after {}; mechanical tip catch-up after {}; relay-ready (incl. modeled download debt) after {}",
        fmt(r.first_connection_secs),
        fmt(r.tip_caught_up_secs),
        fmt(r.relay_ready_secs)
    )
    .unwrap();
    writeln!(
        out,
        "  paper: 11 min 14 s (674 s) on the real chain; the modeled debt draws from that distribution"
    )
    .unwrap();
    out
}

/// Renders the propagation-rounds analysis.
pub fn render_rounds(r: &RoundsResult) -> String {
    let mut out = String::new();
    writeln!(out, "Propagation rounds (§IV-B)").unwrap();
    writeln!(
        out,
        "  outdegree 8 → {} rounds (paper 5, 8^5 > 10K); outdegree 2 → {} rounds (paper 14)",
        r.rounds_at_8, r.rounds_at_2
    )
    .unwrap();
    writeln!(
        out,
        "  effective outdegree at 11.2% success: {:.2} → {} rounds",
        r.effective_outdegree, r.rounds_at_effective
    )
    .unwrap();
    writeln!(
        out,
        "  simulated full coverage of {} nodes: {:?}s after mining",
        r.sim_nodes, r.sim_full_coverage_secs
    )
    .unwrap();
    out
}

/// Renders the §IV-A1 partition-attack evaluation.
pub fn render_partition(r: &PartitionResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "§IV-A1 routing attack — hijack evaluation on the live topology"
    )
    .unwrap();
    writeln!(
        out,
        "  hijacked {} ASes isolating {} reachable nodes ({:.0}%; paper: 24 ASes → 50%)",
        r.hijacked_asns.len(),
        r.isolated_nodes,
        r.isolated_fraction * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "  sync before {:.0}% → during attack {:.0}% → after healing {:.0}% ({} blocks mined majority-side)",
        r.sync_before * 100.0,
        r.sync_during * 100.0,
        r.sync_after * 100.0,
        r.blocks_during
    )
    .unwrap();
    out
}

/// Renders the §V ablation table.
pub fn render_ablation(r: &AblationResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "§V ablation — proposed Bitcoin Core refinements under 2020 churn"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<24} {:>9} {:>10} {:>12} {:>8}",
        "arm", "success%", "outdegree", "blk-relay(s)", "sync%"
    )
    .unwrap();
    for arm in &r.arms {
        writeln!(
            out,
            "  {:<24} {:>8.1} {:>10.2} {:>12} {:>7.1}",
            arm.arm.label(),
            arm.connection_success_rate * 100.0,
            arm.mean_outdegree,
            arm.mean_block_relay_secs
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".into()),
            arm.mean_sync_fraction * 100.0
        )
        .unwrap();
    }
    out
}

/// Renders the resilience sweep: fault intensity × countermeasures, with
/// relay-delay deltas against the §IV baseline (intensity 0, off).
pub fn render_resilience(r: &ResilienceResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "resilience — fault-plane intensity × Core countermeasures"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<9} {:<8} {:>6} {:>8} {:>7} {:>6} {:>12} {:>8} {:>7} {:>8} {:>8}",
        "intensity",
        "counterm",
        "sync%",
        "minsync%",
        "outdeg",
        "stab",
        "blk-relay(s)",
        "Δrelay",
        "banned",
        "retries",
        "rescues"
    )
    .unwrap();
    let base_relay = r.baseline().mean_block_relay_secs;
    for c in &r.cells {
        let relay = c
            .mean_block_relay_secs
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "-".into());
        let delta = match (c.mean_block_relay_secs, base_relay) {
            (Some(v), Some(b)) => format!("{:+.2}", v - b),
            _ => "-".into(),
        };
        writeln!(
            out,
            "  {:<9.2} {:<8} {:>5.1} {:>7.1} {:>7.2} {:>6.2} {:>12} {:>8} {:>7} {:>8} {:>8}",
            c.intensity,
            if c.countermeasures { "on" } else { "off" },
            c.mean_sync_fraction * 100.0,
            c.min_sync_fraction * 100.0,
            c.mean_outdegree,
            c.outdegree_stability,
            relay,
            delta,
            c.peers_banned,
            c.dial_retries,
            c.stale_rescues
        )
        .unwrap();
    }
    out
}

/// Renders the fork-stress sweep: chain-fault intensity × resilience,
/// with honest-sync deltas against the §IV baseline (intensity 0, off).
pub fn render_forkstress(r: &ForkStressResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "forkstress — chain-layer fork/reorg storms × resilience"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<9} {:<6} {:>6} {:>8} {:>7} {:>8} {:>7} {:>6} {:>9} {:>6} {:>7}",
        "intensity",
        "resil",
        "sync%",
        "minsync%",
        "Δsync",
        "conv(s)",
        "depth",
        "reorgs",
        "competing",
        "solo",
        "banned"
    )
    .unwrap();
    let base_sync = r.baseline().mean_sync_fraction;
    for c in &r.cells {
        let conv = c
            .convergence_secs
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "SPLIT".into());
        writeln!(
            out,
            "  {:<9.2} {:<6} {:>5.1} {:>7.1} {:>7} {:>8} {:>7} {:>6} {:>9} {:>6} {:>7}",
            c.intensity,
            if c.resilience { "on" } else { "off" },
            c.mean_sync_fraction * 100.0,
            c.min_sync_fraction * 100.0,
            format!("{:+.1}", (c.mean_sync_fraction - base_sync) * 100.0),
            conv,
            c.max_fork_depth,
            c.reorgs,
            c.competing_blocks,
            c.solo_blocks,
            c.peers_banned
        )
        .unwrap();
    }
    out
}

/// Renders the windowed root-cause attribution of a timeseries run: the
/// per-cause share of the total sync drop, then per-context sparklines of
/// the sync series and each cause's pressure.
pub fn render_rootcause(name: &str, r: &RootCauseReport) -> String {
    let mut out = String::new();
    writeln!(out, "{name} — sync-health root-cause attribution").unwrap();
    if r.intervals.is_empty() {
        writeln!(out, "  no sync intervals sampled").unwrap();
        return out;
    }
    writeln!(
        out,
        "  intervals: {}  drop: {:.2} pts  gain: {:.2} pts",
        r.intervals.len(),
        r.total_drop * 100.0,
        r.total_gain * 100.0
    )
    .unwrap();
    writeln!(out, "  {:<18} {:>9} {:>7}", "cause", "drop(pts)", "share%").unwrap();
    let share = |d: f64| {
        if r.total_drop > 0.0 {
            format!("{:.1}", d / r.total_drop * 100.0)
        } else {
            "-".into()
        }
    };
    for (i, cause) in CAUSES.iter().enumerate() {
        writeln!(
            out,
            "  {:<18} {:>9.2} {:>7}",
            cause,
            r.drop_by_cause[i] * 100.0,
            share(r.drop_by_cause[i])
        )
        .unwrap();
    }
    writeln!(
        out,
        "  {:<18} {:>9.2} {:>7}",
        "unattributed",
        r.unattributed_drop * 100.0,
        share(r.unattributed_drop)
    )
    .unwrap();

    // One sparkline block per context, in first-appearance order.
    let mut ctxs: Vec<Option<&str>> = Vec::new();
    for iv in &r.intervals {
        let c = iv.ctx.as_deref();
        if !ctxs.contains(&c) {
            ctxs.push(c);
        }
    }
    for ctx in ctxs {
        let pick = |f: &dyn Fn(&bitsync_analysis::rootcause::Interval) -> f64| -> Vec<f64> {
            r.intervals
                .iter()
                .filter(|iv| iv.ctx.as_deref() == ctx)
                .map(f)
                .collect()
        };
        writeln!(out, "  [{}]", ctx.unwrap_or("run")).unwrap();
        let sync = pick(&|iv| iv.sync);
        writeln!(
            out,
            "    {:<18} {}",
            "sync",
            crate::analysis::sparkline_fit(&sync, 60)
        )
        .unwrap();
        for (i, cause) in CAUSES.iter().enumerate() {
            let series = pick(&|iv| iv.pressures[i]);
            if series.iter().all(|&v| v == 0.0) {
                continue; // cause never pressed in this context
            }
            writeln!(
                out,
                "    {:<18} {}",
                cause,
                crate::analysis::sparkline_fit(&series, 60)
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{census, rounds, stability, success_rate};
    use bitsync_sim::Instruments;

    #[test]
    fn census_renderers_produce_paper_anchored_text() {
        let ins = Instruments::default();
        let c = census::run(&census::CensusExperimentConfig::quick(1), &ins);
        assert!(render_fig3(&c).contains("10,114"));
        assert!(render_fig4(&c).contains("694,696"));
        assert!(render_fig5(&c).contains("23.5%"));
        assert!(render_table1(&c).contains("8,494"));
        assert!(render_fig8(&c).contains("73"));
        assert!(render_fig12_13(&c).contains("16.6"));
        assert!(render_addr_mix(&c).contains("85.1%"));
        let all = render_census(&c);
        assert!(all.contains("Figure 3") && all.contains("ADDR composition"));
    }

    #[test]
    fn fig6_fig7_render() {
        let ins = Instruments::default();
        let s = stability::run(&stability::StabilityConfig::quick(2), &ins);
        assert!(render_fig6(&s).contains("6.67"));
        let r = success_rate::run(&success_rate::SuccessRateConfig::quick(2), &ins);
        assert!(render_fig7(&r).contains("11.2%"));
    }

    #[test]
    fn rounds_render() {
        let ins = Instruments::default();
        let r = rounds::run(3, 15, &ins);
        let text = render_rounds(&r);
        assert!(text.contains("8^5"));
        assert!(text.contains("14"));
    }

    #[test]
    fn rootcause_render_names_causes_and_contexts() {
        use crate::sim::time::SimTime;
        use crate::sim::timeseries::Sample;
        let row = |t: u64, ctx: &str, sync: f64, fails: f64| Sample {
            at: SimTime::from_secs(t),
            ctx: Some(ctx.to_string()),
            values: vec![
                ("sync_frac".to_string(), sync),
                ("w_dial_fail".to_string(), fails),
            ],
        };
        let rows = vec![
            row(0, "y2019", 0.8, 0.0),
            row(600, "y2019", 0.75, 3.0),
            row(0, "y2020", 0.7, 0.0),
            row(600, "y2020", 0.6, 9.0),
        ];
        let rep = bitsync_analysis::attribute(&rows);
        let text = render_rootcause("fig1", &rep);
        assert!(text.contains("root-cause attribution"), "{text}");
        for cause in CAUSES {
            assert!(text.contains(cause), "missing {cause} in {text}");
        }
        assert!(
            text.contains("[y2019]") && text.contains("[y2020]"),
            "{text}"
        );
        assert!(
            text.contains('▁') || text.contains('█'),
            "no sparkline: {text}"
        );

        let empty = render_rootcause("relay", &Default::default());
        assert!(empty.contains("no sync intervals"), "{empty}");
    }
}
