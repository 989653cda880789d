//! The simulator workloads: `fb-saath-log` and `fb-aalo`.
//!
//! A run builds several distinct traces from the seed and ingests each
//! of them several times, then replays them round-robin through
//! `simulate_resumable` until `--seconds` have passed. Each replay gets
//! a fresh policy behind a [`SchedProbe`]; on `fb-saath-log` the
//! hash-chained event log (with periodic snapshots) goes to a file
//! through a [`LogProbe`]. Every replay is checked: its records pass
//! the trace oracle and equal those of the trace's first replay, and
//! its log verifies and chains one record per round. A final unlogged
//! replay must give the same records as the logged one.

use crate::input;
use crate::oracle;
use crate::probe::{LogProbe, LogStats, SchedProbe, SchedStats};
use crate::report::Report;
use crate::stats::{mean_quantile, median_s, process_cpu, quantile};
use saath_core::CoflowScheduler;
use saath_eventlog::{ChainDigest, EventLogWriter, LogHeader};
use saath_metrics::CoflowRecord;
use saath_simulator::{simulate_resumable, ReplayHooks, SimConfig, SimOutput};
use saath_telemetry::{Counter, MechCounters, Telemetry};
use saath_workload::{DynamicsSpec, Trace};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::time::{Duration, Instant};

/// Rounds between engine snapshots in the event log.
const SNAPSHOT_EVERY: u64 = 20_000;

/// Times each trace is ingested (set-up reports the median).
const INGESTS: usize = 5;

/// One simulator workload.
pub struct SimWorkload {
    /// Builds the input from the seed.
    pub trace: fn(u64) -> Trace,
    /// Builds a fresh policy.
    pub policy: fn() -> Box<dyn CoflowScheduler>,
    /// Write the event log to a file.
    pub log: bool,
    /// Distinct traces per run (generator seeds `64·seed + i`).
    pub traces: u64,
}

/// One timed replay.
struct Replay {
    out: SimOutput,
    /// Call to return.
    wall: Duration,
    /// Call to the first `compute`: the engine's set-up.
    setup: Duration,
    cpu: Duration,
    sched: SchedStats,
    log: Option<LogStats>,
    tele: Telemetry,
}

/// The timing of one replay.
#[derive(Clone, Copy)]
struct Timing {
    loop_s: f64,
    cpu_s: f64,
}

impl Replay {
    fn loop_time(&self) -> Duration {
        self.wall - self.setup
    }
}

fn replay(
    w: &SimWorkload,
    trace: &Trace,
    traced: bool,
    log_path: Option<&Path>,
) -> Result<Replay, String> {
    let cfg = SimConfig::default();
    let mut probe = SchedProbe::new((w.policy)(), traced);
    let mut tele = Telemetry::new();
    let mut writer = log_path
        .map(|p| {
            let header = LogHeader {
                num_nodes: trace.num_nodes as u64,
                port_rate: trace.port_rate.as_u64(),
                delta_ns: cfg.delta.as_nanos(),
                scheduler: probe.name().into(),
                trace_digest: ChainDigest::ZERO,
                start_round: 0,
                start_digest: ChainDigest::ZERO,
            };
            let f = File::create(p).map_err(|e| format!("create {}: {e}", p.display()))?;
            EventLogWriter::new(BufWriter::with_capacity(1 << 16, f), &header)
                .map_err(|e| format!("log header: {e}"))
        })
        .transpose()?;
    let mut sink = writer.as_mut().map(|w| LogProbe::new(w, traced));

    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let out = simulate_resumable(
        trace,
        &mut probe,
        &cfg,
        &DynamicsSpec::none(),
        traced.then_some(&mut tele),
        ReplayHooks {
            sink: sink
                .as_mut()
                .map(|s| s as &mut dyn saath_eventlog::RoundSink),
            snapshot_every: if log_path.is_some() {
                SNAPSHOT_EVERY
            } else {
                0
            },
            resume_from: None,
        },
    )
    .map_err(|e| format!("replay failed: {e}"))?;
    let log = sink.map(|s| s.stats);
    if let Some(w) = writer {
        w.into_inner()
            .map_err(|e| format!("log flush: {e}"))?
            .into_inner()
            .map_err(|e| format!("log flush: {e}"))?;
    }
    let wall = t0.elapsed();
    let cpu = process_cpu() - cpu0;
    let setup = probe.first_compute.map_or(wall, |t| t - t0);
    Ok(Replay {
        out,
        wall,
        setup,
        cpu,
        sched: probe.take_stats(),
        log,
        tele,
    })
}

/// Checks a logged replay's file: the chain verifies and holds one
/// record per scheduling round.
fn check_log(path: &Path, r: &Replay) -> Result<(), String> {
    let s = saath_eventlog::verify_path(path).map_err(|e| format!("log does not verify: {e}"))?;
    if s.rounds != r.out.rounds {
        return Err(format!(
            "log chains {} rounds but the replay ran {}",
            s.rounds, r.out.rounds
        ));
    }
    let snaps = r.log.as_ref().map_or(0, |l| l.snapshots);
    if s.snapshots != snaps {
        return Err(format!(
            "log holds {} snapshots, {} appended",
            s.snapshots, snaps
        ));
    }
    Ok(())
}

fn cct_secs(records: &[CoflowRecord]) -> Vec<f64> {
    records.iter().map(|r| r.cct().as_secs_f64()).collect()
}

/// Runs workload `w` for `seconds` and reports end-to-end metrics (or,
/// with `traced`, per-layer metrics).
pub fn run(w: &SimWorkload, seed: u64, seconds: f64, traced: bool, work: &Path) -> Report {
    let mut rep = Report::default();
    let (traces, ingests) = input::prepare(w.trace, seed, w.traces, INGESTS, work);
    let expects: Vec<_> = traces.iter().map(oracle::expectations).collect();
    let log_path = w.log.then(|| work.join("replay.log"));

    // One replay of every trace, then round-robin repeats until the
    // time is up; the first trace is replayed at least twice. Only the
    // first replay of each trace keeps its records (later ones are
    // compared with it and dropped), so memory does not grow with the
    // number of replays a run fits in.
    let started = Instant::now();
    let mut distinct: Vec<Replay> = Vec::new();
    let mut timings: Vec<Vec<Timing>> = vec![Vec::new(); traces.len()];
    let mut done = 0;
    while done <= traces.len() || started.elapsed().as_secs_f64() < seconds {
        let k = done % traces.len();
        done += 1;
        let r = match replay(w, &traces[k], traced, log_path.as_deref()) {
            Ok(r) => r,
            Err(e) => {
                rep.fatal(e);
                return rep;
            }
        };
        if let Some(p) = &log_path {
            if let Err(e) = check_log(p, &r) {
                rep.fatal(e);
            }
        }
        rep.tally(&oracle::check(
            &r.out.records,
            &expects[k],
            saath_simcore::Duration::ZERO,
        ));
        if r.out.unfinished != 0 {
            rep.fatal(format!("{} coflows unfinished", r.out.unfinished));
        }
        if r.sched.overallocated_rounds > 0 {
            rep.fatal(format!(
                "{} over-allocated rounds; first: {}",
                r.sched.overallocated_rounds,
                r.sched.first_overallocation.as_deref().unwrap_or("?")
            ));
        }
        if let Some(first) = distinct.get(k) {
            if first.out.records != r.out.records || first.out.rounds != r.out.rounds {
                rep.fatal(format!(
                    "a repeated replay of trace {k} gave different records"
                ));
            }
        }
        eprintln!(
            "[perfbench] replay of trace {k}: {} coflows, {} flows, {} rounds, loop {:.3} s, set-up {:.2} ms",
            traces[k].coflows.len(),
            traces[k].num_flows(),
            r.out.rounds,
            r.loop_time().as_secs_f64(),
            r.setup.as_secs_f64() * 1e3
        );
        timings[k].push(Timing {
            loop_s: r.loop_time().as_secs_f64(),
            cpu_s: r.cpu.as_secs_f64(),
        });
        if distinct.len() == k {
            distinct.push(r);
        }
    }
    if w.log {
        // The log must not change what is simulated.
        match replay(w, &traces[0], false, None) {
            Ok(plain) if plain.out.records == distinct[0].out.records => {}
            Ok(_) => rep.fatal("logged and unlogged replays gave different records".into()),
            Err(e) => rep.fatal(e),
        }
    }

    let peak_rss = crate::stats::peak_rss_mb();
    let ccts: Vec<Vec<f64>> = distinct.iter().map(|r| cct_secs(&r.out.records)).collect();
    let (mut cct_sum, mut bound_sum) = (0u128, 0u128);
    for (r, e) in distinct.iter().zip(&expects) {
        let v = oracle::check(&r.out.records, e, saath_simcore::Duration::ZERO);
        cct_sum += v.cct_sum_ns;
        bound_sum += v.bound_sum_ns;
    }
    if traced {
        layers(&mut rep, &distinct, &ingests);
        quality(&mut rep, &ccts, cct_sum, bound_sum);
        rep.fill_absent_layers();
        return rep;
    }
    // Each trace's fastest replay: noise on a shared machine only ever
    // adds time, so the minimum is the steadiest estimate of the
    // program's own cost.
    let fastest = |f: fn(&Timing) -> f64| -> f64 {
        timings
            .iter()
            .map(|t| t.iter().map(f).fold(f64::INFINITY, f64::min))
            .sum()
    };
    let rounds: u64 = distinct.iter().map(|r| r.out.rounds).sum();
    // Set-up as a fresh process meets it: the first replay of each
    // trace (later replays reuse memory the first one faulted in).
    let setups: Vec<Duration> = distinct.iter().map(|r| r.setup).collect();
    rep.metric("rounds_per_s", rounds as f64 / fastest(|t| t.loop_s), "1/s");
    rep.metric("setup_s", median_s(&ingests) + median_s(&setups), "s");
    rep.metric("peak_rss_mb", peak_rss, "MB");
    rep.metric(
        "cpu_ms_per_round",
        fastest(|t| t.cpu_s) * 1e3 / rounds as f64,
        "ms",
    );
    rep
}

/// The schedule's quality, from every distinct trace of the run: the
/// mean over traces of each trace's median and P90 CCT, and Σ CCT ÷ Σ
/// isolation bound.
pub fn quality(rep: &mut Report, ccts: &[Vec<f64>], cct_sum: u128, bound_sum: u128) {
    rep.metric("quality.cct_p50_s", mean_quantile(ccts, 0.5), "s");
    rep.metric("quality.cct_p90_s", mean_quantile(ccts, 0.9), "s");
    rep.metric(
        "quality.cct_bound_ratio",
        cct_sum as f64 / bound_sum.max(1) as f64,
        "ratio",
    );
}

/// Per-layer metrics from the traced run: sums over one replay of
/// each distinct trace, means per scheduling round.
fn layers(rep: &mut Report, replays: &[Replay], ingests: &[Duration]) {
    let total = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>();
    let rounds = total(&|r| r.out.rounds as f64);
    let compute_s = |r: &Replay| r.sched.compute_ns.iter().sum::<u64>() as f64 / 1e9;
    let probe_s = |r: &Replay| r.sched.probe_ns as f64 / 1e9;
    let append_s = |r: &Replay| r.log.as_ref().map_or(0.0, |l| l.append_time.as_secs_f64());
    let compute_ns: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.sched.compute_ns.iter().map(|&n| n as f64))
        .collect();
    let mech = |f: fn(&MechCounters) -> u64| total(&|r| r.sched.mech.as_ref().map_or(0, f) as f64);
    let pops = |r: &Replay| {
        [
            Counter::HeapPopStale,
            Counter::HeapPopCurrent,
            Counter::HeapPopSuperseded,
            Counter::HeapPopDead,
        ]
        .iter()
        .map(|&c| r.tele.counter(c) as f64)
        .sum::<f64>()
    };

    rep.metric("workload.ingest_s", median_s(ingests), "s");
    rep.metric("simulator.rounds", rounds, "count");
    rep.metric(
        "simulator.engine_self_s",
        total(&|r| r.loop_time().as_secs_f64() - compute_s(r) - append_s(r) - probe_s(r)),
        "s",
    );
    rep.metric(
        "simulator.heap_pushes",
        total(&|r| r.tele.counter(Counter::HeapPush) as f64),
        "count",
    );
    rep.metric(
        "simulator.stale_pop_ratio",
        total(&|r| r.tele.counter(Counter::HeapPopStale) as f64) / total(&pops).max(1.0),
        "ratio",
    );
    rep.metric(
        "simulator.dirty_set_mean",
        total(&|r| r.tele.dirty_set.mean() * r.out.rounds as f64) / rounds,
        "count",
    );
    rep.metric("core.compute_s", total(&compute_s), "s");
    rep.metric(
        "core.compute_us_p50",
        quantile(&compute_ns, 0.5) / 1e3,
        "us",
    );
    rep.metric(
        "core.compute_us_p99",
        quantile(&compute_ns, 0.99) / 1e3,
        "us",
    );
    rep.metric(
        "core.active_coflows_mean",
        total(&|r| r.sched.active_sum as f64) / rounds,
        "count",
    );
    rep.metric(
        "core.rates_emitted",
        total(&|r| r.sched.rates_emitted as f64),
        "count",
    );
    rep.metric("core.gang_admissions", mech(|m| m.gang_admissions), "count");
    rep.metric("core.gang_rejections", mech(|m| m.gang_rejections), "count");
    rep.metric("core.wc_backfills", mech(|m| m.wc_backfills), "count");
    rep.metric(
        "core.schedule_unchanged_rounds",
        total(&|r| r.sched.unchanged_rounds as f64),
        "count",
    );
    rep.metric(
        "core.lcof_comparisons",
        mech(|m| m.lcof_comparisons),
        "count",
    );
    rep.metric("core.order_rekeys", mech(|m| m.order_rekeys), "count");
    rep.metric(
        "core.contention_deltas",
        mech(|m| m.contention_deltas),
        "count",
    );
    rep.metric(
        "core.queue_transitions",
        mech(|m| m.queue_transitions),
        "count",
    );
    rep.metric(
        "fabric.saturated_ports_mean",
        total(&|r| r.sched.saturated_sum as f64) / rounds,
        "count",
    );
    let log = |f: fn(&LogStats) -> u64| total(&|r| r.log.as_ref().map_or(0, f) as f64);
    rep.metric("eventlog.append_s", total(&append_s), "s");
    rep.metric(
        "eventlog.bytes_per_round",
        log(|l| l.round_bytes) / rounds,
        "B/round",
    );
    rep.metric("eventlog.snapshot_bytes", log(|l| l.snapshot_bytes), "B");
    rep.metric("trace.probe_s", total(&probe_s), "s");
}
