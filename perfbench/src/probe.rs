//! Decorators that time and count layers at their public boundaries.
//!
//! [`SchedProbe`] wraps any `CoflowScheduler` (the `core` layer) and
//! [`LogProbe`] wraps any `RoundSink` (the `eventlog` layer). Neither
//! reaches inside the program: they see exactly what the engine or the
//! coordinator hands across the trait boundary.
//!
//! In an untraced run the probes only note when the first scheduling
//! round starts (the end of set-up) and count rounds and bytes; work
//! that costs a clock read per round is reserved for the traced run.
//! The one exception is the emulator's epoch cadence, one clock read
//! per epoch of about 20 ms.

use saath_core::{ClusterView, CoflowScheduler, Schedule};
use saath_eventlog::{LogError, RoundRecord, RoundSink};
use saath_fabric::PortBank;
use saath_simcore::{FlowId, Rate};
use saath_telemetry::MechCounters;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a [`SchedProbe`] saw. The timing, rate and port-check fields
/// are filled in the traced run only.
#[derive(Clone, Debug, Default)]
pub struct SchedStats {
    /// Rounds computed.
    pub rounds: u64,
    /// Longest interval between the `now` of consecutive rounds: the
    /// granularity of the driver's timestamps.
    pub max_round_gap: saath_simcore::Duration,
    last_now: Option<saath_simcore::Time>,
    /// Wall time between consecutive rounds, nanoseconds (only when
    /// the probe was built [`SchedProbe::with_wall_gaps`]).
    pub wall_gaps_ns: Vec<u64>,
    last_wall: Option<Instant>,
    /// Wall time inside the policy's `compute`, per round, nanoseconds.
    pub compute_ns: Vec<u64>,
    /// Wall time the probe itself spent around `compute` (capacity
    /// snapshot, schedule comparison, port check), nanoseconds.
    pub probe_ns: u64,
    /// Σ of non-zero rates handed out.
    pub rates_emitted: u64,
    /// Rounds whose schedule equals the previous round's exactly.
    pub unchanged_rounds: u64,
    /// Σ active CoFlows in the view, over rounds.
    pub active_sum: u64,
    /// Σ ports left with no spare capacity after `compute`, over rounds.
    pub saturated_sum: u64,
    /// Rounds in which some port was handed more than its capacity.
    pub overallocated_rounds: u64,
    /// The first over-allocation seen, for the report.
    pub first_overallocation: Option<String>,
    /// The policy's mechanism counters, filled in by
    /// [`SchedProbe::take_stats`].
    pub mech: Option<MechCounters>,
}

/// A `CoflowScheduler` decorator around the policy under test.
pub struct SchedProbe {
    inner: Box<dyn CoflowScheduler>,
    traced: bool,
    /// When the first `compute` began: set-up ends here.
    pub first_compute: Option<Instant>,
    /// Observations so far.
    pub stats: SchedStats,
    prev: Vec<(FlowId, Rate)>,
    cap: Vec<u64>,
    load: Vec<u64>,
    /// Per flow id: its uplink and downlink, once seen.
    ends: Vec<Option<(u32, u32)>>,
    /// Where the stats go when the probe is dropped, for drivers that
    /// own the scheduler (the emulator's coordinator).
    deposit: Option<Arc<Mutex<Vec<SchedStats>>>>,
    wall_gaps: bool,
}

impl SchedProbe {
    /// Wraps `inner`; `traced` turns on per-round timing and checks.
    pub fn new(inner: Box<dyn CoflowScheduler>, traced: bool) -> SchedProbe {
        SchedProbe {
            inner,
            traced,
            first_compute: None,
            stats: SchedStats::default(),
            prev: Vec::new(),
            cap: Vec::new(),
            load: Vec::new(),
            ends: Vec::new(),
            deposit: None,
            wall_gaps: false,
        }
    }

    /// Also records the wall time between consecutive rounds (one clock
    /// read per round) — the emulator's epoch cadence.
    pub fn with_wall_gaps(mut self) -> SchedProbe {
        self.wall_gaps = true;
        self
    }

    /// Hands the probe's stats to `slot` when the probe is dropped.
    pub fn depositing(mut self, slot: Arc<Mutex<Vec<SchedStats>>>) -> SchedProbe {
        self.deposit = Some(slot);
        self
    }

    /// Sums this round's rates onto each flow's uplink and downlink and
    /// compares them with the capacity the round started from. A flow's
    /// ports never change, so they are read from the view once, the
    /// first round the flow is scheduled.
    fn check_ports(&mut self, view: &ClusterView<'_>, out: &Schedule) {
        self.load.clear();
        self.load.resize(self.cap.len(), 0);
        for &(flow, rate) in &out.rates {
            let i = flow.0 as usize;
            if self.ends.get(i).copied().flatten().is_none() {
                for f in view.coflows.iter().flat_map(|c| &c.flows) {
                    let j = f.id.0 as usize;
                    if self.ends.len() <= j {
                        self.ends.resize(j + 1, None);
                    }
                    let e = f.endpoints(view.num_nodes);
                    self.ends[j] = Some((e.src.0, e.dst.0));
                }
            }
            let Some((src, dst)) = self.ends.get(i).copied().flatten() else {
                self.note_overallocation(format!("flow {} scheduled but not in the view", flow.0));
                return;
            };
            self.load[src as usize] += rate.as_u64();
            self.load[dst as usize] += rate.as_u64();
        }
        if let Some(p) = (0..self.cap.len()).find(|&p| self.load[p] > self.cap[p]) {
            let msg = format!(
                "port {} at t={} ns carries {} B/s over capacity {} B/s",
                p,
                view.now.as_nanos(),
                self.load[p],
                self.cap[p]
            );
            self.note_overallocation(msg);
        }
    }

    fn note_overallocation(&mut self, msg: String) {
        self.stats.overallocated_rounds += 1;
        self.stats.first_overallocation.get_or_insert(msg);
    }

    /// Takes the observations so far, with the wrapped policy's
    /// mechanism counters (real values in the traced build only).
    pub fn take_stats(&mut self) -> SchedStats {
        self.stats.mech = self.inner.mech_counters().copied();
        std::mem::take(&mut self.stats)
    }
}

impl CoflowScheduler for SchedProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn requires_clairvoyance(&self) -> bool {
        self.inner.requires_clairvoyance()
    }

    fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        if self.first_compute.is_none() {
            self.first_compute = Some(Instant::now());
        }
        self.stats.rounds += 1;
        if let Some(last) = self.stats.last_now.replace(view.now) {
            self.stats.max_round_gap = self
                .stats
                .max_round_gap
                .max(view.now.saturating_since(last));
        }
        if self.wall_gaps {
            let now = Instant::now();
            if let Some(last) = self.stats.last_wall.replace(now) {
                self.stats.wall_gaps_ns.push((now - last).as_nanos() as u64);
            }
        }
        if !self.traced {
            self.inner.compute(view, bank, out);
            return;
        }
        let entered = Instant::now();
        self.cap.clear();
        self.cap.extend_from_slice(bank.remaining_slab());
        let t0 = Instant::now();
        self.inner.compute(view, bank, out);
        let t1 = Instant::now();
        self.stats.compute_ns.push((t1 - t0).as_nanos() as u64);
        self.stats.rates_emitted += out.rates.len() as u64;
        self.stats.active_sum += view.coflows.len() as u64;
        self.stats.saturated_sum += bank.saturated_ports() as u64;
        if out.rates == self.prev {
            self.stats.unchanged_rounds += 1;
        } else {
            self.prev.clear();
            self.prev.extend_from_slice(&out.rates);
        }
        self.check_ports(view, out);
        self.stats.probe_ns += ((t0 - entered) + t1.elapsed()).as_nanos() as u64;
    }

    fn mech_counters(&self) -> Option<&MechCounters> {
        self.inner.mech_counters()
    }

    fn queue_occupancy(&self) -> Option<&[usize]> {
        self.inner.queue_occupancy()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.inner.save_state(out)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.restore_state(bytes)
    }
}

impl Drop for SchedProbe {
    fn drop(&mut self) {
        if let Some(slot) = self.deposit.take() {
            let stats = self.take_stats();
            if let Ok(mut v) = slot.lock() {
                v.push(stats);
            }
        }
    }
}

/// What a [`LogProbe`] saw.
#[derive(Clone, Debug, Default)]
pub struct LogStats {
    /// Round records appended.
    pub rounds: u64,
    /// Bytes of round records.
    pub round_bytes: u64,
    /// Snapshots appended.
    pub snapshots: u64,
    /// Bytes of snapshots.
    pub snapshot_bytes: u64,
    /// Wall time inside the sink (traced run only).
    pub append_time: Duration,
}

/// A `RoundSink` decorator around the event-log writer.
pub struct LogProbe<'a> {
    inner: &'a mut dyn RoundSink,
    traced: bool,
    /// Observations so far.
    pub stats: LogStats,
}

impl<'a> LogProbe<'a> {
    /// Wraps `inner`; `traced` turns on timing of each append.
    pub fn new(inner: &'a mut dyn RoundSink, traced: bool) -> LogProbe<'a> {
        LogProbe {
            inner,
            traced,
            stats: LogStats::default(),
        }
    }
}

impl RoundSink for LogProbe<'_> {
    fn append_round(&mut self, rec: &RoundRecord) -> Result<u64, LogError> {
        let t0 = self.traced.then(Instant::now);
        let n = self.inner.append_round(rec)?;
        if let Some(t0) = t0 {
            self.stats.append_time += t0.elapsed();
        }
        self.stats.rounds += 1;
        self.stats.round_bytes += n;
        Ok(n)
    }

    fn append_snapshot(&mut self, round: u64, blob: &[u8]) -> Result<u64, LogError> {
        let t0 = self.traced.then(Instant::now);
        let n = self.inner.append_snapshot(round, blob)?;
        if let Some(t0) = t0 {
            self.stats.append_time += t0.elapsed();
        }
        self.stats.snapshots += 1;
        self.stats.snapshot_bytes += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saath_core::{CoflowView, FlowView};
    use saath_simcore::{Bytes, CoflowId, NodeId, Time};

    /// A deliberately broken policy: every flow gets full line rate.
    struct Greedy;

    impl CoflowScheduler for Greedy {
        fn name(&self) -> &'static str {
            "greedy"
        }
        fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
            for c in view.coflows {
                for f in c.unfinished() {
                    out.set(f.id, bank.nominal_rate());
                }
            }
        }
    }

    fn view_of(flows: &[(u32, u32, u32)]) -> Vec<CoflowView> {
        vec![CoflowView {
            id: CoflowId(0),
            arrival: Time::ZERO,
            flows: flows
                .iter()
                .map(|&(id, src, dst)| FlowView {
                    id: FlowId(id),
                    src: NodeId(src),
                    dst: NodeId(dst),
                    sent: Bytes::ZERO,
                    ready: true,
                    finished: false,
                    oracle_size: None,
                })
                .collect(),
            restarted: false,
        }]
    }

    fn run(flows: &[(u32, u32, u32)], inner: Box<dyn CoflowScheduler>) -> SchedStats {
        let views = view_of(flows);
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes: 4,
            coflows: &views,
            changed: None,
        };
        let mut bank = PortBank::uniform(4, Rate(1000));
        let mut probe = SchedProbe::new(inner, true);
        for _ in 0..2 {
            bank.reset_round();
            let mut out = Schedule::default();
            probe.compute(&view, &mut bank, &mut out);
        }
        probe.take_stats()
    }

    #[test]
    fn flags_a_shared_port_given_twice_its_capacity() {
        let s = run(&[(0, 0, 1), (1, 0, 2)], Box::new(Greedy));
        assert_eq!(s.overallocated_rounds, 2);
        assert!(s.first_overallocation.unwrap().starts_with("port 0 "));
    }

    #[test]
    fn passes_disjoint_flows_and_counts_unchanged_rounds() {
        let s = run(&[(0, 0, 1), (1, 2, 3)], Box::new(Greedy));
        assert_eq!(s.overallocated_rounds, 0);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.rates_emitted, 4);
        assert_eq!(s.unchanged_rounds, 1);
        assert_eq!(s.compute_ns.len(), 2);
    }

    #[test]
    fn saath_never_overallocates_a_shared_port() {
        let s = run(
            &[(0, 0, 1), (1, 0, 2), (2, 3, 2)],
            Box::new(saath_core::Saath::with_defaults()),
        );
        assert_eq!(s.overallocated_rounds, 0, "{:?}", s.first_overallocation);
        assert!(s.rates_emitted > 0);
    }
}
