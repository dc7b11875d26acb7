//! The host out-of-order core timing model (Table III: 2 GHz, 5-wide,
//! Ice-Lake-class window).
//!
//! Trace-driven one-pass model: each dynamic op is *assigned* an issue time
//! once its dependences and ROB slot are known — ALU completion times are
//! then analytic, while memory ops fire real requests into the cycle-level
//! hierarchy at their issue time and complete when the response returns.
//! This preserves the memory-level parallelism and ROB-limited latency
//! tolerance that the paper's OoO baseline derives its performance from,
//! at O(1) amortized cost per instruction.

use distda_ir::trace::{DynOp, OpKind, NO_DEP};
use distda_mem::{MemRequest, MemSystem, PortId};
use distda_sim::time::{ClockDomain, Tick};
use std::collections::VecDeque;

const UNASSIGNED: Tick = u64::MAX;
const PENDING: Tick = u64::MAX - 1;
/// Tag bit on an in-flight store's `done` entry: the rest of the word is
/// the tick its data forwards from the store buffer. Simulated ticks never
/// reach bit 63, and `UNASSIGNED`/`PENDING` carry it too, so a plain
/// completion time is exactly a value below `STORE_FWD`.
const STORE_FWD: Tick = 1 << 63;
/// Memory requests the core may start per cycle (L1 ports).
const FIRES_PER_CYCLE: u32 = 2;

/// Host core statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Dynamic instructions retired.
    pub retired: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
    /// Segments executed.
    pub segments: u64,
}

/// The OoO host model. One instance per simulated hardware thread.
#[derive(Debug)]
pub struct HostCore {
    clock: ClockDomain,
    width: u32,
    rob: usize,
    port: PortId,
    trace: Vec<DynOp>,
    /// Per op: its completion tick, `UNASSIGNED`, `PENDING` (in-flight
    /// load), or `STORE_FWD | t` (in-flight store forwarding at `t`).
    done: Vec<Tick>,
    next_assign: usize,
    /// Memory ops waiting to fire, as `(issue tick, op index)`. Assignment
    /// issues in nondecreasing cycle order, so this is a FIFO.
    fire: VecDeque<(Tick, u32)>,
    bw_cycle: u64,
    bw_used: u32,
    inflight: usize,
    finish_time: Tick,
    /// Set when new work arrived (segment load or memory response) that the
    /// next clock edge must process; cleared after each processed edge.
    dirty: bool,
    stats: HostStats,
}

impl HostCore {
    /// Creates a core with the given issue width and reorder window,
    /// attached to a registered host memory port.
    pub fn new(clock: ClockDomain, width: u32, rob: usize, port: PortId) -> Self {
        Self {
            clock,
            width: width.max(1),
            rob: rob.max(1),
            port,
            trace: Vec::new(),
            done: Vec::new(),
            next_assign: 0,
            fire: VecDeque::new(),
            bw_cycle: 0,
            bw_used: 0,
            inflight: 0,
            finish_time: 0,
            dirty: false,
            stats: HostStats::default(),
        }
    }

    /// The memory port this core issues through.
    pub fn port(&self) -> PortId {
        self.port
    }

    /// Statistics so far.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// Loads the next host-executed trace segment. The core holds `ops`
    /// until [`HostCore::unload_segment`] hands the buffer back.
    ///
    /// # Panics
    ///
    /// Panics if the previous segment has not drained.
    pub fn load_segment(&mut self, now: Tick, ops: Vec<DynOp>) {
        assert!(self.segment_drained(now), "segment loaded while busy");
        self.done.clear();
        self.done.resize(ops.len(), UNASSIGNED);
        self.trace = ops;
        self.next_assign = 0;
        self.bw_cycle = self.clock.cycles_in(now);
        self.bw_used = 0;
        self.finish_time = now;
        self.dirty = true;
        self.stats.segments += 1;
    }

    /// Returns the drained segment's buffer, emptied with its allocation
    /// kept, so the caller can refill it with the next segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment has not drained by `now`.
    pub fn unload_segment(&mut self, now: Tick) -> Vec<DynOp> {
        assert!(self.segment_drained(now), "segment unloaded while busy");
        self.next_assign = 0;
        let mut ops = std::mem::take(&mut self.trace);
        ops.clear();
        ops
    }

    /// Earliest tick `>= now` at which [`HostCore::tick`] would make
    /// progress on its own, or `None` when only a memory response (an
    /// external event) can unblock it.
    ///
    /// The assign pass blocks only on in-flight loads, so a quiescent core
    /// has exactly three internally scheduled wake-ups: the next edge after
    /// new work arrived (`dirty`), the next due fire, and the analytic
    /// `finish_time` that completes the segment.
    pub fn next_event(&self, now: Tick) -> Option<Tick> {
        use distda_sim::time::earliest;
        if self.dirty {
            return Some(self.clock.next_edge(now));
        }
        let fire = self
            .fire
            .front()
            .map(|&(t, _)| self.clock.next_edge(t.max(now)));
        let finish = (self.next_assign == self.trace.len()
            && self.inflight == 0
            && self.fire.is_empty()
            && self.finish_time > now)
            .then_some(self.finish_time);
        earliest(fire, finish)
    }

    /// Whether every op of the current segment has completed by `now`.
    pub fn segment_drained(&self, now: Tick) -> bool {
        self.next_assign == self.trace.len()
            && self.inflight == 0
            && self.fire.is_empty()
            && now >= self.finish_time
    }

    /// Time the last ALU op completes (only meaningful once assigned).
    pub fn finish_time(&self) -> Tick {
        self.finish_time
    }

    /// Earliest time op `j`'s result is visible to dependents, or `None`
    /// if unknown (in-flight load). Stores forward from the store buffer.
    fn known_time(&self, j: usize) -> Option<Tick> {
        let d = self.done[j];
        if d < STORE_FWD {
            Some(d)
        } else if d < PENDING {
            Some(d & !STORE_FWD)
        } else {
            None
        }
    }

    /// Advances one base tick, firing memory requests into `mem`.
    pub fn tick(&mut self, now: Tick, mem: &mut MemSystem) {
        // Memory completions arrive on any tick.
        {
            let mut rx = mem.responses(self.port).rx();
            while let Some(resp) = rx.accept() {
                let idx = resp.id as usize;
                // In flight: `PENDING` or a tagged store, never `UNASSIGNED`.
                if self
                    .done
                    .get(idx)
                    .is_some_and(|&d| d >= STORE_FWD && d != UNASSIGNED)
                {
                    self.done[idx] = now;
                    self.finish_time = self.finish_time.max(now);
                    self.inflight -= 1;
                    self.dirty = true;
                }
            }
        }
        if !self.clock.fires_at(now) {
            return;
        }
        self.dirty = false;
        self.assign(now);
        // Fire due memory requests, bounded by L1 ports.
        let mut fired = 0;
        while fired < FIRES_PER_CYCLE {
            let Some(&(t, idx)) = self.fire.front() else {
                break;
            };
            if t > now {
                break;
            }
            self.fire.pop_front();
            let op = self.trace[idx as usize];
            let (addr, write) = match op.kind {
                OpKind::Load { addr } => (addr, false),
                OpKind::Store { addr } => (addr, true),
                OpKind::Alu { .. } => unreachable!("only memory ops are queued"),
            };
            mem.try_request(
                now,
                MemRequest {
                    port: self.port,
                    id: idx as u64,
                    addr,
                    write,
                },
            )
            .expect("host port accepts requests");
            self.inflight += 1;
            fired += 1;
        }
    }

    fn assign(&mut self, now: Tick) {
        while self.next_assign < self.trace.len() {
            let i = self.next_assign;
            // ROB: op i waits for op i-rob to have a known completion.
            // Stores retire into the store buffer at issue, so they do not
            // hold the window open while their miss drains.
            let mut ready: Tick = now;
            if i >= self.rob {
                let j = i - self.rob;
                match self.known_time(j) {
                    Some(t) => ready = ready.max(t),
                    None => return,
                }
            }
            let op = self.trace[i];
            for dep in [op.dep1, op.dep2] {
                if dep != NO_DEP {
                    match self.known_time(dep as usize) {
                        Some(t) => ready = ready.max(t),
                        None => return,
                    }
                }
            }
            // Issue bandwidth.
            let ready_cycle = self.clock.cycles_in(ready) + u64::from(!self.clock.fires_at(ready));
            let mut issue_cycle = ready_cycle.max(self.bw_cycle);
            if issue_cycle == self.bw_cycle && self.bw_used >= self.width {
                issue_cycle += 1;
            }
            if issue_cycle > self.bw_cycle {
                self.bw_cycle = issue_cycle;
                self.bw_used = 0;
            }
            self.bw_used += 1;
            let issue_tick = self.clock.ticks_for_cycles(issue_cycle);
            match op.kind {
                OpKind::Alu { lat } => {
                    let d = issue_tick + self.clock.ticks_for_cycles(lat as u64);
                    self.done[i] = d;
                    self.finish_time = self.finish_time.max(d);
                }
                OpKind::Load { .. } => {
                    self.done[i] = PENDING;
                    self.push_fire(issue_tick, i as u32);
                }
                OpKind::Store { .. } => {
                    // Data forwards from the store buffer next cycle.
                    self.done[i] = STORE_FWD | (issue_tick + self.clock.ticks_for_cycles(1));
                    self.push_fire(issue_tick, i as u32);
                }
            }
            self.stats.retired += 1;
            self.next_assign += 1;
        }
    }

    /// Queues a memory op to fire and counts it. Issue ticks never decrease
    /// (`bw_cycle` only grows) and indices only grow, so FIFO order is time
    /// order.
    fn push_fire(&mut self, issue_tick: Tick, idx: u32) {
        debug_assert!(
            self.fire
                .back()
                .is_none_or(|&last| last < (issue_tick, idx)),
            "memory ops must fire in issue order"
        );
        self.fire.push_back((issue_tick, idx));
        self.stats.mem_ops += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_ir::trace::{DynOp, OpKind};
    use distda_mem::{MemConfig, PortKind};

    fn rig() -> (HostCore, MemSystem, distda_noc::Mesh<distda_mem::MemMsg>) {
        let clock = ClockDomain::from_ghz(2.0);
        let mut mem = MemSystem::new(MemConfig::default(), clock, 0, 7);
        let port = mem.register_port(PortKind::Host);
        let host = HostCore::new(clock, 5, 224, port);
        let mesh = distda_noc::Mesh::new(4, 2, distda_noc::NocConfig::default(), clock);
        (host, mem, mesh)
    }

    /// One base tick of host, memory hierarchy and mesh.
    fn step(
        host: &mut HostCore,
        mem: &mut MemSystem,
        mesh: &mut distda_noc::Mesh<distda_mem::MemMsg>,
        t: Tick,
    ) {
        host.tick(t, mem);
        mem.tick(t);
        {
            let out = mem.outgoing();
            while let Some(&p) = out.front() {
                if mesh.try_inject(t, p).is_err() {
                    out.note_stalls(1);
                    break;
                }
                out.rx().accept();
            }
        }
        mesh.tick(t);
        for n in 0..mesh.node_count() {
            for pkt in mesh.drain_inbox(n) {
                mem.deliver(t, pkt);
            }
        }
    }

    fn pump(
        host: &mut HostCore,
        mem: &mut MemSystem,
        mesh: &mut distda_noc::Mesh<distda_mem::MemMsg>,
        start: Tick,
        budget: Tick,
    ) -> Tick {
        let mut t = start;
        while !host.segment_drained(t) {
            step(host, mem, mesh, t);
            t += 1;
            assert!(t < start + budget, "host hung");
        }
        t
    }

    fn alu(dep1: u32, dep2: u32) -> DynOp {
        DynOp {
            kind: OpKind::Alu { lat: 1 },
            dep1,
            dep2,
        }
    }

    #[test]
    fn independent_alu_ops_ipc_near_width() {
        let (mut host, mut mem, mut mesh) = rig();
        let n = 1000;
        let ops = vec![alu(NO_DEP, NO_DEP); n];
        host.load_segment(0, ops);
        let end = pump(&mut host, &mut mem, &mut mesh, 0, 100_000);
        let cycles = ClockDomain::from_ghz(2.0).cycles_in(end);
        let ipc = n as f64 / cycles as f64;
        assert!(
            ipc > 3.0,
            "5-wide core should near width on no-dep ALU, got {ipc}"
        );
    }

    #[test]
    fn dependence_chain_serializes() {
        let (mut host, mut mem, mut mesh) = rig();
        let n = 500;
        let ops: Vec<DynOp> = (0..n)
            .map(|i| alu(if i == 0 { NO_DEP } else { i as u32 - 1 }, NO_DEP))
            .collect();
        host.load_segment(0, ops);
        let end = pump(&mut host, &mut mem, &mut mesh, 0, 1_000_000);
        let cycles = ClockDomain::from_ghz(2.0).cycles_in(end);
        assert!(
            cycles >= n as u64,
            "chain must serialize, got {cycles} cycles"
        );
    }

    #[test]
    fn independent_loads_overlap() {
        // 8 loads to different lines should not take 8x a single load.
        let mk_loads = |k: usize| -> Vec<DynOp> {
            (0..k)
                .map(|i| DynOp {
                    kind: OpKind::Load {
                        addr: 0x10_0000 + (i as u64) * 4096,
                    },
                    dep1: NO_DEP,
                    dep2: NO_DEP,
                })
                .collect()
        };
        let (mut h1, mut m1, mut mesh1) = rig();
        h1.load_segment(0, mk_loads(1));
        let t1 = pump(&mut h1, &mut m1, &mut mesh1, 0, 1_000_000);
        let (mut h8, mut m8, mut mesh8) = rig();
        h8.load_segment(0, mk_loads(8));
        let t8 = pump(&mut h8, &mut m8, &mut mesh8, 0, 1_000_000);
        assert!(
            t8 < t1 * 4,
            "8 independent loads ({t8}) should overlap vs one load ({t1})"
        );
    }

    #[test]
    fn dependent_loads_serialize() {
        // Pointer-chase: each load's address dep on previous load.
        let ops: Vec<DynOp> = (0..8)
            .map(|i| DynOp {
                kind: OpKind::Load {
                    addr: 0x20_0000 + (i as u64) * 8192,
                },
                dep1: if i == 0 { NO_DEP } else { i as u32 - 1 },
                dep2: NO_DEP,
            })
            .collect();
        let (mut hs, mut ms, mut meshs) = rig();
        hs.load_segment(0, ops);
        let serial = pump(&mut hs, &mut ms, &mut meshs, 0, 10_000_000);

        let indep: Vec<DynOp> = (0..8)
            .map(|i| DynOp {
                kind: OpKind::Load {
                    addr: 0x20_0000 + (i as u64) * 8192,
                },
                dep1: NO_DEP,
                dep2: NO_DEP,
            })
            .collect();
        let (mut hp, mut mp, mut meshp) = rig();
        hp.load_segment(0, indep);
        let parallel = pump(&mut hp, &mut mp, &mut meshp, 0, 10_000_000);
        assert!(
            serial > parallel * 2,
            "chased loads {serial} vs independent {parallel}"
        );
    }

    #[test]
    fn segments_chain_cleanly() {
        let (mut host, mut mem, mut mesh) = rig();
        host.load_segment(0, vec![alu(NO_DEP, NO_DEP); 10]);
        let t1 = pump(&mut host, &mut mem, &mut mesh, 0, 100_000);
        let mut ops = host.unload_segment(t1);
        assert!(ops.is_empty() && host.trace.is_empty());
        assert!(host.segment_drained(t1));
        ops.resize(10, alu(NO_DEP, NO_DEP));
        host.load_segment(t1, ops);
        let t2 = pump(&mut host, &mut mem, &mut mesh, t1, 100_000);
        assert!(t2 > t1);
        assert_eq!(host.stats().retired, 20);
        assert_eq!(host.stats().segments, 2);
    }

    #[test]
    fn store_forwards_until_its_response_then_shows_the_response_tick() {
        let (mut host, mut mem, mut mesh) = rig();
        let clock = ClockDomain::from_ghz(2.0);
        let store = DynOp {
            kind: OpKind::Store { addr: 0x30_0000 },
            dep1: NO_DEP,
            dep2: NO_DEP,
        };
        host.load_segment(0, vec![store, alu(0, NO_DEP)]);
        step(&mut host, &mut mem, &mut mesh, 0);
        // The store issued on the edge at tick 0 and missed. While it is in
        // flight its data forwards from the store buffer one cycle later,
        // and the dependent assigned on that edge issues then.
        let fwd = clock.ticks_for_cycles(1);
        assert_eq!(host.known_time(0), Some(fwd));
        assert_eq!(host.done[1], fwd + clock.ticks_for_cycles(1));
        let mut t = 1;
        while host.known_time(0) == Some(fwd) {
            step(&mut host, &mut mem, &mut mesh, t);
            t += 1;
            assert!(t < 1_000_000, "store response never arrived");
        }
        // The response was accepted on tick `t - 1`: from then on a
        // dependent sees that tick, not the forwarding time.
        let resp = t - 1;
        assert!(resp > fwd, "a missing store completes after it forwards");
        assert_eq!(host.known_time(0), Some(resp));
        let end = pump(&mut host, &mut mem, &mut mesh, t, 1_000_000);
        assert_eq!(host.known_time(0), Some(resp));
        assert!(host.segment_drained(end));
    }

    #[test]
    fn empty_segment_is_immediately_drained() {
        let (mut host, _mem, _mesh) = rig();
        host.load_segment(0, Vec::new());
        assert!(host.segment_drained(0));
    }
}
