//! Integration tests of the Table II interface semantics at the machine
//! level: configuration, dataflow decoupling, register-file transfer, and
//! the execution-flow guarantees of Section V-B.

use distda::accel::IssueModel;
use distda::compiler::{compile, PartitionMode};
use distda::ir::prelude::*;
use distda::mem::{MemConfig, MemSystem};
use distda::sim::time::ClockDomain;
use distda::system::{allocate, AllocStrategy, Machine, Substrate, Topology};

fn pipeline_setup() -> (Program, distda::compiler::CompiledKernel, Machine) {
    let mut b = ProgramBuilder::new("pipe");
    let x = b.array_f64("x", 256);
    let y = b.array_f64("y", 256);
    b.for_(0, 256, 1, |b, i| {
        b.store(y, i.clone(), Expr::load(x, i) * Expr::cf(3.0));
    });
    let p = b.build();
    let ck = compile(&p, PartitionMode::Distributed);
    let mut mem = MemSystem::new(MemConfig::default(), ClockDomain::from_ghz(2.0), 0, 7);
    let alloc = allocate(&p, &ck.offloads, 8, AllocStrategy::RoundRobin, &mut mem);
    let mut img = Memory::for_program(&p);
    for i in 0..256 {
        img.array_mut(x)[i] = Value::F(i as f64);
    }
    let machine = Machine::new(mem, img, alloc.layout, 5, 224, &Topology::paper());
    (p, ck, machine)
}

fn io_substrate() -> Substrate {
    Substrate {
        model: IssueModel::InOrder { width: 1 },
        clock: ClockDomain::from_ghz(2.0),
        buffer_lines: 32,
        is_access_node: false,
        tuning: (8, 12, 16),
    }
}

/// `cp_config` + `cp_run` cost MMIO words and host time (Table VI %init).
#[test]
fn configuration_charges_mmio_and_time() {
    let (_p, ck, mut m) = pipeline_setup();
    let before_words = m.mmio_words();
    let before_time = m.now();
    let plan = &ck.offloads[0];
    let subs = vec![io_substrate(); plan.partitions.len()];
    let h = m.configure_plan(plan, &[0, 1], &subs, &[]);
    assert!(m.mmio_words() > before_words, "cp_config must cost MMIO");
    assert!(m.now() > before_time, "configuration occupies the host");
    let words_after_config = m.mmio_words();
    m.launch(h, &[], &[vec![], vec![]], 0, 256, 1);
    assert!(
        m.mmio_words() > words_after_config,
        "cp_set_rf/cp_run cost MMIO"
    );
    m.run_offload(h).unwrap();
}

/// Decoupled producer-consumer execution: the producer partition runs
/// ahead of the consumer, bounded by the channel buffer (cp_produce
/// blocks only on credits; cp_consume only on emptiness).
#[test]
fn producer_runs_ahead_bounded_by_buffer() {
    let (_p, ck, mut m) = pipeline_setup();
    let plan = &ck.offloads[0];
    // Producer at cluster 0; consumer far away at cluster 7: latency is
    // hidden by decoupling, so total time is far below 256 sequential
    // round trips.
    let subs = vec![io_substrate(); plan.partitions.len()];
    let h = m.configure_plan(plan, &[0, 7], &subs, &[]);
    m.launch(h, &[], &[vec![], vec![]], 0, 256, 1);
    m.run_offload(h).unwrap();
    let ticks = m.now();
    // A naive request-response per element across ~9 hops at ~30+ cycles
    // round trip would exceed 256 * 90 ticks; decoupling must beat half
    // of that comfortably.
    assert!(
        ticks < 256 * 45,
        "dataflow decoupling failed to hide latency: {ticks} ticks"
    );
}

/// Re-running a configured plan (outer-loop reuse, Section V-B) works
/// without reconfiguration and produces fresh results.
#[test]
fn plans_are_reusable_across_invocations() {
    let (_p, ck, mut m) = pipeline_setup();
    let plan = &ck.offloads[0];
    let subs = vec![io_substrate(); plan.partitions.len()];
    let h = m.configure_plan(plan, &[0, 1], &subs, &[]);
    for chunk in 0..4 {
        let lo = chunk * 64;
        m.launch(h, &[], &[vec![], vec![]], lo, lo + 64, 1);
        m.run_offload(h).unwrap();
    }
    for i in 0..256 {
        assert_eq!(
            m.memimg().array(ArrayId(1))[i],
            Value::F(3.0 * i as f64),
            "element {i}"
        );
    }
}

/// Offload-boundary flushes invalidate host-cached object lines
/// (Section IV-D's software-managed coherence).
#[test]
fn configure_flushes_host_cached_objects() {
    let (p, ck, mut m) = pipeline_setup();
    // Warm the host caches over x's range.
    use distda::ir::trace::{DynOp, OpKind, NO_DEP};
    let (start, _end) = m.layout().range(&p, ArrayId(0));
    let mut ops: Vec<DynOp> = (0..32)
        .map(|i| DynOp {
            kind: OpKind::Store {
                addr: start + i * 8,
            },
            dep1: NO_DEP,
            dep2: NO_DEP,
        })
        .collect();
    m.run_host_segment(&mut ops).unwrap();
    let plan = &ck.offloads[0];
    let subs = vec![io_substrate(); plan.partitions.len()];
    let ranges = [(start, start + 256 * 8)];
    let flushed_before = m.mem().sys_stats().flushed_lines;
    let _ = m.configure_plan(plan, &[0, 1], &subs, &ranges);
    assert!(
        m.mem().sys_stats().flushed_lines > flushed_before,
        "dirty host lines over the object must flush at the offload boundary"
    );
}

/// Channel credits bound producer run-ahead exactly (no unbounded queues).
#[test]
fn channel_occupancy_never_exceeds_capacity() {
    // Indirectly verified by Fifo's internal capacity assertion: a push
    // beyond capacity would panic inside the machine. Run a long pipeline
    // with a deliberately slow consumer (CGRA with big II) to stress it.
    let (_p, ck, mut m) = pipeline_setup();
    let plan = &ck.offloads[0];
    let mut subs = vec![io_substrate(); plan.partitions.len()];
    subs[1] = Substrate {
        model: IssueModel::Cgra { ii: 24 },
        clock: ClockDomain::from_ghz(1.0),
        ..io_substrate()
    };
    let h = m.configure_plan(plan, &[0, 1], &subs, &[]);
    m.launch(h, &[], &[vec![], vec![]], 0, 256, 1);
    m.run_offload(h).unwrap(); // would panic on any credit violation
}
