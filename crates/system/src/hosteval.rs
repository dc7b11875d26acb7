//! Host-side functional evaluation with incremental trace emission.
//!
//! The program walker executes non-offloaded statements here: values take
//! effect on the shared memory image immediately, and one [`DynOp`] per
//! retired operation is appended to the current *segment*. Segments are
//! handed to the [`HostCore`](crate::host::HostCore) timing model at
//! offload boundaries (dependences never need to cross a segment because
//! boundaries are synchronization points) and whenever a host loop
//! iteration ends with the segment past [`SEGMENT_FLUSH_OPS`].
//!
//! One segment buffer serves the whole run: it is reserved once, lent to
//! the timing model by [`Machine::run_host_segment`](crate::machine::Machine::run_host_segment)
//! and handed back empty.

use distda_ir::expr::{ArrayId, Expr, ScalarId};
use distda_ir::interp::Memory;
use distda_ir::program::Program;
use distda_ir::trace::{DynOp, Layout, OpKind, NO_DEP};
use distda_ir::value::Value;

/// A segment is full once it holds more than this many ops; the walker
/// flushes it at the end of the loop iteration that crossed the line.
pub const SEGMENT_FLUSH_OPS: usize = 1 << 20;
/// Room past [`SEGMENT_FLUSH_OPS`] for the rest of the iteration that
/// crosses it, so a full segment fits the buffer reserved up front.
const SEGMENT_SLACK_OPS: usize = 4096;

/// Incremental host evaluator. See the module docs.
#[derive(Debug)]
pub struct HostEval {
    layout: Layout,
    /// Current scalar values.
    pub scalars: Vec<Value>,
    scalar_src: Vec<u32>,
    /// Current loop-variable values.
    pub loop_vars: Vec<i64>,
    seg: Vec<DynOp>,
    /// Sparse last-store tracking: (epoch, op) per element.
    store_stamp: Vec<Vec<(u32, u32)>>,
    epoch: u32,
}

impl HostEval {
    /// Creates an evaluator for a program under `layout`.
    pub fn new(prog: &Program, layout: Layout) -> Self {
        Self {
            layout,
            scalars: prog.scalars.iter().map(|s| s.init).collect(),
            scalar_src: vec![NO_DEP; prog.scalars.len()],
            loop_vars: vec![0; prog.loop_var_count],
            seg: Vec::with_capacity(SEGMENT_FLUSH_OPS + SEGMENT_SLACK_OPS),
            store_stamp: prog
                .arrays
                .iter()
                .map(|a| vec![(0, NO_DEP); a.len])
                .collect(),
            epoch: 1,
        }
    }

    /// The address layout in use.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Ends the current segment, resetting dependence state, and returns
    /// its buffer. The caller must leave the buffer empty before the next
    /// op is emitted; [`Machine::run_host_segment`](crate::machine::Machine::run_host_segment)
    /// does.
    pub fn end_segment(&mut self) -> &mut Vec<DynOp> {
        self.epoch += 1;
        for s in &mut self.scalar_src {
            *s = NO_DEP;
        }
        &mut self.seg
    }

    /// Whether the segment is past [`SEGMENT_FLUSH_OPS`] and must be
    /// flushed at the end of the current loop iteration.
    pub fn segment_full(&self) -> bool {
        self.seg.len() > SEGMENT_FLUSH_OPS
    }

    fn emit(&mut self, kind: OpKind, dep1: u32, dep2: u32) -> u32 {
        let i = self.seg.len() as u32;
        self.seg.push(DynOp { kind, dep1, dep2 });
        i
    }

    /// Emits a loop-control overhead op (induction increment + branch).
    pub fn emit_loop_overhead(&mut self) {
        self.emit(OpKind::Alu { lat: 1 }, NO_DEP, NO_DEP);
    }

    /// Marks a scalar as externally updated (offload live-out read back).
    pub fn set_scalar_external(&mut self, s: ScalarId, v: Value) {
        self.scalars[s.0] = v;
        self.scalar_src[s.0] = NO_DEP;
    }

    /// Evaluates an expression, returning its value and producing-op index.
    pub fn eval(&mut self, e: &Expr, mem: &mut Memory) -> (Value, u32) {
        match e {
            Expr::Const(v) => (*v, NO_DEP),
            Expr::LoopVar(lv) => (Value::I(self.loop_vars[lv.0]), NO_DEP),
            Expr::Scalar(s) => (self.scalars[s.0], self.scalar_src[s.0]),
            Expr::Load(a, idx) => {
                let (iv, idep) = self.eval(idx, mem);
                let i = iv.as_i64();
                let addr = self.layout.addr(*a, i);
                let slot = i.max(0) as usize;
                let mdep = match self.store_stamp[a.0].get(slot) {
                    Some(&(ep, op)) if ep == self.epoch => op,
                    _ => NO_DEP,
                };
                let op = self.emit(OpKind::Load { addr }, idep, mdep);
                (mem.load(*a, i), op)
            }
            Expr::Bin(op, a, b) => {
                let (va, da) = self.eval(a, mem);
                let (vb, db) = self.eval(b, mem);
                let lat = op.latency() as u8;
                let i = self.emit(OpKind::Alu { lat }, da, db);
                (op.apply(va, vb), i)
            }
            Expr::Un(op, a) => {
                let (va, da) = self.eval(a, mem);
                let lat = op.latency() as u8;
                let i = self.emit(OpKind::Alu { lat }, da, NO_DEP);
                (op.apply(va), i)
            }
            Expr::Select(c, a, b) => {
                let (vc, dc) = self.eval(c, mem);
                let (va, da) = self.eval(a, mem);
                let (vb, db) = self.eval(b, mem);
                let chosen = if vc.truthy() { da } else { db };
                let i = self.emit(OpKind::Alu { lat: 1 }, dc, chosen);
                (if vc.truthy() { va } else { vb }, i)
            }
        }
    }

    /// Executes `array[idx] = value` on the host.
    pub fn store(&mut self, a: ArrayId, idx: &Expr, val: &Expr, mem: &mut Memory) {
        let (iv, idep) = self.eval(idx, mem);
        let (v, vdep) = self.eval(val, mem);
        let i = iv.as_i64();
        let addr = self.layout.addr(a, i);
        let op = self.emit(OpKind::Store { addr }, vdep, idep);
        let slot = i.max(0) as usize;
        if let Some(st) = self.store_stamp[a.0].get_mut(slot) {
            *st = (self.epoch, op);
        }
        mem.store(a, i, v);
    }

    /// Executes `scalar = value` on the host.
    pub fn set_scalar(&mut self, s: ScalarId, val: &Expr, mem: &mut Memory) {
        let (v, dep) = self.eval(val, mem);
        self.scalars[s.0] = v;
        self.scalar_src[s.0] = dep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_ir::prelude::*;

    fn setup() -> (Program, HostEval, Memory) {
        let mut b = ProgramBuilder::new("t");
        let x = b.array_i64("x", 8);
        b.scalar("s", 0i64);
        let p = b.build();
        let layout = Layout::new(&p, 0x1000);
        let mut mem = Memory::for_program(&p);
        for i in 0..8 {
            mem.array_mut(x)[i] = Value::I(i as i64 * 10);
        }
        let eval = HostEval::new(&p, layout);
        (p, eval, mem)
    }

    #[test]
    fn eval_emits_ops_and_values() {
        let (_, mut ev, mut mem) = setup();
        let e = Expr::load(ArrayId(0), Expr::c(3)) + Expr::c(1);
        let (v, dep) = ev.eval(&e, &mut mem);
        assert_eq!(v, Value::I(31));
        assert_ne!(dep, distda_ir::NO_DEP);
        assert_eq!(ev.seg.len(), 2); // load + add
    }

    #[test]
    fn store_then_load_has_memory_dep() {
        let (_, mut ev, mut mem) = setup();
        ev.store(ArrayId(0), &Expr::c(2), &Expr::c(7), &mut mem);
        let (v, _) = ev.eval(&Expr::load(ArrayId(0), Expr::c(2)), &mut mem);
        assert_eq!(v, Value::I(7));
        let load = ev
            .seg
            .iter()
            .find(|o| matches!(o.kind, distda_ir::OpKind::Load { .. }))
            .unwrap();
        // dep2 is the memory dep on the store (op 0).
        assert_eq!(load.dep2, 0);
    }

    #[test]
    fn segments_reset_dependences() {
        let (_, mut ev, mut mem) = setup();
        ev.store(ArrayId(0), &Expr::c(1), &Expr::c(9), &mut mem);
        ev.end_segment().clear();
        let (_, _) = ev.eval(&Expr::load(ArrayId(0), Expr::c(1)), &mut mem);
        assert_eq!(
            ev.end_segment()[0].dep2,
            distda_ir::NO_DEP,
            "cross-segment dep dropped"
        );
    }

    #[test]
    fn segment_is_full_at_the_first_iteration_boundary_past_the_limit() {
        let (_, mut ev, mut mem) = setup();
        let (ptr, cap) = (ev.seg.as_ptr(), ev.seg.capacity());
        // The walker's host loop: an overhead op and the body, then the
        // flush check at the end of the iteration. Three ops per iteration
        // do not divide the limit, so the crossing iteration runs past it.
        let mut iterations = 0;
        while !ev.segment_full() {
            ev.emit_loop_overhead();
            let val = Expr::load(ArrayId(0), Expr::c(1));
            ev.store(ArrayId(0), &Expr::c(1), &val, &mut mem);
            iterations += 1;
        }
        assert_eq!(iterations, SEGMENT_FLUSH_OPS / 3 + 1);
        assert_eq!(ev.seg.len(), 3 * iterations);
        assert!(ev.seg.len() - 3 <= SEGMENT_FLUSH_OPS);
        // The full segment fit the buffer reserved up front.
        assert_eq!((ev.seg.as_ptr(), ev.seg.capacity()), (ptr, cap));
    }

    #[test]
    fn scalar_updates_thread_dependences() {
        let (_, mut ev, mut mem) = setup();
        let s = ScalarId(0);
        ev.set_scalar(s, &(Expr::c(1) + Expr::c(2)), &mut mem);
        assert_eq!(ev.scalars[0], Value::I(3));
        let (v, dep) = ev.eval(&Expr::Scalar(s), &mut mem);
        assert_eq!(v, Value::I(3));
        assert_ne!(dep, distda_ir::NO_DEP);
        ev.set_scalar_external(s, Value::I(42));
        let (v2, dep2) = ev.eval(&Expr::Scalar(s), &mut mem);
        assert_eq!(v2, Value::I(42));
        assert_eq!(dep2, distda_ir::NO_DEP);
    }
}
