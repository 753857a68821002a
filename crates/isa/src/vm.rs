//! The per-core virtual machine interpreting one atomic-region program.

use crate::{Instr, Program, Reg, NUM_REGS};
use clear_mem::Addr;
use std::fmt;
use std::sync::Arc;

/// Architectural side effect of retiring one instruction.
///
/// The VM itself never touches memory: loads and stores surface as effects
/// so the machine can route them through the store queue, the cache
/// hierarchy, HTM conflict detection and CLEAR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// A register-only instruction retired.
    Compute {
        /// Cycles the instruction occupies the core.
        cycles: u32,
    },
    /// A load issued. The VM is now blocked in [`VmState::AwaitLoad`]; call
    /// [`Vm::finish_load`] with the loaded value to unblock it.
    Load {
        /// Effective byte address.
        addr: Addr,
        /// Destination register (already recorded internally; exposed for
        /// tracing).
        dst: Reg,
        /// `true` if the address base register carried the indirection bit —
        /// i.e. the address depends on a value loaded inside this AR (§3).
        addr_indirect: bool,
    },
    /// A store retired.
    Store {
        /// Effective byte address.
        addr: Addr,
        /// Value to store.
        value: u64,
        /// `true` if the address base register carried the indirection bit.
        addr_indirect: bool,
    },
    /// A conditional branch retired.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
        /// `true` if either comparand carried the indirection bit — a
        /// control dependence on a value loaded inside the AR (§3).
        cond_indirect: bool,
    },
    /// `XEnd` retired: the atomic region requests commit.
    Commit,
    /// `XAbort` retired: the program explicitly aborts.
    Abort {
        /// Program-supplied abort code.
        code: u64,
    },
}

/// Execution state of a [`Vm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmState {
    /// Ready to retire the next instruction.
    Ready,
    /// Blocked on an outstanding load into the given register.
    AwaitLoad(Reg),
    /// The program committed or aborted; no further steps are legal.
    Finished,
}

/// Interprets one atomic-region [`Program`], tracking per-register
/// indirection bits exactly as the paper's extended register file (§5 ①).
///
/// The indirection bit of a register is set when it is written by a load,
/// or by any instruction whose source registers have the bit set; `Li`
/// clears it. Entry registers set via [`Vm::set_reg`] start non-indirect
/// (they were computed outside the AR).
#[derive(Clone)]
pub struct Vm {
    program: Arc<Program>,
    pc: usize,
    regs: [u64; NUM_REGS],
    indirect: [bool; NUM_REGS],
    state: VmState,
    retired: u64,
    stores_retired: u64,
    loads_retired: u64,
}

impl Vm {
    /// Creates a VM at the start of `program` with all registers zero.
    pub fn new(program: Arc<Program>) -> Self {
        Vm {
            program,
            pc: 0,
            regs: [0; NUM_REGS],
            indirect: [false; NUM_REGS],
            state: VmState::Ready,
            retired: 0,
            stores_retired: 0,
            loads_retired: 0,
        }
    }

    /// Sets an entry register (outside-the-AR input; indirection bit clear).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
        self.indirect[r.index()] = false;
    }

    /// Current value of a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Current indirection bit of a register.
    pub fn reg_indirect(&self, r: Reg) -> bool {
        self.indirect[r.index()]
    }

    /// Current state.
    pub fn state(&self) -> VmState {
        self.state
    }

    /// Instructions retired so far in this execution.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Stores retired so far (the machine checks this against the SQ size).
    pub fn stores_retired(&self) -> u64 {
        self.stores_retired
    }

    /// Loads retired so far.
    pub fn loads_retired(&self) -> u64 {
        self.loads_retired
    }

    /// Resets to the start of the program, clearing registers' indirection
    /// bits but *keeping their values* — the machine restores entry registers
    /// itself via [`Vm::set_reg`] on a retry.
    pub fn restart(&mut self) {
        self.pc = 0;
        self.state = VmState::Ready;
        self.retired = 0;
        self.stores_retired = 0;
        self.loads_retired = 0;
        self.indirect = [false; NUM_REGS];
    }

    fn effective_addr(&self, base: Reg, offset: i64) -> Addr {
        Addr(self.regs[base.index()].wrapping_add_signed(offset))
    }

    /// Returns the effect [`Vm::step`] would produce without retiring the
    /// instruction — the parallel-step classifier's lookahead. `step`
    /// computes its effect through the same [`Vm::effect_of`], so the two
    /// can never disagree.
    ///
    /// # Panics
    ///
    /// Panics exactly when [`Vm::step`] would.
    pub fn peek_effect(&self) -> Effect {
        assert_eq!(self.state, VmState::Ready, "peek_effect() while not ready");
        self.effect_of(self.program.fetch(self.pc))
    }

    /// The effect of retiring `instr` from the current registers (before
    /// any of its register, pc or state updates).
    fn effect_of(&self, instr: &Instr) -> Effect {
        match *instr {
            Instr::Li { .. }
            | Instr::Mv { .. }
            | Instr::Alu { .. }
            | Instr::AluImm { .. }
            | Instr::Jmp { .. } => Effect::Compute { cycles: 1 },
            // Null/unaligned addresses are surfaced to the runtime, which
            // treats them as simulated faults (§7's "Others" abort class),
            // not VM panics.
            Instr::Ld { rd, base, offset } => Effect::Load {
                addr: self.effective_addr(base, offset),
                dst: rd,
                addr_indirect: self.indirect[base.index()],
            },
            Instr::St { base, offset, src } => Effect::Store {
                addr: self.effective_addr(base, offset),
                value: self.regs[src.index()],
                addr_indirect: self.indirect[base.index()],
            },
            Instr::Branch { cond, rs1, rs2, .. } => Effect::Branch {
                taken: cond.eval(self.regs[rs1.index()], self.regs[rs2.index()]),
                cond_indirect: self.indirect[rs1.index()] || self.indirect[rs2.index()],
            },
            Instr::Nop { cycles } => Effect::Compute { cycles },
            Instr::XEnd => Effect::Commit,
            Instr::XAbort { code } => Effect::Abort { code },
        }
    }

    /// Retires the next instruction and returns its effect.
    ///
    /// # Panics
    ///
    /// Panics if the VM is [`VmState::Finished`] or blocked in
    /// [`VmState::AwaitLoad`] (call [`Vm::finish_load`] first). Null or
    /// unaligned effective addresses are *not* VM errors: they surface in
    /// the returned effect and the runtime treats them as simulated faults.
    pub fn step(&mut self) -> Effect {
        assert_eq!(self.state, VmState::Ready, "step() while not ready");
        let instr = self.program.fetch(self.pc).clone();
        let effect = self.effect_of(&instr);
        self.pc += 1;
        self.retired += 1;
        match instr {
            Instr::Li { rd, imm } => {
                self.regs[rd.index()] = imm;
                self.indirect[rd.index()] = false;
            }
            Instr::Mv { rd, rs } => {
                self.regs[rd.index()] = self.regs[rs.index()];
                self.indirect[rd.index()] = self.indirect[rs.index()];
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                self.regs[rd.index()] = op.apply(self.regs[rs1.index()], self.regs[rs2.index()]);
                self.indirect[rd.index()] =
                    self.indirect[rs1.index()] || self.indirect[rs2.index()];
            }
            Instr::AluImm { op, rd, rs, imm } => {
                self.regs[rd.index()] = op.apply(self.regs[rs.index()], imm);
                self.indirect[rd.index()] = self.indirect[rs.index()];
            }
            Instr::Ld { rd, .. } => {
                self.state = VmState::AwaitLoad(rd);
                self.loads_retired += 1;
            }
            Instr::St { .. } => self.stores_retired += 1,
            Instr::Branch { target, .. } => {
                if matches!(effect, Effect::Branch { taken: true, .. }) {
                    self.pc = self.program.resolve(target);
                }
            }
            Instr::Jmp { target } => self.pc = self.program.resolve(target),
            Instr::Nop { .. } => {}
            Instr::XEnd | Instr::XAbort { .. } => self.state = VmState::Finished,
        }
        effect
    }

    /// Completes an outstanding load with `value`, setting the destination
    /// register's indirection bit.
    ///
    /// # Panics
    ///
    /// Panics if no load is outstanding.
    pub fn finish_load(&mut self, value: u64) {
        match self.state {
            VmState::AwaitLoad(rd) => {
                self.regs[rd.index()] = value;
                self.indirect[rd.index()] = true;
                self.state = VmState::Ready;
            }
            _ => panic!("finish_load without outstanding load"),
        }
    }
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("pc", &self.pc)
            .field("state", &self.state)
            .field("retired", &self.retired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cond, ProgramBuilder};

    fn run_to_end(vm: &mut Vm, mem: &mut clear_mem::Memory) -> Effect {
        loop {
            match vm.step() {
                Effect::Load { addr, .. } => {
                    let v = mem.load_word(addr);
                    vm.finish_load(v);
                }
                Effect::Store { addr, value, .. } => mem.store_word(addr, value),
                e @ (Effect::Commit | Effect::Abort { .. }) => return e,
                _ => {}
            }
        }
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(0), 6)
            .li(Reg(1), 7)
            .alu(crate::AluOp::Mul, Reg(2), Reg(0), Reg(1))
            .xend();
        let mut vm = Vm::new(Arc::new(b.build()));
        let mut mem = clear_mem::Memory::new();
        assert_eq!(run_to_end(&mut vm, &mut mem), Effect::Commit);
        assert_eq!(vm.reg(Reg(2)), 42);
        assert_eq!(vm.retired(), 4);
    }

    #[test]
    fn load_sets_indirection_and_propagates() {
        let mut b = ProgramBuilder::new();
        b.ld(Reg(1), Reg(0), 0) // r1 <- mem[r0], r1 indirect
            .addi(Reg(2), Reg(1), 8) // r2 indirect via r1
            .ld(Reg(3), Reg(2), 0) // address base r2 is indirect
            .xend();
        let mut vm = Vm::new(Arc::new(b.build()));
        let mut mem = clear_mem::Memory::new();
        let a = mem.alloc_words(2);
        mem.store_word(a, a.0); // self-pointer
        vm.set_reg(Reg(0), a.0);

        // First load: base r0 is a direct entry register.
        match vm.step() {
            Effect::Load {
                addr_indirect,
                addr,
                ..
            } => {
                assert!(!addr_indirect);
                vm.finish_load(mem.load_word(addr));
            }
            e => panic!("unexpected {e:?}"),
        }
        assert!(vm.reg_indirect(Reg(1)));
        assert!(matches!(vm.step(), Effect::Compute { .. }));
        assert!(vm.reg_indirect(Reg(2)));

        // Second load: base r2 is indirect.
        match vm.step() {
            Effect::Load { addr_indirect, .. } => assert!(addr_indirect),
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn li_clears_indirection() {
        let mut b = ProgramBuilder::new();
        b.ld(Reg(1), Reg(0), 0)
            .li(Reg(1), 5)
            .st(Reg(1), 0, Reg(1))
            .xend();
        let mut vm = Vm::new(Arc::new(b.build()));
        let mut mem = clear_mem::Memory::new();
        let a = mem.alloc_words(1);
        vm.set_reg(Reg(0), a.0);
        match vm.step() {
            Effect::Load { addr, .. } => vm.finish_load(mem.load_word(addr)),
            e => panic!("unexpected {e:?}"),
        }
        vm.step(); // li
        match vm.step() {
            Effect::Store { addr_indirect, .. } => assert!(!addr_indirect),
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn branch_reports_control_indirection() {
        let mut b = ProgramBuilder::new();
        let out = b.label();
        b.ld(Reg(1), Reg(0), 0)
            .branch(Cond::Eq, Reg(1), Reg(2), out)
            .bind(out)
            .xend();
        let mut vm = Vm::new(Arc::new(b.build()));
        let mut mem = clear_mem::Memory::new();
        let a = mem.alloc_words(1);
        vm.set_reg(Reg(0), a.0);
        match vm.step() {
            Effect::Load { addr, .. } => vm.finish_load(mem.load_word(addr)),
            e => panic!("unexpected {e:?}"),
        }
        match vm.step() {
            Effect::Branch {
                cond_indirect,
                taken,
            } => {
                assert!(cond_indirect);
                assert!(taken); // 0 == 0
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn loop_terminates_via_branch() {
        // for r1 in 0..4 { }
        let mut b = ProgramBuilder::new();
        let top = b.label();
        let done = b.label();
        b.li(Reg(1), 0).li(Reg(2), 4);
        b.bind(top)
            .branch(Cond::Ge, Reg(1), Reg(2), done)
            .addi(Reg(1), Reg(1), 1)
            .jmp(top)
            .bind(done)
            .xend();
        let mut vm = Vm::new(Arc::new(b.build()));
        let mut mem = clear_mem::Memory::new();
        assert_eq!(run_to_end(&mut vm, &mut mem), Effect::Commit);
        assert_eq!(vm.reg(Reg(1)), 4);
    }

    #[test]
    fn peek_predicts_every_step_without_retiring() {
        // A pointer-chasing loop: loads, indirect stores, both branch
        // outcomes, a jump and a multi-cycle compute.
        let mut b = ProgramBuilder::new();
        let top = b.label();
        let done = b.label();
        b.li(Reg(1), 0).li(Reg(2), 3);
        b.bind(top)
            .branch(Cond::Ge, Reg(1), Reg(2), done)
            .ld(Reg(3), Reg(0), 0)
            .st(Reg(3), 8, Reg(1))
            .addi(Reg(1), Reg(1), 1)
            .compute(4)
            .jmp(top)
            .bind(done)
            .xend();
        let mut vm = Vm::new(Arc::new(b.build()));
        let mut mem = clear_mem::Memory::new();
        let a = mem.alloc_words(4);
        mem.store_word(a, a.0);
        vm.set_reg(Reg(0), a.0);
        loop {
            let retired = vm.retired();
            let peeked = vm.peek_effect();
            assert_eq!(vm.retired(), retired, "peek must not retire");
            let effect = vm.step();
            assert_eq!(peeked, effect);
            match effect {
                Effect::Load { addr, .. } => vm.finish_load(mem.load_word(addr)),
                Effect::Store { addr, value, .. } => mem.store_word(addr, value),
                Effect::Commit => break,
                _ => {}
            }
        }
        assert_eq!(vm.reg(Reg(1)), 3);
    }

    #[test]
    fn xabort_surfaces_code() {
        let mut b = ProgramBuilder::new();
        b.xabort(3);
        let mut vm = Vm::new(Arc::new(b.build()));
        assert_eq!(vm.step(), Effect::Abort { code: 3 });
        assert_eq!(vm.state(), VmState::Finished);
    }

    #[test]
    fn restart_resets_counters_and_indirection() {
        let mut b = ProgramBuilder::new();
        b.ld(Reg(1), Reg(0), 0).xend();
        let mut vm = Vm::new(Arc::new(b.build()));
        let mut mem = clear_mem::Memory::new();
        let a = mem.alloc_words(1);
        vm.set_reg(Reg(0), a.0);
        match vm.step() {
            Effect::Load { addr, .. } => vm.finish_load(mem.load_word(addr)),
            e => panic!("unexpected {e:?}"),
        }
        assert!(vm.reg_indirect(Reg(1)));
        vm.restart();
        assert_eq!(vm.retired(), 0);
        assert!(!vm.reg_indirect(Reg(1)));
        assert_eq!(vm.state(), VmState::Ready);
    }

    #[test]
    fn store_counts_tracked() {
        let mut b = ProgramBuilder::new();
        b.st(Reg(0), 0, Reg(1)).st(Reg(0), 8, Reg(1)).xend();
        let mut vm = Vm::new(Arc::new(b.build()));
        let mut mem = clear_mem::Memory::new();
        let a = mem.alloc_words(2);
        vm.set_reg(Reg(0), a.0);
        run_to_end(&mut vm, &mut mem);
        assert_eq!(vm.stores_retired(), 2);
        assert_eq!(vm.loads_retired(), 0);
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn step_while_awaiting_load_panics() {
        let mut b = ProgramBuilder::new();
        b.ld(Reg(1), Reg(0), 0).xend();
        let mut vm = Vm::new(Arc::new(b.build()));
        vm.set_reg(Reg(0), 64);
        vm.step();
        vm.step();
    }

    #[test]
    #[should_panic(expected = "without outstanding load")]
    fn finish_load_when_ready_panics() {
        let mut b = ProgramBuilder::new();
        b.xend();
        let mut vm = Vm::new(Arc::new(b.build()));
        vm.finish_load(0);
    }
}
