//! The x86_64 emitter: lowers a [`DProg`] to two straight-line native
//! functions (value-only, and value+gradient) in one byte buffer.
//!
//! # Strategy: full unrolling
//!
//! Every loop trip count, span length, and table index in a `DProg` is
//! static (the compiler constant-folds data at bind time), so the emitted
//! code is *pure straight-line*: loops and span ops unroll completely,
//! `A::Table`/`VA::Table` operands fold to immediate constants, and
//! `Reg { base, stride }` references resolve to absolute byte displacements
//! off the register-file base pointer. There are no back-edges — the only
//! branches are short forward skips implementing the interpreter's reverse
//! zero-guards and `Option` checks. Programs whose unrolled form exceeds
//! [`MAX_CODE_BYTES`] decline and keep the interpreter.
//!
//! # Fidelity contract
//!
//! The emitted instruction sequence replicates the interpreter's arithmetic
//! *operation by operation*: the same IEEE ops in the same order, the same
//! accumulation order (`score`/`jac` kept in dedicated stack slots), literal
//! `partial * g` multiplies even when the partial is `±1.0` (an algebraic
//! shortcut would differ bitwise on NaN adjoints), and zero-guards compiled
//! as `ucomisd` + `jp`(body) + `je`(skip) so a NaN adjoint takes the body
//! exactly as `g != 0.0` does in Rust. Anything transcendental or branchy
//! calls the interpreter's own code through the [`super::abi`] shims.
//! `tests/jit_equivalence.rs` holds the result to bitwise equality.
//!
//! # Register and stack discipline
//!
//! See [`super`] (the module-level docs) for the frame layout and ABI. In
//! short: `r12` = register-file base, `r13` = adjoint base (both
//! callee-saved, live across shim calls), `rax` = scratch for immediate
//! materialization and call targets, `xmm0..xmm4` = expression operands,
//! `xmm5` = negation mask scratch, `xmm6` = read-modify-write scratch for
//! `+=` sequences, `xmm7` = the zero for guard compares, `xmm8..xmm15` =
//! the adjoint register cache (below). Values that must survive a shim call
//! (the adjoint seed `g`, the `MaxVal` accumulator) are spilled to fixed
//! frame slots, since every XMM register is caller-saved.
//!
//! # Adjoint register cache
//!
//! A broadcast operand (`alpha` in `alpha + beta * x[i]`) has its adjoint
//! bumped once per element, and as a memory read-modify-write each bump
//! waits on the previous one's store. The reverse pass therefore keeps the
//! running sums of hot adjoint slots in registers, one *region* at a time:
//!
//! * a region is one reverse arm of `VBin`/`VUn`/`Dot`/`Sum`/`MatVec`/
//!   `AddScoreSpan`, or a whole unrolled `Loop`, whose emitted code calls no
//!   shim (the shims clobber every XMM register, so a call would end the
//!   region); regions do not nest;
//! * the slots the region bumps at least twice, at most eight ranked by
//!   bump count, are loaded into `xmm8..xmm15` before the region's first
//!   zero-guard and stored back after its last, so both paths of every
//!   guard see one register state; the other slots keep the memory bump;
//! * inside the region every bump of a cached slot is one `addsd` into its
//!   register and every seed read of it (`load_adj`) reads the register,
//!   so no instruction reaches a cached slot through memory and aliasing
//!   needs no separate check.
//!
//! Each slot still receives exactly the same `addsd` operands in the same
//! order; only where the running sum lives changes. The cache is therefore
//! bitwise invisible: values, gradients and every sampler statistic built
//! on them are unchanged.

use super::super::UF;
use super::super::{constraint_partials, BinF, DProg, Decline, Op, A, VA};
use super::abi;
use minidiff::rules::UnFn;
use probdist::Constraint;

/// Unrolled-code budget; programs that exceed it decline to the interpreter
/// (straight-line code far past this stops being an instruction-cache win).
const MAX_CODE_BYTES: usize = 4 << 20;

// Frame-slot displacements off `rsp` (64-byte scratch area, see prologue).
const OFF_SCORE: i32 = 0; // running `acc.score`
const OFF_JAC: i32 = 8; // running `acc.jac`
const OFF_OUT: i32 = 16; // 4-slot shim output: [dx, d0, d1, d2]
const OFF_G: i32 = 48; // adjoint seed spilled across shim calls
const OFF_ACC: i32 = 56; // reduction accumulator live across shim calls
const FRAME: u8 = 64;

/// Adjoint cache capacity per reverse region: the registers xmm8..xmm15.
const CACHE_REGS: usize = 8;

/// The emitted buffer plus the byte offsets of its two entry points.
pub(super) struct Emitted {
    pub(super) code: Vec<u8>,
    pub(super) value_off: usize,
    pub(super) grad_off: usize,
}

/// Memory-operand base registers the emitter addresses through.
#[derive(Clone, Copy, PartialEq)]
enum Base {
    /// `r12` — the register file (`ws.regs`).
    Regs,
    /// `r13` — the adjoint buffer (`ws.adj`).
    Adj,
    /// `rsp` — the 64-byte scratch frame.
    Rsp,
}

/// Raw instruction encoder. Every method appends one instruction; memory
/// operands are always `[base + disp32]` (mod=10), with a SIB byte when the
/// base is `rsp`/`r12` and `REX.B` when it is `r12`/`r13`.
struct Asm {
    code: Vec<u8>,
}

impl Asm {
    fn pos(&self) -> usize {
        self.code.len()
    }

    fn byte(&mut self, b: u8) {
        self.code.push(b);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.code.extend_from_slice(bs);
    }

    fn imm32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn imm64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn mem_modrm(&mut self, reg: u8, base: Base, disp: i32) {
        match base {
            Base::Regs | Base::Rsp => {
                // rm=100 → SIB follows; SIB 0x24 = no index, base = rsp/r12.
                self.byte(0x80 | (reg << 3) | 0x04);
                self.byte(0x24);
            }
            Base::Adj => {
                self.byte(0x80 | (reg << 3) | 0x05);
            }
        }
        self.imm32(disp as u32);
    }

    /// A REX prefix carrying the high bits of the ModRM `reg` (`REX.R`) and
    /// `rm`/base (`REX.B`) fields, omitted when both are clear.
    fn rex(&mut self, reg_hi: bool, rm_hi: bool) {
        if reg_hi || rm_hi {
            self.byte(0x40 | (u8::from(reg_hi) << 2) | u8::from(rm_hi));
        }
    }

    /// Two-byte-opcode SSE instruction, register-register form (xmm0–15).
    fn sse_rr(&mut self, prefix: u8, opcode: u8, dst: u8, src: u8) {
        self.byte(prefix);
        self.rex(dst >= 8, src >= 8);
        self.byte(0x0F);
        self.byte(opcode);
        self.byte(0xC0 | ((dst & 7) << 3) | (src & 7));
    }

    /// Two-byte-opcode SSE instruction with a `[base + disp]` operand
    /// (xmm0–15; `REX.B` selects r12/r13).
    fn sse_mem(&mut self, prefix: u8, opcode: u8, xmm: u8, base: Base, disp: i32) {
        self.byte(prefix);
        self.rex(xmm >= 8, base != Base::Rsp);
        self.byte(0x0F);
        self.byte(opcode);
        self.mem_modrm(xmm & 7, base, disp);
    }

    /// `ucomisd` result dispatch for the interpreter's `if g != 0.0` guard:
    /// unordered (NaN) jumps into the body via `jp`, equal-to-zero skips it
    /// via `je`. Returns the `je` fixup to [`Asm::bind`] at the skip label.
    fn jump_if_zero(&mut self) -> usize {
        self.bytes(&[0x7A, 0x06]); // jp +6 (over the je) → body
        self.bytes(&[0x0F, 0x84]); // je rel32 → skip
        let fix = self.pos();
        self.imm32(0);
        fix
    }

    /// `jz rel32` with a fixup (after `test eax, eax`).
    fn jz(&mut self) -> usize {
        self.bytes(&[0x0F, 0x84]);
        let fix = self.pos();
        self.imm32(0);
        fix
    }

    /// Patches a recorded rel32 fixup to jump to the current position.
    fn bind(&mut self, fix: usize) {
        let rel = (self.pos() as i64 - (fix as i64 + 4)) as i32;
        self.code[fix..fix + 4].copy_from_slice(&rel.to_le_bytes());
    }
}

/// The per-program emitter: walks the op list (twice — value entry and
/// gradient entry) translating each op exactly as the interpreter executes
/// it.
struct E<'a> {
    dp: &'a DProg,
    a: Asm,
    /// The adjoint register cache of the open reverse region:
    /// `(adjoint slot, xmm register)` pairs, empty outside regions.
    cache: Vec<(usize, u8)>,
}

/// Where a scalar/vector operand's adjoint lands, if anywhere — `None`
/// operands (constants, tables) take no reverse bump and their ops can be
/// skipped entirely when nothing else observes them.
fn a_adj(a: A, iter: u32) -> Option<usize> {
    match a {
        A::Reg(r) => Some(r.at(iter)),
        A::Const(_) | A::Table(_) => None,
    }
}

fn va_adj(a: VA, i: usize) -> Option<usize> {
    match a {
        VA::Span(s) => Some(s as usize + i),
        VA::RegS(r) => Some(r.at(0)),
        VA::Table(_) | VA::ConstS(_) => None,
    }
}

fn a_live(a: &A) -> bool {
    matches!(a, A::Reg(_))
}

fn va_live(a: &VA) -> bool {
    matches!(a, VA::Span(_) | VA::RegS(_))
}

/// Whether reversing this op can write any adjoint (if not, the emitted
/// reverse pass omits it — the interpreter would execute it with no
/// observable effect).
fn has_reverse_effect(op: &Op) -> bool {
    match op {
        Op::Bin { a, b, .. } => a_live(a) || a_live(b),
        Op::Un { a, .. } | Op::Mov { a, .. } | Op::AddScore { a } => a_live(a),
        Op::VBin { a, b, .. } => va_live(a) || va_live(b),
        Op::VUn { a, .. } | Op::Sum { a, .. } | Op::AddScoreSpan { a, .. } => va_live(a),
        Op::Dot { a, b, .. } => va_live(a) || va_live(b),
        Op::MatVec { x, .. } => va_live(x),
        Op::MaxVal { .. } => false,
        Op::Constrain { .. } => true,
        Op::ScoreElem { x, args, k, .. } | Op::ScoreVal { x, args, k, .. } => {
            a_live(x) || args[..*k as usize].iter().any(a_live)
        }
        Op::ScoreSweep { xs, args, k, .. } | Op::ScoreSweepVal { xs, args, k, .. } => {
            matches!(xs, super::super::VX::Span(_))
                || args[..*k as usize].iter().any(|sa| {
                    matches!(
                        sa,
                        super::super::SA::Span(_) | super::super::SA::Sc(A::Reg(_))
                    )
                })
        }
        Op::Loop { body, .. } => body.iter().any(has_reverse_effect),
    }
}

/// Whether the reverse arm of `op` can own an adjoint register cache: the
/// span ops and loops, when the emitted reverse code makes no shim call
/// (the shims clobber every XMM register).
fn opens_region(op: &Op) -> bool {
    matches!(
        op,
        Op::VBin { .. }
            | Op::VUn { .. }
            | Op::Dot { .. }
            | Op::Sum { .. }
            | Op::MatVec { .. }
            | Op::AddScoreSpan { .. }
            | Op::Loop { .. }
    ) && !reverse_calls(op)
}

/// Whether the emitted reverse code of `op` calls a shim. Mirrors the
/// inline arms of `bin_reverse_body`, `un_reverse_body` and the
/// `Constrain` reverse.
fn reverse_calls(op: &Op) -> bool {
    let bin_calls = |f: &BinF| !matches!(f, BinF::Add | BinF::Sub | BinF::Mul | BinF::Div);
    let un_calls = |f: &UF| {
        !matches!(
            f,
            UF::R(UnFn::Neg | UnFn::Exp | UnFn::Ln | UnFn::Sqrt | UnFn::Recip | UnFn::Tanh)
        )
    };
    match op {
        Op::Bin { f, .. } | Op::VBin { f, .. } => bin_calls(f),
        Op::Un { f, .. } | Op::VUn { f, .. } => un_calls(f),
        Op::Constrain { kind, .. } => !matches!(kind, Constraint::None),
        Op::ScoreElem { .. }
        | Op::ScoreVal { .. }
        | Op::ScoreSweep { .. }
        | Op::ScoreSweepVal { .. } => true,
        Op::Loop { body, .. } => body
            .iter()
            .any(|op| has_reverse_effect(op) && reverse_calls(op)),
        Op::Mov { .. }
        | Op::Dot { .. }
        | Op::Sum { .. }
        | Op::MatVec { .. }
        | Op::MaxVal { .. }
        | Op::AddScore { .. }
        | Op::AddScoreSpan { .. } => false,
    }
}

/// Appends every adjoint slot the reverse arm of `op` bumps, once per
/// bump (the region cache ranks slots by these counts).
fn bump_slots(op: &Op, iter: u32, out: &mut Vec<usize>) {
    match op {
        Op::Bin { a, b, .. } => out.extend(a_adj(*a, iter).into_iter().chain(a_adj(*b, iter))),
        Op::Un { a, .. } | Op::Mov { a, .. } | Op::AddScore { a } => out.extend(a_adj(*a, iter)),
        Op::VBin { a, b, len, .. } | Op::Dot { a, b, len, .. } => {
            for i in 0..*len as usize {
                out.extend(va_adj(*a, i).into_iter().chain(va_adj(*b, i)));
            }
        }
        Op::VUn { a, len, .. } | Op::Sum { a, len, .. } | Op::AddScoreSpan { a, len } => {
            out.extend((0..*len as usize).filter_map(|i| va_adj(*a, i)));
        }
        Op::MatVec { x, rows, cols, .. } => {
            for _ in 0..*rows {
                out.extend((0..*cols as usize).filter_map(|c| va_adj(*x, c)));
            }
        }
        Op::Constrain { src, len, .. } => out.extend(*src as usize..(*src + *len) as usize),
        Op::Loop { trip, body } => {
            for it in 0..*trip {
                for op in body {
                    bump_slots(op, it, out);
                }
            }
        }
        // Shim-calling or adjoint-free: never inside a cached region.
        Op::MaxVal { .. }
        | Op::ScoreElem { .. }
        | Op::ScoreVal { .. }
        | Op::ScoreSweep { .. }
        | Op::ScoreSweepVal { .. } => {}
    }
}

impl<'a> E<'a> {
    fn err(msg: &str) -> Decline {
        Decline::new(format!("jit: {msg}"))
    }

    fn check_size(&self) -> Result<(), Decline> {
        if self.a.pos() > MAX_CODE_BYTES {
            return Err(Self::err("unrolled code exceeds the size cap"));
        }
        Ok(())
    }

    fn table_f(&self, t: u32, i: usize) -> Result<f64, Decline> {
        self.dp
            .tables_f
            .get(t as usize)
            .and_then(|v| v.get(i))
            .copied()
            .ok_or_else(|| Self::err("table operand out of range"))
    }

    // -- value materialization --------------------------------------------

    /// `xmm<x> = c` (xorpd for +0.0, else a 64-bit immediate through rax).
    fn load_const(&mut self, x: u8, c: f64) {
        let bits = c.to_bits();
        if bits == 0 {
            self.a.sse_rr(0x66, 0x57, x, x); // xorpd x, x
        } else {
            self.a.bytes(&[0x48, 0xB8]); // mov rax, imm64
            self.a.imm64(bits);
            self.a.bytes(&[0x66, 0x48, 0x0F, 0x6E]); // movq x, rax
            self.a.byte(0xC0 | (x << 3));
        }
    }

    fn load_reg(&mut self, x: u8, idx: usize) {
        self.a.sse_mem(0xF2, 0x10, x, Base::Regs, (idx * 8) as i32);
    }

    fn store_reg(&mut self, x: u8, idx: usize) {
        self.a.sse_mem(0xF2, 0x11, x, Base::Regs, (idx * 8) as i32);
    }

    /// The cache register holding `adj[idx]`, if the open region cached it.
    fn cached(&self, idx: usize) -> Option<u8> {
        self.cache.iter().find(|&&(s, _)| s == idx).map(|&(_, x)| x)
    }

    fn load_adj(&mut self, x: u8, idx: usize) {
        match self.cached(idx) {
            Some(c) => self.a.sse_rr(0x66, 0x28, x, c), // movapd x, xmm<c>
            None => self.a.sse_mem(0xF2, 0x10, x, Base::Adj, (idx * 8) as i32),
        }
    }

    /// `adj[idx] += xmm<x>`: one `addsd` into the cache register when the
    /// slot is cached, else a read-modify-write through xmm6 (`x` must not
    /// be 6).
    fn add_adj(&mut self, x: u8, idx: usize) {
        debug_assert_ne!(x, 6);
        if let Some(c) = self.cached(idx) {
            self.a.sse_rr(0xF2, 0x58, c, x); // addsd xmm<c>, x → adj + v
            return;
        }
        let d = (idx * 8) as i32;
        self.a.sse_mem(0xF2, 0x10, 6, Base::Adj, d);
        self.a.sse_rr(0xF2, 0x58, 6, x); // addsd xmm6, x → adj + v
        self.a.sse_mem(0xF2, 0x11, 6, Base::Adj, d);
    }

    /// Opens a reverse region: loads the (up to [`CACHE_REGS`]) slots the
    /// region bumps most often, at least twice each, into xmm8.. —
    /// before the region's first guard.
    fn fill_cache(&mut self, op: &Op, iter: u32) {
        debug_assert!(self.cache.is_empty());
        let mut slots = Vec::new();
        bump_slots(op, iter, &mut slots);
        slots.sort_unstable();
        let mut hot: Vec<(usize, usize)> = slots
            .chunk_by(|a, b| a == b)
            .filter(|run| run.len() >= 2)
            .map(|run| (run.len(), run[0]))
            .collect();
        // Most bumps first; ties by slot, so emission is deterministic.
        hot.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (k, &(_, slot)) in hot.iter().take(CACHE_REGS).enumerate() {
            let x = 8 + k as u8;
            self.a.sse_mem(0xF2, 0x10, x, Base::Adj, (slot * 8) as i32);
            self.cache.push((slot, x));
        }
    }

    /// Closes the region: stores every cached running sum back, after the
    /// region's last guard.
    fn flush_cache(&mut self) {
        for (slot, x) in std::mem::take(&mut self.cache) {
            self.a.sse_mem(0xF2, 0x11, x, Base::Adj, (slot * 8) as i32);
        }
    }

    /// `[rsp+off] += xmm<x>` — the score/jac accumulators.
    fn acc_add(&mut self, x: u8, off: i32) {
        debug_assert_ne!(x, 6);
        self.a.sse_mem(0xF2, 0x10, 6, Base::Rsp, off);
        self.a.sse_rr(0xF2, 0x58, 6, x);
        self.a.sse_mem(0xF2, 0x11, 6, Base::Rsp, off);
    }

    fn spill(&mut self, x: u8, off: i32) {
        self.a.sse_mem(0xF2, 0x11, x, Base::Rsp, off);
    }

    fn reload(&mut self, x: u8, off: i32) {
        self.a.sse_mem(0xF2, 0x10, x, Base::Rsp, off);
    }

    /// `xmm<x> = -xmm<x>` via sign-bit xor (bitwise `f64::neg`).
    fn negate(&mut self, x: u8) {
        self.load_const(5, f64::from_bits(0x8000_0000_0000_0000));
        self.a.sse_rr(0x66, 0x57, x, 5); // xorpd x, xmm5
    }

    fn load_a(&mut self, x: u8, a: A, iter: u32) -> Result<(), Decline> {
        match a {
            A::Reg(r) => self.load_reg(x, r.at(iter)),
            A::Const(c) => self.load_const(x, c),
            A::Table(t) => {
                let c = self.table_f(t, iter as usize)?;
                self.load_const(x, c);
            }
        }
        Ok(())
    }

    fn load_va(&mut self, x: u8, a: VA, i: usize) -> Result<(), Decline> {
        match a {
            VA::Span(s) => self.load_reg(x, s as usize + i),
            VA::Table(t) => {
                let c = self.table_f(t, i)?;
                self.load_const(x, c);
            }
            VA::RegS(r) => self.load_reg(x, r.at(0)),
            VA::ConstS(c) => self.load_const(x, c),
        }
        Ok(())
    }

    // -- calls -------------------------------------------------------------

    fn call(&mut self, f: usize) {
        // Every XMM register is caller-saved: no call may sit in a region.
        debug_assert!(self.cache.is_empty(), "shim call inside a cached region");
        self.a.bytes(&[0x48, 0xB8]); // mov rax, imm64
        self.a.imm64(f as u64);
        self.a.bytes(&[0xFF, 0xD0]); // call rax
    }

    fn mov_rdi_imm(&mut self, v: u64) {
        self.a.bytes(&[0x48, 0xBF]);
        self.a.imm64(v);
    }

    fn mov_rsi_imm(&mut self, v: u64) {
        self.a.bytes(&[0x48, 0xBE]);
        self.a.imm64(v);
    }

    /// `lea rsi, [rsp + disp]` — a scratch-slot out-pointer for shims.
    fn lea_rsi_rsp(&mut self, disp: i32) {
        self.a.bytes(&[0x48, 0x8D, 0xB4, 0x24]);
        self.a.imm32(disp as u32);
    }

    /// `lea rsi, [r12 + 8·idx]` — `&mut regs[idx]` for the constrain shim.
    fn lea_rsi_regs(&mut self, idx: usize) {
        self.a.bytes(&[0x49, 0x8D, 0xB4, 0x24]);
        self.a.imm32((idx * 8) as u32);
    }

    fn mov_rdx_r12(&mut self) {
        self.a.bytes(&[0x4C, 0x89, 0xE2]);
    }

    fn mov_rcx_r13(&mut self) {
        self.a.bytes(&[0x4C, 0x89, 0xE9]);
    }

    /// Guard prologue for `if g != 0.0` with `g` in `xmm<x>`; returns the
    /// skip fixup.
    fn guard_nonzero(&mut self, x: u8) -> usize {
        self.a.sse_rr(0x66, 0x57, 7, 7); // xorpd xmm7, xmm7
        self.a.sse_rr(0x66, 0x2E, x, 7); // ucomisd x, xmm7
        self.a.jump_if_zero()
    }

    // -- function frame ----------------------------------------------------

    /// `extern "C" fn(regs: *mut f64, adj: *mut f64) -> f64` entry: saves
    /// rbp/r12/r13 (three pushes keep rsp 16-byte aligned at call sites),
    /// opens the 64-byte scratch frame, parks the base pointers, zeroes the
    /// score/jac accumulators.
    fn prologue(&mut self) {
        self.a.byte(0x55); // push rbp
        self.a.bytes(&[0x41, 0x54]); // push r12
        self.a.bytes(&[0x41, 0x55]); // push r13
        self.a.bytes(&[0x48, 0x83, 0xEC, FRAME]); // sub rsp, 64
        self.a.bytes(&[0x49, 0x89, 0xFC]); // mov r12, rdi
        self.a.bytes(&[0x49, 0x89, 0xF5]); // mov r13, rsi
        self.load_const(0, 0.0);
        self.spill(0, OFF_SCORE);
        self.spill(0, OFF_JAC);
    }

    /// Returns `score + jac` (the interpreter's `forward_sum`).
    fn epilogue(&mut self) {
        self.reload(0, OFF_SCORE);
        self.a.sse_mem(0xF2, 0x58, 0, Base::Rsp, OFF_JAC); // addsd xmm0, [jac]
        self.a.bytes(&[0x48, 0x83, 0xC4, FRAME]); // add rsp, 64
        self.a.bytes(&[0x41, 0x5D]); // pop r13
        self.a.bytes(&[0x41, 0x5C]); // pop r12
        self.a.byte(0x5D); // pop rbp
        self.a.byte(0xC3); // ret
    }

    // -- shared scalar-function bodies ------------------------------------

    /// `xmm0 = f(xmm0, xmm1)` (forward `BinF::value`).
    fn binf_value(&mut self, f: &BinF) {
        match f {
            BinF::Add => self.a.sse_rr(0xF2, 0x58, 0, 1),
            BinF::Sub => self.a.sse_rr(0xF2, 0x5C, 0, 1),
            BinF::Mul => self.a.sse_rr(0xF2, 0x59, 0, 1),
            BinF::Div => self.a.sse_rr(0xF2, 0x5E, 0, 1),
            _ => {
                self.mov_rdi_imm(f as *const BinF as usize as u64);
                self.call(abi::binf_value_c as *const () as usize);
            }
        }
    }

    /// `xmm0 = f(xmm0)` (forward `UF::value`).
    fn uf_value(&mut self, f: &UF) {
        match f {
            UF::R(UnFn::Neg) => self.negate(0),
            UF::R(UnFn::Sqrt) => self.a.sse_rr(0xF2, 0x51, 0, 0),
            UF::R(UnFn::Recip) => {
                self.a.sse_rr(0xF2, 0x10, 1, 0); // movsd xmm1, xmm0
                self.load_const(0, 1.0);
                self.a.sse_rr(0xF2, 0x5E, 0, 1); // 1.0 / x
            }
            _ => {
                self.mov_rdi_imm(f as *const UF as usize as u64);
                self.call(abi::uf_value_c as *const () as usize);
            }
        }
    }

    /// `adj[idx] += xmm<x> * g` with `g` in `xmm<gx>` (clobbers `xmm<x>`).
    fn mul_g_bump(&mut self, x: u8, gx: u8, idx: usize) {
        self.a.sse_rr(0xF2, 0x59, x, gx); // partial * g
        self.add_adj(x, idx);
    }

    /// One binary op's reverse body, with the guard already taken and `g`
    /// in xmm0. `la`/`lb` load the operand values; `ai`/`bi` are the
    /// operands' adjoint slots. Mirrors `f.partials(va, vb)` then
    /// `bump(a, da·g); bump(b, db·g)` exactly.
    #[allow(clippy::too_many_arguments)]
    fn bin_reverse_body(
        &mut self,
        f: &BinF,
        la: &dyn Fn(&mut Self, u8) -> Result<(), Decline>,
        lb: &dyn Fn(&mut Self, u8) -> Result<(), Decline>,
        ai: Option<usize>,
        bi: Option<usize>,
    ) -> Result<(), Decline> {
        match f {
            BinF::Add | BinF::Sub => {
                // (1.0, 1.0) / (1.0, -1.0): literal `da * g` multiplies.
                let db = if matches!(f, BinF::Add) { 1.0 } else { -1.0 };
                if let Some(i) = ai {
                    self.load_const(1, 1.0);
                    self.mul_g_bump(1, 0, i);
                }
                if let Some(i) = bi {
                    self.load_const(1, db);
                    self.mul_g_bump(1, 0, i);
                }
            }
            BinF::Mul => {
                // (da, db) = (vb, va)
                if let Some(i) = ai {
                    lb(self, 1)?;
                    self.mul_g_bump(1, 0, i);
                }
                if let Some(i) = bi {
                    la(self, 1)?;
                    self.mul_g_bump(1, 0, i);
                }
            }
            BinF::Div => {
                if let Some(i) = ai {
                    // da = 1.0 / vb
                    self.load_const(1, 1.0);
                    lb(self, 2)?;
                    self.a.sse_rr(0xF2, 0x5E, 1, 2);
                    self.mul_g_bump(1, 0, i);
                }
                if let Some(i) = bi {
                    // db = -va / (vb * vb)
                    la(self, 1)?;
                    self.negate(1);
                    lb(self, 2)?;
                    self.a.sse_rr(0xF2, 0x59, 2, 2);
                    self.a.sse_rr(0xF2, 0x5E, 1, 2);
                    self.mul_g_bump(1, 0, i);
                }
            }
            _ => {
                // Max/Min/Zero*: partials through the interpreter's table.
                self.spill(0, OFF_G);
                la(self, 0)?;
                lb(self, 1)?;
                self.mov_rdi_imm(f as *const BinF as usize as u64);
                self.lea_rsi_rsp(OFF_OUT);
                self.call(abi::binf_partials_c as *const () as usize);
                self.reload(0, OFF_G);
                if let Some(i) = ai {
                    self.reload(1, OFF_OUT);
                    self.mul_g_bump(1, 0, i);
                }
                if let Some(i) = bi {
                    self.reload(1, OFF_OUT + 8);
                    self.mul_g_bump(1, 0, i);
                }
            }
        }
        Ok(())
    }

    /// One unary op's reverse body (guard taken, `g` in xmm0, operand
    /// adjoint slot `ai`, result register `fx_idx`). Mirrors
    /// `bump(a, f.partial(va, fx) * g)`.
    fn un_reverse_body(
        &mut self,
        f: &UF,
        la: &dyn Fn(&mut Self, u8) -> Result<(), Decline>,
        ai: usize,
        fx_idx: usize,
    ) -> Result<(), Decline> {
        match f {
            UF::R(UnFn::Neg) => {
                self.load_const(1, -1.0);
                self.mul_g_bump(1, 0, ai);
            }
            UF::R(UnFn::Exp) => {
                // partial = fx
                self.load_reg(1, fx_idx);
                self.mul_g_bump(1, 0, ai);
            }
            UF::R(UnFn::Ln) => {
                // partial = 1.0 / x
                self.load_const(1, 1.0);
                la(self, 2)?;
                self.a.sse_rr(0xF2, 0x5E, 1, 2);
                self.mul_g_bump(1, 0, ai);
            }
            UF::R(UnFn::Sqrt) => {
                // partial = 0.5 / fx
                self.load_const(1, 0.5);
                self.load_reg(2, fx_idx);
                self.a.sse_rr(0xF2, 0x5E, 1, 2);
                self.mul_g_bump(1, 0, ai);
            }
            UF::R(UnFn::Recip) => {
                // partial = -1.0 / (x * x)
                self.load_const(1, -1.0);
                la(self, 2)?;
                self.a.sse_rr(0xF2, 0x59, 2, 2);
                self.a.sse_rr(0xF2, 0x5E, 1, 2);
                self.mul_g_bump(1, 0, ai);
            }
            UF::R(UnFn::Tanh) => {
                // partial = 1.0 - fx * fx
                self.load_const(1, 1.0);
                self.load_reg(2, fx_idx);
                self.a.sse_rr(0xF2, 0x59, 2, 2);
                self.a.sse_rr(0xF2, 0x5C, 1, 2);
                self.mul_g_bump(1, 0, ai);
            }
            _ => {
                self.spill(0, OFF_G);
                la(self, 0)?; // x
                self.load_reg(1, fx_idx); // fx
                self.mov_rdi_imm(f as *const UF as usize as u64);
                self.call(abi::uf_partial_c as *const () as usize);
                // partial * g
                self.a.sse_mem(0xF2, 0x59, 0, Base::Rsp, OFF_G);
                self.add_adj(0, ai);
            }
        }
        Ok(())
    }

    /// Loads `x` and the first `k` args of a score op into xmm0..xmm3
    /// (unused arg lanes zeroed, matching the interpreter's zero-filled
    /// `abuf`) and parks `&kind` in rdi.
    fn score_call_args(
        &mut self,
        kind: &probdist::DistKind,
        x: &A,
        args: &[A; 3],
        k: u8,
        iter: u32,
    ) -> Result<(), Decline> {
        self.mov_rdi_imm(kind as *const probdist::DistKind as usize as u64);
        self.load_a(0, *x, iter)?;
        for (j, arg) in args.iter().enumerate() {
            if j < k as usize {
                self.load_a(1 + j as u8, *arg, iter)?;
            } else {
                self.load_const(1 + j as u8, 0.0);
            }
        }
        Ok(())
    }

    /// Parks the sweep shim's pointer arguments: `(dp, op, regs[, adj])`.
    fn sweep_call_args(&mut self, op: &Op, with_adj: bool) {
        self.mov_rdi_imm(self.dp as *const DProg as usize as u64);
        self.mov_rsi_imm(op as *const Op as usize as u64);
        self.mov_rdx_r12();
        if with_adj {
            self.mov_rcx_r13();
        }
    }

    // -- forward pass ------------------------------------------------------

    fn forward_ops(&mut self, ops: &[Op], iter: u32) -> Result<(), Decline> {
        for op in ops {
            self.check_size()?;
            match op {
                Op::Bin { f, dst, a, b } => {
                    self.load_a(0, *a, iter)?;
                    self.load_a(1, *b, iter)?;
                    self.binf_value(f);
                    self.store_reg(0, dst.at(iter));
                }
                Op::Un { f, dst, a } => {
                    self.load_a(0, *a, iter)?;
                    self.uf_value(f);
                    self.store_reg(0, dst.at(iter));
                }
                Op::Mov { dst, a } => {
                    self.load_a(0, *a, iter)?;
                    self.store_reg(0, dst.at(iter));
                }
                Op::VBin { f, dst, a, b, len } => {
                    for i in 0..*len as usize {
                        self.check_size()?;
                        self.load_va(0, *a, i)?;
                        self.load_va(1, *b, i)?;
                        self.binf_value(f);
                        self.store_reg(0, *dst as usize + i);
                    }
                }
                Op::VUn { f, dst, a, len } => {
                    for i in 0..*len as usize {
                        self.check_size()?;
                        self.load_va(0, *a, i)?;
                        self.uf_value(f);
                        self.store_reg(0, *dst as usize + i);
                    }
                }
                Op::Dot { dst, a, b, len } => {
                    self.load_const(4, 0.0);
                    for i in 0..*len as usize {
                        self.check_size()?;
                        self.load_va(0, *a, i)?;
                        self.load_va(1, *b, i)?;
                        self.a.sse_rr(0xF2, 0x59, 0, 1); // va * vb
                        self.a.sse_rr(0xF2, 0x58, 4, 0); // s += …
                    }
                    self.store_reg(4, *dst as usize);
                }
                Op::Sum { dst, a, len } => {
                    self.load_const(4, 0.0);
                    for i in 0..*len as usize {
                        self.check_size()?;
                        self.load_va(0, *a, i)?;
                        self.a.sse_rr(0xF2, 0x58, 4, 0);
                    }
                    self.store_reg(4, *dst as usize);
                }
                Op::MatVec {
                    dst,
                    mat,
                    x,
                    rows,
                    cols,
                } => {
                    let cols_u = *cols as usize;
                    for r in 0..*rows as usize {
                        self.check_size()?;
                        self.load_const(4, 0.0);
                        for c in 0..cols_u {
                            let m = self.table_f(*mat, r * cols_u + c)?;
                            self.load_const(0, m);
                            self.load_va(1, *x, c)?;
                            self.a.sse_rr(0xF2, 0x59, 0, 1); // m · x[c]
                            self.a.sse_rr(0xF2, 0x58, 4, 0);
                        }
                        self.store_reg(4, *dst as usize + r);
                    }
                }
                Op::MaxVal { dst, a, len } => {
                    // m = m.max(v) through the f64::max shim (maxsd differs
                    // on NaN); the accumulator lives in a frame slot across
                    // the calls.
                    self.load_const(0, f64::NEG_INFINITY);
                    self.spill(0, OFF_ACC);
                    for i in 0..*len as usize {
                        self.check_size()?;
                        self.reload(0, OFF_ACC);
                        self.load_va(1, *a, i)?;
                        self.call(abi::fmax_c as *const () as usize);
                        self.spill(0, OFF_ACC);
                    }
                    self.reload(0, OFF_ACC);
                    self.store_reg(0, *dst as usize);
                }
                Op::Constrain {
                    kind,
                    src,
                    dst,
                    len,
                } => {
                    for c in 0..*len as usize {
                        self.check_size()?;
                        let src_i = *src as usize + c;
                        let dst_i = *dst as usize + c;
                        if matches!(kind, Constraint::None) {
                            // to_constrained = identity, log_jacobian = 0.0
                            self.load_reg(0, src_i);
                            self.store_reg(0, dst_i);
                            self.load_const(0, 0.0);
                            self.acc_add(0, OFF_JAC);
                        } else {
                            self.mov_rdi_imm(kind as *const Constraint as usize as u64);
                            self.lea_rsi_regs(dst_i);
                            self.load_reg(0, src_i);
                            self.call(abi::constrain_forward_c as *const () as usize);
                            self.acc_add(0, OFF_JAC);
                        }
                    }
                }
                Op::ScoreElem { kind, x, args, k } => {
                    self.score_call_args(kind, x, args, *k, iter)?;
                    self.call(abi::elem_value_c as *const () as usize);
                    self.acc_add(0, OFF_SCORE);
                }
                Op::ScoreVal {
                    kind,
                    dst,
                    x,
                    args,
                    k,
                } => {
                    self.score_call_args(kind, x, args, *k, iter)?;
                    self.call(abi::elem_value_c as *const () as usize);
                    self.store_reg(0, dst.at(iter));
                }
                Op::ScoreSweep { .. } => {
                    self.sweep_call_args(op, false);
                    self.call(abi::sweep_sum_c as *const () as usize);
                    self.acc_add(0, OFF_SCORE);
                }
                Op::ScoreSweepVal { dst, .. } => {
                    self.sweep_call_args(op, false);
                    self.call(abi::sweep_sum_c as *const () as usize);
                    self.store_reg(0, *dst as usize);
                }
                Op::AddScore { a } => {
                    self.load_a(0, *a, iter)?;
                    self.acc_add(0, OFF_SCORE);
                }
                Op::AddScoreSpan { a, len } => {
                    for i in 0..*len as usize {
                        self.check_size()?;
                        self.load_va(0, *a, i)?;
                        self.acc_add(0, OFF_SCORE);
                    }
                }
                Op::Loop { trip, body } => {
                    for it in 0..*trip {
                        self.forward_ops(body, it)?;
                    }
                }
            }
        }
        Ok(())
    }

    // -- reverse pass ------------------------------------------------------

    fn reverse_ops(&mut self, ops: &[Op], iter: u32) -> Result<(), Decline> {
        for op in ops.iter().rev() {
            self.check_size()?;
            if !has_reverse_effect(op) {
                continue;
            }
            // Regions do not nest: inside a cached loop, the body's span
            // ops bump through the loop's cache.
            let region = self.cache.is_empty() && opens_region(op);
            if region {
                self.fill_cache(op, iter);
            }
            self.reverse_op(op, iter)?;
            if region {
                self.flush_cache();
            }
        }
        Ok(())
    }

    /// One op's reverse arm, exactly as the interpreter's `reverse_lanes`.
    fn reverse_op(&mut self, op: &Op, iter: u32) -> Result<(), Decline> {
        match op {
            Op::Bin { f, dst, a, b } => {
                self.load_adj(0, dst.at(iter));
                let skip = self.guard_nonzero(0);
                let (av, bv) = (*a, *b);
                self.bin_reverse_body(
                    f,
                    &move |e, x| e.load_a(x, av, iter),
                    &move |e, x| e.load_a(x, bv, iter),
                    a_adj(av, iter),
                    a_adj(bv, iter),
                )?;
                self.a.bind(skip);
            }
            Op::Un { f, dst, a } => {
                let Some(ai) = a_adj(*a, iter) else {
                    return Ok(());
                };
                self.load_adj(0, dst.at(iter));
                let skip = self.guard_nonzero(0);
                let av = *a;
                self.un_reverse_body(f, &move |e, x| e.load_a(x, av, iter), ai, dst.at(iter))?;
                self.a.bind(skip);
            }
            Op::Mov { dst, a } => {
                let Some(ai) = a_adj(*a, iter) else {
                    return Ok(());
                };
                self.load_adj(0, dst.at(iter));
                let skip = self.guard_nonzero(0);
                self.add_adj(0, ai); // bump(a, g)
                self.a.bind(skip);
            }
            Op::VBin { f, dst, a, b, len } => {
                for i in 0..*len as usize {
                    self.check_size()?;
                    self.load_adj(0, *dst as usize + i);
                    let skip = self.guard_nonzero(0);
                    let (av, bv) = (*a, *b);
                    self.bin_reverse_body(
                        f,
                        &move |e, x| e.load_va(x, av, i),
                        &move |e, x| e.load_va(x, bv, i),
                        va_adj(av, i),
                        va_adj(bv, i),
                    )?;
                    self.a.bind(skip);
                }
            }
            Op::VUn { f, dst, a, len } => {
                for i in 0..*len as usize {
                    self.check_size()?;
                    let Some(ai) = va_adj(*a, i) else { continue };
                    self.load_adj(0, *dst as usize + i);
                    let skip = self.guard_nonzero(0);
                    let av = *a;
                    self.un_reverse_body(
                        f,
                        &move |e, x| e.load_va(x, av, i),
                        ai,
                        *dst as usize + i,
                    )?;
                    self.a.bind(skip);
                }
            }
            Op::Dot { dst, a, b, len } => {
                self.load_adj(0, *dst as usize);
                let skip = self.guard_nonzero(0);
                for i in 0..*len as usize {
                    self.check_size()?;
                    if let Some(ai) = va_adj(*a, i) {
                        self.load_va(1, *b, i)?; // da = vb
                        self.mul_g_bump(1, 0, ai);
                    }
                    if let Some(bi) = va_adj(*b, i) {
                        self.load_va(1, *a, i)?; // db = va
                        self.mul_g_bump(1, 0, bi);
                    }
                }
                self.a.bind(skip);
            }
            Op::Sum { dst, a, len } => {
                self.load_adj(0, *dst as usize);
                let skip = self.guard_nonzero(0);
                for i in 0..*len as usize {
                    self.check_size()?;
                    if let Some(ai) = va_adj(*a, i) {
                        self.add_adj(0, ai); // vbump(a, i, g)
                    }
                }
                self.a.bind(skip);
            }
            Op::MatVec {
                dst,
                mat,
                x,
                rows,
                cols,
            } => {
                let cols_u = *cols as usize;
                for r in 0..*rows as usize {
                    self.check_size()?;
                    self.load_adj(0, *dst as usize + r);
                    let skip = self.guard_nonzero(0);
                    for c in 0..cols_u {
                        if let Some(xi) = va_adj(*x, c) {
                            let m = self.table_f(*mat, r * cols_u + c)?;
                            self.load_const(1, m);
                            self.mul_g_bump(1, 0, xi); // m · g
                        }
                    }
                    self.a.bind(skip);
                }
            }
            Op::MaxVal { .. } => {}
            Op::Constrain {
                kind,
                src,
                dst,
                len,
            } => {
                // Unguarded, forward element order, exactly
                // `adj[src+c] += g·dxdu + djdu`.
                for c in 0..*len as usize {
                    self.check_size()?;
                    let src_i = *src as usize + c;
                    let dst_i = *dst as usize + c;
                    if matches!(kind, Constraint::None) {
                        let (dxdu, djdu) = constraint_partials(*kind, 0.0);
                        self.load_adj(0, dst_i);
                        self.load_const(1, dxdu);
                        self.a.sse_rr(0xF2, 0x59, 0, 1); // g · dxdu
                        self.load_const(1, djdu);
                        self.a.sse_rr(0xF2, 0x58, 0, 1); // + djdu
                        self.add_adj(0, src_i);
                    } else {
                        self.load_reg(0, src_i); // u
                        self.mov_rdi_imm(kind as *const Constraint as usize as u64);
                        self.lea_rsi_rsp(OFF_OUT);
                        self.call(abi::constrain_partials_c as *const () as usize);
                        self.load_adj(0, dst_i);
                        self.a.sse_mem(0xF2, 0x59, 0, Base::Rsp, OFF_OUT); // g·dxdu
                        self.a.sse_mem(0xF2, 0x58, 0, Base::Rsp, OFF_OUT + 8); // +djdu
                        self.add_adj(0, src_i);
                    }
                }
            }
            Op::ScoreElem { kind, x, args, k } => {
                // No guard and no seed multiply: bumps are dx / dp[j]
                // directly, skipped only when the kernel returns None.
                self.score_call_args(kind, x, args, *k, iter)?;
                self.lea_rsi_rsp(OFF_OUT);
                self.call(abi::elem_partials_c as *const () as usize);
                self.a.bytes(&[0x85, 0xC0]); // test eax, eax
                let skip = self.a.jz();
                if let Some(xi) = a_adj(*x, iter) {
                    self.reload(1, OFF_OUT);
                    self.add_adj(1, xi);
                }
                for (j, arg) in args.iter().enumerate().take(*k as usize) {
                    if let Some(aj) = a_adj(*arg, iter) {
                        self.reload(1, OFF_OUT + 8 + 8 * j as i32);
                        self.add_adj(1, aj);
                    }
                }
                self.a.bind(skip);
            }
            Op::ScoreVal {
                kind,
                dst,
                x,
                args,
                k,
            } => {
                self.load_adj(0, dst.at(iter));
                let guard = self.guard_nonzero(0);
                self.spill(0, OFF_G);
                self.score_call_args(kind, x, args, *k, iter)?;
                self.lea_rsi_rsp(OFF_OUT);
                self.call(abi::elem_partials_c as *const () as usize);
                self.a.bytes(&[0x85, 0xC0]);
                let skip = self.a.jz();
                if let Some(xi) = a_adj(*x, iter) {
                    self.reload(1, OFF_OUT);
                    self.a.sse_mem(0xF2, 0x59, 1, Base::Rsp, OFF_G); // dx·g
                    self.add_adj(1, xi);
                }
                for (j, arg) in args.iter().enumerate().take(*k as usize) {
                    if let Some(aj) = a_adj(*arg, iter) {
                        self.reload(1, OFF_OUT + 8 + 8 * j as i32);
                        self.a.sse_mem(0xF2, 0x59, 1, Base::Rsp, OFF_G);
                        self.add_adj(1, aj);
                    }
                }
                self.a.bind(skip);
                self.a.bind(guard);
            }
            Op::ScoreSweep { .. } => {
                self.sweep_call_args(op, true);
                self.load_const(0, 1.0); // seed
                self.call(abi::sweep_reverse_c as *const () as usize);
            }
            Op::ScoreSweepVal { dst, .. } => {
                // Seed = adj[dst], passed unguarded (the shim's early
                // return on 0.0 is the interpreter's own).
                self.sweep_call_args(op, true);
                self.load_adj(0, *dst as usize);
                self.call(abi::sweep_reverse_c as *const () as usize);
            }
            Op::AddScore { a } => {
                if let Some(ai) = a_adj(*a, iter) {
                    self.load_const(0, 1.0);
                    self.add_adj(0, ai);
                }
            }
            Op::AddScoreSpan { a, len } => {
                self.load_const(0, 1.0);
                for i in 0..*len as usize {
                    self.check_size()?;
                    if let Some(ai) = va_adj(*a, i) {
                        self.add_adj(0, ai);
                    }
                }
            }
            Op::Loop { trip, body } => {
                for it in (0..*trip).rev() {
                    self.reverse_ops(body, it)?;
                }
            }
        }
        Ok(())
    }
}

/// Emits the value and gradient entry points for `dp` into one buffer.
///
/// # Errors
/// Declines (never panics) when the unrolled code would exceed the size
/// cap, a displacement would overflow rel32 addressing, or a table operand
/// is malformed.
pub(super) fn emit(dp: &DProg) -> Result<Emitted, Decline> {
    if dp.n_regs.saturating_mul(8) > i32::MAX as usize {
        return Err(E::err("register file too large for disp32 addressing"));
    }
    let mut e = E {
        dp,
        a: Asm {
            code: Vec::with_capacity(4096),
        },
        cache: Vec::new(),
    };
    let value_off = 0;
    e.prologue();
    e.forward_ops(&dp.ops, 0)?;
    e.epilogue();
    let grad_off = e.a.pos();
    e.prologue();
    e.forward_ops(&dp.ops, 0)?;
    e.reverse_ops(&dp.ops, 0)?;
    e.epilogue();
    e.check_size()?;
    Ok(Emitted {
        code: e.a.code,
        value_off,
        grad_off,
    })
}
