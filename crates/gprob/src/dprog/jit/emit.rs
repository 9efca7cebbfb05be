//! The x86_64 emitter: lowers a [`DProg`] to two native functions
//! (value-only, and value+gradient) in one byte buffer.
//!
//! # Strategy: rolled loops
//!
//! Every loop trip count, span length, and table index in a `DProg` is
//! static (the compiler constant-folds data at bind time), so the emitted
//! code needs no bounds checks and no dispatch. It keeps the program's own
//! loop structure: each `Loop` op becomes one native counted loop over its
//! body, and each span op (`VBin`, `VUn`, `Dot`, `Sum`, `MatVec`, `MaxVal`,
//! `Constrain`, `AddScoreSpan`) one counted loop over its elements
//! (`MatVec` two, rows then columns). Code size therefore follows the op
//! list, not the data: a time series of ten thousand steps emits the same
//! bytes as one of ten. Addressing follows the op's own operands:
//!
//! * `Reg { base, stride }` inside a loop is `[r12 + 8·base + 8·stride·iter]`,
//!   with `rbx = 8·iter`: a SIB scale of `stride` for strides 1, 2, 4 and 8,
//!   else `imul r11, rbx, stride` first (a loop-carried scalar written `w`
//!   times per iteration has stride `w`); outside loops it is `[r12 + 8·base]`;
//! * span element `i` is `[r12 + 8·start + r14]` with `r14 = 8·i`, and
//!   `MatVec` row `r` is `[r12 + 8·dst + r15]` with `r15 = 8·r`;
//! * `A::Table`, `VA::Table` and the `MatVec` matrix are loaded from the
//!   tables of the boxed [`DProg`] the [`super::JitProg`] owns (never
//!   mutated after bind), through `rax` (`r10` for the matrix row); outside
//!   loops an `A::Table` operand folds to its iteration-0 immediate.
//!
//! A forward loop counts up from 0; a reverse loop counts down from
//! `trip - 1` to 0 over its body ops in reverse order, exactly as the
//! interpreter's `reverse_lanes`. A loop expanded at bind time is already
//! straight-line ops in the program (each copy holding its rolled inner
//! loops), so the emitted code grows with those expansions; programs past
//! [`MAX_CODE_BYTES`] decline and keep the interpreter.
//!
//! # Fidelity contract
//!
//! The emitted instruction sequence replicates the interpreter's arithmetic
//! *operation by operation*: the same IEEE ops in the same order, the same
//! accumulation order (`score`/`jac` kept in dedicated stack slots), literal
//! `partial * g` multiplies even when the partial is `±1.0` (an algebraic
//! shortcut would differ bitwise on NaN adjoints), and zero-guards compiled
//! as `ucomisd` + `jp`(body) + `je`(skip) per element, so a NaN adjoint
//! takes the body exactly as `g != 0.0` does in Rust. Anything
//! transcendental or branchy calls the interpreter's own code through the
//! [`super::abi`] shims. `tests/jit_equivalence.rs` holds the result to
//! bitwise equality.
//!
//! # Register and stack discipline
//!
//! See [`super`] (the module-level docs) for the frame layout and ABI. In
//! short: `r12` = register-file base, `r13` = adjoint base, `rbx` = the
//! rolled loop's counter, `r14` = the span element counter, `r15` = the
//! `MatVec` row counter. All five are callee-saved, so they stay live across
//! shim calls; the prologue pushes them (five pushes keep `rsp` 16-byte
//! aligned at every call). `rax` = scratch for immediates, table bases and
//! call targets, `r10` = the `MatVec` row's matrix pointer and `r11` = the
//! scaled counter of a stride SIB cannot scale; those three are
//! caller-saved and never live across a call. `xmm0..xmm4` = expression
//! operands, `xmm5` = negation mask scratch, `xmm6` = read-modify-write
//! scratch for `+=` sequences, `xmm7` = the zero for guard compares,
//! `xmm8..xmm15` = the adjoint register cache (below). Values that must
//! survive a shim call (the adjoint seed `g`, the `MaxVal` accumulator) are
//! spilled to fixed frame slots, since every XMM register is caller-saved.
//!
//! # Adjoint register cache
//!
//! A broadcast operand (`alpha` in `alpha + beta * x[i]`) has its adjoint
//! bumped once per element, and as a memory read-modify-write each bump
//! waits on the previous one's store. The reverse pass therefore keeps the
//! running sums of hot adjoint slots in registers, one *region* at a time:
//!
//! * a region is one rolled loop: the reverse arm of `VBin`/`VUn`/`Dot`/
//!   `Sum`/`MatVec`/`AddScoreSpan`, or a whole `Loop`, whose emitted code
//!   calls no shim (the shims clobber every XMM register, so a call would
//!   end the region); regions do not nest;
//! * only fixed (stride-0) slots are cached, the broadcast α, β, σ, ranked
//!   by bumps per iteration, at most eight (ties by slot); a slot any
//!   per-iteration or per-element access of the region can reach is left
//!   out, so no instruction reaches a cached slot through memory;
//! * the cached slots are loaded into `xmm8..xmm15` before the loop and
//!   stored back after it, so both paths of every guard see one register
//!   state; inside, every bump of a cached slot is one `addsd` into its
//!   register and every seed read of it (`load_adj`) reads the register.
//!   Per-iteration slots keep the memory bump;
//! * `MatVec`'s reverse over a span `x` is the one exception: its `x`
//!   adjoints are per column, bumped once per row, so it runs the columns
//!   in groups of up to eight, each group's sums in `xmm8..` across a
//!   row loop (each slot still gets its terms in row order).
//!
//! Each slot still receives exactly the same `addsd` operands in the same
//! order; only where the running sum lives changes. The cache is therefore
//! bitwise invisible: values, gradients and every sampler statistic built
//! on them are unchanged.

use super::super::UF;
use super::super::{constraint_partials, BinF, DProg, Decline, Op, Reg, A, VA};
use super::abi;
use minidiff::rules::UnFn;
use probdist::Constraint;

/// Code budget; programs past it decline to the interpreter. Rolled code is
/// sized by the op list, so only very long programs (many loop expansions)
/// come near it.
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

// General-purpose register numbers (REX.B/X/R carry bit 3).
const RAX: u8 = 0;
const RBX: u8 = 3; // rolled loop counter, 8·(iter - origin)
const RSP: u8 = 4;
const RSI: u8 = 6;
const RDI: u8 = 7;
const R10: u8 = 10; // MatVec row pointer into the matrix table
const R11: u8 = 11; // 8·stride·iter for strides SIB cannot scale
const R12: u8 = 12; // register file
const R13: u8 = 13; // adjoint buffer
const R14: u8 = 14; // span element counter, 8·(i - len)
const R15: u8 = 15; // MatVec row counter, 8·(r - rows)

// `81 /ext` arithmetic on a 64-bit register with a 32-bit immediate.
const ALU_ADD: u8 = 0;
const ALU_SUB: u8 = 5;
const ALU_CMP: u8 = 7;
// Condition codes of the loop back-edges.
const CC_B: u8 = 0x2;
const CC_AE: u8 = 0x3;
const CC_NZ: u8 = 0x5;

/// The emitted buffer plus the byte offsets of its two entry points.
pub(super) struct Emitted {
    pub(super) code: Vec<u8>,
    pub(super) value_off: usize,
    pub(super) grad_off: usize,
}

/// A memory operand `[base + index·scale + disp]`.
#[derive(Clone, Copy)]
struct Mem {
    base: u8,
    index: Option<(u8, u32)>,
    disp: i32,
}

impl Mem {
    fn at(base: u8, disp: i32) -> Mem {
        Mem {
            base,
            index: None,
            disp,
        }
    }

    fn indexed(base: u8, index: u8, scale: u32, disp: i32) -> Mem {
        Mem {
            base,
            index: Some((index, scale)),
            disp,
        }
    }
}

/// Raw instruction encoder. Every method appends one instruction; memory
/// operands are always `[base + index·scale + disp32]` (mod=10 with a SIB
/// byte).
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

    /// A REX prefix (`W`, and the high bits of ModRM `reg`, SIB index and
    /// base), omitted when all are clear.
    fn rex(&mut self, w: bool, reg: u8, index: u8, base: u8) {
        let bits = u8::from(w) << 3
            | u8::from(reg >= 8) << 2
            | u8::from(index >= 8) << 1
            | u8::from(base >= 8);
        if bits != 0 {
            self.byte(0x40 | bits);
        }
    }

    fn rex_mem(&mut self, w: bool, reg: u8, m: Mem) {
        self.rex(w, reg, m.index.map_or(0, |(i, _)| i), m.base);
    }

    /// ModRM + SIB + disp32 for `reg` and a memory operand.
    fn modrm_mem(&mut self, reg: u8, m: Mem) {
        self.byte(0x80 | ((reg & 7) << 3) | 0x04);
        let (index, ss) = match m.index {
            Some((i, s)) => (i & 7, s.trailing_zeros() as u8),
            None => (0x04, 0), // no index
        };
        self.byte((ss << 6) | (index << 3) | (m.base & 7));
        self.imm32(m.disp as u32);
    }

    /// Two-byte-opcode SSE instruction, register-register form (xmm0–15).
    fn sse_rr(&mut self, prefix: u8, opcode: u8, dst: u8, src: u8) {
        self.byte(prefix);
        self.rex(false, dst, 0, src);
        self.byte(0x0F);
        self.byte(opcode);
        self.byte(0xC0 | ((dst & 7) << 3) | (src & 7));
    }

    /// Two-byte-opcode SSE instruction with a memory operand (xmm0–15).
    fn sse_mem(&mut self, prefix: u8, opcode: u8, xmm: u8, m: Mem) {
        self.byte(prefix);
        self.rex_mem(false, xmm, m);
        self.byte(0x0F);
        self.byte(opcode);
        self.modrm_mem(xmm, m);
    }

    /// `lea dst, [m]`.
    fn lea(&mut self, dst: u8, m: Mem) {
        self.rex_mem(true, dst, m);
        self.byte(0x8D);
        self.modrm_mem(dst, m);
    }

    /// `mov r, imm64`.
    fn mov_imm64(&mut self, r: u8, v: u64) {
        self.rex(true, 0, 0, r);
        self.byte(0xB8 | (r & 7));
        self.imm64(v);
    }

    /// `mov r, simm32` (sign-extended to 64 bits).
    fn mov_imm32(&mut self, r: u8, v: i32) {
        self.rex(true, 0, 0, r);
        self.bytes(&[0xC7, 0xC0 | (r & 7)]);
        self.imm32(v as u32);
    }

    /// `add`/`sub`/`cmp r, simm32` (`ext` selects the operation).
    fn alu_imm(&mut self, ext: u8, r: u8, v: i32) {
        self.rex(true, 0, 0, r);
        self.bytes(&[0x81, 0xC0 | (ext << 3) | (r & 7)]);
        self.imm32(v as u32);
    }

    /// `imul dst, src, simm32`.
    fn imul_imm(&mut self, dst: u8, src: u8, v: i32) {
        self.rex(true, dst, 0, src);
        self.bytes(&[0x69, 0xC0 | ((dst & 7) << 3) | (src & 7)]);
        self.imm32(v as u32);
    }

    /// `add dst, src` (64-bit).
    fn add_rr(&mut self, dst: u8, src: u8) {
        self.rex(true, src, 0, dst);
        self.bytes(&[0x01, 0xC0 | ((src & 7) << 3) | (dst & 7)]);
    }

    /// `push r` / `pop r`.
    fn push(&mut self, r: u8) {
        self.rex(false, 0, 0, r);
        self.byte(0x50 | (r & 7));
    }

    fn pop(&mut self, r: u8) {
        self.rex(false, 0, 0, r);
        self.byte(0x58 | (r & 7));
    }

    /// `jcc rel32` back to `target` (a loop's back-edge).
    fn jcc_back(&mut self, cc: u8, target: usize) {
        self.bytes(&[0x0F, 0x80 | cc]);
        let rel = target as i64 - (self.pos() as i64 + 4);
        self.imm32(rel as i32 as u32);
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

/// Where an operand's register (and adjoint) slot lies, relative to the
/// counters of the loops being emitted.
#[derive(Clone, Copy, PartialEq)]
enum Loc {
    /// One slot.
    Fixed(u32),
    /// `base + stride·iter` in the enclosing rolled loop (`stride ≥ 1`).
    Iter { base: u32, stride: u32 },
    /// `base + i` at the span element counter.
    Elem(u32),
    /// `base + r` at the `MatVec` row counter.
    Row(u32),
}

/// One adjoint access of a reverse region: slots `slot + stride·k` for
/// `k < count` (`stride` 0: one fixed slot), read as a seed or bumped.
struct Access {
    slot: u32,
    stride: u32,
    count: u32,
    bump: bool,
}

impl Access {
    /// Whether a per-iteration or per-element access reaches `slot`.
    fn reaches(&self, slot: u32) -> bool {
        self.stride != 0
            && slot >= self.slot
            && (slot - self.slot).is_multiple_of(self.stride)
            && (slot - self.slot) / self.stride < self.count
    }
}

/// Appends every adjoint access of `op`'s reverse arm; `trip` is the
/// enclosing rolled loop's, if any.
fn adj_accesses(op: &Op, trip: Option<u32>, out: &mut Vec<Access>) {
    let reg = |r: Reg, bump: bool| match trip {
        Some(t) if r.stride != 0 => Access {
            slot: r.base,
            stride: r.stride,
            count: t,
            bump,
        },
        _ => Access {
            slot: r.base,
            stride: 0,
            count: 1,
            bump,
        },
    };
    let a = |x: &A| match x {
        A::Reg(r) => Some(reg(*r, true)),
        A::Const(_) | A::Table(_) => None,
    };
    let span = |s: u32, len: u32, bump: bool| Access {
        slot: s,
        stride: 1,
        count: len,
        bump,
    };
    let va = |x: &VA, len: u32| match x {
        VA::Span(s) => Some(span(*s, len, true)),
        VA::RegS(r) => Some(Access {
            slot: r.base,
            stride: 0,
            count: 1,
            bump: true,
        }),
        VA::Table(_) | VA::ConstS(_) => None,
    };
    match op {
        Op::Bin {
            dst, a: x, b: y, ..
        } => {
            out.push(reg(*dst, false));
            out.extend(a(x).into_iter().chain(a(y)));
        }
        Op::Un { dst, a: x, .. } | Op::Mov { dst, a: x } => {
            out.push(reg(*dst, false));
            out.extend(a(x));
        }
        Op::AddScore { a: x } => out.extend(a(x)),
        Op::ScoreElem { x, args, k, .. } => {
            out.extend(a(x));
            out.extend(args[..*k as usize].iter().filter_map(a));
        }
        Op::ScoreVal {
            dst, x, args, k, ..
        } => {
            out.push(reg(*dst, false));
            out.extend(a(x));
            out.extend(args[..*k as usize].iter().filter_map(a));
        }
        Op::VBin {
            dst,
            a: x,
            b: y,
            len,
            ..
        } => {
            out.push(span(*dst, *len, false));
            out.extend(va(x, *len).into_iter().chain(va(y, *len)));
        }
        Op::VUn { dst, a: x, len, .. } => {
            out.push(span(*dst, *len, false));
            out.extend(va(x, *len));
        }
        Op::Dot {
            dst,
            a: x,
            b: y,
            len,
        } => {
            out.push(reg(Reg::abs(*dst), false));
            out.extend(va(x, *len).into_iter().chain(va(y, *len)));
        }
        Op::Sum { dst, a: x, len } => {
            out.push(reg(Reg::abs(*dst), false));
            out.extend(va(x, *len));
        }
        Op::MatVec {
            dst, x, rows, cols, ..
        } => {
            out.push(span(*dst, *rows, false));
            out.extend(va(x, *cols));
        }
        Op::AddScoreSpan { a: x, len } => out.extend(va(x, *len)),
        Op::Constrain { src, dst, len, .. } => {
            out.push(span(*dst, *len, false));
            out.push(span(*src, *len, true));
        }
        Op::Loop { trip, body } => {
            for op in body {
                adj_accesses(op, Some(*trip), out);
            }
        }
        // Shim-calling or adjoint-free: never inside a cached region.
        Op::MaxVal { .. } | Op::ScoreSweep { .. } | Op::ScoreSweepVal { .. } => {}
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

/// `8·n` as a 32-bit immediate (a loop bound in bytes), or a decline.
fn bytes_i32(n: u32) -> Result<i32, Decline> {
    i32::try_from(u64::from(n) * 8).map_err(|_| E::err("loop bound past disp32 addressing"))
}

/// The per-program emitter: walks the op list (twice — value entry and
/// gradient entry) translating each op exactly as the interpreter executes
/// it.
struct E<'a> {
    dp: &'a DProg,
    a: Asm,
    /// Trip of the rolled loop being emitted (`rbx` live), if any.
    trip: Option<u32>,
    /// The iteration at which `rbx` is 0: `trip` in a forward loop (which
    /// counts up to 0), 0 in a reverse one (which counts down to 0).
    origin: u32,
    /// Length of the span loop being emitted (`r14` live).
    span_len: u32,
    /// Row count of the `MatVec` being emitted (`r15` live).
    rows: u32,
    /// Set when an operand addresses past the register file; the program
    /// then declines (the interpreter would fail its bounds check).
    out_of_range: bool,
    /// The adjoint register cache of the open reverse region:
    /// `(adjoint slot, xmm register)` pairs, empty outside regions.
    cache: Vec<(u32, u8)>,
}

impl<'a> E<'a> {
    fn err(msg: &str) -> Decline {
        Decline::new(format!("jit: {msg}"))
    }

    fn check_size(&self) -> Result<(), Decline> {
        if self.a.pos() > MAX_CODE_BYTES {
            return Err(Self::err("emitted code exceeds the size cap"));
        }
        Ok(())
    }

    /// Address of table `t`'s entries, checked to hold at least `need`.
    fn table_ptr(&self, t: u32, need: u32) -> Result<u64, Decline> {
        match self.dp.tables_f.get(t as usize) {
            Some(v) if v.len() >= need as usize => Ok(v.as_ptr() as u64),
            _ => Err(Self::err("table operand out of range")),
        }
    }

    // -- addressing ---------------------------------------------------------

    /// The location of register `r` in the code being emitted: outside a
    /// rolled loop every register is its iteration-0 slot.
    fn reg_loc(&self, r: Reg) -> Loc {
        match self.trip {
            Some(_) if r.stride != 0 => Loc::Iter {
                base: r.base,
                stride: r.stride,
            },
            _ => Loc::Fixed(r.base),
        }
    }

    fn a_loc(&self, a: A) -> Option<Loc> {
        match a {
            A::Reg(r) => Some(self.reg_loc(r)),
            A::Const(_) | A::Table(_) => None,
        }
    }

    fn va_loc(a: VA) -> Option<Loc> {
        match a {
            VA::Span(s) => Some(Loc::Elem(s)),
            VA::RegS(r) => Some(Loc::Fixed(r.base)),
            VA::Table(_) | VA::ConstS(_) => None,
        }
    }

    /// The memory operand of `loc` off `base` (`r12` or `r13`); a stride SIB
    /// cannot scale is first multiplied into `r11`.
    fn mem(&mut self, base: u8, loc: Loc) -> Mem {
        // The last slot the operand reaches, and its slot at counter 0.
        let (last, zero, index) = match loc {
            Loc::Fixed(s) => (u64::from(s), u64::from(s), None),
            Loc::Iter { base: s, stride } => {
                let iters = u64::from(self.trip.map_or(0, |t| t.max(1) - 1));
                let at_zero = u64::from(s) + u64::from(stride) * u64::from(self.origin);
                let index = if matches!(stride, 1 | 2 | 4 | 8) {
                    (RBX, stride)
                } else {
                    self.a.imul_imm(R11, RBX, stride as i32);
                    (R11, 1)
                };
                (
                    u64::from(s) + u64::from(stride) * iters,
                    at_zero,
                    Some(index),
                )
            }
            Loc::Elem(s) => {
                let end = u64::from(s) + u64::from(self.span_len);
                (end.max(1) - 1, end, Some((R14, 1)))
            }
            Loc::Row(s) => {
                let end = u64::from(s) + u64::from(self.rows);
                (end.max(1) - 1, end, Some((R15, 1)))
            }
        };
        let disp = i32::try_from(8 * zero).unwrap_or_else(|_| {
            self.out_of_range = true;
            0
        });
        if last >= self.dp.n_regs as u64 {
            self.out_of_range = true;
        }
        Mem { base, index, disp }
    }

    // -- value materialization --------------------------------------------

    /// `xmm<x> = c` (xorpd for +0.0, else a 64-bit immediate through rax).
    fn load_const(&mut self, x: u8, c: f64) {
        let bits = c.to_bits();
        if bits == 0 {
            self.a.sse_rr(0x66, 0x57, x, x); // xorpd x, x
        } else {
            self.a.mov_imm64(RAX, bits);
            self.a
                .bytes(&[0x66, 0x48 | u8::from(x >= 8) << 2, 0x0F, 0x6E]); // movq x, rax
            self.a.byte(0xC0 | ((x & 7) << 3));
        }
    }

    fn load_reg(&mut self, x: u8, loc: Loc) {
        let m = self.mem(R12, loc);
        self.a.sse_mem(0xF2, 0x10, x, m);
    }

    fn store_reg(&mut self, x: u8, loc: Loc) {
        let m = self.mem(R12, loc);
        self.a.sse_mem(0xF2, 0x11, x, m);
    }

    /// The cache register holding `adj[slot]`, if the open region cached it.
    fn cached(&self, loc: Loc) -> Option<u8> {
        let Loc::Fixed(slot) = loc else { return None };
        self.cache
            .iter()
            .find(|&&(s, _)| s == slot)
            .map(|&(_, x)| x)
    }

    fn load_adj(&mut self, x: u8, loc: Loc) {
        match self.cached(loc) {
            Some(c) => self.a.sse_rr(0x66, 0x28, x, c), // movapd x, xmm<c>
            None => {
                let m = self.mem(R13, loc);
                self.a.sse_mem(0xF2, 0x10, x, m);
            }
        }
    }

    /// `adj[loc] += xmm<x>`: one `addsd` into the cache register when the
    /// slot is cached, else a read-modify-write through xmm6 (`x` must not
    /// be 6).
    fn add_adj(&mut self, x: u8, loc: Loc) {
        debug_assert_ne!(x, 6);
        if let Some(c) = self.cached(loc) {
            self.a.sse_rr(0xF2, 0x58, c, x); // addsd xmm<c>, x → adj + v
            return;
        }
        let m = self.mem(R13, loc);
        self.a.sse_mem(0xF2, 0x10, 6, m);
        self.a.sse_rr(0xF2, 0x58, 6, x); // addsd xmm6, x → adj + v
        self.a.sse_mem(0xF2, 0x11, 6, m);
    }

    /// Opens a reverse region: loads the (up to [`CACHE_REGS`]) fixed slots
    /// the region bumps most often per iteration into xmm8.. — before the
    /// region's loop. Slots a per-iteration or per-element access of the
    /// region reaches stay in memory.
    fn fill_cache(&mut self, op: &Op) {
        debug_assert!(self.cache.is_empty());
        let mut acc = Vec::new();
        adj_accesses(op, self.trip, &mut acc);
        let mut slots: Vec<u32> = acc
            .iter()
            .filter(|a| a.bump && a.stride == 0)
            .map(|a| a.slot)
            .collect();
        slots.sort_unstable();
        let mut hot: Vec<(usize, u32)> = slots
            .chunk_by(|a, b| a == b)
            .filter(|run| !acc.iter().any(|a| a.reaches(run[0])))
            .map(|run| (run.len(), run[0]))
            .collect();
        // Most bumps first; ties by slot, so emission is deterministic.
        hot.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (k, &(_, slot)) in hot.iter().take(CACHE_REGS).enumerate() {
            let x = 8 + k as u8;
            let m = self.mem(R13, Loc::Fixed(slot));
            self.a.sse_mem(0xF2, 0x10, x, m);
            self.cache.push((slot, x));
        }
    }

    /// Closes the region: stores every cached running sum back, after the
    /// region's loop.
    fn flush_cache(&mut self) {
        for (slot, x) in std::mem::take(&mut self.cache) {
            let m = self.mem(R13, Loc::Fixed(slot));
            self.a.sse_mem(0xF2, 0x11, x, m);
        }
    }

    /// `[rsp+off] += xmm<x>` — the score/jac accumulators.
    fn acc_add(&mut self, x: u8, off: i32) {
        debug_assert_ne!(x, 6);
        self.reload(6, off);
        self.a.sse_rr(0xF2, 0x58, 6, x);
        self.spill(6, off);
    }

    fn spill(&mut self, x: u8, off: i32) {
        self.a.sse_mem(0xF2, 0x11, x, Mem::at(RSP, off));
    }

    fn reload(&mut self, x: u8, off: i32) {
        self.a.sse_mem(0xF2, 0x10, x, Mem::at(RSP, off));
    }

    /// `xmm<x> = -xmm<x>` via sign-bit xor (bitwise `f64::neg`).
    fn negate(&mut self, x: u8) {
        self.load_const(5, f64::from_bits(0x8000_0000_0000_0000));
        self.a.sse_rr(0x66, 0x57, x, 5); // xorpd x, xmm5
    }

    fn load_a(&mut self, x: u8, a: A) -> Result<(), Decline> {
        match a {
            A::Reg(r) => {
                let loc = self.reg_loc(r);
                self.load_reg(x, loc);
            }
            A::Const(c) => self.load_const(x, c),
            A::Table(t) => match self.trip {
                Some(trip) => {
                    let p = self.table_ptr(t, trip)? + 8 * u64::from(self.origin);
                    self.a.mov_imm64(RAX, p);
                    self.a.sse_mem(0xF2, 0x10, x, Mem::indexed(RAX, RBX, 1, 0));
                }
                None => {
                    self.table_ptr(t, 1)?;
                    self.load_const(x, self.dp.tables_f[t as usize][0]);
                }
            },
        }
        Ok(())
    }

    /// Loads element `i` (the span counter) of a vector operand.
    fn load_va(&mut self, x: u8, a: VA) -> Result<(), Decline> {
        match a {
            VA::Span(s) => self.load_reg(x, Loc::Elem(s)),
            VA::Table(t) => {
                let p = self.table_ptr(t, self.span_len)? + 8 * u64::from(self.span_len);
                self.a.mov_imm64(RAX, p);
                self.a.sse_mem(0xF2, 0x10, x, Mem::indexed(RAX, R14, 1, 0));
            }
            VA::RegS(r) => self.load_reg(x, Loc::Fixed(r.base)),
            VA::ConstS(c) => self.load_const(x, c),
        }
        Ok(())
    }

    // -- loops -------------------------------------------------------------

    /// Emits `body` for every element `i in 0..len` as a counted loop on
    /// `r14 = 8·(i - len)`, which reaches 0 past the last element so the
    /// back-edge is one `add` + `jnz` (nothing at all when `len` is 0).
    fn span_loop(
        &mut self,
        len: u32,
        mut body: impl FnMut(&mut Self) -> Result<(), Decline>,
    ) -> Result<(), Decline> {
        if len == 0 {
            return Ok(());
        }
        let start = -bytes_i32(len)?;
        let outer = std::mem::replace(&mut self.span_len, len);
        self.a.mov_imm32(R14, start);
        let top = self.a.pos();
        body(self)?;
        self.a.alu_imm(ALU_ADD, R14, 8);
        self.a.jcc_back(CC_NZ, top);
        self.span_len = outer;
        Ok(())
    }

    /// Emits `body` for every `MatVec` row `r in 0..rows` on
    /// `r15 = 8·(r - rows)`, with `r10` at the row's first matrix entry.
    fn row_loop(
        &mut self,
        mat: u32,
        rows: u32,
        cols: u32,
        mut body: impl FnMut(&mut Self) -> Result<(), Decline>,
    ) -> Result<(), Decline> {
        if rows == 0 {
            return Ok(());
        }
        let start = -bytes_i32(rows)?;
        let cols_i = i32::try_from(cols).map_err(|_| Self::err("matrix too wide"))?;
        let need = rows
            .checked_mul(cols)
            .ok_or_else(|| Self::err("matrix too large"))?;
        // r10 = p + 8·r·cols = (p + 8·rows·cols) + r15·cols.
        let p = self.table_ptr(mat, need)? + 8 * u64::from(need);
        self.rows = rows;
        self.a.mov_imm32(R15, start);
        let top = self.a.pos();
        self.a.imul_imm(R10, R15, cols_i);
        self.a.mov_imm64(RAX, p);
        self.a.add_rr(R10, RAX);
        body(self)?;
        self.a.alu_imm(ALU_ADD, R15, 8);
        self.a.jcc_back(CC_NZ, top);
        Ok(())
    }

    /// `xmm<x> = m[r][c]` inside a [`E::row_loop`]'s column span loop.
    fn load_mat(&mut self, x: u8) {
        let end = 8 * self.span_len as i32;
        self.a
            .sse_mem(0xF2, 0x10, x, Mem::indexed(R10, R14, 1, end));
    }

    // -- calls -------------------------------------------------------------

    fn call(&mut self, f: usize) {
        // Every XMM register is caller-saved: no call may sit in a region.
        debug_assert!(self.cache.is_empty(), "shim call inside a cached region");
        self.a.mov_imm64(RAX, f as u64);
        self.a.bytes(&[0xFF, 0xD0]); // call rax
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
    /// r12/r13/rbx/r14/r15 (five pushes keep rsp 16-byte aligned at call
    /// sites), opens the 64-byte scratch frame, parks the base pointers,
    /// zeroes the score/jac accumulators.
    fn prologue(&mut self) {
        for r in [R12, R13, RBX, R14, R15] {
            self.a.push(r);
        }
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
        self.a.sse_mem(0xF2, 0x58, 0, Mem::at(RSP, OFF_JAC)); // addsd xmm0, [jac]
        self.a.bytes(&[0x48, 0x83, 0xC4, FRAME]); // add rsp, 64
        for r in [R15, R14, RBX, R13, R12] {
            self.a.pop(r);
        }
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
                self.a.mov_imm64(RDI, f as *const BinF as u64);
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
                self.a.mov_imm64(RDI, f as *const UF as u64);
                self.call(abi::uf_value_c as *const () as usize);
            }
        }
    }

    /// `adj[loc] += xmm<x> * g` with `g` in `xmm<gx>` (clobbers `xmm<x>`).
    fn mul_g_bump(&mut self, x: u8, gx: u8, loc: Loc) {
        self.a.sse_rr(0xF2, 0x59, x, gx); // partial * g
        self.add_adj(x, loc);
    }

    /// One binary op's reverse body, with the guard already taken and `g`
    /// in xmm0. `la`/`lb` load the operand values; `ai`/`bi` are the
    /// operands' adjoint locations. Mirrors `f.partials(va, vb)` then
    /// `bump(a, da·g); bump(b, db·g)` exactly.
    fn bin_reverse_body(
        &mut self,
        f: &BinF,
        la: &dyn Fn(&mut Self, u8) -> Result<(), Decline>,
        lb: &dyn Fn(&mut Self, u8) -> Result<(), Decline>,
        ai: Option<Loc>,
        bi: Option<Loc>,
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
                self.a.mov_imm64(RDI, f as *const BinF as u64);
                self.a.lea(RSI, Mem::at(RSP, OFF_OUT));
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
    /// adjoint `ai`, result register `fx`). Mirrors
    /// `bump(a, f.partial(va, fx) * g)`.
    fn un_reverse_body(
        &mut self,
        f: &UF,
        la: &dyn Fn(&mut Self, u8) -> Result<(), Decline>,
        ai: Loc,
        fx: Loc,
    ) -> Result<(), Decline> {
        match f {
            UF::R(UnFn::Neg) => {
                self.load_const(1, -1.0);
                self.mul_g_bump(1, 0, ai);
            }
            UF::R(UnFn::Exp) => {
                // partial = fx
                self.load_reg(1, fx);
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
                self.load_reg(2, fx);
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
                self.load_reg(2, fx);
                self.a.sse_rr(0xF2, 0x59, 2, 2);
                self.a.sse_rr(0xF2, 0x5C, 1, 2);
                self.mul_g_bump(1, 0, ai);
            }
            _ => {
                self.spill(0, OFF_G);
                la(self, 0)?; // x
                self.load_reg(1, fx); // fx
                self.a.mov_imm64(RDI, f as *const UF as u64);
                self.call(abi::uf_partial_c as *const () as usize);
                // partial * g
                self.a.sse_mem(0xF2, 0x59, 0, Mem::at(RSP, OFF_G));
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
    ) -> Result<(), Decline> {
        self.a
            .mov_imm64(RDI, kind as *const probdist::DistKind as u64);
        self.load_a(0, *x)?;
        for (j, arg) in args.iter().enumerate() {
            if j < k as usize {
                self.load_a(1 + j as u8, *arg)?;
            } else {
                self.load_const(1 + j as u8, 0.0);
            }
        }
        Ok(())
    }

    /// Parks the sweep shim's pointer arguments: `(dp, op, regs[, adj])`.
    fn sweep_call_args(&mut self, op: &Op, with_adj: bool) {
        self.a.mov_imm64(RDI, self.dp as *const DProg as u64);
        self.a.mov_imm64(RSI, op as *const Op as u64);
        self.mov_rdx_r12();
        if with_adj {
            self.mov_rcx_r13();
        }
    }

    /// The adjoints of a `Constrain` step at the span counter, exactly
    /// `adj[src+c] += g·dxdu + djdu` (unguarded).
    fn constrain_reverse_elem(&mut self, kind: &Constraint, src: u32, dst: u32) {
        if matches!(kind, Constraint::None) {
            let (dxdu, djdu) = constraint_partials(*kind, 0.0);
            self.load_adj(0, Loc::Elem(dst));
            self.load_const(1, dxdu);
            self.a.sse_rr(0xF2, 0x59, 0, 1); // g · dxdu
            self.load_const(1, djdu);
            self.a.sse_rr(0xF2, 0x58, 0, 1); // + djdu
        } else {
            self.load_reg(0, Loc::Elem(src)); // u
            self.a.mov_imm64(RDI, kind as *const Constraint as u64);
            self.a.lea(RSI, Mem::at(RSP, OFF_OUT));
            self.call(abi::constrain_partials_c as *const () as usize);
            self.load_adj(0, Loc::Elem(dst));
            self.a.sse_mem(0xF2, 0x59, 0, Mem::at(RSP, OFF_OUT)); // g·dxdu
            self.a.sse_mem(0xF2, 0x58, 0, Mem::at(RSP, OFF_OUT + 8)); // +djdu
        }
        self.add_adj(0, Loc::Elem(src));
    }

    /// The reverse of `MatVec` over a span `x`, columns in groups of up to
    /// [`CACHE_REGS`]: each group's adjoints `adj[x + c]` stay in
    /// xmm8.. over a row loop, so each gets its `m[r][c]·g[r]` terms in row
    /// order, exactly the addsd sequence of the row-major reverse (whose
    /// per-row zero-guard each group repeats). The caller checks that `x`
    /// and the destination rows are disjoint and that no region is open.
    fn matvec_reverse_by_columns(&mut self, op: &Op) -> Result<(), Decline> {
        let Op::MatVec {
            dst,
            mat,
            x: VA::Span(xs),
            rows,
            cols,
        } = op
        else {
            unreachable!("a MatVec over a span");
        };
        let group = CACHE_REGS as u32;
        // 8·(the first column past the full groups): their loop's bound and
        // the remainder group's start.
        let full_end = bytes_i32(*cols / group * group)?;
        if full_end > 0 {
            self.a.mov_imm32(R14, 0);
            let top = self.a.pos();
            self.matvec_column_group(*dst, *mat, *xs, *rows, *cols, CACHE_REGS)?;
            self.a.alu_imm(ALU_ADD, R14, 8 * group as i32);
            self.a.alu_imm(ALU_CMP, R14, full_end);
            self.a.jcc_back(CC_B, top);
        }
        if *cols % group > 0 {
            self.a.mov_imm32(R14, full_end);
            let rem = (*cols % group) as usize;
            self.matvec_column_group(*dst, *mat, *xs, *rows, *cols, rem)?;
        }
        Ok(())
    }

    /// One group of `w` columns from `r14 = 8·c0` (see
    /// [`E::matvec_reverse_by_columns`]).
    fn matvec_column_group(
        &mut self,
        dst: u32,
        mat: u32,
        xs: u32,
        rows: u32,
        cols: u32,
        w: usize,
    ) -> Result<(), Decline> {
        // Here r14 = 8·c0 counts from 0: column c0 + j is at 8·(xs + j).
        if u64::from(xs) + u64::from(cols) > self.dp.n_regs as u64 {
            self.out_of_range = true;
        }
        let col = |j: usize| Mem::indexed(R13, R14, 1, 8 * (xs as i32 + j as i32));
        for j in 0..w {
            self.a.sse_mem(0xF2, 0x10, 8 + j as u8, col(j));
        }
        self.row_loop(mat, rows, cols, |e| {
            e.load_adj(0, Loc::Row(dst));
            let skip = e.guard_nonzero(0);
            for j in 0..w {
                // m · g into the column's running sum.
                let m = Mem::indexed(R10, R14, 1, 8 * j as i32);
                e.a.sse_mem(0xF2, 0x10, 1, m);
                e.a.sse_rr(0xF2, 0x59, 1, 0);
                e.a.sse_rr(0xF2, 0x58, 8 + j as u8, 1);
            }
            e.a.bind(skip);
            Ok(())
        })?;
        for j in 0..w {
            self.a.sse_mem(0xF2, 0x11, 8 + j as u8, col(j));
        }
        Ok(())
    }

    // -- forward pass ------------------------------------------------------

    fn forward_ops(&mut self, ops: &[Op]) -> Result<(), Decline> {
        for op in ops {
            self.check_size()?;
            self.forward_op(op)?;
        }
        Ok(())
    }

    /// One op's forward arm, exactly as the interpreter's `forward_lanes`.
    fn forward_op(&mut self, op: &Op) -> Result<(), Decline> {
        match op {
            Op::Bin { f, dst, a, b } => {
                self.load_a(0, *a)?;
                self.load_a(1, *b)?;
                self.binf_value(f);
                self.store_reg(0, self.reg_loc(*dst));
            }
            Op::Un { f, dst, a } => {
                self.load_a(0, *a)?;
                self.uf_value(f);
                self.store_reg(0, self.reg_loc(*dst));
            }
            Op::Mov { dst, a } => {
                self.load_a(0, *a)?;
                self.store_reg(0, self.reg_loc(*dst));
            }
            Op::VBin { f, dst, a, b, len } => self.span_loop(*len, |e| {
                e.load_va(0, *a)?;
                e.load_va(1, *b)?;
                e.binf_value(f);
                e.store_reg(0, Loc::Elem(*dst));
                Ok(())
            })?,
            Op::VUn { f, dst, a, len } => self.span_loop(*len, |e| {
                e.load_va(0, *a)?;
                e.uf_value(f);
                e.store_reg(0, Loc::Elem(*dst));
                Ok(())
            })?,
            Op::Dot { dst, a, b, len } => {
                self.load_const(4, 0.0);
                self.span_loop(*len, |e| {
                    e.load_va(0, *a)?;
                    e.load_va(1, *b)?;
                    e.a.sse_rr(0xF2, 0x59, 0, 1); // va * vb
                    e.a.sse_rr(0xF2, 0x58, 4, 0); // s += …
                    Ok(())
                })?;
                self.store_reg(4, Loc::Fixed(*dst));
            }
            Op::Sum { dst, a, len } => {
                self.load_const(4, 0.0);
                self.span_loop(*len, |e| {
                    e.load_va(0, *a)?;
                    e.a.sse_rr(0xF2, 0x58, 4, 0);
                    Ok(())
                })?;
                self.store_reg(4, Loc::Fixed(*dst));
            }
            Op::MatVec {
                dst,
                mat,
                x,
                rows,
                cols,
            } => self.row_loop(*mat, *rows, *cols, |e| {
                e.load_const(4, 0.0);
                e.span_loop(*cols, |e| {
                    e.load_mat(0);
                    e.load_va(1, *x)?;
                    e.a.sse_rr(0xF2, 0x59, 0, 1); // m · x[c]
                    e.a.sse_rr(0xF2, 0x58, 4, 0);
                    Ok(())
                })?;
                e.store_reg(4, Loc::Row(*dst));
                Ok(())
            })?,
            Op::MaxVal { dst, a, len } => {
                // m = m.max(v) through the f64::max shim (maxsd differs on
                // NaN); the accumulator lives in a frame slot across the
                // calls.
                self.load_const(0, f64::NEG_INFINITY);
                self.spill(0, OFF_ACC);
                self.span_loop(*len, |e| {
                    e.reload(0, OFF_ACC);
                    e.load_va(1, *a)?;
                    e.call(abi::fmax_c as *const () as usize);
                    e.spill(0, OFF_ACC);
                    Ok(())
                })?;
                self.reload(0, OFF_ACC);
                self.store_reg(0, Loc::Fixed(*dst));
            }
            Op::Constrain {
                kind,
                src,
                dst,
                len,
            } => self.span_loop(*len, |e| {
                if matches!(kind, Constraint::None) {
                    // to_constrained = identity, log_jacobian = 0.0
                    e.load_reg(0, Loc::Elem(*src));
                    e.store_reg(0, Loc::Elem(*dst));
                    e.load_const(0, 0.0);
                } else {
                    e.a.mov_imm64(RDI, kind as *const Constraint as u64);
                    let m = e.mem(R12, Loc::Elem(*dst));
                    e.a.lea(RSI, m);
                    e.load_reg(0, Loc::Elem(*src));
                    e.call(abi::constrain_forward_c as *const () as usize);
                }
                e.acc_add(0, OFF_JAC);
                Ok(())
            })?,
            Op::ScoreElem { kind, x, args, k } => {
                self.score_call_args(kind, x, args, *k)?;
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
                self.score_call_args(kind, x, args, *k)?;
                self.call(abi::elem_value_c as *const () as usize);
                self.store_reg(0, self.reg_loc(*dst));
            }
            Op::ScoreSweep { .. } => {
                self.sweep_call_args(op, false);
                self.call(abi::sweep_sum_c as *const () as usize);
                self.acc_add(0, OFF_SCORE);
            }
            Op::ScoreSweepVal { dst, .. } => {
                self.sweep_call_args(op, false);
                self.call(abi::sweep_sum_c as *const () as usize);
                self.store_reg(0, Loc::Fixed(*dst));
            }
            Op::AddScore { a } => {
                self.load_a(0, *a)?;
                self.acc_add(0, OFF_SCORE);
            }
            Op::AddScoreSpan { a, len } => self.span_loop(*len, |e| {
                e.load_va(0, *a)?;
                e.acc_add(0, OFF_SCORE);
                Ok(())
            })?,
            Op::Loop { trip, body } => {
                if self.trip.is_some() {
                    return Err(Self::err("nested rolled loop"));
                }
                if *trip == 0 {
                    return Ok(());
                }
                // Counts up to 0: rbx = 8·(iter - trip).
                self.a.mov_imm32(RBX, -bytes_i32(*trip)?);
                let top = self.a.pos();
                self.trip = Some(*trip);
                self.origin = *trip;
                self.forward_ops(body)?;
                self.trip = None;
                self.a.alu_imm(ALU_ADD, RBX, 8);
                self.a.jcc_back(CC_NZ, top);
            }
        }
        Ok(())
    }

    // -- reverse pass ------------------------------------------------------

    fn reverse_ops(&mut self, ops: &[Op]) -> Result<(), Decline> {
        for op in ops.iter().rev() {
            self.check_size()?;
            if !has_reverse_effect(op) {
                continue;
            }
            // Regions do not nest: inside a cached loop, the body's span
            // ops bump through the loop's cache.
            let region = self.cache.is_empty() && opens_region(op);
            if region {
                self.fill_cache(op);
            }
            self.reverse_op(op)?;
            if region {
                self.flush_cache();
            }
        }
        Ok(())
    }

    /// One op's reverse arm, exactly as the interpreter's `reverse_lanes`.
    fn reverse_op(&mut self, op: &Op) -> Result<(), Decline> {
        match op {
            Op::Bin { f, dst, a, b } => {
                self.load_adj(0, self.reg_loc(*dst));
                let skip = self.guard_nonzero(0);
                let (av, bv) = (*a, *b);
                self.bin_reverse_body(
                    f,
                    &move |e, x| e.load_a(x, av),
                    &move |e, x| e.load_a(x, bv),
                    self.a_loc(av),
                    self.a_loc(bv),
                )?;
                self.a.bind(skip);
            }
            Op::Un { f, dst, a } => {
                let Some(ai) = self.a_loc(*a) else {
                    return Ok(());
                };
                let fx = self.reg_loc(*dst);
                self.load_adj(0, fx);
                let skip = self.guard_nonzero(0);
                let av = *a;
                self.un_reverse_body(f, &move |e, x| e.load_a(x, av), ai, fx)?;
                self.a.bind(skip);
            }
            Op::Mov { dst, a } => {
                let Some(ai) = self.a_loc(*a) else {
                    return Ok(());
                };
                self.load_adj(0, self.reg_loc(*dst));
                let skip = self.guard_nonzero(0);
                self.add_adj(0, ai); // bump(a, g)
                self.a.bind(skip);
            }
            Op::VBin { f, dst, a, b, len } => {
                let (av, bv) = (*a, *b);
                self.span_loop(*len, |e| {
                    e.load_adj(0, Loc::Elem(*dst));
                    let skip = e.guard_nonzero(0);
                    e.bin_reverse_body(
                        f,
                        &move |e, x| e.load_va(x, av),
                        &move |e, x| e.load_va(x, bv),
                        Self::va_loc(av),
                        Self::va_loc(bv),
                    )?;
                    e.a.bind(skip);
                    Ok(())
                })?;
            }
            Op::VUn { f, dst, a, len } => {
                let Some(ai) = Self::va_loc(*a) else {
                    return Ok(());
                };
                let av = *a;
                self.span_loop(*len, |e| {
                    e.load_adj(0, Loc::Elem(*dst));
                    let skip = e.guard_nonzero(0);
                    e.un_reverse_body(f, &move |e, x| e.load_va(x, av), ai, Loc::Elem(*dst))?;
                    e.a.bind(skip);
                    Ok(())
                })?;
            }
            Op::Dot { dst, a, b, len } => {
                self.load_adj(0, Loc::Fixed(*dst));
                let skip = self.guard_nonzero(0);
                self.span_loop(*len, |e| {
                    if let Some(ai) = Self::va_loc(*a) {
                        e.load_va(1, *b)?; // da = vb
                        e.mul_g_bump(1, 0, ai);
                    }
                    if let Some(bi) = Self::va_loc(*b) {
                        e.load_va(1, *a)?; // db = va
                        e.mul_g_bump(1, 0, bi);
                    }
                    Ok(())
                })?;
                self.a.bind(skip);
            }
            Op::Sum { dst, a, len } => {
                self.load_adj(0, Loc::Fixed(*dst));
                let skip = self.guard_nonzero(0);
                if let Some(ai) = Self::va_loc(*a) {
                    self.span_loop(*len, |e| {
                        e.add_adj(0, ai); // vbump(a, i, g)
                        Ok(())
                    })?;
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
                let Some(xi) = Self::va_loc(*x) else {
                    return Ok(());
                };
                if let VA::Span(xs) = x {
                    let (xs, dst) = (u64::from(*xs), u64::from(*dst));
                    let apart = xs + u64::from(*cols) <= dst || dst + u64::from(*rows) <= xs;
                    if apart && self.cache.is_empty() {
                        return self.matvec_reverse_by_columns(op);
                    }
                }
                self.row_loop(*mat, *rows, *cols, |e| {
                    e.load_adj(0, Loc::Row(*dst));
                    let skip = e.guard_nonzero(0);
                    e.span_loop(*cols, |e| {
                        e.load_mat(1);
                        e.mul_g_bump(1, 0, xi); // m · g
                        Ok(())
                    })?;
                    e.a.bind(skip);
                    Ok(())
                })?;
            }
            Op::MaxVal { .. } => {}
            Op::Constrain {
                kind,
                src,
                dst,
                len,
            } => self.span_loop(*len, |e| {
                e.constrain_reverse_elem(kind, *src, *dst);
                Ok(())
            })?,
            Op::ScoreElem { kind, x, args, k } => {
                // No guard and no seed multiply: bumps are dx / dp[j]
                // directly, skipped only when the kernel returns None.
                self.score_call_args(kind, x, args, *k)?;
                self.a.lea(RSI, Mem::at(RSP, OFF_OUT));
                self.call(abi::elem_partials_c as *const () as usize);
                self.a.bytes(&[0x85, 0xC0]); // test eax, eax
                let skip = self.a.jz();
                if let Some(xi) = self.a_loc(*x) {
                    self.reload(1, OFF_OUT);
                    self.add_adj(1, xi);
                }
                for (j, arg) in args.iter().enumerate().take(*k as usize) {
                    if let Some(aj) = self.a_loc(*arg) {
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
                self.load_adj(0, self.reg_loc(*dst));
                let guard = self.guard_nonzero(0);
                self.spill(0, OFF_G);
                self.score_call_args(kind, x, args, *k)?;
                self.a.lea(RSI, Mem::at(RSP, OFF_OUT));
                self.call(abi::elem_partials_c as *const () as usize);
                self.a.bytes(&[0x85, 0xC0]);
                let skip = self.a.jz();
                if let Some(xi) = self.a_loc(*x) {
                    self.reload(1, OFF_OUT);
                    self.a.sse_mem(0xF2, 0x59, 1, Mem::at(RSP, OFF_G)); // dx·g
                    self.add_adj(1, xi);
                }
                for (j, arg) in args.iter().enumerate().take(*k as usize) {
                    if let Some(aj) = self.a_loc(*arg) {
                        self.reload(1, OFF_OUT + 8 + 8 * j as i32);
                        self.a.sse_mem(0xF2, 0x59, 1, Mem::at(RSP, OFF_G));
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
                self.load_adj(0, Loc::Fixed(*dst));
                self.call(abi::sweep_reverse_c as *const () as usize);
            }
            Op::AddScore { a } => {
                if let Some(ai) = self.a_loc(*a) {
                    self.load_const(0, 1.0);
                    self.add_adj(0, ai);
                }
            }
            Op::AddScoreSpan { a, len } => {
                if let Some(ai) = Self::va_loc(*a) {
                    self.load_const(0, 1.0);
                    self.span_loop(*len, |e| {
                        e.add_adj(0, ai);
                        Ok(())
                    })?;
                }
            }
            Op::Loop { trip, body } => {
                if self.trip.is_some() {
                    return Err(Self::err("nested rolled loop"));
                }
                if *trip == 0 {
                    return Ok(());
                }
                // Counts down to 0: rbx = 8·iter, iter = trip-1, …, 0; the
                // borrow out of 0 ends the loop.
                self.a.mov_imm32(RBX, bytes_i32(*trip - 1)?);
                let top = self.a.pos();
                self.trip = Some(*trip);
                self.origin = 0;
                self.reverse_ops(body)?;
                self.trip = None;
                self.a.alu_imm(ALU_SUB, RBX, 8);
                self.a.jcc_back(CC_AE, top);
            }
        }
        Ok(())
    }
}

/// Emits the value and gradient entry points for `dp` into one buffer.
///
/// # Errors
/// Declines (never panics) when the code would exceed the size cap, a
/// displacement or loop bound would overflow 32-bit addressing, an operand
/// addresses past the register file, loops nest, or a table operand is
/// malformed.
pub(super) fn emit(dp: &DProg) -> Result<Emitted, Decline> {
    if dp.n_regs.saturating_mul(8) > i32::MAX as usize {
        return Err(E::err("register file too large for disp32 addressing"));
    }
    let mut e = E {
        dp,
        a: Asm {
            code: Vec::with_capacity(4096),
        },
        trip: None,
        origin: 0,
        span_len: 0,
        rows: 0,
        out_of_range: false,
        cache: Vec::new(),
    };
    let value_off = 0;
    e.prologue();
    e.forward_ops(&dp.ops)?;
    e.epilogue();
    let grad_off = e.a.pos();
    e.prologue();
    e.forward_ops(&dp.ops)?;
    e.reverse_ops(&dp.ops)?;
    e.epilogue();
    e.check_size()?;
    if e.out_of_range {
        return Err(E::err("register operand past the register file"));
    }
    Ok(Emitted {
        code: e.a.code,
        value_off,
        grad_off,
    })
}
