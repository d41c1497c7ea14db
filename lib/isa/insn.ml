(** The VX64 instruction set.

    The set is deliberately close to the x86-64 subset exercised by the
    paper's logic bombs: integer ALU with flags, byte/word/dword/qword
    memory accesses with base+index*scale+disp addressing, conditional
    and *indirect* jumps (needed for the symbolic-jump bombs), calls,
    stack operations, a [syscall] gate, and the scalar-double SSE
    instructions the paper names explicitly ([cvtsi2sd], [ucomisd],
    [addsd], ...). *)

(** Operand width in bytes' power: access widths of 1, 2, 4 or 8 bytes. *)
type width = W8 | W16 | W32 | W64
[@@deriving show { with_path = false }, eq, ord, enum]

let bytes_of_width = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8
let bits_of_width w = 8 * bytes_of_width w

(** [base + index*scale + disp] effective address. *)
type mem = {
  base : Reg.t option;
  index : Reg.t option;
  scale : int;  (** 1, 2, 4 or 8 *)
  disp : int64;
}
[@@deriving show { with_path = false }, eq, ord]

type operand =
  | Reg of Reg.t
  | Imm of int64
  | Mem of mem
[@@deriving show { with_path = false }, eq, ord]

(** Condition codes, x86 semantics over ZF/SF/CF/OF/PF. *)
type cond =
  | E | NE          (* ZF / ~ZF *)
  | L | LE | G | GE (* signed *)
  | B | BE | A | AE (* unsigned *)
  | S | NS          (* SF / ~SF *)
  | O | NO          (* OF / ~OF *)
  | P | NP          (* PF / ~PF *)
[@@deriving show { with_path = false }, eq, ord, enum]

(** Flag-setting two-operand ALU operations. *)
type binop = Add | Sub | And | Or | Xor | Shl | Shr | Sar | Imul
[@@deriving show { with_path = false }, eq, ord, enum]

(** Scalar-double arithmetic. *)
type farith = Addsd | Subsd | Mulsd | Divsd | Sqrtsd
[@@deriving show { with_path = false }, eq, ord, enum]

(** Source of a scalar-double operand. *)
type xsrc = Xreg of Reg.xmm | Xmem of mem
[@@deriving show { with_path = false }, eq, ord]

(** Jump / call target: absolute address or register/memory indirect. *)
type target = Direct of int64 | Indirect of operand
[@@deriving show { with_path = false }, eq, ord]

type t =
  | Mov of width * operand * operand    (** [Mov (w, dst, src)] *)
  | Movzx of width * Reg.t * width * operand
      (** [Movzx (dw, dst, sw, src)]: zero-extend [sw]-wide [src]. *)
  | Movsx of width * Reg.t * width * operand  (** sign-extending load *)
  | Lea of Reg.t * mem
  | Alu of binop * width * operand * operand  (** [dst op= src]; sets flags *)
  | Not of width * operand
  | Neg of width * operand
  | Mul of width * operand              (** unsigned: RDX:RAX := RAX * src *)
  | Idiv of width * operand             (** RAX := RDX:RAX / src; #DE on 0 *)
  | Cmp of width * operand * operand
  | Test of width * operand * operand
  | Jmp of target
  | Jcc of cond * int64
  | Call of target
  | Ret
  | Push of operand                     (** 64-bit push *)
  | Pop of operand                      (** 64-bit pop *)
  | Setcc of cond * operand             (** byte 0/1 *)
  | Cmovcc of cond * Reg.t * operand
  | Syscall
      (** number in RAX, args RDI RSI RDX R10 R8 R9, result in RAX *)
  | Cvtsi2sd of Reg.xmm * operand       (** int64 -> double *)
  | Cvttsd2si of Reg.t * xsrc           (** double -> int64, truncating *)
  | Movq_xr of Reg.xmm * operand        (** raw 64-bit move gpr/mem -> xmm *)
  | Movq_rx of operand * Reg.xmm        (** raw 64-bit move xmm -> gpr/mem *)
  | Movsd of Reg.xmm * xsrc             (** double move into xmm *)
  | Movsd_store of mem * Reg.xmm        (** double move xmm -> memory *)
  | Farith of farith * Reg.xmm * xsrc   (** dst := dst op src *)
  | Ucomisd of Reg.xmm * xsrc           (** unordered compare; sets ZF/PF/CF *)
  | Nop
  | Hlt
[@@deriving show { with_path = false }, eq, ord]

let mem ?base ?index ?(scale = 1) ?(disp = 0L) () = { base; index; scale; disp }

(** Registers read by an instruction's addressing computations. *)
let mem_regs { base; index; _ } =
  List.filter_map (fun x -> x) [ base; index ]

let mnemonic = function
  | Mov _ -> "mov" | Movzx _ -> "movzx" | Movsx _ -> "movsx"
  | Lea _ -> "lea"
  | Alu (Add, _, _, _) -> "add" | Alu (Sub, _, _, _) -> "sub"
  | Alu (And, _, _, _) -> "and" | Alu (Or, _, _, _) -> "or"
  | Alu (Xor, _, _, _) -> "xor" | Alu (Shl, _, _, _) -> "shl"
  | Alu (Shr, _, _, _) -> "shr" | Alu (Sar, _, _, _) -> "sar"
  | Alu (Imul, _, _, _) -> "imul"
  | Not _ -> "not" | Neg _ -> "neg"
  | Mul _ -> "mul" | Idiv _ -> "idiv"
  | Cmp _ -> "cmp" | Test _ -> "test"
  | Jmp _ -> "jmp"
  | Jcc (c, _) -> "j" ^ String.lowercase_ascii (show_cond c)
  | Call _ -> "call" | Ret -> "ret"
  | Push _ -> "push" | Pop _ -> "pop"
  | Setcc (c, _) -> "set" ^ String.lowercase_ascii (show_cond c)
  | Cmovcc (c, _, _) -> "cmov" ^ String.lowercase_ascii (show_cond c)
  | Syscall -> "syscall"
  | Cvtsi2sd _ -> "cvtsi2sd" | Cvttsd2si _ -> "cvttsd2si"
  | Movq_xr _ | Movq_rx _ -> "movq"
  | Movsd _ | Movsd_store _ -> "movsd"
  | Farith (f, _, _) -> String.lowercase_ascii (show_farith f)
  | Ucomisd _ -> "ucomisd"
  | Nop -> "nop" | Hlt -> "hlt"

(** Whether the instruction belongs to the scalar-double (floating
    point) extension — the subset Triton-class tools cannot lift. *)
let is_fp = function
  | Cvtsi2sd _ | Cvttsd2si _ | Movq_xr _ | Movq_rx _ | Movsd _
  | Movsd_store _ | Farith _ | Ucomisd _ -> true
  | _ -> false
