(** The paper's error taxonomy (§IV-A) and evaluation cell labels
    (Table II), plus the diagnostics engines record while running —
    the raw material from which a cell label is derived. *)

(** Symbolic-reasoning stages where an error can be introduced. *)
type stage =
  | Es0  (** symbolic variable declaration *)
  | Es1  (** instruction tracing / lifting *)
  | Es2  (** data propagation *)
  | Es3  (** constraint modeling *)
[@@deriving show { with_path = false }, eq, ord]

(** One cell of Table II. *)
type cell =
  | Success          (** the tool produced an input that detonates *)
  | Fail of stage
  | Abnormal         (** "E": crash, resource exhaustion, or timeout *)
  | Partial
      (** "P": the tool believes the bomb triggers but its values are
          insufficient (syscall-simulation artifacts) *)
[@@deriving show { with_path = false }, eq, ord]

let cell_symbol = function
  | Success -> "OK"
  | Fail s -> show_stage s
  | Abnormal -> "E"
  | Partial -> "P"

(** What an engine observed while attempting a bomb.  The final cell
    is *derived* from these observations plus the grading outcome, so
    Table II emerges from mechanism rather than from a lookup table. *)
type diag =
  | Lift_failure of string
      (** a tainted/needed instruction could not be lifted (Es1) *)
  | Signal_in_trace
      (** the trace left user code via a fault the tool cannot follow *)
  | Taint_lost_in_kernel
      (** tainted data crossed the kernel and the policy dropped it *)
  | Concretized_load of int64
      (** symbolic address forced to its concrete value *)
  | Concretized_store of int64
  | Symbolic_jump_target
      (** an indirect jump/call target depends on the input *)
  | Unconstrained_syscall of string
      (** SimOS let a syscall return an arbitrary symbolic value *)
  | Unconstrained_external of string
      (** a library call was summarised as "returns anything" *)
  | Unconstrained_input of string
      (** SimOS invented symbolic bytes (empty pipe, unknown file) *)
  | Unsupported_syscall of string
      (** SimOS had no model at all; the engine pressed on blindly *)
  | Symbolic_syscall_number
      (** the syscall number itself depended on the input *)
  | Fault_path_pruned
      (** DSE constrained a possible fault away (e.g. divisor != 0) *)
  | Fp_constraint
      (** the path predicate contains floating-point terms *)
  | Solver_budget
      (** constraint solving hit its conflict/time budget *)
  | State_budget
      (** DSE exhausted its step/state budget before reaching the goal *)
  | Engine_crash of string
  | Solver_degraded of string
      (** a budget-tripped check was answered by the named degradation
          rung instead of failing the cell (see {!Smt.Degrade}) *)
[@@deriving show { with_path = false }, eq, ord]

let has d diags = List.exists (equal_diag d) diags

let has_lift_failure diags =
  List.exists (function Lift_failure _ -> true | _ -> false) diags

let has_unconstrained_syscall diags =
  List.exists (function Unconstrained_syscall _ -> true | _ -> false) diags

let has_crash diags =
  List.exists (function Engine_crash _ -> true | _ -> false) diags

(** Degradation-ladder rungs recorded for this cell, in diag order. *)
let degraded_rungs diags =
  List.filter_map (function Solver_degraded r -> Some r | _ -> None) diags

let has_degraded diags = degraded_rungs diags <> []
