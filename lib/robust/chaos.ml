(** Seeded fault injection.

    A chaos {!plan} is derived deterministically from a 64-bit seed: a
    small set of arms, each naming a probe {!point} and the hit count
    at which the fault fires.  Probe points are placed at the spots
    the paper's abnormal-exit taxonomy blames for real-tool deaths —
    the solver, the lifter, allocation, and external cancellation.

    The same seed always yields the same plan, and because every probe
    site is on a deterministic execution path, the same (seed, cell)
    pair always fires the same faults.  That property is what lets the
    soak test compare chaos runs against a clean baseline cell by
    cell. *)

type point =
  | Solver_timeout  (** fired entering [Smt.Session.check] *)
  | Lifter_unmodeled  (** fired in [Ir.Lifter.lift] *)
  | Alloc_failure  (** fired when a session interns a fresh node *)
  | Cancellation  (** sets the meter's cancelled flag (graded [P]) *)

let all_points = [ Solver_timeout; Lifter_unmodeled; Alloc_failure; Cancellation ]

let point_index = function
  | Solver_timeout -> 0
  | Lifter_unmodeled -> 1
  | Alloc_failure -> 2
  | Cancellation -> 3

let point_name = function
  | Solver_timeout -> "solver_timeout"
  | Lifter_unmodeled -> "lifter_unmodeled"
  | Alloc_failure -> "alloc_failure"
  | Cancellation -> "cancellation"

(** Inverse of {!point_name} (journal decoding). *)
let point_of_name = function
  | "solver_timeout" -> Some Solver_timeout
  | "lifter_unmodeled" -> Some Lifter_unmodeled
  | "alloc_failure" -> Some Alloc_failure
  | "cancellation" -> Some Cancellation
  | _ -> None

(** Raised at a firing probe (except {!Cancellation}, which raises
    through {!Meter} as an [Exhausted Cancelled] at the next
    checkpoint instead — a cancelled run is a partial result, not a
    crash). *)
exception Injected of { point : point; hit : int }

let () =
  Printexc.register_printer (function
    | Injected { point; hit } ->
        Some
          (Printf.sprintf "Robust.Chaos.Injected(%s, hit %d)"
             (point_name point) hit)
    | _ -> None)

type arm = { point : point; at_hit : int }

type plan = { seed : int64; arms : arm list }

(* ---- SplitMix64: tiny, seed-pure, no dependence on Random ---- *)

let mix state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_below state n =
  let r = Int64.to_int (Int64.logand (mix state) 0x3FFFFFFFFFFFFFFFL) in
  r mod n

(* Hit windows per point, sized to the hit rates a Table II cell
   actually produces: one or two solver checks, hundreds of lifted
   instructions, thousands of interned nodes.  Arms landing past a
   cell's actual hit count simply never fire — the soak counts those
   cells as clean and checks them against the baseline. *)
let hit_window = function
  | Solver_timeout -> 4
  | Lifter_unmodeled -> 400
  | Alloc_failure -> 2000
  | Cancellation -> 4

(** [plan_of_seed seed] derives a deterministic plan of 1–3 arms. *)
let plan_of_seed ?(max_arms = 3) seed =
  let state = ref seed in
  let n_arms = 1 + rand_below state max_arms in
  let arms =
    List.init n_arms (fun _ ->
        let point = List.nth all_points (rand_below state 4) in
        { point; at_hit = 1 + rand_below state (hit_window point) })
  in
  { seed; arms }

let pp_plan ppf plan =
  Format.fprintf ppf "seed=0x%Lx:[%s]" plan.seed
    (String.concat ";"
       (List.map
          (fun a -> Printf.sprintf "%s@%d" (point_name a.point) a.at_hit)
          plan.arms))

(* ---- per-attempt probe state ---- *)

type state = {
  plan : plan;
  hits : int array;  (** probe hits so far, indexed by {!point_index} *)
  mutable fired : (point * int) list;  (** faults fired, newest first *)
}

let start plan = { plan; hits = Array.make 4 0; fired = [] }

let m_injected =
  List.map
    (fun p -> (point_index p, Telemetry.Metrics.counter ("robust.injected." ^ point_name p)))
    all_points

(** [fires st point] counts one probe hit and returns [Some hit] when
    the plan injects a fault at this exact hit of this point. *)
let fires st point =
  let i = point_index point in
  st.hits.(i) <- st.hits.(i) + 1;
  let hit = st.hits.(i) in
  if List.exists (fun a -> a.point = point && a.at_hit = hit) st.plan.arms
  then begin
    st.fired <- (point, hit) :: st.fired;
    Telemetry.Metrics.incr (List.assoc i m_injected);
    Some hit
  end
  else None
