(** Global metrics registry: counters, gauges, and log2-bucket
    histograms.

    Metrics are *always on*: incrementing a pre-registered counter is
    one mutable-field update, cheap enough for the VM step loop and
    the solver's query path, so every reproduced number (Figure 3's
    tainted-instruction count, Table II's solver work) is derivable
    from the registry regardless of whether span tracing is enabled.

    Registration is get-or-create by name — layers declare their
    metrics at module initialisation and hold the record, never paying
    a hash lookup on the hot path.  Names are dotted
    [layer.measurement] strings ([vm.steps], [taint.tainted_insns],
    [smt.queries], ...). *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

(** Bucket [0] holds values [<= 0]; bucket [i >= 1] holds
    [2^(i-1) .. 2^i - 1].  63 bits of OCaml int land in bucket 62, so
    64 buckets cover every value including [max_int]. *)
let num_buckets = 64

type histogram = {
  h_name : string;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let kind_mismatch name =
  invalid_arg
    (Printf.sprintf
       "Telemetry.Metrics: %S is already registered with another type" name)

let counter name : counter =
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c
  | Some _ -> kind_mismatch name
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace registry name (Counter c);
    c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

let gauge name : gauge =
  match Hashtbl.find_opt registry name with
  | Some (Gauge g) -> g
  | Some _ -> kind_mismatch name
  | None ->
    let g = { g_name = name; g_value = 0.0 } in
    Hashtbl.replace registry name (Gauge g);
    g

let set g v = g.g_value <- v
let gauge_add g v = g.g_value <- g.g_value +. v

(** [bucket_of v] is the log2 bucket index of [v]: [0] for [v <= 0],
    otherwise [floor (log2 v) + 1].  [bucket_of 1 = 1],
    [bucket_of max_int = 62]. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v <> 0 do
      Stdlib.incr b;
      v := !v lsr 1
    done;
    !b
  end

(** Inclusive value range covered by bucket [i]. *)
let bucket_range i =
  if i = 0 then (min_int, 0)
  else (1 lsl (i - 1), (1 lsl i) - 1)

let histogram name : histogram =
  match Hashtbl.find_opt registry name with
  | Some (Histogram h) -> h
  | Some _ -> kind_mismatch name
  | None ->
    let h =
      { h_name = name;
        h_buckets = Array.make num_buckets 0;
        h_count = 0;
        h_sum = 0;
        h_max = 0 }
    in
    Hashtbl.replace registry name (Histogram h);
    h

let observe h v =
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

(* ------------------------------------------------------------------ *)
(* Reading the registry                                                *)
(* ------------------------------------------------------------------ *)

(** Snapshot value of one metric, kind-tagged. *)
type reading =
  | Vcounter of int
  | Vgauge of float
  | Vhistogram of {
      count : int;
      sum : int;
      max : int;
      buckets : (int * int) list;  (** (bucket index, count), non-zero only *)
    }

let read = function
  | Counter c -> Vcounter c.c_value
  | Gauge g -> Vgauge g.g_value
  | Histogram h ->
    let buckets = ref [] in
    for i = num_buckets - 1 downto 0 do
      if h.h_buckets.(i) > 0 then buckets := (i, h.h_buckets.(i)) :: !buckets
    done;
    Vhistogram { count = h.h_count; sum = h.h_sum; max = h.h_max;
                 buckets = !buckets }

(** Every registered metric, sorted by name. *)
let snapshot () : (string * reading) list =
  Hashtbl.fold (fun name m acc -> (name, read m) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Current value of a counter by name; [0] when absent (or another
    kind) — callers measuring deltas never need the metric to exist
    yet. *)
let counter_value name =
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c.c_value
  | _ -> 0

let gauge_value_of name =
  match Hashtbl.find_opt registry name with
  | Some (Gauge g) -> g.g_value
  | _ -> 0.0

(** Zero every metric, keeping registrations (held records stay
    valid). *)
let reset () =
  Hashtbl.iter
    (fun _ m ->
       match m with
       | Counter c -> c.c_value <- 0
       | Gauge g -> g.g_value <- 0.0
       | Histogram h ->
         Array.fill h.h_buckets 0 num_buckets 0;
         h.h_count <- 0;
         h.h_sum <- 0;
         h.h_max <- 0)
    registry

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_reading = function
  | Vcounter v -> string_of_int v
  | Vgauge v -> Printf.sprintf "%.6f" v
  | Vhistogram { count; sum; max; _ } ->
    Printf.sprintf "count=%d sum=%d max=%d" count sum max

(** Human-readable table of every non-zero metric. *)
let render () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, r) ->
       let zero =
         match r with
         | Vcounter 0 -> true
         | Vgauge v -> v = 0.0
         | Vhistogram { count = 0; _ } -> true
         | _ -> false
       in
       if not zero then
         Buffer.add_string buf
           (Printf.sprintf "  %-28s %s\n" name (render_reading r)))
    (snapshot ());
  Buffer.contents buf
