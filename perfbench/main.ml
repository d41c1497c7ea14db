(** The repository benchmark: grades named Table II workloads through
    [Engines.Grade.run_cell], the engine path [eval table2] runs, one
    cell at a time in one process.

    {v main.exe --workload NAME --seed N --seconds S --trace 0|1 v}

    Every cell's grade is checked against the committed reference
    [perfbench/table2_reference.txt]; a cell whose grade differs, or
    that raises, is counted in [failed].  With [--trace 0] the workload
    is timed with span tracing off and the end-to-end metrics are
    reported.  With [--trace 1] the workload runs once untraced and
    once traced, and the per-layer metrics are derived from the spans
    and counters the program already records, plus the benchmark's own
    timing of direct [Smt.Blast] / [Smt.Sat] calls on the
    BAP/srand_bomb query (on [table2_fast] and [sat_srand]).  The last
    line of standard output is one JSON object:
    [{"correct", "attempted", "failed", "metrics"}]. *)

module Profile = Engines.Profile

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type cell = { tool : Profile.tool; bomb : Bombs.Common.t }

let key c = Profile.name c.tool ^ "/" ^ c.bomb.name

(* Budget-bound outliers kept out of [table2_fast]: Angr/srand_bomb
   alone takes ~10 minutes, and the other two are workloads of their
   own below. *)
let excluded = [ "BAP/srand_bomb"; "Angr/srand_bomb"; "Angr/sha1_bomb" ]

(* Fisher-Yates under the workload seed: the same seed gives the same
   cell order. *)
let shuffle seed cells =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list cells in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let single tool name = [ { tool; bomb = Bombs.Catalog.find name } ]

let workload_cells name seed =
  match name with
  | "table2_fast" ->
      Bombs.Catalog.table2
      |> List.concat_map (fun bomb ->
             List.map (fun tool -> { tool; bomb }) Profile.all)
      |> List.filter (fun c -> not (List.mem (key c) excluded))
      |> shuffle seed
  | "sat_srand" -> single Profile.Bap "srand_bomb"
  | "symstep_sha1" -> single Profile.Angr "sha1_bomb"
  | w -> failwith ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Grade reference                                                     *)
(* ------------------------------------------------------------------ *)

let reference_path = "perfbench/table2_reference.txt"

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

(* "TOOL/bomb" -> expected cell symbol *)
let load_reference () =
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let rows =
    read_lines reference_path
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map words
  in
  match rows with
  | ("bomb" :: tools) :: grid ->
      let tbl = Hashtbl.create 128 in
      List.iter
        (function
          | bomb :: grades when List.length grades = List.length tools ->
              List.iter2
                (fun t g -> Hashtbl.replace tbl (t ^ "/" ^ bomb) g)
                tools grades
          | row -> failwith ("malformed reference row: " ^ String.concat " " row))
        grid;
      tbl
  | _ -> failwith ("malformed reference " ^ reference_path)

(* ------------------------------------------------------------------ *)
(* Running cells                                                       *)
(* ------------------------------------------------------------------ *)

(* Counters the program keeps whether or not tracing is on. *)
let counter_names =
  [ "vm.steps"; "trace.events"; "taint.kills"; "lifter.insns_lifted";
    "lifter.unmodeled"; "concolic.constraints"; "concolic.sym_branches";
    "dse.steps"; "dse.states"; "dse.forks"; "smt.queries"; "smt.cache_hits";
    "smt.sat"; "smt.unsat"; "smt.unknown"; "smt.blasted_nodes";
    "smt.conflicts" ]

let read_counters () =
  List.map (fun n -> (n, Telemetry.Metrics.counter_value n)) counter_names

type pass = {
  wall : float;  (** seconds to grade every cell *)
  attempted : int;
  failed : int;
  deltas : (string * int) list;  (** counter deltas over the pass *)
  minor_words : float;
}

let run_pass reference cells =
  let c0 = read_counters () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let failed =
    List.fold_left
      (fun failed c ->
         let expected = Hashtbl.find reference (key c) in
         match Engines.Grade.run_cell c.tool c.bomb with
         | g ->
             let got = Concolic.Error.cell_symbol g.cell in
             if got = expected then failed
             else begin
               Printf.eprintf "MISMATCH %s: graded %s, reference %s\n%!"
                 (key c) got expected;
               failed + 1
             end
         | exception e ->
             Printf.eprintf "MISMATCH %s: raised %s, reference %s\n%!"
               (key c) (Printexc.to_string e) expected;
             failed + 1)
      0 cells
  in
  let wall = now () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let deltas =
    List.map2 (fun (n, a) (_, b) -> (n, b - a)) c0 (read_counters ())
  in
  { wall; attempted = List.length cells; failed; deltas; minor_words }

let delta p name = float_of_int (List.assoc name p.deltas)

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let div a b = if b = 0.0 then 0.0 else a /. b

let json_number v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-26s %16.6f %s\n" name v unit)
    metrics;
  Printf.printf "  %-26s %16d of %d cells\n" "cells_failed" failed attempted;
  let body =
    metrics
    |> List.map (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
    |> String.concat ", "
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* What a process pays before its first cell: reading the grade
   reference and linking every Table II bomb image from its assembly
   source.  The image cache is emptied first so each repetition links
   afresh. *)
let setup () =
  let t0 = now () in
  let reference = load_reference () in
  Hashtbl.reset Bombs.Catalog.image_cache;
  List.iter (fun b -> ignore (Bombs.Catalog.image b)) Bombs.Catalog.table2;
  (reference, now () -. t0)

let setup_repeats = 25

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ------------------------------------------------------------------ *)
(* Counter repeat check                                                *)
(* ------------------------------------------------------------------ *)

(* Counters that must repeat exactly between runs of the same build:
   later changes cite them to show the search was unchanged.  The first
   untraced pass of each build and workload is recorded in a ledger
   inside the checkout; every later pass is compared against it. *)
let ledger_path = ".perfbench/counters.txt"

let repeat_counters p =
  List.map
    (fun n -> (n, List.assoc n p.deltas))
    [ "vm.steps"; "dse.steps"; "smt.queries"; "smt.conflicts";
      "smt.blasted_nodes" ]
  @ [ ("alloc_words", int_of_float p.minor_words) ]

(* Names of the counters that differ from the ledger's record. *)
let check_repeat workload p =
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let prefix = build ^ " " ^ workload ^ " " in
  let counters = repeat_counters p in
  let render cs =
    String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) cs)
  in
  match
    List.find_opt (String.starts_with ~prefix)
      (if Sys.file_exists ledger_path then read_lines ledger_path else [])
  with
  | None ->
      (try Sys.mkdir (Filename.dirname ledger_path) 0o755
       with Sys_error _ -> ());
      let oc =
        open_out_gen [ Open_append; Open_creat ] 0o644 ledger_path
      in
      output_string oc (prefix ^ render counters ^ "\n");
      close_out oc;
      []
  | Some line ->
      let recorded =
        String.sub line (String.length prefix)
          (String.length line - String.length prefix)
      in
      let differing =
        List.filter
          (fun (n, v) ->
             not (List.mem (Printf.sprintf "%s=%d" n v)
                    (String.split_on_char ' ' recorded)))
          counters
      in
      List.iter
        (fun (n, v) ->
           Printf.eprintf
             "COUNTER %s=%d differs from an earlier run of this build: %s\n%!"
             n v recorded)
        differing;
      List.map fst differing

(* ------------------------------------------------------------------ *)
(* Span analysis of the traced pass                                    *)
(* ------------------------------------------------------------------ *)

let secs s = Telemetry.duration_us s /. 1e6

type spans = {
  all : Telemetry.span list;
  kids : (int, Telemetry.span) Hashtbl.t;  (** parent id -> children *)
}

let spans () =
  let all = Telemetry.finished_spans () in
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun (s : Telemetry.span) ->
       Option.iter (fun p -> Hashtbl.add kids p s) s.parent)
    all;
  { all; kids }

let children t (s : Telemetry.span) = Hashtbl.find_all t.kids s.id

(* Inclusive seconds under spans named [name], not counting one nested
   in another of the same name twice. *)
let inclusive t name =
  let rec outer (s : Telemetry.span) =
    if s.name = name then secs s
    else List.fold_left (fun a c -> a +. outer c) 0.0 (children t s)
  in
  List.fold_left
    (fun a (s : Telemetry.span) -> if s.parent = None then a +. outer s else a)
    0.0 t.all

(* A span's self time: its duration minus its children's. *)
let self_time t name =
  List.fold_left
    (fun a (s : Telemetry.span) ->
       if s.name <> name then a
       else
         a +. secs s
         -. List.fold_left (fun a c -> a +. secs c) 0.0 (children t s))
    0.0 t.all

let leaf_spans = [ "vm.run"; "trace.record"; "taint.analyze"; "smt.check" ]

(* Seconds of [s] covered by the outermost leaf spans beneath it. *)
let rec leaf_cover t s =
  List.fold_left
    (fun a (c : Telemetry.span) ->
       a +. if List.mem c.name leaf_spans then secs c else leaf_cover t c)
    0.0 (children t s)

let cells_of t = List.filter (fun (s : Telemetry.span) -> s.name = "cell") t.all

(* ------------------------------------------------------------------ *)
(* BAP/srand_bomb decomposition                                        *)
(* ------------------------------------------------------------------ *)

type decomposition = {
  encode_s : float;
  encode_words : float;
  nodes : int;
  vars : int;
  clauses : int;
  solve_s : float;
  solve_words : float;
  conflicts : int;
}

(* The BAP cell's final query, rebuilt through the same public calls the
   engine makes (trace, symbolic replay into a session that interns the
   path constraint), then bit-blasted and searched as two separately
   timed calls. *)
let decompose (bomb : Bombs.Common.t) =
  let seed = Bombs.Common.winning_argv bomb in
  let trace =
    Trace.record ~max_events:400_000
      ~config:(Bombs.Common.config_for ~winning:false bomb seed)
      (Bombs.Catalog.image bomb)
  in
  let session = Smt.Session.create ~config:Profile.solver_config () in
  let path =
    Concolic.Trace_exec.run Concolic.Trace_exec.bap_like_config ~session trace
  in
  let cs =
    List.filter_map
      (fun (e, _) ->
         let e = Smt.Session.intern session e in
         if Smt.Expr.is_true e then None else Some e)
      path.constraints
  in
  let blast = Smt.Blast.create () in
  let w0 = Gc.minor_words () and t0 = now () in
  List.iter (Smt.Blast.assert_true blast) cs;
  let encode_s = now () -. t0 and encode_words = Gc.minor_words () -. w0 in
  let vars, clauses, _ = Smt.Blast.stats blast in
  let w1 = Gc.minor_words () and t1 = now () in
  ignore
    (Smt.Blast.solve ~conflict_budget:Profile.solver_config.conflict_budget
       blast);
  let solve_s = now () -. t1 and solve_words = Gc.minor_words () -. w1 in
  { encode_s; encode_words; nodes = Smt.Blast.num_nodes blast; vars; clauses;
    solve_s; solve_words; conflicts = Smt.Blast.num_conflicts blast }

let blast_sat_units =
  [ ("blast.encode_s", "s"); ("blast.vars", "count");
    ("blast.clauses", "count"); ("blast.alloc_mwords", "Mwords");
    ("sat.solve_s", "s"); ("sat.conflicts", "count");
    ("sat.conflicts_per_s", "1/s"); ("sat.words_per_conflict", "words") ]

(* [cell] is a pass of BAP/srand_bomb alone. *)
let blast_sat_metrics cell =
  let d = decompose (Bombs.Catalog.find "srand_bomb") in
  let conflicts = List.assoc "smt.conflicts" cell.deltas
  and nodes = List.assoc "smt.blasted_nodes" cell.deltas in
  let valid = d.conflicts = conflicts && d.nodes = nodes in
  if not valid then
    Printf.eprintf
      "DECOMPOSITION INVALID: direct calls gave %d conflicts / %d nodes, \
       the cell %d / %d; blast.* and sat.* read -1\n%!"
      d.conflicts d.nodes conflicts nodes;
  let c = float_of_int d.conflicts in
  List.map2
    (fun (n, u) v -> (n, (if valid then v else -1.0), u))
    blast_sat_units
    [ d.encode_s; float_of_int d.vars; float_of_int d.clauses;
      d.encode_words /. 1e6; d.solve_s; c; div c d.solve_s;
      div d.solve_words c ]

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload table2_fast|sat_srand|symstep_sha1 \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t -> (w, s, secs, t)
  | _ -> usage ()

(* Whole passes while another one still fits in [seconds]; at least
   one. *)
let end_to_end ~seconds ~setup_s workload reference cells =
  let t0 = now () in
  let rec go acc =
    let p = run_pass reference cells in
    ignore (check_repeat workload p);
    let acc = p :: acc in
    if now () -. t0 +. p.wall <= seconds then go acc else List.rev acc
  in
  let passes = go [] in
  Printf.printf "passes %d\n" (List.length passes);
  ( passes,
    [ ("wall_s", median (List.map (fun p -> p.wall) passes), "s");
      ("setup_s", setup_s, "s");
      ("peak_heap_mb", peak_heap_mb (), "MB") ] )

let per_layer workload reference cells =
  let plain = run_pass reference cells in
  let mismatched = check_repeat workload plain in
  Telemetry.reset ();
  Telemetry.enable ();
  let traced = run_pass reference cells in
  Telemetry.disable ();
  (* tracing must not change the search: every counter but allocation
     repeats between the two passes *)
  let mismatched =
    mismatched
    @ List.filter_map
        (fun (n, v) ->
           if v = List.assoc n traced.deltas then None
           else begin
             Printf.eprintf "COUNTER %s=%d untraced, %d traced\n%!" n v
               (List.assoc n traced.deltas);
             Some n
           end)
        plain.deltas
  in
  let t = spans () in
  let count name = delta plain name in
  let cells_s = cells_of t in
  let cell_wall = List.fold_left (fun a s -> a +. secs s) 0.0 cells_s in
  let tool_s tool =
    List.fold_left
      (fun a s ->
         if Telemetry.attr s "tool" = Some (Profile.name tool) then a +. secs s
         else a)
      0.0 cells_s
  in
  let check_s = inclusive t "smt.check" in
  let dse_self = self_time t "concolic.dse" in
  let queries = count "smt.queries" in
  (* blast.* and sat.* are the benchmark's own direct calls on the
     BAP/srand_bomb query, valid only when they reproduce that cell's
     counters; symstep_sha1 bypasses the SAT search and skips them *)
  let extra, blast_sat =
    match workload with
    | "sat_srand" -> ([], blast_sat_metrics plain)
    | "table2_fast" ->
        let cell = run_pass reference (single Profile.Bap "srand_bomb") in
        ([ cell ], blast_sat_metrics cell)
    | _ -> ([], List.map (fun (n, u) -> (n, 0.0, u)) blast_sat_units)
  in
  let metrics =
    [ ("vm.run_s", inclusive t "vm.run", "s");
      ("vm.steps", count "vm.steps", "count");
      ("trace.record_s", inclusive t "trace.record", "s");
      ("trace.events", count "trace.events", "count");
      ("taint.analyze_s", inclusive t "taint.analyze", "s");
      ("taint.kills", count "taint.kills", "count");
      ("lifter.insns_lifted", count "lifter.insns_lifted", "count");
      ("lifter.unmodeled", count "lifter.unmodeled", "count");
      ("concolic.trace_exec_s", inclusive t "concolic.trace_exec", "s");
      ("concolic.constraints", count "concolic.constraints", "count");
      ("concolic.sym_branches", count "concolic.sym_branches", "count");
      ("dse.explore_s", inclusive t "concolic.dse", "s");
      ("dse.self_s", dse_self, "s");
      ("dse.steps", count "dse.steps", "count");
      ("dse.steps_per_s", div (count "dse.steps") dse_self, "1/s");
      ("dse.states", count "dse.states", "count");
      ("dse.forks", count "dse.forks", "count");
      ("smt.check_s", check_s, "s");
      ("smt.queries", queries, "count");
      ("smt.cache_hit_ratio", div (count "smt.cache_hits") queries, "ratio");
      ("smt.sat", count "smt.sat", "count");
      ("smt.unsat", count "smt.unsat", "count");
      ("smt.unknown", count "smt.unknown", "count");
      ("smt.blasted_nodes", count "smt.blasted_nodes", "count");
      ("smt.conflicts", count "smt.conflicts", "count");
      ( "smt.conflicts_per_s",
        div (count "smt.conflicts") check_s,
        "1/s" ) ]
    @ blast_sat
    @ [ ("cell.self_s", self_time t "cell", "s");
        ( "cell.attributed_share",
          div (List.fold_left (fun a s -> a +. leaf_cover t s) 0.0 cells_s)
            cell_wall,
          "ratio" ) ]
    @ List.map
        (fun tool -> ("cells." ^ Profile.name tool ^ "_s", tool_s tool, "s"))
        Profile.all
    @ [ ("alloc_mwords", plain.minor_words /. 1e6, "Mwords");
        ( "trace_overhead_pct",
          100.0 *. div (traced.wall -. plain.wall) plain.wall,
          "%" );
        ("counters.mismatched", float_of_int (List.length mismatched), "count")
      ]
  in
  (plain :: traced :: extra, metrics)

let () =
  let workload, seed, seconds, traced = parse_args () in
  (* record every trace afresh, as the default-flag run does *)
  Trace.set_store_dir None;
  let cells = workload_cells workload seed in
  Printf.printf "workload %s seed %d cells %d order %s\n%!" workload seed
    (List.length cells)
    (String.concat "," (List.map key cells));
  let setups = List.init setup_repeats (fun _ -> setup ()) in
  let reference = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) in
  let passes, metrics =
    if traced then per_layer workload reference cells
    else end_to_end ~seconds ~setup_s workload reference cells
  in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 passes in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 passes in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
