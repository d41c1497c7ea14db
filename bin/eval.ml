(** Evaluation CLI: regenerate the paper's tables and figures.

    Subcommands: [table1], [table2], [fig3], [sizes], [negative],
    [validate-trace], [all].  With no subcommand, [--explain BOMB]
    runs one cell under span tracing and prints the error-stage
    diagnosis ([--tool] selects the engine, [--sink] the rendering,
    [--trace-out]/[--jsonl-out] dump the recorded spans). *)

(* an unknown --tool/--bomb name is a usage error (exit 2), as in
   `debug` and `explain`: never an empty grid or an uncaught raise *)
let unknown_name kind name valid =
  Printf.eprintf "unknown %s %S (valid: %s)\n" kind name
    (String.concat ", " valid);
  exit 2

(* selected tools, in Profile.all order whatever the flag order *)
let parse_tools = function
  | [] -> Engines.Profile.all
  | names ->
    let wanted =
      List.map
        (fun n ->
           match Engines.Profile.of_name n with
           | Some t -> t
           | None ->
             unknown_name "tool" n
               (List.map Engines.Profile.name Engines.Profile.all))
        names
    in
    List.filter (fun t -> List.mem t wanted) Engines.Profile.all

let parse_bombs names =
  List.map
    (fun n ->
       match Bombs.Catalog.find_opt n with
       | Some b -> b
       | None -> unknown_name "bomb" n Bombs.Catalog.names)
    names

(* supervision policy off the CLI flags; an unlimited budget with no
   retries is the default-policy fast path preserving current output *)
let parse_policy budget_spec retries backoff =
  let budget =
    match budget_spec with
    | None -> Robust.Budget.unlimited
    | Some spec -> (
        match Robust.Budget.parse spec with
        | Ok b -> b
        | Error e ->
          Printf.eprintf "bad --budget: %s\n" e;
          exit 2)
  in
  { Engines.Supervisor.default_policy with budget; retries; backoff }

(* a simulated crash (--kill-after) must look like a death, not a
   clean exit: distinctive code, no table output *)
let kill_exit_code = 9

(* --metrics-out: the deterministic engine counters (vm/smt/lifter/
   taint/concolic/dse) as "name value" lines — the fleet-merge
   determinism check diffs these between sequential and fleet runs *)
let metric_prefixes =
  [ "vm."; "smt."; "lifter."; "taint."; "concolic."; "dse." ]

let write_metrics_out path =
  let has_prefix name p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, reading) ->
       match reading with
       | Telemetry.Metrics.Vcounter v
         when v > 0 && List.exists (has_prefix name) metric_prefixes ->
         Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
       | _ -> ())
    (Telemetry.Metrics.snapshot ());
  Robust.Diskio.write_atomic ~path (Buffer.contents buf)

let run_table2_common ~require_journal ?(force = false) no_incremental
    no_ladder budget_spec retries backoff tools_filter bombs_filter journal
    kill_after kill_torn workers profile fleet_trace progress metrics_out =
  if workers < 1 then begin
    Printf.eprintf "--workers must be >= 1\n";
    exit 2
  end;
  let tools = parse_tools tools_filter in
  let bombs =
    match bombs_filter with
    | [] -> Bombs.Catalog.table2
    | names -> parse_bombs names
  in
  let policy = parse_policy budget_spec retries backoff in
  let ladder = if no_ladder then Some [] else None in
  let cmd = if require_journal then "resume" else "table2" in
  (* a journal the OS refuses (missing directory, full device) ends
     the run with one line: resume re-runs whatever was not journaled *)
  let io_error msg =
    Printf.eprintf "%s: %s\n" cmd msg;
    exit 2
  in
  let journal =
    match journal with
    | None ->
      if require_journal then begin
        Printf.eprintf "resume requires --journal PATH\n";
        exit 2
      end;
      if kill_after <> None || kill_torn then begin
        Printf.eprintf "--kill-after/--kill-torn require --journal\n";
        exit 2
      end;
      None
    | Some path ->
      if require_journal && not (Sys.file_exists path) then begin
        Printf.eprintf
          "resume: journal %s does not exist (nothing to resume)\n" path;
        exit 2
      end;
      (* refuse to silently re-run a whole grid because one flag
         differs from the interrupted run: compare the journal's
         stamped fingerprint against this invocation's before work *)
      let expected =
        Engines.Eval.journal_fingerprint ~incremental:(not no_incremental)
          ?ladder ~policy ~tools ~bombs ()
      in
      (match Robust.Journal.peek_fingerprint path with
       | exception Sys_error msg -> io_error msg
       | Some found when found <> expected && not force ->
         Printf.eprintf
           "%s: journal %s was written under a different configuration \
            (journal fingerprint %s, this run %s) — rerun with the \
            original flags, or pass --force to ignore the journal and \
            re-grade every cell\n"
           cmd path found expected;
         exit 2
       | None
         when require_journal && not force && Sys.file_exists path
              && (try (Unix.stat path).Unix.st_size > 0
                  with Unix.Unix_error _ -> false) ->
         (* a nonempty journal with zero decodable records is damage,
            not a fresh run: refuse with one line instead of silently
            re-grading the whole grid *)
         Printf.eprintf
           "resume: journal %s holds no decodable records — corrupt or \
            not a journal; pass --force to re-grade every cell\n"
           path;
         exit 2
       | _ -> ());
      Some
        { Engines.Eval.journal_path = path; kill_after; kill_torn }
  in
  if workers > 1 then begin
    (* fleet path: same grid, same journal semantics, sharded across
       forked workers; the crash simulation is sequential-only *)
    if kill_after <> None || kill_torn then begin
      Printf.eprintf "--kill-after/--kill-torn require --workers 1\n";
      exit 2
    end;
    let r =
      Engines.Parallel.run_table2 ~incremental:(not no_incremental) ?ladder
        ~policy ~tools ~bombs
        ?journal_path:
          (Option.map (fun j -> j.Engines.Eval.journal_path) journal)
        ~workers
        ~snapshots:(metrics_out <> None)
        ?profile ?spans_out:fleet_trace ~progress ()
    in
    print_string (Engines.Eval.render_table2 r);
    Option.iter write_metrics_out metrics_out
  end
  else begin
    (* sequential --fleet-trace: one lane, same Chrome timeline *)
    if fleet_trace <> None then begin
      Telemetry.reset ();
      Telemetry.enable ()
    end;
    match
      Engines.Eval.run_table2 ~incremental:(not no_incremental) ?ladder
        ~policy ~tools ~bombs ?journal ?profile ~progress ()
    with
    | r ->
      print_string (Engines.Eval.render_table2 r);
      Option.iter Telemetry.write_chrome fleet_trace;
      Option.iter write_metrics_out metrics_out
    | exception Engines.Eval.Simulated_crash ->
      Printf.eprintf "simulated crash after --kill-after cells\n";
      exit kill_exit_code
    | exception Sys_error msg -> io_error msg
  end

let run_table2 no_incremental no_ladder budget_spec retries backoff
    tools_filter bombs_filter journal kill_after kill_torn workers profile
    fleet_trace progress metrics_out =
  run_table2_common ~require_journal:false no_incremental no_ladder
    budget_spec retries backoff tools_filter bombs_filter journal kill_after
    kill_torn workers profile fleet_trace progress metrics_out

let run_resume force no_incremental no_ladder budget_spec retries backoff
    tools_filter bombs_filter journal workers profile fleet_trace progress
    metrics_out =
  run_table2_common ~require_journal:true ~force no_incremental no_ladder
    budget_spec retries backoff tools_filter bombs_filter journal None false
    workers profile fleet_trace progress metrics_out

let run_profile path top =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "profile: %s does not exist\n" path;
    exit 2
  end;
  match Engines.Cellprof.load path with
  | [] ->
    Printf.eprintf
      "profile: %s holds no decodable samples — corrupt or not a \
       profile sidecar; re-run table2 with --profile %s to regenerate \
       it\n"
      path path;
    exit 2
  | samples -> print_string (Engines.Cellprof.render_report ~top samples)
  | exception Sys_error msg ->
    Printf.eprintf "profile: %s\n" msg;
    exit 2

let run_fig3 () =
  let r = Engines.Eval.run_fig3 () in
  Printf.printf
    "Figure 3 (argv[1] = 7):\n\
    \  printing disabled: %d instructions propagate the symbolic value\n\
    \  printing enabled:  %d instructions (+%d), symbolic branches %d -> %d\n"
    r.noprint_tainted r.print_tainted
    (r.print_tainted - r.noprint_tainted)
    r.noprint_branches r.print_branches

let run_sizes () =
  let lo, median, hi = Bombs.Catalog.size_stats () in
  Printf.printf
    "dataset: %d bombs, binary sizes [%d .. %d] bytes, median %d\n"
    (List.length Bombs.Catalog.table2) lo hi median;
  List.iter
    (fun (b : Bombs.Common.t) ->
       Printf.printf "  %-18s %6d bytes  (%s)\n" b.name
         (Asm.Image.size (Bombs.Catalog.image b))
         b.category)
    Bombs.Catalog.table2

let run_negative () =
  let results = Engines.Eval.run_negative () in
  List.iter
    (fun (r : Engines.Eval.negative_result) ->
       Printf.printf
         "%-12s claimed the dead bomb: %b (detonated: %b)\n"
         (Engines.Profile.name r.tool) r.claimed r.detonated)
    results

let run_table1 () = print_string (Engines.Eval.render_table1 ())

(* chaos: seeded fault-injection soak over supervised cells.  The
   seed comes from --seed, else ROBUST_CHAOS_SEED, else a fixed
   default so bare runs are reproducible *)
let run_chaos no_incremental seed plans tools_filter bombs_filter verbose =
  let seed =
    match seed with
    | Some s -> s
    | None -> (
        match Sys.getenv_opt "ROBUST_CHAOS_SEED" with
        | Some v -> (
            match Int64.of_string_opt v with
            | Some s -> s
            | None ->
              Printf.eprintf "ROBUST_CHAOS_SEED=%S is not an integer\n" v;
              exit 2)
        | None -> 0xC0FFEEL)
  in
  let tools =
    match tools_filter with
    | [] -> Engines.Supervisor.default_soak_tools
    | _ -> parse_tools tools_filter
  in
  let bombs =
    match bombs_filter with
    | [] -> Engines.Supervisor.default_soak_bombs
    | names ->
      List.map (fun (b : Bombs.Common.t) -> b.name) (parse_bombs names)
  in
  if verbose then
    List.iter
      (fun i ->
         Printf.printf "plan %d: %s\n" i
           (Format.asprintf "%a" Robust.Chaos.pp_plan
              (Robust.Chaos.plan_of_seed (Int64.add seed (Int64.of_int i)))))
      (List.init plans (fun i -> i));
  let report =
    Engines.Supervisor.soak ~incremental:(not no_incremental) ~tools ~bombs
      ~seed ~plans ()
  in
  print_string (Engines.Supervisor.render_soak report);
  Printf.printf "robust counters:\n";
  List.iter
    (fun (name, reading) ->
       if String.length name >= 7 && String.sub name 0 7 = "robust." then
         match reading with
         | Telemetry.Metrics.Vcounter n when n > 0 ->
           Printf.printf "  %-32s %d\n" name n
         | _ -> ())
    (Telemetry.Metrics.snapshot ());
  (* CI gate: a containment violation — or a soak that injected
     nothing at all, which would make the gate vacuous — fails the
     run with a nonzero exit *)
  if not (Engines.Supervisor.contained report) then begin
    Printf.eprintf "chaos: containment check FAILED\n";
    exit 1
  end;
  if plans > 0 && report.Engines.Supervisor.faults_fired = 0 then begin
    Printf.eprintf
      "chaos: %d plans fired no faults — soak did not exercise \
       containment\n"
      plans;
    exit 1
  end

(* --explain: run one cell under span tracing, print the Es-stage
   diagnosis, then render/dump the trace through the chosen sinks *)
let run_explain no_incremental no_ladder budget_spec bomb_name tool_name sinks
    trace_out jsonl_out =
  match Bombs.Catalog.find_opt bomb_name with
  | None ->
    Printf.eprintf "unknown bomb %S (see `eval sizes` for the catalog)\n"
      bomb_name;
    exit 2
  | Some bomb ->
    let tool =
      match Engines.Profile.of_name tool_name with
      | Some t -> t
      | None ->
        Printf.eprintf "unknown tool %S (BAP, Triton, Angr, Angr-NoLib)\n"
          tool_name;
        exit 2
    in
    let sinks =
      match sinks with
      | [] -> [ Telemetry.Tree ]
      | names ->
        List.map
          (fun s ->
             match Telemetry.sink_of_string s with
             | Some sink -> sink
             | None ->
               Printf.eprintf
                 "unknown sink %S (silent, tree, jsonl, chrome)\n" s;
               exit 2)
          names
    in
    let budget =
      Option.map
        (fun spec ->
           match Robust.Budget.parse spec with
           | Ok b -> b
           | Error e ->
             Printf.eprintf "bad --budget: %s\n" e;
             exit 2)
        budget_spec
    in
    let r =
      Engines.Explain.run ~incremental:(not no_incremental)
        ?ladder:(if no_ladder then Some [] else None) ?budget tool bomb
    in
    print_string (Engines.Explain.render r);
    List.iter
      (fun sink ->
         match (sink : Telemetry.sink) with
         | Silent | Tree -> ()  (* the report already embeds the tree *)
         | Jsonl | Chrome ->
           Printf.printf "--- sink %s ---\n%s" (Telemetry.sink_name sink)
             (Telemetry.render_sink sink))
      sinks;
    Option.iter
      (fun path ->
         Telemetry.write_chrome path;
         Printf.printf "wrote Chrome trace to %s\n" path)
      trace_out;
    Option.iter
      (fun path ->
         Telemetry.write_jsonl path;
         Printf.printf "wrote JSONL spans to %s\n" path)
      jsonl_out

(* debug: interactive step/step-back replay over one recorded trace *)
let run_debug bomb_name input =
  match Bombs.Catalog.find_opt bomb_name with
  | None ->
    Printf.eprintf "unknown bomb %S (see `eval sizes` for the catalog)\n"
      bomb_name;
    exit 2
  | Some bomb -> Engines.Debug.run ?input bomb

(* validate-trace: independent structural check of emitted files *)
let run_validate_trace files =
  let fail = ref false in
  List.iter
    (fun path ->
       let jsonl = Filename.check_suffix path ".jsonl" in
       let outcome =
         if jsonl then
           match Telemetry.Trace_check.validate_jsonl_file path with
           | Ok n -> Ok (Printf.sprintf "%d span objects" n)
           | Error e -> Error e
         else
           match Telemetry.Trace_check.validate_chrome_file path with
           | Ok { events; spans; max_depth } ->
             Ok
               (Printf.sprintf "%d events, %d balanced spans, depth %d"
                  events spans max_depth)
           | Error e -> Error e
       in
       match outcome with
       | Ok msg -> Printf.printf "%s: OK (%s)\n" path msg
       | Error e ->
         Printf.printf "%s: INVALID (%s)\n" path e;
         fail := true)
    files;
  if !fail then exit 1

open Cmdliner

let tools_arg =
  Arg.(value & opt_all string [] & info [ "tool" ] ~doc:"Restrict to a tool")

let bombs_arg =
  Arg.(value & opt_all string [] & info [ "bomb" ] ~doc:"Restrict to a bomb")

let no_incremental_arg =
  Arg.(value & flag
       & info [ "no-incremental" ]
         ~doc:
           "Solve every query one-shot instead of through per-engine \
            incremental solver sessions (ablation; Table II must be \
            identical either way)")

let budget_arg =
  Arg.(value & opt (some string) None
       & info [ "budget" ] ~docv:"SPEC"
         ~doc:
           "Per-cell resource budget, e.g. \
            $(b,vm=200000,lift=50000,smt=2000,nodes=100000,taint=100000,wall=2.5) \
            (wall in seconds). A tripped budget grades the cell E (or \
            P for cancellation) instead of aborting the run.")

let retries_arg =
  Arg.(value & opt int 0
       & info [ "retries" ]
         ~doc:
           "Retry a budget-tripped cell this many times with the \
            budget scaled by --backoff each time")

let no_ladder_arg =
  Arg.(value & flag
       & info [ "no-ladder" ]
         ~doc:
           "Disable the solver degradation ladder: a budget tripped \
            mid-check aborts the cell (graded E) instead of retrying \
            the query down cheaper bounded strategies (graded P)")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"PATH"
         ~doc:
           "Write-ahead cell journal: append every completed cell as \
            a checksummed record, and replay valid records matching \
            this run's fingerprint instead of re-running their cells")

let kill_after_arg =
  Arg.(value & opt (some int) None
       & info [ "kill-after" ] ~docv:"N"
         ~doc:
           "Simulate a crash: die (exit 9) after N cells have been \
            freshly executed and journaled (requires --journal; \
            replayed cells do not count)")

let kill_torn_arg =
  Arg.(value & flag
       & info [ "kill-torn" ]
         ~doc:
           "With --kill-after, first write a deliberately torn record \
            (a death mid-append) that the resuming run must detect \
            and skip")

let backoff_arg =
  Arg.(value & opt float 10.0
       & info [ "backoff" ]
         ~doc:"Budget scale factor applied on each retry")

let workers_arg =
  Arg.(value & opt int 1
       & info [ "workers" ] ~docv:"N"
         ~doc:
           "Shard the grid across $(docv) forked worker processes \
            (the evaluation fleet). With --journal, each worker \
            write-ahead journals its cells and the shards are merged \
            into one canonical journal at the end. 1 = sequential.")

let profile_out_arg =
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"PATH"
         ~doc:
           "Per-cell resource profile sidecar: append one JSON line \
            per executed cell (wall time by span phase, VM steps, \
            lifted instructions, solver blast/conflict/cache \
            counters, taint coverage, degradation attribution). \
            Inspect with $(b,eval profile PATH). With --workers, \
            workers write per-slot shards merged after the run.")

let fleet_trace_arg =
  Arg.(value & opt (some string) None
       & info [ "fleet-trace" ] ~docv:"FILE"
         ~doc:
           "Write one merged Chrome trace_event timeline for the \
            whole run, with a lane (pid) per fleet worker — loadable \
            in about:tracing / Perfetto, checkable with \
            $(b,eval validate-trace)")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
         ~doc:
           "Live status line on stderr: cells done/total, per-worker \
            in-flight cells and ETA (fleet), or the current cell \
            (sequential)")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:
           "After the run, write the deterministic engine counters \
            (vm.*, smt.*, lifter.*, taint.*, concolic.*, dse.*) as \
            'name value' lines. With --workers, the fleet's \
            aggregated counters — byte-identical to a sequential \
            run's for the same grid.")

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Reproduce Table II")
    Term.(const run_table2 $ no_incremental_arg $ no_ladder_arg $ budget_arg
          $ retries_arg $ backoff_arg $ tools_arg $ bombs_arg $ journal_arg
          $ kill_after_arg $ kill_torn_arg $ workers_arg
          $ profile_out_arg $ fleet_trace_arg $ progress_arg
          $ metrics_out_arg)

let force_arg =
  Arg.(value & flag
       & info [ "force" ]
         ~doc:
           "Proceed despite a journal fingerprint mismatch: ignore the \
            incompatible journal's records and re-grade from scratch")

let resume_cmd =
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Continue a partially-journaled Table II run after a crash: \
          replay every journaled cell, execute only the missing ones \
          (requires --journal, with the same flags as the interrupted \
          run so the fingerprints match; a mismatch is refused unless \
          --force)")
    Term.(const run_resume $ force_arg $ no_incremental_arg $ no_ladder_arg
          $ budget_arg $ retries_arg $ backoff_arg $ tools_arg $ bombs_arg
          $ journal_arg $ workers_arg $ profile_out_arg
          $ fleet_trace_arg $ progress_arg $ metrics_out_arg)

let profile_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATH"
           ~doc:"Profile sidecar written by table2/resume --profile")
  in
  let top_arg =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"K"
           ~doc:"How many slowest cells to list")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Report on a per-cell resource profile sidecar: the top-K \
          slowest cells with their span-phase breakdown, wall time \
          per bomb x tool, and the Es-stage x resource correlation")
    Term.(const run_profile $ path_arg $ top_arg)

let chaos_cmd =
  let seed_arg =
    Arg.(value & opt (some int64) None
         & info [ "seed" ] ~docv:"SEED"
           ~doc:
             "Chaos seed deriving the fault plans (default: \
              $(b,ROBUST_CHAOS_SEED), else 0xC0FFEE)")
  in
  let plans_arg =
    Arg.(value & opt int 50
         & info [ "plans" ] ~doc:"Number of seed-derived fault plans")
  in
  let verbose_arg =
    Arg.(value & flag
         & info [ "v"; "verbose" ] ~doc:"Print every derived fault plan")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded fault-injection soak: run supervised cells under \
          deterministically derived fault plans and verify every \
          injected fault is contained to its cell (exit 1 otherwise).")
    Term.(const run_chaos $ no_incremental_arg $ seed_arg $ plans_arg
          $ tools_arg $ bombs_arg $ verbose_arg)

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table I")
    Term.(const run_table1 $ const ())

let fig3_cmd =
  Cmd.v (Cmd.info "fig3" ~doc:"Reproduce Figure 3")
    Term.(const run_fig3 $ const ())

let debug_cmd =
  let bomb_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BOMB")
  in
  let input_arg =
    Arg.(value & opt (some string) None
         & info [ "input" ] ~docv:"ARGV1"
           ~doc:"argv[1] for the recorded run (default: the bomb's decoy)")
  in
  Cmd.v
    (Cmd.info "debug"
       ~doc:
         "Interactive trace debugger: record one concrete execution \
          and step forward and backward through it, run to an \
          address/syscall/taint event, inspect memory rebuilt by \
          replay, and query taint provenance (reads commands from \
          stdin; try `help`)")
    Term.(const run_debug $ bomb_arg $ input_arg)

let sizes_cmd =
  Cmd.v (Cmd.info "sizes" ~doc:"Dataset binary-size statistics (§V-A)")
    Term.(const run_sizes $ const ())

let negative_cmd =
  Cmd.v (Cmd.info "negative" ~doc:"Negative-bomb false-positive check (§V-C)")
    Term.(const run_negative $ const ())

let all_cmd =
  let run () =
    run_table1 ();
    print_newline ();
    run_sizes ();
    print_newline ();
    run_table2 false false None 0 10.0 [] [] None None false 1 None None
      false None;
    print_newline ();
    run_fig3 ();
    print_newline ();
    run_negative ()
  in
  Cmd.v (Cmd.info "all" ~doc:"Everything") Term.(const run $ const ())

let validate_trace_cmd =
  let files =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"FILE"
           ~doc:"Trace files to validate (.jsonl validates as JSONL \
                 spans, anything else as Chrome trace_event JSON)")
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:"Structurally validate emitted telemetry trace files")
    Term.(const run_validate_trace $ files)

(* the group default: `eval --explain <bomb>` with no subcommand *)
let explain_term =
  let explain_arg =
    Arg.(value & opt (some string) None
         & info [ "explain" ] ~docv:"BOMB"
           ~doc:"Run one Table II cell under span tracing and print \
                 the Es0-Es3 error-stage diagnosis")
  in
  let tool_arg =
    Arg.(value & opt string "BAP"
         & info [ "tool" ] ~docv:"TOOL"
           ~doc:"Engine profile for --explain (BAP, Triton, Angr, \
                 Angr-NoLib)")
  in
  let sink_arg =
    Arg.(value & opt_all string []
         & info [ "sink" ] ~docv:"SINK"
           ~doc:"Telemetry sink(s) to render after the diagnosis \
                 (silent, tree, jsonl, chrome); repeatable")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the recorded spans as Chrome trace_event JSON \
                 (loadable in about:tracing / Perfetto)")
  in
  let jsonl_out_arg =
    Arg.(value & opt (some string) None
         & info [ "jsonl-out" ] ~docv:"FILE"
           ~doc:"Write the recorded spans as JSONL")
  in
  let run no_incremental no_ladder budget bomb tool sinks trace_out jsonl_out =
    match bomb with
    | Some bomb_name ->
      run_explain no_incremental no_ladder budget bomb_name tool sinks
        trace_out jsonl_out;
      `Ok ()
    | None -> `Help (`Pager, None)
  in
  Term.(ret
          (const run $ no_incremental_arg $ no_ladder_arg $ budget_arg
           $ explain_arg $ tool_arg $ sink_arg $ trace_out_arg
           $ jsonl_out_arg))

let () =
  let info = Cmd.info "eval" ~doc:"Logic-bomb evaluation harness" in
  exit (Cmd.eval (Cmd.group ~default:explain_term info
                    [ table1_cmd; table2_cmd; resume_cmd; fig3_cmd;
                      sizes_cmd; negative_cmd; validate_trace_cmd;
                      chaos_cmd; debug_cmd; profile_cmd;
                      all_cmd ]))
