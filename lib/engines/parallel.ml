(** Fleet-parallel Table II: shard the (tool × bomb) grid across a
    {!Fleet.Pool} of forked workers and fold the results — table,
    journal and all — back into exactly what the sequential
    {!Eval.run_table2} produces.

    Each worker is a fresh process, so per-cell heap growth, cache
    pollution and GC pressure never accumulate across the grid the way
    they do in one long sequential run; on a single core the speedup
    comes from that process hygiene, on many cores from parallelism
    too.

    Determinism: workers receive only the cell key; each resolves the
    tool and bomb from the closed-over run configuration and executes
    {!Supervisor.run_cell} exactly as the sequential path would, so a
    cell's outcome does not depend on which worker ran it or in what
    order.  Results are collated in canonical grid order, and with
    [journal_path] set the per-worker write-ahead journals are merged
    ({!Fleet.Merge}) into one canonical journal byte-identical to the
    one a fresh sequential journaled run writes. *)

let m_replayed_cells = Robust.Journal.count_replayed

(** How a fleet-level failure (worker killed repeatedly, runner
    exception, cancellation) grades: synthesized supervised outcome,
    same mapping the in-process supervisor applies. *)
let outcome_of_failure ~attempts (f : Fleet.Pool.failure) :
  Supervisor.outcome =
  let cause =
    match f with
    | Fleet.Pool.Cancelled -> Supervisor.Exhausted Robust.Meter.Cancelled
    | f -> Supervisor.Crashed ("fleet: " ^ Fleet.Pool.failure_to_string f)
  in
  { Supervisor.graded =
      { Grade.cell = Supervisor.cell_of_cause cause;
        proposed = None;
        detonated = false;
        false_positive = false;
        diags = [ Supervisor.diag_of_cause cause ];
        work = 0 };
    cause = Some cause;
    stage = Supervisor.stage_of_cause cause;
    attempts;
    fired = [] }

let decode_payload payload : Supervisor.outcome option =
  Option.bind
    (Telemetry.Trace_check.parse_opt payload)
    Journal_codec.decode_outcome

(* leftover per-worker journals can outlive the pool geometry that
   wrote them (a 4-worker run crashed, this one has 2), so scan a
   generous slot range rather than [workers] *)
let existing_worker_journals path =
  Fleet.Pool.worker_journal_paths ~path ~workers:256

(** Fleet counterpart of {!Eval.run_table2}.  [workers] is the pool
    size; [journal_path] enables write-ahead journaling with the same
    fingerprint, replay and resume semantics as the sequential
    [?journal] (including recovery from per-worker journals left by a
    crashed fleet run).  Worker deaths re-dispatch the cell up to
    [max 1 policy.retries] times, each attempt escalating the budget
    by the policy's backoff, before the cell is graded as crashed. *)
(** [?snapshots] turns on cross-process metrics aggregation: workers
    piggyback registry deltas on replies and the aggregate is
    published into the master registry after shutdown, so the fleet's
    [vm.*]/[smt.*] counters equal the sequential run's.  [?profile]
    writes the {!Cellprof} sidecar (workers append to per-slot shards,
    merged after the run).  [?spans_out] writes one merged Chrome
    trace with a lane per worker.  [?progress] keeps a live
    cells/inflight/ETA line on stderr. *)
let run_table2 ?incremental ?ladder ?policy ?(tools = Profile.all)
    ?(bombs = Bombs.Catalog.table2) ?journal_path ?(workers = 2)
    ?(snapshots = false) ?profile ?spans_out
    ?(progress = false) () : Eval.table2_result =
  let pol = Option.value ~default:Supervisor.default_policy policy in
  let fp =
    Eval.journal_fingerprint ?incremental ?ladder ?policy ~tools ~bombs ()
  in
  let order =
    List.concat_map
      (fun bomb -> List.map (fun tool -> Eval.cell_key tool bomb) tools)
      bombs
  in
  (* replay every journaled cell — the main journal plus any worker
     journals orphaned by a crashed master — before queueing work *)
  let replayable : (string, Supervisor.outcome) Hashtbl.t =
    Hashtbl.create 128
  in
  let load_into path =
    let loaded = Robust.Journal.load ~fingerprint:fp path in
    List.iter
      (fun (e : Robust.Journal.entry) ->
         match Journal_codec.decode_outcome e.cell with
         | Some o -> Hashtbl.replace replayable e.key o
         | None ->
             Robust.Journal.count_undecodable ();
             Telemetry.Log.warnf
               "journal: record for %s does not decode; cell will re-run"
               e.key)
      loaded.entries
  in
  (match journal_path with
   | None -> ()
   | Some path ->
       load_into path;
       List.iter load_into (existing_worker_journals path));
  (* the worker resolves the cell from the closed-over configuration:
     only the key crosses the pipe, and custom tool/bomb lists work *)
  let run ~attempt ~key (_task : string) =
    let tool, bomb =
      match String.index_opt key '/' with
      | None -> invalid_arg ("fleet cell key without '/': " ^ key)
      | Some i ->
          let tname = String.sub key 0 i in
          let bname =
            String.sub key (i + 1) (String.length key - i - 1)
          in
          ( (match Profile.of_name tname with
             | Some t when List.mem t tools -> t
             | _ -> invalid_arg ("fleet cell key names no tool: " ^ key)),
            (match
               List.find_opt
                 (fun (b : Bombs.Common.t) -> b.name = bname)
                 bombs
             with
             | Some b -> b
             | None -> invalid_arg ("fleet cell key names no bomb: " ^ key)) )
    in
    (* a re-dispatched cell (its worker died) escalates like a
       supervisor retry would *)
    let policy =
      if attempt <= 1 then pol
      else
        { pol with
          budget =
            Robust.Budget.scale
              (pol.backoff ** float_of_int (attempt - 1))
              pol.budget }
    in
    match profile with
    | None ->
        let o = Supervisor.run_cell ?incremental ?ladder ~policy tool bomb in
        Journal_codec.encode_outcome o
    | Some path ->
        (* each worker appends to its own sidecar shard, merged after
           the run — same discipline as the write-ahead journals.
           [phases:true] composes with span shipping: the pool enabled
           tracing already, and its shard flush runs after this returns *)
        let o, sample =
          Cellprof.profiled ~phases:true ~key (fun () ->
              Supervisor.run_cell ?incremental ?ladder ~policy tool bomb)
        in
        let slot =
          Option.value ~default:0 (Fleet.Pool.worker_slot ())
        in
        Cellprof.append ~path:(Cellprof.shard_path ~path slot) sample;
        Journal_codec.encode_outcome o
  in
  let config =
    { Fleet.Pool.workers;
      respawns = max 1 pol.retries;
      task_timeout = None;
      snapshots;
      spans = spans_out;
      journal =
        Option.map
          (fun p -> { Fleet.Pool.j_path = p; j_fingerprint = fp })
          journal_path }
  in
  (* stale observability shards from a crashed prior run must not leak
     into this run's merge *)
  (match profile with
   | Some path ->
       List.iter
         (fun p -> try Sys.remove p with Sys_error _ -> ())
         (Cellprof.existing_shards ~path)
   | None -> ());
  (match spans_out with
   | Some base -> Fleet.Spans.remove_shards ~base
   | None -> ());
  let pool = Fleet.Pool.create ~config run in
  let restore_sigint = Fleet.Pool.install_sigint pool in
  let total = List.length order in
  let t_start = Unix.gettimeofday () in
  let submitted = ref 0 in
  let results =
    Fun.protect
      ~finally:(fun () ->
        restore_sigint ();
        Fleet.Pool.shutdown pool)
    @@ fun () ->
    List.iter
      (fun key ->
         if not (Hashtbl.mem replayable key) then begin
           incr submitted;
           Fleet.Pool.submit pool ~key ~task:key ()
         end)
      order;
    let last_tick = ref 0. in
    let on_round () =
      if progress then begin
        let t = Unix.gettimeofday () in
        if t -. !last_tick >= 0.5 then begin
          last_tick := t;
          let left = Fleet.Pool.pending pool in
          let done_fresh = !submitted - left in
          let eta =
            if done_fresh > 0 then
              (t -. t_start) /. float_of_int done_fresh *. float_of_int left
            else 0.
          in
          let lanes =
            String.concat " "
              (List.map
                 (fun (slot, alive, task) ->
                    Printf.sprintf "w%d:%s" slot
                      (if not alive then "dead"
                       else Option.value ~default:"-" task))
                 (Fleet.Pool.worker_states pool))
          in
          Printf.eprintf "\r[fleet] cells %d/%d  %s  ETA %.0fs   %!"
            (total - left) total lanes eta
        end
      end
    in
    let rs = Fleet.Pool.drain ~on_round pool in
    if progress then prerr_newline ();
    rs
  in
  (* fold worker-reported metrics into the master registry, stitch the
     span shards into one Chrome timeline, merge the profile shards *)
  if snapshots then Fleet.Pool.publish_metrics pool;
  (match spans_out with
   | Some out ->
       let report = Fleet.Spans.merge_chrome ~base:out ~out () in
       Telemetry.Log.infof
         "fleet: merged %d span shard(s), %d span(s), %d skipped -> %s"
         report.Fleet.Spans.mr_shards report.Fleet.Spans.mr_spans
         report.Fleet.Spans.mr_skipped out
   | None -> ());
  (match profile with
   | Some path -> Cellprof.merge_shards ~path ~order ()
   | None -> ());
  let fresh : (string, Supervisor.outcome) Hashtbl.t = Hashtbl.create 128 in
  List.iter
    (fun (r : Fleet.Pool.result) ->
       let o =
         match r.r_payload with
         | Ok payload -> (
             match decode_payload payload with
             | Some o -> o
             | None ->
                 Telemetry.Log.warnf
                   "fleet: undecodable payload for %s; grading as crash"
                   r.r_key;
                 outcome_of_failure ~attempts:1
                   (Fleet.Pool.Run_raised "undecodable worker payload"))
         | Error (Fleet.Pool.Worker_lost n as f) ->
             outcome_of_failure ~attempts:n f
         | Error f -> outcome_of_failure ~attempts:1 f
       in
       Hashtbl.replace fresh r.r_key o)
    results;
  (* fold the per-worker journals (and any prior records) back into
     one canonical journal, then retire the shards *)
  (match journal_path with
   | None -> ()
   | Some path ->
       let shards = existing_worker_journals path in
       let report =
         Fleet.Merge.run ~fingerprint:fp ~order ~sources:(path :: shards)
           ~out:path ()
       in
       ignore (report : Fleet.Merge.report);
       List.iter Sys.remove shards);
  let cells =
    List.concat_map
      (fun bomb ->
         List.map
           (fun tool ->
              let key = Eval.cell_key tool bomb in
              match Hashtbl.find_opt replayable key with
              | Some o ->
                  m_replayed_cells ();
                  Eval.cell_of_outcome tool bomb o
              | None ->
                  let o =
                    match Hashtbl.find_opt fresh key with
                    | Some o -> o
                    | None ->
                        (* unreachable unless the pool lost the task
                           without reporting it; grade, don't raise *)
                        outcome_of_failure ~attempts:0
                          (Fleet.Pool.Run_raised "no result from fleet")
                  in
                  Eval.cell_of_outcome tool bomb o)
           tools)
      bombs
  in
  Eval.collate ~tools cells
