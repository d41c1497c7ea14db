(** Fleet battery: pool scheduling (work-stealing, latency stamps,
    runner exceptions), fault injection (worker killed mid-cell →
    re-dispatch with identical grading, watchdog on a stuck worker,
    cooperative cancellation), journal-shard merging (canonical
    byte-identity, torn-tail healing, orphan keys), fleet-vs-sequential
    Table II determinism across 1/2/4 workers (table and journal both
    byte-identical, replayable by the sequential resume path). *)

open Concolic.Error

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let counter = Telemetry.Metrics.counter_value

(* ---------------- the pool ---------------- *)

let echo_config workers =
  { Fleet.Pool.default_config with workers }

let pool_echo_many () =
  let t =
    Fleet.Pool.create ~config:(echo_config 4) (fun ~attempt:_ ~key ->
        fun task -> key ^ "=" ^ task)
  in
  let n = 200 in
  (* tasks carry spaces, so the pipe frames split on them mid-body *)
  for i = 0 to n - 1 do
    Fleet.Pool.submit t ~key:(Printf.sprintf "k%d" i)
      ~task:(Printf.sprintf "t%d a b" i) ()
  done;
  Alcotest.(check int) "all queued or running" n (Fleet.Pool.pending t);
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  Alcotest.(check int) "every task answered" n (List.length results);
  Alcotest.(check int) "queue empty" 0 (Fleet.Pool.pending t);
  List.iter
    (fun (r : Fleet.Pool.result) ->
       match r.r_payload with
       | Ok p ->
           let i = String.sub r.r_key 1 (String.length r.r_key - 1) in
           Alcotest.(check string) "payload routed to its key"
             (Printf.sprintf "k%s=t%s a b" i i) p
       | Error f -> Alcotest.failf "task %s failed: %s" r.r_key
                      (Fleet.Pool.failure_to_string f))
    results

let pool_runner_raise_contained () =
  let t =
    Fleet.Pool.create ~config:(echo_config 2) (fun ~attempt:_ ~key ->
        fun task ->
          if key = "bad" then failwith "boom: the runner gave up" else task)
  in
  Fleet.Pool.submit t ~key:"a" ~task:"1" ();
  Fleet.Pool.submit t ~key:"bad" ~task:"2" ();
  Fleet.Pool.submit t ~key:"b" ~task:"3" ();
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  let find k =
    (List.find (fun (r : Fleet.Pool.result) -> r.r_key = k) results)
      .r_payload
  in
  Alcotest.(check bool) "a fine" true (find "a" = Ok "1");
  Alcotest.(check bool) "b fine: the worker survived the raise" true
    (find "b" = Ok "3");
  match find "bad" with
  | Error (Fleet.Pool.Run_raised msg) ->
      Alcotest.(check string) "exception text surfaced unchanged"
        (Printexc.to_string (Failure "boom: the runner gave up")) msg
  | _ -> Alcotest.fail "raising runner must report Run_raised"

(* kill a worker mid-cell: the pool reaps it, respawns the slot and
   re-dispatches the cell, whose second attempt grades identically to a
   run that never died *)
let pool_worker_kill_redispatch () =
  let bomb = Bombs.Catalog.find "time_bomb" in
  let clean =
    Engines.Journal_codec.encode_outcome
      (Engines.Supervisor.run_cell Engines.Profile.Bap bomb)
  in
  let redisp0 = counter "fleet.redispatched" in
  let respawn0 = counter "fleet.respawns" in
  let t =
    Fleet.Pool.create ~config:(echo_config 2) (fun ~attempt ~key ->
        fun _task ->
          if key = "die-once" && attempt = 1 then Unix._exit 9
          else
            Engines.Journal_codec.encode_outcome
              (Engines.Supervisor.run_cell Engines.Profile.Bap bomb))
  in
  Fleet.Pool.submit t ~key:"die-once" ~task:"x" ();
  Fleet.Pool.submit t ~key:"plain" ~task:"y" ();
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  Alcotest.(check bool) "cell re-dispatched" true
    (counter "fleet.redispatched" > redisp0);
  Alcotest.(check bool) "dead slot respawned" true
    (counter "fleet.respawns" > respawn0);
  List.iter
    (fun (r : Fleet.Pool.result) ->
       match r.r_payload with
       | Ok payload ->
           Alcotest.(check string)
             (r.r_key ^ " grades identically to an undisturbed run") clean
             payload
       | Error f ->
           Alcotest.failf "%s must recover, got %s" r.r_key
             (Fleet.Pool.failure_to_string f))
    results

let pool_worker_lost_after_respawns () =
  let t =
    Fleet.Pool.create ~config:(echo_config 2) (fun ~attempt:_ ~key ->
        fun task -> if key = "always-dies" then Unix._exit 9 else task)
  in
  Fleet.Pool.submit t ~key:"always-dies" ~task:"x" ();
  Fleet.Pool.submit t ~key:"ok" ~task:"y" ();
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  let find k =
    (List.find (fun (r : Fleet.Pool.result) -> r.r_key = k) results)
      .r_payload
  in
  (match find "always-dies" with
   | Error (Fleet.Pool.Worker_lost n) ->
       (* default config: 1 respawn, so the task burns 2 attempts *)
       Alcotest.(check int) "attempt count reported" 2 n
   | _ -> Alcotest.fail "a task that always kills its worker must fail");
  Alcotest.(check bool) "the healthy task still completes" true
    (find "ok" = Ok "y")

let pool_watchdog_kills_stuck () =
  let kills0 = counter "fleet.watchdog_kills" in
  let t =
    Fleet.Pool.create
      ~config:
        { Fleet.Pool.default_config with
          workers = 2; respawns = 0; task_timeout = Some 0.3 }
      (fun ~attempt:_ ~key ->
        fun task ->
          if key = "stuck" then (Unix.sleep 600; task) else task)
  in
  Fleet.Pool.submit t ~key:"stuck" ~task:"x" ();
  Fleet.Pool.submit t ~key:"quick" ~task:"y" ();
  let t0 = Unix.gettimeofday () in
  let results = Fleet.Pool.drain t in
  let elapsed = Unix.gettimeofday () -. t0 in
  Fleet.Pool.shutdown t;
  Alcotest.(check bool) "watchdog fired" true
    (counter "fleet.watchdog_kills" > kills0);
  Alcotest.(check bool) "drain bounded by the watchdog, not the task" true
    (elapsed < 60.);
  let find k =
    (List.find (fun (r : Fleet.Pool.result) -> r.r_key = k) results)
      .r_payload
  in
  (match find "stuck" with
   | Error (Fleet.Pool.Worker_lost _) -> ()
   | _ -> Alcotest.fail "stuck task must be failed after the kill");
  Alcotest.(check bool) "quick task unaffected" true (find "quick" = Ok "y")

let pool_cancel_fails_queued () =
  let t =
    Fleet.Pool.create ~config:(echo_config 1) (fun ~attempt:_ ~key:_ ->
        fun task -> ignore (Unix.select [] [] [] 0.2); task)
  in
  for i = 0 to 4 do
    Fleet.Pool.submit t ~key:(Printf.sprintf "c%d" i) ~task:"t" ()
  done;
  (* dispatch exactly one task, then cancel the rest cooperatively *)
  ignore (Fleet.Pool.poll ~timeout:0. t);
  Fleet.Pool.cancel t;
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  Alcotest.(check int) "every task settled" 5 (List.length results);
  let ok, cancelled =
    List.partition
      (fun (r : Fleet.Pool.result) -> r.r_payload = Ok "t")
      results
  in
  Alcotest.(check int) "the in-flight task finished" 1 (List.length ok);
  List.iter
    (fun (r : Fleet.Pool.result) ->
       Alcotest.(check bool) (r.r_key ^ " cancelled") true
         (r.r_payload = Error Fleet.Pool.Cancelled))
    cancelled

(* ---------------- the merge ---------------- *)

let merge_canonical_bytes () =
  let fp = Robust.Journal.fingerprint [ "merge"; "unit" ] in
  let tmp suffix = Filename.temp_file "fleet_merge" suffix in
  let s1 = tmp ".w0" and s2 = tmp ".w1" in
  let out = tmp ".jsonl" and expect = tmp ".expect" in
  let write path records =
    Sys.remove path;
    let w = Robust.Journal.open_writer ~fingerprint:fp path in
    List.iter (fun (key, payload) -> Robust.Journal.append w ~key ~payload)
      records;
    Robust.Journal.close_writer w
  in
  write s1 [ ("a", "{\"n\":1}"); ("b", "{\"n\":1}"); ("z", "{\"n\":0}") ];
  write s2 [ ("b", "{\"n\":2}"); ("c", "{\"n\":2}") ];
  Sys.remove out;
  let report =
    Fleet.Merge.run ~fingerprint:fp ~order:[ "a"; "b"; "c" ]
      ~sources:[ s1; s2 ] ~out ()
  in
  Alcotest.(check int) "three canonical records" 3 report.written;
  Alcotest.(check int) "both sources read" 2 report.sources_read;
  Alcotest.(check int) "z is an orphan" 1 report.orphans;
  (* later source wins on b; the merged file is byte-identical to a
     journal written fresh, in order, with the winning payloads *)
  write expect
    [ ("a", "{\"n\":1}"); ("b", "{\"n\":2}"); ("c", "{\"n\":2}") ];
  Alcotest.(check string) "byte-identical to a fresh sequential journal"
    (read_file expect) (read_file out);
  List.iter Sys.remove [ s1; s2; out; expect ]

let merge_heals_torn_tail () =
  let fp = Robust.Journal.fingerprint [ "merge"; "torn" ] in
  let tmp suffix = Filename.temp_file "fleet_merge" suffix in
  let s1 = tmp ".w0" and out = tmp ".jsonl" in
  Sys.remove s1;
  let w = Robust.Journal.open_writer ~fingerprint:fp s1 in
  Robust.Journal.append w ~key:"a" ~payload:"{\"n\":1}";
  Robust.Journal.append w ~key:"b" ~payload:"{\"n\":2}";
  (* the worker died mid-append: its journal ends in a torn record *)
  Robust.Journal.append_torn w ~key:"c";
  Robust.Journal.close_writer w;
  Sys.remove out;
  let report =
    Fleet.Merge.run ~fingerprint:fp ~order:[ "a"; "b"; "c" ]
      ~sources:[ s1 ] ~out ()
  in
  Alcotest.(check bool) "torn tail healed over" true (report.damaged >= 1);
  Alcotest.(check int) "only intact records survive" 2 report.written;
  let l = Robust.Journal.load ~fingerprint:fp out in
  Alcotest.(check int) "merged journal fully valid" 2 l.valid;
  Alcotest.(check int) "no damage carried forward" 0 (l.corrupt + l.truncated);
  List.iter Sys.remove [ s1; out ]

(* ---------------- fleet = sequential ---------------- *)

let det_tools = [ Engines.Profile.Bap; Engines.Profile.Triton ]

let det_bombs () =
  List.map Bombs.Catalog.find [ "time_bomb"; "argvlen_bomb"; "stack_bomb" ]

let symbols (r : Engines.Eval.table2_result) =
  List.map
    (fun (c : Engines.Eval.cell_result) -> cell_symbol c.measured)
    r.cells

let fleet_matches_sequential () =
  let seq =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ()) ()
  in
  List.iter
    (fun workers ->
       let fleet =
         Engines.Parallel.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
           ~workers ()
       in
       Alcotest.(check string)
         (Printf.sprintf "%d-worker table renders byte-identical" workers)
         (Engines.Eval.render_table2 seq)
         (Engines.Eval.render_table2 fleet))
    [ 1; 2; 4 ]

let fleet_journal_byte_identical () =
  let seq_path = Filename.temp_file "fleet_seq" ".jsonl" in
  let par_path = Filename.temp_file "fleet_par" ".jsonl" in
  Sys.remove seq_path;
  Sys.remove par_path;
  let seq =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
      ~journal:
        { Engines.Eval.journal_path = seq_path; kill_after = None;
          kill_torn = false }
      ()
  in
  let fleet =
    Engines.Parallel.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
      ~journal_path:par_path ~workers:4 ()
  in
  Alcotest.(check (list string)) "same grade grid" (symbols seq)
    (symbols fleet);
  Alcotest.(check string)
    "4-worker merged journal byte-identical to the sequential journal"
    (read_file seq_path) (read_file par_path);
  (* the merge retires every per-worker shard *)
  Alcotest.(check (list string)) "no shards left behind" []
    (Fleet.Pool.worker_journal_paths ~path:par_path ~workers:8);
  (* and the merged journal replays under the sequential resume path
     exactly like a sequentially written one *)
  let replayed0 = counter "journal.replayed" in
  let resumed =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
      ~journal:
        { Engines.Eval.journal_path = par_path; kill_after = None;
          kill_torn = false }
      ()
  in
  Alcotest.(check (list string)) "resumed table matches" (symbols seq)
    (symbols resumed);
  Alcotest.(check int) "every cell answered from the merged journal"
    (replayed0 + 6)
    (counter "journal.replayed");
  Sys.remove seq_path;
  Sys.remove par_path

(* a fleet run that recovers from leftover worker shards: simulate a
   master crash by planting a shard journal, then run with a journal —
   the shard's cell must replay, not re-run *)
let fleet_recovers_worker_shard () =
  let path = Filename.temp_file "fleet_crash" ".jsonl" in
  Sys.remove path;
  let fp =
    Engines.Eval.journal_fingerprint ~tools:det_tools ~bombs:(det_bombs ())
      ()
  in
  let bomb = Bombs.Catalog.find "time_bomb" in
  let key = Engines.Eval.cell_key Engines.Profile.Bap bomb in
  let o = Engines.Supervisor.run_cell Engines.Profile.Bap bomb in
  let w = Robust.Journal.open_writer ~fingerprint:fp (path ^ ".w3") in
  Robust.Journal.append w ~key
    ~payload:(Engines.Journal_codec.encode_outcome o);
  Robust.Journal.close_writer w;
  let replayed0 = counter "journal.replayed" in
  let fleet =
    Engines.Parallel.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
      ~journal_path:path ~workers:2 ()
  in
  Alcotest.(check bool) "planted shard replayed" true
    (counter "journal.replayed" > replayed0);
  let seq =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ()) ()
  in
  Alcotest.(check (list string)) "recovered run matches sequential"
    (symbols seq) (symbols fleet);
  Alcotest.(check bool) "shard retired by the merge" false
    (Sys.file_exists (path ^ ".w3"));
  Sys.remove path

(* ---------------- merge: multi-shard last-wins / all-orphan -------- *)

let merge_same_key_multi_shard () =
  let fp = Robust.Journal.fingerprint [ "merge"; "multi" ] in
  let tmp suffix = Filename.temp_file "fleet_merge" suffix in
  let shards = [ tmp ".w0"; tmp ".w1"; tmp ".w2" ] in
  let out = tmp ".jsonl" and expect = tmp ".expect" in
  let write path records =
    Sys.remove path;
    let w = Robust.Journal.open_writer ~fingerprint:fp path in
    List.iter (fun (key, payload) -> Robust.Journal.append w ~key ~payload)
      records;
    Robust.Journal.close_writer w
  in
  (* the same key graded on three shards (a cell re-dispatched across
     worker deaths lands wherever it last ran): the last source in the
     merge order wins, deterministically *)
  List.iteri
    (fun i s -> write s [ ("k", Printf.sprintf "{\"from\":%d}" i) ])
    shards;
  Sys.remove out;
  let report =
    Fleet.Merge.run ~fingerprint:fp ~order:[ "k" ] ~sources:shards ~out ()
  in
  Alcotest.(check int) "one canonical record" 1 report.written;
  write expect [ ("k", "{\"from\":2}") ];
  Alcotest.(check string) "last shard's grading wins, byte-identically"
    (read_file expect) (read_file out);
  List.iter Sys.remove (out :: expect :: shards)

let merge_all_orphans () =
  let fp = Robust.Journal.fingerprint [ "merge"; "orphan" ] in
  let tmp suffix = Filename.temp_file "fleet_merge" suffix in
  let s1 = tmp ".w0" and s2 = tmp ".w1" and out = tmp ".jsonl" in
  let write path records =
    Sys.remove path;
    let w = Robust.Journal.open_writer ~fingerprint:fp path in
    List.iter (fun (key, payload) -> Robust.Journal.append w ~key ~payload)
      records;
    Robust.Journal.close_writer w
  in
  (* every shard key is outside the canonical order (stale shards from
     an older grid): merge must write a valid empty journal, not crash
     and not leak the orphans through *)
  write s1 [ ("stale1", "{\"n\":1}") ];
  write s2 [ ("stale2", "{\"n\":2}"); ("stale3", "{\"n\":3}") ];
  Sys.remove out;
  let report =
    Fleet.Merge.run ~fingerprint:fp ~order:[ "a"; "b" ] ~sources:[ s1; s2 ]
      ~out ()
  in
  Alcotest.(check int) "nothing canonical to write" 0 report.written;
  Alcotest.(check int) "every record an orphan" 3 report.orphans;
  let l = Robust.Journal.load ~fingerprint:fp out in
  Alcotest.(check int) "merged journal is empty but well-formed" 0 l.valid;
  Alcotest.(check int) "and undamaged" 0 (l.corrupt + l.truncated);
  List.iter Sys.remove [ s1; s2; out ]

(* ---------------- journal fingerprint peek ---------------- *)

let journal_peek_fingerprint () =
  let fp = Robust.Journal.fingerprint [ "peek"; "test" ] in
  let path = Filename.temp_file "fleet_peek" ".jsonl" in
  Sys.remove path;
  Alcotest.(check (option string)) "missing file peeks None" None
    (Robust.Journal.peek_fingerprint path);
  let w = Robust.Journal.open_writer ~fingerprint:fp path in
  Robust.Journal.append w ~key:"k" ~payload:"{\"n\":1}";
  Robust.Journal.close_writer w;
  Alcotest.(check (option string)) "stamped fingerprint surfaces"
    (Some fp)
    (Robust.Journal.peek_fingerprint path);
  let oc = open_out path in
  output_string oc "not a journal line\n";
  close_out oc;
  Alcotest.(check (option string)) "garbage peeks None" None
    (Robust.Journal.peek_fingerprint path);
  Sys.remove path

let () =
  Alcotest.run "fleet"
    [ ("pool",
       [ Alcotest.test_case "echo x200 across 4 workers" `Quick
           pool_echo_many;
         Alcotest.test_case "runner raise contained" `Quick
           pool_runner_raise_contained;
         Alcotest.test_case "killed worker -> re-dispatch, same grade"
           `Quick pool_worker_kill_redispatch;
         Alcotest.test_case "respawn budget exhausts -> Worker_lost" `Quick
           pool_worker_lost_after_respawns;
         Alcotest.test_case "watchdog kills a stuck worker" `Quick
           pool_watchdog_kills_stuck;
         Alcotest.test_case "cancel fails queued, keeps in-flight" `Quick
           pool_cancel_fails_queued ]);
      ("merge",
       [ Alcotest.test_case "canonical byte-identity" `Quick
           merge_canonical_bytes;
         Alcotest.test_case "torn shard tail heals" `Quick
           merge_heals_torn_tail;
         Alcotest.test_case "same key on three shards: last wins" `Quick
           merge_same_key_multi_shard;
         Alcotest.test_case "all-orphan shard set" `Quick
           merge_all_orphans;
         Alcotest.test_case "journal fingerprint peek" `Quick
           journal_peek_fingerprint ]);
      ("determinism",
       [ Alcotest.test_case "1/2/4 workers = sequential table" `Quick
           fleet_matches_sequential;
         Alcotest.test_case "merged journal byte-identical + replays"
           `Quick fleet_journal_byte_identical;
         Alcotest.test_case "crashed-run worker shard recovered" `Quick
           fleet_recovers_worker_shard ]) ]
