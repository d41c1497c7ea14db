(** Trace tests: memory rebuilt by replay against the live machine's
    pages, truncation accounting, argv regions, and the indexed
    lookups against plain scans of the event array. *)

let bomb name = Bombs.Catalog.find name

let config_of ?(argv1 = "5") name =
  let b = bomb name in
  Bombs.Common.config_for b argv1

(* ------------------------------------------------------------------ *)
(* Replay against the live machine                                     *)
(* ------------------------------------------------------------------ *)

let mem_equal (a : Vm.Mem.t) (b : Vm.Mem.t) =
  let keys (m : Vm.Mem.t) =
    Hashtbl.fold (fun k _ acc -> k :: acc) m.pages []
  in
  let zero = String.make Vm.Mem.page_size '\000' in
  let get (m : Vm.Mem.t) idx =
    match Hashtbl.find_opt m.pages idx with
    | Some p -> Bytes.to_string p
    | None -> zero
  in
  List.for_all
    (fun idx -> String.equal (get a idx) (get b idx))
    (List.sort_uniq compare (keys a @ keys b))

(* Run the bomb on a live machine and copy the root process's pages at
   the positions where its memory is exactly a trace prefix: right
   after each root Sys or Signal event (the exec before each is emitted
   after the kernel or the signal push touched memory, so the prefix
   must include the Sys/Signal event itself), and at the end of the
   run.  Returns (position, pages) pairs and the root event count. *)
let live_snapshots ~config image =
  let machine = Vm.Machine.create ~config image in
  let root =
    List.find
      (fun (task : Vm.Machine.task) -> task.proc.pid = 1)
      machine.Vm.Machine.tasks
  in
  let mem = root.proc.mem in
  let n = ref 0 and snaps = ref [] in
  Vm.Machine.set_hook machine (fun ev ->
      if Trace.event_pid ev = 1 then begin
        incr n;
        match ev with
        | Vm.Event.Sys _ | Vm.Event.Signal _ ->
          snaps := (!n, Vm.Mem.clone mem) :: !snaps
        | Vm.Event.Exec _ -> ()
      end);
  ignore (Vm.Machine.run machine);
  (List.rev ((!n, Vm.Mem.clone mem) :: !snaps), !n)

(* [Trace.mem_before] replays from event 0; at every snapshot position
   it must reproduce the live machine's memory page for page *)
let replay_matches_live () =
  List.iter
    (fun (name, argv1) ->
       let config = config_of ~argv1 name in
       let image = Bombs.Catalog.image (bomb name) in
       let t = Trace.record ~config image in
       let snaps, n = live_snapshots ~config image in
       Alcotest.(check int) (name ^ ": live run emits the traced events")
         (Trace.length t) n;
       Alcotest.(check bool) (name ^ ": a snapshot before the end") true
         (List.length snaps > 1);
       List.iter
         (fun (pos, live) ->
            if not (mem_equal (Trace.mem_before t pos) live) then
              Alcotest.failf "%s: replayed memory before #%d differs from \
                              the live machine" name pos)
         snaps)
    (* fork_bomb reads a pipe; exception_bomb on "0" takes SIGFPE *)
    [ ("sha1_bomb", "abc"); ("fork_bomb", "33"); ("exception_bomb", "0") ]

(* ------------------------------------------------------------------ *)
(* Truncation, argv_region, indexed lookups                            *)
(* ------------------------------------------------------------------ *)

let truncation_counted () =
  let config = config_of "stack_bomb" in
  let image = Bombs.Catalog.image (bomb "stack_bomb") in
  let full = Trace.record ~config image in
  Alcotest.(check bool) "untruncated by default" false full.Trace.truncated;
  let before = Telemetry.Metrics.counter_value "trace.truncated" in
  let t = Trace.record ~max_events:10 ~config image in
  Alcotest.(check int) "capped length" 10 (Trace.length t);
  Alcotest.(check bool) "flagged" true t.Trace.truncated;
  Alcotest.(check int) "counted once" (before + 1)
    (Telemetry.Metrics.counter_value "trace.truncated")

let argv_region_total () =
  let t = Trace.record ~config:(config_of ~argv1:"xyz" "stack_bomb")
      (Bombs.Catalog.image (bomb "stack_bomb"))
  in
  (match Trace.argv_region t 1 with
   | Some (_, len) -> Alcotest.(check int) "argv1 length incl NUL" 4 len
   | None -> Alcotest.fail "argv.(1) missing");
  Alcotest.(check bool) "argv.(0) present" true
    (Trace.argv_region t 0 <> None);
  Alcotest.(check (option (pair int64 int))) "out of range is None" None
    (Trace.argv_region t 7);
  Alcotest.(check (option (pair int64 int))) "negative is None" None
    (Trace.argv_region t (-1))

(* the positional lookups the debugger's run-to uses, against plain
   scans of the in-memory event array *)
let index_lookups () =
  let config = config_of ~argv1:"33" "fork_bomb" in
  let t = Trace.record ~config (Bombs.Catalog.image (bomb "fork_bomb")) in
  let events = List.init (Trace.length t) (Trace.get t) in
  let scan p =
    let rec go i = function
      | [] -> None
      | ev :: rest -> if p ev then Some i else go (i + 1) rest
    in
    go 0 events
  in
  let execs = Trace.execs_of_tid t 1 in
  Alcotest.(check int) "execs_of_tid count"
    (List.length
       (List.filter
          (function Vm.Event.Exec e -> e.tid = 1 | _ -> false) events))
    (List.length execs);
  Alcotest.(check bool) "execs_of_tid covers the execs" true
    (List.length execs = Trace.exec_count t);
  Alcotest.(check int) "no such tid" 0
    (List.length (Trace.execs_of_tid t 99));
  let is_sys name = function
    | Vm.Event.Sys { record; _ } -> String.equal record.name name
    | _ -> false
  in
  let fork = Trace.next_syscall t ~from:0 "fork" in
  Alcotest.(check bool) "fork syscall found" true (fork <> None);
  Alcotest.(check (option int)) "fork = first scanned" (scan (is_sys "fork"))
    fork;
  Alcotest.(check (option int)) "absent syscall" None
    (Trace.next_syscall t ~from:0 "openat");
  match Trace.get t 5 with
  | Vm.Event.Exec e ->
    Alcotest.(check (option int)) "next_exec_at = first scanned"
      (scan (function
         | Vm.Event.Exec x -> Int64.equal x.pc e.pc
         | _ -> false))
      (Trace.next_exec_at t ~from:0 e.pc);
    Alcotest.(check (option int)) "next_exec_at from itself" (Some 5)
      (Trace.next_exec_at t ~from:5 e.pc)
  | _ -> Alcotest.fail "event 5 is not an exec"

let () =
  Alcotest.run "trace"
    [ ("replay",
       [ Alcotest.test_case "matches live machine" `Quick
           replay_matches_live ]);
      ("cursor",
       [ Alcotest.test_case "seek and index" `Quick index_lookups;
         Alcotest.test_case "argv_region total" `Quick argv_region_total;
         Alcotest.test_case "truncation counted" `Quick truncation_counted ]) ]
