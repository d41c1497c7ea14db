(** Per-worker span shipping: workers append their finished spans to
    JSONL shard files, and the master stitches every shard into one
    Chrome [trace_event] timeline whose [pid] is the worker slot — a
    whole fleet run loads into [about:tracing] / Perfetto as one
    flamegraph with a lane per worker.

    Shards are append-only and flushed after every task, so a
    SIGKILLed worker's completed spans survive it; the merger emits
    ["ph":"X"] complete events (start + duration), which need no B/E
    pairing discipline across processes.  Span timestamps come from
    [Unix.gettimeofday], so lanes from different workers share one
    wall-clock axis. *)

let shard_path ~base slot = Printf.sprintf "%s.spans.w%d.jsonl" base slot

(* leftover shards can outlive the pool geometry that wrote them, so
   scan a generous slot range (same discipline as the journal shards) *)
let existing_shards ~base : (int * string) list =
  List.filter_map
    (fun slot ->
       let p = shard_path ~base slot in
       if Sys.file_exists p then Some (slot, p) else None)
    (List.init 256 Fun.id)

let remove_shards ~base =
  List.iter (fun (_, p) -> try Sys.remove p with Sys_error _ -> ())
    (existing_shards ~base)

(** Worker side: append every finished span to this slot's shard and
    drop them from memory, so a long worker's span buffer stays
    bounded at one task's worth. *)
let flush_shard ~base ~slot =
  (match Telemetry.finished_spans () with
   | [] -> ()
   | spans ->
       let h = Robust.Diskio.open_append (shard_path ~base slot) in
       List.iter
         (fun s -> Robust.Diskio.append h (Telemetry.span_jsonl s ^ "\n"))
         spans;
       Robust.Diskio.close h);
  Telemetry.reset ()

(* ------------------------------------------------------------------ *)
(* Merger                                                              *)
(* ------------------------------------------------------------------ *)

type merge_report = {
  mr_shards : int;
  mr_spans : int;
  mr_skipped : int;  (** undecodable shard lines (torn tails) *)
}

let esc = Robust.Journal.json_escape

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

(** Stitch every shard under [base] into one Chrome trace at [out]:
    each span becomes an ["X"] complete event with [pid] = worker
    slot, plus a [process_name] metadata event naming the lane.
    Undecodable lines (a shard's torn tail after a SIGKILL) are
    skipped and counted, never fatal.  Shards are removed after a
    successful merge. *)
let merge_chrome ~base ~out () : merge_report =
  let open Telemetry.Trace_check in
  let shards = existing_shards ~base in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  let first = ref true in
  let emit ev =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf ev
  in
  let spans = ref 0 and skipped = ref 0 in
  List.iter
    (fun (slot, path) ->
       emit
         (Printf.sprintf
            "{\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0.0, \
             \"pid\": %d, \"tid\": 1, \"args\": {\"name\": \"worker %d\"}}"
            slot slot);
       List.iter
         (fun line ->
            if String.trim line <> "" then
              let decoded =
                match parse_opt line with
                | None -> None
                | Some j -> (
                    match
                      (member "name" j, member "ts_us" j, member "dur_us" j)
                    with
                    | Some (Str name), Some (Num ts), Some (Num dur) ->
                        Some (name, ts, dur, member "args" j)
                    | _ -> None)
              in
              match decoded with
              | None -> incr skipped
              | Some (name, ts, dur, args) ->
                  incr spans;
                  let args_json =
                    match args with
                    | Some (Obj fields) when fields <> [] ->
                        Printf.sprintf ", \"args\": {%s}"
                          (String.concat ", "
                             (List.filter_map
                                (fun (k, v) ->
                                   match v with
                                   | Str s ->
                                       Some
                                         (Printf.sprintf "\"%s\": \"%s\""
                                            (esc k) (esc s))
                                   | _ -> None)
                                fields))
                    | _ -> ""
                  in
                  emit
                    (Printf.sprintf
                       "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.1f, \
                        \"dur\": %.1f, \"pid\": %d, \"tid\": 1%s}"
                       (esc name) ts dur slot args_json))
         (read_lines path))
    shards;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n";
  Robust.Diskio.write_atomic ~path:out (Buffer.contents buf);
  remove_shards ~base;
  { mr_shards = List.length shards; mr_spans = !spans;
    mr_skipped = !skipped }
