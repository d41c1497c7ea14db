(** Fork-based worker-pool scheduler: shard independent analysis
    tasks across N worker processes over pipes.

    The master holds one shared FIFO queue; an idle worker steals the
    next task the moment it finishes its previous one (pull-based
    work-stealing — one task in flight per worker, so an unlucky
    worker stuck on a heavy cell never strands queued work behind it).
    Workers are forked up front and inherit the task-runner closure,
    so only task {e strings} and result {e payloads} cross the pipes,
    one line per frame: the master dispatches [T <id> <attempt>
    <key>\t<task>], a worker answers [D <id> <payload>] or, when the
    runner raised, [X <id> <msg>].  Local pipes need no checksums; a
    line the master cannot parse from a busy worker still gets that
    worker killed and its task re-dispatched.

    Durability: with {!config.journal} set, each worker appends every
    completed (key, payload) to its own write-ahead journal
    ([<path>.w<slot>], same checksummed format and fingerprint
    discipline as {!Robust.Journal}) {e before} replying, so a master
    crash loses no finished cell; {!Merge} folds the per-worker
    journals back into one canonical journal.

    Liveness: a worker that dies (EOF on its pipe) or blows the
    per-task wall watchdog is reaped and respawned into the same slot,
    and its in-flight task is re-dispatched — with the attempt number
    bumped so the caller's retry/backoff policy can escalate — up to
    [respawns] extra times before the task is failed.  Cancellation
    is cooperative: SIGINT (via {!install_sigint}) or {!cancel} stops
    dispatch, lets in-flight cells finish, and reports still-queued
    tasks as [Cancelled]. *)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_dispatched = Telemetry.Metrics.counter "fleet.dispatched"
let m_completed = Telemetry.Metrics.counter "fleet.completed"
let m_raised = Telemetry.Metrics.counter "fleet.task_raised"
let m_deaths = Telemetry.Metrics.counter "fleet.worker_deaths"
let m_respawns = Telemetry.Metrics.counter "fleet.respawns"
let m_redispatched = Telemetry.Metrics.counter "fleet.redispatched"
let m_failed = Telemetry.Metrics.counter "fleet.tasks_failed"
let m_cancelled = Telemetry.Metrics.counter "fleet.tasks_cancelled"
let m_timeouts = Telemetry.Metrics.counter "fleet.watchdog_kills"
let m_bad_frames = Telemetry.Metrics.counter "fleet.frames_corrupt"

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type journal_config = {
  j_path : string;
      (** base path; worker [slot] journals to [j_path ^ ".w<slot>"] *)
  j_fingerprint : string;
}

type config = {
  workers : int;
  respawns : int;
      (** extra dispatches a task gets after killing its worker *)
  task_timeout : float option;
      (** wall seconds a dispatched task may run before its worker is
          killed and the task re-dispatched (liveness watchdog) *)
  journal : journal_config option;
  snapshots : bool;
      (** workers piggyback a registry-delta snapshot (relative to the
          registry they inherited at fork) on every reply and
          final-flush one on shutdown; the master folds them per slot
          — surviving worker death and SIGKILL re-dispatch — for
          {!metrics_snapshot} / {!publish_metrics}.  Off by default:
          the disabled path adds nothing to the per-task protocol. *)
  spans : string option;
      (** base path for per-worker span shards: when set, workers run
          with span tracing enabled and append finished spans to
          [<base>.spans.w<slot>.jsonl] after every task
          (see {!Spans}) *)
}

let default_config =
  { workers = 2; respawns = 1; task_timeout = None; journal = None;
    snapshots = false; spans = None }

type failure =
  | Worker_lost of int  (** workers died running it; the attempt count *)
  | Run_raised of string  (** the runner raised (worker survived) *)
  | Cancelled  (** still queued when the pool was cancelled *)

let failure_to_string = function
  | Worker_lost n -> Printf.sprintf "worker lost (%d attempts)" n
  | Run_raised msg -> "runner raised: " ^ msg
  | Cancelled -> "cancelled"

type result = {
  r_key : string;
  r_payload : (string, failure) Stdlib.result;
}

type job = {
  j_id : int;
  j_key : string;
  j_task : string;
  mutable j_attempt : int;
}

type wstate = Idle | Busy of job * float (* dispatch time *)

type worker = {
  slot : int;
  mutable pid : int;
  mutable to_w : Unix.file_descr;   (** master write end *)
  mutable from_w : Unix.file_descr; (** master read end *)
  mutable rbuf : Buffer.t;
  mutable state : wstate;
  mutable w_alive : bool;
  mutable w_snap : Telemetry.Snapshot.t;
      (** the live incarnation's latest cumulative delta (replaced on
          every "S" line, so a lost line heals at the next one) *)
  mutable w_dead_snap : Telemetry.Snapshot.t;
      (** accumulated last snapshots of this slot's dead incarnations
          — what survives a SIGKILL *)
}

type t = {
  cfg : config;
  run : attempt:int -> key:string -> string -> string;
  ws : worker array;
  queue : job Queue.t;
  mutable inflight : int;
  mutable next_id : int;
  done_q : result Queue.t;
  mutable pool_cancelled : bool;
  mutable closed : bool;
  mutable published : bool;  (** {!publish_metrics} ran (idempotence) *)
}

let now () = Unix.gettimeofday ()

(* single-line framing: tasks, keys and payloads cross the pipes as
   one line each; keys additionally separate from the task body with a
   tab.  Enforced at submit / in the worker reply. *)
let check_frame what s =
  if String.contains s '\n' then
    invalid_arg (Printf.sprintf "Fleet.Pool: %s contains a newline" what)

let check_key key =
  check_frame "key" key;
  if String.contains key '\t' then
    invalid_arg "Fleet.Pool: key contains a tab"

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

(* worker-side slot marker: lets runner closures (profile shards) know
   which worker they execute in; [-1] in the master *)
let current_slot = ref (-1)

let worker_slot () = if !current_slot >= 0 then Some !current_slot else None

(* The child never returns: it loops on dispatch lines until [Q] or
   EOF, then [_exit]s without running the parent's at_exit handlers or
   flushing its inherited channel buffers. *)
let worker_loop ~(cfg : config) ~slot ~run rd wr : 'a =
  let ic = Unix.in_channel_of_descr rd in
  let oc = Unix.out_channel_of_descr wr in
  current_slot := slot;
  Telemetry.Log.set_prefix (Printf.sprintf "[w%d] " slot);
  let send fmt =
    Printf.ksprintf
      (fun s ->
         output_string oc s;
         output_char oc '\n';
         flush oc)
      fmt
  in
  (* observability: a fork inherits the parent's registry and any
     recorded spans, so snapshots diff against a baseline captured
     here and span tracing starts from a clean slate *)
  let baseline =
    if cfg.snapshots then Telemetry.Snapshot.capture ()
    else Telemetry.Snapshot.empty
  in
  if cfg.spans <> None then begin
    Telemetry.reset ();
    Telemetry.enable ()
  end;
  let send_snapshot () =
    if cfg.snapshots then
      let d =
        Telemetry.Snapshot.diff ~base:baseline (Telemetry.Snapshot.capture ())
      in
      send "S %s" (Telemetry.Snapshot.to_json d)
  in
  let flush_spans () =
    match cfg.spans with
    | Some base -> (try Spans.flush_shard ~base ~slot with Sys_error _ -> ())
    | None -> ()
  in
  let journal = ref None in
  let journal_writer () =
    match (!journal, cfg.journal) with
    | Some w, _ -> Some w
    | None, None -> None
    | None, Some jc ->
        let w =
          Robust.Journal.open_writer ~fingerprint:jc.j_fingerprint
            (Printf.sprintf "%s.w%d" jc.j_path slot)
        in
        journal := Some w;
        Some w
  in
  let quit code =
    (* final flush: completed spans and a last snapshot line reach the
       master before EOF (it keeps reading until EOF on shutdown) *)
    flush_spans ();
    (try send_snapshot () with _ -> ());
    (match !journal with
     | Some w -> (try Robust.Journal.close_writer w with _ -> ())
     | None -> ());
    (try flush oc with _ -> ());
    Unix._exit code
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> quit 0
    | "Q" -> quit 0
    | line -> (
        (* "T <id> <attempt> <key>\t<task>" *)
        match String.split_on_char ' ' line with
        | "T" :: id :: attempt :: rest ->
            let id = int_of_string id and attempt = int_of_string attempt in
            let body = String.concat " " rest in
            let key, task =
              match String.index_opt body '\t' with
              | Some i ->
                  ( String.sub body 0 i,
                    String.sub body (i + 1) (String.length body - i - 1) )
              | None -> (body, body)
            in
            (match run ~attempt ~key task with
             | payload ->
                 check_frame "payload" payload;
                 (match journal_writer () with
                  | Some w -> Robust.Journal.append w ~key ~payload
                  | None -> ());
                 (* per-task observability flush, *before* the reply:
                    spans to this slot's shard, registry delta on the
                    pipe — so by the time the master routes this
                    result, the task's counters are already folded in,
                    and a later SIGKILL loses at most the killed task's
                    own work *)
                 flush_spans ();
                 send_snapshot ();
                 send "D %d %s" id payload
             | exception e ->
                 let msg =
                   String.map
                     (fun c -> if c = '\n' then ' ' else c)
                     (Printexc.to_string e)
                 in
                 flush_spans ();
                 send_snapshot ();
                 send "X %d %s" id msg);
            loop ()
        | _ -> quit 3 (* protocol violation: die loudly *))
  in
  (* whatever happens — a broken pipe racing the master's shutdown, a
     runner blowing the stack — the worker must die here, never return
     into the forked copy of the caller *)
  (try
     send "H %d" slot;
     loop ()
   with _ -> ());
  Unix._exit 4

(* ------------------------------------------------------------------ *)
(* Master side                                                         *)
(* ------------------------------------------------------------------ *)

let spawn (t : t) slot =
  (* the child inherits any buffered output; flush so nothing prints
     twice *)
  flush stdout;
  flush stderr;
  let w = t.ws.(slot) in
  let c_rd, m_wr = Unix.pipe () in (* master -> worker *)
  let m_rd, c_wr = Unix.pipe () in (* worker -> master *)
  match Unix.fork () with
  | 0 ->
      Unix.close m_wr;
      Unix.close m_rd;
      (* drop the master ends of every sibling's pipes, so a sibling
         death is visible to the master as EOF, not kept open here *)
      Array.iter
        (fun (ow : worker) ->
           if ow.slot <> slot && ow.w_alive then begin
             (try Unix.close ow.to_w with Unix.Unix_error _ -> ());
             (try Unix.close ow.from_w with Unix.Unix_error _ -> ())
           end)
        t.ws;
      worker_loop ~cfg:t.cfg ~slot ~run:t.run c_rd c_wr
  | pid ->
      Unix.close c_rd;
      Unix.close c_wr;
      (* non-blocking master reads: a stale fd number reused by a
         fresh pipe must never block a poll round *)
      Unix.set_nonblock m_rd;
      w.pid <- pid;
      w.to_w <- m_wr;
      w.from_w <- m_rd;
      Buffer.clear w.rbuf;
      w.state <- Idle;
      w.w_alive <- true;
      (* a fresh incarnation ships deltas from its own fork baseline;
         the previous incarnation's totals live in [w_dead_snap] *)
      w.w_snap <- Telemetry.Snapshot.empty

(* a worker dying between select and write must surface as EPIPE, not
   a fatal SIGPIPE *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let create ?(config = default_config) run : t =
  if config.workers < 1 then invalid_arg "Fleet.Pool.create: workers < 1";
  Lazy.force ignore_sigpipe;
  let t =
    { cfg = config;
      run;
      ws =
        Array.init config.workers (fun slot ->
            { slot; pid = -1; to_w = Unix.stdin; from_w = Unix.stdin;
              rbuf = Buffer.create 256; state = Idle; w_alive = false;
              w_snap = Telemetry.Snapshot.empty;
              w_dead_snap = Telemetry.Snapshot.empty });
      queue = Queue.create ();
      inflight = 0;
      next_id = 0;
      done_q = Queue.create ();
      pool_cancelled = false;
      closed = false;
      published = false }
  in
  for slot = 0 to config.workers - 1 do
    spawn t slot
  done;
  t

let submit (t : t) ~key ~task () =
  if t.closed then invalid_arg "Fleet.Pool.submit: pool is closed";
  check_key key;
  check_frame "task" task;
  let j =
    { j_id = t.next_id; j_key = key; j_task = task; j_attempt = 1 }
  in
  t.next_id <- t.next_id + 1;
  Queue.push j t.queue

let pending t = Queue.length t.queue + t.inflight
let cancel t = t.pool_cancelled <- true

(** Install a SIGINT handler that cooperatively cancels the pool;
    returns a function restoring the previous handler. *)
let install_sigint t =
  let prev =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> cancel t))
  in
  fun () -> Sys.set_signal Sys.sigint prev

let complete (t : t) (j : job) payload =
  Queue.push { r_key = j.j_key; r_payload = payload } t.done_q

(* a worker died (EOF / watchdog kill): reap it, settle or re-dispatch
   its in-flight task, and refill the slot *)
let bury (t : t) (w : worker) ~respawn =
  Telemetry.Metrics.incr m_deaths;
  w.w_alive <- false;
  (* keep what the dead incarnation last reported: its snapshot lines
     are cumulative-since-fork, so the latest one is its whole story *)
  w.w_dead_snap <- Telemetry.Snapshot.merge w.w_dead_snap w.w_snap;
  w.w_snap <- Telemetry.Snapshot.empty;
  (try Unix.close w.to_w with Unix.Unix_error _ -> ());
  (try Unix.close w.from_w with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
  (match w.state with
   | Idle -> ()
   | Busy (j, _) ->
       t.inflight <- t.inflight - 1;
       if t.pool_cancelled then begin
         Telemetry.Metrics.incr m_cancelled;
         complete t j (Error Cancelled)
       end
       else if j.j_attempt > t.cfg.respawns then begin
         Telemetry.Metrics.incr m_failed;
         Telemetry.Log.warnf
           "fleet: task %s failed — killed its worker %d time(s)" j.j_key
           j.j_attempt;
         complete t j (Error (Worker_lost j.j_attempt))
       end
       else begin
         Telemetry.Metrics.incr m_redispatched;
         Telemetry.Log.warnf
           "fleet: worker %d died running %s; re-dispatching (attempt %d)"
           w.slot j.j_key (j.j_attempt + 1);
         j.j_attempt <- j.j_attempt + 1;
         Queue.push j t.queue
       end);
  w.state <- Idle;
  if respawn && not t.closed then begin
    Telemetry.Metrics.incr m_respawns;
    spawn t w.slot
  end

let dispatch_one (t : t) (w : worker) (j : job) =
  w.state <- Busy (j, now ());
  t.inflight <- t.inflight + 1;
  Telemetry.Metrics.incr m_dispatched;
  let line =
    Printf.sprintf "T %d %d %s\t%s\n" j.j_id j.j_attempt j.j_key j.j_task
  in
  match write_all w.to_w line with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
      (* the worker died before taking the task: not the task's fault,
         so put it back without charging an attempt *)
      t.inflight <- t.inflight - 1;
      w.state <- Idle;
      Queue.push j t.queue;
      bury t w ~respawn:true

let dispatch (t : t) =
  Array.iter
    (fun w ->
       if w.w_alive && w.state = Idle && not t.pool_cancelled then
         match Queue.take_opt t.queue with
         | Some j -> dispatch_one t w j
         | None -> ())
    t.ws

(* an unparseable line while a task is in flight: the channel can no
   longer be trusted — kill the incarnation and let [bury] re-dispatch
   its task *)
let recover_corrupt_channel (t : t) (w : worker) line =
  Telemetry.Metrics.incr m_bad_frames;
  Telemetry.Log.warnf
    "fleet: worker %d sent a corrupt frame %S; killing and re-dispatching"
    w.slot
    (String.sub line 0 (min 48 (String.length line)));
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  bury t w ~respawn:true

(* one complete line from worker [w] *)
let handle_line (t : t) (w : worker) line =
  if String.length line >= 2 && line.[0] = 'S' && line.[1] = ' ' then
    (* registry-delta snapshot: cumulative since fork, so we replace
       rather than accumulate — a lost line self-heals at the next *)
    match
      Telemetry.Snapshot.of_json
        (String.sub line 2 (String.length line - 2))
    with
    | Some s -> w.w_snap <- s
    | None ->
        Telemetry.Log.warnf
          "fleet: worker %d sent an undecodable snapshot; dropped" w.slot
  else
    match String.split_on_char ' ' line with
    | "H" :: _ -> () (* hello/heartbeat *)
    | (("D" | "X") as tag) :: id_s :: rest
      when Option.is_some (int_of_string_opt id_s) -> (
        let id = int_of_string id_s and body = String.concat " " rest in
        match w.state with
        | Busy (j, _) when j.j_id = id ->
            w.state <- Idle;
            t.inflight <- t.inflight - 1;
            if tag = "D" then begin
              Telemetry.Metrics.incr m_completed;
              complete t j (Ok body)
            end
            else begin
              Telemetry.Metrics.incr m_raised;
              complete t j (Error (Run_raised body))
            end
        | _ ->
            Telemetry.Log.warnf
              "fleet: worker %d answered for unexpected task %d; dropped"
              w.slot id)
    | _ -> (
        match w.state with
        | Busy _ -> recover_corrupt_channel t w line
        | Idle ->
            Telemetry.Log.warnf "fleet: worker %d sent garbage %S" w.slot line)

let pump_worker (t : t) (w : worker) =
  let chunk = Bytes.create 65536 in
  match Unix.read w.from_w chunk 0 (Bytes.length chunk) with
  | 0 -> bury t w ~respawn:true
  | n ->
      Buffer.add_subbytes w.rbuf chunk 0 n;
      let data = Buffer.contents w.rbuf in
      let rec split from =
        match String.index_from_opt data from '\n' with
        | None ->
            Buffer.clear w.rbuf;
            Buffer.add_substring w.rbuf data from (String.length data - from)
        | Some i ->
            handle_line t w (String.sub data from (i - from));
            split (i + 1)
      in
      split 0
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
      bury t w ~respawn:true

let watchdog (t : t) =
  match t.cfg.task_timeout with
  | None -> ()
  | Some limit ->
      let deadline_passed t0 = now () -. t0 > limit in
      Array.iter
        (fun w ->
           match w.state with
           | Busy (j, t0) when w.w_alive && deadline_passed t0 ->
               Telemetry.Metrics.incr m_timeouts;
               Telemetry.Log.warnf
                 "fleet: worker %d stuck on %s > %.1fs; killing" w.slot
                 j.j_key limit;
               (try Unix.kill w.pid Sys.sigkill
                with Unix.Unix_error _ -> ());
               bury t w ~respawn:true
           | _ -> ())
        t.ws

(* readable fds to select on: one per live worker *)
let fds (t : t) =
  Array.to_list t.ws
  |> List.filter_map (fun w -> if w.w_alive then Some w.from_w else None)

(** One scheduling round: dispatch queued tasks to idle workers, wait
    up to [timeout] for worker messages, collect results.  Returns the
    tasks completed so far (drains the internal done-queue). *)
let poll ?(timeout = 0.05) (t : t) : result list =
  dispatch t;
  let rd = fds t in
  (if rd <> [] && t.inflight > 0 then
     match Unix.select rd [] [] timeout with
     | readable, _, _ ->
         List.iter
           (fun fd ->
              match
                Array.to_list t.ws
                |> List.find_opt (fun w -> w.w_alive && w.from_w = fd)
              with
              | Some w -> pump_worker t w
              | None -> ())
           readable
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  watchdog t;
  dispatch t;
  let out = ref [] in
  Queue.iter (fun r -> out := r :: !out) t.done_q;
  Queue.clear t.done_q;
  List.rev !out

(** Run the pool to completion (or to cooperative cancellation):
    blocks until every submitted task has a result.  Tasks still
    queued when the pool is cancelled come back as [Error Cancelled].
    [on_round] runs after every scheduling round — a live progress
    line hooks in here without owning the loop. *)
let drain ?(on_round = fun () -> ()) (t : t) : result list =
  let acc = ref [] in
  while pending t > 0 && not (t.pool_cancelled && t.inflight = 0) do
    acc := List.rev_append (poll ~timeout:0.25 t) !acc;
    on_round ()
  done;
  (* cancelled: fail what never ran *)
  Queue.iter
    (fun j ->
       Telemetry.Metrics.incr m_cancelled;
       complete t j (Error Cancelled))
    t.queue;
  Queue.clear t.queue;
  acc := List.rev_append (poll ~timeout:0. t) !acc;
  List.rev !acc

(** Quit every worker and reap it.  Idempotent. *)
let shutdown (t : t) =
  if not t.closed then begin
    t.closed <- true;
    (* ask every worker to quit first, so their final-flush snapshot
       lines are already in the pipes while we collect below *)
    Array.iter
      (fun w ->
         if w.w_alive then
           try ignore (Unix.write_substring w.to_w "Q\n" 0 2)
           with Unix.Unix_error _ -> ())
      t.ws;
    (* with snapshots on, read each worker until EOF (bounded): the
       quit path sends one last "S" line that must not be lost.
       [bury] on EOF will not respawn — the pool is closed. *)
    if t.cfg.snapshots then begin
      let deadline = now () +. 2.0 in
      let rec collect () =
        let rd = fds t in
        if rd <> [] && now () < deadline then begin
          (match Unix.select rd [] [] 0.05 with
           | readable, _, _ ->
               List.iter
                 (fun fd ->
                    match
                      Array.to_list t.ws
                      |> List.find_opt
                           (fun w -> w.w_alive && w.from_w = fd)
                    with
                    | Some w -> pump_worker t w
                    | None -> ())
                 readable
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          collect ()
        end
      in
      collect ()
    end;
    Array.iter
      (fun w ->
         if w.w_alive then begin
           (try Unix.close w.to_w with Unix.Unix_error _ -> ());
           (try Unix.close w.from_w with Unix.Unix_error _ -> ());
           w.w_alive <- false;
           (* give it a moment to exit cleanly, then force it *)
           let rec reap tries =
             match Unix.waitpid [ Unix.WNOHANG ] w.pid with
             | 0, _ ->
                 if tries = 0 then begin
                   (try Unix.kill w.pid Sys.sigkill
                    with Unix.Unix_error _ -> ());
                   ignore (Unix.waitpid [] w.pid)
                 end
                 else begin
                   ignore (Unix.select [] [] [] 0.01);
                   reap (tries - 1)
                 end
             | _ -> ()
             | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
           in
           reap 100
         end)
      t.ws
  end

(** Per-worker journal paths a pool over [j_path] would write (only
    those that exist on disk). *)
let worker_journal_paths ~path ~workers =
  List.filter Sys.file_exists
    (List.init workers (fun slot -> Printf.sprintf "%s.w%d" path slot))

(* ------------------------------------------------------------------ *)
(* Observability (master side)                                         *)
(* ------------------------------------------------------------------ *)

(** Per-slot status: (slot, alive, in-flight task key if busy). *)
let worker_states (t : t) : (int * bool * string option) list =
  Array.to_list t.ws
  |> List.map (fun w ->
      let task =
        match w.state with Busy (j, _) -> Some j.j_key | Idle -> None
      in
      (w.slot, w.w_alive, task))

(** The fleet-wide aggregate of everything workers have reported:
    every slot's live snapshot plus its dead incarnations' — the
    counters a sequential run of the same work would have produced
    (the master itself runs no tasks). *)
let metrics_snapshot (t : t) : Telemetry.Snapshot.t =
  Array.fold_left
    (fun acc w ->
       Telemetry.Snapshot.merge acc
         (Telemetry.Snapshot.merge w.w_dead_snap w.w_snap))
    Telemetry.Snapshot.empty t.ws

(** Per-slot snapshots for name-spaced publication:
    (slot, dead-merged-with-live). *)
let worker_snapshots (t : t) : (int * Telemetry.Snapshot.t) list =
  Array.to_list t.ws
  |> List.map (fun w ->
      (w.slot, Telemetry.Snapshot.merge w.w_dead_snap w.w_snap))

(** Fold the workers' reported metrics into the master's live registry:
    once per pool, each slot under a [worker<N>.] prefix plus the
    unprefixed additive aggregate.  After this, [Metrics.snapshot] in
    the master reads like the sequential run.  No-op unless
    [cfg.snapshots]; idempotent. *)
let publish_metrics (t : t) =
  if t.cfg.snapshots && not t.published then begin
    t.published <- true;
    List.iter
      (fun (slot, s) ->
         if not (Telemetry.Snapshot.is_empty s) then begin
           Telemetry.Snapshot.publish
             ~prefix:(Printf.sprintf "worker%d." slot) s;
           Telemetry.Snapshot.publish s
         end)
      (worker_snapshots t)
  end
