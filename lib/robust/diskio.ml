(** Durable-IO layer: the one audited path every on-disk artifact
    goes through — append-only record files (cell journals, span and
    profile shards), atomic tmp+rename publication (merged artifacts,
    metrics files) and whole-file reads.

    Before this module the repo carried five independent copies of
    torn-tail healing and tmp+rename.  Centralizing them buys one
    place to count bytes and operations and one set of guarantees:
    - every {!append} flushes before it returns, so a record survives
      the process dying;
    - {!open_append} terminates a torn tail left by a crashed writer,
      so new records never fuse with the torn bytes;
    - {!write_atomic} fsyncs a tmp file and renames it over the
      target, so readers see the old bytes or the new, never a
      half-published file.

    A real IO failure (ENOSPC, a missing directory, a failed rename)
    surfaces as [Sys_error]: a damaged or missing journal costs
    re-running cells on resume, never a wrong cached grade. *)

(* ------------------------------------------------------------------ *)
(* FNV-1a 64-bit — the checksum every durable format shares.  It      *)
(* lives here (not in Journal) so every record format hashes through  *)
(* the IO layer without a dependency cycle.                           *)
(* ------------------------------------------------------------------ *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv64 (s : string) : int64 =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
       h := Int64.logxor !h (Int64.of_int (Char.code c));
       h := Int64.mul !h fnv_prime)
    s;
  !h

let fnv64_hex s = Printf.sprintf "%016Lx" (fnv64 s)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_appends = Telemetry.Metrics.counter "diskio.appends"
let m_bytes = Telemetry.Metrics.counter "diskio.bytes"
let m_atomic = Telemetry.Metrics.counter "diskio.atomic_writes"
let m_renames = Telemetry.Metrics.counter "diskio.renames"
let m_reads = Telemetry.Metrics.counter "diskio.reads"

(* ------------------------------------------------------------------ *)
(* Append handles                                                      *)
(* ------------------------------------------------------------------ *)

type handle = { h_oc : out_channel; h_path : string }

(* a well-formed record file ends in '\n'; anything else is the torn
   tail of a crashed append — terminate it so new records never fuse
   with the torn bytes.  (This is the healing formerly copied into
   the journal writer, the span shards and the profile sidecar.) *)
let ends_torn path =
  Sys.file_exists path
  && (let ic = open_in_bin path in
      let size = in_channel_length ic in
      let torn =
        size > 0
        && (seek_in ic (size - 1);
            input_char ic <> '\n')
      in
      close_in ic;
      torn)

(** Open [path] for record appends, healing a torn tail first. *)
let open_append path : handle =
  let torn = ends_torn path in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  if torn then output_char oc '\n';
  { h_oc = oc; h_path = path }

(** Append one complete record (the caller includes any trailing
    newline) and flush it to the kernel, so it survives the process
    dying.  A device that refuses the bytes raises
    [Sys_error "<path>: <reason>"]. *)
let append h s =
  (try
     output_string h.h_oc s;
     flush h.h_oc
   with Sys_error msg -> raise (Sys_error (h.h_path ^ ": " ^ msg)));
  Telemetry.Metrics.incr m_appends;
  Telemetry.Metrics.add m_bytes (String.length s)

(** Test helper: write [s] verbatim (no newline) and flush — simulates
    a crash between [output] and the terminator. *)
let append_torn h s =
  output_string h.h_oc s;
  flush h.h_oc

let close h = close_out h.h_oc

(* ------------------------------------------------------------------ *)
(* Atomic publication and reads                                        *)
(* ------------------------------------------------------------------ *)

(** Rename [src] over [dst] (a publishing rename). *)
let rename ~src ~dst =
  Sys.rename src dst;
  Telemetry.Metrics.incr m_renames

(** Write [contents] under [path] via tmp+rename, fsync before the
    publish: a crash (or a failed rename, raised as [Sys_error]) can
    leave a stale [path ^ ".tmp"] but never a torn file under the
    final name.  A stale tmp is harmless: the next write truncates
    it. *)
let write_atomic ~path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  rename ~src:tmp ~dst:path;
  Telemetry.Metrics.incr m_atomic;
  Telemetry.Metrics.add m_bytes (String.length contents)

(** The whole file as a string ([Sys_error] if unreadable). *)
let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let s =
         try really_input_string ic (in_channel_length ic)
         with Sys_error msg -> raise (Sys_error (path ^ ": " ^ msg))
       in
       Telemetry.Metrics.incr m_reads;
       s)
