(** Level-filtered diagnostic logging.

    Library code routes its stderr diagnostics through here instead of
    calling [Printf.eprintf] directly, so test runs are quiet by
    default and a single environment variable turns debugging output
    back on:

    {v TELEMETRY_LEVEL=debug dune exec bin/eval.exe -- table2 v}

    Levels (each includes the ones above it): [quiet] < [error] <
    [warn] < [info] < [debug].  The default is [warn]. *)

type level = Quiet | Error | Warn | Info | Debug

let severity = function
  | Quiet -> 0
  | Error -> 1
  | Warn -> 2
  | Info -> 3
  | Debug -> 4

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "quiet" | "none" | "off" -> Some Quiet
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" | "all" -> Some Debug
  | _ -> None

let level_name = function
  | Quiet -> "quiet"
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let default_level () =
  match Sys.getenv_opt "TELEMETRY_LEVEL" with
  | Some s -> (match level_of_string s with Some l -> l | None -> Warn)
  | None -> Warn

let current : level ref = ref (default_level ())

let set_level l = current := l

(** [enabled l] — use to guard construction of expensive log
    arguments. *)
let enabled l = severity l <= severity !current && l <> Quiet

(* every line gets this prefix — forked fleet workers set it to their
   slot id ("[w3] ") so multi-worker stderr no longer interleaves
   indistinguishably with the parent's *)
let prefix : string ref = ref ""

let set_prefix p = prefix := p

let logf l fmt =
  if enabled l then
    Printf.eprintf ("%s[%s] " ^^ fmt ^^ "\n%!") !prefix (level_name l)
  else
    Printf.ifprintf stderr ("%s[%s] " ^^ fmt ^^ "\n%!") !prefix (level_name l)

let warnf fmt = logf Warn fmt
let infof fmt = logf Info fmt
let debugf fmt = logf Debug fmt
