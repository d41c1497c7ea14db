(** The published Table II, cell by cell, for paper-vs-measured
    comparison.  Bomb names match {!Bombs.Catalog}. *)

open Concolic.Error

type row = {
  bomb : string;
  bap : cell;
  triton : cell;
  angr : cell;
  angr_nolib : cell;
}

let ok = Success
let e = Abnormal
let p = Partial
let es0 = Fail Es0
let es1 = Fail Es1
let es2 = Fail Es2
let es3 = Fail Es3

let table2 : row list =
  [ { bomb = "time_bomb"; bap = es0; triton = es0; angr = es0; angr_nolib = es0 };
    { bomb = "web_bomb"; bap = es0; triton = es0; angr = e; angr_nolib = e };
    { bomb = "sysret_bomb"; bap = es0; triton = es0; angr = p; angr_nolib = p };
    { bomb = "argvlen_bomb"; bap = es2; triton = es0; angr = ok; angr_nolib = ok };
    { bomb = "stack_bomb"; bap = es1; triton = ok; angr = ok; angr_nolib = ok };
    { bomb = "file_bomb"; bap = es2; triton = es2; angr = e; angr_nolib = es2 };
    { bomb = "syscovert_bomb"; bap = es2; triton = es2; angr = p; angr_nolib = p };
    { bomb = "exception_bomb"; bap = ok; triton = es1; angr = e; angr_nolib = es2 };
    { bomb = "fileexc_bomb"; bap = es2; triton = es2; angr = es2; angr_nolib = es2 };
    { bomb = "pthread_bomb"; bap = ok; triton = es2; angr = es2; angr_nolib = es2 };
    { bomb = "fork_bomb"; bap = es2; triton = es2; angr = es2; angr_nolib = ok };
    { bomb = "array1_bomb"; bap = es3; triton = es3; angr = ok; angr_nolib = ok };
    { bomb = "array2_bomb"; bap = es3; triton = es3; angr = es3; angr_nolib = es3 };
    { bomb = "filename_bomb"; bap = es2; triton = es3; angr = es2; angr_nolib = es2 };
    { bomb = "sysname_bomb"; bap = es2; triton = es3; angr = es2; angr_nolib = es2 };
    { bomb = "jump_bomb"; bap = es3; triton = es3; angr = es2; angr_nolib = es2 };
    { bomb = "jumptable_bomb"; bap = es3; triton = es3; angr = es3; angr_nolib = es3 };
    { bomb = "float_bomb"; bap = es1; triton = es1; angr = e; angr_nolib = es3 };
    { bomb = "sin_bomb"; bap = es1; triton = es1; angr = e; angr_nolib = es2 };
    { bomb = "srand_bomb"; bap = es2; triton = e; angr = e; angr_nolib = es2 };
    { bomb = "sha1_bomb"; bap = e; triton = e; angr = e; angr_nolib = es2 };
    { bomb = "aes_bomb"; bap = es2; triton = es2; angr = es2; angr_nolib = es2 } ]

let expected bomb_name (tool : Profile.tool) =
  match List.find_opt (fun r -> r.bomb = bomb_name) table2 with
  | None -> None
  | Some r ->
    Some
      (match tool with
       | Profile.Bap -> r.bap
       | Profile.Triton -> r.triton
       | Profile.Angr -> r.angr
       | Profile.Angr_nolib -> r.angr_nolib)

(** Table I: challenge -> stages at which it can introduce errors. *)
let table1 : (string * stage list) list =
  [ ("Symbolic Variable Declaration", [ Es0; Es1; Es2; Es3 ]);
    ("Covert Symbolic Propagation", [ Es2; Es3 ]);
    ("Parallel Program", [ Es2; Es3 ]);
    ("Symbolic Array", [ Es3 ]);
    ("Contextual Symbolic Value", [ Es3 ]);
    ("Symbolic Jump", [ Es3 ]);
    ("Floating-point Number", [ Es3 ]) ]
