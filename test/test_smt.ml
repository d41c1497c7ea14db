(** SMT substrate tests: SAT solver basics, bit-blaster vs evaluator
    agreement (property-based), simplifier soundness, solver outcomes
    on hand-picked constraints, and the FP search fallback. *)

open Smt

(* ---------------- SAT ---------------- *)

let sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.mk_lit a true; Sat.mk_lit b true ];
  Sat.add_clause s [ Sat.mk_lit a false ];
  (match Sat.solve s with
   | Sat -> ()
   | _ -> Alcotest.fail "expected sat");
  Alcotest.(check bool) "a false" false (Sat.model_value s a);
  Alcotest.(check bool) "b true" true (Sat.model_value s b)

let sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ Sat.mk_lit a true ];
  Sat.add_clause s [ Sat.mk_lit a false ];
  match Sat.solve s with
  | Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

(* pigeonhole PHP(4,3): unsat, requires real conflict analysis *)
let sat_pigeonhole () =
  let s = Sat.create () in
  let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Sat.new_var s)) in
  for p = 0 to 3 do
    Sat.add_clause s (List.init 3 (fun h -> Sat.mk_lit v.(p).(h) true))
  done;
  for h = 0 to 2 do
    for p1 = 0 to 3 do
      for p2 = p1 + 1 to 3 do
        Sat.add_clause s
          [ Sat.mk_lit v.(p1).(h) false; Sat.mk_lit v.(p2).(h) false ]
      done
    done
  done;
  match Sat.solve s with
  | Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole should be unsat"

(* random 3-SAT instances: solver's model must satisfy all clauses *)
let sat_random_models () =
  let rng = ref 123456789 in
  let rand n = rng := (!rng * 1103515245 + 12345) land 0x3fffffff; !rng mod n in
  for _case = 1 to 50 do
    let s = Sat.create () in
    let nv = 8 + rand 10 in
    let vars = Array.init nv (fun _ -> Sat.new_var s) in
    let clauses = ref [] in
    for _c = 1 to 3 * nv do
      let clause =
        List.init 3 (fun _ -> Sat.mk_lit vars.(rand nv) (rand 2 = 0))
      in
      clauses := clause :: !clauses;
      Sat.add_clause s clause
    done;
    match Sat.solve s with
    | Sat ->
      List.iter
        (fun clause ->
           let ok =
             List.exists
               (fun l ->
                  let v = Sat.model_value s (Sat.lit_var l) in
                  if Sat.lit_sign l then v else not v)
               clause
           in
           if not ok then Alcotest.fail "model does not satisfy clause")
        !clauses
    | Unsat -> () (* random instances may be unsat; fine *)
    | Unknown -> Alcotest.fail "unexpected unknown"
  done

(* ---------------- expr generators ---------------- *)

let gen_expr_with_var : (Expr.t * int) QCheck2.Gen.t =
  (* returns (expr of given width, depth); one variable "x" of width 16 *)
  let open QCheck2.Gen in
  let leaf w =
    oneof
      [ map (fun v -> Expr.const ~width:w (Int64.of_int v)) (int_bound 0xffff);
        (if w = 16 then return (Expr.var ~width:16 "x")
         else return (Expr.const ~width:w 3L)) ]
  in
  let rec build w depth =
    if depth = 0 then leaf w
    else
      let sub = build w (depth - 1) in
      oneof
        [ leaf w;
          map2 (fun op (a, b) -> Expr.Binop (op, a, b))
            (oneofl
               [ Expr.Add; Sub; Mul; And; Or; Xor; Shl; Lshr; Ashr; Udiv;
                 Urem; Sdiv; Srem ])
            (pair sub sub);
          map (fun a -> Expr.Unop (Not, a)) sub;
          map (fun a -> Expr.Unop (Neg, a)) sub;
          map3 (fun c a b -> Expr.ite c a b)
            (map2 (fun op (a, b) -> Expr.Cmp (op, a, b))
               (oneofl [ Expr.Eq; Ult; Ule; Slt; Sle ])
               (pair sub sub))
            sub sub ]
  in
  map (fun e -> (e, 3)) (build 16 3)

(* blast "e == value-under-env" and check SAT; i.e. the circuit agrees
   with the evaluator *)
let blast_agrees_with_eval =
  QCheck2.Test.make ~count:200 ~name:"bit-blaster agrees with evaluator"
    gen_expr_with_var
    (fun (e, _) ->
       let env = Eval.env_of_list [ ("x", 0xABCDL) ] in
       let expected = Eval.eval env e in
       let w = Expr.width_of e in
       let c =
         Expr.and_
           (Expr.eq e (Expr.const ~width:w expected))
           (Expr.eq (Expr.var ~width:16 "x") (Expr.const ~width:16 0xABCDL))
       in
       let ctx = Blast.create () in
       Blast.assert_true ctx c;
       match Blast.solve ctx with Sat -> true | _ -> false)

let simplify_sound =
  QCheck2.Test.make ~count:300 ~name:"simplify preserves evaluation"
    gen_expr_with_var
    (fun (e, _) ->
       let env = Eval.env_of_list [ ("x", 0x1234L) ] in
       let before = Eval.eval env e in
       let after = Eval.eval env (Simplify.run e) in
       Int64.equal before after)

(* ---------------- DAG walkers ---------------- *)

(* naive tree-walk references for the DAG-aware walkers in Expr *)
let children : Expr.t -> Expr.t list = function
  | Var _ | Const _ -> []
  | Unop (_, a) | Extract (_, _, a) | Zext (_, a) | Sext (_, a)
  | Fsqrt a | Fof_int a | Fto_int a -> [ a ]
  | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b)
  | Fbin (_, a, b) | Fcmp (_, a, b) -> [ a; b ]
  | Ite (c, a, b) -> [ c; a; b ]

let rec ref_contains_fp (e : Expr.t) =
  (match e with
   | Fbin _ | Fcmp _ | Fsqrt _ | Fof_int _ | Fto_int _ -> true
   | _ -> false)
  || List.exists ref_contains_fp (children e)

(* tree pre-order, first occurrence of each name *)
let ref_vars_of_list es =
  let rec go acc (e : Expr.t) =
    let acc =
      match e with
      | Var v
        when not (List.exists (fun (u : Expr.var) -> u.vname = v.vname) acc)
        -> v :: acc
      | _ -> acc
    in
    List.fold_left go acc (children e)
  in
  List.rev (List.fold_left go [] es)

(* physically distinct nodes, collected by a tree walk *)
let ref_nodes e =
  let rec go seen e =
    if List.memq e seen then seen
    else List.fold_left go (e :: seen) (children e)
  in
  go [] e

let ref_blast_cost ~cap ~node_budget e =
  let nodes = ref_nodes e in
  let cost = List.fold_left (fun acc n -> acc + Expr.node_weight n) 0 nodes in
  if cost > cap || List.length nodes > node_budget then cap + 1 else cost

let rec ref_depth_of depths e =
  List.fold_left
    (fun best c -> max best (ref_depth_of depths c))
    (Option.value ~default:0 (Expr.Phys.find_opt depths e))
    (children e)

(* fixed-seed generator terms, recombined so that some share sub-terms
   and some carry FP nodes *)
let walker_terms () =
  List.concat_map
    (fun seed ->
       let a = Difftest.Gen.(of_seed gen_constraint seed) in
       let b = Difftest.Gen.(of_seed gen_constraint (seed + 1000)) in
       let fp =
         Expr.Fcmp (Flt, Expr.Fof_int (Expr.Zext (64, b)), Expr.const 0L)
       in
       let mixed = Expr.Binop (Or, a, fp) in
       [ a;
         Expr.Binop (And, a, a);
         Expr.Ite (a, b, Expr.Binop (Xor, b, a));
         mixed;
         Expr.Binop (And, b, mixed);
         Expr.Binop (And, fp, Expr.Binop (Or, fp, a));
         Expr.Fto_int (Expr.Fsqrt (Expr.Zext (64, a))) ])
    (List.init 100 Fun.id)

let var_t = Alcotest.testable Expr.pp_var Expr.equal_var

let walkers_match_tree_walks () =
  let fp_free = Expr.Phys.create 16 in
  List.iteri
    (fun i e ->
       let what s = Printf.sprintf "term %d: %s" i s in
       let fp = ref_contains_fp e in
       Alcotest.(check bool) (what "contains_fp") fp (Expr.contains_fp e);
       Alcotest.(check bool) (what "contains_fp, shared memo") fp
         (Expr.contains_fp ~fp_free e);
       Alcotest.(check (list var_t)) (what "vars") (ref_vars_of_list [ e ])
         (Expr.vars e);
       let es = [ e; Expr.Unop (Not, e); Expr.var ~width:3 "w" ] in
       Alcotest.(check (list var_t)) (what "vars_of_list")
         (ref_vars_of_list es) (Expr.vars_of_list es);
       List.iter
         (fun (cap, node_budget) ->
            Alcotest.(check int)
              (what (Printf.sprintf "blast_cost cap=%d budget=%d" cap
                       node_budget))
              (ref_blast_cost ~cap ~node_budget e)
              (Expr.blast_cost ~cap ~node_budget e))
         [ (max_int, 50_000); (60, 50_000); (max_int, 8); (200, 20) ];
       let depths = Expr.Phys.create 16 in
       List.iteri
         (fun j n -> if j mod 3 = 0 then Expr.Phys.replace depths n (j mod 5))
         (ref_nodes e);
       Alcotest.(check int) (what "depth_of") (ref_depth_of depths e)
         (Concolic.Sym_exec.depth_of depths e))
    (walker_terms ())

(* x_{i+1} = x_i + x_i: 61 DAG nodes, a 2^60-node tree *)
let walkers_linear_on_shared_chain () =
  let rec chain n e =
    if n = 0 then e else chain (n - 1) (Expr.Binop (Add, e, e))
  in
  let rec down n (e : Expr.t) =
    match e with Binop (_, a, _) when n > 0 -> down (n - 1) a | _ -> e
  in
  let x = Expr.var ~width:8 "x" in
  let top = chain 60 x in
  let nodes = ref 0 in
  Expr.iter_dag (fun _ -> incr nodes) [ top ];
  Alcotest.(check int) "dag nodes" 61 !nodes;
  Alcotest.(check bool) "no fp" false (Expr.contains_fp top);
  Alcotest.(check bool) "fp at the bottom" true
    (Expr.contains_fp (chain 60 (Expr.Fto_int (Expr.var "d"))));
  Alcotest.(check (list var_t)) "vars" [ { vname = "x"; width = 8 } ]
    (Expr.vars top);
  Alcotest.(check (list var_t)) "vars_of_list" [ { vname = "x"; width = 8 } ]
    (Expr.vars_of_list [ top; chain 30 x ]);
  Alcotest.(check int) "blast_cost" ((60 * 5 * 8) + 1) (Expr.blast_cost top);
  let depths = Expr.Phys.create 4 in
  Expr.Phys.replace depths x 2;
  Expr.Phys.replace depths (down 30 top) 5;
  Alcotest.(check int) "depth_of" 5 (Concolic.Sym_exec.depth_of depths top)

(* ---------------- end-to-end solver ---------------- *)

let solve_simple_eq () =
  let x = Expr.var ~width:8 "x" in
  let c = Expr.eq (Expr.Binop (Add, x, Expr.const ~width:8 5L))
      (Expr.const ~width:8 42L) in
  match Solver.solve [ c ] with
  | Sat m -> Alcotest.(check int64) "x" 37L (List.assoc "x" m)
  | o -> Alcotest.failf "expected sat, got %s" (Solver.outcome_to_string o)

let solve_mul_inverse () =
  (* 3 * x == 51 over 16 bits: x = 17 (mod inverse also possible; any
     model must satisfy) *)
  let x = Expr.var ~width:16 "x" in
  let c =
    Expr.eq
      (Expr.Binop (Mul, Expr.const ~width:16 3L, x))
      (Expr.const ~width:16 51L)
  in
  match Solver.solve [ c ] with
  | Sat m ->
    let v = List.assoc "x" m in
    Alcotest.(check int64) "3x=51" 51L
      (Int64.logand (Int64.mul 3L v) 0xffffL)
  | o -> Alcotest.failf "expected sat, got %s" (Solver.outcome_to_string o)

let solve_unsat () =
  let x = Expr.var ~width:8 "x" in
  let c1 = Expr.Cmp (Ult, x, Expr.const ~width:8 5L) in
  let c2 = Expr.Cmp (Ult, Expr.const ~width:8 10L, x) in
  match Solver.solve [ c1; c2 ] with
  | Unsat -> ()
  | o -> Alcotest.failf "expected unsat, got %s" (Solver.outcome_to_string o)

let solve_sdiv_by_zero_semantics () =
  (* our evaluator: sdiv by 0 = mask; the circuit must agree *)
  let x = Expr.var ~width:8 "x" in
  let c =
    Expr.eq
      (Expr.Binop (Udiv, Expr.const ~width:8 7L, Expr.const ~width:8 0L))
      x
  in
  match Solver.solve [ c ] with
  | Sat m -> Alcotest.(check int64) "7/0 = 0xff" 0xffL (List.assoc "x" m)
  | o -> Alcotest.failf "expected sat, got %s" (Solver.outcome_to_string o)

let fp_needs_fallback () =
  let x = Expr.var ~width:64 "x" in
  let c = Expr.Fcmp (Feq, Expr.Fof_int x, Expr.const (Int64.bits_of_float 7.0))
  in
  (match Solver.solve [ c ] with
   | Unknown Fp_unsupported -> ()
   | o -> Alcotest.failf "expected fp-unsupported, got %s"
            (Solver.outcome_to_string o));
  let config = { Solver.default_config with enable_fp_search = true } in
  match Solver.solve ~config [ c ] with
  | Sat m -> Alcotest.(check int64) "x=7" 7L (List.assoc "x" m)
  | o -> Alcotest.failf "expected sat via search, got %s"
           (Solver.outcome_to_string o)

let fp_rounding_search () =
  (* the float bomb's core: 1024 + x == 1024 && x > 0 over doubles *)
  let x = Expr.var ~width:64 "x" in
  let c1024 = Expr.const (Int64.bits_of_float 1024.0) in
  let zero = Expr.const (Int64.bits_of_float 0.0) in
  let c1 = Expr.Fcmp (Feq, Expr.Fbin (Fadd, c1024, x), c1024) in
  let c2 = Expr.Fcmp (Flt, zero, x) in
  let config = { Solver.default_config with enable_fp_search = true } in
  match Solver.solve ~config [ c1; c2 ] with
  | Sat m ->
    let v = Int64.float_of_bits (List.assoc "x" m) in
    Alcotest.(check bool) "positive" true (v > 0.0);
    Alcotest.(check bool) "absorbed" true (1024.0 +. v = 1024.0)
  | o -> Alcotest.failf "expected sat, got %s" (Solver.outcome_to_string o)

(* ---------------- sessions ---------------- *)

let session_push_pop () =
  let x = Expr.var ~width:8 "x" in
  let s = Session.create () in
  Session.assert_ s (Expr.Cmp (Ult, x, Expr.const ~width:8 5L));
  Session.push s;
  Session.assert_ s (Expr.Cmp (Ult, Expr.const ~width:8 10L, x));
  (match Session.check s with
   | Session.Unsat -> ()
   | o -> Alcotest.failf "expected unsat, got %s" (Solver.outcome_to_string o));
  Session.pop s;
  match Session.check s with
  | Session.Sat m ->
    let v = List.assoc "x" m in
    Alcotest.(check bool) "x < 5" true (Int64.unsigned_compare v 5L < 0)
  | o ->
    Alcotest.failf "expected sat after pop, got %s" (Solver.outcome_to_string o)

(* the session pipeline must agree with the one-shot front-end, and the
   second round of identical queries must come from the query cache *)
let session_matches_oneshot_and_caches () =
  let x8 = Expr.var ~width:8 "x" in
  let y16 = Expr.var ~width:16 "y" in
  let sets =
    [ [ Expr.eq
          (Expr.Binop (Add, x8, Expr.const ~width:8 5L))
          (Expr.const ~width:8 42L) ];
      [ Expr.eq
          (Expr.Binop (Mul, Expr.const ~width:16 3L, y16))
          (Expr.const ~width:16 51L) ];
      [ Expr.Cmp (Ult, x8, Expr.const ~width:8 5L);
        Expr.Cmp (Ult, Expr.const ~width:8 10L, x8) ];
      [ Expr.Cmp (Ule, x8, Expr.const ~width:8 200L) ] ]
  in
  let s = Session.create () in
  let status = function
    | Session.Sat _ -> "sat"
    | Session.Unsat -> "unsat"
    | Session.Unknown _ -> "unknown"
  in
  let check_one cs =
    let one = Solver.solve cs in
    let inc = Session.check_assertions s cs in
    Alcotest.(check string) "status matches one-shot" (status one) (status inc);
    match inc with
    | Session.Sat m ->
      let env = Eval.env_of_list m in
      List.iter
        (fun c ->
           Alcotest.(check bool) "session model holds" true (Eval.holds env c))
        cs
    | _ -> ()
  in
  List.iter check_one sets;
  List.iter check_one sets;
  let st = Session.stats s in
  Alcotest.(check int) "queries" 8 st.Stats.queries;
  Alcotest.(check int) "second round served from cache" 4 st.Stats.cache_hits

let session_fp_fallback () =
  let x = Expr.var ~width:64 "x" in
  let c =
    Expr.Fcmp (Feq, Expr.Fof_int x, Expr.const (Int64.bits_of_float 7.0))
  in
  let s = Session.create () in
  (match Session.check_assertions s [ c ] with
   | Session.Unknown Session.Fp_unsupported -> ()
   | o ->
     Alcotest.failf "expected fp-unsupported, got %s"
       (Solver.outcome_to_string o));
  let config = { Session.default_config with enable_fp_search = true } in
  let s2 = Session.create ~config () in
  match Session.check_assertions s2 [ c ] with
  | Session.Sat m -> Alcotest.(check int64) "x=7" 7L (List.assoc "x" m)
  | o ->
    Alcotest.failf "expected sat via search, got %s"
      (Solver.outcome_to_string o)

(* a starved budget yields Unknown, which must NOT be cached: the same
   assertion set re-checked with the session's full budget decides *)
let session_budget_unknown () =
  (* expression-level pigeonhole (3 values in {0,1}, pairwise
     distinct): unsat, but only via conflict analysis, so a zero
     conflict budget must give up *)
  let p = Array.init 3 (fun i -> Expr.var ~width:2 (Printf.sprintf "p%d" i)) in
  let two = Expr.const ~width:2 2L in
  let ne a b = Expr.not_ (Expr.eq a b) in
  let cs =
    [ Expr.Cmp (Ult, p.(0), two); Expr.Cmp (Ult, p.(1), two);
      Expr.Cmp (Ult, p.(2), two); ne p.(0) p.(1); ne p.(0) p.(2);
      ne p.(1) p.(2) ]
  in
  let s = Session.create () in
  (match
     Session.check_assertions
       ~config:{ Session.default_config with conflict_budget = 0 }
       s cs
   with
   | Session.Unknown Session.Budget -> ()
   | o ->
     Alcotest.failf "expected budget unknown, got %s"
       (Solver.outcome_to_string o));
  (match Session.check s with
   | Session.Unsat -> ()
   | o ->
     Alcotest.failf "expected unsat with full budget, got %s"
       (Solver.outcome_to_string o));
  let st = Session.stats s in
  Alcotest.(check int) "no cache hit for unknown" 0 st.Stats.cache_hits

(* exact accounting on a scripted session: every counter is predicted
   by the script, and cache hits must cost zero blasting/conflicts *)
let session_stats_exact () =
  let x = Expr.var ~width:8 "x" in
  let c1 = Expr.Cmp (Ult, x, Expr.const ~width:8 5L) in
  let c2 = Expr.Cmp (Ult, Expr.const ~width:8 10L, x) in
  let stats = Stats.create () in
  let s = Session.create ~stats () in
  let expect what outcome = function
    | true -> ()
    | false ->
      Alcotest.failf "%s: got %s" what (Solver.outcome_to_string outcome)
  in
  (* q1: {c1} — fresh, blasts, sat *)
  Session.assert_ s c1;
  let o = Session.check s in
  expect "q1 sat" o (match o with Session.Sat _ -> true | _ -> false);
  Alcotest.(check int) "q1 queries" 1 stats.Stats.queries;
  Alcotest.(check int) "q1 no hits" 0 stats.Stats.cache_hits;
  Alcotest.(check int) "q1 sat count" 1 stats.Stats.sat;
  Alcotest.(check bool) "q1 blasted nodes" true (stats.Stats.blasted_nodes > 0);
  let blasted_q1 = stats.Stats.blasted_nodes in
  let conflicts_q1 = stats.Stats.conflicts in
  (* q2: {c1} again — answered by the query cache *)
  let o = Session.check s in
  expect "q2 sat" o (match o with Session.Sat _ -> true | _ -> false);
  Alcotest.(check int) "q2 queries" 2 stats.Stats.queries;
  Alcotest.(check int) "q2 hit" 1 stats.Stats.cache_hits;
  Alcotest.(check int) "q2 sat count" 2 stats.Stats.sat;
  Alcotest.(check int) "q2 blasts nothing" blasted_q1 stats.Stats.blasted_nodes;
  Alcotest.(check int) "q2 zero conflicts" conflicts_q1 stats.Stats.conflicts;
  (* q3: {c1, c2} — new set, new nodes, unsat *)
  Session.push s;
  Session.assert_ s c2;
  let o = Session.check s in
  expect "q3 unsat" o (o = Session.Unsat);
  Alcotest.(check int) "q3 queries" 3 stats.Stats.queries;
  Alcotest.(check int) "q3 no new hit" 1 stats.Stats.cache_hits;
  Alcotest.(check int) "q3 unsat count" 1 stats.Stats.unsat;
  Alcotest.(check bool) "q3 blasted more" true
    (stats.Stats.blasted_nodes > blasted_q1);
  let blasted_q3 = stats.Stats.blasted_nodes in
  let conflicts_q3 = stats.Stats.conflicts in
  (* q4: {c1, c2} again — unsat from cache, zero solver work *)
  let o = Session.check s in
  expect "q4 unsat" o (o = Session.Unsat);
  Alcotest.(check int) "q4 queries" 4 stats.Stats.queries;
  Alcotest.(check int) "q4 hit" 2 stats.Stats.cache_hits;
  Alcotest.(check int) "q4 unsat count" 2 stats.Stats.unsat;
  Alcotest.(check int) "q4 blasts nothing" blasted_q3 stats.Stats.blasted_nodes;
  Alcotest.(check int) "q4 zero conflicts" conflicts_q3 stats.Stats.conflicts;
  (* q5: pop back to {c1} — still cached from q1 *)
  Session.pop s;
  let o = Session.check s in
  expect "q5 sat" o (match o with Session.Sat _ -> true | _ -> false);
  Alcotest.(check int) "q5 queries" 5 stats.Stats.queries;
  Alcotest.(check int) "q5 hit" 3 stats.Stats.cache_hits;
  Alcotest.(check int) "q5 sat count" 3 stats.Stats.sat;
  Alcotest.(check int) "q5 blasts nothing" blasted_q3 stats.Stats.blasted_nodes;
  Alcotest.(check int) "unknown never incremented" 0 stats.Stats.unknown;
  Alcotest.(check int) "stats copy is independent"
    (Stats.copy stats).Stats.queries stats.Stats.queries

(* identical scripts on two fresh sessions must produce identical
   counters (everything except wall time is deterministic) *)
let session_stats_deterministic () =
  let script stats =
    let s = Session.create ~stats () in
    let x = Expr.var ~width:8 "x" in
    let y = Expr.var ~width:16 "y" in
    ignore (Session.check_assertions s [ Expr.Cmp (Ult, x, Expr.const ~width:8 9L) ]);
    ignore
      (Session.check_assertions s
         [ Expr.Cmp (Ult, x, Expr.const ~width:8 9L);
           Expr.eq
             (Expr.Binop (Mul, Expr.const ~width:16 3L, y))
             (Expr.const ~width:16 51L) ]);
    ignore (Session.check_assertions s [ Expr.fls ])
  in
  let a = Stats.create () and b = Stats.create () in
  script a;
  script b;
  Alcotest.(check int) "queries" a.Stats.queries b.Stats.queries;
  Alcotest.(check int) "cache_hits" a.Stats.cache_hits b.Stats.cache_hits;
  Alcotest.(check int) "sat" a.Stats.sat b.Stats.sat;
  Alcotest.(check int) "unsat" a.Stats.unsat b.Stats.unsat;
  Alcotest.(check int) "unknown" a.Stats.unknown b.Stats.unknown;
  Alcotest.(check int) "blasted_nodes" a.Stats.blasted_nodes b.Stats.blasted_nodes;
  Alcotest.(check int) "conflicts" a.Stats.conflicts b.Stats.conflicts

let printers_smoke () =
  let x = Expr.var ~width:8 "x" in
  let c = Expr.eq (Expr.Binop (Add, x, Expr.const ~width:8 1L))
      (Expr.const ~width:8 10L) in
  let s = Printer.smtlib_script [ c ] in
  let v = Printer.cvc_script [ c ] in
  Alcotest.(check bool) "smtlib mentions declare" true
    (String.length s > 0
     && String.sub s 0 10 = "(set-logic");
  Alcotest.(check bool) "cvc mentions BITVECTOR" true
    (String.length v > 0 && String.index_opt v 'B' <> None)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ blast_agrees_with_eval; simplify_sound ]

let () =
  Alcotest.run "smt"
    [ ("sat",
       [ Alcotest.test_case "basic" `Quick sat_basic;
         Alcotest.test_case "unsat" `Quick sat_unsat;
         Alcotest.test_case "pigeonhole" `Quick sat_pigeonhole;
         Alcotest.test_case "random 3-sat models" `Quick sat_random_models ]);
      ("blast", qcheck_tests);
      ("dag",
       [ Alcotest.test_case "walkers match tree walks" `Quick
           walkers_match_tree_walks;
         Alcotest.test_case "shared chain" `Quick
           walkers_linear_on_shared_chain ]);
      ("solver",
       [ Alcotest.test_case "simple eq" `Quick solve_simple_eq;
         Alcotest.test_case "mul inverse" `Quick solve_mul_inverse;
         Alcotest.test_case "unsat interval" `Quick solve_unsat;
         Alcotest.test_case "div by zero semantics" `Quick
           solve_sdiv_by_zero_semantics;
         Alcotest.test_case "fp fallback" `Quick fp_needs_fallback;
         Alcotest.test_case "fp rounding search" `Quick fp_rounding_search;
         Alcotest.test_case "printers" `Quick printers_smoke ]);
      ("session",
       [ Alcotest.test_case "push/pop" `Quick session_push_pop;
         Alcotest.test_case "matches one-shot + caches" `Quick
           session_matches_oneshot_and_caches;
         Alcotest.test_case "fp fallback" `Quick session_fp_fallback;
         Alcotest.test_case "budget unknown not cached" `Quick
           session_budget_unknown;
         Alcotest.test_case "stats accounting exact" `Quick
           session_stats_exact;
         Alcotest.test_case "stats deterministic" `Quick
           session_stats_deterministic ]) ]
