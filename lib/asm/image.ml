(** BELF — the loadable binary image produced by the linker.

    A BELF image carries a text segment, a data segment, an entry
    point, and a symbol table.  Symbols originating from linked-in
    library objects are flagged, which is how an Angr-style engine
    decides what "loading dynamic libraries" means.  [to_bytes] gives
    the on-disk representation whose length is the "binary size"
    reported in the paper's dataset statistics (§V-A). *)

type sym_kind = Func | Obj [@@deriving show { with_path = false }, eq]

type symbol = {
  name : string;
  addr : int64;
  kind : sym_kind;
  from_lib : bool;  (** defined by a library object, not the program *)
}
[@@deriving show { with_path = false }, eq]

type t = {
  entry : int64;
  text_addr : int64;
  text : string;
  data_addr : int64;
  data : string;
  bss_addr : int64;
  bss_size : int;
  symbols : symbol list;
}

let magic = "BELF"

let find_symbol t name = List.find_opt (fun s -> s.name = name) t.symbols

let symbol_addr t name =
  match find_symbol t name with
  | Some s -> s.addr
  | None -> invalid_arg (Printf.sprintf "Image.symbol_addr: %s" name)

let symbol_at t addr =
  List.find_opt (fun s -> Int64.equal s.addr addr) t.symbols

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

let put_i64 b v =
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let put_str b s =
  put_i64 b (Int64.of_int (String.length s));
  Buffer.add_string b s

let to_bytes t =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  put_i64 b t.entry;
  put_i64 b t.text_addr;
  put_str b t.text;
  put_i64 b t.data_addr;
  put_str b t.data;
  put_i64 b t.bss_addr;
  put_i64 b (Int64.of_int t.bss_size);
  put_i64 b (Int64.of_int (List.length t.symbols));
  List.iter
    (fun s ->
       put_str b s.name;
       put_i64 b s.addr;
       Buffer.add_char b (if s.kind = Func then 'F' else 'O');
       Buffer.add_char b (if s.from_lib then 'L' else 'P'))
    t.symbols;
  Buffer.contents b

(** Size in bytes of the serialised image — the dataset's notion of
    binary size. *)
let size t = String.length (to_bytes t)

exception Parse_error of string

let of_bytes data =
  let pos = ref 0 in
  let fail msg = raise (Parse_error msg) in
  let take n =
    if !pos + n > String.length data then fail "truncated image";
    let s = String.sub data !pos n in
    pos := !pos + n;
    s
  in
  let take_i64 () =
    let s = take 8 in
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (Char.code s.[i])) (8 * i))
    done;
    !v
  in
  let take_str () = take (Int64.to_int (take_i64 ())) in
  if take 4 <> magic then fail "bad magic";
  let entry = take_i64 () in
  let text_addr = take_i64 () in
  let text = take_str () in
  let data_addr = take_i64 () in
  let data_seg = take_str () in
  let bss_addr = take_i64 () in
  let bss_size = Int64.to_int (take_i64 ()) in
  let nsyms = Int64.to_int (take_i64 ()) in
  let symbols =
    List.init nsyms (fun _ ->
        let name = take_str () in
        let addr = take_i64 () in
        let kind = match (take 1).[0] with 'F' -> Func | _ -> Obj in
        let from_lib = (take 1).[0] = 'L' in
        { name; addr; kind; from_lib })
  in
  { entry; text_addr; text; data_addr; data = data_seg; bss_addr; bss_size;
    symbols }

(** Decode the instruction stored at virtual address [addr]. *)
let decode_at t addr =
  let off = Int64.to_int (Int64.sub addr t.text_addr) in
  if off < 0 || off >= String.length t.text then
    raise (Isa.Codec.Decode_error (Printf.sprintf "pc 0x%Lx outside text" addr));
  let insn, next = Isa.Codec.decode t.text off in
  (insn, Int64.add t.text_addr (Int64.of_int next))

(** All decoded instructions with their addresses (linear sweep — valid
    for BELF because the linker never interleaves code and data in
    text). *)
let disassemble t =
  let rec go off acc =
    if off >= String.length t.text then List.rev acc
    else
      let insn, next = Isa.Codec.decode t.text off in
      let addr = Int64.add t.text_addr (Int64.of_int off) in
      go next ((addr, insn) :: acc)
  in
  go 0 []
