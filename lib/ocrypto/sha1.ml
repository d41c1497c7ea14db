(** Reference SHA-1 (host side).

    Used to cross-check the guest assembly implementation and to
    compute the digest constants baked into the crypto bombs. *)

let rotl32 x n = Int32.logor (Int32.shift_left x n)
    (Int32.shift_right_logical x (32 - n))

let digest (msg : string) : string =
  let len = String.length msg in
  let bitlen = Int64.of_int (len * 8) in
  (* padded length: multiple of 64 with room for 0x80 and the length *)
  let padded = ((len + 8) / 64 + 1) * 64 in
  let block = Bytes.make padded '\000' in
  Bytes.blit_string msg 0 block 0 len;
  Bytes.set block len '\x80';
  for i = 0 to 7 do
    Bytes.set block (padded - 1 - i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical bitlen (8 * i)) land 0xff))
  done;
  let h = [| 0x67452301l; 0xEFCDAB89l; 0x98BADCFEl; 0x10325476l; 0xC3D2E1F0l |] in
  let w = Array.make 80 0l in
  for blk = 0 to (padded / 64) - 1 do
    let base = blk * 64 in
    for i = 0 to 15 do
      let b j = Int32.of_int (Char.code (Bytes.get block (base + i * 4 + j))) in
      w.(i) <-
        Int32.logor
          (Int32.shift_left (b 0) 24)
          (Int32.logor
             (Int32.shift_left (b 1) 16)
             (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
    done;
    for i = 16 to 79 do
      w.(i) <-
        rotl32
          (Int32.logxor
             (Int32.logxor w.(i - 3) w.(i - 8))
             (Int32.logxor w.(i - 14) w.(i - 16)))
          1
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3)
    and e = ref h.(4) in
    for i = 0 to 79 do
      let f, k =
        if i < 20 then
          (Int32.logor (Int32.logand !b !c)
             (Int32.logand (Int32.lognot !b) !d),
           0x5A827999l)
        else if i < 40 then (Int32.logxor (Int32.logxor !b !c) !d, 0x6ED9EBA1l)
        else if i < 60 then
          (Int32.logor
             (Int32.logor (Int32.logand !b !c) (Int32.logand !b !d))
             (Int32.logand !c !d),
           0x8F1BBCDCl)
        else (Int32.logxor (Int32.logxor !b !c) !d, 0xCA62C1D6l)
      in
      let temp =
        Int32.add
          (Int32.add (Int32.add (rotl32 !a 5) f) (Int32.add !e k))
          w.(i)
      in
      e := !d; d := !c; c := rotl32 !b 30; b := !a; a := temp
    done;
    h.(0) <- Int32.add h.(0) !a;
    h.(1) <- Int32.add h.(1) !b;
    h.(2) <- Int32.add h.(2) !c;
    h.(3) <- Int32.add h.(3) !d;
    h.(4) <- Int32.add h.(4) !e
  done;
  String.init 20 (fun i ->
      let word = h.(i / 4) in
      let shift = 24 - 8 * (i mod 4) in
      Char.chr (Int32.to_int (Int32.shift_right_logical word shift) land 0xff))
