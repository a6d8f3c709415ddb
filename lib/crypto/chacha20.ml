(* ChaCha20 on unboxed [Int64] arithmetic.

   The sixteen state words are [ref]-bound [Int64] locals updated inside
   one loop.  ocamlopt turns a local [ref] that never escapes into a
   mutable variable and keeps a mutable [int64] variable unboxed, so the
   state lives in registers (or stack slots) as raw 64-bit words.  Each
   word is a 32-bit value in the low half of its 64-bit lane, and the
   high half is left to collect garbage: additions and XORs only carry
   upward, so the low 32 bits stay exact without masking.  Only a
   rotation looks at the high half, through the word it shifts right,
   so [rotl] masks that one operand; the output store truncates each
   keystream word to 32 bits.  The feed-forward add XORs each keystream
   word straight into the destination, so the only allocation is the
   output buffer [xor_stream] returns.  Output is bit-identical to the
   boxed reference {!Chacha20_ref}; see test/test_crypto.ml for the
   differential and RFC 8439 vector checks. *)

type key = bytes
type nonce = bytes

let key_of_string s =
  if String.length s = 0 then invalid_arg "Chacha20.key_of_string: empty";
  Bytes.init 32 (fun i -> s.[i mod String.length s])

(* Unchecked little-endian word access.  Every offset below is derived
   from a length validated on entry (key/nonce sizes, the output length
   for the stores), so the safe accessors' bounds checks are pure
   overhead.  The primitives are native-endian; big-endian hosts take
   the safe byte-swapping accessors instead. *)
external unsafe_get_32 : bytes -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set_32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] get32 b off =
  if Sys.big_endian then Bytes.get_int32_le b off else unsafe_get_32 b off

let[@inline] set32 b off v =
  if Sys.big_endian then Bytes.set_int32_le b off v else unsafe_set_32 b off v

let mask = 0xFFFF_FFFFL

(* The 32-bit LE word at [off] in the low half of a lane. *)
let[@inline] word b off = Int64.of_int32 (get32 b off)

let[@inline] add a b = Int64.add a b

(* Rotate the low 32 bits left by [n]: the high half of [x] would
   shift into the result on the right, so only that operand is
   masked. *)
let[@inline] rotl x n =
  Int64.logor (Int64.shift_left x n)
    (Int64.shift_right_logical (Int64.logand x mask) (32 - n))

(* XOR the low 32 bits of keystream word [ks] into bytes [off, off + 4)
   of [src], written to [dst] at [d + off], clipped to the first [n]
   bytes. *)
let[@inline] put ~src ~dst d n off ks =
  if off + 4 <= n then
    set32 dst (d + off) (Int32.logxor (get32 src off) (Int64.to_int32 ks))
  else
    for j = 0 to n - off - 1 do
      Bytes.unsafe_set dst (d + off + j)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get src (off + j))
           lxor ((Int64.to_int ks lsr (8 * j)) land 0xFF)))
    done

let xor_into ~key ?(counter = 0l) ~nonce src ~len:n dst ~dst_off:d =
  if Bytes.length key <> 32 then invalid_arg "Chacha20.block: key must be 32 bytes";
  if Bytes.length nonce <> 12 then
    invalid_arg "Chacha20.block: nonce must be 12 bytes";
  if n < 0 || n > Bytes.length src || d < 0 || d > Bytes.length dst - n then
    invalid_arg "Chacha20.xor_into: range outside src or dst";
  let c0 = Int64.of_int32 counter in
  let i4 = word key 0 and i5 = word key 4 and i6 = word key 8 in
  let i7 = word key 12 and i8 = word key 16 and i9 = word key 20 in
  let i10 = word key 24 and i11 = word key 28 in
  let i13 = word nonce 0 and i14 = word nonce 4 and i15 = word nonce 8 in
  for blk = 0 to ((n + 63) / 64) - 1 do
    (* The block counter wraps at 2^32, as the reference's [Int32.add]:
       only the low half of the lane is ever read. *)
    let i12 = add c0 (Int64.of_int blk) in
    let x0 = ref 0x61707865L and x1 = ref 0x3320646eL in
    let x2 = ref 0x79622d32L and x3 = ref 0x6b206574L in
    let x4 = ref i4 and x5 = ref i5 and x6 = ref i6 and x7 = ref i7 in
    let x8 = ref i8 and x9 = ref i9 and x10 = ref i10 and x11 = ref i11 in
    let x12 = ref i12 and x13 = ref i13 and x14 = ref i14 and x15 = ref i15 in
    for _ = 1 to 10 do
      (* column round: QR(0,4,8,12) QR(1,5,9,13) QR(2,6,10,14) QR(3,7,11,15) *)
      x0 := add !x0 !x4; x12 := rotl (Int64.logxor !x12 !x0) 16;
      x8 := add !x8 !x12; x4 := rotl (Int64.logxor !x4 !x8) 12;
      x0 := add !x0 !x4; x12 := rotl (Int64.logxor !x12 !x0) 8;
      x8 := add !x8 !x12; x4 := rotl (Int64.logxor !x4 !x8) 7;
      x1 := add !x1 !x5; x13 := rotl (Int64.logxor !x13 !x1) 16;
      x9 := add !x9 !x13; x5 := rotl (Int64.logxor !x5 !x9) 12;
      x1 := add !x1 !x5; x13 := rotl (Int64.logxor !x13 !x1) 8;
      x9 := add !x9 !x13; x5 := rotl (Int64.logxor !x5 !x9) 7;
      x2 := add !x2 !x6; x14 := rotl (Int64.logxor !x14 !x2) 16;
      x10 := add !x10 !x14; x6 := rotl (Int64.logxor !x6 !x10) 12;
      x2 := add !x2 !x6; x14 := rotl (Int64.logxor !x14 !x2) 8;
      x10 := add !x10 !x14; x6 := rotl (Int64.logxor !x6 !x10) 7;
      x3 := add !x3 !x7; x15 := rotl (Int64.logxor !x15 !x3) 16;
      x11 := add !x11 !x15; x7 := rotl (Int64.logxor !x7 !x11) 12;
      x3 := add !x3 !x7; x15 := rotl (Int64.logxor !x15 !x3) 8;
      x11 := add !x11 !x15; x7 := rotl (Int64.logxor !x7 !x11) 7;
      (* diagonal round: QR(0,5,10,15) QR(1,6,11,12) QR(2,7,8,13) QR(3,4,9,14) *)
      x0 := add !x0 !x5; x15 := rotl (Int64.logxor !x15 !x0) 16;
      x10 := add !x10 !x15; x5 := rotl (Int64.logxor !x5 !x10) 12;
      x0 := add !x0 !x5; x15 := rotl (Int64.logxor !x15 !x0) 8;
      x10 := add !x10 !x15; x5 := rotl (Int64.logxor !x5 !x10) 7;
      x1 := add !x1 !x6; x12 := rotl (Int64.logxor !x12 !x1) 16;
      x11 := add !x11 !x12; x6 := rotl (Int64.logxor !x6 !x11) 12;
      x1 := add !x1 !x6; x12 := rotl (Int64.logxor !x12 !x1) 8;
      x11 := add !x11 !x12; x6 := rotl (Int64.logxor !x6 !x11) 7;
      x2 := add !x2 !x7; x13 := rotl (Int64.logxor !x13 !x2) 16;
      x8 := add !x8 !x13; x7 := rotl (Int64.logxor !x7 !x8) 12;
      x2 := add !x2 !x7; x13 := rotl (Int64.logxor !x13 !x2) 8;
      x8 := add !x8 !x13; x7 := rotl (Int64.logxor !x7 !x8) 7;
      x3 := add !x3 !x4; x14 := rotl (Int64.logxor !x14 !x3) 16;
      x9 := add !x9 !x14; x4 := rotl (Int64.logxor !x4 !x9) 12;
      x3 := add !x3 !x4; x14 := rotl (Int64.logxor !x14 !x3) 8;
      x9 := add !x9 !x14; x4 := rotl (Int64.logxor !x4 !x9) 7
    done;
    let base = blk * 64 in
    put ~src ~dst d n base (Int64.add !x0 0x61707865L);
    put ~src ~dst d n (base + 4) (Int64.add !x1 0x3320646eL);
    put ~src ~dst d n (base + 8) (Int64.add !x2 0x79622d32L);
    put ~src ~dst d n (base + 12) (Int64.add !x3 0x6b206574L);
    put ~src ~dst d n (base + 16) (Int64.add !x4 i4);
    put ~src ~dst d n (base + 20) (Int64.add !x5 i5);
    put ~src ~dst d n (base + 24) (Int64.add !x6 i6);
    put ~src ~dst d n (base + 28) (Int64.add !x7 i7);
    put ~src ~dst d n (base + 32) (Int64.add !x8 i8);
    put ~src ~dst d n (base + 36) (Int64.add !x9 i9);
    put ~src ~dst d n (base + 40) (Int64.add !x10 i10);
    put ~src ~dst d n (base + 44) (Int64.add !x11 i11);
    put ~src ~dst d n (base + 48) (Int64.add !x12 i12);
    put ~src ~dst d n (base + 52) (Int64.add !x13 i13);
    put ~src ~dst d n (base + 56) (Int64.add !x14 i14);
    put ~src ~dst d n (base + 60) (Int64.add !x15 i15)
  done

let xor_stream ~key ?counter ~nonce data =
  let n = Bytes.length data in
  let out = Bytes.create n in
  xor_into ~key ?counter ~nonce data ~len:n out ~dst_off:0;
  out

(* The keystream block is the encryption of 64 zero bytes. *)
let block ~key ~counter ~nonce = xor_stream ~key ~counter ~nonce (Bytes.make 64 '\000')

let selftest () =
  (* RFC 8439 §2.3.2 block-function test vector. *)
  let key = Bytes.init 32 Char.chr in
  let nonce = Bytes.make 12 '\000' in
  Bytes.set nonce 3 '\009';
  Bytes.set nonce 7 '\074';
  let out = block ~key ~counter:1l ~nonce in
  let expected_prefix =
    [ 0x10; 0xf1; 0xe7; 0xe4; 0xd1; 0x3b; 0x59; 0x15;
      0x50; 0x0f; 0xdd; 0x1f; 0xa3; 0x20; 0x71; 0xc4 ]
  in
  List.for_all2
    (fun i expected -> Char.code (Bytes.get out i) = expected)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
    expected_prefix
