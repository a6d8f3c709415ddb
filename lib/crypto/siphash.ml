(* SipHash-2-4 on unboxed [Int64] arithmetic.

   The four state lanes are [ref]-bound [Int64] locals updated inside
   one loop.  ocamlopt turns a local [ref] that never escapes into a
   mutable variable and keeps a mutable [int64] variable unboxed, so the
   lanes live in registers (or stack slots) as raw 64-bit words: the
   only allocation is the boxed digest [hash_prefix] returns.  The
   SipRound body is written out twice, once for the compression rounds
   and once for the finalization rounds; an out-of-line round would box
   the lanes at every call.  Output is bit-identical to the boxed reference
   {!Siphash_ref}; see test/test_crypto.ml for the differential and
   reference-vector checks. *)

type key = { k0 : int64; k1 : int64 }

(* Unchecked little-endian word load: every offset is below [8 * (n /
   8)], derived from the length, so the safe accessor's bounds check is
   pure overhead.  Big-endian hosts take the safe accessor instead. *)
external unsafe_get_64 : bytes -> int -> int64 = "%caml_bytes_get64u"

let[@inline] le64 b off =
  if Sys.big_endian then Bytes.get_int64_le b off else unsafe_get_64 b off

let key_of_bytes b =
  if Bytes.length b < 16 then invalid_arg "Siphash.key_of_bytes: need 16 bytes";
  { k0 = Bytes.get_int64_le b 0; k1 = Bytes.get_int64_le b 8 }

let[@inline] rotl x n =
  Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let hash_prefix key data ~len:n =
  if n < 0 || n > Bytes.length data then
    invalid_arg "Siphash.hash_prefix: length outside the buffer";
  let nwords = n / 8 in
  (* Final message word: the trailing [n mod 8] bytes, little-endian,
     under the length byte. *)
  let tail = ref 0 in
  for i = n - 1 downto 8 * nwords do
    tail := (!tail lsl 8) lor Char.code (Bytes.unsafe_get data i)
  done;
  let last = Int64.logor (Int64.of_int !tail) (Int64.shift_left (Int64.of_int n) 56) in
  let v0 = ref (Int64.logxor key.k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor key.k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor key.k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor key.k1 0x7465646279746573L) in
  for w = 0 to nwords do
    let m = if w < nwords then le64 data (8 * w) else last in
    v3 := Int64.logxor !v3 m;
    for _ = 1 to 2 do
      v0 := Int64.add !v0 !v1;
      v1 := Int64.logxor (rotl !v1 13) !v0;
      v0 := rotl !v0 32;
      v2 := Int64.add !v2 !v3;
      v3 := Int64.logxor (rotl !v3 16) !v2;
      v0 := Int64.add !v0 !v3;
      v3 := Int64.logxor (rotl !v3 21) !v0;
      v2 := Int64.add !v2 !v1;
      v1 := Int64.logxor (rotl !v1 17) !v2;
      v2 := rotl !v2 32
    done;
    v0 := Int64.logxor !v0 m
  done;
  v2 := Int64.logxor !v2 0xFFL;
  for _ = 1 to 4 do
    v0 := Int64.add !v0 !v1;
    v1 := Int64.logxor (rotl !v1 13) !v0;
    v0 := rotl !v0 32;
    v2 := Int64.add !v2 !v3;
    v3 := Int64.logxor (rotl !v3 16) !v2;
    v0 := Int64.add !v0 !v3;
    v3 := Int64.logxor (rotl !v3 21) !v0;
    v2 := Int64.add !v2 !v1;
    v1 := Int64.logxor (rotl !v1 17) !v2;
    v2 := rotl !v2 32
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

let hash key data = hash_prefix key data ~len:(Bytes.length data)
let hash_string key str = hash key (Bytes.unsafe_of_string str)

let selftest () =
  (* Reference vectors from the SipHash paper's test program. *)
  let key = key_of_bytes (Bytes.init 16 Char.chr) in
  hash key Bytes.empty = 0x726fdb47dd0e0e31L
  && hash key (Bytes.make 1 '\000') = 0x74f839c593dc67fdL
