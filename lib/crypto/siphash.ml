(* SipHash-2-4: argument checks here, rounds in C.

   The compression and finalization rounds run in sealer_kernels.c,
   reached through a [@@noalloc] external whose key words, length and
   digest cross unboxed and untagged.  The digest is boxed only where
   a caller keeps it: inlined into the sealer (lib/crypto/dune's
   [-inline 200]), the MAC goes straight into a row or a comparison.
   Output is bit-identical to the boxed reference {!Siphash_ref}; see
   test/test_crypto.ml for the differential and reference-vector
   checks. *)

type key = { k0 : int64; k1 : int64 }

external prefix_kernel :
  (int64[@unboxed]) -> (int64[@unboxed]) -> bytes -> (int[@untagged]) ->
  (int64[@unboxed])
  = "sim_crypto_siphash24_prefix_byte" "sim_crypto_siphash24_prefix"
[@@noalloc]

let key_of_bytes b =
  if Bytes.length b < 16 then invalid_arg "Siphash.key_of_bytes: need 16 bytes";
  { k0 = Bytes.get_int64_le b 0; k1 = Bytes.get_int64_le b 8 }

let hash_prefix key data ~len =
  if len < 0 || len > Bytes.length data then
    invalid_arg "Siphash.hash_prefix: length outside the buffer";
  prefix_kernel key.k0 key.k1 data len

let hash key data = hash_prefix key data ~len:(Bytes.length data)
let hash_string key str = hash key (Bytes.unsafe_of_string str)

let selftest () =
  (* Reference vectors from the SipHash paper's test program. *)
  let key = key_of_bytes (Bytes.init 16 Char.chr) in
  hash key Bytes.empty = 0x726fdb47dd0e0e31L
  && hash key (Bytes.make 1 '\000') = 0x74f839c593dc67fdL
